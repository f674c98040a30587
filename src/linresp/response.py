"""Forward linear response: derivative of the invariant density.

For a family T_delta = T0 + delta*eps the derivative operator of the
transfer operators acts as

    D w = -L0( (eps * w / T0')' )

(the compact product-rule form of the three-term expansion), and the
first-order density change is rho1 = (I - L0)^{-1} D rho, solved on the
zero-mean subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fourier import (DEFAULT_ORDER, FourierSeries, GridFunction, dft,
                      differentiate, grid_values, l1_norm, next_pow2, sup_norm)
from .maps import CircleMap, PerturbedFamily
from .transfer import (TransferMatrix, apply_transfer, fixed_point_residual,
                       galerkin_matrix, invariant_density, solve_zero_mean)

# Products are formed at PAD_FACTOR*N modes and truncated back to N.
PAD_FACTOR = 4
CROSS_CHECK_TOL = 1e-9


class UnderResolvedError(RuntimeError):
    """The density computed at this truncation fails the pointwise fixed-point check."""


@dataclass(frozen=True, eq=False)
class ResponseProblem:
    """A map, its invariant density and Galerkin matrix at a working truncation.

    pointwise_residual is sup |L rho - rho| on a 1024-point grid.
    """

    map: CircleMap
    density: FourierSeries
    order: int = DEFAULT_ORDER
    matrix: TransferMatrix | None = field(default=None, repr=False)
    pointwise_residual: float = field(init=False)

    def __post_init__(self) -> None:
        if abs(self.density.coeff(0) - 1.0) > 1e-10:
            raise ValueError("density must be normalized to mean 1")
        object.__setattr__(self, "pointwise_residual",
                           fixed_point_residual(self.map, self.density))
        if self.pointwise_residual > 1e-9:
            raise ValueError(
                f"density fixed-point residual {self.pointwise_residual:.3e} > 1e-9")
        if self.matrix is None:
            object.__setattr__(self, "matrix", galerkin_matrix(self.map, self.order))

    @classmethod
    def for_map(cls, circle_map: CircleMap, order: int = DEFAULT_ORDER) -> "ResponseProblem":
        """The problem at ``order``, its density computed from its Galerkin matrix.

        A density that fails the pointwise check raises UnderResolvedError.
        """
        matrix = galerkin_matrix(circle_map, order)
        rho = invariant_density(matrix)
        try:
            return cls(circle_map, rho, order, matrix)
        except ValueError as exc:
            raise UnderResolvedError(f"{exc} at truncation {order}; raise N") from None


def derivative_operator(problem: ResponseProblem, direction: FourierSeries,
                        w: FourierSeries) -> FourierSeries:
    """Apply the derivative operator D (at perturbation ``direction``) to w.

    Production path is the compact form -L((eps*w/T')'); the three-term form
    -L(w eps'/T') - L(eps w'/T') + L(eps T''/(T')^2 w) is evaluated as well
    and the two must agree within 1e-9 in sup norm.
    """
    circle_map, order = problem.map, problem.order
    pad = PAD_FACTOR * order
    size = next_pow2(max(2 * pad + 2, 2 * direction.order + 2, 2 * w.order + 2))
    ev = grid_values(direction, size)
    wv = grid_values(w, size)
    tp = circle_map.grid_values(size, 1)
    product = dft(GridFunction(ev * wv / tp), pad)
    result = apply_transfer(circle_map, -differentiate(product), out_order=order)
    epv = grid_values(differentiate(direction), size)
    wpv = grid_values(differentiate(w), size)
    tpp = circle_map.grid_values(size, 2)
    combined = dft(GridFunction(-wv * epv / tp - ev * wpv / tp
                                + ev * tpp * wv / tp**2), pad)
    alt = apply_transfer(circle_map, combined, out_order=order)
    gap = sup_norm(result - alt, grid=1024)
    if gap > CROSS_CHECK_TOL:
        raise RuntimeError(
            f"compact and three-term forms disagree by {gap:.3e} (> 1e-9)")
    return result


def forward_response(problem: ResponseProblem, direction: FourierSeries) -> FourierSeries:
    """First-order density change rho1 for the perturbation ``direction``."""
    drho = derivative_operator(problem, direction, problem.density)
    return solve_zero_mean(problem.matrix, drho)


def finite_difference_response_check(problem: ResponseProblem,
                                     direction: FourierSeries, delta: float,
                                     grid: int = 4096) -> float:
    """L1 gap between the central-difference density derivative and rho1.

    Invariant densities of T_{+delta} and T_{-delta} are computed spectrally,
    so the gap scales as O(delta^2).
    """
    family = PerturbedFamily(problem.map, direction)
    rho_plus = invariant_density(galerkin_matrix(family.member(delta), problem.order))
    rho_minus = invariant_density(galerkin_matrix(family.member(-delta), problem.order))
    fd = (rho_plus - rho_minus) * (0.5 / delta)
    return l1_norm(fd - forward_response(problem, direction), grid)
