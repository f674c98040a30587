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

from .fourier import (CHECK_GRID, DEFAULT_ORDER, FourierSeries, dft, differentiate,
                      exact_size, grid_values, sup_norm)
from .maps import CircleMap
from .transfer import (TransferMatrix, apply_transfer, fixed_point_residual,
                       galerkin_matrix, invariant_density, solve_zero_mean)

# Products are formed at PAD_FACTOR*N modes and truncated back to N.
PAD_FACTOR = 4
CROSS_CHECK_TOL = 1e-9


class UnderResolvedError(RuntimeError):
    """The density computed at this truncation fails the pointwise fixed-point check."""


class InfeasibleTargetError(RuntimeError):
    """The target is not realizable at this truncation (raised by ``control``)."""


@dataclass(frozen=True, eq=False)
class ResponseProblem:
    """A Galerkin matrix; the map, the order and everything else follow from it.

    density is the matrix's invariant density, galerkin_residual
    sup |M rho - rho| over its coefficients and pointwise_residual
    sup |L rho - rho| on the ``CHECK_GRID`` points.  A density that fails the
    pointwise check (above 1e-9) raises UnderResolvedError.
    """

    matrix: TransferMatrix = field(repr=False)
    density: FourierSeries = field(init=False)
    galerkin_residual: float = field(init=False)
    pointwise_residual: float = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.matrix, TransferMatrix):
            raise TypeError("matrix must be a TransferMatrix")
        rho = invariant_density(self.matrix)
        object.__setattr__(self, "density", rho)
        # the residual that invariant_density verified, not computed again
        object.__setattr__(self, "galerkin_residual", self.matrix._density[1])
        object.__setattr__(self, "pointwise_residual", fixed_point_residual(self.map, rho))
        if self.pointwise_residual > 1e-9:
            raise UnderResolvedError(
                f"density fixed-point residual {self.pointwise_residual:.3e} > 1e-9 "
                f"at truncation {self.order}; raise N")

    @property
    def map(self) -> CircleMap:
        return self.matrix.map

    @property
    def order(self) -> int:
        return self.matrix.order

    @classmethod
    def for_map(cls, circle_map: CircleMap, order: int = DEFAULT_ORDER) -> "ResponseProblem":
        """The problem at an integer truncation ``order`` >= 1."""
        return cls(galerkin_matrix(circle_map, order))


def derivative_operator(problem: ResponseProblem, direction: FourierSeries,
                        w: FourierSeries) -> FourierSeries:
    """Apply the derivative operator D (at perturbation ``direction``) to w.

    Production path is the compact form -L((eps*w/T')'); the three-term form
    -L(w eps'/T') - L(eps w'/T') + L(eps T''/(T')^2 w) is evaluated as well
    and the two must agree within 1e-9 max(1, s) in sup norm, s the largest
    value of the transferred derivative (eps*w/T')' on the product grid.
    """
    circle_map, order = problem.map, problem.order
    pad = PAD_FACTOR * order
    size = exact_size(max(pad, direction.order, w.order))
    ev = grid_values(direction, size)
    wv = grid_values(w, size)
    tp = circle_map.grid_values(size, 1)
    product = dft(ev * wv / tp, pad)
    result = apply_transfer(circle_map, -differentiate(product), out_order=order)
    epv = grid_values(differentiate(direction), size)
    wpv = grid_values(differentiate(w), size)
    tpp = circle_map.grid_values(size, 2)
    derivative = -wv * epv / tp - ev * wpv / tp + ev * tpp * wv / tp**2
    alt = apply_transfer(circle_map, dft(derivative, pad), out_order=order)
    gap = sup_norm(result - alt, grid=CHECK_GRID)
    bound = CROSS_CHECK_TOL * max(1.0, float(abs(derivative).max()))
    if gap > bound:
        raise RuntimeError(
            f"compact and three-term forms disagree by {gap:.3e} (> {bound:.3e})")
    return result


def forward_response(problem: ResponseProblem, direction: FourierSeries) -> FourierSeries:
    """First-order density change rho1 for the perturbation ``direction``."""
    drho = derivative_operator(problem, direction, problem.density)
    return solve_zero_mean(problem.matrix, drho)
