"""Forward linear response: derivative of the invariant density.

For a family T_delta = T0 + delta*eps the derivative operator of the
transfer operators acts as

    D w = -L0( (eps * w / T0')' )

(the compact product-rule form of the three-term expansion), and the
first-order density change is rho1 = (I - L0)^{-1} D rho, solved on the
zero-mean subspace of a ``transfer.ResponseProblem``.
"""

from __future__ import annotations

from .fourier import (CHECK_GRID, FourierSeries, dft, differentiate, exact_size, grid_values,
                      sup_norm)
# Re-exported: control and the CLI import ResponseProblem from here, verify UnderResolvedError.
from .transfer import ResponseProblem, UnderResolvedError, apply_transfer, solve_zero_mean

# Products are formed at PAD_FACTOR times the output order and truncated back to it.
PAD_FACTOR = 4
CROSS_CHECK_TOL = 1e-9


class InfeasibleTargetError(RuntimeError):
    """The target is not realizable at this truncation (raised by ``control``)."""


def _compact_form(problem: ResponseProblem, direction: FourierSeries, w: FourierSeries,
                  order: int):
    """D w = -L((eps*w/T')') at modes |j| <= ``order``, eps the ``direction``.

    The product eps*w/T' is formed at PAD_FACTOR*``order`` modes.  Returns D w
    and the grid values of eps, w and T' it was formed from.
    """
    circle_map, pad = problem.map, PAD_FACTOR * order
    size = exact_size(max(pad, direction.order, w.order))
    ev, wv, tp = values = (grid_values(direction, size), grid_values(w, size),
                           circle_map.grid_values(size, 1))
    product = dft(ev * wv / tp, pad)
    return apply_transfer(circle_map, -differentiate(product), out_order=order), values


def derivative_operator(problem: ResponseProblem, direction: FourierSeries,
                        w: FourierSeries) -> FourierSeries:
    """Apply the derivative operator D (at perturbation ``direction``) to w.

    Production path is the compact form -L((eps*w/T')') (``_compact_form``);
    the three-term form -L(w eps'/T') - L(eps w'/T') + L(eps T''/(T')^2 w)
    is evaluated as well and the two must agree within 1e-9 max(1, s) in sup
    norm, s the largest value of the transferred derivative (eps*w/T')' on
    the product grid.
    """
    circle_map, order = problem.map, problem.order
    result, (ev, wv, tp) = _compact_form(problem, direction, w, order)
    epv = grid_values(differentiate(direction), ev.size)
    wpv = grid_values(differentiate(w), ev.size)
    tpp = circle_map.grid_values(ev.size, 2)
    derivative = -wv * epv / tp - ev * wpv / tp + ev * tpp * wv / tp**2
    alt = apply_transfer(circle_map, dft(derivative, PAD_FACTOR * order), out_order=order)
    gap = sup_norm(result - alt, grid=CHECK_GRID)
    bound = CROSS_CHECK_TOL * max(1.0, float(abs(derivative).max()))
    if gap > bound:
        raise RuntimeError(
            f"compact and three-term forms disagree by {gap:.3e} (> {bound:.3e})")
    return result


def forward_response(problem: ResponseProblem, direction: FourierSeries) -> FourierSeries:
    """First-order density change rho1 for the perturbation ``direction``."""
    drho = derivative_operator(problem, direction, problem.density)
    return solve_zero_mean(problem, drho)
