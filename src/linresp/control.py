"""Inverse control of the invariant density.

Given a prescribed first-order density change rho1, find a map perturbation
eps realizing it.  Two routes:

* a particular solution by the two-step scheme: choose g with
  L0(g) = (I - L0) rho1 via the conjugacy closed form, then integrate the
  resulting first-order linear ODE in closed form ((eps*rho/T')' = -g);
* the minimal solution in a derivative-weighted Sobolev norm, by
  minimal-norm least squares on the truncated constraint A eps = r in real
  cosine/sine coordinates, with a rank cutoff.  For an odd map the real
  system splits into two half-size blocks, solved one after the other under
  one cutoff.  Only the rows j >= 0 of A are assembled, and the real system
  and the feasibility residual are formed from them.  ``truncation_defect``
  checks the order-N eps in the order-2N equations with no second solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fourier import (CHECK_GRID, FourierSeries, SobolevWeights, antiderivative, as_integer,
                      dft, differentiate, from_real_basis, grid_values, next_pow2,
                      real_matrix_from_rows, sobolev_norm, sup_norm, to_real_basis)
from .maps import CircleMap
from .response import ResponseProblem, derivative_operator
from .transfer import (_galerkin_rows, apply_transfer, apply_transfer_pointwise,
                       quadrature_size, solve_zero_mean)

PSEUDOINVERSE_CUTOFF = 1e-10
FEASIBILITY_TOL = 1e-8
ROUNDTRIP_TOL = 1e-6
# Entries of the assembled constraint matrix below this (relative to its
# largest entry at the order solved) are quadrature round-off, not data;
# clearing them keeps the weighted solve's null space aligned with the
# operator's true kernel.
ASSEMBLY_NOISE_FLOOR = 1e-13


class InfeasibleTargetError(RuntimeError):
    """The target is not realizable at this truncation."""


@dataclass(frozen=True, eq=False)
class ControlSolution:
    """A perturbation realizing a target density change.

    residual is the Euclidean norm of the truncated constraint defect
    ||A eps - r||_2; norm is the Sobolev norm the solution was scored with.
    rank is the numerical rank of the weighted constraint matrix kept by the
    minimal-norm solve, and margin the smallest kept and the largest dropped
    singular value, each over the largest (None for the two-step scheme);
    both are diagnostic only and not serialized.
    """

    epsilon: FourierSeries
    residual: float
    norm: float
    method: str
    rank: int | None = None
    margin: tuple[float, float] | None = None

    def to_dict(self) -> dict:
        return {"epsilon": self.epsilon.to_dict(), "residual": self.residual,
                "norm": self.norm, "method": self.method}


def _require_zero_mean(series: FourierSeries, what: str) -> None:
    if abs(series.coeff(0)) > 1e-10:
        raise ValueError(f"{what} has mean {series.coeff(0):.3e}; densities "
                         "integrate to 1, so the change must have zero mean")


def step1_g(problem: ResponseProblem, target: FourierSeries) -> FourierSeries:
    """Solve L0(g) = (I - L0) rho1 in closed form.

    With f = (I - L0) rho1, the function g = (f o T0) * rho / (rho o T0)
    satisfies L0(g) = f exactly (the conjugacy to a Haar-preserving map,
    simplified so that no numerical inversion is needed).  Verified to
    ||L0 g - f||_inf < 1e-9 and integral g = 0 within 1e-10.  g is returned
    at order (d+1) N, the bandwidth of f o T0.  A target beyond the
    truncation raises InfeasibleTargetError.
    """
    _require_zero_mean(target, "target density change")
    return _step1_g(problem, FourierSeries(_constraint_rhs(problem, target, problem.order)))


def _step1_g(problem: ResponseProblem, f: FourierSeries) -> FourierSeries:
    """``step1_g`` from f = (I - L0) rho1, already at the problem's order."""
    circle_map, rho = problem.map, problem.density
    out_order = (circle_map.degree + 1) * problem.order
    size = next_pow2(max(4 * out_order, 512))
    image = circle_map.grid_values(size)
    values = f.evaluate(image) * grid_values(rho, size) / rho.evaluate(image)
    g = dft(values, out_order)
    check = np.arange(CHECK_GRID) / CHECK_GRID
    defect = float(np.max(np.abs(
        apply_transfer_pointwise(circle_map, g, check) - grid_values(f, CHECK_GRID))))
    if defect > 1e-9:
        raise RuntimeError(f"step-1 verification failed: ||L g - f||_inf = {defect:.3e}")
    if abs(g.coeff(0)) > 1e-10:
        raise RuntimeError(f"step-1 verification failed: integral g = {g.coeff(0):.3e}")
    return g


def step2_epsilon(problem: ResponseProblem, g: FourierSeries) -> FourierSeries:
    """Solve the first-order linear ODE for eps in closed form.

    The equation -eps' rho/T' - eps rho'/T' + eps rho T''/(T')^2 = g is the
    exact derivative identity (eps*rho/T')' = -g, so with G the zero-mean
    primitive of g, eps = (T'/rho) (C - G), the free constant C fixed by
    integral eps = 0, returned at order g.order + N.  The pointwise ODE
    residual is verified below 1e-9.
    """
    _require_zero_mean(g, "step-2 right-hand side")
    circle_map, rho = problem.map, problem.density
    out_order = g.order + problem.order
    primitive = antiderivative(g)
    size = next_pow2(max(4 * out_order, 512))
    base = circle_map.grid_values(size, 1) / grid_values(rho, size)
    gvals = grid_values(primitive, size)
    c = float(np.mean(base * gvals) / np.mean(base))
    eps = dft(base * (c - gvals), out_order)

    tp = circle_map.grid_values(CHECK_GRID, 1)
    tpp = circle_map.grid_values(CHECK_GRID, 2)
    rv = grid_values(rho, CHECK_GRID)
    rpv = grid_values(differentiate(rho), CHECK_GRID)
    ev = grid_values(eps, CHECK_GRID)
    epv = grid_values(differentiate(eps), CHECK_GRID)
    residual = float(np.max(np.abs(
        -epv * rv / tp - ev * rpv / tp + ev * rv * tpp / tp**2 - grid_values(g, CHECK_GRID))))
    if residual > 1e-9:
        raise RuntimeError(f"step-2 ODE residual {residual:.3e} > 1e-9")
    return eps


def _constraint_rhs(problem: ResponseProblem, target: FourierSeries,
                    order: int) -> np.ndarray:
    """Coefficients of (I - L0) target at ``order``, refusing a target beyond it."""
    if target.order > order:
        raise InfeasibleTargetError(f"target order {target.order} exceeds truncation "
                                    f"{order}; retry with a larger order")
    image = apply_transfer(problem.map, target, out_order=order)
    return target.with_order(order).coeffs - image.coeffs


def _constraint_rows(problem: ResponseProblem, order: int) -> np.ndarray:
    """Rows 0 <= j <= ``order`` of A: eps coefficients to those of D_eps rho = -L0((eps*rho/T')').

    rho is the problem's density.  Integration by parts against the Galerkin
    test functions z^j = e^{-2 pi i j T} gives
    A[j, n] = -integral (e_n rho/T')' z^j = -2 pi i j integral e_n rho z^j:
    one Galerkin block weighted by rho, on the ``quadrature_size`` grid for
    orders (``order``, ``order`` + order of rho), before the noise floor.
    """
    circle_map, rho = problem.map, problem.density
    quad = quadrature_size(circle_map, order, order + rho.order)
    rows = _galerkin_rows(circle_map, order, order, quad, grid_values(rho, quad))
    rows *= (-2j * np.pi * np.arange(order + 1))[:, None]
    return rows


def _floored(rows: np.ndarray) -> np.ndarray:
    """``rows`` with entries below ASSEMBLY_NOISE_FLOOR of its largest set to 0, in place."""
    magnitude = np.abs(rows)
    rows[magnitude < ASSEMBLY_NOISE_FLOOR * np.max(magnitude)] = 0.0
    return rows


def _weighted_system(rows: np.ndarray, weights: SobolevWeights):
    """The W^{-1/2} scaling and Q^H A Q W^{-1/2}, from the rows j >= 0 of A.

    W(n) = W(-n), so W is diagonal in real coordinates too: a_n and b_n
    both carry W(n).
    """
    order = rows.shape[0] - 1
    w = weights.mode_weights(order)[order:]
    scale = 1.0 / np.sqrt(np.concatenate((w, w[1:])))
    return scale, real_matrix_from_rows(rows) * scale[None, :]


def _real_blocks(circle_map: CircleMap, order: int) -> list[tuple[slice, slice]]:
    """Row and column slices of the independent blocks of Q^H A Q W^{-1/2}.

    An odd map (``CircleMap.is_odd``) has an even rho and a purely
    imaginary A, so the real system maps cosines to sines and sines to
    cosines; its cos x cos and sin x sin blocks hold only assembly rounding.
    Any other map gives one block, the whole matrix.
    """
    if not circle_map.is_odd:
        return [(slice(None), slice(None))]
    cos, sin = slice(0, order + 1), slice(order + 1, None)
    return [(cos, sin), (sin, cos)]


def _bordered_lstsq(block: np.ndarray, rhs: np.ndarray, top: float):
    """dgelsd on ``block`` with its cutoff at PSEUDOINVERSE_CUTOFF * max(top, own top).

    With top > 0 the block is bordered by one row and one column, zero but
    for ``top`` where they cross, and the rhs by a 0: dgelsd's cutoff, rcond
    times the largest singular value, then reads the global top.  The
    border's singular value and coordinate are removed from the result.
    Returns the coordinates, the rank kept and the singular values.  SVDs
    of the blocks under one cutoff give the same rank, margin and eps (to
    1e-15) on the benchmark's control-n256 config, but took 16.5 against
    13.4 ms (one BLAS thread) and 24.6 against 14.8 ms (two) on 2 vCPUs.
    """
    if not top:
        x, _, rank, s = np.linalg.lstsq(block, rhs, rcond=PSEUDOINVERSE_CUTOFF)
        return x, int(rank), s
    rows, cols = block.shape
    bordered = np.zeros((rows + 1, cols + 1))
    bordered[:rows, :cols] = block
    bordered[rows, cols] = top
    padded = np.zeros(rows + 1)
    padded[:rows] = rhs
    x, _, rank, s = np.linalg.lstsq(bordered, padded, rcond=PSEUDOINVERSE_CUTOFF)
    return x[:cols], int(rank) - 1, np.delete(s, np.argmin(np.abs(s - top)))


def _block_lstsq(system: np.ndarray, rhs: np.ndarray, blocks: list[tuple[slice, slice]]):
    """Minimal-norm least squares on each block under one rank cutoff.

    Singular values at or below PSEUDOINVERSE_CUTOFF of the largest over all
    blocks count as null space.  The block of largest Frobenius norm is
    solved first, and its largest singular value is the top; every later
    block is solved once, bordered with that top (``_bordered_lstsq``), so
    one dgelsd per block applies the global rule.  A later block whose own
    largest singular value exceeds the top raises it; an earlier block that
    then keeps a singular value at or below the new cutoff is solved again,
    bordered with the new top.  Returns the coordinates, the rank kept and
    the margin: the smallest kept and the largest dropped singular value
    over the largest.
    """
    views = [(system[rows, cols], rhs[rows]) for rows, cols in blocks]
    solved: dict[int, tuple] = {}
    top = 0.0
    for i in sorted(range(len(views)), key=lambda k: np.linalg.norm(views[k][0]),
                    reverse=True):
        solved[i] = _bordered_lstsq(*views[i], top)
        if solved[i][2][0] > top:
            top = float(solved[i][2][0])
            for k in solved.keys() - {i}:
                _, rank, s = solved[k]
                if np.count_nonzero(s > PSEUDOINVERSE_CUTOFF * top) != rank:
                    solved[k] = _bordered_lstsq(*views[k], top)
    coords = np.empty(system.shape[1])
    for i, (_, cols) in enumerate(blocks):
        coords[cols] = solved[i][0]
    kept = np.concatenate([s[:rank] for _, rank, s in solved.values()])
    dropped = np.concatenate([s[rank:] for _, rank, s in solved.values()])
    margin = (float(kept.min() / top), float(dropped.max(initial=0.0) / top))
    return coords, int(kept.size), margin


def minimal_norm_control(problem: ResponseProblem, target: FourierSeries,
                         weights: SobolevWeights = SobolevWeights(),
                         order: int | None = None) -> ControlSolution:
    """Minimal Sobolev-norm perturbation realizing the target.

    Solves min ||eps||_W subject to A eps = r in the real coordinates of
    ``to_real_basis``, where A is the real matrix Q^H A Q: eps = W^{-1/2} y
    with y the minimal-norm least-squares solution of (Q^H A Q W^{-1/2}) y = Q^H r
    by LAPACK dgelsd.  An odd map splits the system into its cos-rows x
    sin-columns and sin-rows x cos-columns blocks, each solved by one dgelsd
    at about an eighth of the cost of the whole, the later block bordered
    with the earlier block's largest singular value so that one cutoff holds
    for both (``_block_lstsq``); any other map is solved whole.  Singular
    values at or below 1e-10 of the largest over all blocks are treated as
    null space; the rank kept and the cutoff margin are recorded.  The
    constraint defect d = A eps - r is measured on the complex entries of
    the rows j >= 0, ||d||^2 = |d_0|^2 + 2 sum_{j>0} |d_j|^2 (d is
    Hermitian); above 1e-8 the target is not realizable at this truncation.
    ``order`` (default: the problem's) must be an integer >= 1.
    """
    _require_zero_mean(target, "target density change")
    order = as_integer("order", problem.order if order is None else order, 1)
    r = _constraint_rhs(problem, target, order)
    rows = _floored(_constraint_rows(problem, order))
    scale, system = _weighted_system(rows, weights)
    coords, rank, margin = _block_lstsq(system, to_real_basis(r),
                                        _real_blocks(problem.map, order))
    eps = from_real_basis(scale * coords)
    d = rows @ eps.coeffs - r[order:]
    residual = float(np.sqrt(abs(d[0]) ** 2 + 2 * np.vdot(d[1:], d[1:]).real))
    if residual > FEASIBILITY_TOL:
        raise InfeasibleTargetError(
            f"constraint residual {residual:.3e} > {FEASIBILITY_TOL:.0e}: target not "
            f"realizable at truncation {order}; retry with a larger order")
    return ControlSolution(eps, residual, sobolev_norm(eps, weights), "minimal_norm",
                           rank, margin)


def solve_control(problem: ResponseProblem, target: FourierSeries,
                  weights: SobolevWeights = SobolevWeights()) -> ControlSolution:
    """Particular solution via the two-step scheme, with an end-to-end check.

    forward_response of the returned eps must reproduce the target within
    1e-6 in sup norm.  The reported norm uses ``weights`` (default: plain L2).
    A nonzero-mean target (ValueError), then one beyond the truncation
    (InfeasibleTargetError), is refused before any solve.
    """
    _require_zero_mean(target, "target density change")
    rhs = _constraint_rhs(problem, target, problem.order)
    g = _step1_g(problem, FourierSeries(rhs))
    eps = step2_epsilon(problem, g)
    drho = derivative_operator(problem, eps, problem.density)
    realized = solve_zero_mean(problem.matrix, drho)
    gap = sup_norm(realized - target)
    if gap > ROUNDTRIP_TOL:
        raise RuntimeError(f"two-step round trip error {gap:.3e} > 1e-6")
    residual = float(np.linalg.norm(drho.coeffs - rhs))
    if residual > FEASIBILITY_TOL:
        raise RuntimeError(f"two-step constraint defect {residual:.3e} > 1e-8")
    return ControlSolution(eps, residual, sobolev_norm(eps, weights), "two_step")


def kernel_directions(problem: ResponseProblem, order: int | None = None,
                      count: int = 6,
                      weights: SobolevWeights = SobolevWeights()) -> list[FourierSeries]:
    """W-orthonormal directions spanning the numerical null space of A.

    Perturbations along these directions change the invariant density only
    at second order.  If fewer than ``count`` null directions exist at this
    truncation, the available ones are returned with a warning; a ``count``
    or an ``order`` that is not an integer >= 1 is a ValueError.
    """
    count = as_integer("count", count, 1)
    order = as_integer("order", problem.order if order is None else order, 1)
    scale, system = _weighted_system(_floored(_constraint_rows(problem, order)), weights)
    _, s, vh = np.linalg.svd(system)
    # Rows of vh are real and orthonormal, so eps = Q W^{-1/2} v is real and
    # W-orthonormal; they come in decreasing singular value: a fixed order.
    null = vh[s <= PSEUDOINVERSE_CUTOFF * s[0]]
    if null.size == 0:
        warnings.warn("no null directions at this truncation", RuntimeWarning)
        return []
    found = null.shape[0]
    if found < count:
        warnings.warn(f"only {found} null directions exist at truncation {order} "
                      f"(requested {count})", RuntimeWarning)
    return [from_real_basis(scale * v) for v in null[:count]]


def minimal_norm_truncation_report(problem: ResponseProblem, target: FourierSeries,
                                   weights: SobolevWeights = SobolevWeights(),
                                   order: int | None = None) -> dict:
    """Minimal norms at truncations N = ``order`` and 2N, and their difference.

    Two ``minimal_norm_control`` solves, each with its own assembly.  To
    check an order-N answer at 2N without a second solve, see
    ``truncation_defect``.
    """
    order = as_integer("order", problem.order if order is None else order, 1)
    low, high = (minimal_norm_control(problem, target, weights, k).norm
                 for k in (order, 2 * order))
    return {"order": order, "norm": low, "order_doubled": 2 * order, "norm_doubled": high,
            "difference": abs(high - low)}


def truncation_defect(problem: ResponseProblem, target: FourierSeries, eps: FourierSeries,
                      order: int) -> FourierSeries:
    """The defect A eps - r at modes |j| <= ``order`` (an integer >= 1), assembling no A.

    (L0 w)' = L0((w/T0')'), so A eps = -L0((eps rho/T0')') = -(L0(rho eps))':
    one ``apply_transfer`` of the product rho eps, exact on next_pow2(2 K + 2)
    points for its order K.  The derivative's 2 pi j amplifies rounding, so
    the defect's floor grows with ``order``.  A target beyond ``order``
    raises InfeasibleTargetError.
    """
    order = as_integer("order", order, 1)
    r = _constraint_rhs(problem, target, order)
    rho = problem.density
    product_order = rho.order + eps.order
    size = next_pow2(2 * product_order + 2)
    product = dft(grid_values(rho, size) * grid_values(eps, size), product_order)
    image = apply_transfer(problem.map, product, out_order=order)
    return FourierSeries(-differentiate(image).coeffs - r)
