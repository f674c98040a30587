"""Inverse control of the invariant density.

Given a prescribed first-order density change rho1, find a map perturbation
eps realizing it.  Two routes:

* a particular solution by the two-step scheme (``solve_control``): with
  f = (I - L0) rho1, ``step1_g`` chooses g with L0(g) = f via the
  conjugacy closed form, then ``step2_epsilon`` integrates the resulting
  first-order linear ODE in closed form ((eps*rho/T')' = -g);
* the minimal solution in a derivative-weighted Sobolev norm, by
  minimal-norm least squares on the truncated constraint A eps = r in real
  cosine/sine coordinates, with a rank cutoff.  For an odd map the real
  system splits into two half-size blocks, solved one after the other under
  one cutoff.  Only the rows j >= 0 of A are assembled, and the feasibility
  residual and each block the solve reads are formed from them: the whole
  real system is never formed.  ``truncation_defect`` checks the order-N
  eps in the order-2N equations with no second solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import (CHECK_GRID, FourierSeries, SobolevWeights, antiderivative, as_integer,
                      dft, differentiate, exact_size, from_real_basis, grid_values, next_pow2,
                      require_zero_mean, sobolev_norm, sup_norm, to_real_basis)
from .maps import CircleMap
from .response import InfeasibleTargetError, ResponseProblem, derivative_operator
from .transfer import (_galerkin_rows, apply_transfer, apply_transfer_pointwise,
                       quadrature_size, real_matrix_from_rows, solve_zero_mean)

PSEUDOINVERSE_CUTOFF = 1e-10
FEASIBILITY_TOL = 1e-8
ROUNDTRIP_TOL = 1e-6
# Entries of the assembled constraint matrix below this (relative to its
# largest entry at the order solved) are quadrature round-off, not data;
# clearing them keeps the weighted solve's null space aligned with the
# operator's true kernel.
ASSEMBLY_NOISE_FLOOR = 1e-13


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


def _two_step_size(out_order: int) -> int:
    """Grid of the two-step products for an answer of order ``out_order``."""
    return next_pow2(max(4 * out_order, 512))


def step1_g(problem: ResponseProblem, f: FourierSeries) -> FourierSeries:
    """Solve L0(g) = f in closed form, for f = (I - L0) rho1 at the problem's order.

    The function g = (f o T0) * rho / (rho o T0) satisfies L0(g) = f exactly
    (the conjugacy to a Haar-preserving map, simplified so that no numerical
    inversion is needed).  With s = max(1, ||f||_inf), verified to
    ||L0 g - f||_inf <= 1e-9 s and |integral g| <= 1e-10 s.  g is returned
    at order (d+1) N, the bandwidth of f o T0.
    """
    circle_map, rho = problem.map, problem.density
    out_order = (circle_map.degree + 1) * problem.order
    size = _two_step_size(out_order)
    image = circle_map.grid_values(size)
    values = f.evaluate(image) * grid_values(rho, size) / rho.evaluate(image)
    g = dft(values, out_order)
    check = np.arange(CHECK_GRID) / CHECK_GRID
    wanted = grid_values(f, CHECK_GRID)
    scale = max(1.0, float(np.max(np.abs(wanted))))
    defect = float(np.max(np.abs(apply_transfer_pointwise(circle_map, g, check) - wanted)))
    if defect > 1e-9 * scale:
        raise RuntimeError(f"step-1 verification failed: ||L g - f||_inf = {defect:.3e}")
    if abs(g.coeff(0)) > 1e-10 * scale:
        raise RuntimeError(f"step-1 verification failed: integral g = {g.coeff(0):.3e}")
    return g


def step2_epsilon(problem: ResponseProblem, g: FourierSeries) -> FourierSeries:
    """Solve the first-order linear ODE for eps in closed form.

    The equation -eps' rho/T' - eps rho'/T' + eps rho T''/(T')^2 = g is the
    exact derivative identity (eps*rho/T')' = -g, so with G the zero-mean
    primitive of g, eps = (T'/rho) (C - G), the free constant C fixed by
    integral eps = 0, returned at order g.order + N.  The pointwise ODE
    residual is verified to be at most 1e-9 max(1, ||g||_inf).
    """
    primitive = antiderivative(g)  # refuses a g of nonzero mean
    circle_map, rho = problem.map, problem.density
    out_order = g.order + problem.order
    size = _two_step_size(out_order)
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
    gv = grid_values(g, CHECK_GRID)
    residual = float(np.max(np.abs(-epv * rv / tp - ev * rpv / tp + ev * rv * tpp / tp**2 - gv)))
    bound = 1e-9 * max(1.0, float(np.max(np.abs(gv))))
    if residual > bound:
        raise RuntimeError(f"step-2 ODE residual {residual:.3e} > {bound:.3e}")
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


def _weight_scale(weights: SobolevWeights, order: int) -> np.ndarray:
    """The diagonal of W^{-1/2} in real coordinates.

    W(n) = W(-n), so W is diagonal in real coordinates too: a_n and b_n
    both carry W(n).
    """
    w = weights.mode_weights(order)[order:]
    return 1.0 / np.sqrt(np.concatenate((w, w[1:])))


def _weighted_block(rows: np.ndarray, scale: np.ndarray, block: tuple[slice, slice]):
    """Rows and columns ``block`` of Q^H A Q W^{-1/2}, from the rows j >= 0 of A.

    The block comes with one more row and column, zero, for the border of
    ``_bordered_lstsq``.  It is built by ``real_matrix_from_rows`` and
    scaled in place, so each entry equals that of the whole weighted matrix
    bit for bit.
    """
    shape = [len(range(*part.indices(scale.size))) for part in block]
    padded = np.zeros((shape[0] + 1, shape[1] + 1))
    matrix = real_matrix_from_rows(rows, *block, out=padded[:-1, :-1])
    matrix *= scale[block[1]]
    return padded


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


def _bordered_lstsq(padded: np.ndarray, rhs: np.ndarray, top: float):
    """dgelsd on a block with its cutoff at PSEUDOINVERSE_CUTOFF * max(top, own top).

    ``padded`` is the block with one more row and column, and ``rhs`` its
    right-hand side with one more entry, all zero.  With top = 0 the block
    alone is solved.  With top > 0 the border is zero but for ``top`` where
    it crosses, and dgelsd's cutoff, rcond times the largest singular value,
    then reads the global top.  The border's singular value and coordinate
    are removed from the result.
    Returns the coordinates, the rank kept and the singular values.  SVDs
    of the blocks under one cutoff give the same rank, margin and eps (to
    1e-15) on the benchmark's control-n256 config, but took 16.5 against
    13.4 ms (one BLAS thread) and 24.6 against 14.8 ms (two) on 2 vCPUs.
    """
    if not top:
        x, _, rank, s = np.linalg.lstsq(padded[:-1, :-1], rhs[:-1],
                                        rcond=PSEUDOINVERSE_CUTOFF)
        return x, int(rank), s
    padded[-1, -1] = top
    x, _, rank, s = np.linalg.lstsq(padded, rhs, rcond=PSEUDOINVERSE_CUTOFF)
    return x[:-1], int(rank) - 1, np.delete(s, np.argmin(np.abs(s - top)))


def _block_lstsq(padded: list[np.ndarray], rhs: np.ndarray,
                 blocks: list[tuple[slice, slice]]):
    """Minimal-norm least squares on each block under one rank cutoff.

    ``padded[i]`` holds the rows and columns ``blocks[i]`` of a square
    system, with one more zero row and column (``_weighted_block``), and
    ``rhs`` is the system's right-hand side.
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
    views = [(block, np.append(rhs[rows], 0.0)) for block, (rows, _) in zip(padded, blocks)]
    solved: dict[int, tuple] = {}
    top = 0.0
    for i in sorted(range(len(views)), key=lambda k: np.linalg.norm(views[k][0][:-1, :-1]),
                    reverse=True):
        solved[i] = _bordered_lstsq(*views[i], top)
        if solved[i][2][0] > top:
            top = float(solved[i][2][0])
            for k in solved.keys() - {i}:
                _, rank, s = solved[k]
                if np.count_nonzero(s > PSEUDOINVERSE_CUTOFF * top) != rank:
                    solved[k] = _bordered_lstsq(*views[k], top)
    coords = np.empty(rhs.size)
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
    by LAPACK dgelsd.  Only the blocks the solve reads are built
    (``_weighted_block``), never the whole real matrix.  An odd map splits
    the system into its cos-rows x sin-columns and sin-rows x cos-columns
    blocks, each solved by one dgelsd at about an eighth of the cost of the
    whole, the later block bordered with the earlier block's largest
    singular value so that one cutoff holds for both (``_block_lstsq``);
    any other map is solved whole, as one block.  Singular
    values at or below 1e-10 of the largest over all blocks are treated as
    null space; the rank kept and the cutoff margin are recorded.  The
    constraint defect d = A eps - r is measured on the complex entries of
    the rows j >= 0, ||d||^2 = |d_0|^2 + 2 sum_{j>0} |d_j|^2 (d is
    Hermitian); above 1e-8 max(1, ||r||_2) the target is not realizable at
    this truncation.  ``order`` (default: the problem's) must be an integer >= 1.
    """
    require_zero_mean(target, "target density change")
    order = as_integer("order", problem.order if order is None else order, 1)
    r = _constraint_rhs(problem, target, order)
    rows = _floored(_constraint_rows(problem, order))
    scale = _weight_scale(weights, order)
    blocks = _real_blocks(problem.map, order)
    coords, rank, margin = _block_lstsq([_weighted_block(rows, scale, b) for b in blocks],
                                        to_real_basis(r), blocks)
    eps = from_real_basis(scale * coords)
    d = rows @ eps.coeffs - r[order:]
    residual = float(np.sqrt(abs(d[0]) ** 2 + 2 * np.vdot(d[1:], d[1:]).real))
    bound = FEASIBILITY_TOL * max(1.0, float(np.linalg.norm(r)))
    if residual > bound:
        raise InfeasibleTargetError(
            f"constraint residual {residual:.3e} > {bound:.3e}: target not "
            f"realizable at truncation {order}; retry with a larger order")
    return ControlSolution(eps, residual, sobolev_norm(eps, weights), "minimal_norm",
                           rank, margin)


def solve_control(problem: ResponseProblem, target: FourierSeries,
                  weights: SobolevWeights = SobolevWeights()) -> ControlSolution:
    """Particular solution via the two-step scheme, with an end-to-end check.

    forward_response of the returned eps must reproduce the target t within
    1e-6 max(1, sum_n |t_n|) in sup norm (the sum bounds ||t||_inf), and its
    constraint defect must be at most 1e-8 max(1, ||(I - L0) t||_2).  The
    reported norm uses ``weights`` (default: plain L2).  A nonzero-mean
    target (ValueError), then one beyond the truncation
    (InfeasibleTargetError), is refused before step 1, ``step1_g``.
    """
    require_zero_mean(target, "target density change")
    rhs = _constraint_rhs(problem, target, problem.order)
    g = step1_g(problem, FourierSeries(rhs))
    eps = step2_epsilon(problem, g)
    drho = derivative_operator(problem, eps, problem.density)
    realized = solve_zero_mean(problem.matrix, drho)
    gap = sup_norm(realized - target)
    bound = ROUNDTRIP_TOL * max(1.0, float(np.sum(np.abs(target.coeffs))))
    if gap > bound:
        raise RuntimeError(f"two-step round trip error {gap:.3e} > {bound:.3e}")
    residual = float(np.linalg.norm(drho.coeffs - rhs))
    bound = FEASIBILITY_TOL * max(1.0, float(np.linalg.norm(rhs)))
    if residual > bound:
        raise RuntimeError(f"two-step constraint defect {residual:.3e} > {bound:.3e}")
    return ControlSolution(eps, residual, sobolev_norm(eps, weights), "two_step")


def truncation_defect(problem: ResponseProblem, target: FourierSeries, eps: FourierSeries,
                      order: int) -> FourierSeries:
    """The defect A eps - r at modes |j| <= ``order`` (an integer >= 1), assembling no A.

    (L0 w)' = L0((w/T0')'), so A eps = -L0((eps rho/T0')') = -(L0(rho eps))':
    one ``apply_transfer`` of the product rho eps, exact on ``exact_size(K)``
    points for its order K.  The derivative's 2 pi j amplifies rounding, so
    the defect's floor grows with ``order``.  A target beyond ``order``
    raises InfeasibleTargetError.
    """
    order = as_integer("order", order, 1)
    r = _constraint_rhs(problem, target, order)
    rho = problem.density
    product_order = rho.order + eps.order
    size = exact_size(product_order)
    product = dft(grid_values(rho, size) * grid_values(eps, size), product_order)
    image = apply_transfer(problem.map, product, out_order=order)
    return FourierSeries(-differentiate(image).coeffs - r)
