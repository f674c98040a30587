"""Inverse control of the invariant density.

Given a prescribed first-order density change rho1, find a map perturbation
eps realizing it.  Two routes:

* a particular solution by the two-step scheme: choose g with
  L0(g) = (I - L0) rho1 via the conjugacy closed form, then integrate the
  resulting first-order linear ODE in closed form ((eps*rho/T')' = -g);
* the minimal solution in a derivative-weighted Sobolev norm, by
  minimal-norm least squares on the truncated constraint A eps = r in real
  cosine/sine coordinates, with a rank cutoff.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fourier import (FourierSeries, GridFunction, SobolevWeights,
                      antiderivative, dft, differentiate, from_real_basis,
                      grid_values, next_pow2, sobolev_norm, sup_norm, to_real_basis,
                      to_real_basis_matrix)
from .response import ResponseProblem, derivative_operator
from .transfer import (_galerkin_entries, apply_transfer, apply_transfer_pointwise,
                       quadrature_size, solve_zero_mean)

PSEUDOINVERSE_CUTOFF = 1e-10
FEASIBILITY_TOL = 1e-8
ROUNDTRIP_TOL = 1e-6
# Entries of the assembled constraint matrix below this (relative to its
# largest entry) are quadrature round-off, not data; clearing them keeps the
# weighted solve's null space aligned with the operator's true kernel.
ASSEMBLY_NOISE_FLOOR = 1e-13


class InfeasibleTargetError(RuntimeError):
    """The target is not realizable at this truncation."""


@dataclass(frozen=True, eq=False)
class ControlSolution:
    """A perturbation realizing a target density change.

    residual is the Euclidean norm of the truncated constraint defect
    ||A eps - r||_2; norm is the Sobolev norm the solution was scored with.
    rank is the numerical rank of the weighted constraint matrix kept by the
    minimal-norm solve (None for the two-step scheme); it is diagnostic
    only and not serialized.
    """

    epsilon: FourierSeries
    residual: float
    norm: float
    method: str
    rank: int | None = None

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
    at order (d+1) N, the bandwidth of f o T0.
    """
    _require_zero_mean(target, "target density change")
    circle_map, rho = problem.map, problem.density
    order = problem.order
    out_order = (circle_map.degree + 1) * order
    f = target.with_order(order) - apply_transfer(circle_map, target, out_order=order)
    size = next_pow2(max(4 * out_order, 512))
    image = circle_map.grid_values(size)
    values = f.evaluate(image) * grid_values(rho, size) / rho.evaluate(image)
    g = dft(GridFunction(values), out_order)
    check = np.arange(1024) / 1024
    defect = float(np.max(np.abs(
        apply_transfer_pointwise(circle_map, g, check) - grid_values(f, check.size))))
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
    eps = dft(GridFunction(base * (c - gvals)), out_order)

    check = 1024
    tp = circle_map.grid_values(check, 1)
    tpp = circle_map.grid_values(check, 2)
    rv = grid_values(rho, check)
    rpv = grid_values(differentiate(rho), check)
    ev = grid_values(eps, check)
    epv = grid_values(differentiate(eps), check)
    residual = float(np.max(np.abs(
        -epv * rv / tp - ev * rpv / tp + ev * rv * tpp / tp**2 - grid_values(g, check))))
    if residual > 1e-9:
        raise RuntimeError(f"step-2 ODE residual {residual:.3e} > 1e-9")
    return eps


def _constraint_rhs(problem: ResponseProblem, target: FourierSeries,
                    order: int) -> np.ndarray:
    if target.order > order:
        raise ValueError(f"target order {target.order} exceeds truncation {order}")
    t = target.with_order(order)
    image = apply_transfer(problem.map, t, out_order=order)
    return t.coeffs - image.coeffs


def constraint_matrix(problem: ResponseProblem, order: int) -> np.ndarray:
    """Matrix A mapping eps coefficients to those of L0(-(eps*rho/T')').

    With m the order-``order`` truncation of rho/T', integration by parts
    against the Galerkin test functions z^j = e^{-2 pi i j T} gives
    A[j, n] = -integral (e_n m)' z^j = -2 pi i j integral e_n m T' z^j: one
    Galerkin block weighted by m T', exact up to spectral quadrature.
    """
    circle_map, rho = problem.map, problem.density
    size = next_pow2(max(8 * order, 256))
    mult = dft(GridFunction(grid_values(rho, size) / circle_map.grid_values(size, 1)), order)

    # Quadrature for products of order-N data with the order-N multiplier.
    quad = quadrature_size(circle_map, order, max(16 * order, 256))
    weight = grid_values(mult, quad) * circle_map.grid_values(quad, 1)
    j = np.arange(-order, order + 1)
    matrix = (-2j * np.pi * j)[:, None] * _galerkin_entries(circle_map, order, order,
                                                             quad, weight)
    matrix[np.abs(matrix) < ASSEMBLY_NOISE_FLOOR * np.max(np.abs(matrix))] = 0.0
    return matrix


def _weighted_real_system(problem: ResponseProblem, weights: SobolevWeights,
                          order: int):
    """A, the W^{-1/2} scaling in real coordinates, and Q^H A Q W^{-1/2}.

    W(n) = W(-n), so W is diagonal in real coordinates too: a_n and b_n
    both carry W(n).
    """
    a = constraint_matrix(problem, order)
    w = weights.mode_weights(order)[order:]
    scale = 1.0 / np.sqrt(np.concatenate((w, w[1:])))
    return a, scale, to_real_basis_matrix(a) * scale[None, :]


def minimal_norm_control(problem: ResponseProblem, target: FourierSeries,
                         weights: SobolevWeights = SobolevWeights(),
                         order: int | None = None) -> ControlSolution:
    """Minimal Sobolev-norm perturbation realizing the target.

    Solves min ||eps||_W subject to A eps = r in the real coordinates of
    ``to_real_basis``, where A is the real matrix Q^H A Q: eps = W^{-1/2} y
    with y the minimal-norm least-squares solution of (Q^H A Q W^{-1/2}) y = Q^H r
    (LAPACK dgelsd; singular values at or below 1e-10 of the largest are
    treated as null space, and the rank kept is recorded).  A constraint
    defect above 1e-8 means the target is not realizable at this truncation.
    """
    _require_zero_mean(target, "target density change")
    if order is None:
        order = problem.order
    a, scale, system = _weighted_real_system(problem, weights, order)
    r = _constraint_rhs(problem, target, order)
    coords, _, rank, _ = np.linalg.lstsq(system, to_real_basis(r),
                                         rcond=PSEUDOINVERSE_CUTOFF)
    eps = from_real_basis(scale * coords)
    residual = float(np.linalg.norm(a @ eps.coeffs - r))
    if residual > FEASIBILITY_TOL:
        raise InfeasibleTargetError(
            f"constraint residual {residual:.3e} > {FEASIBILITY_TOL:.0e}: target not "
            f"realizable at truncation {order}; retry with a larger order")
    return ControlSolution(eps, residual, sobolev_norm(eps, weights), "minimal_norm",
                           int(rank))


def solve_control(problem: ResponseProblem, target: FourierSeries,
                  weights: SobolevWeights = SobolevWeights()) -> ControlSolution:
    """Particular solution via the two-step scheme, with an end-to-end check.

    forward_response of the returned eps must reproduce the target within
    1e-6 in sup norm.  The reported norm uses ``weights`` (default: plain L2).
    """
    g = step1_g(problem, target)
    eps = step2_epsilon(problem, g)
    drho = derivative_operator(problem, eps, problem.density)
    realized = solve_zero_mean(problem.matrix, drho)
    gap = sup_norm(realized - target)
    if gap > ROUNDTRIP_TOL:
        raise RuntimeError(f"two-step round trip error {gap:.3e} > 1e-6")
    residual = float(np.linalg.norm(
        drho.coeffs - _constraint_rhs(problem, target, problem.order)))
    if residual > FEASIBILITY_TOL:
        raise RuntimeError(f"two-step constraint defect {residual:.3e} > 1e-8")
    return ControlSolution(eps, residual, sobolev_norm(eps, weights), "two_step")


def kernel_directions(problem: ResponseProblem, order: int | None = None,
                      count: int = 6,
                      weights: SobolevWeights = SobolevWeights()) -> list[FourierSeries]:
    """W-orthonormal directions spanning the numerical null space of A.

    Perturbations along these directions change the invariant density only
    at second order.  If fewer than ``count`` null directions exist at this
    truncation, the available ones are returned with a warning.
    """
    if order is None:
        order = problem.order
    _, scale, system = _weighted_real_system(problem, weights, order)
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
                                   order: int | None = None,
                                   low: ControlSolution | None = None) -> dict:
    """Minimal norms at truncations (N, 2N) and their difference.

    ``low``, the order-N minimal-norm solution, is reused when given."""
    if order is None:
        order = problem.order
    if low is None:
        low = minimal_norm_control(problem, target, weights, order)
    high = minimal_norm_control(problem, target, weights, 2 * order)
    return {"order": order, "norm": low.norm,
            "order_doubled": 2 * order, "norm_doubled": high.norm,
            "difference": abs(high.norm - low.norm)}


def weighted_inner_product(f: FourierSeries, g: FourierSeries,
                           weights: SobolevWeights) -> complex:
    """W-inner product sum_n W(n) conj(f_n) g_n."""
    order = max(f.order, g.order)
    w = weights.mode_weights(order)
    return complex(np.sum(w * np.conj(f.with_order(order).coeffs)
                          * g.with_order(order).coeffs))
