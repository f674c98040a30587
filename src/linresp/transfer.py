"""Transfer operator of an expanding circle map.

(L w)(x) = sum over preimages y of x of w(y)/T'(y).  The operator pushes
densities forward, preserves the integral, and on the zero-mean subspace
I - L is invertible (spectral gap), which is what the response and control
solvers exploit.  The Galerkin matrix in the Fourier basis is assembled via
the duality  integral (L w) phi = integral w (phi o T), so no preimages are
needed for matrix entries; each row is one FFT.  Its restricted I - M is
inverted once and serves both the invariant density and every zero-mean
solve.  The same duality applies L to a series; Newton preimages serve the
pointwise checks only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fourier import FourierSeries, GridFunction, dft, grid_values, idft, next_pow2
from .maps import CircleDiffeo, CircleMap

QUADRATURE_FACTOR = 8
CONDITION_LIMIT = 1e12
DENSITY_TOL = 1e-10
ASSEMBLY_BLOCK = 1 << 15  # complex grid samples per assembly block (512 KB)


class SpectralGapError(RuntimeError):
    """A Galerkin fixed-point or zero-mean solve failed its verification."""


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Dense Galerkin matrix of the transfer operator, modes -N..N.

    entries[j, k] = integral_0^1 e^{2 pi i k x} e^{-2 pi i j T(x)} dx
    (row j = output mode, column k = input mode), computed by trapezoidal
    quadrature, which is spectrally accurate for these analytic integrands.
    """

    entries: np.ndarray
    order: int
    quad_size: int

    def __post_init__(self) -> None:
        e = np.array(self.entries, dtype=complex)
        n = 2 * self.order + 1
        if e.shape != (n, n):
            raise ValueError(f"entries must be {n}x{n}")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)

    def apply(self, series: FourierSeries) -> FourierSeries:
        vec = series.with_order(self.order).coeffs
        return FourierSeries(self.entries @ vec).hermitian_symmetrized()

    @cached_property
    def restricted_condition(self) -> float:
        """1-norm condition number of I - M restricted to the nonzero modes."""
        return float(np.linalg.norm(self._restricted_system, 1)
                     * np.linalg.norm(self._restricted_inverse, 1))

    @cached_property
    def _restricted_system(self) -> np.ndarray:
        mid = self.order
        sys = np.eye(2 * self.order + 1, dtype=complex) - self.entries
        return np.delete(np.delete(sys, mid, axis=0), mid, axis=1)

    @cached_property
    def _restricted_inverse(self) -> np.ndarray:
        # Inverted once: the density and every zero-mean solve are products.
        return np.linalg.inv(self._restricted_system)


def _galerkin_entries(circle_map: CircleMap, row_order: int, col_order: int,
                      quad_size: int, weight=1.0) -> np.ndarray:
    """Grid mean of w e^{-2 pi i j T} e^{2 pi i k x}, |j| <= row_order, |k| <= col_order.

    Row j is the inverse FFT of w z^j, z = e^{-2 pi i T}, with the powers by
    running product; rows j < 0 follow by conjugate symmetry for real w.
    The rows go through in blocks of ASSEMBLY_BLOCK grid samples, and each
    block keeps only its 2 col_order + 1 wanted columns, so the transient
    memory is one block, not row_order x quad_size.
    """
    z = np.exp(-2j * np.pi * circle_map.grid_values(quad_size))
    cols = np.arange(-col_order, col_order + 1)
    rows = min(max(1, ASSEMBLY_BLOCK // quad_size), row_order + 1)
    powers = np.empty((rows, quad_size), dtype=complex)
    powers[0] = weight
    entries = np.empty((2 * row_order + 1, cols.size), dtype=complex)
    upper = entries[row_order:]
    for start in range(0, row_order + 1, rows):
        block = powers[:min(rows, row_order + 1 - start)]
        if start:
            # The product runs on across blocks: the previous block's last row times z.
            np.multiply(powers[-1], z, out=block[0])
        for j in range(1, len(block)):
            np.multiply(block[j - 1], z, out=block[j])
        upper[start:start + len(block)] = np.fft.ifft(block, axis=1)[:, cols]
    np.conj(upper[:0:-1, ::-1], out=entries[:row_order])
    return entries


def quadrature_size(circle_map: CircleMap, order: int, floor: int) -> int:
    """Grid for integrands e^{-2 pi i j T} e^{2 pi i k x}, |j|, |k| <= order.

    e^{-2 pi i j T} has a bandwidth of about j max T', so the grid covers
    order (1 + max T') and never drops below ``floor``; a power of two.
    """
    return next_pow2(max(floor, int(np.ceil(order * (1.0 + circle_map.max_derivative)))))


def galerkin_matrix(circle_map: CircleMap, order: int) -> TransferMatrix:
    """Galerkin matrix at truncation ``order`` (quadrature >= 8*order, sized by max T')."""
    quad_size = quadrature_size(circle_map, order, max(QUADRATURE_FACTOR * order, 128))
    return TransferMatrix(_galerkin_entries(circle_map, order, order, quad_size),
                          order, quad_size)


def apply_transfer_pointwise(circle_map: CircleMap, series: FourierSeries,
                             points: np.ndarray) -> np.ndarray:
    """(L w)(x) at the given points via Newton preimages."""
    y = circle_map.preimages(points)
    values = series.evaluate(y) / circle_map.evaluate(y, 1)
    return values.sum(axis=0)


def apply_transfer(circle_map: CircleMap, w, out_order: int | None = None):
    """Apply the transfer operator; returns the same kind as the input.

    Grid input is interpreted as the trigonometric interpolant of its
    samples and the result is returned on the same grid, through Newton
    preimages.  Series input needs no preimages: by duality, mode j of L w is
    the integral of w e^{-2 pi i j T}, the grid mean of w z^j with the powers
    by running product, for 0 <= j <= ``out_order`` (defaults to the input
    order); modes j < 0 follow by conjugation.
    """
    if isinstance(w, GridFunction):
        series = dft(w, (w.size - 1) // 2)
        return GridFunction(apply_transfer_pointwise(circle_map, series, w.nodes))
    if not isinstance(w, FourierSeries):
        raise TypeError("w must be a GridFunction or FourierSeries")
    if out_order is None:
        out_order = w.order
    # w z^j has a bandwidth of about w.order + j max T'; the margin of 16(K+1)
    # for a periodic part of order K covers the tail of e^{-2 pi i j p}.
    reach = w.order + out_order * circle_map.max_derivative
    size = next_pow2(max(QUADRATURE_FACTOR * out_order, 2 * w.order + 2, 128,
                         int(np.ceil(reach)) + 16 * (circle_map.periodic_part.order + 1)))
    z = np.exp(-2j * np.pi * circle_map.grid_values(size))
    acc = grid_values(w, size).astype(complex)
    upper = np.empty(out_order + 1, dtype=complex)
    for j in range(out_order + 1):
        upper[j] = acc.sum()
        acc *= z
    upper /= size
    return FourierSeries(np.concatenate((np.conj(upper[:0:-1]), upper)))


def fixed_point_residual(circle_map: CircleMap, density: FourierSeries,
                         grid: int = 1024) -> float:
    """sup norm of L(rho) - rho, evaluated pointwise (not in the Galerkin system)."""
    x = np.arange(grid) / grid
    return float(np.max(np.abs(
        apply_transfer_pointwise(circle_map, density, x) - grid_values(density, grid))))


def invariant_density(matrix: TransferMatrix) -> FourierSeries:
    """Invariant density: the fixed point of the Galerkin matrix with mean 1.

    Row 0 of M is e_0 (L preserves the integral), so rho_0 = 1 and the other
    modes solve (I - M)_rr rho_r = M[r, 0]: one product with the restricted
    inverse that every zero-mean solve uses.  Verified to satisfy
    ||M rho - rho||_inf <= 1e-10 and to be strictly positive on a 4096-point
    grid; either failure is a SpectralGapError.
    """
    mid = matrix.order
    modes = matrix._restricted_inverse @ np.delete(matrix.entries[:, mid], mid)
    rho = FourierSeries(np.insert(modes, mid, 1.0)).hermitian_symmetrized()
    residual = float(np.max(np.abs(matrix.entries @ rho.coeffs - rho.coeffs)))
    if residual > DENSITY_TOL:
        raise SpectralGapError(
            f"density Galerkin residual {residual:.3e} > {DENSITY_TOL:.0e}")
    samples = idft(rho, next_pow2(max(4096, 2 * mid + 2))).samples
    if float(np.min(samples)) <= 0.0:
        raise SpectralGapError(
            "computed density is not strictly positive; truncation too small?")
    return rho


def solve_zero_mean(matrix: TransferMatrix, rhs: FourierSeries) -> FourierSeries:
    """Solve (I - L) v = rhs on the zero-mean subspace, returning mean-zero v.

    The rhs must have zero mean (|mode 0| < 1e-10), which is exactly the
    subspace where I - L is invertible, and an order at most the matrix's.
    A condition number above 1e12 for the restricted system is reported as
    a warning.
    """
    if abs(rhs.coeff(0)) > 1e-10:
        raise ValueError(f"rhs mean {rhs.coeff(0):.3e} is not zero")
    mid = matrix.order
    if rhs.order > mid:
        raise ValueError(f"rhs order {rhs.order} exceeds solver truncation {mid}")
    if matrix.restricted_condition > CONDITION_LIMIT:
        warnings.warn(
            f"restricted system condition {matrix.restricted_condition:.3e} > "
            f"{CONDITION_LIMIT:.0e}: truncation under-resolved", RuntimeWarning)
    b = np.delete(rhs.with_order(mid).coeffs, mid)
    sol = matrix._restricted_inverse @ b
    result = FourierSeries(np.insert(sol, mid, 0.0)).hermitian_symmetrized()
    residual = float(np.max(np.abs(
        matrix._restricted_system @ np.delete(result.coeffs, mid) - b)))
    if residual > 1e-10:
        raise SpectralGapError(f"zero-mean solve residual {residual:.3e} > 1e-10")
    return result


def build_conjugate(circle_map: CircleMap, diffeo: CircleDiffeo,
                    order: int = 128) -> CircleMap:
    """The conjugated map S = h o T o h^{-1} as a CircleMap.

    S's periodic part is sampled through Newton inversion of h and
    re-projected, so downstream transfer applications of S use their own
    preimages and derivatives rather than the conjugacy's chain rule.
    """
    size = next_pow2(max(8 * order, 1024))
    x = np.arange(size) / size
    inner = diffeo.invert(x)
    lifted = circle_map.lift(inner)
    outer = lifted + diffeo.displacement.evaluate(lifted)
    periodic = dft(GridFunction(outer - circle_map.degree * x), order)
    return CircleMap(circle_map.degree, periodic)


def transfer_conjugacy_check(circle_map: CircleMap, diffeo: CircleDiffeo,
                             w: FourierSeries, grid: int = 1024,
                             conjugate_order: int = 128) -> float:
    """Max-norm residual of (L_S w) o h = (1/h') L_T((w o h) h') on a grid.

    S = h o T o h^{-1} is rebuilt independently (see build_conjugate), so the
    two sides share no preimage computations.  Test-only diagnostic.
    """
    conjugate = build_conjugate(circle_map, diffeo, conjugate_order)
    x = np.arange(grid) / grid
    hx = np.mod(diffeo.evaluate(x), 1.0)
    left = apply_transfer_pointwise(conjugate, w, hx)

    size = next_pow2(max(8 * conjugate_order, 1024))
    xs = np.arange(size) / size
    composed = dft(GridFunction(w.evaluate(diffeo.evaluate(xs)) * diffeo.deriv(xs)),
                   conjugate_order)
    right = apply_transfer_pointwise(circle_map, composed, x) / diffeo.deriv(x)
    return float(np.max(np.abs(left - right)))
