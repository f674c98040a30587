"""Transfer operator of an expanding circle map.

(L w)(x) = sum over preimages y of x of w(y)/T'(y).  The operator pushes
densities forward, preserves the integral, and on the zero-mean subspace
I - L is invertible (spectral gap), which is what the response and control
solvers exploit.  The Galerkin matrix M in the Fourier basis is assembled via
the duality  integral (L w) phi = integral w (phi o T), so no preimages are
needed for matrix entries; each row is one FFT.  M maps real functions to
real ones, so only its rows j >= 0 are assembled (``_galerkin_rows``, which
also serves the constraint matrix of ``control``), and a ``TransferMatrix``
keeps M only as the real matrix Q^H M Q in the coordinates of
``fourier.to_real_basis``.  The same duality applies L to a series
(``apply_transfer``): its moments are a baby-step/giant-step sum, one real
matrix product per chunk of the grid.  Each of these integrals is a grid
mean on the grid that ``quadrature_size`` derives from the map and the
orders involved.  Without the a_0 coordinate,
I - Q^H M Q is a real 2N x 2N matrix R, inverted once; it serves both the
invariant density and every zero-mean solve, whose outputs are Hermitian by
construction.  An odd map has a real M, so R maps cosines to cosines and
sines to sines and is inverted as its two N x N diagonal blocks.  Newton
preimages serve the pointwise checks only (``apply_transfer_pointwise``,
``fixed_point_residual``).  Uniform-grid samples, such as the density's
positivity check, come from ``fourier.grid_values``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fourier import (CHECK_GRID, FourierSeries, as_integer, baby_steps, block_length,
                      from_real_basis, grid_values, next_pow2, real_matrix_from_rows,
                      to_real_basis)
from .maps import CircleMap

CONDITION_LIMIT = 1e12
DENSITY_TOL = 1e-10
ASSEMBLY_BLOCK = 1 << 15  # complex grid samples per assembly block (512 KB)
# At HORNER_BLOCK, control at N=256 writes other bytes and ran 3 ms slower (2 vCPUs).


class SpectralGapError(RuntimeError):
    """A Galerkin fixed-point or zero-mean solve failed its verification."""


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Dense Galerkin matrix of the transfer operator, modes -N..N, in real coordinates.

    real = Q^H M Q, with Q as in ``fourier.from_real_basis`` and
    M[j, k] = integral_0^1 e^{2 pi i k x} e^{-2 pi i j T(x)} dx
    (row j = output mode, column k = input mode) by trapezoidal quadrature,
    which is spectrally accurate for these analytic integrands.  M maps real
    functions to real ones, so real is a float matrix, square of odd size
    2N + 1 >= 3; the order N follows from it.  map is the map T.
    """

    real: np.ndarray
    map: CircleMap = field(repr=False)

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.real):
            raise TypeError("real must be the real matrix Q^H M Q, not a complex one")
        r = np.array(self.real, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] % 2 == 0 or r.shape[0] < 3:
            raise ValueError(f"real must be a square matrix of odd size >= 3, not {r.shape}")
        r.flags.writeable = False
        object.__setattr__(self, "real", r)

    @property
    def order(self) -> int:
        return self.real.shape[0] // 2

    @property
    def restricted_condition(self) -> float:
        """1-norm condition number of the real restricted system R (``_factorization``)."""
        return self._factorization[1]

    @cached_property
    def _factorization(self) -> tuple[list[tuple[slice, np.ndarray]], float]:
        # R = I - Q^H M Q without the a_0 row and column, 2N x 2N.  It is
        # inverted once; the density and every zero-mean solve are products.
        # An odd map's M is real, so R's cos x sin and sin x cos blocks hold
        # only assembly rounding and R is inverted as its cos and sin diagonal
        # blocks, each sliced from the matrix on its own.  The 1-norm of a
        # block-diagonal matrix is the largest over its blocks.
        n = self.order
        restricted = self.real[1:, 1:]
        blocks = [slice(0, n), slice(n, None)] if self.map.is_odd else [slice(None)]
        systems = [(b, np.eye(len(restricted[b, b])) - restricted[b, b]) for b in blocks]
        inverses = [(b, np.linalg.inv(system)) for b, system in systems]
        norm = max(np.linalg.norm(system, 1) for _, system in systems)
        return inverses, float(norm * max(np.linalg.norm(inv, 1) for _, inv in inverses))

    @cached_property
    def _density(self) -> tuple[FourierSeries, float]:
        # ``invariant_density`` and its Galerkin residual ||M rho - rho||_inf,
        # computed once per matrix.
        u = np.concatenate(([1.0], self._restricted_solve(self.real[1:, 0])))
        rho = from_real_basis(u)
        residual = float(np.max(np.abs(from_real_basis(self.real @ u - u).coeffs)))
        if residual > DENSITY_TOL:
            raise SpectralGapError(
                f"density Galerkin residual {residual:.3e} > {DENSITY_TOL:.0e}")
        samples = grid_values(rho, next_pow2(max(4096, 2 * self.order + 2)))
        if float(np.min(samples)) <= 0.0:
            raise SpectralGapError(
                "computed density is not strictly positive; truncation too small?")
        return rho, residual

    def _restricted_solve(self, rhs: np.ndarray) -> np.ndarray:
        """R^{-1} rhs, block by block."""
        out = np.empty_like(rhs)
        for block, inverse in self._factorization[0]:
            out[block] = inverse @ rhs[block]
        return out


def _galerkin_rows(circle_map: CircleMap, row_order: int, col_order: int,
                   quad_size: int, weight=1.0) -> np.ndarray:
    """Grid means of w e^{-2 pi i j T} e^{2 pi i k x}, 0 <= j <= row_order, |k| <= col_order.

    For real w the rows j < 0 are their conjugates and are never formed.  Row
    j is the inverse FFT of w z^j, z = e^{-2 pi i T}, with the powers by
    running product.  The rows go through in blocks of ASSEMBLY_BLOCK grid
    samples, and each block keeps only its 2 col_order + 1 wanted columns,
    so the transient memory is one block, not row_order x quad_size.
    """
    z = np.exp(-2j * np.pi * circle_map.grid_values(quad_size))
    cols = np.arange(-col_order, col_order + 1)
    rows = min(max(1, ASSEMBLY_BLOCK // quad_size), row_order + 1)
    powers = np.empty((rows, quad_size), dtype=complex)
    powers[0] = weight
    upper = np.empty((row_order + 1, cols.size), dtype=complex)
    for start in range(0, row_order + 1, rows):
        block = powers[:min(rows, row_order + 1 - start)]
        if start:
            # The product runs on across blocks: the previous block's last row times z.
            np.multiply(powers[-1], z, out=block[0])
        for j in range(1, len(block)):
            np.multiply(block[j - 1], z, out=block[j])
        upper[start:start + len(block)] = np.fft.ifft(block, axis=1)[:, cols]
    return upper


def quadrature_size(circle_map: CircleMap, out_order: int, in_order: int) -> int:
    """Grid for the mean of (order-``in_order`` data) e^{-2 pi i j T}, |j| <= ``out_order``.

    The next power of two above in_order + j max T' + tail, where the tail of
    e^{-2 pi i j p} is 15 Airy widths (pi j B3)^{1/3} / (2 pi), B3 = sum
    |c_n| (2 pi n)^3 >= |p'''| (Ai(15) < 1e-17), plus 16 (K+1) for small j.
    """
    p = circle_map.periodic_part
    b3 = float(np.sum(np.abs(p.coeffs) * (2 * np.pi * np.abs(p.modes)) ** 3))
    tail = 15 / (2 * np.pi) * (np.pi * out_order * b3) ** (1 / 3) + 16 * (p.order + 1)
    return next_pow2(int(in_order + out_order * circle_map.max_derivative + tail) + 1)


def galerkin_matrix(circle_map: CircleMap, order: int) -> TransferMatrix:
    """Galerkin matrix at truncation ``order``, an integer >= 1."""
    order = as_integer("truncation order", order, 1)
    rows = _galerkin_rows(circle_map, order, order, quadrature_size(circle_map, order, order))
    return TransferMatrix(real_matrix_from_rows(rows), circle_map)


def apply_transfer_pointwise(circle_map: CircleMap, series: FourierSeries,
                             points: np.ndarray) -> np.ndarray:
    """(L w)(x) at the given points via Newton preimages."""
    y = circle_map.preimages(points)
    values = series.evaluate(y) / circle_map.evaluate(y, 1)
    return values.sum(axis=0)


def apply_transfer(circle_map: CircleMap, w: FourierSeries,
                   out_order: int | None = None) -> FourierSeries:
    """Apply the transfer operator to a series, with no preimages.

    By duality, mode j of L w is the integral of w e^{-2 pi i j T}, the grid
    mean of w z^j, z = e^{-2 pi i T}, for 0 <= j <= ``out_order`` (defaults
    to the input order); modes j < 0 follow by conjugation.  The J =
    out_order + 1 moments are a baby-step/giant-step sum with R =
    ``fourier.baby_steps(J)`` baby rows z^a and S = ceil(J/R) giant rows
    w z^{Rb}: moment Rb + a is entry (b, a) of giant times baby transposed,
    one real matrix product per chunk of the grid.  A chunk holds R + 2S
    rows (the giant rows twice, for the real and imaginary parts) in at most
    ASSEMBLY_BLOCK / 2 complex samples (256 KB): chunks of ASSEMBLY_BLOCK
    were slower and raised the peak RSS of a run of small problems.
    Pointwise values through Newton preimages are
    ``apply_transfer_pointwise``.
    """
    if not isinstance(w, FourierSeries):
        raise TypeError("w must be a FourierSeries")
    if out_order is None:
        out_order = w.order
    size = quadrature_size(circle_map, out_order, w.order)
    lift = circle_map.grid_values(size)
    weight = grid_values(w, size)
    baby = baby_steps(out_order + 1)
    giant = -(-(out_order + 1) // baby)
    chunk = block_length(size, ASSEMBLY_BLOCK // 2 // (baby + 2 * giant))
    moments = np.zeros((2 * giant, baby))  # Re, then Im, of moment Rb + a at (b, a)
    for start in range(0, size, chunk):
        z = np.exp(-2j * np.pi * lift[start:start + chunk])
        powers = np.empty((baby, z.size), dtype=complex)
        powers[0] = 1.0
        for a in range(1, baby):
            np.multiply(powers[a - 1], z, out=powers[a])
        # Rows conj(w z^{Rb}) and i conj(w z^{Rb}), read as [Re, Im] per point,
        # dot the baby rows [Re z^a, Im z^a] into Re and Im of w z^{Rb + a}.
        steps = np.empty((2, giant, z.size), dtype=complex)
        steps[0, 0] = weight[start:start + chunk]
        stride = np.conj(powers[-1] * z)
        for b in range(1, giant):
            np.multiply(steps[0, b - 1], stride, out=steps[0, b])
        np.multiply(steps[0], 1j, out=steps[1])
        moments += steps.view(float).reshape(2 * giant, -1) @ powers.view(float).T
    upper = (moments[:giant] + 1j * moments[giant:]).ravel()[:out_order + 1] / size
    return FourierSeries(np.concatenate((np.conj(upper[:0:-1]), upper)))


def fixed_point_residual(circle_map: CircleMap, density: FourierSeries,
                         grid: int = CHECK_GRID) -> float:
    """sup norm of L(rho) - rho, evaluated pointwise (not in the Galerkin system)."""
    x = np.arange(grid) / grid
    return float(np.max(np.abs(
        apply_transfer_pointwise(circle_map, density, x) - grid_values(density, grid))))


def invariant_density(matrix: TransferMatrix) -> FourierSeries:
    """Invariant density: the fixed point of the Galerkin matrix with mean 1.

    Row 0 of M is e_0 (L preserves the integral), so in real coordinates
    a_0 = 1 and the others solve R u = (Q^H M Q)[1:, 0], the real coordinates
    of column 0 of M: one product with the restricted inverse that every
    zero-mean solve uses.  Verified to satisfy
    ||M rho - rho||_inf <= 1e-10 and to be strictly positive on a 4096-point
    grid; either failure is a SpectralGapError.
    """
    return matrix._density[0]


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
    b = to_real_basis(rhs.with_order(mid).coeffs)
    u = np.concatenate(([0.0], matrix._restricted_solve(b[1:])))
    # (I - M) v - b off mode 0, the restricted system's residual since v_0 = 0.
    defect = u - matrix.real @ u - b
    defect[0] = 0.0
    residual = float(np.max(np.abs(from_real_basis(defect).coeffs)))
    if residual > 1e-10:
        raise SpectralGapError(f"zero-mean solve residual {residual:.3e} > 1e-10")
    return from_real_basis(u)
