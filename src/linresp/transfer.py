"""Transfer operator of an expanding circle map, and its Galerkin problem.

(L w)(x) = sum over preimages y of x of w(y)/T'(y).  The operator pushes
densities forward, preserves the integral, and on the zero-mean subspace
I - L is invertible (spectral gap), which is what the response and control
solvers exploit.  The Galerkin matrix M in the Fourier basis is assembled via
the duality  integral (L w) phi = integral w (phi o T), so no preimages are
needed for matrix entries; each row is one FFT.  M maps real functions to
real ones, so only its rows j >= 0 are assembled (``_galerkin_rows``, which
also serves the constraint matrix of ``control``), and a ``ResponseProblem``
keeps M only as the real matrix Q^H M Q in the coordinates of
``fourier.to_real_basis``, built from those rows by ``real_matrix_from_rows``
(which builds the blocks of ``control``'s weighted system too).  The same
duality applies L to a series (``apply_transfer``): its moments are a
baby-step/giant-step sum, one real matrix product per chunk of the grid.
Each of these integrals is a grid mean on the grid that ``quadrature_size``
derives from the map and the orders involved.  Without the a_0 coordinate,
I - Q^H M Q is a real 2N x 2N matrix R, inverted once per problem; it serves
both the problem's invariant density and every zero-mean solve, whose
outputs are Hermitian by construction.  An odd map has a real M, so R maps
cosines to cosines and sines to sines and is inverted as its two N x N
diagonal blocks.  Newton preimages serve the pointwise checks only
(``apply_transfer_pointwise``, ``fixed_point_residual``).  Uniform-grid
samples, such as the density's positivity check, come from
``fourier.grid_values``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fourier import (BLOCK, CHECK_GRID, DEFAULT_ORDER, DENSE_GRID, FourierSeries,
                      _real_coordinates, as_integer, baby_steps, block_length, exact_size,
                      from_real_basis, grid_values, next_pow2, require_zero_mean, to_real_basis)
from .maps import CircleMap

CONDITION_LIMIT = 1e12
DENSITY_TOL = 1e-10


class SpectralGapError(RuntimeError):
    """A Galerkin fixed-point or zero-mean solve failed its verification."""


class UnderResolvedError(RuntimeError):
    """The density computed at this truncation fails the pointwise fixed-point check."""


@dataclass(frozen=True, eq=False)
class ResponseProblem:
    """The Galerkin matrix of a map, modes -N..N in real coordinates, and its density.

    real = Q^H M Q, with Q as in ``fourier.from_real_basis`` and
    M[j, k] = integral_0^1 e^{2 pi i k x} e^{-2 pi i j T(x)} dx
    (row j = output mode, column k = input mode) by trapezoidal quadrature,
    which is spectrally accurate for these analytic integrands.  M maps real
    functions to real ones, so real is a float matrix, square of odd size
    2N + 1 >= 3; the order N follows from it.  map is the map T.  A float
    array is kept, not copied, and made read-only: the caller's array too.

    density is the invariant density, the fixed point of M with mean 1.  Row
    0 of M is e_0 (L preserves the integral), so a_0 = 1 and the other real
    coordinates solve R u = real[1:, 0]: one product with the restricted
    inverse that every zero-mean solve uses.  galerkin_residual is
    sup |M rho - rho| over its coefficients; above 1e-10, or a density not
    strictly positive on a ``fourier.DENSE_GRID``-point grid, is a
    SpectralGapError.  pointwise_residual is ``fixed_point_residual``;
    above 1e-9 it is an UnderResolvedError.
    """

    real: np.ndarray = field(repr=False)
    map: CircleMap = field(repr=False)
    density: FourierSeries = field(init=False)
    galerkin_residual: float = field(init=False)
    pointwise_residual: float = field(init=False)

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.real):
            raise TypeError("real must be the real matrix Q^H M Q, not a complex one")
        r = np.asarray(self.real, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] % 2 == 0 or r.shape[0] < 3:
            raise ValueError(f"real must be a square matrix of odd size >= 3, not {r.shape}")
        r.flags.writeable = False
        object.__setattr__(self, "real", r)
        u = np.concatenate(([1.0], self._restricted_solve(r[1:, 0])))
        rho = from_real_basis(u)
        residual = float(np.max(np.abs(from_real_basis(r @ u - u).coeffs)))
        if residual > DENSITY_TOL:
            raise SpectralGapError(
                f"density Galerkin residual {residual:.3e} > {DENSITY_TOL:.0e}")
        if float(np.min(grid_values(rho, exact_size(self.order, DENSE_GRID)))) <= 0.0:
            raise SpectralGapError(
                "computed density is not strictly positive; truncation too small?")
        pointwise = fixed_point_residual(self.map, rho)
        if pointwise > 1e-9:
            raise UnderResolvedError(f"density fixed-point residual {pointwise:.3e} > 1e-9 "
                                     f"at truncation {self.order}; raise N")
        object.__setattr__(self, "density", rho)
        object.__setattr__(self, "galerkin_residual", residual)
        object.__setattr__(self, "pointwise_residual", pointwise)

    @classmethod
    def for_map(cls, circle_map: CircleMap, order: int = DEFAULT_ORDER) -> "ResponseProblem":
        """The problem at an integer truncation ``order`` >= 1."""
        return cls(galerkin_matrix(circle_map, order), circle_map)

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
    running product.  The rows go through in blocks of ``fourier.BLOCK`` grid
    samples, and each block keeps only its 2 col_order + 1 wanted columns,
    so the transient memory is one block, not row_order x quad_size.
    """
    z = np.exp(-2j * np.pi * circle_map.grid_values(quad_size))
    cols = np.arange(-col_order, col_order + 1)
    rows = min(max(1, BLOCK // quad_size), row_order + 1)
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


def real_matrix_from_rows(upper: np.ndarray, rows: slice = slice(None),
                          cols: slice = slice(None), out=None) -> np.ndarray:
    """Rows ``rows`` x columns ``cols`` of Q^H A Q from the rows j >= 0 of A.

    A must commute with conjugation, so the columns of A Q are Hermitian and
    Q^H A Q is Re (row 0), sqrt(2) Re (rows a_j) and -sqrt(2) Im (rows b_j)
    of the rows j >= 0 of A Q.  Column 0 of A Q is A's, column a_k is
    (A_k + A_-k) / sqrt(2) and column b_k is -i (A_k - A_-k) / sqrt(2); they
    are formed in chunks of at most ``fourier.BLOCK`` complex values, by the same
    operations for every entry, so any block (slices of step 1, written to
    ``out`` if given) equals that slice of the whole matrix bit for bit, and
    no complex copy of A is made.  The symmetry is not checked: the rows
    j < 0 are not given.
    """
    n = upper.shape[0] - 1
    (r0, r1, _), (c0, c1, _) = rows.indices(2 * n + 1), cols.indices(2 * n + 1)
    width = max(1, BLOCK // (n + 1))
    for a in range(c0, c1, width):
        b = min(a + width, c1)
        columns = np.empty((n + 1, b - a), dtype=complex)  # columns a..b-1 of A Q
        for first, last in ((0, 1), (1, n + 1), (n + 1, 2 * n + 1)):
            lo, hi = max(a, first), min(b, last)
            if lo >= hi:
                continue
            k = lo - first + 1  # the mode of column lo, for the columns a_k and b_k
            pos, neg = upper[:, n + k:n + k + hi - lo], upper[:, n - k::-1][:, :hi - lo]
            part = columns[:, lo - a:hi - a]
            if first == 0:
                part[:] = upper[:, n:n + 1]
            elif first == 1:
                np.add(pos, neg, out=part)
                part /= np.sqrt(2)
            else:
                np.subtract(pos, neg, out=part)
                part *= -1j / np.sqrt(2)
        if out is None:
            # After the first chunk's temporary, not before it: that heap
            # layout keeps the peak RSS of runs of order-96 problems 0.4 MB lower.
            out = np.empty((r1 - r0, c1 - c0))
        _real_coordinates(columns, slice(r0, r1), out[:, a - c0:b - c0])
    return np.empty((len(range(r0, r1)), 0)) if out is None else out


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


def galerkin_matrix(circle_map: CircleMap, order: int) -> np.ndarray:
    """``ResponseProblem.real`` at truncation ``order``, an integer >= 1."""
    order = as_integer("truncation order", order, 1)
    rows = _galerkin_rows(circle_map, order, order, quadrature_size(circle_map, order, order))
    return real_matrix_from_rows(rows)


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
    ``fourier.BLOCK`` complex samples: chunks twice as long were slower and
    raised the peak RSS of a run of small problems.
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
    chunk = block_length(size, BLOCK // (baby + 2 * giant))
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


def fixed_point_residual(circle_map: CircleMap, density: FourierSeries) -> float:
    """sup |L(rho) - rho| on the ``CHECK_GRID`` points, pointwise (not in the Galerkin system)."""
    x = np.arange(CHECK_GRID) / CHECK_GRID
    return float(np.max(np.abs(
        apply_transfer_pointwise(circle_map, density, x) - grid_values(density, CHECK_GRID))))


def solve_zero_mean(problem: ResponseProblem, rhs: FourierSeries) -> FourierSeries:
    """Solve (I - L) v = rhs on the zero-mean subspace, returning mean-zero v.

    The rhs must have zero mean (``fourier.require_zero_mean``), which is
    exactly the subspace where I - L is invertible, and an order at most the
    problem's.  The residual of the solve is held to the same bound.
    A condition number above 1e12 for the restricted system is reported as
    a warning.
    """
    bound = require_zero_mean(rhs, "rhs")
    mid = problem.order
    if rhs.order > mid:
        raise ValueError(f"rhs order {rhs.order} exceeds solver truncation {mid}")
    if problem.restricted_condition > CONDITION_LIMIT:
        warnings.warn(
            f"restricted system condition {problem.restricted_condition:.3e} > "
            f"{CONDITION_LIMIT:.0e}: truncation under-resolved", RuntimeWarning)
    b = to_real_basis(rhs.with_order(mid).coeffs)
    u = np.concatenate(([0.0], problem._restricted_solve(b[1:])))
    # (I - M) v - b off mode 0, the restricted system's residual since v_0 = 0.
    defect = u - problem.real @ u - b
    defect[0] = 0.0
    residual = float(np.max(np.abs(from_real_basis(defect).coeffs)))
    if residual > bound:
        raise SpectralGapError(f"zero-mean solve residual {residual:.3e} > {bound:.3e}")
    return from_real_basis(u)
