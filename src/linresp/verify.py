"""Independent verification oracle built on binning, not on Fourier series.

The unit interval is split into equal bins and the transfer operator is
discretized on the Legendre polynomials P_0..P_k of each bin (a
discontinuous-Galerkin projection), using exact interval-image intersections
of the monotone branches and Gauss-Legendre quadrature on each intersection
(deterministic, no sampling).  Degree k = 0 is Ulam's method, whose matrix is
column-stochastic.  The matrix is kept as the preimage segments of the image
bins, at most two pieces each, and applied with numpy gathers and sums; at
degree 0 it is two weights and two source bins per segment, written straight
from the edge preimages, and a product is two 1-D gathers or two
``bincount`` calls.  Its stationary vectors and central-difference
derivatives of their bin averages provide the cross-checks for the spectral
solvers.  The only shared code with the spectral path is the map's lift and
its Newton inversion, which streams the bin edges in blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import FourierSeries, as_integer
from .maps import CircleMap, PerturbedFamily

STATIONARY_TOL = 1e-12
STATIONARY_MAXIT = 20_000
MOMENT_TOL_PER_BIN = 8 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class TransitionOperator:
    """The oracle's transition matrix, stored by preimage segment.

    Segment s is the preimage of image bin (first + s) mod ``bins``, with
    0 <= first < bins.  Its slot c (0 or 1) is its part in source bin
    ``source[c, s]``, and ``blocks[p, 2*q + c, s]`` is the entry from
    Legendre degree q on that source bin to degree p on the image bin.
    ``M @ v`` and ``v @ M`` are the products with the matrix of shape
    ``shape``.
    """

    bins: int
    first: int
    source: np.ndarray
    blocks: np.ndarray

    __array_ufunc__ = None  # so that ndarray @ operator defers to __rmatmul__

    @property
    def shape(self) -> tuple[int, int]:
        n = self.bins * self.blocks.shape[0]
        return n, n

    def _by_degree(self, v) -> np.ndarray:
        """The coefficient vector v as rows of one Legendre degree: (degree+1, bins)."""
        v = np.asarray(v, dtype=float)
        if v.shape != self.shape[:1]:
            raise ValueError(f"operand of shape {v.shape}; expected {self.shape[:1]}")
        return v.reshape(self.bins, -1).T

    def _runs(self):
        """(segments, image bins) slice pairs that fold the segments mod bins.

        The segments' image bins are consecutive, so each run of at most
        ``bins`` segments maps onto one slice of image bins.
        """
        segments = self.blocks.shape[2]
        for start in range(-self.first, segments, self.bins):
            yield (slice(max(start, 0), min(start + self.bins, segments)),
                   slice(max(-start, 0), min(self.bins, segments - start)))

    # Ulam's method (size 1) has its own branch in both products, for memory:
    # the general path gives the same bits but lifts the traced peak of a
    # degree-0 ulam_build at 2^16 bins from 7.3 to 8.4 MB (M @ v) and 8.9 MB
    # (v @ M), and took 0.54 against 0.50 and 1.01 against 0.75 ms (2 vCPUs).
    def __matmul__(self, v) -> np.ndarray:
        size, _, segments = self.blocks.shape
        if size == 1:  # Ulam's method: two 1-D gathers times the weights
            row, (w0, w1), (s0, s1) = self._by_degree(v)[0], self.blocks[0], self.source
            images = (w0 * row[s0] + w1 * row[s1])[None]
        else:
            gathered = np.take(self._by_degree(v), self.source, axis=1).reshape(2 * size, segments)
            images = np.einsum("pks,ks->ps", self.blocks, gathered)
        out = np.zeros((size, self.bins))
        for part, image_bins in self._runs():
            out[:, image_bins] += images[:, part]
        return out.T.ravel()

    def __rmatmul__(self, v) -> np.ndarray:
        size, _, segments = self.blocks.shape
        values, image = self._by_degree(v), np.empty((size, segments))
        for part, image_bins in self._runs():
            image[:, part] = values[:, image_bins]
        if size == 1:  # Ulam's method: two bincounts
            (w0, w1), (s0, s1), image = self.blocks[0], self.source, image[0]
            second = np.bincount(s1, w1 * image, self.bins)
            image *= w0
            return np.bincount(s0, image, self.bins) + second
        weights = np.einsum("pks,ps->ks", self.blocks, image).reshape(size, 2, segments)
        out = np.zeros((size, self.bins))
        for q, c in np.ndindex(size, 2):
            out[q] += np.bincount(self.source[c], weights[q, c], self.bins)
        return out.T.ravel()


@dataclass(frozen=True, eq=False)
class UlamModel:
    """Bin-wise Legendre discretization of a map's transfer operator.

    Index a*(degree+1) + p of ``matrix`` is Legendre degree p on bin a: the
    coefficient of P_p(2*(x*bins - a) - 1), scaled so that the P_0
    coefficient is the bin average.  At degree 0, matrix[a, b] is the
    fraction of bin b mapped into bin a and columns sum to one; at any
    degree the P_0 rows of a P_0 column sum to one.  ``matrix`` is a
    ``TransitionOperator``: it offers ``shape``, ``bins``, ``matrix @ v`` and
    ``v @ matrix``, not indexing.  ``stationary`` holds the bin averages of
    the invariant density (nonnegative, summing to the bin count).
    """

    matrix: TransitionOperator
    stationary: np.ndarray

    def __post_init__(self) -> None:
        s = np.array(self.stationary, dtype=float)
        s.flags.writeable = False
        object.__setattr__(self, "stationary", s)


def _pieces(circle_map: CircleMap, bins: int, degree: int
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, int]:
    """Preimage segments of consecutive image bins, each split at a source-bin edge.

    Segment s is the preimage on [0, 1] of image bin ``first`` + s on the
    lift.  Since min T' > 1 it is shorter than a bin, so it has two slots:
    its part in source bin j0 and its part in j0 + 1, of length zero when the
    segment is not cut.  Returns the slots' lengths and source bins, each of
    shape (2, segments), their left ends when ``degree`` > 0 (None at degree
    0, where nothing reads them), and ``first``.
    """
    d = circle_map.degree
    start = float(circle_map.lift(0.0))
    lo = int(np.ceil(start * bins - 1e-9))
    hi = int(np.floor((start + d) * bins + 1e-9))
    targets = np.arange(lo, hi + 1) / bins
    if targets[0] > start + 1e-15:
        targets = np.concatenate(([start], targets))
    if targets[-1] < start + d - 1e-15:
        targets = np.concatenate((targets, [start + d]))
    y = circle_map.invert_lift(targets)
    # L(0) = start and L(1) = start + d hold identically; pin the endpoints
    # so the preimage segments tile [0, 1] exactly and columns sum to one.
    y[0], y[-1] = 0.0, 1.0

    # Written in place, with no stacked copies: the cut at the source-bin
    # edge sits in the second slot's length until that length replaces it.
    y_lo, y_hi = y[:-1], y[1:]
    first = int(np.floor(0.5 * (targets[0] + targets[1]) * bins))
    source = np.empty((2, y_lo.size), dtype=int)
    np.minimum((y_lo * bins).astype(int), bins - 1, out=source[0])
    np.add(source[0], 1, out=source[1])
    length = np.empty(source.shape)
    cut = np.divide(source[1], bins, out=length[1])
    np.minimum(y_hi, cut, out=cut)
    np.minimum(source[1], bins - 1, out=source[1])
    left = np.stack((y_lo, cut)) if degree else None
    np.subtract(cut, y_lo, out=length[0])
    np.subtract(y_hi, cut, out=length[1])
    return length, source, left, first


def _transition_matrix(circle_map: CircleMap, bins: int, degree: int) -> TransitionOperator:
    length, source, left, first = _pieces(circle_map, bins, degree)

    # Entry (a, p) <- (b, q) is (2p+1) * bins * integral of P_q(xi_b(y)) P_p(eta_a(T y))
    # over the piece from source bin b into image bin a, with the bin-local
    # coordinates xi_b(y) = 2*(y*bins - b) - 1 and eta_a likewise on the image.
    # Gauss-Legendre quadrature on each piece; an empty slot gets zero entries.
    size = degree + 1
    if degree:
        from numpy.polynomial import legendre  # here, so that Ulam's method skips it

        image_edge = first + np.arange(length.shape[1])
        vals = np.zeros((size, size) + length.shape)
        for node, weight in zip(*legendre.leggauss(size)):
            y_node = left + 0.5 * length * (node + 1.0)
            xi = 2.0 * (y_node * bins - source) - 1.0
            eta = 2.0 * (circle_map.lift(y_node) * bins - image_edge) - 1.0
            vals += (0.5 * weight * np.moveaxis(legendre.legvander(eta, degree), -1, 0)[:, None]
                     * np.moveaxis(legendre.legvander(xi, degree), -1, 0)[None, :])
        vals *= ((2 * np.arange(size) + 1) * bins)[:, None, None, None] * length
        blocks = vals.reshape(size, 2 * size, -1)
    else:  # the one-node rule integrates P_0 P_0 = 1 exactly: entries length * bins
        blocks = np.multiply(length, bins, out=length)[None]
    matrix = TransitionOperator(bins, first % bins, source, blocks)

    # The P_0 rows of the image carry its mass: each degree-0 column maps unit
    # mass, each higher-degree column (zero mean) maps none.
    p0 = np.zeros(bins * size)
    p0[::size] = 1.0
    mass = (p0 @ matrix).reshape(bins, size)
    col_defect = float(np.max(np.abs(mass[:, 0] - 1.0)))
    if col_defect > 1e-12:
        raise RuntimeError(f"column sums off by {col_defect:.3e}; bad branch cover")
    if degree:
        # The node abscissae xi = 2*(y*bins - b) - 1 lose about bins*eps to
        # rounding, so the zero mass of P_q (q > 0) is met only to that order.
        moment_defect = float(np.max(np.abs(mass[:, 1:])))
        if moment_defect > MOMENT_TOL_PER_BIN * bins:
            raise RuntimeError(
                f"higher-degree columns carry mass {moment_defect:.3e}; bad branch cover")
    return matrix


def _stationary_vector(matrix: TransitionOperator) -> np.ndarray:
    size, bins = matrix.blocks.shape[0], matrix.bins
    v = np.zeros(matrix.shape[0])
    v[::size] = 1.0
    for _ in range(STATIONARY_MAXIT):
        nxt = matrix @ v
        residual = float(np.mean(np.abs(nxt - v)))
        v = nxt
        if residual < 0.1 * STATIONARY_TOL:
            break
    else:
        raise RuntimeError("stationary iteration did not converge")
    # Only the bin averages must be nonnegative; higher Legendre coefficients
    # of a positive density take either sign.
    v[::size] = np.maximum(v[::size], 0.0)
    v *= bins / v[::size].sum()
    final = float(np.mean(np.abs(matrix @ v - v)))
    if final > STATIONARY_TOL:
        raise RuntimeError(f"stationary residual {final:.3e} > {STATIONARY_TOL:.0e}")
    return v


def ulam_build(circle_map: CircleMap, bins: int, degree: int = 0) -> UlamModel:
    """Transfer matrix on Legendre polynomials up to ``degree`` in each bin.

    Degree 0 is Ulam's method: transition fractions from branch-wise
    preimages of the bin endpoints.
    """
    bins = as_integer("bins", bins, 2)
    degree = as_integer("oracle degree", degree, 0)
    matrix = _transition_matrix(circle_map, bins, degree)
    return UlamModel(matrix, _stationary_vector(matrix)[::degree + 1])


def fd_response(family: PerturbedFamily, delta: float, bins: int,
                degree: int = 2) -> np.ndarray:
    """Central-difference derivative of the oracle's stationary bin averages.

    The degree-2 default keeps the oracle's discretization error far below the
    O(delta^2) term, so the difference converges at second order in delta.
    A step that is not positive, or ``bins`` not an integer >= 2, is a ValueError.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    plus = ulam_build(family.member(delta), bins, degree).stationary
    minus = ulam_build(family.member(-delta), bins, degree).stationary
    return (plus - minus) / (2.0 * delta)


def bin_averages(series: FourierSeries, bins: int) -> np.ndarray:
    """Exact per-bin averages of the series (mode-wise closed form)."""
    n = series.modes
    h = 1.0 / bins
    factors = np.ones(n.size, dtype=complex)
    nz = n != 0
    angular = 2j * np.pi * n[nz] * h
    factors[nz] = (np.exp(angular) - 1.0) / angular
    spectrum = np.zeros(bins, dtype=complex)
    np.add.at(spectrum, n % bins, series.coeffs * factors)
    values = np.fft.ifft(spectrum) * bins
    return values.real


def compare_l1(binned: np.ndarray, series: FourierSeries) -> float:
    """L1 distance between a binned density and a series averaged per bin."""
    binned = np.asarray(binned, dtype=float)
    return float(np.mean(np.abs(binned - bin_averages(series, binned.size))))
