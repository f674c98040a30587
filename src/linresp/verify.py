"""Independent verification oracles: Ulam's method and spectral collocation.

Ulam's matrix[a, b] is the fraction of bin b that the map sends into bin a,
from exact interval-image intersections of the monotone branches (no
sampling), so it is column-stochastic.  It is stored as the preimage
segments of the image bins, two weights and one source bin per segment
(the second weight's bin is the next one), and ``M @ v``, the one product
the stationary iteration needs, works through fixed-size blocks of
segments.  ``linresp verify`` checks the spectral solvers against central
differences of its stationary bin averages.  Its first-order error in the
bin width hides the O(delta^2) term of a central difference; the
collocation reference, trigonometric collocation on M = 2K+1 equispaced
points, resolves it and meets the Galerkin density to about 1e-13 on
smooth maps.  Both share only the map's lift and its Newton inversion
with the spectral path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import BLOCK, FourierSeries, as_integer
from .maps import CircleMap, PerturbedFamily
from .response import CROSS_CHECK_TOL, UnderResolvedError

STATIONARY_TOL = 1e-12
STATIONARY_MAXIT = 20_000


@dataclass(frozen=True, eq=False)
class TransitionOperator:
    """Ulam's transition matrix, stored by preimage segment.

    Segment s is the preimage of image bin (first + s) mod ``bins``, with
    0 <= first < bins.  Its slot 0 is its part in source bin ``source[s]``
    and its slot 1 its part in the next bin, ``source[s] + 1``.
    ``weights[c, s]`` is the fraction of that source bin that slot c
    covers; it is exactly 0 where ``source[s] + 1`` would be ``bins``.  The
    preimages rise with s, so ``source`` does not decrease.  ``M @ v`` is
    the product with the ``bins`` x ``bins`` matrix; an operand of another
    shape is a ValueError.
    """

    bins: int
    first: int
    source: np.ndarray
    weights: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.bins, self.bins

    def __matmul__(self, v) -> np.ndarray:
        v, (w0, w1) = np.asarray(v, dtype=float), self.weights
        if v.shape != self.shape[:1]:
            raise ValueError(f"operand of shape {v.shape}; expected {self.shape[:1]}")
        # Slot 1 gathers from v shifted by one bin; the zero weights past the
        # last bin meet the 0 appended there.
        following, out = np.append(v[1:], 0.0), np.zeros(self.bins)
        # The segments' image bins are consecutive, so each run of at most
        # ``bins`` segments folds onto one slice of image bins; runs are cut
        # into blocks of at most 2 BLOCK segments (float temporaries of 256 KB).
        segments = self.source.size
        for start in range(-self.first, segments, self.bins):
            stop = min(start + self.bins, segments)
            for lo in range(max(start, 0), stop, 2 * BLOCK):
                hi = min(lo + 2 * BLOCK, stop)
                source = self.source[lo:hi]
                images = w0[lo:hi] * v[source]
                images += w1[lo:hi] * following[source]
                out[lo - start:hi - start] += images
        return out


@dataclass(frozen=True, eq=False)
class UlamModel:
    """Ulam's discretization of a map's transfer operator.

    matrix[a, b] is the fraction of bin b mapped into bin a, and columns sum
    to one.  ``matrix`` is a ``TransitionOperator``: it offers ``shape``,
    ``bins`` and ``matrix @ v``, not indexing.
    ``stationary`` holds the bin averages of the invariant density
    (nonnegative, summing to the bin count).
    """

    matrix: TransitionOperator
    stationary: np.ndarray

    def __post_init__(self) -> None:
        s = np.array(self.stationary, dtype=float)
        s.flags.writeable = False
        object.__setattr__(self, "stationary", s)


def _pieces(circle_map: CircleMap, bins: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Preimage segments of consecutive image bins, each split at a source-bin edge.

    Segment s is the preimage on [0, 1] of image bin ``first`` + s on the
    lift.  Since min T' > 1 it is shorter than a bin, so it has two slots:
    its part in source bin j0 and its part in j0 + 1, of weight zero when the
    segment is not cut.  The preimages are scaled once to bin units,
    u = y bins, where the edge of bin j is the integer j + 1: a slot's
    weight, the fraction of its source bin it covers, is
    min(u_hi, j0 + 1) - u_lo or u_hi - min(u_hi, j0 + 1), and both
    differences are exact (Sterbenz), so each bin's weights telescope to 1
    at any bin count.  Returns the weights, of shape (2, segments), the
    source bins j0 and ``first``.
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
    first = int(np.floor(0.5 * (targets[0] + targets[1]) * bins))
    y = circle_map.invert_lift(targets)
    del targets
    # L(0) = start and L(1) = start + d hold identically; pin the endpoints
    # so the preimage segments tile [0, 1] exactly and columns sum to one.
    y[0], y[-1] = 0.0, 1.0

    # Written in place, with no copies of the segment arrays: slot 1's
    # weight holds the source-bin edge until that weight replaces it.
    u = np.multiply(y, bins, out=y)
    u_lo, u_hi = u[:-1], u[1:]
    weights = np.empty((2, u_lo.size))
    source = u_lo.astype(np.int64)
    np.minimum(source, bins - 1, out=source)
    edge = np.add(source, 1.0, out=weights[1])
    np.minimum(u_hi, edge, out=edge)
    np.subtract(edge, u_lo, out=weights[0])
    np.subtract(u_hi, edge, out=weights[1])
    return weights, source, first


def _transition_matrix(circle_map: CircleMap, bins: int) -> TransitionOperator:
    weights, source, first = _pieces(circle_map, bins)
    # Column sums: slot 0 adds to its source bin, slot 1 to the next one.
    sums = np.bincount(source, weights[0], bins + 1)
    sums[1:] += np.bincount(source, weights[1], bins)
    col_defect = float(np.max(np.abs(sums[:-1] - 1.0)))
    if col_defect > 1e-12:
        raise RuntimeError(f"column sums off by {col_defect:.3e}; bad branch cover")
    return TransitionOperator(bins, first % bins, source, weights)


def _stationary_vector(matrix: TransitionOperator) -> np.ndarray:
    v = np.ones(matrix.bins)
    for _ in range(STATIONARY_MAXIT):
        nxt = matrix @ v
        # |v - nxt| in v's own storage: the same values as |nxt - v|
        np.abs(np.subtract(v, nxt, out=v), out=v)
        residual = float(np.mean(v))
        v = nxt
        if residual < 0.1 * STATIONARY_TOL:
            break
    else:
        raise RuntimeError("stationary iteration did not converge")
    np.maximum(v, 0.0, out=v)
    v *= matrix.bins / v.sum()
    change = matrix @ v
    change -= v
    final = float(np.mean(np.abs(change, out=change)))
    if final > STATIONARY_TOL:
        raise RuntimeError(f"stationary residual {final:.3e} > {STATIONARY_TOL:.0e}")
    return v


def ulam_build(circle_map: CircleMap, bins: int) -> UlamModel:
    """Ulam's method: transition fractions from branch-wise preimages of the bin edges."""
    bins = as_integer("bins", bins, 2)
    matrix = _transition_matrix(circle_map, bins)
    return UlamModel(matrix, _stationary_vector(matrix))


def _central_difference(family: PerturbedFamily, delta: float, density) -> np.ndarray:
    """(density(T + delta eps) - density(T - delta eps)) / (2 delta), for a step delta > 0."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    return (density(family.member(delta)) - density(family.member(-delta))) / (2.0 * delta)


def fd_response(family: PerturbedFamily, delta: float, bins: int) -> np.ndarray:
    """Central-difference derivative of Ulam's stationary bin averages.

    A step that is not positive, or ``bins`` not an integer >= 2, is a ValueError.
    """
    return _central_difference(family, delta, lambda m: ulam_build(m, bins).stationary)


def _dirichlet(t: np.ndarray, points: int) -> np.ndarray:
    """D_M(t) = sin(pi M t) / (M sin(pi t)) with D_M(0) = 1, for odd M = ``points``.

    D_M has period 1, so t is first reduced to [-1/2, 1/2]: exactly, and
    away from the cancellation of sin(pi t) near t = +-1.
    """
    t = t - np.round(t)
    denominator = points * np.sin(np.pi * t)
    return np.divide(np.sin(np.pi * points * t), denominator, out=np.ones_like(t),
                     where=denominator != 0.0)


def _collocation_rows(circle_map: CircleMap, x: np.ndarray, points: int) -> np.ndarray:
    """(L phi_m)(x_k) = sum_b D_M(y_b(x_k) - m/M) / T'(y_b(x_k)), phi_m the cardinal functions."""
    nodes = np.arange(points) / points
    preimages = circle_map.preimages(x)
    rows = np.zeros((x.size, points))
    for y, slope in zip(preimages, circle_map.evaluate(preimages, 1)):
        rows += _dirichlet(y[:, None] - nodes, points) / slope[:, None]
    return rows


def collocation_density(circle_map: CircleMap, points: int) -> np.ndarray:
    """The invariant density at x_k = k/M by trigonometric collocation, M = ``points``.

    C[k, m] = sum_b D_M(y_b(x_k) - x_m) / T'(y_b(x_k)) is the transfer
    operator on the degree-K trigonometric interpolants, M = 2K+1, and the
    density is the null vector of I - C with mean 1.  Its interpolant must
    meet L rho = rho to 1e-9 at the midpoints (k + 1/2)/M, or
    UnderResolvedError is raised.  An even M, or M < 3, is a ValueError.
    """
    points = as_integer("collocation points", points, 3)
    if points % 2 == 0:
        raise ValueError(f"collocation points must be odd, got {points}")
    nodes = np.arange(points) / points
    # (I - C + 1 1^T / M) rho = 1 holds for the null vector with mean 1.
    system = np.eye(points) - _collocation_rows(circle_map, nodes, points) + 1.0 / points
    rho = np.linalg.solve(system, np.ones(points))
    midpoints = nodes + 0.5 / points
    residual = float(np.max(np.abs(
        (_collocation_rows(circle_map, midpoints, points)
         - _dirichlet(midpoints[:, None] - nodes, points)) @ rho)))
    if residual > CROSS_CHECK_TOL:
        raise UnderResolvedError(
            f"collocation density at M = {points} has midpoint residual {residual:.3e} > "
            f"{CROSS_CHECK_TOL:.0e}; take more points")
    return rho


def collocation_fd_response(family: PerturbedFamily, delta: float, points: int) -> np.ndarray:
    """Central-difference derivative of the collocation density at x_k = k/M.

    A step that is not positive is a ValueError, as in ``fd_response``.
    """
    return _central_difference(family, delta, lambda m: collocation_density(m, points))


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
