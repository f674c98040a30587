"""Independent verification oracle: Ulam's method.

Ulam's matrix[a, b] is the fraction of bin b that the map sends into bin a,
from exact interval-image intersections of the monotone branches (no
sampling), so it is column-stochastic.  The preimages of the bin edges, a
lattice of equispaced targets on the lift, come from
``CircleMap.invert_lattice``: Newton at a few hundred nodes and one FFT.
A ``UlamModel`` stores the matrix as the preimage segments of the image
bins, two weights and one source bin per segment (the second weight's bin
is the next one), beside its stationary vector, iterated to once on
construction; ``M @ v``, the one product that iteration needs, works
through fixed-size blocks of segments.  ``linresp verify`` checks the
spectral solvers against central differences of its stationary bin
averages.  Their first-order error in the bin width hides the O(delta^2)
term of a central difference, which the tests resolve with a collocation
reference of their own.  The oracle shares only the map's lift and its
Newton inversion with the spectral path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fourier import BLOCK, FourierSeries, as_integer
from .maps import CircleMap, PerturbedFamily

STATIONARY_TOL = 1e-12
STATIONARY_MAXIT = 20_000


@dataclass(frozen=True, eq=False)
class UlamModel:
    """Ulam's discretization of a map's transfer operator, stored by preimage segment.

    Segment s is the preimage of image bin (first + s) mod ``bins``, with
    0 <= first < bins.  Its slot 0 is its part in source bin ``source[s]``
    and its slot 1 its part in the next bin, ``source[s] + 1``.
    ``weights[c, s]`` is the fraction of that source bin that slot c
    covers; it is exactly 0 where ``source[s] + 1`` would be ``bins``.  The
    preimages rise with s, so ``source`` does not decrease.  ``model @ v``
    is the product with the ``bins`` x ``bins`` matrix, whose entry [a, b]
    is the fraction of bin b mapped into bin a; an operand of another shape
    is a ValueError.  ``stationary``, read-only, holds the bin averages of
    the invariant density (nonnegative, summing to the bin count), iterated
    to on construction.
    """

    bins: int
    first: int
    source: np.ndarray
    weights: np.ndarray
    stationary: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        v = np.ones(self.bins)
        for _ in range(STATIONARY_MAXIT):
            nxt = self @ v
            # |v - nxt| in v's own storage: the same values as |nxt - v|
            np.abs(np.subtract(v, nxt, out=v), out=v)
            residual = float(np.mean(v))
            v = nxt
            if residual < 0.1 * STATIONARY_TOL:
                break
        else:
            raise RuntimeError("stationary iteration did not converge")
        np.maximum(v, 0.0, out=v)
        v *= self.bins / v.sum()
        change = self @ v
        change -= v
        final = float(np.mean(np.abs(change, out=change)))
        if final > STATIONARY_TOL:
            raise RuntimeError(f"stationary residual {final:.3e} > {STATIONARY_TOL:.0e}")
        v.flags.writeable = False
        object.__setattr__(self, "stationary", v)

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
    # The lattice k/bins, k = lo..hi, framed by L(0) and L(1) = L(0) + d
    # where those are off it.  L(0) and L(1) hold identically, so the ends
    # are pinned and the preimage segments tile [0, 1] exactly.
    lead, trail = int(lo / bins > start + 1e-15), int(hi / bins < start + d - 1e-15)
    y = np.empty(lead + hi - lo + 1 + trail)
    circle_map.invert_lattice(lo, bins, y[lead:y.size - trail])
    y[0], y[-1] = 0.0, 1.0
    if not np.all(y[1:] > y[:-1]):
        raise RuntimeError("bin-edge preimages do not rise strictly")
    first = lo - lead

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


def ulam_build(circle_map: CircleMap, bins: int) -> UlamModel:
    """Ulam's method: transition fractions from branch-wise preimages of the bin edges."""
    bins = as_integer("bins", bins, 2)
    weights, source, first = _pieces(circle_map, bins)
    # Column sums: slot 0 adds to its source bin, slot 1 to the next one.
    sums = np.bincount(source, weights[0], bins + 1)
    sums[1:] += np.bincount(source, weights[1], bins)
    col_defect = float(np.max(np.abs(sums[:-1] - 1.0)))
    del sums  # freed before the model's stationary iteration
    if col_defect > 1e-12:
        raise RuntimeError(f"column sums off by {col_defect:.3e}; bad branch cover")
    return UlamModel(bins, first % bins, source, weights)


def fd_response(family: PerturbedFamily, delta: float, bins: int) -> np.ndarray:
    """Central-difference derivative of Ulam's stationary bin averages.

    A step that is not positive, or ``bins`` not an integer >= 2, is a ValueError.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    plus, minus = (ulam_build(family.member(s), bins).stationary for s in (delta, -delta))
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
