"""Independent verification oracle built on binning, not on Fourier series.

The unit interval is split into equal bins and the transfer operator is
discretized on the Legendre polynomials P_0..P_k of each bin (a
discontinuous-Galerkin projection), using exact interval-image intersections
of the monotone branches and Gauss-Legendre quadrature on each intersection
(deterministic, no sampling).  Degree k = 0 is Ulam's method, whose matrix is
column-stochastic.  Stationary vectors of the sparse matrix and
central-difference derivatives of their bin averages provide the
cross-checks for the spectral solvers.  The only shared code with the
spectral path is the map's lift and its Newton inversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial import legendre

from .fourier import FourierSeries
from .maps import CircleMap, PerturbedFamily

if TYPE_CHECKING:
    import scipy.sparse as sp

STATIONARY_TOL = 1e-12
STATIONARY_MAXIT = 20_000
MOMENT_TOL_PER_BIN = 8 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class UlamModel:
    """Bin-wise Legendre discretization of a map's transfer operator.

    Index a*(degree+1) + p of ``matrix`` is Legendre degree p on bin a: the
    coefficient of P_p(2*(x*bins - a) - 1), scaled so that the P_0
    coefficient is the bin average.  At degree 0, matrix[a, b] is the
    fraction of bin b mapped into bin a and columns sum to one; at any
    degree the P_0 rows of a P_0 column sum to one.  ``stationary`` holds the
    bin averages of the invariant density (nonnegative, summing to the bin
    count).
    """

    bins: int
    degree: int
    matrix: sp.csc_matrix
    stationary: np.ndarray

    def __post_init__(self) -> None:
        s = np.array(self.stationary, dtype=float)
        s.flags.writeable = False
        object.__setattr__(self, "stationary", s)


def _pieces(circle_map: CircleMap, bins: int) -> tuple[np.ndarray, ...]:
    """Intervals of [0, 1] that lie in one source bin and map into one image bin.

    Returns each piece's left end, length, source bin and, times ``bins``,
    the left edge of its image bin on the lift.
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

    # Each preimage segment maps into one image bin and straddles at most one
    # source-bin edge, where it is cut in two.
    y_lo, y_hi = y[:-1], y[1:]
    image_edge = np.floor(0.5 * (targets[:-1] + targets[1:]) * bins).astype(int)
    j0 = np.minimum((y_lo * bins).astype(int), bins - 1)
    edge = (j0 + 1) / bins
    first = np.minimum(y_hi, edge) - y_lo
    whole, cut = first > 0.0, y_hi > edge
    return (np.concatenate((y_lo[whole], edge[cut])),
            np.concatenate((first[whole], (y_hi - edge)[cut])),
            np.concatenate((j0[whole], j0[cut] + 1)),
            np.concatenate((image_edge[whole], image_edge[cut])))


def _transition_matrix(circle_map: CircleMap, bins: int, degree: int) -> sp.csc_matrix:
    import scipy.sparse as sp  # here, so that commands that never verify skip it

    # _pieces frees its per-segment temporaries on return, so the assembly
    # below peaks no higher in memory than the Newton inversion inside it.
    piece_lo, length, source, image_edge = _pieces(circle_map, bins)

    # Entry (a, p) <- (b, q) is (2p+1) * bins * integral of P_q(xi_b(y)) P_p(eta_a(T y))
    # over the pieces from source bin b into image bin a, with the bin-local
    # coordinates xi_b(y) = 2*(y*bins - b) - 1 and eta_a likewise on the image.
    # Gauss-Legendre quadrature on each piece; the one-node rule at degree 0
    # gives exactly length * bins.
    size = degree + 1
    vals = np.zeros((length.size, size, size))
    for node, weight in zip(*legendre.leggauss(size)):
        y_node = piece_lo + 0.5 * length * (node + 1.0)
        source_basis = legendre.legvander(2.0 * (y_node * bins - source) - 1.0, degree)
        if degree:
            eta = 2.0 * (circle_map.lift(y_node) * bins - image_edge) - 1.0
            image_basis = legendre.legvander(eta, degree)
        else:  # P_0 is constant, so the lift at the nodes is not needed
            image_basis = np.ones_like(source_basis)
        vals += 0.5 * weight * image_basis[:, :, None] * source_basis[:, None, :]
    local = np.arange(size)
    vals *= ((2 * local + 1) * bins)[:, None] * length[:, None, None]
    rows = ((image_edge % bins)[:, None, None] * size
            + local[:, None]).repeat(size, axis=2)
    cols = (source[:, None, None] * size + local).repeat(size, axis=1)
    matrix = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                           shape=(bins * size, bins * size)).tocsc()

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


def _stationary_vector(matrix: sp.csc_matrix, bins: int) -> np.ndarray:
    size = matrix.shape[0] // bins
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
    if bins < 2:
        raise ValueError("need at least 2 bins")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    matrix = _transition_matrix(circle_map, bins, degree)
    coefficients = _stationary_vector(matrix, bins)
    return UlamModel(bins, degree, matrix, coefficients[::degree + 1])


def fd_response(family: PerturbedFamily, delta: float, bins: int,
                degree: int = 2) -> np.ndarray:
    """Central-difference derivative of the oracle's stationary bin averages.

    The degree-2 default keeps the oracle's discretization error far below the
    O(delta^2) term, so the difference converges at second order in delta.
    """
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
