"""Closed-form Fourier solver for the degree-2 linear map x -> 2x (mod 1).

Its transfer operator halves frequencies and kills odd modes, so the whole
control problem reduces to coefficient bookkeeping: with target coefficients
a_n, the even-frequency data b_{2n} = a_n - a_{2n} is forced, odd-frequency
data is free, and term-wise integration of -2 f gives the perturbation.
Serves both as a fast path and as an exactness oracle for the general
spectral solver.
"""

from __future__ import annotations

import numpy as np

from .fourier import FourierSeries, antiderivative, differentiate, require_zero_mean, zeros


def _halve(series: FourierSeries) -> FourierSeries:
    """Frequency-halving action of the transfer operator: out_m = in_{2m}."""
    return FourierSeries(series.coeffs[series.order % 2::2])


def exact_control(target: FourierSeries,
                  odd_modes: FourierSeries | None = None) -> FourierSeries:
    """Doubling-map perturbation realizing the target density change.

    Coefficient (a_{2n} - a_n)/(2 pi i n) at frequency 2n; odd-frequency
    content from ``odd_modes`` (coefficients of -eps'/2 there) is integrated
    term-wise, and even content there is refused.  With ``odd_modes``
    omitted this is the minimal solution for the L2 norm and for every
    diagonal derivative-weighted norm.
    """
    require_zero_mean(target, "target")
    free = zeros(0) if odd_modes is None else odd_modes
    if np.any(_halve(free).coeffs):  # the even modes of the free part
        raise ValueError("free coefficients live on odd frequencies only")
    n = target.order
    forced = np.zeros(4 * n + 1, dtype=complex)
    forced[::2] = target.coeffs - target.with_order(2 * n).coeffs[::2]
    forced[2 * n] = 0.0
    return -2 * antiderivative(FourierSeries(forced) + free)


def exact_forward(eps: FourierSeries) -> FourierSeries:
    """Density response of the doubling map to the perturbation eps.

    Applies the frequency-halving rule to -eps'/2 and sums the resulting
    Neumann series, which terminates after ~log2(N) halvings.
    """
    term = _halve(differentiate(eps) * (-0.5))
    total = term
    while term.order >= 1 and np.any(term.coeffs != 0):
        term = _halve(term)
        total = total + term
    return total
