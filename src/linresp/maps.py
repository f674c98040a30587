"""Expanding circle maps given as lifts x -> d*x + p(x).

The periodic part p is a trigonometric polynomial, so derivatives to any
order are exact and branch inverses can be found by Newton iteration on the
strictly increasing lift.  Newton is seeded by cubic Hermite interpolation of
the lift's inverse, whose values and slopes are known at the images of the
uniform grid that the construction checks sample; on smooth maps the seed
already meets the tolerance, so the first residual sweep ends the iteration.
The targets go through in blocks of ``fourier.BLOCK``, so an inversion of many
points holds temporaries the size of one block.  That inverter is the only
one in the package, and only the pointwise checks and the Ulam oracle call
it.  One-parameter families T_delta = T0 + delta*eps model first-order
perturbations of the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .fourier import (BLOCK, DENSE_GRID, FourierSeries, as_integer, check_keys, differentiate,
                      grid_values, half_spectrum, next_pow2, real_horner)

EXPANSIVITY_MARGIN = 1e-9
FAMILY_MARGIN = 0.05
NEWTON_TOL = 1e-13
NEWTON_MAXIT = 100


class NotExpandingError(ValueError):
    """The lift's derivative does not stay above 1."""


class PreimageError(RuntimeError):
    """Branch inversion failed to converge; the map is corrupted."""


def _validation_size(order: int) -> int:
    # The construction checks' samples of p and p' also seed Newton: sized
    # from the order of p, never from the targets of an inversion, and a
    # power of two, so that the seed's grid values k/n are exact.
    return next_pow2(max(16 * (order + 1), DENSE_GRID))


def _interpolated_inverse(table: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Newton seed for L(y) = t, by cubic Hermite interpolation of the inverse lift.

    The nodes t_i = L(x_i) on the construction grid x_i = i/n, with a wrap
    node t_n = t_0 + d, split [t_0, t_0 + d) into intervals.  Column k of
    ``table`` holds interval k's left node t_k, its width h = t_k+1 - t_k
    and its end slopes 1/L' times h.  n is a power of two, so the value x_k
    = k/n and the rise 1/n are exact and not stored.  On the interval the
    seed is the cubic in u = (t - t_k)/h that matches the values and slopes
    at both ends.  The targets lie in [t_0, t_0 + d) up to the last bit, so
    the interval index is clipped to the table.
    """
    n = table.shape[1]
    k = np.clip(np.searchsorted(table[0], targets, side="right") - 1, 0, n - 1)
    t, h, m0, m1 = table[:, k]
    u = (targets - t) / h
    dy = 1.0 / n
    return k / n + u * (m0 + u * (3.0 * dy - 2.0 * m0 - m1 + u * (m0 + m1 - 2.0 * dy)))


def _solve_increasing(value, target, seed, lo, hi,
                      tol=NEWTON_TOL, maxit=NEWTON_MAXIT):
    """Vectorized root finding for a strictly increasing function f.

    ``value(y)`` returns f(y) and a function that returns f'(y) at the same
    points; the slope is computed only before a Newton step, never on the
    converged sweep.  Newton from the seed, clipped to the bracket [lo, hi];
    points that have not converged after ``maxit`` sweeps fall back to
    bisection plus a Newton polish.
    """
    y = np.clip(np.asarray(seed, dtype=float), lo, hi)
    for _ in range(maxit):
        f, slope = value(y)
        resid = f - target
        if np.max(np.abs(resid)) < tol:
            return y
        y = np.clip(y - resid / slope(), lo, hi)
    bad = np.abs(value(y)[0] - target) >= tol
    if np.any(bad):
        a, b, t = lo[bad], hi[bad], target[bad]
        for _ in range(120):
            m = 0.5 * (a + b)
            left = value(m)[0] <= t
            a = np.where(left, m, a)
            b = np.where(left, b, m)
        yb = 0.5 * (a + b)
        for _ in range(3):
            f, slope = value(yb)
            yb = yb - (f - t) / slope()
        y[bad] = yb
        if np.max(np.abs(value(y)[0] - target)) >= tol:
            raise PreimageError(
                "branch inversion did not converge; map is not expanding or corrupted")
    return y


class _Inversion(NamedTuple):
    """``invert_lift``'s seed table, L(0), and the bounds on p of its Newton brackets."""

    table: np.ndarray
    lift0: float
    p_lo: float
    p_hi: float


@dataclass(frozen=True, eq=False)
class CircleMap:
    """Degree-d expanding circle map with lift L(x) = d*x + p(x).

    Construction verifies expansivity: min over a fine grid of d + p'(x)
    must exceed 1 + 1e-9; max T' on that grid sets the bandwidth of
    e^{2 pi i j T}.  is_odd: T(-x) = -T(x), each coefficient of p has real
    part exactly 0, so M is real and the constraint matrix purely imaginary.
    """

    degree: int
    periodic_part: FourierSeries
    min_derivative: float = field(init=False, repr=False)
    max_derivative: float = field(init=False, repr=False)
    is_odd: bool = field(init=False, repr=False)
    _inversion: _Inversion = field(init=False, repr=False)

    def __post_init__(self) -> None:
        d = as_integer("map degree", self.degree, 2)
        size = _validation_size(self.periodic_part.order)
        deriv = d + grid_values(self._derivs[0], size)
        min_deriv = float(np.min(deriv))
        if min_deriv <= 1.0 + EXPANSIVITY_MARGIN:
            raise NotExpandingError(
                f"min lift derivative {min_deriv:.6g} <= 1: map is not expanding")
        pvals = grid_values(self.periodic_part, size)
        pad = 1e-9 + 1e-3 * (float(np.max(pvals)) - float(np.min(pvals)))
        t = d * (np.arange(size + 1) / size) + np.append(pvals, pvals[0])
        slope = 1.0 / np.append(deriv, deriv[0])
        h = np.diff(t)
        inversion = _Inversion(np.stack((t[:-1], h, h * slope[:-1], h * slope[1:])),
                               float(self.periodic_part.evaluate(0.0)),
                               float(np.min(pvals)) - pad, float(np.max(pvals)) + pad)
        for name, value in (("degree", d), ("min_derivative", min_deriv),
                            ("max_derivative", float(np.max(deriv))),
                            ("is_odd", not np.any(self.periodic_part.coeffs.real)),
                            ("_inversion", inversion)):
            object.__setattr__(self, name, value)

    @cached_property
    def _derivs(self) -> tuple[FourierSeries, FourierSeries]:
        p1 = differentiate(self.periodic_part)
        return p1, differentiate(p1)

    def lift(self, x):
        return self.degree * np.asarray(x, dtype=float) + self.periodic_part.evaluate(x)

    def grid_values(self, size: int, deriv: int = 0) -> np.ndarray:
        """The lift (deriv=0, not reduced mod 1) or T', T'' at x_j = j/size, by one FFT."""
        if deriv == 0:
            return self.degree * (np.arange(size) / size) + grid_values(self.periodic_part, size)
        if deriv == 1:
            return self.degree + grid_values(self._derivs[0], size)
        if deriv == 2:
            return grid_values(self._derivs[1], size)
        raise ValueError("deriv must be in 0..2")

    def evaluate(self, x, deriv: int = 0):
        """Map value (mod 1) for deriv=0; T', T'' for deriv=1, 2."""
        if deriv == 0:
            return np.mod(self.lift(x), 1.0)
        if deriv == 1:
            return self.degree + self._derivs[0].evaluate(x)
        if deriv == 2:
            return self._derivs[1].evaluate(x)
        raise ValueError("deriv must be in 0..2")

    @cached_property
    def _half(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``half_spectrum`` rows of p for the value pass and of p' for the slope pass.

        The value row drops the trailing modes whose summed magnitude is at
        most 0.01 eps (d + sum |c_n|), which moves L(y) by far less than its
        rounding; the slope row keeps every mode.
        """
        rows = half_spectrum(self.periodic_part, self._derivs[0])
        tail = np.cumsum(np.abs(rows[0, ::-1]))[::-1]  # tail[m]: summed magnitude of modes >= m
        mass = self.degree + np.sum(np.abs(self.periodic_part.coeffs))
        keep = 1 + np.count_nonzero(tail[1:] > 0.01 * np.finfo(float).eps * mass)
        return rows[:1, :keep], rows[1:]

    def _lift_value(self, y):
        """L(y) from one ``real_horner`` pass over p, and a function that
        returns L'(y) from a pass over p' sharing e^{2 pi i y}.

        A row of fewer than 64 modes, such as a chopped value row, takes the
        plain Horner pass; a longer one the baby-step/giant-step sum.
        """
        z = np.exp(2j * np.pi * y)
        value_row, slope_row = self._half
        return (self.degree * y + real_horner(value_row, z)[0],
                lambda: self.degree + real_horner(slope_row, z)[0])

    def invert_lift(self, targets):
        """Solve L(y) = t for each t; the unique real solution of the lift.

        Each block of BLOCK targets is shifted, seeded, bracketed and
        solved on its own and written into one output array.
        """
        t = np.asarray(targets, dtype=float)
        tf = t.ravel()
        y = np.empty(tf.size)
        table, lift0, p_lo, p_hi = self._inversion
        for start in range(0, tf.size, BLOCK):
            block = tf[start:start + BLOCK]
            shift = np.floor((block - lift0) / self.degree)
            base = block - self.degree * shift  # now within [L(0), L(0)+d)
            seed = _interpolated_inverse(table, base)
            lo = (base - p_hi) / self.degree
            hi = (base - p_lo) / self.degree
            y[start:start + BLOCK] = (
                _solve_increasing(self._lift_value, base, seed, lo, hi) + shift)
        return float(y[0]) if t.ndim == 0 else y.reshape(t.shape)

    def preimages(self, x):
        """All d preimages of x, ordered by branch: L(y_i) = x + k_i, y_i in [0,1).

        Newton residual below 1e-13; branches are strictly increasing.
        """
        xa = np.asarray(x, dtype=float)
        scalar = xa.ndim == 0
        xf = np.mod(np.atleast_1d(xa).ravel(), 1.0)
        kmin = np.ceil(self._inversion.lift0 - xf)  # first integer k with x + k >= L(0)
        targets = xf[None, :] + kmin[None, :] + np.arange(self.degree)[:, None]
        y = self.invert_lift(targets.ravel()).reshape(self.degree, xf.size)
        if scalar:
            return y[:, 0]
        return y.reshape((self.degree,) + xa.shape)

    def to_dict(self) -> dict:
        return {"degree": self.degree, "periodic_part": self.periodic_part.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "CircleMap":
        """The map of ``to_dict``: keys degree and periodic_part only, an integral degree."""
        keys = ("degree", "periodic_part")
        check_keys("map", data, keys, required=keys)
        return cls(data["degree"], FourierSeries.from_dict(data["periodic_part"]))


@dataclass(frozen=True, eq=False)
class PerturbedFamily:
    """One-parameter family T_delta = T0 + delta*eps of circle maps.

    Members stay uniformly expanding for |delta| < delta_max, computed with
    a safety margin on the base map's expansivity.
    """

    base: CircleMap
    direction: FourierSeries

    @cached_property
    def delta_max(self) -> float:
        size = _validation_size(self.direction.order)
        slope = float(np.max(np.abs(grid_values(differentiate(self.direction), size))))
        room = self.base.min_derivative - 1.0 - FAMILY_MARGIN
        if room <= 0.0:
            return 0.0
        if slope == 0.0:
            return np.inf
        return room / slope

    def member(self, delta: float) -> CircleMap:
        if not abs(delta) < self.delta_max:
            raise ValueError(
                f"|delta| = {abs(delta):.6g} >= delta_max = {self.delta_max:.6g}: "
                "perturbation breaks expansivity")
        return CircleMap(self.base.degree,
                         self.base.periodic_part + delta * self.direction)
