"""Truncated Fourier algebra for real 1-periodic functions.

Functions live on the unit circle as complex Fourier coefficients (mode n
multiplies e^{2 pi i n x}, n = -N..N).  Samples on the uniform grid
x_j = j/M are plain float arrays, with one route each way: ``grid_values``
(one inverse FFT) and ``dft``.  Real-valuedness is encoded as the Hermitian
symmetry coeffs[-n] == conj(coeffs[n]); every operation here preserves that
symmetry exactly.  Values at scattered points come from ``real_horner``: a
plain Horner pass for rows of fewer than 64 modes, and a baby-step/giant-step
sum whose inner sums are one real matrix product for longer rows.  Series are
immutable and all operations are pure, so everything is safe to share across
threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

DEFAULT_ORDER = 64
BLOCK = 1 << 14  # complex values (256 KB) per numpy temporary of a blocked loop
CHECK_GRID = 1024  # uniform points of the pointwise checks on a computed answer
DENSE_GRID = 4096  # fewest uniform points of a sup norm, a positivity check or a Newton table
FLOAT_MAX = sys.float_info.max


def next_pow2(n: int) -> int:
    """Smallest power of two >= max(n, 2)."""
    m = 2
    while m < n:
        m *= 2
    return m


def exact_size(order: int, at_least: int = 2) -> int:
    """Uniform grid, a power of two >= ``at_least``, that samples order-``order`` data exactly."""
    return next_pow2(max(at_least, 2 * order + 2))


def as_integer(what: str, value, low: int) -> int:
    """An integral number >= low as an int; booleans and fractions are refused."""
    if isinstance(value, bool) or not (isinstance(value, Integral) or
                                       (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{what} must be >= {low}")
    return int(value)


def as_real(what: str, value) -> float:
    """A finite real number as a float; booleans, strings and non-finite values are refused."""
    # Python compares int and float exactly, so this refuses NaN, infinities and
    # the integers that float() cannot hold.
    if isinstance(value, bool) or not isinstance(value, Real) or not abs(value) <= FLOAT_MAX:
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def check_keys(what: str, block, known: tuple[str, ...],
               required: tuple[str, ...] = ()) -> None:
    """Refuse a block that is not a dict, has keys outside ``known`` or lacks one of ``required``."""
    if not isinstance(block, dict):
        raise ValueError(f"{what} must be an object with keys {list(known)}")
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; expected some of {list(known)}")
    missing = [key for key in required if key not in block]
    if missing:
        raise ValueError(f"{what} needs keys {missing}")


@dataclass(frozen=True)
class SobolevWeights:
    """Parameters (a, b, c, d) of the derivative-weighted Sobolev norm.

    The norm is realized as the quadratic form

        ||f||^2 = ||f||_2^2 + a^2 ||f'||_2^2 + b^2 ||f''||_2^2
                  + c^2 ||f'''||_2^2 + d^2 ||f''''||_2^2,

    which is diagonal in the Fourier basis with per-mode weight
    W(n) = 1 + a^2 (2 pi n)^2 + b^2 (2 pi n)^4 + c^2 (2 pi n)^6
    + d^2 (2 pi n)^8 >= 1.  The plain L2 norm is a = b = c = d = 0.
    """

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            v = as_real(f"weight {name!r}", getattr(self, name))
            if v < 0.0:
                raise ValueError(f"weight {name!r} must be >= 0, got {v}")
            object.__setattr__(self, name, v)

    def mode_weights(self, order: int) -> np.ndarray:
        """Diagonal weights W(n) for n = -order..order."""
        n = np.arange(-order, order + 1)
        w = 2.0 * np.pi * n
        return (1.0 + (self.a * w) ** 2 + (self.b * w**2) ** 2
                + (self.c * w**3) ** 2 + (self.d * w**4) ** 2)

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    @classmethod
    def from_dict(cls, data: dict) -> "SobolevWeights":
        """The weights of ``to_dict``: a subset of the keys a, b, c, d, 0 by default."""
        check_keys("weights", data, ("a", "b", "c", "d"))
        return cls(**data)


@dataclass(frozen=True, eq=False)
class FourierSeries:
    """Truncated Fourier coefficients of a real periodic function.

    ``coeffs`` has length 2N+1 and is indexed by mode n = -N..N; mode n
    multiplies e^{2 pi i n x}.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 != 1:
            raise ValueError("coeffs must be one-dimensional with odd length (modes -N..N)")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return (self.coeffs.size - 1) // 2

    @property
    def modes(self) -> np.ndarray:
        n = self.order
        return np.arange(-n, n + 1)

    def coeff(self, n: int) -> complex:
        """Coefficient of mode n; zero beyond the truncation."""
        if abs(n) > self.order:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.order])

    def evaluate(self, x):
        """Evaluate at points x (scalar or array); returns real values.

        One ``real_horner`` pass over the modes 0..N: plain Horner for
        N < 63, a baby-step/giant-step sum above.  Raises if the
        coefficients are not Hermitian to 1e-12 of their mass.
        """
        xa = np.asarray(x, dtype=float)
        z = np.exp(2j * np.pi * xa.ravel())
        vals = real_horner(half_spectrum(self), z)[0].reshape(xa.shape)
        return float(vals) if xa.ndim == 0 else vals

    def with_order(self, order: int) -> "FourierSeries":
        """Zero-pad or truncate to the given order."""
        if order == self.order:
            return self
        c = np.zeros(2 * order + 1, dtype=complex)
        m = min(order, self.order)
        c[order - m:order + m + 1] = self.coeffs[self.order - m:self.order + m + 1]
        return FourierSeries(c)

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        n = max(self.order, other.order)
        return FourierSeries(self.with_order(n).coeffs + other.with_order(n).coeffs)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        n = max(self.order, other.order)
        return FourierSeries(self.with_order(n).coeffs - other.with_order(n).coeffs)

    def __neg__(self) -> "FourierSeries":
        return FourierSeries(-self.coeffs)

    def __mul__(self, scalar) -> "FourierSeries":
        if isinstance(scalar, complex):
            if scalar.imag != 0.0:
                raise TypeError("only real scalars keep the function real-valued")
            scalar = scalar.real
        return FourierSeries(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def to_dict(self) -> dict:
        """N and the (2N+1, 2) float array of (real, imaginary) pairs, for ``canonical_json``."""
        return {"N": self.order, "coeffs": np.column_stack((self.coeffs.real, self.coeffs.imag))}

    @classmethod
    def from_dict(cls, data: dict) -> "FourierSeries":
        """The series of ``to_dict``: keys N and coeffs only, with an integral N >= 0."""
        keys = ("N", "coeffs")
        check_keys("series", data, keys, required=keys)
        order = as_integer("series N", data.get("N"), 0)
        pairs = data["coeffs"]
        if len(pairs) != 2 * order + 1:
            raise ValueError("coeffs length does not match N")
        return cls(np.array([complex(as_real("series coefficient", re),
                                     as_real("series coefficient", im)) for re, im in pairs]))


def half_spectrum(*series: FourierSeries) -> np.ndarray:
    """Rows of modes 0..N of real series of one order, with mode 0 halved.

    For Hermitian coefficients c_n, f(y) = Re c_0 + 2 Re sum_{n>=1} c_n z^n
    with z = e^{2 pi i y}, so each row evaluates as 2 Re sum_{n>=0}.  Raises
    if a series is not Hermitian: the negative modes are never read again.
    """
    for s in series:
        _require_hermitian(s.coeffs)
    rows = np.stack([s.coeffs[s.order:] for s in series])
    rows[:, 0] *= 0.5
    return rows


def baby_steps(length: int) -> int:
    """Baby steps R of a baby-step/giant-step sum of ``length`` terms: ceil(sqrt(length))."""
    return math.isqrt(length - 1) + 1


def block_length(size: int, limit: int) -> int:
    """Length of the fewest equal blocks of at most max(1, ``limit``) that cover ``size`` items."""
    return max(1, -(-size // max(1, -(-size // max(1, limit)))))


def real_horner(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Values of the ``half_spectrum`` rows at the points y with z = e^{2 pi i y}.

    Taking z rather than y lets passes at the same points share the
    exponential.  A row of K >= 64 modes is a baby-step/giant-step sum
    (Paterson and Stockmeyer) with R = ``baby_steps(K)``: the inner sums
    sum_{a<R} c_{Rb+a} z^a for every b are one real matrix product of the
    baby powers z^a with the coefficients, then S = ceil(K/R) Horner steps
    in z^R add them up.  The points go through in blocks sized so that the
    powers, inner sums and accumulator hold at most rows x BLOCK
    complex values, the Horner accumulator of a shorter row.  A row of
    fewer than 64 modes is a plain Horner pass over blocks of BLOCK
    points: R = 1, whose inner sums are the coefficients themselves.  The
    block form breaks even near 32 modes at 2048 points and near 100 at
    16384 points.
    """
    count, length = rows.shape
    baby = baby_steps(length) if length >= 64 else 1
    giant = -(-length // baby)
    if baby == 1:
        inner = rows.T[None]  # (1, S, rows): the coefficients, broadcast over the points
        points = BLOCK
    else:
        c = np.zeros((count, giant * baby), dtype=complex)
        c[:, :length] = rows
        c = c.reshape(count, giant, baby).transpose(2, 1, 0).reshape(baby, giant * count)
        # [Re z^a, Im z^a] per point times this is [Re, Im] of the inner sum
        # per (b, row): the complex product in real arithmetic.
        coeffs = np.empty((baby, 2, giant * count, 2))
        coeffs[:, 0, :, 0] = coeffs[:, 1, :, 1] = c.real
        coeffs[:, 0, :, 1] = c.imag
        coeffs[:, 1, :, 0] = -c.imag
        coeffs = coeffs.reshape(2 * baby, 2 * giant * count)
        points = block_length(
            z.size, count * BLOCK // (baby + giant * count + count + 1))
    out = np.empty((count, z.size))
    for start in range(0, z.size, points):
        block = z[start:start + points]
        step = block
        if baby > 1:
            powers = np.empty((block.size, baby), dtype=complex)
            powers[:, 0] = 1.0
            for a in range(1, baby):
                np.multiply(powers[:, a - 1], block, out=powers[:, a])
            step = powers[:, -1] * block
            inner = (powers.view(float) @ coeffs).view(complex).reshape(block.size, giant, count)
        acc = np.empty((block.size, count), dtype=complex)
        acc[:] = inner[:, -1]
        for b in range(giant - 2, -1, -1):
            acc *= step[:, None]
            acc += inner[:, b]
        np.multiply(acc.real.T, 2.0, out=out[:, start:start + points])
    return out


def grid_values(series: FourierSeries, size: int) -> np.ndarray:
    """Values at x_j = j/size by one inverse FFT.

    Modes with |n| > size/2 fold onto n mod size, which is exact for point
    values.  Raises if the coefficients are not Hermitian.
    """
    _require_hermitian(series.coeffs)
    spectrum = np.zeros(size, dtype=complex)
    np.add.at(spectrum, series.modes % size, series.coeffs)
    return np.fft.ifft(spectrum).real * size


def _require_hermitian(coeffs: np.ndarray) -> None:
    defect = float(np.max(np.abs(coeffs - np.conj(coeffs[::-1]))))
    if defect > 1e-12 * max(1.0, float(np.sum(np.abs(coeffs)))):
        raise ValueError(f"Hermitian defect {defect:.3e} exceeds tolerance; "
                         "the series is not real-valued")


def _real_coordinates(upper: np.ndarray, rows: slice = slice(None), out=None) -> np.ndarray:
    """Rows ``rows`` of Q^H v from the rows j >= 0 of Hermitian columns v.

    Row 0 is Re v_0, row a_j is sqrt(2) Re v_j and row b_j is -sqrt(2) Im v_j.
    """
    n = upper.shape[0] - 1
    r0, r1, _ = rows.indices(2 * n + 1)
    if out is None:
        out = np.empty((r1 - r0,) + upper.shape[1:])
    if r0 == 0 < r1:
        out[0] = upper[0].real
    lo, hi = max(r0, 1), min(r1, n + 1)
    if lo < hi:
        np.multiply(upper[lo:hi].real, np.sqrt(2), out=out[lo - r0:hi - r0])
    lo = max(r0, n + 1)
    if lo < r1:
        np.multiply(upper[lo - n:r1 - n].imag, -np.sqrt(2), out=out[lo - r0:])
    return out


def to_real_basis(coeffs: np.ndarray) -> np.ndarray:
    """Orthonormal real coordinates (a_0, a_1..a_N, b_1..b_N) of Hermitian coefficients.

    The function is a_0 + sqrt(2) sum_n (a_n cos 2 pi n x + b_n sin 2 pi n x),
    so the map is an isometry from coefficients to coordinates.  Only the
    modes n >= 0 are read, so a Hermitian defect above 1e-12 max(1, sum |c|)
    is refused with a ValueError.
    """
    c = np.asarray(coeffs)
    _require_hermitian(c)
    return _real_coordinates(c[(c.size - 1) // 2:])


def from_real_basis(coords: np.ndarray) -> FourierSeries:
    """Inverse of ``to_real_basis``: the series c = Q u, exactly Hermitian."""
    u = np.asarray(coords, dtype=float)
    n = (u.size - 1) // 2
    upper = (u[1:n + 1] - 1j * u[n + 1:]) / np.sqrt(2)
    return FourierSeries(np.concatenate((np.conj(upper[::-1]), u[:1], upper)))


def zeros(order: int = 0) -> FourierSeries:
    return FourierSeries(np.zeros(2 * order + 1, dtype=complex))


def sine(k: int, amplitude: float = 1.0) -> FourierSeries:
    """amplitude * sin(2 pi k x) as a truncated series of order k."""
    if k < 1:
        raise ValueError("frequency must be >= 1")
    c = np.zeros(2 * k + 1, dtype=complex)
    c[2 * k] = amplitude / 2j
    c[0] = -amplitude / 2j
    return FourierSeries(c)


def cosine(k: int, amplitude: float = 1.0) -> FourierSeries:
    """amplitude * cos(2 pi k x) as a truncated series of order k."""
    if k < 1:
        raise ValueError("frequency must be >= 1")
    c = np.zeros(2 * k + 1, dtype=complex)
    c[2 * k] = amplitude / 2
    c[0] = amplitude / 2
    return FourierSeries(c)


def dft(samples, order: int) -> FourierSeries:
    """Discrete Fourier coefficients of real samples at x_j = j/M, Hermitian-symmetrized.

    Exact for trigonometric polynomials of degree <= order sampled on any
    M >= 2*order + 1 points; smaller grids alias and are rejected.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if order < 0:
        raise ValueError("order must be >= 0")
    if s.size < 2 * order + 1:
        raise ValueError(f"grid size {s.size} < 2*{order}+1 aliases mode +-{order}")
    spectrum = np.fft.fft(s) / s.size
    n = np.arange(-order, order + 1)
    c = spectrum[n % s.size]
    return FourierSeries(0.5 * (c + np.conj(c[::-1])))


def differentiate(series: FourierSeries) -> FourierSeries:
    """Derivative: mode n is scaled by 2 pi i n."""
    return FourierSeries(series.coeffs * (2j * np.pi * series.modes))


def antiderivative(series: FourierSeries) -> FourierSeries:
    """Zero-mean primitive: mode n divided by 2 pi i n, mode 0 set to 0.

    Requires a zero-mean input (``require_zero_mean``); otherwise the
    primitive would not be periodic.  Integration constants are the
    caller's business.
    """
    require_zero_mean(series, "antiderivative input")
    mid = series.order
    c = np.array(series.coeffs)
    n = series.modes.astype(float)
    n[mid] = 1.0  # avoid 0/0; mode 0 is overwritten below
    c = c / (2j * np.pi * n)
    c[mid] = 0.0
    return FourierSeries(c)


def require_zero_mean(series: FourierSeries, what: str) -> float:
    """Refuse (ValueError) a mean above 1e-10 max(1, max_n |c_n|); return that bound."""
    bound = 1e-10 * max(1.0, float(np.max(np.abs(series.coeffs))))
    if abs(series.coeff(0)) > bound:
        raise ValueError(f"{what} has mean {series.coeff(0):.3e}; it must have zero mean")
    return bound


def sobolev_norm(series: FourierSeries, weights: SobolevWeights) -> float:
    """sqrt(sum_n W(n) |c_n|^2) with the quadratic-form weights W(n)."""
    w = weights.mode_weights(series.order)
    return float(np.sqrt(np.sum(w * np.abs(series.coeffs) ** 2)))


def sup_norm(series: FourierSeries, grid: int = DENSE_GRID) -> float:
    return float(np.max(np.abs(grid_values(series, exact_size(series.order, grid)))))
