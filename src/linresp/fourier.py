"""Truncated Fourier algebra for real 1-periodic functions.

Functions live on the unit circle and are represented either by complex
Fourier coefficients (mode n multiplies e^{2 pi i n x}, n = -N..N) or by
samples on the uniform grid x_j = j/M.  Real-valuedness is encoded as the
Hermitian symmetry coeffs[-n] == conj(coeffs[n]); every operation here
preserves that symmetry exactly.  All values are immutable and all
operations are pure, so everything is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_ORDER = 64
HORNER_BLOCK = 16384  # points per Horner block; a two-row accumulator is 512 KB


def next_pow2(n: int) -> int:
    """Smallest power of two >= max(n, 2)."""
    m = 2
    while m < n:
        m *= 2
    return m


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
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"weight {name!r} must be finite and >= 0, got {v}")
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
        return cls(float(data.get("a", 0.0)), float(data.get("b", 0.0)),
                   float(data.get("c", 0.0)), float(data.get("d", 0.0)))


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

    @property
    def mean(self) -> float:
        """Integral over one period (real part of mode 0)."""
        return float(self.coeffs[self.order].real)

    @property
    def hermitian_defect(self) -> float:
        """Max deviation from coeffs[-n] == conj(coeffs[n])."""
        return float(np.max(np.abs(self.coeffs - np.conj(self.coeffs[::-1]))))

    def hermitian_symmetrized(self) -> "FourierSeries":
        return FourierSeries(0.5 * (self.coeffs + np.conj(self.coeffs[::-1])))

    def evaluate(self, x):
        """Evaluate at points x (scalar or array); returns real values.

        One real Horner pass over the modes 0..N (``real_horner``).  Raises if
        the coefficients are not Hermitian to 1e-12 of their mass.
        """
        xa = np.asarray(x, dtype=float)
        vals = real_horner(half_spectrum(self), xa.ravel())[0].reshape(xa.shape)
        return float(vals) if xa.ndim == 0 else vals

    def __call__(self, x):
        return self.evaluate(x)

    def with_order(self, order: int) -> "FourierSeries":
        """Zero-pad or truncate to the given order."""
        if order == self.order:
            return self
        c = np.zeros(2 * order + 1, dtype=complex)
        m = min(order, self.order)
        c[order - m:order + m + 1] = self.coeffs[self.order - m:self.order + m + 1]
        return FourierSeries(c)

    def plus_constant(self, value: float) -> "FourierSeries":
        c = np.array(self.coeffs)
        c[self.order] += value
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
        s = _real_scalar(scalar)
        return FourierSeries(self.coeffs * s)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "FourierSeries":
        return self * (1.0 / _real_scalar(scalar))

    def to_dict(self) -> dict:
        return {"N": self.order,
                "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs]}

    @classmethod
    def from_dict(cls, data: dict) -> "FourierSeries":
        order = int(data["N"])
        pairs = data["coeffs"]
        if len(pairs) != 2 * order + 1:
            raise ValueError("coeffs length does not match N")
        return cls(np.array([complex(re, im) for re, im in pairs]))


def half_spectrum(*series: FourierSeries) -> np.ndarray:
    """Rows of modes 0..N of real series of one order, with mode 0 halved.

    For Hermitian coefficients c_n, f(y) = Re c_0 + 2 Re sum_{n>=1} c_n z^n
    with z = e^{2 pi i y}, so each row evaluates as 2 Re sum_{n>=0}.  Raises
    if a series is not Hermitian: the negative modes are never read again.
    """
    for s in series:
        _require_hermitian(s)
    rows = np.stack([s.coeffs[s.order:] for s in series])
    rows[:, 0] *= 0.5
    return rows


def real_horner(rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Values at y of the ``half_spectrum`` rows in one Horner pass, stacked (rows, n).

    The points go through in blocks of HORNER_BLOCK, so that the accumulator
    stays in cache across the pass over the modes.
    """
    out = np.empty((rows.shape[0], y.size))
    for start in range(0, y.size, HORNER_BLOCK):
        block = slice(start, start + HORNER_BLOCK)
        z = np.exp(2j * np.pi * y[block])
        acc = np.repeat(rows[:, -1:], z.size, axis=1)
        for k in range(rows.shape[1] - 2, -1, -1):
            acc *= z
            acc += rows[:, k:k + 1]
        out[:, block] = 2.0 * acc.real
    return out


def grid_values(series: FourierSeries, size: int) -> np.ndarray:
    """Values at x_j = j/size by one inverse FFT.

    Modes with |n| > size/2 fold onto n mod size, which is exact for point
    values.  Raises if the coefficients are not Hermitian.
    """
    _require_hermitian(series)
    spectrum = np.zeros(size, dtype=complex)
    np.add.at(spectrum, series.modes % size, series.coeffs)
    return np.fft.ifft(spectrum).real * size


def _real_scalar(scalar) -> float:
    if isinstance(scalar, complex):
        if scalar.imag != 0.0:
            raise TypeError("only real scalars keep the function real-valued")
        return scalar.real
    return float(scalar)


def _require_hermitian(series: FourierSeries) -> None:
    defect = series.hermitian_defect
    if defect > 1e-12 * max(1.0, float(np.sum(np.abs(series.coeffs)))):
        raise ValueError(f"Hermitian defect {defect:.3e} exceeds tolerance; "
                         "the series is not real-valued")


def _check_imag(residue: float, coeff_mass: float) -> None:
    if residue > 1e-12 * max(1.0, coeff_mass):
        raise ValueError(
            f"imaginary residue {residue:.3e} exceeds tolerance; "
            "Hermitian symmetry is broken")


def _real_rows(values: np.ndarray) -> np.ndarray:
    """Q^H applied along axis 0, for the unitary Q of ``from_real_basis``."""
    n = (values.shape[0] - 1) // 2
    pos, neg = values[n + 1:], values[:n][::-1]
    return np.concatenate((values[n:n + 1], (pos + neg) / np.sqrt(2),
                           1j * (pos - neg) / np.sqrt(2)))


def to_real_basis(coeffs: np.ndarray) -> np.ndarray:
    """Orthonormal real coordinates (a_0, a_1..a_N, b_1..b_N) of Hermitian coefficients.

    The function is a_0 + sqrt(2) sum_n (a_n cos 2 pi n x + b_n sin 2 pi n x),
    so the map is an isometry from coefficients to coordinates.  Raises if
    the coefficients are not Hermitian to rounding.
    """
    real = _real_rows(np.asarray(coeffs))
    _check_imag(float(np.max(np.abs(real.imag))), float(np.sum(np.abs(coeffs))))
    return real.real


def from_real_basis(coords: np.ndarray) -> FourierSeries:
    """Inverse of ``to_real_basis``: the series c = Q u, exactly Hermitian."""
    u = np.asarray(coords, dtype=float)
    n = (u.size - 1) // 2
    upper = (u[1:n + 1] - 1j * u[n + 1:]) / np.sqrt(2)
    return FourierSeries(np.concatenate((np.conj(upper[::-1]), u[:1], upper)))


def to_real_basis_matrix(matrix: np.ndarray) -> np.ndarray:
    """Q^H A Q for a matrix A on coefficients -N..N that maps real functions to real ones.

    Such an A commutes with conjugation, A[-j, -k] = conj A[j, k], so the
    columns of A Q are Hermitian and Q^H A Q is real: formed from the rows
    j >= 0 of A Q, it is Re (row 0), sqrt(2) Re (rows a_j) and -sqrt(2) Im
    (rows b_j).  Raises if A fails to commute with conjugation, that is if
    the largest component of A - conj A[::-1, ::-1] (rows j < 0 included,
    which the formula never reads) exceeds rounding relative to max |A|.
    """
    a = np.asarray(matrix)
    n = (a.shape[0] - 1) // 2
    upper, mirror = a[n:], a[n::-1, ::-1]
    residue = max(float(np.max(np.abs(upper.real - mirror.real))),
                  float(np.max(np.abs(upper.imag + mirror.imag))))
    _check_imag(residue, float(np.max(np.abs(a))))
    pos, neg = upper[:, n + 1:], upper[:, n - 1::-1]
    columns = np.empty(upper.shape, dtype=complex)  # rows j >= 0 of A Q
    columns[:, 0] = upper[:, n]
    np.add(pos, neg, out=columns[:, 1:n + 1])
    columns[:, 1:n + 1] /= np.sqrt(2)
    np.subtract(pos, neg, out=columns[:, n + 1:])
    columns[:, n + 1:] *= -1j / np.sqrt(2)
    real = np.empty(a.shape)
    real[0] = columns[0].real
    np.multiply(columns[1:].real, np.sqrt(2), out=real[1:n + 1])
    np.multiply(columns[1:].imag, -np.sqrt(2), out=real[n + 1:])
    return real


def zeros(order: int = 0) -> FourierSeries:
    return FourierSeries(np.zeros(2 * order + 1, dtype=complex))


def constant(value: float) -> FourierSeries:
    return FourierSeries(np.array([complex(value)]))


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


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real samples at the uniform nodes x_j = j/M, with M a power of two."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        s = np.array(self.samples, dtype=float)
        if s.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if s.size < 2 or s.size & (s.size - 1):
            raise ValueError(f"grid size must be a power of two >= 2, got {s.size}")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)

    @property
    def size(self) -> int:
        return self.samples.size

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.size) / self.size


def dft(grid: GridFunction, order: int) -> FourierSeries:
    """Discrete Fourier coefficients of the samples, Hermitian-symmetrized.

    Exact for trigonometric polynomials of degree <= order sampled on
    M >= 2*order + 1 points; smaller grids alias and are rejected.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if grid.size < 2 * order + 1:
        raise ValueError(
            f"grid size {grid.size} < 2*{order}+1 aliases mode +-{order}")
    spectrum = np.fft.fft(grid.samples) / grid.size
    n = np.arange(-order, order + 1)
    c = spectrum[n % grid.size]
    return FourierSeries(0.5 * (c + np.conj(c[::-1])))


def idft(series: FourierSeries, size: int) -> GridFunction:
    """Samples on the M-point grid; M must be a power of two >= 2N+1."""
    if size < 2 * series.order + 1:
        raise ValueError(
            f"grid size {size} < 2*{series.order}+1 cannot carry all modes")
    return GridFunction(grid_values(series, size))


def differentiate(series: FourierSeries, order: int = 1) -> FourierSeries:
    """Derivative of the given order: mode n is scaled by (2 pi i n)^order."""
    if not 1 <= order <= 4:
        raise ValueError("derivative order must be in 1..4")
    factors = (2j * np.pi * series.modes) ** order
    return FourierSeries(series.coeffs * factors)


def antiderivative(series: FourierSeries) -> FourierSeries:
    """Zero-mean primitive: mode n divided by 2 pi i n, mode 0 set to 0.

    Requires a zero-mean input (|mode 0| <= 1e-10); otherwise the primitive
    would not be periodic.  Integration constants are the caller's business.
    """
    mid = series.order
    if abs(series.coeffs[mid]) > 1e-10:
        raise ValueError(
            f"mean {series.coeffs[mid]:.3e} != 0: antiderivative is not periodic")
    c = np.array(series.coeffs)
    n = series.modes.astype(float)
    n[mid] = 1.0  # avoid 0/0; mode 0 is overwritten below
    c = c / (2j * np.pi * n)
    c[mid] = 0.0
    return FourierSeries(c)


def multiply(f: FourierSeries, g: FourierSeries, order: int | None = None) -> FourierSeries:
    """Pointwise product, computed pseudospectrally without aliasing.

    The product is formed on a grid of size >= 2(N_f + N_g) + 1 (2x zero
    padding) and truncated to ``order`` (defaults to N_f + N_g, which is
    exact).
    """
    full = f.order + g.order
    if order is None:
        order = full
    size = next_pow2(2 * full + 2)
    values = idft(f, size).samples * idft(g, size).samples
    return dft(GridFunction(values), min(order, (size - 1) // 2)).with_order(order)


def sobolev_norm(series: FourierSeries, weights: SobolevWeights) -> float:
    """sqrt(sum_n W(n) |c_n|^2) with the quadratic-form weights W(n)."""
    w = weights.mode_weights(series.order)
    return float(np.sqrt(np.sum(w * np.abs(series.coeffs) ** 2)))


def l2_norm(series: FourierSeries) -> float:
    """Plain L2 norm (Parseval)."""
    return sobolev_norm(series, SobolevWeights())


def sup_norm(series: FourierSeries, grid: int = 4096) -> float:
    size = next_pow2(max(grid, 2 * series.order + 2))
    return float(np.max(np.abs(idft(series, size).samples)))


def l1_norm(series: FourierSeries, grid: int = 4096) -> float:
    size = next_pow2(max(grid, 2 * series.order + 2))
    return float(np.mean(np.abs(idft(series, size).samples)))
