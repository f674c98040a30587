"""Float64 arrays written exactly as Python's ``'%.17g' % x`` writes each value.

``format_17g`` is the one writer behind the CLI's CSV rows and JSON
coefficient arrays.  For 1e-306 <= |x| < 1e17 it finds the decimal
exponent e and the 17 digits n, 10^16 <= n < 10^17, of x * 10^(16-e) in
double arithmetic.  That product is x' * P, where x' = x * 2^k is an exact
rescaling into [1, 23) and P = 10^(16-e) * 2^-k in [2^52, 2^53) is held as
a double-double H + L; Dekker's two-product gives x' * H exactly as
hi + lo, and x' * L joins lo.  For e >= -6, 10^(16-e) is an exact double,
L = 0 and hi + lo is exact, so rounding it half-even gives the digits of
Python's correctly rounded conversion.  Below, hi + lo is within 4e-15 of
the product, and a value whose sum lies within 2^-40 of a rounding or
exponent boundary is left to Python.  Zero is written ``0`` or ``-0``;
subnormal and other values below 1e-306, values from 1e17 up, non-finite
values and the boundary cases are formatted by Python's ``%``, value by
value.  The kernel is a module of its own so that compiling the CLI, which
every run does when no bytecode is cached, takes no more memory than
before the kernel existed.
"""

from __future__ import annotations

import numpy as np

_E_MIN = -307  # the lowest decimal exponent of a value from 1e-306 up
_SPLIT = 134217729.0  # 2^27 + 1
# Where hi + lo is not exact, the distance to a boundary below which the
# value is left to Python: 2^-40, over 200 times the error bound of 4e-15.
_MARGIN = 2.0**-40
# Below this many values a call is cheaper in Python: with cold caches the
# kernel's fixed cost is 0.15-0.3 ms, Python's '%.17g' 0.5-1.3 us a value.
_FEW = 128
# Two ASCII digits per entry, read as one uint16 for each pair 00..99.
_DIGIT_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
# 10^(_E_MIN + 1)..10^17, rounded below 10^0.
_TENS = np.array([float(f"1e{k}") for k in range(_E_MIN + 1, 18)])
# A value's slot: sign, "0.000", digit i at column 6 + 2i with a possible
# point after it, "e-dd" or "e-ddd", then up to three separator bytes.
_SLOT = 44
_WIDTH = _SLOT + 3


def _powers() -> np.ndarray:
    """Per s = 0..16 - _E_MIN, the row (2^k, H, H's Veltkamp halves, L, margin).

    H + L is P = 10^s * 2^-k in [2^52, 2^53), H rounded to nearest and L
    the rounded rest (0 where P is an integer below 2^53, that is s <= 22).
    """
    rows = []
    for s in range(17 - _E_MIN):
        power = 10**s
        k = power.bit_length() - 53
        if k <= 0:
            high, low = float(power << -k), 0.0
        else:
            high = power / (1 << k)
            low = (power - int(high) * (1 << k)) / (1 << k)
        c = _SPLIT * high
        rows.append((2.0**k, high, c - (c - high), high - (c - (c - high)), low,
                     _MARGIN if low else 0.0))
    return np.array(rows)


def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """%.17g slot templates and layout classes per e = _E_MIN..16, and kept columns.

    Classes 0..20 are fixed notation, e = -4..16; 21 and 22 are d.ddde-XX
    with two and three exponent digits.  The kept columns are per (class,
    digits), ``digits`` = 1..17 being the count up to the last non-zero
    digit, so that trailing zeros are dropped.  Built from bytes, so that
    importing runs no numpy loop.
    """
    templates, classes, kept = [], [], []
    for e in range(_E_MIN, 17):
        exponent = f"e{e:+03d}".encode().ljust(_SLOT - 39, b"\0")
        templates.append(b"-0.000" + b"0." * 16 + b"0" + exponent + bytes(_WIDTH - _SLOT))
        classes.append(e + 4 if e >= -4 else 21 if e > -100 else 22)
    for cls in range(23):
        e = cls - 4
        small = -4 <= e < 0 and cls < 21  # written 0.000ddd
        before = e + 1 if 0 <= e and cls < 21 else 1  # digits before the point
        for digits in range(18):
            row = bytearray(_WIDTH)
            if small:
                row[1:2 - e] = b"\1" * (1 - e)
            shown = max(digits, before)
            row[6:6 + 2 * shown:2] = b"\1" * shown
            if not small and digits > before:
                row[5 + 2 * before] = 1
            if cls >= 21:
                row[39:39 + cls - 17] = b"\1" * (cls - 17)
            kept.append(bytes(row))
    return (np.frombuffer(b"".join(templates), np.uint8).reshape(-1, _WIDTH),
            np.array(classes), np.frombuffer(b"".join(kept), bool).reshape(-1, _WIDTH))


_POWERS = _powers()
_TEMPLATES, _CLASSES, _KEPT = _layouts()


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hi, lo, margin): a * 10^s as hi + lo, exact where ``margin`` is 0."""
    shift, high, high_hi, high_lo, low, margin = np.take(_POWERS, s, axis=0).T
    x = a * shift
    hi = x * high
    c = _SPLIT * x
    x_hi = c - (c - x)
    x_lo = x - x_hi
    lo = ((x_hi * high_hi - hi) + x_hi * high_lo + x_lo * high_hi) + x_lo * high_lo + x * low
    return hi, lo, margin


def _python_17g(values: np.ndarray) -> np.ndarray:
    """Python's '%.17g' of each value, as NUL-padded rows of _SLOT bytes."""
    texts = ("%.17g\0" * values.size % tuple(values.tolist())).split("\0")[:-1]
    return np.array(texts, dtype=f"S{_SLOT}").view(np.uint8).reshape(values.size, _SLOT)


def _mantissas(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(e, hi, lo, exact): a = n * 10^(e-16) rounded half-even to 10^16 <= n < 10^17.

    ``exact`` marks the a in [1e-306, 1e17) whose n and e double arithmetic
    decides (see the module docstring); n = hi + lo there, two integer
    doubles.  Elsewhere hi = lo = 0.
    """
    exact = (a >= 1e-306) & (a < 1e17)
    a = np.where(exact, a, 1.0)  # e = 0, so zero is written 0
    # floor(log10 2^q) for the binary exponent q, then one step up where a
    # reaches the next power of ten.
    e = ((a.view(np.int64) >> 52) - 1023) * 78913 >> 18
    e = np.where(a >= _TENS[e - _E_MIN], e + 1, e)
    hi, lo, margin = _scaled(a, 16 - e)
    # The rounded powers below 1 can leave e one off; the sum decides
    # (hi - 10^k is exact wherever it is small enough for lo to matter).
    up = (hi - 1e17) + lo >= 0
    down = (hi - 1e16) + lo < 0
    redo = np.flatnonzero(up | down)
    if redo.size:
        e[redo] += np.where(up[redo], 1, -1)
        hi[redo], lo[redo], margin[redo] = _scaled(a[redo], 16 - e[redo])
    # Where hi + lo is not exact, keep only the values clear of every boundary.
    inexact = np.flatnonzero(margin)
    if inexact.size:
        h, l, m = hi[inexact], lo[inexact], margin[inexact]
        exact[inexact] &= (((h - 1e17) + l < -m) & ((h - 1e16) + l >= m)
                           & (np.abs(l - np.floor(l) - 0.5) >= m))
    hi = np.where(exact, hi, 0.0)
    lo = np.where(exact, np.rint(lo), 0.0)
    carry = np.flatnonzero((hi == 1e17) & (lo == 0))  # n = 10^17: one digit more
    hi[carry] = 1e16
    e[carry] += 1
    return e, hi, lo, exact


def _digits(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, pairs, count) of each n = hi + lo < 10^17 written with 17 digits.

    The first digit and ``pairs``, the other 16, are ASCII from the pair
    table; ``count`` is the number of digits up to the last non-zero one
    (1 for n = 0), so that trailing zeros can be dropped.  Every quotient
    below is a floor of a correctly rounded double quotient of integers; it
    is exact once the dividend is below 2^53, and one off at most before.
    """
    size = hi.size
    top = np.floor(hi / 1e8)
    low = (hi - top * 1e8) + lo  # exact: small integers
    step = np.floor(low / 1e8)  # -1, 0 or 1
    top += step
    low -= step * 1e8
    lead = np.floor(top / 1e8)
    chunks = np.stack((top - lead * 1e8, low), axis=1)  # digits 1-8 and 9-16
    pairs = np.empty((size, 2, 4), np.uint16)
    for j, unit in enumerate((1e6, 1e4, 1e2)):
        quotient = np.floor(chunks / unit)
        pairs[:, :, j] = _DIGIT_PAIRS[quotient.astype(np.intp)]
        chunks -= quotient * unit
    pairs[:, :, 3] = _DIGIT_PAIRS[chunks.astype(np.intp)]
    # The highest non-zero byte of each eight-digit word once '0' is
    # cleared, read off the word's float exponent.
    words = (pairs.view("<i8").reshape(size, 2) - 0x3030303030303030).astype(float)
    later = words[:, 1] != 0
    word = np.where(later, words[:, 1], words[:, 0])
    count = np.maximum(((word.view(np.int64) >> 52) - 1023 >> 3) + np.where(later, 10, 2), 1)
    first = _DIGIT_PAIRS[lead.astype(np.intp)].view(np.uint8)[1::2]  # "0d" -> "d"
    return first, pairs.reshape(size, 8), count


def _slots(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's slot of _WIDTH bytes and the mask of its kept bytes.

    The values that ``_mantissas`` settles, and zero (``0`` or ``-0``), are
    laid out from the tables; every other value gets its own ``'%.17g'``
    from Python.
    """
    e, hi, lo, exact = _mantissas(np.abs(flat))
    first, pairs, digits = _digits(hi, lo)
    chars = np.take(_TEMPLATES, e - _E_MIN, axis=0)
    keep = np.take(_KEPT, _CLASSES[e - _E_MIN] * 18 + digits, axis=0)
    chars[:, 6] = first
    chars[:, 8:39:2] = pairs.view(np.uint8)
    keep[:, 0] = np.signbit(flat)
    fallback = np.flatnonzero(~exact & (flat != 0))
    if fallback.size:
        texts = _python_17g(flat[fallback])
        chars[fallback, :_SLOT] = texts
        keep[fallback, :_SLOT] = texts > 0
    return chars, keep


def format_17g(rows: np.ndarray, seps: tuple[bytes, ...]) -> bytes:
    """Each row of ``rows`` as ``v0 seps[0] v1 seps[1] ...``, every v as ``'%.17g' % v``.

    Separators are at most three bytes.  A call with fewer than _FEW values
    hands them all to Python.
    """
    rows = np.asarray(rows, dtype=float)
    flat = rows.ravel()
    if flat.size < _FEW:
        chars = np.zeros((flat.size, _WIDTH), np.uint8)
        chars[:, :_SLOT] = _python_17g(flat)
        keep = chars > 0
    else:
        chars, keep = _slots(flat)
    by_column = chars.reshape(rows.shape + (_WIDTH,))
    kept = keep.reshape(rows.shape + (_WIDTH,))
    for j, sep in enumerate(seps):
        by_column[..., j, _SLOT:_SLOT + len(sep)] = np.frombuffer(sep, np.uint8)
        kept[..., j, _SLOT:_SLOT + len(sep)] = True
    return np.compress(keep.ravel(), chars).tobytes()
