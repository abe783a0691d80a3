"""Text of float arrays, byte for byte ``'%.17g' % v``, as array operations.

CPython formats each float with a bignum dtoa, at about half a microsecond a
value; a flow's field has thousands.  Here the 17 significant digits of
every value come from one Dekker double-double product x * 10^k against a
table of powers of ten, correct to about 2^-100 relative.  That decides the
rounding of every value whose scaled significand is not within ``_MARGIN``
of a half.  Those near-ties, zeros, non-finite values and magnitudes beyond
the table are formatted by Python itself, one at a time, inside the same
call.  The array work has a fixed cost of some 80 numpy calls, so an array
of fewer than ``_BREAK_EVEN`` values is formatted by Python row by row.
"""

from __future__ import annotations

import functools

import numpy as np

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_MARGIN = 1e-9  # distance from a half below which Python rounds the value
# |x| in [_LO, _HI) has 10^(16 - E) in the table for E = floor(log10|x|) +- 1,
# and every partial product of the split stays a normal float
_LO, _HI = 1e-289, 1e299
_KMIN, _KMAX = -283, 306
_EMIN, _EMAX = 16 - _KMAX, 16 - _KMIN
_BREAK_EVEN = 300  # values: the array path's fixed cost is Python's for ~300 values
_SLOTS = 30  # sign, "0.000", 17 digits and a point, "e+123", separator
_AREA = slice(6, 24)
_J = np.arange(18, dtype=np.uint8)[:, None]
_NZ = np.arange(1, 18, dtype=np.uint8)[:, None]


@functools.cache
def _powers() -> np.ndarray:
    """Rows (hi, hi's upper half, its lower half, lo) with hi + lo = 10^k
    to twice double precision, for k = _KMIN.._KMAX.  Python's int
    division is correctly rounded, so hi is the nearest double to 10^k and
    lo the nearest to the remainder."""
    hi, lo = [], []
    for k in range(_KMIN, _KMAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    m, e = np.frexp(hi)  # split the mantissa, so hi * _SPLIT cannot overflow
    t = m * _SPLIT
    upper = np.ldexp(t - (t - m), e)
    table = np.stack([hi, upper, hi - upper, np.array(lo)])
    table.flags.writeable = False  # one cached copy for every call
    return table


@functools.cache
def _layouts() -> np.ndarray:
    """Per decimal exponent E = _EMIN.._EMAX, the bytes that depend on E
    alone: the "0.000" prefix slots, the exponent slots, the point's slot
    in the digit area, and the integer digits that are always shown."""
    rows = []
    for E in range(_EMIN, _EMAX + 1):
        sci = E < -4 or E >= 17
        prefix = "0." + "0" * (-E - 1) if -4 <= E < 0 else ""
        exponent = "e%+03d" % E if sci else ""
        point = 1 if sci else 17 if E < 0 else E + 1
        whole = 1 if sci else max(E + 1, 0)
        rows.append(prefix.ljust(5, "\0").encode() + exponent.ljust(5, "\0").encode()
                    + bytes([point, whole]))
    table = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, 12).T.copy()
    table.flags.writeable = False  # one cached copy for every call
    return table


def _scaled(ax: np.ndarray, k: np.ndarray):
    """(p, lo): p = fl(ax 10^k) and lo, with p + lo = ax 10^k to ~2^-100."""
    hi, upper, lower, tail = np.take(_powers(), k - _KMIN, axis=1)
    t = ax * _SPLIT
    xh = t - (t - ax)
    xl = ax - xh
    p = ax * hi
    err = ((xh * upper - p) + xh * lower + xl * upper) + xl * lower  # exact
    return p, err + ax * tail


def _significands(x: np.ndarray):
    """(D, E, ok): D = round(|x| 10^(16 - E)) in [1e16, 1e17) with E the
    decimal exponent, exact where ``ok``; the rest Python formats."""
    ax = np.abs(x)
    ok = (ax >= _LO) & (ax < _HI)  # False for 0, inf and nan
    ax[~ok] = 1.0
    E = np.floor(np.log10(ax)).astype(np.int64)
    p, lo = _scaled(ax, 16 - E)
    off = ((p - 1e17) + lo >= 0).astype(np.int64) - ((p - 1e16) + lo < 0)
    fix = np.flatnonzero(off)  # log10 is off by one near powers of ten
    if fix.size:
        E[fix] += off[fix]
        p[fix], lo[fix] = _scaled(ax[fix], 16 - E[fix])
    whole = np.floor(lo)  # p >= 2^53 is an integer, so lo holds the fraction
    frac = lo - whole
    ok &= np.abs(frac - 0.5) >= _MARGIN
    D = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    return D, E + carry, ok


def _slots(D: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The digit, point, prefix and exponent slots of each value, slot-major:
    a (_SLOTS, n) array in which a 0 byte is an unused slot."""
    n = D.size
    buf = np.zeros((_SLOTS, n), dtype=np.uint8)
    area = buf[_AREA]
    digits = area[1:]  # digit i in slot i + 1, as right of the point
    # D's 5 + 6 + 6 digits from three int32 parts, ten at a time
    high, low = divmod(D, 10 ** 6)
    rest = np.stack([high // 10 ** 6, high % 10 ** 6, low]).astype(np.int32)
    six = np.empty((3, 6, n), dtype=np.uint8)
    for i in range(5, -1, -1):
        quot = rest // 10
        six[:, i] = rest - 10 * quot
        rest = quot
    digits[:5] = six[0, 1:]
    digits[5:] = six[1:].reshape(12, n)
    kept = ((digits != 0) * _NZ).max(axis=0)  # digits up to the last nonzero one
    digits += ord("0")
    lay = np.take(_layouts(), E - _EMIN, axis=1)
    buf[1:6] = lay[:5]
    buf[24:29] = lay[5:10]
    point = lay[10]
    shown = np.maximum(kept, lay[11])
    area[:17] += (_J[:17] < point) * (area[1:] - area[:17])  # left of the point
    area += (_J == point) * (ord(".") - area)
    area *= _J < shown + (shown > point)  # shown digits; the point if one follows it
    return buf


def g17_rows(a) -> str:
    """The text of the 2-D float array ``a``: one line per row, its values
    joined by ``,``, each exactly ``'%.17g' % v``.  A value takes 17
    significant digits less its trailing zeros; its decimal exponent picks
    the "0.000ddd", "ddd.ddd" or "d.ddde+XX" layout, as in printf."""
    a = np.asarray(a, dtype=np.float64)
    if a.size < _BREAK_EVEN:
        line = ",".join(["%.17g"] * a.shape[1]) + "\n"
        return "".join(line % tuple(row) for row in a.tolist())
    x = a.ravel()
    D, E, ok = _significands(x)
    buf = _slots(D, E)
    buf[0] = ord("-") * (x < 0)
    sep = buf[-1].reshape(-1, a.shape[1])
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")
    bad = np.flatnonzero(~ok)
    if bad.size:  # a \1 byte stands for each value Python formats
        buf[:-1, bad] = 0
        buf[0, bad] = 1
    text = buf[buf.any(axis=1)].T.tobytes().translate(None, b"\0").decode("ascii")
    if not bad.size:
        return text
    parts = text.split("\1")
    out = [parts[0]]
    for v, part in zip(x[bad].tolist(), parts[1:]):
        out += ("%.17g" % v, part)
    return "".join(out)
