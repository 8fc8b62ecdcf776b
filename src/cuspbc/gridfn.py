"""Tabulated radial functions: the exchange currency between the solver,
the cusp checkers, and the CLI."""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, Overflow


def check_natural(value, name: str) -> None:
    """DomainError, naming the parameter, unless value is a non-negative
    integer; a bool is not one, although Python counts it as Integral."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 0):
        raise DomainError(f"{name} must be a non-negative integer, got "
                          f"{value!r}")


def check_finite(**values) -> None:
    """DomainError, naming the first, unless every value is a finite real
    number; a bool is not one, although Python counts it as Real."""
    for name, value in values.items():
        # float first: it matches at once, where the ABC's check is slow
        if not (isinstance(value, (float, numbers.Real))
                and not isinstance(value, bool) and math.isfinite(value)):
            raise DomainError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class RadialFunction:
    """Radial function sampled on a grid.

    meaning = "R" is the full radial function, meaning = "u" the reduced
    one with the r^ell root divided out (R = r^ell * u).
    """

    grid: np.ndarray
    values: np.ndarray
    ell: int = 0
    meaning: str = "R"

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise DomainError("grid and values must be 1-d arrays of equal length")
        if not np.all(np.isfinite(grid)):
            raise DomainError("grid must be finite")
        if not np.all(np.diff(grid) > 0):
            raise DomainError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise DomainError("values must be finite")
        if self.meaning not in ("R", "u"):
            raise DomainError("meaning must be 'R' or 'u'")
        check_natural(self.ell, "ell")

    def _times_r_ell(self, sign: int, part: slice = slice(None)) -> np.ndarray:
        """values r^(sign ell) on the nodes part; where r^ell alone leaves
        the double range (r > 0), with r = m 2^e as m^ell and 2^(e ell).
        Overflow where the result leaves it."""
        op = np.multiply if sign > 0 else np.divide
        grid, values = self.grid[part], self.values[part]
        with np.errstate(all="ignore"):
            power = grid ** self.ell
            out = op(values, power)
            odd = (power == np.inf) | (power == 0.0) & (grid > 0.0)
            if odd.any():
                m, e = np.frexp(grid[odd])
                out[odd] = np.ldexp(op(values[odd], m ** self.ell),
                                    sign * self.ell * e)
        if not np.all(np.isfinite(out)):
            raise Overflow("r^ell u or R/r^ell lies outside the double range")
        return out

    def _full(self, part: slice) -> np.ndarray:
        """R = r^ell u on the nodes part alone, as as_full() gives it there
        (Overflow where it leaves the double range), for a fit that reads
        only those nodes."""
        if self.meaning == "R":
            return self.values[part]
        return self._times_r_ell(1, part)

    def as_full(self) -> "RadialFunction":
        """Return the R = r^ell * u view of this function."""
        if self.meaning == "R":
            return self
        return RadialFunction(self.grid, self._times_r_ell(1), self.ell, "R")

    def as_reduced(self) -> "RadialFunction":
        """Return the u = R / r^ell view (grid must exclude r = 0 for ell > 0)."""
        if self.meaning == "u":
            return self
        if self.ell > 0 and self.grid[0] <= 0.0:
            raise DomainError("cannot divide out r^ell at r = 0")
        return RadialFunction(self.grid, self._times_r_ell(-1), self.ell, "u")

    def to_csv(self) -> str:
        """One "r,value,ell,meaning" row per node, floats as their repr."""
        return b"".join(next(csv_texts([self]))).decode()


# CSV floats are their repr: the shortest decimal that reads back as the
# float and, of several, the closest to it.  Schubfach (R. Giulietti, "The
# Schubfach way to render doubles", 2020) finds it with integer arithmetic
# alone, so here it runs on numpy arrays, _BLOCK floats at a time.  A
# float's text is the bytes other than NUL of its _CELL record.
_BLOCK = 4096
_CELL = np.dtype([("left", "V17"), ("point", "u1"), ("right", "V21")])
_M32 = np.uint64(0xFFFFFFFF)


@functools.cache
def _pow10():
    """For each k in [-324, 292], at 292 - k: g = floor(10^-k 2^(127 - l))
    + 1 in [2^127, 2^128) as its high and low uint64 halves (one row each),
    and l = floor(log2 10^-k)."""
    hi, lo, log2 = [], [], []
    for e in range(-292, 325):
        p = 10 ** abs(e)
        l = p.bit_length() - 1 if e >= 0 else -p.bit_length()
        g = (p << 127 >> l if e >= 0 else (1 << 127 - l) // p) + 1
        hi.append(g >> 64), lo.append(g & 2 ** 64 - 1), log2.append(l)
    return np.array([hi, lo], np.uint64), np.array(log2)


@functools.cache
def _glyphs():
    """The four ASCII digits of each n < 10^4 as one uint32; the exponent
    suffix "e+XX" of each x in [-324, 308] at x + 324, and an empty one
    last; and the powers of ten below 10^17."""
    n = np.arange(10 ** 4)
    quads = (n[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    suffix = b"".join(f"e{x:+03d}".encode().ljust(5, b"\0")
                      for x in range(-324, 309)) + b"\0" * 5
    return (quads.view(np.uint32).ravel(), np.frombuffer(suffix, "V5"),
            10 ** np.arange(17, dtype=np.uint64))


def _mul(a, b1, b0):
    """The high and low uint64 halves of the 128-bit products a b, where
    b = b1 2^32 + b0 for 32-bit b1 and b0."""
    a1, a0 = a >> 32, a & _M32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return (a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32),
            mid << 32 | p00 & _M32)


def _times(g, cp):
    """The 192-bit products g cp, of the 128-bit g = (high, low) uint64
    halves and the uint64 cp, as three uint64 words, high first."""
    c1, c0 = cp >> 32, cp & _M32
    y1, y0 = _mul(g[0], c1, c0)
    x1, x0 = _mul(g[1], c1, c0)
    mid = y0 + x1
    return y1 + (mid < x1), mid, x0


def _plus(x, g, m):
    """x + g 2^m for the 192-bit x (as from _times) and 0 < m < 64."""
    s0 = x[2] + (g[1] << m)
    s1 = x[1] + (g[0] << m | g[1] >> 64 - m)
    t = s1 + (s0 < x[2])
    return x[0] + (g[0] >> 64 - m) + ((s1 < x[1]) | (t < s1)), t, s0


def _shortest(bits):
    """Schubfach's f and e with f 10^e the repr digits of each nonzero
    finite float of the uint64 bit patterns bits (f, e = 0, 0 for zero)."""
    t = bits & np.uint64(2 ** 52 - 1)
    biased = (bits >> 52 & 0x7FF).astype(np.int64)
    c = np.where(biased > 0, t | 2 ** 52, t)
    q = np.maximum(biased, 1) - 1075  # |float| = c 2^q
    # at a power of two the lower end of the rounding interval is closer
    closer = (t == 0) & (biased > 1)
    k = (q * 1262611 - closer * 524031) >> 22  # floor(log10 of its width)
    (hi, lo), log2 = _pow10()
    i = 292 - k
    g, h = (hi[i], lo[i]), (q + log2[i] + 1).astype(np.uint64)
    # g (4 c + d) 2^h / 2^128 is 4 |float| 10^-k for d = 0 and the ends of
    # its rounding interval for d = -2 (-1 if closer) and 2; each rounded
    # to odd from its two high words, an end counting only when c is even
    low = _times(g, ((c << 2) - 2 + closer) << h)
    mid = _plus(low, g, h + 1 - closer)
    high = _plus(mid, g, h + 1)
    odd = c & 1
    lower = (low[0] | (low[1] > 1)) + odd
    vb = mid[0] | (mid[1] > 1)
    upper = (high[0] | (high[1] > 1)) - odd
    # one digit fewer if one of its two neighbours is in the interval, else
    # s or s + 1 if one is, else the closer of them, the even one if a tie
    s, four = vb >> 2, vb & ~np.uint64(3)
    sp = s // 10
    up, wp = lower <= 40 * sp, 40 * sp + 40 <= upper
    u, w = lower <= four, four + 4 <= upper
    nearer = (vb > four + 2) | (vb == four + 2) & (s & 1 == 1)
    shorter = up != wp
    zero = c == 0
    f = np.where(shorter, sp + wp, s + np.where(u != w, w, nearer))
    return np.where(zero, 0, f), np.where(zero, 0, k + shorter)


def _cells(a):
    """The _CELL record of each float of the 1-d float64 array a."""
    bits = a.view(np.uint64)
    f, e = _shortest(bits)
    quads, suffix, pow10 = _glyphs()
    n = len(a)
    # 64 bytes a float: 24 NUL, the 24 digits of f, "0000", 12 NUL; then
    # 64 NUL, for windows that read past the last float
    src = np.zeros((n + 1, 16), np.uint32)
    src[:n, 6] = src[:n, 12] = quads[0]
    rest, groups = f, np.empty((5, n), np.uint64)
    for j in range(4, -1, -1):
        groups[j] = rest - rest // 10 ** 4 * 10 ** 4
        rest = rest // 10 ** 4
    src[:n, 7:12] = quads[groups].T
    flat = src.view(np.uint8).ravel()
    # first and last nonzero digit (both the units digit for zero) and the
    # units digit's column
    first = np.minimum(24 - np.searchsorted(pow10, f, "right"), 23)
    last = 23 - (flat.reshape(-1, 64)[:n, 47:23:-1] != 48).argmax(1)
    units = 23 + e
    x = units - first  # the decimal exponent of the first digit
    fixed = (x >= -4) & (x <= 15)
    # positional: from the units digit or the first, whichever comes first,
    # to the tenths digit or the last, with the point after the units
    # digit; else the digits, with the point after the first if there are
    # others, and the exponent suffix
    at = 64 * np.arange(n) + 24
    start = at + np.where(fixed, np.minimum(first, units), first)
    point = at + np.where(fixed, units, first) + 1
    end = at + np.where(fixed, np.maximum(last, units + 1), last) + 1

    def window(width):  # the width bytes from each offset of flat
        return np.ndarray(len(flat) + 1 - width, f"V{width}", flat,
                          strides=(1,))

    # NUL outside [start, end), then the sign and the suffix
    window(24)[start - 24] = window(24)[end] = b"\0" * 24
    flat[start - 1] = (bits >> 63) * 45  # "-"
    window(5)[end] = suffix[np.where(fixed, -1, x + 324)]
    out = np.empty(n, _CELL)
    out["left"], out["right"] = window(17)[point - 17], window(21)[point]
    out["point"] = (fixed | (last > first)) * 46
    return out


def _column(a):
    """_cells of the whole 1-d float64 array a, _BLOCK floats at a time."""
    cells = np.empty(len(a), _CELL)
    for i in range(0, len(a), _BLOCK):
        cells[i:i + _BLOCK] = _cells(a[i:i + _BLOCK])
    return cells


def _rows(columns, lead, sep, end, names=("nan", "inf", "-inf")):
    """Yield the rows of the equal-length columns as ASCII byte blocks:
    each row is lead, its cells joined by sep, then end.  A column is
    float64, its cells as repr writes them but for names of nan, inf and
    -inf; or it is the _column cells of one (not all of them).  A block
    holds at most _BLOCK floats, formatted in one _cells call when it is
    asked for, and is written with one mask and one tobytes()."""
    n = len(columns[0])
    floats = [j for j, col in enumerate(columns) if col.dtype != _CELL]
    step = _BLOCK // len(floats)  # rows a block
    glue, fields = [lead] + [sep] * (len(columns) - 1) + [end], []
    for j, text in enumerate(glue):  # text g0, cell c0, text g1, ...
        fields += [(f"g{j}", f"V{len(text)}")] if text else []
        fields += [(f"c{j}", _CELL)] if j < len(columns) else []
    rows = np.empty(min(n, step), fields)
    for j, text in enumerate(glue):
        if text:
            rows[f"g{j}"] = text.encode()
    special = np.zeros(3, _CELL)
    special["left"] = [name.encode() for name in names]
    for i in range(0, n, step):
        block = rows[:n - i]
        part = np.stack([columns[j][i:i + step] for j in floats], 1).ravel()
        finite = np.isfinite(part)
        if finite.all():
            cells = _cells(part)
        else:  # nan 0, inf 1, -inf 2
            bad = part[~finite]
            cells = _cells(np.where(finite, part, 0.0))
            cells[~finite] = special[np.where(np.isnan(bad), 0, 1 + (bad < 0))]
        cells = iter(cells.reshape(len(block), -1).T)
        for j, col in enumerate(columns):
            block[f"c{j}"] = col[i:i + step] if j not in floats else next(cells)
        chars = block.view(np.uint8)
        yield chars[chars != 0].tobytes()


def csv_texts(functions):
    """Yield, for each function in turn, its to_csv() text as an iterator
    of ASCII byte blocks: the header, then the _rows blocks, each
    formatted when it is asked for.  Values that are not real raise
    TypeError when the function's iterator is yielded, before any of its
    blocks.  A grid that is the previous function's grid array is not
    formatted again, so the states of one solve, which share their grid,
    pay for it once."""
    grid = None
    for fn in functions:
        if fn.grid is not grid:
            grid, cells = fn.grid, _column(fn.grid)
        values = fn.values.astype(float, casting="same_kind", copy=False)
        yield itertools.chain([b"r,value,ell,meaning\n"], _rows(
            [cells, values], "", ",", f",{fn.ell},{fn.meaning}\n"))
