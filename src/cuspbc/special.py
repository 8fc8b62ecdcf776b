"""Special functions: Pochhammer symbol, Kummer 1F1, Legendre polynomials,
complex spherical harmonics with Condon-Shortley phase.

All functions are pure; the only global state is the cache of sphere
quadrature nodes, whose arrays are read-only.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import DomainError, NoConvergence, Overflow, PoleError
from .gridfn import check_finite, check_natural

# series truncation: a hard term cap and the relative tolerance of a term
MAX_TERMS = 500
REL_TOL = 1e-14
_STRIDE = 16  # terms between two readings of the stop rule


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1: exactly
    0 where a factor is, else the product carried as a mantissa and a power
    of two, so that no partial product overflows; DomainError for a
    non-finite a, Overflow where (a)_k leaves the double range."""
    check_natural(k, "pochhammer order k")
    check_finite(a=a)
    if _is_nonpositive_integer(a) and k > -a:
        return 0.0
    out, exponent = 1.0, 0  # (a)_i = out 2^exponent
    for i in range(k):
        out, e = math.frexp(out * (a + i))
        exponent += e
    try:
        return math.ldexp(out, exponent)
    except OverflowError:
        raise Overflow(f"pochhammer({a!r}, {k}) leaves the double "
                       f"range") from None


def _is_nonpositive_integer(b: float) -> bool:
    return b <= 0.0 and b == math.floor(b)


def _check_parameters(a: float, b: float) -> None:
    """DomainError unless a and b are finite; PoleError at b = 0, -1, ..."""
    check_finite(a=a, b=b)
    if _is_nonpositive_integer(b):
        raise PoleError(f"1F1 pole: b = {b} is zero or a negative integer")


def kummer_series(a: float, b: float, x: float) -> float:
    """Raw series sum of 1F1(a; b; x), no transformation (see _sum)."""
    _check_parameters(a, b)
    check_finite(x=x)
    return float(_series(a, b, np.array([float(x)]))[0])


def _small(term, total, r):
    """Whether each term passes the stop rule: below REL_TOL * |partial
    sum|, and undercut by the next term (ratio r) or 0."""
    return (abs(term) <= REL_TOL * abs(total)) & ((abs(r) < 1.0)
                                                   | (term == 0.0))


def _sum(x: np.ndarray, ratio, what: str) -> np.ndarray:
    """Sum the series 1 + t_1 + t_2 + ... elementwise, t_k = t_{k-1} ratio(k, x).

    An element stops once its term stays below REL_TOL * |partial sum| for
    two consecutive terms (hysteresis against an accidentally small term),
    counting only terms that the next one undercuts (or that are 0, as all
    after them are): a leading term made tiny by a small a does not end a
    sum whose later terms grow.  The rule is read only on the last two
    terms of each stride of _STRIDE terms and at MAX_TERMS, so a sum may
    run up to _STRIDE - 1 terms past the first two that pass it; only
    there do stopped elements leave the working set.  Terms that overflow
    never pass the rule, so they end in NoConvergence.  One point runs the
    same schedule on Python floats, which numpy's per-call overhead on a
    one-element array would make some 15x slower.
    """
    one = x.size == 1
    # numpy-scalar a or b makes the one-point terms numpy arithmetic too
    with np.errstate(over="ignore", invalid="ignore"):
        if one:
            x, term, total = float(x[0]), 1.0, 1.0
        else:
            out, idx = np.empty_like(x), np.arange(x.size)
            term, total = np.ones_like(x), np.ones_like(x)
        r, k = ratio(1, x), 0
        for end in range(_STRIDE, MAX_TERMS + _STRIDE, _STRIDE):
            end = min(end, MAX_TERMS)
            for k in range(k + 1, end + 1):
                if k == end:  # term end - 1 is the first of the two read
                    small = _small(term, total, r)
                term *= r
                total += term
                r = ratio(k + 1, x)
            done = small & _small(term, total, r)
            if one:
                if done:
                    return np.array([total])
                continue
            if done.any():
                out[idx[done]] = total[done]
                keep = ~done
                idx, x, term, total, r = (idx[keep], x[keep], term[keep],
                                          total[keep], r[keep])
            if idx.size == 0:
                return out
    raise NoConvergence(
        f"{what} did not converge within {MAX_TERMS} terms "
        f"(x = {float(x if one else x[0])!r})")


def _series(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The 1F1(a; b; x) power series over a flat array x.  Each ratio of
    terms divides last: (a + k - 1)/(b + k - 1) alone overflows where b is
    next to the pole at 0 (|b| < |a|/1.8e308), even at x = 0."""
    return _sum(x, lambda k, xs: (a + (k - 1)) * xs / ((b + (k - 1)) * k),
                f"1F1({a}, {b}, x)")


_LARGE_X_TERMS = 40
_LARGE_X_RATIO = 0.4
_LOG_RECESSIVE = math.log(1e-18)


def kummer_crossover(a: float, b: float) -> float:
    """Argument from which 1F1(a; b; x), x > 0, comes from the large-x
    expansion (DLMF 13.7.2) instead of the power series.

    Two bounds, both for double precision: the geometric mean of the
    expansion's first 40 term ratios |(1-a+s)(b-a+s)| / ((s+1) x) is at
    most 0.4, so its 40th term is below 1e-16; and the recessive part that
    the expansion drops, about |Gamma(a) / Gamma(b-a)| x^{b-2a} e^{-x}
    relative to it (DLMF 13.7.2), is below 1e-18.  Infinite when a is 0
    or a negative integer: the series is then an exact polynomial.
    """
    if _is_nonpositive_integer(a):
        return math.inf
    n = _LARGE_X_TERMS
    if _is_nonpositive_integer(1.0 - a) or _is_nonpositive_integer(b - a):
        x = 1.0  # the expansion terminates: its terms reach an exact zero
    else:  # products over s < n via Gamma(c + n) / Gamma(c)
        log_ratios = (math.lgamma(n + 1.0 - a) - math.lgamma(1.0 - a)
                      + math.lgamma(n + b - a) - math.lgamma(b - a)
                      - math.lgamma(n + 1.0))
        x = max(1.0, math.exp(log_ratios / n) / _LARGE_X_RATIO)
    if not _is_nonpositive_integer(b - a):  # else there is no recessive part
        c = math.lgamma(a) - math.lgamma(b - a) - _LOG_RECESSIVE
        # the bound holds for all x >= root of x = c + (b - 2a) ln x above
        # b - 2a (where the right side grows slower than x); approached
        # from below
        x = max(x, b - 2.0 * a)
        for _ in range(8):
            x = max(x, c + (b - 2.0 * a) * math.log(x))
    return x


def _gamma_sign(v: float) -> float:
    """Sign of Gamma(v) for v not 0, -1, -2, ...: negative exactly on
    (-1, 0), (-3, -2), ..."""
    return -1.0 if v < 0.0 and math.floor(v) % 2 == 1 else 1.0


def _large_x(a: float, b: float, xs: np.ndarray):
    """Large-x expansion of 1F1(a; b; x) in log form (DLMF 13.7.2, x > 0):

        1F1(a; b; x) = sign * exp(x + rest),
        rest = ln|Gamma(b)| - ln|Gamma(a)| + (a - b) ln x + ln|S|,
        S = sum_s (1 - a)_s (b - a)_s / (s! x^s),

    with sign that of Gamma(b) / Gamma(a) * S.  Returns (rest, sign) as
    arrays; the caller adds x (or x shifted by a prefactor's exponent)
    before exponentiating, so 1F1 itself is never formed where it
    overflows.  Meant for x >= kummer_crossover(a, b), where S converges
    to REL_TOL; a must not be 0, -1, ... (the series is exact there).
    """
    # (1 - a)_s (b - a)_s, each factor rounded once (exact near its zeros)
    big_s = _sum(xs, lambda k, xa: (k - a) * ((b - a) + (k - 1)) / k / xa,
                 f"large-x 1F1({a}, {b}, x)")
    with np.errstate(divide="ignore"):
        rest = (math.lgamma(b) - math.lgamma(a) + (a - b) * np.log(xs)
                + np.log(np.abs(big_s)))
    return rest, _gamma_sign(b) * _gamma_sign(a) * np.sign(big_s)


def _scaled(a: float, b: float, x: np.ndarray, shift) -> np.ndarray:
    """e^shift 1F1(a; b; x) for a flat x >= 0, shift a scalar or an array
    like x: the series below kummer_crossover, the log-form expansion from
    it on, so a shift of -x/2 keeps e^{-x/2} 1F1 finite where 1F1 is not.
    b must not be 0, -1, ...  Entries that overflow come back as inf (no
    warning)."""
    far = x >= kummer_crossover(a, b)
    with np.errstate(over="ignore"):
        if not far.any():
            return np.exp(shift) * _series(a, b, x)
        shift = np.broadcast_to(shift, x.shape)
        out = np.empty_like(x)
        near = ~far
        out[near] = np.exp(shift[near]) * _series(a, b, x[near])
        rest, sign = _large_x(a, b, x[far])
        out[far] = sign * np.exp((shift[far] + x[far]) + rest)
    return out


def kummer_1f1(a: float, b: float, x):
    """1F1(a; b; x) for a scalar x (returns a float) or an array x.

    Negative arguments go through the Kummer transformation
    1F1(a;b;x) = e^x 1F1(b-a; b; -x), so every series summed has positive
    argument (the direct alternating series loses precision).  From
    kummer_crossover on, the large-x expansion replaces the series.
    Raises DomainError for a non-finite a, b or x and Overflow where 1F1
    exceeds the double range.
    """
    _check_parameters(a, b)
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    if not np.isfinite(flat).all():
        raise DomainError("1F1 argument must be finite")
    neg = flat < 0.0
    if _is_nonpositive_integer(a):
        # terminating polynomial (degree -a); exact, no transformation needed
        out = _series(a, b, flat)
    elif not neg.any():
        out = _scaled(a, b, flat, 0.0)
    else:
        out = np.empty_like(flat)
        out[~neg] = _scaled(a, b, flat[~neg], 0.0)
        # x + (-x) = 0 exactly: e^x cancels the transformed expansion's e^{-x}
        out[neg] = _scaled(b - a, b, -flat[neg], flat[neg])
    if not np.isfinite(out).all():
        raise Overflow(f"1F1({a}, {b}, x) exceeds the double range")
    return out.reshape(xs.shape) if xs.ndim else float(out[0])


@functools.lru_cache
def _sphere_nodes(n_theta: int, n_phi: int):
    """Product quadrature over the unit sphere: Gauss-Legendre in cos(theta)
    times the trapezoid rule in phi.  Returns per-node arrays (theta, phi,
    w) over the n_theta * n_phi nodes, theta-major (phi varies fastest):
    angles and weights, which sum to 1, so the weighted sum of f over the
    nodes is its spherical average.
    Cached: every caller shares the same read-only arrays."""
    cos_theta, weights = np.polynomial.legendre.leggauss(n_theta)
    out = (np.repeat(np.arccos(cos_theta), n_phi),
           np.tile(2.0 * math.pi * np.arange(n_phi) / n_phi, n_theta),
           np.repeat(weights / (2.0 * n_phi), n_phi))
    for a in out:
        a.setflags(write=False)
    return out


def _legendre_upto(lam_max: int, x: float) -> list[float]:
    """P_0(x), ..., P_lam_max(x) from one pass of the Bonnet three-term
    recurrence; x must lie in [-1, 1] up to 1e-12 (NaN does not)."""
    if lam_max < 0:
        raise DomainError("Legendre degree must be non-negative")
    # cos(gamma) assembled from angles can exceed 1 by a few ulp
    if not abs(x) <= 1.0 + 1e-12:
        raise DomainError(f"Legendre argument {x} outside [-1, 1]")
    x = min(1.0, max(-1.0, x))
    p = [1.0, x]
    for k in range(1, lam_max):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return p[:lam_max + 1]


def legendre_p(lam: int, x: float) -> float:
    """Legendre polynomial P_lam(x) by the Bonnet three-term recurrence."""
    check_natural(lam, "lam")
    return _legendre_upto(lam, x)[lam]


def _assoc_legendre_norm(l: int, m: int, x: float) -> float:
    """Normalized associated Legendre bar-P_l^m(x), m >= 0, including the
    Condon-Shortley phase and the sqrt((2l+1)/4pi (l-m)!/(l+m)!) factor."""
    # sectoral seed bar-P_m^m
    pmm = math.sqrt(1.0 / (4.0 * math.pi))
    if m > 0:
        s2 = max(0.0, (1.0 - x) * (1.0 + x))
        fact = 1.0
        for k in range(1, m + 1):
            fact *= (2.0 * k + 1.0) / (2.0 * k)
        pmm = (-1.0) ** m * math.sqrt(fact / (4.0 * math.pi)) * s2 ** (m / 2.0)
    if l == m:
        return pmm
    pm1 = x * math.sqrt(2.0 * m + 3.0) * pmm
    if l == m + 1:
        return pm1
    for ll in range(m + 2, l + 1):
        a = math.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
        b = math.sqrt(((ll - 1.0) ** 2 - m * m) / (4.0 * (ll - 1.0) ** 2 - 1.0))
        pmm, pm1 = pm1, a * (x * pm1 - b * pmm)
    return pm1


def spherical_harmonic(l: int, m: int, theta: float, phi: float) -> complex:
    """Complex Y_lm(theta, phi), unit-normalized over the sphere, with
    Condon-Shortley phase."""
    check_natural(l, "spherical harmonic degree l")
    if isinstance(m, bool):  # abs(True) is 1
        raise DomainError(f"m must be an integer, got {m!r}")
    check_natural(abs(m), "|m|")
    check_finite(theta=theta, phi=phi)
    if abs(m) > l:
        raise DomainError(f"|m| = {abs(m)} exceeds l = {l}")
    mp = abs(m)
    p = _assoc_legendre_norm(l, mp, math.cos(theta))
    y = p * cmath.exp(1j * mp * phi)
    if m < 0:
        y = (-1.0) ** mp * y.conjugate()
    return y

