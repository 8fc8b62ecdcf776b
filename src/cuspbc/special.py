"""Special functions: Pochhammer symbol, Kummer 1F1, Legendre polynomials,
complex spherical harmonics with Condon-Shortley phase.

All functions are pure and hold no global state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, NoConvergence, PoleError


@dataclass(frozen=True)
class EvalDomain:
    """Series truncation control: hard term cap and relative tolerance."""

    max_terms: int = 500
    rel_tol: float = 1e-14

    def __post_init__(self):
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError("rel_tol must lie in (0, 1)")


DEFAULT_DOMAIN = EvalDomain()


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1."""
    if k < 0:
        raise DomainError("pochhammer order must be non-negative")
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


def _is_nonpositive_integer(b: float) -> bool:
    return b <= 0.0 and b == math.floor(b)


def kummer_series(a: float, b: float, x: float, dom: EvalDomain = DEFAULT_DOMAIN) -> float:
    """Raw series sum of 1F1(a; b; x), no transformation.

    Stops once the term stays below rel_tol * |partial sum| for two
    consecutive terms (hysteresis against an accidentally small term).
    """
    if _is_nonpositive_integer(b):
        raise PoleError(f"1F1 pole: b = {b} is zero or a negative integer")
    total = 1.0
    term = 1.0
    small = 0
    for k in range(1, dom.max_terms + 1):
        term *= (a + k - 1) / (b + k - 1) * x / k
        total += term
        if abs(term) <= dom.rel_tol * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise NoConvergence(
        f"1F1({a}, {b}, {x}) did not converge within {dom.max_terms} terms"
    )


def kummer_1f1(a: float, b: float, x: float, dom: EvalDomain = DEFAULT_DOMAIN) -> float:
    """1F1(a; b; x); negative arguments go through the Kummer transformation
    1F1(a;b;x) = e^x 1F1(b-a; b; -x) so every series summed has positive
    argument (the direct alternating series loses precision).
    """
    if _is_nonpositive_integer(b):
        raise PoleError(f"1F1 pole: b = {b} is zero or a negative integer")
    if _is_nonpositive_integer(a):
        # terminating polynomial (degree -a); exact, no transformation needed
        return kummer_series(a, b, x, dom)
    if x < 0.0:
        return math.exp(x) * kummer_series(b - a, b, -x, dom)
    return kummer_series(a, b, x, dom)


def legendre_p(lam: int, x: float) -> float:
    """Legendre polynomial P_lam(x) by the Bonnet three-term recurrence."""
    if lam < 0:
        raise DomainError("Legendre degree must be non-negative")
    # cos(gamma) assembled from angles can exceed 1 by a few ulp
    if abs(x) > 1.0 + 1e-12:
        raise DomainError(f"legendre_p argument {x} outside [-1, 1]")
    x = min(1.0, max(-1.0, x))
    if lam == 0:
        return 1.0
    p_prev, p = 1.0, x
    for k in range(1, lam):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p


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
    if l < 0:
        raise DomainError("spherical harmonic degree must be non-negative")
    if abs(m) > l:
        raise DomainError(f"|m| = {abs(m)} exceeds l = {l}")
    mp = abs(m)
    p = _assoc_legendre_norm(l, mp, math.cos(theta))
    y = p * cmath.exp(1j * mp * phi)
    if m < 0:
        y = (-1.0) ** mp * y.conjugate()
    return y

