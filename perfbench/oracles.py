"""Reference answers for the benchmark checks.  Nothing here imports cuspbc:
the references come from analytic hydrogen, exact Fraction arithmetic,
40-digit mpmath and the benchmark's own Coulomb sums."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

from he import sto_mean_inv_r, sto_norm

MP_DPS = 40



# -- hydrogen and perturbation theory ---------------------------------------

def interpolation_excess(amp: float, mu: float, *spacings: float) -> float:
    """Bound on how far linear interpolation, at the given node spacings,
    lifts amp*exp(-mu r): h^2/8 max|V''| per interpolation."""
    return amp * mu * mu / 8.0 * sum(h * h for h in spacings)


def hydrogen_energy(z: float, n: int) -> float:
    return -z * z / (2.0 * n * n)


def _hydrogen_s_radial(n: int, z: float):
    """Normalised R_{n0}(r) of a fixed-nucleus hydrogen-like ion."""
    norm = mpmath.sqrt((2 * mpmath.mpf(z) / n) ** 3 / (2 * n * n))

    def radial(r):
        rho = 2 * z * r / n
        return norm * mpmath.exp(-rho / 2) * mpmath.laguerre(n - 1, 1, rho)

    return radial


def exp_moments(n: int, z: float, amp: float, mu: float):
    """<V> and <V^2> of V = amp * exp(-mu r) in the hydrogen state ns."""
    with mpmath.workdps(20):
        rad = _hydrogen_s_radial(n, z)
        m1 = mpmath.quad(lambda r: rad(r) ** 2 * r * r * mpmath.exp(-mu * r),
                         [0, 5 * n / z, mpmath.inf])
        m2 = mpmath.quad(lambda r: rad(r) ** 2 * r * r * mpmath.exp(-2 * mu * r),
                         [0, 5 * n / z, mpmath.inf])
    return amp * float(m1), amp * amp * float(m2)


def perturbed_s_levels(z: float, amp: float, mu: float, k: int,
                       slack: float = 1e-7, excess: float = 0.0
                       ) -> list[tuple[float, float, float]]:
    """Windows [lo, hi] for the k lowest s levels of -Z/r + amp e^{-mu r}
    (amp > 0), with their first-order centres.

    E = E0 + <V> + E2 + ..., and |E2| <= Var(V) / delta, with delta the
    distance to the nearest other s level; the window doubles that bound
    (after shrinking delta by 2*amp, the most any level can move) to cover
    the higher orders.  The ground state also obeys the variational bound
    E <= E0 + <V>, and Temple's bound from below.  `slack` covers the
    discretisation and the finite outer radius; `excess` bounds how far a
    linear interpolant of the convex potential lies above it, which can
    only raise the levels."""
    levels = [hydrogen_energy(z, n) for n in range(1, k + 2)]
    out = []
    for i in range(k):
        n = i + 1
        mean, square = exp_moments(n, z, amp, mu)
        var = max(square - mean * mean, 0.0)
        centre = levels[i] + mean
        gaps = [levels[i + 1] - levels[i]] + (
            [levels[i] - levels[i - 1]] if i else [])
        delta = min(gaps) - 2.0 * amp
        width = 2.0 * var / delta + slack
        if i == 0:
            temple = var / (levels[1] - centre)
            out.append((centre - temple - slack, centre + slack + excess, centre))
        else:
            out.append((centre - width, centre + width + excess, centre))
    return out


# -- cusp series and the Kummer function ------------------------------------

def cusp_series_exact(alpha: float, beta_sq: float, ell: int, order: int):
    """Taylor coefficients of u = R/r^ell from the radial equation
    u'' + (2 ell + 2) u'/r = (2 alpha / r + beta^2) u, u(0) = 1, in exact
    rational arithmetic; also the same recurrence on |alpha|, |beta^2|,
    which bounds the size of the float terms (for the tolerance)."""
    al, bs = Fraction(alpha), Fraction(beta_sq)
    exact = [Fraction(1), al / (ell + 1)]
    size = [Fraction(1), abs(al) / (ell + 1)]
    for k in range(1, order):
        den = (k + 1) * (k + 2 * ell + 2)
        exact.append((2 * al * exact[k] + bs * exact[k - 1]) / den)
        size.append((2 * abs(al) * size[k] + abs(bs) * size[k - 1]) / den)
    return exact, size


def kummer_u(alpha: float, beta: float, ell: int, r) -> list:
    """40-digit u(r) = e^{-beta r} 1F1(ell+1+alpha/beta; 2 ell+2; 2 beta r)."""
    with mpmath.workdps(MP_DPS):
        a = ell + 1 + mpmath.mpf(alpha) / mpmath.mpf(beta)
        b = 2 * ell + 2
        be = mpmath.mpf(beta)
        return [mpmath.exp(-be * mpmath.mpf(float(x)))
                * mpmath.hyp1f1(a, b, 2 * be * mpmath.mpf(float(x)))
                for x in np.atleast_1d(r)]


def kummer_abs_scale(alpha: float, beta: float, ell: int, r) -> np.ndarray:
    """e^{-beta r} sum_k |(a)_k| x^k / ((b)_k k!): the size of the terms the
    series adds up, which sets the rounding error it can make."""
    a = ell + 1 + alpha / beta
    b = 2 * ell + 2
    out = []
    for x in np.atleast_1d(np.asarray(r, dtype=float)):
        xx = 2.0 * beta * x
        term = total = 1.0
        k = 0
        while True:
            k += 1
            term *= abs(a + k - 1) / (b + k - 1) * xx / k
            total += term
            if term < 1e-17 * total and k > abs(a) + 2:
                break
        out.append(math.exp(-beta * x) * total)
    return np.array(out)


# -- spectator potential ----------------------------------------------------

def mass_fractions(m1: float, m2: float) -> tuple[float, float]:
    if math.isinf(m2):
        return 1.0, 0.0
    if math.isinf(m1):
        return 0.0, 1.0
    return m2 / (m1 + m2), m1 / (m1 + m2)


def env_w0(charges, q1: float, q2: float) -> float:
    return (q1 + q2) * math.fsum(q / math.hypot(*pos) for q, pos in charges)


def env_w_exact(charges, q1, q2, m1, m2, r, theta, phi) -> float:
    f1, f2 = mass_fractions(m1, m2)
    n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
         math.cos(theta))
    p1 = [f1 * r * c for c in n]
    p2 = [-f2 * r * c for c in n]
    return math.fsum(q * (q1 / math.dist(pos, p1) + q2 / math.dist(pos, p2))
                     for q, pos in charges)


# -- Slater-type orbitals and the helium comparison -------------------------

def sto_radial(terms, r) -> np.ndarray:
    rs = np.asarray(r, dtype=float)
    return sum(c * sto_norm(n, z) * rs ** (n - 1) * np.exp(-z * rs)
               for n, z, c in terms)


def compare_he_reference(terms, e: float, z: float, r0_kind: str,
                         r_max: float, n: int) -> dict:
    """What `compare-he` should report for a fixed nucleus: W0, beta, r0,
    the fitted prefactor u0 and the relative density errors at r0, r0/2."""
    inv_r = sto_mean_inv_r(terms)
    alpha = -z
    w0 = (z - 1.0) * inv_r
    beta = math.sqrt(2.0 * (w0 - e))
    r0 = 1.0 / z if r0_kind == "cusp" else 1.0 / inv_r
    r = np.linspace(0.0, r_max, n)
    win = r[r <= r0 / 4.0]
    u = np.array([float(v) for v in kummer_u(alpha, beta, 0, win)])
    hfr = sto_radial(terms, win)
    u0 = float(np.dot(hfr, u) / np.dot(u, u))

    def rel_at(rv):
        uk = u0 * float(kummer_u(alpha, beta, 0, rv)[0])
        h = float(sto_radial(terms, rv))
        return abs(uk * uk - h * h) / (h * h)

    return {"w0": w0, "beta": beta, "r0": r0, "u0": u0,
            "rel_error_r0": rel_at(r0), "rel_error_r0_half": rel_at(r0 / 2.0)}


def overflows(value) -> bool:
    """True when a 40-digit value lies outside the double range."""
    return abs(value) > mpmath.mpf(np.finfo(float).max)
