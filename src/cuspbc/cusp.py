"""Cusp coefficients, recurrence-generated expansion series, the local
Kummer wave function, and numerical cusp-limit estimators.

Atomic units throughout (hbar = e = m_e = 4 pi eps0 = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, FitError, Overflow, ParityError, RegimeError
from .gridfn import RadialFunction, check_natural
from .special import _scaled, _sphere_nodes, spherical_harmonic

INFINITE_MASS = math.inf
PROTON_ELECTRON_MASS_RATIO = 1836.152673
NEUTRON_ELECTRON_MASS_RATIO = 1838.683662

SINGLET = "singlet"
TRIPLET = "triplet"


@dataclass(frozen=True)
class CoalescencePair:
    """Charges and masses of the two coalescing particles.

    Masses in electron-mass units; math.inf is the fixed-nucleus sentinel.
    spin_channel restricts the allowed angular momenta when both particles
    are electrons: even ell for singlet, odd for triplet.
    """

    q1: float
    q2: float
    m1: float = 1.0
    m2: float = 1.0
    spin_channel: str | None = None

    def __post_init__(self):
        if not (math.isfinite(self.q1) and math.isfinite(self.q2)):
            raise DomainError("charges must be finite")
        for m in (self.m1, self.m2):
            if not (m > 0.0):
                raise DomainError("masses must be positive (or math.inf)")
        if math.isinf(self.m1) and math.isinf(self.m2):
            raise DomainError("at most one mass may be infinite")
        if self.spin_channel not in (None, SINGLET, TRIPLET):
            raise DomainError("spin_channel must be 'singlet', 'triplet' or None")

    @property
    def reduced_mass(self) -> float:
        if math.isinf(self.m1):
            return self.m2
        if math.isinf(self.m2):
            return self.m1
        return self.m1 * self.m2 / (self.m1 + self.m2)

    @property
    def alpha(self) -> float:
        """alpha = M q1 q2, the strength of the pair's Coulomb singularity."""
        return self.reduced_mass * self.q1 * self.q2

    @property
    def identical(self) -> bool:
        return self.q1 == self.q2 and self.m1 == self.m2

    def check_ell(self, ell: int) -> None:
        check_natural(ell, "ell")
        if self.spin_channel == SINGLET and ell % 2 == 1:
            raise ParityError(f"singlet channel forbids odd ell = {ell}")
        if self.spin_channel == TRIPLET and ell % 2 == 0:
            raise ParityError(f"triplet channel forbids even ell = {ell}")

    @classmethod
    def electron_nucleus(cls, z: float, a_mass: float | None = None) -> "CoalescencePair":
        """Electron coalescing with a nucleus of charge z.

        a_mass is the mass number A; None means the fixed-nucleus limit
        (infinite nuclear mass, M = 1 exactly).
        """
        if a_mass is None:
            m_nuc = INFINITE_MASS
        else:
            m_nuc = z * PROTON_ELECTRON_MASS_RATIO \
                + (a_mass - z) * NEUTRON_ELECTRON_MASS_RATIO
        return cls(q1=-1.0, q2=z, m1=1.0, m2=m_nuc)

    @classmethod
    def electron_electron(cls, spin_channel: str) -> "CoalescencePair":
        return cls(q1=-1.0, q2=-1.0, m1=1.0, m2=1.0, spin_channel=spin_channel)


@dataclass(frozen=True)
class CuspSeries:
    """Expansion coefficients a_0 ... a_K of the reduced radial function u(r)."""

    ell: int
    alpha: float
    beta_sq: float
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if self.coeffs[0] == 0.0:
            raise DomainError("u(0) must be non-zero (regular Fuchs solution)")

    @property
    def a(self) -> float:
        return self.coeffs[1] / self.coeffs[0]

    @property
    def b(self) -> float:
        return self.coeffs[2] / self.coeffs[0]

    def evaluate(self, r):
        """Truncated power series sum at r (scalar or array); DomainError
        for a non-finite r, Overflow where the sum leaves the double range."""
        rs = np.asarray(r, dtype=float)
        if not np.all(np.isfinite(rs)):
            raise DomainError("r must be finite")
        out = np.zeros_like(rs)
        with np.errstate(over="ignore"):
            for c in reversed(self.coeffs):
                out = out * rs + c
        if not np.all(np.isfinite(out)):
            raise Overflow("the cusp series leaves the double range")
        return out


def _check_finite(**values) -> None:
    """DomainError, naming the first, unless every value is finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LocalWavefunction:
    """Parameters of the local Kummer wave function near a coalescence point."""

    ell: int
    m: int
    u0: float
    alpha: float
    beta: float

    def __post_init__(self):
        check_natural(self.ell, "ell")
        if isinstance(self.m, bool):  # abs(True) is 1
            raise DomainError(f"m must be an integer, got {self.m!r}")
        check_natural(abs(self.m), "|m|")
        if abs(self.m) > self.ell:
            raise DomainError(f"need |m| <= ell, got m = {self.m!r}")
        _check_finite(u0=self.u0, alpha=self.alpha, beta=self.beta)
        if not (self.beta > 0.0):
            raise RegimeError(
                "local bound-state form requires beta > 0, i.e. E < W0"
            )
        # kummer_a = ell + 1 + alpha/beta
        _check_finite(**{"alpha/beta": self.alpha / self.beta})

    @property
    def kummer_a(self) -> float:
        return self.ell + 1 + self.alpha / self.beta

    @property
    def kummer_b(self) -> float:
        return 2 * self.ell + 2

    @classmethod
    def from_pair(cls, pair: CoalescencePair, ell: int, m: int,
                  w0: float, e: float, u0: float = 1.0) -> "LocalWavefunction":
        pair.check_ell(ell)
        _check_finite(w0=w0, e=e)
        beta_sq = 2.0 * pair.reduced_mass * (w0 - e)
        if beta_sq <= 0.0:
            raise RegimeError(f"E = {e} is not below W0 = {w0}")
        return cls(ell=ell, m=m, u0=u0, alpha=pair.alpha, beta=math.sqrt(beta_sq))


def cusp_a(pair: CoalescencePair, ell: int) -> float:
    """First-order cusp coefficient a = M q1 q2 / (ell + 1)."""
    pair.check_ell(ell)
    return pair.alpha / (ell + 1)


def cusp_b(pair: CoalescencePair, ell: int, w0: float, e: float) -> float:
    """Second-order (curvature) coefficient
    b = [(ell+1) a^2 + M (W0 - E)] / (2 ell + 3); Overflow where it leaves
    the double range."""
    a = cusp_a(pair, ell)
    _check_finite(w0=w0, e=e)
    m_red = pair.reduced_mass
    b = ((ell + 1) * a * a + m_red * (w0 - e)) / (2 * ell + 3)
    if not math.isfinite(b):
        raise Overflow(f"cusp coefficient b = {b!r} leaves the double range")
    return b


def cusp_series(pair: CoalescencePair, ell: int, w0: float, e: float,
                order: int) -> CuspSeries:
    """Generate a_0 ... a_order from the recurrence

        a_1 = alpha/(ell+1) a_0,
        a_{k+1} = (2 alpha a_k + beta^2 a_{k-1}) / ((2 ell + 2 + k)(k + 1)),

    or Overflow, naming the first, where a coefficient leaves the double
    range.
    """
    check_natural(order, "series order")
    if order < 2:
        raise DomainError("series order must be at least 2")
    pair.check_ell(ell)
    _check_finite(w0=w0, e=e)
    alpha = pair.alpha
    beta_sq = 2.0 * pair.reduced_mass * (w0 - e)
    coeffs = [1.0, alpha / (ell + 1)]
    for k in range(1, order):
        coeffs.append((2.0 * alpha * coeffs[k] + beta_sq * coeffs[k - 1])
                      / ((2 * ell + 2 + k) * (k + 1)))
    for k, ck in enumerate(coeffs):
        if not math.isfinite(ck):
            raise Overflow(f"series coefficient a_{k} = {ck!r} leaves the "
                           f"double range")
    return CuspSeries(ell=ell, alpha=alpha, beta_sq=beta_sq, coeffs=tuple(coeffs))


def local_u(lw: LocalWavefunction, r):
    """Reduced local wave function
    u(r) = u0 e^{-beta r} 1F1(ell+1+alpha/beta; 2 ell+2; 2 beta r).

    All points go at once through the router that kummer_1f1 uses (power
    series below the crossover, large-x expansion in log form from it on),
    with e^{-beta r} joined to the expansion's exponent, so u is finite
    wherever it fits a double, and Overflow is raised where it does not.
    Radii must be finite and non-negative (DomainError).
    """
    rs = np.asarray(r, dtype=float)
    flat = rs.reshape(-1)
    if not np.isfinite(flat).all():
        raise DomainError("r must be finite")
    if (flat < 0.0).any():
        raise DomainError("r must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):  # caught below
        x = 2.0 * lw.beta * flat
        if not np.isfinite(x).all():
            raise Overflow("2 beta r exceeds the double range")
        out = lw.u0 * _scaled(lw.kummer_a, lw.kummer_b, x, -0.5 * x)
    if not np.isfinite(out).all():
        raise Overflow(f"u(r) exceeds the double range (beta = {lw.beta})")
    return out.reshape(rs.shape) if rs.ndim else float(out[0])


def local_psi(lw: LocalWavefunction, r, theta: float, phi: float):
    """psi = r^ell u(r) Y_lm(theta, phi) (complex)."""
    u = local_u(lw, r)
    y = spherical_harmonic(lw.ell, lw.m, theta, phi)
    return np.asarray(r, dtype=float) ** lw.ell * u * y


def validity_radius(pair: CoalescencePair, w0: float) -> float:
    """Radius beyond which the local bound form is non-physical
    (q1 q2 / r + W0 >= 0).  math.inf means valid at all radii; 0 means the
    near-origin potential is non-negative and the bound form never applies.
    """
    _check_finite(w0=w0)
    prod = pair.q1 * pair.q2
    if prod < 0.0:
        if w0 > 0.0:
            return -prod / w0
        return INFINITE_MASS  # math.inf: attractive everywhere
    if prod == 0.0:
        return INFINITE_MASS if w0 < 0.0 else 0.0
    # repulsive pair: the potential is positive near the origin
    return 0.0


DEFAULT_FIT_POINTS = 14


def _polyfit(x: np.ndarray, v: np.ndarray, deg: int) -> np.ndarray:
    """Least-squares coefficients c_0 ... c_deg of the polynomial in x
    through (x, v), fitted in x / max|x| so that the Vandermonde matrix
    stays well conditioned."""
    scale = np.max(np.abs(x))
    if scale == 0.0:
        raise FitError("degenerate fit window")
    vand = np.vander(x / scale, deg + 1, increasing=True)
    c_t, *_ = np.linalg.lstsq(vand, v, rcond=None)
    return c_t / scale ** np.arange(deg + 1)


def _fit_inner_coeffs(grid: np.ndarray, values: np.ndarray, ell: int,
                      n_points: int = DEFAULT_FIT_POINTS) -> np.ndarray:
    """Least-squares fit of a degree-(ell+4) polynomial to the innermost
    grid points, returned as coefficients in r (c_0 ... c_{ell+4}).

    Repeated numerical l'Hospital by finite differences would be
    catastrophically ill-conditioned, coefficient ratios of this fit are
    the stable equivalent.  Degree ell+4 keeps the r^{ell+4} curvature term
    out of the c_{ell+2} estimate the second-order limit relies on.
    """
    deg = ell + 4
    n = max(deg + 2, min(n_points, len(grid)))
    if len(grid) < deg + 2:
        raise FitError(
            f"need at least {deg + 2} grid points for an ell = {ell} cusp fit"
        )
    return _polyfit(np.asarray(grid[:n], dtype=float),
                    np.asarray(values[:n]), deg)


def _cusp_limit(f: RadialFunction, ell: int | None, n_points: int,
                order: int) -> float:
    """lim_{r->0} d_r^{ell+order} Psi / d_r^ell Psi = (ell+order)!/ell!
    c_{ell+order}/c_ell, from the inner fit to the full radial function."""
    ell = f.ell if ell is None else ell
    check_natural(ell, "ell")
    head = slice(max(ell + 6, n_points))  # all the nodes the fit may read
    coeffs = _fit_inner_coeffs(f.grid[head], f._full(head), ell, n_points)
    c_ell = coeffs[ell]
    if abs(c_ell) <= 1e-9 * np.max(np.abs(coeffs)):
        raise FitError(
            f"leading coefficient c_{ell} vanishes; wrong ell supplied?"
        )
    return math.perm(ell + order, order) * float(
        np.real(coeffs[ell + order] / c_ell))


def cusp_limit_first(f: RadialFunction, ell: int | None = None,
                     n_points: int = DEFAULT_FIT_POINTS) -> float:
    """Estimate lim_{r->0} d_r^{ell+1} Psi / d_r^ell Psi = (ell+1) u'(0)/u(0)
    from inner samples of the full radial function."""
    return _cusp_limit(f, ell, n_points, 1)


def cusp_limit_second(f: RadialFunction, ell: int | None = None,
                      n_points: int = DEFAULT_FIT_POINTS) -> float:
    """Estimate lim_{r->0} d_r^{ell+2} Psi / d_r^ell Psi = (ell+1)(ell+2) b."""
    return _cusp_limit(f, ell, n_points, 2)


@dataclass(frozen=True)
class AngularRadialFunction:
    """An s-type (ell = 0) function of (r, theta, phi) with the radial grid
    on which cusp limits are to be estimated.

    fn must broadcast like a numpy ufunc: kato_average_check calls it once
    with r of shape (n, 1) and theta, phi of shape (1, m) for all
    quadrature nodes, and expects an (n, m) result (or one that broadcasts
    to it), besides once with scalar angles along a fixed direction.
    """

    fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    grid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))


def kato_average_check(f: AngularRadialFunction,
                       direction: tuple[float, float] = (1.0, 0.5)
                       ) -> tuple[float, float]:
    """Radial log-derivative limit along a fixed direction, and the same
    limit for the spherical average of f (Gauss-Legendre x trapezoid on
    32 x 64 nodes).

    For functions whose anisotropy enters first at O(r^3) the two agree;
    a linear anisotropic term makes them differ.
    """
    theta0, phi0 = direction
    r = f.grid
    directional = cusp_limit_first(
        RadialFunction(r, np.real(f.fn(r, theta0, phi0)), 0, "R"), 0)

    theta, phi, w = _sphere_nodes(32, 64)
    vals = np.real(f.fn(r[:, None], theta[None, :], phi[None, :]))
    avg = np.broadcast_to(vals, (r.size, theta.size)) @ w
    averaged = cusp_limit_first(RadialFunction(r, avg, 0, "R"), 0)
    return directional, averaged
