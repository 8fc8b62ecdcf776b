"""Slater and Gaussian basis functions carrying exact first- and
second-order cusp behaviour, plus the asymptotic Slater tail.

The head term of each basis fixes the leading Taylor coefficients of
u = R/r^ell to (1, a, b); tail terms start at power ell+3 so they cannot
disturb those orders.  verify_cusp_orders checks this with exact rational
series arithmetic (binary floats are rationals, so the check is bit-level).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cusp import cusp_limit_first, cusp_limit_second
from .errors import DomainError
from .gridfn import RadialFunction, check_natural
from .radial import SystemAsymptotics, asymptotic_tail

SLATER = "slater"
GAUSSIAN = "gaussian"

TAIL_POWER_FLOOR = 3  # powers of the tail start at ell + 3
_Z_AXIS = (0.0, 0.0, 1.0)


@dataclass(frozen=True)
class SlaterTerm:
    """coeff * r^(ell + power) * exp(-zeta r); the head term may carry a
    negative zeta (= -a for an attractive pair)."""

    coeff: float
    power: int
    zeta: float

    def __post_init__(self):
        check_natural(self.power, "power")
        if not (math.isfinite(self.coeff) and math.isfinite(self.zeta)):
            raise DomainError("coefficient and exponent must be finite")


@dataclass(frozen=True)
class GaussianTerm:
    """Cartesian primitive coeff * x^i y^j z^k * exp(-g r^2)."""

    coeff: float
    powers: tuple[int, int, int]
    g: float

    def __post_init__(self):
        for p in self.powers:
            check_natural(p, "a Cartesian power")
        object.__setattr__(self, "powers", tuple(int(p) for p in self.powers))
        if not math.isfinite(self.coeff):
            raise DomainError("coefficient must be finite")
        if not (0.0 < self.g < math.inf):
            raise DomainError("Gaussian exponent must be positive and finite")

    @property
    def total_power(self) -> int:
        return sum(self.powers)


@dataclass(frozen=True)
class GaussianHeadTerm:
    """Radial-only piece coeff * r^(ell + power) * exp(-g r^2).

    Needed because the odd a*r head factor has no single Cartesian
    primitive; stored as its own line kind (GH) in the interchange format.
    """

    coeff: float
    power: int
    g: float

    def __post_init__(self):
        check_natural(self.power, "power")
        if not math.isfinite(self.coeff):
            raise DomainError("coefficient must be finite")
        if not (0.0 < self.g < math.inf):
            raise DomainError("Gaussian exponent must be positive and finite")


def asymptotic_slater(sys: SystemAsymptotics):
    """The large-r tail as a basis function: e^{-decay r} r^power, r > 0."""
    return functools.partial(asymptotic_tail, sys, 1.0)


def _shape(term, ell: int, direction=_Z_AXIS):
    """(c, p, rate, step) of a term along a unit direction: the term is
    r^ell * c * r^p * exp(-rate * r^step) there."""
    if isinstance(term, SlaterTerm):
        return term.coeff, term.power, term.zeta, 1
    if isinstance(term, GaussianHeadTerm):
        return term.coeff, term.power, term.g, 2
    nx, ny, nz = direction
    i, j, k = term.powers
    return (term.coeff * (nx ** i * ny ** j * nz ** k),
            term.total_power - ell, term.g, 2)


@dataclass(frozen=True)
class CuspBasis:
    kind: str
    ell: int
    a: float
    b: float
    cusp_terms: tuple
    tail_terms: tuple
    window: float | None = None

    def __post_init__(self):
        if self.kind not in (SLATER, GAUSSIAN):
            raise DomainError("kind must be 'slater' or 'gaussian'")
        check_natural(self.ell, "ell")
        if self.window is not None and not self.window > 0.0:
            raise DomainError(f"window radius must be positive, got "
                              f"{self.window!r}")
        object.__setattr__(self, "cusp_terms", tuple(self.cusp_terms))
        object.__setattr__(self, "tail_terms", tuple(self.tail_terms))
        for t in self.cusp_terms + self.tail_terms:
            if _shape(t, self.ell)[1] < 0:  # only a Gaussian's x^i y^j z^k
                raise DomainError(
                    f"term power {t.total_power} below ell = {self.ell}: "
                    f"u = R/r^ell would be singular at r = 0"
                )
        for t in self.tail_terms:
            p = self.ell + _shape(t, self.ell)[1]
            if p < self.ell + TAIL_POWER_FLOOR:
                raise DomainError(
                    f"tail power {p} below the floor ell+3 = "
                    f"{self.ell + TAIL_POWER_FLOOR}"
                )

    @property
    def windowed(self) -> bool:
        """True for the growing-exponential Slater head (repulsive pair,
        a > 0), safe for near-origin correlation windows only."""
        return self.kind == SLATER and self.a > 0.0

    def evaluate_u(self, r, direction=_Z_AXIS):
        """u(r) = R(r)/r^ell along a fixed direction."""
        rs = np.asarray(r, dtype=float)
        if self.windowed:
            if self.window is None:
                raise DomainError(
                    "growing Slater head: supply a window radius"
                )
            if np.any(rs > self.window):
                raise DomainError(
                    f"evaluation beyond the window radius {self.window}"
                )
        out = np.zeros_like(rs)
        for t in self.cusp_terms + self.tail_terms:
            c, p, rate, step = _shape(t, self.ell, direction)
            out = out + c * rs ** p * np.exp(-rate * rs ** step)
        return out

    def evaluate(self, r, direction=_Z_AXIS):
        return np.asarray(r, dtype=float) ** self.ell \
            * self.evaluate_u(r, direction)


def taylor_u(basis: CuspBasis, order: int) -> list[Fraction]:
    """Exact Taylor coefficients of u = R/r^ell along z through the given
    order: c r^p exp(-rate r^step) adds c (-rate)^k / k! at p + step k."""
    total = [Fraction(0)] * (order + 1)
    for t in basis.cusp_terms + basis.tail_terms:
        c, p, rate, step = _shape(t, basis.ell)
        c, rate, fact = Fraction(c), Fraction(-rate), 1
        for k in range((order - p) // step + 1):
            total[p + step * k] += c * rate ** k / fact
            fact *= k + 1
    return total


def build_basis(kind: str, ell: int, a: float, b: float,
                tail_exponents, tail_coeffs=None, g0: float = 1.0,
                window: float | None = None) -> CuspBasis:
    """Head term carrying (1, a, b) plus tail terms at powers ell+3..ell+L.

    tail_exponents are the zeta_lambda (Slater) or g (Gaussian) of the tail
    terms, one per power starting at ell+3, so L = 2 + their count.
    Gaussian tails are stored as Cartesian z-powers.
    """
    exps = list(tail_exponents)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("cusp coefficients a and b must be finite")
    if any(not (0.0 < e < math.inf) for e in exps):
        raise DomainError("tail exponents must be positive and finite")
    coeffs = [1.0] * len(exps) if tail_coeffs is None else list(tail_coeffs)
    if len(coeffs) != len(exps):
        raise DomainError("tail_coeffs length must match tail_exponents")

    if kind == SLATER:
        head = (SlaterTerm(1.0, 0, -a),
                SlaterTerm(b - 0.5 * a * a, 2, -a))
        tail = tuple(SlaterTerm(c, TAIL_POWER_FLOOR + i, z)
                     for i, (c, z) in enumerate(zip(coeffs, exps)))
    elif kind == GAUSSIAN:
        head = (GaussianHeadTerm(1.0, 0, g0),
                GaussianHeadTerm(a, 1, g0),
                GaussianHeadTerm(b + g0, 2, g0))
        tail = tuple(GaussianTerm(c, (0, 0, ell + TAIL_POWER_FLOOR + i), g)
                     for i, (c, g) in enumerate(zip(coeffs, exps)))
    else:
        raise DomainError("kind must be 'slater' or 'gaussian'")
    return CuspBasis(kind, ell, a, b, head, tail, window=window)


def verify_cusp_orders(obj, ell: int | None = None) -> tuple[float, float]:
    """Estimated (a, b) of a basis (exact series arithmetic) or of a
    sampled radial function (polynomial fitting from the cusp module)."""
    if isinstance(obj, CuspBasis):
        c = taylor_u(obj, 2)
        if c[0] == 0:
            raise DomainError("u(0) vanishes; not an ell-regular function")
        return float(c[1] / c[0]), float(c[2] / c[0])
    if isinstance(obj, RadialFunction):
        l = obj.ell if ell is None else ell
        a_est = cusp_limit_first(obj, l) / (l + 1)
        b_est = cusp_limit_second(obj, l) / ((l + 1) * (l + 2))
        return a_est, b_est
    raise DomainError("expected a CuspBasis or a RadialFunction")


# ---------------------------------------------------------------------------
# interchange format: header comment, then one term per line
#   S  coeff power zeta          (Slater radial term, power relative to r^ell)
#   G  coeff i j k g             (Cartesian Gaussian primitive)
#   GH coeff power g             (radial Gaussian head piece)


def basis_to_text(basis: CuspBasis) -> str:
    lines = [
        f"# cuspbc-basis kind={basis.kind} ell={basis.ell} "
        f"a={basis.a!r} b={basis.b!r}"
        + (f" window={basis.window!r}" if basis.window is not None else "")
    ]
    for t in basis.cusp_terms + basis.tail_terms:
        if isinstance(t, SlaterTerm):
            lines.append(f"S {t.coeff!r} {t.power} {t.zeta!r}")
        elif isinstance(t, GaussianHeadTerm):
            lines.append(f"GH {t.coeff!r} {t.power} {t.g!r}")
        else:
            i, j, k = t.powers
            lines.append(f"G {t.coeff!r} {i} {j} {k} {t.g!r}")
    return "\n".join(lines) + "\n"


def basis_from_text(text: str) -> CuspBasis:
    meta = {}
    terms = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "cuspbc-basis" in line:
                for tok in line.split()[2:]:
                    key, _, val = tok.partition("=")
                    meta[key] = val
            continue
        parts = line.split()
        try:
            if parts[0] == "S":
                term = SlaterTerm(float(parts[1]), int(parts[2]), float(parts[3]))
            elif parts[0] == "GH":
                term = GaussianHeadTerm(float(parts[1]), int(parts[2]), float(parts[3]))
            elif parts[0] == "G":
                term = GaussianTerm(float(parts[1]),
                                    (int(parts[2]), int(parts[3]), int(parts[4])),
                                    float(parts[5]))
            else:
                raise ValueError(f"unknown term kind {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise DomainError(f"basis file line {ln}: {exc}") from exc
        terms.append(term)
    if not meta:
        raise DomainError("missing '# cuspbc-basis ...' header line")

    def field(key, cast):
        if key not in meta:
            raise DomainError(f"basis header: missing field {key!r}")
        try:
            return cast(meta[key])
        except ValueError as exc:
            raise DomainError(f"basis header: field {key!r}: {exc}") from exc

    kind, ell = field("kind", str), field("ell", int)
    # split head from tail by the power floor
    floor = ell + TAIL_POWER_FLOOR
    cusp_terms, tail_terms = [], []
    for t in terms:
        p = ell + _shape(t, ell)[1]
        (cusp_terms if p < floor else tail_terms).append(t)
    window = field("window", float) if "window" in meta else None
    return CuspBasis(kind, ell, field("a", float), field("b", float),
                     tuple(cusp_terms), tuple(tail_terms), window=window)
