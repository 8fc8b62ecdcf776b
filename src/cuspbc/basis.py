"""Slater and Gaussian basis functions carrying exact first- and
second-order cusp behaviour, plus the asymptotic Slater tail.

The head term of each basis fixes the leading Taylor coefficients of
u = R/r^ell to (1, a, b); tail terms start at power ell+3 so they cannot
disturb those orders.  verify_cusp_orders checks this with exact rational
series arithmetic (binary floats are rationals, so the check is bit-level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cusp import cusp_limit_first, cusp_limit_second
from .errors import DomainError
from .gridfn import RadialFunction
from .radial import SystemAsymptotics

SLATER = "slater"
GAUSSIAN = "gaussian"

TAIL_POWER_FLOOR = 3  # powers of the tail start at ell + 3


@dataclass(frozen=True)
class SlaterTerm:
    """coeff * r^(ell + power) * exp(-zeta r); the head term may carry a
    negative zeta (= -a for an attractive pair)."""

    coeff: float
    power: int
    zeta: float

    def __post_init__(self):
        if self.power < 0:
            raise DomainError("power must be non-negative")


@dataclass(frozen=True)
class GaussianTerm:
    """Cartesian primitive coeff * x^i y^j z^k * exp(-g r^2)."""

    coeff: float
    powers: tuple[int, int, int]
    g: float

    def __post_init__(self):
        object.__setattr__(self, "powers", tuple(int(p) for p in self.powers))
        if any(p < 0 for p in self.powers):
            raise DomainError("Cartesian powers must be non-negative")
        if not (self.g > 0.0):
            raise DomainError("Gaussian exponent must be positive")

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
        if self.power < 0:
            raise DomainError("power must be non-negative")
        if not (self.g > 0.0):
            raise DomainError("Gaussian exponent must be positive")


def asymptotic_slater(sys: SystemAsymptotics):
    """The large-r tail as a basis function: e^{-decay r} r^power."""
    def f(r):
        rs = np.asarray(r, dtype=float)
        return np.exp(-sys.decay * rs) * rs ** sys.power

    return f


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
        if self.ell < 0:
            raise DomainError("ell must be non-negative")
        object.__setattr__(self, "cusp_terms", tuple(self.cusp_terms))
        object.__setattr__(self, "tail_terms", tuple(self.tail_terms))
        for t in self.tail_terms:
            p = t.total_power if isinstance(t, GaussianTerm) \
                else self.ell + t.power
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

    def evaluate_u(self, r, direction=(0.0, 0.0, 1.0)):
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
            if isinstance(t, SlaterTerm):
                out = out + t.coeff * rs ** t.power * np.exp(-t.zeta * rs)
            elif isinstance(t, GaussianHeadTerm):
                out = out + t.coeff * rs ** t.power * np.exp(-t.g * rs ** 2)
            else:
                nx, ny, nz = direction
                ang = nx ** t.powers[0] * ny ** t.powers[1] * nz ** t.powers[2]
                out = out + t.coeff * ang * rs ** (t.total_power - self.ell) \
                    * np.exp(-t.g * rs ** 2)
        return out

    def evaluate(self, r, direction=(0.0, 0.0, 1.0)):
        return np.asarray(r, dtype=float) ** self.ell \
            * self.evaluate_u(r, direction)


def _term_series(term, ell: int, order: int, direction) -> list[Fraction]:
    """Exact Taylor coefficients (orders 0..order) of the term's u-part."""
    c = [Fraction(0)] * (order + 1)
    if isinstance(term, SlaterTerm):
        coeff, p, rate = Fraction(term.coeff), term.power, Fraction(-term.zeta)
        fact = Fraction(1)
        for k in range(order + 1 - p):
            c[p + k] += coeff * rate ** k / fact
            fact *= k + 1
    elif isinstance(term, GaussianHeadTerm):
        coeff, p, rate = Fraction(term.coeff), term.power, Fraction(-term.g)
        fact = Fraction(1)
        for k in range((order - p) // 2 + 1):
            c[p + 2 * k] += coeff * rate ** k / fact
            fact *= k + 1
    else:
        i, j, kk = term.powers
        ang = Fraction(direction[0]) ** i * Fraction(direction[1]) ** j \
            * Fraction(direction[2]) ** kk
        coeff = Fraction(term.coeff) * ang
        p = term.total_power - ell
        rate = Fraction(-term.g)
        fact = Fraction(1)
        for k in range((order - p) // 2 + 1):
            c[p + 2 * k] += coeff * rate ** k / fact
            fact *= k + 1
    return c


def taylor_u(basis: CuspBasis, order: int,
             direction=(0, 0, 1)) -> list[Fraction]:
    """Exact Taylor coefficients of u = R/r^ell through the given order."""
    total = [Fraction(0)] * (order + 1)
    for t in basis.cusp_terms + basis.tail_terms:
        for k, ck in enumerate(_term_series(t, basis.ell, order, direction)):
            total[k] += ck
    return total


def build_basis(kind: str, ell: int, a: float, b: float,
                tail_exponents, l_max: int | None = None,
                tail_coeffs=None, g0: float = 1.0,
                window: float | None = None) -> CuspBasis:
    """Head term carrying (1, a, b) plus tail terms at powers ell+3..ell+L.

    tail_exponents are the zeta_lambda (Slater) or g (Gaussian) of the tail
    terms, one per power starting at ell+3; l_max defaults to 2 + their
    count.  Gaussian tails are stored as Cartesian z-powers.
    """
    exps = list(tail_exponents)
    if any(not (e > 0.0) for e in exps):
        raise DomainError("tail exponents must be positive")
    if l_max is None:
        l_max = TAIL_POWER_FLOOR - 1 + len(exps)
    if len(exps) != l_max - TAIL_POWER_FLOOR + 1:
        raise DomainError(
            f"need {l_max - TAIL_POWER_FLOOR + 1} tail exponents for L = {l_max}"
        )
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
    kind = meta["kind"]
    ell = int(meta["ell"])
    # split head from tail by the power floor
    floor = ell + TAIL_POWER_FLOOR
    cusp_terms, tail_terms = [], []
    for t in terms:
        p = t.total_power if isinstance(t, GaussianTerm) else ell + t.power
        (cusp_terms if p < floor else tail_terms).append(t)
    window = float(meta["window"]) if "window" in meta else None
    return CuspBasis(kind, ell, float(meta["a"]), float(meta["b"]),
                     tuple(cusp_terms), tuple(tail_terms), window=window)
