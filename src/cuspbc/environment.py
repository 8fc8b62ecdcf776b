"""Electrostatic environment around a coalescence point.

The two coalescing particles sit at mass-weighted offsets along the
separation axis: particle 1 at +f1*r*n and particle 2 at -f2*r*n with
f1 = m2/(m1+m2), f2 = m1/(m1+m2), so that their centre of mass stays at
the coalescence point.  The spectator charges (the rest of the system,
frozen at their mean positions) produce the potential W(r) whose r -> 0
value W0 enters the second-order cusp coefficient.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cusp import CoalescencePair
from .errors import DomainError, InputError, SingularityError
from .gridfn import check_natural
from .special import _legendre_upto


@dataclass(frozen=True)
class PointCharge:
    q: float
    position: tuple[float, float, float]

    def __post_init__(self):
        pos = tuple(float(x) for x in self.position)
        object.__setattr__(self, "position", pos)
        if len(pos) != 3 or not all(math.isfinite(x) for x in pos):
            raise DomainError("position must be a finite 3-vector")
        if not math.isfinite(self.q):
            raise DomainError("charge must be finite")

    @property
    def radius(self) -> float:
        return math.hypot(*self.position)


@dataclass(frozen=True)
class Environment:
    """Spectator point charges, positions relative to the coalescence point."""

    charges: tuple

    def __post_init__(self):
        object.__setattr__(self, "charges", tuple(self.charges))
        for c in self.charges:
            if c.radius == 0.0:
                raise SingularityError(
                    "spectator charge sits at the coalescence point"
                )

    @property
    def min_radius(self) -> float:
        return min(c.radius for c in self.charges) if self.charges else math.inf

    def to_json(self) -> str:
        return json.dumps(
            {"charges": [{"q": c.q, "position": list(c.position)} for c in self.charges]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Environment":
        """{"charges": [{"q": q, "position": [x, y, z]}, ...]}; any other
        shape, or a charge or coordinate that is not a number, raises
        InputError."""
        data = json.loads(text)
        try:
            return cls(tuple(PointCharge(d["q"], tuple(d["position"]))
                             for d in data["charges"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"expected charges [{{'q': q, 'position': "
                             f"[x, y, z]}}, ...]: {exc!r}") from exc


def _mass_fractions(pair: CoalescencePair) -> tuple[float, float]:
    if math.isinf(pair.m2):
        return 1.0, 0.0
    if math.isinf(pair.m1):
        return 0.0, 1.0
    tot = pair.m1 + pair.m2
    return pair.m2 / tot, pair.m1 / tot


def _direction(theta: float, phi: float) -> np.ndarray:
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise DomainError("angles must be finite")
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def _check_r(r: float) -> None:
    if not (r >= 0.0 and math.isfinite(r)):
        raise DomainError("r must be finite and non-negative")


def w0(env: Environment, pair: CoalescencePair) -> float:
    """W0 = (q1 + q2) sum_i q_i / r_i, the r -> 0 environment potential."""
    return (pair.q1 + pair.q2) * math.fsum(c.q / c.radius for c in env.charges)


def _spectator_sum(env: Environment, pair: CoalescencePair, dist) -> float:
    """fsum over charges c and the two particles of c.q q_p / dist(c, f),
    with f = f1 for particle 1 (at +f1 r n) and -f2 for particle 2 (at
    -f2 r n): the pair's spectator Coulomb energy, one Python-float term
    per charge and particle."""
    f1, f2 = _mass_fractions(pair)
    terms = []
    for c in env.charges:
        for q, f in ((pair.q1, f1), (pair.q2, -f2)):
            d = dist(c, f)
            if d == 0.0:
                raise SingularityError(
                    "pair particle coincides with a spectator charge")
            terms.append(c.q * q / d)
    return math.fsum(terms)


def w_exact(env: Environment, pair: CoalescencePair,
            r: float, theta: float, phi: float) -> float:
    """Exact spectator potential energy for pair separation r along
    direction (theta, phi)."""
    _check_r(r)
    n = _direction(theta, phi)
    return _spectator_sum(env, pair, lambda c, f: math.dist(
        c.position, [f * r * x for x in n.tolist()]))


def _multipole_terms(env: Environment, pair: CoalescencePair, lams,
                     r: float, theta: float, phi: float) -> list[float]:
    """Terms of the orders lams (ascending) of the interior multipole
    expansion of w_exact: coeff * r^lam * fsum_i q_i P_lam(cos gamma_i) /
    r_i^(lam+1), with one Legendre pass per spectator up to the last order.
    A coefficient that cancels exactly gives +0.0."""
    _check_r(r)
    f1, f2 = _mass_fractions(pair)
    n = _direction(theta, phi)
    spectators = [(c.q, c.radius, _legendre_upto(
        lams[-1], float(np.dot(n, c.position)) / c.radius))
        for c in env.charges]
    out = []
    for lam in lams:
        coeff = pair.q1 * f1 ** lam + (-1.0) ** lam * pair.q2 * f2 ** lam
        out.append(0.0 if coeff == 0.0 else coeff * r ** lam * math.fsum(
            q * p[lam] / radius ** (lam + 1) for q, radius, p in spectators))
    return out


def multipole_term(env: Environment, pair: CoalescencePair, lam: int,
                   r: float, theta: float, phi: float) -> float:
    """Order-lambda term of the interior multipole expansion of w_exact.

    The angular factor is P_lam(cos gamma_i) with gamma_i the angle between
    the separation axis and the i-th spectator position.  For identical
    particles the odd-lambda coefficient cancels exactly (x + (-x) = 0 in
    floating point), not merely to rounding, and the term is +0.0.
    """
    check_natural(lam, "lambda")
    return _multipole_terms(env, pair, [lam], r, theta, phi)[0]


def w_multipole(env: Environment, pair: CoalescencePair,
                r: float, theta: float, phi: float, lam_max: int) -> float:
    """Interior multipole expansion of w_exact through order lam_max, valid
    for r below the nearest spectator radius (geometric convergence in
    r/min_radius)."""
    check_natural(lam_max, "lam_max")
    if r >= env.min_radius:
        raise DomainError(
            f"multipole expansion requires r < {env.min_radius} (nearest charge)"
        )
    return math.fsum(_multipole_terms(env, pair, range(lam_max + 1),
                                      r, theta, phi))


def spherical_average_w(env: Environment, pair: CoalescencePair, r: float) -> float:
    """Average of w_exact over directions, in closed form by Newton's shell
    theorem: the mean of 1/|x - s n| over unit vectors n is 1/max(|x|, |s|),
    so the average is fsum_i q_i [q1 / max(r_i, f1 r) + q2 / max(r_i, f2 r)].
    While f1 r and f2 r stay inside the nearest charge every max is r_i,
    and this is w0 to rounding; past a charge it departs from w0."""
    _check_r(r)
    return _spectator_sum(env, pair, lambda c, f: max(c.radius, abs(f) * r))
