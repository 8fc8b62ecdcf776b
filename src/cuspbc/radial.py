"""Radial eigensolvers with Robin boundary conditions at both ends.

Both routes solve one operator, Numerov's recurrence T(E) for chi = P/sqrt(r)
on the uniform x = ln r mesh of the grid (solve_matrix).  Counts of T(E)
give each state, and _state isolates, starts, roots, certifies and logs
every state of either route, from E + Cooley's step of an isolating count
strictly inside its pair, else the pair's midpoint, and certifies it by a
count at E on its function's solve and one at E - delta or E + delta.  The
routes differ only in where the counted energies come from and the root's
tolerance.  The solved equation is

    -u''/(2M) - (ell+1)/(M r) u' + [q1 q2 / r + W0 + V_extra(r)] u = E u

for u = R / r^ell, with u'/u -> a at the inner edge and the bound-state
log-derivative kappa(r) at the outer edge.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cusp import CuspSeries, CoalescencePair, _polyfit, cusp_series
from .errors import (ConvergenceError, DomainError, NoSignChange, Overflow,
                     RegimeError, SingularityError, StiffnessError)
from .gridfn import RadialFunction, check_finite, check_natural

INNER = "inner"
OUTER = "outer"

_log = logging.getLogger(__name__)

# scipy names read here as plain globals, each bound on first use so that
# `import cuspbc` needs numpy alone.  A name bound first (by a test, or by a
# tracer wrapping it) is kept.  dtbtrs and dnrm2 come from scipy's compiled
# modules loaded alone: scipy.linalg's package is 322 modules and ~0.2 s.
# brentq, solve_ivp and eigsh are never called: they are bound only for a
# per-layer tracer that counts them.
_SCIPY = {"dtbtrs": "scipy.linalg._flapack", "dnrm2": "scipy.linalg._fblas",
          "brentq": "scipy.optimize", "solve_ivp": "scipy.integrate",
          "eigsh": "scipy.sparse.linalg"}


def __getattr__(name):
    """Bind the scipy name `name` here (PEP 562); a compiled module found in
    scipy's linalg directory is loaded alone into sys.modules, unless loaded
    already.  ImportError names a module not found."""
    if name not in _SCIPY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    where = _SCIPY[name]
    if not where.startswith("scipy.linalg._"):
        module = importlib.import_module(where)
    elif (module := sys.modules.get(where)) is None:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            where, [os.path.join(path, "linalg")
                    for path in scipy.submodule_search_locations])
        if spec is None:
            raise ImportError(f"no module named {where!r}", name=where)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[where] = module
    value = globals()[name] = getattr(module, name)
    return value


def bind_scipy() -> None:
    """Bind the scipy names the solvers call, LAPACK's dtbtrs and BLAS's
    dnrm2, unless bound already, which loads scipy.linalg._flapack and
    _fblas alone (a few ms; no scipy package).  Every solve does so
    first; a caller that times solves calls it beforehand, so that the
    first time does not include the load."""
    for name in ("dtbtrs", "dnrm2"):
        if name not in globals():
            __getattr__(name)


@dataclass(frozen=True)
class RobinBoundary:
    """c_dpsi * f' + c_psi * f = 0 at one boundary.

    At the inner edge f is the reduced function u; at the outer edge f is
    the full radial function R.
    """

    location: str
    c_dpsi: float
    c_psi: float

    def __post_init__(self):
        if self.location not in (INNER, OUTER):
            raise DomainError("location must be 'inner' or 'outer'")
        check_finite(c_dpsi=self.c_dpsi, c_psi=self.c_psi)
        if self.c_dpsi == 0.0 and self.c_psi == 0.0:
            raise DomainError("(c_dpsi, c_psi) must not both vanish")

    @property
    def log_derivative(self) -> float:
        """f'/f = -c_psi/c_dpsi; math.inf signals a Dirichlet condition."""
        if self.c_dpsi == 0.0:
            return math.inf
        return -self.c_psi / self.c_dpsi


def robin_inner(ell: int, a: float) -> RobinBoundary:
    """Inner condition u' - a*u = 0 on the reduced function."""
    check_natural(ell, "ell")
    return RobinBoundary(INNER, 1.0, -a)


@dataclass(frozen=True)
class SystemAsymptotics:
    """Large-r data of the full system: reduced mass M' of the escaping
    particle against the rest, total charge Q, and the (negative) energy."""

    total_reduced_mass: float
    total_charge: float
    energy: float

    def __post_init__(self):
        check_finite(total_reduced_mass=self.total_reduced_mass,
                     total_charge=self.total_charge, energy=self.energy)
        if not self.total_reduced_mass > 0.0:
            raise DomainError("total_reduced_mass must be positive and finite")
        if not (self.energy < 0.0):
            raise RegimeError("asymptotic tail requires a bound state (E < 0)")

    @property
    def decay(self) -> float:
        """sqrt(-2 M' E), the exponential decay rate."""
        return math.sqrt(-2.0 * self.total_reduced_mass * self.energy)

    @property
    def power(self) -> float:
        """Exponent of the algebraic r factor in the tail."""
        return (self.total_reduced_mass * (self.total_charge + 1.0)
                / self.decay - 1.0)

    def kappa(self, r: float) -> float:
        """Log-derivative of the tail: -decay + power/r."""
        return -self.decay + self.power / r


def robin_outer(sys: SystemAsymptotics, r_max: float) -> RobinBoundary:
    """Outer condition R' - kappa(r_max)*R = 0.

    Requires r_max >= 20/decay so the neglected O(1/r^2) log-derivative
    remainder is below the solver tolerances.
    """
    if r_max < 20.0 / sys.decay:
        raise DomainError(
            f"r_max = {r_max} too small; need >= {20.0 / sys.decay:.3g} "
            f"for the asymptotic log-derivative to hold"
        )
    return RobinBoundary(OUTER, 1.0, -sys.kappa(r_max))


def asymptotic_tail(sys: SystemAsymptotics, v0: float, r) -> float:
    """R(r) = v0 exp(-decay*r) r^power at large r, formed as v0 exp(power ln r
    - decay r), so that each factor may leave the double range where R does
    not; Overflow where R does."""
    check_finite(v0=v0)
    rs = np.asarray(r, dtype=float)
    if not np.all((rs > 0.0) & (rs < math.inf)):
        raise DomainError("r must be positive and finite")
    with np.errstate(over="ignore", invalid="ignore"):
        out = v0 * np.exp(sys.power * np.log(rs) - sys.decay * rs)
    if not np.all(np.isfinite(out)):
        raise Overflow("the asymptotic tail leaves the double range")
    return float(out) if rs.shape == () else out


def log_grid(r_min: float = 1e-5, r_max: float = 40.0, n: int = 2000) -> np.ndarray:
    """n radii uniform in ln r whose end nodes are exactly r_min and r_max."""
    check_natural(n, "n")
    if n < 2:
        raise DomainError("log grid needs at least 2 points")
    check_finite(r_min=r_min, r_max=r_max)
    if not 0.0 < r_min < r_max:
        raise DomainError(f"log grid needs 0 < r_min < r_max < inf, got "
                          f"r_min = {r_min!r}, r_max = {r_max!r}")
    grid = np.exp(np.linspace(math.log(r_min), math.log(r_max), n))
    grid[0], grid[-1] = r_min, r_max
    return grid


@dataclass(frozen=True)
class RadialProblem:
    """A two-particle radial problem: angular momentum ell, reduced mass M,
    q1 q2 and W0 of q1 q2 / r + W0 + V_extra(r), on grid, where V_extra is
    tabulated (None: 0).  The E-independent terms of its log mesh
    (_log_mesh), x = ln r among them, in which each state's u is formed,
    are built on its first solve and shared by every solve on it after; a
    grid that is not logarithmic raises DomainError on every solve."""

    ell: int
    mass: float
    pair_product: float  # q1 * q2
    w0: float
    grid: np.ndarray
    extra_potential: np.ndarray | None = None

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", g)
        if g.size < 50:
            raise DomainError("grid needs at least 50 points")
        if not (g[0] > 0.0 and np.all(np.diff(g) > 0.0) and g[-1] < math.inf):
            raise DomainError("grid must be finite and strictly increasing "
                              "with r_min > 0")
        check_natural(self.ell, "ell")
        check_finite(mass=self.mass, pair_product=self.pair_product,
                     w0=self.w0)
        if not self.mass > 0.0:
            raise DomainError("mass must be positive and finite")
        if self.extra_potential is not None:
            v = np.asarray(self.extra_potential, dtype=float)
            object.__setattr__(self, "extra_potential", v)
            if v.shape != g.shape:
                raise DomainError("extra_potential must be tabulated on the grid")
            if not np.all(np.isfinite(v)):
                raise DomainError("extra_potential must be finite")
            self._check_extra_decay(g, v)

    @staticmethod
    def _check_extra_decay(g, v):
        # r*V must still be falling over the outer half, otherwise the
        # Coulomb-tail boundary condition does not apply.
        mid = np.searchsorted(g, 0.5 * g[-1])
        if abs(v[-1] * g[-1]) > abs(v[mid] * g[mid]) and abs(v[-1]) > 1e-300:
            raise DomainError(
                "extra_potential must decay faster than 1/r near r_max"
            )

    def potential(self, r=None) -> np.ndarray:
        """q1 q2 / r + W0 + V_extra on the grid, where V_extra is tabulated;
        r must be None (the grid), and any other raises DomainError."""
        if r is not None:
            raise DomainError("RadialProblem.potential samples its grid "
                              "alone: r must be None")
        v = self.pair_product / self.grid + self.w0
        if self.extra_potential is not None:
            v = v + self.extra_potential
        return v

    @cached_property
    def _mesh(self):
        return _log_mesh(self)


def _log_mesh(problem: RadialProblem):
    """The E-independent terms of T(E) on the uniform x = ln r mesh: step
    h; on its nodes the terms of chi'' = (q - E b) chi, q = 1/4 +
    ell(ell+1) + 2M r^2 V and b = 2M r^2, with max |q| and max b; the
    weights w = h sqrt(b) of v'T'v = -|w chi|^2; q/b's suffix minima, as
    the nodes with q < E b end at the last of them below E; the stability
    floor, just above the lowest energy with f > 0 on every node; and x,
    in which _Numerov.vector forms ln|u|."""
    r = problem.grid
    x = np.log(r)
    h = float(x[1] - x[0])
    if not np.abs(np.diff(x) - h).max() <= 1e-8 + 1e-8 * abs(h):
        raise DomainError("radial solvers require a logarithmic grid")
    b = 2.0 * problem.mass * r ** 2
    q = 0.25 + problem.ell * (problem.ell + 1) + b * problem.potential()
    qb_min = np.minimum.accumulate((q / b)[::-1])[::-1]
    floor = float(np.max((q - 12.0 / h ** 2) / b))
    floor += _CERTIFY_GAP * max(1.0, abs(floor))
    w = h * np.sqrt(b)
    for shared in (q, b, w, qb_min, x):  # by every solve of the problem
        shared.flags.writeable = False
    return (h, q, b, float(np.abs(q).max()), float(b[-1]), w, qb_min, floor,
            x)


_CERTIFY_GAP = 1e-9
_RESTART = 2.0 ** -1000  # a branch's start after it overflows
_BISECT_TOL = 1e-10
_MAX_DOUBLINGS = 64


def _log_step(s: float, g, h: float) -> float:
    """ln chi(x0 + h) - ln chi(x0) to third order in h, from chi'/chi = s at
    x0 and g = chi''/chi at x0, x0 + h, x0 + 2h: L = ln chi has L' = s,
    L'' = g - s^2 (Riccati) and L''' = g' - 2 s L''."""
    d2 = g[0] - s * s
    d3 = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * h) - 2.0 * s * d2
    return h * s + h * h / 2.0 * d2 + h ** 3 / 6.0 * d3


def _edge(bc: RobinBoundary | tuple[float, float], shift: float, r: float):
    """chi'/chi in x at the edge node r as a function of E, chi = r^shift f:
    shift + r f'/f, with a RobinBoundary's fixed f'/f or the tail's (M', Q)
    kappa(r; E) of each E < 0; None for a Dirichlet end.  In Python floats,
    so that _log_step of a slope that grows as E -> 0- overflows silently."""
    if not isinstance(bc, RobinBoundary):
        m, mq = bc[0], bc[0] * (bc[1] + 1.0)
        SystemAsymptotics(*bc, -1.0)  # checks (M', Q) once
        def tail(e):  # SystemAsymptotics(*bc, e).kappa(r)'s float arithmetic
            if not e < 0.0:
                raise RegimeError("asymptotic tail requires a bound state (E < 0)")
            decay = math.sqrt(-2.0 * m * e)
            return shift + r * (-decay + (mq / decay - 1.0) / r)
        return tail
    s = shift + r * bc.log_derivative
    return (lambda e: s) if math.isfinite(s) else None


class _Numerov:
    """T(E) on the unknowns' grid window [lo, hi): y_(i+1) = d_i y_i -
    y_(i-1) for y = f chi, f = 1 - h^2 (q - E b)/12 and d = 12/f - 10, end
    rows the branches' Robin starts (chi = 1 at the edge node, one _log_step
    to the next) from _edge; states lie below top, 0 under the tail."""

    def __init__(self, problem: RadialProblem, inner: RobinBoundary,
                 outer: RobinBoundary | tuple[float, float]):
        for bc, where in ((inner, INNER), (outer, OUTER)):
            if isinstance(bc, RobinBoundary) and bc.location != where:
                raise DomainError(f"boundary marked {bc.location} used at "
                                  f"{where}")
        bind_scipy()
        (self.h, self.q, self.b, self.q_max, self.b_max, self.w, self.qb_min,
         self.floor, self.x) = problem._mesh
        self.w_chi = np.empty(len(self.b))  # room for w chi (mismatch)
        self.r, self.ell, self.counts, self.solves = problem.grid, problem.ell, 0, 0
        # (edge node, direction, slope) of each end; None drops the node
        ends = ((0, 1, _edge(inner, self.ell + 0.5, float(self.r[0]))),
                (-1, -1, _edge(outer, 0.5, float(self.r[-1]))))
        self.lo = int(ends[0][2] is None)
        self.hi = len(self.r) - (ends[1][2] is None)
        self.ends = [end for end in ends if end[2] is not None]
        self.top = math.inf if isinstance(outer, RobinBoundary) else 0.0
        # both branches' band, unit lower with two subdiagonals, in Fortran
        # order, which f2py passes to LAPACK tbtrs without a copy; split is
        # the inward block's first row
        self.ab = np.ones((3, self.hi - self.lo + 2), order="F")
        self.split = 2

    def diagonal(self, e):
        """d(E) and f on every node.  StiffnessError if an end row
        overflows, or where q - E b or f may leave the double range ((max
        |q| + |E| max b) h^2/12 does); there the ends' slopes come first, so
        that the tail's E >= 0 raises RegimeError."""
        h = self.h
        if not (self.q_max + self.b_max * abs(e)) * (h * h / 12.0) < math.inf:
            for _, _, slope in self.ends:
                slope(e)
            raise StiffnessError(f"q - E b leaves the double range at "
                                 f"E = {e:.6g}")
        # g = q - E b, f = 1 - h^2 g/12 and d = 12/f - 10, no temporaries
        g = self.b * e
        np.subtract(self.q, g, out=g)
        f = g * (h * h / 12.0)
        np.subtract(1.0, f, out=f)
        d = 12.0 / f
        d -= 10.0
        try:
            for i, sign, slope in self.ends:
                f0, f1 = f[i:i + 2 * sign:sign].tolist()
                d[i] = f1 / f0 * math.exp(_log_step(
                    slope(e), g[i:i + 3 * sign:sign].tolist(), sign * h))
        except OverflowError:
            raise StiffnessError(f"an end row's Robin step overflows at "
                                 f"E = {e:.6g}") from None
        return d, f

    def turning(self, e) -> int:
        """E's outer turning node, the last with q < E b, clamped to
        [3, n - 4], which leaves each branch the nodes around it that the
        splice and the count read."""
        return min(max(int(self.qb_min.searchsorted(e)) - 1, 3), len(self.r) - 4)

    def count(self, e, got=None) -> int:
        """T(E)'s negative eigenvalues, the states below E, by the twisted
        factorisation of T at got = branches(e)'s split, the turning node t
        (K. V. Fernando, SIAM J. Matrix Anal. Appl. 18, 1013 (1997), allows
        any t): the outward branch on nodes lo..t is T's leading minors D_0
        = 1 ... D_k, the inward one on hi-1..t its trailing minors E_m = 1
        ... E_(k+1), each times its start (2^-1000 after a restart), which
        keeps their signs and ratios, and the count their sign changes plus
        [gamma < 0], gamma = d_t - D_(k-1)/D_k - E_(k+2)/E_(k+1)."""
        self.counts += 1
        d, _, t, y = got or self.branches(e)
        k = t - self.lo  # y[k] = D_k and y[-1] = E_(k+1), at node t
        sign = np.signbit(y)
        # less the changes around y[k + 1], D_(k+1), which is unused
        changes = (np.count_nonzero(sign[1:] != sign[:-1])
                   - (sign[k] != sign[k + 1]) - (sign[k + 1] != sign[k + 2]))
        gamma = (d[t].item() - y[k - 1].item() / y[k].item()
                 - y[-2].item() / y[-1].item())
        return int(changes) + (gamma < 0.0)

    def mismatch(self, e, got=None) -> tuple[float, float]:
        """The Casoratian of got = branches(e)'s branches as splice() meets
        them at the turning node t, over the pairs' norms: det T(E)
        bounded, of sign (-1)^count; and Cooley's energy correction (J. W.
        Cooley, Math. Comp. 15, 363 (1961)), the Newton step -v'Tv / v'T'v
        of the spliced branches v, T' = diag(-h^2 b / f^2) (end rows held
        fixed): v'T'v = -|w v / f|^2."""
        d, f, t, y = got or self.branches(e)
        (o0, o1), (i0, i1), (no, ni) = self.splice(t, y)
        lo, hi, k = self.lo, self.hi, t - self.lo
        # |w chi| over each branch by BLAS nrm2, which neither overflows nor
        # underflows on a branch's 1e308
        out = np.divide(y[:k + 1], f[lo:t + 1], out=self.w_chi[:k + 1])
        out *= self.w[lo:t + 1]
        inw = np.divide(y[k + 2:-1], f[hi - 1:t:-1],
                        out=self.w_chi[k + 1:hi - lo])
        inw *= self.w[hi - 1:t:-1]
        # v = outward / o0 up to t, inward / i0 beyond, Tv on row t alone:
        # v'Tv = cas / (o0 i0), |w chi|^2 = (wo^2 + wi^2) / (o0 i0)^2
        wo, wi = i0 * dnrm2(out) / 2.0 / no, o0 * dnrm2(inw) / 2.0 / ni
        cas = o1 * i0 - o0 * i1
        return cas, o0 * i0 * cas / (wo * wo + wi * wi)

    def point(self, e) -> tuple[float, int, float]:
        """(E, count, Cooley's step) from one branches() solve."""
        return e, self.count(e, got := self.branches(e)), self.mismatch(e, got)[1]

    def start(self) -> list[tuple[float, int, float]]:
        """(E, count, nan) at e0, the bottom of q/b or the stability floor
        if higher, and where T has states there at the first energy with
        none on steps down doubling from max(|e0|, 1) to the floor, where a
        state left raises StiffnessError; no step: rungs seldom isolate.
        e0's count 0 is proved, not solved, where d(e0) >= 2 on every
        interior row and >= 1 on each Robin end row: T(e0) is then weakly
        diagonally dominant with d >= 0, and Gershgorin's discs hold no
        negative eigenvalue; elsewhere it is counted."""
        e, floor = max(float(self.qb_min[0]), self.floor), self.floor
        d = self.diagonal(e)[0]
        proved = d[1:-1].min() >= 2.0 and all(d[i] >= 1.0
                                               for i, _, _ in self.ends)
        pts = [(e, 0 if proved else self.count(e), math.nan)]
        step = max(abs(e), 1.0)
        while pts[0][1] and e > floor:
            e, step = max(e - step, floor), 2.0 * step
            pts[:-1] = [(e, self.count(e), math.nan)]  # the lower rung
        if pts[0][1]:
            raise StiffnessError(f"log mesh too coarse for Numerov: T(E) has "
                                 f"{pts[0][1]} states below E = {floor:.6g}")
        return pts

    def branches(self, e):
        """T(E) solved at E: d, f, the split node t = turning(e) and y.  One
        tbtrs solve gives y: y = 1 at node lo outward over nodes lo..t+1,
        then y = 1 at node hi-1 inward over hi-1..t, the band's couplings
        between the blocks zero.  Where a branch's pair at t overflows or
        vanishes, one more solve starts that branch at 2^-1000, which
        leaves it about 1,400 nats of growth to 2^1024; an outward overflow
        makes the inward block NaN too (inf * 0), and both restart.  A
        branch that fails again raises StiffnessError."""
        self.solves += 1
        d, f = self.diagonal(e)
        lo, hi, ab = self.lo, self.hi, self.ab
        t = self.turning(e)
        s = t - lo + 2
        np.negative(d[lo:t + 1], out=ab[1, :s - 1])
        np.negative(d[hi - 1:t:-1], out=ab[1, s:-1])
        ab[1, s - 1] = 0.0
        ab[2, self.split - 2:self.split] = 1.0
        ab[2, s - 2:s] = 0.0
        self.split = s
        starts = [1.0, 1.0]
        for _ in range(2):
            y = np.zeros(ab.shape[1])
            y[0], y[s] = starts
            y, info = dtbtrs(ab, y, uplo="L", diag="U", overwrite_b=True)
            if info != 0:
                raise ConvergenceError(f"tbtrs failed: info {info}")
            # an overflow anywhere in a branch reaches its last pair, as
            # each y is carried on to the y two rows on with coefficient 1
            (o0, o1), (i0, i1) = y[s - 2:s].tolist(), y[:-3:-1].tolist()
            if o0 and i0 and all(map(math.isfinite, (o0, o1, i0, i1))):
                return d, f, t, y
            starts = [a if p[0] and all(map(math.isfinite, p)) else _RESTART
                      for a, p in zip(starts, ((o0, o1), (i0, i1)))]
        raise StiffnessError(f"Numerov propagation overflowed at E = {e}: "
                             f"a branch of T(E) overflows or vanishes from "
                             f"its start at 2^-1000 too")

    def splice(self, t, y):
        """The pairs of the branches in y at nodes t, t + 1 over their
        norms, and half the norms, which no finite pair overflows."""
        k = t - self.lo
        (o0, o1), (i0, i1) = y[k:k + 2].tolist(), y[:-3:-1].tolist()
        o0, o1, i0, i1 = o0 / 2.0, o1 / 2.0, i0 / 2.0, i1 / 2.0
        no, ni = math.hypot(o0, o1), math.hypot(i0, i1)
        return (o0 / no, o1 / no), (i0 / ni, i1 / ni), (no, ni)

    def vector(self, e, got=None) -> np.ndarray:
        """u at a root E from got = branches(e), in logarithms, so that only
        u need lie in the double range: ln|r chi| = ln|y/f| + x on the
        outward branch up to the turning node t and the inward one beyond,
        plus the log of its scale to meet the outward over nodes t, t + 1 by
        splice()'s pairs; shifted by its maximum, its exp gives int P^2 dr =
        int (r chi)^2 dx by the trapezoid rule, and ln|u| = ln|r chi| - (ell
        + 3/2) x - ln(norm) one exp, of chi's sign (f > 0 above the floor),
        about |ln u| 2^-53 relative off.  Overflow where u leaves the double
        range."""
        d, f, t, y = got or self.branches(e)
        (o0, o1), (i0, i1), (no, ni) = self.splice(t, y)
        lo, hi, x, meet = self.lo, self.hi, self.x, o0 * i0 + o1 * i1
        chi = np.zeros(len(self.r))  # of chi's sign: y, and meet's inward
        chi[lo:t + 1] = y[:t - lo + 1]
        chi[t + 1:hi] = y[-2:t - lo + 1:-1] * math.copysign(1.0, meet)
        with np.errstate(divide="ignore", over="ignore"):  # ln 0 off [lo, hi)
            log = np.abs(chi)
            np.log(log, out=log)
            log -= np.log(f)
            log += x
            log[t + 1:hi] += math.log(abs(meet)) + math.log(no) - math.log(ni)
            log -= log.max()
            u = np.exp(log)
            norm2 = self.h * (u @ u - (u[0] * u[0] + u[-1] * u[-1]) / 2.0)
            log -= 0.5 * math.log(norm2) + (self.ell + 1.5) * x
            np.exp(log, out=u)
        if not u.max() < math.inf:
            raise Overflow(f"u of the state at E = {e!r} leaves the double "
                           f"range")
        return np.copysign(u, chi, out=u)


_MAXITER = 100
_RTOL_FLOOR = 4.0 * 2.0 ** -52
# Cooley's steps below _ROUNDING max(1, |E|) may be the mismatch's rounding:
# on 8,000 to 16,000 nodes they stall at up to about 1e-11 of E
_ROUNDING = 1e-11


def _newton(f, lo: float, hi: float, x: float, lo_sign: float, xtol: float,
            rtol: float, floor: float = 0.0):
    """Root of f in [lo, hi] and the evaluations of f it took, by Newton's
    method inside the bracket from x, evaluating neither end.  f(x)
    returns a value of f's sign and a Newton step, about -f/f'; lo_sign is
    f's sign at lo, and hi's is the other.  A step that leaves the bracket,
    or is over half the step before it, becomes a bisection.  With delta =
    (xtol + rtol |x|)/2 and noise = floor max(1, |x|), the rounding of f's
    steps, the root is x + step once a Newton step at most half the Newton
    step before it, last, is within max(delta, noise) and leaves an error
    of about step^2/|last| (at the rate |step/last| the steps shrink by)
    within delta; or once two Newton steps in a row are within noise; or
    the midpoint of a bracket 2 delta wide.  At a root of odd multiplicity
    m > 1 the steps shrink by (m - 1)/m only, and the bisections end it.
    xtol > 0 and rtol >= _RTOL_FLOOR keep delta above the spacing of
    doubles; _MAXITER evaluations short of the tolerance raise
    ConvergenceError."""
    a, b = float(lo), float(hi)  # f < 0 at a iff neg
    calls, neg = 0, lo_sign < 0.0
    last, newton = math.inf, False  # the step to x, and whether Newton's
    for _ in range(_MAXITER):
        fx, step = f(x)
        calls += 1
        if fx == 0.0:
            return x, calls
        if (fx < 0.0) == neg:
            a = x
        else:
            b = x
        delta = (xtol + rtol * abs(x)) / 2.0
        left, right = min(a, b), max(a, b)
        nxt = x + step
        noise = floor * max(1.0, abs(x))
        settled = (abs(step) <= min(max(delta, noise), abs(last) / 2.0)
                   and step * step <= delta * abs(last))
        if newton and left <= nxt <= right and (
                settled or max(abs(step), abs(last)) <= noise):
            return nxt, calls
        if right - left <= 2.0 * delta:
            return 0.5 * (left + right), calls
        newton = left < nxt < right and abs(step) <= abs(last) / 2.0
        if not newton:
            nxt = 0.5 * (left + right)
        last, x = nxt - x, nxt
    raise ConvergenceError(f"root not within (xtol + rtol |x|) of {x!r} "
                           f"after {_MAXITER} steps")


def _state(op: _Numerov, j: int, pts: list[tuple[float, int, float]],
           xtol: float, rtol: float) -> tuple[float, RadialFunction]:
    """State j of T(E) from its counted energies pts, (E, count, Cooley's
    step or nan), to which it adds its bisection's: bisected to the pair
    lo, hi with j and j + 1 states below, where the mismatch has signs
    (-1)^j and (-1)^(j + 1), or ConvergenceError; rooted by _newton on
    Cooley's steps, each spliced at its own turning node, from E + step of
    an isolating end strictly inside the pair, the smaller |step| where
    both are, else the pair's midpoint; certified by j states below E - d
    and j + 1 below E + d, d = max(1e-9 max(1, |E|), xtol + rtol |E|), or
    ConvergenceError, counts never falling with E: j at E and lo <= E - d
    settle E - d, j + 1 at E and hi >= E + d settle E + d; then one cuspbc
    debug event of the counts, mismatches and solves since the last."""
    lo, hi = max(p for p in pts if p[1] <= j), min(p for p in pts if p[1] > j)
    while (lo[1], hi[1]) != (j, j + 1):
        e = 0.5 * (lo[0] + hi[0])
        if hi[0] - lo[0] <= _BISECT_TOL * max(1.0, abs(e)):
            raise ConvergenceError(
                f"state {j} not isolated: {lo[1]} states below "
                f"{lo[0]!r}, {hi[1]} below {hi[0]!r}")
        pts.append(op.point(e))
        lo, hi = (pts[-1], hi) if pts[-1][1] <= j else (lo, pts[-1])
    inside = [(abs(s), e + s) for e, _, s in (lo, hi) if lo[0] < e + s < hi[0]]
    x = min(inside)[1] if inside else 0.5 * (lo[0] + hi[0])
    e, calls = _newton(op.mismatch, lo[0], hi[0], x, (-1.0) ** j, xtol, rtol,
                       _ROUNDING)
    delta = max(_CERTIFY_GAP * max(1.0, abs(e)), xtol + rtol * abs(e))
    at = op.count(e, got := op.branches(e))
    if not ((at == j and lo[0] <= e - delta or op.count(e - delta) == j) and
            (at == j + 1 and hi[0] >= e + delta or op.count(e + delta) == j + 1)):
        raise ConvergenceError(
            f"state {j} failed its certificate: T(E) has {op.count(e - delta)}"
            f" and {op.count(e + delta)} states below E -/+ {delta:.1g}")
    _log.debug("state %(state)d on %(mesh)d nodes: %(counts)d counts, "
               "%(mismatches)d mismatch evaluations, %(solves)d solves",
               {"state": j, "mesh": len(op.r), "counts": op.counts,
                "mismatches": calls, "solves": op.solves})
    op.counts = op.solves = 0
    return e, RadialFunction(op.r, op.vector(e, got), op.ell, "u")


def solve_shooting(problem: RadialProblem, inner: RobinBoundary,
                   outer: RobinBoundary | None,
                   e_bracket: tuple[float, float],
                   asymptotics: SystemAsymptotics | None = None,
                   rtol: float = 1e-12) -> tuple[float, RadialFunction]:
    """Numerov shooting on the log mesh (J. W. Cooley, Math. Comp. 15, 363
    (1961)): solve_matrix's state j, under the same Robin or Dirichlet ends,
    in the caller's e_bracket (ends in either order), not one the counts
    isolate.  Counts of j states below its lower end and j + 1 below its
    upper one name the state, and any other pair raises NoSignChange; an
    end at or below T(E)'s first rung (_Numerov.start), where f > 0 on
    every node, has no state below it and is not counted, and the root's
    bracket starts there.  _state takes both counted ends, with no step,
    so its one start rule gives the bracket's midpoint, roots the state
    with xtol = 1e-12 and rtol >= 4 * 2**-52, and certifies it by counts at
    E, on its function's solve, and at E -/+ delta, or ConvergenceError.
    With asymptotics the outer log-derivative follows each trial energy,
    and outer is not used (it may be None).  The error is O(h^4) in the
    mesh step, as the matrix route's: the routes' agreement checks the
    root, not the mesh.  A mesh too coarse for Numerov raises StiffnessError."""
    if len(e_bracket) != 2:
        raise DomainError(f"e_bracket must be finite and two real numbers, "
                          f"got {e_bracket!r}")
    for e in e_bracket:
        check_finite(e_bracket=e)
    check_finite(rtol=rtol)
    if not rtol >= _RTOL_FLOOR:
        raise DomainError(f"rtol = {rtol!r} must be at least 4 * 2**-52")
    if asymptotics is not None:
        outer = (asymptotics.total_reduced_mass, asymptotics.total_charge)
    elif outer is None:
        raise DomainError("shooting needs an outer boundary or asymptotics")
    op = _Numerov(problem, inner, outer)
    first = op.start()[0][0]
    lo, hi = sorted(map(float, e_bracket))
    j, above = (op.count(e) if e > first else 0 for e in (lo, hi))
    if above != j + 1:
        raise NoSignChange(f"T(E) has {j} states below {lo!r} and {above} "
                           f"below {hi!r}: the bracket holds {above - j}, "
                           f"not one")
    return _state(op, j, [(max(lo, first), j, math.nan),
                          (hi, j + 1, math.nan)], 1e-12, rtol)


def _states(op: _Numerov, k: int) -> list[tuple[float, RadialFunction]]:
    """The k lowest states of T(E), as solve_matrix finds them."""
    check_natural(k, "k")
    if not 1 <= k <= op.hi - op.lo:
        raise DomainError(f"k = {k} is not between 1 and the {op.hi - op.lo} "
                          f"unknowns of the mesh")

    def counted(e, how):  # how(e), or None on StiffnessError
        try:
            return how(e)
        except StiffnessError:
            return None

    def beyond(e, count):
        below = (f"E = {op.top:g}, the bound states the box holds"
                 if math.isfinite(op.top) else f"E = {e:.6g}")
        return DomainError(f"k = {k} exceeds the {count} states of the mesh "
                           f"below {below}")

    pts = op.start()
    e = pts[-1][0]
    if math.isfinite(op.top):
        # the search below halves from e towards top (E = 0), and the count
        # never falls with E: one count where the halving would stop shows
        # whether k states lie below
        last = op.top + (e - op.top) * 0.5 ** (_MAX_DOUBLINGS + 1 - len(pts))
        count = counted(last, op.count)
        if count is not None and count < k:
            raise beyond(last, count)
    step = abs(e) or 1.0
    while pts[-1][1] < k:
        e = min(e + step, 0.5 * (e + op.top))  # doubling, or halving to top
        step *= 2.0
        point = counted(e, op.point) if len(pts) <= _MAX_DOUBLINGS else None
        if point is None:
            raise beyond(*pts[-1][:2])
        pts.append(point)
    return [_state(op, j, pts, 1e-14, 1e-13) for j in range(k)]


def solve_matrix(problem: RadialProblem, inner: RobinBoundary,
                 outer: RobinBoundary, k: int) -> list[tuple[float, RadialFunction]]:
    """The k lowest states under fixed Robin or Dirichlet ends, of the
    tridiagonal T(E) = tridiag(-1, d(E), -1) of Numerov's recurrence, whose
    end rows are the two Robin starts: it is singular at the eigenvalues and
    has as many negative eigenvalues as states below E (B. R. Johnson, J.
    Chem. Phys. 67, 4086 (1977)).  State j is isolated by bisecting this
    count to (j, j + 1), then started, rooted and certified by _state as
    shooting's state is, from E + Cooley's step of an isolating count inside
    the pair, else its midpoint, with xtol = 1e-14 and rtol = 1e-13: counted
    at E on its function's solve and at E -/+ delta, or ConvergenceError."""
    return _states(_Numerov(problem, inner, outer), k)


def solve_matrix_selfconsistent(problem: RadialProblem, inner: RobinBoundary,
                                total_reduced_mass: float, total_charge: float,
                                k: int) -> list[tuple[float, RadialFunction]]:
    """solve_matrix with each state under the outer Robin condition of its
    own energy, R'/R = kappa(r_max; E_j), as solve_shooting with asymptotics:
    T(E)'s outer row takes kappa(E), and falls with E, in every count and
    mismatch.  robin_outer's guard r_max >= 20/decay binds the ground
    state's energy only; excited states keep their O(1/r^2) remainder."""
    pairs = _states(_Numerov(problem, inner, (total_reduced_mass,
                                              total_charge)), k)
    robin_outer(SystemAsymptotics(total_reduced_mass, total_charge,
                                  pairs[0][0]), problem.grid[-1])
    return pairs


_OUTER_POINTS = 8


def outer_log_derivative(fn: RadialFunction) -> float:
    """R'/R at r_max: the slope there of the degree-7 polynomial through
    ln|R| on the _OUTER_POINTS = 8 outermost nodes, in r - r_max."""
    tail = slice(-_OUTER_POINTS, None)
    g, v = fn.grid[tail], fn._full(tail)
    if np.any(v == 0.0):
        raise SingularityError("zero radial value in the outer window")
    return float(_polyfit(g - g[-1], np.log(np.abs(v)), _OUTER_POINTS - 1)[1])


def hydrogen_reference(n: int, ell: int, z: float) -> tuple[float, CuspSeries]:
    """Analytic hydrogen-like oracle: E = -Z^2/(2 n^2) and the first series
    coefficients of u for a fixed nucleus of charge Z."""
    check_natural(n, "n")
    if not (0 <= ell <= n - 1):
        raise DomainError(f"need 0 <= ell <= n-1, got n={n}, ell={ell}")
    energy = -z * z / (2.0 * n * n)
    pair = CoalescencePair.electron_nucleus(z)
    series = cusp_series(pair, ell, 0.0, energy, order=2)
    return energy, series
