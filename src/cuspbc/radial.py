"""Radial eigensolvers with Robin boundary conditions at both ends.

Both routes work on one discretisation, the uniform x = ln r mesh of the
problem's grid with chi = P/sqrt(r) = r^(ell+1/2) u: Numerov shooting on
the log mesh with Casoratian matching, and a symmetric tridiagonal pencil
on the same nodes.  The pencil's states are bisected on the Sturm count
on the Richardson half mesh only; on the mesh itself they are refined
from the half-mesh states by inverse iteration with Rayleigh-Ritz, each
step on the pencil of the last energy where the outer condition depends
on it, and certified once by two exact Sturm counts, with bisection by
index as the fallback.  The solved equation is the reduced radial problem

    -u''/(2M) - (ell+1)/(M r) u' + [q1 q2 / r + W0 + V_extra(r)] u = E u

for u = R / r^ell, with u'/u -> a at the inner edge and the bound-state
log-derivative kappa(r) at the outer edge.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
# unused here; bound because perfbench/tracing.py wraps radial.solve_ivp
# and radial.eigsh
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.linalg import LinAlgError, eigh, eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dstebz
from scipy.optimize import brentq
from scipy.sparse.linalg import eigsh  # noqa: F401

from .cusp import CuspSeries, CoalescencePair, cusp_series
from .errors import (ConvergenceError, DomainError, NoSignChange,
                     RegimeError, SingularityError, StiffnessError)
from .gridfn import RadialFunction

INNER = "inner"
OUTER = "outer"

_log = logging.getLogger(__name__)


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
    if ell < 0:
        raise DomainError("ell must be non-negative")
    return RobinBoundary(INNER, 1.0, -a)


@dataclass(frozen=True)
class SystemAsymptotics:
    """Large-r data of the full system: reduced mass M' of the escaping
    particle against the rest, total charge Q, and the (negative) energy."""

    total_reduced_mass: float
    total_charge: float
    energy: float

    def __post_init__(self):
        if not (self.total_reduced_mass > 0.0):
            raise DomainError("total_reduced_mass must be positive")
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
    """R(r) = v0 exp(-decay*r) r^power at large r."""
    rs = np.asarray(r, dtype=float)
    if np.any(rs <= 0.0):
        raise DomainError("r must be positive")
    out = v0 * np.exp(-sys.decay * rs) * rs ** sys.power
    return float(out) if rs.shape == () else out


def log_grid(r_min: float = 1e-5, r_max: float = 40.0, n: int = 2000) -> np.ndarray:
    return np.exp(np.linspace(math.log(r_min), math.log(r_max), n))


@dataclass(frozen=True)
class RadialProblem:
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
        if g[0] <= 0.0 or np.any(np.diff(g) <= 0.0):
            raise DomainError("grid must be strictly increasing with r_min > 0")
        if self.ell < 0:
            raise DomainError("ell must be non-negative")
        if not (self.mass > 0.0):
            raise DomainError("mass must be positive")
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
        """q1 q2 / r + W0 + V_extra on the grid (or interpolated at r)."""
        if r is None:
            v = self.pair_product / self.grid + self.w0
            if self.extra_potential is not None:
                v = v + self.extra_potential
            return v
        rs = np.asarray(r, dtype=float)
        v = self.pair_product / rs + self.w0
        if self.extra_potential is not None:
            v = v + np.interp(rs, self.grid, self.extra_potential)
        return v


def _require_location(bc: RobinBoundary, where: str) -> None:
    if bc.location != where:
        raise DomainError(f"boundary marked {bc.location} used at {where}")


def _log_mesh(problem: RadialProblem):
    """Step h of the uniform x = ln r mesh and, on its nodes, the terms of
    chi'' = (q - E b) chi: q = 1/4 + ell(ell+1) + 2M r^2 V and b = 2M r^2."""
    r = problem.grid
    x = np.log(r)
    h = x[1] - x[0]
    if not np.allclose(np.diff(x), h, rtol=1e-8):
        raise DomainError("radial solvers require a logarithmic grid")
    b = 2.0 * problem.mass * r ** 2
    q = 0.25 + problem.ell * (problem.ell + 1) + b * problem.potential()
    return h, q, b


# ---------------------------------------------------------------------------
# shooting route


def _log_step(s: float, g, h: float) -> float:
    """ln chi(x0 + h) - ln chi(x0) to third order in h, from chi'/chi = s at
    x0 and g = chi''/chi at x0, x0 + h, x0 + 2h: L = ln chi has L' = s,
    L'' = g - s^2 (Riccati) and L''' = g' - 2 s L''."""
    d2 = g[0] - s * s
    d3 = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * h) - 2.0 * s * d2
    return h * s + h * h / 2.0 * d2 + h ** 3 / 6.0 * d3


def _numerov(c, y0: float, y1: float) -> list[float]:
    """y_{i+1} = c_i y_i - y_{i-1} from (y0, y1), one node per entry of c."""
    ys = [y0, y1]
    for ci in c:
        y0, y1 = y1, ci * y1 - y0
        ys.append(y1)
    return ys


def solve_shooting(problem: RadialProblem, inner: RobinBoundary,
                   outer: RobinBoundary, e_bracket: tuple[float, float],
                   asymptotics: SystemAsymptotics | None = None,
                   rtol: float = 1e-12) -> tuple[float, RadialFunction]:
    """Numerov shooting on the log mesh (J. W. Cooley, Math. Comp. 15, 363
    (1961)): propagate chi outward from the inner Robin slope and inward
    from the outer one, match at the middle node, and root-find the energy
    on the sign of the normalized Casoratian there.  rtol is the relative
    energy tolerance of the root finder.

    The error is O(h^4) in the step of the problem's own log mesh, with no
    extrapolation: a coarser grid gives a less accurate energy.  The matrix
    route shares the mesh, so agreement between the two routes does not
    check the mesh; only analytic references do.

    If asymptotics is given, the outer log-derivative is recomputed from
    each trial energy instead of being frozen at the supplied boundary.
    """
    _require_location(inner, INNER)
    _require_location(outer, OUTER)
    if not math.isfinite(inner.log_derivative):
        raise DomainError("shooting requires a genuine inner Robin condition")
    if asymptotics is None and not math.isfinite(outer.log_derivative):
        raise DomainError("shooting requires a genuine outer Robin condition")
    h, q, b = _log_mesh(problem)
    r = problem.grid
    ell, n = problem.ell, len(r)
    mid = (n - 1) // 2
    # chi'/chi in x at the inner node: u'/u = a with chi = r^(ell+1/2) u
    s_in = ell + 0.5 + inner.log_derivative * r[0]

    def branches(e):
        """Numerov y = f chi, outward on nodes 0..mid+1, inward on mid..n-1."""
        g = q - e * b
        f = 1.0 - h * h / 12.0 * g
        c = ((12.0 - 10.0 * f) / f).tolist()
        if asymptotics is not None:
            kap = replace(asymptotics, energy=e).kappa(r[-1])
        else:
            kap = outer.log_derivative
        # each branch starts from chi = 1 at its edge node and one Taylor
        # step of ln chi, so both Robin slopes hold for any r_min and r_max
        step_in = _log_step(s_in, g[:3], h)
        step_out = _log_step(0.5 + kap * r[-1], g[:-4:-1], -h)
        yo = _numerov(c[1:mid + 1], f[0], f[1] * math.exp(step_in))
        yi = _numerov(c[n - 2:mid:-1], f[-1], f[-2] * math.exp(step_out))[::-1]
        return yo, yi, f

    def mismatch(e):
        yo, yi, _ = branches(e)
        no, ni = math.hypot(yo[-2], yo[-1]), math.hypot(yi[0], yi[1])
        if not (math.isfinite(no) and math.isfinite(ni) and no * ni > 0.0):
            raise StiffnessError(f"Numerov propagation overflowed at E = {e}")
        # discrete Wronskian of the recurrence, constant along the mesh;
        # normalized it is bounded and free of poles at nodes of chi
        return (yo[-1] * yi[0] - yo[-2] * yi[1]) / (no * ni)

    e_lo, e_hi = e_bracket
    f_lo, f_hi = mismatch(e_lo), mismatch(e_hi)
    if f_lo * f_hi > 0.0:
        raise NoSignChange(
            f"mismatch has the same sign at both bracket ends "
            f"({f_lo:.3g}, {f_hi:.3g})"
        )
    energy = brentq(mismatch, e_lo, e_hi, xtol=1e-12, rtol=rtol)

    yo, yi, f = branches(energy)
    if not f.min() > 0.0:
        # h^2 (q - E b)/12 >= 1 somewhere: Numerov flips the sign of chi at
        # every such node, so the root above need not be an eigenvalue
        raise StiffnessError(f"log mesh too coarse for Numerov at E = {energy}")
    # splice the inward branch onto the outward one over nodes mid, mid+1
    scale = (yo[-2] * yi[0] + yo[-1] * yi[1]) / (yi[0] ** 2 + yi[1] ** 2)
    chi = np.concatenate([yo[:-1], scale * np.asarray(yi[1:])]) / f
    u = chi * r ** (-ell - 0.5)
    p = r ** (ell + 1) * u
    norm = math.sqrt(np.trapezoid(p * p, r))
    u /= norm * math.copysign(1.0, u[0])
    return energy, RadialFunction(r, u, ell, "u")


# ---------------------------------------------------------------------------
# matrix route

_WALL = RobinBoundary(OUTER, 0.0, 1.0)
_MAX_STEPS = 30
_SETTLED = 1e-12
_CERTIFY_GAP = 1e-9
_BISECT_TOL = 1e-10


def _assembler(problem: RadialProblem, inner: RobinBoundary):
    """Symmetric tridiagonal pencil (A, B) for chi(x) = P(r)/sqrt(r) on the
    uniform x = ln r mesh as a function of the outer condition, Robin rows
    folded in by ghost-point elimination (halved to preserve symmetry);
    Dirichlet ends drop their unknown.  The mesh, the potential and the
    inner row are built once, and each call folds in only the outer row,
    the one entry of A and of B that it changes.  A pencil is A's diagonal
    and off-diagonal, B's diagonal, and the grid window [lo, hi) of the
    unknowns."""
    h, q, bb = _log_mesh(problem)
    r = problem.grid
    ell = problem.ell
    diag = 2.0 / h ** 2 + q
    lo = 1
    if math.isfinite(inner.log_derivative):
        # chi-variable log-derivative at the inner edge
        s0 = ell + 0.5 + inner.log_derivative * r[0]
        diag[0] = (1.0 + h * s0) / h ** 2 + q[0] / 2.0
        bb[0] /= 2.0
        lo = 0

    def assemble(outer: RobinBoundary):
        d, b, hi = diag.copy(), bb.copy(), len(r) - 1
        if math.isfinite(outer.log_derivative):
            s1 = outer.log_derivative * r[-1] + 0.5
            d[-1] = (1.0 - h * s1) / h ** 2 + q[-1] / 2.0
            b[-1] /= 2.0
            hi = len(r)
        off = np.full(hi - lo - 1, -1.0 / h ** 2)
        return d[lo:hi], off, b[lo:hi], (lo, hi)

    return assemble


def _scaled(d, e, b):
    """T = B^(-1/2) A B^(-1/2), which shares the pencil's inertia: its
    diagonal and off-diagonal, and B^(-1/2)."""
    s = 1.0 / np.sqrt(b)
    return d * s * s, e * s[:-1] * s[1:], s


def _step(d, e, b, w, v):
    """One inverse-iteration step per column of v at its Ritz value w_j,
    (A - w_j B) y = B v_j (LAPACK gtsv), then Rayleigh-Ritz on the columns
    jointly.  The step restores the vectors' relative accuracy at the inner
    nodes; the Ritz step keeps the vectors of clustered states
    B-orthonormal.  Returns the Ritz values and vectors."""
    y = np.empty_like(v)
    for j, wj in enumerate(w):
        *_, yj, info = dgtsv(e, d - wj * b, e, (b * v[:, j])[:, None])
        if info != 0:
            raise LinAlgError(f"dgtsv info {info} at E = {wj}")
        y[:, j] = yj[:, 0] / np.linalg.norm(yj)
    # y'Ay = sum pot y^2 - e sum (dy)^2 with pot = d + e * (neighbours of
    # the node): both sums are O(1), where d ~ 2/h^2 would cancel
    pot = d + 2.0 * e[0]
    pot[[0, -1]] = d[[0, -1]] + e[0]
    dy = np.diff(y, axis=0)
    w, c = eigh(y.T @ (pot[:, None] * y) - e[0] * (dy.T @ dy),
                y.T @ (b[:, None] * y))
    return w, y @ c


def _rows(problem, window, v):
    """Pencil vectors (columns of v on the unknowns `window`) as rows of u
    on the grid, normalised and positive at the inner edge."""
    lo, hi = window
    grid = problem.grid
    chi = np.zeros((v.shape[1], len(grid)))
    chi[:, lo:hi] = v.T
    u = chi * grid ** (-problem.ell - 0.5)
    norm = np.sqrt(np.trapezoid(chi * chi * grid ** 2, np.log(grid)))
    return u / (norm * np.copysign(1.0, u[:, max(lo, 1)]))[:, None]


def _eig(problem, pencil, k, first=0):
    """States first..k-1 of the pencil, assembled on problem's mesh: their
    energies and, one row per state, u on the grid, normalised and
    positive at the inner edge.  Bisection on the Sturm count of
    T = B^(-1/2) A B^(-1/2) returns exactly these states by index (LAPACK
    stebz, run to the absolute _BISECT_TOL: its default tolerance,
    eps * ||T|| ~ 4e-2, does not resolve them), and one _step on stebz's
    vectors gives them to rounding level.  A state bisected alone is told
    apart from a neighbour more than _BISECT_TOL away, at least ten times
    below the gap that _refine's certificate resolves."""
    d, e, b, window = pencil
    if k > len(d):
        raise DomainError(f"k = {k} exceeds the {len(d)} unknowns of the mesh")
    td, te, s = _scaled(d, e, b)
    try:
        w, x = eigh_tridiagonal(td, te, select="i",
                                select_range=(first, k - 1),
                                lapack_driver="stebz",
                                tol=_BISECT_TOL)
        w, v = _step(d, e, b, w, s[:, None] * x)
    except LinAlgError as exc:
        raise ConvergenceError(f"eigensolve failed: {exc}") from exc
    return w, _rows(problem, window, v)


def _sturm_counts(d, e, b, sigma):
    """Exact number of pencil eigenvalues below each shift in sigma.  LAPACK
    stebz over (vl, sigma_i], with vl under T's Gershgorin discs and a
    tolerance wider than the interval, makes its two Sturm counts and does
    not bisect."""
    td, te, _ = _scaled(d, e, b)
    r = np.abs(te)
    vl = np.min(td - np.append(r, 0.0) - np.append(0.0, r))
    vl -= abs(vl) + 1.0
    counts = []
    for x in sigma:
        m, *_, info = dstebz(td, te, 1, vl, x, 0, 0, 2.0 * (x - vl), "E")
        if info != 0:
            raise ConvergenceError(f"stebz count failed: info {info}")
        counts.append(m)
    return np.array(counts)


def _refine(problem, pencil_at, w, u, first=0):
    """States first, first+1, ... of problem's mesh from approximations
    (energies w, u rows on the grid, as _eig returns them).  pencil_at(E)
    is the pencil under the outer row of energy E: one pencil for all E
    under a fixed outer condition, or that of kappa(r_max; E) for a
    self-consistent state, which is refined alone.  _step repeats at the
    current Ritz values, each time on the pencil of the last energy, until
    they move by at most _SETTLED max(1, |w_j|), at most _MAX_STEPS times
    (A. Ruhe, SIAM J. Numer. Anal. 10, 674 (1973)), so the outer
    condition settles with the inverse iteration.  A state whose pencil
    still moves then raises ConvergenceError; on a fixed pencil it is left
    to the certificate.  Each state j is certified once, on the last
    pencil, by two exact Sturm counts: j levels below w_j - delta and
    j + 1 below w_j + delta, delta = _CERTIFY_GAP max(1, |w_j|)
    (W. H. Wittrick and F. W. Williams, Q. J. Mech. Appl. Math. 24, 263
    (1971)).  A state that fails is bisected by index on that pencil
    (_eig).  Returns the energies, the u rows, the steps made and which
    states fell back."""
    w = np.asarray(w, dtype=float)
    pencil = pencil_at(w[0])
    v = (u * problem.grid ** (problem.ell + 0.5))[:, slice(*pencil[3])].T
    j = first + np.arange(len(w))
    try:
        for steps in range(1, _MAX_STEPS + 1):
            w_prev, (w, v) = w, _step(*pencil[:3], w, v)
            if np.all(np.abs(w - w_prev)
                      <= _SETTLED * np.maximum(1.0, np.abs(w))):
                break
            last, pencil = pencil, pencil_at(w[0])
        else:
            if pencil[0][-1] != last[0][-1]:
                raise ConvergenceError(f"outer condition of state {first} "
                                       f"did not settle in {_MAX_STEPS} steps")
    except LinAlgError as exc:
        raise ConvergenceError(f"eigensolve failed: {exc}") from exc
    delta = _CERTIFY_GAP * np.maximum(1.0, np.abs(w))
    below = _sturm_counts(*pencil[:3], np.concatenate([w - delta, w + delta]))
    failed = np.any(below.reshape(2, -1) != [j, j + 1], axis=0)
    u = _rows(problem, pencil[3], v)
    for i in np.flatnonzero(failed):
        w[i:i + 1], u[i:i + 1] = _eig(problem, pencil, j[i] + 1, j[i])
    return w, u, steps, failed


def _log_state(**stats):
    _log.debug("state %(state)d on %(mesh)d nodes: %(steps)d refinement "
               "steps, fallback %(fallback)s", stats)


def _companion(problem, inner, outer, k):
    """Checks the arguments of a matrix solve, before any eigensolve, and
    returns its Richardson companion problem on half the nodes."""
    if k < 1:
        raise DomainError("k must be at least 1")
    _require_location(inner, INNER)
    _require_location(outer, OUTER)
    g = problem.grid
    n2 = (len(g) + 1) // 2
    if n2 < 50:
        raise DomainError(f"the Richardson half mesh has {n2} < 50 points")
    walls = sum(not math.isfinite(bc.log_derivative) for bc in (inner, outer))
    for n, mesh in ((len(g), "mesh"), (n2, "Richardson half mesh")):
        if k > n - walls:
            raise DomainError(f"k = {k} exceeds the {n - walls} unknowns of "
                              f"the {mesh}")
    g2 = log_grid(g[0], g[-1], n2)
    extra = problem.extra_potential
    return replace(problem, grid=g2, extra_potential=None if extra is None
                   else np.interp(g2, g, extra))


def _transfer(prob2, u2, grid):
    """u rows of the half mesh, splined in x = ln r onto the grid."""
    from scipy.interpolate import CubicSpline

    return CubicSpline(np.log(prob2.grid), u2, axis=1)(np.log(grid))


def _richardson(problem, prob2, fine, coarse):
    """Step doubling of the (energies, u rows) `fine` of the mesh with the
    same states `coarse` of its half mesh, u already on the mesh
    (_transfer).  It removes the leading O(h^2) error, whose smooth field
    in the raw u spoils inner-cusp diagnostics at the 1e-3 level (1e-6
    after it)."""
    (w, u), (w2, u2) = fine, coarse
    g, ell = problem.grid, problem.ell
    c = ((len(g) - 1) / (len(prob2.grid) - 1)) ** 2 - 1.0
    u = u + (u - u2) / c
    p = u * g ** (ell + 1)
    u /= np.sqrt(np.trapezoid(p * p, g))[:, None]
    return [(float(e), RadialFunction(g, row, ell, "u"))
            for e, row in zip(w + (w - w2) / c, u)]


def solve_matrix(problem: RadialProblem, inner: RobinBoundary,
                 outer: RobinBoundary, k: int) -> list[tuple[float, RadialFunction]]:
    """k lowest eigenpairs of the discretized radial problem, Richardson-
    extrapolated from a half-resolution companion mesh.  Only the half
    mesh is bisected (_eig); its states, splined onto the mesh, are refined
    there jointly and certified by Sturm counts (_refine)."""
    prob2 = _companion(problem, inner, outer, k)
    w2, u2 = _eig(prob2, _assembler(prob2, inner)(outer), k)
    u2 = _transfer(prob2, u2, problem.grid)
    pencil = _assembler(problem, inner)(outer)
    w, u, steps, failed = _refine(problem, lambda e: pencil, w2, u2)
    for j in range(k):
        _log_state(state=j, mesh=len(problem.grid), steps=steps,
                   fallback=bool(failed[j]))
    return _richardson(problem, prob2, (w, u), (w2, u2))


def solve_matrix_selfconsistent(problem: RadialProblem, inner: RobinBoundary,
                                total_reduced_mass: float, total_charge: float,
                                k: int) -> list[tuple[float, RadialFunction]]:
    """k lowest states, each under the outer Robin condition of its own
    energy, R'/R = kappa(r_max; E_j), as solve_shooting with asymptotics.

    One bisection on the half mesh gives the Dirichlet-wall levels D_j and
    their vectors.  The Dirichlet pencil is the leading principal block of
    every Robin pencil, so by Cauchy interlacing D_j lies between Robin
    levels j and j + 1 for any kappa.  State j starts from (D_j, its
    Dirichlet vector) and is refined with each step under the kappa of its
    last energy (_refine, certified as state j).  Only A's last diagonal
    entry depends on E, with slope -(r_max/h) dkappa/dE < 0 for Q >= -1,
    so Sturm counts still count the states below E.  A state that falls
    back is refined once more from its bisected level, so that it is
    certified on its own energy's pencil.  The half-mesh states, splined
    onto the mesh, start the same refinement there, and the two meshes
    are Richardson-extrapolated.  Each mesh's pencil is built once
    (_assembler).  robin_outer's guard r_max >= 20/decay binds the ground
    state only."""
    prob2 = _companion(problem, inner, _WALL, k)
    r_max = problem.grid[-1]

    def settle(prob, assemble, e, row, j):
        def pencil_at(e):
            sys = SystemAsymptotics(total_reduced_mass, total_charge, e)
            return assemble(robin_outer(sys, r_max) if j == 0
                            else RobinBoundary(OUTER, 1.0, -sys.kappa(r_max)))

        w, u, steps, failed = _refine(prob, pencil_at, [e], row[None], j)
        if failed[0]:
            w, u, more, again = _refine(prob, pencil_at, w, u, j)
            if again[0]:
                raise ConvergenceError(f"state {j} failed its certificate on "
                                       f"the pencil of its own energy")
            steps += more
        _log_state(state=j, mesh=len(prob.grid), steps=steps,
                   fallback=bool(failed[0]))
        return w[0], u[0]

    def settle_all(prob, levels, rows, assemble):
        w, u = zip(*(settle(prob, assemble, e, row, j)
                     for j, (e, row) in enumerate(zip(levels, rows))))
        return np.array(w), np.array(u)

    assemble2 = _assembler(prob2, inner)
    w2, u2 = settle_all(prob2, *_eig(prob2, assemble2(_WALL), k), assemble2)
    u2 = _transfer(prob2, u2, problem.grid)
    fine = settle_all(problem, w2, u2, _assembler(problem, inner))
    return _richardson(problem, prob2, fine, (w2, u2))


def outer_log_derivative(fn: RadialFunction, n_points: int = 8) -> float:
    """R'/R at r_max from a spline through ln|R| on the outermost points.

    Meaningful only while R is resolved above the eigenvector noise floor
    (shooting output, or matrix states whose tail has not decayed to
    rounding level)."""
    big_r = fn.as_full() if fn.meaning == "u" else fn
    g = big_r.grid[-n_points:]
    v = big_r.values[-n_points:]
    if np.any(v == 0.0):
        raise SingularityError("zero radial value in the outer window")
    from scipy.interpolate import CubicSpline

    return float(CubicSpline(g, np.log(np.abs(v)))(g[-1], 1))


def hydrogen_reference(n: int, ell: int, z: float) -> tuple[float, CuspSeries]:
    """Analytic hydrogen-like oracle: E = -Z^2/(2 n^2) and the first series
    coefficients of u for a fixed nucleus of charge Z."""
    if not (0 <= ell <= n - 1):
        raise DomainError(f"need 0 <= ell <= n-1, got n={n}, ell={ell}")
    energy = -z * z / (2.0 * n * n)
    pair = CoalescencePair.electron_nucleus(z)
    series = cusp_series(pair, ell, 0.0, energy, order=2)
    return energy, series
