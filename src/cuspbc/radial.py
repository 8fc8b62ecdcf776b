"""Radial eigensolvers with Robin boundary conditions at both ends.

Both routes work on one discretisation, the uniform x = ln r mesh of the
problem's grid with chi = P/sqrt(r) = r^(ell+1/2) u: Numerov shooting on
the log mesh with Casoratian matching, and a symmetric algebraic
eigenproblem on the same nodes.  The solved equation is the reduced radial
problem

    -u''/(2M) - (ell+1)/(M r) u' + [q1 q2 / r + W0 + V_extra(r)] u = E u

for u = R / r^ell, with u'/u -> a at the inner edge and the bound-state
log-derivative kappa(r) at the outer edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
# unused here; bound because perfbench/tracing.py wraps radial.solve_ivp
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.optimize import brentq
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .cusp import CuspSeries, CoalescencePair, cusp_series
from .errors import (ConvergenceError, DomainError, NoSignChange,
                     RegimeError, SingularityError, StiffnessError)
from .gridfn import RadialFunction

INNER = "inner"
OUTER = "outer"


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


def _assemble(problem: RadialProblem, inner: RobinBoundary,
              outer: RobinBoundary):
    """Symmetric tridiagonal pencil (A, B) for chi(x) = P(r)/sqrt(r) on the
    uniform x = ln r mesh, Robin rows folded in by ghost-point elimination
    (halved to preserve symmetry); Dirichlet ends drop their unknown."""
    h, q, bb = _log_mesh(problem)
    r = problem.grid
    ell = problem.ell
    diag = 2.0 / h ** 2 + q
    lo = hi = None
    if math.isfinite(inner.log_derivative):
        # chi-variable log-derivative at the inner edge
        s0 = ell + 0.5 + inner.log_derivative * r[0]
        diag[0] = (1.0 + h * s0) / h ** 2 + q[0] / 2.0
        bb[0] /= 2.0
        lo = 0
    else:
        lo = 1
    if math.isfinite(outer.log_derivative):
        s1 = outer.log_derivative * r[-1] + 0.5
        diag[-1] = (1.0 - h * s1) / h ** 2 + q[-1] / 2.0
        bb[-1] /= 2.0
        hi = len(r)
    else:
        hi = len(r) - 1
    diag = diag[lo:hi]
    bb = bb[lo:hi]
    off = -np.ones(len(diag) - 1) / h ** 2
    a_mat = sp.diags([off, diag, off], [-1, 0, 1], format="csc")
    b_mat = sp.diags(bb, 0, format="csc")
    return a_mat, b_mat, (lo, hi)


def _spectrum_floor(problem: RadialProblem) -> float:
    floor = -2.0 * problem.mass * problem.pair_product ** 2 \
        - abs(problem.w0) - 1.0
    if problem.extra_potential is not None:
        floor -= max(0.0, -float(np.min(problem.extra_potential)))
    return floor


def _eig(problem, inner, outer, k):
    a_mat, b_mat, window = _assemble(problem, inner, outer)
    sigma = _spectrum_floor(problem)
    try:
        w, v = eigsh(a_mat, k=k, M=b_mat, sigma=sigma, which="LM")
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"eigeniteration failed: {exc}") from exc
    order = np.argsort(w)
    return w[order], v[:, order], window


def _normalized_u(problem, v_col, lo, hi):
    ell, grid = problem.ell, problem.grid
    chi = np.zeros(len(grid))
    chi[lo:hi] = v_col
    u = chi * grid ** (-ell - 0.5)
    p = chi * np.sqrt(grid)
    norm = math.sqrt(np.trapezoid(p * p * grid, np.log(grid)))
    return u / (norm * math.copysign(1.0, u[max(lo, 1)]))


def solve_matrix(problem: RadialProblem, inner: RobinBoundary,
                 outer: RobinBoundary, k: int,
                 richardson: bool = True) -> list[tuple[float, RadialFunction]]:
    """k lowest eigenpairs of the discretized radial problem.

    Both eigenvalues and eigenvectors are Richardson-extrapolated from a
    half-resolution companion mesh: the discretization is second order, so
    step doubling removes the leading error term.  The raw eigenvector
    carries a smooth O(h^2) error field that spoils inner-cusp diagnostics
    at the 1e-3 level; extrapolation (with spline transfer of the coarse
    vector) brings it below 1e-6.
    """
    if k < 1:
        raise DomainError("k must be at least 1")
    _require_location(inner, INNER)
    _require_location(outer, OUTER)
    g = problem.grid
    w, v, (lo, hi) = _eig(problem, inner, outer, k)
    us = [_normalized_u(problem, v[:, i], lo, hi) for i in range(k)]
    if richardson:
        from scipy.interpolate import CubicSpline

        n2 = (len(g) + 1) // 2
        g2 = log_grid(g[0], g[-1], n2)
        if problem.extra_potential is not None:
            prob2 = replace(problem, grid=g2,
                            extra_potential=np.interp(g2, g, problem.extra_potential))
        else:
            prob2 = replace(problem, grid=g2)
        w2, v2, (lo2, hi2) = _eig(prob2, inner, outer, k)
        rho_sq = ((len(g) - 1) / (n2 - 1)) ** 2
        w = w + (w - w2) / (rho_sq - 1.0)
        ell = problem.ell
        for i in range(k):
            u2 = _normalized_u(prob2, v2[:, i], lo2, hi2)
            u2f = CubicSpline(np.log(g2), u2)(np.log(g))
            u = us[i] + (us[i] - u2f) / (rho_sq - 1.0)
            p = g ** (ell + 1) * u
            us[i] = u / math.sqrt(np.trapezoid(p * p, g))

    return [(float(w[i]), RadialFunction(g, us[i], problem.ell, "u"))
            for i in range(k)]


def solve_matrix_selfconsistent(problem: RadialProblem, inner: RobinBoundary,
                                total_reduced_mass: float, total_charge: float,
                                k: int, track: int = 0,
                                tol: float = 1e-10, max_iter: int = 30,
                                richardson: bool = True):
    """Close the energy dependence of the outer boundary by fixed-point
    iteration: start from a Dirichlet outer wall, rebuild kappa from the
    tracked eigenvalue, repeat until it moves by less than tol."""
    outer = RobinBoundary(OUTER, 0.0, 1.0)  # Dirichlet start
    e_prev = math.inf
    for _ in range(max_iter):
        pairs = solve_matrix(problem, inner, outer, k, richardson=richardson)
        e = pairs[track][0]
        if abs(e - e_prev) < tol:
            return pairs
        if e >= 0.0:
            raise RegimeError(f"tracked state is unbound (E = {e})")
        e_prev = e
        sys = SystemAsymptotics(total_reduced_mass, total_charge, e)
        outer = robin_outer(sys, problem.grid[-1])
    raise ConvergenceError(
        f"outer-boundary fixed point did not settle in {max_iter} iterations"
    )


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
