import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import spherical_jn

from cuspbc import radial
from cuspbc.cusp import cusp_limit_first
from cuspbc.errors import (ConvergenceError, DomainError, NoSignChange,
                           RegimeError, StiffnessError)
from cuspbc.radial import (RadialProblem, RobinBoundary, _eig, _refine,
                           SystemAsymptotics, asymptotic_tail,
                           hydrogen_reference, log_grid, outer_log_derivative,
                           robin_inner, robin_outer, solve_matrix,
                           solve_matrix_selfconsistent, solve_shooting)

CASES = [(1, 0), (2, 0), (2, 1), (3, 2)]


def _pencil(problem, inner, outer):
    return radial._assembler(problem, inner)(outer)


def _hydrogen_setup(z, n_state, ell, n=2000):
    e = -z * z / (2.0 * n_state * n_state)
    # the outer-boundary precondition needs r_max >= 20/decay
    r_max = 80.0 if z == 1.0 and n_state == 3 else 40.0
    grid = log_grid(1e-5, r_max, n)
    problem = RadialProblem(ell=ell, mass=1.0, pair_product=-z, w0=0.0,
                            grid=grid)
    inner = robin_inner(ell, -z / (ell + 1))
    sysa = SystemAsymptotics(1.0, z - 1.0, e)
    outer = robin_outer(sysa, r_max)
    return e, problem, inner, outer, sysa


def test_robin_inner_examples():
    bc = robin_inner(0, -1.0)
    assert (bc.c_dpsi, bc.c_psi) == (1.0, 1.0)  # u' + u = 0
    bc = robin_inner(0, 0.5)  # electron-electron singlet
    assert (bc.c_dpsi, bc.c_psi) == (1.0, -0.5)
    assert robin_inner(1, 0.0).c_psi == 0.0  # pure Neumann


def test_robin_outer_examples():
    # hydrogen ground state: kappa(20) = -1 exactly (the 1/r bracket is 0)
    sysa = SystemAsymptotics(1.0, 0.0, -0.5)
    assert robin_outer(sysa, 20.0).log_derivative == pytest.approx(-1.0,
                                                                   abs=1e-15)
    # He+-like: decay 2, r-power bracket 2/2 - 1 = 0
    he = SystemAsymptotics(1.0, 1.0, -2.0)
    assert he.decay == 2.0
    assert he.power == 0.0
    with pytest.raises(DomainError):
        robin_outer(sysa, 5.0)  # below 20/decay
    with pytest.raises(RegimeError):
        SystemAsymptotics(1.0, 0.0, 0.1)


def test_boundary_validation():
    with pytest.raises(DomainError):
        RobinBoundary("inner", 0.0, 0.0)
    with pytest.raises(DomainError):
        RobinBoundary("middle", 1.0, 0.0)


def test_asymptotic_tail():
    sysa = SystemAsymptotics(1.0, 0.0, -0.5)
    r = np.array([1.0, 3.0, 7.0])
    assert np.allclose(asymptotic_tail(sysa, 2.0, r), 2.0 * np.exp(-r),
                       rtol=1e-15)
    # anion-like Q = -1: power = -1, tail = e^{-decay r}/r
    anion = SystemAsymptotics(1.0, -1.0, -0.5)
    assert asymptotic_tail(anion, 1.0, 2.0) == pytest.approx(
        math.exp(-2.0) / 2.0, rel=1e-15)


def test_tail_logderivative_matches_kappa():
    sysa = SystemAsymptotics(1.2, 1.0, -0.8)
    r, h = 50.0, 1e-3
    f = [asymptotic_tail(sysa, 1.0, r + k * h) for k in (-2, -1, 1, 2)]
    deriv = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
    logder = deriv / asymptotic_tail(sysa, 1.0, r)
    assert logder == pytest.approx(sysa.kappa(r), abs=1e-10)


def test_problem_validation():
    grid = log_grid(1e-5, 40.0, 100)
    with pytest.raises(DomainError):
        RadialProblem(0, 1.0, -1.0, 0.0, grid[:30])
    with pytest.raises(DomainError):
        RadialProblem(0, 1.0, -1.0, 0.0, -grid)
    with pytest.raises(DomainError):
        RadialProblem(0, 1.0, -1.0, 0.0, grid, extra_potential=grid[:50])
    # extra potential decaying slower than 1/r is rejected
    with pytest.raises(DomainError):
        RadialProblem(0, 1.0, -1.0, 0.0, grid,
                      extra_potential=1.0 / np.sqrt(grid))
    ok = RadialProblem(0, 1.0, -1.0, 0.0, grid,
                       extra_potential=np.exp(-grid))
    assert ok.potential()[0] == pytest.approx(-1.0 / grid[0] + 1.0, rel=1e-6)


def test_shooting_hydrogen():
    for z, n_state, ell, bracket in [(1.0, 1, 0, (-0.6, -0.4)),
                                     (1.0, 2, 1, (-0.2, -0.1))]:
        e_ref, problem, inner, outer, sysa = _hydrogen_setup(z, n_state, ell)
        e, fn = solve_shooting(problem, inner, outer, bracket,
                               asymptotics=sysa)
        assert e == pytest.approx(e_ref, abs=1e-8)
        assert fn.meaning == "u"


def test_shooting_constant_shift():
    # V -> V + W0 shifts the spectrum exactly; boundary data follow E - W0
    w0_const = 0.25
    grid = log_grid()
    problem = RadialProblem(ell=0, mass=1.0, pair_product=-1.0, w0=w0_const,
                            grid=grid)
    inner = robin_inner(0, -1.0)
    sysa = SystemAsymptotics(1.0, 0.0, -0.5)  # local (E - W0) parameters
    outer = robin_outer(sysa, 40.0)
    e, _ = solve_shooting(problem, inner, outer, (-0.35, -0.15))
    assert e == pytest.approx(-0.25, abs=1e-8)


def test_shooting_dirichlet_outer_needs_asymptotics():
    # a Dirichlet outer wall gives the inward branch no starting slope
    e_ref, problem, inner, outer, sysa = _hydrogen_setup(1.0, 1, 0, n=200)
    wall = RobinBoundary("outer", 0.0, 1.0)
    with pytest.raises(DomainError):
        solve_shooting(problem, inner, wall, (-0.6, -0.4))
    e, _ = solve_shooting(problem, inner, wall, (-0.6, -0.4),
                          asymptotics=sysa)
    assert e == pytest.approx(e_ref, abs=1e-6)


def test_shooting_requires_a_fine_log_grid():
    sysa = SystemAsymptotics(1.0, 0.0, -0.5)
    inner, outer = robin_inner(0, -1.0), robin_outer(sysa, 40.0)
    problem = RadialProblem(ell=0, mass=1.0, pair_product=-1.0, w0=0.0,
                            grid=np.linspace(1e-3, 40.0, 400))
    with pytest.raises(DomainError):
        solve_shooting(problem, inner, outer, (-0.6, -0.4))
    # 100 nodes: h^2 (q - E b)/12 exceeds 1 near r_max at every bracketed E
    problem = replace(problem, grid=log_grid(1e-5, 40.0, 100))
    with pytest.raises(StiffnessError):
        solve_shooting(problem, inner, outer, (-0.6, -0.4))


def test_shooting_inner_robin_away_from_origin():
    # u = e^{-r} satisfies u' = -u at every r, so hydrogen 1s stays exact
    # with the inner edge far from the nucleus; at r_min = 1, a r_min = -1
    sysa = SystemAsymptotics(1.0, 0.0, -0.5)
    inner, outer = robin_inner(0, -1.0), robin_outer(sysa, 40.0)
    for r_min in (0.5, 1.0):
        problem = RadialProblem(ell=0, mass=1.0, pair_product=-1.0, w0=0.0,
                                grid=log_grid(r_min, 40.0, 2000))
        e_s, fn = solve_shooting(problem, inner, outer, (-0.6, -0.4),
                                 asymptotics=sysa)
        assert e_s == pytest.approx(-0.5, abs=1e-8)
        e_m = solve_matrix(problem, inner, outer, 1)[0][0]
        assert e_s == pytest.approx(e_m, abs=1e-8)
        r, u = fn.grid[:20], fn.values[:20]
        assert np.allclose(u / u[0], np.exp(r_min - r), rtol=1e-8)


def test_shooting_no_sign_change():
    e_ref, problem, inner, outer, sysa = _hydrogen_setup(1.0, 1, 0, n=200)
    with pytest.raises(NoSignChange):
        solve_shooting(problem, inner, outer, (-0.9, -0.7), asymptotics=sysa)


def test_matrix_hydrogen_two_states():
    e1, problem, inner, outer, sysa = _hydrogen_setup(1.0, 1, 0)
    pairs = solve_matrix(problem, inner, outer, 2)
    assert pairs[0][0] == pytest.approx(-0.5, abs=1e-6)
    assert pairs[1][0] == pytest.approx(-0.125, abs=1e-6)


def test_matrix_agrees_with_shooting():
    e_ref, problem, inner, outer, sysa = _hydrogen_setup(2.0, 2, 1)
    e_m = solve_matrix(problem, inner, outer, 1)[0][0]
    e_s, _ = solve_shooting(problem, inner, outer, (-0.6, -0.4),
                            asymptotics=sysa)
    assert e_m == pytest.approx(e_s, abs=1e-6)


def test_matrix_agrees_with_shooting_extra_potential():
    # no closed-form oracle: a short-range Gaussian bump, cross-method check
    grid = log_grid()
    extra = 0.35 * np.exp(-(grid - 1.0) ** 2)
    problem = RadialProblem(ell=0, mass=1.0, pair_product=-1.0, w0=0.0,
                            grid=grid, extra_potential=extra)
    inner = robin_inner(0, -1.0)
    pairs = solve_matrix_selfconsistent(problem, inner, 1.0, 0.0, 1)
    e_m = pairs[0][0]
    sysa = SystemAsymptotics(1.0, 0.0, e_m)
    outer = robin_outer(sysa, 40.0)
    # both routes sample the table only at the mesh nodes; what is left is
    # the discretisation error of the two schemes
    e_s, _ = solve_shooting(problem, inner, outer, (e_m - 0.05, e_m + 0.05),
                            asymptotics=sysa)
    assert e_m == pytest.approx(e_s, abs=1e-6)


def test_matrix_spherical_bessel_box():
    # q1q2 = 0, W0 = 0, Dirichlet walls: levels from spherical Bessel roots
    r_max = 10.0
    grid = log_grid(1e-5, r_max, 3000)
    inner = RobinBoundary("inner", 0.0, 1.0)
    outer = RobinBoundary("outer", 0.0, 1.0)
    for ell, root in [(0, math.pi),
                      (1, brentq(lambda x: spherical_jn(1, x), 3.5, 5.5))]:
        problem = RadialProblem(ell=ell, mass=1.0, pair_product=0.0, w0=0.0,
                                grid=grid)
        e = solve_matrix(problem, inner, outer, 1)[0][0]
        assert e == pytest.approx(root ** 2 / (2 * r_max ** 2), abs=1e-5)


def test_matrix_k_beyond_the_mesh():
    # 50 nodes with Robin ends are 50 unknowns: all of them can be asked for
    grid = log_grid(1e-5, 40.0, 50)
    problem = RadialProblem(0, 1.0, -1.0, 0.0, grid)
    inner, wall = robin_inner(0, -1.0), RobinBoundary("outer", 0.0, 1.0)
    robin = robin_outer(SystemAsymptotics(1.0, 0.0, -0.5), 40.0)
    assert np.all(np.diff(
        _eig(problem, _pencil(problem, inner, robin), 50)[0]) > 0.0)
    # a Dirichlet outer wall leaves 49
    with pytest.raises(DomainError, match="49 unknowns"):
        _eig(problem, _pencil(problem, inner, wall), 50)
    # 200 nodes hold 150 states, the 100-node Richardson half mesh does not
    problem = replace(problem, grid=log_grid(1e-5, 40.0, 200))
    with pytest.raises(DomainError, match="100 unknowns"):
        solve_matrix(problem, inner, robin, 150)


def test_matrix_small_grid_names_the_half_mesh(monkeypatch):
    # a grid under 99 points has a Richardson half mesh under 50: the
    # error says so before any eigensolve runs, as does an oversized k
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve ran")

    monkeypatch.setattr(radial, "eigh_tridiagonal", no_eigensolve)
    inner = robin_inner(0, -1.0)
    robin = robin_outer(SystemAsymptotics(1.0, 0.0, -0.5), 40.0)
    small = RadialProblem(0, 1.0, -1.0, 0.0, log_grid(1e-5, 40.0, 50))
    with pytest.raises(DomainError, match="half mesh"):
        solve_matrix(small, inner, robin, 1)
    with pytest.raises(DomainError, match="half mesh"):
        solve_matrix_selfconsistent(small, inner, 1.0, 0.0, 1)
    problem = replace(small, grid=log_grid(1e-5, 40.0, 200))
    with pytest.raises(DomainError, match="100 unknowns of the Richardson"):
        solve_matrix(problem, inner, robin, 150)
    # the self-consistent solve starts from Dirichlet walls: 99 unknowns
    with pytest.raises(DomainError, match="99 unknowns of the Richardson"):
        solve_matrix_selfconsistent(problem, inner, 1.0, 0.0, 100)


def _sturm_count(pencil, sigma):
    """Pencil eigenvalues below each shift in sigma (Sylvester's law of
    inertia): the negative pivots of the LDL^T recurrence of A - sigma B,
    in extended precision and without LAPACK."""
    d, e, b = (np.asarray(a, dtype=np.longdouble) for a in pencil)
    sigma = np.asarray(sigma, dtype=np.longdouble)
    tiny = np.finfo(np.longdouble).tiny
    pivot = d[0] - sigma * b[0]
    count = (pivot < 0).astype(int)
    for i in range(1, len(d)):
        pivot = d[i] - sigma * b[i] - e[i - 1] ** 2 / np.where(
            pivot == 0, -tiny, pivot)
        count += pivot < 0
    return count


def _bisect(pencil, lo, hi, iters=40):
    """Shrink each bracket [lo_j, hi_j] onto pencil eigenvalue j."""
    j = np.arange(len(lo))
    lo, hi = np.longdouble(lo), np.longdouble(hi)
    for _ in range(iters):
        mid = (lo + hi) / 2
        above = _sturm_count(pencil, mid) <= j  # eigenvalue j >= mid
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return (lo + hi) / 2


def _check_certified(problem, inner, outer, k, delta=1e-9):
    pencil = _pencil(problem, inner, outer)
    w, u = _eig(problem, pencil, k)
    pencil = pencil[:3]
    j = np.arange(k)
    # exactly j levels below w_j - delta and j + 1 below w_j + delta: the
    # returned states are the k lowest, none skipped or repeated
    assert np.array_equal(_sturm_count(pencil, w - delta), j)
    assert np.array_equal(_sturm_count(pencil, w + delta), j + 1)
    ref = _bisect(pencil, w - delta, w + delta)
    assert np.max(np.abs(w - ref)) <= 1e-10
    # B-orthonormal pencil vectors are u's orthonormal in the trapezoid rule
    # over x = ln r, whose end weights are B's halved Robin rows
    g = problem.grid
    p = u * g ** (problem.ell + 1.5)
    gram = np.trapezoid(p[:, None, :] * p[None, :, :], np.log(g))
    assert np.max(np.abs(gram - np.eye(k))) <= 1e-10
    return w


def test_matrix_spectrum_certified_by_sturm_count():
    # hydrogen, Robin ends at both edges
    _, problem, inner, outer, _ = _hydrogen_setup(1.0, 1, 0)
    _check_certified(problem, inner, outer, 4)
    # spherical box, Dirichlet walls at both edges
    wall_in = RobinBoundary("inner", 0.0, 1.0)
    wall_out = RobinBoundary("outer", 0.0, 1.0)
    box = RadialProblem(1, 1.0, 0.0, 0.0, log_grid(1e-5, 10.0, 2000))
    _check_certified(box, wall_in, wall_out, 3)


def test_matrix_spectrum_certified_for_a_clustered_pair():
    # two deep Gaussian wells 5 apart; the second depth is tuned so that
    # each well alone has the same lowest level on this mesh, and the pair
    # then splits only by tunnelling
    grid = log_grid(1e-3, 14.0, 2000)
    extra = -sum(depth * np.exp(-((grid - c) / 0.5) ** 2)
                 for c, depth in ((3.0, 12.0), (8.0, 11.99731574)))
    problem = RadialProblem(0, 1.0, 0.0, 0.0, grid, extra_potential=extra)
    w = _check_certified(problem, robin_inner(0, 0.0),
                         RobinBoundary("outer", 0.0, 1.0), 3)
    assert 0.0 < w[1] - w[0] < 1e-6


def test_matrix_lapack_failure_is_a_convergence_error(monkeypatch):
    _, problem, inner, outer, _ = _hydrogen_setup(1.0, 1, 0, n=200)

    def no_convergence(*args, **kwargs):
        raise LinAlgError("stebz (eigh_tridiagonal) err -1")

    with monkeypatch.context() as patch:
        patch.setattr(radial, "eigh_tridiagonal", no_convergence)
        with pytest.raises(ConvergenceError):
            solve_matrix(problem, inner, outer, 1)
    # a failed Sturm count of the certificate
    with monkeypatch.context() as patch:
        patch.setattr(radial, "dstebz", lambda d, e, *args: (
            0, d, None, None, 1))
        with pytest.raises(ConvergenceError, match="stebz"):
            solve_matrix(problem, inner, outer, 1)
    # an exactly singular shifted pencil in the inverse-iteration step
    monkeypatch.setattr(radial, "dgtsv", lambda dl, d, du, b: (
        dl, d, du, b, 1))
    with pytest.raises(ConvergenceError):
        solve_matrix(problem, inner, outer, 1)


def test_matrix_convergence_rate():
    # raw second-order discretization: error drops >= 3.5x per mesh doubling
    errs = []
    for n in (500, 1000, 2000):
        e_ref, problem, inner, outer, sysa = _hydrogen_setup(1.0, 1, 0, n=n)
        e = _eig(problem, _pencil(problem, inner, outer), 1)[0][0]
        errs.append(abs(e - e_ref))
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_solved_functions_carry_the_cusp():
    for z in (1.0, 2.0):
        for n_state, ell in CASES:
            e_ref, problem, inner, outer, sysa = _hydrogen_setup(
                z, n_state, ell, n=4000)
            _, fn = solve_matrix(problem, inner, outer,
                                 n_state - ell)[n_state - ell - 1]
            n_fit = int(np.searchsorted(problem.grid, 0.05 / z))
            est = cusp_limit_first(fn, ell, n_points=n_fit)
            assert est == pytest.approx(-z, abs=1e-6)


def test_shooting_function_boundary_checks():
    e_ref, problem, inner, outer, sysa = _hydrogen_setup(1.0, 2, 1)
    e, fn = solve_shooting(problem, inner, outer, (-0.2, -0.1),
                           asymptotics=sysa)
    n_fit = int(np.searchsorted(problem.grid, 0.02))
    assert cusp_limit_first(fn, 1, n_points=n_fit) == pytest.approx(
        -1.0, abs=1e-6)
    kappa = SystemAsymptotics(1.0, 0.0, e).kappa(problem.grid[-1])
    assert outer_log_derivative(fn) == pytest.approx(kappa, abs=1e-5)


def test_selfconsistent_outer_loop():
    grid = log_grid()
    problem = RadialProblem(ell=0, mass=1.0, pair_product=-1.0, w0=0.0,
                            grid=grid)
    pairs = solve_matrix_selfconsistent(problem, robin_inner(0, -1.0),
                                        1.0, 0.0, 1)
    assert pairs[0][0] == pytest.approx(-0.5, abs=1e-6)


OWN_KAPPA_CASES = [(1.0, 40.0), (1.0, 25.0), (2.0, 20.0)]


def _own_kappa_problem(z, r_max):
    problem = RadialProblem(ell=0, mass=1.0, pair_product=-z, w0=0.0,
                            grid=log_grid(1e-5, r_max, 4000))
    return problem, robin_inner(0, -z)


@pytest.mark.parametrize("z, r_max", OWN_KAPPA_CASES)
def test_selfconsistent_states_each_under_their_own_kappa(z, r_max):
    # every s state gets R'/R = kappa(r_max; E_j) of its own energy, as
    # shooting with asymptotics does; at r_max = 25 the 3s state lies
    # beyond robin_outer's 20/decay guard and keeps its O(1/r^2) remainder
    problem, inner = _own_kappa_problem(z, r_max)
    pairs = solve_matrix_selfconsistent(problem, inner, 1.0, z - 1.0, 3)
    wall = RobinBoundary("outer", 0.0, 1.0)
    for j, (e_m, _) in enumerate(pairs):
        sysa = SystemAsymptotics(1.0, z - 1.0, e_m)
        e_s, _ = solve_shooting(problem, inner, wall,
                                (1.05 * e_m, 0.95 * e_m), asymptotics=sysa)
        assert e_m == pytest.approx(e_s, abs=1e-8)
        # no worse than solve_matrix under the exact energy's own kappa
        e_ref = -z * z / (2.0 * (j + 1) ** 2)
        kappa = SystemAsymptotics(1.0, z - 1.0, e_ref).kappa(r_max)
        own = solve_matrix(problem, inner, RobinBoundary("outer", 1.0, -kappa),
                           j + 1)[j][0]
        assert abs(e_m - e_ref) <= 1.1 * abs(own - e_ref) + 1e-11


@pytest.mark.parametrize("z, r_max", OWN_KAPPA_CASES)
def test_selfconsistent_states_certified_on_their_own_pencils(z, r_max,
                                                             monkeypatch):
    # the last mesh refinement of each state, recorded with the energy of
    # the last pencil it asked for, the one it is certified on
    problem, inner = _own_kappa_problem(z, r_max)
    last = {}

    def recording(prob, pencil_at, w, u, first=0):
        asked = []

        def pencil_of(e):
            asked.append((e, pencil_at(e)))
            return asked[-1][1]

        out = _refine(prob, pencil_of, w, u, first)
        if prob is problem:
            last[first] = (out[0][0], *asked[-1])
        return out

    monkeypatch.setattr(radial, "_refine", recording)
    solve_matrix_selfconsistent(problem, inner, 1.0, z - 1.0, 3)
    assert sorted(last) == [0, 1, 2]
    for j, (w, e, pencil) in last.items():
        # the outer condition is that of the state's own energy
        kappa = SystemAsymptotics(1.0, z - 1.0, w).kappa(r_max)
        outer = RobinBoundary(
            "outer", 1.0, -SystemAsymptotics(1.0, z - 1.0, e).kappa(r_max))
        assert outer.log_derivative == pytest.approx(kappa, abs=1e-9)
        for got, want in zip(pencil, _pencil(problem, inner, outer)):
            assert np.array_equal(got, want)
        # exactly j levels of its pencil below w - 1e-9, j + 1 below w + 1e-9
        counts = _sturm_count(pencil[:3], [w - 1e-9, w + 1e-9])
        assert list(counts) == [j, j + 1]


def test_assembler_folds_each_outer_row_afresh():
    # one builder under a sequence of outer conditions gives what a fresh
    # builder gives for each, and later calls leave earlier pencils alone
    problem, inner = _own_kappa_problem(2.0, 20.0)
    outers = [RobinBoundary("outer", 1.0, 2.0), radial._WALL,
              RobinBoundary("outer", 1.0, 1.5), RobinBoundary("outer", 1.0, 2.0)]
    assemble = radial._assembler(problem, inner)
    built = [assemble(outer) for outer in outers]
    for pencil, outer in zip(built, outers):
        fresh = _pencil(problem, inner, outer)
        assert pencil[3] == fresh[3]
        for got, want in zip(pencil[:3], fresh[:3]):
            assert np.array_equal(got, want)


def test_selfconsistent_solve_builds_each_mesh_once(monkeypatch):
    # one potential() per mesh, for its bisection or first pencil and for
    # every refinement step under every kappa, none of which falls back;
    # the states are those of building every pencil afresh
    problem, inner = _own_kappa_problem(1.0, 40.0)
    assembler = radial._assembler
    with monkeypatch.context() as m:
        m.setattr(radial, "_assembler", lambda prob, inner_: (
            lambda outer: assembler(prob, inner_)(outer)))
        ref = solve_matrix_selfconsistent(problem, inner, 1.0, 0.0, 3)
    potential = RadialProblem.potential
    sizes = []

    def counting(self, r=None):
        sizes.append(self.grid.size)
        return potential(self, r)

    monkeypatch.setattr(RadialProblem, "potential", counting)
    pairs = solve_matrix_selfconsistent(problem, inner, 1.0, 0.0, 3)
    assert sizes == [2000, 4000]
    for (e, fn), (e_ref, fn_ref) in zip(pairs, ref):
        assert e == e_ref and np.array_equal(fn.values, fn_ref.values)


def _clustered_pair():
    # test_matrix_spectrum_certified_for_a_clustered_pair's wells, whose
    # two lowest levels split by 3.3e-7
    grid = log_grid(1e-3, 14.0, 2000)
    extra = -sum(depth * np.exp(-((grid - c) / 0.5) ** 2)
                 for c, depth in ((3.0, 12.0), (8.0, 11.99731574)))
    problem = RadialProblem(0, 1.0, 0.0, 0.0, grid, extra_potential=extra)
    return problem, robin_inner(0, 0.0), RobinBoundary("outer", 0.0, 1.0)


def test_stebz_counts_match_the_sturm_oracle():
    _, problem, inner, outer, _ = _hydrogen_setup(1.0, 1, 0)
    for prob, inner_, outer_ in ((problem, inner, outer), _clustered_pair()):
        pencil = _pencil(prob, inner_, outer_)
        w = _eig(prob, pencil, 6)[0]
        pencil = pencil[:3]
        sigma = np.concatenate([np.linspace(-20.0, 50.0, 141),
                                w - 1e-9, w + 1e-9, w - 1e-12, w + 1e-12])
        assert np.array_equal(radial._sturm_counts(*pencil, sigma),
                              _sturm_count(pencil, sigma))


def test_clustered_pair_bisected_one_state_at_a_time():
    # the fallback bisects one state alone; each of the pair (split
    # 3.3e-7) is its own level, as the extended-precision oracle finds it
    problem, inner, outer = _clustered_pair()
    pencil = _pencil(problem, inner, outer)
    ref = _bisect(pencil[:3], np.full(2, -20.0), np.full(2, 50.0), iters=80)
    w, u = _eig(problem, pencil, 2)
    for j in (0, 1):
        wj, uj = _eig(problem, pencil, j + 1, j)
        assert abs(wj[0] - ref[j]) <= 1e-10
        assert np.allclose(uj[0], u[j], rtol=0.0,
                           atol=1e-6 * np.abs(u[j]).max())


def _solve_events(caplog, solve, *args):
    """A solve's result and the arguments of its per-state debug events."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cuspbc"):
        out = solve(*args)
    return out, [r.args for r in caplog.records if r.name == "cuspbc.radial"]


def test_refinement_from_the_neighbouring_state_falls_back(monkeypatch,
                                                           caplog):
    problem = RadialProblem(0, 1.0, -2.0, 0.0, log_grid(1e-5, 40.0, 2000))
    inner = robin_inner(0, -2.0)
    outer = robin_outer(SystemAsymptotics(1.0, 1.0, -2.0), 40.0)
    pencil = _pencil(problem, inner, outer)
    w, u = _eig(problem, pencil, 2)
    # started from state 1 but certified as state 0: the count finds one
    # level below it, and state 0 is bisected by index instead
    w0, u0, _, failed = _refine(problem, lambda e: pencil, w[1:], u[1:], 0)
    assert failed.tolist() == [True]
    w_ref, u_ref = _eig(problem, pencil, 1)
    assert np.array_equal(w0, w_ref) and np.array_equal(u0, u_ref)
    # the same through the self-consistent solve: every half-mesh state
    # starts from the Dirichlet state above its own
    ref = solve_matrix_selfconsistent(problem, inner, 1.0, 1.0, 2)
    eig = radial._eig

    def one_up(prob, pencil_, k, first=0):
        if pencil_[3][1] < prob.grid.size:  # the Dirichlet wall's pencil
            return eig(prob, pencil_, k + 1, first + 1)
        return eig(prob, pencil_, k, first)

    monkeypatch.setattr(radial, "_eig", one_up)
    pairs, events = _solve_events(caplog, solve_matrix_selfconsistent,
                                  problem, inner, 1.0, 1.0, 2)
    assert [(ev["mesh"], ev["fallback"]) for ev in events] == [
        (1000, True), (1000, True), (2000, False), (2000, False)]
    for (e, fn), (e_ref, fn_ref) in zip(pairs, ref):
        assert e == pytest.approx(e_ref, abs=1e-12)
        assert np.allclose(fn.values, fn_ref.values, rtol=1e-8, atol=1e-10)


def test_fallback_state_refined_on_its_own_pencil(monkeypatch, caplog):
    # at r_max = 25 the outer condition moves the 3s level by 1e-3, so the
    # 3s state, bisected under the kappa of the 4s state it started from,
    # must be refined once more under its own
    problem, inner = _own_kappa_problem(1.0, 25.0)
    ref = solve_matrix_selfconsistent(problem, inner, 1.0, 0.0, 3)
    eig = radial._eig

    def skip_3s(prob, pencil_, k, first=0):
        if pencil_[3][1] < prob.grid.size:  # the Dirichlet wall's pencil
            w, u = eig(prob, pencil_, k + 1, first)
            return np.delete(w, 2), np.delete(u, 2, axis=0)
        return eig(prob, pencil_, k, first)

    monkeypatch.setattr(radial, "_eig", skip_3s)
    pairs, events = _solve_events(caplog, solve_matrix_selfconsistent,
                                  problem, inner, 1.0, 0.0, 3)
    assert [ev["fallback"] for ev in events] == [False, False, True,
                                                 False, False, False]
    for (e, _), (e_ref, _) in zip(pairs, ref):
        assert e == pytest.approx(e_ref, abs=1e-11)


def test_clustered_pair_refined_on_the_full_mesh(monkeypatch, caplog):
    problem, inner, wall = _clustered_pair()
    # what bisecting both meshes gives
    prob2 = radial._companion(problem, inner, wall, 3)
    w2, u2 = _eig(prob2, _pencil(prob2, inner, wall), 3)
    ref = radial._richardson(problem, prob2,
                             _eig(problem, _pencil(problem, inner, wall), 3),
                             (w2, radial._transfer(prob2, u2, problem.grid)))
    # the third state needs three refinement steps to pass its certificate;
    # with two it is bisected by index, and the result is the same
    for cap, fallback in ((2, [False, False, True]),
                          (3, [False, False, False])):
        monkeypatch.setattr(radial, "_MAX_STEPS", cap)
        pairs, events = _solve_events(caplog, solve_matrix, problem, inner,
                                      wall, 3)
        assert [ev["fallback"] for ev in events] == fallback
        assert [ev["steps"] for ev in events] == [cap] * 3
        for (e, _), (e_ref, _) in zip(pairs, ref):
            assert e == pytest.approx(e_ref, abs=1e-12)


def test_matrix_solves_log_one_event_per_state(caplog):
    assert any(isinstance(h, logging.NullHandler)
               for h in logging.getLogger("cuspbc").handlers)
    _, problem, inner, outer, _ = _hydrogen_setup(1.0, 1, 0)
    _, events = _solve_events(caplog, solve_matrix, problem, inner, outer, 2)
    assert events == [{"state": j, "mesh": 2000, "steps": 2,
                       "fallback": False} for j in (0, 1)]
    # the self-consistent solve refines each state on both meshes
    _, events = _solve_events(caplog, solve_matrix_selfconsistent, problem,
                              inner, 1.0, 0.0, 2)
    assert [(ev["state"], ev["mesh"], ev["fallback"]) for ev in events] == [
        (0, 1000, False), (1, 1000, False), (0, 2000, False),
        (1, 2000, False)]
    assert all(ev["steps"] >= 1 for ev in events)


def test_one_bisection_per_matrix_solve(monkeypatch):
    # only the Richardson half mesh is bisected; every full-mesh state is
    # refined from it and certified without a fallback bisection
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return eigh_tridiagonal(*args, **kwargs)

    monkeypatch.setattr(radial, "eigh_tridiagonal", counting)
    for z in (1.0, 2.0):
        for n_state, ell in CASES:
            _, problem, inner, outer, _ = _hydrogen_setup(z, n_state, ell)
            calls.clear()
            solve_matrix(problem, inner, outer, n_state - ell)
            assert calls == [1000]
    for z, r_max in OWN_KAPPA_CASES:
        problem, inner = _own_kappa_problem(z, r_max)
        calls.clear()
        solve_matrix_selfconsistent(problem, inner, 1.0, z - 1.0, 3)
        assert calls == [1999]


def test_selfconsistent_solve_certifies_each_state_once(monkeypatch):
    # k = 3: one bisection of the half mesh's Dirichlet levels, then one
    # certificate of two Sturm counts per state and mesh, 3 x 2 x 2 in all
    calls = {"eigh_tridiagonal": 0, "dstebz": 0}
    for name in calls:
        def counting(*args, _name=name, _f=getattr(radial, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(radial, name, counting)
    problem, inner = _own_kappa_problem(1.0, 40.0)
    solve_matrix_selfconsistent(problem, inner, 1.0, 0.0, 3)
    assert calls == {"eigh_tridiagonal": 1, "dstebz": 12}


def test_selfconsistent_state_that_does_not_settle_raises(monkeypatch):
    # at r_max = 25 the 2s state starts 2e-7 from its own-kappa level: its
    # one step moves the outer condition, which has not settled after it
    problem, inner = _own_kappa_problem(1.0, 25.0)
    monkeypatch.setattr(radial, "_MAX_STEPS", 1)
    with pytest.raises(ConvergenceError, match="state 1 did not settle"):
        solve_matrix_selfconsistent(problem, inner, 1.0, 0.0, 3)


def test_selfconsistent_state_failing_twice_raises(monkeypatch):
    # counts that place no level anywhere fail every certificate: the
    # fallback's second refinement fails too, so the state is not
    # certified on the pencil of its own energy
    monkeypatch.setattr(radial, "_sturm_counts",
                        lambda d, e, b, sigma: np.zeros(len(sigma), int))
    problem, inner = _own_kappa_problem(2.0, 20.0)
    with pytest.raises(ConvergenceError, match="state 0 failed its cert"):
        solve_matrix_selfconsistent(problem, inner, 1.0, 1.0, 1)


def test_hydrogen_reference_values():
    e, s = hydrogen_reference(1, 0, 1.0)
    assert (e, s.coeffs[:3]) == (-0.5, (1.0, -1.0, 0.5))
    e, s = hydrogen_reference(2, 1, 1.0)
    assert (e, s.coeffs[:3]) == (-0.125, (1.0, -0.5, 0.125))
    assert hydrogen_reference(3, 0, 2.0)[0] == pytest.approx(-2.0 / 9.0,
                                                             rel=1e-15)
    with pytest.raises(DomainError):
        hydrogen_reference(2, 2, 1.0)
