import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import eval_genlaguerre, spherical_jn

from cuspbc import radial
from cuspbc.basis import asymptotic_slater
from cuspbc.cusp import cusp_limit_first
from cuspbc.errors import (ConvergenceError, CuspbcError, DomainError,
                           NoSignChange, Overflow, RegimeError,
                           StiffnessError)
from cuspbc.radial import (RadialProblem, RobinBoundary, SystemAsymptotics,
                           asymptotic_tail, hydrogen_reference, log_grid,
                           outer_log_derivative,
                           robin_inner, robin_outer, solve_matrix,
                           solve_matrix_selfconsistent, solve_shooting)

CASES = [(1, 0), (2, 0), (2, 1), (3, 2)]


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


def test_tail_slope_is_system_asymptotics_kappa_bitwise():
    # the tail's slope closure does SystemAsymptotics.kappa's arithmetic
    # without building one per energy: bit for bit over E and r, with
    # (M', Q) checked when it is built and E >= 0 refused at each call
    for m, charge in ((1.0, 0.0), (0.5, 1.0), (1836.0, 2.0), (0.75, -0.5)):
        for r in (1e-5, 0.3, 7.0, 40.0, 400.0):
            slope = radial._edge((m, charge), 0.5, r)
            for e in (-np.geomspace(1e-9, 1e4, 40)).tolist():
                kappa = SystemAsymptotics(m, charge, e).kappa(r)
                assert slope(e) == 0.5 + r * kappa
            for e in (0.0, 1e-300, 2.5):
                with pytest.raises(RegimeError):
                    slope(e)
    for bad in ((0.0, 1.0), (-1.0, 0.0), (1.0, math.inf), (math.nan, 0.0)):
        with pytest.raises(DomainError):
            radial._edge(bad, 0.5, 40.0)


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


@pytest.mark.parametrize("r_max", [20.0, 25.0, 45.0])
def test_log_grid_ends_on_its_bounds(r_max):
    grid = log_grid(1e-5, r_max, 2000)
    assert grid[0] == 1e-5 and grid[-1] == r_max
    assert np.all(np.diff(grid) > 0.0)
    if r_max == 20.0:  # the r_max >= 20/decay guard accepts the last node
        bc = robin_outer(SystemAsymptotics(1.0, 0.0, -0.5), grid[-1])
        assert bc.log_derivative == pytest.approx(-1.0, abs=1e-15)


def test_log_grid_needs_two_points():
    assert log_grid(1e-5, 20.0, 2).tolist() == [1e-5, 20.0]
    for n in (0, 1):
        with pytest.raises(DomainError):
            log_grid(1e-5, 20.0, n)


@pytest.mark.parametrize("r_min, r_max", [
    (0.0, 20.0), (-1e-5, 20.0), (1e-5, math.nan), (20.0, 1e-5), (1.0, 1.0),
    (1e-5, math.inf), (math.nan, 20.0)])
def test_log_grid_needs_finite_increasing_bounds(r_min, r_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="0 < r_min < r_max < inf"):
            log_grid(r_min, r_max, 100)


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


@pytest.mark.parametrize("tail", [
    lambda sysa, r: asymptotic_tail(sysa, 1.0, r),
    lambda sysa, r: asymptotic_slater(sysa)(r)], ids=["tail", "slater"])
def test_asymptotic_tail_is_finite_or_overflow(tail):
    # e^(-40) 40^200 is a double although 40^200 is not; with Q = 1e6 at
    # r = 1000 the tail itself is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tail(SystemAsymptotics(1.0, 200.0, -0.5), 40.0) == \
            pytest.approx(1.09703122577967e303, rel=1e-12)
        with pytest.raises(Overflow):
            tail(SystemAsymptotics(1.0, 1e6, -0.5), 1000.0)


def test_hydrogen_reference_needs_an_integer_n():
    with pytest.raises(DomainError, match="n must be a non-negative integer"):
        hydrogen_reference(1.5, 0, 1.0)


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


def test_potential_samples_the_grid_alone():
    # the solvers read the potential on the grid's nodes only: r = None
    # gives it there, and any other r is refused, not interpolated
    grid = log_grid(1e-5, 40.0, 100)
    problem = RadialProblem(0, 1.0, -1.0, 0.5, grid,
                            extra_potential=np.exp(-grid))
    assert np.array_equal(problem.potential(None),
                          -1.0 / grid + 0.5 + np.exp(-grid))
    for r in (grid, grid[3], 1.0):
        with pytest.raises(DomainError, match="grid alone"):
            problem.potential(r)


_GRID = log_grid(1e-5, 40.0, 100)


@pytest.mark.parametrize("make", [
    lambda: RadialProblem(0, math.inf, -1.0, 0.0, _GRID),
    lambda: RadialProblem(0, 1.0, -1.0, math.inf, _GRID),
    lambda: RadialProblem(0, 1.0, math.nan, 0.0, _GRID),
    lambda: RadialProblem(0, 1.0, -1.0, math.nan, _GRID),
    lambda: RadialProblem(0.5, 1.0, -1.0, 0.0, _GRID),
    lambda: RadialProblem(0, 1.0, -1.0, 0.0, np.append(_GRID[:-1], math.nan)),
    lambda: RadialProblem(0, 1.0, -1.0, 0.0, np.append(_GRID, math.inf)),
    lambda: SystemAsymptotics(math.inf, 0.0, -0.5),
    lambda: SystemAsymptotics(1.0, math.nan, -0.5),
    lambda: SystemAsymptotics(1.0, math.inf, -0.5),
    lambda: SystemAsymptotics(1.0, 0.0, -math.inf),
    lambda: asymptotic_tail(SystemAsymptotics(1.0, 0.0, -0.5), 1.0, math.nan),
    lambda: asymptotic_tail(SystemAsymptotics(1.0, 0.0, -0.5), 1.0,
                            [1.0, math.inf]),
    lambda: asymptotic_tail(SystemAsymptotics(1.0, 0.0, -0.5), math.nan, 1.0),
    lambda: asymptotic_tail(SystemAsymptotics(1.0, 0.0, -0.5), math.inf, 1.0)],
    ids=["mass-inf", "w0-inf", "pair-nan", "w0-nan", "ell-half", "grid-nan",
         "grid-inf", "tail-mass-inf", "tail-charge-nan", "tail-charge-inf",
         "tail-energy-inf", "tail-r-nan", "tail-r-inf", "tail-v0-nan",
         "tail-v0-inf"])
def test_non_finite_radial_inputs_are_domain_errors(make):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            make()


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
    # a Dirichlet outer wall drops T(E)'s outer node, as in solve_matrix:
    # shooting finds the matrix route's state; asymptotics replace the wall
    e_ref, problem, inner, outer, sysa = _hydrogen_setup(1.0, 1, 0, n=200)
    wall = RobinBoundary("outer", 0.0, 1.0)
    e_wall, _ = solve_shooting(problem, inner, wall, (-0.6, -0.4))
    assert e_wall == pytest.approx(solve_matrix(problem, inner, wall, 1)[0][0],
                                   rel=1e-12)
    e, _ = solve_shooting(problem, inner, wall, (-0.6, -0.4),
                          asymptotics=sysa)
    assert e == pytest.approx(e_ref, abs=1e-6)


def test_shooting_with_asymptotics_ignores_the_fixed_outer():
    # with asymptotics the outer R'/R is kappa(r_max; E) of each trial
    # energy: the guess's fixed kappa, a Dirichlet wall and no outer
    # boundary at all give the same bits
    for z, n_state, ell in [(1.0, 1, 0), (1.7, 2, 1), (3.0, 3, 0)]:
        e_ref, problem, inner, _, _ = _hydrogen_setup(z, n_state, ell)
        bracket = (1.05 * e_ref, 0.95 * e_ref)
        guess = SystemAsymptotics(1.0, z - 1.0, min(bracket))
        fixed = RobinBoundary("outer", 1.0, -guess.kappa(problem.grid[-1]))
        wall = RobinBoundary("outer", 0.0, 1.0)
        (e1, f1), (e2, f2), (e3, f3) = (
            solve_shooting(problem, inner, outer, bracket, asymptotics=guess)
            for outer in (fixed, wall, None))
        assert e1 == e2 == e3
        assert f1.values.tobytes() == f2.values.tobytes() \
            == f3.values.tobytes()
        assert e1 == pytest.approx(e_ref, abs=1e-8)
    # a Dirichlet inner end with asymptotics: the self-consistent matrix
    # route's state, here the 3s of Z = 3
    wall_in = RobinBoundary("inner", 0.0, 1.0)
    e_wall, _ = solve_shooting(problem, wall_in, wall, bracket,
                               asymptotics=guess)
    e_m = solve_matrix_selfconsistent(problem, wall_in, 1.0, 2.0, 3)[2][0]
    assert e_wall == pytest.approx(e_m, rel=1e-12)


def test_robin_coefficients_must_be_finite():
    for c in ((math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(DomainError, match="finite"):
            RobinBoundary("outer", *c)


def test_shooting_requires_a_fine_log_grid():
    sysa = SystemAsymptotics(1.0, 0.0, -0.5)
    inner, outer = robin_inner(0, -1.0), robin_outer(sysa, 40.0)
    problem = RadialProblem(ell=0, mass=1.0, pair_product=-1.0, w0=0.0,
                            grid=np.linspace(1e-3, 40.0, 400))
    with pytest.raises(DomainError):
        solve_shooting(problem, inner, outer, (-0.6, -0.4))
    # 100 nodes: h^2 (q - E b)/12 exceeds 1 near r_max at every bracketed E,
    # and T(E) has a state below the lowest energy where it does not; the
    # matrix routes refuse the mesh for the same reason
    problem = replace(problem, grid=log_grid(1e-5, 40.0, 100))
    with pytest.raises(StiffnessError):
        solve_shooting(problem, inner, outer, (-0.6, -0.4))
    with pytest.raises(StiffnessError):
        solve_matrix(problem, inner, outer, 1)
    with pytest.raises(StiffnessError):
        solve_matrix_selfconsistent(problem, inner, 1.0, 0.0, 1)


@pytest.mark.parametrize("shift", [2e-8, 0.5e-8])
def test_log_mesh_tolerance(shift):
    # one node moved by shift in ln r: two steps miss h by shift, against
    # the bound 1e-8 (1 + |h|) of a logarithmic grid
    e, problem, inner, outer, _ = _hydrogen_setup(1.0, 1, 0)
    x = np.log(problem.grid)
    x[1000] += shift
    problem = replace(problem, grid=np.exp(x))
    if shift > 1e-8:
        with pytest.raises(DomainError, match="logarithmic grid"):
            solve_matrix(problem, inner, outer, 1)
    else:
        assert solve_matrix(problem, inner, outer, 1)[0][0] == pytest.approx(
            e, abs=1e-6)


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


@pytest.mark.parametrize("bracket, states", [((-0.9, -0.7), 0),
                                             ((-0.6, -0.1), 2),
                                             ((-0.6, -0.04), 3)])
def test_shooting_bracket_must_hold_one_state(bracket, states):
    # the counts at the bracket's ends are the states below each: a
    # bracket holding none or several is refused, whichever way the
    # mismatch's signs at its ends fall
    problem = RadialProblem(0, 1.0, -1.0, 0.0, log_grid(1e-5, 80.0, 2000))
    sysa = SystemAsymptotics(1.0, 0.0, -0.5)
    with pytest.raises(NoSignChange, match=f"holds {states}, not one"):
        solve_shooting(problem, robin_inner(0, -1.0), None, bracket,
                       asymptotics=sysa)


def test_dirichlet_shooting_is_the_matrix_routes_state():
    # walls at both ends, a spherical box from r = 1e-3 to 1 (an outer
    # wall alone: test_shooting_dirichlet_outer_needs_asymptotics), each of
    # its three lowest states shot from a bracket around the matrix route's
    wall_in = RobinBoundary("inner", 0.0, 1.0)
    wall_out = RobinBoundary("outer", 0.0, 1.0)
    box = RadialProblem(0, 1.0, 0.0, 0.0, log_grid(1e-3, 1.0, 2000))
    for e_m, _ in solve_matrix(box, wall_in, wall_out, 3):
        e_s, _ = solve_shooting(box, wall_in, wall_out, (0.9 * e_m, 1.1 * e_m))
        assert e_s == pytest.approx(e_m, rel=1e-12)


def test_shooting_bracket_in_either_order():
    # the bracket's ends may come in either order; a bracket of one energy
    # holds no sign change
    _, problem, inner, outer, sysa = _hydrogen_setup(1.0, 1, 0)
    e_up, _ = solve_shooting(problem, inner, outer, (-0.6, -0.4),
                             asymptotics=sysa)
    e_down, _ = solve_shooting(problem, inner, outer, (-0.4, -0.6),
                               asymptotics=sysa)
    assert e_down == pytest.approx(-0.5, abs=1e-8)
    assert e_down == pytest.approx(e_up, abs=1e-12)
    with pytest.raises(NoSignChange):
        solve_shooting(problem, inner, outer, (-0.5, -0.5), asymptotics=sysa)


@pytest.mark.parametrize("tail", [False, True])
def test_shooting_robin_row_overflow_is_a_stiffness_error(tail):
    # u'/u = 1e9 at r = 1e-5: the inner row's Robin step e^(...) overflows
    # at every energy, so in the first count, on both routes
    _, problem, _, outer, sysa = _hydrogen_setup(1.0, 1, 0)
    inner = robin_inner(0, 1e9)
    match = "end row's Robin step overflows at E = -1.99998"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StiffnessError, match=match):
            solve_shooting(problem, inner, outer, (-0.6, -0.4),
                           asymptotics=sysa if tail else None)
        with pytest.raises(StiffnessError, match=match):
            if tail:
                solve_matrix_selfconsistent(problem, inner, 1.0, 0.0, 1)
            else:
                solve_matrix(problem, inner, outer, 1)


@pytest.mark.parametrize("bracket, energy", [((-1.0, -0.9), None),
                                             ((-1.0, -0.4), -0.5)])
def test_shooting_counts_no_state_below_the_first_rung(bracket, energy):
    # on 200 nodes T(-1) lies below Numerov's stable floor, where f < 0 on
    # some node and its count (1) is not the states below: an end there
    # has none below it, and the root's bracket starts at the first rung
    _, problem, inner, outer, _ = _hydrogen_setup(1.0, 1, 0, n=200)
    if energy is None:
        with pytest.raises(NoSignChange, match="holds 0, not one"):
            solve_shooting(problem, inner, outer, bracket)
    else:
        e, _ = solve_shooting(problem, inner, outer, bracket)
        assert e == pytest.approx(energy, abs=1e-6)
        assert e == pytest.approx(solve_matrix(problem, inner, outer, 1)[0][0],
                                  rel=1e-12)


@pytest.mark.parametrize("n", [2000, 8000])
def test_a_state_below_the_bottom_of_q_over_b_is_found_on_fine_meshes(n):
    # u' = -10 u at r = 0.1 binds a state below e0 = min(q/b) = -2, at
    # r = 1/4: the lower rung is sought down from e0 in doubling steps,
    # not at the stability floor (-417 at n = 2,000), where from n = 4,000
    # on both branches overflow
    problem = RadialProblem(0, 1.0, -1.0, 0.0, log_grid(0.1, 40.0, n))
    inner = robin_inner(0, -10.0)
    rungs = radial._Numerov(problem, inner, (1.0, 0.0)).start()
    assert [c for _, c, _ in rungs] == [0, 1]
    assert [e for e, _, _ in rungs] == pytest.approx([-4.0, -2.0], rel=1e-5)
    (e0, _), (e1, _) = solve_matrix_selfconsistent(problem, inner, 1.0, 0.0,
                                                   2)
    assert (e0, e1) == pytest.approx((-2.72291984, -0.22415563), abs=1e-8)
    # within the mismatch's rounding, 1e-11 max(1, |E|)
    e, _ = solve_shooting(problem, inner, None, (-3.5, -2.1),
                          SystemAsymptotics(1.0, 0.0, -2.7))
    assert e == pytest.approx(e0, abs=3e-11)


def _hydrogen_mismatch():
    """Shooting's mismatch for hydrogen 1s on a 2,000-node mesh, as _state
    steps it, and a bracket of its root."""
    _, problem, inner, _, _ = _hydrogen_setup(1.0, 1, 0)
    return radial._Numerov(problem, inner, (1.0, 0.0)).mismatch, -0.6, -0.4


def _newton_from(g, lo, hi, x, xtol, rtol):
    """radial._newton from x, with f's sign at lo taken here, where a
    caller's count gives it: the root and the evaluations of f, this one
    included.  A zero at lo is the root."""
    sign = g(lo)[0]
    if sign == 0.0:
        return float(lo), 1
    root, calls = radial._newton(g, lo, hi, x, sign, xtol, rtol)
    return root, calls + 1


def _with_step(f, fprime):
    """f as _newton takes it: its value and the Newton step -f/f', an
    infinite one where f' = 0."""
    def value_and_step(x):
        v, d = f(x), fprime(x)
        return v, (-v / d if d else math.inf)
    return value_and_step


ROOT_CASES = [
    (lambda x: math.cos(x) - x, lambda x: -math.sin(x) - 1.0, 0.0, 1.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, lambda x: 3.0 * x * x - 2.0, 2.0,
     3.0),
    (lambda x: math.exp(x) - 10.0, math.exp, 3.0, 0.0),  # a reversed bracket
    (lambda x: x * x - 2.0, lambda x: 2.0 * x, 0.0, 2.0),  # ends of equal |f|
    (lambda x: math.atan(50.0 * (x - 0.2)),
     lambda x: 50.0 / (1.0 + 2500.0 * (x - 0.2) ** 2), -1.0, 3.0),
    (lambda x: x * math.exp(x) - 1.0, lambda x: (x + 1.0) * math.exp(x),
     -1.0, 1.0),
    # values this small: the products of a secant step would underflow
    (lambda x: 1e-120 * (x * x - 0.3), lambda x: 2e-120 * x, 0.0, 1.0),
    (lambda x: x - 1.0, lambda x: 1.0, 1.0, 2.0),  # a root at the lower end
    (lambda x: x - 1.0, lambda x: 1.0, 0.0, 1.0),  # and at the upper
]


ROOT_TOLS = [(2e-12, 4 * 2.0 ** -52),  # brentq's defaults
             (1e-12, 1e-12),  # solve_shooting
             (1e-14, 1e-13),  # the matrix route's states
             (5e-324, 4 * 2.0 ** -52)]


@pytest.mark.parametrize("xtol, rtol", ROOT_TOLS)
def test_regula_falsi_agrees_with_brentq(xtol, rtol):
    # the root function, _newton with the step -f/f' (Cooley's step for the
    # hydrogen mismatch) from the upper end, as the matrix route starts:
    # both roots lie within xtol + rtol |x| of the sign change, so within
    # twice that of each other, and over all cases _newton, with the
    # evaluation that gives f's sign at lo, takes no more evaluations than
    # brentq
    mismatch, lo, hi = _hydrogen_mismatch()
    cases = [(f, _with_step(f, fp), a, b) for f, fp, a, b in ROOT_CASES]
    cases.append((lambda e: mismatch(e)[0], mismatch, lo, hi))
    ours = theirs = 0
    for f, g, lo, hi in cases:
        x, res = brentq(f, lo, hi, xtol=xtol, rtol=rtol, full_output=True)
        e, calls = _newton_from(g, lo, hi, hi, xtol, rtol)
        assert type(e) is float and type(calls) is int
        assert min(lo, hi) <= e <= max(lo, hi)
        assert abs(e - x) <= 2.0 * (xtol + rtol * abs(x))
        ours, theirs = ours + calls, theirs + res.function_calls
    assert ours <= theirs


# sign-exact monotone shapes of t = x - root and their derivatives: each
# has the sign of t, so the computed f changes sign exactly at the root;
# all but the last, a triple root, are simple roots or a step
ROOT_SHAPES = [(lambda t, k: t, lambda t, k: 1.0),
               (lambda t, k: math.atan(k * t),
                lambda t, k: k / (1.0 + (k * t) ** 2)),
               (lambda t, k: math.expm1(k * t),
                lambda t, k: k * math.exp(k * t)),
               (lambda t, k: math.sinh(k * t),
                lambda t, k: k * math.cosh(k * t)),
               (lambda t, k: float((t > 0.0) - (t < 0.0)), lambda t, k: 0.0),
               (lambda t, k: t ** 3, lambda t, k: 3.0 * t * t)]


@given(shape=st.sampled_from(range(len(ROOT_SHAPES))),
       k=st.floats(0.1, 10.0), scale=st.floats(-100.0, 100.0), sign=st.sampled_from([-1.0, 1.0]),
       root=st.floats(-10.0, 10.0), lo=st.floats(-10.0, 10.0),
       hi=st.floats(-10.0, 10.0), xtol=st.floats(1e-14, 1e-6),
       rtol=st.floats(4 * 2.0 ** -52, 1e-6))
def test_regula_falsi_property(shape, k, scale, sign, root, lo, hi, xtol,
                               rtol):
    # _newton with the step -f/f' from the midpoint, as shooting starts: a
    # root within xtol + rtol |x| of the sign change, the triple root (t^3)
    # included; where the bracket misses the root, it ends at hi, where
    # the sign change was promised (unless f is 0 at lo, then the root)
    g, gp = ROOT_SHAPES[shape]
    calls = []

    def f(x):
        calls.append(x)
        return sign * 10.0 ** scale * g(x - root, k)

    def fprime(x):
        return sign * 10.0 ** scale * gp(x - root, k)

    x, n = _newton_from(_with_step(f, fprime), lo, hi, 0.5 * (lo + hi),
                        xtol, rtol)
    assert n == len(calls) <= radial._MAXITER + 2
    assert min(lo, hi) <= x <= max(lo, hi)
    if not min(lo, hi) <= root <= max(lo, hi) and f(lo) != 0.0:
        root = hi
    assert abs(x - root) <= xtol + rtol * abs(x)


@pytest.mark.parametrize("xtol, rtol", ROOT_TOLS)
def test_regula_falsi_bisects_a_creeping_bracket(xtol, rtol):
    # f is flat beside a steep end: Newton's steps from the flat side leave
    # the bracket and become bisections (brentq takes 8 evaluations)
    f = _with_step(lambda x: -math.expm1(3.0 * (x - 3.0)),
                   lambda x: -3.0 * math.exp(3.0 * (x - 3.0)))
    x, calls = _newton_from(f, 6.0, 0.0, 0.5 * (6.0 + 0.0), xtol, rtol)
    assert abs(x - 3.0) <= xtol + rtol * 3.0
    assert calls <= 8


@pytest.mark.parametrize("power", [3, 5])
def test_newton_converges_at_a_root_of_odd_multiplicity(power):
    # Newton shrinks the error only by (m - 1)/m a step at an m-fold root:
    # its steps stop halving, the bracket is bisected, and the root ends
    # within the tolerance
    x, calls = _newton_from(
        _with_step(lambda x: (x - 0.7) ** power,
                   lambda x: power * (x - 0.7) ** (power - 1)),
        0.0, 1.0, 0.5, 1e-12, 1e-12)
    assert abs(x - 0.7) <= 1e-12 + 1e-12 * 0.7
    assert calls <= 80


def test_brent_failures_are_typed():
    # the root's typed failures: a bracket whose counts show no single
    # state, and a bracket too wide to bisect to the tolerance in 100 steps
    # where f gives no Newton step
    _, problem, inner, outer, _ = _hydrogen_setup(1.0, 1, 0, n=200)
    with pytest.raises(NoSignChange, match="holds 0, not one"):
        solve_shooting(problem, inner, outer, (-0.45, -0.2))
    with pytest.raises(ConvergenceError, match="after 100 steps"):
        _newton_from(lambda x: (x - 0.7, math.inf), 0.0, 2.0 ** 100,
                     2.0 ** 100, 1e-12, 1e-12)


def test_every_route_returns_float_energies():
    e_ref, problem, inner, outer, sysa = _hydrogen_setup(1.0, 1, 0)
    energies = [e for e, _ in solve_matrix(problem, inner, outer, 2)]
    energies += [e for e, _ in solve_matrix_selfconsistent(problem, inner,
                                                           1.0, 0.0, 2)]
    energies += [solve_shooting(problem, inner, outer, (-0.6, -0.4))[0],
                 solve_shooting(problem, inner, None, (-0.6, -0.4),
                                asymptotics=sysa)[0]]
    assert [type(e) for e in energies] == [float] * 6
    assert energies == pytest.approx([e_ref, -0.125] * 2 + [e_ref] * 2,
                                     abs=1e-6)


def test_shooting_inputs_are_checked_before_any_count(monkeypatch):
    def no_count(*args, **kwargs):
        raise AssertionError("a count ran")

    _, problem, inner, outer, sysa = _hydrogen_setup(1.0, 1, 0, n=200)
    monkeypatch.setattr(radial._Numerov, "branches", no_count)
    for rtol in (1e-17, 2.0 ** -51, 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="rtol"):
            solve_shooting(problem, inner, outer, (-0.6, -0.4),
                           asymptotics=sysa, rtol=rtol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # and two real numbers: not one end or three, a string, None or 1j
        for bracket in ((-0.6, math.inf), (-math.inf, -0.4),
                        (math.nan, -0.4), (-0.6,), (-0.6, -0.5, -0.4), (),
                        ("-0.6", -0.4), (-0.6, None), (-0.6, 1j)):
            with pytest.raises(DomainError, match="e_bracket must be finite"):
                solve_shooting(problem, inner, outer, bracket,
                               asymptotics=sysa)
    with pytest.raises(DomainError, match="outer boundary or asymptotics"):
        solve_shooting(problem, inner, None, (-0.6, -0.4))


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


def test_matrix_k_beyond_the_mesh(monkeypatch):
    # k beyond the unknowns is refused before any count: 50 nodes with
    # Robin ends are 50 unknowns, and a Dirichlet outer wall leaves 49
    def no_count(*args, **kwargs):
        raise AssertionError("a count ran")

    problem = RadialProblem(0, 1.0, -1.0, 0.0, log_grid(1e-5, 40.0, 50))
    inner, wall = robin_inner(0, -1.0), RobinBoundary("outer", 0.0, 1.0)
    robin = robin_outer(SystemAsymptotics(1.0, 0.0, -0.5), 40.0)
    with monkeypatch.context() as patch:
        patch.setattr(radial._Numerov, "branches", no_count)
        with pytest.raises(DomainError, match="the 50 unknowns"):
            solve_matrix(problem, inner, robin, 51)
        with pytest.raises(DomainError, match="the 49 unknowns"):
            solve_matrix(problem, inner, wall, 50)
        with pytest.raises(DomainError, match="the 50 unknowns"):
            solve_matrix_selfconsistent(problem, inner, 1.0, 0.0, 51)
    # more bound states than the box holds below E = 0
    problem = replace(problem, grid=log_grid(1e-5, 40.0, 400))
    with pytest.raises(DomainError, match="states of the mesh below"):
        solve_matrix_selfconsistent(problem, inner, 1.0, 0.0, 40)
    # a 50-node grid solves where its mesh resolves the state: hydrogen 1s
    # between r = 0.5 and 8, where u' = -u and R'/R = -1 hold exactly
    small = RadialProblem(0, 1.0, -1.0, 0.0, log_grid(0.5, 8.0, 50))
    e = solve_matrix(small, inner, RobinBoundary("outer", 1.0, 1.0), 1)[0][0]
    assert e == pytest.approx(-0.5, abs=1e-5)


def test_matrix_k_beyond_the_countable_energies():
    # counting up to k = 150 doubles the trial energy until the outer
    # Robin row's e^(log step) leaves the double range: the mesh's 135
    # states below the last energy it could count are named instead
    problem = RadialProblem(0, 1.0, -1.0, 0.0, log_grid(1e-5, 40.0, 400))
    inner = robin_inner(0, -1.0)
    outer = robin_outer(SystemAsymptotics(1.0, 0.0, -0.5), 40.0)
    assert len(solve_matrix(problem, inner, outer, 100)) == 100
    for k in (150, 200):
        with pytest.raises(DomainError, match=f"k = {k} exceeds the 135 "
                           "states of the mesh below E = 8187.49"):
            solve_matrix(problem, inner, outer, k)


def _operator(problem, inner, outer):
    """T(E) of problem's mesh under fixed inner and outer conditions."""
    return radial._Numerov(problem, inner, outer)


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


def _t_count(op, energies):
    """States of op's T(E) below each energy, by the oracle: the negative
    eigenvalues of T's diagonal with -1 off-diagonals and B = 1, one column
    of diagonals per energy."""
    d = np.array([op.diagonal(e)[0][op.lo:op.hi] for e in energies]).T
    m = len(d)
    return _sturm_count((d, -np.ones(m - 1), np.ones(m)),
                        np.zeros(len(energies)))


def _t_bisect(op, lo, hi, iters=20):
    """Shrink each bracket [lo_j, hi_j] onto state j of T(E) by the
    oracle's counts."""
    j = np.arange(len(lo))
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    for _ in range(iters):
        mid = (lo + hi) / 2
        above = _t_count(op, mid) <= j  # state j lies at or above mid
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return (lo + hi) / 2


def _check_certified(problem, inner, outer, k, delta=1e-9):
    pairs = solve_matrix(problem, inner, outer, k)
    w = np.array([e for e, _ in pairs])
    op = _operator(problem, inner, outer)
    j = np.arange(k)
    # exactly j states of T below w_j - delta and j + 1 below w_j + delta:
    # the returned states are the k lowest, none skipped or repeated
    assert np.array_equal(_t_count(op, w - delta), j)
    assert np.array_equal(_t_count(op, w + delta), j + 1)
    ref = _t_bisect(op, w - delta, w + delta)
    assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(w))
    # states of different energies are orthogonal to the mesh's O(h^4)
    # error: int u_i u_j r^(2 ell + 2) dr by the trapezoid rule over ln r
    g = problem.grid
    p = np.array([fn.values for _, fn in pairs]) * g ** (problem.ell + 1.5)
    gram = np.trapezoid(p[:, None, :] * p[None, :, :], np.log(g))
    assert np.max(np.abs(gram - np.eye(k))) <= 1e-5
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


def _clustered_pair(n=2000):
    # two deep Gaussian wells 5 apart, tabulated on the grid; the second
    # depth is tuned so that each well alone has the same lowest Numerov
    # level on the 2000-node mesh, and the pair then splits only by
    # tunnelling, by 3.3e-7
    grid = log_grid(1e-3, 14.0, n)
    extra = -sum(depth * np.exp(-((grid - c) / 0.5) ** 2)
                 for c, depth in ((3.0, 12.0), (8.0, 11.99999479819502)))
    problem = RadialProblem(0, 1.0, 0.0, 0.0, grid, extra_potential=extra)
    return problem, robin_inner(0, 0.0), RobinBoundary("outer", 0.0, 1.0)


def test_matrix_spectrum_certified_for_a_clustered_pair():
    w = _check_certified(*_clustered_pair(), 3)
    assert 0.0 < w[1] - w[0] < 1e-6


def test_matrix_lapack_failure_is_a_convergence_error(monkeypatch):
    _, problem, inner, outer, _ = _hydrogen_setup(1.0, 1, 0, n=200)
    # a failed banded triangular solve of the branches
    monkeypatch.setattr(radial, "dtbtrs", lambda ab, b, **kwargs: (b, -1))
    with pytest.raises(ConvergenceError, match="tbtrs"):
        solve_matrix(problem, inner, outer, 1)


def test_matrix_convergence_rate():
    # Numerov's O(h^4): the error drops >= 12x per mesh doubling
    errs = []
    for n in (500, 1000, 2000):
        e_ref, problem, inner, outer, sysa = _hydrogen_setup(1.0, 1, 0, n=n)
        errs.append(abs(solve_matrix(problem, inner, outer, 1)[0][0] - e_ref))
    assert errs[0] / errs[1] >= 12.0
    assert errs[1] / errs[2] >= 12.0


def test_solved_functions_carry_the_cusp():
    # both routes' functions, spliced at the outer turning point: for
    # ell >= 1 a splice inside the inner forbidden region would scale the
    # inner branch wrongly
    for n in (2000, 4000):
        for z in (1.0, 2.0):
            for n_state, ell in CASES:
                e_ref, problem, inner, outer, sysa = _hydrogen_setup(
                    z, n_state, ell, n=n)
                _, fm = solve_matrix(problem, inner, outer,
                                     n_state - ell)[n_state - ell - 1]
                _, fs = solve_shooting(problem, inner, outer,
                                       (1.1 * e_ref, 0.9 * e_ref),
                                       asymptotics=sysa)
                n_fit = int(np.searchsorted(problem.grid, 0.05 / z))
                for fn in (fm, fs):
                    est = cusp_limit_first(fn, ell, n_points=n_fit)
                    assert est == pytest.approx(-z, abs=1e-6)


@pytest.mark.parametrize("n", [2000, 4000])
def test_shooting_3d_function_is_hydrogens(n):
    # hydrogen 3d: u = R/r^2 is e^(-r/3) up to normalisation
    e_ref, problem, inner, outer, sysa = _hydrogen_setup(1.0, 3, 2, n=n)
    _, fn = solve_shooting(problem, inner, outer, (1.1 * e_ref, 0.9 * e_ref),
                           asymptotics=sysa)
    r, u = fn.grid, fn.values
    near = r <= 1.0
    exact = np.exp(-r[near] / 3.0)
    ratio = u[near] / exact
    assert np.max(np.abs(ratio / ratio[-1] - 1.0)) <= 1e-6


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
def test_selfconsistent_states_certified_on_their_own_pencils(z, r_max):
    # each state is certified on T(E) under the outer condition of its own
    # energy: the self-consistent operator's outer row at E_j is the fixed
    # row of kappa(r_max; E_j), and the oracle counts j states of that T
    # below E_j - 1e-9 and j + 1 below E_j + 1e-9
    problem, inner = _own_kappa_problem(z, r_max)
    pairs = solve_matrix_selfconsistent(problem, inner, 1.0, z - 1.0, 3)
    own = radial._Numerov(problem, inner, (1.0, z - 1.0))
    for j, (w, fn) in enumerate(pairs):
        kappa = SystemAsymptotics(1.0, z - 1.0, w).kappa(r_max)
        op = _operator(problem, inner, RobinBoundary("outer", 1.0, -kappa))
        assert np.array_equal(own.diagonal(w)[0], op.diagonal(w)[0])
        assert list(_t_count(op, [w - 1e-9, w + 1e-9])) == [j, j + 1]
        assert outer_log_derivative(fn) == pytest.approx(kappa, abs=1e-5)


_INNER_WALL = RobinBoundary("inner", 0.0, 1.0)
_OUTER_WALL = RobinBoundary("outer", 0.0, 1.0)


# an id names its ends unless they are a Robin inner row and the tail
@pytest.mark.parametrize("z, n_state, ell, ends", [
    pytest.param(z, n_state, ell, ends, id="-".join(
        [str(z), str(n_state), str(ell)] + [ends] * (ends != "tail")))
    for ends in ("tail", "robin", "outer-wall", "inner-wall")
    for z, n_state, ell in ((1.0, 1, 0), (1.0, 3, 2), (2.0, 2, 1))])
def test_count_never_decreases_with_energy(z, n_state, ell, ends):
    # each end row is one kind of _edge: the tail's kappa(E), a fixed Robin
    # row or a Dirichlet wall, which drops its own node and no other.  The
    # outer row under kappa(E) falls with E, as every inner row does; the
    # inner Robin row need not, so the count is checked on a dense energy
    # grid: it never decreases and steps up at each level
    _, problem, inner, outer, _ = _hydrogen_setup(z, n_state, ell)
    tail = (1.0, z - 1.0)
    inner, outer = {"tail": (inner, tail), "robin": (inner, outer),
                    "outer-wall": (inner, _OUTER_WALL),
                    "inner-wall": (_INNER_WALL, tail)}[ends]
    op = radial._Numerov(problem, inner, outer)
    assert (op.lo, op.hi) == (int(inner is _INNER_WALL),
                              len(problem.grid) - (outer is _OUTER_WALL))
    energies = np.linspace(-0.6 * z * z, -z * z / 84.5, 1001)
    counts = np.array([op.count(e) for e in energies])
    steps = np.diff(counts)
    assert counts[0] == 0 and np.all((steps == 0) | (steps == 1))
    first = np.flatnonzero(steps)[0]
    ground = -z * z / (2.0 * n_state * n_state)
    assert energies[first] < ground < energies[first + 1]
    if outer is tail:
        outer_row = [op.diagonal(e)[0][-1] for e in energies]
        assert np.all(np.diff(outer_row) < 0.0)


def test_selfconsistent_guard_binds_the_settled_ground_state():
    # robin_outer's r_max >= 20/decay holds for the ground state's energy
    # (Z = 1: r_max >= 20) and for no trial energy: a box just above it
    # solves for three states, although the counts visit energies far
    # above E_0, and a box just below it is refused
    inner = robin_inner(0, -1.0)

    def box(r_max):
        return RadialProblem(0, 1.0, -1.0, 0.0, log_grid(1e-5, r_max, 2000))

    pairs = solve_matrix_selfconsistent(box(20.02), inner, 1.0, 0.0, 3)
    assert pairs[0][0] == pytest.approx(-0.5, abs=1e-8)
    with pytest.raises(DomainError, match="too small"):
        solve_matrix_selfconsistent(box(19.98), inner, 1.0, 0.0, 1)


def test_selfconsistent_solve_builds_each_mesh_once(monkeypatch):
    # one potential() per solve: every count and mismatch of T(E), under
    # every kappa(E), reuses the mesh's terms
    problem, inner = _own_kappa_problem(1.0, 40.0)
    potential = RadialProblem.potential
    sizes = []

    def counting(self, r=None):
        sizes.append(self.grid.size)
        return potential(self, r)

    monkeypatch.setattr(RadialProblem, "potential", counting)
    solve_matrix_selfconsistent(problem, inner, 1.0, 0.0, 3)
    assert sizes == [4000]


def test_twisted_counts_match_the_sturm_oracle(monkeypatch):
    _, problem, inner, outer, _ = _hydrogen_setup(1.0, 1, 0)
    for prob, inner_, outer_ in ((problem, inner, outer), _clustered_pair()):
        op = _operator(prob, inner_, outer_)
        w = np.array([e for e, _ in solve_matrix(prob, inner_, outer_, 6)])
        energies = np.concatenate([np.linspace(-20.0, 50.0, 141), w - 1e-9,
                                   w + 1e-9, w - 1e-12, w + 1e-12])
        assert np.array_equal([op.count(e) for e in energies],
                              _t_count(op, energies))
    # the tail's outer row as E -> 0-: kappa(r_max; E) grows without bound
    # and the row's d underflows to 0, a zero trailing minor next to the
    # outer edge; nearer 0 its Robin step overflows to -inf, without a
    # warning, and d is 0 again
    op = _operator(problem, inner, (1.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in (-1e-19, -1e-250, -1e-300):
            assert op.diagonal(e)[0][-1] == 0.0
            assert op.count(e) == _t_count(op, [e])[0]
    # a deep energy in a large box: the inward branch from r_max = 400
    # overflows before the turning node (there is none at E = -2, so the
    # split clamps to node 3), and the count restarts it from 2^-1000
    big = RadialProblem(0, 1.0, -1.0, 0.0, log_grid(1e-5, 400.0, 16000))
    op = _operator(big, inner, (1.0, 0.0))
    solves = _recorded_solves(monkeypatch)
    assert op.count(-2.0) == _t_count(op, [-2.0])[0]
    assert len(solves) == 2


def test_a_pair_whose_norm_overflows_keeps_its_split(monkeypatch):
    # the inward branch scaled until its pair at the split, all of it
    # finite, has a norm past the double range: the count keeps its split
    # and its value, and the mismatch its value, as the branches are
    # normalised by half their pairs' norms
    _, problem, inner, outer, _ = _hydrogen_setup(1.0, 1, 0)
    op = _operator(problem, inner, outer)
    energies = (-0.6, -0.3, -0.1)
    counts = [op.count(e) for e in energies]
    mismatches = [op.mismatch(e) for e in energies]
    tbtrs = radial.dtbtrs

    def scaled(ab, y, **kwargs):
        y, info = tbtrs(ab, y, **kwargs)
        y[op.split:] *= 0.99 * np.finfo(float).max / np.abs(y[-2:]).max()
        assert math.hypot(*y[-2:]) == math.inf and np.isfinite(y).all()
        return y, info

    monkeypatch.setattr(radial, "dtbtrs", scaled)
    solves = _recorded_solves(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [op.count(e) for e in energies] == counts
        assert len(solves) == len(energies)
        for e, (cas, step) in zip(energies, mismatches):
            assert op.mismatch(e) == pytest.approx((cas, step), rel=1e-12)


def _high_ell(z, ell, r_min, r_max, n):
    """-Z/r with angular momentum ell on a log grid, and its inner Robin
    condition."""
    problem = RadialProblem(ell, 1.0, -z, 0.0, log_grid(r_min, r_max, n))
    return problem, robin_inner(ell, -z / (ell + 1))


def _nodeless_log_u(z, ell, r):
    """ln u, u = R / r^ell, of the normalised nodeless hydrogen-like state of
    level ell + 1."""
    level = ell + 1
    log_norm = 0.5 * (3.0 * math.log(2.0 * z / level) - math.log(2.0 * level)
                      - math.lgamma(2 * level))
    return log_norm - z * r / level + ell * math.log(2.0 * z / level)


def _nodeless_p(z, ell, r):
    """The normalised nodeless hydrogen-like P = r R of level ell + 1, in
    logarithms, as its factors leave the double range for large ell."""
    return np.exp(_nodeless_log_u(z, ell, r) + (ell + 1) * np.log(r))


@pytest.mark.parametrize("z, ell, r_max, n", [(1.0, 24, 2500.0, 4000),
                                              (100.0, 30, 60.0, 8000),
                                              (100.0, 35, 60.0, 8000),
                                              (100.0, 40, 60.0, 8000),
                                              (100.0, 60, 150.0, 8000)])
def test_high_ell_states_are_the_hydrogen_functions(z, ell, r_max, n):
    # (r chi)^2 of the unnormalised branches passes 1e308 from ell ~ 24 on,
    # where the norm was inf and u = 0 on every node: chi is scaled by
    # powers of two before it is squared.  For ell = 60 the outward branch
    # overflows and restarts from 2^-1000
    problem, inner = _high_ell(z, ell, 1e-5, r_max, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((e, fn),) = solve_matrix_selfconsistent(problem, inner, 1.0,
                                                 z - 1.0, 1)
    r = problem.grid
    ref = _nodeless_p(z, ell, r)
    p = r * fn.as_full().values
    assert e == pytest.approx(-z * z / (2.0 * (ell + 1) ** 2), rel=1e-10)
    assert np.max(np.abs(p * np.sign(np.dot(p, ref)) - ref)) <= 1e-9


def test_u_is_returned_where_only_r_to_the_minus_ell_overflows():
    # r^(-ell-1/2) at r_min = 1e-8 is 1e484 for ell = 60, but u = 1.65e-70
    # there: u is formed in logarithms, and P is the hydrogen function's
    problem, inner = _high_ell(100.0, 60, 1e-8, 150.0, 8000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((_, fn),) = solve_matrix_selfconsistent(problem, inner, 1.0, 99.0, 1)
    r = problem.grid
    ref = _nodeless_p(100.0, 60, r)
    p = r * fn.as_full().values
    assert np.max(np.abs(p * np.sign(np.dot(p, ref)) - ref)) <= 1e-9


def _scaled_box(z):
    """Z = 100's ell = 60 box scaled by 100/Z, on which T(E) is the same and
    u scales as Z^(ell + 3/2)."""
    return _high_ell(z, 60, 1e-5 * 100.0 / z, 150.0 * 100.0 / z, 8000)


def test_u_near_the_top_of_the_double_range_is_returned():
    # Z = 1e8: ln u(0) = 689, below ln(2^1024) = 709.8
    z = 1e8
    problem, inner = _scaled_box(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((_, fn),) = solve_matrix_selfconsistent(problem, inner, 1.0,
                                                 z - 1.0, 1)
    ref = np.exp(_nodeless_log_u(z, 60, problem.grid))
    u = fn.values * np.sign(fn.values[0])  # nodeless
    assert u[0] > 1e299
    assert np.max(np.abs(u - ref)[ref > 0.0] / ref[ref > 0.0]) <= 1.1e-3


def test_u_past_the_double_range_is_an_overflow():
    # Z = 1e9: ln u(0) = 831, and the solve names the state's energy,
    # without a warning
    problem, inner = _scaled_box(1e9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow, match=r"state at E = -1343724\d{8}\.\d"):
            solve_matrix_selfconsistent(problem, inner, 1.0, 1e9 - 1.0, 1)


def test_u_near_r_min_after_an_outward_restart_is_not_flushed_to_zero():
    # Z = 100, ell = 60: the outward branch restarts from 2^-1000, and its
    # scaling to the splice takes chi below 2^-1022 on r < 1e-4, where
    # r^(-ell-1/2) brings u = 1.65e-70 back into the double range
    z, ell = 100.0, 60
    problem, inner = _high_ell(z, ell, 1e-5, 150.0, 8000)
    outer = robin_outer(SystemAsymptotics(1.0, z - 1.0,
                                          -z * z / (2.0 * (ell + 1) ** 2)),
                        150.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((_, fn),) = solve_matrix(problem, inner, outer, 1)
    ref = np.exp(_nodeless_log_u(z, ell, problem.grid))
    u = fn.values * np.sign(np.dot(fn.values, ref))
    normal = ref >= np.finfo(float).tiny
    assert np.count_nonzero(u[normal] == 0.0) == 0
    assert np.max(np.abs(u - ref)[normal] / ref[normal]) <= 1.1e-3


def test_an_overflowing_branch_restarts_from_2_to_the_minus_1000(monkeypatch):
    # Z = 100, ell = 60 on 8,000 nodes: above the bottom of q/b (-1.366)
    # the outward branch grows past 2^1024 to the turning node, which also
    # makes the inward block NaN, and both restart; below it there is no
    # turning node, and the inward branch alone restarts.  Each count
    # takes two solves and equals the oracle's
    problem, inner = _high_ell(100.0, 60, 1e-5, 150.0, 8000)
    op = _operator(problem, inner, (1.0, 99.0))
    w = np.array([e for e, _ in solve_matrix_selfconsistent(
        problem, inner, 1.0, 99.0, 4)])
    energies = np.concatenate([np.linspace(-2.0, -0.05, 14), w - 1e-9,
                               w + 1e-9])
    starts, tbtrs = [], radial.dtbtrs

    def recording(ab, y, **kwargs):
        starts.append((y[0], y[op.split]))
        return tbtrs(ab, y, **kwargs)

    monkeypatch.setattr(radial, "dtbtrs", recording)
    assert np.array_equal([op.count(e) for e in energies],
                          _t_count(op, energies))
    tiny = 2.0 ** -1000
    assert starts == [s for e in energies for s in (
        (1.0, 1.0), (tiny, tiny) if e > -1.366 else (1.0, tiny))]


def test_tbtrs_is_called_in_branches_alone(monkeypatch):
    # every LAPACK solve of both routes, restarts included, is a
    # branches() solve: nothing else solves T(E)
    inside, outside, calls = [False], [], []
    branches, tbtrs = radial._Numerov.branches, radial.dtbtrs

    def in_branches(self, e):
        calls.append(e)
        inside[0] = True
        try:
            return branches(self, e)
        finally:
            inside[0] = False

    def recording(*args, **kwargs):
        outside.append(not inside[0])
        return tbtrs(*args, **kwargs)

    monkeypatch.setattr(radial._Numerov, "branches", in_branches)
    monkeypatch.setattr(radial, "dtbtrs", recording)
    _, problem, inner, outer, sysa = _hydrogen_setup(1.0, 1, 0)
    solve_matrix(problem, inner, outer, 2)
    solve_shooting(problem, inner, None, (-0.6, -0.4), sysa)
    # restarts of the outward branch, and of the inward one
    for z, ell, r_max in ((100.0, 60, 150.0), (6.0, 2, 400.0)):
        problem, inner = _high_ell(z, ell, 1e-5, r_max, 16000)
        solve_matrix_selfconsistent(problem, inner, 1.0, z - 1.0, 1)
    # every call inside a branches() solve, each solve making one or two,
    # and some of them two: the restarts
    assert not any(outside)
    assert len(calls) < len(outside) <= 2 * len(calls)


def _recorded_branches(monkeypatch):
    """The energy of every branches() solve, in the order made."""
    made = []
    branches = radial._Numerov.branches

    def recording(self, e):
        made.append(e)
        return branches(self, e)

    monkeypatch.setattr(radial._Numerov, "branches", recording)
    return made


_DIRICHLET = (RobinBoundary("inner", 0.0, 1.0), RobinBoundary("outer", 0.0, 1.0))


def test_the_first_rung_is_proved_without_a_solve(monkeypatch):
    # at e0 = min(q/b) every interior row has d >= 2 and every Robin end
    # row d >= 1, so T(e0) has no negative eigenvalue (Gershgorin): start()
    # records count 0, which the oracle confirms, and solves nothing
    cases = []
    for z, n_state, ell in ((1.0, 1, 0), (2.0, 3, 2)):
        _, problem, inner, outer, _ = _hydrogen_setup(z, n_state, ell)
        cases += [(problem, inner, outer), (problem, inner, (1.0, z - 1.0)),
                  (problem, *_DIRICHLET)]
    for z, ell, r_max in ((100.0, 30, 60.0), (100.0, 60, 150.0)):
        problem, inner = _high_ell(z, ell, 1e-5, r_max, 8000)
        outer = robin_outer(SystemAsymptotics(
            1.0, z - 1.0, -z * z / (2.0 * (ell + 1) ** 2)), r_max)
        cases += [(problem, inner, outer), (problem, inner, (1.0, z - 1.0))]
    cases += [(RadialProblem(ell, 1.0, 0.0, 0.0, log_grid(1e-5, 10.0, 3000)),
               *_DIRICHLET) for ell in (0, 1)]
    made = _recorded_branches(monkeypatch)
    for problem, inner, outer in cases:
        op = _operator(problem, inner, outer)
        made.clear()
        ((e, count, step),) = op.start()
        assert (made, count, e) == ([], 0, op.qb_min[0])
        assert math.isnan(step) and _t_count(op, [e])[0] == 0


def test_the_first_rung_is_counted_where_the_proof_fails(monkeypatch):
    # where the stability floor binds (200 nodes) some node has q < e0 b,
    # so d < 2 there; and u' = -10 u at r = 0.1 makes the inner Robin row
    # d < 1, with a state below e0: both count e0 on one solve, as the
    # oracle does
    _, coarse, inner, outer, _ = _hydrogen_setup(1.0, 1, 0, n=200)
    steep = RadialProblem(0, 1.0, -1.0, 0.0, log_grid(0.1, 40.0, 2000))
    made = _recorded_branches(monkeypatch)
    for problem, inner, outer, binds, rungs in (
            (coarse, inner, outer, True, [0]),
            (coarse, inner, (1.0, 0.0), True, [0]),
            (coarse, *_DIRICHLET, True, [0]),
            (steep, robin_inner(0, -10.0), (1.0, 0.0), False, [0, 1])):
        op = _operator(problem, inner, outer)
        assert (op.floor > op.qb_min[0]) == binds
        made.clear()
        pts = op.start()
        e0 = max(op.qb_min[0], op.floor)
        assert [c for _, c, _ in pts] == rungs and pts[-1][0] == e0
        assert made[0] == e0 and len(made) == len(rungs)
        assert pts[-1][1] == _t_count(op, [e0])[0]


def test_both_routes_on_one_problem_build_its_mesh_once(monkeypatch):
    # the E-independent mesh is the problem's: matrix and shooting on one
    # problem build it once, and their results are bit for bit those on
    # two separate problems
    e, problem, inner, outer, sysa = _hydrogen_setup(2.0, 2, 0)
    bracket = (1.1 * e, 0.9 * e)
    apart = (solve_matrix(replace(problem), inner, outer, 2),
             solve_shooting(replace(problem), inner, outer, bracket, sysa))
    log_mesh, built = radial._log_mesh, []

    def counting(prob):
        built.append(prob)
        return log_mesh(prob)

    monkeypatch.setattr(radial, "_log_mesh", counting)
    shared = (solve_matrix(problem, inner, outer, 2),
              solve_shooting(problem, inner, outer, bracket, sysa))
    assert built == [problem]
    for (e1, fn1), (e2, fn2) in zip([*apart[0], apart[1]],
                                    [*shared[0], shared[1]]):
        assert e1 == e2 and np.array_equal(fn1.values, fn2.values)
    # a grid that is not logarithmic is refused on every solve
    linear = RadialProblem(0, 1.0, -1.0, 0.0, np.linspace(1e-3, 40.0, 400))
    for _ in range(2):
        with pytest.raises(DomainError, match="logarithmic grid"):
            solve_matrix(linear, inner, outer, 1)
    assert built == [problem, linear, linear]


def test_energies_past_the_double_range_are_a_stiffness_error():
    # q1 q2 = 1e300 puts the stability floor near 1e305, where E b leaves
    # the double range: under fixed ends the first rung names E, and no
    # warning leaks
    problem = RadialProblem(2, 1.0, 1e300, 0.0, log_grid(1e-5, 40.0, 2000))
    inner, outer = robin_inner(2, 0.0), RobinBoundary("outer", 1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StiffnessError, match=r"double range at E = 1e\+305"):
            solve_matrix(problem, inner, outer, 1)
        with pytest.raises(RegimeError, match="bound state"):
            solve_matrix_selfconsistent(problem, inner, 1.0, 0.0, 1)


def test_a_boundary_marked_for_the_other_end_is_refused():
    _, problem, inner, outer, _ = _hydrogen_setup(1.0, 1, 0)
    with pytest.raises(DomainError, match="boundary marked outer used at "
                       "inner"):
        solve_matrix(problem, outer, outer, 1)


@pytest.mark.parametrize("z, r_max, tol", [(1.0, 400.0, 1.5e-11),
                                            (3.0, 150.0, 3e-10)])
def test_large_boxes_splice_without_overflow(z, r_max, tol):
    # the inward branch grows past 1e154 from r_max to the turning point:
    # the splice normalises its pair, as the mismatch does, and squares
    # nothing
    problem = RadialProblem(0, 1.0, -z, 0.0, log_grid(1e-5, r_max, 16000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = solve_matrix_selfconsistent(problem, robin_inner(0, -z),
                                            1.0, z - 1.0, 3)
    for j, (e, fn) in enumerate(pairs):
        assert e == pytest.approx(-z * z / (2.0 * (j + 1) ** 2), abs=tol)
        assert np.all(np.isfinite(fn.values))


@pytest.mark.parametrize("z", [6.0, 10.0])
def test_start_count_overflowing_its_robin_row_is_a_stiffness_error(z):
    # r_max = 400 on 2,000 nodes: the fixed outer Robin row's step e^(...)
    # overflows at the first count of the search
    problem = RadialProblem(0, 1.0, -z, 0.0, log_grid(1e-5, 400.0, 2000))
    outer = robin_outer(SystemAsymptotics(1.0, z - 1.0, -z * z / 2.0), 400.0)
    with pytest.raises(StiffnessError, match="end row"):
        solve_matrix(problem, robin_inner(0, -z), outer, 2)


# the boxes that still raise: the stability floor of _Numerov.start (7),
# a branch of T(E) that overflows from its restart at 2^-1000 too (3: the
# inward branch grows 1,800 to 3,500 nats to its split, and a restart
# leaves it about 1,400)
# and robin_outer's r_max guard (2)
_UNSOLVED_BOXES = {(1.0, 0, 400.0, 2000), (1.0, 2, 40.0, 2000),
                   (1.0, 2, 40.0, 16000), (3.0, 0, 150.0, 2000),
                   (3.0, 0, 400.0, 2000), (3.0, 0, 400.0, 16000),
                   (3.0, 2, 400.0, 2000), (6.0, 0, 150.0, 2000),
                   (6.0, 0, 150.0, 16000), (6.0, 0, 400.0, 2000),
                   (6.0, 0, 400.0, 16000), (6.0, 2, 400.0, 2000)}


@pytest.mark.parametrize("n", [2000, 16000])
@pytest.mark.parametrize("r_max", [40.0, 150.0, 400.0])
@pytest.mark.parametrize("z, ell", [(1.0, 0), (1.0, 2), (3.0, 0), (3.0, 2),
                                    (6.0, 0), (6.0, 2)])
def test_selfconsistent_solve_returns_or_raises_a_typed_error(z, ell, r_max,
                                                              n):
    # the boxes outside _UNSOLVED_BOXES return their states, the others
    # raise a CuspbcError, none another exception, and nothing warns; each
    # state returned is the hydrogen-like one, its energy within 1e-7 and
    # r R within 1e-4 of the normalised n = ell + 1 + j function on every
    # node (the widest errors, 1.8e-8 and 3.1e-5, are of 3s in the 40 box)
    problem = RadialProblem(ell, 1.0, -z, 0.0, log_grid(1e-5, r_max, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            pairs = solve_matrix_selfconsistent(
                problem, robin_inner(ell, -z / (ell + 1)), 1.0, z - 1.0, 3)
        except CuspbcError:
            if (z, ell, r_max, n) in _UNSOLVED_BOXES:
                return
            raise
    energies = [e for e, _ in pairs]
    assert energies == sorted(energies) and energies[-1] < 0.0
    r = problem.grid
    for j, (e, fn) in enumerate(pairs):
        level = ell + 1 + j
        rho = 2.0 * z * r / level
        ref = (math.sqrt((2.0 * z / level) ** 3 / (2.0 * level)
                         * math.factorial(level - ell - 1)
                         / math.factorial(level + ell))
               * r * np.exp(-rho / 2.0) * rho ** ell
               * eval_genlaguerre(level - ell - 1, 2 * ell + 1, rho))
        p = r * fn.as_full().values
        p *= np.sign(np.dot(p, ref))
        assert abs(e + z * z / (2.0 * level ** 2)) <= 1e-7
        assert np.max(np.abs(p - ref)) <= 1e-4
    if (z, ell, r_max, n) == (6.0, 2, 400.0, 16000):
        # the inward branch overflows at the turning node: the count, the
        # mismatch and the state restart it from 2^-1000, and the state
        # meets it at the turning node after scaling both branches
        assert energies == pytest.approx([-2.0, -1.125, -0.72], abs=1e-10)


def test_cooley_step_after_an_inward_restart(caplog):
    # Z = 6, ell = 2, r_max = 400 on 16,000 nodes: at the ground state the
    # inward branch overflows from r_max to the turning node, and restarts
    # there from 2^-1000.  Cooley's step is taken over both branches met
    # at the turning node, as the state's function is: over the outward
    # branch past it, which is rounding, state 0 took 44 mismatch
    # evaluations (6 in the 150 box)
    z, ell = 6.0, 2
    problem = RadialProblem(ell, 1.0, -z, 0.0, log_grid(1e-5, 400.0, 16000))
    pairs, events = _solve_events(caplog, solve_matrix_selfconsistent,
                                  problem, robin_inner(ell, -z / (ell + 1)),
                                  1.0, z - 1.0, 3)
    assert events[0]["mismatches"] <= 8
    assert [e for e, _ in pairs] == pytest.approx(
        [-18.0 / (ell + 1 + j) ** 2 for j in range(3)], abs=1e-10)


def test_clustered_pair_bisected_one_state_at_a_time():
    # each of the pair (split 3.3e-7) is isolated alone by the counts, and
    # its energy is the level the extended-precision oracle bisects from
    # the whole spectrum's range
    problem, inner, outer = _clustered_pair()
    op = _operator(problem, inner, outer)
    ref = _t_bisect(op, np.full(2, -20.0), np.full(2, 50.0), iters=50)
    w = np.array([e for e, _ in solve_matrix(problem, inner, outer, 2)])
    assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(w))


def test_states_closer_than_the_bisection_tolerance_raise(monkeypatch):
    # with the bisection stopped 1e-3 wide, the pair split by 3.3e-7 stays
    # in one bracket: it is refused, not solved as one state
    monkeypatch.setattr(radial, "_BISECT_TOL", 1e-3)
    with pytest.raises(ConvergenceError, match="state 0 not isolated"):
        solve_matrix(*_clustered_pair(), 2)


def test_clustered_pair_refined_on_the_full_mesh():
    # the wells are tabulated on the grid, whose nodes T(E) samples: the
    # three lowest states keep their order, and refining the mesh 8x moves
    # each by its O(h^4) error, 5e-6 at most (in the outer well, where the
    # radial step is widest)
    problem, inner, wall = _clustered_pair()
    w = [e for e, _ in solve_matrix(problem, inner, wall, 3)]
    fine = [e for e, _ in solve_matrix(_clustered_pair(16000)[0], inner,
                                       wall, 3)]
    assert np.all(np.diff(w) > 0.0)
    assert np.max(np.abs(np.subtract(w, fine))) <= 1e-5


def _solve_events(caplog, solve, *args):
    """A solve's result and the arguments of its per-state debug events."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cuspbc"):
        out = solve(*args)
    return out, [r.args for r in caplog.records if r.name == "cuspbc.radial"]


def test_matrix_solves_log_one_event_per_state(caplog):
    assert any(isinstance(h, logging.NullHandler)
               for h in logging.getLogger("cuspbc").handlers)
    _, problem, inner, outer, _ = _hydrogen_setup(1.0, 1, 0)
    for solve, args in ((solve_matrix, (outer, 2)),
                        (solve_matrix_selfconsistent, (1.0, 0.0, 2))):
        _, events = _solve_events(caplog, solve, problem, inner, *args)
        assert [(ev["state"], ev["mesh"]) for ev in events] == [
            (0, 2000), (1, 2000)]
        # every state makes its two certificate counts and evaluates the
        # mismatch at least once (the counts give the bracket ends' signs)
        assert all(sorted(ev) == ["counts", "mesh", "mismatches", "solves",
                                  "state"]
                   and ev["counts"] >= 2 and ev["mismatches"] >= 1
                   for ev in events)


@pytest.mark.parametrize("n_state", [1, 2, 3])
def test_shooting_logs_the_state_it_found(caplog, n_state):
    # one event per solve, as the matrix route's per state: its state is
    # the counts' j, j below the bracket and j + 1 above it, which is u's
    # node count; its counts are the bracket's and the certificate's (the
    # stability check's first rung is proved, not counted)
    e, problem, inner, outer, sysa = _hydrogen_setup(1.0, n_state, 0)
    (_, fn), events = _solve_events(caplog, solve_shooting, problem, inner,
                                    outer, (1.1 * e, 0.9 * e), sysa)
    nodes = int(np.count_nonzero(np.diff(np.signbit(fn.values))))
    assert len(events) == 1
    assert (events[0]["state"], events[0]["mesh"]) == (n_state - 1, 2000)
    assert events[0]["state"] == nodes
    assert events[0]["counts"] >= 4 and events[0]["mismatches"] >= 1


@pytest.mark.parametrize("z, n_state, ell", [(1.0, 1, 0), (1.0, 2, 0),
                                             (2.0, 2, 1), (2.0, 3, 2)])
def test_cooley_step_is_a_newton_step(z, n_state, ell):
    # from E_j + dE, on either side, Cooley's step lands within 4 dE^2/|E_j|
    # of the state: Newton's quadratic convergence
    _, problem, inner, _, _ = _hydrogen_setup(z, n_state, ell)
    w = solve_matrix_selfconsistent(problem, inner, 1.0, z - 1.0,
                                    n_state - ell)[-1][0]
    op = radial._Numerov(problem, inner, (1.0, z - 1.0))
    for rel in (1e-2, 1e-3, 1e-4, -1e-3, -1e-4):
        de = rel * abs(w)
        step = op.mismatch(w + de)[1]
        assert abs(w + de + step - w) <= 4.0 * de * de / abs(w)


def test_shooting_stops_at_the_rounding_of_its_steps(monkeypatch):
    # on 8,000 nodes the mismatch's rounding sets Cooley's last steps for
    # Z = 2, 3p, above shooting's tolerance: two steps in a row below
    # 1e-11 |E| end the solve (without that rule it took 39 evaluations,
    # the regula falsi 10), at the matrix route's energy
    e, problem, inner, outer, sysa = _hydrogen_setup(2.0, 3, 1, n=8000)
    made = _recorded_mismatches(monkeypatch)
    e_s, _ = solve_shooting(problem, inner, outer, (1.1 * e, 0.9 * e),
                            asymptotics=sysa)
    assert len(made) <= 6
    e_m = solve_matrix_selfconsistent(problem, inner, 1.0, 1.0, 2)[-1][0]
    assert e_s == pytest.approx(e_m, abs=1e-12)


def test_each_state_takes_few_mismatch_evaluations(monkeypatch):
    # Cooley's Newton steps: over CASES at Z = 1, 2 and the OWN_KAPPA_CASES,
    # the matrix route took 212 evaluations and shooting 72 under the
    # Anderson-Bjorck regula falsi, and 80 and 16 from the upper end of
    # the matrix route's bracket; from its isolating counts' estimate the
    # matrix route takes 62
    made = _recorded_mismatches(monkeypatch)
    matrix = shooting = 0
    for z in (1.0, 2.0):
        for n_state, ell in CASES:
            e, problem, inner, outer, sysa = _hydrogen_setup(z, n_state, ell)
            made.clear()
            solve_matrix(problem, inner, outer, n_state - ell)
            matrix += len(made)
            made.clear()
            solve_shooting(problem, inner, outer, (1.1 * e, 0.9 * e),
                           asymptotics=sysa)
            shooting += len(made)
    for z, r_max in OWN_KAPPA_CASES:
        made.clear()
        solve_matrix_selfconsistent(*_own_kappa_problem(z, r_max), 1.0,
                                    z - 1.0, 3)
        matrix += len(made)
    assert matrix <= 70 and shooting <= 40


def test_events_count_every_branches_solve(caplog, monkeypatch):
    # k = 3: the events' solves add up to the branches() solves made, and
    # each state's are its counts and mismatch evaluations, as a point()'s
    # step and a state's function read a count's solve
    made = []
    branches = radial._Numerov.branches

    def recording(self, e):
        made.append(e)
        return branches(self, e)

    monkeypatch.setattr(radial._Numerov, "branches", recording)
    problem, inner = _own_kappa_problem(1.0, 40.0)
    _, events = _solve_events(caplog, solve_matrix_selfconsistent, problem,
                              inner, 1.0, 0.0, 3)
    assert len(events) == 3
    assert sum(ev["solves"] for ev in events) == len(made)
    assert all(ev["solves"] == ev["counts"] + ev["mismatches"]
               for ev in events)


def test_matrix_route_starts_newton_at_its_counts_estimate(caplog):
    # -Z/r plus a small tabulated e^(-mu r) on 2,000 nodes, self-consistent:
    # the search halving towards E = 0 brackets the ground state (-2.2034)
    # in [-2.2044, -1.1022], and Cooley's step from the lower end lands
    # within 4e-7 of it, so Newton starts there (from the upper end it took
    # 13 evaluations)
    z, grid = 2.1, log_grid(1e-5, 90.0 / 2.1, 2000)
    problem = RadialProblem(0, 1.0, -z, 0.0, grid,
                            0.0025 * np.exp(-0.7 * grid))
    pairs, events = _solve_events(caplog, solve_matrix_selfconsistent,
                                  problem, robin_inner(0, -z), 1.0, z - 1.0, 3)
    assert events[0]["mismatches"] <= 5
    assert pairs[0][0] == pytest.approx(-z * z / 2.0, rel=2e-3)


def _recorded_counts(monkeypatch):
    """(energy, count) of every count of T(E), the isolating point()s'
    included, in the order made."""
    made = []
    count = radial._Numerov.count

    def recording(self, e, got=None):
        made.append((e, count(self, e, got)))
        return made[-1][1]

    monkeypatch.setattr(radial._Numerov, "count", recording)
    return made


def _recorded_mismatches(monkeypatch):
    """The energy of every mismatch evaluation with its own solve, Newton's
    iterates, in the order made; a point()'s step shares its count's."""
    made = []
    mismatch = radial._Numerov.mismatch

    def recording(self, e, got=None):
        if got is None:
            made.append(e)
        return mismatch(self, e, got)

    monkeypatch.setattr(radial._Numerov, "mismatch", recording)
    return made


def test_a_solve_binds_tbtrs_alone():
    # one LAPACK routine makes every count, mismatch and state function
    solve_matrix(*_hydrogen_setup(1.0, 1, 0, n=200)[1:4], 1)
    assert "dtbtrs" in vars(radial)
    with pytest.raises(AttributeError):
        getattr(radial, "dstebz")


def _recorded_solves(monkeypatch):
    """The arguments of every LAPACK tbtrs call, in the order made."""
    made = []
    tbtrs = radial.dtbtrs

    def recording(*args, **kwargs):
        made.append(args)
        return tbtrs(*args, **kwargs)

    monkeypatch.setattr(radial, "dtbtrs", recording)
    return made


def _matrix_solves():
    """(solver, *args) of the hydrogen states of both charges and the
    own-kappa problems, every state of each."""
    solves = [(solve_matrix, *_hydrogen_setup(z, n_state, ell)[1:4],
               n_state - ell)
              for z in (1.0, 2.0) for n_state, ell in CASES]
    return solves + [(solve_matrix_selfconsistent,
                      *_own_kappa_problem(z, r_max), 1.0, z - 1.0, 3)
                     for z, r_max in OWN_KAPPA_CASES]


def test_one_bisection_per_matrix_solve(monkeypatch):
    # one bisection per solve, its counts shared by all k states: no energy
    # is counted twice, and the counts never decrease with energy
    made = _recorded_counts(monkeypatch)
    for solve, *args in _matrix_solves():
        made.clear()
        solve(*args)
        energies = [e for e, _ in made]
        assert len(set(energies)) == len(energies)
        counts = [c for _, c in sorted(made)]
        assert counts == sorted(counts)


def test_no_trial_energy_is_solved_twice_per_matrix_solve(monkeypatch):
    # every branches() solve of a matrix solve is at a new energy: a state
    # starts Newton inside its isolating pair, never at a counted end, and
    # its function is at an energy no count or mismatch solved
    made = []
    branches = radial._Numerov.branches

    def recording(self, e):
        made.append(e)
        return branches(self, e)

    monkeypatch.setattr(radial._Numerov, "branches", recording)
    for solve, *args in _matrix_solves():
        made.clear()
        solve(*args)
        assert len(set(made)) == len(made)


def _assert_certified_once(made, w, j, delta):
    """Exactly two counts within 2 delta of the state's energy w: one at w,
    on the solve that builds the function, and one at w + delta (j states
    below w) or at w - delta (j + 1 below w), the side that w's count and
    the isolating pair's far end do not settle."""
    near = sorted((e - w, c) for e, c in made if abs(e - w) <= 2 * delta)
    offsets = [s for s, _ in near]
    assert [c for _, c in near] == [j, j + 1]
    assert np.allclose(offsets, [0.0, delta] if offsets[0] == 0.0
                       else [-delta, 0.0], rtol=1e-6, atol=0.0)


def test_selfconsistent_solve_certifies_each_state_once(monkeypatch):
    # k = 3: each state is certified by one count at E_j and one at E_j +
    # delta or E_j - delta, and the LAPACK tbtrs calls are one per count
    # and one per mismatch evaluation: the function reads its count's solve
    made, calls = _recorded_counts(monkeypatch), _recorded_solves(monkeypatch)
    mismatches = _recorded_mismatches(monkeypatch)
    problem, inner = _own_kappa_problem(1.0, 40.0)
    pairs = solve_matrix_selfconsistent(problem, inner, 1.0, 0.0, 3)
    assert len(calls) == len(made) + len(mismatches)
    for j, (w, _) in enumerate(pairs):
        _assert_certified_once(made, w, j, 1e-9 * max(1.0, abs(w)))


@pytest.mark.parametrize("rtol", [1e-12, 1e-3])
def test_shooting_certifies_its_state_once(monkeypatch, rtol):
    # as each matrix-route state: one count at E and one at E + delta or
    # E - delta, delta = max(1e-9 max(1, |E|), 1e-12 + rtol |E|), as the
    # bracket's ends lie beyond delta
    e, problem, inner, outer, sysa = _hydrogen_setup(1.0, 2, 0)
    made = _recorded_counts(monkeypatch)
    w, _ = solve_shooting(problem, inner, outer, (1.1 * e, 0.9 * e), sysa,
                          rtol=rtol)
    delta = max(1e-9 * max(1.0, abs(w)), 1e-12 + rtol * abs(w))
    _assert_certified_once(made, w, 1, delta)


def test_certificate_decides_as_direct_counts(monkeypatch):
    # _state accepts E exactly where a direct count finds j states below
    # E - delta and j + 1 below E + delta, and refuses with those counts
    # otherwise, for energies at, near and beyond state j = 1; from a pair
    # whose ends lie beyond delta it counts E and one side, from a pair
    # whose ends lie within delta of E_1 both sides
    problem, inner = _own_kappa_problem(1.0, 40.0)
    w = [e for e, _ in solve_matrix_selfconsistent(problem, inner, 1.0, 0.0,
                                                   3)]
    op = radial._Numerov(problem, inner, (1.0, 0.0))
    direct = radial._Numerov(problem, inner, (1.0, 0.0))
    gap = 1e-9 * max(1.0, abs(w[1]))  # delta at E_1
    wide = [op.point(0.5 * (w[0] + w[1])), op.point(0.5 * (w[1] + w[2]))]
    tight = [op.point(w[1] - 0.5 * gap), op.point(w[1] + 0.5 * gap)]
    assert [p[1] for p in wide + tight] == [1, 2, 1, 2]
    made = _recorded_counts(monkeypatch)
    for pts, fallback in ((wide, False), (tight, True)):
        for e in (w[1], w[1] - 0.5 * gap, w[1] + 0.5 * gap, w[1] - 2 * gap,
                  w[1] + 2 * gap, w[0], w[2]):
            monkeypatch.setattr(radial, "_newton", lambda *args: (e, 0))
            delta = max(1e-9 * max(1.0, abs(e)), 1e-14 + 1e-13 * abs(e))
            below = (direct.count(e - delta), direct.count(e + delta))
            made.clear()
            if below == (1, 2):
                assert radial._state(op, 1, list(pts), 1e-14, 1e-13)[0] == e
                sides = {s for s, _ in made} - {e}
                assert len(sides) == 1 + fallback
                assert sides <= {e - delta, e + delta}
            else:
                with pytest.raises(ConvergenceError) as refused:
                    radial._state(op, 1, list(pts), 1e-14, 1e-13)
                assert str(refused.value) == (
                    f"state 1 failed its certificate: T(E) has {below[0]} "
                    f"and {below[1]} states below E -/+ {delta:.1g}")


def test_state_failing_its_certificate_raises(monkeypatch):
    # a root finder that returns the lower end of its bracket gives an
    # energy with no state of T(E) within delta above it: the count finds
    # j, not j + 1, states below E_j + delta, on either route
    monkeypatch.setattr(radial, "_newton",
                        lambda f, lo, hi, *args: (lo, 0))
    problem, inner = _own_kappa_problem(2.0, 20.0)
    with pytest.raises(ConvergenceError, match="state 0 failed its cert"):
        solve_matrix_selfconsistent(problem, inner, 1.0, 1.0, 1)
    outer = RobinBoundary("outer", 0.0, 1.0)
    with pytest.raises(ConvergenceError, match="state 0 failed its cert"):
        solve_matrix(problem, inner, outer, 2)
    sysa = SystemAsymptotics(1.0, 1.0, -2.0)
    for wall, asymptotics in ((outer, None), (None, sysa)):
        with pytest.raises(ConvergenceError, match="state 0 failed its cert"):
            solve_shooting(problem, inner, wall, (-2.2, -1.8), asymptotics)


def test_loose_shooting_state_is_certified_to_its_own_tolerance():
    # at rtol = 1e-3 the root may lie further than 1e-9 |E| from the
    # state; the certificate's gap widens to xtol + rtol |E|, and the
    # state comes back within 2e-9 of the matrix route's
    _, problem, inner, _, sysa = _hydrogen_setup(2.0, 2, 0)
    e_s, _ = solve_shooting(problem, inner, None, (-0.75, -0.3), sysa,
                            rtol=1e-3)
    e_m = solve_matrix_selfconsistent(problem, inner, 1.0, 1.0, 2)[1][0]
    assert e_s == pytest.approx(-0.5, abs=2e-9)
    assert e_s == pytest.approx(e_m, abs=2e-9)


def test_hydrogen_reference_values():
    e, s = hydrogen_reference(1, 0, 1.0)
    assert (e, s.coeffs[:3]) == (-0.5, (1.0, -1.0, 0.5))
    e, s = hydrogen_reference(2, 1, 1.0)
    assert (e, s.coeffs[:3]) == (-0.125, (1.0, -0.5, 0.125))
    assert hydrogen_reference(3, 0, 2.0)[0] == pytest.approx(-2.0 / 9.0,
                                                             rel=1e-15)
    with pytest.raises(DomainError):
        hydrogen_reference(2, 2, 1.0)
