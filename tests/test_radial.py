import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import spherical_jn

from cuspbc.cusp import cusp_limit_first
from cuspbc.errors import (DomainError, NoSignChange, RegimeError,
                           StiffnessError)
from cuspbc.radial import (RadialProblem, RobinBoundary,
                           SystemAsymptotics, asymptotic_tail,
                           hydrogen_reference, log_grid, outer_log_derivative,
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


def test_matrix_convergence_rate():
    # raw second-order discretization: error drops >= 3.5x per mesh doubling
    errs = []
    for n in (500, 1000, 2000):
        e_ref, problem, inner, outer, sysa = _hydrogen_setup(1.0, 1, 0, n=n)
        e = solve_matrix(problem, inner, outer, 1, richardson=False)[0][0]
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


def test_hydrogen_reference_values():
    e, s = hydrogen_reference(1, 0, 1.0)
    assert (e, s.coeffs[:3]) == (-0.5, (1.0, -1.0, 0.5))
    e, s = hydrogen_reference(2, 1, 1.0)
    assert (e, s.coeffs[:3]) == (-0.125, (1.0, -0.5, 0.125))
    assert hydrogen_reference(3, 0, 2.0)[0] == pytest.approx(-2.0 / 9.0,
                                                             rel=1e-15)
    with pytest.raises(DomainError):
        hydrogen_reference(2, 2, 1.0)
