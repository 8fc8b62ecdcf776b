import math
import warnings

import numpy as np
import pytest

from cuspbc.basis import SlaterTerm, build_basis, verify_cusp_orders
from cuspbc.cusp import (AngularRadialFunction, CoalescencePair, CuspSeries,
                         LocalWavefunction, cusp_a, cusp_b, cusp_limit_first,
                         cusp_limit_second, cusp_series, kato_average_check,
                         local_psi, local_u, validity_radius)
from cuspbc.errors import (DomainError, FitError, Overflow, ParityError,
                           RegimeError)
from cuspbc.gridfn import RadialFunction
from cuspbc.radial import hydrogen_reference
from cuspbc.special import spherical_harmonic


def test_reduced_mass_and_alpha():
    p = CoalescencePair(-1.0, 1.0, 1.0, math.inf)
    assert p.reduced_mass == 1.0
    assert p.alpha == -1.0
    ee = CoalescencePair.electron_electron("singlet")
    assert ee.reduced_mass == 0.5
    with pytest.raises(DomainError):
        CoalescencePair(-1.0, 1.0, math.inf, math.inf)
    with pytest.raises(DomainError):
        CoalescencePair(-1.0, 1.0, -2.0, 1.0)
    # the charges enter exact (Fraction) series arithmetic
    for q1, q2 in [(math.nan, 1.0), (-1.0, math.inf), (-math.inf, 1.0)]:
        with pytest.raises(DomainError, match="charges must be finite"):
            CoalescencePair(q1, q2)


def test_cusp_a_values():
    # hydrogen: a = -Z/(ell+1)
    h = CoalescencePair.electron_nucleus(1.0)
    assert cusp_a(h, 0) == -1.0
    assert cusp_a(h, 1) == -0.5
    # parallel/antiparallel electron pairs: +-1/2 over (ell+1) with M = 1/2
    assert cusp_a(CoalescencePair.electron_electron("singlet"), 0) == 0.5
    assert cusp_a(CoalescencePair.electron_electron("triplet"), 1) == 0.25


def test_spin_parity_enforced():
    with pytest.raises(ParityError):
        cusp_a(CoalescencePair.electron_electron("singlet"), 1)
    with pytest.raises(ParityError):
        cusp_a(CoalescencePair.electron_electron("triplet"), 2)


def test_finite_nuclear_mass():
    p = CoalescencePair.electron_nucleus(1.0, a_mass=1.0)
    mp_ratio = 1836.152673
    assert cusp_a(p, 0) == pytest.approx(-mp_ratio / (mp_ratio + 1.0),
                                         rel=1e-12)


def test_cusp_b_against_hydrogen_reference():
    h = CoalescencePair.electron_nucleus(1.0)
    for n, ell in [(1, 0), (2, 0), (2, 1), (3, 2)]:
        e, series = hydrogen_reference(n, ell, 1.0)
        assert cusp_b(h, ell, 0.0, e) == pytest.approx(series.b, rel=1e-14)
    # footnote values: 1s -> (1, -1, 1/2); 2p -> (1, -1/2, 1/8)
    _, s10 = hydrogen_reference(1, 0, 1.0)
    assert s10.coeffs[:3] == (1.0, -1.0, 0.5)
    _, s21 = hydrogen_reference(2, 1, 1.0)
    assert s21.coeffs[:3] == (1.0, -0.5, 0.125)


def test_cusp_series_recurrence_consistency():
    h = CoalescencePair.electron_nucleus(2.0)
    s = cusp_series(h, 1, 0.3, -1.1, order=8)
    assert s.coeffs[0] == 1.0
    assert s.a == cusp_a(h, 1)
    assert s.b == pytest.approx(cusp_b(h, 1, 0.3, -1.1), rel=1e-14)
    with pytest.raises(DomainError):
        cusp_series(h, 1, 0.3, -1.1, order=1)


def test_overflowing_cusp_coefficients_are_overflow():
    # a = -1e300 fits a double; b = a^2/3 and a_2 = a^2/2 + ... do not
    big = CoalescencePair.electron_nucleus(1e300)
    assert cusp_a(big, 0) == -1e300
    with pytest.raises(Overflow, match="cusp coefficient b = inf"):
        cusp_b(big, 0, 0.0, -0.5)
    with pytest.raises(Overflow, match="series coefficient a_2 = inf"):
        cusp_series(big, 0, 0.0, -0.5, order=2)
    # beta^2 = 2 M (W0 - E) overflows with a finite alpha
    with pytest.raises(Overflow, match="a_2 = inf"):
        cusp_series(CoalescencePair.electron_nucleus(1.0), 0, 1e308, -1e308,
                    order=4)
    assert validity_radius(big, 0.0) == math.inf


def test_local_u_hydrogen_1s_is_exponential():
    # E = W0 - 1/2 makes beta = 1 and the Kummer parameter a = 0, so
    # u(r) = u0 e^{-r} exactly
    h = CoalescencePair.electron_nucleus(1.0)
    lw = LocalWavefunction.from_pair(h, 0, 0, 0.0, -0.5, u0=2.0)
    r = np.linspace(0.0, 5.0, 41)
    assert np.allclose(local_u(lw, r), 2.0 * np.exp(-r), rtol=1e-14, atol=0)
    assert local_u(lw, 0.0) == 2.0


def test_local_u_rejects_non_finite_radii():
    lw = LocalWavefunction.from_pair(CoalescencePair.electron_nucleus(2.0),
                                     0, 0, 1.6876, -0.9179556)
    for r in (math.inf, math.nan, np.array([0.5, math.nan]),
              np.array([[1.0], [math.inf]]), -1e-300):
        with pytest.raises(DomainError):
            local_u(lw, r)


def test_local_psi_angular_factor():
    h = CoalescencePair.electron_nucleus(1.0)
    lw = LocalWavefunction.from_pair(h, 1, 0, 0.0, -0.125)
    val = local_psi(lw, 0.7, 0.4, 1.2)
    u = local_u(lw, 0.7)
    y = math.sqrt(3.0 / (4 * math.pi)) * math.cos(0.4)
    assert val == pytest.approx(0.7 * u * y, rel=1e-12)


def test_bound_form_requires_e_below_w0():
    h = CoalescencePair.electron_nucleus(1.0)
    with pytest.raises(RegimeError):
        LocalWavefunction.from_pair(h, 0, 0, 0.0, 0.5)
    with pytest.raises(RegimeError):
        LocalWavefunction(0, 0, 1.0, -1.0, 0.0)


def test_kummer_parameter_must_be_finite():
    # beta = 1e-310 makes alpha/beta, and kummer_a, -inf: refused at
    # construction; beta = 1e-300 keeps it finite, and local_u works
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="alpha/beta"):
            LocalWavefunction(0, 0, 1.0, -1.0, 1e-310)
        lw = LocalWavefunction(0, 0, 1.0, -1.0, 1e-300)
        assert local_u(lw, 0.5) == pytest.approx(0.5767248077568735,
                                                 rel=1e-12)


def test_validity_radius_cases():
    h = CoalescencePair.electron_nucleus(2.0)
    assert validity_radius(h, 1.6876) == pytest.approx(2.0 / 1.6876)
    assert validity_radius(h, 0.0) == math.inf
    assert validity_radius(h, -0.3) == math.inf
    ee = CoalescencePair.electron_electron("singlet")
    assert validity_radius(ee, 0.5) == 0.0


def _hydrogen_full(n, ell, z, grid):
    """Analytic R_nl samples (unnormalized) via the terminating Kummer form."""
    h = CoalescencePair.electron_nucleus(z)
    e = -z * z / (2.0 * n * n)
    lw = LocalWavefunction.from_pair(h, ell, 0, 0.0, e)
    return RadialFunction(grid, grid ** ell * local_u(lw, grid), ell, "R")


def test_cusp_limits_on_analytic_hydrogen():
    for z in (1.0, 2.0):
        grid = np.linspace(1e-4, 0.01 / z, 14)
        for n, ell in [(1, 0), (2, 0), (2, 1), (3, 2)]:
            f = _hydrogen_full(n, ell, z, grid)
            assert cusp_limit_first(f, ell) == pytest.approx(-z, abs=1e-8)
            _, series = hydrogen_reference(n, ell, z)
            target = (ell + 1) * (ell + 2) * series.b
            assert cusp_limit_second(f, ell) == pytest.approx(target, abs=1e-6)


def test_cusp_limit_reduced_meaning_accepted():
    grid = np.linspace(1e-4, 0.012, 14)
    u = RadialFunction(grid, np.exp(-grid), 0, "u")
    assert cusp_limit_first(u) == pytest.approx(-1.0, abs=1e-9)


def test_fit_errors():
    grid = np.linspace(1e-4, 0.01, 4)
    with pytest.raises(FitError):
        cusp_limit_first(RadialFunction(grid, np.exp(-grid), 0, "R"), 2)
    # wrong ell: leading coefficient c_2 of an s-type function vanishes
    grid = np.linspace(1e-4, 0.01, 14)
    with pytest.raises(FitError):
        cusp_limit_first(RadialFunction(grid, grid ** 3 * (1 - grid), 0, "R"), 2)


def test_kato_average_check_separates_anisotropies():
    grid = np.linspace(1e-4, 0.012, 14)

    # linear anisotropy: directional limit shifts, the average does not
    def f_linear(r, theta, phi):
        return np.exp(-r) * (1.0 + 0.3 * r * np.cos(theta))

    d, avg = kato_average_check(AngularRadialFunction(f_linear, grid),
                                direction=(0.5, 0.0))
    assert d == pytest.approx(-1.0 + 0.3 * math.cos(0.5), abs=1e-7)
    assert avg == pytest.approx(-1.0, abs=1e-7)

    # cubic-order anisotropy leaves both limits equal
    def f_cubic(r, theta, phi):
        return np.exp(-r) * (1.0 + 0.3 * r ** 3 * np.cos(theta))

    d, avg = kato_average_check(AngularRadialFunction(f_cubic, grid),
                                direction=(0.5, 0.0))
    assert d == pytest.approx(avg, abs=1e-7)


def test_kato_average_check_one_broadcast_call():
    # the directional limit takes one call, the whole sphere one more:
    # r as a column against rows of quadrature angles
    grid = np.linspace(1e-4, 0.012, 14)
    shapes = []

    def f(r, theta, phi):
        shapes.append(np.broadcast_shapes(np.shape(r), np.shape(theta),
                                          np.shape(phi)))
        return np.exp(-2.0 * r) * (1.0 + 0.3 * r * np.sin(theta) * np.cos(phi))

    d, avg = kato_average_check(AngularRadialFunction(f, grid))
    assert shapes == [(14,), (14, 32 * 64)]
    assert d == pytest.approx(-2.0 + 0.3 * math.sin(1.0) * math.cos(0.5),
                              abs=1e-7)
    assert avg == pytest.approx(-2.0, abs=1e-7)
    # a function of r alone broadcasts too
    _, avg = kato_average_check(
        AngularRadialFunction(lambda r, theta, phi: np.exp(-r), grid))
    assert avg == pytest.approx(-1.0, abs=1e-9)


def test_derivative_ratio_rules_on_polynomials():
    # For Psi_rad = r^ell u(r) with u analytic, repeated differentiation
    # gives lim d^{ell+1}Psi/d^{ell}Psi = (ell+1) u'(0)/u(0) and
    # lim d^{ell+2}Psi/d^{ell}Psi = (ell+1)(ell+2) u''(0)/(2 u(0)).
    # Verified symbolically on polynomials via numpy's polynomial calculus.
    rng = np.random.default_rng(5)
    for ell in range(4):
        u_coeffs = rng.uniform(0.5, 2.0, 6)  # u(0) != 0
        psi = np.concatenate([np.zeros(ell), u_coeffs])  # r^ell * u
        d_l = np.polynomial.polynomial.polyder(psi, ell)
        d_l1 = np.polynomial.polynomial.polyder(psi, ell + 1)
        d_l2 = np.polynomial.polynomial.polyder(psi, ell + 2)
        first = d_l1[0] / d_l[0]
        second = d_l2[0] / d_l[0]
        assert first == pytest.approx(
            (ell + 1) * u_coeffs[1] / u_coeffs[0], rel=1e-12)
        assert second == pytest.approx(
            (ell + 1) * (ell + 2) * u_coeffs[2] / u_coeffs[0], rel=1e-12)


_H1 = CoalescencePair.electron_nucleus(1.0)
_NAN = math.nan


@pytest.mark.parametrize("make", [
    lambda: cusp_series(_H1, 0, _NAN, -0.5, 4),
    lambda: cusp_series(_H1, 0, 0.0, _NAN, 4),
    lambda: cusp_b(_H1, 0, 0.0, _NAN),
    lambda: cusp_b(_H1, 0, math.inf, -0.5),
    lambda: LocalWavefunction.from_pair(_H1, 0, 0, 0.0, _NAN),
    lambda: spherical_harmonic(1, 0, _NAN, 0.2),
    lambda: spherical_harmonic(1, 0, 0.1, math.inf),
    lambda: local_psi(LocalWavefunction(1, 0, 1.0, -1.0, 1.0), 0.5, _NAN,
                      0.0),
    lambda: validity_radius(_H1, _NAN),
    lambda: LocalWavefunction(0, 0, _NAN, -1.0, 1.0),
    lambda: LocalWavefunction(0, 0, 1.0, _NAN, 1.0),
    lambda: LocalWavefunction(0, 0, 1.0, -1.0, _NAN),
    lambda: LocalWavefunction(0, 0, 1.0, -1.0, math.inf),
    lambda: SlaterTerm(1.0, 0, _NAN),
    lambda: SlaterTerm(_NAN, 0, 1.0),
    lambda: build_basis("slater", 0, 0.5, 0.2, [], window=_NAN),
    lambda: verify_cusp_orders(build_basis("slater", 0, -1.0, 0.2, [1.0],
                                           tail_coeffs=[_NAN])),
    lambda: verify_cusp_orders(build_basis("gaussian", 0, -1.0, 0.2, [1.0],
                                           tail_coeffs=[_NAN]))],
    ids=["series-w0", "series-e", "cusp-b-e", "cusp-b-w0", "from-pair-e",
         "harmonic-theta", "harmonic-phi", "local-psi", "validity-radius",
         "local-u0", "local-alpha", "local-beta", "local-beta-inf",
         "slater-zeta", "slater-coeff", "window", "slater-tail-coeff",
         "gaussian-tail-coeff"])
def test_non_finite_coalescence_inputs_are_domain_errors(make):
    # none returns nan or inf, nor raises Overflow, NoConvergence,
    # RegimeError or a ValueError from exact series arithmetic
    with pytest.raises(DomainError, match="finite|positive"):
        make()


@pytest.mark.parametrize("make", [
    lambda: LocalWavefunction(1, True, 1.0, -1.0, 1.0),
    lambda: LocalWavefunction(1, False, 1.0, -1.0, 1.0),
    lambda: spherical_harmonic(1, True, 0.1, 0.2),
    lambda: spherical_harmonic(1, False, 0.1, 0.2)],
    ids=["local-true", "local-false", "harmonic-true", "harmonic-false"])
def test_a_bool_m_is_a_domain_error(make):
    # abs(True) is 1, which passed as |m| = 1 and gave Y_11
    with pytest.raises(DomainError, match="^m must be an integer, got "
                       "(True|False)$"):
        make()


def test_cusp_series_evaluate_is_finite_or_raises():
    series = cusp_series(_H1, 0, 0.0, -0.5, 6)
    r = np.array([0.0, 0.1, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(series.evaluate(r),
                              [series.evaluate(x) for x in r.tolist()])
        with pytest.raises(Overflow, match="double range"):
            series.evaluate(1e80)
        for r in (math.nan, math.inf, [0.1, -math.inf]):
            with pytest.raises(DomainError, match="r must be finite"):
                series.evaluate(r)
    with pytest.raises(DomainError):
        CuspSeries(0, -1.0, 1.0, (0.0, 1.0))
