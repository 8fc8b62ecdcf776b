import math
from fractions import Fraction

import numpy as np
import pytest

from cuspbc.basis import (CuspBasis, GaussianHeadTerm, GaussianTerm,
                          SlaterTerm, asymptotic_slater, basis_from_text,
                          basis_to_text, build_basis, taylor_u,
                          verify_cusp_orders)
from cuspbc.errors import DomainError
from cuspbc.gridfn import RadialFunction
from cuspbc.radial import SystemAsymptotics, hydrogen_reference


def test_slater_head_taylor_is_exact():
    for a, b in [(-1.0, 0.5), (0.5, 0.3), (-2.0, 1.9)]:
        basis = build_basis("slater", 0, a, b, [], window=1.0)
        a_est, b_est = verify_cusp_orders(basis)
        assert (a_est, b_est) == (a, b)


def test_slater_hydrogen_head_is_pure_exponential():
    # a = -1, b = 1/2 makes the r^2 prefactor vanish: exactly e^{-r}
    basis = build_basis("slater", 0, -1.0, 0.5, [])
    r = np.linspace(0.0, 4.0, 33)
    assert np.array_equal(basis.evaluate(r), np.exp(-r))


def test_slater_heads_match_hydrogen_series():
    for n, ell in [(1, 0), (2, 0), (2, 1), (3, 2)]:
        _, s = hydrogen_reference(n, ell, 1.0)
        basis = build_basis("slater", ell, s.a, s.b, [])
        c = taylor_u(basis, 2)
        assert float(c[0]) == 1.0
        assert float(c[1]) == pytest.approx(s.a, rel=1e-15)
        assert float(c[2]) == pytest.approx(s.b, rel=1e-15)


def test_gaussian_head_taylor_is_exact():
    basis = build_basis("gaussian", 1, 0.25, -0.4, [], g0=0.8)
    a_est, b_est = verify_cusp_orders(basis)
    assert (a_est, b_est) == (0.25, -0.4)


def test_bare_gaussian_has_no_cusp():
    for g in (0.5, 2.0):
        bare = CuspBasis("gaussian", 0, 0.0, -g,
                         (GaussianHeadTerm(1.0, 0, g),), ())
        a_est, b_est = verify_cusp_orders(bare)
        assert a_est == 0.0
        assert b_est == -g


def test_tail_cannot_perturb_leading_orders():
    rng = np.random.default_rng(9)
    for kind in ("slater", "gaussian"):
        for _ in range(5):
            ell = int(rng.integers(0, 3))
            a, b = rng.uniform(-2.0, 2.0, 2)
            exps = rng.uniform(0.5, 3.0, 4).tolist()
            coeffs = rng.uniform(-5.0, 5.0, 4).tolist()
            basis = build_basis(kind, ell, a, b, exps, tail_coeffs=coeffs,
                                window=math.inf)
            a_est, b_est = verify_cusp_orders(basis)
            assert a_est == a
            assert b_est == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_tail_power_floor_enforced():
    with pytest.raises(DomainError):
        CuspBasis("slater", 0, -1.0, 0.5, (SlaterTerm(1.0, 0, 1.0),),
                  (SlaterTerm(1.0, 2, 1.0),))
    with pytest.raises(DomainError):
        CuspBasis("gaussian", 1, 0.0, 0.0, (),
                  (GaussianTerm(1.0, (1, 1, 1), 1.0),))
    with pytest.raises(DomainError):
        build_basis("slater", 0, -1.0, 0.5, [-1.0])


def test_gaussian_power_below_ell_is_refused():
    # x^i y^j z^k of total power 1 < ell = 2 leaves 0.5/r in u = R/r^ell,
    # which no Taylor series at r = 0 holds
    text = ("# cuspbc-basis kind=gaussian ell=2 a=0.0 b=0.0\n"
            "GH 1.0 0 1.0\nG 0.5 0 0 1 1.0\n")
    with pytest.raises(DomainError, match="term power 1 below ell = 2"):
        basis_from_text(text)
    head = GaussianHeadTerm(1.0, 0, 1.0)
    for terms in [((head, GaussianTerm(0.5, (0, 1, 0), 1.0)), ()),
                  ((head,), (GaussianTerm(0.5, (1, 0, 0), 1.0),))]:
        with pytest.raises(DomainError, match="below ell = 2"):
            CuspBasis("gaussian", 2, 0.0, 0.0, *terms)
    # total power ell itself is the regular r^ell
    basis = CuspBasis("gaussian", 2, 0.0, 0.0,
                      (head, GaussianTerm(0.5, (0, 1, 1), 1.0)), ())
    assert taylor_u(basis, 2)[0] == 1


def test_sampled_verification_agrees():
    r = np.linspace(1e-4, 0.008, 14)
    basis = build_basis("slater", 0, -2.0, 1.9, [1.5], tail_coeffs=[0.7])
    fn = RadialFunction(r, basis.evaluate(r), 0, "R")
    a_est, b_est = verify_cusp_orders(fn, 0)
    assert a_est == pytest.approx(-2.0, abs=1e-7)
    assert b_est == pytest.approx(1.9, abs=1e-5)


def test_gaussian_head_sampled():
    basis = build_basis("gaussian", 0, -1.0, 0.5, [], g0=0.5)
    r = np.linspace(1e-4, 0.008, 14)
    fn = RadialFunction(r, basis.evaluate(r), 0, "R")
    a_est, _ = verify_cusp_orders(fn, 0)
    assert a_est == pytest.approx(-1.0, abs=1e-8)
    with pytest.raises(DomainError):
        build_basis("gaussian", 0, -1.0, 0.5, [], g0=-1.0)
    with pytest.raises(DomainError):
        build_basis("gaussian", 0, -1.0, 0.5, [], g0=0.0)


def test_windowed_growing_head():
    basis = build_basis("slater", 0, 0.5, 0.2, [], window=1.0)
    assert basis.windowed
    basis.evaluate(np.linspace(0.0, 1.0, 5))
    with pytest.raises(DomainError):
        basis.evaluate(2.0)
    unwindowed = build_basis("slater", 0, 0.5, 0.2, [])
    with pytest.raises(DomainError):
        unwindowed.evaluate(0.1)


def test_gaussian_direction_contraction():
    # z-power Cartesian tails vanish along x but not along z
    basis = build_basis("gaussian", 0, 0.1, 0.2, [1.0])
    r = np.array([0.5, 1.0])
    along_z = basis.evaluate(r, direction=(0.0, 0.0, 1.0))
    along_x = basis.evaluate(r, direction=(1.0, 0.0, 0.0))
    head = sum(t.coeff * r ** t.power * np.exp(-t.g * r ** 2)
               for t in basis.cusp_terms)
    assert np.allclose(along_x, head, rtol=1e-15)
    assert not np.allclose(along_z, along_x)


def test_asymptotic_slater_logderivative():
    sysa = SystemAsymptotics(1.0, 1.0, -0.903724)
    f = asymptotic_slater(sysa)
    r, h = 30.0, 1e-4
    logder = (math.log(f(r + h)) - math.log(f(r - h))) / (2 * h)
    assert logder == pytest.approx(sysa.kappa(r), abs=1e-9)
    assert sysa.decay == pytest.approx(math.sqrt(2 * 0.903724), rel=1e-12)


def test_interchange_round_trip():
    basis = build_basis("gaussian", 1, 0.25, -0.4, [0.9, 1.7],
                        tail_coeffs=[2.0, -0.3], g0=0.8)
    again = basis_from_text(basis_to_text(basis))
    assert again == basis
    slater = build_basis("slater", 0, 0.5, 0.2, [1.3], window=2.0)
    assert basis_from_text(basis_to_text(slater)) == slater


def test_interchange_parse_errors():
    with pytest.raises(DomainError):
        basis_from_text("S 1.0 0 1.0\n")  # missing header
    bad = "# cuspbc-basis kind=slater ell=0 a=0.0 b=0.0\nS 1.0 zero 1.0\n"
    with pytest.raises(DomainError, match="line 2"):
        basis_from_text(bad)


@pytest.mark.parametrize("header, field", [
    ("kind=slater", "'ell'"),
    ("kind=slater ell=x a=0.0 b=0.0", "'ell'"),
    ("kind=slater ell=0 a=0.0", "'b'"),
    ("kind=slater ell=0 a=zz b=0.0", "'a'"),
])
def test_interchange_malformed_header_names_the_field(header, field):
    with pytest.raises(DomainError, match=f"basis header: .*field {field}"):
        basis_from_text(f"# cuspbc-basis {header}\nS 1.0 0 1.0\n")


CARTESIAN_TEXT = """# cuspbc-basis kind=gaussian ell=1 a=-0.5 b=0.25
S 1.0 0 0.5
GH 0.5 1 0.8
G 0.4 1 1 0 0.6
S 0.3 3 1.2
G 0.7 1 0 3 0.9
G -1.1 0 2 2 1.3
GH 0.2 4 0.5
"""


def test_cartesian_tails_off_the_z_axis():
    basis = basis_from_text(CARTESIAN_TEXT)
    # head and tail split by total power against ell + 3 = 4
    assert basis.cusp_terms == (SlaterTerm(1.0, 0, 0.5),
                                GaussianHeadTerm(0.5, 1, 0.8),
                                GaussianTerm(0.4, (1, 1, 0), 0.6))
    assert basis.tail_terms == (SlaterTerm(0.3, 3, 1.2),
                                GaussianTerm(0.7, (1, 0, 3), 0.9),
                                GaussianTerm(-1.1, (0, 2, 2), 1.3),
                                GaussianHeadTerm(0.2, 4, 0.5))
    assert basis_to_text(basis) == CARTESIAN_TEXT

    # along an oblique unit direction, each kind by its own formula
    n = (0.48, 0.6, 0.64)
    r = np.linspace(0.0, 3.0, 13)
    x, y, z = (c * r for c in n)
    ref = r * (np.exp(-0.5 * r) + 0.5 * r * np.exp(-0.8 * r ** 2)
               + 0.3 * r ** 3 * np.exp(-1.2 * r)
               + 0.2 * r ** 4 * np.exp(-0.5 * r ** 2))
    ref += 0.4 * x * y * np.exp(-0.6 * r ** 2)
    ref += 0.7 * x * z ** 3 * np.exp(-0.9 * r ** 2)
    ref += -1.1 * y ** 2 * z ** 2 * np.exp(-1.3 * r ** 2)
    assert np.allclose(basis.evaluate(r, n), ref, rtol=1e-14, atol=0.0)

    # along z every term with an x or y power is 0: the series is that of
    # the S and GH terms alone, and a z-power term adds c (-g)^k / k!
    radial_only = basis_from_text("\n".join(
        ln for ln in CARTESIAN_TEXT.splitlines() if not ln.startswith("G ")))
    assert taylor_u(basis, 6) == taylor_u(radial_only, 6)
    along_z = basis_from_text(CARTESIAN_TEXT + "G 0.7 0 0 4 0.9\n")
    added = [a - b for a, b in zip(taylor_u(along_z, 6), taylor_u(basis, 6))]
    c, g = Fraction(0.7), Fraction(0.9)
    assert added == [0, 0, 0, c, 0, -c * g, 0]


@pytest.mark.parametrize("kind", ["slater", "gaussian"])
@pytest.mark.parametrize("a, b, tail", [
    (math.nan, 0.5, [1.5]), (-1.0, math.inf, [1.5]), (-1.0, 0.5, [math.inf]),
    (-1.0, 0.5, [math.nan])])
def test_build_basis_needs_finite_inputs(kind, a, b, tail):
    with pytest.raises(DomainError):
        build_basis(kind, 0, a, b, tail)
