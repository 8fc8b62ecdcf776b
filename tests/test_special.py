import math
import warnings

import mpmath
import numpy as np
import pytest

from cuspbc import special
from cuspbc.errors import DomainError, NoConvergence, Overflow, PoleError
from cuspbc.special import (MAX_TERMS, REL_TOL, _legendre_upto, kummer_1f1,
                            kummer_crossover, kummer_series, legendre_p,
                            pochhammer, spherical_harmonic)


def test_pochhammer_values():
    assert pochhammer(3.7, 0) == 1.0
    assert pochhammer(1.0, 4) == 24.0
    assert pochhammer(-2.0, 4) == 0.0
    assert pochhammer(0.5, 3) == 0.5 * 1.5 * 2.5


@pytest.mark.parametrize("a, k", [(-300.0, 400), (-3.0, 5), (-2.5, 7),
                                  (1e-300, 200), (1e-310, 180), (170.5, 2),
                                  (-175.0 + 2.0 ** -40, 176), (0.25, 171),
                                  (-7.0, 7)])
def test_pochhammer_against_mpmath(a, k):
    # exactly 0 where a factor is 0 (a = 0, -1, ..., k > -a), and no
    # partial product overflows where (a)_k does not: 175! = 1.1e318 times
    # 2^-40 is 1.0e306
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pochhammer(a, k)
    with mpmath.workdps(50):
        ref = mpmath.rf(mpmath.mpf(a), k)
    if ref == 0:
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
    else:
        assert got == pytest.approx(float(ref), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("a, k, error", [
    (200.0, 200, Overflow), (-170.5, 340, Overflow), (math.nan, 3, DomainError),
    (math.inf, 2, DomainError), (-math.inf, 0, DomainError)])
def test_pochhammer_outside_the_double_range_raises(a, k, error):
    # (200)_200 = 4.06e493 and (-170.5)_340 = -9.9e610 are not inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            pochhammer(a, k)


def test_kummer_trivial_cases():
    assert kummer_1f1(2.3, 1.7, 0.0) == 1.0
    assert abs(kummer_1f1(1.0, 1.0, 1.0) - math.e) < 1e-15
    # (0)_k = 0 for k >= 1: the hydrogen 1s case a = ell+1+alpha/beta = 0
    for x in (0.3, 5.0, -12.0):
        assert kummer_1f1(0.0, 2.0, x) == 1.0


def test_kummer_next_to_the_pole_at_zero():
    # |b| < |a|/1.8e308: a/b alone overflows, and inf * 0 ended the series
    # in NoConvergence even at x = 0; the terms divide by b last
    b = -2.225073858507203e-309
    assert kummer_1f1(1.0, b, 0.0) == 1.0
    for x in (1e-300, -1e-300):
        with mpmath.workdps(40):
            ref = mpmath.hyp1f1(1, mpmath.mpf(b), x)
        assert kummer_1f1(1.0, b, x) == pytest.approx(float(ref), rel=1e-14)


def test_kummer_pole_and_convergence_errors():
    with pytest.raises(PoleError):
        kummer_1f1(1.0, 0.0, 1.0)
    with pytest.raises(PoleError):
        kummer_1f1(1.0, -3.0, 1.0)
    # the terms of e^2000 grow up to k = 2000, past the 500-term cap
    with pytest.raises(NoConvergence):
        kummer_series(1.0, 1.0, 2000.0)


@pytest.mark.parametrize("a, b, x", [
    (math.inf, 2.0, 1.0), (-math.inf, 2.0, 1.0), (1.0, math.inf, 1.0),
    (1.0, -math.inf, 1.0), (math.nan, 2.0, 1.0), (1.0, math.nan, 1.0),
    (1.0, 1.0, math.nan)])
def test_non_finite_kummer_inputs_are_domain_errors(a, b, x):
    # not an OverflowError from floor(inf), a NoConvergence after 500
    # terms of nan, or b = inf's silent 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kummer in (kummer_1f1, kummer_series):
            with pytest.raises(DomainError, match="must be finite"):
                kummer(a, b, x)


def test_no_convergence_names_the_point_as_a_float():
    with pytest.raises(NoConvergence, match=r"\(x = 2000\.0\)$"):
        kummer_series(1.0, 1.0, 2000.0)
    with pytest.raises(NoConvergence, match=r"\(x = 502\.0\)$"):
        kummer_1f1(5.6e-256, 1.0, np.array([1.0, 502.0]))


def test_numpy_scalar_parameters_fail_without_a_warning():
    # numpy-scalar a or b makes the one-point terms numpy arithmetic, whose
    # overflow warns (an error under the suite's filters) unless silenced;
    # the terms still overflow, and the sum ends as with Python floats
    with pytest.raises(NoConvergence):
        kummer_series(np.float64(1.0), np.float64(1.0), 2000.0)
    with pytest.raises(NoConvergence):
        kummer_1f1(np.float64(-400.0), 1.5, 1e5)


def test_kummer_array_input():
    x = np.array([[-3.0, 0.0], [0.5, 25.0]])
    got = kummer_1f1(1.3, 2.5, x)
    assert got.shape == (2, 2)
    assert got.tolist() == [[kummer_1f1(1.3, 2.5, v) for v in row]
                            for row in x.tolist()]
    assert isinstance(kummer_1f1(1.3, 2.5, 0.5), float)
    assert kummer_1f1(1.3, 2.5, np.array([])).shape == (0,)
    # a tiny a puts the large-x crossover far out: x = 502 takes the
    # series, whose terms peak near k = 502, past the 500-term cap
    with pytest.raises(NoConvergence):
        kummer_1f1(5.6e-256, 1.0, np.array([1.0, 502.0]))
    for bad in (math.inf, math.nan, np.array([1.0, -math.inf])):
        with pytest.raises(DomainError):
            kummer_1f1(1.3, 2.5, bad)


def test_kummer_small_a_does_not_stop_early():
    # with a = 1e-20 the first terms fall below rel_tol while later ones
    # grow to e^x a / x; the sum must not stop at the first two
    a, b, x = 1e-20, 1.0, 60.0
    mpmath.mp.dps = 50
    ref = float(mpmath.hyp1f1(mpmath.mpf(a), b, x))
    assert ref > 1.001
    assert kummer_1f1(a, b, x) == pytest.approx(ref, rel=1e-13)
    assert kummer_series(a, b, x) == pytest.approx(ref, rel=1e-13)


def test_kummer_against_mpmath():
    # routed evaluation (Kummer transform for x < 0) against a 50-digit
    # reference over the full |x| <= 30 working range
    rng = np.random.default_rng(42)
    mpmath.mp.dps = 50
    for _ in range(300):
        a = rng.uniform(-4.0, 4.0)
        b = rng.uniform(0.3, 8.0)
        x = rng.uniform(-30.0, 30.0)
        ref = float(mpmath.hyp1f1(a, b, x))
        got = kummer_1f1(a, b, x)
        # negative-a draws hit the alternating terminating-like series near
        # its zeros, where a few-ulp cancellation inflates the relative error
        assert got == pytest.approx(ref, rel=5e-13, abs=1e-300)


def test_kummer_dual_path_small_x():
    # raw series and transformed series agree where both are
    # well-conditioned (|x| small); at large negative x the raw
    # alternating series loses ~e^{|x|} digits, which is why kummer_1f1
    # routes through the transformation in the first place
    rng = np.random.default_rng(7)
    tol = 10.0 * REL_TOL
    for _ in range(100):
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(0.5, 6.0)
        x = rng.uniform(-4.0, 0.0)
        raw = kummer_series(a, b, x)
        routed = kummer_1f1(a, b, x)
        assert abs(raw - routed) <= tol * max(abs(raw), abs(routed), 1e-30)


def test_legendre_values():
    assert legendre_p(0, 0.33) == 1.0
    assert legendre_p(1, 0.5) == 0.5
    assert legendre_p(2, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert legendre_p(2, 0.5) == pytest.approx(0.5 * (3 * 0.25 - 1), abs=1e-15)
    with pytest.raises(DomainError):
        legendre_p(2, 1.5)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -1.5])
def test_legendre_rejects_arguments_outside_the_interval(x):
    # a clamp alone maps NaN to -1 and returns a finite P_lam(-1)
    with pytest.raises(DomainError):
        legendre_p(3, x)
    with pytest.raises(DomainError):
        _legendre_upto(3, x)


def test_legendre_upto_against_mpmath():
    mpmath.mp.dps = 30
    for x in np.linspace(-1.0, 1.0, 41).tolist() + [0.123456789, -0.987]:
        ps = _legendre_upto(40, x)
        assert len(ps) == 41
        for lam, p in enumerate(ps):
            assert abs(p - float(mpmath.legendre(lam, x))) <= 1e-12
            assert p == legendre_p(lam, x)
    assert _legendre_upto(0, 0.3) == [1.0]
    assert _legendre_upto(1, 0.3) == [1.0, 0.3]
    with pytest.raises(DomainError):
        _legendre_upto(-1, 0.3)


@pytest.mark.parametrize("a, b", [(1.3, 2.5), (-2.7, 1.5), (0.4, 4.0),
                                  (6.2, 0.5)])
def test_scalar_and_array_sums_agree_bitwise(a, b):
    # one point takes the scalar branch of the summation loop, a point
    # inside an array the masked branch: same bits on both sides of the
    # crossover (series and large-x expansion) and for both signs of x
    cross = max(kummer_crossover(a, b), kummer_crossover(b - a, b))
    for x in (0.37, 0.8 * cross, 1.2 * cross, 2.5 * cross):
        for v in (x, -x):
            scalar = kummer_1f1(a, b, v)
            one = kummer_1f1(a, b, np.array([v]))
            inside = kummer_1f1(a, b, np.array([0.5, v, -3.0 * v]))
            assert scalar.hex() == one[0].hex() == inside[1].hex()
        raw = kummer_series(a, b, 0.37)
        assert raw.hex() == kummer_1f1(a, b, np.array([1.0, 0.37]))[1].hex()


def _sums(ratios):
    """_sum with the term ratios ratios(k), at one point and at three;
    returns the results and the largest k the ratio was asked for."""
    seen = []

    def ratio(k, x):
        seen.append(k)
        return x * ratios(k)  # x is 1.0 at every point

    out = [special._sum(np.ones(n), ratio, "test") for n in (1, 3)]
    return out, max(seen)


def _partial_sum(ratios, n_terms):
    term = total = 1.0
    for k in range(1, n_terms + 1):
        term *= ratios(k)
        total += term
    return total


def test_sum_stops_only_at_a_check_point():
    # every term after the first is below REL_TOL of the sum and undercut
    # by the next, so the rule holds from term 2 on; it is read on terms
    # _STRIDE - 1 and _STRIDE, and the sum stops there
    (one, three), last = _sums(lambda k: 1e-20)
    assert last == special._STRIDE + 1
    assert one[0] == 1.0 and list(three) == [1.0] * 3
    # terms halving: the sum ends at the first check point past the term
    # where the rule holds, with every term up to it
    (one, three), last = _sums(lambda k: 0.5)
    stop = last - 1
    assert stop % special._STRIDE == 0
    assert 0.5 ** (stop - special._STRIDE) > REL_TOL  # not a stride later
    assert one[0] == _partial_sum(lambda k: 0.5, stop) == three[2]


def test_sum_does_not_stop_on_a_tiny_term_whose_successor_grows():
    # terms _STRIDE - 1 and _STRIDE are tiny at the check point, but the
    # next ratio is huge: term _STRIDE + 1 is 1 again, so no stop
    s = special._STRIDE

    def ratios(k):
        return {s - 1: 1e-30, s: 1e-30, s + 1: 1e60}.get(k, 1.0 if k < s
                                                          else 0.0)
    (one, three), last = _sums(ratios)
    assert last == 2 * s + 1
    assert one[0] == _partial_sum(ratios, 2 * s) == s == three[1]


def test_sum_reads_the_rule_at_max_terms():
    # MAX_TERMS is not a multiple of the stride; the rule is read there
    # too: it holds on the last two terms, then on the last one alone
    assert MAX_TERMS % special._STRIDE != 0
    (one, three), last = _sums(
        lambda k: 1e-30 if k >= MAX_TERMS - 1 else 1.0)
    assert last == MAX_TERMS + 1
    assert one[0] == MAX_TERMS - 1 == three[0]
    for ratios in (lambda k: 1e-30 if k >= MAX_TERMS else 1.0,
                   lambda k: 1.0):
        for n in (1, 3):
            with pytest.raises(NoConvergence, match=f"{MAX_TERMS} terms"):
                special._sum(np.ones(n), lambda k, x: x * ratios(k), "test")


def test_spherical_harmonic_basics():
    val = spherical_harmonic(0, 0, 0.3, 1.1)
    assert val == pytest.approx(1.0 / math.sqrt(4 * math.pi), abs=1e-15)
    assert abs(spherical_harmonic(1, 0, math.pi / 2, 0.0)) < 1e-16
    with pytest.raises(DomainError):
        spherical_harmonic(1, 2, 0.1, 0.1)


def test_spherical_harmonic_inversion_parity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        l = int(rng.integers(0, 5))
        m = int(rng.integers(-l, l + 1))
        th, ph = rng.uniform(0.1, 3.0), rng.uniform(0.0, 6.0)
        direct = spherical_harmonic(l, m, th, ph)
        inverted = spherical_harmonic(l, m, math.pi - th, math.pi + ph)
        assert inverted == pytest.approx((-1) ** l * direct, abs=1e-12)


def test_addition_theorem():
    # (4 pi / (2 lam + 1)) sum_m Y_lm(w1) conj(Y_lm(w2)) == P_lam(cos gamma)
    rng = np.random.default_rng(11)
    for lam in range(7):
        th1, th2 = rng.uniform(0.1, 3.0, 2)
        ph1, ph2 = rng.uniform(0.0, 6.2, 2)
        n1 = np.array([math.sin(th1) * math.cos(ph1),
                       math.sin(th1) * math.sin(ph1), math.cos(th1)])
        n2 = np.array([math.sin(th2) * math.cos(ph2),
                       math.sin(th2) * math.sin(ph2), math.cos(th2)])
        s = sum(spherical_harmonic(lam, m, th1, ph1)
                * np.conj(spherical_harmonic(lam, m, th2, ph2))
                for m in range(-lam, lam + 1))
        lhs = 4 * math.pi / (2 * lam + 1) * s
        assert lhs.imag == pytest.approx(0.0, abs=1e-12)
        assert lhs.real == pytest.approx(legendre_p(lam, float(n1 @ n2)),
                                         abs=1e-12)
