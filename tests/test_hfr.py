import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from cuspbc.errors import DomainError, Overflow
from cuspbc.hfr import HFROrbital, _log_norm, _signed_exp

SAMPLE = Path(__file__).resolve().parents[1] / "data" / "hydrogen_1s.hfr"

# Koga et al. He 1s Hartree-Fock orbital (n, zeta, c)
HE_TERMS = (
    (2, 6.438865513242302, 0.0008103),
    (1, 3.385077039750975, 0.0798826),
    (1, 2.178370004614139, 0.180161),
    (1, 1.4553870053179185, 0.7407925),
    (2, 1.3552466748849417, 0.0272015),
)
HE_ORBITAL_ENERGY = -0.9179556


def test_parse_sample_file():
    orb = HFROrbital.from_file(SAMPLE)
    assert orb.terms == ((1, 1.0, 1.0),)
    r = np.linspace(0.0, 3.0, 7)
    assert np.allclose(orb.radial(r), 2.0 * np.exp(-r), rtol=1e-15)


def test_parse_errors():
    with pytest.raises(DomainError, match="line 2"):
        HFROrbital.from_text("1 1.0 1.0\n1 2.0\n")
    with pytest.raises(DomainError):
        HFROrbital.from_text("")
    with pytest.raises(DomainError):
        HFROrbital.from_text("0 1.0 1.0\n")
    with pytest.raises(DomainError):
        HFROrbital.from_text("1 -1.0 1.0\n")
    # an all-zero expansion has no norm to divide <1/r> by
    for text in ("1 1.0 0.0\n", "1 1.0 0.0\n2 2.0 -0.0\n", "1 inf 1.0\n",
                 "1 nan 1.0\n", "1 1.0 nan\n", "1 1.0 -inf\n"):
        with pytest.raises(DomainError):
            HFROrbital.from_text(text)


def test_mean_inv_r_single_sto():
    # <1/r> of a normalized 1s Slater orbital with exponent zeta equals zeta
    for zeta in (1.0, 1.7, 3.2):
        orb = HFROrbital(((1, zeta, 1.0),))
        assert orb.norm_sq == pytest.approx(1.0, rel=1e-10)
        assert orb.mean_inv_r == pytest.approx(zeta, rel=1e-10)


def test_sample_file_moments_are_exact():
    # closed-form moments: the hydrogen 1s file is normalised and has
    # <1/r> = Z = 1
    orb = HFROrbital.from_file(SAMPLE)
    assert abs(orb.norm_sq - 1.0) <= 1e-14
    assert abs(orb.mean_inv_r - 1.0) <= 1e-14


def test_multi_term_moments_against_mpmath_quadrature():
    terms = ((1, 1.7, 0.6), (2, 0.9, -0.35), (3, 2.4, 0.2))
    orb = HFROrbital(terms)
    with mpmath.workdps(30):
        def radial(r):
            return mpmath.fsum(
                c * mpmath.sqrt((2 * mpmath.mpf(z)) ** (2 * n + 1)
                                / mpmath.factorial(2 * n))
                * r ** (n - 1) * mpmath.exp(-z * r) for n, z, c in terms)

        def moment(k):
            return mpmath.quad(lambda r: radial(r) ** 2 * r ** k,
                               [0, 1, 5, mpmath.inf])

        norm_sq, inv_r = moment(2), moment(1) / moment(2)
    assert orb.norm_sq == pytest.approx(float(norm_sq), rel=1e-13)
    assert orb.mean_inv_r == pytest.approx(float(inv_r), rel=1e-13)


def test_he_orbital_quadrature():
    orb = HFROrbital(HE_TERMS)
    assert orb.norm_sq == pytest.approx(1.0, rel=1e-6)
    # hydrogen-like scaling puts <1/r> in the vicinity of Z - 5/16
    assert orb.mean_inv_r == pytest.approx(1.6875, abs=0.01)


def test_compact_orbital_in_log_form():
    # N = sqrt((2 zeta)^(2n+1) / (2n)!) overflows as written for n = 60,
    # zeta = 1000, although N, R(r) and <1/r> = zeta/n all fit a double
    n, zeta = 60, 1000.0
    orb = HFROrbital(((n, zeta, 1.0),))
    with mpmath.workdps(30):
        norm = mpmath.sqrt((2 * mpmath.mpf(zeta)) ** (2 * n + 1)
                           / mpmath.factorial(2 * n))

        def radial(r):
            r = mpmath.mpf(r)
            return float(norm * r ** (n - 1) * mpmath.exp(-zeta * r))

        peak, at_one = radial(0.06), radial(1.0)
    assert at_one == 0.0  # 1e-334 lies below the smallest subnormal
    assert orb.radial(1.0) == at_one
    assert orb.radial(0.06) == pytest.approx(peak, rel=1e-12)
    assert orb.norm_sq == pytest.approx(1.0, rel=1e-12)
    assert orb.mean_inv_r == pytest.approx(zeta / n, rel=1e-12)
    with pytest.raises(DomainError):
        orb.radial(-1.0)


def test_orbital_beyond_the_double_range_raises_overflow():
    orb = HFROrbital(((1, 1.0, 1e308), (1, 1.0, 1e308)))
    with pytest.raises(Overflow):
        orb.radial(np.array([0.0, 0.5]))
    with pytest.raises(Overflow):
        orb.mean_inv_r


@pytest.mark.parametrize("terms", [
    ((1, 1.0, 1e-200),),  # the norm underflows
    ((1, 1.0, 1.0), (1, 1.0, -1.0 + 1e-16)),  # the norm cancels to 0.0
])
def test_orbital_of_vanishing_norm_raises_overflow(terms):
    with pytest.raises(Overflow, match="norm"):
        HFROrbital(terms).mean_inv_r


def test_radial_at_and_near_the_origin():
    # only the n = 1 terms reach r = 0; r^(n-1) of the others vanishes
    # there, and a subnormal r must not make it infinite or raise
    orb = HFROrbital(((1, 1.5, 0.8), (2, 2.5, 0.3), (3, 0.9, -0.2),
                      (1, 4.0, 0.1)))
    at_zero = HFROrbital(((1, 1.5, 0.8), (1, 4.0, 0.1))).radial(0.0)
    r = np.array([0.0, 5e-324, 1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = orb.radial(r)
        assert orb.radial(0.0) == at_zero
    assert values[0] == at_zero
    assert np.all(np.isfinite(values))
    assert values[1:] == pytest.approx([at_zero] * 2, rel=1e-15)


def test_radial_refuses_a_nan_radius():
    orb = HFROrbital(HE_TERMS)
    for r in (math.nan, [0.5, math.nan]):
        with pytest.raises(DomainError, match="r must be non-negative"):
            orb.radial(r)


def test_radial_matches_the_xlogy_form_on_the_compare_he_grid():
    # r^(n-1) in log form as ln r times n - 1: bit for bit the
    # scipy.special.xlogy form on compare-he's default 601-point grid
    from scipy.special import xlogy

    r = np.linspace(0.0, 6.0, 601)
    with np.errstate(over="ignore", invalid="ignore"):
        want = sum(_signed_exp(c, _log_norm(n, z) + xlogy(n - 1, r) - z * r)
                   for n, z, c in HE_TERMS)
    assert np.array_equal(HFROrbital(HE_TERMS).radial(r), want)


def test_moments_match_a_per_pair_reference_bitwise():
    # one array call forms every term pair: the same bits as one scalar
    # call per pair, summed exactly
    rng = np.random.default_rng(3)
    orbitals = [HE_TERMS] + [tuple(
        (int(rng.integers(1, 8)), float(rng.uniform(0.3, 9.0)),
         float(rng.uniform(-2.0, 2.0))) for _ in range(int(rng.integers(1, 7))))
        for _ in range(10)]
    for terms in orbitals:
        orb = HFROrbital(terms)
        for k in range(4):
            want = math.fsum(
                _signed_exp(ci * cj, _log_norm(ni, zi) + _log_norm(nj, zj)
                            + math.lgamma(ni + nj - 1 + k)
                            - (ni + nj - 1 + k) * math.log(zi + zj))
                for ni, zi, ci in terms for nj, zj, cj in terms)
            assert orb._moment(k).hex() == want.hex()
