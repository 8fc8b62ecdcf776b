import math

import mpmath
import numpy as np
import pytest

from cuspbc import cusp, environment
from cuspbc.cusp import (AngularRadialFunction, CoalescencePair,
                         kato_average_check)
from cuspbc.environment import (Environment, PointCharge, multipole_term,
                                spherical_average_w, w0, w_exact, w_multipole)
from cuspbc.errors import DomainError, InputError, SingularityError
from cuspbc.special import _sphere_nodes


def _random_env(rng, n_min=2, n_max=6):
    n = int(rng.integers(n_min, n_max + 1))
    charges = []
    for _ in range(n):
        pos = rng.uniform(-3.0, 3.0, 3)
        while np.linalg.norm(pos) < 0.5:
            pos = rng.uniform(-3.0, 3.0, 3)
        charges.append(PointCharge(float(rng.uniform(-2.0, 2.0)), tuple(pos)))
    return Environment(tuple(charges))


HYDROGEN_PAIR = CoalescencePair.electron_nucleus(1.0)
EE_PAIR = CoalescencePair.electron_electron("singlet")
# a fixed nucleus, a nucleus of finite mass, and two electrons
AVERAGE_PAIRS = (CoalescencePair.electron_nucleus(2.0),
                 CoalescencePair.electron_nucleus(3.0, 7.0), EE_PAIR)


def _fractions(pair):
    """f1 = m2/(m1+m2) and f2 = m1/(m1+m2): particle 1 sits at +f1 r n
    and particle 2 at -f2 r n (m1 is finite for every pair here)."""
    if math.isinf(pair.m2):
        return 1.0, 0.0
    return pair.m2 / (pair.m1 + pair.m2), pair.m1 / (pair.m1 + pair.m2)


def _quadrature_average(env, pair, r):
    """The pair's spectator Coulomb energy averaged over 64 x 128
    directions, Gauss-Legendre in cos(theta) times the trapezoid rule in
    phi, from the distances between each charge and particle; accurate to
    rounding for f r up to 0.75 of the nearest charge."""
    mu, w_mu = np.polynomial.legendre.leggauss(64)
    phi = 2.0 * math.pi * np.arange(128) / 128
    st = np.sqrt(1.0 - mu * mu)[:, None]
    n = np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi),
                                     mu[:, None]), axis=-1)
    f1, f2 = _fractions(pair)
    total = np.zeros((64, 128))
    for c in env.charges:
        for q, f in ((pair.q1, f1), (pair.q2, -f2)):
            total += c.q * q / np.linalg.norm(
                np.asarray(c.position) - f * r * n, axis=-1)
    return math.fsum((w_mu[:, None] / 256.0 * total).ravel().tolist())


def _shell_reference(env, pair, r):
    """mpmath's quadrature of each charge's and particle's mean Coulomb
    term, q_i q_p / 2 int_{-1}^{1} (R^2 + s^2 - 2 R s mu)^(-1/2) dmu with
    R the charge's radius and s = f r: their sum and the sum of their
    absolute values."""
    terms = []
    with mpmath.workdps(30):
        for c in env.charges:
            big_r = mpmath.mpf(math.hypot(*c.position))
            for q, f in zip((pair.q1, pair.q2), _fractions(pair)):
                s = mpmath.mpf(f * r)
                mean = mpmath.quad(lambda mu: (big_r ** 2 + s ** 2
                                               - 2 * big_r * s * mu) ** -0.5,
                                   [-1, 1]) / 2
                terms.append(mpmath.mpf(c.q) * q * mean)
        return float(mpmath.fsum(terms)), float(mpmath.fsum(map(abs, terms)))


def test_w0_single_charge():
    env = Environment((PointCharge(2.0, (0.0, 0.0, 3.0)),))
    # (q1 + q2) * q/r with q1 = -1, q2 = +1
    assert w0(env, CoalescencePair(-1.0, 1.0)) == 0.0
    he_pair = CoalescencePair.electron_nucleus(2.0)
    assert w0(env, he_pair) == pytest.approx((2.0 - 1.0) * 2.0 / 3.0, rel=1e-15)


def test_charge_at_origin_rejected():
    with pytest.raises(SingularityError):
        Environment((PointCharge(1.0, (0.0, 0.0, 0.0)),))


def test_w_exact_small_r_tends_to_w0():
    rng = np.random.default_rng(1)
    env = _random_env(rng)
    pair = CoalescencePair.electron_nucleus(2.0)
    ref = w0(env, pair)
    val = w_exact(env, pair, 1e-7, 0.7, 1.9)
    assert val == pytest.approx(ref, rel=1e-5)


def test_w_exact_singularity():
    env = Environment((PointCharge(1.0, (0.0, 0.0, 1.0)),))
    pair = CoalescencePair(-1.0, -1.0, 1.0, 1.0)
    # particle 1 sits at +r/2 along z; r = 2 puts it on the charge
    with pytest.raises(SingularityError):
        w_exact(env, pair, 2.0, 0.0, 0.0)


def test_multipole_matches_exact():
    rng = np.random.default_rng(2)
    pair = CoalescencePair.electron_nucleus(2.0)
    for _ in range(10):
        env = _random_env(rng)
        r = 0.3 * env.min_radius
        th, ph = rng.uniform(0.1, 3.0), rng.uniform(0.0, 6.2)
        full = w_exact(env, pair, r, th, ph)
        approx = w_multipole(env, pair, r, th, ph, lam_max=30)
        assert approx == pytest.approx(full, abs=1e-10)


def test_multipole_outside_radius_rejected():
    env = Environment((PointCharge(1.0, (0.0, 0.0, 1.0)),))
    with pytest.raises(DomainError):
        w_multipole(env, HYDROGEN_PAIR, 1.5, 0.3, 0.3, lam_max=4)


def test_identical_pair_odd_terms_bitwise_zero():
    rng = np.random.default_rng(3)
    env = _random_env(rng)
    for lam in range(1, 16, 2):
        assert multipole_term(env, EE_PAIR, lam, 0.4, 0.9, 2.1) == 0.0


def test_fixed_nucleus_mass_fractions():
    # infinite m2: particle 1 carries the whole separation, particle 2
    # stays at the coalescence point, so only q1-terms depend on direction
    env = Environment((PointCharge(1.5, (0.0, 0.0, 2.0)),))
    pair = CoalescencePair.electron_nucleus(2.0)
    v1 = w_exact(env, pair, 0.5, 0.0, 0.0)
    # electron at z = +0.5: distances 1.5 (electron) and 2.0 (nucleus)
    expect = 1.5 * (-1.0) / 1.5 + 1.5 * 2.0 / 2.0
    assert v1 == pytest.approx(expect, rel=1e-15)


def test_spherical_average_reproduces_w0():
    # inside the nearest charge, against a sphere rule built in the test
    rng = np.random.default_rng(4)
    for _ in range(5):
        env = _random_env(rng)
        for pair in AVERAGE_PAIRS:
            for frac in (0.25, 0.5, 0.75):
                r = frac * env.min_radius / max(_fractions(pair))
                ref = _quadrature_average(env, pair, r)
                assert abs(spherical_average_w(env, pair, r) - ref) < 1e-12
                assert abs(w0(env, pair) - ref) < 1e-12


def test_spherical_average_matches_mpmath_across_each_charge():
    # f r just inside, on (exactly, for f = 1 and f = 1/2) and just past
    # every charge, where a sphere rule loses its accuracy
    rng = np.random.default_rng(11)
    for pair in AVERAGE_PAIRS:
        env = _random_env(rng, 3, 3)
        f = max(_fractions(pair))
        for c in env.charges:
            for ratio in (0.999, 1.0, 1.001):
                r = ratio * c.radius / f
                ref, scale = _shell_reference(env, pair, r)
                assert abs(spherical_average_w(env, pair, r) - ref) \
                    <= 1e-14 * scale


def test_spherical_average_is_w0_up_to_the_nearest_charge():
    rng = np.random.default_rng(12)
    for _ in range(20):
        env = _random_env(rng)
        for pair in AVERAGE_PAIRS:
            scale = (abs(pair.q1) + abs(pair.q2)) * math.fsum(
                abs(c.q) / c.radius for c in env.charges)
            for ratio in (0.99, 0.999):
                r = ratio * env.min_radius / max(_fractions(pair))
                assert abs(spherical_average_w(env, pair, r)
                           - w0(env, pair)) <= 1e-14 * scale


def test_spherical_average_deterministic():
    rng = np.random.default_rng(5)
    env = _random_env(rng)
    a = spherical_average_w(env, EE_PAIR, 0.2)
    b = spherical_average_w(env, EE_PAIR, 0.2)
    assert a == b


def test_sphere_nodes_cached_bit_identical(monkeypatch):
    # one read-only set of nodes per size, shared by every call, and the
    # same bits as building them afresh
    nodes = _sphere_nodes(32, 64)
    assert _sphere_nodes(32, 64) is nodes
    for a, fresh in zip(nodes, _sphere_nodes.__wrapped__(32, 64)):
        assert not a.flags.writeable
        assert a.tobytes() == fresh.tobytes()
    grid = np.linspace(1e-4, 0.012, 14)
    f = AngularRadialFunction(lambda r, t, p: np.exp(-2.0 * r) * (
        1.0 + 0.3 * r * np.sin(t) * np.cos(p)), grid)
    cached = kato_average_check(f)
    monkeypatch.setattr(cusp, "_sphere_nodes", _sphere_nodes.__wrapped__)
    assert kato_average_check(f) == cached


def test_sphere_nodes_layout():
    n_theta, n_phi = 5, 7
    theta, phi, w = _sphere_nodes(n_theta, n_phi)
    assert theta.shape == phi.shape == w.shape == (n_theta * n_phi,)
    assert abs(math.fsum(w.tolist()) - 1.0) <= 1e-15
    # theta-major: theta holds for n_phi nodes while phi runs its grid
    cos_theta, _ = np.polynomial.legendre.leggauss(n_theta)
    assert np.array_equal(theta.reshape(n_theta, n_phi)[:, 0],
                          np.arccos(cos_theta))
    assert np.all(theta.reshape(n_theta, n_phi) == theta[::n_phi, None])
    assert np.array_equal(phi.reshape(n_theta, n_phi),
                          np.tile(2.0 * math.pi * np.arange(n_phi) / n_phi,
                                  (n_theta, 1)))
    for a in (theta, phi, w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_w_exact_matches_a_per_charge_sum():
    # reference: one Coulomb term per particle and charge, summed exactly
    rng = np.random.default_rng(8)
    pairs = (CoalescencePair.electron_nucleus(2.0),
             CoalescencePair.electron_nucleus(3.0, 7.0), EE_PAIR)
    for _ in range(20):
        env = _random_env(rng, 1, 6)
        r = float(rng.uniform(0.0, 2.0))
        th, ph = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
        n = [math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph),
             math.cos(th)]
        for pair in pairs:
            f1, f2 = environment._mass_fractions(pair)
            ref = math.fsum(
                c.q * q / math.dist(c.position, [f * r * x for x in n])
                for c in env.charges for q, f in ((pair.q1, f1),
                                                  (pair.q2, -f2)))
            assert w_exact(env, pair, r, th, ph) == pytest.approx(
                ref, rel=1e-14, abs=0.0)


PAIRS = (CoalescencePair.electron_nucleus(2.0),
         CoalescencePair.electron_nucleus(3.0, 7.0),
         EE_PAIR, CoalescencePair.electron_electron("triplet"))


def _reference_terms(env, pair, lam_max, r, th, ph):
    """Each order on its own: a scalar Bonnet loop per charge and order, and
    a per-charge fsum, as the expansion is written."""
    f1, f2 = environment._mass_fractions(pair)
    st = math.sin(th)
    n = np.array([st * math.cos(ph), st * math.sin(ph), math.cos(th)])
    out = []
    for lam in range(lam_max + 1):
        coeff = pair.q1 * f1 ** lam + (-1.0) ** lam * pair.q2 * f2 ** lam
        if coeff == 0.0:
            out.append(0.0)
            continue
        parts = []
        for c in env.charges:
            x = min(1.0, max(-1.0, float(np.dot(n, c.position)) / c.radius))
            p_prev, p = 1.0, x
            for k in range(1, lam):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            parts.append(c.q * (1.0 if lam == 0 else p) / c.radius ** (lam + 1))
        out.append(coeff * r ** lam * math.fsum(parts))
    return out


def test_multipole_matches_a_per_order_reference_bitwise():
    rng = np.random.default_rng(9)
    for _ in range(12):
        env = _random_env(rng, 1, 5)
        r = float(rng.uniform(0.0, 0.9)) * env.min_radius
        th, ph = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
        for pair in PAIRS:
            ref = _reference_terms(env, pair, 30, r, th, ph)
            got = [multipole_term(env, pair, lam, r, th, ph)
                   for lam in range(31)]
            assert [v.hex() for v in got] == [v.hex() for v in ref]
            assert (w_multipole(env, pair, r, th, ph, 30).hex()
                    == math.fsum(ref).hex())
            if pair.identical:  # cancelled odd orders are +0.0, not -0.0
                assert all(v == 0.0 and math.copysign(1.0, v) == 1.0
                           for v in got[1::2])


def test_w_multipole_runs_one_legendre_pass_per_spectator(monkeypatch):
    env = _random_env(np.random.default_rng(10), 4, 4)
    calls = []
    upto = environment._legendre_upto
    monkeypatch.setattr(environment, "_legendre_upto",
                        lambda lam, x: calls.append(lam) or upto(lam, x))
    w_multipole(env, HYDROGEN_PAIR, 0.2, 0.4, 1.3, lam_max=30)
    assert calls == [30] * 4


@pytest.mark.parametrize("r, theta, phi", [
    (0.2, math.nan, 0.3), (0.2, 0.3, math.nan), (0.2, math.inf, 0.3),
    (math.nan, 0.3, 0.3), (math.inf, 0.3, 0.3), (-0.1, 0.3, 0.3)])
def test_non_finite_or_negative_inputs_raise(r, theta, phi):
    env = Environment((PointCharge(1.0, (0.0, 0.0, 1.0)),
                       PointCharge(-2.0, (1.0, 2.0, 0.5))))
    for fn in (lambda: w_exact(env, EE_PAIR, r, theta, phi),
               lambda: w_multipole(env, EE_PAIR, r, theta, phi, 6),
               lambda: multipole_term(env, EE_PAIR, 2, r, theta, phi)):
        with pytest.raises(DomainError):
            fn()
    if math.isfinite(theta) and math.isfinite(phi):
        with pytest.raises(DomainError):
            spherical_average_w(env, EE_PAIR, r)


def test_negative_lam_max_rejected():
    env = Environment((PointCharge(1.0, (0.0, 0.0, 1.0)),))
    with pytest.raises(DomainError):
        w_multipole(env, EE_PAIR, 0.2, 0.3, 0.3, lam_max=-1)


def test_json_round_trip():
    env = Environment((PointCharge(1.0, (0.1, -0.2, 2.0)),
                       PointCharge(-0.5, (1.0, 1.0, -1.0))))
    again = Environment.from_json(env.to_json())
    assert again == env


@pytest.mark.parametrize("text", [
    "[1]",
    '{"charges": 1}',
    '{"charges": [{"position": [0, 0, 1]}]}',
    '{"charges": [{"q": "x", "position": [0, 0, 1]}]}',
    '{"charges": [{"q": 1, "position": 5}]}',
    '{"charges": [{"q": 1, "position": ["a", 0, 1]}]}',
])
def test_from_json_rejects_malformed_documents(text):
    with pytest.raises(InputError):
        Environment.from_json(text)


def test_no_spectators_average_to_zero():
    env = Environment.from_json('{"charges": []}')
    for pair in (EE_PAIR, HYDROGEN_PAIR):
        assert w0(env, pair) == 0.0
        assert spherical_average_w(env, pair, 0.1) == 0.0
