"""Property tests of the Kummer path (special.kummer_1f1, cusp.local_u)
against 40-digit mpmath, across the series/large-x crossover and up to the
edge of the double range."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cuspbc.cusp import LocalWavefunction, local_u
from cuspbc.errors import NoConvergence, NumericalError, Overflow
from cuspbc.special import kummer_1f1, kummer_crossover

DPS = 40
TOL = 1e-10
DOUBLE_MAX = mpmath.mpf(sys.float_info.max)

A = st.floats(-6.0, 10.0)
# negative b too, where Gamma(b) < 0 on (-1, 0), (-3, -2), ... flips the
# sign of the large-x expansion; b = 0, -1, ... are poles
B = st.one_of(st.floats(0.5, 10.0),
              st.floats(-6.0, 0.0, exclude_max=True).filter(
                  lambda b: b != math.floor(b)))
X = st.floats(-750.0, 750.0)


def _oracle(a, b, x, log_prefactor=0.0):
    """e^log_prefactor 1F1(a; b; x) to 40 digits, and the size a float sum
    of it can be held to: its modulus plus the sign-alternating head of the
    power series that is summed (the Kummer-transformed one for x < 0),
    up to where neither (c)_k nor (b)_k changes sign any more.  Rounding
    in that head is the error floor near a zero of 1F1.  A tiny
    nonzero a gets digits to spare: in a + 1 - 1 it would vanish."""
    extra = max(0, -math.floor(math.log10(abs(a)))) if a else 0
    with mpmath.workdps(DPS + extra):
        x_mp = mpmath.mpf(x)
        pre = mpmath.exp(mpmath.mpf(log_prefactor))
        ref = pre * mpmath.hyp1f1(a, b, x_mp)
        c, t = (a, x_mp) if x >= 0.0 else (b - a, -x_mp)
        if x < 0.0:
            pre *= mpmath.exp(x_mp)
        head = mpmath.fsum(abs(mpmath.rf(c, k) / mpmath.rf(b, k)) * t ** k
                           / mpmath.factorial(k)
                           for k in range(max(0, math.ceil(-c), math.ceil(-b))
                                          + 2))
        return ref, abs(ref) + pre * head


def _in_gap(a, b, x):
    """True where neither method can reach rel_tol: a within ~1e-100 of 0
    puts the crossover (e^x/Gamma(a) must outgrow the dropped recessive
    part) beyond the x of a few hundred that the series reaches within
    max_terms = 500.  NoConvergence is the answer there."""
    c = a if x >= 0.0 else b - a
    return abs(x) > 300.0 and kummer_crossover(c, b) > 300.0


def _expect(call, oracle, gap=False):
    """call() matches every (ref, scale) of the oracle to TOL * scale, or
    raises Overflow exactly when some true value exceeds the double range
    (or NoConvergence, if some argument lies in the gap)."""
    sizes = [abs(ref) for ref, _ in oracle]
    if any(s > DOUBLE_MAX * (1 + 1e-9) for s in sizes):
        with pytest.raises((NoConvergence, Overflow) if gap else Overflow):
            call()
        return
    assume(all(s < DOUBLE_MAX * (1 - 1e-9) for s in sizes))  # edge: either
    try:
        got = np.atleast_1d(call())
    except NoConvergence:
        assert gap
        return
    for g, (ref, scale) in zip(got, oracle):
        assert math.isfinite(g)
        assert abs(g - ref) <= TOL * scale + 1e-300, (g, ref)


@st.composite
def arguments(draw, max_size=6):
    """Arguments anywhere in [-750, 750], and some placed just below and
    beyond the crossover to the large-x expansion (on either side of 0)."""
    a, b = draw(A), draw(B)
    xs = draw(st.lists(X, min_size=1, max_size=max_size))
    for t in draw(st.lists(st.floats(0.5, 2.0), max_size=3)):
        sign = draw(st.sampled_from((1.0, -1.0)))
        edge = kummer_crossover(a, b) if sign > 0 else kummer_crossover(b - a, b)
        if edge < 750.0:
            xs.append(sign * t * edge)
    return a, b, xs


@given(arguments())
def test_kummer_1f1_array_against_mpmath(args):
    a, b, xs = args
    _expect(lambda: kummer_1f1(a, b, np.array(xs)),
            [_oracle(a, b, x) for x in xs],
            gap=any(_in_gap(a, b, x) for x in xs))


def test_kummer_1f1_negative_b_beyond_crossover():
    # Gamma(b) < 0 for b in (-1, 0) and (-3, -2): 1F1 is negative there for
    # large x, on the direct route (x > 0) and the transformed one (x < 0)
    for a, b, x in ((1.3, -0.5, 35.0), (1.3, -0.5, -60.0),
                    (1.3, -2.5, 60.0), (0.7, -1.5, -80.0)):
        edge = kummer_crossover(a, b) if x > 0 else kummer_crossover(b - a, b)
        assert abs(x) >= edge
        ref, scale = _oracle(a, b, x)
        got = kummer_1f1(a, b, x)
        assert abs(got - ref) <= TOL * scale, (a, b, x, got, ref)
        assert kummer_1f1(a, b, np.array([x])).tolist() == [got]


@given(arguments())
def test_kummer_1f1_array_elements_are_scalar_calls(args):
    a, b, xs = args
    try:
        whole = kummer_1f1(a, b, np.array(xs))
    except NumericalError as exc:
        kinds = set()
        for x in xs:
            try:
                kummer_1f1(a, b, x)
            except NumericalError as one:
                kinds.add(type(one))
        assert type(exc) in kinds
        return
    singles = [kummer_1f1(a, b, x) for x in xs]
    assert all(isinstance(s, float) for s in singles)
    assert whole.tolist() == singles


@given(A, B, st.floats(-300.0, 300.0))
def test_kummer_transform_identity(a, b, x):
    # 1F1(a; b; x) = e^x 1F1(b - a; b; -x): the two sides take the two
    # routes (direct and transformed) through the same argument
    assume(b - (b - a) == a)  # b - a is exact, or the sides differ in a
    ref, scale = _oracle(a, b, x)
    # beyond the double range (b next to the pole at 0) the direct route
    # raises Overflow, as _expect requires of every route
    if abs(ref) > DOUBLE_MAX * (1 + 1e-9):
        with pytest.raises(Overflow):
            kummer_1f1(a, b, x)
        return
    assume(abs(ref) < DOUBLE_MAX * (1 - 1e-9))  # edge: either
    lhs = kummer_1f1(a, b, x)
    rhs = math.exp(x) * kummer_1f1(b - a, b, -x)
    assert abs(lhs - rhs) <= 2.0 * TOL * float(scale)
    assert abs(lhs - ref) <= TOL * scale + 1e-300


def _wavefunction(draw):
    return LocalWavefunction(ell=draw(st.integers(0, 3)), m=0,
                             u0=draw(st.floats(0.1, 3.0)),
                             alpha=draw(st.floats(-4.0, 4.0)),
                             beta=draw(st.floats(0.5, 4.0)))


@st.composite
def radii(draw):
    """A local wave function and radii with 2 beta r in [0, 1500] (u
    overflows from about 1420 on), some of them around the crossover."""
    lw = _wavefunction(draw)
    xs = draw(st.lists(st.floats(0.0, 1500.0), min_size=1, max_size=6))
    edge = kummer_crossover(lw.kummer_a, lw.kummer_b)
    if edge < 1500.0:
        xs += [t * edge for t in draw(st.lists(st.floats(0.5, 2.0), max_size=3))]
    return lw, np.array(xs) / (2.0 * lw.beta)


def _u_oracle(lw, r):
    with mpmath.workdps(DPS):
        beta = mpmath.mpf(lw.beta)
        a = lw.ell + 1 + mpmath.mpf(lw.alpha) / beta
        x = 2 * beta * mpmath.mpf(float(r))
    ref, scale = _oracle(a, 2 * lw.ell + 2, x, -x / 2)
    return lw.u0 * ref, lw.u0 * scale


@given(radii())
def test_local_u_array_against_mpmath(args):
    lw, r = args
    _expect(lambda: local_u(lw, r), [_u_oracle(lw, ri) for ri in r])


@given(radii())
def test_local_u_array_elements_are_scalar_calls(args):
    lw, r = args
    try:
        whole = local_u(lw, r)
    except Overflow:
        with pytest.raises(Overflow):
            for ri in r:
                local_u(lw, float(ri))
        return
    assert whole.tolist() == [local_u(lw, float(ri)) for ri in r]


def _helium():
    """compare-he's He 1s parameters: fixed nucleus, Z = 2, W0 = <1/r> of
    the Clementi-Roetti orbital, orbital energy -0.9179556."""
    return LocalWavefunction(ell=0, m=0, u0=1.0, alpha=-2.0,
                             beta=2.2828041536220374)


def test_local_u_far_field():
    # the power series needs more than 500 terms at r = 120 and 1F1
    # overflows at r = 200, where u = 7e191 is still a double; at r = 400
    # u = 3.6e389 itself overflows
    lw = _helium()
    for r in (120.0, 200.0):
        ref, _ = _u_oracle(lw, r)
        got = local_u(lw, r)
        assert abs(got - ref) <= TOL * abs(ref)
    assert local_u(lw, np.array([120.0, 200.0])).tolist() == [
        local_u(lw, 120.0), local_u(lw, 200.0)]
    with pytest.raises(Overflow):
        local_u(lw, 400.0)
    with pytest.raises(Overflow):
        local_u(lw, np.array([1.0, 400.0]))
