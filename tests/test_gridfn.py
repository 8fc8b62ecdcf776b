import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cuspbc import gridfn
from cuspbc.basis import (GaussianHeadTerm, GaussianTerm, SlaterTerm,
                          build_basis)
from cuspbc.cusp import (CoalescencePair, LocalWavefunction, cusp_b,
                         cusp_limit_first, cusp_series, validity_radius)
from cuspbc.environment import (Environment, PointCharge, multipole_term,
                                spherical_average_w, w_exact, w_multipole)
from cuspbc.hfr import HFROrbital
from cuspbc.radial import (INNER, RadialProblem, RobinBoundary,
                           SystemAsymptotics, asymptotic_tail, log_grid,
                           robin_inner, robin_outer, solve_matrix,
                           solve_shooting)
from cuspbc.special import (kummer_1f1, kummer_series, legendre_p,
                            pochhammer, spherical_harmonic)

from cuspbc.errors import DomainError, Overflow
from cuspbc.gridfn import RadialFunction, csv_texts


_PAIR = CoalescencePair.electron_nucleus(1.0)
_R = np.linspace(0.0, 1.0, 50)


@pytest.mark.parametrize("make", [
    lambda: RadialFunction(_R, np.exp(-_R), 1.5, "u"),
    lambda: RadialFunction(_R, np.exp(-_R), -1, "u"),
    lambda: cusp_series(_PAIR, 0.5, 0.0, -0.5, 4),
    lambda: LocalWavefunction.from_pair(_PAIR, 0.5, 0, 0.0, -0.5),
    lambda: LocalWavefunction(0.5, 0, 1.0, -1.0, 1.0),
    lambda: build_basis("slater", 0.5, -1.0, 0.5, [2.0]),
    lambda: build_basis("gaussian", 0.5, -1.0, 0.5, [2.0]),
    lambda: robin_inner(0.5, -1.0),
    lambda: robin_inner("1", -1.0),
    lambda: cusp_limit_first(RadialFunction(_R, np.exp(-_R), 1, "u"), 1.5)],
    ids=["function", "function-negative", "series", "local-from-pair",
         "local", "slater-basis", "gaussian-basis", "robin-inner",
         "robin-inner-str", "cusp-limit"])
def test_ell_must_be_a_non_negative_integer(make):
    # checked as RadialProblem checks it, not accepted as 0.5 or left to a
    # TypeError in a later factorial
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-negative integer"):
            make()


_ENV = Environment((PointCharge(1.0, (0.0, 0.0, 2.0)),))
_H = RadialProblem(0, 1.0, -1.0, 0.0, log_grid(1e-5, 40.0, 200))


@pytest.mark.parametrize("make, name", [
    (lambda: log_grid(1e-5, 40.0, 2.5), "n"),
    (lambda: solve_matrix(_H, robin_inner(0, -1.0), robin_outer(
        SystemAsymptotics(1.0, 0.0, -0.5), 40.0), 1.5), "k"),
    (lambda: cusp_series(_PAIR, 0, 0.0, -0.5, 2.5), "series order"),
    (lambda: pochhammer(1.0, 2.5), "pochhammer order k"),
    (lambda: legendre_p(1.5, 0.3), "lam"),
    (lambda: spherical_harmonic(1.5, 0, 0.1, 0.2),
     "spherical harmonic degree l"),
    (lambda: spherical_harmonic(1, -0.5, 0.1, 0.2), r"\|m\|"),
    (lambda: multipole_term(_ENV, _PAIR, 1.5, 0.1, 0.2, 0.3), "lambda"),
    (lambda: w_multipole(_ENV, _PAIR, 0.1, 0.2, 0.3, 1.5), "lam_max"),
    (lambda: LocalWavefunction(1, 0.5, 1.0, -1.0, 1.0), r"\|m\|"),
    (lambda: SlaterTerm(1.0, 1.5, 1.0), "power"),
    (lambda: GaussianTerm(1.0, (1.5, 0, 0), 1.0), "a Cartesian power"),
    (lambda: HFROrbital(((1.5, 1.0, 1.0),)), "principal number n")],
    ids=["log-grid", "solve-matrix", "cusp-series", "pochhammer",
         "legendre", "harmonic-l", "harmonic-m", "multipole-term",
         "w-multipole", "local-m", "slater-power", "gaussian-power",
         "hfr-n"])
def test_integer_parameters_must_be_non_negative_integers(make, name):
    # each is named in its DomainError, not left to a TypeError (range,
    # linspace) or truncated by int()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError,
                           match=f"^{name} must be a non-negative integer"):
            make()


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_not_a_natural_number(flag):
    # bool is a numbers.Integral in Python, but no count or order
    with pytest.raises(DomainError, match=f"^ell must be a non-negative "
                       f"integer, got {flag}$"):
        gridfn.check_natural(flag, "ell")
    with pytest.raises(DomainError, match="^ell must be"):
        RadialProblem(flag, 1.0, -1.0, 0.0, log_grid(1e-5, 40.0, 200))


_SYS = SystemAsymptotics(1.0, 0.0, -0.5)


def _shoot(bracket=(-0.6, -0.4), rtol=1e-12):
    return solve_shooting(_H, robin_inner(0, -1.0), None, bracket,
                          asymptotics=_SYS, rtol=rtol)


@pytest.mark.parametrize("make, name", [
    (lambda v: CoalescencePair(v, 1.0), "q1"),
    (lambda v: CoalescencePair(-1.0, v), "q2"),
    (lambda v: LocalWavefunction(0, 0, v, -1.0, 1.0), "u0"),
    (lambda v: LocalWavefunction(0, 0, 1.0, v, 1.0), "alpha"),
    (lambda v: LocalWavefunction(0, 0, 1.0, -1.0, v), "beta"),
    (lambda v: LocalWavefunction.from_pair(_PAIR, 0, 0, v, -0.5), "w0"),
    (lambda v: LocalWavefunction.from_pair(_PAIR, 0, 0, 0.0, v), "e"),
    (lambda v: cusp_b(_PAIR, 0, v, -0.5), "w0"),
    (lambda v: cusp_b(_PAIR, 0, 0.0, v), "e"),
    (lambda v: cusp_series(_PAIR, 0, v, -0.5, 4), "w0"),
    (lambda v: cusp_series(_PAIR, 0, 0.0, v, 4), "e"),
    (lambda v: validity_radius(_PAIR, v), "w0"),
    (lambda v: RobinBoundary(INNER, v, 1.0), "c_dpsi"),
    (lambda v: RobinBoundary(INNER, 1.0, v), "c_psi"),
    (lambda v: SystemAsymptotics(v, 0.0, -0.5), "total_reduced_mass"),
    (lambda v: SystemAsymptotics(1.0, v, -0.5), "total_charge"),
    (lambda v: SystemAsymptotics(1.0, 0.0, v), "energy"),
    (lambda v: RadialProblem(0, v, -1.0, 0.0, _H.grid), "mass"),
    (lambda v: RadialProblem(0, 1.0, v, 0.0, _H.grid), "pair_product"),
    (lambda v: RadialProblem(0, 1.0, -1.0, v, _H.grid), "w0"),
    (lambda v: log_grid(v, 40.0, 100), "r_min"),
    (lambda v: log_grid(1e-5, v, 100), "r_max"),
    (lambda v: asymptotic_tail(_SYS, v, 1.0), "v0"),
    (lambda v: _shoot(bracket=(v, -0.4)), "e_bracket"),
    (lambda v: _shoot(rtol=v), "rtol"),
    (lambda v: PointCharge(v, (0.0, 0.0, 1.0)), "q"),
    (lambda v: PointCharge(1.0, (0.0, v, 1.0)), "position"),
    (lambda v: w_exact(_ENV, _PAIR, v, 0.2, 0.3), "r"),
    (lambda v: w_exact(_ENV, _PAIR, 0.1, v, 0.3), "theta"),
    (lambda v: w_exact(_ENV, _PAIR, 0.1, 0.2, v), "phi"),
    (lambda v: spherical_average_w(_ENV, _PAIR, v), "r"),
    (lambda v: pochhammer(v, 2), "a"),
    (lambda v: kummer_1f1(v, 2.0, 0.5), "a"),
    (lambda v: kummer_1f1(1.0, v, 0.5), "b"),
    (lambda v: kummer_series(1.0, 2.0, v), "x"),
    (lambda v: spherical_harmonic(1, 0, v, 0.2), "theta"),
    (lambda v: spherical_harmonic(1, 0, 0.1, v), "phi"),
    (lambda v: SlaterTerm(v, 0, 1.0), "coeff"),
    (lambda v: SlaterTerm(1.0, 0, v), "zeta"),
    (lambda v: GaussianTerm(v, (0, 0, 0), 1.0), "coeff"),
    (lambda v: GaussianHeadTerm(v, 0, 1.0), "coeff"),
    (lambda v: build_basis("slater", 0, v, 0.5, [2.0]), "a"),
    (lambda v: build_basis("gaussian", 0, -1.0, v, [2.0]), "b"),
    (lambda v: HFROrbital(((1, 1.0, v),)), "coefficient c")],
    ids=["pair-q1", "pair-q2", "local-u0", "local-alpha", "local-beta",
         "from-pair-w0", "from-pair-e", "cusp-b-w0", "cusp-b-e",
         "series-w0", "series-e", "validity-radius", "robin-c-dpsi",
         "robin-c-psi", "asym-mass", "asym-charge", "asym-energy",
         "problem-mass", "problem-pair-product", "problem-w0", "grid-r-min",
         "grid-r-max", "tail-v0", "shoot-bracket", "shoot-rtol",
         "charge-q", "charge-position", "w-exact-r", "w-exact-theta",
         "w-exact-phi", "average-r", "pochhammer", "kummer-a", "kummer-b",
         "kummer-series-x", "harmonic-theta", "harmonic-phi",
         "slater-coeff", "slater-zeta", "gaussian-coeff",
         "gaussian-head-coeff", "basis-a", "basis-b", "hfr-coeff"])
def test_real_parameters_must_be_finite_reals(make, name):
    # a bool is not taken as 0 or 1, nor a string or None left to a
    # TypeError: each is named in its DomainError, as NaN and inf are
    for value in (math.nan, math.inf, -math.inf, True, "1.0", None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(
                    f"{name} must be finite, got {value!r}") + "$"):
                make(value)


def test_check_finite_takes_any_finite_real():
    gridfn.check_finite(a=1, b=-0.0, c=np.float64(2.5), d=np.int64(-3))
    with pytest.raises(DomainError, match="^b must be finite, got False$"):
        gridfn.check_finite(a=1.0, b=False, c=math.nan)


@pytest.mark.parametrize("mass", [True, "x", None, math.nan, -math.inf])
def test_a_mass_is_a_finite_real_or_inf(mass):
    # math.inf is the fixed nucleus; no other non-finite value or
    # non-number is a mass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m1, m2, name in ((mass, 1.0, "m1"), (1.0, mass, "m2")):
            with pytest.raises(DomainError, match=re.escape(
                    f"{name} must be finite, got {mass!r}") + "$"):
                CoalescencePair(-1.0, 1.0, m1, m2)
    for m1, m2 in ((math.inf, 1.0), (1.0, math.inf)):
        assert CoalescencePair(-1.0, 1.0, m1, m2).reduced_mass == 1.0


def test_meaning_conversion_round_trip():
    r = np.linspace(0.1, 2.0, 20)
    u = np.exp(-r)
    fn = RadialFunction(r, u, 2, "u")
    full = fn.as_full()
    assert np.allclose(full.values, r ** 2 * u, rtol=1e-15)
    back = full.as_reduced()
    assert np.allclose(back.values, u, rtol=1e-14)
    assert fn.as_reduced() is fn
    assert full.as_full() is full


def test_meaning_conversion_past_the_range_of_r_ell():
    # r^ell alone overflows (r = 1e200) or underflows (1e-200), yet the
    # product fits; where the product leaves the range it is an Overflow,
    # and no RuntimeWarning is issued either way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = RadialFunction([1.0, 1e200], [2.0, 1e-300], 2, "u").as_full()
        assert full.values.tolist() == pytest.approx([2.0, 1e100], rel=1e-15)
        assert full.as_reduced().values.tolist() == pytest.approx(
            [2.0, 1e-300], rel=1e-15)
        reduced = RadialFunction([1e-200, 1.0], [1e-300, 3.0], 2,
                                 "R").as_reduced()
        assert reduced.values.tolist() == pytest.approx([1e100, 3.0],
                                                        rel=1e-15)
        for r, v, meaning in (([1.0, 1e200], [1.0, 1e200], "u"),
                              ([1e-200, 1.0], [1.0, 1.0], "R")):
            fn = RadialFunction(r, v, 2, meaning)
            with pytest.raises(Overflow, match="outside the double range"):
                fn.as_full() if meaning == "u" else fn.as_reduced()


def test_reduction_at_zero_rejected():
    r = np.linspace(0.0, 1.0, 11)
    fn = RadialFunction(r, np.exp(-r), 1, "R")
    with pytest.raises(DomainError):
        fn.as_reduced()


def test_validation():
    r = np.linspace(0.1, 1.0, 10)
    with pytest.raises(DomainError):
        RadialFunction(r[::-1], np.ones(10))
    with pytest.raises(DomainError):
        RadialFunction(r, np.full(10, np.nan))
    with pytest.raises(DomainError):
        RadialFunction(r, np.ones(10), 0, "chi")
    # next to +-inf, np.diff(grid) > 0 holds
    with pytest.raises(DomainError, match="grid must be finite"):
        RadialFunction([0, 1, np.inf], [1, 2, 3])
    with pytest.raises(DomainError, match="grid must be finite"):
        RadialFunction([-np.inf, 1], [1, 2])


def test_csv_export():
    r = np.array([0.5, 1.0])
    fn = RadialFunction(r, np.array([2.0, 3.0]), 1, "u")
    lines = fn.to_csv().splitlines()
    assert lines[0] == "r,value,ell,meaning"
    assert lines[1] == "0.5,2.0,1,u"


EDGE_GRID = np.array([5e-324, 2.2250738585072014e-308, 1e-300, 0.1,
                      1.0 / 3.0, 1e16])
EDGE_VALUES = np.array([-0.0, 1e-300, -5e-324, 1e16, 2.5e-310, -1.0 / 3.0])


def _row_format(fn):
    """The row-at-a-time f-string form of the CSV text."""
    return "r,value,ell,meaning\n" + "".join(
        f"{float(a)!r},{float(b)!r},{fn.ell},{fn.meaning}\n"
        for a, b in zip(fn.grid, fn.values))


def _joined(fns):
    """The text of each function's csv_texts blocks."""
    return [b"".join(blocks).decode() for blocks in csv_texts(fns)]


def test_csv_bytes_match_the_row_format():
    # subnormals, the smallest normal, signed zero and reprs in exponent
    # form, one function at a time and as a group sharing its grid; then
    # strided and big-endian arrays
    fns = [RadialFunction(EDGE_GRID, EDGE_VALUES, 2, "u"),
           RadialFunction(EDGE_GRID, EDGE_VALUES)]
    for fn in fns + [RadialFunction(EDGE_GRID[::2], EDGE_VALUES[1::2]),
                     RadialFunction(EDGE_GRID.astype(">f8"),
                                    EDGE_VALUES.astype(">f8"))]:
        assert fn.to_csv() == _row_format(fn)
    assert _joined(fns) == [_row_format(fn) for fn in fns]


def test_csv_texts_equal_each_to_csv():
    # a grid shared by identity, an equal grid in a separate array, other
    # grids, and mixed ell and meaning
    r = np.linspace(0.0, 2.0, 9)
    fns = [RadialFunction(r, np.exp(-r), 0, "u"),
           RadialFunction(r, -np.exp(-r), 1, "u"),
           RadialFunction(r.copy(), r * np.exp(-r), 1, "R"),
           RadialFunction(r[1:], np.sqrt(r[1:]), 0, "u"),
           RadialFunction(r, np.cos(r), 3, "u")]
    assert _joined(fns) == [fn.to_csv() for fn in fns]
    assert _joined([]) == []


def test_csv_of_an_empty_grid():
    fn = RadialFunction(np.array([]), np.array([]))
    assert fn.to_csv() == "r,value,ell,meaning\n"
    assert _joined([fn, fn]) == [fn.to_csv()] * 2


def test_csv_of_complex_values_raises():
    fn = RadialFunction(EDGE_GRID, EDGE_VALUES + 1j)
    with pytest.raises(TypeError):
        fn.to_csv()
    with pytest.raises(TypeError):
        list(csv_texts([RadialFunction(EDGE_GRID, EDGE_VALUES), fn]))


def test_csv_texts_stream_blocks_as_they_are_formatted(monkeypatch):
    # the header, then at most _BLOCK rows a block, each formatted when it
    # is asked for; complex values are refused before any block
    r = np.linspace(0.5, 2.0, 2 * gridfn._BLOCK + 3)
    fn = RadialFunction(r, np.exp(-r), 1, "u")
    calls = []
    cells = gridfn._cells

    def spy(a):
        calls.append(len(a))
        return cells(a)

    monkeypatch.setattr(gridfn, "_cells", spy)
    blocks = next(csv_texts([fn]))
    assert next(blocks) == b"r,value,ell,meaning\n"
    grid = len(calls)  # the grid's column, formatted in full
    rows = []
    for block in blocks:
        rows.append(block.count(b"\n"))
        assert len(calls) == grid + len(rows)
    assert rows == [gridfn._BLOCK, gridfn._BLOCK, 3]
    assert calls[grid:] == rows
    assert b"".join(next(csv_texts([fn]))).decode() == _row_format(fn)
    with pytest.raises(TypeError):
        next(csv_texts([RadialFunction(EDGE_GRID, EDGE_VALUES + 1j)]))


def test_csv_texts_format_a_shared_grid_once(monkeypatch):
    r = np.linspace(0.5, 2.0, 7)
    fns = [RadialFunction(r, np.exp(-j * r), j, "u") for j in range(3)]
    fns += [RadialFunction(r.copy(), np.exp(-r)),
            RadialFunction(2.0 * r, np.exp(-r))]
    expected = [fn.to_csv() for fn in fns]
    calls = []
    column = gridfn._column

    def spy(a):
        calls.append(a)
        return column(a)

    monkeypatch.setattr(gridfn, "_column", spy)
    texts = csv_texts(fns)
    # each text is made when it is asked for
    assert b"".join(next(texts)).decode() == expected[0] and len(calls) == 1
    assert [b"".join(blocks).decode() for blocks in texts] == expected[1:]
    # r once for the first three functions, its copy, then 2r
    assert len(calls) == 3
    assert calls[0] is r and calls[1] is fns[3].grid
    assert np.array_equal(calls[2], 2.0 * r)


def _texts(floats):
    """The kernel's text of each float: the bytes of its cell but NUL."""
    cells = gridfn._column(np.asarray(floats, dtype=float))
    return [cell.tobytes().replace(b"\0", b"").decode() for cell in cells]


def _assert_reprs(floats):
    floats = np.asarray(floats, dtype=float)
    floats = np.concatenate([floats, -floats])
    assert _texts(floats) == [repr(x) for x in floats.tolist()]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
@example([-0.0, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308])
def test_kernel_matches_repr(floats):
    # subnormals and -0.0 included; the list sits in one block
    assert _texts(floats) == [repr(x) for x in floats]


def test_kernel_at_every_power_of_two():
    # the lower end of the rounding interval is closer at 2^e, and every
    # binary exponent, so every row of the table of powers of ten, is hit
    p = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_reprs(np.concatenate([np.nextafter(p, 0.0), p,
                                  np.nextafter(p, np.inf)]))


def test_kernel_at_powers_of_ten_and_layout_switches():
    # repr is positional for decimal exponents -4 to 15, else d.ddde+XX
    switches = np.array([1e16, 1e-4, 1e-5, 1e15, 9999999999999998.0])
    _assert_reprs([1 * 5e-324, 2 * 5e-324, 3 * 5e-324]
                  + [float(f"1e{j}") for j in range(-323, 309)]
                  + [x for s in switches for x in
                     (np.nextafter(s, 0.0), s, np.nextafter(s, 2 * s))])


def test_kernel_on_integers_and_short_decimals():
    _assert_reprs(np.arange(2 ** 53 - 1000, 2 ** 53 + 1001).astype(float))
    _assert_reprs(np.arange(10 ** 4) / 1000)


def test_kernel_on_random_bit_patterns():
    # more rows than a block, so blocks end in the middle
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2 ** 63, 3 * gridfn._BLOCK + 5, dtype=np.uint64)
    floats = bits.view(np.float64)
    _assert_reprs(floats[np.isfinite(floats)])
