import numpy as np
import pytest

from cuspbc import gridfn

from cuspbc.errors import DomainError
from cuspbc.gridfn import RadialFunction, csv_texts


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


def test_csv_bytes_match_the_row_format():
    # subnormals, the smallest normal, signed zero and reprs in exponent
    # form, one function at a time and as a group sharing its grid
    fns = [RadialFunction(EDGE_GRID, EDGE_VALUES, 2, "u"),
           RadialFunction(EDGE_GRID, EDGE_VALUES)]
    for fn in fns:
        assert fn.to_csv() == _row_format(fn)
    assert list(csv_texts(fns)) == [_row_format(fn) for fn in fns]


def test_csv_texts_equal_each_to_csv():
    # a grid shared by identity, an equal grid in a separate array, other
    # grids, and mixed ell and meaning
    r = np.linspace(0.0, 2.0, 9)
    fns = [RadialFunction(r, np.exp(-r), 0, "u"),
           RadialFunction(r, -np.exp(-r), 1, "u"),
           RadialFunction(r.copy(), r * np.exp(-r), 1, "R"),
           RadialFunction(r[1:], np.sqrt(r[1:]), 0, "u"),
           RadialFunction(r, np.cos(r), 3, "u")]
    assert list(csv_texts(fns)) == [fn.to_csv() for fn in fns]
    assert list(csv_texts([])) == []


def test_csv_of_an_empty_grid():
    fn = RadialFunction(np.array([]), np.array([]))
    assert fn.to_csv() == "r,value,ell,meaning\n"
    assert list(csv_texts([fn, fn])) == [fn.to_csv()] * 2


def test_csv_of_complex_values_raises():
    fn = RadialFunction(EDGE_GRID, EDGE_VALUES + 1j)
    with pytest.raises(TypeError):
        fn.to_csv()
    with pytest.raises(TypeError):
        list(csv_texts([RadialFunction(EDGE_GRID, EDGE_VALUES), fn]))


def test_csv_texts_format_a_shared_grid_once(monkeypatch):
    r = np.linspace(0.5, 2.0, 7)
    fns = [RadialFunction(r, np.exp(-j * r), j, "u") for j in range(3)]
    fns += [RadialFunction(r.copy(), np.exp(-r)),
            RadialFunction(2.0 * r, np.exp(-r))]
    expected = [fn.to_csv() for fn in fns]
    calls = []
    column = gridfn._csv_column

    def spy(a):
        calls.append(a)
        return column(a)

    monkeypatch.setattr(gridfn, "_csv_column", spy)
    texts = csv_texts(fns)
    # each text is made when it is asked for
    assert next(texts) == expected[0] and len(calls) == 1
    assert list(texts) == expected[1:]
    # r once for the first three functions, its copy, then 2r
    assert len(calls) == 3
    assert calls[0] is r and calls[1] is fns[3].grid
    assert np.array_equal(calls[2], 2.0 * r)
