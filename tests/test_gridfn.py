import numpy as np
import pytest

from cuspbc.errors import DomainError
from cuspbc.gridfn import RadialFunction


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


def test_csv_bytes_match_the_row_format():
    # the row-at-a-time f-string form, on subnormals, the smallest normal,
    # signed zero and reprs in exponent form
    r = np.array([5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1.0 / 3.0,
                  1e16])
    v = np.array([-0.0, 1e-300, -5e-324, 1e16, 2.5e-310, -1.0 / 3.0])
    for fn in (RadialFunction(r, v, 2, "u"), RadialFunction(r, v)):
        rows = "".join(f"{float(a)!r},{float(b)!r},{fn.ell},{fn.meaning}\n"
                       for a, b in zip(fn.grid, fn.values))
        assert fn.to_csv() == "r,value,ell,meaning\n" + rows
