import argparse
import json
import math
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cuspbc import cli, gridfn, radial
from cuspbc.cli import _write_text, main, parse_pair
from cuspbc.cusp import CoalescencePair, LocalWavefunction, local_u
from cuspbc.errors import InputError
from cuspbc.hfr import HFROrbital

from test_gridfn import EDGE_GRID, EDGE_VALUES
from test_hfr import HE_ORBITAL_ENERGY, HE_TERMS

DATA = Path(__file__).resolve().parents[1] / "data"


def _write_he_orbital(tmp_path):
    path = tmp_path / "he_1s.hfr"
    lines = ["# He 1s ground-state HFR orbital (Koga et al. exponents)"]
    lines += [f"{n} {z!r} {c!r}" for n, z, c in HE_TERMS]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _parse_kv(out):
    vals = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, val = line.partition(" = ")
            vals[key.strip()] = val.strip()
    return vals


def test_parse_pair_specs():
    assert parse_pair(["e-e", "singlet"]).spin_channel == "singlet"
    p = parse_pair(["e-nucleus", "Z=2", "A=4"])
    assert p.q2 == 2.0 and math.isfinite(p.m2)
    assert math.isinf(parse_pair(["e-nucleus", "Z=2"]).m2)
    with pytest.raises(InputError):
        parse_pair(["e-e", "doublet"])
    with pytest.raises(InputError):
        parse_pair(["e-nucleus", "Q=2"])


def test_cmd_cusp_ee_singlet(capsys):
    assert main(["cusp", "e-e", "singlet", "--ell", "0"]) == 0
    vals = _parse_kv(capsys.readouterr().out)
    assert float(vals["a"]) == 0.5


def test_cmd_cusp_hydrogen(capsys):
    assert main(["cusp", "e-nucleus", "Z=1",
                 "--ell", "0", "--w0", "0", "--e", "-0.5"]) == 0
    vals = _parse_kv(capsys.readouterr().out)
    assert float(vals["a"]) == -1.0
    assert float(vals["b"]) == 0.5


def test_cmd_cusp_finite_mass(capsys):
    assert main(["cusp", "e-nucleus", "Z=1", "A=1", "--ell", "0"]) == 0
    vals = _parse_kv(capsys.readouterr().out)
    assert float(vals["a"]) == pytest.approx(-0.9994557, abs=1e-7)


def test_cmd_cusp_bad_pair_exit_code(capsys):
    assert main(["cusp", "e-mu", "singlet"]) == 2


def test_cmd_cusp_negative_order_is_an_input_error(capsys):
    # order -1 would print no a_k line at all: it is refused instead
    assert main(["cusp", "e-nucleus", "Z=1", "--order", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cuspbc: input error: --order")
    assert main(["cusp", "e-nucleus", "Z=1", "--order", "0"]) == 0
    assert "a_0 = 1.0\n" in capsys.readouterr().out


def test_cmd_local_hydrogen(tmp_path, capsys):
    out = tmp_path / "local.csv"
    rc = main(["local", "e-nucleus", "Z=1", "--ell", "0", "--e", "-0.5",
               "--u0", "2.0", "--r-max", "5", "--n", "51",
               "--output", str(out)])
    assert rc == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = rows[0].split(",")
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    r = data[:, header.index("r")]
    u = data[:, header.index("u")]
    assert u[0] == 2.0  # value at r = 0 equals u0
    assert np.allclose(u, 2.0 * np.exp(-r), rtol=1e-12)


def test_cmd_local_metadata_r_star(tmp_path):
    out = tmp_path / "local.csv"
    main(["local", "e-nucleus", "Z=2", "--e", "-2.5", "--w0", "1.6876",
          "--output", str(out)])
    meta = dict(line[2:].split("=", 1)
                for line in out.read_text().splitlines()
                if line.startswith("# "))
    assert float(meta["r_star"]) == pytest.approx(2.0 / 1.6876, rel=1e-12)
    # u, R and the density do not depend on m: no m is taken or written
    assert list(meta) == ["ell", "w0", "e", "u0", "alpha", "beta", "r_star",
                          "r0"]


def test_cmd_local_regime_error_exit_code():
    assert main(["local", "e-nucleus", "Z=1", "--e", "0.5"]) == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("flags", [["--r-max", "200"],
                                   ["--ell", "20", "--r-max", "300"]])
def test_cmd_local_overflow_writes_nothing(tmp_path, capsys, fmt, flags):
    # u is finite, but the density (r = 200) or R itself (r^20 u at
    # r = 300) is not: exit 3 before any output, and no RuntimeWarning
    argv = ["local", "e-nucleus", "Z=2", "--e", "-0.9179556", "--w0",
            "1.6875", "--n", "5", "--format", fmt] + flags
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
        assert main(argv + ["--output", str(out)]) == 3
    assert capsys.readouterr() == ("", 2 * (
        "cuspbc: numerical failure: R or the density leaves the double "
        "range\n"))
    assert not out.exists()


def test_cmd_compare_he_failures_are_typed(tmp_path, capsys):
    # Z = 0 has no cusp radius 1/|a|: an input error, not a
    # ZeroDivisionError; an orbital of 1e152 overflows the densities: a
    # numerical failure that says so, with no RuntimeWarning and no output
    he = str(_write_he_orbital(tmp_path))
    big = tmp_path / "big.hfr"
    big.write_text("1 1.6875 1e152\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare-he", he, "--e", "-2.0", "--z", "0"]) == 2
        assert main(["compare-he", str(big), "--e", repr(HE_ORBITAL_ENERGY),
                     "--output", str(out)]) == 3
    assert capsys.readouterr() == ("", (
        "cuspbc: input error: --r0-kind cusp needs a nonzero cusp "
        "coefficient, so Z != 0\n"
        "cuspbc: numerical failure: the orbital or Kummer density leaves "
        "the double range\n"))
    assert not out.exists()


def test_cmd_local_csv_json_content_identical(tmp_path):
    args = ["local", "e-nucleus", "Z=1", "--e", "-0.5", "--n", "21"]
    csv_path = tmp_path / "o.csv"
    json_path = tmp_path / "o.json"
    main(args + ["--output", str(csv_path)])
    main(args + ["--format", "json", "--output", str(json_path)])
    doc = json.loads(json_path.read_text())
    rows = [l for l in csv_path.read_text().splitlines()
            if not l.startswith("#")][1:]
    csv_vals = [[float(x) for x in row.split(",")] for row in rows]
    assert csv_vals == doc["rows"]


def test_cmd_solve_both_methods(tmp_path, capsys):
    spec = {"ell": 0, "mass": 1.0, "pair_product": -1.0, "w0": 0.0,
            "grid": {"r_min": 1e-5, "r_max": 40.0, "n": 1200},
            "asymptotics": {"total_reduced_mass": 1.0, "total_charge": 0.0},
            "bracket": [-0.6, -0.4]}
    path = tmp_path / "hydrogen.json"
    path.write_text(json.dumps(spec))
    rc = main(["solve", str(path), "--method", "both", "-k", "3",
               "--output", str(tmp_path / "fn")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    e_matrix = report["matrix"]["states"][0]["energy"]
    e_shoot = report["shoot"]["states"][0]["energy"]
    assert e_matrix == pytest.approx(-0.5, abs=1e-6)
    assert e_shoot == pytest.approx(-0.5, abs=1e-8)
    st = report["matrix"]["states"][0]
    assert st["cusp_limit"] == pytest.approx(st["cusp_target"], abs=1e-4)
    assert (tmp_path / "fn.matrix.0.csv").exists()
    assert (tmp_path / "fn.shoot.csv").exists()
    for method in ("matrix", "shoot"):
        assert 0.0 < report[method]["seconds"] < math.inf


def test_cmd_solve_no_sign_change_exit_code(tmp_path):
    spec = {"ell": 0, "pair_product": -1.0,
            "grid": {"n": 400}, "bracket": [-0.9, -0.7]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["solve", str(path), "--method", "shoot"]) == 3


def test_cmd_solve_k_beyond_the_mesh_exit_code(tmp_path, capsys):
    # 400 nodes with Robin ends are 400 unknowns, of which the r_max = 40
    # box holds only a few bound states
    spec = {"ell": 0, "pair_product": -1.0, "grid": {"n": 400}}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(spec))
    assert main(["solve", str(path), "-k", "401"]) == 2
    assert "400 unknowns" in capsys.readouterr().err
    assert main(["solve", str(path), "-k", "400"]) == 2
    assert "states of the mesh below" in capsys.readouterr().err


def test_cmd_solve_k_beyond_the_bound_states_names_them(tmp_path, capsys):
    # the search for states stops below E = 0, where the r_max = 40 box
    # holds 6 bound states on 400 nodes: the message names that edge, not
    # the last trial energy halved towards it
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"ell": 0, "pair_product": -1.0,
                                "grid": {"n": 400}}))
    assert main(["solve", str(path), "-k", "10"]) == 2
    assert capsys.readouterr().err == (
        "cuspbc: input error: k = 10 exceeds the 6 states of the mesh "
        "below E = 0, the bound states the box holds\n")


@pytest.mark.parametrize("n, k", [(400, 10), (16000, 60)])
def test_k_beyond_the_bound_states_is_found_in_few_counts(monkeypatch, n, k):
    # the count never falls with E, so one count where the halving towards
    # E = 0 would stop decides it: no walk of counts up to that energy
    calls = []
    branches, start = radial._Numerov.branches, radial._Numerov.start

    def counting(self, e):
        calls.append(e)
        return branches(self, e)

    def starting(self):
        pts = start(self)
        calls.clear()
        return pts

    monkeypatch.setattr(radial._Numerov, "branches", counting)
    monkeypatch.setattr(radial._Numerov, "start", starting)
    problem = radial.RadialProblem(0, 1.0, -1.0, 0.0,
                                   radial.log_grid(1e-5, 40.0, n))
    with pytest.raises(InputError, match=f"k = {k} exceeds the 6 states of "
                       "the mesh below E = 0, the bound states the box"):
        radial.solve_matrix_selfconsistent(
            problem, radial.robin_inner(0, -1.0), 1.0, 0.0, k)
    assert 1 <= len(calls) <= 3


@pytest.mark.parametrize("n", [2000, 4800])
def test_cmd_solve_matrix_states_meet_the_outer_condition(tmp_path, capsys,
                                                           n):
    # every state's R'/R at r_max, read off its function, is the
    # kappa(r_max; E) of its own energy
    spec = {"ell": 0, "pair_product": -1.0,
            "grid": {"r_min": 1e-5, "r_max": 40.0, "n": n}}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(spec))
    assert main(["solve", str(path), "-k", "3"]) == 0
    for st in json.loads(capsys.readouterr().out)["matrix"]["states"]:
        assert abs(st["outer_logder"] - st["outer_target"]) <= 1e-5


def test_cmd_solve_large_box(tmp_path, capsys):
    # hydrogen in an r_max = 400 box on 16,000 nodes: its inward branches
    # pass 1e154, and the states splice without overflow or warning
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"ell": 0, "pair_product": -1.0,
                                "grid": {"r_max": 400.0, "n": 16000}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(path), "-k", "3"]) == 0
    states = json.loads(capsys.readouterr().out)["matrix"]["states"]
    assert [st["energy"] for st in states] == pytest.approx(
        [-0.5, -0.125, -1.0 / 18.0], abs=1e-10)


@pytest.mark.parametrize("method", ["matrix", "shoot"])
def test_cmd_solve_guards_r_max_at_the_energy_found(tmp_path, capsys, method):
    # E = -0.5 needs r_max >= 20/decay = 20; the bracket's lower end
    # (decay 1.1) would pass 19
    for r_max, code in ((19.0, 2), (20.02, 0)):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({
            "ell": 0, "pair_product": -1.0,
            "grid": {"n": 2000, "r_max": r_max}, "bracket": [-0.6, -0.4]}))
        assert main(["solve", str(path), "--method", method]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and "too small; need >= 20" in err
        else:
            (state,) = json.loads(out)[method]["states"]
            assert state["energy"] == pytest.approx(-0.5, abs=1e-6)


@pytest.mark.parametrize("spec, table", [
    ([{"ell": 0, "pair_product": -1.0}], None),
    ({"ell": 0, "pair_product": -1.0, "grid": [1e-5, 40.0]}, None),
    ({"ell": 0, "pair_product": -1.0}, "0.0\n1.0\n2.0\n"),
    ({"ell": 0, "pair_product": -1.0}, "0.0 0.1\n"),
    ({"ell": 0, "pair_product": -1.0}, "2.0 0.0\n1.0 0.1\n0.0 0.2\n"),
    ({"ell": 0, "pair_product": -1.0, "bracket": -0.5}, None),
    ({"ell": 0, "pair_product": -1.0, "bracket": [-0.6, -0.5, -0.4]}, None),
    ({"ell": 0, "pair_product": -1.0, "bracket": ["-0.6", "-0.4"]}, None),
    ({"ell": 0, "pair_product": -1.0}, ""),
    # a table that starts at r = 1, inside the grid's r_min = 1e-5
    ({"ell": 0, "pair_product": -1.0}, "1.0 -0.7\n40.0 0.0\n"),
    # a NaN radius, which neither difference next to it marks as falling
    ({"ell": 0, "pair_product": -1.0}, "0.0 0.0\nnan 0.1\n40.0 0.0\n"),
    # asymptotics that are not numbers
    ({"ell": 0, "pair_product": -1.0, "bracket": [-0.6, -0.4],
      "asymptotics": {"total_reduced_mass": "x"}}, None),
    ({"ell": 0, "pair_product": -1.0, "bracket": [-0.6, -0.4],
      "asymptotics": {"total_charge": None}}, None),
])
def test_cmd_solve_malformed_spec_exit_code(tmp_path, capsys, spec, table):
    if table is not None:
        (tmp_path / "extra.txt").write_text(table)
        spec["extra_potential"] = str(tmp_path / "extra.txt")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    # the input error is the only report: no warning is issued before it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", str(path), "--method", "shoot"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cuspbc: input error: problem spec")
    assert err.count("\n") == 1 and caught == []


def test_cmd_solve_shoot_without_a_bracket_exit_code(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"ell": 0, "pair_product": -1.0,
                                "grid": {"n": 400}}))
    assert main(["solve", str(path), "--method", "shoot"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("cuspbc: input error: shooting needs a "
                                 "'bracket' entry in the spec\n")


def _quiet_main(argv, capsys):
    """main(argv) with warnings as errors: (exit code, stdout, stderr)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    return (rc, *capsys.readouterr())


def test_cmd_solve_boolean_ell_is_an_input_error(tmp_path, capsys):
    # JSON's true is no angular momentum, although Python counts a bool as
    # an integer
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"ell": True, "pair_product": -1,
                                "bracket": [-0.6, -0.4]}))
    rc, out, err = _quiet_main(["solve", str(path), "--method", "both"],
                               capsys)
    assert (rc, out) == (2, "")
    assert err == (f"cuspbc: input error: problem spec {path}: ell must be "
                   f"a non-negative integer, got True\n")


@pytest.mark.parametrize("entry, field, value", [
    ({"w0": True}, "w0", True),
    ({"mass": True}, "mass", True),
    ({"asymptotics": {"total_charge": False}}, "total_charge", False)],
    ids=["w0", "mass", "total-charge"])
def test_cmd_solve_boolean_real_is_an_input_error(tmp_path, capsys, entry,
                                                  field, value):
    # JSON's true is no W0, mass or charge of 1, although Python counts a
    # bool as a number; the one line names the file and the field
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"ell": 0, "pair_product": -1.0, **entry}))
    rc, out, err = _quiet_main(["solve", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err == (f"cuspbc: input error: problem spec {path}: {field} must "
                   f"be finite, got {value}\n")


def test_cmd_env_boolean_charge_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "env.json"
    path.write_text(json.dumps({"charges": [{"q": True,
                                             "position": [0.0, 0.0, 2.0]}]}))
    rc, out, err = _quiet_main(["env", str(path), "e-e", "singlet"], capsys)
    assert (rc, out) == (2, "")
    assert err == (f"cuspbc: input error: environment file {path}: q must "
                   f"be finite, got True\n")


def test_cmd_solve_at_the_stability_floor_warns_nothing(tmp_path, capsys):
    # q1 q2 = 1e300 puts the stability floor, the first energy counted,
    # near 1e305, where E b leaves the double range: the tail's outer row
    # refuses E >= 0 before any array arithmetic
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"ell": 2, "pair_product": 1e300}))
    rc, out, err = _quiet_main(["solve", str(path), "--method", "matrix"],
                               capsys)
    assert (rc, out) == (2, "")
    assert err == ("cuspbc: input error: asymptotic tail requires a bound "
                   "state (E < 0)\n")


def test_cmd_cusp_never_prints_an_overflowed_coefficient(capsys):
    # Z = 1e300: a = -1e300 is a double, b and a_2 are not
    rc, out, err = _quiet_main(["cusp", "e-nucleus", "Z=1e300", "--ell", "0",
                                "--order", "2"], capsys)
    assert (rc, out) == (3, "")
    assert err == ("cuspbc: numerical failure: cusp coefficient b = inf "
                   "leaves the double range\n")


def test_infinite_r_max_is_an_input_error(tmp_path, capsys):
    # refused before np.linspace(0, inf) warns of inf * 0
    orbital = str(_write_he_orbital(tmp_path))
    for argv in (["local", "e-nucleus", "Z=2", "--ell", "0", "--e", "-2"],
                 ["compare-he", orbital, "--e", repr(HE_ORBITAL_ENERGY)]):
        rc, out, err = _quiet_main(argv + ["--r-max", "inf"], capsys)
        assert (rc, out) == (2, "")
        assert err == "cuspbc: input error: --r-max must be finite, got inf\n"


def test_cmd_basis_end_to_end(tmp_path, capsys):
    out = tmp_path / "basis.txt"
    rc = main(["basis", "slater", "e-nucleus", "Z=1",
               "--ell", "0", "--e", "-0.5", "--tail", "1.2,0.8",
               "--output", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    vals = _parse_kv(err)
    assert float(vals["a_est"]) == -1.0
    assert float(vals["b_est"]) == 0.5
    text = out.read_text()
    assert text.startswith("# cuspbc-basis kind=slater")
    assert sum(1 for l in text.splitlines() if l.startswith("S ")) == 4


def test_cmd_env_report(tmp_path, capsys):
    env = {"charges": [{"q": 2.0, "position": [0.0, 0.0, 3.0]}]}
    path = tmp_path / "env.json"
    path.write_text(json.dumps(env))
    rc = main(["env", str(path), "e-e", "singlet",
               "--lam-max", "6", "--probes", "1.0"])
    assert rc == 0
    vals = _parse_kv(capsys.readouterr().out)
    assert float(vals["w0"]) == pytest.approx(-2.0 * 2.0 / 3.0, rel=1e-14)
    assert vals["odd_terms_exactly_zero"] == "True"
    assert float(vals["odd_audit[3]"]) == 0.0
    assert float(vals["average_residual[1.0]"]) < 1e-10


def test_cmd_env_computes_each_multipole_term_once(tmp_path, capsys,
                                                  monkeypatch):
    # the odd-lambda audit reads the printed coefficients: lam_max + 1
    # multipole terms in all, and the report's text is unchanged
    path = tmp_path / "env.json"
    path.write_text(json.dumps(
        {"charges": [{"q": 2.0, "position": [0.0, 0.0, 3.0]}]}))
    calls = []
    term = cli.env_mod.multipole_term
    monkeypatch.setattr(cli.env_mod, "multipole_term",
                        lambda *a: calls.append(a[2]) or term(*a))
    assert main(["env", str(path), "e-e", "singlet",
                 "--lam-max", "6", "--probes", "1.0"]) == 0
    assert calls == list(range(7))
    assert capsys.readouterr().out == (
        "w0 = -1.3333333333333333\n"
        "multipole_coeff[0] = -1.3333333333333333\n"
        "multipole_coeff[1] = 0.0\n"
        "multipole_coeff[2] = -0.019324752439166863\n"
        "multipole_coeff[3] = 0.0\n"
        "multipole_coeff[4] = 0.00015370410484841365\n"
        "multipole_coeff[5] = 0.0\n"
        "multipole_coeff[6] = 1.1833912378149277e-05\n"
        "odd_audit[1] = 0.0\n"
        "odd_audit[3] = 0.0\n"
        "odd_audit[5] = 0.0\n"
        "odd_terms_exactly_zero = True\n"
        "average_residual[1.0] = 0.0\n")


def test_cmd_env_probe_past_the_nearest_charge(tmp_path, capsys):
    # q = 2 at z = 3 and an e-e pair at r = 8: each electron sits f r = 4
    # from the centre, past the charge, so by the shell theorem the average
    # is 2 (-1/4 - 1/4) = -1 against w0 = -2 * 2/3, a residual of 1/3
    path = tmp_path / "env.json"
    path.write_text(json.dumps(
        {"charges": [{"q": 2.0, "position": [0.0, 0.0, 3.0]}]}))
    assert main(["env", str(path), "e-e", "singlet", "--probes", "8"]) == 0
    vals = _parse_kv(capsys.readouterr().out)
    assert float(vals["w0"]) == pytest.approx(-4.0 / 3.0, rel=1e-15)
    assert float(vals["average_residual[8.0]"]) == pytest.approx(
        1.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("flags", [
    ["--theta", "nan"], ["--phi", "inf"], ["--probes=-1,nan"],
    ["--probes=0.5,-1"], ["--lam-max", "-1"]])
def test_cmd_env_rejects_invalid_inputs(tmp_path, capsys, flags):
    path = tmp_path / "env.json"
    path.write_text(json.dumps(
        {"charges": [{"q": 2.0, "position": [0.0, 0.0, 3.0]}]}))
    assert main(["env", str(path), "e-nucleus", "Z=2"] + flags) == 2
    out, err = capsys.readouterr()
    assert "nan" not in out and "odd_terms_exactly_zero" not in out
    assert err.startswith("cuspbc: input error:")


def test_cmd_solve_grid_of_no_points_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"ell": 0, "pair_product": -1.0,
                                "grid": {"n": 0}}))
    assert main(["solve", str(path), "--method", "matrix"]) == 2
    assert capsys.readouterr().err.startswith("cuspbc: input error:")


def test_cmd_compare_he_bands_and_determinism(tmp_path):
    orbital = _write_he_orbital(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["compare-he", str(orbital), "--e", repr(HE_ORBITAL_ENERGY),
            "--energy-kind", "orbital", "--r0-kind", "mean-inv-r"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta = dict(line[2:].split("=", 1)
                for line in out1.read_text().splitlines()
                if line.startswith("# "))
    assert 0.038 <= float(meta["rel_error_r0"]) <= 0.078
    assert 0.001 <= float(meta["rel_error_r0_half"]) <= 0.010
    assert float(meta["w0"]) == pytest.approx(1.6876, abs=0.01)


def test_cmd_compare_he_writes_no_nan(tmp_path):
    # rel_error is |psi_k^2 - psi_h^2| / psi_h^2: the r^2 of both densities
    # cancels, so the r = 0 row holds a number, not 0/0
    orbital = _write_he_orbital(tmp_path)
    args = ["compare-he", str(orbital), "--e", repr(HE_ORBITAL_ENERGY)]
    csv_path, json_path = tmp_path / "n.csv", tmp_path / "n.json"
    assert main(args + ["--output", str(csv_path)]) == 0
    assert main(args + ["--format", "json", "--output", str(json_path)]) == 0
    text = csv_path.read_text()
    assert "nan" not in text and "inf" not in text
    doc = json.loads(json_path.read_text())
    values = [v for v in doc["meta"].values() if isinstance(v, float)]
    values += [v for row in doc["rows"] for v in row]
    assert np.all(np.isfinite(values))
    header = doc["columns"]
    first = dict(zip(header, doc["rows"][0]))
    assert first["r"] == 0.0
    assert first["rel_error"] == pytest.approx(
        abs(first["psi_kummer"] ** 2 - first["psi_hfr"] ** 2)
        / first["psi_hfr"] ** 2, rel=1e-12)


def test_cmd_compare_he_default_r0_convention(tmp_path):
    orbital = _write_he_orbital(tmp_path)
    out = tmp_path / "c.csv"
    main(["compare-he", str(orbital), "--e", repr(HE_ORBITAL_ENERGY),
          "--energy-kind", "orbital", "--output", str(out)])
    meta = dict(line[2:].split("=", 1)
                for line in out.read_text().splitlines()
                if line.startswith("# "))
    # r0 = 1/(M Z) for the electron-nucleus cusp convention
    assert float(meta["r0"]) == 0.5


def test_cmd_compare_he_a_mass_selects_finite_nucleus(tmp_path):
    orbital = _write_he_orbital(tmp_path)
    metas = []
    for extra in ([], ["--a-mass", "4"]):
        out = tmp_path / f"m{len(extra)}.json"
        assert main(["compare-he", str(orbital), "--e",
                     repr(HE_ORBITAL_ENERGY), "--format", "json",
                     "--output", str(out)] + extra) == 0
        metas.append(json.loads(out.read_text())["meta"])
    fixed, finite = metas
    # the finite nucleus lowers the reduced mass below 1, and beta with it
    assert finite["beta"] < fixed["beta"]
    assert finite["beta"] == pytest.approx(fixed["beta"], rel=1e-3)


@pytest.mark.parametrize("r0_kind", ["cusp", "mean-inv-r"])
def test_cmd_compare_he_errors_at_r0_are_the_formula(tmp_path, r0_kind):
    # rel_error_r0 and rel_error_r0_half are |psi_k^2 - psi_h^2| / psi_h^2
    # at r0 and r0/2, psi_k = u0 u(r), to the bit, although they come from
    # the table's evaluation with the two radii appended
    orbital = _write_he_orbital(tmp_path)
    out = tmp_path / "e.json"
    assert main(["compare-he", str(orbital), "--e", repr(HE_ORBITAL_ENERGY),
                 "--r0-kind", r0_kind, "--a-mass", "4", "--format", "json",
                 "--output", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]
    pair = CoalescencePair.electron_nucleus(2.0, 4.0)
    lw = LocalWavefunction.from_pair(pair, 0, 0, meta["w0"],
                                     HE_ORBITAL_ENERGY)
    hfr = HFROrbital.from_file(orbital)
    for key, r in (("rel_error_r0", meta["r0"]),
                   ("rel_error_r0_half", meta["r0"] / 2.0)):
        psi_k, psi_h = meta["u0"] * local_u(lw, r), hfr.radial(r)
        assert meta[key] == float(abs(psi_k ** 2 - psi_h ** 2) / psi_h ** 2)


def test_cmd_compare_he_evaluates_each_function_once(tmp_path, monkeypatch):
    # the table's radii and r0, r0/2 go through local_u and the orbital
    # in one call each
    calls = {"local_u": 0, "radial": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "local_u", counted("local_u", cli.local_u))
    monkeypatch.setattr(HFROrbital, "radial",
                        counted("radial", HFROrbital.radial))
    orbital = _write_he_orbital(tmp_path)
    assert main(["compare-he", str(orbital), "--e", repr(HE_ORBITAL_ENERGY),
                 "--output", str(tmp_path / "o.csv")]) == 0
    assert calls == {"local_u": 1, "radial": 1}


def test_cmd_compare_he_regime_error(tmp_path):
    orbital = _write_he_orbital(tmp_path)
    assert main(["compare-he", str(orbital), "--e", "5.0"]) == 2


def test_cmd_compare_he_compact_orbital_exit_code(tmp_path, capsys):
    # the normalisation (2 zeta)^(2n+1) overflows as written; in log form
    # the orbital is finite, but its density underflows long before r_max
    path = tmp_path / "compact.hfr"
    path.write_text("60 1000.0 1.0\n")
    rc = main(["compare-he", str(path), "--e", repr(HE_ORBITAL_ENERGY)])
    assert rc in (2, 3)
    assert "double range" in capsys.readouterr().err


def test_cmd_compare_he_orbital_of_vanishing_norm_exit_code(tmp_path, capsys):
    # <1/r> of an orbital whose norm underflows has no value: a numerical
    # failure, not a ZeroDivisionError
    path = tmp_path / "tiny.hfr"
    path.write_text("1 1.0 1e-200\n")
    assert main(["compare-he", str(path), "--e", "-0.9"]) == 3
    assert "norm" in capsys.readouterr().err


def test_missing_file_exit_code():
    assert main(["compare-he", "/nonexistent/orbital.hfr", "--e", "-1.0"]) == 2


def test_cmd_env_bad_probe_exit_code(tmp_path, capsys):
    path = tmp_path / "env.json"
    path.write_text(json.dumps({"charges": [{"q": 1.0,
                                             "position": [0.0, 0.0, 2.0]}]}))
    assert main(["env", str(path), "e-e", "singlet",
                 "--probes", "0.1,abc"]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # rejected before any report line
    assert "--probes" in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [["--probes=-1"], ["--probes=0.1,nan"],
                                   ["--theta", "nan", "--probes", "0.1"]])
def test_cmd_env_invalid_input_prints_no_partial_report(tmp_path, capsys,
                                                        flags):
    # identical particles: a report would open with w0, the multipole
    # coefficients and the odd audit, none of which may precede the error
    path = tmp_path / "env.json"
    path.write_text(json.dumps({"charges": [{"q": 1.0,
                                             "position": [0.0, 0.0, 2.0]}]}))
    assert main(["env", str(path), "e-e", "singlet"] + flags) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cuspbc: input error:")


@pytest.mark.parametrize("doc", [
    [1],
    {"charges": [{"q": "x", "position": [0.0, 0.0, 2.0]}]},
    {"charges": [{"q": 1.0, "position": 5}]},
])
def test_cmd_env_malformed_file_exit_code(tmp_path, capsys, doc):
    path = tmp_path / "env.json"
    path.write_text(json.dumps(doc))
    assert main(["env", str(path), "e-e", "singlet", "--probes", "0.1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cuspbc: input error: environment")


def test_cmd_env_no_spectators(tmp_path, capsys):
    path = tmp_path / "env.json"
    path.write_text(json.dumps({"charges": []}))
    assert main(["env", str(path), "e-e", "singlet", "--probes", "0.1"]) == 0
    vals = _parse_kv(capsys.readouterr().out)
    assert float(vals["w0"]) == 0.0
    assert float(vals["average_residual[0.1]"]) == 0.0


def test_cmd_basis_bad_tail_exit_code(capsys):
    assert main(["basis", "slater", "e-nucleus", "Z=1",
                 "--tail", "1.0,x"]) == 2
    err = capsys.readouterr().err
    assert "--tail" in err and "Traceback" not in err


@pytest.mark.parametrize("n", ["-1", "0"])
@pytest.mark.parametrize("command", ["local", "compare-he"])
def test_radii_count_below_one_exit_code(tmp_path, capsys, command, n):
    if command == "local":
        argv = ["local", "e-nucleus", "Z=1", "--e", "-0.5"]
    else:
        argv = ["compare-he", str(_write_he_orbital(tmp_path)),
                "--e", repr(HE_ORBITAL_ENERGY)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--n", n]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err == f"cuspbc: input error: --n must be at least 1, got {n}\n"


LOCAL = ["local", "e-nucleus", "Z=1", "--e", "-0.5", "--n", "41"]


def _fresh_and_rewritten(tmp_path, argv, name):
    """Bytes that `argv --output` writes to a fresh path; a rewrite over a
    longer existing file must leave exactly the same bytes."""
    fresh, old = tmp_path / f"{name}.fresh", tmp_path / f"{name}.old"
    assert main(argv + ["--output", str(fresh)]) == 0
    data = fresh.read_bytes()
    old.write_bytes(b"#" * (2 * len(data) + 100))
    assert main(argv + ["--output", str(old)]) == 0
    assert old.read_bytes() == data
    return data


def test_write_text_overwrites_a_longer_file_exactly(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"x" * 10_000)
    _write_text(str(path), ["ψ = 1\n".encode("utf-8")])
    assert path.read_bytes() == "ψ = 1\n".encode("utf-8")
    # byte blocks, written one after another, directly and through a
    # symlink
    blocks = [b"r,value\n", b"", b"0.5,1.0\n" * 300, b"1.0,2.0\n"]
    sym = tmp_path / "sym.txt"
    sym.symlink_to(path)
    for target in (path, sym):
        path.write_bytes(b"x" * 10_000)
        _write_text(str(target), iter(blocks))
        assert path.read_bytes() == b"".join(blocks)
    assert sym.is_symlink()


def test_a_refused_state_leaves_its_file_untouched(tmp_path, monkeypatch):
    # state 1's values are complex: its CSV is refused before the file is
    # opened, after state 0's is written
    solve = radial.solve_matrix_selfconsistent

    def complex_second(*args):
        pairs = solve(*args)
        e, fn = pairs[1]
        pairs[1] = e, gridfn.RadialFunction(fn.grid, fn.values + 0j, fn.ell,
                                            fn.meaning)
        return pairs

    prefix = tmp_path / "out"
    argv = ["solve", _solve_spec(tmp_path, None), "-k", "3"]
    assert main(argv + ["--output", str(tmp_path / "ref")]) == 0
    old = b"#" * 100_000
    for i in range(3):
        Path(f"{prefix}.matrix.{i}.csv").write_bytes(old)
    monkeypatch.setattr(radial, "solve_matrix_selfconsistent", complex_second)
    with pytest.raises(TypeError):
        main(argv + ["--output", str(prefix)])
    assert (Path(f"{prefix}.matrix.0.csv").read_bytes()
            == (tmp_path / "ref.matrix.0.csv").read_bytes())
    for i in (1, 2):
        assert Path(f"{prefix}.matrix.{i}.csv").read_bytes() == old


def test_output_rewrite_keeps_inode_mode_and_links(tmp_path):
    out, link = tmp_path / "o.csv", tmp_path / "link.csv"
    out.write_bytes(b"x" * 100_000)
    out.chmod(0o640)
    os.link(out, link)
    before = out.stat()
    assert main(LOCAL + ["--output", str(out)]) == 0
    after = out.stat()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert after.st_nlink == 2
    assert link.read_bytes() == out.read_bytes()
    assert out.read_bytes().startswith(b"# ell=0")


def test_output_through_a_symlink_writes_its_target(tmp_path):
    data = _fresh_and_rewritten(tmp_path, LOCAL, "ref")
    target, sym = tmp_path / "target.csv", tmp_path / "sym.csv"
    target.write_bytes(b"x" * 100_000)
    sym.symlink_to(target)
    assert main(LOCAL + ["--output", str(sym)]) == 0
    assert sym.is_symlink() and sym.resolve() == target.resolve()
    assert target.read_bytes() == data


def test_output_to_the_null_device():
    assert main(LOCAL + ["--output", os.devnull]) == 0


def test_output_to_a_directory_exit_code(tmp_path, capsys):
    assert main(LOCAL + ["--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cuspbc: ") and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["local", "compare-he"])
def test_tabular_output_bytes_identical(tmp_path, capsys, command, fmt):
    if command == "local":
        argv = LOCAL
    else:
        argv = ["compare-he", str(_write_he_orbital(tmp_path)),
                "--e", repr(HE_ORBITAL_ENERGY), "--n", "61"]
    argv = argv + ["--format", fmt]
    data = _fresh_and_rewritten(tmp_path, argv, "out")
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == data


def test_basis_output_bytes_identical(tmp_path, capsys):
    argv = ["basis", "gaussian", "e-nucleus", "Z=2", "--e", "-0.9",
            "--tail", "1.0,1.5"]
    data = _fresh_and_rewritten(tmp_path, argv, "basis")
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == data


def test_solve_output_bytes_identical(tmp_path, monkeypatch):
    spec = {"ell": 0, "pair_product": -1.0, "grid": {"n": 600},
            "bracket": [-0.6, -0.4]}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(spec))
    returned = []

    def spy(name):
        real = getattr(radial, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            returned.append(out)
            return out
        monkeypatch.setattr(radial, name, wrapper)

    spy("solve_matrix_selfconsistent")
    spy("solve_shooting")
    names = ["matrix.0.csv", "matrix.1.csv", "matrix.2.csv", "shoot.csv"]
    argv = ["solve", str(path), "--method", "both", "-k", "3"]
    assert main(argv + ["--output", str(tmp_path / "fresh")]) == 0
    for name in names:
        (tmp_path / f"old.{name}").write_bytes(b"#" * 100_000)
    assert main(argv + ["--output", str(tmp_path / "old")]) == 0
    for run, prefix in enumerate(("fresh", "old")):
        matrix, (_, shoot) = returned[2 * run:2 * run + 2]
        expected = [fn.to_csv() for _, fn in matrix] + [shoot.to_csv()]
        for name, text in zip(names, expected):
            data = (tmp_path / f"{prefix}.{name}").read_bytes()
            assert data == text.encode("utf-8")
            assert data == (tmp_path / f"fresh.{name}").read_bytes()


def _solve_spec(tmp_path, bracket):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"ell": 0, "pair_product": -1.0,
                                "grid": {"n": 600}, "bracket": bracket}))
    return str(path)


def test_solve_k3_formats_the_grid_once(tmp_path, monkeypatch):
    calls = []
    column = gridfn._column

    def spy(a):
        calls.append(a)
        return column(a)

    monkeypatch.setattr(gridfn, "_column", spy)
    assert main(["solve", _solve_spec(tmp_path, None), "-k", "3",
                 "--output", str(tmp_path / "out")]) == 0
    assert len(calls) == 1 and len(calls[0]) == 600
    assert sorted(p.name for p in tmp_path.glob("out.*")) == [
        f"out.matrix.{i}.csv" for i in range(3)]


def test_solve_reports_write_seconds_with_output(tmp_path, capsys):
    # the time each route spends formatting and writing its CSV files
    argv = ["solve", _solve_spec(tmp_path, [-0.6, -0.4]), "--method", "both",
            "-k", "2"]
    assert main(argv + ["--output", str(tmp_path / "out")]) == 0
    written = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    bare = json.loads(capsys.readouterr().out)
    for method in ("matrix", "shoot"):
        assert 0.0 < written[method]["write_seconds"] < math.inf
        assert "write_seconds" not in bare[method]


def test_solve_writes_matrix_states_before_shooting(tmp_path, capsys):
    # no state between -0.4 and -0.2: shooting fails after the matrix
    # solve, whose k files are already on disk
    prefix = tmp_path / "out"
    argv = ["solve", _solve_spec(tmp_path, [-0.4, -0.2]), "-k", "3"]
    assert main(argv + ["--method", "both", "--output", str(prefix)]) == 3
    assert "holds 0, not one" in capsys.readouterr().err
    assert main(argv + ["--output", str(tmp_path / "ref")]) == 0
    for i in range(3):
        data = (tmp_path / f"out.matrix.{i}.csv").read_bytes()
        assert data == (tmp_path / f"ref.matrix.{i}.csv").read_bytes()
    assert not (tmp_path / "out.shoot.csv").exists()


def test_solve_output_peak_memory(tmp_path, capsys):
    # k = 3 states on 16,000 nodes: the CSV files are written block by
    # block after the problem and its cached mesh are freed, so the traced
    # peak of a second run (imports and caches settled) stays below the
    # 4.6 MB that holding each table whole cost
    spec = tmp_path / "h.json"
    spec.write_text(json.dumps({"ell": 0, "pair_product": -1.0,
                                "grid": {"n": 16_000}}))
    argv = ["solve", str(spec), "-k", "3", "--output", str(tmp_path / "o")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.2e6
    capsys.readouterr()


@pytest.mark.parametrize("bracket", [[-0.6, math.inf], [math.nan, -0.4]])
def test_solve_non_finite_bracket_is_an_input_error(tmp_path, capsys,
                                                    bracket):
    # json reads Infinity and NaN; the spec is refused before any solve
    spec = _solve_spec(tmp_path, bracket)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", spec, "--method", "shoot"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"cuspbc: input error: problem spec {spec}: bracket must "
                   f"be two finite numbers\n")


def _json_table(columns, data, meta):
    """The table as a JSON object, None (null) in place of each
    non-finite number."""
    def number(v):
        return None if isinstance(v, float) and not math.isfinite(v) else v

    rows = [[number(v) for v in row]
            for row in zip(*(np.asarray(c).tolist() for c in data))]
    return {"meta": {k: number(v) for k, v in meta.items()},
            "columns": columns, "rows": rows}


def _row_reference(columns, data, meta, fmt):
    """The table as written one row at a time: `repr` per CSV cell, or
    the pure-Python (indented) JSON encoder."""
    if fmt == "json":
        return json.dumps(_json_table(columns, data, meta), indent=2,
                          allow_nan=False)
    rows = [list(row) for row in zip(*(np.asarray(c).tolist() for c in data))]
    lines = [f"# {k}={v!r}" for k, v in meta.items()]
    lines.append(",".join(columns))
    lines += [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _json_reference(columns, data, meta):
    """The table as json.dumps (its C encoder, default separators) writes
    it, null for each non-finite number, with a newline."""
    return json.dumps(_json_table(columns, data, meta), allow_nan=False) + "\n"


def _strict_json(text):
    """text parsed as JSON (RFC 8259), which has no NaN or Infinity."""
    def refuse(name):
        raise AssertionError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _same_json(text, reference):
    assert _strict_json(text) == _strict_json(reference)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["local", "compare-he"])
def test_tabular_output_matches_the_row_reference(tmp_path, monkeypatch,
                                                  command, fmt):
    if command == "local":
        argv = LOCAL
    else:
        argv = ["compare-he", str(_write_he_orbital(tmp_path)),
                "--e", repr(HE_ORBITAL_ENERGY), "--n", "61"]
    tables = []
    emit = cli._emit

    def spy(args, columns, data, meta):
        tables.append((columns, data, meta))
        return emit(args, columns, data, meta)

    monkeypatch.setattr(cli, "_emit", spy)
    out = tmp_path / "out"
    assert main(argv + ["--format", fmt, "--output", str(out)]) == 0
    (table,) = tables
    reference = _row_reference(*table, fmt)
    if fmt == "csv":
        assert out.read_bytes() == reference.encode("utf-8")
    else:
        _same_json(out.read_text(), reference)
        assert out.read_bytes() == _json_reference(*table).encode("utf-8")


def test_emit_edge_floats_and_a_percent_in_meta(capsys):
    # subnormals, the smallest normal, signed zero, 1e16 and exponent
    # forms in the cells; `%` in a meta value is written as it is
    columns = ["r", "value", "neg"]
    data = [EDGE_GRID, EDGE_VALUES, -EDGE_VALUES]
    meta = {"note": "100% of %s, %r and %(x)s", "r0": math.inf, "n": 6}
    args = argparse.Namespace(format="csv", output=None)
    cli._emit(args, columns, data, meta)
    text = capsys.readouterr().out
    assert text == _row_reference(columns, data, meta, "csv")
    assert text.startswith("# note='100% of %s, %r and %(x)s'\n")
    # one row, one column
    cli._emit(args, ["x"], [np.array([-0.0])], {})
    assert capsys.readouterr().out == "x\n-0.0\n"


def test_emit_json_writes_null_for_nan_and_infinity(capsys):
    # in the cells and in meta; CSV keeps nan, inf and -inf
    columns = ["r", "value"]
    data = [EDGE_GRID, np.array([math.nan, math.inf, -math.inf, -0.0,
                                 5e-324, 1e16])]
    meta = {"r0": math.inf, "e": math.nan, "kind": "100%"}
    cli._emit(argparse.Namespace(format="json", output=None),
              columns, data, meta)
    text = capsys.readouterr().out
    table = _strict_json(text)
    assert table["meta"] == {"r0": None, "e": None, "kind": "100%"}
    assert [v for _, v in table["rows"][:3]] == [None] * 3
    _same_json(text, _row_reference(columns, data, meta, "json"))
    cli._emit(argparse.Namespace(format="csv", output=None),
              columns, data, meta)
    text = capsys.readouterr().out
    assert text.startswith("# r0=inf\n# e=nan\n")
    assert ",nan\n" in text and ",inf\n" in text and ",-inf\n" in text


def test_parser_is_built_once(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    # the top-level parser and one per subcommand
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli.build_parser.cache_clear()
    try:
        spec = _solve_spec(tmp_path, None)
        orbital = str(_write_he_orbital(tmp_path))
        assert main(["solve", spec]) == 0
        assert built[0] == "cuspbc" and len(built) == 7
        once = list(built)
        assert main(["compare-he", orbital, "--e", repr(HE_ORBITAL_ENERGY),
                     "--n", "11"]) == 0
        assert main(["solve", spec, "-k", "2"]) == 0
        # a bad command line still exits, and help still prints
        for argv in (["solve"], ["solve", spec, "-k", "two"], ["bogus"],
                     ["compare-he", orbital]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        for argv, usage in ((["--help"], "usage: cuspbc "),
                            (["solve", "--help"], "usage: cuspbc solve ")):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith(usage)
        # no value of one call is left for the next
        parser = cli.build_parser()
        assert parser.parse_args(["solve", spec]).k == 1
        assert built == once
    finally:
        cli.build_parser.cache_clear()


def test_solve_shoot_robin_row_overflow_is_a_numerical_failure(tmp_path,
                                                               capsys):
    # with the cusp's u'/u = 1e9 the inner row's Robin step e^(...)
    # overflows at every energy: one line on stderr and exit code 3, no
    # traceback
    spec = tmp_path / "h.json"
    spec.write_text(json.dumps({"ell": 0, "pair_product": 1e9,
                                "grid": {"n": 2000},
                                "bracket": [-0.6, -0.4]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(spec), "--method", "shoot"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("cuspbc: numerical failure: an end row's Robin step "
                   "overflows at E = 2.40964e+12\n")


@pytest.mark.parametrize("argv, message", [
    # charges enter exact (Fraction) series arithmetic
    (["basis", "slater", "e-nucleus", "Z=nan"], "q2 must be finite, got nan"),
    (["basis", "slater", "e-nucleus", "Z=inf"], "q2 must be finite, got inf"),
    (["basis", "gaussian", "e-nucleus", "Z=2", "--tail", "inf"],
     "tail exponents must be positive and finite"),
    # an all-zero orbital has no norm to divide <1/r> by
    (["compare-he", "ZERO", "--e", "-0.9"],
     "orbital has no nonzero coefficient")])
def test_non_finite_or_empty_inputs_are_input_errors(tmp_path, capsys, argv,
                                                     message):
    zero = tmp_path / "zero.hfr"
    zero.write_text("1 1.0 0.0\n", encoding="utf-8")
    argv = [str(zero) if a == "ZERO" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"cuspbc: input error: {message}\n"


def _mixed_floats(rng, shape):
    # signs, magnitudes across the double range, and short decimals
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    out.flat[::7] = np.round(out.flat[::7], 3)
    return out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_bytes_equal_the_references(capsys, fmt):
    # the edge floats, -0.0, 5e-324, 1e16 and 2^53 +- 1 (2^53 + 1 rounds
    # to 2^53), non-finite cells (nan, inf, -inf in CSV; null in JSON),
    # then a 601 x 6 table; byte for byte against repr per CSV cell or
    # json.dumps of the table with null for each non-finite number
    big = 2 ** 53
    edges = np.array([-0.0, 5e-324, 1e16, big - 1, big + 1, big + 2,
                      math.nan, math.inf, -math.inf], dtype=float)
    meta = {"r0": math.inf, "e": math.nan, "kind": "100% \u00e9", "n": 6}
    tables = [(["r", "value", "neg"], [EDGE_GRID, EDGE_VALUES, -EDGE_VALUES]),
              (["x", "y"], [edges, -edges[::-1]]),
              (list("abcdef"), list(_mixed_floats(np.random.default_rng(3),
                                                  (6, 601))))]
    args = argparse.Namespace(format=fmt, output=None)
    for columns, data in tables:
        cli._emit(args, columns, data, meta)
        text = capsys.readouterr().out
        if fmt == "json":
            assert text == _json_reference(columns, data, meta)
        else:
            assert text == _row_reference(columns, data, meta, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_of_several_row_blocks(capsys, fmt):
    # rows past one block of the kernel, so a block ends mid-table
    n = 2 * gridfn._BLOCK + 5
    data = list(_mixed_floats(np.random.default_rng(11), (3, n)))
    data[1][gridfn._BLOCK - 1:gridfn._BLOCK + 2] = [math.nan, math.inf, -0.0]
    meta = {"n": n}
    cli._emit(argparse.Namespace(format=fmt, output=None), ["a", "b", "c"],
              data, meta)
    text = capsys.readouterr().out
    if fmt == "json":
        assert text == _json_reference(["a", "b", "c"], data, meta)
    else:
        assert text == _row_reference(["a", "b", "c"], data, meta, fmt)
