import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from cuspbc import radial
from cuspbc.cli import _write_text, main, parse_pair
from cuspbc.errors import InputError

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


def test_cmd_local_regime_error_exit_code():
    assert main(["local", "e-nucleus", "Z=1", "--e", "0.5"]) == 2


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
    # 400 nodes and the Dirichlet start of the outer loop: 399 unknowns
    spec = {"ell": 0, "pair_product": -1.0, "grid": {"n": 400}}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(spec))
    assert main(["solve", str(path), "-k", "400"]) == 2
    assert "399 unknowns" in capsys.readouterr().err


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


def test_cmd_basis_bad_tail_exit_code(capsys):
    assert main(["basis", "slater", "e-nucleus", "Z=1",
                 "--tail", "1.0,x"]) == 2
    err = capsys.readouterr().err
    assert "--tail" in err and "Traceback" not in err


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
    _write_text(str(path), "ψ = 1\n")
    assert path.read_bytes() == "ψ = 1\n".encode("utf-8")


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
    names = ["matrix.0.csv", "matrix.1.csv", "shoot.csv"]
    argv = ["solve", str(path), "--method", "both", "-k", "2"]
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
