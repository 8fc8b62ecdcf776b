import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cuspbc

SRC = Path(cuspbc.__file__).resolve().parents[1]
SUBMODULES = ("basis", "cli", "cusp", "environment", "gridfn", "hfr",
              "radial", "special")


def test_every_exported_name_resolves():
    missing = [name for name in cuspbc.__all__ if not hasattr(cuspbc, name)]
    assert missing == []
    assert len(set(cuspbc.__all__)) == len(cuspbc.__all__)
    namespace = {}
    exec("from cuspbc import *", namespace)
    assert set(cuspbc.__all__) <= set(namespace)


def _fresh(code, cwd):
    """Run code in a new interpreter that imports cuspbc from this
    checkout, and return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    prelude = ("import json, sys\n"
               "def scipy_modules():\n"
               "    return sorted(m for m in sys.modules\n"
               "                  if m.split('.')[0] == 'scipy')\n")
    proc = subprocess.run([sys.executable, "-c",
                           prelude + textwrap.dedent(code)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy(tmp_path):
    loaded = _fresh(f"""
        import cuspbc
        from cuspbc import {", ".join(SUBMODULES)}
        print(json.dumps(scipy_modules()))
        """, tmp_path)
    assert loaded == []


def test_import_builds_no_csv_tables(tmp_path):
    # the CSV formatter's tables are built by the first CSV written
    built = _fresh("""
        import cuspbc
        from cuspbc import gridfn
        def built():
            return [f.cache_info().currsize
                    for f in (gridfn._pow10, gridfn._glyphs)]
        before = built()
        cuspbc.RadialFunction([1.0, 2.0], [3.0, 4.0]).to_csv()
        print(json.dumps([before, built()]))
        """, tmp_path)
    assert built == [[0, 0], [1, 1]]


def test_cli_runs_without_a_solve_load_no_scipy(tmp_path):
    # every subcommand but `solve` runs on numpy alone
    (tmp_path / "env.json").write_text(json.dumps(
        {"charges": [{"q": 2.0, "position": [0.0, 0.0, 3.0]}]}))
    (tmp_path / "he.hfr").write_text(
        "1 1.4553870053179185 0.7407925\n2 1.3552466748849417 0.0272015\n")
    loaded = _fresh("""
        import contextlib, io
        from cuspbc.cli import main
        runs = [["cusp", "e-e", "singlet"],
                ["local", "e-nucleus", "Z=1", "--e", "-0.5"],
                ["env", "env.json", "e-e", "singlet", "--probes", "0.1"],
                ["basis", "gaussian", "e-nucleus", "Z=2", "--tail", "1.5"],
                ["compare-he", "he.hfr", "--e", "-0.9179556",
                 "--output", "he.csv"],
                ["compare-he", "he.hfr", "--e", "-0.9179556",
                 "--format", "json", "--output", "he.json"]]
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes = [main(argv) for argv in runs]
        print(json.dumps([codes, scipy_modules()]))
        """, tmp_path)
    assert loaded == [[0] * 6, []]


# packages no solve needs: scipy.optimize (brentq's, which the in-house
# root replaces) and what its package import pulls in
NOT_SOLVED_WITH = ("scipy.optimize", "scipy.sparse", "scipy.special",
                   "scipy.spatial", "scipy.integrate", "scipy.interpolate")
# the modules a solve loads: scipy's compiled LAPACK and BLAS
COMPILED = ["scipy.linalg._fblas", "scipy.linalg._flapack"]


def test_first_solve_loads_lapack_only(tmp_path):
    # a solve loads nothing that bind_scipy, which a timing caller runs
    # first, has not
    bound, loaded, f2py = _fresh("""
        from cuspbc.radial import (RadialProblem, SystemAsymptotics,
                                   bind_scipy, log_grid, robin_inner,
                                   robin_outer, solve_matrix)
        problem = RadialProblem(0, 1.0, -1.0, 0.0, log_grid(1e-5, 40.0, 400))
        outer = robin_outer(SystemAsymptotics(1.0, 0.0, -0.5), 40.0)
        bind_scipy()
        bound = scipy_modules()
        solve_matrix(problem, robin_inner(0, -1.0), outer, 1)
        print(json.dumps([bound, scipy_modules(),
                          [m for m in sys.modules if "f2py" in m]]))
        """, tmp_path)
    assert bound == loaded
    # the compiled modules alone: no scipy or scipy.linalg package, and no
    # numpy.f2py
    assert loaded == COMPILED and f2py == []
    assert not [m for m in loaded if m.startswith(NOT_SOLVED_WITH)]


def test_cli_solve_and_its_report_load_what_bind_scipy_loads(tmp_path):
    # the report's cusp and outer-slope fits run on numpy alone
    (tmp_path / "h.json").write_text(json.dumps(
        {"ell": 0, "pair_product": -1.0, "grid": {"n": 600},
         "bracket": [-0.6, -0.4]}))
    bound, loaded = _fresh("""
        import contextlib, io
        from cuspbc import radial
        from cuspbc.cli import main
        radial.bind_scipy()
        bound = scipy_modules()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["solve", "h.json", "--method", "both", "-k", "3",
                         "--output", "fn"]) == 0
        print(json.dumps([bound, scipy_modules()]))
        """, tmp_path)
    assert loaded == bound
    assert not [m for m in loaded if m.startswith(NOT_SOLVED_WITH)]
    assert not {"scipy", "scipy.linalg"} & set(loaded)


def test_scipy_linalg_after_a_solve_reuses_its_compiled_modules(tmp_path):
    # a scipy release that moves or wraps either routine fails here
    same = _fresh("""
        import numpy as np
        from cuspbc import radial
        from cuspbc.radial import (RadialProblem, SystemAsymptotics,
                                   log_grid, robin_inner, robin_outer,
                                   solve_matrix)
        problem = RadialProblem(0, 1.0, -1.0, 0.0, log_grid(1e-5, 40.0, 400))
        outer = robin_outer(SystemAsymptotics(1.0, 0.0, -0.5), 40.0)
        solve_matrix(problem, robin_inner(0, -1.0), outer, 1)
        import scipy.linalg
        x = scipy.linalg.solve_banded((1, 1), np.array([[0.0, 1.0, 1.0],
                                                        [4.0, 4.0, 4.0],
                                                        [1.0, 1.0, 0.0]]),
                                      np.array([5.0, 6.0, 5.0]))
        print(json.dumps([radial.dtbtrs is scipy.linalg.lapack.dtbtrs,
                          radial.dnrm2 is scipy.linalg.blas.dnrm2,
                          x.tolist()]))
        """, tmp_path)
    assert same == [True, True, [1.0, 1.0, 1.0]]


def test_bind_scipy_after_scipy_linalg_binds_its_routines(tmp_path):
    same = _fresh("""
        import scipy.linalg.lapack, scipy.linalg.blas
        from cuspbc import radial
        before = {m: id(sys.modules[m]) for m in scipy_modules()}
        radial.bind_scipy()
        print(json.dumps([radial.dtbtrs is scipy.linalg.lapack.dtbtrs,
                          radial.dnrm2 is scipy.linalg.blas.dnrm2,
                          before == {m: id(sys.modules[m])
                                     for m in scipy_modules()}]))
        """, tmp_path)
    assert same == [True, True, True]


def test_a_compiled_module_not_found_is_an_import_error(tmp_path):
    raised = _fresh("""
        sys.modules["scipy"] = None  # no scipy to find
        from cuspbc import radial
        try:
            radial.bind_scipy()
        except ImportError as exc:
            print(json.dumps([type(exc).__name__, exc.name]))
        """, tmp_path)
    assert raised == ["ImportError", "scipy.linalg._flapack"]


def test_radial_binds_its_scipy_names_on_first_use(tmp_path):
    bound = _fresh("""
        from cuspbc import radial
        before = "solve_ivp" in vars(radial)
        import scipy.integrate, scipy.sparse.linalg
        print(json.dumps([before,
                          radial.solve_ivp is scipy.integrate.solve_ivp,
                          "solve_ivp" in vars(radial),
                          radial.eigsh is scipy.sparse.linalg.eigsh]))
        """, tmp_path)
    assert bound == [False, True, True, True]


def test_radial_has_no_other_lazy_names(tmp_path):
    missing = _fresh("""
        from cuspbc import radial
        try:
            radial.no_such_name
        except AttributeError as exc:
            print(json.dumps([str(exc), "scipy" in sys.modules]))
        """, tmp_path)
    assert missing == ["module 'cuspbc.radial' has no attribute "
                       "'no_such_name'", False]
