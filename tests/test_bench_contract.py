"""The benchmark's per-layer tracer (perfbench/tracing.py) binds library
attributes by name: module functions, the scipy kernels as `radial` sees
them, `HFROrbital` methods and `RadialProblem.potential(r=None)`.
Installing and removing it here, without timing anything, makes a library
change that drops one of them fail this suite instead of a traced
benchmark run.  Likewise the workloads (perfbench/workloads.py) run the
CLI with fixed command lines, which must parse."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import cuspbc
from cuspbc import (basis, cli, cusp, environment, gridfn, hfr,  # noqa: F401
                    radial, special)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load("tracing")
    bound = [(getattr(cuspbc, mod), attr)
             for mod, attr, _ in tracing.FUNCTIONS + tracing.KERNELS]
    before = [getattr(owner, attr) for owner, attr in bound]
    problem_cls, hfr_radial = radial.RadialProblem, hfr.HFROrbital.radial
    tracer = tracing.Tracer(cuspbc)
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(bound, before))
        problem = radial.RadialProblem(0, 1.0, -1.0, 0.0, radial.log_grid())
        assert problem.potential().shape == problem.grid.shape
        counts, _ = tracer.take()
        assert counts["radial.potential.calls"] == 1
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in bound] == before
    assert radial.RadialProblem is problem_cls
    assert hfr.HFROrbital.radial is hfr_radial


def test_workload_command_lines_parse(tmp_path, monkeypatch):
    # the workloads' CLI calls are recorded and parsed, not run: the
    # warm-up and the last operation of each workload reach every one
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = _load("workloads")
    finally:
        # the harness's own `he` module must not outlive the test: other
        # tests' Hypothesis draws depend on which modules are loaded
        sys.modules.pop("he", None)
    parser = cli.build_parser()
    canned = json.dumps({method: {"states": [{"energy": -0.5}] * 3}
                         for method in ("matrix", "shoot")})
    seen = []

    def parse_only(cb, argv):
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"cuspbc rejects the workload command line {argv}")
        seen.append(argv)
        return 0, canned

    monkeypatch.setattr(workloads, "_cli", parse_only)
    for name in workloads.BUILDERS:
        ops, warm_up, _ = workloads.build(name, 1, tmp_path, cuspbc)
        warm_up()
        ops[-1].run()

    def used(*tokens):
        return any(all(t in argv for t in tokens) for argv in seen)

    assert used("solve", "--method", "matrix", "-k", "3", "--output")
    assert used("solve", "--method", "both")
    assert used("compare-he", "--energy-kind", "orbital", "--r0-kind",
                "--format", "json", "--output")


def test_workload_checks_pass_on_the_library(tmp_path, monkeypatch):
    # each workload's warm-up, which a benchmark run makes before timing
    # and fails on if it raises, with every CLI call it makes exiting 0;
    # then one full hydrogen-sweep pass and the first operation of the
    # other two workloads (seed 1), run and checked against their oracles
    # as the benchmark does: a library change that would lower its
    # ok_frac fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    failures, warm_codes = [], []
    try:
        workloads = _load("workloads")
        cli_run = workloads._cli

        def recording(cb, argv):
            rc, out = cli_run(cb, argv)
            warm_codes.append((name, argv[0], rc))
            return rc, out

        for name in workloads.BUILDERS:
            workdir = tmp_path / name
            workdir.mkdir()
            ops, warm_up, _ = workloads.build(name, 1, workdir, cuspbc)
            monkeypatch.setattr(workloads, "_cli", recording)
            warm_up()
            monkeypatch.setattr(workloads, "_cli", cli_run)
            for op in ops if name == "hydrogen-sweep" else ops[:1]:
                try:
                    value, raised = op.run(), None
                except Exception as exc:  # a failed operation, as in a run
                    value, raised = None, exc
                reason = op.check(value, raised)
                if reason is not None:
                    failures.append(f"{name}, {op.label}: {reason}")
    finally:
        # see test_workload_command_lines_parse
        for module in ("he", "oracles"):
            sys.modules.pop(module, None)
    assert {name for name, _, _ in warm_codes} == set(workloads.BUILDERS)
    assert all(rc == 0 for _, _, rc in warm_codes), warm_codes
    assert failures == []


def test_traced_coalescence_operation_counts(tmp_path, monkeypatch):
    # the first coalescence-pipeline operation (seed 1) under the
    # benchmark's tracer: compare-he evaluates local_u and the orbital once
    # each, on the table's radii with r0 and r0/2 appended, beside the
    # operation's own ten local_u calls
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads, tracing = _load("workloads"), _load("tracing")
        op = workloads.build("coalescence-pipeline", 1, tmp_path,
                             cuspbc)[0][0]
        tracer = tracing.Tracer(cuspbc)
        tracer.install()
        try:
            op.run()
            counts, _ = tracer.take()
        finally:
            tracer.uninstall()
    finally:
        # see test_workload_command_lines_parse
        for module in ("he", "oracles"):
            sys.modules.pop(module, None)
    assert counts["cusp.local_u.calls"] == 11
    assert counts["cusp.local_u.points"] == 1626
    assert counts["hfr.HFROrbital.radial.calls"] == 1
