"""The benchmark's per-layer tracer (perfbench/tracing.py) binds library
attributes by name: module functions, the scipy kernels as `radial` sees
them, `HFROrbital` methods and `RadialProblem.potential(r=None)`.
Installing and removing it here, without timing anything, makes a library
change that drops one of them fail this suite instead of a traced
benchmark run."""

import importlib.util
from pathlib import Path

import cuspbc
from cuspbc import (basis, cli, cusp, environment, gridfn, hfr,  # noqa: F401
                    radial, special)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
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
