"""Self-test of the benchmark harness (not of cuspbc).

    python3 perfbench/selftest.py

Checks, with short runs from the root of the checkout:
1. a deliberately wrong oracle answer lands in the failure count;
2. both modes print every metric BENCHMARK.json names, with its unit;
3. without the cuspbc sources the command exits non-zero, printing no result;
4. per-layer counts repeat exactly at a fixed seed.
Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".points", ".n", ".iterations", ".warnings")


def bench(workload, seed, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_wrong_oracle():
    good = result(bench("coalescence-pipeline", 5, 0))
    bad_proc = bench("coalescence-pipeline", 5, 0, "--wrong-oracle")
    bad = result(bad_proc)
    assert bad["attempted"] == good["attempted"], "runs differ in length"
    assert bad["failed"] == good["failed"] + 1, (good["failed"], bad["failed"])
    assert good["correct"] and not bad["correct"]


def check_metrics_printed():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = result(bench("coalescence-pipeline", 6, trace))
        assert set(res) == {"correct", "attempted", "failed", "metrics"}, set(res)
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        assert got == want, f"trace {trace}: {set(want) ^ set(got)}"
        for name, m in res["metrics"].items():
            assert isinstance(m["value"], float) and math.isfinite(m["value"]), name


def check_needs_sources():
    scratch = HERE / "_work" / "selftest-no-sources"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        (scratch / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        for path in HERE.glob("*.py"):
            shutil.copy(path, scratch / "perfbench")
        proc = bench("coalescence-pipeline", 1, 0, cwd=scratch)
        assert proc.returncode != 0, "exited 0 without cuspbc"
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        assert '"metrics"' not in last[0], "printed a result"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check_counts_repeat():
    for workload in ("coalescence-pipeline", "matrix-selfconsistent"):
        runs = [result(bench(workload, 7, 1))["metrics"] for _ in range(2)]
        counts = [{k: v["value"] for k, v in r.items()
                   if k.endswith(COUNT_SUFFIXES)} for r in runs]
        assert counts[0] == counts[1], {
            k: (counts[0][k], counts[1][k]) for k in counts[0]
            if counts[0][k] != counts[1][k]}
        assert any(counts[0].values()), "no layer was called"


def main() -> int:
    failed = 0
    for check in (check_wrong_oracle, check_metrics_printed,
                  check_needs_sources, check_counts_repeat):
        try:
            check()
            print(f"PASS {check.__name__}", flush=True)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
