"""Benchmark launcher: one workload, one seed, one fresh worker process.

    python3 perfbench/run.py --workload coalescence-pipeline --seed 1 \
        --seconds 30 --trace 0

Runs from the root of a checkout and imports cuspbc from its `src/`.
Every child runs with the BLAS and OpenMP pools at one thread, one child
at a time.  The set-up time is the median over several fresh processes
(each importing, generating inputs and warming up); the last of them then
measures.  With --trace 0 the last output line carries the end-to-end
metrics named in BENCHMARK.json, with --trace 1 the per-layer ones.  All
times are normalised to the reference speed of probe.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from probe import REFERENCE_PROBE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 3  # fresh processes whose set-up time is sampled
CHILD_TIMEOUT_S = 150.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def child(args, extra=()):
    """Run one worker to completion; returns (seconds since spawn until it
    was ready, its JSON report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    env = dict(os.environ, **SINGLE_THREAD)
    spawned = time.perf_counter()  # CLOCK_MONOTONIC: shared with the child
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["ready"] - spawned, report


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cuspbc").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {"threads": SINGLE_THREAD, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "commit": commit, "src_cuspbc_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cuspbc benchmark (one run)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wrong-oracle", action="store_true",
                    help="corrupt one oracle answer (harness self-test)")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "cuspbc" / "__init__.py").is_file():
        raise SystemExit("cuspbc sources (src/cuspbc) not found")

    setups = []
    for _ in range(SETUP_PROCESSES - 1):
        elapsed, rep = child(args, ["--setup-only"])
        setups.append(elapsed * REFERENCE_PROBE_S / rep["import_probe_s"])
    elapsed, rep = child(args, ["--wrong-oracle"] if args.wrong_oracle else [])
    setups.append(elapsed * REFERENCE_PROBE_S / rep["import_probe_s"])

    n_ops, passes = rep["operations"], rep["passes"]
    runs = rep["executions"]
    samples = {"setup_s": f"{len(setups)} processes",
               "ok_frac": f"{n_ops} operations, {rep['attempted']} executions"}
    for name in ("wall_s", "cpu_s", "op_p50_s", "op_tail_s"):
        samples[name] = (f"{n_ops} operations run {min(runs)}-{max(runs)} "
                         "times each, median per operation")
    samples["op_tail_s"] += f", p{rep['op_tail_pct']:.1f}"
    samples["bench.probe_s"] = f"median of {rep['probes']} raw probes"
    samples["cusp.far_field_probes.failed"] = (
        f"of {rep['defect_probes']} probes, run once after the passes")
    if args.trace:
        values = dict(rep["layers"], **{"bench.probe_s": rep["probe_s"]})
        metrics = spec["per_layer"]
    else:
        values = dict(rep, setup_s=statistics.median(setups))
        metrics = spec["end_to_end"]

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "measured_s": rep["measured_s"], "operations": n_ops,
            "passes": passes, "attempted": rep["attempted"],
            "failed": rep["failed"], "failures": rep["failures"],
            "defect_probes": rep["defect_probes"],
            "known_defects": rep["known_defects"],
            "raw_probe_s": rep["probe_s"], **provenance()}
    print(json.dumps(info))
    out = {}
    for m in metrics:
        value = float(values[m["name"]])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        note = samples.get(m["name"], "")
        if args.trace and m["unit"] == "s" and not note:
            note = f"per pass, {passes} traced passes"
        print(f"{m['name']:42s} {value:.6g} {m['unit']}"
              + (f"  ({note})" if note else ""))
    print(json.dumps({"correct": rep["correct"], "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
