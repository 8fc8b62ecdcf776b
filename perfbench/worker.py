"""One benchmark process: import cuspbc from the checkout's sources, build a
workload from its seed, warm up, then run passes over the workload's
operations as a closed loop (one caller, one operation at a time) and
check every result against the oracles once the clock has stopped.

Started by run.py, which sets the BLAS pools to one thread.  With
--setup-only it stops when the first operation is ready and reports that
moment, which is what the set-up time measures.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from probe import REFERENCE_PROBE_S, probe_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TAIL_BEYOND = 10  # samples that must lie above the tail percentile


def import_cuspbc():
    if not (SRC / "cuspbc" / "__init__.py").is_file():
        raise SystemExit(f"cuspbc sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import cuspbc
    from cuspbc import (basis, cli, cusp, environment, gridfn, hfr,  # noqa: F401
                        radial, special)
    return cuspbc


def timed(op):
    """Run one operation between two probes.  Returns the normalised wall
    and CPU seconds, the outcome, and the raw probe time."""
    before = probe_s()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        value, raised = op.run(), None
    except Exception as exc:  # an operation that raises is a failed operation
        value, raised = None, exc
    t1, c1 = time.perf_counter(), time.process_time()
    probe = 0.5 * (before + probe_s())
    scale = REFERENCE_PROBE_S / probe
    return (t1 - t0) * scale, (c1 - c0) * scale, (value, raised), probe, scale


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of
    all order statistics.  A pass holds few operations whose times cluster
    by kind, and a single order statistic jumps between clusters as noise
    reorders them; the weighted mean moves smoothly."""
    from scipy.special import betainc

    v = sorted(values)
    n = len(v)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum(x * (hi - lo) for x, lo, hi in zip(v, edges[:-1], edges[1:])))


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it, with that
    percentile; the maximum when there are too few samples."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return max(values), 100.0
    p = (n - TAIL_BEYOND) / n
    return quantile(values, p), 100.0 * p


def measure(ops, seconds, tracer=None):
    """Closed loop over the operations, pass after pass, until `seconds`
    have passed and at least one pass is complete; the last pass may stop
    part-way.  A traced run repeats every operation under the tracer and
    keeps the layer counts of complete passes only, so they repeat
    exactly."""
    n = len(ops)
    wall = [[] for _ in range(n)]
    cpu = [[] for _ in range(n)]
    traced = [[] for _ in range(n)]
    outcomes = [[] for _ in range(n)]
    probes = []
    layers = {}
    passes = 0
    start = time.perf_counter()
    while True:
        pass_layers = {}
        for i, op in enumerate(ops):
            w, c, outcome, probe, _ = timed(op)
            wall[i].append(w)
            cpu[i].append(c)
            outcomes[i].append(outcome)
            probes.append(probe)
            if tracer is not None:
                tracer.install()
                try:
                    w, _, outcome, probe, scale = timed(op)
                finally:
                    tracer.uninstall()
                counts, self_s = tracer.take()
                traced[i].append(w)
                outcomes[i].append(outcome)
                probes.append(probe)
                for key, v in counts.items():
                    pass_layers[key] = pass_layers.get(key, 0) + v
                for key, v in self_s.items():
                    pass_layers[key] = pass_layers.get(key, 0.0) + v * scale
            if passes and time.perf_counter() - start >= seconds:
                break
        else:
            passes += 1
            if passes == 1:
                # a pass's memory need, not the heap growth of however many
                # passes the machine's speed allowed
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for key, v in pass_layers.items():
                layers[key] = layers.get(key, 0) + v
            if time.perf_counter() - start < seconds:
                continue
        break
    return {"wall": wall, "cpu": cpu, "traced": traced, "outcomes": outcomes,
            "probes": probes, "layers": layers, "passes": passes,
            "peak_rss_mb": rss_mb,
            "seconds": time.perf_counter() - start}


def run_defect_probes(probes):
    """Each known-defect probe once, untimed and untraced; the reasons of
    those that fail.  They are reported beside the pass, not in it, so
    `failed` counts only operations of the workload."""
    reasons = []
    for op in probes:
        try:
            value, raised = op.run(), None
        except Exception as exc:
            value, raised = None, exc
        reason = op.check(value, raised)
        if reason is not None:
            reasons.append(f"{op.label}: {reason}")
    return reasons


def summarise(ops, m, traced):
    """Metrics of one run.  An operation's time is the median over its
    executions; ok_frac is the share of operations whose every execution
    passed its check."""
    failures, failed, attempted, bad_ops = [], 0, 0, 0
    for op, outs in zip(ops, m["outcomes"]):
        reasons = [op.check(value, raised) for value, raised in outs]
        bad = [r for r in reasons if r is not None]
        attempted += len(reasons)
        failed += len(bad)
        bad_ops += bool(bad)
        failures += [f"{op.label}: {r}" for r in bad[:1]]
    op_wall = [statistics.median(w) for w in m["wall"]]
    tail_s, tail_pct = tail(op_wall)
    out = {
        "attempted": attempted, "failed": failed,
        "correct": failed == 0, "failures": failures,
        "operations": len(ops), "passes": m["passes"],
        "executions": [len(w) for w in m["wall"]],
        "measured_s": m["seconds"],
        "wall_s": sum(op_wall),
        "cpu_s": sum(statistics.median(c) for c in m["cpu"]),
        "op_p50_s": quantile(op_wall, 0.5),
        "op_tail_s": tail_s, "op_tail_pct": tail_pct,
        "peak_rss_mb": m["peak_rss_mb"],
        "ok_frac": 1.0 - bad_ops / len(ops),
        "probe_s": statistics.median(m["probes"]), "probes": len(m["probes"]),
    }
    if traced:
        from tracing import layer_metric_names
        per_pass = dict.fromkeys(layer_metric_names(), 0.0)
        per_pass.update((k, v / m["passes"]) for k, v in m["layers"].items())
        per_pass["trace.overhead_s"] = (
            sum(statistics.median(t) for t in m["traced"]) - out["wall_s"])
        out["layers"] = per_pass
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--wrong-oracle", action="store_true",
                    help="corrupt the first operation's reference (self-test)")
    args = ap.parse_args(argv)

    cb = import_cuspbc()
    import workloads
    import_probe = statistics.median(probe_s() for _ in range(3))
    if args.workload not in workloads.BUILDERS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    workdir = ROOT / "perfbench" / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops, warm_up, defect_probes = workloads.build(
            args.workload, args.seed, workdir, cb,
            wrong_oracle=args.wrong_oracle)
        warm_up()
        ready = time.perf_counter()
        result = {"ready": ready, "import_probe_s": import_probe}
        if not args.setup_only:
            tracer = None
            if args.trace:
                from tracing import Tracer
                tracer = Tracer(cb)
            m = measure(ops, args.seconds, tracer)
            result.update(summarise(ops, m, tracer is not None))
            defects = run_defect_probes(defect_probes)
            result.update(defect_probes=len(defect_probes), known_defects=defects)
            if tracer is not None:
                result["layers"]["cusp.far_field_probes.failed"] = float(len(defects))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another worker's directory is still there
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
