"""One benchmark process: set up a workload, run its rounds for a time
budget, check every op, and print one JSON line for run.py.

Started by run.py with the thread counts pinned and ./src on PYTHONPATH;
not meant to be run by hand. Prints "ready" once the inputs are built, so
that run.py can time set-up from process start.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads
from tracer import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))


def run_op(op, reference, workload):
    t0 = time.perf_counter()
    try:
        passed, obs, err = op.fn()
    except Exception:
        traceback.print_exc()
        return {"kind": op.kind, "key": op.key,
                "seconds": time.perf_counter() - t0, "ok": False,
                "problem": "raised", "err_rel": None, "obs": None}
    seconds = time.perf_counter() - t0
    ref = workloads.reference_entry(reference, workload, op, obs)
    bad = workloads.mismatches(obs, ref, workload)
    problem = None
    if not passed:
        problem = "a certificate or gap reads FAIL"
    elif bad:
        problem = "differs from reference: " + ", ".join(bad)
    return {"kind": op.kind, "key": op.key, "seconds": seconds,
            "ok": problem is None, "problem": problem, "err_rel": err,
            "obs": obs}


def run_round(ops, reference, wl):
    t0 = time.perf_counter()
    records = [run_op(op, reference, wl.name) for op in ops]
    seconds = time.perf_counter() - t0
    problem = wl.round_problem(records)
    if problem:
        records[-1]["ok"] = False
        records[-1]["problem"] = problem
    return seconds, records


def measure(wl, reference, budget):
    """Untraced rounds while the budget lasts; at least one."""
    rounds, records = [], []
    start = time.perf_counter()
    i = 0
    while True:
        seconds, recs = run_round(wl.round(i), reference, wl)
        rounds.append(seconds)
        records += recs
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(rounds) > budget:
            return rounds, records


def measure_traced(wl, reference, budget, spans_path):
    """Pairs of one untraced and one traced run of the same round, the
    order alternating. Layer metrics come from the first traced round, so
    that their counts repeat exactly for a seed."""
    deltas, records, first = [], [], None
    start = time.perf_counter()
    i = 0
    while True:
        ops = wl.round(i)
        plain = traced = None
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                tracer = Tracer()
                with tracer.installed():
                    traced, recs = run_round(ops, reference, wl)
                if first is None:
                    first = tracer
            else:
                plain, recs = run_round(ops, reference, wl)
            records += recs
        deltas.append(traced - plain)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / i > budget:
            break
    first.write(spans_path)
    metrics = layer_metrics(first)
    metrics["trace.overhead_s"] = (statistics.median(deltas), "s")
    return records, metrics


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    scratch = os.path.join(args.out_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        with open(os.path.join(HERE, "reference.json")) as fh:
            reference = json.load(fh)

        if args.trace:
            spans = os.path.join(
                args.out_dir, f"spans-{args.workload}-seed{args.seed}.json")
            records, metrics = measure_traced(wl, reference, args.seconds,
                                              spans)
            rounds = []
        else:
            rounds, records = measure(wl, reference, args.seconds)
            # one value per distinct input: a repeated input repeats its
            # error bar exactly, and how often inputs repeat depends on
            # how many rounds fit in the budget
            errs = {r["key"]: r["err_rel"] for r in records
                    if r["err_rel"] is not None}
            metrics = {
                "wall_s": (statistics.median(rounds), "s"),
                "op_s.p50": (statistics.median(r["seconds"] for r in records),
                             "s"),
                "err_bar_rel": (statistics.median(errs.values()), "ratio"),
            }
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            metrics["peak_rss_mb"] = (peak, "MB")
        import numpy
        print(json.dumps({
            "metrics": metrics,
            "rounds_s": rounds,
            "ops": records,
            "numpy": numpy.__version__,
            "python": sys.version.split()[0],
        }), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
