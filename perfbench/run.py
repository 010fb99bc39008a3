"""degenhess benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload stair-scalar --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --describe

Run from the repository root; the library is imported from ./src as is,
nothing is built or installed. Each run is one closed-loop caller in one
worker process with BLAS/OpenMP pinned to one thread. Set-up (interpreter
start, import, input generation and, on measures-readback, the prebuilt
run) is timed from process start three times, twice in set-up-only
workers and once in the worker that then measures; setup_s is the median.

With --trace 0 the last line holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 the per-layer metrics of one traced round.
Failed ops (raised, a certificate read FAIL, or the output differs from
perfbench/reference.json) count in "failed"; fail_ratio = failed /
attempted. Each run also writes its environment, per-op records and (when
traced) its spans under .bench_out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_REPS = 3
# Seeds 1..10 were used while the benchmark was written; this one was not,
# and is kept for confirming later claims.
HELD_OUT_SEED = 7919
# A run must end within 180 s; the worker is killed well before.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _spawn(args, setup_only, deadline):
    """Start a worker; return (seconds until it printed ready, its last
    stdout line, exit code)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_worker_env())
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        ready = None
        last = ""
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready, last, code


def describe():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    from tracer import LAYER_MAP
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']}: {w['why']}")
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']} [{m['unit']}] {m['better']} is better, "
              f"bound {m['bound']}")
    print("per-layer metrics (--trace 1):")
    for m in spec["per_layer"]:
        print(f"  {m['name']} [{m['unit']}]")
    print("layer -> end-to-end metric it should move:")
    for layer, target in LAYER_MAP:
        print(f"  {layer}\n      -> {target}")
    print(f"held-out seed for confirming claims: {HELD_OUT_SEED}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true",
                    help="print workloads, metrics and the layer map")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "degenhess", "__init__.py")):
        print("perfbench: ./src/degenhess not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    if not os.path.isfile("BENCHMARK.json"):
        print("perfbench: ./BENCHMARK.json not found", file=sys.stderr)
        return 2
    if args.describe:
        describe()
        return 0
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    setup = []
    reps = 1 if args.trace else SETUP_REPS
    for _ in range(reps - 1):
        ready, _, code = _spawn(args, True, deadline)
        if code != 0 or ready is None:
            print(f"perfbench: set-up failed (exit {code})", file=sys.stderr)
            return 1
        setup.append(ready)
    ready, last, code = _spawn(args, False, deadline)
    if code != 0 or ready is None:
        print(f"perfbench: worker failed (exit {code})", file=sys.stderr)
        return 1
    setup.append(ready)
    out = json.loads(last)
    got = dict(out["metrics"])
    if not args.trace:
        got["setup_s"] = (statistics.median(setup), "s")

    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": got[m["name"]][0], "unit": m["unit"]}
               for m in wanted}
    ops = out["ops"]
    failed = [op for op in ops if not op["ok"]]
    env = {
        "cores": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": out["python"],
        "numpy": out["numpy"],
        "threads": {v: "1" for v in THREAD_VARS},
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    result = {"correct": not failed, "attempted": len(ops),
              "failed": len(failed), "metrics": metrics}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"env": env, "result": result, "setup_s": setup,
                   "rounds_s": out["rounds_s"], "ops": ops}, fh, indent=1)

    for op in failed:
        print(f"FAILED {op['kind']} {op['key']}: {op['problem']}")
    print("env " + json.dumps(env))
    print(f"ops = {len(ops)} attempted, {len(failed)} failed, "
          f"fail_ratio = {len(failed) / len(ops):.4g}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
