"""Record perfbench/reference.json: the output of every pool entry.

    python3 perfbench/record.py [--workload NAME ...]

Run from the repository root on a commit whose outputs are trusted. Only
the named workloads are re-recorded; the others keep their entries. The
first-order runs are recorded unrotated (O = identity, the symmetric
eigenvalue route), so the rotated runs of the benchmark, which take the
Jacobi route, are checked against an independent path.
"""

import argparse
import json
import os
import shutil
import sys

from run import THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, os.path.abspath("src"))

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "reference.json")


def _checked(name, passed, obs):
    if not passed:
        raise SystemExit(f"{name}: a certificate reads FAIL, not recording")
    print(name, json.dumps(obs)[:120], flush=True)
    return obs


def record_atoms(pool):
    out = {}
    for i, diag in enumerate(pool["aligned"]):
        out[f"aligned-{i}"] = _checked(
            f"aligned-{i}", *w.atom_op(np.diag(diag))[:2])
    for i, (diag, theta) in enumerate(pool["rotated"]):
        R = w._rotation(theta)
        out[f"rotated-{i}"] = _checked(
            f"rotated-{i}", *w.atom_op(R @ np.diag(diag) @ R.T)[:2])
    return out


def record_stair(pool, scratch):
    out = {}
    for i, diag in enumerate(pool["stair"]):
        run_dir = os.path.join(scratch, f"stair-{i}")
        out[f"stair-{i}"] = _checked(
            f"stair-{i}", *w.stair_scalar_op(diag, run_dir)[:2])
    return out


def record_vector(pool):
    return {f"vector-{i}": _checked(
        f"vector-{i}", *w.stair_vector_op(diag, 0.0)[:2])
        for i, diag in enumerate(pool["vector"])}


def record_measures(pool):
    out = {}
    for i, diag in enumerate(pool["stair"]):
        key = f"stair-{i}"
        run = w.build_scalar_run(diag)
        out[key] = _checked(key, *w.ck_mass_op(run)[:2])
        for probe in w.PROBES:
            out[f"{key}/{probe}"] = _checked(
                f"{key}/{probe}", *w.gap_op(run, probe)[:2])
        everything = range(w.DENSITY_GRID ** 2)
        out[f"{key}/density"] = _checked(
            f"{key}/density", *w.density_op(run, everything)[:2])
        out[f"{key}/holder"] = _checked(
            f"{key}/holder", *w.holder_op(run)[:2])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append",
                    choices=sorted(w.WORKLOADS))
    args = ap.parse_args(argv)
    names = args.workload or sorted(w.WORKLOADS)

    reference = {}
    if os.path.exists(PATH):
        with open(PATH) as fh:
            reference = json.load(fh)
    pool = w.pools()
    scratch = os.path.abspath(os.path.join(".bench_out", "record"))
    os.makedirs(scratch, exist_ok=True)
    try:
        for name in names:
            if name == "atom-suite":
                reference[name] = record_atoms(pool)
            elif name == "stair-scalar":
                reference[name] = record_stair(pool, scratch)
            elif name == "stair-vector":
                reference[name] = record_vector(pool)
            else:
                reference[name] = record_measures(pool)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
