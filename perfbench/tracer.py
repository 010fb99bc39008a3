"""Spans and boundary counts around the library's public functions.

The library itself is not instrumented. Tracer.installed() rebinds each
traced function in every degenhess module namespace that binds it (ck,
for one, is bound in invariants, atom, staircase, measures, cli and the
package), and the traced methods on their classes, then restores the
originals. Spans are held in memory as (name, start, end, parent) and
written out when the run ends. A span's self time is its duration minus
the durations of its direct children; calls are strictly nested because
the library runs on one thread.

Counts that need the arguments are taken before the span opens and counts
that need the result after it closes, so their cost lands in the caller's
self time and in trace.overhead_s, never in the counted function.
"""

import contextlib
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("degenhess", "degenhess.invariants", "degenhess.fields",
           "degenhess.atom", "degenhess.staircase", "degenhess.measures",
           "degenhess.config", "degenhess.report", "degenhess.cli")


def _batch(M):
    shape = np.shape(M)
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1


def _rows(X):
    shape = np.shape(X)
    return int(shape[0]) if len(shape) > 1 else 1


# Count hooks. before(counts, name, args) runs ahead of the call,
# after(tracer, name, out, exc) once it has returned or raised.


def _count_matrices(counts, name, args):
    counts[name + ".matrices"] += _batch(args[0])


def _count_points(counts, name, args):
    counts[name + ".points"] += _rows(args[1])


def _count_singular_values(counts, name, args):
    M = np.asarray(args[0])
    m = _batch(M)
    counts[name + ".matrices"] += m
    # the library takes the Jacobi route for a whole batch unless every
    # matrix in it is exactly symmetric
    if not (M == np.swapaxes(M, -1, -2)).all():
        counts[name + ".nonsym_matrices"] += m


def _after_certify(tracer, name, out, exc):
    if out is not None and out.passed:
        tracer.counts[name + ".passed"] += 1


def _after_tune(tracer, name, out, exc):
    history = out.history if out is not None else getattr(exc, "history", ())
    tracer.counts[name + ".steps"] += len(history)
    if tracer.active["staircase.run_stage"]:
        tracer.counts["staircase.atom_cache.misses"] += 1


def _after_run_stage(tracer, name, out, exc):
    if out is None:
        return
    atoms, _, cert = out
    key = "staircase.stalled_stages" if cert.stalled else "staircase.live_stages"
    tracer.counts[key] += 1
    tracer.counts["staircase.atom_cache.live_cells"] += sum(
        1 for a in atoms if not a.is_zero)


def _after_write_run_dir(tracer, name, out, exc):
    if out is not None:
        tracer.counts["report.bytes_written"] += sum(
            os.path.getsize(p) for p in out.values())


# (module, attribute or Class.method, before hook, after hook); the span
# and metric name is "module.attribute"
TARGETS = (
    ("invariants", "ck", _count_matrices, None),
    ("invariants", "op_norm", _count_matrices, None),
    ("invariants", "polar_decompose", _count_matrices, None),
    ("invariants", "singular_values", _count_singular_values, None),
    ("atom", "PerturbationAtom.value_grad_hess", _count_points, None),
    ("atom", "VectorAtom.displacement_jacobian", _count_points, None),
    ("atom", "certify_atom", None, _after_certify),
    ("atom", "tune_atom", None, _after_tune),
    ("staircase", "run_construction", None, None),
    ("staircase", "run_first_order", None, None),
    ("staircase", "plan_stage", None, None),
    ("staircase", "run_stage", None, _after_run_stage),
    ("staircase", "field_invariant_integrals", None, None),
    ("fields", "ScalarFieldC2.evaluate_many", _count_points, None),
    ("fields", "integrate_on_partition", None, None),
    ("fields", "modulus_of_continuity", None, None),
    ("measures", "ck_mass", None, None),
    ("measures", "weakstar_gap", None, None),
    ("measures", "density_trace", None, None),
    ("measures", "holder_distance", None, None),
    ("config", "parse_config", None, None),
    ("report", "write_run_dir", None, _after_write_run_dir),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.active = defaultdict(int)

    def span(self, name, fn, before=None, after=None):
        """fn wrapped so that each call records one span."""
        spans, stack, counts, active = (self.spans, self.stack, self.counts,
                                        self.active)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(counts, name, args)
            idx = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            active[name] += 1
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as err:
                exc = err
                raise
            finally:
                record[2] = clock()
                stack.pop()
                active[name] -= 1
                if after is not None:
                    after(self, name, out, exc)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target for the duration of the block."""
        mods = [importlib.import_module(m) for m in MODULES]
        undo = []
        try:
            for mod_name, path, before, after in TARGETS:
                name = f"{mod_name}.{path}"
                home = importlib.import_module("degenhess." + mod_name)
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self.span(name, original, before, after))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(home, path)
                wrapped = self.span(name, original, before, after)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            undo.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(out)

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "names": names,
                "columns": ["name", "start_s", "end_s", "parent"],
                "spans": [[index[n], round(a - t0, 9), round(b - t0, 9), p]
                          for n, a, b, p in self.spans],
            }, fh, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Every per-layer metric of the traced round, by name, as (value, unit)."""
    s = tracer.summary()
    c = tracer.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def self_s(name):
        return s.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return s.get(name, {}).get("total_s", 0.0)

    m = {}
    for name in ("invariants.ck", "invariants.op_norm",
                 "invariants.polar_decompose"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".matrices"] = (c[name + ".matrices"], "count")
        m[name + ".self_s"] = (self_s(name), "s")
    sv = "invariants.singular_values"
    m[sv + ".calls"] = (calls(sv), "count")
    m[sv + ".matrices"] = (c[sv + ".matrices"], "count")
    m[sv + ".nonsym_matrices"] = (c[sv + ".nonsym_matrices"], "count")
    m[sv + ".self_s"] = (self_s(sv), "s")
    m[sv + ".matrices_per_s"] = (_ratio(c[sv + ".matrices"], self_s(sv)), "1/s")

    vgh = "atom.PerturbationAtom.value_grad_hess"
    m[vgh + ".points"] = (c[vgh + ".points"], "count")
    m[vgh + ".self_s"] = (self_s(vgh), "s")
    m[vgh + ".points_per_s"] = (_ratio(c[vgh + ".points"], self_s(vgh)), "1/s")
    dj = "atom.VectorAtom.displacement_jacobian"
    m[dj + ".points"] = (c[dj + ".points"], "count")
    m[dj + ".self_s"] = (self_s(dj), "s")
    ca = "atom.certify_atom"
    m[ca + ".calls"] = (calls(ca), "count")
    m[ca + ".self_s"] = (self_s(ca), "s")
    m[ca + ".pass_ratio"] = (_ratio(c[ca + ".passed"], calls(ca)), "ratio")
    ta = "atom.tune_atom"
    m[ta + ".calls"] = (calls(ta), "count")
    m[ta + ".steps"] = (c[ta + ".steps"], "count")
    m[ta + ".self_s"] = (self_s(ta), "s")
    m[ta + ".total_s"] = (total_s(ta), "s")

    for name in ("staircase.run_construction", "staircase.run_first_order",
                 "staircase.plan_stage", "staircase.run_stage",
                 "staircase.field_invariant_integrals"):
        m[name + ".self_s"] = (self_s(name), "s")
    # stage quadrature runs in run_stage's children (value_grad_hess, ck,
    # singular_values), so its inclusive time is what a stage costs
    m["staircase.run_stage.total_s"] = (total_s("staircase.run_stage"), "s")
    m["staircase.live_stages"] = (c["staircase.live_stages"], "count")
    m["staircase.stalled_stages"] = (c["staircase.stalled_stages"], "count")
    live = c["staircase.atom_cache.live_cells"]
    hits = max(0.0, live - c["staircase.atom_cache.misses"])
    m["staircase.atom_cache.live_cells"] = (live, "count")
    m["staircase.atom_cache.hit_ratio"] = (_ratio(hits, live), "ratio")

    ev = "fields.ScalarFieldC2.evaluate_many"
    m[ev + ".points"] = (c[ev + ".points"], "count")
    m[ev + ".self_s"] = (self_s(ev), "s")
    for name in ("fields.integrate_on_partition",
                 "fields.modulus_of_continuity"):
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    for name in ("measures.ck_mass", "measures.weakstar_gap",
                 "measures.density_trace", "measures.holder_distance",
                 "config.parse_config", "report.write_run_dir"):
        m[name + ".self_s"] = (self_s(name), "s")
    for name in ("measures.ck_mass", "measures.weakstar_gap",
                 "report.write_run_dir"):
        m[name + ".total_s"] = (total_s(name), "s")
    m["report.bytes_written"] = (c["report.bytes_written"], "B")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


# Which end-to-end metric each layer group should move, and on which
# workload. Printed by `run.py --describe`.
LAYER_MAP = (
    ("invariants.{ck,op_norm,polar_decompose}.*, invariants.singular_values.*",
     "wall_s on stair-vector (Jacobi path) and on stair-scalar"),
    ("atom.PerturbationAtom.value_grad_hess.*, "
     "atom.VectorAtom.displacement_jacobian.*, atom.certify_atom.*, "
     "atom.tune_atom.*",
     "wall_s on atom-suite; stair-scalar almost unchanged"),
    ("staircase.run_stage.self_s, staircase.plan_stage.self_s, "
     "staircase.live_stages, staircase.stalled_stages, "
     "staircase.atom_cache.hit_ratio",
     "wall_s on stair-scalar; absent from atom-suite"),
    ("fields.ScalarFieldC2.evaluate_many.*, "
     "fields.{integrate_on_partition,modulus_of_continuity}.*, "
     "measures.*.self_s, staircase.field_invariant_integrals.self_s",
     "wall_s on measures-readback"),
    ("config.parse_config.self_s, report.write_run_dir.self_s, "
     "report.bytes_written",
     "wall_s on stair-scalar (the degenhess run path)"),
    ("trace.overhead_s, trace.spans",
     "none: the cost of tracing itself, traced minus untraced round"),
)
