"""Run artifacts: per-stage certificate tables, per-stage mass tables, a
deterministic text summary, and the on-disk layout of a run directory.

A run directory holds config.txt (canonical config echo), summary.txt
(the text report, reproducible byte for byte under a fixed seed),
stage_XX.csv (one row per cube: cube id then the atom certificate
columns), measures_stage_XX.csv (cube id, measured mass; stage 00 is
the base field), and timings.txt (wall-clock seconds, the only file
excluded from determinism claims).
"""

from __future__ import annotations

import os

import numpy as np

from degenhess.atom import CERTIFICATE_COLUMNS
from degenhess.config import serialize_config
from degenhess.measures import density_trace, mass_bound_check, stage_measures

STAGE_COLUMNS = ("cube",) + CERTIFICATE_COLUMNS

# cap on CSV data rows; partitions beyond this are truncated with a note
ROW_CAP = 100_000


def _g(v):
    return "%.17g" % float(v)


def _pf(flag):
    return "PASS" if flag else "FAIL"


def write_stage_csv(record, fh):
    """One certificate row per cube; returns the number of data rows."""
    fh.write(",".join(STAGE_COLUMNS) + "\n")
    certs = record.certificate.atom_certs
    if not certs:
        fh.write("# stalled: previous field carried, no atom rows\n")
        return 0
    rows = 0
    for ci, cert in enumerate(certs):
        if rows >= ROW_CAP:
            fh.write(f"# truncated: {len(certs) - rows} rows omitted\n")
            break
        fh.write(",".join([str(ci)] + cert.csv_row()) + "\n")
        rows += 1
    return rows


def write_measures_csv(measure, fh):
    """Cube id and measured mass for one stage's partition."""
    fh.write("cube,mass\n")
    rows = 0
    for ci, mass in measure.csv_rows():
        if rows >= ROW_CAP:
            fh.write(f"# truncated: {measure.masses.size - rows} rows omitted\n")
            break
        fh.write(f"{ci},{_g(mass)}\n")
        rows += 1
    return rows


def soft_failures(result):
    """Human-readable list of every failed guarantee; empty means clean."""
    out = []
    for rec in result.stages:
        c = rec.certificate
        if not c.passed:
            failed = " ".join(name for name, ok in c.checks.items() if not ok)
            out.append(f"stage {c.j}: certificate failed ({failed})")
    if not result.grad2_budget_pass:
        out.append("second-derivative budget exceeded")
    if not result.c1a_pass:
        out.append("closeness guarantee failed")
    for i, (lhs, rhs, ok) in enumerate(result.interpolation_checks, start=1):
        if not ok:
            out.append(f"stage {i}: interpolation bound failed")
    if result.stages:
        for stage, total, err, bound, ok in mass_bound_check(result):
            if not ok:
                out.append(
                    f"stage {stage}: mass total exceeds the uniform bound"
                )
    return out


def _density_points(result):
    rng = np.random.default_rng(result.seed)
    box = result.base.box
    lo = np.array(box.lo)
    edges = np.array(box.edges)
    pts = lo + (0.1 + 0.8 * rng.random((3, box.n))) * edges
    return [tuple(float(v) for v in row) for row in pts]


def run_report_text(result, config=None):
    """Deterministic structured summary; no timestamps, %.17g floats."""
    L = ["staircase run summary", "====================="]

    if config is not None:
        L += ["", "[config]"]
        L += serialize_config(config).rstrip("\n").splitlines()

    L += [
        "",
        "[parameters]",
        f"k = {result.k}",
        f"p = {_g(result.p)}",
        f"q = {_g(result.q)}",
        f"alpha = {_g(result.alpha)}",
        f"eps = {_g(result.eps)}",
        f"tau = {_g(result.tau)}",
        f"J = {result.J}",
        f"seed = {result.seed}",
        f"completed_stages = {len(result.stages)}",
        f"live_stages = {result.live_stages} of {result.J}",
    ]

    for rec in result.stages:
        sch, c = rec.schedule, rec.certificate
        qc = c.quadrature
        flags = []
        if c.stalled:
            flags.append("stalled")
        if c.diameter_waived:
            flags.append("diameter-waived")
        live = sum(
            1 for i in range(len(c.atom_certs))
            if i not in set(c.floor_skips) | set(c.osc_skips)
        )
        L += [
            "",
            f"[stage {c.j}]",
            f"m_j = {c.m_j}",
            f"K_j = {_g(sch.K_j)}",
            f"eps_j = {_g(c.eps_j)}",
            f"delta_j = {_g(sch.delta_j)}",
            f"beta_j = {_g(sch.beta_j)}",
            f"flags = {' '.join(flags) if flags else 'none'}",
            f"atoms = {len(c.atom_certs)} cubes, {live} live, "
            f"{len(c.floor_skips)} floor-skipped, {len(c.osc_skips)} "
            f"oscillation-skipped, {len(c.tuning_failures)} tuning failures",
            f"sup_c1 = {_g(c.sup_c1)} (allowance {_g(c.eps_j)})",
            f"c2_margin_min = {_g(c.c2_margin_min)} "
            f"({c.c2_samples} samples)",
            f"I_prev = {_g(c.I_prev)} (err {_g(c.I_prev_err)})",
            f"I_new = {_g(c.I_new)} (err {_g(c.I_new_err)})",
            f"ratio = {_g(c.ratio)} (bound {_g(c.ratio_bound)}, "
            f"slack {_g(c.ratio_slack)})",
            f"drift_max_rel = {_g(c.drift_max_rel)}",
            f"quadrature = {qc.classes} classes integrated for {qc.cells} "
            f"cells, {qc.points} integrand points ({qc.full_points} "
            f"full-grid), {qc.thinned} cells thinned",
            "checks: "
            + ", ".join(f"{name} {_pf(ok)}" for name, ok in c.checks.items())
            + f" -> stage {_pf(c.passed)}",
        ]
        for note in c.notes:
            L.append(f"note: {note}")

    L += [
        "",
        "[traces]",
        "I_trace = " + " ".join(_g(v) for v in result.I_trace),
        "ratio_trace = " + " ".join(_g(v) for v in result.ratio_trace),
        "I_consistency = " + " ".join(_g(v) for v in result.I_consistency),
        "grad2_trace = " + " ".join(_g(v) for v in result.grad2_trace),
        "",
        "[budgets]",
        f"second_derivative_lhs = {_g(result.grad2_budget_lhs)}",
        f"second_derivative_rhs = {_g(result.grad2_budget_rhs)}",
        f"second_derivative_budget = {_pf(result.grad2_budget_pass)}",
        f"base_seminorm_qq = {_g(result.base_seminorm_qq)} "
        f"(err {_g(result.base_seminorm_err)})",
        f"mass_bound_K = {_g(result.mass_bound_K)}",
        "mass totals:",
    ]
    if result.stages:
        for stage, total, err, bound, ok in mass_bound_check(result):
            L.append(
                f"  stage {stage}: total {_g(total)} (err {_g(err)}) "
                f"bound {_g(bound)} {_pf(ok)}"
            )
    else:
        L.append("  none: no completed stages")

    sup_v, sup_g, quot = result.c1a_parts
    L += [
        "",
        "[closeness]",
        f"c1a_distance = {_g(result.c1a_distance)} "
        f"(allowance {_g(result.eps)}) {_pf(result.c1a_pass)}",
        f"c1a_parts: value {_g(sup_v)}, gradient {_g(sup_g)}, "
        f"holder {_g(quot)}",
        "stage interpolation:",
    ]
    for i, (lhs, rhs, ok) in enumerate(result.interpolation_checks, start=1):
        L.append(f"  stage {i}: measured {_g(lhs)} bound {_g(rhs)} {_pf(ok)}")
    prof = result.little_holder
    L.append("gradient modulus profile:")
    for r, v in zip(prof.radii, prof.values):
        L.append(f"  radius {_g(r)}: quotient {_g(v)}")

    L += ["", "[density]"]
    if result.stages:
        measures = stage_measures(result)
        for pt in _density_points(result):
            trace = density_trace(pt, measures, tau=result.tau, p=result.p,
                                  k=result.k)
            coords = ", ".join(_g(v) for v in trace.point)
            vals = " ".join(_g(v) for v in trace.values)
            L.append(f"point ({coords}): {vals}")
            L.append(f"  decaying = {trace.decaying}"
                     + (f" ({trace.note})" if trace.note else ""))
    else:
        L.append("no completed stages")

    fails = soft_failures(result)
    L += ["", "[verdict]"]
    if fails:
        L += [f"issue: {msg}" for msg in fails]
    L.append(f"overall = {_pf(not fails)}")
    return "\n".join(L) + "\n"


def write_run_dir(result, config, run_dir):
    """Write every artifact for a finished run; returns {name: path}."""
    os.makedirs(run_dir, exist_ok=True)
    paths = {}

    cfg_path = os.path.join(run_dir, "config.txt")
    with open(cfg_path, "w") as fh:
        fh.write(serialize_config(config))
    paths["config"] = cfg_path

    summary_path = os.path.join(run_dir, "summary.txt")
    with open(summary_path, "w") as fh:
        fh.write(run_report_text(result, config))
    paths["summary"] = summary_path

    for rec in result.stages:
        j = rec.certificate.j
        p = os.path.join(run_dir, f"stage_{j:02d}.csv")
        with open(p, "w") as fh:
            write_stage_csv(rec, fh)
        paths[f"stage_{j:02d}"] = p

    if result.stages:
        for stage_idx, measure in enumerate(stage_measures(result)):
            p = os.path.join(run_dir, f"measures_stage_{stage_idx:02d}.csv")
            with open(p, "w") as fh:
                write_measures_csv(measure, fh)
            paths[f"measures_{stage_idx:02d}"] = p

    timing_path = os.path.join(run_dir, "timings.txt")
    with open(timing_path, "w") as fh:
        fh.write("# wall-clock seconds per stage; not covered by the\n")
        fh.write("# determinism guarantee, everything else in this\n")
        fh.write("# directory is byte-reproducible under a fixed seed\n")
        total = 0.0
        for rec in result.stages:
            fh.write(f"stage {rec.certificate.j:02d} {rec.seconds:.3f}\n")
            total += rec.seconds
        fh.write(f"total {total:.3f}\n")
    paths["timings"] = timing_path
    return paths
