"""Acceptance gate: eleven end-to-end criteria, one pass line each.

Every test measures its criterion at the stated tolerance, records a
single PASS/FAIL line, and asserts. The collected lines land in
build/acceptance_report.txt (git-ignored, since the lines carry wall-clock
seconds) after the module finishes.
"""

import io
import math
import os
import time

import numpy as np
import pytest

from degenhess.atom import CERTIFICATION_SUITE, predicted_contraction, tune_atom
from degenhess.fields import Box, ScalarFieldC2, make_base
from degenhess.invariants import (
    ck,
    lk,
    polar_decompose,
    singular_values,
    sym_eigvals,
)
from degenhess.measures import (
    density_trace,
    test_function_family as probe_family,
    weakstar_gap,
)
from degenhess.report import run_report_text, write_measures_csv, write_stage_csv
from degenhess.measures import stage_measures
from degenhess.staircase import StairConfig, run_construction

REPORT_PATH = os.path.join(os.path.dirname(__file__), "..", "build",
                           "acceptance_report.txt")

_LINES = []


def _record(cid, desc, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"{cid} {desc}: {'PASS' if ok else 'FAIL'}{tail}"
    _LINES.append(line)
    print(line)
    return line


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    yield
    os.makedirs(os.path.dirname(os.path.abspath(REPORT_PATH)), exist_ok=True)
    with open(os.path.abspath(REPORT_PATH), "w") as fh:
        fh.write("acceptance criteria report\n")
        fh.write("==========================\n")
        for line in _LINES:
            fh.write(line + "\n")


def test_a01_invariant_suite():
    rng = np.random.default_rng(101)
    tol = 1e-10
    violations = 0
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        A = rng.standard_normal((10_000, n, n))
        A = 0.5 * (A + A.swapaxes(-1, -2))
        sv = singular_values(A)
        for k in range(2, n + 1):
            c = ck(A, k)
            slack = tol * np.maximum(1.0, np.abs(c))
            topk = np.prod(sv[:, n - k:], axis=1)
            violations += int((c < topk - slack).sum())
            violations += int((c > math.comb(n, k) * topk + slack).sum())
            violations += int((np.abs(lk(A, k)) > c + slack).sum())
            t = rng.uniform(-2.0, 2.0, A.shape[0])
            scaled = ck(t[:, None, None] * A, k)
            target = np.abs(t) ** k * c
            hs = tol * np.maximum(1.0, np.abs(target))
            violations += int((np.abs(scaled - target) > hs).sum())
        O, _ = polar_decompose(rng.standard_normal((A.shape[0], n, n)))
        for rotated in (O @ A, A @ O):
            d = np.abs(ck(rotated, 2) - ck(A, 2))
            violations += int((d > tol * np.maximum(1.0, ck(A, 2))).sum())
        Q, P = polar_decompose(A)
        eye = np.eye(n)
        violations += int((np.abs(Q @ P - A).max(axis=(1, 2)) > tol).sum())
        violations += int(
            (np.abs(Q.swapaxes(-1, -2) @ Q - eye).max(axis=(1, 2)) > tol).sum()
        )
        violations += int((np.abs(P - P.swapaxes(-1, -2)).max(axis=(1, 2))
                           > tol).sum())
        violations += int((sym_eigvals(P).min(axis=-1) < -tol).sum())
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    line = _record(
        "A1", "invariant suite, 10^4 symmetric matrices per n in {2,3,4}",
        ok, f"{violations} violations, {elapsed:.1f} s",
    )
    assert ok, line


def test_a02_left_rotation_identity():
    rng = np.random.default_rng(202)
    tol = 1e-10
    worst = 0.0
    violations = 0
    per_n = (334, 333, 333)
    for n, count in zip((2, 3, 4), per_n):
        A = rng.standard_normal((count, n, n))
        A = 0.5 * (A + A.swapaxes(-1, -2))
        G = rng.standard_normal((count, n, n))
        G = 0.5 * (G + G.swapaxes(-1, -2))
        O, _ = polar_decompose(rng.standard_normal((count, n, n)))
        for k in range(2, n + 1):
            d = np.abs(ck(O @ A + O @ G, k) - ck(A + G, k))
            worst = max(worst, float(d.max()))
            violations += int((d > tol).sum())
    ok = violations == 0
    line = _record(
        "A2", "rotation drops out of C_k(OA + OG), 10^3 triples",
        ok, f"{violations} violations, worst gap {worst:.2e}",
    )
    assert ok, line


def test_a03_atom_certification_suite():
    t0 = time.perf_counter()
    failures = []
    worst_margin = -1.0
    for case in CERTIFICATION_SUITE:
        A = case.as_array()
        n = A.shape[0]
        out = tune_atom(A, Box.unit(n), case.eps0, case.k, case.p,
                        case.tau_bound)
        cert = out.certificate
        bound = predicted_contraction(case.k, case.p) + 0.15
        checks = (
            cert.passed
            and cert.tau_meas <= bound
            and cert.drift_mean <= case.eps0 + cert.drift_err
            and min(cert.resolution) >= 128
        )
        worst_margin = max(worst_margin, cert.tau_meas - bound)
        if not checks:
            failures.append(case.name)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    line = _record(
        "A3", "atom certification on the fixed 20-matrix suite",
        ok, f"{len(failures)} failures, worst tau margin "
            f"{worst_margin:+.3f}, {elapsed:.0f} s",
    )
    assert ok, line


def test_a04_staircase_contraction(quadratic_run, run_wallclock):
    certs = [s.certificate for s in quadratic_run.stages]
    stage_ok = all(
        c.pass_c3 and c.ratio <= c.ratio_bound + c.ratio_slack for c in certs
    )
    total = quadratic_run.I_trace[-1] / quadratic_run.I_trace[0]
    accumulated = 1.0
    for c in certs:
        accumulated *= c.ratio_bound + c.ratio_slack
    elapsed = run_wallclock["quadratic"]
    ok = stage_ok and total <= accumulated and elapsed < 1800.0
    line = _record(
        "A4", "staircase contraction, quadratic base, J=4",
        ok, f"I4/I0 = {total:.4f} <= {accumulated:.4f}, "
            f"stage ratios within bounds, {elapsed:.0f} s",
    )
    assert ok, line


def test_a05_per_cube_mass_stability(quadratic_run):
    certs = [s.certificate for s in quadratic_run.stages]
    bad = [(c.j, c.drift_violations) for c in certs
           if not c.pass_c4 or c.drift_violations]
    worst = max(c.drift_max_rel for c in certs)
    ok = not bad
    line = _record(
        "A5", "per-cube mass drift under tau^j |Q| plus quadrature error",
        ok, f"0 hard violations, worst relative drift {worst:.2e}"
            if ok else f"violations: {bad}",
    )
    assert ok, line


def test_a06_holder_closeness(quadratic_run):
    interp_ok = all(ok for _, _, ok in quadratic_run.interpolation_checks)
    ok = (quadratic_run.c1a_pass
          and quadratic_run.c1a_distance <= quadratic_run.eps
          and interp_ok)
    line = _record(
        "A6", "sampled C^{1,alpha} closeness with per-stage bounds",
        ok, f"distance {quadratic_run.c1a_distance:.5f} <= "
            f"{quadratic_run.eps}, all stage interpolation bounds hold",
    )
    assert ok, line


def test_a07_second_derivative_budget(quadratic_run):
    r = quadratic_run
    n, k, tau = r.base.n, r.k, r.tau
    J = len(r.stages)
    geom = sum(tau ** (i - 1) for i in range(1, J + 1))
    lin = sum(i * tau ** (i - 1) for i in range(1, J + 1))
    c1 = math.comb(n, k) * geom
    ok = r.grad2_budget_pass and r.grad2_budget_lhs <= r.grad2_budget_rhs + 1e-12
    line = _record(
        "A7", "summed Hessian q-seminorms inside the budget",
        ok, f"lhs {r.grad2_budget_lhs:.4f} <= rhs {r.grad2_budget_rhs:.4f}, "
            f"measured C1 = {c1:.4f}, C2 = {lin:.4f}",
    )
    assert ok, line


def test_a08_weakstar_gaps(quadratic_run):
    r = quadratic_run
    names = {"1", "x1", "x1*x2", "sin(pi*x1)"}
    probes = [(nm, phi) for nm, phi in probe_family(2) if nm in names]
    assert len(probes) == 4
    cfg = StairConfig(node_budget=1_000_000)
    checked = 0
    all_ok = True
    for j in range(1, len(r.stages) + 1):
        f_prev = r.base if j == 1 else r.stages[j - 2].field
        f_j = r.stages[j - 1].field
        K = r.stages[j - 1].schedule.K_j
        for nm, phi in probes:
            gap = weakstar_gap(f_j, f_prev, phi, r.tau, K, k=r.k, j=j,
                               config=cfg)
            all_ok = all_ok and gap.passed
            checked += 1
    ok = all_ok and checked == 4 * len(r.stages)
    line = _record(
        "A8", "weak-star gaps under the tau^j plus diameter bound",
        ok, f"{checked} stage/test-function pairs checked",
    )
    assert ok, line


def test_a09_density_comparison(quadratic_run):
    rng = np.random.default_rng(2026)
    pts = 0.1 + 0.8 * rng.random((10, 2))
    bad = 0
    for x in pts:
        tr = density_trace(tuple(x), quadratic_run)
        allowance = tr.errors[-1] + tr.errors[1] + 1e-12
        if not tr.values[-1] <= tr.values[1] + allowance:
            bad += 1
    ok = bad == 0
    line = _record(
        "A9", "X_J at J=4 no larger than X_1 at 10 seeded points",
        ok, f"{10 - bad} of 10 points satisfy the comparison",
    )
    assert ok, line


def test_a10_first_order_contraction(identity_first_order_run):
    r = identity_first_order_run
    certs = [s.certificate for s in r.stages]
    stage_ok = all(
        c.pass_c3 and c.ratio <= c.ratio_bound + c.ratio_slack for c in certs
    )
    total = r.I_trace[-1] / r.I_trace[0]
    accumulated = 1.0
    for c in certs:
        accumulated *= c.ratio_bound + c.ratio_slack
    ok = stage_ok and total <= accumulated
    line = _record(
        "A10", "first-order identity run meets the contraction criterion",
        ok, f"I3/I0 = {total:.4f} <= {accumulated:.4f}",
    )
    assert ok, line


def _render_all(result):
    parts = [run_report_text(result)]
    for rec in result.stages:
        buf = io.StringIO()
        write_stage_csv(rec, buf)
        parts.append(buf.getvalue())
    for measure in stage_measures(result):
        buf = io.StringIO()
        write_measures_csv(measure, buf)
        parts.append(buf.getvalue())
    return "\x00".join(parts)


def test_a11_deterministic_reports():
    box = Box((0.0, 0.0), (1.0, 1.0))
    cfg = StairConfig(seed=11, tau=0.9, node_budget=2_000_000)

    def one_run():
        w = ScalarFieldC2(
            make_base("quadratic", {"matrix": [[1.0, 0.0], [0.0, 1.0]]}, 2),
            box,
        )
        return _render_all(
            run_construction(w, 2, 1.5, 0.3, 0.1, 4, config=cfg)
        )

    first = one_run()
    second = one_run()
    ok = first == second
    line = _record(
        "A11", "same seed reproduces reports byte for byte",
        ok, f"{len(first)} report bytes compared",
    )
    assert ok, line
