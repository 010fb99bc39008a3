"""Measured norms, Hessian-measure estimates and weak-star diagnostics.

Everything here re-measures committed fields from scratch rather than
trusting the construction's own bookkeeping, so the same quantity is
always available through two independent code paths. Quadrature follows
the stage integrator's panel alignment: axis panels snap to the
breakpoints of any committed atom covering a cell, which keeps the
oscillatory integrands resolvable at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from degenhess.fields import CubePartition
from degenhess.invariants import ck, op_norm
from degenhess.staircase import (
    StairConfig,
    _CellMatrix,
    _MODULUS_PAIRS,
    _SUP_C1_SAMPLES,
    _holder_radii,
    _holder_table,
    _is_vector,
    _partition_integrals,
    _rng,
    _sup_c1_distance,
    field_invariant_integrals,
)


class MeasureCheckError(ValueError):
    """A measured quantity violated the bound it is asserted against."""


# --------------------------------------------------------------- measures


@dataclass(frozen=True, eq=False)
class HessianMeasure:
    """Per-cube masses of the k-th invariant over a uniform grid.

    masses[i] approximates the integral of C_k over cube i of the level
    partition (row-major cube order), errors[i] is the quadrature error
    estimate for that cube. stage is the number of committed layers of
    the measured field, None when unknown.
    """

    stage: int | None
    level: int
    box: object
    masses: np.ndarray
    errors: np.ndarray
    total: float
    total_error: float

    def __post_init__(self):
        bad = self.masses < -(self.errors + 1e-12)
        if bad.any():
            raise MeasureCheckError(
                "negative cube mass beyond quadrature error (min %g)"
                % float(self.masses.min())
            )

    @property
    def cell_volume(self):
        return float(np.prod(np.array(self.box.edges) / self.level))

    def density_at(self, x):
        """Cube-averaged density at x: (mass/|Q|, error/|Q|)."""
        part = CubePartition(self.box, self.level)
        idx = part.locate(np.asarray(x, dtype=float)[None, :])[0]
        flat = int(
            np.ravel_multi_index(tuple(idx), (self.level,) * self.box.n)
        )
        vol = self.cell_volume
        return float(self.masses[flat]) / vol, float(self.errors[flat]) / vol

    def csv_rows(self):
        """(cube id, mass) pairs in the partition's cube order."""
        return [(i, float(m)) for i, m in enumerate(self.masses)]


def _measure(stage, level, box, masses, errors):
    masses = np.asarray(masses, dtype=float).ravel()
    errors = np.asarray(errors, dtype=float).ravel()
    return HessianMeasure(
        stage=stage,
        level=int(level),
        box=box,
        masses=masses,
        errors=errors,
        total=float(masses.sum()),
        total_error=float(errors.sum()),
    )


def stage_measures(result):
    """Mass measures for every stage of a finished run, base included.

    Entry 0 is the base field on the first stage's partition, entry j
    reuses stage j's certificate masses. No new quadrature happens here.
    """
    if not result.stages:
        raise ValueError("run has no completed stages")
    box = result.field.box
    first = result.stages[0]
    out = [
        _measure(
            0,
            first.schedule.m_j,
            box,
            first.certificate.masses_prev,
            first.certificate.mass_errs_prev,
        )
    ]
    for rec in result.stages:
        cert = rec.certificate
        out.append(
            _measure(cert.j, cert.m_j, box, cert.masses_new, cert.mass_errs_new)
        )
    return tuple(out)


def ck_mass(f, k, level, *, config=None):
    """Per-cube quadrature of C_k of the field's matrix at a level grid.

    The level must be compatible with any committed stage partitions
    (one must divide the other) so cube boundaries never cross atom
    supports.
    """
    if not isinstance(level, int) or level < 1:
        raise ValueError("level must be a positive integer")
    for layer in getattr(f, "layers", ()):
        part = getattr(layer, "partition", None)
        if part is None:
            continue
        if level % part.m != 0 and part.m % level != 0:
            raise ValueError(
                f"level {level} incompatible with stage partition {part.m}"
            )
    config = config or StairConfig()
    partition = CubePartition(f.box, level)
    masses, _, errs, _ = field_invariant_integrals(
        f, partition, k, q=float(k), config=config
    )
    return _measure(len(getattr(f, "layers", ())), level, f.box, masses, errs)


def mass_bound_check(result):
    """Stage totals against the run's mass bound K.

    Returns one row per stage measure: (stage, total, error, bound,
    passed). The bound is the base mass plus the full geometric tail,
    as recorded on the run.
    """
    rows = []
    for meas in stage_measures(result):
        ok = meas.total <= result.mass_bound_K + meas.total_error
        rows.append(
            (meas.stage, meas.total, meas.total_error, result.mass_bound_K, ok)
        )
    return tuple(rows)


# ---------------------------------------------------------------- norms


def sobolev_seminorm(f, p, *, norm="frobenius", level=None, config=None):
    """Integral p-seminorm of the field's matrix: (sum of ||M||^p)^(1/p).

    M is the Hessian for scalar fields and the Jacobian for first-order
    maps. Frobenius is the default norm, operator is available for
    comparison against operator-norm budgets.
    """
    if p < 1:
        raise ValueError("requires p >= 1")
    if norm not in ("frobenius", "operator"):
        raise ValueError("norm must be 'frobenius' or 'operator'")
    config = config or StairConfig()
    if level is None:
        ms = [
            layer.partition.m
            for layer in getattr(f, "layers", ())
            if getattr(layer, "partition", None) is not None
        ]
        level = max(ms) if ms else 4

    partition = CubePartition(f.box, int(level))

    def integrand(ci, cell):
        matrix = _CellMatrix(f, partition, cell)

        def fn(grid):
            M = matrix(grid)
            frob = np.sqrt((M * M).sum(axis=(1, 2)))
            return np.stack([frob**p, op_norm(M) ** p])

        return fn

    vals, _, _ = _partition_integrals(f, partition, integrand, 2, config)
    totals = vals.sum(axis=0)
    pick = totals[0] if norm == "frobenius" else totals[1]
    return float(pick) ** (1.0 / p)


# ------------------------------------------------------------ weak star


@dataclass(frozen=True)
class WeakstarGap:
    """Measured pairing gap of consecutive stage measures with one test
    function, together with the bound it is asserted against.

    Iterates as (gap, bound) so callers can unpack the headline pair.
    The bound is sup|phi| tau^j + C K 2^-j sup|grad phi| with C taken
    from the cube geometry, C = sqrt(n) (cell edge) 2^j.
    """

    gap: float
    bound: float
    quad_error: float
    sup_phi: float
    sup_grad_phi: float
    tau_term: float
    diameter_term: float
    j: int
    level: int

    def __iter__(self):
        yield self.gap
        yield self.bound

    @property
    def passed(self):
        return self.gap <= self.bound + self.quad_error


def _phi_values(phi, pts):
    out = phi(pts)
    if isinstance(out, tuple) and len(out) == 2:
        out = out[0]
    return np.asarray(out, dtype=float).ravel()


def _phi_sups(phi, box, seed=0, samples=4096):
    n = box.n
    axes = [np.linspace(lo, hi, 17) for lo, hi in zip(box.lo, box.hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    rng = _rng(seed, 23)
    rand = np.array(box.lo) + rng.random((samples, n)) * np.array(box.edges)
    pts = np.concatenate([pts, rand])
    out = phi(pts)
    if isinstance(out, tuple) and len(out) == 2:
        vals = np.asarray(out[0], dtype=float).ravel()
        grads = np.asarray(out[1], dtype=float)
        return float(np.abs(vals).max()), float(
            np.linalg.norm(grads, axis=1).max()
        )
    vals = np.asarray(out, dtype=float).ravel()
    # no analytic gradient supplied, fall back to central differences
    h = 1e-6 * min(box.edges)
    comps = []
    for a in range(n):
        e = np.zeros(n)
        e[a] = h
        comps.append((_phi_values(phi, pts + e) - _phi_values(phi, pts - e))
                     / (2 * h))
    grads = np.stack(comps, axis=-1)
    return float(np.abs(vals).max()), float(np.linalg.norm(grads, axis=1).max())


def _extends(f_j, f_prev):
    """True when f_j is f_prev plus further layers on the same base."""
    if getattr(f_j, "base", None) is not getattr(f_prev, "base", None):
        return False
    prev = tuple(getattr(f_prev, "layers", ()))
    cur = tuple(getattr(f_j, "layers", ()))
    return len(cur) >= len(prev) and cur[: len(prev)] == prev


def _extra_layers_zero(f_j, f_prev):
    # the pairing gap vanishes identically only when the two fields are
    # the same construction up to committed all-zero layers
    if f_j is f_prev:
        return True
    if not _extends(f_j, f_prev):
        return False
    for layer in f_j.layers[len(f_prev.layers):]:
        atoms = getattr(layer, "atoms", None)
        if atoms is None:
            return False
        if any(not a.is_zero for a in atoms):
            return False
    return True


def weakstar_gap(f_j, f_prev, phi, tau, K, *, k, j=None, level=None,
                 config=None):
    """Pairing gap of consecutive invariant measures against phi.

    gap = |integral of (C_k(M_j) - C_k(M_prev)) phi| measured by aligned
    quadrature; the bound is sup|phi| tau^j + C K 2^-j sup|grad phi|.
    Raises MeasureCheckError when the gap exceeds bound plus quadrature
    error, since the construction guarantees it never should.

    j defaults to the committed layer count of f_j. A stalled stage
    reuses the previous field, so pass j explicitly when stepping
    through a run's stages.
    """
    if j is None:
        j = len(getattr(f_j, "layers", ()))
        if j == 0:
            raise ValueError("stage index j not derivable, pass j=")
    if level is None:
        ms = [
            layer.partition.m
            for layer in getattr(f_j, "layers", ())
            if getattr(layer, "partition", None) is not None
        ]
        level = max(ms) if ms else 4
    config = config or StairConfig()
    box = f_j.box
    n = box.n
    sup_phi, sup_grad = _phi_sups(phi, box)

    if _extra_layers_zero(f_j, f_prev):
        # stalled stage, the fields coincide bitwise
        gap, quad_error = 0.0, 0.0
    else:
        partition = CubePartition(box, int(level))

        def integrand(ci, cell):
            cur = _CellMatrix(f_j, partition, cell)
            prev = _CellMatrix(f_prev, partition, cell)

            def fn(grid):
                dv = cur.ck(cur(grid), k) - prev.ck(prev(grid), k)
                return (dv * _phi_values(phi, grid.points))[None, :]

            return fn

        vals, errs, _ = _partition_integrals(f_j, partition, integrand, 1, config)
        gap = float(abs(vals[:, 0].sum()))
        quad_error = float(errs[:, 0].sum())

    scale = max(box.edges) / int(level)
    cal = math.sqrt(n) * scale * 2.0**j
    tau_term = sup_phi * tau**j
    diameter_term = cal * K * 2.0 ** (-j) * sup_grad
    out = WeakstarGap(
        gap=gap,
        bound=tau_term + diameter_term,
        quad_error=quad_error,
        sup_phi=sup_phi,
        sup_grad_phi=sup_grad,
        tau_term=tau_term,
        diameter_term=diameter_term,
        j=int(j),
        level=int(level),
    )
    if not out.passed:
        raise MeasureCheckError(
            "weak-star gap %.6g exceeds bound %.6g + quadrature error %.6g"
            % (out.gap, out.bound, out.quad_error)
        )
    return out


def test_function_family(n):
    """The fixed probe set for weak-star checks: constants, coordinates,
    one product and one sine. Each entry is (name, phi) with phi giving
    values and analytic gradients.
    """

    def const(X):
        return np.ones(len(X)), np.zeros_like(X)

    def coord(a):
        def phi(X):
            g = np.zeros_like(X)
            g[:, a] = 1.0
            return X[:, a].copy(), g

        return phi

    def product(X):
        g = np.zeros_like(X)
        g[:, 0] = X[:, 1]
        g[:, 1] = X[:, 0]
        return X[:, 0] * X[:, 1], g

    def sine(X):
        g = np.zeros_like(X)
        g[:, 0] = math.pi * np.cos(math.pi * X[:, 0])
        return np.sin(math.pi * X[:, 0]), g

    fam = [("1", const), ("x1", coord(0))]
    if n >= 2:
        fam.append(("x2", coord(1)))
        fam.append(("x1*x2", product))
    fam.append(("sin(pi*x1)", sine))
    return tuple(fam)


# ------------------------------------------------------------- density


@dataclass(frozen=True)
class DensityTrace:
    """Cube-averaged density of the stage measures at one point.

    values[i] is mass(Q(x, stage[i])) / |Q(x, stage[i])|. The decaying
    flag compares the last value against a tau^(j/2)-type envelope from
    the first stage; it is reported, never asserted, and suppressed
    (None) outside the p > k-1 regime or when tau is unknown.
    """

    point: tuple
    nudged: bool
    stages: tuple
    values: tuple
    errors: tuple
    envelope: tuple
    decaying: bool | None
    note: str


def _on_partition_plane(x, box, level):
    t = (np.asarray(x) - np.array(box.lo)) / (np.array(box.edges) / level)
    frac = np.abs(t - np.round(t))
    return bool((frac < 1e-12).any())


def density_trace(x, measures, *, tau=None, p=None, k=None):
    """Density sequence X_j(x) across stage measures.

    Accepts either a sequence of HessianMeasure or a finished run, in
    which case tau, p and k are read off the run. Points on a stage-cube
    boundary are nudged by 1e-9 along (1, ..., 1), recorded in the
    result.
    """
    if hasattr(measures, "stages"):
        run = measures
        measures = stage_measures(run)
        tau = run.tau if tau is None else tau
        p = run.p if p is None else p
        k = run.k if k is None else k
    measures = tuple(measures)
    if not measures:
        raise ValueError("no measures supplied")
    box = measures[0].box
    x = np.asarray(x, dtype=float)
    if not ((x > np.array(box.lo)).all() and (x < np.array(box.hi)).all()):
        raise ValueError("point must be interior to the domain box")
    nudged = False
    if any(_on_partition_plane(x, box, m.level) for m in measures):
        x = x + 1e-9
        nudged = True
    stages = tuple(m.stage for m in measures)
    pairs = [m.density_at(x) for m in measures]
    values = tuple(v for v, _ in pairs)
    errors = tuple(e for _, e in pairs)

    note = ""
    if p is not None and k is not None and p <= k - 1:
        note = "p <= k-1: outside the singular regime, decay flag suppressed"

    envelope = []
    decaying = None
    first = next((i for i, s in enumerate(stages) if s and s >= 1), None)
    for i, s in enumerate(stages):
        if first is None or s is None or s < 1 or tau is None:
            envelope.append(None)
        else:
            envelope.append(values[first] * tau ** ((s - 1) / 2.0))
    if (
        first is not None
        and tau is not None
        and not note
        and len(stages) > first + 1
    ):
        slack = errors[-1] + errors[first]
        decaying = values[-1] <= envelope[-1] + slack
    return DensityTrace(
        point=tuple(float(v) for v in x),
        nudged=nudged,
        stages=stages,
        values=values,
        errors=errors,
        envelope=tuple(envelope),
        decaying=decaying,
        note=note,
    )


# -------------------------------------------------------------- Hoelder


@dataclass(frozen=True)
class HolderDistance:
    """Sampled C^(1,alpha) distance split into its three parts.

    total = sup|f-g| + sup|grad f - grad g| + sampled alpha-quotient of
    the gradient difference. For first-order maps the gradient part is
    folded into the quotient of the values and sup_gradient stays 0.
    All three parts are sampled lower estimates of the true sups.
    """

    total: float
    sup_value: float
    sup_gradient: float
    holder_quotient: float
    alpha: float
    pairs: int

    def __float__(self):
        return self.total


def holder_distance(f, g, alpha, pairs_per_radius=_MODULUS_PAIRS, seed=0,
                    samples=_SUP_C1_SAMPLES, radii=None):
    """Sampled Hoelder-scale distance between two fields on one box."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    if tuple(f.box.lo) != tuple(g.box.lo) or tuple(f.box.hi) != tuple(g.box.hi):
        raise ValueError("fields live on different boxes")
    if _is_vector(f) != _is_vector(g):
        raise TypeError("cannot mix scalar and first-order fields")
    radii = list(radii) if radii is not None else _holder_radii(f.box)
    sup_v, sup_g = _sup_c1_distance(f, g, samples, seed)
    quot = max(_holder_table(f, g, alpha, radii, pairs_per_radius, seed).values)
    return HolderDistance(
        total=sup_v + sup_g + quot,
        sup_value=sup_v,
        sup_gradient=sup_g,
        holder_quotient=float(quot),
        alpha=float(alpha),
        pairs=pairs_per_radius * len(radii),
    )
