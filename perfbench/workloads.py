"""Workload definitions: seeded inputs, the ops that consume them, and what
each op's output is checked against.

Every workload draws its inputs from a small fixed pool per input class.
The pools come from POOL_SEED, not from the run seed, so that
reference.json can hold the recorded output of every pool entry; the run
seed picks which entries a run uses and in what order (and, on
stair-vector, the rotations, which the output must not depend on).

An op is one call into the library, closed loop: the next op starts when
the previous one returns. A round is the workload's fixed list of ops; a
run repeats rounds while its time budget lasts.

The sizes below are chosen so that one op takes seconds, not minutes, on a
2-core machine: a run measures for tens of seconds and must hold several
ops. Compared with the acceptance fixtures this means quad_points=2 and
eps=0.3 on the staircase runs, J=2 (scalar) and J=1 (first order), and a
node budget of 2e5 on the first-order run.
"""

import math
import os
import shutil

import numpy as np

# Modules, not names: ops look functions up at call time, so the tracer's
# rebinding of module attributes is seen by every op.
from degenhess import atom, config, fields, measures, report, staircase

POOL_SEED = 20171026
POOL_SIZE = 8

# Relative tolerance for every float compared with reference.json. The
# scalar paths reproduce bit for bit on one machine; 1e-9 leaves room for
# another BLAS or compiler. On the first-order path a rotation of the base
# map alone moves I_trace by up to 3e-9 relative (Jacobi route against the
# symmetric route), so that workload gets 1e-8.
RTOL = 1e-9
RTOL_BY_WORKLOAD = {"stair-vector": 1e-8}

STAIR = dict(n=2, k=2, p=1.5, alpha=0.3, eps=0.3, J=2, tau=0.9, seed=11,
             quad_points=2)
VECTOR = dict(k=2, p=1.1, alpha=0.3, eps=0.3, J=1, tau=0.9, seed=3,
              quad_points=2, node_budget=200_000)
ATOM_P = 1.5
ATOM_EPS0 = 0.1
PROBES = ("1", "x1", "x1*x2", "sin(pi*x1)")
DENSITY_GRID = 6
DENSITY_POINTS_PER_OP = 16


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _spread_pair(rng, flip):
    """Two eigenvalues a factor of at least 1.5 apart, in [0.5, 2]."""
    lo = float(rng.uniform(0.5, 1.0))
    hi = float(rng.uniform(1.5, 2.0))
    return (hi, lo) if flip else (lo, hi)


def pools():
    """The fixed input pools, identical for every run seed."""
    rng = np.random.default_rng(POOL_SEED)
    aligned = [_spread_pair(rng, i % 2) for i in range(POOL_SIZE)]
    # rotations within 0.23 rad of the diagonal: closer to an axis the
    # tensor path gets cheaper (1.8 s at 0.22 rad against 3 s), and runs
    # that drew different angles would not be comparable
    rotated = [(_spread_pair(rng, 0),
                math.pi / 4 + float(rng.uniform(-0.23, 0.23)))
               for _ in range(POOL_SIZE)]
    stair = [_spread_pair(rng, i % 2) for i in range(POOL_SIZE)]
    vector = [_spread_pair(rng, i % 2) for i in range(POOL_SIZE)]
    return {"aligned": aligned, "rotated": rotated, "stair": stair,
            "vector": vector}


def density_points():
    """Candidate points for density traces, off every partition plane."""
    t = (np.arange(DENSITY_GRID) + 0.37) / DENSITY_GRID
    return [(float(a), float(b)) for a in t for b in t]


# ------------------------------------------------------------ observations


def _rel(err, value):
    return float(err) / abs(float(value))


def _stair_config_text(diag, out_dir):
    s = STAIR
    return (
        f"n = {s['n']}\nk = {s['k']}\np = {s['p']}\nalpha = {s['alpha']}\n"
        f"eps = {s['eps']}\nJ = {s['J']}\ntau = {s['tau']}\n"
        f"seed = {s['seed']}\nquad_points = {s['quad_points']}\n"
        f"out_dir = {out_dir}\n"
        f"[base]\nfamily = quadratic\n"
        f"matrix = {diag[0]!r} 0 ; 0 {diag[1]!r}\n"
    )


def _run_observation(result):
    live = [s for s in result.stages if not s.certificate.stalled]
    certs = [s.certificate for s in result.stages]
    atom_points = sum(c.samples for cert in certs for c in cert.atom_certs)
    obs = {
        "I_trace": [float(v) for v in result.I_trace],
        "live_stages": len(live),
        "stalled_stages": len(result.stages) - len(live),
        "c2_samples": sum(int(c.c2_samples) for c in certs),
        "atom_cert_points": int(atom_points),
    }
    last = live[-1].certificate if live else certs[-1]
    return obs, _rel(last.I_new_err, last.I_new)


def _stair_ok(result):
    return result.all_passed and not report.soft_failures(result)


class Op:
    """One library call: kind names the call, key the pool entry whose
    recorded output the result must match."""

    def __init__(self, kind, key, fn):
        self.kind = kind
        self.key = key
        self.fn = fn


# Each op function returns (passed, observation, relative error bar or
# None). The observation is what reference.json records for the op's key.


def atom_op(matrix):
    A = np.asarray(matrix, dtype=float)
    bound = atom.certification_bound(2, ATOM_P)
    out = atom.tune_atom(A, fields.Box.unit(2), ATOM_EPS0, 2, ATOM_P,
                             bound)
    c = out.certificate
    obs = {
        "tau_meas": float(c.tau_meas),
        "tau_err": float(c.tau_err),
        "steps": len(out.history),
        "periods": int(out.atom.periods),
        "samples": int(c.samples),
        "resolution": [int(r) for r in c.resolution],
    }
    return bool(c.passed), obs, _rel(c.tau_err, c.tau_meas)


def stair_scalar_op(diag, run_dir):
    """The `degenhess run` path in-process, into a scratch run directory."""
    cfg = config.parse_config(_stair_config_text(diag, run_dir))
    field = cfg.build_field()
    result = staircase.run_construction(
        field, cfg.k, cfg.p, cfg.alpha, cfg.eps, cfg.J,
        config=cfg.stair_config(),
    )
    report.write_run_dir(result, cfg, cfg.out_dir)
    shutil.rmtree(run_dir)
    obs, err = _run_observation(result)
    return _stair_ok(result), obs, err


def stair_vector_op(diag, theta):
    s = VECTOR
    base = staircase.LinearMapBase(_rotation(theta) @ np.diag(diag))
    u = staircase.VectorFieldC1(base, fields.Box((0.0, 0.0), (1.0, 1.0)))
    cfg = staircase.StairConfig(
        seed=s["seed"], tau=s["tau"], node_budget=s["node_budget"],
        quad_points=s["quad_points"],
    )
    result = staircase.run_first_order(
        u, s["k"], s["p"], s["alpha"], s["eps"], s["J"], config=cfg
    )
    obs, err = _run_observation(result)
    return result.all_passed, obs, err


def build_scalar_run(diag):
    """The prebuilt run the measures-readback ops query."""
    s = STAIR
    base = fields.make_base("quadratic", {"matrix": np.diag(diag)}, 2)
    w = fields.ScalarFieldC2(base, fields.Box((0.0, 0.0), (1.0, 1.0)))
    cfg = staircase.StairConfig(seed=s["seed"], tau=s["tau"],
                                quad_points=s["quad_points"])
    return staircase.run_construction(
        w, s["k"], s["p"], s["alpha"], s["eps"], s["J"], config=cfg
    )


def _measures_config():
    return staircase.StairConfig(quad_points=STAIR["quad_points"])


def ck_mass_op(run):
    level = run.stages[-1].schedule.m_j
    m = measures.ck_mass(run.field, run.k, level, config=_measures_config())
    obs = {"total": m.total, "total_error": m.total_error, "level": level}
    return True, obs, _rel(m.total_error, m.total)


def gap_op(run, probe):
    """weakstar_gap of every stage against one probe function."""
    phi = dict(measures.test_function_family(2))[probe]
    gaps = []
    for j in range(1, len(run.stages) + 1):
        f_prev = run.base if j == 1 else run.stages[j - 2].field
        rec = run.stages[j - 1]
        gaps.append(measures.weakstar_gap(
            rec.field, f_prev, phi, run.tau, rec.schedule.K_j, k=run.k, j=j,
            config=_measures_config(),
        ))
    obs = {"gap": [g.gap for g in gaps], "quad_error": [g.quad_error for g in gaps],
           "bound": [g.bound for g in gaps]}
    err = max(_rel(g.quad_error, g.bound) for g in gaps)
    return all(g.passed for g in gaps), obs, err


def density_op(run, indices):
    """Density traces at some of the candidate points, keyed by index."""
    points = density_points()
    obs = {f"p{i}": list(measures.density_trace(points[i], run).values)
           for i in indices}
    return True, obs, None


def holder_op(run):
    h = measures.holder_distance(run.field, run.base, run.alpha)
    obs = {"total": h.total, "holder_quotient": h.holder_quotient}
    return True, obs, None


# --------------------------------------------------------------- workloads


def _cycle(perm, i):
    return int(perm[i % len(perm)])


class Workload:
    """Inputs of one run: built once in set-up, then asked for rounds."""

    name = ""

    def __init__(self, seed, scratch):
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.pool = pools()

    def round(self, i):
        raise NotImplementedError

    def round_problem(self, records):
        """A check across the ops of one round; None when it holds."""
        return None


class AtomSuite(Workload):
    """Per round: two axis-aligned matrices and one rotated matrix."""

    name = "atom-suite"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.perm_a = self.rng.permutation(POOL_SIZE)
        self.perm_r = self.rng.permutation(POOL_SIZE)

    def round(self, i):
        ops = []
        for a in (_cycle(self.perm_a, 2 * i), _cycle(self.perm_a, 2 * i + 1)):
            A = np.diag(self.pool["aligned"][a])
            ops.append(Op("tune_atom", f"aligned-{a}",
                          lambda A=A: atom_op(A)))
        r = _cycle(self.perm_r, i)
        diag, theta = self.pool["rotated"][r]
        R = _rotation(theta)
        A = R @ np.diag(diag) @ R.T
        ops.append(Op("tune_atom", f"rotated-{r}",
                      lambda A=A: atom_op(A)))
        order = self.rng.permutation(len(ops))
        return [ops[o] for o in order]


class StairScalar(Workload):
    """Per round: one quadratic base oscillating along each axis."""

    name = "stair-scalar"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        half = POOL_SIZE // 2
        self.perm_even = 2 * self.rng.permutation(half)
        self.perm_odd = 2 * self.rng.permutation(half) + 1

    def round(self, i):
        ops = []
        for e in (_cycle(self.perm_even, i), _cycle(self.perm_odd, i)):
            diag = self.pool["stair"][e]
            run_dir = os.path.join(self.scratch, f"run-{i}-{e}")
            ops.append(Op("run", f"stair-{e}",
                          lambda d=diag, r=run_dir: stair_scalar_op(d, r)))
        return ops


class StairVector(Workload):
    """Per round: one diagonal D under two seeded rotations O; both runs
    must reproduce the single I_trace recorded for D."""

    name = "stair-vector"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.perm = self.rng.permutation(POOL_SIZE)

    def round(self, i):
        e = _cycle(self.perm, i)
        diag = self.pool["vector"][e]
        thetas = self.rng.uniform(0.0, 2.0 * math.pi, 2)
        return [Op("run_first_order", f"vector-{e}",
                   lambda t=float(t): stair_vector_op(diag, t))
                for t in thetas]

    def round_problem(self, records):
        a, b = (r["obs"] for r in records)
        if a is None or b is None:
            return None
        if not _close(a["I_trace"], b["I_trace"], RTOL_BY_WORKLOAD[self.name]):
            return "I_trace depends on the rotation O"
        return None


class MeasuresReadback(Workload):
    """Set-up builds one scalar run; each round queries it with ck_mass,
    the weak-star gaps of all four probes, holder_distance and density
    traces at seeded points.

    The prebuilt run is the same for every seed (pool entry 0), so set-up
    and the per-op error bars do not vary with the seed; the seed draws
    the density points and the op order.
    """

    name = "measures-readback"
    ENTRY = 0

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.run = build_scalar_run(self.pool["stair"][self.ENTRY])

    def round(self, i):
        run, key = self.run, f"stair-{self.ENTRY}"
        ops = [Op("ck_mass", key, lambda: ck_mass_op(run)),
               Op("holder_distance", f"{key}/holder",
                  lambda: holder_op(run))]
        for probe in PROBES:
            ops.append(Op("weakstar_gap", f"{key}/{probe}",
                          lambda probe=probe: gap_op(run, probe)))
        idx = sorted(int(p) for p in self.rng.choice(
            DENSITY_GRID ** 2, DENSITY_POINTS_PER_OP, replace=False))
        ops.append(Op("density_trace", f"{key}/density",
                      lambda: density_op(run, idx)))
        order = self.rng.permutation(len(ops))
        return [ops[o] for o in order]


WORKLOADS = {w.name: w for w in (AtomSuite, StairScalar, StairVector,
                                 MeasuresReadback)}


# --------------------------------------------------------------- checking


def _close(a, b, rtol):
    if isinstance(a, list) or isinstance(b, list):
        return (isinstance(a, list) and isinstance(b, list)
                and len(a) == len(b)
                and all(_close(x, y, rtol) for x, y in zip(a, b)))
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    a, b = float(a), float(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def mismatches(obs, ref, workload):
    """Names of the observed quantities that differ from the reference."""
    rtol = RTOL_BY_WORKLOAD.get(workload, RTOL)
    if ref is None:
        return ["no reference recorded"]
    bad = [k for k in ref if k not in obs or not _close(obs[k], ref[k], rtol)]
    return bad + [k for k in obs if k not in ref]


def reference_entry(reference, workload, op, obs):
    """The recorded output an op must match. Density ops record every
    candidate point, so the points this op traced are picked out here."""
    ref = reference.get(workload, {}).get(op.key)
    if ref is not None and op.kind == "density_trace":
        ref = {k: ref[k] for k in obs if k in ref}
    return ref
