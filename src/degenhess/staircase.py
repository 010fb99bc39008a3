"""Stage-by-stage assembly of fields with measured Hessian-rank decay.

Each stage freezes the previous field's Hessian on a cube partition,
plants one oscillation atom per cube, and certifies four measured
properties: C1 smallness of the increment, a pointwise cap on its
Hessian, contraction of the rank invariant's integral, and per-cube
stability of the invariant's mass. Schedules (eps_j, delta_j, beta_j,
m_j) are sampled from the committed field, never assumed, and every
quantity a certificate compares carries its quadrature error estimate.

A stage whose partition constraints cannot be met under the cube cap is
not faked at a coarser resolution: the governor either waives the one
constraint that is provably slack (recording the waiver) or stalls the
stage with zero atoms, keeping every reported inequality a measurement.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from degenhess.atom import (
    AtomTuningError,
    VectorAtom,
    certify_atom,
    predicted_contraction,
    profile_breakpoints,
    tune_atom,
    zero_atom,
)
from degenhess.fields import (
    Box,
    CubePartition,
    PartitionCapError,
    QuadratureCounts,
    ScalarFieldC2,
    TensorGrid,
    _CellAtomLayer,
    _LayeredField,
    _atom_shape,
    _rng,
    c1_alpha_distance,
    integrate_on_partition,
    refine_partition,
)
from degenhess.invariants import ck, op_norm, polar_decompose


class ScheduleError(ValueError):
    pass


def default_tau(k, p):
    """Contraction target when the run does not pin one.

    The atom family predicts 2^(p/k - 1); targets get 0.1 headroom when
    the prediction is close, 0.9 otherwise, never above 0.97.
    """
    pred = predicted_contraction(k, p)
    if pred <= 0.8:
        return 0.9
    return min(pred + 0.1, 0.97)


@dataclass(frozen=True)
class StairConfig:
    """Settings of the stage driver.

    tau overrides the default derived from (k, p). seed pins every random
    draw. quad_points and node_budget set the stage quadrature. Fixed
    sizes are module constants at their use (_CUBE_CAP, _MASS_FLOOR,
    _BASE_PANELS, _EVAL_CHUNK, _C0_SAMPLES, _C2_SAMPLES, _SUP_CAP_POINTS,
    _BETA_PAIRS) or the callee's defaults (_bisect_delta's samples,
    tune_atom's budget, c1_alpha_distance's samples).
    """

    tau: float | None = None
    seed: int = 0
    quad_points: int = 4
    node_budget: int = 300_000_000

    def __post_init__(self):
        if self.tau is not None and not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0,1)")


@dataclass(frozen=True)
class StageSchedule:
    """Stage-j plan: sampled constants and the partition decision.

    K_j is the sampled sup of the frozen matrix field (Hessian for
    scalar runs, Jacobian for first-order runs) over the domain;
    delta_j keeps both invariant increments under tau^j/2 on a sampled
    matrix ball of radius 2 K_j; beta_j is the sampled modulus radius
    delivering delta_j. diameter_waived means the eps_j/2 cell-diameter
    condition was dropped because beta_j alone admitted a partition
    under the cap; stalled means not even beta_j did and the stage runs
    with zero atoms on the previous partition. holder_budget_ok records
    that K_j^alpha eps_j^(1-alpha) fits the stage's share of the
    closeness budget. probe_atoms counts the
    committed live atoms; sup_probed and beta_probed how many of them
    the K_j and beta_j samples probed along their trains (the lists are
    cut at fixed lengths).
    """

    j: int
    tau: float
    eps_j: float
    delta_j: float
    beta_j: float
    m_j: int
    K_j: float
    sample_axis: int
    sup_samples: int
    beta_pairs: int
    probe_atoms: int = 0
    sup_probed: int = 0
    beta_probed: int = 0
    diameter_waived: bool = False
    stalled: bool = False
    holder_budget_ok: bool = True

    def __post_init__(self):
        if not self.stalled:
            if not self.eps_j < self.tau**self.j / 3.0:
                raise ScheduleError("eps_j must stay below tau^j / 3")
            if self.K_j > 0 and not self.holder_budget_ok:
                raise ScheduleError("holder budget violated by eps_j")


@dataclass(frozen=True, eq=False)
class StageCertificate:
    """Measured stage properties, one value plus error per inequality.

    Violation tuples carry flat row-major cube indices. masses_* are the
    per-cube integrals of the rank invariant before and after the stage;
    I_prev and I_new integrate its p/k-th power (the internal exponent q
    stands in for p). atoms_pass aggregates the per-cube atom
    certificates outside the recorded skip lists. quadrature counts the
    work of the stage integrals (all zero when a stalled stage carries
    the previous masses).
    """

    j: int
    tau: float
    eps_j: float
    m_j: int
    sup_c1: float
    pass_c0: bool
    c2_margin_min: float
    c2_samples: int
    c2_violations: tuple
    pass_c2: bool
    I_prev: float
    I_prev_err: float
    I_new: float
    I_new_err: float
    ratio: float
    ratio_bound: float
    ratio_slack: float
    pass_c3: bool
    drift_max_rel: float
    drift_violations: tuple
    pass_c4: bool
    atom_certs: tuple
    atoms_pass: bool
    tuning_failures: tuple
    floor_skips: tuple
    osc_skips: tuple
    stalled: bool
    diameter_waived: bool
    masses_prev: np.ndarray
    masses_new: np.ndarray
    mass_errs_prev: np.ndarray
    mass_errs_new: np.ndarray
    grad2_qq: float
    grad2_qq_err: float
    notes: tuple = ()
    quadrature: QuadratureCounts = QuadratureCounts()

    @property
    def passed(self):
        return (
            self.pass_c0
            and self.pass_c2
            and self.pass_c3
            and self.pass_c4
            and self.atoms_pass
        )


@dataclass(frozen=True, eq=False)
class StageRecord:
    schedule: StageSchedule
    certificate: StageCertificate
    atoms: tuple
    field: object
    # wall clock, reported only in the non-deterministic timings sidecar
    seconds: float = 0.0


@dataclass(frozen=True, eq=False)
class ConstructionResult:
    """Everything a run commits to: the field, per-stage records, traces.

    I_trace has length J + 1 (the base integral first); ratios and
    certificates have length J. c1a_distance is the measured
    value + gradient + gradient-Holder distance between the final and
    base fields; little_holder is the ModulusTable of the sampled
    gradient-Holder quotient per radius (of the displacement values on
    first-order runs), whose decay at small radii is the little-Holder
    evidence.
    """

    field: object
    base: object
    stages: tuple
    k: int
    p: float
    q: float
    alpha: float
    eps: float
    tau: float
    J: int
    seed: int
    I_trace: tuple
    ratio_trace: tuple
    I_consistency: tuple
    grad2_trace: tuple
    grad2_budget_lhs: float
    grad2_budget_rhs: float
    grad2_budget_pass: bool
    base_seminorm_qq: float
    base_seminorm_err: float
    c1a_distance: float
    c1a_parts: tuple
    c1a_pass: bool
    interpolation_checks: tuple
    little_holder: object
    mass_bound_K: float

    @property
    def certificates(self):
        return tuple(s.certificate for s in self.stages)

    @property
    def live_stages(self):
        """Stages that committed at least one nonzero atom."""
        return sum(
            1 for s in self.stages if any(not a.is_zero for a in s.atoms)
        )

    @property
    def all_passed(self):
        return all(c.passed for c in self.certificates)


# ------------------------------------------------------------- vector types


class LinearMapBase:
    """u(x) = M x + c with constant Jacobian M."""

    def __init__(self, matrix, offset=None):
        self.matrix = np.array(matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("matrix must be square")
        self.n = self.matrix.shape[0]
        self.offset = (
            np.zeros(self.n) if offset is None else np.array(offset, dtype=float)
        )
        if self.offset.shape != (self.n,):
            raise ValueError("offset length must match the matrix")
        self.constant_matrix = self.matrix

    def jet_many(self, X):
        X = np.asarray(X, dtype=float)
        vals = X @ self.matrix.T + self.offset
        jacs = np.broadcast_to(self.matrix, (X.shape[0], self.n, self.n)).copy()
        return vals, jacs


class VectorFieldC1(_LayeredField):
    """base + ordered cell-atom layers; a first-order map.

    The base and each layer's jet_many give displacement and Jacobian.
    """

    jet_parts = 2


class StagePerturbation(_CellAtomLayer):
    """Sum of per-cube scalar atoms."""

    def jet_many(self, X):
        n = self.partition.n
        return self._dispatch(
            X, ((), (n,), (n, n)),
            lambda atom, Y, lo: atom.value_grad_hess(Y, lo),
        )


class VectorStagePerturbation(_CellAtomLayer):
    """Per-cube vector atoms with the same dispatch-and-merge contract."""

    def jet_many(self, X):
        n = self.partition.n
        return self._dispatch(
            X, ((n,), (n, n)),
            lambda atom, Y, lo: atom.displacement_jacobian(Y, lo),
        )


# --------------------------------------------------------- field adapters


def _matrix_many(field, X):
    """The frozen matrix field, last in evaluate_many: Hessian or Jacobian."""
    return field.evaluate_many(X, check_domain=False)[-1]


def _layer_atoms(field):
    return [
        a.scalar for layer in field.layers for a in layer.atoms if not a.is_zero
    ]


def _layer_lookup(layers, partition, cell):
    """Per layer, what covers one cell of the partition.

    Yields (layer, atom, nested). atom is the layer's atom at the cell
    center. nested says that the cell lies inside that atom's cell of the
    layer partition. The partition and every layer's tile the field's
    box, so this is decided from the partition sizes, not by a float
    test, and on the interior of the cell the atom alone is the layer.
    """
    center = np.asarray(cell.center)[None, :]
    for layer in layers:
        part = layer.partition
        nested = partition.m % part.m == 0
        if nested:
            idx = tuple(i // (partition.m // part.m) for i in cell.index)
        else:
            idx = tuple(part.locate(center)[0])
        flat = int(np.ravel_multi_index(idx, (part.m,) * part.n))
        yield layer, layer.atoms[flat], nested


def _atoms_at_cell(field, partition, cell):
    """Committed-layer atoms whose breakpoints the cell's panels snap to.

    Besides the atom at the cell center, a layer the cell is not nested in
    (a ck_mass level coarser than the stage partition) gives every atom
    whose cube center lies inside the cell, so all their trains resolve.
    """
    lo, hi = np.array(cell.lo), np.array(cell.hi)
    out = []
    for layer, atom, nested in _layer_lookup(field.layers, partition, cell):
        atoms = [atom]
        if not nested:
            centers = layer.partition.centers()
            inside = ((centers > lo) & (centers < hi)).all(axis=1)
            atoms += [
                layer.atoms[i] for i in np.flatnonzero(inside)
                if layer.atoms[i] is not atom
            ]
        out.extend(a.scalar for a in atoms if not a.is_zero)
    return out


class _CellMatrix:
    """The frozen matrix field on points strictly inside one cell.

    Called on a TensorGrid, it returns the (P, n, n) matrices at
    grid.points. They equal _matrix_many there, without its global
    dispatch: the layers are added in the order evaluate_many sums them,
    so entries are equal (an exact zero may differ in sign) and integrals
    bitwise the same. A nested layer contributes its covering atom only,
    through the atom's matrix_on, and nothing when that atom is zero; any
    other layer keeps its own dispatch. A base whose matrix is constant by
    construction exposes it as constant_matrix, which is broadcast instead
    of evaluating values and gradients; when no layer contributes either,
    constant holds it.
    """

    def __init__(self, field, partition, cell):
        base = field.base
        self.terms = []
        for layer, atom, nested in _layer_lookup(field.layers, partition, cell):
            if not nested:
                self.terms.append(
                    lambda grid, layer=layer: layer.jet_many(grid.points)[-1]
                )
            elif not atom.is_zero:
                self.terms.append(atom.matrix_on)
        const = getattr(base, "constant_matrix", None)
        self.constant = None if self.terms else const
        if const is not None:
            self.at_base = lambda grid: np.broadcast_to(
                const, (grid.points.shape[0],) + const.shape
            )
        else:
            self.at_base = lambda grid: base.jet_many(grid.points)[-1]

    def __call__(self, grid):
        M = self.at_base(grid)
        for term in self.terms:
            M = M + term(grid)
        return M

    def ck(self, M, k):
        """C_k of M, this cell's matrices; a constant matrix's C_k is
        computed once and repeated, which is bitwise the same."""
        if self.constant is None:
            return ck(M, k)
        return np.full(M.shape[0], ck(self.constant[None], k)[0])


# ------------------------------------------------------------ planning


# how many committed atoms the K_j and beta_j samples probe along their
# trains; a longer atom list is cut, and the schedule records the cut
_SUP_PROBE_ATOMS = 64
_BETA_PROBE_ATOMS = 8
# most grid points the K_j sample evaluates; finer requests are coarsened
_SUP_CAP_POINTS = 2_000_000
# point pairs per bisection radius of beta_j
_BETA_PAIRS = 1500


def _sup_grid(box, res):
    n = box.n
    res = int(res)
    while res > 2 and (res + 1) ** n > _SUP_CAP_POINTS:
        res -= 1
    axes = [np.linspace(lo, hi, res + 1) for lo, hi in zip(box.lo, box.hi)]
    return TensorGrid.product(axes).points, res


def _atom_center_line(atom, box, points=256):
    """Points along the oscillation direction through the cube center."""
    lo = np.array(atom.cube.lo)
    hi = np.array(atom.cube.hi)
    c = 0.5 * (lo + hi)
    e = atom.direction
    T = atom.train_extent
    t = np.linspace(-T / 2.0, T / 2.0, points)
    pts = c[None, :] + t[:, None] * e[None, :]
    ok = (pts >= np.array(box.lo) - 1e-12) & (pts <= np.array(box.hi) + 1e-12)
    return pts[ok.all(axis=1)]


def _sample_matrix_sup(field, res, seed, per_layer=2048):
    """Sampled sup of the matrix field's operator norm.

    A uniform grid alone would alias past committed atom oscillations,
    so the first _SUP_PROBE_ATOMS live atoms also contribute a line probe
    along their oscillation direction and seeded points inside their
    support. Returns (sup, samples, grid resolution, atoms probed).
    """
    box = field.box
    pts, res_used = _sup_grid(box, res)
    chunks = [pts]
    rng = _rng(seed, 101)
    probed = _layer_atoms(field)[:_SUP_PROBE_ATOMS]
    for atom in probed:
        chunks.append(_atom_center_line(atom, box))
        lo = np.array(atom.cube.lo)
        edges = np.array(atom.cube.edges)
        chunks.append(lo + rng.random((per_layer, box.n)) * edges)
    X = np.concatenate(chunks, axis=0)
    sup = 0.0
    for i in range(0, X.shape[0], 1 << 17):
        M = _matrix_many(field, X[i : i + (1 << 17)])
        sup = max(sup, float(op_norm(M).max()))
    return sup, int(X.shape[0]), res_used, len(probed)


def _delta_ok(M, D, d, k, expo, bound):
    M2 = M + d * D
    c1 = ck(M, k)
    c2 = ck(M2, k)
    if float(np.abs(c2 - c1).max()) >= bound:
        return False
    return float(np.abs(c2**expo - c1**expo).max()) < bound


def _bisect_delta(n, k, q, bound, K, seed, samples=1000, iters=48):
    """Largest sampled step keeping both invariant increments under bound.

    Matrices fill the operator-norm ball of radius 2K; perturbation
    directions are unit symmetric matrices. The same sample set is
    reused across the bisection so the search is deterministic.
    """
    if K <= 0.0:
        return math.inf
    rng = _rng(seed, 202)
    G = rng.standard_normal((samples, n, n))
    G = 0.5 * (G + np.swapaxes(G, -1, -2))
    radii = rng.uniform(0.0, 2.0 * K, samples)
    norms = np.maximum(op_norm(G), 1e-300)
    M = G * (radii / norms)[:, None, None]
    D = rng.standard_normal((samples, n, n))
    D = 0.5 * (D + np.swapaxes(D, -1, -2))
    D = D / np.maximum(op_norm(D), 1e-300)[:, None, None]
    expo = q / k
    hi = 2.0 * K + 1.0
    if _delta_ok(M, D, hi, k, expo, bound):
        return hi
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _delta_ok(M, D, mid, k, expo, bound):
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        lo = hi * 0.5**iters
    return lo


def _pair_sup(field, r, rng_key, atoms):
    """Sampled sup of the matrix increment over pairs at distance <= r."""
    box = field.box
    lo = np.array(box.lo)
    hi = np.array(box.hi)
    n = box.n
    rng = _rng(*rng_key)
    xs = []
    ys = []
    got = 0
    for _ in range(4):
        take = (_BETA_PAIRS - got) * 2
        if take <= 0:
            break
        x = rng.uniform(lo, hi, (take, n))
        u = rng.standard_normal((take, n))
        u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-300)
        y = x + u * rng.uniform(0.0, r, (take, 1))
        okm = ((y >= lo) & (y <= hi)).all(axis=1)
        xs.append(x[okm][: _BETA_PAIRS - got])
        ys.append(y[okm][: _BETA_PAIRS - got])
        got += xs[-1].shape[0]
    for atom in atoms:
        line = _atom_center_line(atom, box)
        if line.shape[0] == 0:
            continue
        e = atom.direction
        a = line - 0.5 * r * e[None, :]
        b = line + 0.5 * r * e[None, :]
        okm = ((a >= lo) & (a <= hi) & (b >= lo) & (b <= hi)).all(axis=1)
        xs.append(a[okm])
        ys.append(b[okm])
    X = np.concatenate(xs)
    Y = np.concatenate(ys)
    if X.shape[0] == 0:
        return 0.0, 0
    sup = 0.0
    for i in range(0, X.shape[0], 1 << 16):
        sl = slice(i, i + (1 << 16))
        dM = _matrix_many(field, X[sl]) - _matrix_many(field, Y[sl])
        sup = max(sup, float(op_norm(dM).max()))
    return sup, int(X.shape[0])


def _bisect_beta(field, delta, seed, iters=28):
    """Largest sampled radius with matrix oscillation below delta.

    Pairs straddle the trains of the first _BETA_PROBE_ATOMS live atoms.
    Returns (radius, pairs sampled, atoms probed).
    """
    box = field.box
    diam = float(np.linalg.norm(np.array(box.edges)))
    if not math.isfinite(delta):
        return diam, 0, 0
    atoms = _layer_atoms(field)[:_BETA_PROBE_ATOMS]
    total_pairs = 0
    sup, cnt = _pair_sup(field, diam, (seed, 303, 0), atoms)
    total_pairs += cnt
    if sup < delta:
        return diam, total_pairs, len(atoms)
    lo = 0.0
    hi = diam
    for it in range(1, iters + 1):
        mid = 0.5 * (lo + hi)
        sup, cnt = _pair_sup(field, mid, (seed, 303, it), atoms)
        total_pairs += cnt
        if sup < delta:
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        lo = diam * 0.5**iters
    return lo, total_pairs, len(atoms)


def plan_stage(f_prev, j, tau, alpha, eps, config=None, *, k, q, m_prev=1):
    """Sample the stage constants and decide the partition.

    Order: K_j (sup of the matrix field), eps_j from the closeness
    budget, delta_j by bisection on a matrix ball, beta_j by bisection
    on the field's sampled modulus, m_j from the partition refinement
    rule. If the full diameter condition exceeds the cube cap the
    governor retries with beta_j alone (diameter_waived); if that also
    exceeds the cap the stage stalls, so the cap never ends a run. eps_j
    is the stage's share of the closeness budget eps, which keeps the
    final field within eps of the base in the C1-alpha scale.
    """
    config = config or StairConfig()
    if not 0.0 < tau < 1.0:
        raise ScheduleError("tau must lie in (0,1)")
    if not 0.0 < alpha < 1.0:
        raise ScheduleError("alpha must lie in (0,1)")
    if eps <= 0.0:
        raise ScheduleError("eps must be positive")
    if j < 1:
        raise ScheduleError("stage index must be at least 1")
    n = f_prev.n
    box = f_prev.box

    res = 4 * max(m_prev, 2**j)
    K, sup_samples, res_used, sup_probed = _sample_matrix_sup(
        f_prev, res, (config.seed, j)
    )

    def eps_of(Kval):
        cap = tau**j / 3.0
        if Kval <= 0.0:
            return cap / 2.0
        budget = (eps * (1.0 - tau) * tau**j / Kval**alpha) ** (1.0 / (1.0 - alpha))
        return min(cap, budget) / 2.0

    def plan_of(Kval):
        delta = _bisect_delta(n, k, q, tau**j / 2.0, Kval, (config.seed, j))
        return (delta,) + _bisect_beta(f_prev, delta, (config.seed, j))

    eps_j = eps_of(K)
    delta_j, beta_j, beta_pairs, beta_probed = plan_of(K)

    edge_norm = float(np.linalg.norm(np.array(box.edges)))
    scale = math.sqrt(n) / edge_norm

    def decide_m(eps_eff, beta_eff):
        return refine_partition(m_prev, j, eps_eff, beta_eff, n, cap=_CUBE_CAP)

    waived = False
    stalled = False
    try:
        m_j = decide_m(eps_j * scale, beta_j * scale)
    except PartitionCapError:
        try:
            m_beta = decide_m(math.inf, beta_j * scale)
            m_j = m_prev * math.ceil(max(m_beta, 4) / m_prev)
            if m_j > _CUBE_CAP:
                raise PartitionCapError(m_j, _CUBE_CAP)
            waived = True
        except PartitionCapError:
            m_j = m_prev
            stalled = True

    if not stalled and 4 * m_j > res_used:
        K2, extra, res_used, _ = _sample_matrix_sup(
            f_prev, 4 * m_j, (config.seed, j)
        )
        sup_samples += extra
        if K2 > K * (1.0 + 1e-12):
            K = K2
            eps_j = eps_of(K)
            delta_j, beta_j, beta_pairs, beta_probed = plan_of(K)

    holder_ok = True
    if K > 0.0:
        holder_ok = K**alpha * eps_j ** (1.0 - alpha) < eps * (1.0 - tau) * tau**j

    return StageSchedule(
        j=j,
        tau=tau,
        eps_j=eps_j,
        delta_j=delta_j,
        beta_j=beta_j,
        m_j=m_j,
        K_j=K,
        sample_axis=res_used,
        sup_samples=sup_samples,
        beta_pairs=beta_pairs,
        probe_atoms=len(_layer_atoms(f_prev)),
        sup_probed=sup_probed,
        beta_probed=beta_probed,
        diameter_waived=waived,
        stalled=stalled,
        holder_budget_ok=holder_ok,
    )


# ------------------------------------------------------- stage quadrature


# panels per cell axis before atom breakpoints are added
_BASE_PANELS = 6
# integrand points per evaluation chunk of a partition integral
_EVAL_CHUNK = 1 << 18


def _axis_edges_for_cell(cell, atoms, axis):
    """Unit-coordinate panel edges for one cell axis.

    Aligned atoms contribute their exact profile breakpoints along the
    oscillation axis and their cutoff collar marks on the others;
    rotated atoms force a uniform resolution of about seven panels per
    projected period. Gaps are then split so no panel exceeds the base
    resolution.
    """
    lo = cell.lo[axis]
    w = cell.hi[axis] - lo
    marks = [0.0, 1.0]
    min_uniform = _BASE_PANELS
    for atom in atoms:
        C = atom.cube
        Clo = C.lo[axis]
        E = C.edges[axis]
        if atom.aligned_axis is not None:
            if axis == atom.aligned_axis:
                T = atom.train_extent
                N = atom.periods
                delta = T / N
                b = profile_breakpoints(atom.gamma_s)[:-1]
                center = Clo + E / 2.0
                phys = (
                    center
                    - T / 2.0
                    + delta * (np.arange(N)[:, None] + b[None, :])
                ).ravel()
                phys = np.concatenate([[Clo], phys, [center + T / 2.0, Clo + E]])
            else:
                gc = atom.gamma_c
                u = np.array(
                    [0.0, gc / 4, gc / 2, gc * 0.625, gc * 0.75, gc * 0.875, gc]
                )
                u = np.concatenate([u, 1.0 - u[::-1]])
                phys = Clo + u * E
        else:
            e = atom.direction
            T = atom.train_extent
            cnt = max(32, int(math.ceil(7 * atom.periods * abs(e[axis]) * E / T)) + 1)
            min_uniform = max(min_uniform, int(math.ceil(cnt * w / E)))
            gc = atom.gamma_c
            u = np.array([gc / 2, gc, 1.0 - gc, 1.0 - gc / 2])
            phys = Clo + u * E
        local = (phys - lo) / w
        local = local[(local > 1e-12) & (local < 1.0 - 1e-12)]
        marks.extend(local.tolist())
    edges = np.unique(np.clip(np.asarray(marks, dtype=float), 0.0, 1.0))
    keep = np.concatenate([[True], np.diff(edges) > 1e-13])
    edges = edges[keep]
    out = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        gap = b - a
        pieces = max(1, int(math.ceil(gap * min_uniform - 1e-12)))
        for t in range(1, pieces):
            out.append(a + gap * t / pieces)
        out.append(b)
    return np.asarray(out)


def _cell_class(field, partition, cell, new_atom=None):
    """The cell's translation class for a partition quadrature, or None.

    Decided from structure, never by comparing integrals: with a base
    whose matrix is constant by construction and every layer nested in
    the partition, the frozen matrix on the cell is that constant plus
    each layer's covering atom, placed at the cell's offset inside the
    atom's layer cell. Cells with equal keys then see translated copies
    of one integrand and one panel layout, the stage's new atom on the
    cell included when there is one, so their integrals agree up to
    rounding. None means the cell is integrated on its own.
    """
    const = getattr(field.base, "constant_matrix", None)
    if const is None:
        return None
    key = [np.asarray(const, dtype=float).tobytes()]
    for layer, atom, nested in _layer_lookup(field.layers, partition, cell):
        if not nested:
            return None
        per = partition.m // layer.partition.m
        key.append((_atom_shape(atom), tuple(i % per for i in cell.index)))
    if new_atom is not None:
        key.append(_atom_shape(new_atom))
    return tuple(key)


def partition_integrals(fields, partition, integrand, nout, config,
                        new_atoms=None, classes=None):
    """integrate_on_partition of the fields' frozen matrices.

    integrand(ci, cell, *matrices) returns the cell's fn, given the
    cell's frozen-matrix evaluator of each field, in order: called on a
    TensorGrid of points inside the cell, it gives their (P, n, n)
    matrices, equal to the field's evaluate_many (an exact zero may
    differ in sign, integrals are bitwise the same); its ck(M, k) gives
    C_k of them. Each integrated cell's panels snap to the breakpoints
    of every field's committed atoms that reach it, each atom once, so
    the order of the fields does not move them, and, when new_atoms (one
    per cell) is given, of its new atom. The StairConfig supplies the
    Gauss points and the node budget; classes, one _cell_class key per
    cell, is passed through. Returns (values, errors, QuadratureCounts),
    values and errors of shape (cells, nout) in row-major cell order.
    """

    def edges(ci, cell):
        atoms = list({
            id(a): a for f in fields for a in _atoms_at_cell(f, partition, cell)
        }.values())
        if new_atoms is not None and not new_atoms[ci].is_zero:
            atoms.append(new_atoms[ci].scalar)
        return [_axis_edges_for_cell(cell, atoms, a) for a in range(partition.n)]

    def cell_integrand(ci, cell):
        return integrand(
            ci, cell, *(_CellMatrix(f, partition, cell) for f in fields)
        )

    return integrate_on_partition(
        cell_integrand, partition, nout, edges=edges,
        points=config.quad_points, chunk=_EVAL_CHUNK,
        node_budget=config.node_budget, classes=classes,
    )


def _stage_integrand(frozen, atom, k, q):
    """The five stage integrands on one cell, as one fn(pts).

    Rows: C_k of the frozen matrix and of the new one, their q/k-th
    powers, and the operator norm of the increment's matrix to the q-th
    power. Without a live atom the new matrix is the frozen one and the
    increment is zero.
    """
    expo = q / k
    if atom is None or atom.is_zero:

        def fn(grid):
            c = frozen.ck(frozen(grid), k)
            cq = c**expo
            return np.stack([c, c, cq, cq, np.zeros_like(c)])

        return fn

    def fn(grid):
        B = frozen(grid)
        H = atom.matrix_on(grid)
        ck_prev = frozen.ck(B, k)
        ck_new = ck(B + H, k)
        return np.stack(
            [ck_prev, ck_new, ck_prev**expo, ck_new**expo, op_norm(H) ** q]
        )

    return fn


def field_invariant_integrals(field, partition, k, q=None, config=None):
    """Per-cube integrals of C_k and its q/k-power for a committed field.

    Same breakpoint-aligned panels the stage certificates use, so totals
    computed here are comparable with certificate integrals at matching
    partitions. The partition tiles the field's box, as every layer's
    does. Returns (masses, powers, mass_errors, power_errors).
    """
    if partition.box != field.box:
        raise ValueError("the partition must tile the field's box")
    config = config or StairConfig()
    q = q if q is not None else float(k)
    vals, errs, _ = partition_integrals(
        (field,), partition,
        lambda ci, cell, frozen: _stage_integrand(frozen, None, k, q),
        5, config,
    )
    return vals[:, 0].copy(), vals[:, 2].copy(), errs[:, 0].copy(), errs[:, 2].copy()


# ------------------------------------------------------------- run_stage


def _tune_for_cube(A, cube, eps_j, k, q, tau_target, cache, vector=False):
    """Tuned atom plus certificate for one frozen matrix, cache-aware.

    The atom geometry depends only on the matrix and the cell shape, so
    equal cells share one tuning run and the atom is translated to each
    cell. A first-order run tunes the scalar atom on the symmetric polar
    factor of A and wraps it in a VectorAtom with the rotation. Tuning
    failures fall back to the best atom found and are reported by the
    caller.
    """
    edges = tuple(cube.edges)
    key = (
        np.round(np.asarray(A, dtype=float), 12).tobytes(),
        tuple(round(e, 14) for e in edges),
        round(eps_j, 16),
        k,
        round(q, 10),
        round(tau_target, 10),
        vector,
    )
    hit = cache.get(key)
    if hit is None:
        canon = Box(tuple(0.0 for _ in edges), edges)
        O, S = polar_decompose(np.asarray(A, dtype=float)) if vector else (None, A)
        try:
            out = tune_atom(S, canon, eps_j, k, q, tau_target)
            atom, cert, failed = out.atom, out.certificate, False
        except AtomTuningError as err:
            atom, cert, failed = err.atom, err.certificate, True
        if vector:
            atom = VectorAtom(rotation=O, base_symmetric=S, atom=atom)
        hit = cache[key] = (atom, cert, failed)
    atom, cert, failed = hit
    if isinstance(atom, VectorAtom):
        return replace(atom, atom=replace(atom.atom, cube=cube)), cert, failed
    return replace(atom, cube=cube), cert, failed


def _make_zero(cube, eps_j, vector):
    atom = zero_atom(cube, eps0=eps_j)
    if not vector:
        return atom
    n = cube.n
    return VectorAtom(rotation=np.eye(n), base_symmetric=np.zeros((n, n)), atom=atom)


# seeded points of the C0 cross-check over the whole box, and the
# Hessian-cap samples shared among the live cells (32 to 256 per cell)
_C0_SAMPLES = 4096
_C2_SAMPLES = 100_000
# partition cells per axis; past it a stage waives or stalls (plan_stage)
# instead of tuning an atom on each cell of an unbounded partition
_CUBE_CAP = 512
# a cell whose C_k mass is below this fraction of the stage's total is
# already flat to rounding and gets a zero atom
_MASS_FLOOR = 1e-14


def run_stage(f_prev, schedule, k, p, config=None, prev_cert=None,
              atom_cache=None):
    """Execute one planned stage and certify it.

    Freezes the matrix field at cell centers, tunes one atom per cell
    (zero atoms where the invariant is below the mass floor, where the
    cell's sampled matrix oscillation exceeds delta_j, or on a stalled
    stage), commits the perturbation layer, and measures the four stage
    properties with quadrature error bars. p here is the internal
    exponent the run chose (q when the requested exponent was 1).

    The stage integrals run once per translation class of cells
    (_cell_class): cells that see translated copies of one frozen matrix
    field and one atom share the quadrature of the first such cell, and
    the per-cell values and error bars are summed in cell order as if
    every cell had been integrated. Fields without that structure are
    integrated cell by cell. The certificate records the counts.

    Returns (atoms, f_j, StageCertificate). prev_cert, the previous
    stage's certificate, carries its per-cube masses so a stalled stage
    can reproduce them bitwise instead of re-integrating.
    """
    config = config or StairConfig()
    vector = isinstance(f_prev, VectorFieldC1)
    q = p
    j = schedule.j
    tau = schedule.tau
    eps_j = schedule.eps_j
    box = f_prev.box
    n = box.n
    partition = CubePartition(box, schedule.m_j)
    cells = list(partition.cells())
    ncells = len(cells)
    vol = partition.cell_volume
    if atom_cache is None:
        atom_cache = {}

    centers = partition.centers()
    A_all = _matrix_many(f_prev, centers)
    ck_centers = ck(A_all, k)
    mass_scale = float((ck_centers * vol).sum())
    floor = _MASS_FLOOR * max(mass_scale, 1e-300)

    notes = []
    atoms = []
    certs = []
    failures = []
    floor_skips = []
    osc_skips = []

    if schedule.stalled:
        atoms = [_make_zero(c.box, eps_j, vector) for c in cells]
        notes.append("stalled: partition constraints exceeded the cube cap")
    else:
        osc_pts = []
        for c in cells:
            lo = np.array(c.lo)
            hi = np.array(c.hi)
            corners = np.stack(
                [np.where(np.array(bits), hi, lo) for bits in np.ndindex(*(2,) * n)]
            )
            osc_pts.append(np.vstack([corners, 0.5 * (lo + hi)]))
        osc_pts = np.concatenate(osc_pts)
        osc_M = _matrix_many(f_prev, osc_pts)
        per = 2**n + 1
        for ci, cell in enumerate(cells):
            A = A_all[ci]
            skip = float(ck_centers[ci]) * vol <= floor
            if skip:
                floor_skips.append(ci)
            else:
                block = osc_M[ci * per : (ci + 1) * per]
                osc = float(op_norm(block - A[None]).max())
                skip = math.isfinite(schedule.delta_j) and osc > schedule.delta_j
                if skip:
                    osc_skips.append(ci)
                    notes.append(
                        f"cube {ci}: frozen-matrix oscillation {osc:.3g} "
                        "exceeds delta_j"
                    )
            if skip:
                # a zero atom, certified against the frozen matrix (its
                # symmetric polar factor on first-order runs)
                atoms.append(_make_zero(cell.box, eps_j, vector))
                S = polar_decompose(A)[1] if vector else A
                certs.append(
                    certify_atom(atoms[-1].scalar, S, k, q, tau_bound=tau)
                )
                continue
            atom, cert, failed = _tune_for_cube(
                A, cell.box, eps_j, k, q, tau, atom_cache, vector=vector
            )
            atoms.append(atom)
            certs.append(cert)
            if failed:
                failures.append(ci)
                notes.append(
                    f"cube {ci}: tuning stopped at tau {cert.tau_meas:.6g}"
                )

    any_live = any(not a.is_zero for a in atoms)
    if vector:
        layer = VectorStagePerturbation(partition, atoms)
    else:
        layer = StagePerturbation(partition, atoms)
    f_j = f_prev.with_layers([layer]) if any_live else f_prev

    # cprop0: the atoms are supported on disjoint closed cells, so their
    # measured sups combine by maximum; a seeded global sample of the
    # assembled layer cross-checks the decomposition.
    if schedule.stalled or not any_live:
        sup_c1 = 0.0
    else:
        sup_c1 = max(
            (c.sup_gradient if vector else c.sup_c1) for c in certs
        )
        rngg = _rng(config.seed, j, 7)
        pts = np.array(box.lo) + rngg.random((_C0_SAMPLES, n)) * np.array(
            box.edges
        )
        # pointwise size: the sum of the norms of the parts before the
        # matrix, |g| + |grad g| or |h|
        size = sum(
            np.linalg.norm(part.reshape(_C0_SAMPLES, -1), axis=1)
            for part in layer.jet_many(pts)[:-1]
        )
        sup_c1 = max(sup_c1, float(size.max()))
    pass_c0 = sup_c1 <= eps_j * (1.0 + 1e-12)

    # cprop2: literal pointwise check of the increment's matrix norm
    # against the frozen invariant plus the stage allowance.
    c2_violations = []
    c2_margin = math.inf
    c2_count = 0
    if any_live:
        per_cell = max(32, min(256, _C2_SAMPLES // max(ncells, 1)))
        rng2 = _rng(config.seed, j, 11)
        for ci, cell in enumerate(cells):
            atom = atoms[ci]
            if atom.is_zero:
                continue
            lo = np.array(cell.lo)
            edges = np.array(cell.box.edges)
            pts = lo + rng2.random((per_cell, n)) * edges
            grid = TensorGrid(pts)
            H = atom.matrix_on(grid)
            B = _CellMatrix(f_prev, partition, cell)(grid)
            lhs = op_norm(H) ** q
            rhs = ck(B, k) ** (q / k) + tau**j
            margin = float((rhs - lhs).min())
            c2_margin = min(c2_margin, margin)
            c2_count += per_cell
            if margin < -1e-12 * max(1.0, tau**j):
                c2_violations.append(ci)
    if c2_margin is math.inf:
        c2_margin = tau**j
    pass_c2 = not c2_violations

    # cprop3 and cprop4 from per-cube quadrature; a stalled stage with a
    # previous certificate reproduces the previous masses bitwise.
    if schedule.stalled and prev_cert is not None and prev_cert.m_j == schedule.m_j:
        masses_prev = prev_cert.masses_new.copy()
        errs_prev = prev_cert.mass_errs_new.copy()
        masses_new = prev_cert.masses_new.copy()
        errs_new = prev_cert.mass_errs_new.copy()
        I_prev = prev_cert.I_new
        I_prev_err = prev_cert.I_new_err
        I_new = I_prev
        I_new_err = I_prev_err
        grad2 = 0.0
        grad2_err = 0.0
        quadrature = QuadratureCounts()
    else:
        # a stalled stage's zero atoms leave integrands and panels as
        # they are, like no atoms at all
        vals, errs, quadrature = partition_integrals(
            (f_prev,), partition,
            lambda ci, cell, frozen: _stage_integrand(frozen, atoms[ci], k, q),
            5, config, atoms,
            [
                _cell_class(f_prev, partition, cell, atoms[ci])
                for ci, cell in enumerate(cells)
            ],
        )
        masses_prev, masses_new, powers_prev, powers_new = vals[:, :4].T.copy()
        errs_prev, errs_new, perr_prev, perr_new = errs[:, :4].T.copy()
        # running sums in cell order; np.sum would pair the terms differently
        grad2 = 0.0
        grad2_err = 0.0
        for v, e in zip(vals[:, 4], errs[:, 4]):
            grad2 += v
            grad2_err += e
        I_prev = float(powers_prev.sum())
        I_prev_err = float(perr_prev.sum())
        I_new = float(powers_new.sum())
        I_new_err = float(perr_new.sum())

    if I_prev > 1e-14:
        ratio = I_new / I_prev
        ratio_bound = tau + tau**j / I_prev
        ratio_slack = (I_new_err + ratio * I_prev_err) / I_prev
        pass_c3 = ratio <= ratio_bound + ratio_slack
    else:
        ratio = 0.0
        ratio_bound = tau
        ratio_slack = 0.0
        pass_c3 = I_new <= tau * I_prev + tau**j + I_new_err + I_prev_err

    drift = np.abs(masses_new - masses_prev)
    bound = tau**j * vol + errs_new + errs_prev
    bad = np.flatnonzero(drift > bound)
    drift_max_rel = float((drift / (tau**j * vol)).max()) if ncells else 0.0
    pass_c4 = bad.size == 0

    for name, probed in (("K_j", schedule.sup_probed),
                         ("beta_j", schedule.beta_probed)):
        if probed < schedule.probe_atoms:
            notes.append(
                f"{name} sample probed {probed} of {schedule.probe_atoms} "
                "committed atoms"
            )

    skip = set(floor_skips) | set(osc_skips)
    if schedule.stalled:
        atoms_pass = True
    else:
        atoms_pass = all(
            c.passed for ci, c in enumerate(certs) if ci not in skip
        ) and not failures

    cert = StageCertificate(
        j=j,
        tau=tau,
        eps_j=eps_j,
        m_j=schedule.m_j,
        sup_c1=sup_c1,
        pass_c0=pass_c0,
        c2_margin_min=float(c2_margin),
        c2_samples=c2_count,
        c2_violations=tuple(int(i) for i in c2_violations),
        pass_c2=pass_c2,
        I_prev=I_prev,
        I_prev_err=I_prev_err,
        I_new=I_new,
        I_new_err=I_new_err,
        ratio=float(ratio),
        ratio_bound=float(ratio_bound),
        ratio_slack=float(ratio_slack),
        pass_c3=bool(pass_c3),
        drift_max_rel=drift_max_rel,
        drift_violations=tuple(int(i) for i in bad),
        pass_c4=bool(pass_c4),
        atom_certs=tuple(certs),
        atoms_pass=bool(atoms_pass),
        tuning_failures=tuple(failures),
        floor_skips=tuple(floor_skips),
        osc_skips=tuple(osc_skips),
        stalled=schedule.stalled,
        diameter_waived=schedule.diameter_waived,
        masses_prev=masses_prev,
        masses_new=masses_new,
        mass_errs_prev=errs_prev,
        mass_errs_new=errs_new,
        grad2_qq=float(grad2),
        grad2_qq_err=float(grad2_err),
        notes=tuple(notes),
        quadrature=quadrature,
    )
    return tuple(atoms), f_j, cert


# -------------------------------------------------------- run_construction


def _base_seminorm_qq(field, q, config):
    """Integral of the q-th power of the base matrix's operator norm over
    the box, with its error bar, on an 8-per-axis partition whose cells
    share quadrature by translation class."""
    partition = CubePartition(field.box, 8)

    def integrand(ci, cell, matrix):
        return lambda grid: (op_norm(matrix(grid)) ** q)[None]

    vals, errs, _ = partition_integrals(
        (field,), partition, integrand, 1, config,
        classes=[_cell_class(field, partition, cell) for cell in partition.cells()],
    )
    return float(vals.sum()), float(errs.sum())


def _run_loop(f0, k, p, alpha, eps, J, config):
    if not isinstance(k, int) or not 2 <= k <= f0.n:
        raise ValueError(f"k must be an integer in 2..{f0.n}")
    if not 1.0 <= p < k:
        raise ValueError("requires 1 <= p < k")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if not isinstance(J, int) or J < 1:
        raise ValueError("J must be a positive integer")
    config = config or StairConfig()
    q = max(p, 1.0 + 1e-3)
    tau = config.tau if config.tau is not None else default_tau(k, p)
    pred = predicted_contraction(k, q)
    if tau <= pred * 1.005:
        raise ValueError(
            f"tau {tau:.4g} leaves no headroom over the predicted contraction {pred:.4g}"
        )

    base_qq, base_qq_err = _base_seminorm_qq(f0, q, config)
    f = f0
    stages = []
    m_prev = 1
    cache = {}
    fields_chain = [f0]
    for j in range(1, J + 1):
        t_stage = time.perf_counter()
        schedule = plan_stage(
            f, j, tau, alpha, eps, config, k=k, q=q, m_prev=m_prev
        )
        atoms, f_new, cert = run_stage(
            f, schedule, k, q, config=config,
            prev_cert=stages[-1].certificate if stages else None,
            atom_cache=cache,
        )
        stages.append(
            StageRecord(
                schedule, cert, atoms, f_new,
                seconds=time.perf_counter() - t_stage,
            )
        )
        fields_chain.append(f_new)
        f = f_new
        m_prev = schedule.m_j

    certs = [s.certificate for s in stages]
    I_trace = ([certs[0].I_prev] if certs else []) + [c.I_new for c in certs]
    ratio_trace = [c.ratio for c in certs]
    consistency = [
        abs(certs[i + 1].I_prev - certs[i].I_new) for i in range(len(certs) - 1)
    ]
    grad2_trace = [c.grad2_qq for c in certs]
    Jdone = len(stages)
    geom = sum(tau ** (i - 1) for i in range(1, Jdone + 1))
    lin = sum(i * tau ** (i - 1) for i in range(1, Jdone + 1))
    rhs = math.comb(f0.n, k) * base_qq * geom + lin
    lhs = sum(grad2_trace)
    slack = sum(c.grad2_qq_err for c in certs) + math.comb(f0.n, k) * base_qq_err * geom
    budget_pass = lhs <= rhs + slack

    interp = []
    for i, rec in enumerate(stages):
        sch, cert = rec.schedule, rec.certificate
        rhs_i = 2.0 * sch.K_j ** alpha * sch.eps_j ** (1.0 - alpha)
        if cert.stalled or all(a.is_zero for a in rec.atoms):
            interp.append((0.0, rhs_i, True))
            continue
        _, _, table = c1_alpha_distance(
            fields_chain[i + 1], fields_chain[i], alpha, config.seed + 23 + i
        )
        sup_v = max(c.sup_value for c in cert.atom_certs)
        sup_g = max(c.sup_gradient for c in cert.atom_certs)
        # a vector atom's displacement is the scalar atom's gradient, and
        # first-order closeness is measured on the displacement alone
        lhs_i = (
            sup_g if isinstance(f0, VectorFieldC1) else sup_v + sup_g
        ) + max(table.values)
        interp.append((lhs_i, rhs_i, lhs_i <= rhs_i * (1.0 + 1e-9) + 1e-15))

    sup_val, sup_grad, profile = c1_alpha_distance(
        f, f0, alpha, config.seed + 29, sup_seed=config.seed
    )
    quot = max(profile.values)
    c1a = sup_val + sup_grad + quot
    c1a_pass = c1a <= eps

    mass_l1 = float(certs[0].masses_prev.sum()) if certs else 0.0
    mass_K = mass_l1 + tau / (1.0 - tau)

    return ConstructionResult(
        field=f,
        base=f0,
        stages=tuple(stages),
        k=k,
        p=p,
        q=q,
        alpha=alpha,
        eps=eps,
        tau=tau,
        J=J,
        seed=config.seed,
        I_trace=tuple(I_trace),
        ratio_trace=tuple(ratio_trace),
        I_consistency=tuple(consistency),
        grad2_trace=tuple(grad2_trace),
        grad2_budget_lhs=lhs,
        grad2_budget_rhs=rhs,
        grad2_budget_pass=bool(budget_pass),
        base_seminorm_qq=base_qq,
        base_seminorm_err=base_qq_err,
        c1a_distance=c1a,
        c1a_parts=(sup_val, sup_grad, quot),
        c1a_pass=bool(c1a_pass),
        interpolation_checks=tuple(interp),
        little_holder=profile,
        mass_bound_K=mass_K,
    )


def run_construction(w, k, p, alpha, eps, J, config=None):
    """Drive J stages from the smooth scalar base field w.

    Runs with the internal exponent q = max(p, 1 + 1e-3). Every stage
    runs: the cube cap waives the diameter condition or stalls a stage
    (plan_stage), it never ends the run.
    """
    if not isinstance(w, ScalarFieldC2):
        raise TypeError("w must be a ScalarFieldC2")
    return _run_loop(w, k, p, alpha, eps, J, config)


def run_first_order(u, k, p, alpha, eps, J, config=None):
    """First-order variant: drive the Jacobian's rank invariant down.

    The closeness budget applies to the displacement values (order 0);
    the certificates check C_k of the Jacobian exactly as the scalar
    runner checks C_k of the Hessian.
    """
    if not isinstance(u, VectorFieldC1):
        raise TypeError("u must be a VectorFieldC1")
    return _run_loop(u, k, p, alpha, eps, J, config)
