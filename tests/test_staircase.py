import math
from dataclasses import replace

import numpy as np
import pytest

from degenhess.fields import (
    Box,
    CubePartition,
    QuadratureError,
    ScalarFieldC2,
    TensorGrid,
    _cell_nodes,
    make_base,
)
from degenhess import fields, staircase
from degenhess.atom import PerturbationAtom, zero_atom
from degenhess.invariants import ck
from degenhess.measures import (
    ck_mass,
    sobolev_seminorm,
    test_function_family as probe_family,
    weakstar_gap,
)
from degenhess.report import run_report_text, soft_failures
from degenhess.staircase import (
    LinearMapBase,
    ScheduleError,
    StageCertificate,
    StagePerturbation,
    StageSchedule,
    StairConfig,
    VectorFieldC1,
    VectorStagePerturbation,
    default_tau,
    plan_stage,
    run_construction,
    run_first_order,
    run_stage,
    _base_seminorm_qq,
    _CellMatrix,
    _cell_class,
    _layer_lookup,
    _matrix_many,
    _stage_integrand,
    partition_integrals,
)

UNIT_BOX = Box((0.0, 0.0), (1.0, 1.0))


def unit_quadratic():
    return ScalarFieldC2(
        make_base("quadratic", {"matrix": [[1.0, 0.0], [0.0, 1.0]]}, 2), UNIT_BOX
    )


def affine_field():
    return ScalarFieldC2(
        make_base("affine", {"linear": [0.3, -0.2], "constant": 1.0}, 2), UNIT_BOX
    )


class TestScheduleBasics:
    def test_closeness_budget_worked_example(self):
        # K samples to exactly 1 on the unit quadratic, so the budget is
        # min(tau/3, (eps (1-tau) tau / K^alpha)^(1/(1-alpha))) / 2
        # = min(0.2833.., 0.01275^2) / 2 with tau=0.85, alpha=0.5, eps=0.1
        sch = plan_stage(
            unit_quadratic(), 1, 0.85, 0.5, 0.1, StairConfig(seed=0),
            k=2, q=1.5, m_prev=1,
        )
        assert sch.K_j == 1.0
        assert sch.eps_j == pytest.approx(8.128125e-05, rel=1e-12)
        assert sch.eps_j < 0.85 / 3.0
        assert sch.holder_budget_ok

    def test_delta_survives_a_fixed_direction(self, quadratic_run):
        sch = quadratic_run.stages[0].schedule
        rng = np.random.default_rng(77)
        G = rng.standard_normal((1000, 2, 2))
        G = 0.5 * (G + np.swapaxes(G, -1, -2))
        from degenhess.invariants import op_norm

        M = G * (rng.uniform(0, 2 * sch.K_j, 1000) / op_norm(G))[:, None, None]
        E11 = np.zeros((2, 2))
        E11[0, 0] = 1.0
        M2 = M + 0.5 * sch.delta_j * E11
        bound = sch.tau / 2.0
        assert float(np.abs(ck(M2, 2) - ck(M, 2)).max()) < bound
        e = 1.5 / 2.0
        assert float(np.abs(ck(M2, 2) ** e - ck(M, 2) ** e).max()) < bound

    def test_validation(self):
        f = unit_quadratic()
        with pytest.raises(ScheduleError):
            plan_stage(f, 1, 1.2, 0.5, 0.1, k=2, q=1.5)
        with pytest.raises(ScheduleError):
            plan_stage(f, 1, 0.9, 1.5, 0.1, k=2, q=1.5)
        with pytest.raises(ScheduleError):
            plan_stage(f, 1, 0.9, 0.5, -1.0, k=2, q=1.5)
        with pytest.raises(ScheduleError):
            plan_stage(f, 0, 0.9, 0.5, 0.1, k=2, q=1.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StairConfig(tau=1.0)
        for bad in (1, 0, -2):
            with pytest.raises(ValueError, match="quad_points"):
                StairConfig(quad_points=bad)
        for bad in (0, -5, 0.5):
            with pytest.raises(ValueError, match="node_budget"):
                StairConfig(node_budget=bad)
        StairConfig(quad_points=2, node_budget=1)

    def test_default_tau(self):
        assert default_tau(2, 1.0) == 0.9
        assert default_tau(2, 1.5) == pytest.approx(2 ** (-0.25) + 0.1)
        assert default_tau(3, 2.9) == 0.97


class TestGovernor:
    def test_diameter_waiver_on_smooth_field(self, quadratic_run):
        sch = quadratic_run.stages[0].schedule
        assert sch.m_j == 4
        assert sch.diameter_waived
        assert not sch.stalled
        # the full rule would need thousands of cells per axis here
        assert math.sqrt(2) / 4 > sch.eps_j / 2

    def test_raised_sup_redecides_the_partition(self, monkeypatch):
        # the sample at the finer partition's resolution reads K_j ten
        # times higher; the lowered beta_j must re-decide m_j
        f = ScalarFieldC2(
            make_base("trig", {"freqs": [[1.0, 0.0], [0.0, 1.0]],
                               "amps": [0.3, 0.3]}, 2),
            UNIT_BOX,
        )
        real = staircase._sample_matrix_sup
        calls = []

        def raised(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append(out[0])
            if len(calls) == 2:
                out = (10.0 * out[0],) + out[1:]
            return out

        monkeypatch.setattr(staircase, "_sample_matrix_sup", raised)
        sch = plan_stage(f, 1, 0.9, 0.3, 0.1, StairConfig(seed=42, tau=0.9),
                         k=2, q=1.5)
        assert len(calls) >= 3
        assert sch.K_j == 10.0 * calls[1]
        # on the unit box beta_j needs no scaling to compare with a cell
        # diameter
        assert sch.stalled or math.sqrt(2) / sch.m_j < sch.beta_j

    def test_stall_after_commitment(self, quadratic_run):
        for rec in quadratic_run.stages[1:]:
            sch = rec.schedule
            assert sch.stalled
            assert sch.m_j == 4
            # the committed oscillation makes the Hessian modulus tiny
            assert sch.beta_j < 1e-5


class TestQuadraticRun:
    def test_first_stage_contracts(self, quadratic_run):
        c = quadratic_run.stages[0].certificate
        assert c.I_prev == pytest.approx(1.0, abs=1e-9)
        assert c.ratio < 0.9
        assert c.ratio <= c.ratio_bound + c.ratio_slack
        assert c.passed

    def test_certificate_inequalities_hold_each_stage(self, quadratic_run):
        for rec in quadratic_run.stages:
            c = rec.certificate
            assert c.sup_c1 <= c.eps_j * (1 + 1e-12)
            assert c.pass_c0 and c.pass_c2 and c.pass_c3 and c.pass_c4
            assert c.atoms_pass
            assert not c.tuning_failures

    def test_stalled_stages_copy_masses_bitwise(self, quadratic_run):
        first = quadratic_run.stages[0].certificate
        for rec in quadratic_run.stages[1:]:
            c = rec.certificate
            assert c.stalled
            assert np.array_equal(c.masses_new, first.masses_new)
            assert c.I_new == first.I_new
            assert c.ratio == 1.0

    def test_iteration_trace(self, quadratic_run):
        res = quadratic_run
        assert len(res.I_trace) == 5
        assert res.I_trace[0] == pytest.approx(1.0, abs=1e-9)
        tau, J = res.tau, 4
        assert res.I_trace[-1] <= tau**J * res.I_trace[0] + J * tau**J
        for gap in res.I_consistency:
            assert gap <= 1e-9

    def test_mass_is_conserved_not_contracted(self, quadratic_run):
        # the invariant's integral against 1 barely moves even though its
        # q/k-power integral drops: cancellation, not erasure
        for c in quadratic_run.certificates:
            assert float(c.masses_new.sum()) == pytest.approx(1.0, abs=1e-9)
            assert c.drift_max_rel < 1e-9 or c.stalled

    def test_closeness_and_interpolation(self, quadratic_run):
        res = quadratic_run
        assert res.c1a_distance <= res.eps
        assert res.c1a_pass
        for lhs, rhs, ok in res.interpolation_checks:
            assert ok
            assert lhs <= rhs * (1 + 1e-9) + 1e-15

    def test_power_budget(self, quadratic_run):
        res = quadratic_run
        assert res.grad2_budget_pass
        assert res.grad2_budget_lhs <= res.grad2_budget_rhs
        assert res.base_seminorm_qq == pytest.approx(1.0, abs=1e-9)

    def test_only_live_stages_add_layers(self, quadratic_run):
        assert len(quadratic_run.field.layers) == 1
        assert quadratic_run.all_passed


class TestAffineBase:
    def test_everything_is_zero(self):
        res = run_construction(
            affine_field(), 2, 1.5, 0.3, 0.1, 2, config=StairConfig(seed=5)
        )
        assert res.field is res.base
        # every cell is floor-skipped, so no stage commits an atom
        assert res.live_stages == 0
        assert res.I_trace == (0.0, 0.0, 0.0)
        assert res.c1a_distance == 0.0
        assert res.all_passed
        for rec in res.stages:
            assert rec.schedule.K_j == 0.0
            assert rec.schedule.eps_j == pytest.approx(
                rec.schedule.tau ** rec.schedule.j / 6.0
            )
            assert all(a.is_zero for a in rec.atoms)
            assert len(rec.certificate.floor_skips) == len(rec.atoms)


class TestStagePerturbationLayer:
    def test_dispatch_matches_atoms(self, quadratic_run):
        layer = quadratic_run.field.layers[0]
        assert isinstance(layer, StagePerturbation)
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.05, 0.95, (64, 2))
        v, g, h = layer.jet_many(pts)
        flat = layer._flat(pts)
        for ci in np.unique(flat):
            m = flat == ci
            va, ga, ha = layer.atoms[ci].value_grad_hess(pts[m])
            assert np.array_equal(v[m], va)
            assert np.array_equal(g[m], ga)
            assert np.array_equal(h[m], ha)

    def test_vector_dispatch_matches_atoms(self, identity_first_order_run):
        layer = identity_first_order_run.field.layers[0]
        assert isinstance(layer, VectorStagePerturbation)
        assert not all(atom.is_zero for atom in layer.atoms)
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.05, 0.95, (64, 2))
        d, J = layer.jet_many(pts)
        flat = layer._flat(pts)
        for ci in np.unique(flat):
            m = flat == ci
            da, Ja = layer.atoms[ci].displacement_jacobian(pts[m])
            assert np.array_equal(d[m], da)
            assert np.array_equal(J[m], Ja)

    def test_mixed_layer_one_kernel_call_per_shape(self, quadratic_run,
                                                   monkeypatch):
        # zero atoms and a second atom shape in one layer: every non-zero
        # shape present is evaluated in one call, bitwise as cell by cell
        layer = quadratic_run.field.layers[0]
        atoms = list(layer.atoms)
        halved = (2, 9, 15)
        for ci in (1, 6):
            atoms[ci] = zero_atom(atoms[ci].cube)
        for ci in halved:
            atoms[ci] = replace(atoms[ci], amplitude=atoms[ci].amplitude / 2.0)
        mixed = StagePerturbation(layer.partition, atoms)
        calls = []
        kernel = PerturbationAtom.value_grad_hess

        def counted(atom, X, lo=None):
            calls.append(len(X))
            return kernel(atom, X, lo)

        monkeypatch.setattr(PerturbationAtom, "value_grad_hess", counted)
        t = np.linspace(0.0, 1.0, 41)
        point_sets = [np.random.default_rng(8).uniform(0.0, 1.0, (300, 2))]
        for c in (0.25, 0.5, 0.75, 1.0):  # internal faces, then the top face
            point_sets.append(np.stack([np.full_like(t, c), t], axis=-1))
            point_sets.append(np.stack([t, np.full_like(t, c)], axis=-1))
        counts = []
        for pts in point_sets:
            calls.clear()
            got = mixed.jet_many(pts)
            counts.append(len(calls))
            flat = mixed._flat(pts)
            shapes = {ci in halved for ci in np.unique(flat)
                      if not atoms[ci].is_zero}
            assert counts[-1] == len(shapes)
            for ci in np.unique(flat):
                m = flat == ci
                want = kernel(atoms[ci], pts[m])
                for part, ref in zip(got, want):
                    assert np.array_equal(part[m], ref)
        assert counts[0] == 2

    def test_vanishes_on_internal_faces(self, quadratic_run):
        layer = quadratic_run.field.layers[0]
        t = np.linspace(0.0, 1.0, 41)
        for plane in (0.25, 0.5, 0.75):
            pts = np.stack([np.full_like(t, plane), t], axis=-1)
            v, g, h = layer.jet_many(pts)
            assert np.abs(v).max() == 0.0
            assert np.abs(g).max() == 0.0
            pts = np.stack([t, np.full_like(t, plane)], axis=-1)
            v, g, h = layer.jet_many(pts)
            assert np.abs(v).max() == 0.0
            assert np.abs(g).max() == 0.0

    def test_atom_count_mismatch(self, quadratic_run):
        layer = quadratic_run.field.layers[0]
        with pytest.raises(ValueError):
            StagePerturbation(layer.partition, layer.atoms[:-1])


def _cell_grids(cell, rng):
    # seeded scattered interior points, and the tensor grid of the 2-point
    # Gauss nodes of 5 panels per axis
    lo = np.array(cell.lo)
    hi = np.array(cell.hi)
    rand = lo + rng.uniform(0.01, 0.99, (64, lo.size)) * (hi - lo)
    nodes, _ = _cell_nodes(cell, [np.linspace(0.0, 1.0, 6)] * lo.size, 2)
    return TensorGrid(rand), TensorGrid.product(nodes)


def _check_cell_matrix(field, m):
    """_CellMatrix equals _matrix_many on every cell of the m-partition,
    on scattered points and on a tensor grid."""
    partition = CubePartition(field.box, m)
    rng = np.random.default_rng(m)
    for cell in partition.cells():
        matrix = _CellMatrix(field, partition, cell)
        for grid in _cell_grids(cell, rng):
            got = matrix(grid)
            assert np.array_equal(got, _matrix_many(field, grid.points)), cell.index


class TestCellMatrix:
    def test_quadratic_stage_fields(self, quadratic_run):
        fields = [quadratic_run.base] + [rec.field for rec in quadratic_run.stages]
        for f, rec in zip(fields, quadratic_run.stages):
            m = rec.schedule.m_j
            _check_cell_matrix(f, m)
            _check_cell_matrix(rec.field, m)

    def test_first_order_field(self, identity_first_order_run):
        rec = identity_first_order_run.stages[0]
        assert len(rec.field.layers) == 1
        _check_cell_matrix(rec.field, rec.schedule.m_j)


def test_constant_cell_matrix_takes_ck_once(quadratic_run):
    # a cell that sees only the base's constant matrix computes C_k once,
    # bitwise equal to C_k of every copy; a covering atom turns that off
    th = 0.4
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    S3 = [[1.0, 0.2, 0.0], [0.2, 0.5, -0.3], [0.0, -0.3, 2.0]]
    fields_ = [
        ScalarFieldC2(make_base("quadratic", {"matrix": S3}, 3), Box.unit(3)),
        unit_quadratic(),
        VectorFieldC1(LinearMapBase(rot @ np.diag([1.0, 0.3])), UNIT_BOX),
    ]
    for field in fields_:
        n = field.n
        partition = CubePartition(field.box, 2)
        for cell in partition.cells():
            matrix = _CellMatrix(field, partition, cell)
            assert matrix.constant is field.base.constant_matrix
            nodes, _ = _cell_nodes(cell, [np.linspace(0.0, 1.0, 4)] * n, 2)
            M = matrix(TensorGrid.product(nodes))
            for k in range(1, n + 1):
                assert np.array_equal(matrix.ck(M, k), ck(M, k))
    rec = quadratic_run.stages[0]
    partition = CubePartition(rec.field.box, rec.schedule.m_j)
    for cell in partition.cells():
        (_, atom), = _layer_lookup(rec.field.layers, partition, cell)
        constant = _CellMatrix(rec.field, partition, cell).constant
        assert (constant is None) == (not atom.is_zero)


def _count_cell_quadratures(monkeypatch):
    calls = []
    inner = fields._cell_quadrature

    def counting(cell, *args):
        calls.append(cell.index)
        return inner(cell, *args)

    monkeypatch.setattr(fields, "_cell_quadrature", counting)
    return calls


def _stalled_schedule(m):
    return StageSchedule(
        j=1, tau=0.9, eps_j=0.01, delta_j=math.inf, beta_j=1.0, m_j=m,
        K_j=1.0, sample_axis=0, sup_samples=0, beta_pairs=0,
        stalled=True,
    )


def test_partition_integrals_hands_each_field_its_matrix():
    # an integrand gets the cell's frozen-matrix evaluator of every
    # field, in the order the fields are given
    fields_ = [
        ScalarFieldC2(make_base("quadratic", {"matrix": c * np.eye(2)}, 2),
                      UNIT_BOX)
        for c in (1.0, 3.0)
    ]
    partition = CubePartition(UNIT_BOX, 2)

    def integrand(ci, cell, first, second):
        return lambda grid: np.stack(
            [first(grid)[:, 0, 0], second(grid)[:, 1, 1]]
        )

    vals, _, counts = partition_integrals(
        fields_, partition, integrand, 2, StairConfig(quad_points=2)
    )
    np.testing.assert_allclose(vals, [[0.25, 0.75]] * 4, rtol=1e-13)
    assert counts.cells == 4


def _stage_pass(field, partition, atoms, config, shared):
    cells = list(partition.cells())
    classes = None
    if shared:
        classes = [
            _cell_class(field, partition, cell, atoms[ci])
            for ci, cell in enumerate(cells)
        ]
    return partition_integrals(
        (field,), partition,
        lambda ci, cell, frozen: _stage_integrand(frozen, atoms[ci], 2, 1.5),
        5, config, atoms, classes,
    )


@pytest.fixture(scope="module")
def small_quadratic_run():
    """One live stage on diag(0.7, 1.8) at the benchmark's coarse settings."""
    w = ScalarFieldC2(
        make_base("quadratic", {"matrix": np.diag([0.7, 1.8])}, 2), UNIT_BOX
    )
    return run_construction(
        w, 2, 1.5, 0.3, 0.3, 1,
        config=StairConfig(seed=11, tau=0.9, quad_points=2),
    )


class TestCertificateChecks:
    def test_each_check_drives_the_verdict(self, small_quadratic_run):
        rec = small_quadratic_run.stages[0]
        cert = rec.certificate
        assert list(cert.checks) == ["c0", "c2", "c3", "c4", "atoms"]
        assert cert.passed and not soft_failures(small_quadratic_run)
        for name, field in StageCertificate.CHECK_FIELDS:
            flipped = replace(cert, **{field: False})
            result = replace(small_quadratic_run,
                             stages=(replace(rec, certificate=flipped),))
            assert not flipped.passed
            assert [n for n, ok in flipped.checks.items() if not ok] == [name]
            line = "checks: " + ", ".join(
                f"{n} {'FAIL' if n == name else 'PASS'}"
                for n, _ in StageCertificate.CHECK_FIELDS
            ) + " -> stage FAIL"
            assert line in run_report_text(result).splitlines()
            assert (f"stage 1: certificate failed ({name})"
                    in soft_failures(result))


class TestClassQuadrature:
    def test_stage_one_integrates_one_class(self, quadratic_run, monkeypatch):
        calls = _count_cell_quadratures(monkeypatch)
        rec = quadratic_run.stages[0]
        _, _, cert = run_stage(
            quadratic_run.base, rec.schedule, quadratic_run.k, quadratic_run.q,
            config=StairConfig(seed=11, tau=0.9),
        )
        assert len(calls) == 1
        assert cert.I_new == rec.certificate.I_new
        assert np.array_equal(cert.mass_errs_new, rec.certificate.mass_errs_new)
        qc = rec.certificate.quadrature
        assert (qc.classes, qc.cells, qc.thinned) == (1, 16, 0)
        assert qc.full_points == 16 * qc.points > 0

    def test_polynomial_base_integrates_every_cell(self, monkeypatch):
        # no constant matrix: every cell is its own class, even with equal
        # (zero) atoms
        f = ScalarFieldC2(
            make_base("polynomial", {"terms": [[2, 0, 0.5], [0, 2, 1.0]]}, 2),
            UNIT_BOX,
        )
        calls = _count_cell_quadratures(monkeypatch)
        _, _, cert = run_stage(f, _stalled_schedule(2), 2, 1.5,
                               config=StairConfig(quad_points=2))
        assert sorted(calls) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert cert.quadrature.classes == cert.quadrature.cells == 4

    def test_shared_classes_match_cell_by_cell(self, small_quadratic_run):
        rec = small_quadratic_run.stages[0]
        config = StairConfig(quad_points=2)
        f0 = small_quadratic_run.base
        partition = CubePartition(UNIT_BOX, rec.schedule.m_j)
        # stage 1: one class; then the committed field one level finer,
        # where each stage cell holds four classes by offset
        fine = CubePartition(UNIT_BOX, 2 * rec.schedule.m_j)
        zeros = [zero_atom(c.box) for c in fine.cells()]
        for field, part, atoms, ncls in (
            (f0, partition, rec.atoms, 1), (rec.field, fine, zeros, 4),
        ):
            v1, e1, q1 = _stage_pass(field, part, atoms, config, True)
            v0, e0, q0 = _stage_pass(field, part, atoms, config, False)
            assert q1.classes == ncls
            assert q0.classes == q0.cells == q1.cells == part.num_cells
            assert q1.full_points == q0.points
            np.testing.assert_allclose(v1, v0, rtol=1e-12, atol=1e-15)
            # error bars of integrands that are constant on a cell are
            # rounding noise, hence the absolute floor
            np.testing.assert_allclose(e1, e0, rtol=1e-6, atol=1e-15)
            if field is f0:
                # run_stage took the same shared pass
                assert np.array_equal(v1[:, 1], rec.certificate.masses_new)

    def test_report_lines(self, quadratic_run):
        text = run_report_text(quadratic_run)
        assert "live_stages = 1 of 4" in text
        assert text.count("quadrature = ") == 4
        assert "quadrature = 1 classes integrated for 16 cells" in text
        # stages 2-4 probe the trains of 8 of the 16 stage-1 atoms for beta_j
        for rec in quadratic_run.stages[1:]:
            sch = rec.schedule
            assert (sch.probe_atoms, sch.sup_probed, sch.beta_probed) == (16, 16, 8)
            assert ("beta_j sample probed 8 of 16 committed atoms"
                    in rec.certificate.notes)


def _count_engine_calls(monkeypatch):
    """QuadratureCounts of every integrate_on_partition call."""
    calls = []
    inner = fields.integrate_on_partition

    def counting(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.append(out[2])
        return out

    for module in (fields, staircase):
        monkeypatch.setattr(module, "integrate_on_partition", counting)
    return calls


class _NanStripBase:
    """|x|^2 / 2 with a NaN Hessian on the strip x_0 > 0.9."""

    n = 2

    def jet_many(self, X):
        hess = np.broadcast_to(np.eye(2), (X.shape[0], 2, 2)).copy()
        hess[X[:, 0] > 0.9] = np.nan
        return 0.5 * (X * X).sum(axis=1), X.copy(), hess


class TestQuadratureEngine:
    def test_non_finite_hessian_raises(self):
        # the cell centers are finite, so only the quadrature sees the strip
        f = ScalarFieldC2(_NanStripBase(), UNIT_BOX)
        with pytest.raises(QuadratureError, match="non-finite"):
            ck_mass(f, 2, 2)
        with pytest.raises(QuadratureError, match="non-finite"):
            run_stage(f, _stalled_schedule(2), 2, 1.5,
                      config=StairConfig(quad_points=2))

    def test_partition_must_tile_the_field_box(self):
        # nesting against the layers is decided from cell counts alone
        f = ScalarFieldC2(make_base("quadratic", {"matrix": np.eye(2)}, 2), UNIT_BOX)
        half = CubePartition(Box((0.0, 0.0), (0.5, 0.5)), 2)
        with pytest.raises(ValueError, match="tile the field's box"):
            staircase.field_invariant_integrals(f, half, 2)

    def test_partition_must_nest_every_layer(self, quadratic_run):
        # a partition coarser than a committed layer's, or finer but not a
        # multiple of it, raises at every entry to the stage quadrature
        field = quadratic_run.field
        m = quadratic_run.stages[0].schedule.m_j
        assert [layer.partition.m for layer in field.layers] == [m]
        config = StairConfig(quad_points=2)
        for m_bad in (m // 2, m + 2):
            partition = CubePartition(field.box, m_bad)
            with pytest.raises(ValueError, match="does not nest"):
                partition_integrals(
                    (quadratic_run.base, field), partition,
                    lambda ci, cell, *matrices: None, 1, config,
                )
            with pytest.raises(ValueError, match="does not nest"):
                staircase.field_invariant_integrals(field, partition, 2)
            stalled = _stalled_schedule(m_bad)
            for schedule in (stalled, replace(stalled, stalled=False)):
                with pytest.raises(ValueError, match="does not nest"):
                    run_stage(field, schedule, 2, 1.5, config=config)

    def test_base_layers_nest_in_every_stage_partition(self):
        # a base with a committed layer of its own, 3 cells per axis, which
        # does not divide the base seminorm's 8 nor stage 1's 4
        part = CubePartition(UNIT_BOX, 3)
        w = unit_quadratic().with_layers(
            [StagePerturbation(part, [zero_atom(c.box) for c in part.cells()])]
        )
        res = run_construction(
            w, 2, 1.5, 0.3, 0.3, 1,
            config=StairConfig(seed=11, tau=0.9, quad_points=2),
        )
        assert res.stages[0].schedule.m_j % 3 == 0
        assert res.base_seminorm_qq == pytest.approx(1.0, rel=1e-12)
        assert res.I_trace[0] == pytest.approx(1.0, rel=1e-12)

    def test_run_construction_routes_through_engine(self, monkeypatch):
        calls = _count_engine_calls(monkeypatch)
        w = ScalarFieldC2(
            make_base("quadratic", {"matrix": np.diag([0.7, 1.8])}, 2), UNIT_BOX
        )
        res = run_construction(
            w, 2, 1.5, 0.3, 0.3, 2,
            config=StairConfig(seed=11, tau=0.9, quad_points=2),
        )
        live = [rec for rec in res.stages if not rec.schedule.stalled]
        assert len(live) == 1
        # the base seminorm, then each stage that did not stall
        assert len(calls) == 1 + len(live)
        assert calls[0].cells == 64
        assert calls[1] == live[0].certificate.quadrature

    def test_measures_route_through_engine(self, small_quadratic_run,
                                           monkeypatch):
        calls = _count_engine_calls(monkeypatch)
        rec = small_quadratic_run.stages[0]
        f0, f1 = small_quadratic_run.base, rec.field
        ck_mass(f0, 2, 2)
        assert len(calls) == 1
        _, phi = probe_family(2)[0]
        weakstar_gap(f1, f0, phi, 0.9, rec.schedule.K_j, k=2, j=1,
                     config=StairConfig(quad_points=2))
        assert len(calls) == 2
        sobolev_seminorm(f0, 1.5, norm="operator")
        assert len(calls) == 3

    def test_base_seminorm_classes(self, monkeypatch):
        calls = _count_engine_calls(monkeypatch)
        config = StairConfig(quad_points=2)
        for family, params, classes in (
            ("quadratic", {"matrix": np.diag([0.7, 1.8])}, 1),
            ("polynomial", {"terms": [[2, 0, 0.5], [0, 2, 1.0]]}, 64),
        ):
            f = ScalarFieldC2(make_base(family, params, 2), UNIT_BOX)
            _base_seminorm_qq(f, 1.5, config)
            assert (calls[-1].classes, calls[-1].cells) == (classes, 64)


class TestFirstOrderRun:
    def test_contracts_jacobian_invariant(self, identity_first_order_run):
        res = identity_first_order_run
        c = res.stages[0].certificate
        assert c.I_prev == pytest.approx(1.0, abs=1e-9)
        assert c.ratio < 0.9
        assert c.ratio > 2 ** (res.q / 2 - 1) - 0.05
        assert res.all_passed

    def test_rotation_is_identity_for_symmetric_base(self, identity_first_order_run):
        atoms = identity_first_order_run.stages[0].atoms
        live = [a for a in atoms if not a.is_zero]
        assert live
        for a in live:
            assert np.array_equal(a.rotation, np.eye(2))

    def test_order_zero_closeness(self, identity_first_order_run):
        res = identity_first_order_run
        sup_v, sup_g, quot = res.c1a_parts
        assert sup_g == 0.0
        assert res.c1a_distance <= res.eps
        for lhs, rhs, ok in res.interpolation_checks:
            assert ok

    def test_later_stages_stall(self, identity_first_order_run):
        for rec in identity_first_order_run.stages[1:]:
            assert rec.schedule.stalled
            assert rec.certificate.ratio == 1.0

    def test_displacement_vanishes_on_faces(self, identity_first_order_run):
        layer = identity_first_order_run.field.layers[0]
        t = np.linspace(0.0, 1.0, 31)
        pts = np.stack([np.full_like(t, 0.5), t], axis=-1)
        d, jac = layer.jet_many(pts)
        assert np.abs(d).max() == 0.0
        assert np.abs(jac).max() == 0.0

    def test_rotated_base_matches_unrotated(self):
        # u0 = O D x has non-symmetric Jacobians, so its stage integrals run
        # through the general singular value kernel; u0 = D x stays on the
        # symmetric route. C_k ignores O, so both runs must agree.
        D = np.diag([0.7, 1.8])
        theta = 0.9
        O = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        cfg = StairConfig(seed=3, tau=0.9, quad_points=2, node_budget=200_000)
        traces = []
        for M in (O @ D, D):
            res = run_first_order(
                VectorFieldC1(LinearMapBase(M), UNIT_BOX), 2, 1.1, 0.3, 0.3, 1,
                config=cfg,
            )
            assert res.all_passed
            assert all(c.passed for c in res.certificates)
            traces.append(np.array(res.I_trace))
        np.testing.assert_allclose(traces[0], traces[1], rtol=1e-8, atol=0.0)

    def test_type_checks(self):
        with pytest.raises(TypeError):
            run_first_order(unit_quadratic(), 2, 1.1, 0.3, 0.1, 1)
        with pytest.raises(TypeError):
            run_construction(
                VectorFieldC1(LinearMapBase(np.eye(2)), UNIT_BOX),
                2, 1.5, 0.3, 0.1, 1,
            )


class TestRunValidation:
    def test_exponent_window(self):
        w = affine_field()
        with pytest.raises(ValueError, match="p < k"):
            run_construction(w, 2, 2.0, 0.3, 0.1, 1)
        with pytest.raises(ValueError, match="p < k"):
            run_construction(w, 2, 0.5, 0.3, 0.1, 1)
        with pytest.raises(ValueError):
            run_construction(w, 4, 1.5, 0.3, 0.1, 1)
        with pytest.raises(ValueError):
            run_construction(w, 2, 1.5, 0.3, 0.1, 0)
        with pytest.raises(ValueError):
            run_construction(w, 2, 1.5, 1.3, 0.1, 1)
        with pytest.raises(ValueError):
            run_construction(w, 2, 1.5, 0.3, -0.1, 1)

    def test_tau_headroom(self):
        with pytest.raises(ValueError, match="headroom"):
            run_construction(
                unit_quadratic(), 2, 1.5, 0.3, 0.1, 1,
                config=StairConfig(tau=0.8),
            )


class TestDeterminism:
    def test_identical_runs_bitwise(self):
        box = Box((0.0, 0.0), (1.0, 1.0))

        def one():
            w = ScalarFieldC2(
                make_base("quadratic", {"matrix": [[1.0, 0.0], [0.0, 2.0]]}, 2),
                box,
            )
            return run_construction(
                w, 2, 1.5, 0.3, 0.25, 1, config=StairConfig(seed=9, tau=0.9)
            )

        a, b = one(), one()
        ca, cb = a.certificates[0], b.certificates[0]
        assert np.array_equal(ca.masses_new, cb.masses_new)
        assert ca.I_new == cb.I_new
        assert ca.sup_c1 == cb.sup_c1
        assert a.c1a_distance == b.c1a_distance
        rows_a = [c.csv_row() for c in ca.atom_certs]
        rows_b = [c.csv_row() for c in cb.atom_certs]
        assert rows_a == rows_b

    def test_run_stage_reuses_plan(self):
        f = unit_quadratic()
        sch = plan_stage(
            f, 1, 0.9, 0.3, 0.25, StairConfig(seed=9), k=2, q=1.5, m_prev=1
        )
        atoms1, f1, c1 = run_stage(f, sch, 2, 1.5, config=StairConfig(seed=9))
        atoms2, f2, c2 = run_stage(f, sch, 2, 1.5, config=StairConfig(seed=9))
        assert np.array_equal(c1.masses_new, c2.masses_new)
        assert c1.I_new == c2.I_new
        assert atoms1[0].periods == atoms2[0].periods
        assert atoms1[0].amplitude == atoms2[0].amplitude
