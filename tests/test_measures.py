import math

import numpy as np
import pytest

from degenhess import (
    Box,
    LinearMapBase,
    ScalarFieldC2,
    StairConfig,
    VectorFieldC1,
    ck_mass,
    density_trace,
    holder_distance,
    mass_bound_check,
    run_construction,
    sobolev_seminorm,
    stage_measures,
    test_function_family as probe_family,
    weakstar_gap,
)
from degenhess.fields import DomainError, FieldDifference, make_base
from degenhess.measures import MeasureCheckError, _measure

BOX = Box((0.0, 0.0), (1.0, 1.0))


def scalar(name, params):
    return ScalarFieldC2(make_base(name, params, 2), BOX)


@pytest.fixture(scope="module")
def quadratic_field():
    return scalar("quadratic", {"matrix": [[1.0, 0.0], [0.0, 1.0]]})


@pytest.fixture(scope="module")
def affine_field():
    return scalar("affine", {"linear": [0.3, 0.0]})


@pytest.fixture(scope="module")
def quadratic_masses(quadratic_run):
    # full default quadrature, same knobs the run itself used
    rec = quadratic_run.stages[-1]
    return ck_mass(rec.field, quadratic_run.k, rec.certificate.m_j)


@pytest.fixture(scope="module")
def base_masses(quadratic_run):
    return ck_mass(quadratic_run.base, quadratic_run.k, 4)


@pytest.fixture(scope="module")
def affine_run(affine_field):
    return run_construction(
        affine_field, 2, 1.5, 0.3, 0.1, 2, config=StairConfig(seed=5)
    )


class TestSobolevSeminorm:
    def test_quadratic_frobenius_value(self, quadratic_field):
        got = sobolev_seminorm(quadratic_field, 2.0)
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_quadratic_operator_value(self, quadratic_field):
        got = sobolev_seminorm(quadratic_field, 2.0, norm="operator")
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_affine_zero(self, affine_field):
        assert sobolev_seminorm(affine_field, 1.5) == 0.0

    def test_rejects_p_below_one(self, quadratic_field):
        with pytest.raises(ValueError, match="p >= 1"):
            sobolev_seminorm(quadratic_field, 0.5)

    def test_rejects_unknown_norm(self, quadratic_field):
        with pytest.raises(ValueError, match="norm"):
            sobolev_seminorm(quadratic_field, 2.0, norm="nuclear")

    def test_staircase_triangle_budget(self, quadratic_run):
        # Minkowski across the committed increments, with the run's own
        # measured stage integrals on the right hand side
        q = quadratic_run.q
        cfg = StairConfig(node_budget=10_000_000)
        f_last = quadratic_run.stages[-1].field
        s_op = sobolev_seminorm(f_last, q, norm="operator", config=cfg)
        s_fr = sobolev_seminorm(f_last, q, config=cfg)
        rhs = quadratic_run.base_seminorm_qq ** (1.0 / q) + sum(
            c.grad2_qq ** (1.0 / q) for c in quadratic_run.certificates
        )
        assert s_op <= rhs + 1e-6
        assert s_fr <= math.sqrt(2.0) * s_op + 1e-9


class TestCkMass:
    def test_quadratic_unit_total(self, quadratic_field):
        meas = ck_mass(quadratic_field, 2, 1)
        assert meas.total == pytest.approx(1.0, abs=1e-12)
        assert meas.stage == 0
        assert meas.level == 1

    def test_affine_masses_zero(self, affine_field):
        meas = ck_mass(affine_field, 2, 4)
        assert np.all(meas.masses == 0.0)
        assert meas.total == 0.0

    def test_level_validated(self, quadratic_field):
        with pytest.raises(ValueError, match="positive integer"):
            ck_mass(quadratic_field, 2, 0)
        with pytest.raises(ValueError, match="positive integer"):
            ck_mass(quadratic_field, 2, 2.5)

    def test_incompatible_level_rejected(self, quadratic_run):
        # a level the stage partition (4 per axis) does not nest in, also a
        # coarser one: its masses are sums of the stage cells'
        f1 = quadratic_run.stages[0].field
        for level in (3, 2, 1):
            with pytest.raises(ValueError, match="incompatible"):
                ck_mass(f1, 2, level)

    def test_one_level_rule_for_every_measure(self, quadratic_run,
                                              quadratic_field):
        # sobolev_seminorm and weakstar_gap validate a level as ck_mass
        # does, against the stage partitions of every field they read
        f0, f1 = quadratic_run.base, quadratic_run.stages[0].field
        phi = dict(probe_family(2))["1"]
        for level in (2.7, 0, -4):
            with pytest.raises(ValueError, match="positive integer"):
                sobolev_seminorm(quadratic_field, 2.0, level=level)
            with pytest.raises(ValueError, match="positive integer"):
                weakstar_gap(f1, f0, phi, 0.9, 1.0, k=2, j=1, level=level)
        for level in (3, 2):
            with pytest.raises(ValueError, match="incompatible"):
                sobolev_seminorm(f1, 2.0, level=level)
            with pytest.raises(ValueError, match="incompatible"):
                weakstar_gap(f1, f0, phi, 0.9, 1.0, k=2, j=1, level=level)
            with pytest.raises(ValueError, match="incompatible"):
                weakstar_gap(f0, f1, phi, 0.9, 1.0, k=2, j=1, level=level)

    def test_finer_level_consistent(self, quadratic_run, quadratic_masses):
        f1 = quadratic_run.stages[0].field
        meas = ck_mass(f1, 2, 8, config=StairConfig(node_budget=2_000_000))
        slack = meas.total_error + quadratic_masses.total_error + 1e-6
        assert abs(meas.total - quadratic_masses.total) <= slack

    def test_csv_rows(self, base_masses):
        rows = base_masses.csv_rows()
        assert len(rows) == 16
        assert [i for i, _ in rows] == list(range(16))
        assert rows[3][1] == float(base_masses.masses[3])

    def test_consistency_with_certificates(self, quadratic_run, quadratic_masses):
        # same quantity through two code paths, spec'd to 1e-8 relative
        for cert in (
            quadratic_run.stages[0].certificate,
            quadratic_run.stages[-1].certificate,
        ):
            total = float(np.sum(cert.masses_new))
            assert abs(quadratic_masses.total - total) <= 1e-8 * total
            assert np.allclose(
                quadratic_masses.masses, cert.masses_new,
                rtol=1e-9, atol=1e-13,
            )

    def test_stage_drift_within_tau(
        self, quadratic_run, quadratic_masses, base_masses
    ):
        cube_vol = base_masses.cell_volume
        drift = np.abs(quadratic_masses.masses - base_masses.masses)
        errs = quadratic_masses.errors + base_masses.errors
        assert np.all(drift <= quadratic_run.tau * cube_vol + errs)


class TestStageMeasures:
    def test_structure(self, quadratic_run):
        meas = stage_measures(quadratic_run)
        assert [m.stage for m in meas] == [0, 1, 2, 3, 4]
        assert all(m.level == 4 for m in meas)
        cert1 = quadratic_run.stages[0].certificate
        assert np.array_equal(meas[0].masses, np.asarray(cert1.masses_prev))
        assert np.array_equal(meas[1].masses, np.asarray(cert1.masses_new))

    def test_density_at_reads_cube_mass(self, quadratic_run):
        meas = stage_measures(quadratic_run)[1]
        val, err = meas.density_at((0.125, 0.125))
        assert val == float(meas.masses[0]) / meas.cell_volume
        assert err >= 0.0

    def test_density_at_rejects_points_outside_the_box(self):
        meas = _measure(0, 2, BOX, np.ones(4), np.zeros(4))
        assert meas.density_at((0.75, 0.25)) == (4.0, 0.0)
        with pytest.raises(DomainError):
            meas.density_at((5.0, 5.0))

    def test_density_at_rejects_nan(self):
        meas = _measure(0, 2, BOX, np.ones(4), np.zeros(4))
        with pytest.raises(DomainError):
            meas.density_at((math.nan, 0.5))

    def test_mass_bound_rows(self, quadratic_run):
        rows = mass_bound_check(quadratic_run)
        assert len(rows) == 5
        assert all(r[4] for r in rows)
        assert rows[0][3] == quadratic_run.mass_bound_K
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)


WCFG = StairConfig(node_budget=1_000_000)


class TestWeakstarGap:
    def test_zero_phi_gap_exactly_zero(self, quadratic_run):
        f1 = quadratic_run.stages[0].field

        def phi(X):
            return np.zeros(len(X)), np.zeros_like(X)

        got = weakstar_gap(
            f1, quadratic_run.base, phi, quadratic_run.tau,
            quadratic_run.mass_bound_K, k=2, j=1, config=WCFG,
        )
        assert got.gap == 0.0
        assert got.bound == 0.0
        assert got.passed
        # without a level, the finest stage partition
        assert got.level == f1.layers[0].partition.m

    def test_unit_phi_within_tau(self, quadratic_run):
        fam = dict(probe_family(2))
        f1 = quadratic_run.stages[0].field
        gap, bound = weakstar_gap(
            f1, quadratic_run.base, fam["1"], quadratic_run.tau,
            quadratic_run.mass_bound_K, k=2, j=1, config=WCFG,
        )
        # constant test function, so the diameter term drops out
        assert bound == pytest.approx(quadratic_run.tau, rel=1e-12)
        assert gap <= bound

    def test_family_within_bounds_stage_one(self, quadratic_run):
        f1 = quadratic_run.stages[0].field
        for name, phi in probe_family(2):
            got = weakstar_gap(
                f1, quadratic_run.base, phi, quadratic_run.tau,
                quadratic_run.mass_bound_K, k=2, j=1, config=WCFG,
            )
            assert got.passed, name

    def test_gap_does_not_depend_on_argument_order(self, quadratic_run):
        # the panels snap to the atoms of both fields, whichever comes
        # first, so swapping them only negates the integrand
        f1 = quadratic_run.stages[0].field
        for name, phi in probe_family(2):
            got, swapped = (
                weakstar_gap(
                    f, g, phi, quadratic_run.tau, quadratic_run.mass_bound_K,
                    k=2, j=1, config=WCFG,
                )
                for f, g in ((f1, quadratic_run.base), (quadratic_run.base, f1))
            )
            assert (swapped.gap, swapped.quad_error) == (
                got.gap, got.quad_error
            ), name

    def test_stalled_stage_gap_zero(self, quadratic_run):
        fam = dict(probe_family(2))
        got = weakstar_gap(
            quadratic_run.stages[1].field, quadratic_run.stages[0].field,
            fam["x1"], quadratic_run.tau, quadratic_run.mass_bound_K,
            k=2, j=2, config=WCFG,
        )
        assert got.gap == 0.0
        assert got.quad_error == 0.0
        assert got.j == 2

    def test_gaps_summable_across_stages(self, quadratic_run):
        fields = [quadratic_run.base] + [
            rec.field for rec in quadratic_run.stages
        ]
        for name, phi in probe_family(2):
            gaps = []
            bounds = []
            for j in range(1, len(fields)):
                got = weakstar_gap(
                    fields[j], fields[j - 1], phi, quadratic_run.tau,
                    quadratic_run.mass_bound_K, k=2, j=j, config=WCFG,
                )
                gaps.append(got.gap)
                bounds.append(got.bound + got.quad_error)
            assert all(g <= b for g, b in zip(gaps, bounds)), name
            # stalled tail contributes nothing, the series is summable
            assert all(g == 0.0 for g in gaps[1:]), name

    def test_stage_index_required_without_layers(self, quadratic_field):
        fam = dict(probe_family(2))
        with pytest.raises(ValueError, match="pass j="):
            weakstar_gap(quadratic_field, quadratic_field, fam["1"], 0.9, 1.0, k=2)

    def test_box_mismatch_rejected(self, quadratic_field):
        other = ScalarFieldC2(
            make_base("quadratic", {"matrix": [[1.0, 0.0], [0.0, 1.0]]}, 2),
            Box((0.0, 0.0), (2.0, 2.0)),
        )
        phi = dict(probe_family(2))["1"]
        with pytest.raises(ValueError, match="different boxes"):
            weakstar_gap(other, quadratic_field, phi, 0.9, 1.0, k=2, j=1)

    def test_mixed_kinds_rejected(self, quadratic_field):
        u = VectorFieldC1(LinearMapBase(np.eye(2)), BOX)
        phi = dict(probe_family(2))["1"]
        with pytest.raises(TypeError, match="mix"):
            weakstar_gap(quadratic_field, u, phi, 0.9, 1.0, k=2, j=1)

    def test_phi_without_gradients_rejected(self, quadratic_run):
        f1 = quadratic_run.stages[0].field
        with pytest.raises(TypeError, match=r"\(values, gradients\)"):
            weakstar_gap(
                f1, quadratic_run.base, lambda X: np.ones(len(X)),
                quadratic_run.tau, quadratic_run.mass_bound_K, k=2, j=1,
                config=WCFG,
            )

    def test_violation_raises(self, quadratic_field):
        doubled = scalar("quadratic", {"matrix": [[2.0, 0.0], [0.0, 2.0]]})
        fam = dict(probe_family(2))
        with pytest.raises(MeasureCheckError, match="exceeds"):
            weakstar_gap(
                doubled, quadratic_field, fam["1"], 0.01, 1e-6,
                k=2, j=1, level=2,
                config=StairConfig(node_budget=500_000),
            )


class TestDensityTrace:
    def test_affine_trace_zero(self, affine_run):
        trace = density_trace((0.3, 0.6), affine_run)
        assert all(v == 0.0 for v in trace.values)
        assert trace.decaying is True
        assert not trace.nudged

    def test_quadratic_trace(self, quadratic_run):
        trace = density_trace((1.0 / 3.0, 2.0 / 3.0), quadratic_run)
        assert trace.stages == (0, 1, 2, 3, 4)
        assert trace.values[0] == pytest.approx(1.0, abs=1e-10)
        assert not trace.nudged
        for a, b, ea, eb in zip(
            trace.values[1:], trace.values[2:],
            trace.errors[1:], trace.errors[2:],
        ):
            assert b <= a + ea + eb
        # stalled stages carry the stage-1 masses bitwise
        assert trace.values[2] == trace.values[1]
        assert trace.values[4] == trace.values[1]
        # mass per cube is conserved here, so no envelope decay
        assert trace.decaying is False

    def test_run_and_measure_sequence_agree(self, quadratic_run):
        x = (0.7, 0.2)
        via_run = density_trace(x, quadratic_run)
        via_meas = density_trace(
            x, stage_measures(quadratic_run),
            tau=quadratic_run.tau, p=quadratic_run.p, k=quadratic_run.k,
        )
        assert via_run == via_meas

    def test_boundary_point_nudged(self, quadratic_run):
        trace = density_trace((0.25, 0.5), quadratic_run)
        assert trace.nudged
        assert trace.point == (0.25 + 1e-9, 0.5 + 1e-9)

    def test_exterior_point_rejected(self, quadratic_run):
        with pytest.raises(ValueError, match="interior"):
            density_trace((1.5, 0.5), quadratic_run)

    def test_regime_annotation_suppresses_flag(self):
        meas = [
            _measure(0, 4, BOX, np.full(16, 1 / 16.0), np.zeros(16)),
            _measure(1, 4, BOX, np.full(16, 1 / 32.0), np.zeros(16)),
            _measure(2, 4, BOX, np.full(16, 1 / 64.0), np.zeros(16)),
        ]
        trace = density_trace((0.3, 0.3), meas, tau=0.9, p=1.0, k=2)
        assert trace.decaying is None
        assert "p <= k-1" in trace.note
        in_regime = density_trace((0.3, 0.3), meas, tau=0.9, p=1.5, k=2)
        assert in_regime.decaying is True
        assert in_regime.note == ""


class TestHolderDistance:
    def test_identical_fields_zero(self, quadratic_field):
        got = holder_distance(quadratic_field, quadratic_field, 0.3)
        assert got.total == 0.0
        assert float(got) == 0.0

    def test_linear_offset_parts(self, quadratic_field, affine_field):
        flat = scalar("affine", {"linear": [0.0, 0.0]})
        got = holder_distance(affine_field, flat, 0.4)
        assert got.sup_gradient == pytest.approx(0.3, abs=1e-14)
        assert got.holder_quotient == 0.0

    def test_vector_identical_zero(self, identity_first_order_run):
        u = identity_first_order_run.field
        got = holder_distance(u, u, 0.3)
        assert got.total == 0.0
        assert got.sup_gradient == 0.0

    def test_alpha_validated(self, quadratic_field):
        with pytest.raises(ValueError, match="alpha"):
            holder_distance(quadratic_field, quadratic_field, 1.0)

    def test_box_mismatch_rejected(self, quadratic_field):
        other = ScalarFieldC2(
            make_base("quadratic", {"matrix": [[1.0, 0.0], [0.0, 1.0]]}, 2),
            Box((0.0, 0.0), (2.0, 2.0)),
        )
        with pytest.raises(ValueError, match="different boxes"):
            holder_distance(quadratic_field, other, 0.3)

    def test_mixed_kinds_rejected(self, quadratic_field):
        u = VectorFieldC1(LinearMapBase(np.eye(2)), BOX)
        with pytest.raises(TypeError, match="mix"):
            holder_distance(quadratic_field, u, 0.3)

    def test_run_guarantee_remeasured(self, quadratic_run):
        got = holder_distance(
            quadratic_run.stages[-1].field, quadratic_run.base,
            quadratic_run.alpha,
        )
        assert got.total <= quadratic_run.eps

    def test_stage_telescoping(self, quadratic_run):
        # interpolation bound with the factor 2, then the geometric sum
        fields = [quadratic_run.base] + [
            rec.field for rec in quadratic_run.stages
        ]
        total = 0.0
        for j, rec in enumerate(quadratic_run.stages, start=1):
            got = holder_distance(
                fields[j], fields[j - 1], quadratic_run.alpha,
                pairs_per_radius=1500,
            )
            sch = rec.schedule
            bound = 2.0 * sch.K_j**quadratic_run.alpha * sch.eps_j ** (
                1.0 - quadratic_run.alpha
            )
            assert got.total <= bound
            total += got.total
        assert total <= quadratic_run.eps


class TestGluedField:
    """The measures read committed layers, which an evaluator without
    them, such as a field difference, has not."""

    ACCEPTED = "ScalarFieldC2 or a VectorFieldC1, not a FieldDifference"

    @pytest.fixture(scope="class")
    def layerless(self, quadratic_field):
        return FieldDifference(quadratic_field, quadratic_field)

    def test_ck_mass_names_accepted_types(self, layerless):
        with pytest.raises(TypeError, match=self.ACCEPTED):
            ck_mass(layerless, 2, None)

    def test_sobolev_seminorm_names_accepted_types(self, layerless):
        with pytest.raises(TypeError, match=self.ACCEPTED):
            sobolev_seminorm(layerless, 2.0)

    def test_weakstar_gap_names_accepted_types(self, layerless, quadratic_field):
        phi = dict(probe_family(2))["1"]
        for f_j, f_prev in ((layerless, quadratic_field),
                            (quadratic_field, layerless)):
            with pytest.raises(TypeError, match=self.ACCEPTED):
                weakstar_gap(f_j, f_prev, phi, 0.9, 1.0, k=2, j=1)


def test_grid_kernel_matches_pointwise_hessian(quadratic_field, monkeypatch):
    # an aligned atom's grid Hessian writes only its nonzero entries; with
    # the pointwise Hessian in its place every measure and the stage
    # certificate must read the same numbers (the measures at WCFG's
    # budget, which keeps them cheap and still runs every grid chunk
    # through matrix_on)
    from degenhess.atom import PerturbationAtom

    def readings():
        run = run_construction(quadratic_field, 2, 1.5, 0.3, 0.1, 1,
                               config=StairConfig(seed=11, tau=0.9))
        f1, cert = run.stages[0].field, run.stages[0].certificate
        assert not cert.stalled
        m = ck_mass(f1, 2, cert.m_j, config=WCFG)
        out = [cert.masses_prev, cert.masses_new, cert.mass_errs_prev,
               cert.mass_errs_new, cert.I_new, cert.I_new_err,
               m.masses, m.errors, sobolev_seminorm(f1, 1.5, config=WCFG)]
        for _, phi in probe_family(2):
            got = weakstar_gap(f1, run.base, phi, run.tau, run.mass_bound_K,
                               k=2, j=1, config=WCFG)
            out += [got.gap, got.quad_error]
        return out

    grid_kernel = readings()
    monkeypatch.setattr(PerturbationAtom, "matrix_on",
                        lambda self, grid: self.value_grad_hess(grid.points)[2])
    pointwise = readings()
    for got, want in zip(grid_kernel, pointwise):
        assert np.array_equal(got, want)
