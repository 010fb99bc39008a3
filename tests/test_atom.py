import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from degenhess.atom import (
    AtomParams,
    AtomTuningError,
    CERTIFICATE_COLUMNS,
    CERTIFICATION_SUITE,
    PerturbationAtom,
    build_atom,
    build_vector_atom,
    certification_bound,
    certify_atom,
    cutoff_eval,
    predicted_contraction,
    profile_breakpoints,
    profile_eval,
    tune_atom,
    zero_atom,
)
from degenhess.fields import Box, TensorGrid
from degenhess.invariants import ck

GAMMA = 0.01


def gauss_panels(f, edges, points=8):
    x, w = np.polynomial.legendre.leggauss(points)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += (hi - lo) * float(w @ f(lo + (hi - lo) * x))
    return total


class TestProfile:
    # frozen reference values for gamma_s = 0.01, checked against an
    # independent adaptive integration of the piecewise description
    def test_breakpoints(self):
        b = profile_breakpoints(GAMMA)
        assert np.allclose(
            b, [0.0, 0.01, 0.2425, 0.2625, 0.7375, 0.7575, 0.99, 1.0]
        )

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            profile_breakpoints(0.2)
        with pytest.raises(ValueError):
            profile_breakpoints(0.0)

    def test_antiderivatives_vanish_at_gluing_points(self):
        w0, w1, w2 = profile_eval(np.array([0.0, 0.5, 1.0]), GAMMA)
        assert abs(w1[0]) == 0.0
        assert abs(w1[1]) < 1e-15
        assert abs(w1[2]) < 1e-15
        assert abs(w0[0]) == 0.0
        assert abs(w0[2]) < 1e-15
        assert abs(w2[0]) < 1e-12 and abs(w2[2]) < 1e-12

    def test_frozen_values(self):
        b = profile_breakpoints(GAMMA)
        w0, w1, w2 = profile_eval(b, GAMMA)
        assert w1[2] == pytest.approx(-0.2375, abs=1e-15)
        assert w1[3] == pytest.approx(-0.2375, abs=1e-15)
        assert w1[4] == pytest.approx(0.2375, abs=1e-15)
        assert w0[1] == pytest.approx(-GAMMA ** 2 / 7.0, abs=1e-18)
        # the closing ramp mirrors the opening one
        assert w0[6] == pytest.approx(-GAMMA ** 2 / 7.0, abs=1e-12)
        mid = profile_eval(np.array([0.5]), GAMMA)
        assert mid[0][0] == pytest.approx(-0.06124375, abs=1e-12)

    def test_plateau_values(self):
        u = np.array([0.1, 0.5, 0.8])
        _, _, w2 = profile_eval(u, GAMMA)
        assert np.array_equal(w2, [-1.0, 1.0, -1.0])

    def test_sup_bounds(self):
        u = np.linspace(0.0, 1.0, 40001)
        w0, w1, w2 = profile_eval(u, GAMMA)
        assert np.abs(w2).max() <= 1.0 + 1e-12
        # |w1| peaks mid-ramp at (1-5g)/4 + 11 g/16
        assert np.abs(w1).max() == pytest.approx(0.244375, abs=1e-6)
        assert np.abs(w0).max() == pytest.approx(0.06124375, abs=1e-6)

    def test_zero_mean_second_derivative(self):
        b = profile_breakpoints(GAMMA)
        val = gauss_panels(lambda u: profile_eval(u, GAMMA)[2], b)
        assert abs(val) < 1e-15

    def test_antiderivative_consistency(self):
        # central differences away from breakpoints
        u = np.array([0.005, 0.1, 0.24, 0.4, 0.62, 0.75, 0.995])
        h = 1e-6
        w0p, w1p, _ = profile_eval(u + h, GAMMA)
        w0m, w1m, _ = profile_eval(u - h, GAMMA)
        w0, w1, w2 = profile_eval(u, GAMMA)
        assert np.allclose((w1p - w1m) / (2 * h), w2, atol=1e-7)
        assert np.allclose((w0p - w0m) / (2 * h), w1, atol=1e-9)

    def test_exact_mean_of_shifted_magnitude(self):
        # integral of |lam + a w2| over a period equals lam for a <= lam,
        # since 1 + (a/lam) w2 never changes sign and w2 has zero mean
        b = profile_breakpoints(GAMMA)
        for lam, a in [(1.0, 0.9), (2.0, 2.0), (0.5, 0.1)]:
            val = gauss_panels(
                lambda u: np.abs(lam + a * profile_eval(u, GAMMA)[2]), b
            )
            assert val == pytest.approx(lam, abs=1e-12)


class TestCutoff:
    def test_zones(self):
        c0, c1, c2 = cutoff_eval(np.array([0.0, 0.02, 0.075, 0.2, 0.5, 0.85, 1.0]), 0.1)
        assert np.array_equal(c0[:2], [0.0, 0.0])
        assert c0[2] == pytest.approx(0.5, abs=1e-12)
        assert np.array_equal(c0[3:6], [1.0, 1.0, 1.0])
        assert c0[6] == 0.0
        assert np.all(c1[[0, 1, 3, 4, 5]] == 0.0)

    def test_symmetry(self):
        v = np.array([0.03, 0.06, 0.08])
        a0, a1, a2 = cutoff_eval(v, 0.1)
        b0, b1, b2 = cutoff_eval(1.0 - v, 0.1)
        assert np.allclose(a0, b0, atol=1e-15)
        assert np.allclose(a1, -b1, atol=1e-12)
        assert np.allclose(a2, b2, atol=1e-10)

    def test_derivatives(self):
        v = np.array([0.055, 0.07, 0.09, 0.93, 0.96])
        h = 1e-6
        p0, _, _ = cutoff_eval(v + h, 0.1)
        m0, _, _ = cutoff_eval(v - h, 0.1)
        c0, c1, c2 = cutoff_eval(v, 0.1)
        assert np.allclose((p0 - m0) / (2 * h), c1, atol=1e-5)
        p1 = cutoff_eval(v + h, 0.1)[1]
        m1 = cutoff_eval(v - h, 0.1)[1]
        assert np.allclose((p1 - m1) / (2 * h), c2, atol=1e-3)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            cutoff_eval(np.array([0.5]), 0.6)


class TestBuild:
    def test_identity_atom_shape(self):
        Q = Box.unit(2)
        atom = build_atom(np.eye(2), Q, 0.1, 2, 1.0)
        assert not atom.is_zero
        assert atom.aligned_axis == 0
        assert atom.periods == 64 and atom.periods & (atom.periods - 1) == 0
        # amplitude within the cap, shaved at most a whisker
        assert 0.9 <= abs(atom.amplitude) <= 1.0
        assert atom.amp_cap == pytest.approx(1.0)

    def test_rank_deficient_gives_zero_atom(self):
        atom = build_atom(np.diag([1.0, 0.0]), Box.unit(2), 0.1, 2, 1.0)
        assert atom.is_zero
        atom = build_atom(np.zeros((3, 3)), Box.unit(3), 0.1, 2, 1.0)
        assert atom.is_zero

    def test_eigenvalue_selection(self):
        # k = 2 on n = 3 cancels the second-smallest magnitude
        A = np.diag([0.02, 1.0, 1.5])
        atom = build_atom(A, Box.unit(3), 0.1, 2, 1.0)
        assert atom.eigenvalue == pytest.approx(1.0)
        assert atom.aligned_axis == 1
        # k = n cancels the smallest
        A = np.diag([0.5, 1.0, 2.0])
        atom = build_atom(A, Box.unit(3), 0.1, 3, 1.5)
        assert atom.eigenvalue == pytest.approx(0.5)
        assert atom.aligned_axis == 0

    def test_periods_scale_with_c1_budget(self):
        Q = Box.unit(2)
        coarse = build_atom(np.eye(2), Q, 0.1, 2, 1.0)
        fine = build_atom(np.eye(2), Q, 1e-3, 2, 1.0)
        assert fine.periods > coarse.periods

    def test_validation(self):
        Q = Box.unit(2)
        with pytest.raises(ValueError):
            build_atom(np.eye(3), Q, 0.1, 2, 1.0)
        with pytest.raises(ValueError):
            build_atom(np.eye(2), Q, 0.0, 2, 1.0)
        with pytest.raises(ValueError):
            build_atom(np.eye(2), Q, 0.1, 2, 2.0)
        with pytest.raises(ValueError):
            build_atom(np.eye(2), Q, 0.1, 3, 1.0)

    def test_deterministic(self):
        Q = Box.unit(2)
        a = build_atom(np.eye(2), Q, 0.1, 2, 1.5)
        b = build_atom(np.eye(2), Q, 0.1, 2, 1.5)
        assert a.amplitude == b.amplitude
        assert a.periods == b.periods and a.gamma_c == b.gamma_c


class TestEvaluation:
    def test_boundary_band_is_exactly_zero(self):
        Q = Box(lo=(0.0, 1.0), hi=(2.0, 2.0))
        atom = build_atom(np.eye(2), Q, 0.1, 2, 1.0)
        rng = np.random.default_rng(7)
        X = np.array(Q.lo) + rng.random((4000, 2)) * np.array(Q.edges)
        Xl = (X - Q.lo) / np.array(Q.edges)
        band = np.minimum(Xl, 1 - Xl).min(axis=1) <= atom.gamma_c / 2
        assert band.sum() > 50
        g, grad, hess = atom.value_grad_hess(X)
        assert np.abs(g[band]).max() == 0.0
        assert np.abs(grad[band]).max() == 0.0
        assert np.abs(hess[band]).max() == 0.0

    def test_hessian_symmetric(self):
        A = np.array([[1.2, -0.4], [-0.4, 0.8]])
        atom = build_atom(A, Box.unit(2), 0.1, 2, 1.0)
        rng = np.random.default_rng(11)
        X = rng.random((2000, 2))
        _, _, H = atom.value_grad_hess(X)
        assert np.array_equal(H, H.transpose(0, 2, 1))

    def test_finite_difference_consistency(self):
        Q = Box.unit(2)
        atom = build_atom(np.eye(2), Q, 0.1, 2, 1.0, AtomParams(periods=4))
        rng = np.random.default_rng(5)
        X = 0.2 + 0.6 * rng.random((200, 2))
        g, grad, hess = atom.value_grad_hess(X)
        h = 1e-6
        for a in range(2):
            dp = np.zeros(2)
            dp[a] = h
            gp = atom.value_grad_hess(X + dp)[0]
            gm = atom.value_grad_hess(X - dp)[0]
            fd = (gp - gm) / (2 * h)
            assert np.abs(fd - grad[:, a]).max() < 5e-6
            grp = atom.value_grad_hess(X + dp)[1]
            grm = atom.value_grad_hess(X - dp)[1]
            fdh = (grp - grm) / (2 * h)
            assert np.abs(fdh - hess[:, a, :]).max() < 5e-5

    def test_zero_atom_evaluates_to_zero(self):
        za = zero_atom(Box.unit(2))
        g, grad, hess = za.value_grad_hess(np.random.default_rng(0).random((50, 2)))
        assert not g.any() and not grad.any() and not hess.any()


def cube_grid(cube, sizes, seed):
    """A tensor grid of seeded nodes per axis over the cube and a margin
    outside it, so trains, ramps, collars and the zero band all show."""
    rng = np.random.default_rng(seed)
    axes = []
    for lo, e, size in zip(cube.lo, cube.edges, sizes):
        axes.append(np.sort(lo - 0.05 * e + 1.1 * e * rng.random(size)))
    return TensorGrid.product(axes)


def assert_grid_matches_points(atom, sizes, seed=0, grid=None):
    grid = grid or cube_grid(atom.cube, sizes, seed)
    got = atom.matrix_on(grid)
    want = atom.value_grad_hess(grid.points)[2]
    assert got.shape == (grid.points.shape[0],) + (atom.cube.n,) * 2
    assert np.array_equal(got, want)
    # the grid kernel skips terms that are zero by structure, so only the
    # sign of an exact zero may differ
    differs = got.view(np.int64) != want.view(np.int64)
    assert not got[differs].any()


class TestGridEvaluation:
    # matrix_on evaluates aligned atoms per axis; its entries must equal
    # the pointwise Hessian's under ==, an exact zero perhaps with the
    # other sign; unequal per-axis sizes would also catch a swap of
    # broadcast shapes
    CUBE2 = Box((0.25, 0.5), (0.5, 0.75))

    def test_aligned_on_each_axis_2d(self):
        for A, axis in ((np.diag([1.0, 2.0]), 0), (np.diag([2.0, 1.0]), 1)):
            atom = build_atom(A, self.CUBE2, 0.1, 2, 1.5)
            assert atom.aligned_axis == axis
            assert_grid_matches_points(atom, (300, 300), seed=axis)
            assert_grid_matches_points(atom, (257, 131), seed=axis)

    def test_aligned_against_the_axis(self):
        # direction -e_a0 flips the sign of the mixed entries' e[a0]
        for A in (np.diag([1.0, 2.0]), np.diag([2.0, 1.0])):
            atom = build_atom(A, self.CUBE2, 0.1, 2, 1.5)
            flipped = dataclasses.replace(atom, frame=-atom.frame)
            assert flipped.direction[atom.aligned_axis] == -1.0
            assert_grid_matches_points(flipped, (257, 131), seed=7)

    def test_shaved_atom(self):
        # a thin cell: the cutoff across the narrow axis forces shave < 1
        cube = Box((0.0, 0.0), (0.05, 1.0))
        atom = build_atom(np.diag([2.0, 1.0]), cube, 0.1, 2, 1.5)
        assert atom.aligned_axis == 1 and atom.shave < 1.0
        assert_grid_matches_points(atom, (131, 257), seed=8)

    def test_nodes_on_breakpoints_and_collar_marks(self):
        # every profile breakpoint of the train, the train ends, the
        # collar marks and the cube faces, each a grid node, with the
        # ramps' midpoints, where the mixed entries are nonzero
        atom = build_atom(np.diag([1.0, 2.0]), self.CUBE2, 0.1, 2, 1.5)
        a0, gc = atom.aligned_axis, atom.gamma_c
        lo, edges = np.array(atom.cube.lo), np.array(atom.cube.edges)
        center = lo + edges / 2.0
        T = atom.train_extent
        delta = T / atom.periods
        b = profile_breakpoints(atom.gamma_s)
        t = -T / 2.0 + delta * (np.arange(atom.periods)[:, None] + b[None, :])
        marks = np.array([0.0, gc / 2.0, 0.75 * gc, gc, 0.5, 1.0 - gc,
                          1.0 - 0.75 * gc, 1.0 - gc / 2.0, 1.0])
        axes = [lo[a] + edges[a] * marks for a in range(2)]
        axes[a0] = np.concatenate(
            [[lo[a0]], center[a0] + np.unique(t), [lo[a0] + edges[a0]]]
        )
        assert_grid_matches_points(atom, None, grid=TensorGrid.product(axes))

    def test_one_node_on_the_oscillation_axis(self):
        # a chunk of the engine's grid may hold a single oscillation node
        for A in (np.diag([1.0, 2.0]), np.diag([2.0, 1.0])):
            atom = build_atom(A, self.CUBE2, 0.1, 2, 1.5)
            sizes = [97, 97]
            sizes[atom.aligned_axis] = 1
            for seed in range(4):
                assert_grid_matches_points(atom, sizes, seed=seed)

    def test_aligned_3d_two_collar_axes(self):
        # the cutoff's cross term couples the two collar axes
        cube = Box((0.0, 0.5, 0.25), (0.5, 1.0, 0.5))
        atom = build_atom(np.diag([0.5, 1.0, 2.0]), cube, 0.1, 3, 1.5)
        assert atom.aligned_axis == 0
        assert_grid_matches_points(atom, (97, 53, 41))

    def test_certification_rows_with_k_below_n(self):
        rows = [c for c in CERTIFICATION_SUITE if c.k < len(c.matrix)]
        assert rows
        for case in rows:
            atom = build_atom(case.as_array(), Box.unit(3), case.eps0, case.k,
                              case.p)
            assert atom.aligned_axis is not None
            assert_grid_matches_points(atom, (61, 89, 37))

    def test_rotated_atom_takes_the_pointwise_path(self):
        atom = build_atom(np.array([[1.2, -0.4], [-0.4, 0.8]]), self.CUBE2,
                          0.1, 2, 1.0)
        assert atom.aligned_axis is None
        assert_grid_matches_points(atom, (120, 90))

    def test_vector_atom(self):
        th = 0.7
        O = np.array([[math.cos(th), -math.sin(th)],
                      [math.sin(th), math.cos(th)]])
        va = build_vector_atom(O @ np.diag([1.0, 2.0]), self.CUBE2, 0.1, 2, 1.5)
        assert va.atom.aligned_axis is not None
        grid = cube_grid(self.CUBE2, (150, 110), 3)
        assert np.array_equal(va.matrix_on(grid),
                              va.displacement_jacobian(grid.points)[1])

    def test_scattered_points_and_zero_atoms(self):
        atom = build_atom(np.eye(2), self.CUBE2, 0.1, 2, 1.0)
        X = cube_grid(self.CUBE2, (40, 40), 4).points[::7]
        assert np.array_equal(atom.matrix_on(TensorGrid(X)),
                              atom.value_grad_hess(X)[2])
        za = zero_atom(self.CUBE2)
        assert not za.matrix_on(cube_grid(self.CUBE2, (30, 20), 5)).any()


def test_corner_argument_is_the_cube_corner():
    # value_grad_hess(X, lo) with every corner at the atom's own cube is
    # bitwise value_grad_hess(X), for aligned, rotated and zero atoms
    cube = Box((0.25, 0.5), (0.5, 0.75))
    aligned = build_atom(np.diag([1.0, 2.0]), cube, 0.1, 2, 1.5)
    rotated = build_atom(np.array([[1.2, -0.4], [-0.4, 0.8]]), cube,
                         0.1, 2, 1.0)
    assert aligned.aligned_axis is not None and rotated.aligned_axis is None
    X = cube_grid(cube, (30, 20), 6).points
    lo = np.tile(cube.lo, (len(X), 1))
    for atom in (aligned, rotated, zero_atom(cube)):
        for got, want in zip(atom.value_grad_hess(X, lo),
                             atom.value_grad_hess(X)):
            assert np.array_equal(got, want)


class TestCertify:
    def test_identity_certificate(self):
        Q = Box.unit(2)
        atom = build_atom(np.eye(2), Q, 0.1, 2, 1.0)
        cert = certify_atom(atom, np.eye(2), 2, 1.0, tau_bound=certification_bound(2, 1.0))
        assert cert.passed
        assert cert.tau_meas <= 0.80
        assert cert.tau_meas > predicted_contraction(2, 1.0)
        assert cert.drift_mean <= 1e-9
        assert cert.boundary_max == 0.0
        assert min(cert.resolution) >= 128
        assert cert.sup_hessian <= cert.amp_cap
        assert cert.mass_base == pytest.approx(1.0)

    def test_passed_reads_every_pass_field(self):
        A = np.eye(2)
        cert = certify_atom(build_atom(A, Box.unit(2), 0.1, 2, 1.0), A, 2, 1.0)
        flags = [f.name for f in dataclasses.fields(cert)
                 if f.name.startswith("pass_")]
        assert cert.passed and len(flags) == 6
        for name in flags:
            flipped = dataclasses.replace(cert, **{name: False})
            assert not flipped.passed, name
            assert flipped.csv_row()[CERTIFICATE_COLUMNS.index(name)] == "0"

    def test_certificate_row_roundtrip(self):
        Q = Box.unit(2)
        atom = build_atom(np.diag([1.0, 2.0]), Q, 0.1, 2, 1.5)
        cert = certify_atom(atom, np.diag([1.0, 2.0]), 2, 1.5, tau_bound=0.97)
        row = cert.csv_row()
        assert len(row) == len(CERTIFICATE_COLUMNS)
        i_tau = CERTIFICATE_COLUMNS.index("tau_meas")
        assert float(row[i_tau]) == cert.tau_meas
        assert row[CERTIFICATE_COLUMNS.index("pass_support")] == "1"

    def test_zero_atom_on_active_cube_fails_contraction(self):
        Q = Box.unit(2)
        za = zero_atom(Q, eps0=0.1)
        cert = certify_atom(za, np.eye(2), 2, 1.0, tau_bound=0.857)
        assert cert.tau_meas == 1.0
        assert not cert.pass_contraction
        assert cert.pass_support and cert.pass_drift

    def test_zero_atom_on_degenerate_cube_passes(self):
        Q = Box.unit(2)
        A = np.diag([3.0, 0.0])
        za = build_atom(A, Q, 0.1, 2, 1.0)
        cert = certify_atom(za, A, 2, 1.0, tau_bound=0.857)
        assert za.is_zero and cert.passed
        assert cert.tau_meas == 1.0

    def test_certificate_deterministic(self):
        Q = Box.unit(2)
        atom = build_atom(np.eye(2), Q, 0.1, 2, 1.5)
        r1 = certify_atom(atom, np.eye(2), 2, 1.5).csv_row()
        r2 = certify_atom(atom, np.eye(2), 2, 1.5).csv_row()
        assert r1 == r2

    def test_hessian_kernel_matches_pointwise(self, monkeypatch):
        # the certificate integrals take the Hessian from the grid kernel;
        # with value_grad_hess at the same points in its place every
        # certificate field must read the same
        cube = Box((0.25, 0.5), (0.5, 0.75))
        diag12, diag21 = np.diag([1.0, 2.0]), np.diag([2.0, 1.0])
        tilt = np.array([[1.2, -0.4], [-0.4, 0.8]])
        thin = Box((0.0, 0.0), (0.05, 1.0))
        diag3 = np.diag([0.5, 1.0, 2.0])
        atom = build_atom(diag12, cube, 0.1, 2, 1.5)
        flipped = dataclasses.replace(atom, frame=-atom.frame)
        cases = [
            (atom, diag12, 2, 1.5),
            (build_atom(diag21, cube, 0.1, 2, 1.5), diag21, 2, 1.5),
            (flipped, diag12, 2, 1.5),
            (build_atom(diag21, thin, 0.1, 2, 1.5), diag21, 2, 1.5),
            (build_atom(diag3, Box.unit(3), 0.1, 3, 1.5,
                        AtomParams(periods=8)), diag3, 3, 1.5),
            (build_atom(tilt, cube, 0.1, 2, 1.0), tilt, 2, 1.0),
            (zero_atom(cube, 0.1), diag12, 2, 1.5),
        ]
        assert [c[0].aligned_axis for c in cases] == [0, 1, 0, 1, 0, None, 0]
        assert flipped.direction[0] == -1.0 and cases[3][0].shave < 1.0
        assert cases[6][0].is_zero
        kernel = [certify_atom(*c) for c in cases]
        calls = []

        def pointwise(self, axes, X):
            calls.append(len(axes))
            order = np.argsort([a for a, _ in axes])
            pts = TensorGrid.product([v for _, v in axes]).points[:, order]
            return self.value_grad_hess(pts)[2]

        monkeypatch.setattr(PerturbationAtom, "_hessian", pointwise)
        for case, got in zip(cases, kernel):
            calls.clear()
            want = certify_atom(*case)
            assert bool(calls) != case[0].is_zero
            for f in dataclasses.fields(want):
                assert getattr(got, f.name) == getattr(want, f.name), f.name

    def test_certify_memory(self):
        # the certificate integrals hold a block's Hessian, not the
        # value, gradient and broadcast Hessian terms of a point array
        A = np.diag([0.7, 1.8])
        atom = build_atom(A, Box.unit(2), 0.1, 2, 1.5)
        tracemalloc.start()
        try:
            certify_atom(atom, A, 2, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


class TestSuiteRows:
    # A3 tunes and checks all twenty rows
    def test_suite_is_published_and_fixed(self):
        assert len(CERTIFICATION_SUITE) == 20
        dims = {c.as_array().shape[0] for c in CERTIFICATION_SUITE}
        ks = {c.k for c in CERTIFICATION_SUITE}
        assert dims == {2, 3} and ks == {2, 3}
        for c in CERTIFICATION_SUITE:
            assert c.p in (1.0, 1.5, c.k - 0.5)
            arr = c.as_array()
            assert np.array_equal(arr, arr.T)


class TestTune:
    def test_passes_quickly_on_identity(self):
        out = tune_atom(np.eye(2), Box.unit(2), 0.1, 2, 1.0, certification_bound(2, 1.0))
        assert out.certificate.passed
        assert len(out.history) <= 3
        assert out.tau_monotone

    def test_target_validation(self):
        with pytest.raises(ValueError):
            tune_atom(np.eye(2), Box.unit(2), 0.1, 2, 1.0, 0.5)
        with pytest.raises(ValueError):
            tune_atom(np.eye(2), Box.unit(2), 0.1, 2, 1.0, 1.0)

    def test_budget_exhaustion_carries_best(self):
        with pytest.raises(AtomTuningError) as info:
            tune_atom(
                np.eye(2),
                Box.unit(2),
                0.1,
                2,
                1.0,
                0.712,
                budget=2,
                params=AtomParams(periods=8, max_periods=16),
            )
        err = info.value
        assert err.certificate is not None
        assert err.certificate.tau_meas > 0.712
        assert len(err.history) == 2


class TestVector:
    def test_jacobian_invariants_match_scalar(self):
        th = 0.7
        O = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        A = np.array([[1.0, 0.3], [0.3, 2.0]])
        B = O @ A
        va = build_vector_atom(B, Box.unit(2), 0.1, 2, 1.5)
        assert np.allclose(va.base_symmetric, A, atol=1e-12)
        X = np.random.default_rng(3).random((1000, 2))
        _, J = va.displacement_jacobian(X)
        _, _, H = va.atom.value_grad_hess(X)
        lhs = ck(B[None] + J, 2)
        rhs = ck(A[None] + H, 2)
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_orthogonal_base_reduces_to_identity(self):
        th = -0.3
        O = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        va = build_vector_atom(O, Box.unit(2), 0.1, 2, 1.5)
        assert np.allclose(va.base_symmetric, np.eye(2), atol=1e-12)
        assert not va.is_zero

    def test_zero_base_gives_zero_atom(self):
        va = build_vector_atom(np.zeros((2, 2)), Box.unit(2), 0.1, 2, 1.0)
        assert va.is_zero
        X = np.random.default_rng(0).random((10, 2))
        d, J = va.displacement_jacobian(X)
        assert not d.any()
        assert not J.any()

    def test_displacement_matches_rotated_gradient(self):
        A = np.diag([1.0, 2.0])
        va = build_vector_atom(A, Box.unit(2), 0.1, 2, 1.0)
        X = np.random.default_rng(1).random((100, 2))
        d, J = va.displacement_jacobian(X)
        _, grad, _ = va.atom.value_grad_hess(X)
        assert np.allclose(d, grad, atol=1e-15)
        assert np.allclose(J, va.atom.value_grad_hess(X)[2], atol=1e-15)
