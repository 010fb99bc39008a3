"""Field layer tests.

Derivative oracles are central finite differences; quadrature oracles are
closed-form integrals of monomials; the partition tiling identity is checked
in exact rational arithmetic.
"""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenhess.fields import (
    AffineBase,
    Box,
    BumpBase,
    Cell,
    CubePartition,
    DomainError,
    FieldDifference,
    PartitionCapError,
    PolynomialBase,
    ProductBase,
    QuadratureError,
    QuadraticBase,
    ScalarFieldC2,
    SumBase,
    TensorGrid,
    TrigBase,
    dump_grid,
    integrate_on_partition,
    make_base,
    modulus_of_continuity,
    refine_partition,
)
from degenhess.fields import _grid_neighbor_pairs, _sample_pairs_in_box
from degenhess.staircase import LinearMapBase, VectorFieldC1

# ---------------------------------------------------------------- oracle


def fd_check(obj, X, h=1e-5, tol=1e-5):
    """Central finite differences against analytic gradient and Hessian."""
    val, grad, hess = obj.value_grad_hess(X)
    n = X.shape[1]
    for a in range(n):
        step = np.zeros(n)
        step[a] = h
        vp, gp, _ = obj.value_grad_hess(X + step)
        vm, gm, _ = obj.value_grad_hess(X - step)
        fd_grad = (vp - vm) / (2 * h)
        scale = 1.0 + np.abs(grad[:, a]).max()
        assert np.abs(fd_grad - grad[:, a]).max() <= tol * scale
        fd_hess_col = (gp - gm) / (2 * h)
        scale = 1.0 + np.abs(hess[:, :, a]).max()
        assert np.abs(fd_hess_col - hess[:, :, a]).max() <= tol * scale
    assert (hess == np.swapaxes(hess, -1, -2)).all()


def interior_points(box, count, rng, margin=1e-3):
    lo = np.array(box.lo) + margin
    hi = np.array(box.hi) - margin
    return rng.uniform(lo, hi, (count, box.n))


# ------------------------------------------------------------ base zoo


def test_quadratic_evaluation_matches_hand_values():
    f = ScalarFieldC2(QuadraticBase(np.eye(2)), Box.unit(2))
    val, grad, hess = f.evaluate(np.array([0.3, 0.4]))
    assert abs(val - 0.125) <= 1e-15
    assert np.abs(grad - np.array([0.3, 0.4])).max() <= 1e-15
    assert (hess == np.eye(2)).all()


def test_affine_hessian_identically_zero():
    f = ScalarFieldC2(AffineBase([2.0, -1.0], 0.5), Box.unit(2))
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (64, 2))
    val, grad, hess = f.evaluate_many(X)
    assert (hess == 0.0).all()
    assert np.allclose(val, X @ np.array([2.0, -1.0]) + 0.5)
    assert (grad == np.array([2.0, -1.0])).all()


def test_all_base_families_match_finite_differences():
    rng = np.random.default_rng(1)
    box = Box.unit(2)
    trig = TrigBase([[2.0, 1.0], [0.0, 3.0]], [0.4, 0.2], [0.1, -0.5])
    bases = [
        QuadraticBase([[2.0, 0.5], [0.5, 1.0]], [0.1, -0.2], 0.3),
        PolynomialBase([((2, 0), 0.5), ((0, 2), 0.5), ((2, 1), -0.25), ((1, 1), 1.0)], 2),
        trig,
        BumpBase([0.4, 0.6], 0.2, 0.7),
        SumBase([QuadraticBase(np.eye(2)), BumpBase([0.5, 0.5], 0.3, -0.2)]),
        ProductBase(trig, BumpBase([0.5, 0.5], 0.4, 1.0)),
    ]
    X = interior_points(box, 1000, rng)
    for base in bases:
        fd_check(base, X)


def test_three_dimensional_base_finite_differences():
    rng = np.random.default_rng(2)
    box = Box.unit(3)
    X = interior_points(box, 200, rng)
    fd_check(QuadraticBase(np.eye(3)), X)
    fd_check(PolynomialBase([((1, 1, 1), 1.0), ((2, 0, 0), 0.5)], 3), X)


def test_make_base_dispatch_and_validation():
    base = make_base("quadratic", {"matrix": [1.0, 0.0, 0.0, 1.0]}, 2)
    assert isinstance(base, QuadraticBase)
    base = make_base("affine", {"linear": [1.0, 2.0], "constant": 3.0}, 2)
    assert isinstance(base, AffineBase)
    with pytest.raises(ValueError, match="unknown base family"):
        make_base("cubic", {}, 2)
    with pytest.raises(ValueError, match="needs 'matrix'"):
        make_base("quadratic", {}, 2)
    with pytest.raises(ValueError, match="symmetric"):
        make_base("quadratic", {"matrix": [1.0, 0.5, 0.0, 1.0]}, 2)
    with pytest.raises(ValueError, match="expected 3"):
        make_base("affine", {"linear": [1.0, 2.0]}, 3)


def test_field_domain_check():
    f = ScalarFieldC2(QuadraticBase(np.eye(2)), Box.unit(2))
    with pytest.raises(DomainError):
        f.evaluate(np.array([1.5, 0.5]))
    # boundary is fine
    f.evaluate(np.array([1.0, 1.0]))


def test_field_difference():
    f = ScalarFieldC2(QuadraticBase(np.eye(2)), Box.unit(2))
    g = ScalarFieldC2(QuadraticBase(np.eye(2), [0.1, 0.0]), Box.unit(2))
    d = FieldDifference(g, f)
    X = np.array([[0.2, 0.7], [0.5, 0.5]])
    val, grad, hess = d.evaluate_many(X)
    assert np.allclose(val, 0.1 * X[:, 0])
    assert np.allclose(grad, np.array([0.1, 0.0]))
    assert np.abs(hess).max() == 0.0


def _linear_maps(D):
    M0 = np.array([[1.0, 0.5], [0.0, 2.0]])
    u0 = VectorFieldC1(LinearMapBase(M0), Box.unit(2))
    u1 = VectorFieldC1(LinearMapBase(M0 + D, [0.1, -0.2]), Box.unit(2))
    return u1, u0


def test_field_difference_of_first_order_maps():
    D = np.array([[0.3, -0.1], [0.2, 0.4]])
    u1, u0 = _linear_maps(D)
    X = np.array([[0.2, 0.7], [0.5, 0.5], [1.0, 0.0]])
    parts = FieldDifference(u1, u0).evaluate_many(X)
    assert len(parts) == 2
    vals, jacs = parts
    assert np.allclose(vals, X @ D.T + np.array([0.1, -0.2]), atol=1e-15)
    assert np.allclose(jacs, D, atol=1e-15)


# ------------------------------------------------------------ partition


def test_partition_tiles_box_in_rational_arithmetic():
    box = Box((0.0, -1.0), (2.0, 3.0))
    for m in (1, 3, 7):
        part = CubePartition(box, m)
        total = Fraction(0)
        for cell in part.cells():
            vol = Fraction(1)
            for l, h in zip(cell.lo, cell.hi):
                vol *= Fraction(h) - Fraction(l)
            total += vol
        edges = [Fraction(h) - Fraction(l) for l, h in zip(box.lo, box.hi)]
        want = edges[0] * edges[1]
        # cell bounds are floats, so each cell volume carries rounding; the
        # exact identity holds for the rational cell construction
        assert abs(total - want) <= Fraction(1, 10**12)
        exact = Fraction(m) ** 2 * (edges[0] / m) * (edges[1] / m)
        assert exact == want


def test_partition_centers_order_and_locate():
    part = CubePartition(Box.unit(2), 4)
    centers = part.centers()
    assert centers.shape == (16, 2)
    # row-major: last axis fastest
    assert np.allclose(centers[0], [0.125, 0.125])
    assert np.allclose(centers[1], [0.125, 0.375])
    assert np.allclose(centers[4], [0.375, 0.125])
    idx = part.locate(centers)
    flat = idx[:, 0] * 4 + idx[:, 1]
    assert (flat == np.arange(16)).all()
    # top boundary belongs to the last cell
    assert (part.locate(np.array([[1.0, 1.0]]))[0] == [3, 3]).all()
    cell = part.cell((2, 1))
    assert np.allclose(cell.center, [0.625, 0.375])
    assert abs(cell.volume - 1.0 / 16.0) <= 1e-15


def test_partition_cells_iterate_row_major():
    part = CubePartition(Box.unit(2), 2)
    seen = [c.index for c in part.cells()]
    assert seen == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_refine_partition_worked_cases():
    assert refine_partition(1, 1, 1.0, 1.0, 2) == 3
    assert refine_partition(4, 3, 1e9, 1e9, 2) == 8
    assert refine_partition(3, 2, 0.1, 0.05, 2) == 30


def test_refine_partition_constraints_hold():
    for m_prev, j, eps, beta, n in [(1, 1, 1.0, 1.0, 2), (3, 2, 0.1, 0.05, 2), (2, 2, 0.3, 0.2, 3)]:
        m = refine_partition(m_prev, j, eps, beta, n)
        assert m % m_prev == 0
        assert m >= 2**j
        assert math.sqrt(n) / m < min(eps / 2, beta)
        # minimality: the previous multiple fails a constraint
        prev = m - m_prev
        assert (
            prev < 2**j
            or prev < m_prev
            or not math.sqrt(n) / prev < min(eps / 2, beta)
        )


def test_refine_partition_cap_and_validation():
    with pytest.raises(PartitionCapError) as err:
        refine_partition(3, 2, 0.1, 0.05, 2, cap=16)
    assert err.value.needed == 30
    assert err.value.cap == 16
    with pytest.raises(ValueError):
        refine_partition(0, 1, 1.0, 1.0, 2)
    with pytest.raises(ValueError):
        refine_partition(1, 1, -1.0, 1.0, 2)


# ----------------------------------------------------------- quadrature


def integrate(f, partition, edges=None, points=4, chunk=1 << 19):
    """Values and error bars per cell of a scalar integrand f(grid), every
    cell on the given unit-coordinate panel edges (one panel by default)."""
    edges = [np.array([0.0, 1.0])] * partition.n if edges is None else edges
    vals, errs, counts = integrate_on_partition(
        lambda ci, cell: f, partition, 1,
        edges=lambda ci, cell: edges, points=points, chunk=chunk,
        node_budget=300_000_000,
    )
    assert counts.cells == counts.classes == partition.num_cells
    return vals[:, 0], errs[:, 0]


def test_quadrature_trivial_integrals():
    unit = CubePartition(Box.unit(2), 1)
    value, err = integrate(lambda grid: np.ones(grid.points.shape[0]), unit)
    assert abs(value[0] - 1.0) <= 1e-14
    value, err = integrate(lambda grid: grid.points[:, 0] * grid.points[:, 1], unit)
    assert abs(value[0] - 0.25) <= 1e-13
    assert err[0] <= 1e-13


def check_gauss_exactness(points):
    # q-point Gauss per axis is exact to degree 2q - 1, on both levels
    top = 2 * points - 1
    for d1, d2 in [(top, 0), (1, top - 1), (top, top)]:
        want = 1.0 / (d1 + 1) / (d2 + 1)
        value, err = integrate(
            lambda grid, d1=d1, d2=d2: (
                grid.points[:, 0] ** d1 * grid.points[:, 1] ** d2
            ),
            CubePartition(Box.unit(2), 1), points=points,
        )
        assert abs(value[0] - want) <= 1e-13
        assert err[0] <= 1e-13


def test_gauss_exactness_through_degree_seven():
    check_gauss_exactness(4)


def test_gauss_exactness_through_degree_three_at_two_points():
    check_gauss_exactness(2)


def test_partition_integral_matches_per_cube_closed_form():
    part = CubePartition(Box.unit(2), 4)
    vals, _ = integrate(lambda grid: grid.points[:, 0], part)
    assert vals.shape == (16,)
    for ci, cell in enumerate(part.cells()):
        want = 0.5 * (cell.hi[0] ** 2 - cell.lo[0] ** 2) * (cell.hi[1] - cell.lo[1])
        assert abs(vals[ci] - want) <= 1e-14
    assert abs(vals.sum() - 0.5) <= 1e-13


def test_partition_integral_chunking_consistent():
    # six panels per axis: 24 x 24 nodes per cell at the first level, so
    # a 128-point chunk splits every cell into many integrand calls. Each
    # call's weighted sum is added to the cell total, so the chunk sets the
    # summation order and the totals agree to rounding, not bitwise.
    part = CubePartition(Box.unit(2), 8)
    f = lambda grid: np.sin(3.0 * grid.points[:, 0]) * grid.points[:, 1] ** 2
    edges = [np.linspace(0.0, 1.0, 7)] * 2
    big, big_err = integrate(f, part, edges, chunk=1 << 20)
    small, small_err = integrate(f, part, edges, chunk=128)
    np.testing.assert_allclose(small, big, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(small_err, big_err, rtol=0.0, atol=1e-16)


def test_tensor_grid_points_in_ij_order():
    axes = [np.array([0.1, 0.2, 0.3]), np.array([5.0, 6.0]),
            np.array([-1.0, -2.0, -3.0, -4.0])]
    grid = TensorGrid.product(axes)
    want = [(a, b, c) for a in axes[0] for b in axes[1] for c in axes[2]]
    assert np.array_equal(grid.points, np.array(want))
    assert all(g is a for g, a in zip(grid.axes, axes))


def test_integrand_sees_chunks_of_the_cell_tensor_grid():
    # each call gets the first axis sliced to the chunk and the points of
    # that slab; the slabs together are the cell's nodes in 'ij' order
    part = CubePartition(Box.unit(2), 1)
    edges = [np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 3)]
    seen = []

    def f(grid):
        seen.append(grid)
        return np.ones(grid.points.shape[0])

    integrate(f, part, edges, points=2, chunk=12)
    for grid in seen:
        assert np.array_equal(grid.points, TensorGrid.product(grid.axes).points)
        assert grid.points.shape[0] <= 12
    # level 0 has 6 x 4 nodes in chunks of 3 x 4, level 1 12 x 8 in 1 x 8
    assert len(seen) == 2 + 12
    for size0, size1, calls in ((6, 4, seen[:2]), (12, 8, seen[2:])):
        x = np.concatenate([g.axes[0] for g in calls])
        assert x.size == size0 and np.all(np.diff(x) > 0)
        assert all(g.axes[1].size == size1 for g in calls)


def test_richardson_estimate_brackets_error_on_kink():
    # |x - 1/2|^3 has its kink strictly inside the panel [0.3, 1] and inside
    # [0.3, 0.65] after the split; the declared estimate must cover the
    # true quadrature error within a small factor
    want = 2.0 * (0.5**4) / 4.0
    value, err = integrate(
        lambda grid: np.abs(grid.points[:, 0] - 0.5) ** 3,
        CubePartition(Box.unit(1), 1),
        [np.array([0.0, 0.3, 1.0])],
    )
    assert err[0] > 0.0
    assert abs(value[0] - want) <= 10.0 * err[0] + 1e-14


def test_quadrature_rejects_non_finite_samples():
    def bad(grid):
        out = np.ones(grid.points.shape[0])
        out[grid.points[:, 0] > 0.9] = np.nan
        return out

    with pytest.raises(QuadratureError, match="non-finite"):
        integrate(bad, CubePartition(Box.unit(2), 2))


def test_one_dimensional_partition_quadrature():
    part = CubePartition(Box.unit(1), 5)
    vals, _ = integrate(lambda grid: grid.points[:, 0] ** 3, part)
    assert abs(vals.sum() - 0.25) <= 1e-13
    assert vals.shape == (5,)


# -------------------------------------------------------------- modulus


def test_modulus_affine_gradient_is_zero():
    f = ScalarFieldC2(AffineBase([1.0, 2.0]), Box.unit(2))
    table = modulus_of_continuity(f, 1, 0.5, [0.01, 0.1])
    assert table.values == (0.0, 0.0)
    assert table.method == "sampled"


def test_modulus_quadratic_matches_exact_exponent():
    # |grad f(y) - grad f(x)| = |y - x| exactly, so the alpha-quotient sup
    # over pairs below r is r^(1-alpha)
    f = ScalarFieldC2(QuadraticBase(np.eye(2)), Box.unit(2))
    table = modulus_of_continuity(f, 1, 0.5, [0.01], pairs_per_radius=20_000)
    want = 0.01**0.5
    assert want * 0.98 <= table.values[0] <= want * (1.0 + 1e-9)


def test_modulus_monotone_and_vanishing_for_smooth_fields():
    f = ScalarFieldC2(
        TrigBase([[2.0, 0.0], [0.0, 2.0]], [0.3, 0.3]), Box.unit(2)
    )
    table = modulus_of_continuity(f, 1, 0.5, [1e-3, 1e-2, 1e-1])
    vals = table.values
    assert vals[0] <= vals[1] <= vals[2]
    # smoothness: the alpha-quotient dies like r^(1-alpha) as r -> 0
    assert vals[0] <= 0.2 * vals[2]


def test_modulus_order_zero():
    f = ScalarFieldC2(AffineBase([3.0, 4.0]), Box.unit(2))
    # |f(y)-f(x)| <= 5 |y-x|, so the 0-order quotient at alpha=1 is <= 5
    table = modulus_of_continuity(f, 0, 1.0, [0.05])
    assert 4.9 <= table.values[0] <= 5.0 + 1e-9


def test_modulus_order_zero_of_first_order_difference():
    # u1 - u0 = D x + c, so every pair quotient is |D h| / |h|^alpha with
    # h = y - x; redraw the pairs from the same seed to get the exact sups
    D = np.array([[0.3, -0.1], [0.2, 0.4]])
    u1, u0 = _linear_maps(D)
    alpha, radii, pairs, seed = 0.3, [0.01, 0.1, 0.5], 500, 7
    table = modulus_of_continuity(
        FieldDifference(u1, u0), 0, alpha, radii,
        pairs_per_radius=pairs, seed=seed,
    )
    rng = np.random.default_rng(seed)
    drawn = [_sample_pairs_in_box(Box.unit(2), r, pairs, rng) for r in radii]
    drawn.append(_grid_neighbor_pairs(Box.unit(2)))
    H = np.concatenate([y - x for x, y in drawn])
    dist = np.linalg.norm(H, axis=1)
    keep = dist > 0
    quot = np.linalg.norm(H[keep] @ D.T, axis=1) / dist[keep] ** alpha
    want = [quot[dist[keep] < r].max() for r in radii]
    assert table.pairs == int(keep.sum())
    assert np.allclose(table.values, want, rtol=1e-12, atol=0.0)


def test_modulus_seed_accepts_generator():
    f = ScalarFieldC2(
        TrigBase([[2.0, 0.0], [0.0, 2.0]], [0.3, 0.3]), Box.unit(2)
    )
    radii = [1e-2, 1e-1]
    by_int = modulus_of_continuity(f, 1, 0.5, radii, pairs_per_radius=400,
                                   seed=5)
    by_gen = modulus_of_continuity(f, 1, 0.5, radii, pairs_per_radius=400,
                                   seed=np.random.default_rng(5))
    assert by_gen == by_int


def test_modulus_validation():
    f = ScalarFieldC2(AffineBase([1.0, 1.0]), Box.unit(2))
    with pytest.raises(ValueError):
        modulus_of_continuity(f, 2, 0.5, [0.1])
    with pytest.raises(ValueError):
        modulus_of_continuity(f, 1, 0.5, [0.1, 0.01])


# ------------------------------------------------------------ grid dump


def test_dump_grid_format_and_determinism():
    f = ScalarFieldC2(QuadraticBase(np.eye(2)), Box.unit(2))
    buf = io.StringIO()
    dump_grid(f, 2, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "n 2"
    assert lines[2] == "box 0 1 0 1"
    assert lines[3] == "m 2"
    assert lines[4] == "fields value gradient hessian"
    records = [line.split() for line in lines[5:]]
    assert len(records) == 4
    # each record: 2 coords + 1 value + 2 gradient + 4 hessian entries
    assert all(len(r) == 9 for r in records)
    first = [float(v) for v in records[0]]
    assert np.allclose(first[:2], [0.25, 0.25])
    assert abs(first[2] - 0.0625) <= 1e-15
    assert np.allclose(first[3:5], [0.25, 0.25])
    assert np.allclose(first[5:], [1.0, 0.0, 0.0, 1.0])

    again = io.StringIO()
    dump_grid(f, 2, again)
    assert again.getvalue() == text


# ---------------------------------------------------- property checks


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 4),
    st.floats(0.01, 2.0),
    st.floats(0.01, 2.0),
    st.integers(1, 3),
)
def test_refine_partition_postconditions(m_prev, j, eps, beta, n):
    m = refine_partition(m_prev, j, eps, beta, n)
    assert m % m_prev == 0
    assert m >= 2**j
    assert math.sqrt(n) / m < min(eps / 2.0, beta)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(2, 5))
def test_locate_inverts_centers(m, seed):
    part = CubePartition(Box.unit(2), m)
    centers = part.centers()
    idx = part.locate(centers)
    flat = idx[:, 0] * m + idx[:, 1]
    assert (flat == np.arange(m * m)).all()
