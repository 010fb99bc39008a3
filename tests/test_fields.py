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
    QuadratureSpec,
    QuadraticBase,
    ScalarFieldC2,
    SumBase,
    TrigBase,
    dump_grid,
    integrate_on_cube,
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


def test_quadrature_trivial_integrals():
    spec = QuadratureSpec()
    value, err = integrate_on_cube(lambda X: np.ones(X.shape[0]), Box.unit(2), spec)
    assert abs(value - 1.0) <= 1e-14
    value, err = integrate_on_cube(lambda X: X[:, 0] * X[:, 1], Box.unit(2), spec)
    assert abs(value - 0.25) <= 1e-13
    assert err <= 1e-13


def test_gauss_exactness_through_degree_seven():
    # 4-point Gauss per axis is exact to degree 2q-1 = 7
    spec = QuadratureSpec(points=4, max_refine=1)
    for d1, d2 in [(7, 0), (3, 5), (7, 7)]:
        want = 1.0 / (d1 + 1) / (d2 + 1)
        value, _ = integrate_on_cube(
            lambda X, d1=d1, d2=d2: X[:, 0] ** d1 * X[:, 1] ** d2,
            Box.unit(2),
            spec,
        )
        assert abs(value - want) <= 1e-12


def test_midpoint_rule_and_validation():
    spec = QuadratureSpec(points=3, rule="midpoint", max_refine=4, rel_tol=1e-12)
    value, err = integrate_on_cube(lambda X: X[:, 0] ** 2, Box.unit(1), spec)
    # composite midpoint at 48 nodes: h^2/24 error scale
    assert abs(value - 1.0 / 3.0) <= 1e-4
    assert abs(value - 1.0 / 3.0) <= err * 2 + 1e-12
    with pytest.raises(ValueError):
        QuadratureSpec(rule="simpson")
    with pytest.raises(ValueError):
        QuadratureSpec(points=1, rule="gauss")


def test_richardson_estimate_brackets_error_on_kink():
    # |x - 1/2|^3 has a kink cell; the declared estimate must cover the
    # true quadrature error within a small factor
    spec = QuadratureSpec(points=4, max_refine=2, rel_tol=0.0)
    want = 2.0 * (0.5**4) / 4.0
    value, err = integrate_on_cube(
        lambda X: np.abs(X[:, 0] - 0.5) ** 3, Box.unit(1), spec
    )
    assert abs(value - want) <= 10.0 * err + 1e-14


def test_partition_integral_matches_per_cube_closed_form():
    part = CubePartition(Box.unit(2), 4)
    res = integrate_on_partition(lambda X: X[:, 0], part, QuadratureSpec(max_refine=1))
    assert res.per_cube.shape == (4, 4)
    for cell in part.cells():
        want = 0.5 * (cell.hi[0] ** 2 - cell.lo[0] ** 2) * (cell.hi[1] - cell.lo[1])
        got = res.per_cube[cell.index]
        assert abs(got - want) <= 1e-14
    assert abs(res.value - 0.5) <= 1e-13


def test_partition_integral_chunking_consistent():
    part = CubePartition(Box.unit(2), 8)
    f = lambda X: np.sin(3.0 * X[:, 0]) * X[:, 1] ** 2
    big = integrate_on_partition(f, part, QuadratureSpec(chunk=1 << 20, max_refine=1))
    small = integrate_on_partition(f, part, QuadratureSpec(chunk=128, max_refine=1))
    assert np.abs(big.per_cube - small.per_cube).max() <= 1e-15


def test_quadrature_rejects_non_finite_samples():
    def bad(X):
        out = np.ones(X.shape[0])
        out[X[:, 0] > 0.9] = np.nan
        return out

    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_on_cube(bad, Box.unit(2))


def test_one_dimensional_partition_quadrature():
    part = CubePartition(Box.unit(1), 5)
    res = integrate_on_partition(lambda X: X[:, 0] ** 3, part, QuadratureSpec())
    assert abs(res.value - 0.25) <= 1e-13
    assert res.per_cube.shape == (5,)


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
