"""Invariant layer tests.

Oracles are independent of the library internals: determinants by cofactor
expansion, elementary symmetric functions by subset enumeration, and
decompositions cross-checked against numpy.linalg (LAPACK), which shares no
code with the Jacobi kernels under test.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from degenhess.invariants import (
    EigenConvergenceError,
    ck,
    ck_constant,
    ck_lipschitz_bound,
    elementary_symmetric,
    fro_norm,
    lk,
    op_norm,
    polar_decompose,
    rank_below,
    singular_values,
    sym_eigen,
    sym_eigvals,
)

# ---------------------------------------------------------------- oracles


def cofactor_det(M):
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n == 1:
        return float(M[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * float(M[0, j]) * cofactor_det(minor)
    return total


def subset_esym(values, k):
    vals = [float(v) for v in values]
    if k == 0:
        return 1.0
    if k > len(vals):
        return 0.0
    return float(sum(math.prod(c) for c in itertools.combinations(vals, k)))


def random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_symmetric(rng, shape, scale=1.0):
    A = rng.standard_normal(shape) * scale
    return 0.5 * (A + np.swapaxes(A, -1, -2))


# ------------------------------------------------------------- sym_eigen


def test_sym_eigen_reconstructs_and_orders():
    rng = np.random.default_rng(7)
    for n in range(1, 6):
        A = random_symmetric(rng, (40, n, n), scale=3.0)
        spec = sym_eigen(A)
        vals, V = spec.values, spec.frame
        scale = 1.0 + float(np.abs(A).max())
        resid = A @ V - V * vals[:, None, :]
        assert np.abs(resid).max() <= 1e-12 * scale
        gram = np.swapaxes(V, -1, -2) @ V
        assert np.abs(gram - np.eye(n)).max() <= 1e-13
        assert (np.diff(vals, axis=-1) >= -1e-12 * scale).all()
        rebuilt = (V * vals[:, None, :]) @ np.swapaxes(V, -1, -2)
        assert np.abs(rebuilt - A).max() <= 1e-12 * scale


def test_sym_eigen_matches_lapack_values():
    rng = np.random.default_rng(11)
    for n in range(2, 6):
        A = random_symmetric(rng, (60, n, n), scale=5.0)
        got = sym_eigen(A).values
        want = np.linalg.eigvalsh(A)
        assert np.abs(got - want).max() <= 1e-11 * (1.0 + np.abs(A).max())


def test_sym_eigen_deterministic_and_sign_convention():
    rng = np.random.default_rng(3)
    A = random_symmetric(rng, (25, 4, 4))
    a = sym_eigen(A)
    b = sym_eigen(A.copy())
    assert (a.values == b.values).all()
    assert (a.frame == b.frame).all()
    # first component of magnitude > 1e-12 must be positive, every column
    for V in a.frame:
        for j in range(4):
            col = V[:, j]
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0


def test_sym_eigen_diagonal_is_exact():
    A = np.diag([3.0, -1.0, 2.0])
    spec = sym_eigen(A)
    assert (spec.values == np.array([-1.0, 2.0, 3.0])).all()
    want_frame = np.zeros((3, 3))
    want_frame[1, 0] = 1.0
    want_frame[2, 1] = 1.0
    want_frame[0, 2] = 1.0
    assert (spec.frame == want_frame).all()


def test_sym_eigen_single_matrix_shapes():
    spec = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert spec.values.shape == (2,)
    assert spec.frame.shape == (2, 2)
    assert np.allclose(spec.values, [1.0, 3.0])


def test_sym_eigen_input_validation(monkeypatch):
    from degenhess import invariants

    with pytest.raises(ValueError):
        sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        sym_eigen(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sym_eigen(np.zeros((6, 6)))
    monkeypatch.setattr(invariants, "_JACOBI_SWEEPS", 0)
    with pytest.raises(EigenConvergenceError):
        sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_sym_eigvals_closed_forms_match_jacobi():
    rng = np.random.default_rng(19)
    for n in (2, 3):
        A = random_symmetric(rng, (300, n, n), scale=10.0)
        fast = sym_eigvals(A)
        slow = sym_eigen(A).values
        lapack = np.linalg.eigvalsh(A)
        scale = 1.0 + float(np.abs(A).max())
        assert np.abs(fast - slow).max() <= 1e-11 * scale
        assert np.abs(fast - lapack).max() <= 1e-11 * scale


def test_sym_eigvals_near_degenerate():
    rng = np.random.default_rng(23)
    Q = random_orthogonal(3, rng)
    # moderately close pair: still machine accurate
    want = np.array([1.0, 1.0 + 1e-4, 2.0])
    A = (Q * want) @ Q.T
    A = 0.5 * (A + A.T)
    assert np.abs(sym_eigvals(A) - want).max() <= 1e-11
    # genuinely clustered pair: the deflated kernel resolves it as well
    want = np.array([1.0, 1.0 + 1e-10, 2.0])
    A = (Q * want) @ Q.T
    A = 0.5 * (A + A.T)
    assert np.abs(sym_eigvals(A) - want).max() <= 1e-13


def test_sym_eigvals_3x3_double_roots_exact():
    # the trigonometric form alone read ck(diag(1, 0, 0), 1) = 1.0000000081
    assert float(ck(np.diag([1.0, 0.0, 0.0]), 1)) == 1.0
    assert np.array_equal(sym_eigvals(np.diag([1.0, 0.0, 0.0])), [0.0, 0.0, 1.0])
    lam = sym_eigvals(np.full((3, 3), 6.65))
    assert np.abs(lam - [0.0, 0.0, 19.95]).max() <= 1e-13 * 19.95
    assert np.array_equal(sym_eigvals(2.5 * np.eye(3)), [2.5, 2.5, 2.5])
    assert np.array_equal(sym_eigvals(np.zeros((3, 3))), [0.0, 0.0, 0.0])


# ------------------------------------------- elementary symmetric and ck


def test_elementary_symmetric_matches_subset_enumeration():
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        vals = rng.uniform(-3.0, 3.0, (20, n))
        for k in range(0, n + 2):
            got = elementary_symmetric(vals, k)
            want = np.array([subset_esym(row, k) for row in vals])
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    assert (elementary_symmetric(vals, 0) == 1.0).all()
    assert (elementary_symmetric(vals, n + 1) == 0.0).all()
    with pytest.raises(ValueError):
        elementary_symmetric(vals, -1)


def test_ck_at_full_order_is_abs_det():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        M = rng.uniform(-2.0, 2.0, (30, n, n))
        got = ck(M, n)
        want = np.array([abs(cofactor_det(m)) for m in M])
        assert np.allclose(got, want, rtol=1e-9, atol=1e-11)


def test_ck_trivial_orders():
    M = np.eye(3)
    assert ck(M, 0) == 1.0
    assert ck(M, 4) == 0.0


# ------------------------------------------------------ singular values


def test_singular_values_match_svd():
    rng = np.random.default_rng(17)
    for n in range(1, 6):
        M = rng.standard_normal((50, n, n)) * 2.0
        got = singular_values(M)
        want = np.sort(np.linalg.svd(M, compute_uv=False), axis=-1)
        assert np.abs(got - want).max() <= 1e-11 * (1.0 + np.abs(M).max())


def test_singular_values_symmetric_path_matches_svd():
    rng = np.random.default_rng(29)
    A = random_symmetric(rng, (50, 3, 3), scale=4.0)
    got = singular_values(A)
    want = np.sort(np.linalg.svd(A, compute_uv=False), axis=-1)
    assert np.abs(got - want).max() <= 1e-11 * (1.0 + np.abs(A).max())


def test_singular_values_keep_precision_at_rank_drop():
    # rank-one general matrix: two exact zero singular values; the
    # symmetric embedding must resolve them to machine precision, not to
    # the sqrt(eps) level a Gram matrix would give
    rng = np.random.default_rng(31)
    u = rng.standard_normal(3)
    v = rng.standard_normal(3)
    M = np.outer(u, v) + 1e-5 * rng.standard_normal((3, 3))
    mu = singular_values(M)
    want = np.sort(np.linalg.svd(M, compute_uv=False))
    assert np.abs(mu - want).max() <= 1e-13

    exact = np.outer(u, v)
    mu = singular_values(exact)
    assert mu[0] <= 1e-14 and mu[1] <= 1e-14


# general 2 x 2 entries spanning sixteen decades, signs included
scaled_entries = st.builds(
    lambda mag, sign: sign * 10.0 ** mag,
    st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([-1.0, 1.0]),
)


def rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, (2, 2), elements=scaled_entries),
       st.floats(0.0, 2.0 * math.pi, allow_nan=False, allow_infinity=False))
def test_singular_values_2x2_general_kernel(M, theta):
    got = singular_values(M)
    want = np.sort(np.linalg.svd(M, compute_uv=False))
    scale = float(want[-1])
    assert got[0] <= got[1]
    assert np.abs(got - want).max() <= 1e-14 * scale
    R = rotation2(theta)
    for other in (M.T, R @ M, M @ R):
        assert np.abs(singular_values(other) - got).max() <= 1e-14 * scale


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, (2,), elements=scaled_entries),
       hnp.arrays(np.float64, (2,), elements=scaled_entries))
def test_singular_values_2x2_exact_rank_one(u, v):
    mu = singular_values(np.outer(u, v))
    assert mu[1] > 0.0
    assert mu[0] <= 1e-14 * mu[1]


@st.composite
def symmetric_3x3(draw):
    """General symmetric input, or Q diag(a, a, b) Q^T with a double root."""
    if draw(st.booleans()):
        M = draw(hnp.arrays(np.float64, (3, 3), elements=scaled_entries))
    else:
        a, b = draw(scaled_entries), draw(scaled_entries)
        Q = random_orthogonal(3, np.random.default_rng(draw(st.integers(0, 2**31 - 1))))
        M = (Q * np.array([a, a, b])) @ Q.T
    return 0.5 * (M + M.T)


@settings(max_examples=300, deadline=None)
@given(symmetric_3x3())
def test_sym_eigvals_3x3_kernel_matches_lapack(A):
    got = sym_eigvals(A)
    want = np.linalg.eigvalsh(A)
    assert got[0] <= got[1] <= got[2]
    assert np.abs(got - want).max() <= 1e-13 * float(np.abs(want).max())


def test_singular_values_2x2_zero_and_mixed_batch():
    assert np.array_equal(singular_values(np.zeros((2, 2))), [0.0, 0.0])
    rng = np.random.default_rng(43)
    M = rng.standard_normal((64, 2, 2))
    M[::3] = 0.0
    M[1::3] = 0.5 * (M[1::3] + np.swapaxes(M[1::3], -1, -2))
    got = singular_values(M.reshape(8, 8, 2, 2)).reshape(64, 2)
    want = np.sort(np.linalg.svd(M, compute_uv=False), axis=-1)
    assert np.abs(got - want).max() <= 1e-14 * (1.0 + np.abs(M).max())
    assert np.array_equal(got[::3], np.zeros((22, 2)))


def test_singular_values_jacobi_only_for_general_n_at_least_3(monkeypatch):
    from degenhess import invariants

    def refuse(*args, **kwargs):
        raise AssertionError("Jacobi reached")

    monkeypatch.setattr(invariants, "_jacobi_eigvals", refuse)
    rng = np.random.default_rng(47)
    singular_values(rng.standard_normal((10, 2, 2)))
    singular_values(random_symmetric(rng, (10, 2, 2)))
    singular_values(random_symmetric(rng, (10, 3, 3)))
    with pytest.raises(AssertionError, match="Jacobi reached"):
        singular_values(rng.standard_normal((10, 3, 3)))


def test_singular_values_symmetric_route_is_abs_eigvals():
    rng = np.random.default_rng(53)
    for n in (2, 3):
        A = random_symmetric(rng, (200, n, n), scale=3.0)
        want = np.sort(np.abs(sym_eigvals(A)), axis=-1)
        assert np.array_equal(singular_values(A), want)


def test_op_and_fro_norms():
    rng = np.random.default_rng(37)
    M = rng.standard_normal((20, 4, 4))
    assert np.allclose(op_norm(M), np.linalg.norm(M, ord=2, axis=(-2, -1)), atol=1e-11)
    assert np.allclose(fro_norm(M), np.linalg.norm(M, axis=(-2, -1)))


# ---------------------------------------------------------------- polar


def test_polar_roundtrip_nonsingular():
    rng = np.random.default_rng(41)
    B = rng.standard_normal((30, 3, 3))
    O, A = polar_decompose(B)
    scale = 1.0 + float(np.abs(B).max())
    assert np.abs(O @ A - B).max() <= 1e-10 * scale
    assert np.abs(np.swapaxes(O, -1, -2) @ O - np.eye(3)).max() <= 1e-12
    assert (A == np.swapaxes(A, -1, -2)).all()
    assert np.linalg.eigvalsh(A).min() >= -1e-12 * scale
    # for invertible B the determinant sign of O is forced by B
    for i in range(30):
        assert np.sign(np.linalg.det(O[i])) == np.sign(cofactor_det(B[i]))


def test_polar_matches_eigh_square_root():
    rng = np.random.default_rng(43)
    B = rng.standard_normal((4, 4))
    _, A = polar_decompose(B)
    w, Q = np.linalg.eigh(B.T @ B)
    want = (Q * np.sqrt(np.clip(w, 0.0, None))) @ Q.T
    assert np.abs(A - want).max() <= 1e-9 * (1.0 + np.abs(B).max())


def test_polar_rank_deficient_gets_nonnegative_det():
    rng = np.random.default_rng(47)
    for n, r in [(3, 1), (3, 2), (4, 2), (2, 0)]:
        left = random_orthogonal(n, rng)[:, :r]
        right = random_orthogonal(n, rng)[:r, :]
        B = left @ np.diag(np.arange(1.0, r + 1.0)) @ right if r else np.zeros((n, n))
        O, A = polar_decompose(B)
        scale = 1.0 + float(np.abs(B).max())
        assert np.abs(O @ A - B).max() <= 5e-7 * scale
        assert np.abs(O.T @ O - np.eye(n)).max() <= 1e-10
        assert np.linalg.det(O) > 0.5


def test_polar_zero_matrix():
    O, A = polar_decompose(np.zeros((3, 3)))
    assert (A == 0.0).all()
    assert np.abs(O.T @ O - np.eye(3)).max() <= 1e-14
    assert np.linalg.det(O) > 0.5


# ----------------------------------------------------------- rank tests


def test_rank_below_on_constructed_ranks():
    rng = np.random.default_rng(53)
    n = 4
    for r in range(0, n + 1):
        if r == 0:
            M = np.zeros((n, n))
        else:
            left = random_orthogonal(n, rng)[:, :r]
            right = random_orthogonal(n, rng)[:r, :]
            M = left @ np.diag(np.linspace(1.0, 2.0, r)) @ right
        for k in range(1, n + 1):
            assert bool(rank_below(M, k)) == (r < k)
    with pytest.raises(ValueError):
        rank_below(np.eye(3), 0)
    with pytest.raises(ValueError):
        rank_below(np.eye(3), 4)


# ------------------------------------------------------ Lipschitz bound


def test_ck_lipschitz_bound_holds():
    rng = np.random.default_rng(59)
    for n in (2, 3, 4):
        A = rng.uniform(-2.0, 2.0, (50, n, n))
        B = A + rng.uniform(-1.0, 1.0, (50, n, n)) * rng.uniform(0.0, 1.0, (50, 1, 1))
        for k in range(1, n + 1):
            lhs, rhs = ck_lipschitz_bound(A, B, k)
            assert (lhs <= rhs * (1.0 + 1e-12) + 1e-10).all()


def test_ck_constant_table_and_validation():
    assert ck_constant(3, 2) == 6.0
    assert ck_constant(2, 1) == 2.0
    with pytest.raises(ValueError):
        ck_constant(3, 0)
    with pytest.raises(ValueError):
        ck_constant(3, 4)


# ------------------------------------------------- property invariants

finite_entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def matrix_and_k(draw, symmetric=False):
    n = draw(st.integers(2, 5))
    M = draw(hnp.arrays(np.float64, (n, n), elements=finite_entries))
    if symmetric:
        M = 0.5 * (M + M.T)
    k = draw(st.integers(1, n))
    return M, k


@settings(max_examples=80, deadline=None)
@given(matrix_and_k(symmetric=True))
def test_lk_bounded_by_ck(data):
    A, k = data
    tol = 1e-10 * (1.0 + float(np.abs(A).max())) ** k
    assert abs(float(lk(A, k))) <= float(ck(A, k)) + tol


@settings(max_examples=80, deadline=None)
@given(matrix_and_k())
def test_ck_chain_inequalities(data):
    # top-k product <= C_k <= binom(n, k) * top-k product, and the smallest
    # member of the top-k block satisfies mu^k <= C_k; this last bound is
    # why cancelling that one singular direction is enough per cube
    M, k = data
    mu = singular_values(M)
    n = mu.shape[-1]
    top = float(np.prod(mu[n - k:]))
    c = float(ck(M, k))
    tol = 1e-10 * (1.0 + float(mu[-1])) ** k
    assert top <= c + tol
    assert c <= math.comb(n, k) * top + tol
    assert float(mu[n - k]) ** k <= c + tol


@settings(max_examples=80, deadline=None)
@given(matrix_and_k(), st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
def test_ck_homogeneous_of_degree_k(data, t):
    M, k = data
    c1 = float(ck(t * M, k))
    c2 = abs(t) ** k * float(ck(M, k))
    tol = 1e-11 * ((1.0 + abs(t)) * (1.0 + float(op_norm(M)))) ** k
    assert abs(c1 - c2) <= tol


@settings(max_examples=60, deadline=None)
@given(matrix_and_k(), st.integers(0, 2**31 - 1))
def test_ck_orthogonal_invariance(data, seed):
    M, k = data
    O = random_orthogonal(M.shape[0], np.random.default_rng(seed))
    c = float(ck(M, k))
    tol = 1e-11 * (1.0 + float(op_norm(M))) ** k
    assert abs(float(ck(O @ M, k)) - c) <= tol
    assert abs(float(ck(M @ O, k)) - c) <= tol


def test_first_order_identity_small_sample():
    # C_k(O(A + G)) = C_k(A + G) with O orthogonal, A the polar stretch of
    # a random matrix and G symmetric; the full 1000-trial gate lives in
    # the acceptance suite
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, n + 1))
        B = rng.uniform(-1.0, 1.0, (n, n))
        O, A = polar_decompose(B)
        G = random_symmetric(rng, (n, n))
        lhs = float(ck(O @ (A + G), k))
        rhs = float(ck(A + G, k))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-11


# ------------------------------------------ cross-checks against LAPACK


@st.composite
def general_matrix(draw, sizes):
    """A general n x n matrix, or one with its rank planted below n."""
    n = draw(st.sampled_from(sizes))
    M = draw(hnp.arrays(np.float64, (n, n), elements=finite_entries))
    rank = draw(st.integers(0, n))
    if rank < n:
        right = draw(hnp.arrays(np.float64, (n, n), elements=finite_entries))
        M = M[:, :rank] @ right[:rank, :]
    return M, rank


@settings(max_examples=40, deadline=None)
@given(general_matrix((3, 4, 5)))
def test_singular_values_match_svd_on_general_input(data):
    # tolerance 1e-11 (1 + max|M|), as in the seeded svd checks
    M, rank = data
    n = M.shape[0]
    tol = 1e-11 * (1.0 + float(np.abs(M).max()))
    got = singular_values(M)
    want = np.sort(np.linalg.svd(M, compute_uv=False))
    assert np.abs(got - want).max() <= tol
    assert (got[: n - rank] <= tol).all()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((4, 5)).flatmap(
    lambda n: hnp.arrays(np.float64, (n, n), elements=finite_entries)))
def test_sym_eigvals_match_eigvalsh_for_n_4_and_5(M):
    # tolerance 1e-11 (1 + max|A|), as in test_sym_eigen_matches_lapack_values
    A = 0.5 * (M + M.T)
    got = sym_eigvals(A)
    want = np.linalg.eigvalsh(A)
    assert np.abs(got - want).max() <= 1e-11 * (1.0 + float(np.abs(A).max()))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    hnp.arrays(np.float64, (n,), elements=st.floats(0.5, 4.0)),
    st.integers(0, 2**31 - 1))))
def test_polar_factor_matches_svd(data):
    # B = Q1 diag(s) Q2 with s in [0.5, 4], so cond(B) <= 8 and the
    # orthogonal factor U V^T is unique; tolerance 1e-11 (1 + max|B|)
    s, seed = data
    n = s.size
    rng = np.random.default_rng(seed)
    B = (random_orthogonal(n, rng) * s) @ random_orthogonal(n, rng)
    U, _, Vt = np.linalg.svd(B)
    O, _ = polar_decompose(B)
    assert np.abs(O - U @ Vt).max() <= 1e-11 * (1.0 + float(np.abs(B).max()))
