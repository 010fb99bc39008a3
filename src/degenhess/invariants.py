"""Matrix invariants built from singular values and eigenvalues.

All routines are batched: a matrix argument has shape (..., n, n) with
1 <= n <= 5 and results broadcast over the leading axes. The measured
quantity of interest is

    ck(M, k) = e_k(singular values of M),

the k-th elementary symmetric function of the singular values. A matrix has
rank below k exactly when ck vanishes. For symmetric matrices the companion
lk(A, k) = e_k(eigenvalues of A) satisfies |lk| <= ck pointwise.

Spectra come from hand-written kernels, not LAPACK:

* closed-form eigenvalues of symmetric matrices for n = 2 and n = 3;
* closed-form singular values of general 2 x 2 matrices;
* a cyclic Jacobi iteration (bit-reproducible) for everything else:
  symmetric n >= 4, full eigen decompositions, and the singular values of
  general n >= 3 matrices through their symmetric block embedding.

The closed forms are pure elementwise arithmetic, which quadrature grids
with millions of points need. LAPACK runs only inside the polar
decomposition: its batched Newton iteration calls np.linalg.inv and
np.linalg.det.
"""

import math
from dataclasses import dataclass

import numpy as np

MAX_DIM = 5

_SIGN_EPS = 1e-12


class EigenConvergenceError(RuntimeError):
    """Raised when the Jacobi iteration exhausts its sweep budget."""


@dataclass(frozen=True)
class Spectrum:
    """Eigen decomposition A = frame @ diag(values) @ frame.T.

    values are ascending; frame columns are unit eigenvectors whose first
    component larger than 1e-12 in magnitude is positive, so the
    decomposition is a deterministic function of the input.
    """

    values: np.ndarray
    frame: np.ndarray


def _as_batch(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"{name} must have shape (..., n, n), got {M.shape}")
    n = M.shape[-1]
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"{name} must have side between 1 and {MAX_DIM}, got {n}")
    return M, M.shape[:-2], n


def _require_symmetric(A, name="matrix"):
    if A.size == 0:
        return
    gap = float(np.abs(A - np.swapaxes(A, -1, -2)).max())
    scale = 1.0 + float(np.abs(A).max())
    if gap > 1e-9 * scale:
        raise ValueError(f"{name} is not symmetric (asymmetry {gap:.3e})")


def _offdiag_sq(A):
    # summed directly, not as total minus diagonal: that subtraction would
    # drown the converged off-diagonal mass in cancellation noise
    mask = ~np.eye(A.shape[-1], dtype=bool)
    return ((A * A) * mask).sum(axis=(1, 2))


def _rotate_pair(A, V, p, q):
    # One vectorized Jacobi rotation in the (p, q) plane across the batch.
    apq = A[:, p, q].copy()
    app = A[:, p, p].copy()
    aqq = A[:, q, q].copy()
    skip = np.abs(apq) <= 1e-300
    theta = (aqq - app) / np.where(skip, 1.0, 2.0 * apq)
    sgn = np.where(theta >= 0.0, 1.0, -1.0)
    t = np.where(skip, 0.0, sgn / (np.abs(theta) + np.hypot(theta, 1.0)))
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    tau = s / (1.0 + c)

    A[:, p, p] = app - t * apq
    A[:, q, q] = aqq + t * apq
    zeroed = np.where(skip, apq, 0.0)
    A[:, p, q] = zeroed
    A[:, q, p] = zeroed
    n = A.shape[1]
    for r in range(n):
        if r == p or r == q:
            continue
        arp = A[:, r, p].copy()
        arq = A[:, r, q].copy()
        new_rp = arp - s * (arq + tau * arp)
        new_rq = arq + s * (arp - tau * arq)
        A[:, r, p] = new_rp
        A[:, p, r] = new_rp
        A[:, r, q] = new_rq
        A[:, q, r] = new_rq
    if V is None:
        return
    for r in range(n):
        vrp = V[:, r, p].copy()
        vrq = V[:, r, q].copy()
        V[:, r, p] = vrp - s * (vrq + tau * vrp)
        V[:, r, q] = vrq + s * (vrp - tau * vrq)


# sweeps before the cyclic Jacobi gives up; for n <= 5 a handful of
# sweeps always suffices in practice
_JACOBI_SWEEPS = 100


def _jacobi_sweeps(work, V):
    # Cyclic Jacobi in place on a flattened symmetric batch: rotations
    # sweep the strict upper triangle in row order until the off-diagonal
    # mass falls below 1e-14 of the matrix norm. V (or None) accumulates
    # the eigenvectors.
    n = work.shape[-1]
    norm = np.sqrt((work * work).sum(axis=(1, 2)))
    tol2 = (1e-14 * np.maximum(norm, 1e-300)) ** 2
    for _ in range(_JACOBI_SWEEPS):
        if bool((_offdiag_sq(work) <= tol2).all()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate_pair(work, V, p, q)
    if not bool((_offdiag_sq(work) <= tol2).all()):
        raise EigenConvergenceError(
            f"Jacobi iteration did not converge within {_JACOBI_SWEEPS} sweeps"
        )


def _jacobi_eigvals(flat):
    # Values-only cyclic Jacobi for an already-flattened symmetric batch.
    # Used internally with sides up to 2 * MAX_DIM (singular value embedding).
    work = flat.copy()
    _jacobi_sweeps(work, None)
    return np.sort(np.einsum("bii->bi", work), axis=1)


def _fix_signs(V):
    # Flip each column so its first component of magnitude > 1e-12 is positive.
    big = np.abs(V) > _SIGN_EPS
    first = np.argmax(big, axis=1)
    lead = np.take_along_axis(V, first[:, None, :], axis=1)[:, 0, :]
    return V * np.where(lead < 0.0, -1.0, 1.0)[:, None, :]


def sym_eigen(A) -> Spectrum:
    """Full eigen decomposition of symmetric matrices by cyclic Jacobi.

    Rotations sweep the strict upper triangle in row order until the
    off-diagonal Frobenius mass falls below 1e-14 of the matrix norm.
    Raises EigenConvergenceError if _JACOBI_SWEEPS sweeps do not get
    there.
    """
    A, lead_shape, n = _as_batch(A, "A")
    _require_symmetric(A, "A")
    work = A.reshape(-1, n, n).copy()
    nbatch = work.shape[0]
    V = np.broadcast_to(np.eye(n), (nbatch, n, n)).copy()
    _jacobi_sweeps(work, V)

    vals = np.einsum("bii->bi", work).copy()
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    V = np.take_along_axis(V, order[:, None, :], axis=2)
    V = _fix_signs(V)
    return Spectrum(vals.reshape(lead_shape + (n,)), V.reshape(lead_shape + (n, n)))


def _eigvals2(F):
    a = F[:, 0, 0]
    b = F[:, 0, 1]
    c = F[:, 1, 1]
    mid = 0.5 * (a + c)
    radius = np.hypot(0.5 * (a - c), b)
    return np.stack([mid - radius, mid + radius], axis=-1)


def _eigvals3(F):
    # The trigonometric solution of the characteristic cubic resolves the
    # root farthest from the other two to machine precision, but a
    # clustered pair only to about sqrt(eps) times the spread (arccos is
    # flat at +-1). So only that isolated root lam is taken from it. The
    # pair comes from the deflated matrix C = F - lam I, which has rank 2:
    # adj(C) = nu1 nu2 v v^T for its null vector v, and
    # D = C - h (I - v v^T) with h = tr(C) / 2 has eigenvalues 0 and
    # +-(nu1 - nu2) / 2, so the pair is lam + h +- |D|_F / sqrt(2). The
    # entries of D are formed without cancellation of the pair's offset.
    f00, f01, f02, _, f11, f12, _, _, f22 = np.ascontiguousarray(
        F.reshape(-1, 9).T
    )
    q = (f00 + f11 + f22) / 3.0
    d0 = f00 - q
    d1 = f11 - q
    d2 = f22 - q
    p = np.sqrt(
        (d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (f01 * f01 + f02 * f02 + f12 * f12))
        / 6.0
    )
    s = 1.0 / np.where(p > 0.0, p, 1.0)
    d0, d1, d2, b01, b02, b12 = d0 * s, d1 * s, d2 * s, f01 * s, f02 * s, f12 * s
    det = (
        d0 * (d1 * d2 - b12 * b12)
        - b01 * (b01 * d2 - b12 * b02)
        + b02 * (b01 * b12 - d1 * b02)
    )
    r = np.clip(0.5 * det, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    # r >= 0: the top root is the isolated one, else the bottom one
    lam = q + 2.0 * p * np.cos(np.where(r >= 0.0, phi, phi + 2.0 * math.pi / 3.0))
    c00 = f00 - lam
    c11 = f11 - lam
    c22 = f22 - lam
    a00 = c11 * c22 - f12 * f12
    a11 = c00 * c22 - f02 * f02
    a22 = c00 * c11 - f01 * f01
    a01 = f02 * f12 - f01 * c22
    a02 = f01 * f12 - f02 * c11
    a12 = f01 * f02 - c00 * f12
    # tr adj(C) = nu1 nu2 vanishes only when C = 0, i.e. F = lam I
    tadj = a00 + a11 + a22
    h = 0.5 * (c00 + c11 + c22)
    hw = h / np.where(tadj != 0.0, tadj, 1.0)
    e00 = c00 - h + hw * a00
    e11 = c11 - h + hw * a11
    e22 = c22 - h + hw * a22
    e01 = f01 + hw * a01
    e02 = f02 + hw * a02
    e12 = f12 + hw * a12
    half = np.sqrt(
        0.5 * (e00 * e00 + e11 * e11 + e22 * e22
               + 2.0 * (e01 * e01 + e02 * e02 + e12 * e12))
    )
    # the squared deviations (lambda_i - q)^2 sum to 6 p^2, so a pair is
    # at most sqrt(12) p wide; when p is rounding noise next to |q|,
    # tr adj(C) is noise as well and this cap keeps the pair near q
    half = np.minimum(half, math.sqrt(3.0) * p)
    lo = lam + h - half
    hi = lam + h + half
    return np.stack(
        [np.minimum(lam, lo), np.minimum(np.maximum(lam, lo), hi),
         np.maximum(lam, hi)],
        axis=-1,
    )


def _sym_eigvals_flat(flat, n):
    # ascending eigenvalues of a flattened batch already known symmetric
    if n == 1:
        return flat[:, 0, 0].reshape(-1, 1)
    if n == 2:
        return _eigvals2(flat)
    if n == 3:
        return _eigvals3(flat)
    return _jacobi_eigvals(flat)


def sym_eigvals(A) -> np.ndarray:
    """Ascending eigenvalues of symmetric matrices, (..., n).

    n = 2 and n = 3 use closed-form kernels (pure elementwise arithmetic,
    safe on grids with millions of points); larger n falls back to the
    Jacobi iteration. The n = 3 kernel takes the isolated eigenvalue from
    the trigonometric solution and the remaining pair from the deflated
    matrix, so double roots resolve to machine precision as well.
    """
    A, lead_shape, n = _as_batch(A, "A")
    _require_symmetric(A, "A")
    vals = _sym_eigvals_flat(A.reshape(-1, n, n), n)
    return vals.reshape(lead_shape + (n,))


def _singvals2(F):
    # Closed-form singular values of general 2 x 2 matrices [[a, b], [c, d]].
    # M splits into a rotation-like part (s) and a reflection-like part (t)
    # with sigma_max = (s + t) / 2. sigma_min comes from the determinant, not
    # from (s - t) / 2: that difference would cancel at rank drops, while
    # |ad - bc| / sigma_max keeps the absolute error near eps * sigma_max.
    a = F[:, 0, 0]
    b = F[:, 0, 1]
    c = F[:, 1, 0]
    d = F[:, 1, 1]
    s = np.hypot(a + d, c - b)
    t = np.hypot(a - d, c + b)
    hi = 0.5 * (s + t)
    # hi = 0 only for the zero matrix, whose determinant is 0 as well; the
    # minimum keeps the pair ascending when rounding lifts lo past hi
    lo = np.abs(a * d - b * c) / np.where(hi > 0.0, hi, 1.0)
    return np.stack([np.minimum(lo, hi), hi], axis=-1)


def singular_values(M) -> np.ndarray:
    """Ascending singular values of square matrices, (..., n).

    Each batch takes one of three routes:

    * n = 2 input that is not exactly symmetric: the closed-form 2 x 2
      kernel. Its smallest value is |det M| / sigma_max, accurate to about
      eps * sigma_max in absolute terms.
    * Exactly symmetric input, any n: the |eigenvalue| route, i.e. the
      closed-form eigenvalue kernels for n <= 3 and Jacobi above.
    * General input with n >= 3: Jacobi on the symmetric block matrix
      [[0, M.T], [M, 0]], whose eigenvalues are the singular values in
      pairs of both signs.

    The general routes keep full absolute precision near rank drops, which
    is what C_k certificates care about; the Gram matrix M.T @ M would lose
    it to sqrt(eps) * |M|.
    """
    M, lead_shape, n = _as_batch(M, "M")
    flat = M.reshape(-1, n, n)
    if n == 2:
        if bool((flat[:, 0, 1] == flat[:, 1, 0]).all()):
            lam = np.abs(_eigvals2(flat))
            mu = np.stack([np.minimum(lam[:, 0], lam[:, 1]),
                           np.maximum(lam[:, 0], lam[:, 1])], axis=-1)
        else:
            mu = _singvals2(flat)
    elif bool((flat == np.swapaxes(flat, -1, -2)).all()):
        mu = np.sort(np.abs(_sym_eigvals_flat(flat, n)), axis=-1)
    else:
        emb = np.zeros((flat.shape[0], 2 * n, 2 * n))
        emb[:, :n, n:] = np.swapaxes(flat, -1, -2)
        emb[:, n:, :n] = flat
        mu = np.clip(_jacobi_eigvals(emb)[:, n:], 0.0, None)
    return mu.reshape(lead_shape + (n,))


def elementary_symmetric(values, k: int) -> np.ndarray:
    """e_k of the entries along the last axis, batched over the rest.

    Newton-free running recurrence: feed entries one at a time into the
    partial sums e_0..e_k. e_0 = 1, e_k = 0 for k > n.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim < 1:
        raise ValueError("values must have at least one axis")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    n = values.shape[-1]
    lead_shape = values.shape[:-1]
    if k == 0:
        return np.ones(lead_shape)
    if k > n:
        return np.zeros(lead_shape)
    e = [np.ones(lead_shape)] + [np.zeros(lead_shape) for _ in range(k)]
    for i in range(n):
        v = values[..., i]
        for d in range(min(i + 1, k), 0, -1):
            e[d] = e[d] + v * e[d - 1]
    return e[k]


def ck(M, k: int) -> np.ndarray:
    """C_k(M) = e_k(singular values of M). Vanishes iff rank(M) < k."""
    return elementary_symmetric(singular_values(M), k)


def lk(A, k: int) -> np.ndarray:
    """L_k(A) = e_k(eigenvalues of A) for symmetric A. |L_k| <= C_k."""
    return elementary_symmetric(sym_eigvals(A), k)


def op_norm(M) -> np.ndarray:
    """Largest singular value."""
    return singular_values(M)[..., -1]


def fro_norm(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    return np.sqrt((M * M).sum(axis=(-1, -2)))


def rank_below(M, k: int) -> np.ndarray:
    """True where rank(M) < k, i.e. the (n-k+1)-th singular value vanishes.

    The test is relative: mu_{n-k+1} <= 1e-9 * max(1, mu_n).
    """
    mu = singular_values(M)
    n = mu.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    return mu[..., n - k] <= 1e-9 * np.maximum(1.0, mu[..., -1])


def _gs_complete(basis, n):
    # First canonical basis vector with a healthy residual, orthonormalized.
    for j in range(n):
        vec = np.zeros(n)
        vec[j] = 1.0
        for b in basis:
            vec -= (b @ vec) * b
        norm = float(np.sqrt(vec @ vec))
        if norm > 0.25:
            vec /= norm
            for b in basis:
                vec -= (b @ vec) * b
            vec /= float(np.sqrt(vec @ vec))
            return vec
    raise RuntimeError("orthonormal completion failed")


def _polar_single(B, n):
    gram = B.T @ B
    gram = 0.5 * (gram + gram.T)
    spec = sym_eigen(gram)
    mu = np.sqrt(np.clip(spec.values, 0.0, None))
    V = spec.frame
    A = (V * mu) @ V.T
    A = 0.5 * (A + A.T)

    # U column i maps the i-th right singular vector onto the left one.
    # The Gram route reads exact zeros as sqrt(eps) * |B|, so the null
    # threshold must sit above that, not at machine precision.
    tol = 1e-7 * max(1.0, float(mu[-1]))
    U = np.zeros((n, n))
    null_slots = []
    for i in range(n):
        if mu[i] > tol:
            U[:, i] = (B @ V[:, i]) / mu[i]
        else:
            null_slots.append(i)
    if null_slots:
        live = [U[:, i].copy() for i in range(n) if i not in null_slots]
        for slot in null_slots:
            vec = _gs_complete(live, n)
            live.append(vec)
            U[:, slot] = vec
        if float(np.linalg.det(U)) * float(np.linalg.det(V)) < 0.0:
            U[:, null_slots[-1]] *= -1.0
    # one Newton-Schulz pass absorbs the cond(B)-amplified roundoff in U
    U = U @ (1.5 * np.eye(n) - 0.5 * (U.T @ U))
    return U @ V.T, A


def _polar_newton(F, iters=60):
    # scaled Newton iteration for the orthogonal factor; determinant
    # scaling keeps the step count flat across moderate conditioning
    n = F.shape[-1]
    X = F.copy()
    for _ in range(iters):
        Xinv = np.linalg.inv(X)
        g = np.abs(np.linalg.det(X)) ** (-1.0 / n)
        Y = 0.5 * (g[:, None, None] * X
                   + (1.0 / g)[:, None, None] * Xinv.swapaxes(-1, -2))
        step = np.abs(Y - X).max()
        X = Y
        if step < 1e-13:
            break
    # one unscaled polish step settles the last bits
    Xinv = np.linalg.inv(X)
    return 0.5 * (X + Xinv.swapaxes(-1, -2))


def polar_decompose(B):
    """Right polar factorization B = O @ A.

    A = (B.T B)^(1/2) is symmetric positive semidefinite and O is
    orthogonal. Rank-deficient B gets its missing O columns from
    Gram-Schmidt over the canonical basis in index order, with the last
    completed column flipped if needed so det(O) >= 0; for invertible B
    the sign of det(O) is forced by B itself.
    """
    B, lead_shape, n = _as_batch(B, "B")
    flat = B.reshape(-1, n, n)
    O = np.empty_like(flat)
    A = np.empty_like(flat)
    sv = singular_values(flat)
    # the batched Newton path needs safely invertible input; anything
    # close to singular keeps the careful per-matrix route
    good = sv[:, 0] > 1e-6 * np.maximum(sv[:, -1], 1e-12)
    if good.any():
        Og = _polar_newton(flat[good])
        G = Og.swapaxes(-1, -2) @ flat[good]
        O[good] = Og
        A[good] = 0.5 * (G + G.swapaxes(-1, -2))
    for i in np.flatnonzero(~good):
        O[i], A[i] = _polar_single(flat[i], n)
    return O.reshape(lead_shape + (n, n)), A.reshape(lead_shape + (n, n))


def ck_constant(n: int, k: int) -> float:
    """Certified local Lipschitz constant for C_k on n x n matrices.

    |C_k(A) - C_k(B)| <= L * max(||A||, ||B||)^(k-1) * ||A - B|| in the
    operator norm with L = n * binom(n-1, k-1): singular values move at
    most ||A - B|| (Mirsky) and each partial derivative of e_k is bounded
    by binom(n-1, k-1) * R^(k-1).
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    return float(n * math.comb(n - 1, k - 1))


def ck_lipschitz_bound(A, B, k: int):
    """Return (lhs, rhs) of the local Lipschitz inequality for C_k.

    lhs = |C_k(A) - C_k(B)|, rhs = L * R^(k-1) * ||A - B||_op with
    L = ck_constant(n, k) and R = max(||A||_op, ||B||_op). The inequality
    always holds, so lhs <= rhs up to roundoff.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[-1]
    L = ck_constant(n, k)
    lhs = np.abs(ck(A, k) - ck(B, k))
    R = np.maximum(op_norm(A), op_norm(B))
    rhs = L * R ** (k - 1) * op_norm(A - B)
    return lhs, rhs
