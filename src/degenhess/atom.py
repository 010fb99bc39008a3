"""Oscillating cube perturbations and their measured certificates.

The building block is a C^2 function g supported in a closed cube: a
one-dimensional second-antiderivative oscillation along one eigenvector
of a frozen symmetric matrix A, shaped so that A + grad^2 g alternates
between cancelling and doubling the chosen eigenvalue ("cancel" and
"compensate" plateaus), multiplied by a per-axis boundary cutoff. The
profile's second derivative integrates to exactly zero over each period,
so the mean of C_k(A + grad^2 g) matches C_k(A) up to cutoff effects,
while the k-th-root concavity of C_k^(p/k) contracts the power integral
by roughly 2^(p/k-1).

Nothing here is assumed: certify_atom integrates and samples the actual
evaluators and reports measured values, error estimates, and pass/fail
flags per property.
"""

import math
from dataclasses import dataclass, fields as dataclass_fields, replace
from functools import lru_cache
from itertools import combinations

import numpy as np

from .fields import Box, TensorGrid, _gauss01
from .invariants import ck, op_norm, polar_decompose, sym_eigen


class AtomTuningError(RuntimeError):
    """Tuning budget exhausted; carries the best atom and certificate."""

    def __init__(self, atom, certificate, history):
        best = certificate.tau_meas if certificate is not None else float("nan")
        super().__init__(
            f"tuning budget exhausted, best measured contraction {best:.6f}"
        )
        self.atom = atom
        self.certificate = certificate
        self.history = tuple(history)


# ----------------------------------------------------- smooth pieces


def _smoothstep(s):
    return s * s * s * (10.0 + s * (6.0 * s - 15.0))


def _smoothstep_d1(s):
    t = 1.0 - s
    return 30.0 * s * s * t * t


def _smoothstep_d2(s):
    return 60.0 * s * (1.0 - s) * (1.0 - 2.0 * s)


def _smoothstep_i1(s):
    # antiderivative of _smoothstep vanishing at 0; equals 1/2 at 1
    return s ** 4 * (2.5 + s * (s - 3.0))


def _smoothstep_i2(s):
    # antiderivative of _smoothstep_i1 vanishing at 0; equals 1/7 at 1
    return s ** 5 * (0.5 + s * (s / 7.0 - 0.5))


def _pow2_at_least(x):
    return 1 << max(0, math.ceil(math.log2(max(1.0, x))))


def profile_breakpoints(gamma_s):
    """Segment boundaries of one oscillation period in unit coordinates."""
    g = float(gamma_s)
    if not 0.0 < g < 1.0 / 7.0:
        raise ValueError("smoothing width must lie in (0, 1/7)")
    return np.array(
        [
            0.0,
            g,
            (1.0 - 3.0 * g) / 4.0,
            (1.0 + 5.0 * g) / 4.0,
            (3.0 - 5.0 * g) / 4.0,
            (3.0 + 3.0 * g) / 4.0,
            1.0 - g,
            1.0,
        ]
    )


@lru_cache(maxsize=32)
def _profile_constants(g):
    # plateau lengths chosen so each period has exactly zero signed area:
    # the ramps contribute -gamma in total, balancing the cancel plateaus
    # (2 q1) against the compensate plateau (q2 = 2 q1 + gamma)
    q1 = (1.0 - 7.0 * g) / 4.0
    q2 = (1.0 - 5.0 * g) / 2.0
    w1_low = -(1.0 - 5.0 * g) / 4.0
    w1_high = (1.0 - 5.0 * g) / 4.0
    w0_b1 = -g * g / 7.0
    w0_b2 = w0_b1 - g * q1 / 2.0 - q1 * q1 / 2.0
    w0_b3 = w0_b2 + 2.0 * g * w1_low - 6.0 * g * g / 7.0
    w0_b4 = w0_b3 + w1_low * q2 + q2 * q2 / 2.0
    w0_b5 = w0_b4 + 2.0 * g * w1_high + 6.0 * g * g / 7.0
    w0_b6 = w0_b5 + w1_high * q1 - q1 * q1 / 2.0
    return q1, q2, w1_low, w1_high, (w0_b1, w0_b2, w0_b3, w0_b4, w0_b5, w0_b6)


def profile_eval(u, gamma_s):
    """Evaluate the period profile and its first two antiderivatives.

    u is the phase in [0, 1]. Returns (w0, w1, w2) with w2 the unit-height
    oscillation (plateaus at -1 and +1 joined by quintic ramps), w1 its
    running integral and w0 the integral of w1. w1 vanishes at 0, 1/2 and
    1, w0 at 0 and 1, all exactly, so a train of whole periods glues to
    zero with two continuous derivatives.
    """
    g = float(gamma_s)
    b = profile_breakpoints(g)
    q1, q2, w1_low, w1_high, w0b = _profile_constants(g)
    u = np.asarray(u, dtype=float)
    w0 = np.empty_like(u)
    w1 = np.empty_like(u)
    w2 = np.empty_like(u)
    seg = np.clip(np.searchsorted(b, u, side="right") - 1, 0, 6)
    for i in range(7):
        m = seg == i
        if not m.any():
            continue
        um = u[m]
        if i == 0:
            s = um / g
            w2[m] = -_smoothstep(s)
            w1[m] = -g * _smoothstep_i1(s)
            w0[m] = -g * g * _smoothstep_i2(s)
        elif i == 1:
            d = um - b[1]
            w2[m] = -1.0
            w1[m] = -g / 2.0 - d
            w0[m] = w0b[0] - (g / 2.0) * d - d * d / 2.0
        elif i == 2:
            s = (um - b[2]) / (2.0 * g)
            w2[m] = 2.0 * _smoothstep(s) - 1.0
            w1[m] = w1_low + 2.0 * g * (2.0 * _smoothstep_i1(s) - s)
            w0[m] = (
                w0b[1]
                + w1_low * (2.0 * g * s)
                + 4.0 * g * g * (2.0 * _smoothstep_i2(s) - s * s / 2.0)
            )
        elif i == 3:
            d = um - b[3]
            w2[m] = 1.0
            w1[m] = w1_low + d
            w0[m] = w0b[2] + w1_low * d + d * d / 2.0
        elif i == 4:
            s = (um - b[4]) / (2.0 * g)
            w2[m] = 1.0 - 2.0 * _smoothstep(s)
            w1[m] = w1_high + 2.0 * g * (s - 2.0 * _smoothstep_i1(s))
            w0[m] = (
                w0b[3]
                + w1_high * (2.0 * g * s)
                + 4.0 * g * g * (s * s / 2.0 - 2.0 * _smoothstep_i2(s))
            )
        elif i == 5:
            d = um - b[5]
            w2[m] = -1.0
            w1[m] = w1_high - d
            w0[m] = w0b[4] + w1_high * d - d * d / 2.0
        else:
            s = (um - b[6]) / g
            w2[m] = _smoothstep(s) - 1.0
            w1[m] = g / 2.0 + g * (_smoothstep_i1(s) - s)
            w0[m] = w0b[5] + (g / 2.0) * (g * s) + g * g * (
                _smoothstep_i2(s) - s * s / 2.0
            )
    return w0, w1, w2


def cutoff_eval(v, gamma_c):
    """Per-axis boundary cutoff on [0, 1] with two derivatives.

    Exactly zero within gamma_c/2 of either endpoint, exactly one on
    [gamma_c, 1 - gamma_c], quintic ramps between. Returns (c0, c1, c2),
    derivatives taken in the unit coordinate. Values outside [0, 1] fall
    in the zero zone.
    """
    gc = float(gamma_c)
    if not 0.0 < gc < 0.5:
        raise ValueError("cutoff width must lie in (0, 1/2)")
    v = np.asarray(v, dtype=float)
    w = np.minimum(v, 1.0 - v)
    sgn = np.where(v <= 0.5, 1.0, -1.0)
    half = gc / 2.0
    c0 = np.ones_like(v)
    c1 = np.zeros_like(v)
    c2 = np.zeros_like(v)
    zero = w <= half
    c0[zero] = 0.0
    ramp = ~zero & (w < gc)
    if ramp.any():
        s = (w[ramp] - half) / half
        c0[ramp] = _smoothstep(s)
        c1[ramp] = _smoothstep_d1(s) / half * sgn[ramp]
        c2[ramp] = _smoothstep_d2(s) / (half * half)
    return c0, c1, c2


# ------------------------------------------------------------- atoms


@dataclass(frozen=True)
class AtomParams:
    """Tunable knobs for atom construction; None means auto-sized.

    Auto-sized periods is a power of two, at least _MIN_PERIODS and at
    most max_periods. collar_periods controls the cutoff width through
    gamma_c = min(0.2, collar_periods / periods): larger values thin
    out the cutoff's derivative spikes relative to the oscillation, at
    the price of a wider boundary band. Auto picks 2.5 for axis-aligned
    oscillations (whose cutoff cross terms are gated by the cutoff value
    itself) and 5.0 for rotated ones (where they add linearly to the top
    eigenvalue).
    """

    periods: int | None = None
    gamma_s: float = 0.01
    collar_periods: float | None = None
    shave: float | None = None
    max_periods: int = 1 << 14


# fewest periods an auto-sized atom gets, before the power-of-two round-up
_MIN_PERIODS = 64


@dataclass(frozen=True)
class PerturbationAtom:
    """One cancel-compensate oscillation supported in a closed cube.

    frame holds orthonormal columns (the eigenframe of the frozen
    matrix), axis_index picks the oscillation direction e, eigenvalue is
    the frozen eigenvalue being cancelled and amplitude the signed
    oscillation height actually used (shave < 1 keeps the measured
    Hessian sup under amp_cap despite cutoff cross terms). periods is
    the number of whole oscillation periods in the train, gamma_s the
    ramp fraction of a period, gamma_c the cutoff width in cube-edge
    units. aligned_axis is the coordinate axis when e is canonical,
    which drops the cutoff along e in favour of an exactly-gluing
    integer period train with g identically zero near the two e-faces.
    """

    cube: Box
    frame: np.ndarray
    axis_index: int
    eigenvalue: float
    amplitude: float
    periods: int
    gamma_s: float
    gamma_c: float
    collar_periods: float
    eps0: float
    amp_cap: float
    shave: float
    aligned_axis: int | None

    @property
    def is_zero(self):
        return self.amplitude == 0.0

    @property
    def scalar(self):
        """The scalar atom: this one, as VectorAtom.scalar is its atom."""
        return self

    @property
    def direction(self):
        return np.array(self.frame[:, self.axis_index])

    @property
    def train_extent(self):
        """Absolute length of the oscillation train along the direction."""
        edges = np.array(self.cube.edges)
        if self.aligned_axis is not None:
            return (1.0 - 2.0 * self.gamma_c) * edges[self.aligned_axis]
        e = self.direction
        return float(np.abs(e) @ edges)

    def _collar_axes(self):
        n = self.cube.n
        if self.aligned_axis is None:
            return list(range(n))
        return [a for a in range(n) if a != self.aligned_axis]

    def value_grad_hess(self, X, lo=None):
        """Value (P,), gradient (P, n) and Hessian (P, n, n) at X.

        lo, when given, is a (P, n) array of lower cube corners, one per
        point: each point is evaluated by this atom translated to the
        cube with that corner and this atom's edges. The arithmetic per
        point is unchanged, so a point gets bitwise what the translated
        atom gives it.
        """
        X = np.asarray(X, dtype=float)
        P, n = X.shape
        val = np.zeros(P)
        grad = np.zeros((P, n))
        hess = np.zeros((P, n, n))
        if self.amplitude == 0.0 or self.periods == 0:
            return val, grad, hess
        if lo is None:
            lo = np.array(self.cube.lo)
        edges = np.array(self.cube.edges)
        center = lo + edges / 2.0
        Xl = (X - lo) / edges
        return self._jet((X - center) @ self.direction, Xl.T)

    def matrix_on(self, grid):
        """The Hessian at grid.points, (P, n, n).

        On a tensor grid the atom goes through _hessian, which forms each
        entry as _jet does and in its order, so it equals value_grad_hess's
        entry; for an aligned atom only an exact zero may differ in sign,
        which moves no integral. Zero atoms and scattered points go
        through value_grad_hess.
        """
        if grid.axes is None or self.amplitude == 0.0 or self.periods == 0:
            return self.value_grad_hess(grid.points)[2]
        return self._hessian(list(enumerate(grid.axes)), grid.points)

    def _factors(self, t, unit):
        """The profile factors (psi, psi1, psi2) at offsets t along the
        direction, and the cutoff factors (c0s, c1s, c2s), dicts over the
        collar axes, at the unit coordinates unit[a], derivatives taken in
        the physical coordinate. The one place they are formed: _jet and
        _hessian build their products from these, so their entries agree.
        """
        T = self.train_extent
        delta = T / self.periods
        in_train = np.abs(t) <= T / 2.0
        u = (t + T / 2.0) / delta
        u = u - np.floor(u)
        w0, w1, w2 = profile_eval(np.clip(u, 0.0, 1.0), self.gamma_s)
        w0[~in_train] = 0.0
        w1[~in_train] = 0.0
        w2[~in_train] = 0.0
        psi = self.amplitude * delta * delta * w0
        psi1 = self.amplitude * delta * w1
        psi2 = self.amplitude * w2

        edges = np.array(self.cube.edges)
        c0s, c1s, c2s = {}, {}, {}
        for a in self._collar_axes():
            c0, c1, c2 = cutoff_eval(unit[a], self.gamma_c)
            c0s[a] = c0
            c1s[a] = c1 / edges[a]
            c2s[a] = c2 / (edges[a] * edges[a])
        return (psi, psi1, psi2), (c0s, c1s, c2s)

    def _hessian(self, axes, X):
        """The Hessian (P, n, n) on the product of the nodes of axes, a
        list of (coordinate, nodes) over every coordinate, slowest first;
        X lists the same points. Cutoff factors are formed once per node
        of each collar axis. An aligned atom forms its profile factors
        once per oscillation node and writes only the entries not zero by
        structure: the oscillation diagonal, the mixed row and column, and
        the collar block. A rotated atom projects X on its direction as
        value_grad_hess does and writes every entry as (chi*psi2)*(e_i e_j)
        + psi1*(gchi_i e_j + gchi_j e_i) + psi*hchi_ij.
        """
        n = self.cube.n
        pos = {a: i for i, (a, _) in enumerate(axes)}
        sizes = tuple(v.size for _, v in axes)

        def along(a, v):
            shape = [1] * n
            shape[pos[a]] = v.size
            return v.reshape(shape)

        lo = np.array(self.cube.lo)
        edges = np.array(self.cube.edges)
        center = lo + edges / 2.0
        e = self.direction
        a0 = self.aligned_axis
        if a0 is None:
            t = ((X - center) @ e).reshape(sizes)
        else:
            t = along(a0, (dict(axes)[a0] - center[a0]) * e[a0])
        unit = {a: along(a, (v - lo[a]) / edges[a]) for a, v in axes}
        (psi, psi1, psi2), (c0s, c1s, c2s) = self._factors(t, unit)
        chi_psi2 = _prod_except(c0s, ()) * psi2
        gchi = {a: c1s[a] * _prod_except(c0s, (a,)) for a in c0s}

        def hchi(i, j):
            if i == j:
                return c2s[i] * _prod_except(c0s, (i,))
            return c1s[i] * c1s[j] * _prod_except(c0s, (i, j))

        H = np.zeros(sizes + (n, n))
        for i in range(n):
            for j in range(i, n):
                out = H[..., i, j]
                if a0 is None:
                    np.add(chi_psi2 * (e[i] * e[j])
                           + psi1 * (gchi[i] * e[j] + gchi[j] * e[i]),
                           psi * hchi(i, j), out=out)
                elif i == j == a0:
                    np.multiply(chi_psi2, e[a0] * e[a0], out=out)
                elif a0 in (i, j):
                    np.multiply(psi1, gchi[i + j - a0] * e[a0], out=out)
                else:
                    np.multiply(psi, hchi(i, j), out=out)
                H[..., j, i] = out
        return H.reshape(-1, n, n)

    def _jet(self, t, Xl):
        """Value, gradient and Hessian of the atom from the offsets t (P,)
        along its direction and the unit coordinates Xl[a] (P,) of each
        collar axis.

        The factors come from _factors, which _hessian shares, and each
        Hessian entry is the sum of the three terms that _hessian writes
        for a rotated atom, in the same order.
        """
        n = self.cube.n
        e = self.direction
        (psi, psi1, psi2), (c0s, c1s, c2s) = self._factors(t, Xl)
        chi = _prod_except(c0s, ())
        gchi = np.zeros(t.shape + (n,))
        hchi = np.zeros(t.shape + (n, n))
        for a in c0s:
            gchi[..., a] = c1s[a] * _prod_except(c0s, (a,))
            hchi[..., a, a] = c2s[a] * _prod_except(c0s, (a,))
        for a, b2 in combinations(c0s, 2):
            cross = c1s[a] * c1s[b2] * _prod_except(c0s, (a, b2))
            hchi[..., a, b2] = cross
            hchi[..., b2, a] = cross

        val = chi * psi
        grad = (chi * psi1)[..., None] * e + psi[..., None] * gchi
        ee = np.outer(e, e)
        mixed = gchi[..., :, None] * e
        mixed = mixed + np.swapaxes(mixed, -1, -2)
        hess = (
            (chi * psi2)[..., None, None] * ee
            + psi1[..., None, None] * mixed
            + psi[..., None, None] * hchi
        )
        return val, grad, hess


def _prod_except(c0s, skip):
    """Product of the cutoff values c0s[a] over the axes not in skip."""
    out = 1.0
    for a, c0 in c0s.items():
        if a not in skip:
            out = out * c0
    return out


def zero_atom(cube, eps0=0.0):
    n = cube.n
    return PerturbationAtom(
        cube=cube,
        frame=np.eye(n),
        axis_index=0,
        eigenvalue=0.0,
        amplitude=0.0,
        periods=0,
        gamma_s=0.01,
        gamma_c=0.1,
        collar_periods=2.5,
        eps0=float(eps0),
        amp_cap=0.0,
        shave=0.0,
        aligned_axis=0,
    )


def _canonical_axis(e):
    idx = int(np.argmax(np.abs(e)))
    v = np.zeros_like(e)
    v[idx] = 1.0 if e[idx] > 0 else -1.0
    if np.array_equal(e, v):
        return idx
    return None


def _probe_grid(atom):
    """Deterministic points hitting the profile and cutoff extremes.

    For aligned atoms, a tensor grid of one full period's phases against
    collar stations resolves every plateau/ramp combination. Rotated
    atoms get a seeded cloud, a boundary-band lattice, and targeted
    points where a chosen oscillation phase meets each axis's cutoff
    ramp (the rotated cross terms peak there).
    """
    cube, e, gc = atom.cube, atom.direction, atom.gamma_c
    aligned_axis, periods = atom.aligned_axis, atom.periods
    n = cube.n
    lo = np.array(cube.lo)
    edges = np.array(cube.edges)
    center = lo + edges / 2.0
    b = profile_breakpoints(atom.gamma_s)
    phases = np.concatenate([np.linspace(b[i], b[i + 1], 9) for i in range(7)])
    if aligned_axis is not None:
        T = atom.train_extent
        delta = T / periods
        t_vals = -T / 2.0 + delta * ((periods // 2) + phases)
        axis_vals = []
        for a in range(n):
            if a == aligned_axis:
                axis_vals.append(center[a] + t_vals)
            else:
                v = np.concatenate(
                    [np.linspace(0.0, gc, 17), [gc + (0.5 - gc) * 0.5, 0.5]]
                )
                v = np.unique(np.concatenate([v, 1.0 - v]))
                axis_vals.append(lo[a] + edges[a] * v)
        return TensorGrid.product(axis_vals).points
    rng = np.random.default_rng(12345)
    X = lo + rng.random((4096, n)) * edges
    frac = np.array(
        [gc / 4, gc / 2, 0.625 * gc, 0.75 * gc, 0.875 * gc, gc, 0.3, 0.5, 0.7]
    )
    per_axis = np.unique(np.concatenate([frac, 1.0 - frac]))
    Xs = TensorGrid.product([lo[a] + edges[a] * per_axis for a in range(n)]).points
    T = atom.train_extent
    delta = T / periods
    t_targets = -T / 2.0 + delta * ((periods // 2) + phases)
    ramp = gc / 2.0 + (gc / 2.0) * np.array([0.25, 0.4, 0.5, 0.6, 0.75])
    ramp = np.concatenate([ramp, 1.0 - ramp])
    others = np.array([0.35, 0.5, 0.65])
    lines = []
    for a in range(n):
        if abs(e[a]) < 0.2:
            continue
        rest = [x for x in range(n) if x != a]
        for va in ramp:
            xa = lo[a] + edges[a] * va
            combos = TensorGrid.product([others] * (n - 1)).points
            for row in combos:
                base = np.empty(n)
                base[a] = xa
                for x, vv in zip(rest, row):
                    base[x] = lo[x] + edges[x] * vv
                # slide along the first free axis to hit each phase
                sl = rest[0]
                if abs(e[sl]) < 1e-9:
                    continue
                t0 = (base - center) @ e
                xs = base[sl] + (t_targets - t0) / e[sl]
                ok = (xs >= lo[sl]) & (xs <= lo[sl] + edges[sl])
                if not ok.any():
                    continue
                pts = np.tile(base, (int(ok.sum()), 1))
                pts[:, sl] = xs[ok]
                lines.append(pts)
    if lines:
        return np.vstack([X, Xs] + lines)
    return np.vstack([X, Xs])


def build_atom(A, Q, eps0, k, p, params=None):
    """Construct the cancel-compensate atom for frozen matrix A on cube Q.

    Returns a zero atom when C_k(A) vanishes (the rank is already down)
    and otherwise oscillates along the eigenvector whose eigenvalue has
    the (n-k+1)-th smallest magnitude: cancelling that factor drives
    every surviving k-fold product through a small singular value. The
    amplitude is capped at min(||A||, C_k(A)^(1/k)) and shaved by the
    measured Hessian shape sup, so the built atom meets its own bounds
    rather than idealized ones.
    """
    A = np.asarray(A, dtype=float)
    params = params or AtomParams()
    n = Q.n
    if A.shape != (n, n):
        raise ValueError(f"matrix shape {A.shape} does not match cube dimension {n}")
    if not eps0 > 0:
        raise ValueError("eps0 must be positive")
    if not 1.0 <= p < k <= n:
        raise ValueError(f"need 1 <= p < k <= n, got p={p}, k={k}, n={n}")
    A = 0.5 * (A + A.T)
    base_ck = float(ck(A, k))
    base_op = float(op_norm(A))
    if base_ck <= 1e-14 * max(1.0, base_op) ** k:
        return zero_atom(Q, eps0)

    spec = sym_eigen(A)
    values = spec.values
    order = np.argsort(np.abs(values), kind="stable")
    idx = int(order[n - k])
    lam = float(values[idx])
    e = spec.frame[:, idx].copy()
    aligned = _canonical_axis(e)
    amp_cap = min(base_op, base_ck ** (1.0 / k))
    a0 = min(abs(lam), amp_cap)

    edges = np.array(Q.edges)
    span = edges[aligned] if aligned is not None else float(np.abs(e) @ edges)
    if params.periods is not None:
        periods = int(params.periods)
        if periods < 1:
            raise ValueError("periods must be positive")
    else:
        need = span * a0 / (2.5 * eps0)
        periods = _pow2_at_least(max(_MIN_PERIODS, need, 4))
        periods = min(periods, params.max_periods)
    collar = params.collar_periods
    if collar is None:
        collar = 2.5 if aligned is not None else 5.0
    gamma_c = min(0.2, collar / periods)

    atom = PerturbationAtom(
        cube=Q,
        frame=spec.frame,
        axis_index=idx,
        eigenvalue=lam,
        amplitude=math.copysign(a0, lam),
        periods=periods,
        gamma_s=params.gamma_s,
        gamma_c=gamma_c,
        collar_periods=collar,
        eps0=float(eps0),
        amp_cap=amp_cap,
        shave=1.0,
        aligned_axis=aligned,
    )
    if params.shave is not None:
        shave = float(params.shave)
    else:
        probe = replace(atom, amplitude=1.0)
        X = _probe_grid(probe)
        _, _, H = probe.value_grad_hess(X)
        shape_sup = float(op_norm(H).max())
        shave = min(1.0, (1.0 - 1e-6) * amp_cap / (a0 * shape_sup))
    return replace(atom, amplitude=math.copysign(a0 * shave, lam), shave=shave)


# ------------------------------------------------- certification


@dataclass(frozen=True)
class AtomCertificate:
    """Measured properties of one atom against its frozen matrix.

    Pass flags compare measured value plus error estimate against the
    bound. tau_meas is the perturbed power integral over
    volume * C_k(A)^(p/k), with the convention tau_meas = 1 when C_k(A)
    is negligible (nothing left to contract; pass_contraction then holds
    vacuously). resolution counts distinct quadrature stations per axis
    at the final refinement level. Serializes to one CSV row in
    CERTIFICATE_COLUMNS order.
    """

    dim: int
    k: int
    p: float
    eps0: float
    tau_bound: float
    periods: int
    axis_index: int
    eigenvalue: float
    amplitude: float
    shave: float
    gamma_s: float
    gamma_c: float
    amp_cap: float
    zero_atom: bool
    base_ck: float
    base_opnorm: float
    sup_value: float
    sup_gradient: float
    sup_c1: float
    sup_hessian: float
    compat_ratio: float
    boundary_max: float
    mass_base: float
    mass_meas: float
    mass_err: float
    power_base: float
    power_meas: float
    power_err: float
    tau_meas: float
    tau_err: float
    drift_mean: float
    drift_err: float
    resolution: tuple
    samples: int
    pass_support: bool
    pass_c1: bool
    pass_hessian_cap: bool
    pass_compat: bool
    pass_contraction: bool
    pass_drift: bool

    @property
    def passed(self):
        return (
            self.pass_support
            and self.pass_c1
            and self.pass_hessian_cap
            and self.pass_compat
            and self.pass_contraction
            and self.pass_drift
        )

    @property
    def min_axis_nodes(self):
        return min(self.resolution) if self.resolution else 0

    def csv_row(self):
        out = []
        for name in CERTIFICATE_COLUMNS:
            v = getattr(self, name)
            if isinstance(v, (bool, np.bool_)):
                out.append("1" if v else "0")
            elif isinstance(v, (int, np.integer)):
                out.append(str(int(v)))
            else:
                out.append("%.17g" % float(v))
        return out


# the CSV and CLI column order: the certificate's fields, with resolution
# reported as its smallest entry
CERTIFICATE_COLUMNS = tuple(
    "min_axis_nodes" if f.name == "resolution" else f.name
    for f in dataclass_fields(AtomCertificate)
)


def _split_edges(edges, factor):
    if factor == 1:
        return edges
    steps = np.arange(factor) / factor
    inner = edges[:-1, None] + np.diff(edges)[:, None] * steps[None, :]
    return np.append(inner.ravel(), edges[-1])


def _panel_nodes(edges, points):
    x, w = _gauss01(points)
    lengths = np.diff(edges)
    nodes = (edges[:-1, None] + lengths[:, None] * x[None, :]).ravel()
    weights = (lengths[:, None] * w[None, :]).ravel()
    return nodes, weights


def _train_edges(atom, level):
    """Panel edges along the oscillation axis, aligned to profile pieces."""
    edges = np.array(atom.cube.edges)
    E = edges[atom.aligned_axis]
    T = atom.train_extent
    delta = T / atom.periods
    b = profile_breakpoints(atom.gamma_s)
    inner = (
        -T / 2.0 + delta * (np.arange(atom.periods)[:, None] + b[None, :-1])
    ).ravel()
    base = np.concatenate([[-E / 2.0], inner, [T / 2.0, E / 2.0]])
    return _split_edges(base, 2 ** level)


def _collar_nodes(gamma_c, ramp_panels, zero_panels, level, points):
    """Quadrature stations over both cutoff collars of one axis, unit coords."""
    gc = gamma_c
    left = np.concatenate(
        [
            np.linspace(0.0, gc / 2.0, zero_panels + 1),
            np.linspace(gc / 2.0, gc, ramp_panels + 1)[1:],
        ]
    )
    left = _split_edges(left, 2 ** level)
    ln, lw = _panel_nodes(left, points)
    right = 1.0 - left[::-1]
    rn, rw = _panel_nodes(right, points)
    return np.concatenate([ln, rn]), np.concatenate([lw, rw])


def _region_sum(atom, axes, scale, integrand, chunk):
    """Weighted sums of integrand's two rows over one tensor-product region.

    axes lists (coordinate, nodes, weights) for every coordinate, the
    first slowest. Each block of whole first-axis rows, at most chunk
    points, takes its Hessian from atom._hessian in that point order; a
    rotated atom also gets the block's point array, since its projections
    depend in the last bit on the array they are taken on.
    """
    n = len(axes)
    rest = int(np.prod([len(a[1]) for a in axes[1:]]))
    block = max(1, chunk // rest)
    first_axis, first_nodes, first_w = axes[0]
    rest_pts = TensorGrid.product([a[1] for a in axes[1:]]).points
    rest_w = np.ones(rest)
    for wg in np.meshgrid(*[a[2] for a in axes[1:]], indexing="ij"):
        rest_w = rest_w * wg.ravel()
    acc_mass = 0.0
    acc_pow = 0.0
    for s in range(0, len(first_nodes), block):
        nb = first_nodes[s : s + block]
        wb = first_w[s : s + block]
        X = None
        if atom.aligned_axis is None:
            X = np.empty((len(nb), rest, n))
            X[:, :, first_axis] = nb[:, None]
            for j, (ax, _, _) in enumerate(axes[1:]):
                X[:, :, ax] = rest_pts[None, :, j]
            X = X.reshape(-1, n)
        H = atom._hessian([(first_axis, nb)] + [a[:2] for a in axes[1:]], X)
        W = (wb[:, None] * rest_w[None, :]).ravel() * scale
        mass_v, pow_v = integrand(H)
        acc_mass += float(W @ mass_v)
        acc_pow += float(W @ pow_v)
    return acc_mass, acc_pow


def _aligned_totals(atom, integrand, level, points, chunk):
    """Exact domain decomposition for axis-aligned atoms.

    Away from every cutoff collar the integrand does not depend on the
    collar coordinates (the cutoff is identically one there), so the
    cube splits into regions indexed by the subset of collar axes that
    sit inside their collars; each region integrates over the
    oscillation axis and those collar coordinates only, interior axes
    contributing their lengths as a constant factor.
    """
    n = atom.cube.n
    lo = np.array(atom.cube.lo)
    edges = np.array(atom.cube.edges)
    center = lo + edges / 2.0
    a0 = atom.aligned_axis
    gc = atom.gamma_c
    t_nodes, t_weights = _panel_nodes(_train_edges(atom, level), points)
    x_e = center[a0] + t_nodes
    collar = [a for a in range(n) if a != a0]
    interior_len = {a: (1.0 - 2.0 * gc) * edges[a] for a in collar}
    mass = 0.0
    power = 0.0
    axis_nodes = {a0: len(x_e)}
    for r in range(0, len(collar) + 1):
        for S in combinations(collar, r):
            ramp = 12 if r <= 1 else 3
            zero = 4 if r <= 1 else 1
            scale = 1.0
            for a in collar:
                if a not in S:
                    scale *= interior_len[a]
            axes = [(a0, x_e, t_weights)]
            for a in S:
                vn, vw = _collar_nodes(gc, ramp, zero, level, points)
                axes.append((a, lo[a] + edges[a] * vn, edges[a] * vw))
                axis_nodes[a] = max(axis_nodes.get(a, 0), len(vn))
            # interior axes: one node at the centre, of weight one
            axes += [(a, center[a:a + 1], np.ones(1))
                     for a in collar if a not in S]
            m, pw = _region_sum(atom, axes, scale, integrand, chunk)
            mass += m
            power += pw
    resolution = tuple(axis_nodes[a] for a in range(n))
    return mass, power, resolution


def _tensor_totals(atom, integrand, level, points, chunk):
    n = atom.cube.n
    lo = np.array(atom.cube.lo)
    edges = np.array(atom.cube.edges)
    e = atom.direction
    T = atom.train_extent
    panels = [
        max(32, int(math.ceil(7.0 * atom.periods * abs(e[a]) * edges[a] / T)) + 1)
        for a in range(n)
    ]
    # keep the refined grid under a fixed evaluation budget
    while np.prod([m * 2 ** level * points for m in panels]) > 8e7:
        worst = int(np.argmax(panels))
        if panels[worst] <= 32:
            break
        panels[worst] = max(32, panels[worst] // 2)
    axes = []
    resolution = []
    for a in range(n):
        base = np.linspace(lo[a], lo[a] + edges[a], panels[a] + 1)
        nodes, weights = _panel_nodes(_split_edges(base, 2 ** level), points)
        axes.append((a, nodes, weights))
        resolution.append(len(nodes))
    m, pw = _region_sum(atom, axes, 1.0, integrand, chunk)
    return m, pw, tuple(resolution)


# Gauss points per panel axis, and integrand points per evaluation block,
# of the certificate integrals. Each block adds one partial dot product
# to a region's sums, so another block size moves the trailing digits of
# the integrals and of tau_err.
_QUAD_POINTS = 4
_QUAD_CHUNK = 1 << 19


def _atom_integrals(atom, A, k, p):
    """Mass and power integrals of C_k(A + D^2 g), from the Hessian alone:
    level-1 values, their differences from level 0 as errors, and the
    level-1 resolution."""
    expo = p / k

    def integrand(hess):
        vals = ck(A[None, :, :] + hess, k)
        return vals, vals ** expo

    totals = []
    resolution = None
    runner = _aligned_totals if atom.aligned_axis is not None else _tensor_totals
    for level in (0, 1):
        m, pw, res = runner(atom, integrand, level, _QUAD_POINTS, _QUAD_CHUNK)
        totals.append((m, pw))
        resolution = res
    mass, power = totals[1]
    mass_err = abs(totals[1][0] - totals[0][0])
    power_err = abs(totals[1][1] - totals[0][1])
    return mass, mass_err, power, power_err, resolution


# seeded uniform points behind certify_atom's sampled sups, next to the
# deterministic probe grid
_CERT_SAMPLES = 10_000
_CERT_SEED = 0


def certify_atom(atom, A, k, p, tau_bound=1.0):
    """Measure an atom's properties against its frozen matrix.

    Sampled sups (value, gradient, Hessian operator norm, boundary band)
    come from a seeded uniform sample plus the deterministic probe grid
    at the profile and cutoff extremes; the mass and power integrals use
    breakpoint-aligned panels with one doubling pass for the error
    estimate. The drift flag takes the measured-tolerance reading:
    |mean C_k drift| <= eps0 + quadrature error.
    """
    A = np.asarray(A, dtype=float)
    A = 0.5 * (A + A.T)
    cube = atom.cube
    n = cube.n
    if A.shape != (n, n):
        raise ValueError("matrix dimension does not match the atom's cube")
    if not 1.0 <= p < k <= n:
        raise ValueError(f"need 1 <= p < k <= n, got p={p}, k={k}, n={n}")
    base_ck = float(ck(A, k))
    base_op = float(op_norm(A))
    negligible = base_ck <= 1e-14 * max(1.0, base_op) ** k
    vol = cube.volume
    lo = np.array(cube.lo)
    edges = np.array(cube.edges)

    rng = np.random.default_rng(_CERT_SEED)
    X = lo + rng.random((_CERT_SAMPLES, n)) * edges
    if not atom.is_zero:
        X = np.vstack([X, _probe_grid(atom)])
    g, grad, hess = atom.value_grad_hess(X)
    gnorm = np.linalg.norm(grad, axis=1)
    sup_value = float(np.abs(g).max())
    sup_gradient = float(gnorm.max())
    sup_c1 = float((np.abs(g) + gnorm).max())
    sup_hessian = float(op_norm(hess).max()) if not atom.is_zero else 0.0
    Xl = (X - lo) / edges
    band = np.minimum(Xl, 1.0 - Xl).min(axis=1) <= atom.gamma_c / 2.0
    if band.any():
        boundary_max = float(max(np.abs(g[band]).max(), gnorm[band].max()))
    else:
        boundary_max = 0.0

    if atom.is_zero:
        mass = base_ck * vol
        mass_err = 0.0
        power = base_ck ** (p / k) * vol
        power_err = 0.0
        resolution = (0,) * n
    else:
        mass, mass_err, power, power_err, resolution = _atom_integrals(
            atom, A, k, p
        )

    power_base = base_ck ** (p / k) * vol
    mass_base = base_ck * vol
    if power_base > 0 and not negligible:
        tau_meas = power / power_base
        tau_err = power_err / power_base
    else:
        tau_meas = 1.0
        tau_err = 0.0
    drift_mean = abs(mass - mass_base) / vol
    drift_err = mass_err / vol

    rel = 1.0 + 1e-12
    pass_support = boundary_max < 1e-12
    pass_c1 = sup_c1 <= atom.eps0 or atom.is_zero
    pass_hessian_cap = sup_hessian <= base_op * rel
    pass_compat = sup_hessian ** k <= base_ck * rel or (negligible and atom.is_zero)
    if negligible:
        pass_contraction = True
    else:
        pass_contraction = tau_meas + tau_err < tau_bound
    pass_drift = drift_mean <= atom.eps0 + drift_err or (
        atom.is_zero and drift_mean == 0.0
    )

    return AtomCertificate(
        dim=n,
        k=k,
        p=float(p),
        eps0=atom.eps0,
        tau_bound=float(tau_bound),
        periods=atom.periods,
        axis_index=atom.axis_index,
        eigenvalue=atom.eigenvalue,
        amplitude=atom.amplitude,
        shave=atom.shave,
        gamma_s=atom.gamma_s,
        gamma_c=atom.gamma_c,
        amp_cap=atom.amp_cap,
        zero_atom=atom.is_zero,
        base_ck=base_ck,
        base_opnorm=base_op,
        sup_value=sup_value,
        sup_gradient=sup_gradient,
        sup_c1=sup_c1,
        sup_hessian=sup_hessian,
        compat_ratio=(sup_hessian ** k / base_ck) if base_ck > 0 else 0.0,
        boundary_max=boundary_max,
        mass_base=mass_base,
        mass_meas=mass,
        mass_err=mass_err,
        power_base=power_base,
        power_meas=power,
        power_err=power_err,
        tau_meas=tau_meas,
        tau_err=tau_err,
        drift_mean=drift_mean,
        drift_err=drift_err,
        resolution=resolution,
        samples=int(X.shape[0]),
        pass_support=pass_support,
        pass_c1=pass_c1,
        pass_hessian_cap=pass_hessian_cap,
        pass_compat=pass_compat,
        pass_contraction=pass_contraction,
        pass_drift=pass_drift,
    )


# ------------------------------------------------------------ tuning


def predicted_contraction(k, p):
    """Idealized contraction for equal cancel/compensate plateau measure;
    attained when the cancelled eigenvalue's products carry all of C_k."""
    return 2.0 ** (p / k - 1.0)


def certification_bound(k, p):
    """Published contraction target for the fixed certification suite."""
    return min(predicted_contraction(k, p) + 0.15, 0.97)


@dataclass(frozen=True)
class TuneOutcome:
    atom: PerturbationAtom
    certificate: AtomCertificate
    history: tuple
    tau_monotone: bool


def _history_monotone(history):
    for (na, ta, ea), (nb, tb, eb) in zip(history, history[1:]):
        if nb > na and tb > ta + ea + eb:
            return False
    return True


# relative headroom a tuning target needs over the predicted contraction
_TARGET_SLACK = 0.005


def tune_atom(
    A,
    Q,
    eps0,
    k,
    p,
    tau_target,
    budget=8,
    params=None,
):
    """Search atom parameters until the certificate passes tau_target.

    Coordinate search: a Hessian-cap excess tightens the amplitude
    shave; a contraction failure with a binding shave widens the collar
    (more cutoff periods, thinning the cross terms that force the
    shave); otherwise period doubling shrinks the boundary overhead and
    the C^1 sup together. The smoothing width halves as a last resort.
    Raises AtomTuningError carrying the best certificate when the budget
    runs out.
    """
    params = params or AtomParams()
    tau_pred = predicted_contraction(k, p)
    if not tau_pred * (1.0 + _TARGET_SLACK) < tau_target < 1.0:
        raise ValueError(
            f"tau_target must lie in ({tau_pred * (1 + _TARGET_SLACK):.4f}, 1), "
            f"got {tau_target}"
        )
    atom = build_atom(A, Q, eps0, k, p, params)
    history = []
    best = None
    current = params
    for _ in range(budget):
        cert = certify_atom(atom, A, k, p, tau_bound=tau_target)
        history.append((atom.periods, cert.tau_meas, cert.tau_err))
        if best is None or cert.tau_meas < best[1].tau_meas:
            best = (atom, cert)
        if cert.passed:
            return TuneOutcome(atom, cert, tuple(history), _history_monotone(history))
        if atom.is_zero:
            break
        if not (cert.pass_hessian_cap and cert.pass_compat):
            tighter = atom.shave * (1.0 - 1e-9)
            if cert.sup_hessian > 0:
                tighter = min(
                    tighter,
                    atom.shave * atom.amp_cap / cert.sup_hessian * (1.0 - 1e-9),
                )
            current = replace(current, periods=atom.periods, shave=tighter)
        elif (
            not cert.pass_contraction
            and atom.shave < 0.99
            and atom.collar_periods < 40.0
        ):
            wider = atom.collar_periods * 2.0
            per = max(atom.periods, _pow2_at_least(wider / 0.032))
            per = min(per, current.max_periods)
            current = replace(current, collar_periods=wider, periods=per, shave=None)
        elif atom.periods * 2 <= current.max_periods:
            current = replace(current, periods=atom.periods * 2, shave=None)
        elif current.gamma_s > 0.002:
            current = replace(current, gamma_s=current.gamma_s / 2.0, shave=None)
        else:
            break
        atom = build_atom(A, Q, eps0, k, p, current)
    raise AtomTuningError(best[0], best[1], history)


# ------------------------------------------------------ vector atoms


@dataclass(frozen=True)
class VectorAtom:
    """Gradient-map perturbation h = O grad g for the polar factor O.

    For a frozen matrix B = O A (right polar form, A symmetric), the
    perturbed map x -> B x + h(x) has Jacobian O (A + grad^2 g), whose
    singular values match those of A + grad^2 g, so every scalar-atom
    certificate transfers verbatim to the map's C_k.
    """

    rotation: np.ndarray
    base_symmetric: np.ndarray
    atom: PerturbationAtom

    @property
    def is_zero(self):
        return self.atom.is_zero

    @property
    def scalar(self):
        """The scalar atom whose gradient map this is."""
        return self.atom

    def displacement_jacobian(self, X, lo=None):
        """Displacement (P, n) and Jacobian (P, n, n) at X; lo as in
        PerturbationAtom.value_grad_hess."""
        _, grad, hess = self.atom.value_grad_hess(X, lo)
        return grad @ self.rotation.T, self.rotation @ hess

    def matrix_on(self, grid):
        """The Jacobian O D^2 g at grid.points, from the atom's matrix_on."""
        return self.rotation @ self.atom.matrix_on(grid)


def build_vector_atom(B, Q, eps0, k, p, params=None):
    """Atom for a (possibly nonsymmetric) frozen gradient matrix B."""
    B = np.asarray(B, dtype=float)
    O, A = polar_decompose(B)
    atom = build_atom(A, Q, eps0, k, p, params)
    return VectorAtom(rotation=O, base_symmetric=A, atom=atom)


# -------------------------------------------------- published suite


@dataclass(frozen=True)
class CertificationCase:
    name: str
    matrix: tuple
    k: int
    p: float
    eps0: float = 0.1

    def as_array(self):
        return np.array(self.matrix, dtype=float)

    @property
    def tau_bound(self):
        return certification_bound(self.k, self.p)


# Fixed published test set. The bound 2^(p/k-1) + 0.15 leaves headroom
# for boundary collars, ramps and, when k < n, the concavity penalty of
# the k-fold products that avoid the cancelled eigenvalue; rows with
# k < n keep the smallest singular value at or below 0.05 so that
# penalty stays a few percent even at p = 1.
CERTIFICATION_SUITE = (
    CertificationCase("unit2-k2-p1", ((1.0, 0.0), (0.0, 1.0)), 2, 1.0),
    CertificationCase("unit2-k2-p15", ((1.0, 0.0), (0.0, 1.0)), 2, 1.5),
    CertificationCase("diag12-k2-p1", ((1.0, 0.0), (0.0, 2.0)), 2, 1.0),
    CertificationCase("diag12-k2-p15", ((1.0, 0.0), (0.0, 2.0)), 2, 1.5),
    CertificationCase("spread2-k2-p1", ((0.5, 0.0), (0.0, 1.5)), 2, 1.0),
    CertificationCase("spread2-k2-p15", ((1.5, 0.0), (0.0, 0.75)), 2, 1.5),
    CertificationCase("rot2-k2-p15", ((2.0, 1.0), (1.0, 2.0)), 2, 1.5),
    CertificationCase("tilt2-k2-p1", ((1.2, -0.4), (-0.4, 0.8)), 2, 1.0),
    CertificationCase("indef2-k2-p15", ((-1.0, 0.0), (0.0, 1.5)), 2, 1.5),
    CertificationCase("scaled2-k2-p1", ((3.0, 0.0), (0.0, 3.0)), 2, 1.0),
    CertificationCase(
        "unit3-k3-p1", ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), 3, 1.0
    ),
    CertificationCase(
        "unit3-k3-p25", ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), 3, 2.5
    ),
    CertificationCase(
        "diag3-k3-p15", ((0.5, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 2.0)), 3, 1.5
    ),
    CertificationCase(
        "diag3-k3-p25", ((0.5, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 2.0)), 3, 2.5
    ),
    CertificationCase(
        "stretch3-k3-p1", ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 4.0)), 3, 1.0
    ),
    CertificationCase(
        "indef3-k3-p15", ((-0.5, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 2.0)), 3, 1.5
    ),
    CertificationCase(
        "thin3-k2-p1", ((0.02, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.5)), 2, 1.0
    ),
    CertificationCase(
        "thin3-k2-p15", ((0.02, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.5)), 2, 1.5
    ),
    CertificationCase(
        "thin3b-k2-p15", ((0.05, 0.0, 0.0), (0.0, 0.8, 0.0), (0.0, 0.0, 2.0)), 2, 1.5
    ),
    CertificationCase(
        "thin3c-k2-p1", ((0.01, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), 2, 1.0
    ),
)
