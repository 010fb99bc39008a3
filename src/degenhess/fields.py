"""Twice-differentiable fields, cube partitions, and partition quadrature.

Fields are closed-form composites (base families plus perturbation layers),
never grid interpolants: the staircase needs exact Hessians at cube centers
and interpolation error would corrupt the oscillation-threshold logic. All
evaluation is batched through one method, jet_many(X): X has shape (P, n)
and every base and layer returns its kind's parts with the matrix last,
value (P,), gradient (P, n) and Hessian (P, n, n) for scalar fields, the
Hessian symmetric by construction, or displacement (P, n) and Jacobian
(P, n, n) for first-order maps.

integrate_on_partition is the package's one partition quadrature engine:
the stage certificates, the measures and the base seminorm all integrate
through it, each supplying its own integrand and panel edges per cell.
"""

import math
from dataclasses import dataclass, fields as dataclass_fields, is_dataclass
from functools import lru_cache

import numpy as np


class DomainError(ValueError):
    """A point fell outside the field's domain box."""


class PartitionCapError(RuntimeError):
    """The required partition would exceed the per-axis cap.

    Carries .needed (the m the constraints demand) and .cap.
    """

    def __init__(self, needed, cap):
        super().__init__(
            f"partition needs {needed} cells per axis, cap is {cap}"
        )
        self.needed = needed
        self.cap = cap


class QuadratureError(RuntimeError):
    """Non-finite integrand sample, with the offending location."""


# ------------------------------------------------------------------ box


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by per-axis bounds."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("box needs matching nonempty lo/hi")
        if any(h <= l for l, h in zip(lo, hi)):
            raise ValueError(f"box has empty axis: lo={lo}, hi={hi}")

    @classmethod
    def unit(cls, n):
        return cls((0.0,) * n, (1.0,) * n)

    @property
    def n(self):
        return len(self.lo)

    @property
    def edges(self):
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def volume(self):
        return float(math.prod(self.edges))

    def contains(self, X):
        """True where a point lies in the box, up to 1e-9 per axis."""
        X = np.asarray(X, dtype=float)
        lo = np.array(self.lo) - 1e-9
        hi = np.array(self.hi) + 1e-9
        return ((X >= lo) & (X <= hi)).all(axis=-1)


# -------------------------------------------------------- base families


def _check_points(X, n):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"points must have shape (P, {n}), got {X.shape}")
    return X


def _domain_points(box, X, check_domain):
    """X as (P, n) points; DomainError for one outside box if checked."""
    X = _check_points(X, box.n)
    if check_domain and not bool(box.contains(X).all()):
        bad = X[~box.contains(X)][0]
        raise DomainError(f"point {bad.tolist()} outside box {box}")
    return X


class AffineBase:
    """a . x + c, Hessian identically zero.

    Bases whose Hessian is constant by construction expose it as
    constant_matrix, so cell-local evaluators can broadcast it.
    """

    def __init__(self, linear, constant=0.0):
        self.linear = np.asarray(linear, dtype=float).reshape(-1)
        self.constant = float(constant)
        self.n = self.linear.size
        self.constant_matrix = np.zeros((self.n, self.n))

    def jet_many(self, X):
        X = _check_points(X, self.n)
        P = X.shape[0]
        val = X @ self.linear + self.constant
        grad = np.broadcast_to(self.linear, (P, self.n)).copy()
        hess = np.zeros((P, self.n, self.n))
        return val, grad, hess


class QuadraticBase:
    """x.T S x / 2 + b . x + c with S symmetric."""

    def __init__(self, matrix, linear=None, constant=0.0):
        S = np.asarray(matrix, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("quadratic matrix must be square")
        if np.abs(S - S.T).max() > 1e-12 * (1.0 + np.abs(S).max()):
            raise ValueError("quadratic matrix must be symmetric")
        self.S = 0.5 * (S + S.T)
        self.constant_matrix = self.S
        self.n = S.shape[0]
        self.b = (
            np.zeros(self.n)
            if linear is None
            else np.asarray(linear, dtype=float).reshape(self.n)
        )
        self.c = float(constant)

    def jet_many(self, X):
        X = _check_points(X, self.n)
        P = X.shape[0]
        SX = X @ self.S
        val = 0.5 * (X * SX).sum(axis=1) + X @ self.b + self.c
        grad = SX + self.b
        hess = np.broadcast_to(self.S, (P, self.n, self.n)).copy()
        return val, grad, hess


class PolynomialBase:
    """Sum of monomial terms coeff * prod x_a^(e_a)."""

    def __init__(self, terms, n):
        self.n = int(n)
        cleaned = []
        for exps, coeff in terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            cleaned.append((exps, float(coeff)))
        if not cleaned:
            raise ValueError("polynomial needs at least one term")
        self.terms = tuple(cleaned)

    def jet_many(self, X):
        X = _check_points(X, self.n)
        P, n = X.shape
        val = np.zeros(P)
        grad = np.zeros((P, n))
        hess = np.zeros((P, n, n))
        for exps, coeff in self.terms:
            cols = [X[:, a] ** exps[a] for a in range(n)]
            val += coeff * math.prod(cols[1:], start=cols[0])
            for a in range(n):
                if exps[a] == 0:
                    continue
                parts = list(cols)
                parts[a] = X[:, a] ** (exps[a] - 1)
                grad[:, a] += coeff * exps[a] * math.prod(parts[1:], start=parts[0])
                for b in range(n):
                    if a == b:
                        if exps[a] < 2:
                            continue
                        parts2 = list(cols)
                        parts2[a] = X[:, a] ** (exps[a] - 2)
                        hess[:, a, a] += (
                            coeff * exps[a] * (exps[a] - 1)
                            * math.prod(parts2[1:], start=parts2[0])
                        )
                    elif exps[b] > 0:
                        parts2 = list(cols)
                        parts2[a] = X[:, a] ** (exps[a] - 1)
                        parts2[b] = X[:, b] ** (exps[b] - 1)
                        # integer product first keeps the (a,b)/(b,a)
                        # entries bitwise equal
                        hess[:, a, b] += (
                            coeff * (exps[a] * exps[b])
                            * math.prod(parts2[1:], start=parts2[0])
                        )
        return val, grad, hess


class TrigBase:
    """Sum of amp_i * sin(w_i . x + phase_i) with angular frequency rows."""

    def __init__(self, freqs, amps, phases=None):
        self.W = np.asarray(freqs, dtype=float)
        if self.W.ndim != 2:
            raise ValueError("freqs must be a list of frequency vectors")
        self.n = self.W.shape[1]
        self.amps = np.asarray(amps, dtype=float).reshape(self.W.shape[0])
        if phases is None:
            phases = np.zeros(self.W.shape[0])
        self.phases = np.asarray(phases, dtype=float).reshape(self.W.shape[0])

    def jet_many(self, X):
        X = _check_points(X, self.n)
        arg = X @ self.W.T + self.phases
        s = np.sin(arg) * self.amps
        c = np.cos(arg) * self.amps
        val = s.sum(axis=1)
        grad = c @ self.W
        hess = -np.einsum("pt,ti,tj->pij", s, self.W, self.W)
        return val, grad, hess


class BumpBase:
    """Radial Gaussian height * exp(-|x - center|^2 / (2 width^2))."""

    def __init__(self, center, width, height=1.0):
        self.center = np.asarray(center, dtype=float).reshape(-1)
        self.n = self.center.size
        self.width = float(width)
        if self.width <= 0:
            raise ValueError("width must be positive")
        self.height = float(height)

    def jet_many(self, X):
        X = _check_points(X, self.n)
        d = X - self.center
        w2 = self.width**2
        val = self.height * np.exp(-(d * d).sum(axis=1) / (2.0 * w2))
        grad = -val[:, None] * d / w2
        hess = val[:, None, None] * (
            np.einsum("pi,pj->pij", d, d) / w2**2 - np.eye(self.n) / w2
        )
        return val, grad, hess


_FAMILIES = {}


def _family(name):
    def deco(fn):
        _FAMILIES[name] = fn
        return fn

    return deco


@_family("affine")
def _make_affine(params, n):
    linear = params.get("linear")
    if linear is None:
        raise ValueError("affine base needs 'linear'")
    base = AffineBase(linear, params.get("constant", 0.0))
    if base.n != n:
        raise ValueError(f"affine 'linear' has length {base.n}, expected {n}")
    return base


@_family("quadratic")
def _make_quadratic(params, n):
    matrix = params.get("matrix")
    if matrix is None:
        raise ValueError("quadratic base needs 'matrix'")
    M = np.asarray(matrix, dtype=float)
    if M.size == n * n:
        M = M.reshape(n, n)
    base = QuadraticBase(M, params.get("linear"), params.get("constant", 0.0))
    if base.n != n:
        raise ValueError(f"quadratic matrix is {base.n}x{base.n}, expected {n}")
    return base


@_family("polynomial")
def _make_polynomial(params, n):
    terms = params.get("terms")
    if terms is None:
        raise ValueError("polynomial base needs 'terms'")
    rows = []
    for term in terms:
        # flat row: n exponents followed by the coefficient
        term = list(term)
        if len(term) != n + 1:
            raise ValueError(
                f"polynomial term needs {n} exponents plus a coefficient"
            )
        rows.append((term[:-1], term[-1]))
    return PolynomialBase(rows, n)


@_family("trig")
def _make_trig(params, n):
    freqs = params.get("freqs")
    amps = params.get("amps")
    if freqs is None or amps is None:
        raise ValueError("trig base needs 'freqs' and 'amps'")
    base = TrigBase(freqs, amps, params.get("phases"))
    if base.n != n:
        raise ValueError(f"trig frequency vectors have length {base.n}, expected {n}")
    return base


@_family("bump")
def _make_bump(params, n):
    center = params.get("center")
    width = params.get("width")
    if center is None or width is None:
        raise ValueError("bump base needs 'center' and 'width'")
    base = BumpBase(center, width, params.get("height", 1.0))
    if base.n != n:
        raise ValueError(f"bump center has length {base.n}, expected {n}")
    return base


def make_base(family, params, n):
    """Build a base field by family name with a flat parameter mapping."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown base family '{family}' (known: {known})")
    return builder(dict(params), int(n))


# ----------------------------------------------------------- the field


def _atom_shape(atom):
    """An atom's geometry without its cube's position, as a hashable key.

    Every dataclass field but the cube, arrays by their bytes and a
    nested atom (a vector atom's scalar atom) by its own shape.
    """
    key = []
    for f in dataclass_fields(atom):
        if f.name == "cube":
            continue
        v = getattr(atom, f.name)
        if isinstance(v, np.ndarray):
            v = v.tobytes()
        elif is_dataclass(v):
            v = _atom_shape(v)
        key.append(v)
    return tuple(key)


class _CellAtomLayer:
    """One atom per partition cell, evaluated one atom shape at a time.

    Atom supports are the closed partition cells, so every point belongs
    to exactly one atom up to shared faces where all atoms vanish
    identically; a point takes the atom of the cell partition.locate
    gives it. Cells are grouped once, at construction, by atom shape
    (_atom_shape and the cube's edges), and _dispatch makes one kernel
    call per shape present, handing each point its cube's lower corner.
    The kernel works elementwise, so the result is bitwise that of
    evaluating each cell's atom on its own points, except where NumPy
    projects a lone point on a rotated atom's direction by a dot product
    and a batch by a matrix-vector product, which may round the last
    bit apart. Subclasses give jet_many for their kind of atom.
    """

    def __init__(self, partition, atoms):
        atoms = tuple(atoms)
        if len(atoms) != partition.num_cells:
            raise ValueError("need one atom per partition cell")
        self.partition = partition
        self.atoms = atoms
        # _shape_of[ci]: the first cell whose atom has cell ci's atom shape,
        # and whose atom evaluates the whole shape (-1 for a zero atom);
        # _lo[ci]: the corner of cell ci's atom's cube
        shapes = {}
        self._shape_of = np.full(len(atoms), -1)
        for ci, atom in enumerate(atoms):
            if not atom.is_zero:
                key = (_atom_shape(atom), atom.scalar.cube.edges)
                self._shape_of[ci] = shapes.setdefault(key, ci)
        self._lo = np.array([atom.scalar.cube.lo for atom in atoms])

    def _flat(self, X):
        idx = self.partition.locate(X)
        return np.ravel_multi_index(
            tuple(idx[:, a] for a in range(self.partition.n)),
            (self.partition.m,) * self.partition.n,
        )

    def _dispatch(self, X, shapes, evaluate):
        X = np.asarray(X, dtype=float)
        outs = tuple(np.zeros((X.shape[0],) + s) for s in shapes)
        flat = self._flat(X)
        shape_of = self._shape_of[flat]
        for si in np.unique(shape_of):
            if si < 0:
                continue
            m = shape_of == si
            parts = evaluate(self.atoms[si], X[m], self._lo[flat[m]])
            for out, part in zip(outs, parts):
                out[m] = part
        return outs


class _LayeredField:
    """base + ordered cell-atom layers on a domain box.

    The base and every layer evaluate through jet_many(X), returning the
    field kind's jet_parts parts with the matrix last. A layer is a
    _CellAtomLayer whose partition tiles the domain box.
    Immutable: with_layers returns a new field of the same kind, so a
    committed stage can never be mutated behind a certificate's back.
    """

    def __init__(self, base, box, layers=()):
        self.base = base
        self.box = box
        if base.n != box.n:
            raise ValueError("base and box disagree on dimension")
        layers = tuple(layers)
        for layer in layers:
            if not isinstance(layer, _CellAtomLayer):
                raise TypeError(
                    "a layer is one atom per partition cell, "
                    f"not a {type(layer).__name__}"
                )
            if layer.partition.box != box:
                raise ValueError("a layer's partition must tile the field's box")
        self.layers = layers

    @property
    def n(self):
        return self.box.n

    def with_layers(self, new_layers):
        return type(self)(self.base, self.box, self.layers + tuple(new_layers))

    def _jet(self, term, X):
        parts = term.jet_many(X)
        if len(parts) != self.jet_parts:
            raise TypeError(
                f"{type(term).__name__} gives {len(parts)} parts, "
                f"a {type(self).__name__} needs {self.jet_parts}"
            )
        return parts

    def evaluate_many(self, X, check_domain=True):
        """The base's parts at X plus each layer's, in layer order."""
        X = _domain_points(self.box, X, check_domain)
        parts = self._jet(self.base, X)
        for layer in self.layers:
            parts = tuple(a + b for a, b in zip(parts, self._jet(layer, X)))
        return parts


class ScalarFieldC2(_LayeredField):
    """base + ordered cell-atom layers on a domain box, scalar valued.

    The base and each layer's jet_many give value, gradient and Hessian.
    """

    jet_parts = 3
    # bound in this class body too, so that method tracers that look it
    # up in vars(ScalarFieldC2) find and wrap it (perfbench/tracer.py)
    evaluate_many = _LayeredField.evaluate_many

    def evaluate(self, x):
        val, grad, hess = self.evaluate_many(np.asarray(x, dtype=float)[None, :])
        return float(val[0]), grad[0], hess[0]


class FieldDifference:
    """f - g as an evaluator, for distance and modulus measurements.

    f and g are fields of one kind (scalar or first-order); evaluate_many
    returns the difference of each part they return.
    """

    def __init__(self, f, g):
        if f.n != g.n:
            raise ValueError("fields disagree on dimension")
        self.f = f
        self.g = g
        self.n = f.n
        self.box = f.box

    def evaluate_many(self, X, check_domain=True):
        f_parts = self.f.evaluate_many(X, check_domain=check_domain)
        g_parts = self.g.evaluate_many(X, check_domain=False)
        return tuple(a - b for a, b in zip(f_parts, g_parts))


# ------------------------------------------------------------ partition


@dataclass(frozen=True)
class Cell:
    index: tuple
    lo: tuple
    hi: tuple

    @property
    def center(self):
        return tuple(0.5 * (l + h) for l, h in zip(self.lo, self.hi))

    @property
    def box(self):
        return Box(self.lo, self.hi)


@dataclass(frozen=True)
class CubePartition:
    """m^n closed cells tiling the box, edge = box edge / m.

    Cells are indexed by z in {0, ..., m-1}^n and ordered row-major (last
    axis fastest); every array the package reports per cube follows that
    order.
    """

    box: Box
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")

    @property
    def n(self):
        return self.box.n

    @property
    def cell_edges(self):
        return tuple(e / self.m for e in self.box.edges)

    @property
    def cell_volume(self):
        return float(math.prod(self.cell_edges))

    @property
    def num_cells(self):
        return self.m**self.n

    def cell(self, z):
        z = tuple(int(i) for i in z)
        if len(z) != self.n or any(not 0 <= i < self.m for i in z):
            raise ValueError(f"bad cell index {z}")
        lo = tuple(
            l + i * e for l, i, e in zip(self.box.lo, z, self.cell_edges)
        )
        hi = tuple(
            l + (i + 1) * e for l, i, e in zip(self.box.lo, z, self.cell_edges)
        )
        return Cell(z, lo, hi)

    def cells(self):
        for z in np.ndindex(*(self.m,) * self.n):
            yield self.cell(z)

    def centers(self):
        """(m^n, n) cell centers in row-major cell order."""
        axes = [
            np.asarray(self.box.lo[a]) + (np.arange(self.m) + 0.5) * self.cell_edges[a]
            for a in range(self.n)
        ]
        return TensorGrid.product(axes).points

    def locate(self, X):
        """Cell indices (P, n) of points; boundary goes to the lower cell,
        except the box's top face, which belongs to the last cell."""
        X = _check_points(X, self.n)
        lo = np.array(self.box.lo)
        edges = np.array(self.cell_edges)
        idx = np.floor((X - lo) / edges).astype(np.int64)
        return np.clip(idx, 0, self.m - 1)


def refine_partition(m_prev, j, eps_j, beta_j, n, cap=None):
    """Smallest admissible stage-j cell count per axis.

    m_j must be a multiple of m_prev, at least 2^j, and satisfy
    sqrt(n)/m_j < min(eps_j/2, beta_j) strictly. If that exceeds cap the
    stage cannot run at this resolution and PartitionCapError is raised.
    """
    m_prev = int(m_prev)
    if m_prev < 1:
        raise ValueError("m_prev must be at least 1")
    if eps_j <= 0 or beta_j <= 0:
        raise ValueError("eps_j and beta_j must be positive")
    if j < 1:
        raise ValueError("stage index must be at least 1")
    target = min(eps_j / 2.0, beta_j)
    need = math.sqrt(n) / target
    m = max(int(math.floor(need)) + 1, 2**j, m_prev)
    m = m_prev * math.ceil(m / m_prev)
    while not math.sqrt(n) / m < target:
        m += m_prev
    if cap is not None and m > cap:
        raise PartitionCapError(m, cap)
    return m


# ----------------------------------------------------------- quadrature


@lru_cache(maxsize=8)
def _gauss01(points):
    x, w = np.polynomial.legendre.leggauss(points)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class QuadratureCounts:
    """Deterministic work counts of one partition quadrature pass.

    classes is the number of cells integrated (one per translation
    class), cells the number of cells whose values the pass produced,
    points the integrand points evaluated over both refinement levels,
    full_points the points had every cell been integrated on its own,
    and thinned the cells whose panels the node cap thinned.
    """

    classes: int = 0
    cells: int = 0
    points: int = 0
    full_points: int = 0
    thinned: int = 0


def _split_once(edges):
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(edges.size + mids.size)
    out[0::2] = edges
    out[1::2] = mids
    return out


def _thin_to_budget(axes_edges, points, cap):
    def count(es):
        total = 1
        for e in es:
            total *= (e.size - 1) * points
        return total

    es = [e.copy() for e in axes_edges]
    while count(es) > cap:
        a = int(np.argmax([e.size for e in es]))
        if es[a].size <= 3:
            break
        keep = es[a][::2]
        if keep[-1] != es[a][-1]:
            keep = np.append(keep, es[a][-1])
        es[a] = keep
    return es


@dataclass(frozen=True, eq=False)
class TensorGrid:
    """Points an integrand is evaluated at, (P, n).

    When the points are a tensor product, axes holds the per-axis node
    arrays and points lists their product in 'ij' order (last axis
    fastest), so an evaluator may work per axis and broadcast; axes is
    None for scattered points, which are evaluated point by point.
    """

    points: np.ndarray
    axes: tuple | None = None

    @classmethod
    def product(cls, axes):
        grids = np.meshgrid(*axes, indexing="ij")
        return cls(np.stack([g.ravel() for g in grids], axis=-1), tuple(axes))


def _tensor_multi(nodes, weights, fn, nout, chunk):
    n = len(nodes)
    sizes = [v.size for v in nodes]
    rest = 1
    for s in sizes[1:]:
        rest *= s
    per = max(1, chunk // max(rest, 1))
    out = np.zeros(nout)
    for i0 in range(0, sizes[0], per):
        sl = slice(i0, min(sizes[0], i0 + per))
        grid = TensorGrid.product([nodes[0][sl], *nodes[1:]])
        pts = grid.points
        wg = weights[0][sl].reshape((-1,) + (1,) * (n - 1))
        for a in range(1, n):
            shape = [1] * n
            shape[a] = sizes[a]
            wg = wg * weights[a].reshape(shape)
        vals = fn(grid)
        bad = ~np.isfinite(vals).reshape(-1, pts.shape[0]).all(axis=0)
        if bad.any():
            raise QuadratureError(
                f"non-finite integrand sample at {pts[bad][0].tolist()}"
            )
        out += vals @ wg.ravel()
    return out


def _cell_nodes(cell, edges_unit, points):
    gx, gw = _gauss01(points)
    nodes = []
    weights = []
    for a in range(len(cell.lo)):
        e = edges_unit[a]
        width = cell.hi[a] - cell.lo[a]
        starts = cell.lo[a] + e[:-1] * width
        spans = np.diff(e) * width
        nodes.append((starts[:, None] + spans[:, None] * gx[None, :]).ravel())
        weights.append((spans[:, None] * gw[None, :]).ravel())
    return nodes, weights


def _cell_quadrature(cell, edges, fn, nout, points, chunk, node_cap):
    """Integrals of fn over one cell at two refinement levels.

    edges are the cell's panel edges per axis in unit coordinates. They
    are thinned to the node cap; the second level halves every panel.
    Returns the finer values, their distance from the coarser ones as
    error estimates, the integrand points evaluated over both levels,
    and whether the node cap dropped panels.
    """
    n = len(cell.lo)
    # level doubling multiplies the node count by 2^n, budget both levels
    level_cost = 1 + 2**n
    base_edges = _thin_to_budget(edges, points, max(node_cap // level_cost, 4_000))
    thinned = any(e.size != f.size for e, f in zip(base_edges, edges))
    levels = []
    count = 0
    for lvl in range(2):
        es = base_edges if lvl == 0 else [_split_once(e) for e in base_edges]
        nodes, weights = _cell_nodes(cell, es, points)
        count += math.prod(v.size for v in nodes)
        levels.append(_tensor_multi(nodes, weights, fn, nout, chunk))
    v0, v1 = levels
    return v1, np.abs(v1 - v0), count, thinned


def integrate_on_partition(integrand, partition, nout, *, edges, points,
                           chunk, node_budget, classes=None):
    """Two-level tensor Gauss-Legendre quadrature on every cell.

    integrand(ci, cell) returns the cell's fn, mapping a TensorGrid of P
    points (a chunk of the cell's Gauss nodes, the first axis sliced) to
    (nout, P) values in the order of grid.points; edges(ci, cell) returns
    its panel edges per axis in unit coordinates, with points Gauss nodes
    per panel axis. The second level halves every panel and the levels'
    difference is the error bar. The node budget divides across cells,
    so very fine partitions get coarse per-cell quadrature with
    correspondingly wider error bars; chunk bounds the points per fn
    call. classes, one key per cell, lets the cells of a class share the
    quadrature of its first cell; a None key, or classes None,
    integrates the cell on its own. A non-finite fn value raises
    QuadratureError. Returns (values, errors, QuadratureCounts), values
    and errors of shape (cells, nout) in row-major cell order.
    """
    cells = list(partition.cells())
    node_cap = max(1_000, node_budget // max(len(cells), 1))
    vals = np.zeros((len(cells), nout))
    errs = np.zeros((len(cells), nout))
    done = {}
    counts = dict(classes=0, points=0, full_points=0, thinned=0)
    for ci, cell in enumerate(cells):
        key = None if classes is None else classes[ci]
        if key is not None and key in done:
            rep, count, thinned = done[key]
            vals[ci], errs[ci] = vals[rep], errs[rep]
        else:
            vals[ci], errs[ci], count, thinned = _cell_quadrature(
                cell, edges(ci, cell), integrand(ci, cell), nout, points,
                chunk, node_cap,
            )
            counts["classes"] += 1
            counts["points"] += count
            if key is not None:
                done[key] = (ci, count, thinned)
        counts["full_points"] += count
        counts["thinned"] += thinned
    return vals, errs, QuadratureCounts(cells=len(cells), **counts)


# -------------------------------------------------------------- modulus


@dataclass(frozen=True)
class ModulusTable:
    """Sampled alpha-quotient modulus: values[i] pairs with radii[i].

    A lower-bound estimator of the true supremum; method says so.
    """

    order: int
    alpha: float
    radii: tuple
    values: tuple
    pairs: int
    method: str = "sampled"


def _sample_pairs_in_box(box, r, count, rng):
    # distances stratified over dyadic sub-scales of r so short pairs are
    # represented, not just the r-scale ones
    n = box.n
    strata = 8
    per = max(1, count // strata)
    lo = np.array(box.lo)
    hi = np.array(box.hi)
    xs = []
    ys = []
    for s in range(strata):
        hi_d = r * 0.5**s
        lo_d = r * 0.5 ** (s + 1)
        got = 0
        guard = 0
        while got < per and guard < 60:
            guard += 1
            take = (per - got) * 2
            x = rng.uniform(lo, hi, (take, n))
            u = rng.standard_normal((take, n))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            d = rng.uniform(lo_d, hi_d, (take, 1))
            y = x + u * d
            ok = ((y >= lo) & (y <= hi)).all(axis=1)
            x, y = x[ok][: per - got], y[ok][: per - got]
            xs.append(x)
            ys.append(y)
            got += x.shape[0]
    return np.concatenate(xs), np.concatenate(ys)


def _grid_neighbor_pairs(box, per_axis=12):
    axes = [np.linspace(l, h, per_axis + 1) for l, h in zip(box.lo, box.hi)]
    pts = TensorGrid.product(axes).points
    n = box.n
    shape = (per_axis + 1,) * n
    xs = []
    ys = []
    flat = pts.reshape(shape + (n,))
    for a in range(n):
        take = [slice(None)] * n
        take[a] = slice(0, per_axis)
        shift = [slice(None)] * n
        shift[a] = slice(1, per_axis + 1)
        xs.append(flat[tuple(take)].reshape(-1, n))
        ys.append(flat[tuple(shift)].reshape(-1, n))
    return np.concatenate(xs), np.concatenate(ys)


def modulus_of_continuity(
    field, order, alpha, radii, pairs_per_radius=10_000, seed=0
):
    """Sampled sup of |D^order f(y) - D^order f(x)| / |y - x|^alpha.

    Pairs for every radius are pooled, so each table entry is the maximum
    over all sampled pairs closer than its radius and the table is
    monotone nondecreasing by construction. Vector values (order 0 of a
    first-order map) are measured in the Euclidean norm. seed is an int
    or a numpy Generator, from which the pairs are drawn.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    radii = [float(r) for r in radii]
    if not radii or any(r <= 0 for r in radii) or sorted(radii) != radii:
        raise ValueError("radii must be positive and sorted ascending")
    rng = np.random.default_rng(seed)
    box = field.box
    xs = []
    ys = []
    for r in radii:
        x, y = _sample_pairs_in_box(box, r, pairs_per_radius, rng)
        xs.append(x)
        ys.append(y)
    gx, gy = _grid_neighbor_pairs(box)
    xs.append(gx)
    ys.append(gy)
    X = np.concatenate(xs)
    Y = np.concatenate(ys)
    dist = np.linalg.norm(Y - X, axis=1)

    fx = field.evaluate_many(X, check_domain=False)
    fy = field.evaluate_many(Y, check_domain=False)
    if order == 0:
        d = fy[0] - fx[0]
        delta = np.abs(d) if d.ndim == 1 else np.linalg.norm(d, axis=1)
    else:
        delta = np.linalg.norm(fy[1] - fx[1], axis=1)
    keep = dist > 0
    quotient = delta[keep] / dist[keep] ** alpha
    dist = dist[keep]

    values = []
    for r in radii:
        mask = dist < r
        values.append(float(quotient[mask].max()) if mask.any() else 0.0)
    return ModulusTable(
        order=order,
        alpha=float(alpha),
        radii=tuple(radii),
        values=tuple(values),
        pairs=int(dist.size),
    )


def _rng(*key):
    parts = []

    def add(v):
        if isinstance(v, (tuple, list)):
            for t in v:
                add(t)
        else:
            parts.append(abs(int(v)) & 0xFFFFFFFF)

    add(key)
    return np.random.default_rng(np.random.SeedSequence(tuple(parts)))


# point pairs per radius of a sampled closeness quotient, and random
# points of its sampled sups
MODULUS_PAIRS = 4000
_SUP_C1_SAMPLES = 8192


def c1_alpha_distance(f, g, alpha, seed, *, pairs=MODULUS_PAIRS,
                      sup_seed=None):
    """Sampled C^(1,alpha) closeness of f to g, fields of one kind on one box.

    Returns (sup_value, sup_gradient, table); the distance is their sum
    with max(table.values). table is the ModulusTable of f - g, on 13
    dyadic radii up to the box diameter with pairs per radius, of the
    gradients' alpha-quotient on scalar fields (pairs from seed) and of
    the displacements' on first-order maps (jet_parts 2; pairs from the
    (seed, 19) stream). The sups are taken over box points from the
    (sup_seed, 17) stream, a first-order map's gradient part reading 0;
    without sup_seed they are not sampled and read None.
    """
    diff = FieldDifference(f, g)
    vector = f.jet_parts == 2
    box = f.box
    diam = float(np.linalg.norm(np.array(box.edges)))
    table = modulus_of_continuity(
        diff, 0 if vector else 1, alpha,
        [diam * 2.0 ** (-i) for i in range(12, -1, -1)],
        pairs_per_radius=pairs, seed=_rng(seed, 19) if vector else seed,
    )
    if sup_seed is None:
        return None, None, table
    rng = _rng(sup_seed, 17)
    pts = np.array(box.lo) + rng.random((_SUP_C1_SAMPLES, box.n)) * box.edges
    dv, dg = diff.evaluate_many(pts, check_domain=False)[:2]
    if vector:
        return float(np.linalg.norm(dv, axis=1).max()), 0.0, table
    return float(np.abs(dv).max()), float(np.linalg.norm(dg, axis=1).max()), table


# ------------------------------------------------------------ grid dump


def dump_grid(field, m, fh):
    """Write the field on the m^n grid of cell centers as plain text.

    Header: n, box bounds (lo hi per axis), m, and the record layout.
    Records: one cell center per line, row-major cell order, holding
    x_1..x_n, value, gradient entries, then the full Hessian row-major.
    All numbers use %.17g so a dump is bit-faithful and reproducible.
    """
    part = CubePartition(field.box, m)
    fh.write("# scalar field grid dump\n")
    fh.write(f"n {field.n}\n")
    bounds = " ".join(
        f"{lo:.17g} {hi:.17g}" for lo, hi in zip(field.box.lo, field.box.hi)
    )
    fh.write(f"box {bounds}\n")
    fh.write(f"m {m}\n")
    fh.write("fields value gradient hessian\n")
    centers = part.centers()
    chunk = 1 << 16
    for c0 in range(0, centers.shape[0], chunk):
        X = centers[c0 : c0 + chunk]
        val, grad, hess = field.evaluate_many(X)
        rows = np.concatenate(
            [X, val[:, None], grad, hess.reshape(X.shape[0], -1)], axis=1
        )
        for row in rows:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


@dataclass(frozen=True, eq=False)
class GridDump:
    """Parsed grid dump: cell-center samples of a field and its
    derivatives, in the row-major order dump_grid wrote them."""

    n: int
    lo: tuple
    hi: tuple
    m: int
    points: np.ndarray
    values: np.ndarray
    gradients: np.ndarray
    hessians: np.ndarray


def load_grid(fh):
    """Read a grid dump back from a text stream; inverse of dump_grid."""
    head = fh.readline().strip()
    if head != "# scalar field grid dump":
        raise ValueError("not a grid dump (bad header line)")

    def expect(tag):
        toks = fh.readline().split()
        if not toks or toks[0] != tag:
            raise ValueError(f"grid dump missing '{tag}' line")
        return toks[1:]

    n = int(expect("n")[0])
    nums = [float(t) for t in expect("box")]
    if len(nums) != 2 * n:
        raise ValueError("grid dump box line needs lo and hi per axis")
    lo = tuple(nums[0::2])
    hi = tuple(nums[1::2])
    m = int(expect("m")[0])
    layout = expect("fields")
    if layout != ["value", "gradient", "hessian"]:
        raise ValueError("unsupported grid dump record layout")
    width = n + 1 + n + n * n
    data = np.loadtxt(fh, ndmin=2)
    if data.shape != (m**n, width):
        raise ValueError(
            f"grid dump needs {m**n} rows of {width} numbers, "
            f"got shape {data.shape}"
        )
    return GridDump(
        n=n,
        lo=lo,
        hi=hi,
        m=m,
        points=data[:, :n],
        values=data[:, n],
        gradients=data[:, n + 1 : 2 * n + 1],
        hessians=data[:, 2 * n + 1 :].reshape(-1, n, n),
    )
