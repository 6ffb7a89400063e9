"""Finsler metric catalog and pointwise tensor calculus.

A metric is described by a :class:`MetricSpec` drawn from a fixed catalog:

    euclidean                F(x, y) = |y|
    riemannian(a)            F(x, y) = sqrt(a_ij(x) y^i y^j)
    randers(a, b)            F(x, y) = sqrt(a_ij(x) y^i y^j) + b_i(x) y^i
    conformal(base, sigma)   F(x, y) = exp(sigma(x)) F_base(x, y)

Coefficient fields come from the closed-form catalog in :mod:`.exprs`, so
every derivative below is taken exactly with nested forward-mode duals.
Finite differences appear only in the test suite, as an independent oracle.

Conventions.  All public entry points take the base point ``x`` and fiber
direction ``y`` as array_likes whose FIRST axis is the coordinate axis;
trailing axes broadcast as a batch.  Outputs carry batch axes first and
tensor index axes last.  Index placement follows the usual Finsler setup:

    g_ij(x, y)   = 1/2 d^2(F^2)/dy^i dy^j          (fundamental tensor)
    C_ijk        = 1/2 dg_ij/dy^k                   (Cartan torsion)
    gamma^i_jk   = 1/2 g^{is} (ds_k g_sj - ds_s g_jk + ds_j g_ks)
    N^i_j        = gamma^i_jk y^k - C^i_jk gamma^k_rs y^r y^s

with C^i_jk = g^{is} C_sjk.  The scaled connection N^i_j / F is
0-homogeneous in y and is the one used on the sphere bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import dual as dm
from .dual import diff
from .errors import DirectionError, InvalidMetricError
from .exprs import ScalarExpr, const, expr_sum

_ID2 = ((const(1.0), const(0.0)), (const(0.0), const(1.0)))


@dataclass(frozen=True)
class MetricSpec:
    """Catalog entry describing one Finsler structure.

    Exactly the fields needed by the declared kind are set; the others stay
    None.  Instances are immutable and hashable, which lets grid-level
    tensor data be memoized per (metric, grid) pair.
    """

    kind: str
    dim: int
    a: tuple | None = None       # symmetric matrix of ScalarExpr
    b: tuple | None = None       # covector of ScalarExpr
    base: "MetricSpec | None" = None
    sigma: ScalarExpr | None = None


def euclidean(dim=2):
    return MetricSpec("euclidean", dim)


def identity_matrix_field(dim=2):
    if dim == 2:
        return _ID2
    zero = const(0.0)
    one = const(1.0)
    return tuple(tuple(one if i == j else zero for j in range(dim))
                 for i in range(dim))


def riemannian(a):
    a = tuple(tuple(row) for row in a)
    n = len(a)
    for row in a:
        if len(row) != n:
            raise InvalidMetricError("riemannian coefficient matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise InvalidMetricError(
                    "riemannian coefficient matrix must be symmetric")
    return MetricSpec("riemannian", n, a=a)


def randers(a, b):
    a = tuple(tuple(row) for row in a)
    b = tuple(b)
    if len(a) != len(b):
        raise InvalidMetricError("randers drift covector has wrong length")
    base = riemannian(a)
    return MetricSpec("randers", base.dim, a=base.a, b=b)


def conformal_wrap(base, sigma):
    """Catalog constructor for exp(sigma) * F_base.

    Nested wraps merge into a single layer with summed exponents, so
    wrapping twice builds the same spec as wrapping once with the sum.
    """
    if base.kind == "conformal" and isinstance(base.sigma, ScalarExpr) \
            and isinstance(sigma, ScalarExpr):
        return MetricSpec("conformal", base.dim, base=base.base,
                          sigma=expr_sum(base.sigma, sigma))
    return MetricSpec("conformal", base.dim, base=base, sigma=sigma)


# -- evaluation on dual-friendly component lists -----------------------------

def _quad(a, x, y):
    n = len(y)
    acc = 0.0
    for i in range(n):
        aii = a[i][i](x)
        acc = acc + aii * (y[i] * y[i])
        for j in range(i + 1, n):
            acc = acc + (2.0 * a[i][j](x)) * (y[i] * y[j])
    return acc


def _fsq(m, z):
    """F^2 on a flat variable list z = (*x, *y); dual-friendly."""
    n = m.dim
    x, y = z[:n], z[n:]
    if m.kind == "euclidean":
        acc = y[0] * y[0]
        for yi in y[1:]:
            acc = acc + yi * yi
        return acc
    if m.kind == "riemannian":
        return _quad(m.a, x, y)
    if m.kind == "randers":
        alpha = dm.sqrt(_quad(m.a, x, y))
        beta = 0.0
        for bi, yi in zip(m.b, y):
            beta = beta + bi(x) * yi
        f = alpha + beta
        return f * f
    if m.kind == "conformal":
        return dm.exp(2.0 * m.sigma(x)) * _fsq(m.base, z)
    raise InvalidMetricError(f"unknown metric kind {m.kind!r}")


def _fval(m, z):
    n = m.dim
    x, y = z[:n], z[n:]
    if m.kind == "randers":
        alpha = dm.sqrt(_quad(m.a, x, y))
        beta = 0.0
        for bi, yi in zip(m.b, y):
            beta = beta + bi(x) * yi
        return alpha + beta
    if m.kind == "conformal":
        return dm.exp(m.sigma(x)) * _fval(m.base, z)
    return dm.sqrt(_fsq(m, z))


# -- input handling and validity ---------------------------------------------

def _comps(v, n, what):
    if isinstance(v, (list, tuple)):
        comps = [np.asarray(c, dtype=float) for c in v]
    else:
        arr = np.asarray(v, dtype=float)
        if arr.ndim == 0 or arr.shape[0] != n:
            raise DirectionError(
                f"{what} must have {n} components along the first axis")
        comps = [arr[i] for i in range(n)]
    if len(comps) != n:
        raise DirectionError(
            f"{what} must have {n} components along the first axis")
    return comps


def _numeric_matrix(a, x):
    n = len(a)
    batch = np.broadcast_shapes(*(np.shape(c) for c in x))
    out = np.empty(batch + (n, n))
    for i in range(n):
        for j in range(i, n):
            v = a[i][j](x)
            out[..., i, j] = v
            out[..., j, i] = v
    return out


def _assert_spd(mat, label):
    n = mat.shape[-1]
    if n == 2:
        ok = (mat[..., 0, 0] > 0) & (
            mat[..., 0, 0] * mat[..., 1, 1] - mat[..., 0, 1] ** 2 > 0)
        if not np.all(ok):
            raise InvalidMetricError(f"{label} is not positive definite")
        return
    w = np.linalg.eigvalsh(mat)
    if not np.all(w[..., 0] > 0):
        raise InvalidMetricError(f"{label} is not positive definite")


def validate_at(m, x):
    """Check catalog validity conditions at numeric base points."""
    if m.kind in ("riemannian", "randers"):
        amat = _numeric_matrix(m.a, x)
        _assert_spd(amat, "riemannian coefficient matrix a(x)")
        if m.kind == "randers":
            bvec = np.empty(amat.shape[:-1])
            for i, bi in enumerate(m.b):
                bvec[..., i] = bi(x)
            norm2 = np.einsum("...i,...i->...",
                              np.linalg.solve(amat, bvec[..., None])[..., 0],
                              bvec)
            if not np.all(norm2 < 1.0):
                raise InvalidMetricError(
                    "randers drift has a-norm >= 1 somewhere on the queried points")
    elif m.kind == "conformal":
        validate_at(m.base, x)


def _check_direction(y):
    sq = 0.0
    for c in y:
        sq = sq + np.asarray(c) ** 2
    if np.any(sq == 0.0):
        raise DirectionError("fiber direction y must be nonzero")


def _prep(m, x, y):
    xc = _comps(x, m.dim, "x")
    yc = _comps(y, m.dim, "y")
    validate_at(m, xc)
    _check_direction(yc)
    return xc, yc


def _batch_shape(comps):
    return np.broadcast_shapes(*(np.shape(c) for c in comps))


# -- public tensor operations -------------------------------------------------

def eval_F(m, x, y):
    """Finsler norm F(x, y); positively 1-homogeneous in y."""
    xc, yc = _prep(m, x, y)
    out = _fval(m, xc + yc)
    return np.asarray(out, dtype=float)


def fundamental_tensor(m, x, y):
    """g_ij(x, y) = half Hessian of F^2 in y; raises if not positive definite."""
    return tensor_point(m, x, y).g


def cartan_tensor(m, x, y):
    """Totally symmetric C_ijk = quarter third y-derivative of F^2."""
    return tensor_point(m, x, y).cartan


def formal_christoffel(m, x, y):
    """gamma^i_jk of the fundamental tensor; symmetric in (j, k)."""
    return tensor_point(m, x, y).gamma


def _christoffel_from(g_inv, D):
    # A_sjk = ds_k g_sj - ds_s g_jk + ds_j g_ks
    A = (np.einsum("...ksj->...sjk", D)
         - np.einsum("...sjk->...sjk", D)
         + np.einsum("...jks->...sjk", D))
    return 0.5 * np.einsum("...is,...sjk->...ijk", g_inv, A)


def _inverse(g):
    """Batched inverse; adjugate over determinant for 2x2 blocks."""
    if g.shape[-1] != 2:
        return np.linalg.inv(g)
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    inv = np.empty_like(g)
    inv[..., 0, 0] = g[..., 1, 1] / det
    inv[..., 0, 1] = -g[..., 0, 1] / det
    inv[..., 1, 0] = -g[..., 1, 0] / det
    inv[..., 1, 1] = g[..., 0, 0] / det
    return inv


def nonlinear_connection(m, x, y):
    """Nonlinear connection N^i_j and its 0-homogeneous scaling N^i_j / F."""
    tp = tensor_point(m, x, y)
    return tp.nonlin, tp.nonlin_scaled


def _y_partials(m, xc, order):
    """Function of the y components giving the y-partial of F^2 that
    differentiates in turn along the fiber indices in ``order``.

    Only the fiber variables carry duals; the base point stays plain, so
    the coefficient fields of x are evaluated on plain arrays.
    """
    fn = lambda w: _fsq(m, xc + list(w))
    for i in order:
        fn = diff(fn, i)
    return fn


@dataclass
class TensorPoint:
    """Pointwise tensors of a metric at (x, y).

    F, l, g and g^{-1} come from second-order y-jets of F^2 and are
    evaluated on construction.  The Cartan tensor, dg/dx, gamma and N
    need third-order jets; each is computed on first access and then
    kept, so a caller that never reads the connection never pays for it.

    Batch axes lead, index axes trail; ``x`` and ``y`` are stored with the
    coordinate axis last.
    """

    x: np.ndarray
    y: np.ndarray
    F: np.ndarray
    l_up: np.ndarray
    l_down: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    metric: MetricSpec = field(repr=False)

    @property
    def dim(self):
        return self.g.shape[-1]

    def _xy_lists(self):
        """The stored x and y as component lists, for re-evaluating jets."""
        n = self.dim
        return ([self.x[..., i] for i in range(n)],
                [self.y[..., i] for i in range(n)])

    @cached_property
    def cartan(self):
        """C_ijk = 1/2 dg_ij/dy^k, totally symmetric."""
        n = self.dim
        xc, yc = self._xy_lists()
        C = np.empty(self.F.shape + (n, n, n))
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    d3 = _y_partials(self.metric, xc, (i, j, k))
                    w = np.asarray(d3(yc)) * 0.25
                    for p, q, r in {(i, j, k), (i, k, j), (j, i, k),
                                    (j, k, i), (k, i, j), (k, j, i)}:
                        C[..., p, q, r] = w
        return C

    @cached_property
    def dg_dx(self):
        """D[..., k, i, j] = d g_ij / d x^k, exact."""
        n = self.dim
        xc, yc = self._xy_lists()
        fsq_fn = lambda w: _fsq(self.metric, w)
        D = np.empty(self.F.shape + (n, n, n))
        for i in range(n):
            for j in range(i, n):
                dij = diff(diff(fsq_fn, n + i), n + j)
                for k in range(n):
                    w = np.asarray(diff(dij, k)(xc + yc)) * 0.5
                    D[..., k, i, j] = w
                    D[..., k, j, i] = w
        return D

    @cached_property
    def gamma(self):
        return _christoffel_from(self.g_inv, self.dg_dx)

    @cached_property
    def nonlin(self):
        Cup = np.einsum("...is,...sjk->...ijk", self.g_inv, self.cartan)
        gyy = np.einsum("...krs,...r,...s->...k", self.gamma, self.y, self.y)
        return (np.einsum("...ijk,...k->...ij", self.gamma, self.y)
                - np.einsum("...ijk,...k->...ij", Cup, gyy))

    @cached_property
    def nonlin_scaled(self):
        return self.nonlin / self.F[..., None, None]


def tensor_point(m, x, y):
    """Evaluate F, l, g and g^{-1} at (x, y); C, gamma and N on demand."""
    xc, yc = _prep(m, x, y)
    z = xc + yc
    n = m.dim
    batch = _batch_shape(z)

    F = np.broadcast_to(np.asarray(_fval(m, z), dtype=float), batch).copy()

    g = np.empty(batch + (n, n))
    for i in range(n):
        for j in range(i, n):
            v = np.asarray(_y_partials(m, xc, (i, j))(yc)) * 0.5
            g[..., i, j] = v
            g[..., j, i] = v

    _assert_spd(g, "fundamental tensor g(x, y)")

    yv = np.empty(batch + (n,))
    xv = np.empty(batch + (n,))
    for i in range(n):
        yv[..., i] = yc[i]
        xv[..., i] = xc[i]

    l_up = yv / F[..., None]
    l_down = np.einsum("...ij,...j->...i", g, l_up)

    return TensorPoint(x=xv, y=yv, F=F, l_up=l_up, l_down=l_down, g=g,
                       g_inv=_inverse(g), metric=m)
