"""Discretized sphere bundle over a planar rectangle.

The base rectangle is covered by an nx-by-ny grid of cell centers and the
fiber circle by ntheta equispaced angles, giving the chart (x1, x2, theta)
with the unit section y(theta) = (cos theta, sin theta).  Quadrature is the
midpoint rule with weight dx1 * dx2 * dtheta per node.

Form conventions on the chart.  With l_i = g_ij y^j / F (``tensor_point``'s
``l_down``) the Hilbert form is omega = l_i dx^i.  Its differential satisfies

    d omega = -(g_ij - l_i l_j) dx^i wedge (dy^j + N^j_k dx^k) / F

and the bundle volume element is eta = -omega wedge d omega, normalized
so the flat metric has density one.  The density at a node is the dx1
wedge dx2 wedge dtheta coefficient of that product: for each j the 3x3
determinant of the chart rows of omega, of the angular-metric row A_ij
dx^i of d omega and of the vertical coframe row delta y^j / F, summed
over j.  It is built from g, l, y and F alone, for every metric.

The connection does not enter the density.  omega = l_i dx^i and the
angular-metric rows A_ij dx^i of d omega have no dtheta component, so in
the wedge of each such pair with a vertical coframe row delta y^j / F =
(N^j_k dx^k + dy^j) / F only the dtheta entry of that row can supply the
missing dtheta; the dx entries, which carry N, multiply a 2-form in
dx1, dx2 by another dx and vanish.  With those entries and the other
structural zeros dropped, each determinant expands to
l_1 A_2j v_j - l_2 A_1j v_j, where v = (-y^2, y^1) / F is the dtheta
column of the coframe.  Every dropped product is an exact zero for finite
data, so each positive density comes out bit for bit as the full
determinant gives it, and a grid that only needs g^{-1} and the density
never evaluates N or the third-order jets behind it.

On grid nodes (``node_tensors``) g^{-1} and the density come in closed
form from the coefficient fields of F = exp(sigma) F_b, F_b = alpha +
beta, alpha^2 = y^T a y, beta = b . y (b = 0 for Riemannian metrics, and
also a = I for the euclidean one).  With alpha_hat = a y / alpha, l =
alpha_hat + b and r = F_b / alpha,

    g_b = r (a - alpha_hat alpha_hat^T) + l l^T,   det g_b = r^3 det a,
    g^{-1} = exp(-2 sigma) adj(g_b) / det g_b

(Bao-Chern-Shen, An Introduction to Riemann-Finsler Geometry, 2000,
section 11.1).  In two dimensions, with J y = (-y^2, y^1),

    a - alpha_hat alpha_hat^T = (det a / alpha^2) J y (J y)^T:

both sides annihilate y, and on J y the left side gives a J y - (y^T a
J y / alpha^2) a y, a multiple of J y (it is orthogonal to y) whose
factor is det a |y|^2 / alpha^2 by the Gram determinant of (y, J y) in a.
The wedge above is rho = exp(2 sigma) l x (A v) with A = r (a -
alpha_hat alpha_hat^T) and v = J y / F_b; on the unit section A v =
(det a / alpha^3) J y, and u x J y = u . y gives l x J y = alpha + beta =
F_b, so

    rho = exp(2 sigma) det a F_b / alpha^3,

which is 1 on the flat metric and det a / alpha^2 for Riemannian ones.
The jet path (``tensor_point`` and ``volume_density``) stays the
pointwise evaluator and the tests' independent oracle for these forms.

Base-field derivatives take central differences, except at the nodes
that ``one_sided`` lists: the grid edges and, for a pinned field, the
pinned rim nodes that face free nodes.  Those take one-sided second-order
stencils into the grid or the free side.  Only those nodes are stored, as
flat indices, so the derivative and its transpose cost one central
difference plus a short gather or scatter.  Fiber derivatives use
periodic central differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FinslerError, InvalidMetricError, ShapeError
from .metrics import TensorPoint, coefficient_fields, tensor_point

# accepted grid resolutions, per base axis and on the fiber circle
MIN_BASE_NODES = 3
MAX_BASE_NODES = 4096
MIN_FIBER_NODES = 8
MAX_FIBER_NODES = 1024


@dataclass(frozen=True)
class SphereBundleGrid:
    """Tensor-product grid on rectangle x fiber circle."""

    x1min: float
    x1max: float
    x2min: float
    x2max: float
    nx: int
    ny: int
    ntheta: int

    def __post_init__(self):
        if not (self.x1max > self.x1min and self.x2max > self.x2min):
            raise ShapeError("grid rectangle has empty extent")
        if not (MIN_BASE_NODES <= self.nx <= MAX_BASE_NODES
                and MIN_BASE_NODES <= self.ny <= MAX_BASE_NODES):
            raise ShapeError(f"base resolution must lie in [{MIN_BASE_NODES}, "
                             f"{MAX_BASE_NODES}]")
        if not MIN_FIBER_NODES <= self.ntheta <= MAX_FIBER_NODES:
            raise ShapeError(f"fiber resolution must lie in [{MIN_FIBER_NODES}"
                             f", {MAX_FIBER_NODES}]")

    @property
    def dx1(self):
        return (self.x1max - self.x1min) / self.nx

    @property
    def dx2(self):
        return (self.x2max - self.x2min) / self.ny

    @property
    def dtheta(self):
        return 2.0 * np.pi / self.ntheta

    @property
    def x1(self):
        return self.x1min + (np.arange(self.nx) + 0.5) * self.dx1

    @property
    def x2(self):
        return self.x2min + (np.arange(self.ny) + 0.5) * self.dx2

    @property
    def thetas(self):
        return np.arange(self.ntheta) * self.dtheta

    @property
    def cell_weight(self):
        return self.dx1 * self.dx2 * self.dtheta

    def base_mesh(self):
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    def fiber_directions(self):
        th = self.thetas
        return np.cos(th), np.sin(th)

    @property
    def base_shape(self):
        return (self.nx, self.ny)

    @property
    def shape(self):
        return (self.nx, self.ny, self.ntheta)


@dataclass
class ScalarField:
    """Base-grid function with an optional pin mask (Dirichlet data)."""

    values: np.ndarray
    pinned: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.pinned is None:
            self.pinned = np.zeros(self.values.shape, dtype=bool)
        else:
            self.pinned = np.asarray(self.pinned, dtype=bool)
            if self.pinned.shape != self.values.shape:
                raise ShapeError("pin mask shape differs from value shape")

    @classmethod
    def zeros(cls, grid):
        return cls(np.zeros(grid.base_shape))

    @classmethod
    def from_function(cls, grid, fn):
        X1, X2 = grid.base_mesh()
        return cls(np.asarray(fn(X1, X2), dtype=float))


@dataclass
class BundleField:
    """Function on the sphere-bundle nodes (nx, ny, ntheta)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


def _values(u):
    return np.asarray(getattr(u, "values", u), dtype=float)


# -- stencils -----------------------------------------------------------------

def one_sided(shape, axis, pinned=None):
    """Nodes that differentiate one-sidedly along ``axis``.

    Returns (forward, backward), flat C-order indices into ``shape``.
    The first node on the axis is forward and the last backward.  With a
    pin mask, a pinned node on the rim of a pinned block that faces free
    nodes differentiates into the free side too, so the integrand of a
    pinned minimization problem stays defined up to the pinned set, where
    admissible fields carry prescribed values, instead of smearing the
    kink across it.  Every other node takes a central difference.
    """
    n = shape[axis]
    if n < 3:
        raise ShapeError("derivative stencils need at least 3 nodes per axis")
    fwd = np.zeros(shape, dtype=bool)
    bwd = np.zeros(shape, dtype=bool)
    F = np.moveaxis(fwd, axis, 0)
    B = np.moveaxis(bwd, axis, 0)
    F[0] = True
    B[-1] = True
    if pinned is not None:
        P = np.moveaxis(np.asarray(pinned, dtype=bool), axis, 0)
        here, back, ahead = P[1:-1], P[:-2], P[2:]
        # the two nodes a stencil reaches into must exist
        F[1:-2] |= (here & back & ~ahead)[:-1]
        B[2:-1] |= (here & ahead & ~back)[1:]
    return np.flatnonzero(fwd), np.flatnonzero(bwd)


def d_axis(values, h, axis, sides=None):
    """Second-order derivative along ``axis``.

    Central differences, except at the ``one_sided`` nodes ``sides``,
    which take one-sided second-order stencils; None means the grid edges
    only.
    """
    vals = np.ascontiguousarray(values, dtype=float)
    fwd, bwd = one_sided(vals.shape, axis) if sides is None else sides
    ax = (slice(None),) * axis
    out = np.empty_like(vals)
    inner = out[ax + (slice(1, -1),)]
    np.subtract(vals[ax + (slice(2, None),)], vals[ax + (slice(None, -2),)],
                out=inner)
    inner /= 2.0 * h
    s = vals.strides[axis] // vals.itemsize
    vf = vals.reshape(-1)
    of = out.reshape(-1)
    of[fwd] = (-3.0 * vf[fwd] + 4.0 * vf[fwd + s] - vf[fwd + 2 * s]) / (2.0 * h)
    of[bwd] = (3.0 * vf[bwd] - 4.0 * vf[bwd - s] + vf[bwd - 2 * s]) / (2.0 * h)
    return out


def d_axis_adjoint(w, h, axis, sides=None):
    """Exact transpose of :func:`d_axis` with the same ``sides``."""
    w = np.ascontiguousarray(w, dtype=float)
    fwd, bwd = one_sided(w.shape, axis) if sides is None else sides
    c = 1.0 / (2.0 * h)
    ax = (slice(None),) * axis
    # central part: the one-sided nodes contribute nothing to it
    wc = w * c
    wc.reshape(-1)[fwd] = 0.0
    wc.reshape(-1)[bwd] = 0.0
    out = np.zeros_like(w)
    v = wc[ax + (slice(1, -1),)]
    out[ax + (slice(2, None),)] += v
    out[ax + (slice(None, -2),)] -= v
    # scatter the one-sided rows; targets within one statement are distinct
    s = w.strides[axis] // w.itemsize
    of = out.reshape(-1)
    wf = w.reshape(-1)[fwd]
    wb = w.reshape(-1)[bwd]
    of[fwd] += -3.0 * c * wf
    of[fwd + s] += 4.0 * c * wf
    of[fwd + 2 * s] += -c * wf
    of[bwd] += 3.0 * c * wb
    of[bwd - s] += -4.0 * c * wb
    of[bwd - 2 * s] += c * wb
    return out


def fiber_partial(values, grid):
    v = np.asarray(values, dtype=float)
    return (np.roll(v, -1, axis=2) - np.roll(v, 1, axis=2)) / (2.0 * grid.dtheta)


# -- pointwise forms ----------------------------------------------------------

def d_omega_matrix(tp: TensorPoint):
    """Angular metric A_ij = g_ij - l_i l_j appearing in d omega."""
    return tp.g - tp.l_down[..., :, None] * tp.l_down[..., None, :]


def d_omega_chart(tp: TensorPoint):
    """Chart matrix of d omega on (x1, x2, theta).

    Expands -A_ij dx^i wedge (delta y^j / F) into the antisymmetric
    component matrix (d omega)_{ab}; finite differences of the contact
    form's chart components must reproduce it.
    """
    A = d_omega_matrix(tp)
    vert = _vertical_coframe(tp)
    W = np.zeros(tp.F.shape + (3, 3))
    W[..., :2, :] = A @ vert
    return np.swapaxes(W, -1, -2) - W


def _vertical_coframe(tp: TensorPoint):
    """Chart components of delta y^j / F, one row per j.

    The dx columns hold N^j_k / F.  On the unit section dy^j =
    (dy^j/dtheta) dtheta, so the fiber part fills the dtheta column.
    """
    rows = np.empty(tp.F.shape + (2, 3))
    rows[..., :, :2] = tp.nonlin_scaled
    rows[..., 0, 2] = -tp.y[..., 1] / tp.F
    rows[..., 1, 2] = tp.y[..., 0] / tp.F
    return rows


def _wedge_term(tp: TensorPoint, j, v):
    """l_1 (A_2j v_j) - l_2 (A_1j v_j), one term of the volume density."""
    g, l = tp.g, tp.l_down
    a1 = g[..., 0, j] - l[..., 0] * l[..., j]
    a2 = g[..., 1, j] - l[..., 1] * l[..., j]
    a2 *= v
    a2 *= l[..., 0]
    a1 *= v
    a1 *= l[..., 1]
    a2 -= a1
    return a2


def _check_density(rho):
    if not np.all(rho > 0.0):
        raise FinslerError("volume density is not positive; metric data is "
                           "inconsistent at some node")


def volume_density(tp: TensorPoint):
    """Coefficient of dx1 wedge dx2 wedge dtheta in the volume element.

    The wedge of the chart rows omega = (l_1, l_2, 0), (A_1j, A_2j, 0) of
    d omega and (0, 0, v_j) of the vertical coframe, v = (-y^2, y^1) / F,
    expanded over its structural zeros: the determinant for each j is
    l_1 (A_2j v_j) - l_2 (A_1j v_j), with A_ij = g_ij - l_i l_j taken
    entry by entry.  The coframe's connection entries are among the zeros
    (see the module docstring), so the connection is never evaluated.  The
    orientation makes the flat metric give density one.
    """
    rho = _wedge_term(tp, 0, -tp.y[..., 1] / tp.F)
    rho += _wedge_term(tp, 1, tp.y[..., 0] / tp.F)
    _check_density(rho)
    return rho


# -- grid-level tensor data ----------------------------------------------------

@dataclass
class NodeTensors:
    """What the energy and the quadrature read at every bundle node.

    g^{-1} and the volume density: 40 bytes per node.  Both come from the
    closed forms of the module docstring, so a miss costs a few dozen
    elementwise operations per node and no jets.
    """

    g_inv: np.ndarray
    rho: np.ndarray


# node_tensors evaluates this many nodes at a time (whole x1 rows, at least
# one), so the closed forms' temporaries stay a few MB and cache-resident
# however large the grid is; only the two output arrays scale with it
_NODES_PER_BLOCK = 1 << 15


def _grid_tensor_point(m, grid, rows=slice(None)):
    """TensorPoint over the bundle nodes of the x1 rows ``rows``."""
    c, s = grid.fiber_directions()
    X1 = grid.x1[rows, None, None]
    X2 = grid.x2[None, :, None]
    return tensor_point(m, (X1, X2), (c[None, None, :], s[None, None, :]))


def _fill_block(m, grid, rows, g_inv, rho):
    """Closed-form g^{-1} and rho over the bundle nodes of the x1 rows
    ``rows`` (see the module docstring), written into ``g_inv`` and ``rho``.

    The block is laid out fiber-major, (ntheta, base nodes), so that the
    products of base and fiber fields run along the long axis.  A constant
    coefficient field stays a scalar, so whatever depends on it and y only
    is computed once per fiber node rather than once per bundle node.
    """
    c, s = (v[:, None] for v in grid.fiber_directions())
    x1 = grid.x1[rows]
    (a11, a12, a22), b, sigma = coefficient_fields(
        m, (np.repeat(x1, grid.ny), np.tile(grid.x2, x1.size)))
    det_a = a11 * a22 - a12 * a12
    scale = np.exp(2.0 * sigma)
    ay1 = a11 * c + a12 * s
    ay2 = a12 * c + a22 * s
    alpha2 = ay1 * c + ay2 * s
    if b is None:
        # F_b = alpha: g_b = a on the whole fiber
        g11, det_b = a11, det_a
        adj = (a22, -a12, a11)
        dens = 1.0 / alpha2
    else:
        inv_alpha = 1.0 / np.sqrt(alpha2)
        l1 = ay1 * inv_alpha + b[0]
        l2 = ay2 * inv_alpha + b[1]
        r = (b[0] * c + b[1] * s) * inv_alpha + 1.0
        dens = r / alpha2
        # r (a - a y (a y)^T / alpha^2) = k J y (J y)^T
        k = dens * det_a
        det_b = r * r * r * det_a
        g11 = k * (s * s) + l1 * l1
        adj = (k * (c * c) + l2 * l2, k * (c * s) - l1 * l2, g11)
    if not (np.all((scale > 0.0) & (scale < np.inf))
            and np.all((g11 > 0.0) & (det_b > 0.0))):
        raise InvalidMetricError("fundamental tensor g(x, y) is not positive "
                                 "definite")
    q = 1.0 / (scale * det_b)
    out = g_inv[rows].reshape(-1, grid.ntheta, 2, 2).swapaxes(0, 1)
    out[..., 0, 0] = adj[0] * q
    out[..., 0, 1] = out[..., 1, 0] = adj[1] * q
    out[..., 1, 1] = adj[2] * q
    dens = dens * (scale * det_a)
    _check_density(dens)
    rho[rows].reshape(-1, grid.ntheta).T[...] = dens


@lru_cache(maxsize=1)
def node_tensors(m, grid):
    """Evaluate and cache g^{-1} and rho over a whole grid.

    One entry is kept: the last (metric, grid) pair asked for.
    """
    nd = NodeTensors(g_inv=np.empty(grid.shape + (2, 2)),
                     rho=np.empty(grid.shape))
    step = max(1, _NODES_PER_BLOCK // (grid.ny * grid.ntheta))
    for lo in range(0, grid.nx, step):
        _fill_block(m, grid, slice(lo, lo + step), nd.g_inv, nd.rho)
    return nd


# -- gradient norms and integration --------------------------------------------

def gradient_norm_lift(u, m, grid):
    """|grad u^V| on the bundle for the vertical lift of a base field.

    For a lift the fiber derivative vanishes and the horizontal part
    reduces to sqrt(g^{ij} du_i du_j) with plain base partials.  A pin
    mask on u makes the pinned rim one-sided (see one_sided).
    """
    vals = _values(u)
    if vals.shape != grid.base_shape:
        raise ShapeError("field shape differs from grid base shape")
    nd = node_tensors(m, grid)
    pinned = getattr(u, "pinned", None)
    du1 = d_axis(vals, grid.dx1, 0, one_sided(vals.shape, 0, pinned))
    du2 = d_axis(vals, grid.dx2, 1, one_sided(vals.shape, 1, pinned))
    du1 = du1[:, :, None]
    du2 = du2[:, :, None]
    gi = nd.g_inv
    sq = (gi[..., 0, 0] * du1 * du1 + 2.0 * gi[..., 0, 1] * du1 * du2
          + gi[..., 1, 1] * du2 * du2)
    return BundleField(np.sqrt(sq))


def gradient_norm_general(f, m, grid):
    """|grad f| for a bundle field, horizontal plus vertical parts.

    The fiber derivative is taken periodically in theta; the horizontal
    slot uses delta f / delta x^i = df/dx^i - N^j_i df/dy^j with the fiber
    derivative mapped through dtheta/dy at the unit section.
    """
    vals = _values(f)
    if vals.shape != grid.shape:
        raise ShapeError("bundle field shape differs from grid shape")
    tp = _grid_tensor_point(m, grid)
    ft = fiber_partial(vals, grid)
    fx1 = d_axis(vals, grid.dx1, 0)
    fx2 = d_axis(vals, grid.dx2, 1)
    # df/dy^j at the unit section, along the tangent dy/dtheta = (-y2, y1)
    tangents = np.stack((-tp.y[..., 1], tp.y[..., 0]), axis=-1)
    dyf = ft[..., None] * tangents
    dxf = np.stack((fx1, fx2), axis=-1) - np.einsum("...ji,...j->...i",
                                                    tp.nonlin, dyf)
    gi = tp.g_inv
    horiz = np.einsum("...ij,...i,...j->...", gi, dxf, dxf)
    vert = tp.F ** 2 * np.einsum("...ij,...i,...j->...", gi, dyf, dyf)
    return BundleField(np.sqrt(horiz + vert))


def integrate(f, m, grid, region=None):
    """Midpoint-rule integral of a bundle field against the volume density.

    Nodes are reduced in a fixed lexicographic (i, j, k) layout so repeated
    runs reproduce bitwise-identical sums.  ``region`` optionally restricts
    the quadrature to base cells flagged True.
    """
    nd = node_tensors(m, grid)
    vals = np.asarray(_values(f), dtype=float)
    integrand = np.broadcast_to(vals, grid.shape) * nd.rho
    if region is not None:
        region = np.asarray(region, dtype=bool)
        if region.shape != grid.base_shape:
            raise ShapeError("region mask shape differs from grid base shape")
        integrand = integrand * region[:, :, None]
    return float(np.sum(np.ascontiguousarray(integrand)) * grid.cell_weight)
