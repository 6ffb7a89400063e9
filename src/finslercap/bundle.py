"""Discretized sphere bundle over a planar rectangle.

The base rectangle is covered by an nx-by-ny grid of cell centers and the
fiber circle by ntheta equispaced angles, giving the chart (x1, x2, theta)
with the unit section y(theta) = (cos theta, sin theta).  Quadrature is the
midpoint rule with weight dx1 * dx2 * dtheta per node.

Form conventions on the chart.  With l_i = g_ij y^j / F the Hilbert form is
omega = l_i dx^i.  Its differential satisfies

    d omega = -(g_ij - l_i l_j) dx^i wedge (dy^j + N^j_k dx^k) / F

and the bundle volume element is eta = -omega wedge d omega for a surface
base, normalized so the flat metric has density one.  The density at a node
is extracted numerically as the dx1 wedge dx2 wedge dtheta coefficient of
that product; no closed-form density expression is hard-coded.

The connection does not enter the density.  omega = l_i dx^i and the
angular-metric rows A_ij dx^i of d omega have no dtheta component, so in
the wedge of each such pair with a vertical coframe row delta y^j / F =
(N^j_k dx^k + dy^j) / F only the dtheta entry of that row can supply the
missing dtheta; the dx entries, which carry N, multiply a 2-form in
dx1, dx2 by another dx and vanish.  The density is therefore wedged
numerically with those entries set to 0, and a grid that only needs
g^{-1} and the density never evaluates N or the third-order jets behind
it.

Base-field derivatives use central differences inside and one-sided
second-order stencils on the boundary; fiber derivatives use periodic
central differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FinslerError, ShapeError
from .metrics import TensorPoint, tensor_point

MAX_BASE_NODES = 4096
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
        if not (3 <= self.nx <= MAX_BASE_NODES and 3 <= self.ny <= MAX_BASE_NODES):
            raise ShapeError("base resolution must lie in [3, 4096]")
        if not (8 <= self.ntheta <= MAX_FIBER_NODES):
            raise ShapeError("fiber resolution must lie in [8, 1024]")

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


def vertical_lift(u, grid):
    """Constant-in-theta extension of a base field to the bundle."""
    vals = _values(u)
    if vals.shape != grid.base_shape:
        raise ShapeError("field shape differs from grid base shape")
    return BundleField(np.repeat(vals[:, :, None], grid.ntheta, axis=2))


# -- stencils -----------------------------------------------------------------

def d_axis(values, h, axis):
    """Central differences inside, one-sided second order on the edges."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    if v.shape[0] < 3:
        raise ShapeError("derivative stencils need at least 3 nodes per axis")
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def d_axis_adjoint(w, h, axis):
    """Exact transpose of :func:`d_axis` (needed by energy gradients)."""
    v = np.moveaxis(np.asarray(w, dtype=float), axis, 0)
    out = np.zeros_like(v)
    c = 1.0 / (2.0 * h)
    out[2:] += v[1:-1] * c
    out[:-2] -= v[1:-1] * c
    out[0] += -3.0 * c * v[0]
    out[1] += 4.0 * c * v[0]
    out[2] += -c * v[0]
    out[-1] += 3.0 * c * v[-1]
    out[-2] += -4.0 * c * v[-1]
    out[-3] += c * v[-1]
    return np.moveaxis(out, 0, axis)


def axis_stencil(shape, h, axis, pinned=None):
    """Derivative stencil along a base axis as banded coefficients.

    Returns an array ``c`` of shape (5,) + shape where ``(D v)[i] =
    sum_o c[o+2][i] * v[i+o]`` along ``axis``.  Interior nodes use central
    differences.  One-sided second-order stencils apply at the grid edges
    and, when a pin mask is given, at nodes on the rim of a pinned block
    facing free nodes — so the integrand of pinned minimization problems
    stays defined up to the pinned set, where admissible fields carry
    prescribed values, instead of smearing the kink across it.
    """
    n = shape[axis]
    if n < 3:
        raise ShapeError("derivative stencils need at least 3 nodes per axis")
    sh = (shape[axis],) + tuple(s for a, s in enumerate(shape) if a != axis)
    c = np.zeros((5,) + sh)
    w = 1.0 / (2.0 * h)
    c[1][1:-1] = -w
    c[3][1:-1] = w
    c[2][0], c[3][0], c[4][0] = -3.0 * w, 4.0 * w, -w
    c[2][-1], c[1][-1], c[0][-1] = 3.0 * w, -4.0 * w, w
    if pinned is not None and pinned.any():
        P = np.moveaxis(np.asarray(pinned, dtype=bool), axis, 0)
        idx = np.arange(1, n - 1).reshape((-1,) + (1,) * (P.ndim - 1))
        here, back, ahead = P[1:-1], P[:-2], P[2:]
        # pinned rim nodes: differentiate one-sidedly into the free side
        right = here & back & ~ahead & (idx <= n - 3)
        left = here & ahead & ~back & (idx >= 2)
        for band in c:
            band[1:-1][right] = 0.0
            band[1:-1][left] = 0.0
        c[2][1:-1][right], c[3][1:-1][right], c[4][1:-1][right] = -3.0 * w, 4.0 * w, -w
        c[2][1:-1][left], c[1][1:-1][left], c[0][1:-1][left] = 3.0 * w, -4.0 * w, w
    return c


def apply_stencil(c, values, axis):
    """Apply banded stencil coefficients along ``axis``."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    n = v.shape[0]
    out = np.zeros_like(v)
    for o in (-2, -1, 0, 1, 2):
        band = c[o + 2]
        if o >= 0:
            out[:n - o] += band[:n - o] * v[o:]
        else:
            out[-o:] += band[-o:] * v[:n + o]
    return np.moveaxis(out, 0, axis)


def apply_stencil_adjoint(c, w, axis):
    """Exact transpose of :func:`apply_stencil` with the same coefficients."""
    v = np.moveaxis(np.asarray(w, dtype=float), axis, 0)
    n = v.shape[0]
    out = np.zeros_like(v)
    for o in (-2, -1, 0, 1, 2):
        band = c[o + 2]
        if o >= 0:
            out[o:] += band[:n - o] * v[:n - o]
        else:
            out[:n + o] += band[-o:] * v[-o:]
    return np.moveaxis(out, 0, axis)


def base_partials(values, grid, pinned=None):
    vals = np.asarray(values, dtype=float)
    if pinned is not None and np.asarray(pinned).any():
        c1 = axis_stencil(vals.shape, grid.dx1, 0, pinned)
        c2 = axis_stencil(vals.shape, grid.dx2, 1, pinned)
        return (apply_stencil(c1, vals, 0), apply_stencil(c2, vals, 1))
    return (d_axis(vals, grid.dx1, 0), d_axis(vals, grid.dx2, 1))


def fiber_partial(values, grid):
    v = np.asarray(values, dtype=float)
    return (np.roll(v, -1, axis=2) - np.roll(v, 1, axis=2)) / (2.0 * grid.dtheta)


# -- pointwise forms ----------------------------------------------------------

def hilbert_form(tp: TensorPoint):
    """Chart components l_i of the contact form omega = l_i dx^i."""
    return tp.l_down


def d_omega_matrix(tp: TensorPoint):
    """Angular metric A_ij = g_ij - l_i l_j appearing in d omega."""
    return tp.g - tp.l_down[..., :, None] * tp.l_down[..., None, :]


def d_omega_chart(tp: TensorPoint):
    """Chart matrix of d omega on (x1, x2, theta); surface base only.

    Expands -A_ij dx^i wedge (delta y^j / F) into the antisymmetric
    component matrix (d omega)_{ab}; finite differences of the contact
    form's chart components must reproduce it.
    """
    A = d_omega_matrix(tp)
    vert = _vertical_coframe(tp)
    W = np.zeros(tp.F.shape + (3, 3))
    W[..., :2, :] = A @ vert
    return np.swapaxes(W, -1, -2) - W


def _det3(r0, r1, r2):
    return (r0[..., 0] * (r1[..., 1] * r2[..., 2] - r1[..., 2] * r2[..., 1])
            - r0[..., 1] * (r1[..., 0] * r2[..., 2] - r1[..., 2] * r2[..., 0])
            + r0[..., 2] * (r1[..., 0] * r2[..., 1] - r1[..., 1] * r2[..., 0]))


def _fiber_coframe(tp: TensorPoint):
    """Rows of delta y^j / F with the connection (dx) entries left at 0.

    On the unit section dy^j = (dy^j/dtheta) dtheta, so only the dtheta
    column is filled.  Surface base only.
    """
    if tp.dim != 2:
        raise FinslerError("chart expansion of the vertical coframe needs a "
                           "2-dimensional base")
    rows = np.zeros(tp.F.shape + (2, 3))
    rows[..., 0, 2] = -tp.y[..., 1] / tp.F
    rows[..., 1, 2] = tp.y[..., 0] / tp.F
    return rows


def _vertical_coframe(tp: TensorPoint):
    """Chart components of delta y^j / F, one row per j; surface base only."""
    rows = _fiber_coframe(tp)
    rows[..., :, :2] = tp.nonlin_scaled
    return rows


def volume_density(tp: TensorPoint):
    """Coefficient of dx1 wedge dx2 wedge dtheta in the volume element.

    Assembled numerically by wedging the chart components of omega, the
    angular-metric rows of d omega, and the vertical coframe, with the
    overall orientation chosen so the flat metric gives density one.  The
    coframe's connection entries are left at 0: they drop out exactly
    (see the module docstring), so the connection is never evaluated.
    """
    if tp.dim != 2:
        raise FinslerError("volume density is implemented for surface bases")
    A = d_omega_matrix(tp)
    vert = _fiber_coframe(tp)
    batch = tp.F.shape
    omega = np.zeros(batch + (3,))
    omega[..., :2] = tp.l_down
    rho = np.zeros(batch)
    beta = np.zeros(batch + (3,))
    for j in range(2):
        beta[..., 0] = A[..., 0, j]
        beta[..., 1] = A[..., 1, j]
        beta[..., 2] = 0.0
        rho = rho + _det3(omega, beta, vert[..., j, :])
    if not np.all(rho > 0.0):
        raise FinslerError("volume density is not positive; metric data is "
                           "inconsistent at some node")
    return rho


def sasaki_chart_metric(tp: TensorPoint):
    """Bundle metric as a 3x3 matrix on the chart (x1, x2, theta)."""
    if tp.dim != 2:
        raise FinslerError("chart form of the bundle metric needs a surface base")
    vert = _vertical_coframe(tp)
    batch = tp.F.shape
    G = np.zeros(batch + (3, 3))
    G[..., :2, :2] = tp.g
    G += np.einsum("...ij,...ia,...jb->...ab", tp.g, vert, vert)
    return G


# -- grid-level tensor data ----------------------------------------------------

@dataclass
class NodeTensors:
    """What the energy and the quadrature read at every bundle node.

    F, g^{-1} and the volume density: 48 bytes per node.  None of them
    needs the connection, so a miss costs only second-order jets.
    """

    F: np.ndarray
    g_inv: np.ndarray
    rho: np.ndarray


# node_tensors evaluates this many nodes at a time (whole x1 rows, at least
# one), so the jets' temporaries stay a few MB and cache-resident however
# large the grid is; only the three output arrays scale with it
_NODES_PER_BLOCK = 1 << 15


def _grid_tensor_point(m, grid, rows=slice(None)):
    """TensorPoint over the bundle nodes of the x1 rows ``rows``."""
    c, s = grid.fiber_directions()
    X1 = grid.x1[rows, None, None]
    X2 = grid.x2[None, :, None]
    return tensor_point(m, (X1, X2), (c[None, None, :], s[None, None, :]))


@lru_cache(maxsize=6)
def node_tensors(m, grid):
    """Evaluate and cache F, g^{-1} and rho over a whole grid."""
    nd = NodeTensors(F=np.empty(grid.shape), g_inv=np.empty(grid.shape + (2, 2)),
                     rho=np.empty(grid.shape))
    step = max(1, _NODES_PER_BLOCK // (grid.ny * grid.ntheta))
    for lo in range(0, grid.nx, step):
        rows = slice(lo, lo + step)
        tp = _grid_tensor_point(m, grid, rows)
        nd.F[rows] = tp.F
        nd.g_inv[rows] = tp.g_inv
        nd.rho[rows] = volume_density(tp)
    return nd


# -- gradient norms and integration --------------------------------------------

def gradient_norm_lift(u, m, grid):
    """|grad u^V| on the bundle for the vertical lift of a base field.

    For a lift the fiber derivative vanishes and the horizontal part
    reduces to sqrt(g^{ij} du_i du_j) with plain base partials.  A pin
    mask on u switches the stencils at the pinned rim (see axis_stencil).
    """
    vals = _values(u)
    if vals.shape != grid.base_shape:
        raise ShapeError("field shape differs from grid base shape")
    nd = node_tensors(m, grid)
    du1, du2 = base_partials(vals, grid, pinned=getattr(u, "pinned", None))
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
