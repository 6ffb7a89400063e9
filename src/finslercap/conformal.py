"""Conformal rescaling, the circle-bundle map, and invariance checks.

Two metrics are conformally related when one is a positive pointwise
rescale of the other, the factor depending on the base point only.  A
planar diffeomorphism f realizes the relation through the bundle map
h(x, theta) = (f(x), angle of f_*(y(theta))); the volume density, the
lifted gradient norm, the condenser energy, and the capacity-based
point functions mu, lambda, nu, rho then transform by explicit powers
of the factor — or not at all.  This module builds such map/metric
pairs, verifies the pointwise transformation rules by exact
differentiation, and compares energies, capacities, and point
functions across the map on matching grids.

The infima behind the point functions run over infinite families of
continua; here each is replaced by a small deterministic catalog of
thickened polylines, so every reported value is an upper bound.
``POINT_FUNCTIONS`` registers mu, lambda, nu and rho; ``catalog``
validates a query once for both ``invariant`` and the cross-map check.
The cross-map comparisons stay meaningful because the image side always
minimizes over the mapped catalog — the discrete minimum runs over
corresponding families on both sides.
"""

from __future__ import annotations

import itertools
import math

from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .bundle import ScalarField, SphereBundleGrid, volume_density
from .capacity import (CondenserSpec, SolverConfig, energy, minimize,
                       minimize_all, rasterize_condenser)
from .errors import DomainError, MapError, ShapeError
from .exprs import ScalarExpr, const, log_radial, precompose_affine
from .maps import PlanarMap, identity_map, image_bbox, power_map, similarity
from .metrics import (MetricSpec, conformal_wrap, euclidean, eval_F, randers,
                      riemannian, tensor_point)
from .shapes import mapped, outer_boundary, point_blob, polyline


@dataclass(frozen=True)
class ConformalMap:
    """A planar map together with the metrics and factor it relates.

    ``target`` pulled back through ``f`` equals ``source`` rescaled by
    exp(sigma); equivalently F_target(f(x), f_*(y)) = exp(sigma(x)) *
    F_source(x, y).  ``domain`` is the source rectangle (a1, a2, b1, b2)
    on which the relation is used and was witnessed.
    """

    f: PlanarMap
    sigma: ScalarExpr
    source: MetricSpec
    target: MetricSpec
    domain: tuple


@dataclass
class CheckReport:
    """Outcome of one numerical identity or invariance check."""

    name: str
    samples: int
    max_rel_err: float
    threshold: float
    passed: bool
    detail: str = ""

    def row(self):
        return (self.name, self.samples, self.max_rel_err, self.threshold,
                self.passed)

    def __str__(self):
        tag = "pass" if self.passed else "FAIL"
        out = (f"{self.name}: max rel err {self.max_rel_err:.3e} "
               f"(threshold {self.threshold:.1e}, {self.samples} samples) "
               f"-> {tag}")
        return out + (f" [{self.detail}]" if self.detail else "")


# -- map/metric pair construction ---------------------------------------------

def _sample_domain(domain, samples, seed):
    a1, a2, b1, b2 = domain
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(a1, b1, samples)
    x2 = rng.uniform(a2, b2, samples)
    th = rng.uniform(0.0, 2.0 * np.pi, samples)
    return x1, x2, th


def _pushforward(cm, x1, x2, c, s, singular):
    """(f(x), f_* y) for y = (c, s); MapError ``singular`` where Df is."""
    J = cm.f.deriv(x1, x2)
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    if np.any(np.abs(det) < 1e-14):
        raise MapError(singular)
    v1 = J[..., 0, 0] * c + J[..., 0, 1] * s
    v2 = J[..., 1, 0] * c + J[..., 1, 1] * s
    return cm.f.apply(x1, x2), (v1, v2)


def conformality_witness(cm, samples=200, seed=1847):
    """Max relative violation of F'(f(x), f_* y) = exp(sigma) F(x, y)."""
    x1, x2, th = _sample_domain(cm.domain, samples, seed)
    c, s = np.cos(th), np.sin(th)
    (f1, f2), (v1, v2) = _pushforward(
        cm, x1, x2, c, s, "map derivative is singular inside the domain")
    lhs = eval_F(cm.target, (f1, f2), (v1, v2))
    rhs = np.exp(cm.sigma((x1, x2))) * eval_F(cm.source, (x1, x2), (c, s))
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))


def conformal_map(f, sigma, source, target, domain, samples=200, seed=1847,
                  tol=1e-10):
    """Assemble and witness-check a map/metric pair; MapError on failure."""
    cm = ConformalMap(f=f, sigma=sigma, source=source, target=target,
                      domain=tuple(float(v) for v in domain))
    err = conformality_witness(cm, samples=samples, seed=seed)
    if not err <= tol:
        raise MapError(f"conformality witness failed: max rel err {err:.3e}")
    return cm


def rescale_map(m, sigma, domain):
    """Identity-map pair between m and its rescale by exp(sigma)."""
    return conformal_map(identity_map(), sigma, m, conformal_wrap(m, sigma),
                         domain)


def _const_matrix(a):
    rows = []
    for row in a:
        vals = []
        for e in row:
            if not (isinstance(e, ScalarExpr) and e.kind == "const"):
                raise MapError("similarity pushforward needs constant "
                               "coefficient fields")
            vals.append(e.params[0])
        rows.append(vals)
    return np.array(rows)


def _push_spec(m, rot, a_inv, shift_inv):
    """Rotate constant coefficients; precompose wrapped factors with f^-1."""
    if m.kind == "euclidean":
        return m
    if m.kind == "riemannian":
        A = rot @ _const_matrix(m.a) @ rot.T
        A = (A + A.T) / 2.0
        return riemannian(tuple(tuple(const(v) for v in row) for row in A))
    if m.kind == "randers":
        A = rot @ _const_matrix(m.a) @ rot.T
        A = (A + A.T) / 2.0
        bv = rot @ _const_matrix((m.b,))[0]
        return randers(tuple(tuple(const(v) for v in row) for row in A),
                       tuple(const(v) for v in bv))
    if m.kind == "conformal":
        return conformal_wrap(_push_spec(m.base, rot, a_inv, shift_inv),
                              precompose_affine(m.sigma, a_inv, shift_inv))
    raise MapError(f"no similarity pushforward for metric kind {m.kind!r}")


def similarity_map(m, scale, angle=0.0, shift=(0.0, 0.0), domain=(-1.0, -1.0, 1.0, 1.0)):
    """Rotation+dilation+shift pair; the factor is the constant dilation.

    Coefficient fields of the source must be constant; they get conjugated
    by the rotation on the target side, and wrapped factors are composed
    with the inverse map, which keeps them in the closed-form catalog.
    """
    f = similarity(scale, angle, shift)
    a11, a12, a21, a22, s1, s2 = f.params
    A = np.array(((a11, a12), (a21, a22)))
    rot = A / scale
    a_inv = np.linalg.inv(A)
    shift_inv = -a_inv @ np.array((s1, s2))
    target = _push_spec(m, rot, tuple(map(tuple, a_inv)), tuple(shift_inv))
    return conformal_map(f, const(math.log(scale)), m, target, domain)


def polar_power_map(p, domain, m=None):
    """Power map pair on a rectangle in the open right half plane."""
    a1 = float(domain[0])
    if a1 <= 0.0:
        raise MapError("polar power domain must satisfy x1 > 0")
    if not 0.0 < float(p) <= 2.0:
        raise MapError("polar power exponent must lie in (0, 2] on this domain")
    if m is None:
        m = euclidean()
    if m.kind != "euclidean":
        raise MapError("polar power pairs are built over the euclidean metric")
    sigma = log_radial(math.log(p), p - 1.0, (0.0, 0.0))
    return conformal_map(power_map(p), sigma, m, m, domain)


# -- the circle-bundle map and its chart Jacobian -------------------------------

def bundle_map(cm, x, theta):
    """h(x, theta) = (f(x), angle of f_* y(theta)); rays map to rays."""
    th = np.asarray(theta, dtype=float)
    fx, (v1, v2) = _pushforward(cm, np.asarray(x[0], dtype=float),
                                np.asarray(x[1], dtype=float), np.cos(th),
                                np.sin(th), "direction pushforward is singular")
    return fx, np.mod(np.arctan2(v2, v1), 2.0 * np.pi)


def _bundle_chart(cm, z):
    """Chart components (f1, f2, theta') from z = (x1, x2, theta); dual-safe."""
    x1, x2, th = z
    c, s = dm.cos(th), dm.sin(th)
    (j11, j12), (j21, j22) = cm.f.deriv_rows(x1, x2)
    v1 = j11 * c + j12 * s
    v2 = j21 * c + j22 * s
    f1, f2 = cm.f.apply(x1, x2)
    return (f1, f2, dm.atan2(v2, v1))


def bundle_map_jacobian(cm, x, theta):
    """Exact 3x3 chart Jacobian of the bundle map, trailing axes (3, 3)."""
    x1 = np.asarray(x[0], dtype=float)
    x2 = np.asarray(x[1], dtype=float)
    th = np.asarray(theta, dtype=float)
    cols = []
    for slot in range(3):
        z = [x1, x2, th]
        z[slot] = dm.Dual(z[slot], np.ones_like(z[slot]))
        outs = _bundle_chart(cm, z)
        cols.append([o.eps if isinstance(o, dm.Dual) else np.zeros_like(th)
                     for o in outs])
    rows = [[np.broadcast_to(np.asarray(cols[b][a], dtype=float), th.shape)
             for b in range(3)] for a in range(3)]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


# -- pointwise pullback checks ---------------------------------------------------

def _density_at(m, x1, x2, th):
    tp = tensor_point(m, (x1, x2), (np.cos(th), np.sin(th)))
    return volume_density(tp)


def check_pullback_volume(cm, samples=1000, seed=1847, tol=1e-6):
    """Volume densities across the map: rho' o h times |det Dh| against
    the factor squared times rho."""
    x1, x2, th = _sample_domain(cm.domain, samples, seed)
    (f1, f2), thp = bundle_map(cm, (x1, x2), th)
    J = bundle_map_jacobian(cm, (x1, x2), th)
    detJ = np.abs(np.linalg.det(J))
    lhs = _density_at(cm.target, f1, f2, thp) * detJ
    rhs = np.exp(2 * cm.sigma((x1, x2))) * _density_at(cm.source, x1, x2, th)
    err = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
    return CheckReport("pullback_volume", samples, err, tol, err <= tol)


def _composed_gradient(expr, pmap, x1, x2):
    def comp(xd, yd):
        return expr(pmap.apply(xd, yd))
    g1 = comp(dm.Dual(x1, np.ones_like(x1)), x2)
    g2 = comp(x1, dm.Dual(x2, np.ones_like(x2)))
    z = np.zeros_like(x1)
    return (g1.eps if isinstance(g1, dm.Dual) else z,
            g2.eps if isinstance(g2, dm.Dual) else z)


def _lift_norm_sq(m, x1, x2, th, du):
    tp = tensor_point(m, (x1, x2), (np.cos(th), np.sin(th)))
    gi = tp.g_inv
    return (gi[..., 0, 0] * du[0] * du[0] + 2.0 * gi[..., 0, 1] * du[0] * du[1]
            + gi[..., 1, 1] * du[1] * du[1])


def check_pullback_energy_density(cm, uprime, samples=500, seed=1847, tol=1e-8):
    """Squared lifted gradient norms, the p = 2 energy densities, across
    the map.

    ``uprime`` is a closed-form expression on the target side, so both
    sides differentiate exactly and the residual isolates the identity.
    """
    x1, x2, th = _sample_domain(cm.domain, samples, seed)
    (f1, f2), thp = bundle_map(cm, (x1, x2), th)
    du_t = _composed_gradient(uprime, identity_map(), f1, f2)
    lhs = _lift_norm_sq(cm.target, f1, f2, thp, du_t)
    du_s = _composed_gradient(uprime, cm.f, x1, x2)
    q = _lift_norm_sq(cm.source, x1, x2, th, du_s)
    rhs = np.exp(-2 * cm.sigma((x1, x2))) * q
    # floor the per-sample scale at a fraction of the field's size so
    # samples where the gradient happens to vanish compare absolutely
    top = float(np.max(np.abs(rhs)))
    scale = np.maximum(np.abs(rhs), max(1e-12 * top, 1e-300))
    err = float(np.max(np.abs(lhs - rhs) / scale))
    return CheckReport("pullback_energy_density", samples, err, tol, err <= tol)


# -- grid-level invariance checks ------------------------------------------------

def image_grid(cm, grid):
    """Same-resolution grid over the bounding box of the mapped rectangle."""
    u1, v1, u2, v2 = image_bbox(cm.f, (grid.x1min, grid.x2min,
                                       grid.x1max, grid.x2max))
    return SphereBundleGrid(u1, u2, v1, v2, nx=grid.nx, ny=grid.ny,
                            ntheta=grid.ntheta)


def _source_region_on(cm, tgrid):
    """Target-grid nodes whose preimages lie in the source rectangle."""
    X1, X2 = tgrid.base_mesh()
    P1, P2 = cm.f.inverse(X1, X2)
    a1, a2, b1, b2 = cm.domain
    return (P1 >= a1) & (P1 <= b1) & (P2 >= a2) & (P2 <= b2)


def check_energy_invariance(cm, uprime, grid, tol=1e-2):
    """Energy of u' on the image against the energy of u' o f on the source.

    The image-side quadrature is restricted to the image of the source
    rectangle, identified exactly through the closed-form inverse map.
    """
    tgrid = image_grid(cm, grid)
    X1, X2 = tgrid.base_mesh()
    u_t = ScalarField(np.asarray(uprime((X1, X2)), dtype=float)
                      * np.ones(tgrid.base_shape))
    region = _source_region_on(cm, tgrid)
    e_t = energy(u_t, cm.target, tgrid, region=region)
    S1, S2 = grid.base_mesh()
    F1, F2 = cm.f.apply(S1, S2)
    u_s = ScalarField(np.asarray(uprime((F1, F2)), dtype=float)
                      * np.ones(grid.base_shape))
    e_s = energy(u_s, cm.source, grid)
    err = abs(e_t - e_s) / max(abs(e_s), abs(e_t), 1e-30)
    return CheckReport("energy_invariance", grid.nx * grid.ny * grid.ntheta,
                       float(err), tol, err <= tol,
                       detail=f"source {e_s:.6g}, image {e_t:.6g}")


def _map_plate(shape, cm):
    if shape.kind == "outer_boundary":
        # ring maps to ring: exact when the map sends the rectangle onto
        # the image grid's rectangle (edge-preserving affine maps)
        return outer_boundary()
    return mapped(shape, cm.f)


def _compare(name, samples, src, tgt, tol, tag):
    """Source value against image value; +inf on both sides reads 0."""
    if math.isinf(src.value) and math.isinf(tgt.value):
        err = 0.0
    else:
        err = abs(tgt.value - src.value) / max(abs(src.value), 1e-30)
    converged = src.converged and tgt.converged
    detail = (f"source {src.value:.6g} ({tag(src)}), "
              f"image {tgt.value:.6g} ({tag(tgt)})")
    if not converged:
        detail += ", solver did not converge"
    return CheckReport(name, samples, float(err), tol,
                       err <= tol and converged, detail=detail)


def check_capacity_invariance(cm, cond, grid, cfg=SolverConfig(), power=2.0,
                              tol=3e-2):
    """Condenser capacity against the capacity of the mapped condenser."""
    src = minimize(cond, cm.source, grid, cfg=cfg, power=power)
    tcond = CondenserSpec(_map_plate(cond.c0, cm), _map_plate(cond.c1, cm))
    tgt = minimize(tcond, cm.target, image_grid(cm, grid), cfg=cfg,
                   power=power)
    return _compare("capacity_invariance", grid.nx * grid.ny, src, tgt, tol,
                    lambda r: f"{r.iterations} its")


# -- the point functions and their candidate catalogs ---------------------

@dataclass(frozen=True)
class InvariantQuery:
    """Points plus the catalog parameters of the candidate continua.

    ``controls`` lists how many interior control points the candidate
    polylines carry (None: (1, 2, 3) for mu, (0, 1) for nu and rho);
    ``offsets`` are the perpendicular displacements of those controls in
    units of ``spread`` times the chord length.  The straight segment
    appears whenever 0 is among the offsets.  Larger catalogs can only
    lower the reported minima.
    """

    points: tuple
    controls: tuple | None = None
    offsets: tuple = (-1.0, 0.0, 1.0)
    spread: float = 0.45
    thickness: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "points",
                           tuple((float(p[0]), float(p[1]))
                                 for p in self.points))
        if self.controls is not None:
            object.__setattr__(self, "controls",
                               tuple(int(k) for k in self.controls))
        object.__setattr__(self, "offsets",
                           tuple(float(o) for o in self.offsets))


def _offset_combos(k, offsets):
    if k <= 2:
        return list(itertools.product(offsets, repeat=k))
    return [(o,) * k for o in offsets]


def compact_candidates(pa, pb, thick, controls, offsets, spread):
    """Thickened polylines joining two points; controls on a coarse lattice.

    Control points sit at even fractions along the chord, displaced
    perpendicularly by the catalog offsets.  A zero-length chord collapses
    the family to a blob at the point.
    """
    ax, ay = pa
    bx, by = pb
    vx, vy = bx - ax, by - ay
    L = math.hypot(vx, vy)
    if L == 0.0:
        return [point_blob(ax, ay, thick)]
    px, py = -vy / L, vx / L
    cands = []
    for k in controls:
        if k == 0:
            cands.append(polyline(((ax, ay), (bx, by)), thick))
            continue
        fracs = [(i + 1.0) / (k + 1.0) for i in range(k)]
        for combo in _offset_combos(k, offsets):
            pts = [(ax, ay)]
            for f, o in zip(fracs, combo):
                d = o * spread * L
                pts.append((ax + f * vx + d * px, ay + f * vy + d * py))
            pts.append((bx, by))
            cands.append(polyline(pts, thick))
    return list(dict.fromkeys(cands))


def boundary_candidates(p, grid, thick):
    """Thickened polylines from a point to each side of the rectangle."""
    px, py = p
    exits = ((grid.x1min, py), (grid.x1max, py), (px, grid.x2min),
             (px, grid.x2max))
    return [polyline(((px, py), e), thick) for e in exits]


@dataclass
class InvariantResult:
    """Catalog minimum with per-candidate bookkeeping.

    ``skipped`` counts the candidates dropped as unusable on the grid
    (plates closer than two cells, or a plate that rasterizes to no node);
    their entries in ``candidate_values`` read +inf.  A candidate whose
    plates overlap has the value +inf by rule and is not skipped.
    """

    value: float
    winner: int
    candidate_values: tuple
    converged: bool
    skipped: int = 0
    continuum: CondenserSpec | None = None


def _outcome(res):
    """(value, converged) of a candidate's result, or None for a candidate
    dropped as unusable at this resolution (a ShapeError); mapped over the
    results, so no minimizer outlives its batch."""
    if isinstance(res, ShapeError):
        return None
    return res.value, res.converged


def _solve_catalog(name, pairs, m, grid, cfg, power):
    # candidates whose plates rasterize alike pose one discrete problem;
    # each is rasterized once, and its plate pair kept as packed bits, the
    # dedupe key, until the batch that solves it unpacks it
    keys = [np.packbits(rasterize_condenser(c, grid)).tobytes() for c in pairs]
    distinct = list(dict.fromkeys(keys))
    shape = (2,) + grid.base_shape
    plates = (np.unpackbits(np.frombuffer(k, dtype=np.uint8),
                            count=math.prod(shape)).view(bool).reshape(shape)
              for k in distinct)
    solved = dict(zip(distinct, map(_outcome, minimize_all(
        plates, m, grid, cfg=cfg, power=power))))
    outs = [solved[k] for k in keys]
    skipped = outs.count(None)
    vals = tuple(math.inf if o is None else o[0] for o in outs)
    best, bi = math.inf, -1
    for i, v in enumerate(vals):
        if v < best:
            best, bi = v, i
    if bi >= 0:
        return InvariantResult(best, bi, vals, outs[bi][1], skipped,
                               pairs[bi])
    if skipped:
        # a dropped candidate's value is unknown, so +inf would be no bound
        raise ShapeError(f"{name}: no candidate has a finite value and "
                         f"{skipped} of {len(outs)} were dropped as unusable "
                         "on this grid; refine the grid or move the points")
    # every candidate has overlapping plates: +inf by rule
    return InvariantResult(math.inf, -1, vals, True)


def _joins(pair, q, thick, default_controls):
    """Continua joining a canonically ordered pair of the query's points."""
    pa, pb = sorted(pair)
    controls = default_controls if q.controls is None else q.controls
    return compact_candidates(pa, pb, thick, controls, q.offsets, q.spread)


def _mu(q, grid, thick):
    """Joins of the two points against the outer ring (truncation: an
    upper bound for the infimum over all continua)."""
    return [CondenserSpec(outer_boundary(), C)
            for C in _joins(q.points, q, thick, (1, 2, 3))]


def _lambda(q, grid, thick):
    """Pairs of boundary-reaching continua through the two points."""
    pa, pb = sorted(q.points)
    return [CondenserSpec(c0, c1)
            for c0 in boundary_candidates(pa, grid, thick)
            for c1 in boundary_candidates(pb, grid, thick)]


def _nu(q, grid, thick):
    """Boundary continua through the third point against joins of the first
    two."""
    c1s = _joins(q.points[:2], q, thick, (0, 1))
    return [CondenserSpec(c0, c1)
            for c0 in boundary_candidates(q.points[2], grid, thick)
            for c1 in c1s]


def _rho(q, grid, thick):
    """Continua joining the first pair against continua joining the second."""
    c0s = _joins(q.points[:2], q, thick, (0, 1))
    c1s = _joins(q.points[2:], q, thick, (0, 1))
    return [CondenserSpec(c0, c1) for c0 in c0s for c1 in c1s]


# name -> (number of points, catalog builder)
POINT_FUNCTIONS = {
    "mu": (2, _mu),
    "lambda": (2, _lambda),
    "nu": (3, _nu),
    "rho": (4, _rho),
}


def rho_overlap_rule(points):
    """Classify a 4-point query: 'degenerate', 'overlap', or 'ok'.

    Three or more coincident points form the excluded degenerate set;
    a shared point between the pairs {x1,x2} and {x3,x4} forces the
    value +inf before any solve.
    """
    pts = [tuple(map(float, p)) for p in points]
    if len(pts) != 4:
        raise DomainError("the 4-point function takes exactly four points")
    for p in pts:
        if sum(1 for u in pts if u == p) >= 3:
            return "degenerate"
    if {pts[0], pts[1]} & {pts[2], pts[3]}:
        return "overlap"
    return "ok"


def catalog(name, q, grid):
    """Candidate condensers of the point function ``name`` at ``q``.

    The one place a query is validated: a wrong number of points, the
    degenerate set (all points coincide; for rho, three, by
    ``rho_overlap_rule``), a point outside the grid rectangle and an empty
    catalog raise DomainError.  None means +inf by rho's overlap rule; it
    is returned only for points inside the grid.
    """
    arity, build = POINT_FUNCTIONS[name]
    if len(q.points) != arity:
        raise DomainError(f"{name} takes exactly {arity} points, "
                          f"got {len(q.points)}")
    verdict = rho_overlap_rule(q.points) if name == "rho" else "ok"
    if verdict == "degenerate":
        raise DomainError("rho: at least three of the four points coincide")
    if len(set(q.points)) == 1:
        raise DomainError(f"{name}: all {arity} points coincide")
    for (px, py) in q.points:
        if not (grid.x1min < px < grid.x1max and grid.x2min < py < grid.x2max):
            raise DomainError(f"{name}: point ({px}, {py}) lies outside "
                              "the grid rectangle")
    if verdict == "overlap":
        return None
    thick = (q.thickness if q.thickness is not None
             else 1.25 * max(grid.dx1, grid.dx2))
    pairs = build(q, grid, thick)
    if not pairs:
        raise DomainError(f"{name}: empty catalog; give controls and offsets")
    return pairs


def invariant(name, q, m, grid, cfg=SolverConfig(), power=2.0):
    """Catalog minimum of the point function ``name`` on the metric m."""
    pairs = catalog(name, q, grid)
    if pairs is None:
        return InvariantResult(math.inf, -1, (), True)
    return _solve_catalog(name, pairs, m, grid, cfg, power)


def check_invariant_invariance(cm, name, q, grid, cfg=SolverConfig(),
                               power=2.0, tol=5e-2):
    """The point function on (source, points) against (target, mapped
    points), minimizing over the mapped candidate catalog on the image
    side so both minima run over corresponding families."""
    pairs = catalog(name, q, grid)
    if pairs is None:
        return CheckReport(f"invariance_{name}", 0, 0.0, tol, True,
                           detail="+inf on both sides")
    src = _solve_catalog(name, pairs, cm.source, grid, cfg, power)
    tpairs = [CondenserSpec(_map_plate(c.c0, cm), _map_plate(c.c1, cm))
              for c in pairs]
    tgt = _solve_catalog(name, tpairs, cm.target, image_grid(cm, grid), cfg,
                         power)
    return _compare(f"invariance_{name}", len(pairs), src, tgt, tol,
                    lambda r: f"cand {r.winner}")
