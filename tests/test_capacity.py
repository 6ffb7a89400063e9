import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslercap import bundle
from finslercap.bundle import (ScalarField, SphereBundleGrid, fiber_form,
                               integrate)
import finslercap.capacity as capacity
from finslercap.capacity import (CondenserSpec, EnergyFunctional, SolverConfig,
                                 cap_compact, energy, energy_gradient,
                                 minimize, minimize_all, rasterize_condenser)
from finslercap.errors import ShapeError
from finslercap.exprs import const, exponential, linear, sinusoid
from finslercap.metrics import (conformal_wrap, euclidean,
                                identity_matrix_field, randers, riemannian)
from finslercap.shapes import (disk, disk_complement, mapped, outer_boundary,
                               point_blob, polyline, rect_complement,
                               rectangle, segment)
from finslercap.maps import similarity

EUCLID = euclidean()
CONF = conformal_wrap(EUCLID, sinusoid(0.3, (1.0, 0.7)))
RANDERS = randers(identity_matrix_field(), (const(0.3), const(0.1)))


def grid(n=24, ntheta=8, half=2.0):
    return SphereBundleGrid(-half, half, -half, half, nx=n, ny=n,
                            ntheta=ntheta)


def is_monotone(u, grid, tol=1e-12, free=None):
    """Check that sup and inf over every sub-rectangle sit on its boundary.

    Scans all index sub-rectangles with nonempty interior.  When ``free``
    is given (boolean base mask), rectangles whose interior meets an
    excluded node are skipped: a minimizer is only expected to be monotone
    away from the plates that pin it.  Returns (True, None) or
    (False, witness) where the witness records the first offending
    rectangle as index bounds (i1, i2, j1, j2) and which extremum failed.
    Quadratic-in-area cost; intended for moderate grids.
    """
    vals = np.asarray(getattr(u, "values", u), dtype=float)
    H, W = vals.shape
    if free is None:
        excl = np.zeros((H, W), dtype=bool)
    else:
        excl = ~np.asarray(free, dtype=bool)
        if excl.shape != vals.shape:
            raise ShapeError("free mask shape does not match the field")
    for j1 in range(W - 2):
        colmax = vals[:, j1].copy()
        colmin = vals[:, j1].copy()
        intmax = np.full(H, -np.inf)
        intmin = np.full(H, np.inf)
        intexcl = np.zeros(H, dtype=bool)
        for j2 in range(j1 + 2, W):
            colmax = np.maximum(colmax, vals[:, j2 - 1])
            colmin = np.minimum(colmin, vals[:, j2 - 1])
            intmax = np.maximum(intmax, vals[:, j2 - 1])
            intmin = np.minimum(intmin, vals[:, j2 - 1])
            intexcl |= excl[:, j2 - 1]
            cmax = np.maximum(colmax, vals[:, j2])
            cmin = np.minimum(colmin, vals[:, j2])
            edgemax = np.maximum(vals[:, j1], vals[:, j2])
            edgemin = np.minimum(vals[:, j1], vals[:, j2])
            for i1 in range(H - 2):
                keep = ~np.logical_or.accumulate(intexcl[i1 + 1:H - 1])
                run_int_max = np.maximum.accumulate(intmax[i1 + 1:H - 1])
                run_edge_max = np.maximum.accumulate(edgemax[i1 + 1:H - 1])
                bound = np.maximum(np.maximum(cmax[i1], cmax[i1 + 2:]),
                                   run_edge_max)
                bad = (run_int_max > bound + tol) & keep
                if bad.any():
                    i2 = i1 + 2 + int(np.argmax(bad))
                    return False, {"rect": (i1, i2, j1, j2), "extremum": "max"}
                run_int_min = np.minimum.accumulate(intmin[i1 + 1:H - 1])
                run_edge_min = np.minimum.accumulate(edgemin[i1 + 1:H - 1])
                bound = np.minimum(np.minimum(cmin[i1], cmin[i1 + 2:]),
                                   run_edge_min)
                bad = (run_int_min < bound - tol) & keep
                if bad.any():
                    i2 = i1 + 2 + int(np.argmax(bad))
                    return False, {"rect": (i1, i2, j1, j2), "extremum": "min"}
    return True, None


# -- shape catalog ---------------------------------------------------------------

def test_disk_membership_and_complement():
    d = disk(0.5, -0.5, 1.0)
    assert d.contains(0.5, -0.5) and d.contains(1.5, -0.5)
    assert not d.contains(1.6, -0.5)
    c = disk_complement(0.5, -0.5, 1.0)
    assert not c.contains(0.5, -0.5) and c.contains(1.7, -0.5)


def test_rectangle_membership():
    r = rectangle(-1.0, -0.5, 1.0, 0.5)
    assert r.contains(0.0, 0.0) and not r.contains(0.0, 0.6)
    rc = rect_complement(-1.0, -0.5, 1.0, 0.5)
    assert not rc.contains(0.0, 0.0) and rc.contains(0.0, 0.6)
    assert rc.contains(1.0, 0.5)  # closed complement keeps its boundary


def test_polyline_thickening():
    p = polyline(((-1.0, 0.0), (0.0, 0.0), (0.0, 1.0)), 0.2)
    assert p.contains(-0.5, 0.1)
    assert p.contains(0.05, 0.9)
    assert not p.contains(-0.5, 0.3)
    assert not p.contains(0.4, 0.4)


def test_degenerate_segment_is_a_point_blob():
    s = segment((0.3, 0.3), (0.3, 0.3), 0.15)
    b = point_blob(0.3, 0.3, 0.15)
    g = grid()
    np.testing.assert_array_equal(s.rasterize(g), b.rasterize(g))


def test_polyline_needs_two_points():
    with pytest.raises(ShapeError):
        polyline(((0.0, 0.0),), 0.1)


def test_outer_boundary_is_the_index_ring():
    g = grid(n=6)
    mask = outer_boundary().rasterize(g)
    inner = np.zeros((6, 6), dtype=bool)
    inner[1:-1, 1:-1] = True
    np.testing.assert_array_equal(mask, ~inner)


def test_mapped_shape_tracks_the_map():
    pm = similarity(2.0, math.pi / 2, (0.1, -0.3))
    shape = mapped(disk(0.5, 0.0, 0.2), pm)
    fx, fy = pm.apply(0.5, 0.0)
    assert shape.contains(fx, fy)
    assert not shape.contains(fx + 0.5, fy)
    with pytest.raises(ShapeError):
        mapped(outer_boundary(), pm)


# -- discrete energy -------------------------------------------------------------

def test_energy_linear_field_closed_form():
    g = grid(n=20)
    X1, X2 = g.base_mesh()
    u = 0.7 * X1 - 0.4 * X2
    slope = math.hypot(0.7, 0.4)
    area = 16.0
    assert energy(u, EUCLID, g) == pytest.approx(
        slope ** 2 * 2 * math.pi * area, rel=1e-12)


def test_energy_power_parameter():
    g = grid(n=20)
    X1, X2 = g.base_mesh()
    u = 0.7 * X1 - 0.4 * X2
    slope = math.hypot(0.7, 0.4)
    assert energy(u, EUCLID, g, power=3.0) == pytest.approx(
        slope ** 3 * 2 * math.pi * 16.0, rel=1e-12)


def test_energy_matches_lifted_norm_integral():
    from finslercap.bundle import gradient_norm_lift
    g = grid(n=16)
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(g.base_shape)
    for m in (EUCLID, CONF, RANDERS):
        direct = energy(vals, m, g)
        norm = gradient_norm_lift(vals, m, g).values
        assert direct == pytest.approx(integrate(norm ** 2, m, g), rel=1e-12)


_FOLD_A = ((exponential(1.0, (0.3, 0.1)), const(0.1)),
           (const(0.1), const(1.2)))
_FOLD_METRICS = {
    "riemannian": riemannian(((exponential(1.0, (0.6, -0.2)), const(0.2)),
                              (const(0.2), const(1.3)))),
    # |b|_a = 0.7 exactly: b = 0.7 L e for a = L L^T and a unit e
    "randers": randers(((const(1.3), const(-0.3)), (const(-0.3), const(0.9))),
                       tuple(const(0.7 * v) for v in np.linalg.cholesky(
                           [[1.3, -0.3], [-0.3, 0.9]]) @ (0.6, 0.8))),
    "conformal-randers": conformal_wrap(
        randers(_FOLD_A, (linear(0.45, 0.1, 0.0), const(-0.2))),
        sinusoid(0.3, (1.0, 0.7), 0.4)),
}


def _fold_closed_form(m, X1, X2):
    """M(x) from the catalog's coefficient fields alone."""
    while m.kind == "conformal":
        m = m.base
    shape = X1.shape
    a = np.empty(shape + (2, 2))
    for i in range(2):
        for j in range(2):
            a[..., i, j] = m.a[i][j]((X1, X2))
    b = np.zeros(shape + (2,))
    if m.b is not None:
        for i in range(2):
            b[..., i] = m.b[i]((X1, X2))
    w, V = np.linalg.eigh(a)
    a_mhalf = V @ (V / np.sqrt(w)[..., None, :]).swapaxes(-1, -2)
    bt = np.einsum("...ij,...j->...i", a_mhalf, b)
    k2 = np.sum(bt * bt, axis=-1)
    assert float(np.max(k2)) <= 0.7 ** 2 * (1.0 + 1e-12)
    s = np.sqrt(1.0 - k2)[..., None, None]
    P = (bt[..., :, None] * bt[..., None, :]
         / np.maximum(k2, 1e-300)[..., None, None])
    inner = 4.0 * np.pi / (1.0 + s) * ((np.eye(2) - P) + P / s)
    return (np.sqrt(np.linalg.det(a))[..., None, None]
            * (a_mhalf @ inner @ a_mhalf))


@pytest.mark.parametrize("name", sorted(_FOLD_METRICS))
def test_p2_fiber_fold_matches_its_closed_form(name):
    """The p = 2 energy reads M = sum_theta rho g^{-1} dtheta, which is
    base_form / (dx1 dx2).  With s = sqrt(1 - |b|_a^2), b~ = a^(-1/2) b and
    P = b~ b~^T / |b~|^2,

        M = sqrt(det a) a^(-1/2) [4 pi / (1 + s) ((I - P) + P / s)] a^(-1/2).

    Derivation.  By the closed forms of the bundle module (det g_b = r^3
    det a, rho = exp(2 sigma) det a r / alpha^2), rho g^{-1} =
    adj(g_b) / F_b^2, so sigma drops out: the p = n = 2 invariance.  The
    form adj(g_b(y)) / F_b(y)^2 (y x dy) does not change under y -> t y,
    so the integral may run over any loop around 0.  With y = T z, T =
    a^(-1/2): F_b(T z) = |z| + b~ . z =: F~(z), g~ = T^T g_b T, adj(g_b) =
    T adj(g~) T^T / det(T)^2 and y x dy = det T (z x dz), so M =
    sqrt(det a) T M~ T with M~ the integral for F~.  Rotate b~ to k e_1,
    k = |b~| = |b|_a, and put z = (cos phi, sin phi) =: (c, s'): then
    l = z + k e_1, r = F~ = 1 + k c and

        adj(g~) = [[1 + k c^3,  -k s'^3],
                   [-k s'^3,    1 + k^2 + 2 k c + k c s'^2]].

    The off-diagonal entry is odd in phi and integrates to 0.  With
    u = 1 + k c and I_n = integral of u^(-n) dphi, I_1 = 2 pi / s and
    I_2 = 2 pi / s^3.  Writing c = (u - 1) / k, M~_11 = I_2 + (3 I_1 - I_2
    - 4 pi) / k^2 = 4 pi / (s (1 + s)) and M~_11 + M~_22 = 3 I_1 - s^2 I_2
    = 4 pi / s, so M~_22 = 4 pi / (1 + s).  For b = 0 this is
    2 pi sqrt(det a) a^(-1).  The oracle reads the coefficient fields
    directly and calls neither node_tensors nor tensor_point; the
    midpoint rule in theta converges spectrally, so 256 fiber nodes
    reproduce the integral to rounding for |b|_a <= 0.7.
    """
    m = _FOLD_METRICS[name]
    g = SphereBundleGrid(-1.0, 1.0, -0.8, 0.9, nx=5, ny=4, ntheta=256)
    M = EnergyFunctional(m, g, 2.0).base_form / (g.dx1 * g.dx2)
    exact = _fold_closed_form(m, *g.base_mesh())
    err = np.max(np.abs(M - exact), axis=(-2, -1))
    assert float(np.max(err / np.max(np.abs(exact), axis=(-2, -1)))) <= 1e-13


def test_p2_energy_and_solve_never_build_node_tensors(monkeypatch):
    def refuse(m, grid):
        raise AssertionError("node_tensors called on the p = 2 path")

    monkeypatch.setattr(bundle, "node_tensors", refuse)
    monkeypatch.setattr(capacity, "node_tensors", refuse)
    fiber_form.cache_clear()
    g = grid(n=20)
    X1, X2 = g.base_mesh()
    u = np.sin(X1) * X2
    region = X1 < 0.3
    full = EnergyFunctional(CONF, g)
    part = EnergyFunctional(CONF, g, region=region)
    assert np.array_equal(part.base_form,
                          np.where(region[..., None, None], full.base_form,
                                   0.0))
    assert 0.0 < part.value(u) < full.value(u)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.5), disk(0.0, 0.0, 0.6))
    res = minimize(cond, CONF, g, cfg=SolverConfig(tol=1e-6))
    assert res.converged and math.isfinite(res.value) and res.value > 0.0


def test_p2_solve_memory_does_not_grow_with_the_fiber(monkeypatch):
    """The traced peak of a p = 2 solve on one base grid stays flat in
    ntheta: from 8 to 64 fiber nodes it grows by less than one
    (nx, ny, 64) float64 array.  A block of one x1 row at ntheta = 8 makes
    the block cap apply at both resolutions."""
    n = 48
    monkeypatch.setattr(bundle, "_NODES_PER_BLOCK", n * 8)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.5), disk(0.0, 0.0, 0.6))
    peaks = {}
    for ntheta in (8, 64):
        g = grid(n=n, ntheta=ntheta)
        fiber_form.cache_clear()
        tracemalloc.start()
        try:
            res = minimize(cond, RANDERS, g, cfg=SolverConfig(tol=1e-6))
            peaks[ntheta] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
    assert peaks[64] - peaks[8] < n * n * 64 * 8, peaks


def test_energy_gradient_matches_finite_differences():
    g = grid(n=16)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.6), disk(0.0, 0.0, 0.6))
    m0, m1 = rasterize_condenser(cond, g)
    pinned = m0 | m1
    rng = np.random.default_rng(4)
    for m in (EUCLID, CONF, RANDERS):
        vals = np.where(m1, 1.0, rng.uniform(0, 1, g.base_shape))
        vals = np.where(m0, 0.0, vals)
        u = ScalarField(vals, pinned=pinned)
        v = np.where(pinned, 0.0, rng.standard_normal(g.base_shape))
        exact = float(np.sum(energy_gradient(u, m, g) * v))
        eps = 1e-6
        fd = (energy(ScalarField(vals + eps * v, pinned=pinned), m, g)
              - energy(ScalarField(vals - eps * v, pinned=pinned), m, g)) \
            / (2 * eps)
        assert fd == pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_hessian_form_matches_finite_differences_of_the_gradient(p):
    g = grid(n=16)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.6), disk(0.0, 0.0, 0.6))
    m0, m1 = rasterize_condenser(cond, g)
    pinned = m0 | m1
    rng = np.random.default_rng(5)
    for m in (EUCLID, CONF, RANDERS):
        func = EnergyFunctional(m, g, power=p, pinned=pinned)
        u = np.where(m1, 1.0, np.where(m0, 0.0,
                                       rng.uniform(0, 1, g.base_shape)))
        v = np.where(pinned, 0.0, rng.standard_normal(g.base_shape))
        exact = func.apply_form(func.hessian_form(u), v)
        eps = 1e-6
        fd = (func.gradient(u + eps * v) - func.gradient(u - eps * v)) / (2 * eps)
        assert np.max(np.abs(fd - exact)) <= 1e-6 * np.max(np.abs(exact))


def test_energy_gradient_zero_at_pins():
    g = grid(n=16)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.6), disk(0.0, 0.0, 0.6))
    m0, m1 = rasterize_condenser(cond, g)
    u = ScalarField(np.where(m1, 1.0, 0.3), pinned=m0 | m1)
    grad = energy_gradient(u, EUCLID, g)
    assert np.all(grad[m0 | m1] == 0.0)


# -- the solver ------------------------------------------------------------------

def test_annulus_capacity_near_closed_form():
    g = SphereBundleGrid(-2, 2, -2, 2, nx=48, ny=48, ntheta=8)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 0.5 * math.e),
                         disk(0.0, 0.0, 0.5))
    res = minimize(cond, EUCLID, g, cfg=SolverConfig(tol=1e-6))
    assert res.converged
    exact = 4 * math.pi ** 2
    assert res.value == pytest.approx(exact, rel=0.12)


def test_minimizer_is_admissible_and_monotone():
    g = SphereBundleGrid(-2, 2, -2, 2, nx=32, ny=32, ntheta=8)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.5), disk(0.0, 0.0, 0.6))
    res = minimize(cond, EUCLID, g, cfg=SolverConfig(tol=1e-6))
    u = res.minimizer
    m0, m1 = rasterize_condenser(cond, g)
    assert np.all(u.values[m0] == 0.0) and np.all(u.values[m1] == 1.0)
    assert np.all((u.values >= -1e-9) & (u.values <= 1 + 1e-9))
    # monotone away from the plates; rectangles swallowing a plate would
    # trap its pinned extremum in their interior
    ok, witness = is_monotone(u, g, tol=1e-7, free=~(m0 | m1))
    assert ok, witness
    ok, witness = is_monotone(u, g, tol=1e-7)
    assert not ok and witness["extremum"] == "max"


def test_energy_history_decreases():
    g = grid(n=24)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.5), disk(0.0, 0.0, 0.6))
    res = minimize(cond, CONF, g, cfg=SolverConfig(tol=1e-6))
    hist = np.array(res.energy_history)
    assert np.all(np.diff(hist) <= 1e-12)


@pytest.mark.parametrize("m", [EUCLID, RANDERS], ids=["euclid", "randers"])
def test_p2_solve_matches_dense_discrete_minimum(m):
    # the free-node matrix, assembled column by column from the operator
    # the solver applies, gives the exact discrete minimizer
    g = grid(n=20)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.6), disk(0.0, 0.0, 0.6))
    m0, m1 = rasterize_condenser(cond, g)
    pinned = m0 | m1
    func = EnergyFunctional(m, g, power=2.0, pinned=pinned)
    free = np.flatnonzero(~pinned)
    cols = []
    for k in free:
        e = np.zeros(g.base_shape)
        e.flat[k] = 1.0
        cols.append(0.5 * func.gradient(e).ravel()[free])
    A = np.array(cols).T
    assert np.allclose(A, A.T, rtol=0.0, atol=1e-12 * np.abs(A).max())
    u = np.where(m1, 1.0, 0.0)
    b = -0.5 * func.gradient(u).ravel()[free]
    u.flat[free] = np.linalg.solve(A, b)
    exact = func.value(u)
    res = minimize(cond, m, g, cfg=SolverConfig(tol=1e-10))
    assert res.converged
    assert res.value == pytest.approx(exact, rel=1e-9)
    assert np.max(np.abs(res.minimizer.values - u)) < 1e-8


def test_p2_range_fallback_returns_an_admissible_minimizer(monkeypatch):
    g = grid(n=24)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.5), disk(0.0, 0.0, 0.6))
    cfg = SolverConfig(tol=1e-6)
    plain = minimize(cond, CONF, g, cfg=cfg)
    cg = capacity._conjugate_gradient

    def overshoot(func, u, pinned, cfg):
        u, history, it, res = cg(func, u, pinned, cfg)
        u = np.where(pinned, u, 1.5 * u - 0.25)  # leaves [0, 1] both ways
        return u, history, it, res

    calls = []
    gradient = EnergyFunctional.gradient

    def counting(self, u):
        calls.append(1)
        return gradient(self, u)

    monkeypatch.setattr(capacity, "_conjugate_gradient", overshoot)
    monkeypatch.setattr(EnergyFunctional, "gradient", counting)
    res = minimize(cond, CONF, g, cfg=cfg)
    m0, m1 = rasterize_condenser(cond, g)
    u = res.minimizer.values
    assert res.converged and res.final_gradient_norm < cfg.tol
    assert np.all(u[m0] == 0.0) and np.all(u[m1] == 1.0)
    assert np.all((u >= 0.0) & (u <= 1.0))
    assert len(calls) == res.iterations + 1
    assert res.value == pytest.approx(plain.value, rel=1e-6)


def batch_sizes(monkeypatch):
    """Leading sizes of the fields handed to EnergyFunctional.gradient: the
    batch size for a batched call, 0 for a single base field."""
    sizes = []
    gradient = EnergyFunctional.gradient

    def recording(self, u):
        sizes.append(u.shape[0] if np.ndim(u) == 3 else 0)
        return gradient(self, u)

    monkeypatch.setattr(EnergyFunctional, "gradient", recording)
    return sizes


def same_result(a, b):
    """Bit for bit: value, iterations, residual, convergence, history and
    minimizer."""
    return (a.value == b.value and a.iterations == b.iterations
            and a.final_gradient_norm == b.final_gradient_norm
            and a.converged == b.converged
            and a.energy_history == b.energy_history
            and a.minimizer.values.tobytes() == b.minimizer.values.tobytes()
            and np.array_equal(a.minimizer.pinned, b.minimizer.pinned))


@pytest.mark.parametrize("m", [EUCLID, RANDERS, CONF],
                         ids=["euclid", "randers", "conformal"])
def test_batched_candidates_match_their_batch_of_one(monkeypatch, m):
    g = grid(n=24)
    cfg = SolverConfig(tol=1e-6)
    ring = disk_complement(0.0, 0.0, 1.6)
    conds = [CondenserSpec(ring, disk(0.0, 0.0, 0.6)),
             CondenserSpec(ring, disk(0.3, -0.2, 0.4)),
             CondenserSpec(outer_boundary(),
                           polyline(((-0.6, -0.3), (0.1, 0.4), (0.6, 0.3)),
                                    0.2)),
             CondenserSpec(ring, rectangle(-0.5, -0.2, 0.4, 0.3))]
    alone = [minimize(c, m, g, cfg=cfg) for c in conds]
    sizes = batch_sizes(monkeypatch)
    together = list(minimize_all([rasterize_condenser(c, g) for c in conds],
                                 m, g, cfg=cfg))
    for a, b in zip(together, alone):
        assert a.converged and same_result(a, b)
    # one batch of four, run until its slowest candidate stops
    its = [r.iterations for r in alone]
    assert len(set(its)) > 1
    assert sizes == [len(conds)] * (max(its) + 1)


def test_row_dots_sum_as_vdot_does():
    # the batched CG loop relies on it: each row's dot is the one that row
    # gets alone, whatever the batch size
    rng = np.random.default_rng(11)
    for shape in ((1, 24, 24), (13, 24, 24), (3, 64, 37)):
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        assert capacity._rowdot(a, b).tolist() == [
            float(np.vdot(x, y)) for x, y in zip(a, b)]


def test_functional_rejects_pin_masks_off_the_grid():
    g = grid(n=12)
    with pytest.raises(ShapeError, match="base shape"):
        EnergyFunctional(EUCLID, g, pinned=np.zeros((12, 11), dtype=bool))
    batch = np.zeros((2, 12, 12), dtype=bool)
    EnergyFunctional(EUCLID, g, pinned=batch)
    with pytest.raises(ShapeError, match="p = 2"):
        EnergyFunctional(EUCLID, g, power=3.0, pinned=batch)


def test_mixed_batch_gives_each_candidate_its_own_answer(monkeypatch):
    g = grid(n=24)
    cfg = SolverConfig(tol=1e-6)
    ring = disk_complement(0.0, 0.0, 1.5)
    finite = CondenserSpec(ring, disk(0.0, 0.0, 0.6))
    forced = CondenserSpec(ring, disk(0.2, 0.1, 0.4))
    other = CondenserSpec(outer_boundary(), disk(-0.3, 0.2, 0.5))
    overlap = CondenserSpec(disk(0.0, 0.0, 0.5), disk(0.3, 0.0, 0.5))
    # disjoint, but closer than two cells
    dropped = CondenserSpec(disk(0.0, 0.0, 0.5), disk(0.9, 0.0, 0.2))
    empty = CondenserSpec(ring, disk(0.05, 0.05, 0.01))
    conds = [overlap, finite, dropped, forced, empty, other]
    plain = minimize(forced, CONF, g, cfg=cfg)

    target = np.logical_or(*rasterize_condenser(forced, g))
    cg = capacity._conjugate_gradient

    def overshoot(func, u, pinned, cfg):
        u, histories, its, res = cg(func, u, pinned, cfg)
        hit = np.array([np.array_equal(p, target) for p in pinned])
        # leaves [0, 1] both ways on the forced candidate only
        u = np.where(hit[:, None, None] & ~pinned, 1.5 * u - 0.25, u)
        return u, histories, its, res

    monkeypatch.setattr(capacity, "_conjugate_gradient", overshoot)
    expected = []
    for c in conds:
        try:
            expected.append(minimize(c, CONF, g, cfg=cfg))
        except ShapeError as exc:
            expected.append(exc)
    sizes = batch_sizes(monkeypatch)
    got = list(minimize_all([rasterize_condenser(c, g) for c in conds], CONF,
                            g, cfg=cfg))
    assert len(got) == len(conds)
    assert math.isinf(got[0].value) and got[0].converged
    assert got[0].iterations == 0 and got[0].minimizer is None
    for k in (2, 4):
        assert isinstance(got[k], ShapeError)
        assert str(got[k]) == str(expected[k])
    assert "closer than two cells" in str(got[2])
    assert "no node" in str(got[4])
    for k in (1, 3, 5):
        assert same_result(got[k], expected[k])
    fallback = got[3]
    u = fallback.minimizer.values
    assert fallback.converged and fallback.iterations > plain.iterations + 1
    assert np.all((u >= 0.0) & (u <= 1.0))
    assert fallback.value == pytest.approx(plain.value, rel=1e-6)
    # one batch of the three solvable candidates; the fallback candidate
    # took part in plain.iterations + 1 of its calls and finished alone
    batched = [s for s in sizes if s]
    assert set(batched) == {3}
    assert plain.iterations + 1 + sizes.count(0) == fallback.iterations + 1


@pytest.mark.filterwarnings("error")
def test_power_below_two_converges_without_nan():
    # q ** (p/2 - 1) is singular where the gradient vanishes
    g = SphereBundleGrid(-2, 2, -2, 2, nx=32, ny=32, ntheta=8)
    r, R, p = 0.7, 0.7 * math.e, 1.5
    cond = CondenserSpec(disk_complement(0.0, 0.0, R), disk(0.0, 0.0, r))
    res = minimize(cond, EUCLID, g, cfg=SolverConfig(tol=1e-6), power=p)
    assert res.converged and math.isfinite(res.value)

    def closed(r, R):
        a = (p - 2.0) / (p - 1.0)
        return 4 * math.pi ** 2 * abs(a) ** (p - 1) * abs(R ** a - r ** a) ** (1 - p)

    # first order: both plate circles may sit up to half a cell off
    d = 0.5 * 4.0 / 32
    exact = closed(r, R)
    bound = max(abs(closed(r + d, R - d) / exact - 1),
                abs(closed(r - d, R + d) / exact - 1))
    assert abs(res.value / exact - 1) <= bound


def annulus32():
    g = SphereBundleGrid(-2, 2, -2, 2, nx=32, ny=32, ntheta=8)
    r = 0.7
    return g, CondenserSpec(disk_complement(0.0, 0.0, r * math.e),
                            disk(0.0, 0.0, r))


def count_gradient_calls(monkeypatch):
    calls = []
    gradient = EnergyFunctional.gradient

    def counting(self, u):
        calls.append(1)
        return gradient(self, u)

    monkeypatch.setattr(EnergyFunctional, "gradient", counting)
    return calls


@pytest.mark.parametrize("p", [3.0, 4.0, 1.5])
def test_newton_matches_projected_gradient(p):
    g, cond = annulus32()
    cfg = SolverConfig(tol=1e-6)
    res = minimize(cond, EUCLID, g, cfg=cfg, power=p)
    m0, m1 = rasterize_condenser(cond, g)
    pinned = m0 | m1
    pin_vals = np.where(m1, 1.0, 0.0)
    func = EnergyFunctional(EUCLID, g, power=p, pinned=pinned)
    start = capacity._smooth_start(pinned, pin_vals, 0.5,
                                   capacity._WARM_SWEEPS)
    _, E, _, _, _, converged = capacity._projected_gradient(
        func, start, pinned, pin_vals, cfg, cfg.max_iter)
    assert res.converged and converged
    assert res.value == pytest.approx(E, rel=1e-10)
    u = res.minimizer.values
    assert np.all(u[m0] == 0.0) and np.all(u[m1] == 1.0)
    assert np.all((u >= 0.0) & (u <= 1.0))
    # the grid and the plates are symmetric under x <-> y
    assert np.max(np.abs(u - u.T)) <= cfg.tol


def test_newton_gradient_calls_follow_the_iterations(monkeypatch):
    g, cond = annulus32()
    calls = count_gradient_calls(monkeypatch)
    res = minimize(cond, EUCLID, g, cfg=SolverConfig(tol=1e-6), power=3.0)
    assert res.converged and len(calls) == res.iterations + 1
    del calls[:]
    res = minimize(cond, EUCLID, g, cfg=SolverConfig(tol=1e-6, max_iter=3),
                   power=3.0)
    assert not res.converged
    assert res.iterations == 3 and len(calls) == 3


def test_newton_range_fallback_returns_an_admissible_minimizer(monkeypatch):
    g, cond = annulus32()
    cfg = SolverConfig(tol=1e-6)
    plain = minimize(cond, EUCLID, g, cfg=cfg, power=3.0)
    newton = capacity._newton

    def overshoot(func, u, pinned, cfg):
        u, E, history, it, res, converged = newton(func, u, pinned, cfg)
        u = np.where(pinned, u, 1.5 * u - 0.25)  # leaves [0, 1] both ways
        return u, func.value(u), history, it, res, converged

    monkeypatch.setattr(capacity, "_newton", overshoot)
    calls = count_gradient_calls(monkeypatch)
    res = minimize(cond, EUCLID, g, cfg=cfg, power=3.0)
    m0, m1 = rasterize_condenser(cond, g)
    u = res.minimizer.values
    assert res.converged and res.final_gradient_norm < cfg.tol
    assert np.all(u[m0] == 0.0) and np.all(u[m1] == 1.0)
    assert np.all((u >= 0.0) & (u <= 1.0))
    assert len(calls) == res.iterations + 1
    assert res.value == pytest.approx(plain.value, rel=1e-6)


def test_newton_line_search_stall_is_finished_by_projection(monkeypatch):
    # a Hessian scaled by 1e-30 makes every Newton step too long by 1e30,
    # more than the line search may shrink it
    g, cond = annulus32()
    cfg = SolverConfig(tol=1e-6)
    plain = minimize(cond, EUCLID, g, cfg=cfg, power=3.0)
    hessian = EnergyFunctional.hessian_form
    monkeypatch.setattr(EnergyFunctional, "hessian_form",
                        lambda self, u: 1e-30 * hessian(self, u))
    calls = count_gradient_calls(monkeypatch)
    res = minimize(cond, EUCLID, g, cfg=cfg, power=3.0)
    u = res.minimizer.values[~res.minimizer.pinned]
    assert res.converged and np.all((u >= 0.0) & (u <= 1.0))
    assert len(calls) == res.iterations + 1
    assert res.value == pytest.approx(plain.value, rel=1e-6)


def test_overlapping_plates_have_infinite_capacity():
    g = grid()
    cond = CondenserSpec(disk(0.0, 0.0, 1.2), disk(0.5, 0.0, 1.0))
    res = minimize(cond, EUCLID, g)
    assert math.isinf(res.value) and res.converged and res.iterations == 0


def test_touching_plates_rejected_at_this_resolution():
    g = grid(n=24)
    cond = CondenserSpec(disk(-0.5, 0.0, 0.45), disk(0.5, 0.0, 0.45))
    # one free cell between the plates is not enough for a transition layer
    with pytest.raises(ShapeError):
        minimize(cond, EUCLID, g, cfg=SolverConfig(tol=1e-4))


def test_empty_plate_rejected():
    g = grid(n=12)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.6),
                         disk(0.05, 0.05, 0.01))
    with pytest.raises(ShapeError):
        minimize(cond, EUCLID, g)


_DISK = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                  st.floats(0.05, 1.2))


def _chebyshev_gap(m0, m1):
    i0, j0 = np.nonzero(m0)
    i1, j1 = np.nonzero(m1)
    return int(np.min(np.maximum(np.abs(i0[:, None] - i1[None, :]),
                                 np.abs(j0[:, None] - j1[None, :]))))


@settings(max_examples=150, deadline=None)
@given(_DISK, _DISK)
@example((-0.1, -0.1, 0.3), (0.1, 0.1, 0.3))     # shared nodes
@example((-0.1, -0.1, 0.05), (0.3, -0.1, 0.05))  # two cells apart
@example((-0.7, -0.7, 0.15), (0.7, 0.7, 0.15))   # room for a solve
def test_random_disk_plates_follow_the_admissibility_rules(p0, p1):
    g = grid(n=10, half=1.0)
    cond = CondenserSpec(disk(*p0), disk(*p1))
    m0, m1 = cond.c0.rasterize(g), cond.c1.rasterize(g)
    if not (m0.any() and m1.any()):
        with pytest.raises(ShapeError):
            minimize(cond, EUCLID, g)
        return
    gap = _chebyshev_gap(m0, m1)
    if gap == 0:
        res = minimize(cond, EUCLID, g)
        assert math.isinf(res.value) and res.iterations == 0
    elif gap <= 2 or (m0 | m1).all():
        with pytest.raises(ShapeError):
            minimize(cond, EUCLID, g)
    else:
        res = minimize(cond, EUCLID, g, cfg=SolverConfig(max_iter=1))
        assert math.isfinite(res.value) and res.value > 0.0


def test_solver_is_deterministic():
    g = grid(n=24)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.5), disk(0.0, 0.0, 0.6))
    r1 = minimize(cond, RANDERS, g, cfg=SolverConfig(tol=1e-6))
    r2 = minimize(cond, RANDERS, g, cfg=SolverConfig(tol=1e-6))
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.minimizer.values, r2.minimizer.values)


def test_capacity_monotone_in_the_plates():
    # growing a plate can only increase the capacity
    g = grid(n=32)
    ring = disk_complement(0.0, 0.0, 1.6)
    small = minimize(CondenserSpec(ring, disk(0.0, 0.0, 0.4)), EUCLID, g,
                     cfg=SolverConfig(tol=1e-6))
    large = minimize(CondenserSpec(ring, disk(0.0, 0.0, 0.8)), EUCLID, g,
                     cfg=SolverConfig(tol=1e-6))
    assert large.value > small.value


def test_cap_compact_pins_the_outer_ring():
    g = grid(n=24)
    C = disk(0.0, 0.0, 0.5)
    direct = minimize(CondenserSpec(outer_boundary(), C), EUCLID, g,
                      cfg=SolverConfig(tol=1e-6))
    viaring = cap_compact(C, EUCLID, g, cfg=SolverConfig(tol=1e-6))
    assert viaring.value == direct.value


def test_cap_compact_rejects_sets_near_the_truncation_ring():
    g = grid(n=24)
    # well inside the ring but closer than the required two cells
    with pytest.raises(ShapeError, match="truncation"):
        cap_compact(disk(0.0, 0.0, 1.8), EUCLID, g)
    # rasterizes onto the ring itself
    with pytest.raises(ShapeError, match="truncation"):
        cap_compact(disk(0.0, 0.0, 1.95), EUCLID, g)


def test_oscillation_and_monotone_helpers():
    g = grid(n=12)
    X1, X2 = g.base_mesh()
    u = X1 + 2 * X2
    assert is_monotone(u, g)[0]
    bump = np.exp(-(X1 ** 2 + X2 ** 2))
    ok, witness = is_monotone(bump, g)
    assert not ok and witness is not None
