import math

import numpy as np
import pytest

from finslercap.bundle import ScalarField, SphereBundleGrid, integrate
import finslercap.capacity as capacity
from finslercap.capacity import (CondenserSpec, EnergyFunctional, SolverConfig,
                                 cap_compact, energy, energy_gradient,
                                 is_monotone, minimize, oscillation,
                                 rasterize_condenser)
from finslercap.errors import ShapeError
from finslercap.exprs import const, sinusoid
from finslercap.metrics import (conformal_wrap, euclidean,
                                identity_matrix_field, randers)
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
    assert oscillation(u, rectangle(-2.0, -2.0, 2.0, 2.0), g) == \
        pytest.approx(3 * (X1[1, 0] - X1[0, 0]) * 11, rel=1e-12)
    bump = np.exp(-(X1 ** 2 + X2 ** 2))
    ok, witness = is_monotone(bump, g)
    assert not ok and witness is not None
    with pytest.raises(ShapeError):
        oscillation(u, disk(0.0, 0.0, 1e-6), g)
