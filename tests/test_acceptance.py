"""End-to-end acceptance battery.

Ten criteria, each with a pinned tolerance and runtime budget; every
test records exactly one PASS/FAIL line, echoed in the terminal summary
after the run (see conftest).  Slow solves dominate: the annulus oracle
runs a 128x128x64 grid and the point-invariant harness runs catalog
solves on three map/metric pairs, so the full module takes several
minutes.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion

from finslercap.bundle import (ScalarField, SphereBundleGrid, d_omega_chart,
                               integrate, node_tensors)
from finslercap.capacity import (CondenserSpec, SolverConfig, energy,
                                 energy_gradient, minimize,
                                 rasterize_condenser)
from finslercap.conformal import (InvariantQuery, check_capacity_invariance,
                                  check_energy_invariance,
                                  check_invariants_invariance,
                                  check_pullback_energy_density,
                                  check_pullback_volume, invariant_rho,
                                  polar_power_map, rescale, rescale_map,
                                  rho_overlap_rule, similarity_map)
from finslercap.errors import DomainError
from finslercap.exprs import const, exponential, gaussian, sinusoid
from finslercap.metrics import (cartan_tensor, conformal_wrap, euclidean,
                                eval_F, formal_christoffel,
                                fundamental_tensor, identity_matrix_field,
                                randers, riemannian, tensor_point)
from finslercap.shapes import disk, disk_complement

EUCLID = euclidean()
RIEMANN = riemannian(((exponential(1.0, (0.4, 0.0)), const(0.1)),
                      (const(0.1), const(1.2))))
RAND = randers(identity_matrix_field(), (const(0.3), const(-0.1)))
CONF = conformal_wrap(RAND, sinusoid(0.25, (0.7, -0.4), 0.3))
CATALOG = (EUCLID, RIEMANN, RAND, CONF)

DOMAIN = (-2.0, -2.0, 2.0, 2.0)


def _criterion(name, budget, ok, elapsed, detail):
    ok = bool(ok) and elapsed <= budget
    status = "PASS" if ok else "FAIL"
    line = (f"criterion {name}: {status} "
            f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    print(line)
    record_criterion(line)
    assert ok, line


# -- 1: homogeneity and the algebraic tensor identities ---------------------


def test_01_homogeneity_and_tensor_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_f = worst_g = worst_norm = worst_cy = 0.0
    for k in range(100):
        m = CATALOG[k % len(CATALOG)]
        x = tuple(rng.uniform(-0.9, 0.9, 2))
        th = rng.uniform(0.0, 2.0 * math.pi)
        r = rng.uniform(0.4, 1.8)
        y = (r * math.cos(th), r * math.sin(th))
        F = eval_F(m, x, y)
        g = fundamental_tensor(m, x, y)
        C = cartan_tensor(m, x, y)
        yv = np.array(y)
        worst_norm = max(worst_norm, abs(yv @ g @ yv - F * F) / (F * F))
        worst_cy = max(worst_cy, float(np.max(np.abs(C @ yv))))
        for lam in (0.5, 2.0, 7.3):
            ys = tuple(lam * v for v in y)
            worst_f = max(worst_f,
                          abs(eval_F(m, x, ys) - lam * F) / (lam * F))
            worst_g = max(worst_g, float(np.max(
                np.abs(fundamental_tensor(m, x, ys) - g))))
    ok = (worst_f <= 1e-12 and worst_g <= 1e-10
          and worst_norm <= 1e-10 and worst_cy <= 1e-10)
    _criterion("01 homogeneity/tensor identities", 10.0, ok,
               time.perf_counter() - t0,
               f"F {worst_f:.1e}, g {worst_g:.1e}, "
               f"gyy {worst_norm:.1e}, Cy {worst_cy:.1e}")


# -- 2: exact derivatives against central finite differences -----------------


def _fd_fundamental(m, x, y, h=1e-5):
    def half_fsq(yy):
        return 0.5 * eval_F(m, x, tuple(yy)) ** 2
    g = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            yy = np.array(y, dtype=float)
            pts = []
            for si in (1, -1):
                for sj in (1, -1):
                    z = yy.copy()
                    z[i] += si * h
                    z[j] += sj * h
                    pts.append(si * sj * half_fsq(z))
            g[i, j] = sum(pts) / (4 * h * h)
    return g


def _fd_cartan(m, x, y, h=1e-5):
    C = np.empty((2, 2, 2))
    for k in range(2):
        yp = np.array(y, dtype=float)
        ym = yp.copy()
        yp[k] += h
        ym[k] -= h
        C[:, :, k] = (fundamental_tensor(m, x, tuple(yp))
                      - fundamental_tensor(m, x, tuple(ym))) / (4 * h)
    return C


def _fd_christoffel(m, x, y, h=1e-5):
    dg = np.empty((2, 2, 2))
    for k in range(2):
        xp = np.array(x, dtype=float)
        xm = xp.copy()
        xp[k] += h
        xm[k] -= h
        dg[:, :, k] = (fundamental_tensor(m, tuple(xp), y)
                       - fundamental_tensor(m, tuple(xm), y)) / (2 * h)
    g_inv = np.linalg.inv(fundamental_tensor(m, x, y))
    gam = np.empty((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                gam[i, j, k] = 0.5 * sum(
                    g_inv[i, s] * (dg[s, j, k] + dg[s, k, j] - dg[j, k, s])
                    for s in range(2))
    return gam


def test_02_derivative_oracle_on_the_randers_family():
    t0 = time.perf_counter()
    m = randers(((exponential(1.0, (0.2, 0.0)), const(0.0)),
                 (const(0.0), const(1.1))),
                (sinusoid(0.25, (0.8, -0.5)), const(0.1)))
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        x = tuple(rng.uniform(-0.8, 0.8, 2))
        th = rng.uniform(0.0, 2.0 * math.pi)
        r = rng.uniform(0.5, 1.5)
        y = (r * math.cos(th), r * math.sin(th))
        worst = max(worst, float(np.max(np.abs(
            fundamental_tensor(m, x, y) - _fd_fundamental(m, x, y)))))
        worst = max(worst, float(np.max(np.abs(
            cartan_tensor(m, x, y) - _fd_cartan(m, x, y)))))
        worst = max(worst, float(np.max(np.abs(
            formal_christoffel(m, x, y) - _fd_christoffel(m, x, y)))))
    _criterion("02 derivative oracle (g, C, gamma)", 10.0, worst <= 1e-5,
               time.perf_counter() - t0, f"max abs dev {worst:.2e}")


# -- 3: flat volume density and total bundle volume --------------------------


def test_03_flat_density_and_total_volume():
    t0 = time.perf_counter()
    g = SphereBundleGrid(0.0, 1.0, 0.0, 1.0, nx=32, ny=32, ntheta=32)
    rho = node_tensors(EUCLID, g).rho
    dev = float(np.max(np.abs(rho - 1.0)))
    total = integrate(np.ones(g.shape), EUCLID, g)
    vol_err = abs(total - 2.0 * math.pi) / (2.0 * math.pi)
    ok = dev <= 1e-10 and vol_err <= 1e-3
    _criterion("03 flat density / total volume", 5.0, ok,
               time.perf_counter() - t0,
               f"max|rho-1| {dev:.1e}, volume rel {vol_err:.1e}")


# -- 4: exterior derivative of the contact form -------------------------------


def _omega_chart(m, z):
    tp = tensor_point(m, (z[0], z[1]), (math.cos(z[2]), math.sin(z[2])))
    return np.array([tp.l_down[0], tp.l_down[1], 0.0])


def test_04_contact_form_exterior_derivative():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    spacing = 1e-2
    worst = 0.0
    for m in (RAND, CONF):
        for _ in range(10):
            z = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                          rng.uniform(0.0, 2.0 * math.pi)])
            fd = np.zeros((3, 3))
            for a in range(3):
                zp, zm = z.copy(), z.copy()
                zp[a] += spacing
                zm[a] -= spacing
                row = (_omega_chart(m, zp) - _omega_chart(m, zm)) \
                    / (2.0 * spacing)
                fd[a, :] += row
                fd[:, a] -= row
            tp = tensor_point(m, (z[0], z[1]),
                              (math.cos(z[2]), math.sin(z[2])))
            worst = max(worst, float(np.max(np.abs(fd - d_omega_chart(tp)))))
    _criterion("04 contact form d(omega)", 30.0, worst <= 1e-4,
               time.perf_counter() - t0, f"max abs dev {worst:.2e}")


# -- 5: annulus capacity against the closed-form value ------------------------


def test_05_annulus_capacity_oracle():
    t0 = time.perf_counter()
    g = SphereBundleGrid(-2.0, 2.0, -2.0, 2.0, nx=128, ny=128, ntheta=64)
    r0 = 0.7
    cond = CondenserSpec(disk_complement(0.0, 0.0, r0 * math.e),
                         disk(0.0, 0.0, r0))
    res = minimize(cond, EUCLID, g, cfg=SolverConfig(tol=1e-6))
    exact = 4.0 * math.pi ** 2
    err = abs(res.value - exact) / exact
    ok = err <= 3e-2 and res.converged
    _criterion("05 annulus capacity", 60.0, ok, time.perf_counter() - t0,
               f"value {res.value:.6f} vs {exact:.6f}, rel {err:.2%}, "
               f"{res.iterations} its")


# -- 6: energy gradient against finite differences ----------------------------


def test_06_energy_gradient_oracle():
    t0 = time.perf_counter()
    g = SphereBundleGrid(-1.5, 1.5, -1.5, 1.5, nx=16, ny=16, ntheta=8)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.2), disk(0.0, 0.0, 0.5))
    m0, m1 = rasterize_condenser(cond, g)
    pinned = m0 | m1
    rng = np.random.default_rng(109)
    eps = 1e-6
    worst = 0.0
    for k in range(20):
        m = CATALOG[k % len(CATALOG)]
        vals = np.where(m1, 1.0, rng.uniform(0.0, 1.0, g.base_shape))
        vals = np.where(m0, 0.0, vals)
        u = ScalarField(values=vals, pinned=pinned)
        v = np.where(pinned, 0.0, rng.standard_normal(g.base_shape))
        exact = float(np.sum(energy_gradient(u, m, g) * v))
        up = ScalarField(values=vals + eps * v, pinned=pinned)
        um = ScalarField(values=vals - eps * v, pinned=pinned)
        fd = (energy(up, m, g) - energy(um, m, g)) / (2.0 * eps)
        worst = max(worst, abs(fd - exact) / max(abs(exact), 1e-30))
    _criterion("06 energy gradient", 30.0, worst <= 1e-5,
               time.perf_counter() - t0, f"max rel dev {worst:.2e}")


# -- 7: conformal invariance of energy and capacity ---------------------------


def test_07_conformal_energy_and_capacity_invariance():
    t0 = time.perf_counter()
    sig = sinusoid(0.3, (0.8, -0.5), 0.4)
    g48 = SphereBundleGrid(-2.0, 2.0, -2.0, 2.0, nx=48, ny=48, ntheta=8)
    X1, X2 = g48.base_mesh()
    u = ScalarField(np.exp(-(X1 ** 2 + X2 ** 2)))
    e_base = energy(u, RAND, g48)
    e_resc = energy(u, rescale(RAND, sig), g48)
    id_energy = abs(e_base - e_resc) / abs(e_base)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.5), disk(0.0, 0.0, 0.6))
    cfg = SolverConfig(tol=1e-6)
    c_base = minimize(cond, RAND, g48, cfg=cfg).value
    c_resc = minimize(cond, rescale(RAND, sig), g48, cfg=cfg).value
    id_cap = abs(c_base - c_resc) / abs(c_base)
    # the full harness: image grids over rotated/dilated/shifted rectangles
    g64 = SphereBundleGrid(-2.0, 2.0, -2.0, 2.0, nx=64, ny=64, ntheta=8)
    grid_aligned = similarity_map(RAND, 1.5, math.pi / 2.0, (0.25, -0.4),
                                  DOMAIN)
    skew = similarity_map(RAND, 1.4, 0.3, (0.2, -0.1), DOMAIN)
    reps = [
        check_capacity_invariance(grid_aligned, cond, g64, cfg=cfg, tol=3e-2),
        check_capacity_invariance(skew, cond, g64, cfg=cfg, tol=3e-2),
        check_energy_invariance(skew, gaussian(1.0, (0.1, -0.2), 0.8), g64,
                                tol=3e-2),
    ]
    ok = id_energy <= 1e-12 and id_cap <= 1e-12 \
        and all(r.passed for r in reps)
    worst_h = max(r.max_rel_err for r in reps)
    _criterion("07 conformal invariance (energy/capacity)", 600.0, ok,
               time.perf_counter() - t0,
               f"rescale rel {max(id_energy, id_cap):.1e}, "
               f"harness worst {worst_h:.1e}")


# -- 8: pointwise pullback identities across the map catalog ------------------


def test_08_pointwise_pullback_identities():
    t0 = time.perf_counter()
    maps = [
        rescale_map(CONF, gaussian(0.5, (0.2, -0.3), 1.1), DOMAIN),
        similarity_map(CONF, 1.6, 0.4, (0.3, -0.2), DOMAIN),
        polar_power_map(1.5, (0.4, -0.5, 1.8, 0.5)),
    ]
    ups = [gaussian(1.0, (0.3, -0.4), 1.2),
           gaussian(1.0, (0.3, -0.4), 1.2),
           sinusoid(0.7, (0.9, 0.4), 0.2)]
    reports = []
    for cm, up in zip(maps, ups):
        reports.append(check_pullback_volume(cm, samples=1000, seed=113,
                                             tol=1e-6))
        reports.append(check_pullback_energy_density(cm, up, samples=1000,
                                                     seed=113, tol=1e-8))
    ok = all(r.passed for r in reports)
    worst = max(r.max_rel_err for r in reports)
    _criterion("08 pullback identities (volume/energy density)", 30.0, ok,
               time.perf_counter() - t0,
               f"{len(reports)} checks, worst rel {worst:.1e}")


# -- 9: point invariants across three catalog maps ---------------------------


def test_09_point_invariants_across_maps():
    t0 = time.perf_counter()
    g = SphereBundleGrid(-2.0, 2.0, -2.0, 2.0, nx=48, ny=48, ntheta=8)
    cfg = SolverConfig(tol=1e-6)
    maps = [
        rescale_map(RAND, sinusoid(0.3, (0.8, -0.5), 0.4), DOMAIN),
        similarity_map(RAND, 1.5, math.pi / 2.0, (0.25, -0.4), DOMAIN),
        similarity_map(CONF, 2.0, 0.0, (0.0, 0.0), DOMAIN),
    ]
    qmu = InvariantQuery(points=((-0.8, -0.5), (0.9, 0.6)), controls=(1,))
    # chords that do not cross: crossing pairs exhaust the polyline
    # catalog (every candidate pair overlaps) and report +inf
    qrho = InvariantQuery(points=((-1.2, -0.6), (-0.2, -0.8),
                                  (0.3, 0.9), (1.3, 0.5)),
                          controls=(0, 1), offsets=(-1.0, 1.0))
    reports = []
    for cm in maps:
        for q, which in ((qmu, "mu"), (qrho, "rho")):
            reports.extend(check_invariants_invariance(
                cm, q, g, which=[which], cfg=cfg, tol=5e-2))
    ok = all(r.passed for r in reports)
    worst = max(r.max_rel_err for r in reports)
    _criterion("09 point invariants across maps", 120.0, ok,
               time.perf_counter() - t0,
               f"mu and rho on {len(maps)} maps, worst rel {worst:.1e}")


# -- 10: the 4-point overlap rule ---------------------------------------------


def test_10_four_point_overlap_rule():
    t0 = time.perf_counter()
    g = SphereBundleGrid(-2.0, 2.0, -2.0, 2.0, nx=16, ny=16, ntheta=8)
    cfg = SolverConfig(tol=1e-3)
    a, b, c, d = (-0.9, -0.2), (0.9, -0.3), (-0.4, 0.8), (0.6, 0.7)
    ok = True
    # +inf exactly on cross-pair collisions, before any solve
    for points in ((a, b, a, d), (a, b, c, a), (a, b, b, d), (a, b, c, b)):
        assert rho_overlap_rule(points) == "overlap"
        res = invariant_rho(InvariantQuery(points=points), EUCLID, g)
        ok = ok and math.isinf(res.value) and res.winner == -1
    # distinct pairs and a within-pair coincidence both stay finite
    for points in ((a, b, c, d), (a, a, c, d)):
        assert rho_overlap_rule(points) == "ok"
        res = invariant_rho(InvariantQuery(points=points, controls=(0,)),
                            EUCLID, g, cfg=cfg)
        ok = ok and math.isfinite(res.value) and res.value > 0
    # three coincident points fall outside the rule's domain
    with pytest.raises(DomainError):
        invariant_rho(InvariantQuery(points=(a, a, a, d)), EUCLID, g)
    assert rho_overlap_rule((a, a, a, d)) == "degenerate"
    _criterion("10 four-point overlap rule", 1.0, ok,
               time.perf_counter() - t0, "8 engineered collision patterns")
