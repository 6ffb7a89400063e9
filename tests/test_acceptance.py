"""End-to-end acceptance battery.

Ten criteria, each with a pinned tolerance and runtime budget; every
test records exactly one PASS/FAIL line, echoed in the terminal summary
after the run (see conftest).  Criteria 01, 03, 04, 05, 06 and 08 run
checks of the ``finslercap.selftest`` registry at larger sizes than
``finslercap selftest`` does, and the others share its metric catalog.
Slow solves dominate: the annulus oracle runs a 128x128x64 grid and
the point-invariant harness runs catalog solves on three map/metric
pairs.  The full module takes about 4 s (05: 1.1 s, 09: 1.3 s).
"""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion

from finslercap.bundle import ScalarField, SphereBundleGrid
from finslercap.capacity import (CondenserSpec, SolverConfig, energy,
                                 minimize)
from finslercap.conformal import (InvariantQuery, check_capacity_invariance,
                                  check_energy_invariance,
                                  check_invariant_invariance, invariant,
                                  rescale_map, rho_overlap_rule,
                                  similarity_map)
from finslercap.errors import DomainError
from finslercap.exprs import const, exponential, gaussian, sinusoid
from finslercap.metrics import conformal_wrap, eval_F, randers, tensor_point
from finslercap.selftest import (CONF, DOMAIN, EUCLID, RAND, annulus_capacity,
                                 energy_gradient, exterior_derivative,
                                 fiber_volume, flat_density, homogeneity,
                                 pullback_energy_density, pullback_volume,
                                 total_volume)
from finslercap.shapes import disk, disk_complement


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
    rep = homogeneity(1e-12, samples=100, seed=101)
    _criterion("01 homogeneity/tensor identities", 10.0, rep.passed,
               time.perf_counter() - t0, rep.detail)


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
        C[:, :, k] = (tensor_point(m, x, tuple(yp)).g
                      - tensor_point(m, x, tuple(ym)).g) / (4 * h)
    return C


def _fd_christoffel(m, x, y, h=1e-5):
    dg = np.empty((2, 2, 2))
    for k in range(2):
        xp = np.array(x, dtype=float)
        xm = xp.copy()
        xp[k] += h
        xm[k] -= h
        dg[:, :, k] = (tensor_point(m, tuple(xp), y).g
                       - tensor_point(m, tuple(xm), y).g) / (2 * h)
    g_inv = np.linalg.inv(tensor_point(m, x, y).g)
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
            tensor_point(m, x, y).g - _fd_fundamental(m, x, y)))))
        worst = max(worst, float(np.max(np.abs(
            tensor_point(m, x, y).cartan - _fd_cartan(m, x, y)))))
        worst = max(worst, float(np.max(np.abs(
            tensor_point(m, x, y).gamma - _fd_christoffel(m, x, y)))))
    _criterion("02 derivative oracle (g, C, gamma)", 10.0, worst <= 1e-5,
               time.perf_counter() - t0, f"max abs dev {worst:.2e}")


# -- 3: flat volume density and total bundle volume --------------------------


def test_03_flat_density_and_total_volume():
    t0 = time.perf_counter()
    dens = flat_density(1e-10, n=32, ntheta=32)
    vol = total_volume(1e-3, n=32, ntheta=32)
    fiber = fiber_volume(1e-12, n=32, ntheta=64)
    _criterion("03 flat density / total volume", 5.0,
               dens.passed and vol.passed and fiber.passed,
               time.perf_counter() - t0,
               f"max|rho-1| {dens.max_rel_err:.1e}, "
               f"volume rel {vol.max_rel_err:.1e}, "
               f"fiber volume rel {fiber.max_rel_err:.1e}")


# -- 4: exterior derivative of the contact form -------------------------------


def test_04_contact_form_exterior_derivative():
    t0 = time.perf_counter()
    rep = exterior_derivative(1e-4, samples=10, seed=107)
    _criterion("04 contact form d(omega)", 30.0, rep.passed,
               time.perf_counter() - t0, f"max abs dev {rep.max_rel_err:.2e}")


# -- 5: annulus capacity against the closed-form value ------------------------


def test_05_annulus_capacity_oracle():
    t0 = time.perf_counter()
    rep = annulus_capacity(3e-2, n=128, ntheta=64)
    _criterion("05 annulus capacity", 60.0, rep.passed,
               time.perf_counter() - t0, rep.detail)


# -- 6: energy gradient against finite differences ----------------------------


def test_06_energy_gradient_oracle():
    t0 = time.perf_counter()
    rep = energy_gradient(1e-5, samples=20, seed=109)
    _criterion("06 energy gradient", 30.0, rep.passed,
               time.perf_counter() - t0, f"max rel dev {rep.max_rel_err:.2e}")


# -- 7: conformal invariance of energy and capacity ---------------------------


def test_07_conformal_energy_and_capacity_invariance():
    t0 = time.perf_counter()
    sig = sinusoid(0.3, (0.8, -0.5), 0.4)
    g48 = SphereBundleGrid(-2.0, 2.0, -2.0, 2.0, nx=48, ny=48, ntheta=8)
    X1, X2 = g48.base_mesh()
    u = ScalarField(np.exp(-(X1 ** 2 + X2 ** 2)))
    e_base = energy(u, RAND, g48)
    e_resc = energy(u, conformal_wrap(RAND, sig), g48)
    id_energy = abs(e_base - e_resc) / abs(e_base)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.5), disk(0.0, 0.0, 0.6))
    cfg = SolverConfig(tol=1e-6)
    c_base = minimize(cond, RAND, g48, cfg=cfg).value
    c_resc = minimize(cond, conformal_wrap(RAND, sig), g48, cfg=cfg).value
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
    vol = pullback_volume(1e-6, samples=1000, seed=113)
    dens = pullback_energy_density(1e-8, samples=1000, seed=113)
    _criterion("08 pullback identities (volume/energy density)", 30.0,
               vol.passed and dens.passed, time.perf_counter() - t0,
               f"both identities on 3 maps, worst rel "
               f"{max(vol.max_rel_err, dens.max_rel_err):.1e}")


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
            reports.append(check_invariant_invariance(
                cm, which, q, g, cfg=cfg, tol=5e-2))
    ok = all(r.passed for r in reports)
    worst = max(r.max_rel_err for r in reports)
    _criterion("09 point invariants across maps", 30.0, ok,
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
        res = invariant("rho", InvariantQuery(points=points), EUCLID, g)
        ok = ok and math.isinf(res.value) and res.winner == -1
    # distinct pairs and a within-pair coincidence both stay finite
    for points in ((a, b, c, d), (a, a, c, d)):
        assert rho_overlap_rule(points) == "ok"
        res = invariant("rho", InvariantQuery(points=points, controls=(0,)),
                        EUCLID, g, cfg=cfg)
        ok = ok and math.isfinite(res.value) and res.value > 0
    # three coincident points fall outside the rule's domain
    with pytest.raises(DomainError):
        invariant("rho", InvariantQuery(points=(a, a, a, d)), EUCLID, g)
    assert rho_overlap_rule((a, a, a, d)) == "degenerate"
    _criterion("10 four-point overlap rule", 1.0, ok,
               time.perf_counter() - t0, "8 engineered collision patterns")
