"""Registry of named verification checks.

Each check is a function of its tolerance and its problem sizes
(samples, seed, grid resolution) and returns one ``CheckReport``.  The
keyword defaults are the sizes ``finslercap selftest`` runs, well under
a second in all; the acceptance battery (``tests/test_acceptance.py``)
calls the same functions at its own, larger sizes.  ``CHECKS`` maps
every name to its function and its default tolerance, which
``[selftest] tol_<name>`` overrides.  Every reported error is
non-negative, so a negative tolerance is the way to see a check fail:
zero is not enough, since the total volume of the flat unit square
comes out exact.

The metric catalog and ``DOMAIN`` are shared with the acceptance
criteria that have no check here.
"""

import math
import time

import numpy as np

from .bundle import (ScalarField, SphereBundleGrid, d_omega_chart, integrate,
                     node_tensors)
from .capacity import (CondenserSpec, SolverConfig, energy, minimize,
                       rasterize_condenser)
from .capacity import energy_gradient as _energy_gradient
from .conformal import (CheckReport, check_pullback_energy_density,
                        check_pullback_volume, polar_power_map, rescale_map,
                        similarity_map)
from .exprs import const, exponential, gaussian, sinusoid
from .metrics import (conformal_wrap, euclidean, eval_F,
                      identity_matrix_field, randers, riemannian,
                      tensor_point)
from .shapes import disk, disk_complement

EUCLID = euclidean()
RIEMANN = riemannian(((exponential(1.0, (0.4, 0.0)), const(0.1)),
                      (const(0.1), const(1.2))))
RAND = randers(identity_matrix_field(), (const(0.3), const(-0.1)))
CONF = conformal_wrap(RAND, sinusoid(0.25, (0.7, -0.4), 0.3))
CATALOG = (EUCLID, RIEMANN, RAND, CONF)

DOMAIN = (-2.0, -2.0, 2.0, 2.0)


def _pullback_maps():
    # built on call: witnessing the three maps costs about 10 ms
    return (
        (rescale_map(CONF, gaussian(0.5, (0.2, -0.3), 1.1), DOMAIN),
         gaussian(1.0, (0.3, -0.4), 1.2)),
        (similarity_map(CONF, 1.6, 0.4, (0.3, -0.2), DOMAIN),
         gaussian(1.0, (0.3, -0.4), 1.2)),
        (polar_power_map(1.5, (0.4, -0.5, 1.8, 0.5)),
         sinusoid(0.7, (0.9, 0.4), 0.2)),
    )


def homogeneity(tol, samples=32, seed=23):
    """F(x, ly) = lF, g(x, ly) = g, g(y, y) = F^2 and C(y) = 0 over the
    catalog; the error is the worst of the four."""
    rng = np.random.default_rng(seed)
    worst_f = worst_g = worst_norm = worst_cy = 0.0
    for k in range(samples):
        m = CATALOG[k % len(CATALOG)]
        x = tuple(rng.uniform(-0.9, 0.9, 2))
        th = rng.uniform(0.0, 2.0 * math.pi)
        r = rng.uniform(0.4, 1.8)
        y = (r * math.cos(th), r * math.sin(th))
        F = eval_F(m, x, y)
        tp = tensor_point(m, x, y)
        g = tp.g
        C = tp.cartan
        yv = np.array(y)
        worst_norm = max(worst_norm, abs(yv @ g @ yv - F * F) / (F * F))
        worst_cy = max(worst_cy, float(np.max(np.abs(C @ yv))))
        for lam in (0.5, 2.0, 7.3):
            ys = tuple(lam * v for v in y)
            worst_f = max(worst_f,
                          abs(eval_F(m, x, ys) - lam * F) / (lam * F))
            worst_g = max(worst_g, float(np.max(
                np.abs(tensor_point(m, x, ys).g - g))))
    err = max(worst_f, worst_g, worst_norm, worst_cy)
    return CheckReport("homogeneity", samples, err, tol, err <= tol,
                       f"F {worst_f:.1e}, g {worst_g:.1e}, "
                       f"gyy {worst_norm:.1e}, Cy {worst_cy:.1e}")


def _omega_chart(m, z):
    tp = tensor_point(m, (z[0], z[1]), (math.cos(z[2]), math.sin(z[2])))
    return np.array([tp.l_down[0], tp.l_down[1], 0.0])


def exterior_derivative(tol, samples=8, seed=31):
    """d(omega) in chart components against central differences of
    omega, ``samples`` points on each of the two Randers metrics."""
    rng = np.random.default_rng(seed)
    spacing = 1e-2
    worst = 0.0
    for m in (RAND, CONF):
        for _ in range(samples):
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
    return CheckReport("exterior_derivative", 2 * samples, worst, tol,
                       worst <= tol)


def _unit_square(n, ntheta):
    return SphereBundleGrid(0.0, 1.0, 0.0, 1.0, nx=n, ny=n, ntheta=ntheta)


def flat_density(tol, n=16, ntheta=16):
    """The euclidean volume density is 1 at every node."""
    rho = node_tensors(EUCLID, _unit_square(n, ntheta)).rho
    worst = float(np.max(np.abs(rho - 1.0)))
    return CheckReport("flat_density", rho.size, worst, tol, worst <= tol)


def total_volume(tol, n=16, ntheta=16):
    """The bundle volume of the flat unit square is 2 pi."""
    grid = _unit_square(n, ntheta)
    total = integrate(np.ones(grid.shape), EUCLID, grid)
    err = abs(total - 2.0 * math.pi) / (2.0 * math.pi)
    return CheckReport("total_volume", n * n * ntheta, err, tol, err <= tol)


def _alpha_area(m, x):
    """exp(2 sigma) sqrt(det a), from the catalog's coefficient fields."""
    if m.kind == "conformal":
        return np.exp(2.0 * m.sigma(x)) * _alpha_area(m.base, x)
    if m.kind == "euclidean":
        return 1.0
    (a11, a12), (_, a22) = m.a
    return np.sqrt(a11(x) * a22(x) - a12(x) ** 2)


def fiber_volume(tol, n=16, ntheta=64):
    """sum_theta rho dtheta = 2 pi exp(2 sigma) sqrt(det a) at every base
    node of DOMAIN, over the catalog: the Holmes-Thompson area of a Randers
    metric is the Riemannian area of alpha (Alvarez Paiva-Thompson,
    Volumes on normed and Finsler spaces, 2004).  The error is the worst
    relative one."""
    x1min, x2min, x1max, x2max = DOMAIN
    grid = SphereBundleGrid(x1min, x1max, x2min, x2max, nx=n, ny=n,
                            ntheta=ntheta)
    X1, X2 = grid.base_mesh()
    worst = 0.0
    for m in CATALOG:
        area = node_tensors(m, grid).rho.sum(axis=2) * grid.dtheta
        exact = 2.0 * math.pi * _alpha_area(m, (X1, X2))
        worst = max(worst, float(np.max(np.abs(area / exact - 1.0))))
    return CheckReport("fiber_volume", len(CATALOG) * n * n, worst, tol,
                       worst <= tol)


def _worst_of(name, reports, tol):
    worst = max(r.max_rel_err for r in reports)
    return CheckReport(name, sum(r.samples for r in reports), worst, tol,
                       all(r.passed for r in reports))


def pullback_volume(tol, samples=200, seed=5):
    """Volume densities across each of the three maps."""
    return _worst_of("pullback_volume", [
        check_pullback_volume(cm, samples=samples, seed=seed, tol=tol)
        for cm, _ in _pullback_maps()], tol)


def pullback_energy_density(tol, samples=200, seed=5):
    """Lifted energy densities across each of the three maps."""
    return _worst_of("pullback_energy_density", [
        check_pullback_energy_density(cm, up, samples=samples, seed=seed,
                                      tol=tol)
        for cm, up in _pullback_maps()], tol)


def energy_gradient(tol, samples=4, seed=47):
    """Directional derivatives of the energy against central differences,
    on random admissible fields over the catalog."""
    grid = SphereBundleGrid(-1.5, 1.5, -1.5, 1.5, nx=16, ny=16, ntheta=8)
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.2), disk(0.0, 0.0, 0.5))
    m0, m1 = rasterize_condenser(cond, grid)
    pinned = m0 | m1
    rng = np.random.default_rng(seed)
    eps = 1e-6
    worst = 0.0
    for k in range(samples):
        m = CATALOG[k % len(CATALOG)]
        vals = np.where(m1, 1.0, rng.uniform(0.0, 1.0, grid.base_shape))
        vals = np.where(m0, 0.0, vals)
        u = ScalarField(values=vals, pinned=pinned)
        v = np.where(pinned, 0.0, rng.standard_normal(grid.base_shape))
        exact = float(np.sum(_energy_gradient(u, m, grid) * v))
        up = ScalarField(values=vals + eps * v, pinned=pinned)
        um = ScalarField(values=vals - eps * v, pinned=pinned)
        fd = (energy(up, m, grid) - energy(um, m, grid)) / (2.0 * eps)
        worst = max(worst, abs(fd - exact) / max(abs(exact), 1e-30))
    return CheckReport("energy_gradient", samples, worst, tol, worst <= tol)


def annulus_capacity(tol, n=64, ntheta=8):
    """Euclidean annulus with radius ratio e against 4 pi^2."""
    grid = SphereBundleGrid(-2.0, 2.0, -2.0, 2.0, nx=n, ny=n, ntheta=ntheta)
    r0 = 0.7
    cond = CondenserSpec(disk_complement(0.0, 0.0, r0 * math.e),
                         disk(0.0, 0.0, r0))
    res = minimize(cond, EUCLID, grid, cfg=SolverConfig(tol=1e-6))
    exact = 4.0 * math.pi ** 2
    err = abs(res.value - exact) / exact
    return CheckReport("annulus_capacity", 1, err, tol,
                       err <= tol and res.converged,
                       f"value {res.value:.6f} vs {exact:.6f}, "
                       f"rel {err:.2%}, {res.iterations} its")


# name -> (check, threshold of ``finslercap selftest``)
CHECKS = {
    "homogeneity": (homogeneity, 1e-10),
    "exterior_derivative": (exterior_derivative, 1e-4),
    "flat_density": (flat_density, 1e-10),
    "total_volume": (total_volume, 1e-3),
    "fiber_volume": (fiber_volume, 1e-12),
    "pullback_volume": (pullback_volume, 1e-6),
    "pullback_energy_density": (pullback_energy_density, 1e-8),
    "energy_gradient": (energy_gradient, 1e-5),
    "annulus_capacity": (annulus_capacity, 8e-2),
}


def run_selftest(tolerances=None, echo=print):
    """Run every check at its default sizes, in registry order.

    ``tolerances`` maps check names to thresholds that replace the
    defaults.  Each report is echoed with its wall time; returns the
    list of reports.
    """
    tolerances = tolerances or {}
    unknown = set(tolerances) - set(CHECKS)
    if unknown:
        raise ValueError("unknown selftest tolerance(s): "
                         + ", ".join(sorted(unknown)))
    reports = []
    for name, (check, default) in CHECKS.items():
        t0 = time.perf_counter()
        rep = check(tolerances.get(name, default))
        if echo is not None:
            echo(f"{rep} ({time.perf_counter() - t0:.3f}s)")
        reports.append(rep)
    return reports
