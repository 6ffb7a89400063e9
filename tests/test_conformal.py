"""Map catalog, conformal pairs, pullback identities, and point functions."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from finslercap import bundle
from finslercap.bundle import SphereBundleGrid
from finslercap.capacity import (CondenserSpec, EnergyFunctional,
                                 SolverConfig, minimize)
from finslercap.conformal import (CheckReport, InvariantQuery, bundle_map,
                                  bundle_map_jacobian, catalog,
                                  check_capacity_invariance,
                                  check_energy_invariance,
                                  check_invariant_invariance,
                                  check_pullback_energy_density,
                                  check_pullback_volume, conformal_map,
                                  conformality_witness, image_grid,
                                  invariant, polar_power_map,
                                  rescale_map, rho_overlap_rule, similarity_map)
from finslercap.conformal import _solve_catalog
from finslercap.errors import DomainError, MapError, ShapeError
from finslercap.exprs import const, gaussian, linear, sinusoid
from finslercap.maps import (affine_map, identity_map, image_bbox, power_map,
                             similarity)
from finslercap.metrics import conformal_wrap, euclidean, randers, riemannian
from finslercap.shapes import disk, disk_complement, outer_boundary

EUCLID = euclidean()
IDMAT = ((const(1.0), const(0.0)), (const(0.0), const(1.0)))
RAND = randers(IDMAT, (const(0.3), const(-0.1)))
CONF = conformal_wrap(RAND, sinusoid(0.25, (0.7, -0.4), 0.3))


def grid(n=24, ntheta=8, half=2.0):
    return SphereBundleGrid(-half, half, -half, half, nx=n, ny=n,
                            ntheta=ntheta)


def pts(seed, n, lo=-1.5, hi=1.5):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)


# -- planar map catalog ----------------------------------------------------


def test_affine_map_round_trip_and_derivative():
    f = affine_map(((1.2, -0.3), (0.4, 0.9)), shift=(0.7, -1.1))
    x1, x2 = pts(3, 40)
    y1, y2 = f.apply(x1, x2)
    u1, u2 = f.inverse(y1, y2)
    np.testing.assert_allclose(u1, x1, atol=1e-13)
    np.testing.assert_allclose(u2, x2, atol=1e-13)
    J = f.deriv(x1, x2)
    np.testing.assert_allclose(J[..., 0, 0], 1.2)
    np.testing.assert_allclose(J[..., 1, 1] * J[..., 0, 0]
                               - J[..., 0, 1] * J[..., 1, 0],
                               f.jacobian_det(x1, x2))


def test_power_map_round_trip_and_fd_derivative():
    f = power_map(1.5)
    x1, x2 = pts(5, 40, lo=0.4, hi=2.0)
    y1, y2 = f.apply(x1, x2)
    u1, u2 = f.inverse(y1, y2)
    np.testing.assert_allclose(u1, x1, atol=1e-12)
    np.testing.assert_allclose(u2, x2, atol=1e-12)
    J = f.deriv(x1, x2)
    h = 1e-6
    for a in range(2):
        for b in range(2):
            dx = (h, 0.0) if b == 0 else (0.0, h)
            fp = f.apply(x1 + dx[0], x2 + dx[1])[a]
            fm = f.apply(x1 - dx[0], x2 - dx[1])[a]
            np.testing.assert_allclose(J[..., a, b], (fp - fm) / (2 * h),
                                       atol=1e-7)
    assert np.all(f.jacobian_det(x1, x2) > 0)


def test_map_catalog_rejections():
    with pytest.raises(MapError):
        affine_map(((1.0, 2.0), (0.5, 1.0)))  # det = 0
    with pytest.raises(MapError):
        power_map(-1.0)
    with pytest.raises(MapError):
        similarity(0.0)
    with pytest.raises(MapError):
        power_map(2.0).deriv(np.array([0.0]), np.array([0.0]))


def test_image_bbox_affine_exact():
    rot90 = similarity(1.0, math.pi / 2.0)
    assert image_bbox(rot90, (1.0, 3.0, 2.0, 4.0)) == \
        pytest.approx((-4.0, 1.0, -3.0, 2.0), abs=1e-12)
    dil = similarity(2.0, 0.0, shift=(1.0, 0.0))
    assert image_bbox(dil, (-1.0, -1.0, 1.0, 1.0)) == \
        pytest.approx((-1.0, -2.0, 3.0, 2.0), abs=1e-12)
    f = power_map(1.5)
    lo1, lo2, hi1, hi2 = image_bbox(f, (0.5, -0.25, 1.5, 0.25))
    for cx, cy in ((0.5, -0.25), (1.5, 0.25), (0.5, 0.25), (1.5, -0.25)):
        w1, w2 = f.apply(cx, cy)
        assert lo1 - 1e-12 <= w1 <= hi1 + 1e-12
        assert lo2 - 1e-12 <= w2 <= hi2 + 1e-12


# -- conformal pairs and witnesses ----------------------------------------


def test_rescale_map_witness_is_exactly_zero():
    sig = sinusoid(0.4, (1.0, 0.5), 0.1)
    cm = rescale_map(RAND, sig, (-2.0, -2.0, 2.0, 2.0))
    # identical arithmetic on both sides of the identity map
    assert conformality_witness(cm, samples=300, seed=9) == 0.0
    assert cm.target == conformal_wrap(RAND, sig)
    # wrapping a wrap merges the factors; exp(s1 + s2) re-associates,
    # so the residual is ulp-level rather than bitwise zero
    wrapped = rescale_map(CONF, sig, (-2.0, -2.0, 2.0, 2.0))
    assert conformality_witness(wrapped, samples=300, seed=9) < 1e-14


def test_catalog_witnesses_are_tiny():
    dom = (-1.5, -1.5, 1.5, 1.5)
    cases = [
        rescale_map(EUCLID, gaussian(0.5, (0.2, -0.3), 1.1), dom),
        similarity_map(EUCLID, 1.7, 0.6, (0.4, -0.2), dom),
        similarity_map(RAND, 0.8, -1.1, (0.0, 0.3), dom),
        similarity_map(CONF, 1.3, 2.0, (-0.5, 0.1), dom),
        polar_power_map(1.5, (0.4, -0.5, 1.8, 0.5)),
        polar_power_map(0.5, (0.4, -0.5, 1.8, 0.5)),
    ]
    for cm in cases:
        assert conformality_witness(cm, samples=400, seed=17) < 1e-12


def test_conformal_map_rejects_wrong_factor():
    sig = sinusoid(0.4, (1.0, 0.5), 0.1)
    with pytest.raises(MapError, match="witness"):
        conformal_map(identity_map(), const(0.1), CONF,
                      conformal_wrap(CONF, sig), (-2.0, -2.0, 2.0, 2.0))


def test_polar_power_domain_validation():
    with pytest.raises(MapError):
        polar_power_map(1.5, (-0.1, -0.5, 1.8, 0.5))
    with pytest.raises(MapError):
        polar_power_map(2.5, (0.4, -0.5, 1.8, 0.5))
    with pytest.raises(MapError):
        polar_power_map(1.5, (0.4, -0.5, 1.8, 0.5), m=RAND)


def test_similarity_pushforward_needs_constant_coefficients():
    varying = riemannian(((linear(1.5, 0.2, 0.0), const(0.0)),
                          (const(0.0), const(1.0))))
    with pytest.raises(MapError, match="constant"):
        similarity_map(varying, 1.2, 0.3)


# -- the circle-bundle map --------------------------------------------------


def test_bundle_map_rotation_and_dilation():
    dom = (-1.5, -1.5, 1.5, 1.5)
    alpha = 0.9
    rot = similarity_map(EUCLID, 1.0, alpha, domain=dom)
    x1, x2 = pts(11, 50)
    th = np.random.default_rng(12).uniform(0.1, 2 * np.pi - 1.2, 50)
    (f1, f2), thp = bundle_map(rot, (x1, x2), th)
    np.testing.assert_allclose(thp, np.mod(th + alpha, 2 * np.pi), atol=1e-12)
    J = bundle_map_jacobian(rot, (x1, x2), th)
    np.testing.assert_allclose(np.linalg.det(J), 1.0, atol=1e-12)
    dil = similarity_map(EUCLID, 2.3, 0.0, domain=dom)
    _, thd = bundle_map(dil, (x1, x2), th)
    np.testing.assert_allclose(thd, th, atol=1e-12)


def test_bundle_map_jacobian_matches_finite_differences():
    cm = polar_power_map(1.5, (0.4, -0.5, 1.8, 0.5))
    rng = np.random.default_rng(7)
    x1 = rng.uniform(0.5, 1.7, 30)
    x2 = rng.uniform(-0.4, 0.4, 30)
    th = rng.uniform(0.3, 2.6, 30)  # keep the angle chart away from the seam
    J = bundle_map_jacobian(cm, (x1, x2), th)
    h = 1e-6

    def chart(a, b, t):
        (u, v), w = bundle_map(cm, (a, b), t)
        return np.stack([u, v, w], axis=-1)

    steps = [(h, 0, 0), (0, h, 0), (0, 0, h)]
    for b, (d1, d2, d3) in enumerate(steps):
        fd = (chart(x1 + d1, x2 + d2, th + d3)
              - chart(x1 - d1, x2 - d2, th - d3)) / (2 * h)
        np.testing.assert_allclose(J[..., :, b], fd, atol=2e-6)


# -- pointwise pullback identities ------------------------------------------


def test_pullback_checks_pass_for_similarity_on_wrapped_randers():
    cm = similarity_map(CONF, 1.6, 0.4, (0.3, -0.2), (-1.5, -1.5, 1.5, 1.5))
    rv = check_pullback_volume(cm, samples=600, seed=3, tol=1e-10)
    assert rv.passed, rv
    uprime = gaussian(1.0, (0.3, -0.4), 1.2)
    re = check_pullback_energy_density(cm, uprime, samples=400, seed=3,
                                       tol=1e-9)
    assert re.passed, re
    assert isinstance(rv, CheckReport) and rv.samples == 600


def test_pullback_checks_catch_a_wrong_factor():
    cm = similarity_map(CONF, 1.6, 0.4, (0.3, -0.2), (-1.5, -1.5, 1.5, 1.5))
    bad = dataclasses.replace(cm, sigma=const(0.123))
    rv = check_pullback_volume(bad, samples=200, seed=3, tol=1e-10)
    assert not rv.passed and rv.max_rel_err > 1e-3
    re = check_pullback_energy_density(bad, gaussian(1.0, (0.3, -0.4), 1.2),
                                       samples=200, seed=3, tol=1e-9)
    assert not re.passed and re.max_rel_err > 1e-3


def test_pullback_checks_pass_for_power_map():
    cm = polar_power_map(1.5, (0.4, -0.5, 1.8, 0.5))
    assert check_pullback_volume(cm, samples=400, seed=5, tol=1e-8).passed
    up = sinusoid(0.7, (0.9, 0.4), 0.2)
    assert check_pullback_energy_density(cm, up, samples=300, seed=5,
                                         tol=1e-8).passed


# -- grid-level invariance ----------------------------------------------------


def test_image_grid_tracks_the_mapped_rectangle():
    g = grid(n=20)
    cm = similarity_map(EUCLID, 2.0, math.pi / 2.0, (0.3, -0.2),
                        (-2.0, -2.0, 2.0, 2.0))
    tg = image_grid(cm, g)
    assert (tg.nx, tg.ny, tg.ntheta) == (g.nx, g.ny, g.ntheta)
    assert (tg.x1min, tg.x2min, tg.x1max, tg.x2max) == \
        pytest.approx((-3.7, -4.2, 4.3, 3.8), abs=1e-12)


def test_energy_invariance_exact_for_identity_rescale():
    g = grid(n=24)
    sig = sinusoid(0.3, (0.8, -0.5), 0.4)
    cm = rescale_map(RAND, sig, (-2.0, -2.0, 2.0, 2.0))
    rep = check_energy_invariance(cm, gaussian(1.0, (0.2, 0.1), 0.9), g,
                                  tol=1e-12)
    assert rep.passed and rep.max_rel_err < 1e-13


def test_energy_invariance_for_grid_aligned_similarity():
    g = grid(n=24)
    # quarter turn plus dilation: image nodes coincide with mapped nodes
    cm = similarity_map(CONF, 1.5, math.pi / 2.0, (0.25, -0.4),
                        (-2.0, -2.0, 2.0, 2.0))
    rep = check_energy_invariance(cm, gaussian(1.0, (0.3, 0.2), 1.1), g,
                                  tol=1e-12)
    assert rep.passed, rep


def test_energy_invariance_for_skew_rotation():
    g = grid(n=64, ntheta=8)
    cm = similarity_map(EUCLID, 1.0, 0.3, domain=(-2.0, -2.0, 2.0, 2.0))
    rep = check_energy_invariance(cm, gaussian(1.0, (0.1, -0.2), 0.8), g,
                                  tol=2e-2)
    assert rep.passed, rep


def test_capacity_invariance_exact_for_identity_rescale():
    g = grid(n=24)
    sig = sinusoid(0.3, (0.8, -0.5), 0.4)
    cm = rescale_map(RAND, sig, (-2.0, -2.0, 2.0, 2.0))
    cond = CondenserSpec(disk_complement(0.0, 0.0, 1.5), disk(0.0, 0.0, 0.6))
    rep = check_capacity_invariance(cm, cond, g, cfg=SolverConfig(tol=1e-6),
                                    tol=1e-10)
    assert rep.passed, rep


# -- point functions ---------------------------------------------------------


def test_invariant_arity_and_domain_errors():
    g = grid(n=12)
    q3 = InvariantQuery(points=((0.0, 0.0), (0.5, 0.5), (1.0, 0.0)))
    with pytest.raises(DomainError):
        invariant("mu", q3, EUCLID, g)
    with pytest.raises(DomainError):
        invariant("mu", InvariantQuery(points=((0.1, 0.1), (0.1, 0.1))),
                  EUCLID, g)
    with pytest.raises(DomainError):
        invariant("lambda", InvariantQuery(points=((0.0, 0.0), (5.0, 0.0))),
                  EUCLID, g)
    with pytest.raises(DomainError):
        invariant("nu", InvariantQuery(points=((0.1, 0.1),) * 3), EUCLID, g)
    with pytest.raises(DomainError):
        invariant("rho", q3, EUCLID, g)
    with pytest.raises(DomainError):
        invariant("rho",
                  InvariantQuery(points=((0.1, 0.1),) * 3 + ((1.0, 0.0),)),
                  EUCLID, g)


def test_mu_swap_symmetry_is_exact():
    g = grid(n=20)
    qa = InvariantQuery(points=((-0.8, -0.5), (0.9, 0.6)), controls=(1,))
    qb = InvariantQuery(points=((0.9, 0.6), (-0.8, -0.5)), controls=(1,))
    cfg = SolverConfig(tol=1e-6)
    ra = invariant("mu", qa, RAND, g, cfg=cfg)
    rb = invariant("mu", qb, RAND, g, cfg=cfg)
    # the pair is canonicalized before the catalog is built
    assert ra.value == rb.value and ra.winner == rb.winner
    assert ra.candidate_values == rb.candidate_values


def test_mu_catalog_monotone_under_enlargement():
    g = grid(n=20)
    cfg = SolverConfig(tol=1e-6)
    points = ((-0.8, -0.5), (0.9, 0.6))
    small = invariant("mu", InvariantQuery(points=points, controls=(1,),
                                           offsets=(0.0,)), RAND, g, cfg=cfg)
    big = invariant("mu", InvariantQuery(points=points, controls=(1,),
                                         offsets=(-1.0, 0.0, 1.0)), RAND, g,
                    cfg=cfg)
    assert big.value <= small.value
    assert small.converged and big.converged
    assert big.continuum is not None


def test_catalog_solves_each_rasterized_problem_once(monkeypatch):
    # the default mu catalog draws the straight chord once per control
    # count; the three copies rasterize alike and need one solve
    import finslercap.conformal as conformal
    g = grid(n=24)
    cfg = SolverConfig(tol=1e-6)
    q = InvariantQuery(points=((-0.6, -0.3), (0.6, 0.3)))
    handed = []
    solve_all = conformal.minimize_all

    def counting(plates, *args, **kwargs):
        def pulled():
            for pair in plates:
                handed.append(pair)
                yield pair
        return solve_all(pulled(), *args, **kwargs)

    monkeypatch.setattr(conformal, "minimize_all", counting)
    res = invariant("mu", q, CONF, g, cfg=cfg)
    assert len(res.candidate_values) == 15
    assert len(handed) == 13
    assert len({(m0.tobytes(), m1.tobytes()) for m0, m1 in handed}) == 13
    # every candidate, duplicates included, gets its own solve's value
    direct = [conformal.minimize(c, CONF, g, cfg=cfg).value
              for c in conformal.catalog("mu", q, g)]
    assert res.candidate_values == tuple(direct)
    assert res.winner == direct.index(min(direct))


def test_one_candidate_per_batch_gives_the_same_catalog(monkeypatch):
    g = grid(n=24)
    cfg = SolverConfig(tol=1e-6)
    q = InvariantQuery(points=((-0.6, -0.3), (0.6, 0.3)))
    sizes = []
    gradient = EnergyFunctional.gradient

    def recording(self, u):
        sizes.append(len(u))
        return gradient(self, u)

    monkeypatch.setattr(EnergyFunctional, "gradient", recording)
    together = invariant("mu", q, CONF, g, cfg=cfg)
    assert set(sizes) == {13}
    del sizes[:]
    monkeypatch.setattr(bundle, "_NODES_PER_BLOCK", g.nx * g.ny)
    alone = invariant("mu", q, CONF, g, cfg=cfg)
    assert set(sizes) == {1}
    assert alone.candidate_values == together.candidate_values
    assert (alone.winner, alone.converged) == (together.winner,
                                               together.converged)


def test_catalog_peak_memory_stays_near_one_solve(monkeypatch):
    """With one candidate per batch, a catalog solve holds no more than
    one candidate's solve at a time: its traced peak stays within 1.25x
    the peak of a single minimize on the same grid (the fold is cached
    before either is traced)."""
    g = grid(n=48)
    monkeypatch.setattr(bundle, "_NODES_PER_BLOCK", g.nx * g.ny)
    cfg = SolverConfig(tol=1e-6)
    q = InvariantQuery(points=((-0.6, -0.3), (0.6, 0.3)))
    first = catalog("mu", q, g)[0]
    minimize(first, CONF, g, cfg=cfg)
    peaks = []
    for solve in (lambda: minimize(first, CONF, g, cfg=cfg),
                  lambda: invariant("mu", q, CONF, g, cfg=cfg)):
        tracemalloc.start()
        try:
            solve()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    single, whole = peaks
    assert whole <= 1.25 * single


def test_nu_returns_a_finite_catalog_minimum():
    g = grid(n=20)
    q = InvariantQuery(points=((-0.6, -0.3), (0.5, 0.4), (1.2, -1.1)),
                       controls=(0,))
    res = invariant("nu", q, EUCLID, g, cfg=SolverConfig(tol=1e-5))
    assert math.isfinite(res.value) and res.value > 0
    assert 0 <= res.winner < len(res.candidate_values)
    assert res.value == min(v for v in res.candidate_values
                            if math.isfinite(v))


def test_empty_catalog_is_rejected():
    # a function's default controls apply only to controls=None; an
    # explicit choice that leaves no candidate is bad input, not a
    # converged +inf
    g = grid(n=12)
    two = ((-0.8, -0.5), (0.9, 0.6))
    for q in (InvariantQuery(points=two, controls=()),
              InvariantQuery(points=two, controls=(1,), offsets=())):
        with pytest.raises(DomainError, match="^mu: empty catalog"):
            invariant("mu", q, EUCLID, g)
    three = InvariantQuery(points=two + ((1.2, -1.1),), controls=())
    with pytest.raises(DomainError, match="^nu: empty catalog"):
        invariant("nu", three, EUCLID, g)
    # controls=None keeps the defaults: (1, 2, 3) for mu, (0, 1) for rho
    assert len(catalog("mu", InvariantQuery(points=two), g)) == 15
    four = InvariantQuery(points=two + ((1.2, -1.1), (-1.0, 1.1)))
    assert len(catalog("rho", four, g)) == 4 * 4


def test_rho_overlap_rule_exhaustive():
    a, b, c, d = (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)
    assert rho_overlap_rule((a, b, c, d)) == "ok"
    assert rho_overlap_rule((a, b, a, d)) == "overlap"
    assert rho_overlap_rule((a, b, c, a)) == "overlap"
    assert rho_overlap_rule((a, b, b, d)) == "overlap"
    assert rho_overlap_rule((a, b, c, b)) == "overlap"
    # a coincident pair on one side is allowed: the continuum degenerates
    # to a blob at the point
    assert rho_overlap_rule((a, a, c, d)) == "ok"
    assert rho_overlap_rule((a, a, a, d)) == "degenerate"
    assert rho_overlap_rule((a, a, a, a)) == "degenerate"
    with pytest.raises(DomainError):
        rho_overlap_rule((a, b, c))


def test_rho_overlap_short_circuits_to_inf():
    g = grid(n=12)
    q = InvariantQuery(points=((0.1, 0.2), (0.8, -0.3), (0.1, 0.2),
                               (-0.5, 0.9)))
    res = invariant("rho", q, EUCLID, g)
    assert math.isinf(res.value) and res.winner == -1
    assert res.converged and res.candidate_values == ()


def test_point_outside_the_grid_is_rejected_before_the_overlap_rule():
    g = grid(n=16)
    cm = rescale_map(EUCLID, const(0.2), (-2.0, -2.0, 2.0, 2.0))
    q = InvariantQuery(points=((0.1, 0.2), (5.0, 0.0), (0.1, 0.2),
                               (-0.5, 0.9)))
    with pytest.raises(DomainError, match=r"^rho: point \(5.0, 0.0\) lies "
                                          "outside"):
        invariant("rho", q, EUCLID, g)
    with pytest.raises(DomainError, match="outside"):
        check_invariant_invariance(cm, "rho", q, g)


def test_dropped_candidates_are_kept_apart_from_overlapping_ones():
    g = grid(n=16)
    cfg = SolverConfig(tol=1e-4)
    finite = CondenserSpec(outer_boundary(), disk(0.0, 0.0, 0.5))
    overlap = CondenserSpec(disk(0.0, 0.0, 0.5), disk(0.3, 0.0, 0.5))
    # disjoint, but closer than two cells: a ShapeError drops it
    dropped = CondenserSpec(disk(0.0, 0.0, 0.5), disk(0.9, 0.0, 0.2))

    res = _solve_catalog("mu", [overlap, dropped, finite], EUCLID, g, cfg,
                         2.0)
    assert (res.winner, res.skipped, res.converged) == (2, 1, True)
    assert res.candidate_values[:2] == (math.inf, math.inf)
    assert math.isfinite(res.value) and res.continuum == finite

    res = _solve_catalog("mu", [overlap, overlap], EUCLID, g, cfg, 2.0)
    assert math.isinf(res.value) and res.winner == -1
    assert res.converged and res.skipped == 0

    for pairs in ([dropped], [overlap, dropped]):
        with pytest.raises(ShapeError,
                           match=f"^mu: no candidate has a finite value and "
                                 f"1 of {len(pairs)} were dropped"):
            _solve_catalog("mu", pairs, EUCLID, g, cfg, 2.0)


def test_invariance_check_mu_identity_rescale():
    g = grid(n=24)
    sig = sinusoid(0.3, (0.8, -0.5), 0.4)
    cm = rescale_map(RAND, sig, (-2.0, -2.0, 2.0, 2.0))
    q = InvariantQuery(points=((-0.8, -0.5), (0.9, 0.6)), controls=(1,))
    reports = [check_invariant_invariance(cm, "mu", q, g,
                                          cfg=SolverConfig(tol=1e-6),
                                          tol=1e-10)]
    assert len(reports) == 1 and reports[0].passed
    assert reports[0].max_rel_err < 1e-12


def test_invariance_check_handles_rho_overlap():
    g = grid(n=12)
    cm = rescale_map(EUCLID, const(0.2), (-2.0, -2.0, 2.0, 2.0))
    q = InvariantQuery(points=((0.1, 0.2), (0.8, -0.3), (0.1, 0.2),
                               (-0.5, 0.9)))
    reports = [check_invariant_invariance(cm, "rho", q, g)]
    assert reports[0].passed and "+inf" in reports[0].detail


def test_invariance_check_rejects_wrong_arity():
    g = grid(n=12)
    cm = rescale_map(EUCLID, const(0.2), (-2.0, -2.0, 2.0, 2.0))
    q = InvariantQuery(points=((0.0, 0.0), (0.5, 0.5)))
    with pytest.raises(DomainError):
        check_invariant_invariance(cm, "nu", q, g)
