import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslercap.errors import DirectionError, InvalidMetricError
from finslercap.exprs import (const, exponential, expr_sum, gaussian, linear,
                              log_radial, parse_expr, precompose_affine,
                              sinusoid)
from finslercap import metrics
from finslercap.metrics import (MetricSpec, conformal_wrap, euclidean, eval_F,
                                identity_matrix_field, randers, riemannian,
                                tensor_point, validate_at)

FLAT_RANDERS = randers(identity_matrix_field(), (const(0.5), const(0.0)))
EXP_COEFF = exponential(1.0, (2.0, 0.0))
EXP_RIEMANN = riemannian(((EXP_COEFF, const(0.0)), (const(0.0), EXP_COEFF)))
WIGGLY = conformal_wrap(
    randers(((exponential(1.0, (0.4, 0.0)), const(0.1)),
             (const(0.1), const(1.2))), (const(0.2), const(-0.1))),
    sinusoid(0.3, (1.0, 0.7)))

CATALOG = (euclidean(), EXP_RIEMANN, FLAT_RANDERS, WIGGLY)


# -- scalar expressions ---------------------------------------------------------

def test_expression_values():
    x = (0.7, -0.3)
    assert const(2.5)(x) == 2.5
    assert linear(1.0, 2.0, -1.0)(x) == pytest.approx(1.0 + 1.4 + 0.3)
    assert linear(0.0, 0.0, 1.0)(x) == -0.3
    assert sinusoid(0.5, (2.0, 0.0), 0.1)(x) == pytest.approx(
        0.5 * math.sin(1.4 + 0.1))
    assert exponential(2.0, (1.0, 1.0))(x) == pytest.approx(2 * math.exp(0.4))
    assert gaussian(1.0, (0.0, 0.0), 2.0)(x) == pytest.approx(
        math.exp(-(0.58) / 4.0))
    assert log_radial(1.0, 0.5, (0.2, 0.2))(x) == pytest.approx(
        1.0 + 0.5 * 0.5 * math.log(0.25 + 0.25))
    assert expr_sum(const(1.0), linear(0.0, 1.0, 0.0))(x) == \
        pytest.approx(1.7)


def test_precompose_affine_matches_composition():
    inner = sinusoid(1.0, (1.0, 2.0))
    mat = ((0.5, -1.0), (2.0, 0.3))
    shift = (0.1, -0.2)
    composed = precompose_affine(inner, mat, shift)
    x = (0.4, 0.9)
    z = (mat[0][0] * x[0] + mat[0][1] * x[1] + shift[0],
         mat[1][0] * x[0] + mat[1][1] * x[1] + shift[1])
    assert composed(x) == pytest.approx(inner(z), rel=1e-15)


def test_parse_expr_round_trips():
    x = (0.3, 0.8)
    for text, direct in [
        ("const:2.0", const(2.0)),
        ("linear:1,0.5,-0.25", linear(1.0, 0.5, -0.25)),
        ("sin:0.3,1.0,0.7", sinusoid(0.3, (1.0, 0.7))),
        ("sin:0.3,1.0,0.7,0.2", sinusoid(0.3, (1.0, 0.7), 0.2)),
        ("exp:1.0,2.0,0.0", exponential(1.0, (2.0, 0.0))),
        ("gauss:1.0,0.1,0.2,1.5", gaussian(1.0, (0.1, 0.2), 1.5)),
        ("logr:0.0,1.0,0.0,0.0", log_radial(0.0, 1.0, (0.0, 0.0))),
        ("zero", const(0.0)),
    ]:
        assert parse_expr(text) == direct
        assert parse_expr(text)(x) == direct(x)
    with pytest.raises(ValueError):
        parse_expr("warp:1.0")
    with pytest.raises(ValueError):
        parse_expr("const:a")


# -- frozen pointwise oracles ---------------------------------------------------

def test_flat_randers_norm():
    assert eval_F(FLAT_RANDERS, (0.0, 0.0), (3.0, 4.0)) == pytest.approx(6.5)
    assert eval_F(FLAT_RANDERS, (1.0, -1.0), (0.0, 2.0)) == pytest.approx(2.0)


def test_flat_randers_fundamental_tensor():
    g = tensor_point(FLAT_RANDERS, (0.0, 0.0), (0.0, 1.0)).g
    np.testing.assert_allclose(g, [[1.25, 0.5], [0.5, 1.0]], atol=1e-14)


def test_flat_randers_cartan_pattern():
    # totally symmetric, y in every kernel slot; on the diagonal direction
    # the four independent entries collapse to one alternating magnitude
    C = tensor_point(FLAT_RANDERS, (0.0, 0.0), (1.0, 1.0)).cartan
    c = 0.13258252147247768
    sign = np.array([[[(-1.0) ** (i + j + k) for k in range(2)]
                      for j in range(2)] for i in range(2)])
    np.testing.assert_allclose(C, c * sign, atol=1e-14)


def test_conformally_flat_christoffel():
    gam = tensor_point(EXP_RIEMANN, (0.3, -0.2), (0.7, 0.4)).gamma
    np.testing.assert_allclose(gam[0], [[1.0, 0.0], [0.0, -1.0]], atol=1e-12)
    np.testing.assert_allclose(gam[1], [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_riemannian_connection_contracts_christoffel():
    # zero Cartan torsion leaves only the gamma * y term
    x, y = (0.3, -0.2), (0.7, 0.4)
    tp = tensor_point(EXP_RIEMANN, x, y)
    N, N_scaled = tp.nonlin, tp.nonlin_scaled
    np.testing.assert_allclose(N, [[0.7, -0.4], [0.4, 0.7]], atol=1e-12)
    F = eval_F(EXP_RIEMANN, x, y)
    np.testing.assert_allclose(N_scaled, N / F, atol=1e-14)


def test_euclidean_tensors():
    tp = tensor_point(euclidean(), (0.2, 0.5), (0.6, -0.8))
    assert tp.F == pytest.approx(1.0)
    np.testing.assert_allclose(tp.g, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(tp.cartan, 0.0, atol=1e-15)
    np.testing.assert_allclose(tp.gamma, 0.0, atol=1e-15)
    np.testing.assert_allclose(tp.nonlin, 0.0, atol=1e-15)


def test_conformal_rescales_norm_exactly():
    sig = sinusoid(0.3, (1.0, 0.7))
    m = conformal_wrap(FLAT_RANDERS, sig)
    x, y = (0.4, -0.9), (1.1, 0.3)
    assert eval_F(m, x, y) == pytest.approx(
        math.exp(sig(x)) * eval_F(FLAT_RANDERS, x, y), rel=1e-15)


def test_conformal_wraps_merge():
    a, b = sinusoid(0.2, (1.0, 0.0)), const(0.3)
    twice = conformal_wrap(conformal_wrap(euclidean(), a), b)
    once = conformal_wrap(euclidean(), expr_sum(a, b))
    assert twice == once
    assert twice.base.kind == "euclidean"


# -- finite-difference oracles --------------------------------------------------

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


def test_randers_family_against_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(50):
        b1, b2 = rng.uniform(-0.5, 0.5, 2)
        m = randers(identity_matrix_field(), (const(b1), const(b2)))
        x = tuple(rng.uniform(-1, 1, 2))
        th = rng.uniform(0, 2 * math.pi)
        r = rng.uniform(0.5, 1.5)
        y = (r * math.cos(th), r * math.sin(th))
        np.testing.assert_allclose(tensor_point(m, x, y).g,
                                   _fd_fundamental(m, x, y), atol=1e-5)
        np.testing.assert_allclose(tensor_point(m, x, y).cartan,
                                   _fd_cartan(m, x, y), atol=1e-5)


def test_position_dependent_metrics_against_finite_differences():
    rng = np.random.default_rng(13)
    for m in (EXP_RIEMANN, WIGGLY):
        for _ in range(6):
            x = tuple(rng.uniform(-0.8, 0.8, 2))
            th = rng.uniform(0, 2 * math.pi)
            y = (math.cos(th), math.sin(th))
            np.testing.assert_allclose(tensor_point(m, x, y).g,
                                       _fd_fundamental(m, x, y), atol=1e-5)
            np.testing.assert_allclose(tensor_point(m, x, y).gamma,
                                       _fd_christoffel(m, x, y), atol=1e-4)


# -- structural properties ------------------------------------------------------

def test_homogeneity_across_catalog():
    rng = np.random.default_rng(17)
    for m in CATALOG:
        for _ in range(6):
            x = tuple(rng.uniform(-0.9, 0.9, 2))
            th = rng.uniform(0, 2 * math.pi)
            rr = rng.uniform(0.4, 1.8)
            y = (rr * math.cos(th), rr * math.sin(th))
            F = eval_F(m, x, y)
            g = tensor_point(m, x, y).g
            yv = np.array(y)
            assert yv @ g @ yv == pytest.approx(F * F, rel=1e-10)
            np.testing.assert_allclose(tensor_point(m, x, y).cartan @ yv,
                                       0.0, atol=1e-10)
            for lam in (0.5, 2.0, 7.3):
                ys = (lam * y[0], lam * y[1])
                assert eval_F(m, x, ys) == pytest.approx(lam * F, rel=1e-12)
                np.testing.assert_allclose(tensor_point(m, x, ys).g, g,
                                           atol=1e-10)
                N = tensor_point(m, x, y).nonlin
                Ns = tensor_point(m, x, ys).nonlin
                np.testing.assert_allclose(Ns, lam * N, atol=1e-8 * lam)


def test_fundamental_tensor_positive_definite_on_catalog():
    rng = np.random.default_rng(19)
    for m in CATALOG:
        for _ in range(6):
            x = tuple(rng.uniform(-0.9, 0.9, 2))
            th = rng.uniform(0, 2 * math.pi)
            g = tensor_point(m, x, (math.cos(th), math.sin(th))).g
            assert np.all(np.linalg.eigvalsh(g) > 0)


def test_batched_evaluation_matches_scalar():
    xs = (np.linspace(-0.5, 0.5, 4), np.linspace(0.1, 0.4, 4))
    ys = (np.full(4, 0.8), np.linspace(-0.2, 0.9, 4))
    batch = eval_F(WIGGLY, xs, ys)
    for k in range(4):
        single = eval_F(WIGGLY, (xs[0][k], xs[1][k]), (ys[0][k], ys[1][k]))
        assert batch[k] == pytest.approx(single, rel=1e-15)
    gb = tensor_point(WIGGLY, xs, ys).g
    assert gb.shape == (4, 2, 2)
    np.testing.assert_allclose(
        gb[2], tensor_point(WIGGLY, (xs[0][2], xs[1][2]),
                            (ys[0][2], ys[1][2])).g, rtol=1e-14)


# -- error paths ----------------------------------------------------------------

def test_zero_direction_rejected():
    with pytest.raises(DirectionError):
        eval_F(euclidean(), (0.0, 0.0), (0.0, 0.0))


def test_invalid_randers_rejected_where_queried():
    m = randers(identity_matrix_field(), (const(1.1), const(0.0)))
    with pytest.raises(InvalidMetricError):
        validate_at(m, (0.0, 0.0))
    grow = randers(identity_matrix_field(), (linear(0.0, 1.0, 0.0),
                                             const(0.0)))
    validate_at(grow, (0.5, 0.0))
    with pytest.raises(InvalidMetricError):
        validate_at(grow, (1.5, 0.0))


# a = R(t) diag(lam) R(t)^T with condition number at most 100, and a
# direction phi for the drift b
_SPD_AND_DIRECTION = st.tuples(
    st.floats(0.1, 10.0), st.floats(0.1, 10.0),
    st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))


def _spd(lam0, lam1, t):
    c, s = math.cos(t), math.sin(t)
    a00 = lam0 * c * c + lam1 * s * s
    a11 = lam0 * s * s + lam1 * c * c
    a01 = (lam0 - lam1) * c * s
    return np.array([[a00, a01], [a01, a11]])


def _solve_norm2(a, b):
    return float(b @ np.linalg.solve(a, b))


@settings(max_examples=300, deadline=None)
@given(_SPD_AND_DIRECTION)
def test_randers_norm_closed_form_matches_solve(draw):
    lam0, lam1, t, phi = draw
    a = _spd(lam0, lam1, t)
    b = np.array([math.cos(phi), math.sin(phi)])
    ref = _solve_norm2(a, b)
    got = float(metrics._randers_norm2(a, tuple(b)))
    assert abs(got - ref) <= 1e-14 * ref


@settings(max_examples=300, deadline=None)
@given(_SPD_AND_DIRECTION)
def test_randers_validity_boundary_is_unit_drift_norm(draw):
    lam0, lam1, t, phi = draw
    a = _spd(lam0, lam1, t)
    b = np.array([math.cos(phi), math.sin(phi)])
    b /= math.sqrt(_solve_norm2(a, b))
    coeffs = ((const(a[0, 0]), const(a[0, 1])), (const(a[0, 1]), const(a[1, 1])))
    inside = randers(coeffs, tuple(const(v) for v in (1.0 - 1e-9) * b))
    outside = randers(coeffs, tuple(const(v) for v in (1.0 + 1e-9) * b))
    validate_at(inside, (0.3, -0.2))
    with pytest.raises(InvalidMetricError):
        validate_at(outside, (0.3, -0.2))


@settings(max_examples=300, deadline=None)
@given(_SPD_AND_DIRECTION, st.floats(0.0, 0.99), st.floats(0.0, 2.0 * math.pi),
       st.floats(1e-3, 1e3))
def test_randers_is_positively_homogeneous(draw, size, psi, lam):
    lam0, lam1, t, phi = draw
    a = _spd(lam0, lam1, t)
    b = np.array([math.cos(phi), math.sin(phi)])
    b *= size / math.sqrt(_solve_norm2(a, b))  # |b|_a = size < 1
    coeffs = ((const(a[0, 0]), const(a[0, 1])), (const(a[0, 1]), const(a[1, 1])))
    m = randers(coeffs, tuple(const(v) for v in b))
    x, y = (0.3, -0.2), (math.cos(psi), math.sin(psi))
    F = eval_F(m, x, y)
    g = tensor_point(m, x, y).g
    ys = (lam * y[0], lam * y[1])
    assert abs(eval_F(m, x, ys) - lam * F) <= 1e-12 * lam * F
    assert np.max(np.abs(tensor_point(m, x, ys).g - g)) \
        <= 1e-12 * np.max(np.abs(g))


def test_asymmetric_riemannian_rejected():
    with pytest.raises(InvalidMetricError):
        riemannian(((const(1.0), const(0.2)), (const(0.1), const(1.0))))


def test_only_surface_coefficients_are_accepted():
    one, zero = const(1.0), const(0.0)
    eye3 = tuple(tuple(one if i == j else zero for j in range(3))
                 for i in range(3))
    with pytest.raises(InvalidMetricError, match="2x2"):
        riemannian(eye3)
    with pytest.raises(InvalidMetricError, match="2x2"):
        riemannian(((one, zero), (zero,)))
    with pytest.raises(InvalidMetricError, match="wrong length"):
        randers(identity_matrix_field(), (zero, zero, zero))
    with pytest.raises(DirectionError, match="2 components"):
        eval_F(euclidean(), (0.0, 0.0, 0.0), (1.0, 0.0))


def test_metric_specs_hashable_and_frozen():
    m = FLAT_RANDERS
    assert hash(m) == hash(randers(identity_matrix_field(),
                                   (const(0.5), const(0.0))))
    with pytest.raises(AttributeError):
        m.kind = "other"
    assert isinstance(m, MetricSpec)
