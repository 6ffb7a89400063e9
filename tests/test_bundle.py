import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslercap.bundle import (BundleField, ScalarField, SphereBundleGrid,
                               d_axis, d_axis_adjoint, d_omega_chart,
                               d_omega_matrix, fiber_partial,
                               gradient_norm_general, gradient_norm_lift,
                               integrate, node_tensors, one_sided,
                               volume_density)
from finslercap.errors import ShapeError
from finslercap.exprs import const, gaussian, sinusoid
from finslercap.metrics import (conformal_wrap, euclidean,
                                identity_matrix_field, randers, riemannian,
                                tensor_point)

EUCLID = euclidean()
RANDERS = randers(identity_matrix_field(), (const(0.4), const(0.1)))
CONF = conformal_wrap(EUCLID, sinusoid(0.3, (1.0, 0.7)))


def grid(nx=12, ny=10, ntheta=8, box=(-1.0, 1.0, -1.0, 1.0)):
    return SphereBundleGrid(box[0], box[1], box[2], box[3],
                            nx=nx, ny=ny, ntheta=ntheta)


# -- grid and field containers -------------------------------------------------

def test_grid_validation():
    with pytest.raises(ShapeError):
        SphereBundleGrid(1.0, -1.0, 0.0, 1.0, nx=8, ny=8, ntheta=8)
    with pytest.raises(ShapeError):
        SphereBundleGrid(0.0, 1.0, 0.0, 1.0, nx=2, ny=8, ntheta=8)
    with pytest.raises(ShapeError):
        SphereBundleGrid(0.0, 1.0, 0.0, 1.0, nx=8, ny=8, ntheta=4)


def test_grid_is_cell_centered():
    g = grid(nx=4, ny=4)
    assert g.x1[0] == pytest.approx(-1.0 + 0.25)
    assert g.x1[-1] == pytest.approx(1.0 - 0.25)
    assert g.thetas[0] == 0.0
    assert g.thetas[-1] == pytest.approx(2 * math.pi - g.dtheta)


def test_field_shape_checks():
    g = grid()
    with pytest.raises(ShapeError):
        ScalarField(np.zeros(g.base_shape), pinned=np.zeros((2, 2), bool))


# -- stencils -------------------------------------------------------------------

def test_d_axis_exact_on_quadratics():
    g = grid(nx=9, ny=7)
    X1, X2 = g.base_mesh()
    u = 2.0 * X1 ** 2 - X1 + 0.5
    np.testing.assert_allclose(d_axis(u, g.dx1, 0), 4.0 * X1 - 1.0,
                               atol=1e-12)
    v = -X2 ** 2 + 3.0 * X2
    np.testing.assert_allclose(d_axis(v, g.dx2, 1), -2.0 * X2 + 3.0,
                               atol=1e-12)


def test_d_axis_adjoint_is_exact_transpose():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((9, 7))
    b = rng.standard_normal((9, 7))
    for axis, h in ((0, 0.17), (1, 0.31)):
        lhs = np.sum(d_axis(a, h, axis) * b)
        rhs = np.sum(a * d_axis_adjoint(b, h, axis))
        assert lhs == pytest.approx(rhs, rel=1e-13)


# References: the plain edge-only pair and the five-band stencil that
# d_axis / d_axis_adjoint with one_sided node sets replaced, kept verbatim.

def _ref_d_axis(values, h, axis):
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def _ref_d_axis_adjoint(w, h, axis):
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


def _ref_axis_stencil(shape, h, axis, pinned=None):
    n = shape[axis]
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
        right = here & back & ~ahead & (idx <= n - 3)
        left = here & ahead & ~back & (idx >= 2)
        for band in c:
            band[1:-1][right] = 0.0
            band[1:-1][left] = 0.0
        c[2][1:-1][right], c[3][1:-1][right], c[4][1:-1][right] = -3.0 * w, 4.0 * w, -w
        c[2][1:-1][left], c[1][1:-1][left], c[0][1:-1][left] = 3.0 * w, -4.0 * w, w
    return c


def _ref_apply_stencil(c, values, axis):
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


def _ref_apply_stencil_adjoint(c, w, axis):
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


def test_banded_stencil_matches_plain_without_pins():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((11, 9))
    for axis, h in ((0, 0.2), (1, 0.15)):
        c = _ref_axis_stencil(u.shape, h, axis)
        np.testing.assert_allclose(_ref_apply_stencil(c, u, axis),
                                   d_axis(u, h, axis), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("shape", [(3, 3), (3, 7), (9, 7), (12, 10, 8)])
def test_edge_only_derivatives_are_bitwise_unchanged(shape):
    rng = np.random.default_rng(11)
    a = rng.standard_normal(shape)
    no_pins = np.zeros(shape, dtype=bool)
    for axis in range(len(shape)):
        h = 0.1 + 0.07 * axis
        ref = _ref_d_axis(a, h, axis)
        ref_adj = _ref_d_axis_adjoint(a, h, axis)
        for sides in (None, one_sided(shape, axis),
                      one_sided(shape, axis, no_pins)):
            assert d_axis(a, h, axis, sides).tobytes() == ref.tobytes()
            assert (d_axis_adjoint(a, h, axis, sides).tobytes()
                    == ref_adj.tobytes())


def test_one_sided_marks_edges_and_pinned_rim():
    pinned = np.zeros((7, 2), dtype=bool)
    pinned[1:3, 0] = True  # rim facing free nodes ahead: node 2 is forward
    pinned[4:6, 0] = True  # rim facing free nodes behind: node 4 is backward
    fwd, bwd = one_sided(pinned.shape, 0, pinned)
    rows = np.arange(14).reshape(7, 2)
    assert sorted(fwd) == [rows[0, 0], rows[0, 1], rows[2, 0]]
    assert sorted(bwd) == [rows[4, 0], rows[6, 0], rows[6, 1]]
    # a one-sided stencil must not reach past the grid edge
    pinned[:, :] = False
    pinned[3:6, 1] = True
    fwd, bwd = one_sided(pinned.shape, 0, pinned)
    assert sorted(fwd) == [rows[0, 0], rows[0, 1]]
    assert sorted(bwd) == [rows[3, 1], rows[6, 0], rows[6, 1]]
    with pytest.raises(ShapeError):
        one_sided((2, 5), 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 16), st.integers(3, 16), st.sampled_from((0, 1)),
       st.data())
def test_one_sided_derivatives_match_banded_reference(nx, ny, axis, data):
    bits = data.draw(st.lists(st.booleans(), min_size=nx * ny,
                              max_size=nx * ny))
    pinned = np.array(bits, dtype=bool).reshape(nx, ny)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal((nx, ny))
    b = rng.standard_normal((nx, ny))
    h = 0.05 + rng.random()
    sides = one_sided((nx, ny), axis, pinned)
    c = _ref_axis_stencil((nx, ny), h, axis, pinned)
    da = d_axis(a, h, axis, sides)
    ref = _ref_apply_stencil(c, a, axis)
    assert np.max(np.abs(da - ref)) <= 1e-14 * np.max(np.abs(ref))
    db = d_axis_adjoint(b, h, axis, sides)
    ref = _ref_apply_stencil_adjoint(c, b, axis)
    assert np.max(np.abs(db - ref)) <= 1e-14 * np.max(np.abs(ref))
    lhs = np.sum(da * b)
    rhs = np.sum(a * db)
    assert abs(lhs - rhs) <= 1e-13 * np.sum(np.abs(da * b))


def test_pinned_rim_switches_to_one_sided():
    # A pinned block bordered by free nodes: derivative at the rim row must
    # not reach across into the block's far side
    g = grid(nx=11, ny=9)
    X1, _ = g.base_mesh()
    u = X1 ** 2
    pinned = np.zeros(g.base_shape, dtype=bool)
    pinned[3:6, :] = True
    sides = one_sided(g.base_shape, 0, pinned)
    # one-sided second-order stencils stay exact on quadratics
    np.testing.assert_allclose(d_axis(u, g.dx1, 0, sides), 2.0 * X1,
                               atol=1e-11)
    # no node reads the block's middle row 4: the rim rows 3 and 5 turn
    # away from it, which the edge-only stencil does not do
    bumped = u.copy()
    bumped[4] += 7.0
    assert np.array_equal(d_axis(bumped, g.dx1, 0, sides),
                          d_axis(u, g.dx1, 0, sides))
    assert not np.array_equal(d_axis(bumped, g.dx1, 0)[[3, 5]],
                              d_axis(u, g.dx1, 0)[[3, 5]])


def test_pinned_adjoint_is_exact_transpose():
    rng = np.random.default_rng(7)
    pinned = rng.random((11, 9)) < 0.3
    a = rng.standard_normal((11, 9))
    b = rng.standard_normal((11, 9))
    for axis, h in ((0, 0.2), (1, 0.15)):
        sides = one_sided(a.shape, axis, pinned)
        lhs = np.sum(d_axis(a, h, axis, sides) * b)
        rhs = np.sum(a * d_axis_adjoint(b, h, axis, sides))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_lift_gradient_reads_the_pin_mask():
    g = grid(nx=11, ny=9)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(g.base_shape)
    plain = gradient_norm_lift(u, EUCLID, g).values[:, :, 0]
    du = np.hypot(d_axis(u, g.dx1, 0), d_axis(u, g.dx2, 1))
    np.testing.assert_allclose(plain, du, rtol=1e-14)
    pinned = np.zeros(g.base_shape, dtype=bool)
    pinned[4:6, 3:5] = True
    lift = gradient_norm_lift(ScalarField(u, pinned), EUCLID, g)
    du = np.hypot(d_axis(u, g.dx1, 0, one_sided(u.shape, 0, pinned)),
                  d_axis(u, g.dx2, 1, one_sided(u.shape, 1, pinned)))
    np.testing.assert_allclose(lift.values[:, :, 0], du, rtol=1e-14)
    assert not np.array_equal(lift.values[:, :, 0], plain)


def test_fiber_partial_periodic():
    g = grid(ntheta=64)
    th = g.thetas[None, None, :]
    vals = np.broadcast_to(np.sin(th), g.shape)
    dv = fiber_partial(vals, g)
    np.testing.assert_allclose(dv, np.cos(th) * np.ones(g.shape), atol=2e-3)
    np.testing.assert_allclose(fiber_partial(np.ones(g.shape), g), 0.0,
                               atol=1e-15)


# -- contact form, exterior derivative, volume ----------------------------------

def test_flat_contact_form_components():
    tp = tensor_point(EUCLID, (0.0, 0.0), (math.cos(0.6), math.sin(0.6)))
    np.testing.assert_allclose(tp.l_down,
                               [math.cos(0.6), math.sin(0.6)], atol=1e-15)
    A = d_omega_matrix(tp)
    l = np.array([math.cos(0.6), math.sin(0.6)])
    np.testing.assert_allclose(A, np.eye(2) - np.outer(l, l), atol=1e-15)


def _omega_chart(m, z):
    tp = tensor_point(m, (z[0], z[1]), (math.cos(z[2]), math.sin(z[2])))
    return np.array([tp.l_down[0], tp.l_down[1], 0.0])


def _fd_d_omega(m, z, h=1e-2):
    out = np.zeros((3, 3))
    for a in range(3):
        zp, zm = np.array(z), np.array(z)
        zp[a] += h
        zm[a] -= h
        row = (_omega_chart(m, zp) - _omega_chart(m, zm)) / (2 * h)
        out[a, :] += row
        out[:, a] -= row
    return out


def test_exterior_derivative_matches_finite_differences():
    rng = np.random.default_rng(21)
    for m in (RANDERS, CONF):
        for _ in range(6):
            z = (rng.uniform(-1, 1), rng.uniform(-1, 1),
                 rng.uniform(0, 2 * math.pi))
            tp = tensor_point(m, (z[0], z[1]),
                              (math.cos(z[2]), math.sin(z[2])))
            np.testing.assert_allclose(d_omega_chart(tp), _fd_d_omega(m, z),
                                       atol=1e-4)


def test_flat_volume_density_is_one():
    g = grid(nx=8, ny=8, ntheta=16)
    rho = node_tensors(EUCLID, g).rho
    np.testing.assert_allclose(rho, 1.0, atol=1e-12)


def test_constant_rescale_scales_density():
    # in two base dimensions the density picks up the factor squared
    c = 0.37
    m = conformal_wrap(EUCLID, const(c))
    tp = tensor_point(m, (0.3, -0.4), (math.cos(1.1), math.sin(1.1)))
    assert volume_density(tp) == pytest.approx(math.exp(2 * c), rel=1e-12)


def test_total_volume_of_unit_square():
    g = SphereBundleGrid(0.0, 1.0, 0.0, 1.0, nx=12, ny=12, ntheta=12)
    total = integrate(np.ones(g.shape), EUCLID, g)
    assert total == pytest.approx(2 * math.pi, rel=1e-12)


def test_integrate_region_mask():
    g = SphereBundleGrid(0.0, 1.0, 0.0, 1.0, nx=10, ny=10, ntheta=8)
    region = np.zeros(g.base_shape, dtype=bool)
    region[:5, :] = True
    half = integrate(np.ones(g.shape), EUCLID, g, region=region)
    assert half == pytest.approx(math.pi, rel=1e-12)


def test_integrate_quadrature_refines_at_second_order():
    f = gaussian(1.0, (0.4, 0.5), 0.6)
    def total(n):
        g = SphereBundleGrid(0.0, 1.0, 0.0, 1.0, nx=n, ny=n, ntheta=8)
        X1, X2 = g.base_mesh()
        vals = np.repeat(f((X1, X2))[:, :, None], g.ntheta, axis=2)
        return integrate(vals, EUCLID, g)
    fine = total(96)
    errs = [abs(total(n) - fine) for n in (12, 24)]
    assert errs[1] < errs[0] / 3.2


def test_node_tensors_cached():
    g = grid()
    assert node_tensors(EUCLID, g) is node_tensors(EUCLID, g)


def test_node_tensors_keep_one_entry():
    node_tensors(EUCLID, grid())
    node_tensors(RANDERS, grid(nx=9))
    info = node_tensors.cache_info()
    assert info.maxsize == 1 and info.currsize == 1


# -- lifted gradients ------------------------------------------------------------

def test_lift_gradient_flat_linear_field():
    g = grid(nx=16, ny=16)
    X1, X2 = g.base_mesh()
    u = 0.7 * X1 - 0.4 * X2
    norm = gradient_norm_lift(u, EUCLID, g).values
    np.testing.assert_allclose(norm, math.hypot(0.7, 0.4), atol=1e-12)


def test_lift_gradient_conformal_scales_inversely():
    g = grid(nx=16, ny=16)
    X1, X2 = g.base_mesh()
    u = 0.7 * X1 - 0.4 * X2
    sig = sinusoid(0.3, (1.0, 0.7))
    scaled = gradient_norm_lift(u, conformal_wrap(EUCLID, sig), g).values
    flat = gradient_norm_lift(u, EUCLID, g).values
    factor = np.exp(-sig((X1, X2)))[:, :, None]
    np.testing.assert_allclose(scaled, flat * factor, rtol=1e-12)


def test_general_gradient_reduces_on_lifts():
    g = grid(nx=14, ny=12, ntheta=16)
    X1, X2 = g.base_mesh()
    u = np.sin(X1) * X2
    lifted = BundleField(np.repeat(u[:, :, None], g.ntheta, axis=2))
    full = gradient_norm_general(lifted, RANDERS, g).values
    reduced = gradient_norm_lift(u, RANDERS, g).values
    np.testing.assert_allclose(full, reduced, atol=1e-10)


def test_general_gradient_sees_fiber_variation():
    g = grid(ntheta=32)
    th = np.broadcast_to(g.thetas[None, None, :], g.shape)
    f = BundleField(np.sin(th))
    norm = gradient_norm_general(f, EUCLID, g).values
    assert float(np.max(norm)) > 0.5
