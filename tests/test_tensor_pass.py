"""The jet-only tensor pass against the eager connection path.

``tensor_point`` evaluates F, l, g and g^{-1} from second-order y-jets and
leaves C, dg/dx, gamma and N to first access; ``node_tensors`` keeps only
g^{-1} and rho, from closed forms that the last section checks against
the jets.  The reference below evaluates every tensor eagerly, with
third-order duals over all variables, ``numpy.linalg.inv`` and the full
3x3 volume wedge with the connection entries kept.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslercap import bundle, metrics
from finslercap.bundle import (SphereBundleGrid, d_omega_matrix, node_tensors,
                               volume_density)
from finslercap.dual import diff
from finslercap.errors import FinslerError, InvalidMetricError
from finslercap.exprs import const, expr_sum, exponential, gaussian, sinusoid
from finslercap.metrics import (conformal_wrap, euclidean,
                                identity_matrix_field, randers, riemannian,
                                tensor_point)

COEFF = exponential(1.0, (0.6, -0.2))
SPECS = {
    "euclidean": euclidean(),
    "riemannian": riemannian(((COEFF, const(0.2)), (const(0.2), const(1.3)))),
    "randers": randers(identity_matrix_field(), (const(0.4), const(-0.3))),
    "conformal-randers": conformal_wrap(
        randers(((COEFF, const(0.1)), (const(0.1), const(1.2))),
                (const(0.2), const(-0.1))),
        sinusoid(0.3, (1.0, 0.7), 0.4)),
}
LAZY = ("cartan", "dg_dx", "gamma", "nonlin", "nonlin_scaled")


def _eager(m, x, y):
    """Every tensor at (x, y) in one eager pass over third-order duals."""
    xc, yc = metrics._prep(m, x, y)
    z = xc + yc
    n = 2
    batch = np.broadcast_shapes(*(np.shape(c) for c in z))
    fsq = lambda w: metrics._fsq(m, w)
    g = np.empty(batch + (n, n))
    C = np.empty(batch + (n, n, n))
    D = np.empty(batch + (n, n, n))
    for i in range(n):
        for j in range(i, n):
            dij = diff(diff(fsq, n + i), n + j)
            g[..., i, j] = g[..., j, i] = np.asarray(dij(z)) * 0.5
            for k in range(j, n):
                w = np.asarray(diff(dij, n + k)(z)) * 0.25
                for p, q, r in {(i, j, k), (i, k, j), (j, i, k),
                                (j, k, i), (k, i, j), (k, j, i)}:
                    C[..., p, q, r] = w
            for k in range(n):
                D[..., k, i, j] = D[..., k, j, i] = \
                    np.asarray(diff(dij, k)(z)) * 0.5
    F = np.broadcast_to(np.asarray(metrics._fval(m, z), dtype=float), batch)
    g_inv = np.linalg.inv(g)
    yv = np.stack(np.broadcast_arrays(*yc), axis=-1)
    gamma = metrics._christoffel_from(g_inv, D)
    Cup = np.einsum("...is,...sjk->...ijk", g_inv, C)
    gyy = np.einsum("...krs,...r,...s->...k", gamma, yv, yv)
    N = (np.einsum("...ijk,...k->...ij", gamma, yv)
         - np.einsum("...ijk,...k->...ij", Cup, gyy))
    return dict(F=F, g=g, g_inv=g_inv, cartan=C, dg_dx=D, gamma=gamma,
                nonlin=N, nonlin_scaled=N / F[..., None, None])


def _det3(r0, r1, r2):
    return (r0[..., 0] * (r1[..., 1] * r2[..., 2] - r1[..., 2] * r2[..., 1])
            - r0[..., 1] * (r1[..., 0] * r2[..., 2] - r1[..., 2] * r2[..., 0])
            + r0[..., 2] * (r1[..., 0] * r2[..., 1] - r1[..., 1] * r2[..., 0]))


def _wedge_with_connection(tp):
    """volume_density's wedge with the connection entries of the coframe kept."""
    A = d_omega_matrix(tp)
    vert = bundle._vertical_coframe(tp)
    omega = np.zeros(tp.F.shape + (3,))
    omega[..., :2] = tp.l_down
    beta = np.zeros(tp.F.shape + (3,))
    rho = np.zeros(tp.F.shape)
    for j in range(2):
        beta[..., :2] = A[..., :, j]
        rho = rho + _det3(omega, beta, vert[..., j, :])
    return rho


def _samples(seed, count=400):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, size=(2, count))
    th = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return x, (np.cos(th), np.sin(th))


def _assert_rel(actual, expected):
    scale = float(np.max(np.abs(expected)))
    assert float(np.max(np.abs(actual - expected))) <= 1e-14 * scale


@pytest.mark.parametrize("name", sorted(SPECS))
def test_eager_tensors_match_the_connection_path(name):
    m = SPECS[name]
    x, y = _samples(11)
    tp = tensor_point(m, x, y)
    ref = _eager(m, x, y)
    np.testing.assert_array_equal(tp.F, ref["F"])
    np.testing.assert_array_equal(tp.g, ref["g"])
    _assert_rel(tp.g_inv, ref["g_inv"])
    assert not set(LAZY) & set(vars(tp))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_lazy_connection_equals_eager_values(name):
    m = SPECS[name]
    x, y = _samples(12)
    tp = tensor_point(m, x, y)
    ref = _eager(m, x, y)
    # C and dg/dx take the same arithmetic; gamma and N also read g^{-1},
    # whose adjugate form rounds differently from numpy.linalg.inv
    np.testing.assert_array_equal(tp.cartan, ref["cartan"])
    np.testing.assert_array_equal(tp.dg_dx, ref["dg_dx"])
    for key in ("gamma", "nonlin", "nonlin_scaled"):
        _assert_rel(getattr(tp, key), ref[key])
    assert tp.nonlin is tp.nonlin
    assert set(LAZY) <= set(vars(tp))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_volume_density_never_reads_the_connection(name):
    m = SPECS[name]
    x, y = _samples(13)
    tp = tensor_point(m, x, y)
    rho = volume_density(tp)
    assert not set(LAZY) & set(vars(tp))
    np.testing.assert_array_equal(rho, _wedge_with_connection(tp))
    tp.nonlin_scaled = np.zeros_like(tp.nonlin_scaled)
    np.testing.assert_array_equal(rho, _wedge_with_connection(tp))
    np.testing.assert_array_equal(rho, volume_density(tp))


@pytest.mark.parametrize("sign", [0.0, -1.0])
def test_volume_density_rejects_a_nonpositive_angular_metric(sign):
    x, y = _samples(15)
    tp = tensor_point(SPECS["conformal-randers"], x, y)
    ll = tp.l_down[..., :, None] * tp.l_down[..., None, :]
    # g = l l^T + sign * A scales the angular metric A, and rho with it
    bad = dataclasses.replace(tp, g=ll + sign * d_omega_matrix(tp))
    with pytest.raises(FinslerError):
        volume_density(bad)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_node_tensors_match_the_connection_path(name):
    m = SPECS[name]
    rng = np.random.default_rng(14)
    lo = rng.uniform(-1.5, -0.5, size=2)
    g = SphereBundleGrid(lo[0], lo[0] + 1.7, lo[1], lo[1] + 1.3,
                         nx=9, ny=7, ntheta=8)
    nd = node_tensors(m, g)
    c, s = g.fiber_directions()
    x = (g.x1[:, None, None], g.x2[None, :, None])
    y = (c[None, None, :], s[None, None, :])
    ref = _eager(m, x, y)
    _assert_rel(nd.g_inv, ref["g_inv"])
    _assert_rel(nd.rho, _wedge_with_connection(tensor_point(m, x, y)))


def test_node_tensors_blocks_do_not_change_values(monkeypatch):
    m = SPECS["conformal-randers"]
    g = SphereBundleGrid(-1.0, 1.0, -1.0, 1.0, nx=11, ny=6, ntheta=8)
    whole = node_tensors.__wrapped__(m, g)
    monkeypatch.setattr(bundle, "_NODES_PER_BLOCK", 1)
    rows = node_tensors.__wrapped__(m, g)
    for f in dataclasses.fields(whole):
        np.testing.assert_array_equal(getattr(rows, f.name),
                                      getattr(whole, f.name))


def test_node_tensors_hold_48_bytes_per_node():
    g = SphereBundleGrid(-1.0, 1.0, -1.0, 1.0, nx=10, ny=12, ntheta=16)
    nd = node_tensors(SPECS["conformal-randers"], g)
    total = sum(getattr(nd, f.name).nbytes for f in dataclasses.fields(nd))
    assert total <= 48 * g.nx * g.ny * g.ntheta


# -- the closed-form node path against the jets -----------------------------

def _spd(lam, cond, t):
    """R(t) diag(lam, lam cond) R(t)^T."""
    c, s = math.cos(t), math.sin(t)
    l0, l1 = lam, lam * cond
    return np.array([[l0 * c * c + l1 * s * s, (l0 - l1) * c * s],
                     [(l0 - l1) * c * s, l0 * s * s + l1 * c * c]])


def _const_matrix(a):
    a01 = const(a[0, 1])
    return ((const(a[0, 0]), a01), (a01, const(a[1, 1])))


def _drift(a, size, phi):
    """Covector along angle phi with a-norm ``size``."""
    d = np.array([math.cos(phi), math.sin(phi)])
    return d * size / math.sqrt(d @ np.linalg.solve(a, d))


def _max_condition(g):
    tr = g[..., 0, 0] + g[..., 1, 1]
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    gap = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return float(np.max((tr + gap) / (tr - gap)))


_ANGLE = st.floats(0.0, 2.0 * math.pi)
_METRICS = st.tuples(
    st.floats(0.1, 10.0), st.floats(1.0, 100.0), _ANGLE,
    st.one_of(st.none(), st.tuples(st.floats(0.0, 0.95), _ANGLE)),
    st.one_of(st.floats(-1.0, 1.0).map(const),
              st.builds(sinusoid, st.floats(0.0, 0.5),
                        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                        _ANGLE)))
_GRIDS = st.tuples(st.floats(-2.0, 1.0), st.floats(-2.0, 1.0),
                   st.floats(0.5, 3.0), st.floats(0.5, 3.0),
                   st.integers(3, 12), st.integers(3, 12), st.integers(8, 32))


@settings(max_examples=150, deadline=None)
@given(_METRICS, _GRIDS)
def test_closed_form_node_tensors_match_the_jets(metric, box):
    """Constant a with condition number up to 100, |b|_a up to 0.95 or no
    drift, a constant or sinusoidal conformal factor.  Both paths round at
    about eps times the condition number of g, and at cond a = 100,
    |b|_a = 0.95 the jets alone are up to 1e-13 off an extended-precision
    evaluation, so the bound is 1e-14 of the max-norm, widened in
    proportion to that condition number where it exceeds 5."""
    lam, cond, t, drift, sigma = metric
    a = _spd(lam, cond, t)
    if drift is None:
        base = riemannian(_const_matrix(a))
    else:
        base = randers(_const_matrix(a),
                       tuple(const(v) for v in _drift(a, *drift)))
    m = conformal_wrap(base, sigma)
    x1, x2, w1, w2, nx, ny, ntheta = box
    g = SphereBundleGrid(x1, x1 + w1, x2, x2 + w2, nx=nx, ny=ny,
                         ntheta=ntheta)
    nd = node_tensors.__wrapped__(m, g)
    tp = bundle._grid_tensor_point(m, g)
    tol = max(1e-14, 2e-15 * _max_condition(tp.g))
    for got, ref in ((nd.g_inv, tp.g_inv), (nd.rho, volume_density(tp))):
        scale = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(got - ref))) <= tol * scale


_SMALL = SphereBundleGrid(-1.0, 1.0, -1.0, 1.0, nx=5, ny=4, ntheta=8)
_NODE = (_SMALL.x1[2], _SMALL.x2[1])


def _same_rejection(m, error=InvalidMetricError):
    """node_tensors raises what the jet path raises, with its message."""
    with pytest.raises(error) as closed:
        node_tensors.__wrapped__(m, _SMALL)
    with pytest.raises(error) as jets:
        bundle._grid_tensor_point(m, _SMALL)
    assert str(closed.value) == str(jets.value)


def test_node_tensors_reject_a_unit_drift_at_one_node():
    a = _spd(0.7, 30.0, 0.4)
    coeffs = _const_matrix(a)
    bump = lambda size: randers(coeffs, tuple(
        gaussian(v, _NODE, 1.0) for v in _drift(a, size, 1.1)))
    node_tensors.__wrapped__(bump(1.0 - 1e-9), _SMALL)
    _same_rejection(bump(1.0 + 1e-9))


def test_node_tensors_reject_an_indefinite_coefficient_matrix():
    dip = expr_sum(const(1.0), gaussian(-1.5, _NODE, 0.05))
    _same_rejection(riemannian(((dip, const(0.2)), (const(0.2), const(1.3)))))
    _same_rejection(riemannian(((const(1.0), const(1.2)),
                                (const(1.2), const(1.0)))))


@pytest.mark.parametrize("field", ["sigma", "a", "b"])
def test_node_tensors_reject_nan_like_the_jets(field):
    nan = const(float("nan"))
    one, zero = const(1.0), const(0.0)
    if field == "sigma":
        m = conformal_wrap(SPECS["randers"], nan)
    elif field == "a":
        m = riemannian(((one, zero), (zero, nan)))
    else:
        m = randers(identity_matrix_field(), (const(0.2), nan))
    _same_rejection(m)
