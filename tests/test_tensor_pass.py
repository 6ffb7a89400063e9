"""The jet-only tensor pass against the eager connection path.

``tensor_point`` evaluates F, l, g and g^{-1} from second-order y-jets and
leaves C, dg/dx, gamma and N to first access; ``node_tensors`` keeps only
g^{-1} and rho.  The reference below evaluates every tensor eagerly,
with third-order duals over all variables, ``numpy.linalg.inv`` and the
full 3x3 volume wedge with the connection entries kept.
"""

import dataclasses

import numpy as np
import pytest

from finslercap import bundle, metrics
from finslercap.bundle import (SphereBundleGrid, d_omega_matrix, node_tensors,
                               volume_density)
from finslercap.dual import diff
from finslercap.errors import FinslerError
from finslercap.exprs import const, exponential, sinusoid
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
    n = m.dim
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
