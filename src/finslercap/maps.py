"""Invertible planar maps with closed-form inverses and derivatives.

The catalog is deliberately small: the identity, affine maps, and the
polar power map (r, phi) -> (r^p, p*phi).  Each entry knows its exact
inverse and derivative matrix, so shape preimages, pushforwards of
directions, and chart Jacobians never rely on numerical root finding.
``apply`` and ``deriv_rows`` run on floats, numpy arrays, and dual
numbers alike; this keeps every derivative taken through a map exact.

Polar power maps are only sensible away from the origin and the branch
cut along the negative first axis; callers restrict their domains
accordingly (the conformal-map factories check this).
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from . import dual as dm
from .errors import MapError


@dataclass(frozen=True)
class PlanarMap:
    kind: str
    params: tuple = ()

    def apply(self, x1, x2):
        k = self.kind
        if k == "identity":
            return (x1, x2)
        if k == "affine":
            a11, a12, a21, a22, s1, s2 = self.params
            return (a11 * x1 + a12 * x2 + s1, a21 * x1 + a22 * x2 + s2)
        if k == "polar_power":
            (p,) = self.params
            r = dm.sqrt(x1 * x1 + x2 * x2)
            phi = dm.atan2(x2, x1)
            rp = r ** p
            return (rp * dm.cos(p * phi), rp * dm.sin(p * phi))
        raise MapError(f"unknown planar map kind {k!r}")

    def inverse(self, y1, y2):
        k = self.kind
        if k == "identity":
            return (y1, y2)
        if k == "affine":
            a11, a12, a21, a22, s1, s2 = self.params
            det = a11 * a22 - a12 * a21
            u1, u2 = y1 - s1, y2 - s2
            return ((a22 * u1 - a12 * u2) / det, (a11 * u2 - a21 * u1) / det)
        if k == "polar_power":
            (p,) = self.params
            r = dm.sqrt(y1 * y1 + y2 * y2)
            phi = dm.atan2(y2, y1) / p
            rp = r ** (1.0 / p)
            return (rp * dm.cos(phi), rp * dm.sin(phi))
        raise MapError(f"unknown planar map kind {k!r}")

    def deriv_rows(self, x1, x2):
        """Derivative matrix as nested tuples ((j11, j12), (j21, j22))."""
        k = self.kind
        if k == "identity":
            one = x1 * 0.0 + 1.0
            zero = x1 * 0.0
            return ((one, zero), (zero, one))
        if k == "affine":
            a11, a12, a21, a22, _, _ = self.params
            one = x1 * 0.0 + 1.0
            return ((a11 * one, a12 * one), (a21 * one, a22 * one))
        if k == "polar_power":
            (p,) = self.params
            r2 = x1 * x1 + x2 * x2
            if np.any(np.asarray(dm.value(r2)) == 0.0):
                raise MapError("polar power map is singular at the origin")
            # scale p r^{p-1}, rotation by (p-1) phi
            s = p * r2 ** ((p - 1.0) / 2.0)
            phi = dm.atan2(x2, x1)
            c, sn = dm.cos((p - 1.0) * phi), dm.sin((p - 1.0) * phi)
            return ((s * c, -s * sn), (s * sn, s * c))
        raise MapError(f"unknown planar map kind {k!r}")

    def deriv(self, x1, x2):
        """Derivative matrix as a float array with trailing axes (2, 2)."""
        rows = self.deriv_rows(np.asarray(x1, dtype=float),
                               np.asarray(x2, dtype=float))
        flat = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                     for row in rows for v in row))
        return np.stack([np.stack(flat[0:2], axis=-1),
                         np.stack(flat[2:4], axis=-1)], axis=-2)

    def jacobian_det(self, x1, x2):
        (j11, j12), (j21, j22) = self.deriv_rows(x1, x2)
        return j11 * j22 - j12 * j21


def identity_map():
    return PlanarMap("identity")


def affine_map(mat, shift=(0.0, 0.0)):
    (a11, a12), (a21, a22) = mat
    det = a11 * a22 - a12 * a21
    if abs(det) < 1e-14:
        raise MapError("affine map matrix is singular")
    return PlanarMap("affine", (float(a11), float(a12), float(a21),
                                float(a22), float(shift[0]), float(shift[1])))


def similarity(scale, angle=0.0, shift=(0.0, 0.0)):
    """Rotation by ``angle`` composed with dilation by ``scale`` and a shift."""
    if scale <= 0.0:
        raise MapError("similarity scale must be positive")
    c, s = np.cos(angle), np.sin(angle)
    return affine_map(((scale * c, -scale * s), (scale * s, scale * c)), shift)


def power_map(p):
    """Polar power map (r, phi) -> (r^p, p phi); conformal away from 0."""
    p = float(p)
    if p <= 0.0:
        raise MapError("polar power exponent must be positive")
    return PlanarMap("polar_power", (p,))


def image_bbox(pmap, rect, edge_samples=257):
    """Bounding box of the image of a rectangle under a catalog map.

    The rectangle boundary is sampled densely and mapped; for the catalog
    maps (affine, radially monotone polar powers) the image of the boundary
    frames the image of the rectangle, so its bounding box is the image's.
    """
    a1, a2, b1, b2 = (float(v) for v in rect)
    t = np.linspace(0.0, 1.0, int(edge_samples))
    xs = np.concatenate([a1 + (b1 - a1) * t, np.full_like(t, b1),
                         b1 + (a1 - b1) * t, np.full_like(t, a1)])
    ys = np.concatenate([np.full_like(t, a2), a2 + (b2 - a2) * t,
                         np.full_like(t, b2), b2 + (a2 - b2) * t])
    u, v = pmap.apply(xs, ys)
    return (float(np.min(u)), float(np.min(v)),
            float(np.max(u)), float(np.max(v)))
