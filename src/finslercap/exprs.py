"""Closed-form scalar fields on the base manifold.

Metric coefficients, conformal factors, and test functions are drawn from a
small catalog of named closed-form families rather than arbitrary callables.
Every family is built from arithmetic the dual-number layer understands, so
all derivatives taken through these fields are exact.

Catalog (x is the base point, k and c are coefficient vectors):

    const:  c0
    linear: c0 + k . x
    sin:    amp * sin(k . x + phase)
    exp:    amp * exp(k . x)
    gauss:  amp * exp(-|x - c|^2 / w^2)
    logr:   c0 + c1 * log|x - c|
    sum:    e1(x) + e2(x) + ...
    affpre: inner(A x + b)        (closure of the catalog under affine maps)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import dual as dm


@dataclass(frozen=True)
class ScalarExpr:
    kind: str
    params: tuple

    def __call__(self, x):
        k = self.kind
        p = self.params
        if k == "const":
            return p[0]
        if k == "linear":
            c0, coeffs = p
            acc = c0
            for a, xi in zip(coeffs, x):
                acc = acc + a * xi
            return acc
        if k == "sin":
            amp, coeffs, phase = p
            acc = phase
            for a, xi in zip(coeffs, x):
                acc = acc + a * xi
            return amp * dm.sin(acc)
        if k == "exp":
            amp, coeffs = p
            acc = 0.0
            for a, xi in zip(coeffs, x):
                acc = acc + a * xi
            return amp * dm.exp(acc)
        if k == "gauss":
            amp, center, width = p
            acc = 0.0
            for c, xi in zip(center, x):
                d = xi - c
                acc = acc + d * d
            return amp * dm.exp(-(acc / (width * width)))
        if k == "logr":
            c0, c1, center = p
            acc = 0.0
            for c, xi in zip(center, x):
                d = xi - c
                acc = acc + d * d
            return c0 + c1 * (0.5 * dm.log(acc))
        if k == "sum":
            acc = p[0](x)
            for e in p[1:]:
                acc = acc + e(x)
            return acc
        if k == "affpre":
            inner, mat, shift = p
            n = len(shift)
            xm = []
            for i in range(n):
                acc = shift[i]
                for j in range(n):
                    acc = acc + mat[i][j] * x[j]
                xm.append(acc)
            return inner(xm)
        raise ValueError(f"unknown scalar expression kind {k!r}")


def const(c):
    return ScalarExpr("const", (float(c),))


def linear(c0, *coeffs):
    return ScalarExpr("linear", (float(c0), tuple(float(a) for a in coeffs)))


def sinusoid(amp, coeffs, phase=0.0):
    return ScalarExpr("sin", (float(amp), tuple(float(a) for a in coeffs),
                              float(phase)))


def exponential(amp, coeffs):
    return ScalarExpr("exp", (float(amp), tuple(float(a) for a in coeffs)))


def gaussian(amp, center, width):
    return ScalarExpr("gauss", (float(amp), tuple(float(c) for c in center),
                                float(width)))


def log_radial(c0, c1, center):
    return ScalarExpr("logr", (float(c0), float(c1),
                               tuple(float(c) for c in center)))


def expr_sum(*exprs):
    if len(exprs) == 1:
        return exprs[0]
    return ScalarExpr("sum", tuple(exprs))


def precompose_affine(inner, mat, shift):
    """Expression computing inner(A x + b); stays inside the catalog."""
    m = tuple(tuple(float(v) for v in row) for row in mat)
    s = tuple(float(v) for v in shift)
    return ScalarExpr("affpre", (inner, m, s))


_ZERO = const(0.0)


def parse_expr(text):
    """Parse the config syntax ``name:p1,p2,...`` into a ScalarExpr.

    Every parameter must be a finite number.

    Forms: const:c | linear:c0,k1,k2 | sin:amp,k1,k2,phase
    | exp:amp,k1,k2 | gauss:amp,cx,cy,w | logr:c0,c1,cx,cy | zero
    """
    text = text.strip()
    if text in ("zero", "0"):
        return _ZERO
    name, _, rest = text.partition(":")
    name = name.strip()
    try:
        vals = [float(v) for v in rest.split(",")] if rest.strip() else []
    except ValueError as exc:
        raise ValueError(f"bad numeric parameter in expression {text!r}") from exc
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"parameter {v!r} in expression {text!r} is not "
                             "a finite number")
    if name == "const" and len(vals) == 1:
        return const(vals[0])
    if name == "linear" and len(vals) == 3:
        return linear(vals[0], *vals[1:])
    if name == "sin" and len(vals) in (3, 4):
        return sinusoid(vals[0], vals[1:3], *vals[3:])
    if name == "exp" and len(vals) == 3:
        return exponential(vals[0], vals[1:])
    if name == "gauss" and len(vals) == 4:
        return gaussian(vals[0], vals[1:3], vals[3])
    if name == "logr" and len(vals) == 4:
        return log_radial(vals[0], vals[1], vals[2:])
    raise ValueError(f"unknown scalar expression {text!r}")
