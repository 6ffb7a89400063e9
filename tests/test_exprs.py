"""Properties of the closed-form expression catalog, one family at a time.

Parameters are drawn from bounded ranges: amplitudes and wave numbers up
to 2 in size, points in [-1, 1]^2, gaussian widths from 0.3, and logr
points at least 0.25 from their center, so every family stays smooth
and of moderate size where it is evaluated.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finslercap.dual import diff
from finslercap.exprs import (const, exponential, expr_sum, gaussian, linear,
                              log_radial, parse_expr, precompose_affine,
                              sinusoid)

FAMILIES = ("const", "linear", "sin", "exp", "gauss", "logr")

_COEFF = st.floats(-2.0, 2.0)
_COORD = st.floats(-1.0, 1.0)
_PAIR = st.tuples(_COORD, _COORD)


@st.composite
def expressions(draw, family):
    """An expression of ``family`` with parameters in the bounded ranges."""
    c = draw(_COEFF)
    k = draw(st.tuples(_COEFF, _COEFF))
    if family == "const":
        return const(c)
    if family == "linear":
        return linear(c, *k)
    if family == "sin":
        return sinusoid(c, k, draw(st.floats(-math.pi, math.pi)))
    if family == "exp":
        return exponential(c, k)
    if family == "gauss":
        return gaussian(c, draw(_PAIR), draw(st.floats(0.3, 2.0)))
    return log_radial(c, draw(_COEFF), draw(_PAIR))


ANY_EXPRESSION = st.sampled_from(FAMILIES).flatmap(expressions)


def _clear_of_pole(e, z):
    """True unless e is a logr field and z lies within 0.25 of its center."""
    if e.kind != "logr":
        return True
    cx, cy = e.params[2]
    return math.hypot(z[0] - cx, z[1] - cy) >= 0.25


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), axis=st.sampled_from((0, 1)))
def test_dual_derivative_matches_central_difference(family, data, axis):
    e = data.draw(expressions(family))
    if family == "logr":
        r = data.draw(st.floats(0.25, 1.5))
        t = data.draw(st.floats(0.0, 2.0 * math.pi))
        cx, cy = e.params[2]
        x = (cx + r * math.cos(t), cy + r * math.sin(t))
    else:
        x = data.draw(_PAIR)
    exact = diff(e, axis)(list(x))
    h = 1e-5
    xp, xm = list(x), list(x)
    xp[axis] += h
    xm[axis] -= h
    fd = (e(xp) - e(xm)) / (2.0 * h)
    # truncation h^2 |f'''| / 6 stays below 1e-8 on these ranges, and
    # rounding below 1e-16 |f| / h
    assert abs(exact - fd) <= 1e-7 * (1.0 + abs(exact))


@settings(max_examples=150, deadline=None)
@given(st.lists(ANY_EXPRESSION, min_size=1, max_size=4), _PAIR)
def test_expr_sum_is_the_sum_of_its_parts(parts, x):
    assume(all(_clear_of_pole(e, x) for e in parts))
    ref = parts[0](x)
    for e in parts[1:]:
        ref = ref + e(x)
    assert expr_sum(*parts)(x) == ref


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), rows=st.tuples(_PAIR, _PAIR), shift=_PAIR, x=_PAIR)
def test_precompose_affine_matches_direct_evaluation(family, data, rows,
                                                     shift, x):
    e = data.draw(expressions(family))
    z = [rows[i][0] * x[0] + rows[i][1] * x[1] + shift[i] for i in range(2)]
    assume(_clear_of_pole(e, z))
    got = precompose_affine(e, rows, shift)(x)
    ref = e(z)
    assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))


# parameter count of each family in the config syntax (sin with its phase)
_SLOTS = {"const": 1, "linear": 3, "sin": 4, "exp": 3, "gauss": 4, "logr": 4}


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=20, deadline=None)
@given(values=st.lists(_COEFF, min_size=4, max_size=4))
def test_parse_expr_rejects_non_finite_parameters(family, values):
    n = _SLOTS[family]
    finite = [repr(v) for v in values[:n]]
    parse_expr(f"{family}:{','.join(finite)}")
    for slot in range(n):
        for bad in ("nan", "inf", "-inf"):
            vals = finite[:slot] + [bad] + finite[slot + 1:]
            with pytest.raises(ValueError, match="not a finite number"):
                parse_expr(f"{family}:{','.join(vals)}")
