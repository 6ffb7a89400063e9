"""Condenser capacities on the sphere bundle by energy minimization.

The discrete energy of an admissible base field u is the quadrature of
|grad u^V|^p against the bundle volume density, with p equal to the base
dimension (p = 2 here, though the functional accepts any p > 1).  Plates
are rasterized shapes pinned to 0 (outer plate) and 1 (inner plate).

For p = 2 the energy is a quadratic form, so its minimizer over the free
nodes solves a symmetric positive-definite linear system; matrix-free
conjugate gradients (Hestenes & Stiefel 1952) solve it.  The wide central
stencil has no discrete maximum principle, so a p = 2 solution whose free
values leave [0, 1] is finished by the solver for every other p: projected
gradient descent with a backtracking line search, which clamps free values
to [0, 1].

Overlapping plates are a well-defined degenerate condenser with infinite
capacity, not an error; plates closer than two cells without overlapping
are rejected as unresolvable on the grid.

Truncation caveat: compact-set capacities computed here depend on the grid
rectangle, which stands in for the whole plane.  Values decrease toward the
ideal one as the truncation rectangle grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bundle import (ScalarField, SphereBundleGrid, apply_stencil,
                     apply_stencil_adjoint, axis_stencil, d_axis, d_axis_adjoint,
                     node_tensors)
from .errors import ShapeError
from .shapes import Shape, outer_boundary


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    ``tol`` and ``max_iter`` bound every solve, and ``warm_sweeps`` sets the
    smoothing of the start field.  The line-search knobs (``step0`` to
    ``min_step``) act only on projected gradient: p != 2, and the fallback
    for a p = 2 solution that leaves [0, 1].
    """

    tol: float = 1e-8          # max-norm of the projected free gradient
    max_iter: int = 50000
    step0: float = 1.0
    armijo: float = 1e-4
    shrink: float = 0.5
    grow: float = 1.25
    min_step: float = 1e-18
    warm_sweeps: int = 100


@dataclass(frozen=True)
class CondenserSpec:
    """Plate pair: c0 is pinned to 0, c1 to 1."""

    c0: Shape
    c1: Shape


@dataclass
class CapacityResult:
    value: float
    minimizer: ScalarField | None
    iterations: int
    final_gradient_norm: float
    converged: bool
    grid: SphereBundleGrid
    energy_history: tuple = field(default=(), repr=False)


class EnergyFunctional:
    """Discrete p-energy of vertical lifts on a fixed (metric, grid) pair.

    For p = 2 the fiber sum is folded into one base quadratic form per
    node, which keeps solver iterations at base-grid cost.  The general-p
    path keeps the fiber axis explicit.
    """

    def __init__(self, m, grid, power=2.0, region=None, pinned=None):
        if power <= 1.0:
            raise ValueError("integrand power must exceed 1")
        self.grid = grid
        self.power = float(power)
        if pinned is not None and np.asarray(pinned).any():
            self.bands = (axis_stencil(grid.base_shape, grid.dx1, 0, pinned),
                          axis_stencil(grid.base_shape, grid.dx2, 1, pinned))
        else:
            self.bands = None
        nd = node_tensors(m, grid)
        wgt = nd.rho * grid.cell_weight
        if region is not None:
            region = np.asarray(region, dtype=bool)
            if region.shape != grid.base_shape:
                raise ShapeError("region mask shape differs from grid base shape")
            wgt = wgt * region[:, :, None]
        if self.power == 2.0:
            self.base_form = np.einsum("ijkab,ijk->ijab", nd.g_inv, wgt)
            self.g_inv = None
            self.wgt = None
        else:
            self.base_form = None
            self.g_inv = nd.g_inv
            self.wgt = wgt

    def _partials(self, u):
        if self.bands is not None:
            return (apply_stencil(self.bands[0], u, 0),
                    apply_stencil(self.bands[1], u, 1))
        return (d_axis(u, self.grid.dx1, 0), d_axis(u, self.grid.dx2, 1))

    def value(self, u):
        du1, du2 = self._partials(u)
        if self.base_form is not None:
            M = self.base_form
            q = (M[..., 0, 0] * du1 * du1 + 2.0 * M[..., 0, 1] * du1 * du2
                 + M[..., 1, 1] * du2 * du2)
            return float(np.sum(q))
        gi = self.g_inv
        a = du1[:, :, None]
        b = du2[:, :, None]
        q = (gi[..., 0, 0] * a * a + 2.0 * gi[..., 0, 1] * a * b
             + gi[..., 1, 1] * b * b)
        return float(np.sum(q ** (self.power / 2.0) * self.wgt))

    def gradient(self, u):
        du1, du2 = self._partials(u)
        if self.base_form is not None:
            M = self.base_form
            w1 = 2.0 * (M[..., 0, 0] * du1 + M[..., 0, 1] * du2)
            w2 = 2.0 * (M[..., 0, 1] * du1 + M[..., 1, 1] * du2)
        else:
            gi = self.g_inv
            a = du1[:, :, None]
            b = du2[:, :, None]
            q = (gi[..., 0, 0] * a * a + 2.0 * gi[..., 0, 1] * a * b
                 + gi[..., 1, 1] * b * b)
            if self.power < 2.0:
                # q ** (p/2 - 1) blows up at q = 0, where the product with
                # the vanishing gradient has the limit 0 for p > 1
                fac = np.zeros_like(q)
                np.power(q, self.power / 2.0 - 1.0, out=fac, where=q > 0.0)
            else:
                fac = q ** (self.power / 2.0 - 1.0)
            fac = self.power * fac * self.wgt
            w1 = np.sum(fac * (gi[..., 0, 0] * a + gi[..., 0, 1] * b), axis=2)
            w2 = np.sum(fac * (gi[..., 0, 1] * a + gi[..., 1, 1] * b), axis=2)
        if self.bands is not None:
            return (apply_stencil_adjoint(self.bands[0], w1, 0)
                    + apply_stencil_adjoint(self.bands[1], w2, 1))
        return (d_axis_adjoint(w1, self.grid.dx1, 0)
                + d_axis_adjoint(w2, self.grid.dx2, 1))


def energy(u, m, grid, power=None, region=None):
    """Discrete p-energy of the vertical lift of u (p defaults to the dimension)."""
    if power is None:
        power = float(m.dim)
    vals = np.asarray(getattr(u, "values", u), dtype=float)
    func = EnergyFunctional(m, grid, power=power, region=region,
                            pinned=getattr(u, "pinned", None))
    return func.value(vals)


def energy_gradient(u, m, grid, power=None, region=None):
    """Exact gradient of the discrete energy; zero at pinned nodes."""
    if power is None:
        power = float(m.dim)
    vals = np.asarray(getattr(u, "values", u), dtype=float)
    pinned = getattr(u, "pinned", None)
    func = EnergyFunctional(m, grid, power=power, region=region, pinned=pinned)
    g = func.gradient(vals)
    if pinned is not None:
        g = np.where(pinned, 0.0, g)
    return g


def _dilate_chebyshev(mask, cells):
    out = mask.copy()
    for di in range(-cells, cells + 1):
        for dj in range(-cells, cells + 1):
            if di == 0 and dj == 0:
                continue
            shifted = np.zeros_like(mask)
            src_i = slice(max(0, -di), mask.shape[0] - max(0, di))
            dst_i = slice(max(0, di), mask.shape[0] - max(0, -di))
            src_j = slice(max(0, -dj), mask.shape[1] - max(0, dj))
            dst_j = slice(max(0, dj), mask.shape[1] - max(0, -dj))
            shifted[dst_i, dst_j] = mask[src_i, src_j]
            out |= shifted
    return out


def _smooth_start(pinned, pin_vals, free_init, sweeps):
    u = np.where(pinned, pin_vals, free_init)
    ones = np.ones_like(u)
    for _ in range(sweeps):
        s = np.zeros_like(u)
        c = np.zeros_like(u)
        s[1:, :] += u[:-1, :]; c[1:, :] += ones[:-1, :]
        s[:-1, :] += u[1:, :]; c[:-1, :] += ones[1:, :]
        s[:, 1:] += u[:, :-1]; c[:, 1:] += ones[:, :-1]
        s[:, :-1] += u[:, 1:]; c[:, :-1] += ones[:, 1:]
        u = np.where(pinned, pin_vals, s / c)
    return u


def rasterize_condenser(cond, grid):
    m0 = cond.c0.rasterize(grid)
    m1 = cond.c1.rasterize(grid)
    if not m0.any():
        raise ShapeError("plate c0 rasterizes to no node on this grid")
    if not m1.any():
        raise ShapeError("plate c1 rasterizes to no node on this grid")
    return m0, m1


def minimize(cond, m, grid, cfg=SolverConfig(), power=None, region=None):
    """Capacity of a condenser: minimal discrete energy over admissible fields.

    Returns value +inf immediately when the rasterized plates share a node
    (degenerate condenser with a well-defined answer).  Raises ShapeError
    when plates are disjoint but separated by fewer than two cells, since
    no free transition layer exists at this resolution.
    """
    if power is None:
        power = float(m.dim)
    m0, m1 = rasterize_condenser(cond, grid)
    pinned = m0 | m1
    pin_vals = np.where(m1, 1.0, 0.0)

    if (m0 & m1).any():
        # no admissible field: the shared nodes would be pinned to 0 and 1
        return CapacityResult(value=math.inf, minimizer=None, iterations=0,
                              final_gradient_norm=0.0, converged=True,
                              grid=grid)
    if (_dilate_chebyshev(m0, 2) & m1).any():
        raise ShapeError("condenser plates are closer than two cells; "
                         "refine the grid or separate the plates")
    if not (~pinned).any():
        raise ShapeError("condenser leaves no free node on this grid")

    func = EnergyFunctional(m, grid, power=power, region=region, pinned=pinned)
    u = _smooth_start(pinned, pin_vals, 0.5, cfg.warm_sweeps)

    if func.power != 2.0:
        u, E, history, it, res, converged = _projected_gradient(
            func, u, pinned, pin_vals, cfg, cfg.max_iter)
    else:
        u, history, it, res = _conjugate_gradient(func, u, pinned, cfg)
        converged = res < cfg.tol
        free = u[~pinned]
        if free.min() < 0.0 or free.max() > 1.0:
            # finish by projection; counting the restart as one iteration
            # keeps gradient calls = iterations + 1 on a converged solve
            u, E, tail, more, res, converged = _projected_gradient(
                func, np.clip(u, 0.0, 1.0), pinned, pin_vals, cfg,
                max(cfg.max_iter - it, 0))
            history += tail
            it += 1 + more
        else:
            E = func.value(u)

    return CapacityResult(value=E, minimizer=ScalarField(u, pinned),
                          iterations=it, final_gradient_norm=res,
                          converged=converged, grid=grid,
                          energy_history=tuple(history))


def _conjugate_gradient(func, u, pinned, cfg):
    """Minimize a p = 2 functional over the free nodes by conjugate gradients.

    ``0.5 * func.gradient`` is linear, so with pinned entries zeroed it is
    the free-node operator A, and r = -0.5 * gradient(u) is the residual.
    One gradient call gives the initial residual and one per iteration
    gives A d for the search direction d.  The energy history follows
    from E = 0.5 u . gradient(u) and the exact decrease alpha r.r of each
    step, without value calls.
    Stops when 2 max|r|, the max-norm of the free gradient, falls below
    ``cfg.tol`` or after ``cfg.max_iter`` steps; returns (u, history,
    iterations, 2 max|r|).
    """
    g = func.gradient(u)
    E = 0.5 * float(np.vdot(u, g))
    history = [E]
    r = -0.5 * g
    r[pinned] = 0.0
    rr = float(np.vdot(r, r))
    res = 2.0 * float(np.max(np.abs(r)))
    d = r.copy()
    it = 0
    while res >= cfg.tol and it < cfg.max_iter:
        Ad = 0.5 * func.gradient(d)
        Ad[pinned] = 0.0
        dAd = float(np.vdot(d, Ad))
        if not dAd > 0.0:
            break  # lost positive curvature to rounding
        alpha = rr / dAd
        u = u + alpha * d
        r -= alpha * Ad
        E -= alpha * rr
        history.append(E)
        it += 1
        rr_new = float(np.vdot(r, r))
        res = 2.0 * float(np.max(np.abs(r)))
        d = r + (rr_new / rr) * d
        rr = rr_new
    return u, history, it, res


def _projected_gradient(func, u, pinned, pin_vals, cfg, max_iter):
    """Projected gradient with Armijo backtracking on the box [0, 1].

    Returns (u, E, history, iterations, residual, converged).  A converged
    run makes one gradient call more than it reports iterations.
    """
    E = func.value(u)
    history = [E]
    step = cfg.step0
    converged = False
    res = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        g = func.gradient(u)
        g[pinned] = 0.0
        res = float(np.max(np.abs(u - np.clip(u - g, 0.0, 1.0))))
        if res < cfg.tol:
            converged = True
            it -= 1
            break
        accepted = False
        while step >= cfg.min_step:
            u_t = np.clip(u - step * g, 0.0, 1.0)
            u_t[pinned] = pin_vals[pinned]
            E_t = func.value(u_t)
            d = u_t - u
            if E_t <= E - (cfg.armijo / step) * float(np.vdot(d, d)):
                accepted = True
                break
            step *= cfg.shrink
        if not accepted:
            break  # line search stalled below min_step
        u = u_t
        E = E_t
        history.append(E)
        step *= cfg.grow
    return u, E, history, it, res, converged


def cap_compact(C, m, grid, cfg=SolverConfig(), power=None):
    """Capacity of a compact set against the truncation boundary.

    Pins the grid's outer node ring to 0 and C to 1.  The result depends on
    the truncation rectangle; enlarge it to approach the unbounded value.
    C must stay clear of the boundary ring (two cells at least).
    """
    cond = CondenserSpec(c0=outer_boundary(), c1=C)
    ring = cond.c0.rasterize(grid)
    if (C.rasterize(grid) & ring).any():
        raise ShapeError("compact set reaches the truncation boundary ring; "
                         "enlarge the domain rectangle")
    try:
        return minimize(cond, m, grid, cfg=cfg, power=power)
    except ShapeError as exc:
        raise ShapeError(f"compact set interacts with the truncation "
                         f"boundary: {exc}") from exc


def oscillation(u, S, grid):
    """max - min of a base field over the rasterized nodes of S."""
    vals = np.asarray(getattr(u, "values", u), dtype=float)
    mask = S.rasterize(grid)
    if not mask.any():
        raise ShapeError("shape rasterizes to no node on this grid")
    picked = vals[mask]
    return float(picked.max() - picked.min())


def is_monotone(u, grid, tol=1e-12, free=None):
    """Check that sup and inf over every sub-rectangle sit on its boundary.

    Scans all index sub-rectangles with nonempty interior.  When ``free``
    is given (boolean base mask), rectangles whose interior meets an
    excluded node are skipped: a minimizer is only expected to be monotone
    away from the plates that pin it.  Returns (True, None) or
    (False, witness) where the witness records the first offending
    rectangle as index bounds (i1, i2, j1, j2) and which extremum failed.
    Quadratic-in-area cost; intended for moderate grids.
    """
    vals = np.asarray(getattr(u, "values", u), dtype=float)
    H, W = vals.shape
    if free is None:
        excl = np.zeros((H, W), dtype=bool)
    else:
        excl = ~np.asarray(free, dtype=bool)
        if excl.shape != vals.shape:
            raise ShapeError("free mask shape does not match the field")
    for j1 in range(W - 2):
        colmax = vals[:, j1].copy()
        colmin = vals[:, j1].copy()
        intmax = np.full(H, -np.inf)
        intmin = np.full(H, np.inf)
        intexcl = np.zeros(H, dtype=bool)
        for j2 in range(j1 + 2, W):
            colmax = np.maximum(colmax, vals[:, j2 - 1])
            colmin = np.minimum(colmin, vals[:, j2 - 1])
            intmax = np.maximum(intmax, vals[:, j2 - 1])
            intmin = np.minimum(intmin, vals[:, j2 - 1])
            intexcl |= excl[:, j2 - 1]
            cmax = np.maximum(colmax, vals[:, j2])
            cmin = np.minimum(colmin, vals[:, j2])
            edgemax = np.maximum(vals[:, j1], vals[:, j2])
            edgemin = np.minimum(vals[:, j1], vals[:, j2])
            for i1 in range(H - 2):
                keep = ~np.logical_or.accumulate(intexcl[i1 + 1:H - 1])
                run_int_max = np.maximum.accumulate(intmax[i1 + 1:H - 1])
                run_edge_max = np.maximum.accumulate(edgemax[i1 + 1:H - 1])
                bound = np.maximum(np.maximum(cmax[i1], cmax[i1 + 2:]),
                                   run_edge_max)
                bad = (run_int_max > bound + tol) & keep
                if bad.any():
                    i2 = i1 + 2 + int(np.argmax(bad))
                    return False, {"rect": (i1, i2, j1, j2), "extremum": "max"}
                run_int_min = np.minimum.accumulate(intmin[i1 + 1:H - 1])
                run_edge_min = np.minimum.accumulate(edgemin[i1 + 1:H - 1])
                bound = np.minimum(np.minimum(cmin[i1], cmin[i1 + 2:]),
                                   run_edge_min)
                bad = (run_int_min < bound - tol) & keep
                if bad.any():
                    i2 = i1 + 2 + int(np.argmax(bad))
                    return False, {"rect": (i1, i2, j1, j2), "extremum": "min"}
    return True, None
