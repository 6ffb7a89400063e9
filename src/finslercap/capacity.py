"""Condenser capacities on the sphere bundle by energy minimization.

The discrete energy of an admissible base field u is the quadrature of
|grad u^V|^p against the bundle volume density, with p equal to the base
dimension, 2, by default (the functional accepts any p > 1).  Plates
are rasterized shapes pinned to 0 (outer plate) and 1 (inner plate).  The
base partials are central differences, except on the grid edges and on
the pinned rim nodes that face free nodes, which differentiate one-sidedly
into the grid or the free side (``bundle.one_sided``), so no partial
reaches across a plate.

For p = 2 the energy is a quadratic form, so its minimizer over the free
nodes solves a symmetric positive-definite linear system; matrix-free
conjugate gradients (Hestenes & Stiefel 1952) solve it.  Every other p is
solved by inexact Newton-CG (Dembo, Eisenstat & Steihaug 1982): the exact
Hessian's fiber sum folds into one symmetric 2x2 form per base node, so a
Hessian-vector product costs one p = 2 operator application; the same
conjugate-gradient loop solves each Newton system to the forcing term
min(0.5, sqrt(|g|)) |g| (Eisenstat & Walker 1996), and an Armijo
backtracking line search on the energy takes the step.

This difference operator has no discrete maximum principle, so a solution
whose free values leave [0, 1], or a Newton solve whose line search
stalls, is finished by projected gradient descent with a backtracking
line search, which clamps free values to [0, 1].

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

from .bundle import (ScalarField, SphereBundleGrid, d_axis, d_axis_adjoint,
                     node_tensors, one_sided)
from .errors import ShapeError
from .shapes import Shape, outer_boundary


# backtracking line searches: sufficient-decrease factor, step shrink and
# floor; projected gradient also starts from _STEP0 and grows an accepted
# step by _GROW, while a Newton step always starts from 1
_ARMIJO = 1e-4
_SHRINK = 0.5
_MIN_STEP = 1e-18
_STEP0 = 1.0
_GROW = 1.25


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    Every solve stops when the max-norm of the free gradient falls below
    ``tol`` or after ``max_iter`` iterations: conjugate-gradient steps for
    p = 2, Newton steps for every other p, plus projected-gradient steps
    where that fallback runs.  ``warm_sweeps`` sets the smoothing of the
    start field.
    """

    tol: float = 1e-8          # max-norm of the projected free gradient
    max_iter: int = 50000
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
    value and gradient keep the fiber axis explicit; its Hessian folds into
    one base form per Newton step (``hessian_form``).
    """

    def __init__(self, m, grid, power=2.0, region=None, pinned=None):
        if power <= 1.0:
            raise ValueError("integrand power must exceed 1")
        self.grid = grid
        self.power = float(power)
        self.sides = (one_sided(grid.base_shape, 0, pinned),
                      one_sided(grid.base_shape, 1, pinned))
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
        return (d_axis(u, self.grid.dx1, 0, self.sides[0]),
                d_axis(u, self.grid.dx2, 1, self.sides[1]))

    def _partials_adjoint(self, w1, w2):
        return (d_axis_adjoint(w1, self.grid.dx1, 0, self.sides[0])
                + d_axis_adjoint(w2, self.grid.dx2, 1, self.sides[1]))

    def apply_form(self, M, v):
        """D^T M D v for a symmetric 2x2 form M of shape (nx, ny, 2, 2).

        D takes the base partials, so this is the gradient of the quadratic
        energy sum(dv^T M dv) / 2 at v.
        """
        du1, du2 = self._partials(v)
        return self._partials_adjoint(M[..., 0, 0] * du1 + M[..., 0, 1] * du2,
                                      M[..., 0, 1] * du1 + M[..., 1, 1] * du2)

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
        if self.base_form is not None:
            return 2.0 * self.apply_form(self.base_form, u)
        du1, du2 = self._partials(u)
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
        return self._partials_adjoint(w1, w2)

    def hessian_form(self, u):
        """Fiber-folded Hessian of a p != 2 energy at u, shape (nx, ny, 2, 2).

        The Hessian is D^T H D with, per base node,
        H = sum over the fiber of p w q^(p/2-1) G + p (p-2) w q^(p/2-2)
        (G du)(G du)^T, where G = g^{-1} and q = du^T G du.  Terms with
        q = 0 are set to 0: their limit for p > 2, and a finite stand-in
        for the singular p < 2 curvature there.  Apply it with
        ``apply_form``.
        """
        du1, du2 = self._partials(u)
        gi = self.g_inv
        a = du1[:, :, None]
        b = du2[:, :, None]
        v1 = gi[..., 0, 0] * a + gi[..., 0, 1] * b
        v2 = gi[..., 0, 1] * a + gi[..., 1, 1] * b
        q = a * v1 + b * v2
        p = self.power
        f1 = np.zeros_like(q)
        f2 = np.zeros_like(q)
        np.power(q, p / 2.0 - 1.0, out=f1, where=q > 0.0)
        np.power(q, p / 2.0 - 2.0, out=f2, where=q > 0.0)
        f1 *= p * self.wgt
        f2 *= p * (p - 2.0) * self.wgt
        H = np.empty(self.grid.base_shape + (2, 2))
        H[..., 0, 0] = np.sum(f1 * gi[..., 0, 0] + f2 * v1 * v1, axis=2)
        H[..., 0, 1] = np.sum(f1 * gi[..., 0, 1] + f2 * v1 * v2, axis=2)
        H[..., 1, 0] = H[..., 0, 1]
        H[..., 1, 1] = np.sum(f1 * gi[..., 1, 1] + f2 * v2 * v2, axis=2)
        return H


def energy(u, m, grid, power=2.0, region=None):
    """Discrete p-energy of the vertical lift of u."""
    vals = np.asarray(getattr(u, "values", u), dtype=float)
    func = EnergyFunctional(m, grid, power=power, region=region,
                            pinned=getattr(u, "pinned", None))
    return func.value(vals)


def energy_gradient(u, m, grid, power=2.0, region=None):
    """Exact gradient of the discrete energy; zero at pinned nodes."""
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
    # neighbour count of every node: 4 inside, 3 on an edge, 2 at a corner
    c = np.zeros_like(u)
    c[1:, :] += 1.0
    c[:-1, :] += 1.0
    c[:, 1:] += 1.0
    c[:, :-1] += 1.0
    for _ in range(sweeps):
        s = np.zeros_like(u)
        s[1:, :] += u[:-1, :]
        s[:-1, :] += u[1:, :]
        s[:, 1:] += u[:, :-1]
        s[:, :-1] += u[:, 1:]
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


def minimize(cond, m, grid, cfg=SolverConfig(), power=2.0, region=None):
    """Capacity of a condenser: minimal discrete energy over admissible fields.

    Returns value +inf immediately when the rasterized plates share a node
    (degenerate condenser with a well-defined answer).  Raises ShapeError
    when plates are disjoint but separated by fewer than two cells, since
    no free transition layer exists at this resolution.
    """
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

    func = EnergyFunctional(m, grid, power=power, region=region, pinned=pinned)
    u = _smooth_start(pinned, pin_vals, 0.5, cfg.warm_sweeps)

    if func.power == 2.0:
        u, history, it, res = _conjugate_gradient(func, u, pinned, cfg)
        converged = res < cfg.tol
        E = None
    else:
        u, E, history, it, res, converged = _newton(func, u, pinned, cfg)
    free = u[~pinned]
    finish = free.min() < 0.0 or free.max() > 1.0
    if func.power != 2.0:
        # a stalled line search hands over too; a solve stopped by max_iter
        # has no budget left and is returned as it is
        finish = it < cfg.max_iter and (finish or not converged)
    if finish:
        # finish by projection; counting the restart as one iteration
        # keeps gradient calls = iterations + 1 on a converged solve
        u, E, tail, more, res, converged = _projected_gradient(
            func, np.clip(u, 0.0, 1.0), pinned, pin_vals, cfg,
            max(cfg.max_iter - it, 0))
        history += tail
        it += 1 + more
    elif E is None:
        E = func.value(u)

    return CapacityResult(value=E, minimizer=ScalarField(u, pinned),
                          iterations=it, final_gradient_norm=res,
                          converged=converged, grid=grid,
                          energy_history=tuple(history))


def _cg(apply, x, r, threshold, max_iter):
    """Conjugate gradients (Hestenes-Stiefel) for A x = b, started at x.

    ``apply(d)`` returns A d, zero on pinned nodes, and r = b - A x is
    zero there too, so the iterates move only free nodes.  Stops when
    max|r| falls below ``threshold``, after ``max_iter`` steps, or at a
    direction without positive curvature (rounding, or a degenerate
    Hessian where the p != 2 energy is flat).  Returns (x, r, drops),
    where drops[i] = alpha_i r_i.r_i is twice the decrease of
    x.A x / 2 - b.x at step i.
    """
    rr = float(np.vdot(r, r))
    d = r.copy()
    drops = []
    while float(np.max(np.abs(r))) >= threshold and len(drops) < max_iter:
        Ad = apply(d)
        dAd = float(np.vdot(d, Ad))
        if not dAd > 0.0:
            break
        alpha = rr / dAd
        x = x + alpha * d
        r = r - alpha * Ad
        drops.append(alpha * rr)
        rr_new = float(np.vdot(r, r))
        d = r + (rr_new / rr) * d
        rr = rr_new
    return x, r, drops


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

    def apply(d):
        Ad = 0.5 * func.gradient(d)
        Ad[pinned] = 0.0
        return Ad

    u, r, drops = _cg(apply, u, r, 0.5 * cfg.tol, cfg.max_iter)
    for drop in drops:
        E -= drop
        history.append(E)
    return u, history, len(drops), 2.0 * float(np.max(np.abs(r)))


def _newton(func, u, pinned, cfg):
    """Minimize a p != 2 functional over the free nodes by Newton-CG.

    Each step takes the free gradient g, stops when max|g| < ``cfg.tol``,
    and otherwise solves H s = -g by conjugate gradients to max|r| <
    min(0.5, sqrt(max|g|)) max|g|, with H the fiber-folded Hessian; if
    the first CG direction has no positive curvature the step is along
    -g.  An Armijo backtracking search from the full step sets its length.
    A converged solve makes one gradient call more than it reports
    iterations; one stopped by ``cfg.max_iter`` makes as many.  A line
    search that shrinks below _MIN_STEP stops the solve unconverged with
    iterations < ``cfg.max_iter``.  Returns (u, E, history, iterations,
    residual, converged).
    """
    E = func.value(u)
    history = [E]
    converged = False
    res = math.inf
    it = 0
    while it < cfg.max_iter:
        g = func.gradient(u)
        g[pinned] = 0.0
        res = float(np.max(np.abs(g)))
        if res < cfg.tol:
            converged = True
            break
        H = func.hessian_form(u)

        def apply(d):
            Hd = func.apply_form(H, d)
            Hd[pinned] = 0.0
            return Hd

        s, _, drops = _cg(apply, np.zeros_like(u), -g,
                          min(0.5, math.sqrt(res)) * res, g.size)
        if not drops:
            s = -g
        slope = float(np.vdot(g, s))
        t = 1.0
        while True:
            u_t = u + t * s
            E_t = func.value(u_t)
            if E_t <= E + _ARMIJO * t * slope:
                break
            t *= _SHRINK
            if t < _MIN_STEP:
                return u, E, history, it, res, False
        u = u_t
        E = E_t
        history.append(E)
        it += 1
    return u, E, history, it, res, converged


def _projected_gradient(func, u, pinned, pin_vals, cfg, max_iter):
    """Projected gradient with Armijo backtracking on the box [0, 1].

    Returns (u, E, history, iterations, residual, converged).  A converged
    run makes one gradient call more than it reports iterations.
    """
    E = func.value(u)
    history = [E]
    step = _STEP0
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
        while step >= _MIN_STEP:
            u_t = np.clip(u - step * g, 0.0, 1.0)
            u_t[pinned] = pin_vals[pinned]
            E_t = func.value(u_t)
            d = u_t - u
            if E_t <= E - (_ARMIJO / step) * float(np.vdot(d, d)):
                accepted = True
                break
            step *= _SHRINK
        if not accepted:
            break  # line search stalled below _MIN_STEP
        u = u_t
        E = E_t
        history.append(E)
        step *= _GROW
    return u, E, history, it, res, converged


def cap_compact(C, m, grid, cfg=SolverConfig(), power=2.0):
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
