"""The four benchmark workloads: configs made from a seed, and output checks.

Each workload is one ``finslercap`` subcommand on a config written here.
The seed picks what may vary without changing the work an invocation
does, so run times stay comparable across seeds:

- the phase of the conformal factor (p = n = 2 makes capacities and the
  p-energy density independent of it, down to rounding);
- the sample seed of the pointwise checks;
- a symmetry of the square applied to the two mu points (the grid is
  symmetric, so the catalog solves are the same problems mirrored).
  A continuous jitter of the points would change the rasterized
  candidates and move solver iteration counts by several per cent.

The checks compare outputs against closed forms or against properties
the method must have; none compares against a stored copy of an
earlier output.
"""

import csv
import math
import os
import random

FOUR_PI_SQ = 4.0 * math.pi ** 2

# annulus plates, shared by both annulus workloads
R_IN = 0.7
R_OUT = 0.7 * math.e
HALF_WIDTH = 2.0
SOLVER_TOL = 1e-6  # [solver] tol of every solve

# the eight symmetries of the square [-a, a]^2
SYMMETRIES = (
    lambda x, y: (x, y), lambda x, y: (-y, x),
    lambda x, y: (-x, -y), lambda x, y: (y, -x),
    lambda x, y: (-x, y), lambda x, y: (x, -y),
    lambda x, y: (y, x), lambda x, y: (-y, -x),
)
MU_POINTS = ((-0.6, -0.3), (0.6, 0.3))


def annulus_capacity(p, r, R):
    """Closed-form p-capacity of the euclidean annulus r < |x| < R.

    Integrated over the fiber circle, so p = 2 gives 4 pi^2 / ln(R/r).
    For p != 2, 4 pi^2 alpha^(p-1) |R^alpha - r^alpha|^(1-p) with
    alpha = (p - 2)/(p - 1).
    """
    if p == 2.0:
        return FOUR_PI_SQ / math.log(R / r)
    a = (p - 2.0) / (p - 1.0)
    return FOUR_PI_SQ * abs(a) ** (p - 1.0) * abs(R ** a - r ** a) ** (1.0 - p)


def annulus_bound(p, r, R, h):
    """Relative first-order discretization bound for the annulus value.

    A staircase plate boundary sits up to about half a cell from the true
    circle.  The bound is the largest relative change of the closed form
    when both circles move by h/2, closing or opening the gap.
    """
    exact = annulus_capacity(p, r, R)
    d = h / 2.0
    return max(abs(annulus_capacity(p, r + d, R - d) / exact - 1.0),
               abs(annulus_capacity(p, r - d, R + d) / exact - 1.0))


def mu_bracket(pa, pb, thickness, rect, h):
    """Bounds on mu from capacity monotonicity and the annulus formula.

    Lower: every candidate holds the blob of radius ``thickness`` about
    pa, and the rectangle lies in the disk of radius R_a about pa.
    Upper: the straight candidate lies in the disk of radius L/2 + t about
    the chord midpoint, and the ring of outermost cell centers (h/2 inside
    the rectangle) encloses the disk of radius d about that midpoint.
    Both hold for any conformal rescale because p = n.
    """
    x1, y1, x2, y2 = rect
    ra = max(math.hypot(cx - pa[0], cy - pa[1])
             for cx in (x1, x2) for cy in (y1, y2))
    lower = FOUR_PI_SQ / math.log(ra / thickness)
    mx, my = (pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0
    half = math.hypot(pb[0] - pa[0], pb[1] - pa[1]) / 2.0
    d = min(mx - x1, x2 - mx, my - y1, y2 - my) - h / 2.0
    upper = FOUR_PI_SQ / math.log(d / (half + thickness))
    return lower, upper


# -- configs ---------------------------------------------------------------------

def _domain(n, ntheta, a=HALF_WIDTH):
    return (f"[domain]\nx1min = {-a}\nx1max = {a}\nx2min = {-a}\nx2max = {a}\n"
            f"nx = {n}\nny = {n}\nntheta = {ntheta}\n")


def _sin(rng):
    return f"sin:0.3,0.8,-0.5,{rng.uniform(0.0, 2.0 * math.pi)!r}"


def _annulus(kind_lines, n, ntheta, power, formats):
    text = (f"[metric]\n{kind_lines}" + _domain(n, ntheta)
            + f"[condenser]\nc0 = disk_complement:0,0,{R_OUT!r}\n"
            f"c1 = disk:0,0,{R_IN!r}\n[solver]\ntol = {SOLVER_TOL!r}\n"
            f"power = {power}\n[output]\nformats = {formats}\n")
    return text, {"power": float(power), "n": n, "tol": SOLVER_TOL}


def config(name, seed, k):
    """(INI text, parameters the checks need) for round k of a run."""
    rng = random.Random(seed * 1_000_003 + k)
    if name == "annulus-p2":
        return _annulus(f"kind = conformal\nbase = euclidean\n"
                        f"sigma = {_sin(rng)}\n", 64, 16, 2, "csv,svg")
    if name == "annulus-p3":
        return _annulus("kind = euclidean\n", 64, 8, 3, "csv")
    if name == "catalog-mu":
        n = 24
        h = 2.0 * HALF_WIDTH / n
        sym = SYMMETRIES[rng.randrange(len(SYMMETRIES))]
        pa, pb = (sym(*p) for p in MU_POINTS)
        t = 1.25 * h
        text = (f"[metric]\nkind = conformal\nbase = euclidean\n"
                f"sigma = {_sin(rng)}\n" + _domain(n, 8)
                + f"[solver]\ntol = {SOLVER_TOL!r}\n[invariant]\nwhich = mu\n"
                f"points = {pa[0]!r},{pa[1]!r}; {pb[0]!r},{pb[1]!r}\n"
                f"thickness = {t!r}\n[output]\nformats = csv\n")
        lower, upper = mu_bracket(pa, pb, t, (-HALF_WIDTH, -HALF_WIDTH,
                                              HALF_WIDTH, HALF_WIDTH), h)
        return text, {"lower": lower, "upper": upper, "candidates": 15}
    if name == "check-tensors":
        text = ("[metric]\nkind = conformal\nbase = randers\n"
                f"b1 = const:0.3\nb2 = const:-0.1\nsigma = {_sin(rng)}\n"
                + _domain(128, 32, 1.0)
                + "[check]\nwhich = conformality, volume, energy_density, "
                "energy\nmap = similarity:1.6,0.4,0.3,-0.2\n"
                "u = gauss:1.0,0.3,-0.4,1.2\nsamples = 20000\n"
                f"seed = {rng.randrange(2 ** 31)}\n[output]\nformats = csv\n")
        return text, {"checks": ("conformality", "pullback_volume",
                                 "pullback_energy_density",
                                 "energy_invariance")}
    raise KeyError(name)


COMMANDS = {"annulus-p2": "capacity", "annulus-p3": "capacity",
            "catalog-mu": "invariant", "check-tensors": "check"}


# -- output readers ----------------------------------------------------------------

def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_summary(path):
    return {key: value for key, value in _rows(path)[1:]}


def read_field(path):
    """Minimizer CSV as a list of (i, j, x1, x2, value)."""
    return [(int(i), int(j), float(x1), float(x2), float(v))
            for i, j, x1, x2, v in _rows(path)[1:]]


# -- checks (each returns a list of problems; empty means correct) -------------

def check_annulus_value(value, converged, p, n):
    problems = []
    if not converged:
        problems.append("solver did not converge")
    exact = annulus_capacity(p, R_IN, R_OUT)
    bound = annulus_bound(p, R_IN, R_OUT, 2.0 * HALF_WIDTH / n)
    err = abs(value - exact) / exact
    if not err <= bound:
        problems.append(f"value {value!r}: rel err {err:.4f} against the "
                        f"closed form {exact:.6f} exceeds {bound:.4f}")
    return problems


def check_minimizer(field, n, tol):
    """Plates exactly 0 and 1, free values in [0, 1], square symmetry."""
    problems = []
    u = [[math.nan] * n for _ in range(n)]
    for i, j, x1, x2, v in field:
        rr = x1 * x1 + x2 * x2
        if rr <= R_IN * R_IN and v != 1.0:
            problems.append(f"inner plate node ({i},{j}) holds {v!r}")
        elif rr >= R_OUT * R_OUT and v != 0.0:
            problems.append(f"outer plate node ({i},{j}) holds {v!r}")
        elif not 0.0 <= v <= 1.0:
            problems.append(f"free node ({i},{j}) holds {v!r}")
        u[i][j] = v
    if len(field) != n * n:
        problems.append(f"minimizer has {len(field)} nodes, expected {n * n}")
        return problems
    # a symmetric problem from a symmetric start stays symmetric; more
    # than the solver tolerance means the scheme broke the symmetry
    worst = max(max(abs(u[i][j] - u[j][i]), abs(u[i][j] - u[n - 1 - i][j]))
                for i in range(n) for j in range(n))
    if not worst <= tol:
        problems.append(f"minimizer asymmetry {worst:.3e} exceeds {tol:.1e}")
    return problems


def check_mu(value, converged, candidates, lower, upper, expected):
    problems = []
    if not math.isfinite(value):
        problems.append(f"mu = {value!r} is not finite")
    if not converged:
        problems.append("winning candidate did not converge")
    if not lower <= value <= upper:
        problems.append(f"mu = {value!r} outside [{lower:.4f}, {upper:.4f}]")
    if candidates != expected:
        problems.append(f"{candidates} candidates, expected {expected}")
    return problems


def check_reports(rows, expected):
    """checks.csv rows: every named report present and passing."""
    problems = []
    names = tuple(r[0] for r in rows)
    if names != tuple(expected):
        problems.append(f"reports {names}, expected {tuple(expected)}")
    for name, samples, err, threshold, passed in rows:
        if passed != "true" or not float(err) <= float(threshold):
            problems.append(f"{name}: rel err {err} against {threshold}")
    return problems


def check_outputs(name, out_dir, params):
    """Check one round's output files; returns (problems, facts).

    ``facts`` carries what run.py compares across rounds and with the
    trace: the value and, for capacity runs, the iteration count.
    """
    if COMMANDS[name] == "capacity":
        s = read_summary(os.path.join(out_dir, "capacity_summary.csv"))
        value = float(s["value"])
        problems = check_annulus_value(value, s["converged"] == "true",
                                       params["power"], params["n"])
        field = read_field(os.path.join(out_dir, "capacity_minimizer.csv"))
        problems += check_minimizer(field, params["n"], params["tol"])
        return problems, {"value": value, "iterations": int(s["iterations"]),
                          "converged": s["converged"] == "true"}
    if name == "catalog-mu":
        s = read_summary(os.path.join(out_dir, "invariant_summary.csv"))
        value = float(s["value"])
        return check_mu(value, s["converged"] == "true", int(s["candidates"]),
                        params["lower"], params["upper"],
                        params["candidates"]), {"value": value}
    rows = _rows(os.path.join(out_dir, "checks.csv"))[1:]
    return check_reports(rows, params["checks"]), {}
