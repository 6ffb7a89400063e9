"""Run configuration for the command-line front end.

Configs are flat sectioned key=value files (bracketed section headers,
one ``key = value`` per line, ``#`` comments) parsed with the standard
library.  The base is a planar rectangle, so every metric is 2x2 and
every expression a function of (x1, x2).  Sections:

[metric]    kind = euclidean | riemannian | randers | conformal
            a11/a12/a22, b1/b2 = scalar expressions (see exprs.parse_expr)
            base = base kind for conformal; sigma = exponent expression
[domain]    x1min/x1max/x2min/x2max; nx, ny in [MIN_BASE_NODES,
            MAX_BASE_NODES], ntheta in [MIN_FIBER_NODES, MAX_FIBER_NODES]
            and nx*ny*ntheta at most MAX_BUNDLE_NODES, the limits of
            bundle.SphereBundleGrid
[condenser] c0, c1 = shape descriptors (``disk:cx,cy,r`` and friends)
[solver]    tol, max_iter, power (default 2); p = 2 is
            solved by conjugate gradients, every other p by Newton-CG,
            and tol bounds the max-norm of the free gradient of both
[check]     which = comma list of check names; map = identity |
            similarity:scale[,angle[,sx,sy]] | power:p; sigma;
            sigma_claim (claimed factor used instead of the witnessed
            one, for deliberate-failure runs); u; samples, at most
            MAX_CHECK_SAMPLES; seed; tol_<check name> thresholds
[invariant] which = mu | lambda | nu | rho (conformal.POINT_FUNCTIONS);
            points = x,y; x,y; ...; controls; offsets; spread; thickness
[output]    dir, formats = csv,svg
[selftest]  tol_<check name> thresholds of the ``selftest`` command, one
            per name in selftest.CHECKS

Command-line ``--override section.key=value`` entries are applied on
top of the file before validation.  All validation failures raise
ConfigError so the CLI can map them to a single exit code.
"""

import configparser
import dataclasses
import math
import os

from .bundle import (MAX_BASE_NODES, MAX_BUNDLE_NODES, MAX_FIBER_NODES,
                     MIN_BASE_NODES, MIN_FIBER_NODES, SphereBundleGrid)
from .capacity import CondenserSpec, SolverConfig
from .conformal import (POINT_FUNCTIONS, InvariantQuery, polar_power_map,
                        rescale_map, similarity_map)
from .errors import ConfigError, FinslerError
from .exprs import const, parse_expr
from .metrics import conformal_wrap, euclidean, randers, riemannian
from .selftest import CHECKS as SELFTEST_CHECKS
from .shapes import (disk, disk_complement, outer_boundary, point_blob,
                     polyline, rect_complement, rectangle, segment)

_MISSING = object()

# [check] samples above this are rejected: the pointwise checks hold about
# 0.35 KB per sample, so the ceiling keeps them near 0.4 GB
MAX_CHECK_SAMPLES = 10 ** 6

CHECK_NAMES = ("conformality", "volume", "energy_density", "energy",
               "capacity", "invariants")
DEFAULT_CHECKS = ("conformality", "volume", "energy_density", "energy")
DEFAULT_CHECK_TOLS = {
    "conformality": 1e-10,
    "volume": 1e-6,
    "energy_density": 1e-8,
    "energy": 1e-2,
    "capacity": 3e-2,
    "invariants": 5e-2,
}


@dataclasses.dataclass(frozen=True)
class CheckSetup:
    """Resolved [check] section: map/metric pair plus thresholds."""

    cmap: object
    which: tuple
    samples: int
    seed: int
    u: object
    tols: dict


@dataclasses.dataclass(frozen=True)
class InvariantSetup:
    """Resolved [invariant] section: which invariant, on which points."""

    which: str
    query: InvariantQuery


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything one CLI invocation needs, fully parsed and validated."""

    metric: object
    grid: SphereBundleGrid
    condenser: object
    solver: SolverConfig
    power: float
    check: object
    invariant: object
    out_dir: str
    formats: tuple
    selftest_tols: dict

    @property
    def domain(self):
        g = self.grid
        return (g.x1min, g.x2min, g.x1max, g.x2max)


# -- low-level readers ---------------------------------------------------------

def _get(cp, sec, key, default=_MISSING):
    if cp.has_section(sec) and cp.has_option(sec, key):
        return cp.get(sec, key).strip()
    if default is _MISSING:
        raise ConfigError(f"missing required key [{sec}] {key}")
    return default


def _number(text, sec, key):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"[{sec}] {key}: {text.strip()!r} is not a finite "
                          "number")
    return value


def _getfloat(cp, sec, key, default=_MISSING):
    raw = _get(cp, sec, key, default)
    if not isinstance(raw, str):
        return raw
    return _number(raw, sec, key)


def _getint(cp, sec, key, default=_MISSING):
    raw = _get(cp, sec, key, default)
    if not isinstance(raw, str):
        return raw
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{sec}] {key} must be an integer, got {raw!r}")


def _getexpr(cp, sec, key, default=_MISSING):
    raw = _get(cp, sec, key, default)
    if not isinstance(raw, str):
        return raw
    try:
        return parse_expr(raw)
    except ValueError as exc:
        raise ConfigError(f"[{sec}] {key}: {exc}")


def _floats(text, sec, key):
    return tuple(_number(v, sec, key) for v in text.split(","))


def _names(text):
    return tuple(w.strip() for w in text.split(",") if w.strip())


# -- shape and point descriptors -----------------------------------------------

def parse_shape(text, sec="condenser", key="?"):
    """Build a catalog shape from ``name:args`` syntax."""
    text = text.strip()
    name, _, rest = text.partition(":")
    name = name.strip()
    if name == "outer_boundary":
        if rest.strip():
            raise ConfigError(f"[{sec}] {key}: outer_boundary takes no "
                              "parameters")
        return outer_boundary()
    vals = _floats(rest, sec, key) if rest.strip() else ()
    try:
        if name == "disk" and len(vals) == 3:
            return disk(*vals)
        if name == "disk_complement" and len(vals) == 3:
            return disk_complement(*vals)
        if name == "rectangle" and len(vals) == 4:
            return rectangle(*vals)
        if name == "rect_complement" and len(vals) == 4:
            return rect_complement(*vals)
        if name == "point_blob" and len(vals) == 3:
            return point_blob(*vals)
        if name == "segment" and len(vals) == 5:
            return segment(vals[0:2], vals[2:4], vals[4])
        if name == "polyline" and len(vals) >= 5 and len(vals) % 2 == 1:
            pts = tuple(vals[i:i + 2] for i in range(0, len(vals) - 1, 2))
            return polyline(pts, vals[-1])
    except FinslerError as exc:
        raise ConfigError(f"[{sec}] {key}: {exc}")
    raise ConfigError(f"[{sec}] {key}: unknown shape descriptor {text!r}")


def parse_points(text, sec="invariant", key="points"):
    """Parse ``x,y; x,y; ...`` into a tuple of planar points."""
    points = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        vals = _floats(part, sec, key)
        if len(vals) != 2:
            raise ConfigError(f"[{sec}] {key}: each point needs exactly two "
                              f"coordinates, got {part!r}")
        points.append(vals)
    if not points:
        raise ConfigError(f"[{sec}] {key}: no points given")
    return tuple(points)


# -- section parsers -----------------------------------------------------------

def _base_metric(cp, kind):
    """Euclidean, Riemannian or Randers metric from [metric], or None for
    any other kind."""
    if kind == "euclidean":
        return euclidean()
    if kind not in ("riemannian", "randers"):
        return None
    one, zero = const(1.0), const(0.0)
    a11 = _getexpr(cp, "metric", "a11", one)
    a12 = _getexpr(cp, "metric", "a12", zero)
    a = ((a11, a12), (a12, _getexpr(cp, "metric", "a22", one)))
    if kind == "riemannian":
        return riemannian(a)
    return randers(a, (_getexpr(cp, "metric", "b1", zero),
                       _getexpr(cp, "metric", "b2", zero)))


def parse_metric(cp):
    kind = _get(cp, "metric", "kind", "euclidean")
    try:
        if kind != "conformal":
            m = _base_metric(cp, kind)
            if m is None:
                raise ConfigError(f"[metric] kind: unknown kind {kind!r}")
            return m
        base_kind = _get(cp, "metric", "base", "euclidean")
        base = _base_metric(cp, base_kind)
        if base is None:
            raise ConfigError(f"[metric] base: unknown kind {base_kind!r}")
        return conformal_wrap(base, _getexpr(cp, "metric", "sigma"))
    except FinslerError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"[metric]: {exc}")


def parse_domain(cp):
    x1min = _getfloat(cp, "domain", "x1min", -1.0)
    x1max = _getfloat(cp, "domain", "x1max", 1.0)
    x2min = _getfloat(cp, "domain", "x2min", -1.0)
    x2max = _getfloat(cp, "domain", "x2max", 1.0)
    nx = _getint(cp, "domain", "nx", 32)
    ny = _getint(cp, "domain", "ny", 32)
    ntheta = _getint(cp, "domain", "ntheta", 16)
    lo, hi = MIN_BASE_NODES, MAX_BASE_NODES
    if not (lo <= nx <= hi and lo <= ny <= hi):
        raise ConfigError(f"[domain] nx/ny must lie in [{lo}..{hi}], "
                          f"got {nx}x{ny}")
    lo, hi = MIN_FIBER_NODES, MAX_FIBER_NODES
    if not lo <= ntheta <= hi:
        raise ConfigError(f"[domain] ntheta must lie in [{lo}..{hi}], "
                          f"got {ntheta}")
    if nx * ny * ntheta > MAX_BUNDLE_NODES:
        raise ConfigError(f"[domain] nx*ny*ntheta must be at most "
                          f"{MAX_BUNDLE_NODES}, got {nx * ny * ntheta}")
    if not (x1min < x1max and x2min < x2max):
        raise ConfigError("[domain] rectangle has empty extent")
    return SphereBundleGrid(x1min, x1max, x2min, x2max,
                            nx=nx, ny=ny, ntheta=ntheta)


def parse_condenser(cp):
    if not cp.has_section("condenser"):
        return None
    c0 = parse_shape(_get(cp, "condenser", "c0"), "condenser", "c0")
    c1 = parse_shape(_get(cp, "condenser", "c1"), "condenser", "c1")
    return CondenserSpec(c0, c1)


def parse_solver(cp):
    defaults = SolverConfig()
    cfg = SolverConfig(
        tol=_getfloat(cp, "solver", "tol", defaults.tol),
        max_iter=_getint(cp, "solver", "max_iter", defaults.max_iter),
    )
    if cfg.tol <= 0:
        raise ConfigError("[solver] tol must be positive")
    if cfg.max_iter < 1:
        raise ConfigError("[solver] max_iter must be at least 1")
    power = _getfloat(cp, "solver", "power", 2.0)
    if power <= 1:
        raise ConfigError("[solver] power must exceed 1")
    return cfg, power


def parse_check_map(cp, m, domain):
    """Build the [check] map/metric pair, honoring a claimed factor."""
    spec = _get(cp, "check", "map", "identity")
    name, _, rest = spec.partition(":")
    name = name.strip()
    try:
        if name == "identity":
            sigma = _getexpr(cp, "check", "sigma", const(0.0))
            cm = rescale_map(m, sigma, domain)
        elif name == "similarity":
            vals = _floats(rest, "check", "map")
            if len(vals) not in (1, 2, 4):
                raise ConfigError("[check] map: similarity takes scale"
                                  "[,angle[,sx,sy]]")
            angle = vals[1] if len(vals) > 1 else 0.0
            shift = vals[2:4] if len(vals) == 4 else (0.0, 0.0)
            cm = similarity_map(m, vals[0], angle, shift, domain)
        elif name == "power":
            vals = _floats(rest, "check", "map")
            if len(vals) != 1:
                raise ConfigError("[check] map: power takes one exponent")
            cm = polar_power_map(vals[0], domain, m)
        else:
            raise ConfigError(f"[check] map: unknown map {spec!r}")
    except FinslerError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"[check] map: {exc}")
    claim = _getexpr(cp, "check", "sigma_claim", None)
    if claim is not None:
        # Substituted after witnessing: the checks then test the claimed
        # factor against the true pair and fail if it is wrong.
        cm = dataclasses.replace(cm, sigma=claim)
    return cm


def parse_check(cp, m, domain):
    if not cp.has_section("check"):
        return None
    which = _names(_get(cp, "check", "which", ",".join(DEFAULT_CHECKS)))
    for name in which:
        if name not in CHECK_NAMES:
            raise ConfigError(f"[check] which: unknown check {name!r}; "
                              f"choose from {', '.join(CHECK_NAMES)}")
    samples = _getint(cp, "check", "samples", 1000)
    if samples < 1:
        raise ConfigError("[check] samples must be at least 1")
    if samples > MAX_CHECK_SAMPLES:
        raise ConfigError(f"[check] samples must be at most "
                          f"{MAX_CHECK_SAMPLES}, got {samples}")
    seed = _getint(cp, "check", "seed", 1847)
    u = _getexpr(cp, "check", "u", parse_expr("linear:0.0,0.7,-0.4"))
    tols = {}
    for name in CHECK_NAMES:
        tols[name] = _getfloat(cp, "check", "tol_" + name,
                               DEFAULT_CHECK_TOLS[name])
        if tols[name] <= 0:
            raise ConfigError(f"[check] tol_{name} must be positive")
    cmap = parse_check_map(cp, m, domain)
    return CheckSetup(cmap=cmap, which=which, samples=samples, seed=seed,
                      u=u, tols=tols)


def parse_invariant(cp):
    if not cp.has_section("invariant"):
        return None
    which = _get(cp, "invariant", "which")
    if which not in POINT_FUNCTIONS:
        raise ConfigError(f"[invariant] which: unknown invariant {which!r}; "
                          f"choose from {', '.join(POINT_FUNCTIONS)}")
    points = parse_points(_get(cp, "invariant", "points"))
    controls = _get(cp, "invariant", "controls", None)
    offsets = _get(cp, "invariant", "offsets", None)
    kwargs = {}
    if controls is not None:
        vals = _floats(controls, "invariant", "controls")
        if any(v != int(v) or v < 0 for v in vals):
            raise ConfigError("[invariant] controls must be non-negative "
                              "integers")
        kwargs["controls"] = tuple(int(v) for v in vals)
    if offsets is not None:
        kwargs["offsets"] = _floats(offsets, "invariant", "offsets")
    spread = _getfloat(cp, "invariant", "spread", None)
    if spread is not None:
        if spread <= 0:
            raise ConfigError("[invariant] spread must be positive")
        kwargs["spread"] = spread
    thickness = _getfloat(cp, "invariant", "thickness", None)
    if thickness is not None:
        if thickness <= 0:
            raise ConfigError("[invariant] thickness must be positive")
        kwargs["thickness"] = thickness
    return InvariantSetup(which=which,
                          query=InvariantQuery(points=points, **kwargs))


def parse_selftest(cp):
    return {name: _getfloat(cp, "selftest", "tol_" + name, tol)
            for name, (_, tol) in SELFTEST_CHECKS.items()}


def parse_output(cp):
    if not cp.has_section("output"):
        return "out", ("csv", "svg")
    out_dir = _get(cp, "output", "dir", "out")
    formats = _names(_get(cp, "output", "formats", "csv,svg"))
    for fmt in formats:
        if fmt not in ("csv", "svg"):
            raise ConfigError(f"[output] formats: unknown format {fmt!r}")
    return out_dir, formats


_SCHEMA = {
    "metric": {"kind", "base", "sigma", "a11", "a12", "a22", "b1", "b2"},
    "domain": {"x1min", "x1max", "x2min", "x2max", "nx", "ny", "ntheta"},
    "condenser": {"c0", "c1"},
    "solver": {"tol", "max_iter", "power"},
    "check": {"which", "map", "sigma", "sigma_claim", "samples", "seed", "u"}
             | {"tol_" + name for name in CHECK_NAMES},
    "invariant": {"which", "points", "controls", "offsets", "spread",
                  "thickness"},
    "output": {"dir", "formats"},
    "selftest": {"tol_" + name for name in SELFTEST_CHECKS},
}


def check_schema(cp):
    """Reject unknown sections and keys instead of ignoring them.

    A typo'd section or key would otherwise fall back to defaults
    silently, which is far worse than an error.
    """
    for sec in cp.sections():
        allowed = _SCHEMA.get(sec)
        if allowed is None:
            raise ConfigError(f"unknown section [{sec}]; expected one of: "
                              f"{', '.join(sorted(_SCHEMA))}")
        for key in cp.options(sec):
            if key not in allowed:
                raise ConfigError(f"[{sec}] unknown key {key!r}; allowed: "
                                  f"{', '.join(sorted(allowed))}")


# -- entry points --------------------------------------------------------------

def apply_overrides(cp, overrides):
    """Apply ``section.key=value`` strings on top of the parsed file."""
    for item in overrides:
        target, eq, value = item.partition("=")
        section, dot, key = target.partition(".")
        if not eq or not dot or not section.strip() or not key.strip():
            raise ConfigError(f"override must look like section.key=value, "
                              f"got {item!r}")
        section, key = section.strip(), key.strip()
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value.strip())


def read_config_file(path, overrides=()):
    """Parse a config file plus overrides into a raw ConfigParser."""
    cp = configparser.ConfigParser(interpolation=None)
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                cp.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}")
    apply_overrides(cp, overrides)
    return cp


def load_config(path, overrides=()):
    """Read, override, and validate a run configuration."""
    cp = read_config_file(path, overrides)
    check_schema(cp)
    metric = parse_metric(cp)
    grid = parse_domain(cp)
    domain = (grid.x1min, grid.x2min, grid.x1max, grid.x2max)
    condenser = parse_condenser(cp)
    solver, power = parse_solver(cp)
    check = parse_check(cp, metric, domain)
    invariant = parse_invariant(cp)
    out_dir, formats = parse_output(cp)
    selftest_tols = parse_selftest(cp)
    if check is not None:
        if "capacity" in check.which and condenser is None:
            raise ConfigError("[check] which includes capacity but no "
                              "[condenser] section is present")
        if "invariants" in check.which and invariant is None:
            raise ConfigError("[check] which includes invariants but no "
                              "[invariant] section is present")
    return RunConfig(metric=metric, grid=grid, condenser=condenser,
                     solver=solver, power=power, check=check,
                     invariant=invariant, out_dir=out_dir, formats=formats,
                     selftest_tols=selftest_tols)
