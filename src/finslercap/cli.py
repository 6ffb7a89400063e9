"""Command-line front end.

One command per invocation: ``tensors`` dumps the pointwise tensors of
the configured metric, ``capacity`` minimizes a condenser energy,
``check`` runs the conformal identity/invariance battery, ``invariant``
evaluates one of the point invariants, and ``selftest`` runs the
registered verification checks at small sizes.  Exit codes: 0 ok, 1 a
check failed, 2 the solver did not converge, 3 bad input.
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from .bundle import volume_density
from .capacity import minimize, rasterize_condenser
from .config import load_config
from .conformal import (POINT_FUNCTIONS, CheckReport,
                        check_capacity_invariance, check_energy_invariance,
                        check_invariant_invariance,
                        check_pullback_energy_density, check_pullback_volume,
                        conformality_witness, invariant)
from .errors import ConfigError, FinslerError
from .metrics import tensor_point
from .output import (base_field_csv, format_number, reports_csv, summary_csv,
                     svg_heatmap, write_csv)
from .selftest import run_selftest

# cmd_invariant's dispatch table; the benchmark's tracer wraps its values
_INVARIANTS = {name: functools.partial(invariant, name)
               for name in POINT_FUNCTIONS}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 means "not converged" here,
    # so route usage errors to the bad-input code instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(prog="finslercap",
                     description="Finsler conformal capacities and "
                                 "invariants on desk-scale grids.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="path to the run configuration file")
        p.add_argument("--out", help="output directory (overrides [output])")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="config override, repeatable")

    p = sub.add_parser("tensors", parents=[], help="print pointwise tensors")
    common(p)
    p.add_argument("--x", required=True, metavar="X1,X2",
                   help="base point, comma separated")
    p.add_argument("--theta", type=float, default=0.0,
                   help="fiber angle (default 0)")

    common(sub.add_parser("capacity", help="minimize a condenser energy"))
    common(sub.add_parser("check", help="run conformal identity checks"))
    common(sub.add_parser("invariant", help="evaluate a point invariant"))
    common(sub.add_parser("selftest", help="run the embedded test battery"),
           config_required=False)
    return parser


def _load(args):
    rc = load_config(args.config, tuple(args.override))
    out_dir = args.out if args.out else rc.out_dir
    return rc, out_dir


def _print_matrix(label, mat):
    for i, row in enumerate(np.atleast_2d(mat)):
        cells = " ".join(format_number(v) for v in row)
        print(f"{label} {i}: {cells}")


def cmd_tensors(args):
    rc, _ = _load(args)
    try:
        x = tuple(float(v) for v in args.x.split(","))
    except ValueError:
        raise ConfigError(f"--x must be two comma-separated numbers, "
                          f"got {args.x!r}")
    if len(x) != 2:
        raise ConfigError("--x needs 2 coordinates")
    if not all(map(math.isfinite, x)):
        raise ConfigError(f"--x: {args.x!r} is not a pair of finite numbers")
    if not math.isfinite(args.theta):
        raise ConfigError(f"--theta: {args.theta!r} is not a finite number")
    y = (np.cos(args.theta), np.sin(args.theta))
    tp = tensor_point(rc.metric, x, y)
    print(f"F: {format_number(tp.F)}")
    _print_matrix("g", tp.g)
    _print_matrix("g_inv", tp.g_inv)
    for i in range(2):
        _print_matrix(f"C {i}", tp.cartan[i])
    for i in range(2):
        _print_matrix(f"gamma {i}", tp.gamma[i])
    _print_matrix("N", tp.nonlin)
    print(f"rho: {format_number(volume_density(tp))}")
    return 0


def cmd_capacity(args):
    rc, out_dir = _load(args)
    if rc.condenser is None:
        raise ConfigError("capacity needs a [condenser] section")
    res = minimize(rc.condenser, rc.metric, rc.grid, cfg=rc.solver,
                   power=rc.power)
    rows = [
        ("value", res.value),
        ("converged", res.converged),
        ("iterations", res.iterations),
        ("residual", res.final_gradient_norm),
        ("power", rc.power),
        ("nx", rc.grid.nx), ("ny", rc.grid.ny), ("ntheta", rc.grid.ntheta),
    ]
    for key, value in rows:
        print(f"{key}: {format_number(value)}")
    if "csv" in rc.formats:
        summary_csv(os.path.join(out_dir, "capacity_summary.csv"), rows)
        if res.minimizer is not None:
            base_field_csv(os.path.join(out_dir, "capacity_minimizer.csv"),
                           rc.grid, res.minimizer.values)
    if "svg" in rc.formats and res.minimizer is not None:
        svg_heatmap(os.path.join(out_dir, "capacity_minimizer.svg"), rc.grid,
                    res.minimizer.values, title="minimizer")
    return 0 if res.converged else 2


def cmd_check(args):
    rc, out_dir = _load(args)
    if rc.check is None:
        raise ConfigError("check needs a [check] section")
    setup = rc.check
    reports = []
    for name in setup.which:
        tol = setup.tols[name]
        if name == "conformality":
            err = conformality_witness(setup.cmap, samples=setup.samples,
                                       seed=setup.seed)
            reports.append(CheckReport("conformality", setup.samples, err,
                                       tol, err <= tol))
        elif name == "volume":
            reports.append(check_pullback_volume(
                setup.cmap, samples=setup.samples, seed=setup.seed, tol=tol))
        elif name == "energy_density":
            reports.append(check_pullback_energy_density(
                setup.cmap, setup.u, samples=setup.samples, seed=setup.seed,
                tol=tol))
        elif name == "energy":
            reports.append(check_energy_invariance(
                setup.cmap, setup.u, rc.grid, tol=tol))
        elif name == "capacity":
            reports.append(check_capacity_invariance(
                setup.cmap, rc.condenser, rc.grid, cfg=rc.solver,
                power=rc.power, tol=tol))
        elif name == "invariants":
            reports.append(check_invariant_invariance(
                setup.cmap, rc.invariant.which, rc.invariant.query, rc.grid,
                cfg=rc.solver, power=rc.power, tol=tol))
    for rep in reports:
        print(rep)
    if "csv" in rc.formats:
        reports_csv(os.path.join(out_dir, "checks.csv"), reports)
    return 0 if all(r.passed for r in reports) else 1


def cmd_invariant(args):
    rc, out_dir = _load(args)
    if rc.invariant is None:
        raise ConfigError("invariant needs an [invariant] section")
    which, query = rc.invariant.which, rc.invariant.query
    res = _INVARIANTS[which](query, rc.metric, rc.grid, cfg=rc.solver,
                             power=rc.power)
    print(f"{which} = {format_number(res.value)}")
    rows = [("invariant", which), ("value", res.value),
            ("winner", res.winner), ("candidates", len(res.candidate_values)),
            ("skipped", res.skipped), ("converged", res.converged)]
    if "csv" in rc.formats:
        summary_csv(os.path.join(out_dir, "invariant_summary.csv"), rows)
        write_csv(os.path.join(out_dir, "invariant_candidates.csv"),
                  ("index", "value"),
                  list(enumerate(res.candidate_values)))
        if res.continuum is not None:
            m0, m1 = rasterize_condenser(res.continuum, rc.grid)
            cells = []
            for plate, mask in ((0, m0), (1, m1)):
                for i, j in zip(*np.nonzero(mask)):
                    cells.append((plate, int(i), int(j),
                                  rc.grid.x1[i], rc.grid.x2[j]))
            write_csv(os.path.join(out_dir, "invariant_continuum.csv"),
                      ("plate", "i", "j", "x1", "x2"), cells)
    if not res.converged:
        return 2
    return 0


def cmd_selftest(args):
    rc, _ = _load(args)
    reports = run_selftest(rc.selftest_tols)
    return 0 if all(r.passed for r in reports) else 1


_COMMANDS = {
    "tensors": cmd_tensors,
    "capacity": cmd_capacity,
    "check": cmd_check,
    "invariant": cmd_invariant,
    "selftest": cmd_selftest,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FinslerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
