"""Config parsing, CSV/SVG emitters, and the CLI exit-code contract."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import finslercap
from finslercap.bundle import SphereBundleGrid
from finslercap.capacity import SolverConfig
from finslercap.cli import main
from finslercap.config import (DEFAULT_CHECK_TOLS, MAX_CHECK_SAMPLES,
                               apply_overrides, load_config, parse_points,
                               parse_shape, read_config_file)
from finslercap.errors import ConfigError, FinslerError
from finslercap.exprs import const
from finslercap.output import (base_field_csv, format_number, summary_csv,
                               svg_heatmap, write_csv)
from finslercap.selftest import CHECKS as SELFTEST_CHECKS


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE = """
[metric]
kind = randers
b1 = const:0.3

[domain]
x1min = -2
x1max = 2
x2min = -2
x2max = 2
nx = 16
ny = 16
ntheta = 8

[condenser]
c0 = disk_complement:0,0,1.4
c1 = disk:0,0,0.5

[solver]
tol = 1e-4
"""


# -- config ------------------------------------------------------------------


def test_readme_configuration_example_loads(tmp_path):
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md")) as fh:
        readme = fh.read()
    section = readme[readme.index("### Configuration"):]
    block = section[section.index("```ini\n") + 7:]
    block = block[:block.index("```")]
    rc = load_config(write_ini(tmp_path, block))
    assert rc.metric.kind == "randers"
    assert (rc.grid.nx, rc.grid.ny, rc.grid.ntheta) == (64, 64, 16)
    assert rc.solver.tol == 1e-6 and rc.power == 2.0
    assert rc.invariant is not None and rc.check is not None


def test_defaults_from_empty_config():
    rc = load_config(None)
    assert rc.metric.kind == "euclidean"
    assert (rc.grid.nx, rc.grid.ny, rc.grid.ntheta) == (32, 32, 16)
    assert rc.domain == (-1.0, -1.0, 1.0, 1.0)
    assert rc.condenser is None and rc.check is None and rc.invariant is None
    assert rc.solver == SolverConfig() and rc.power == 2.0
    assert rc.out_dir == "out" and rc.formats == ("csv", "svg")


def test_full_config_round_trip(tmp_path):
    path = write_ini(tmp_path, """
[metric]
kind = randers
b1 = const:0.3

[domain]
x1min = -2
x1max = 2
x2min = -2
x2max = 2
nx = 16
ny = 16
ntheta = 8

[check]
which = conformality, volume
map = similarity:1.5,0.3,0.1,-0.2
samples = 250
seed = 7
tol_volume = 1e-9

[invariant]
which = mu
points = -0.8,-0.5; 0.9,0.6
controls = 1
offsets = -1,1
spread = 0.4
thickness = 0.3

[solver]
tol = 1e-5
max_iter = 900
power = 2.5

[output]
dir = results
formats = csv
""")
    rc = load_config(path)
    assert rc.metric.kind == "randers" and rc.metric.b[0] == const(0.3)
    assert rc.grid.nx == 16 and rc.domain == (-2.0, -2.0, 2.0, 2.0)
    assert rc.solver.tol == 1e-5 and rc.solver.max_iter == 900
    assert rc.power == 2.5
    assert rc.check.which == ("conformality", "volume")
    assert rc.check.samples == 250 and rc.check.seed == 7
    assert rc.check.tols["volume"] == 1e-9
    assert rc.check.tols["conformality"] == DEFAULT_CHECK_TOLS["conformality"]
    assert rc.check.cmap.f.kind == "affine"
    assert rc.invariant.which == "mu"
    assert rc.invariant.query.points == ((-0.8, -0.5), (0.9, 0.6))
    assert rc.invariant.query.controls == (1,)
    assert rc.invariant.query.offsets == (-1.0, 1.0)
    assert rc.invariant.query.spread == 0.4
    assert rc.invariant.query.thickness == 0.3
    assert rc.out_dir == "results" and rc.formats == ("csv",)


def test_overrides_replace_file_values(tmp_path):
    path = write_ini(tmp_path, BASE)
    rc = load_config(path, ("domain.nx=24", "solver.tol=1e-6",
                            "metric.kind=euclidean"))
    assert rc.grid.nx == 24 and rc.solver.tol == 1e-6
    assert rc.metric.kind == "euclidean"


def test_override_syntax_is_validated():
    cp = read_config_file(None)
    apply_overrides(cp, ("fresh.key=1",))
    assert cp.get("fresh", "key") == "1"
    for bad in ("domain.nx", "nx=48", ".key=1", "sec.=1"):
        with pytest.raises(ConfigError):
            apply_overrides(cp, (bad,))


@pytest.mark.parametrize("snippet", [
    "[metric]\nkind = hyperbolic\n",
    "[metric]\nkind = conformal\nbase = odd\nsigma = const:0.1\n",
    "[metric]\nkind = conformal\n",  # sigma is required
    "[domain]\nnx = 2\n",
    "[domain]\nntheta = 4\n",
    "[domain]\nx1min = 1\nx1max = -1\n",
    "[domain]\nnx = notanumber\n",
    "[solver]\ntol = -1\n",
    "[solver]\nmax_iter = 0\n",
    "[solver]\npower = 1.0\n",
    "[check]\nwhich = volume, parity\n",
    "[check]\ntol_volume = 0\n",
    "[check]\nsamples = 0\n",
    "[check]\nmap = shear:1,2\n",
    "[check]\nmap = similarity:1,2,3\n",
    "[check]\nwhich = capacity\n",
    "[invariant]\nwhich = mu\npoints = 0,0; 1\n",
    "[invariant]\nwhich = sigma\npoints = 0,0; 1,1\n",
    "[invariant]\nwhich = mu\npoints = 0,0; 1,1\ncontrols = -1\n",
    "[invariant]\nwhich = mu\npoints = 0,0; 1,1\nspread = 0\n",
    "[output]\nformats = csv,png\n",
    "[grid]\nnx = 16\n",  # the section is called [domain]
    "[metric]\nfamily = randers\n",  # the key is called kind
    "[solver]\ntolerance = 1e-6\n",
    # line-search constants, no longer settable
    "[solver]\nstep0 = 1.0\n",
    "[solver]\narmijo = 1e-4\n",
    "[solver]\nshrink = 0.5\n",
    "[solver]\ngrow = 1.25\n",
    "[solver]\nmin_step = 1e-18\n",
])
def test_validation_failures_raise_config_error(tmp_path, snippet):
    path = write_ini(tmp_path, snippet)
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_keys_are_named_in_the_error(tmp_path):
    path = write_ini(tmp_path, "[domain]\nnx = 16\nn_theta = 8\n")
    with pytest.raises(ConfigError, match="n_theta"):
        load_config(path)
    with pytest.raises(ConfigError, match=r"unknown section \[grids\]"):
        load_config(None, overrides=("grids.nx=8",))


def test_invariants_check_needs_invariant_section(tmp_path):
    path = write_ini(tmp_path, "[check]\nwhich = invariants\n")
    with pytest.raises(ConfigError, match="invariant"):
        load_config(path)


def test_check_samples_are_bounded(tmp_path, capsys):
    # only loaded: a check at the ceiling would take about 0.4 GB
    path = write_ini(tmp_path, "[check]\nwhich = volume\n")
    rc = load_config(path, (f"check.samples={MAX_CHECK_SAMPLES}",))
    assert rc.check.samples == MAX_CHECK_SAMPLES == 10 ** 6
    over = f"check.samples={MAX_CHECK_SAMPLES + 1}"
    with pytest.raises(ConfigError, match=r"\[check\] samples"):
        load_config(path, (over,))
    assert main(["check", "--config", path, "--override", over]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "[check] samples" in err


def test_grid_limits_are_shared_with_the_grid():
    with pytest.raises(ConfigError,
                       match=r"^\[domain\] nx/ny must lie in \[3\.\.4096\], "
                             r"got 4097x32$"):
        load_config(None, ("domain.nx=4097",))
    with pytest.raises(ConfigError,
                       match=r"^\[domain\] ntheta must lie in \[8\.\.1024\], "
                             r"got 7$"):
        load_config(None, ("domain.ntheta=7",))
    with pytest.raises(FinslerError, match=r"\[3, 4096\]"):
        SphereBundleGrid(0.0, 1.0, 0.0, 1.0, nx=4097, ny=8, ntheta=8)
    with pytest.raises(FinslerError, match=r"\[8, 1024\]"):
        SphereBundleGrid(0.0, 1.0, 0.0, 1.0, nx=8, ny=8, ntheta=1025)


def test_missing_config_file_is_an_error():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/no/such/file.ini")


def test_shape_descriptor_catalog():
    assert parse_shape("disk:0,0,1").kind == "disk"
    assert parse_shape("disk_complement:0,0,1").kind == "disk_complement"
    assert parse_shape("rectangle:-1,-1,1,1").kind == "rectangle"
    assert parse_shape("rect_complement:-1,-1,1,1").kind == "rect_complement"
    assert parse_shape("point_blob:0.5,0.5,0.1").kind == "point_blob"
    assert parse_shape("segment:0,0,1,1,0.2").kind == "polyline"
    assert parse_shape("polyline:0,0,1,1,0.5,-0.5,0.2").kind == "polyline"
    assert parse_shape("outer_boundary").kind == "outer_boundary"
    for bad in ("disk:0,0", "polyline:0,0,1,1", "outer_boundary:1",
                "blob:1,2,3", "disk:a,b,c"):
        with pytest.raises(ConfigError):
            parse_shape(bad)


def test_point_list_parsing():
    assert parse_points("0,0; 1.5,-2 ;") == ((0.0, 0.0), (1.5, -2.0))
    with pytest.raises(ConfigError):
        parse_points("0,0; 1")
    with pytest.raises(ConfigError):
        parse_points(" ; ")


def test_sigma_claim_replaces_the_witnessed_factor(tmp_path):
    path = write_ini(tmp_path, """
[check]
map = similarity:1.5
sigma_claim = const:0.123
""")
    rc = load_config(path)
    assert rc.check.cmap.sigma == const(0.123)


def test_power_map_check_needs_positive_x1(tmp_path):
    good = write_ini(tmp_path, """
[domain]
x1min = 0.4
x1max = 1.8
x2min = -0.5
x2max = 0.5

[check]
map = power:1.5
""", name="good.ini")
    rc = load_config(good)
    assert rc.check.cmap.f.kind == "polar_power"
    bad = write_ini(tmp_path, "[check]\nmap = power:1.5\n", name="bad.ini")
    with pytest.raises(ConfigError):
        load_config(bad)


# -- output helpers ------------------------------------------------------------


def test_format_number_cases():
    assert format_number(True) == "true" and format_number(False) == "false"
    assert format_number(7) == "7" and format_number(np.int64(-3)) == "-3"
    assert format_number(math.inf) == "+inf"
    assert format_number(-math.inf) == "-inf"
    assert format_number(math.nan) == "nan"
    rng = np.random.default_rng(2)
    for x in rng.standard_normal(50):
        assert float(format_number(float(x))) == float(x)


def test_csv_emitters_and_atomicity(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ("a", "b"), [(1, 2.5), ("x", math.inf)])
    assert path.read_text() == "a,b\n1,2.5\nx,+inf\n"
    g = SphereBundleGrid(-1, 1, -1, 1, nx=3, ny=4, ntheta=8)
    base_field_csv(str(tmp_path / "f.csv"), g, np.zeros((3, 4)))
    lines = (tmp_path / "f.csv").read_text().splitlines()
    assert lines[0] == "i,j,x1,x2,value" and len(lines) == 1 + 12
    summary_csv(str(tmp_path / "s.csv"), [("value", 4.0)])
    assert "value,4" in (tmp_path / "s.csv").read_text()
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def test_svg_heatmap_cells_and_nonfinite(tmp_path):
    g = SphereBundleGrid(-1, 1, -1, 1, nx=5, ny=4, ntheta=8)
    vals = np.linspace(0.0, 1.0, 20).reshape(5, 4)
    vals[2, 2] = math.inf
    path = tmp_path / "h.svg"
    svg_heatmap(str(path), g, vals, title="field")
    text = path.read_text()
    assert text.count("<rect") == 20
    assert 'fill="rgb(128,128,128)"' in text
    assert "field [" in text


# -- CLI ----------------------------------------------------------------------


def run_dir(tmp_path, name="out"):
    return str(tmp_path / name)


def test_tensors_command_prints_flat_values(tmp_path, capsys):
    path = write_ini(tmp_path, "[metric]\nkind = euclidean\n")
    assert main(["tensors", "--config", path, "--x", "0.3,0.4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("F: 1\n")
    assert "rho: 1" in out and "gamma 0" in out and "g_inv" in out


def test_tensors_rejects_malformed_point(tmp_path, capsys):
    path = write_ini(tmp_path, "[metric]\nkind = euclidean\n")
    assert main(["tensors", "--config", path, "--x", "a,b"]) == 3
    assert main(["tensors", "--config", path, "--x", "1,2,3"]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--x", "nan,0"), ("--x", "inf,0"), ("--theta", "nan"), ("--theta", "inf"),
])
def test_tensors_rejects_non_finite_flags(tmp_path, capsys, flag, value):
    path = write_ini(tmp_path, "[metric]\nkind = euclidean\n")
    args = {"--x": "0.3,0.4", "--theta": "0.7", flag: value}
    assert main(["tensors", "--config", path, "--x", args["--x"],
                 "--theta", args["--theta"]]) == 3
    out, err = capsys.readouterr()
    assert out == "" and f"error: {flag}" in err


ANNULUS = """
[metric]
kind = conformal
base = euclidean
sigma = sin:0.3,0.8,-0.5,1.1

[domain]
x1min = -2
x1max = 2
x2min = -2
x2max = 2
nx = 24
ny = 24
ntheta = 8

[condenser]
c0 = disk_complement:0,0,1.7
c1 = disk:0,0,0.6

[output]
formats = csv,svg
"""


def test_capacity_command_writes_deterministic_outputs(tmp_path, capsys):
    # bit-reproducible output: two runs of one config write equal bytes
    for name, text in (("randers", BASE), ("annulus", ANNULUS)):
        path = write_ini(tmp_path, text, name=name + ".ini")
        d1 = run_dir(tmp_path, name + "1")
        d2 = run_dir(tmp_path, name + "2")
        assert main(["capacity", "--config", path, "--out", d1]) == 0
        out = capsys.readouterr().out
        assert out.startswith("value: ") and "converged: true" in out
        for fn in ("capacity_summary.csv", "capacity_minimizer.csv",
                   "capacity_minimizer.svg"):
            assert os.path.exists(os.path.join(d1, fn))
        assert main(["capacity", "--config", path, "--out", d2]) == 0
        for fn in ("capacity_summary.csv", "capacity_minimizer.csv",
                   "capacity_minimizer.svg"):
            with open(os.path.join(d1, fn), "rb") as fa, \
                    open(os.path.join(d2, fn), "rb") as fb:
                assert fa.read() == fb.read(), (name, fn)


def test_capacity_respects_format_selection(tmp_path):
    path = write_ini(tmp_path, BASE + "[output]\nformats = svg\n")
    d = run_dir(tmp_path)
    assert main(["capacity", "--config", path, "--out", d]) == 0
    assert os.path.exists(os.path.join(d, "capacity_minimizer.svg"))
    assert not os.path.exists(os.path.join(d, "capacity_summary.csv"))


def test_capacity_exit_2_when_not_converged(tmp_path, capsys):
    path = write_ini(tmp_path, BASE)
    code = main(["capacity", "--config", path, "--out", run_dir(tmp_path),
                 "--override", "solver.max_iter=2",
                 "--override", "solver.warm_sweeps=0",
                 "--override", "solver.tol=1e-14"])
    assert code == 2
    assert "converged: false" in capsys.readouterr().out


def test_capacity_without_condenser_is_bad_input(tmp_path, capsys):
    path = write_ini(tmp_path, "[metric]\nkind = euclidean\n")
    assert main(["capacity", "--config", path]) == 3
    assert "condenser" in capsys.readouterr().err


def test_capacity_overlapping_plates_report_inf(tmp_path, capsys):
    path = write_ini(tmp_path, BASE)
    d = run_dir(tmp_path)
    code = main(["capacity", "--config", path, "--out", d,
                 "--override", "condenser.c1=disk:0,0,1.6"])
    assert code == 0
    assert "value: +inf" in capsys.readouterr().out
    # no minimizer exists for a degenerate condenser
    assert not os.path.exists(os.path.join(d, "capacity_minimizer.csv"))


def test_check_command_passes_and_writes_reports(tmp_path, capsys):
    path = write_ini(tmp_path, BASE + """
[check]
which = conformality, volume, energy_density, energy
sigma = sin:0.3,0.8,-0.5,0.4
samples = 200
""")
    d = run_dir(tmp_path)
    assert main(["check", "--config", path, "--out", d]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 4 and "FAIL" not in out
    lines = open(os.path.join(d, "checks.csv")).read().splitlines()
    assert lines[0] == "check,samples,max_rel_err,threshold,pass"
    assert len(lines) == 5 and all(l.endswith(",true") for l in lines[1:])


def test_check_command_fails_on_a_false_claim(tmp_path, capsys):
    path = write_ini(tmp_path, BASE + """
[check]
which = conformality, volume
map = similarity:1.5
sigma_claim = const:0.9
samples = 100
""")
    assert main(["check", "--config", path, "--out", run_dir(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_invariant_command_writes_catalog_and_continuum(tmp_path, capsys):
    path = write_ini(tmp_path, BASE + """
[invariant]
which = mu
points = -0.8,-0.5; 0.9,0.6
controls = 0
""")
    d = run_dir(tmp_path)
    assert main(["invariant", "--config", path, "--out", d]) == 0
    out = capsys.readouterr().out
    assert out.startswith("mu = ")
    assert float(out.split("=")[1]) > 0
    for fn in ("invariant_summary.csv", "invariant_candidates.csv",
               "invariant_continuum.csv"):
        assert os.path.exists(os.path.join(d, fn))
    cand = open(os.path.join(d, "invariant_candidates.csv")).read()
    assert cand.splitlines()[0] == "index,value" and len(cand.splitlines()) == 2
    cont = open(os.path.join(d, "invariant_continuum.csv")).read()
    assert cont.splitlines()[0] == "plate,i,j,x1,x2"


def test_invariant_rho_overlap_reports_inf(tmp_path, capsys):
    path = write_ini(tmp_path, BASE + """
[invariant]
which = rho
points = 0.1,0.2; 0.8,-0.3; 0.1,0.2; -0.5,0.9
""")
    d = run_dir(tmp_path)
    assert main(["invariant", "--config", path, "--out", d]) == 0
    assert "rho = +inf" in capsys.readouterr().out
    assert not os.path.exists(os.path.join(d, "invariant_continuum.csv"))


def test_invariant_needs_its_section(tmp_path, capsys):
    path = write_ini(tmp_path, BASE)
    assert main(["invariant", "--config", path]) == 3
    assert "invariant" in capsys.readouterr().err


def test_selftest_runs_clean_and_detects_corruption(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "annulus_capacity" in out and "FAIL" not in out
    assert main(["selftest", "--override", "selftest.tol_bogus=1"]) == 3
    assert main(["selftest", "--override",
                 "selftest.tol_total_volume=tight"]) == 3


@pytest.mark.parametrize("name", list(SELFTEST_CHECKS))
def test_selftest_tolerance_reaches_its_check(capsys, name):
    # every error is >= 0, so tol -1 fails exactly the named check; tol 0
    # would not, since total_volume comes out exact
    assert main(["selftest", "--override", f"selftest.tol_{name}=-1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == list(SELFTEST_CHECKS)
    for line in lines:
        failed = line.startswith(name + ":")
        assert ("-> FAIL" in line) == failed
        assert ("-> pass" in line) != failed


_ALL_SECTIONS = BASE + """
[check]
which = volume

[invariant]
which = mu
points = -0.8,-0.5; 0.9,0.6
"""


# expression keys take the number as one of their parameters: (template,
# further overrides the key needs to be read)
_EXPRESSION_KEYS = {
    "check.u": ("gauss:{},0.3,-0.4,1.2",),
    "metric.sigma": ("const:{}", "metric.kind=conformal"),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, key", [
    ("capacity", "solver.tol"),
    ("capacity", "solver.power"),
    ("check", "check.tol_volume"),
    ("capacity", "domain.x1max"),
    ("invariant", "invariant.spread"),
    ("invariant", "invariant.offsets"),
    ("selftest", "selftest.tol_homogeneity"),
    ("check", "check.u"),
    ("capacity", "metric.sigma"),
])
def test_non_finite_numbers_exit_3(tmp_path, capsys, command, key, value):
    path = write_ini(tmp_path, _ALL_SECTIONS)
    template, *setup = _EXPRESSION_KEYS.get(key, ("{}",))
    overrides = [arg for item in setup for arg in ("--override", item)]
    assert main([command, "--config", path, *overrides,
                 "--override", f"{key}={template.format(value)}"]) == 3
    err = capsys.readouterr().err
    assert "is not a finite number" in err
    section, name = key.split(".")
    assert f"[{section}] {name}" in err


def test_usage_errors_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["capacity"])  # --config is required
    assert exc.value.code == 3
    capsys.readouterr()


def test_missing_config_path_exits_3(tmp_path, capsys):
    assert main(["capacity", "--config", str(tmp_path / "gone.ini")]) == 3
    assert "not found" in capsys.readouterr().err


def test_cli_loads_no_test_or_oracle_tooling():
    # numpy stays the only runtime dependency
    code = ("import sys, finslercap.cli; print(sorted({m.split('.')[0] for m"
            " in sys.modules} & {'numpy', 'scipy', 'hypothesis', 'pytest'}))")
    src = os.path.dirname(os.path.dirname(finslercap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "['numpy']"
