"""Tests of the benchmark's own oracles, checks and trace.

Run from the repository root: ``python3 -m pytest capbench -q``.
Each check is fed a wrong output and must reject it.
"""

import json
import math
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as w  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


# -- oracles ---------------------------------------------------------------------

def test_p_annulus_formula_tends_to_the_log_formula_as_p_goes_to_2():
    log_form = w.annulus_capacity(2.0, w.R_IN, w.R_OUT)
    assert log_form == pytest.approx(w.FOUR_PI_SQ)  # R/r = e
    for eps in (1e-3, 1e-5, -1e-5, -1e-3):
        near = w.annulus_capacity(2.0 + eps, w.R_IN, w.R_OUT)
        assert abs(near / log_form - 1.0) < 2.0 * abs(eps)


def test_p3_annulus_value():
    assert w.annulus_capacity(3.0, w.R_IN, w.R_OUT) == pytest.approx(
        33.503, abs=5e-4)


def test_annulus_bound_is_first_order():
    for p in (2.0, 3.0):
        b1 = w.annulus_bound(p, w.R_IN, w.R_OUT, 0.02)
        b2 = w.annulus_bound(p, w.R_IN, w.R_OUT, 0.01)
        assert b1 / b2 == pytest.approx(2.0, rel=0.05)


def test_mu_bracket_is_the_same_for_every_symmetry():
    h = 4.0 / 24
    brackets = set()
    for sym in w.SYMMETRIES:
        pa, pb = (sym(*p) for p in w.MU_POINTS)
        lo, hi = w.mu_bracket(pa, pb, 1.25 * h, (-2.0, -2.0, 2.0, 2.0), h)
        assert 0.0 < lo < hi
        brackets.add((round(lo, 12), round(hi, 12)))
    assert len(brackets) == 1


# -- checks reject wrong outputs ----------------------------------------------------

def test_annulus_value_off_by_ten_percent_is_rejected():
    exact = w.annulus_capacity(2.0, w.R_IN, w.R_OUT)
    assert w.check_annulus_value(exact, True, 2.0, 64) == []
    assert w.check_annulus_value(1.1 * exact, True, 2.0, 64)
    assert w.check_annulus_value(0.9 * exact, True, 2.0, 64)
    assert w.check_annulus_value(exact, False, 2.0, 64)
    exact3 = w.annulus_capacity(3.0, w.R_IN, w.R_OUT)
    assert w.check_annulus_value(exact3, True, 3.0, 64) == []
    assert w.check_annulus_value(0.85 * exact3, True, 3.0, 64)


def _radial_field(n):
    """The continuum minimizer sampled at cell centers, plates exact."""
    h = 2.0 * w.HALF_WIDTH / n
    rows = []
    for i in range(n):
        for j in range(n):
            x1 = -w.HALF_WIDTH + (i + 0.5) * h
            x2 = -w.HALF_WIDTH + (j + 0.5) * h
            rr = x1 * x1 + x2 * x2
            if rr <= w.R_IN ** 2:
                v = 1.0
            elif rr >= w.R_OUT ** 2:
                v = 0.0
            else:
                v = math.log(w.R_OUT / math.sqrt(rr)) / math.log(w.R_OUT / w.R_IN)
            rows.append((i, j, x1, x2, v))
    return rows


def _replace(field, i, j, value):
    return [(a, b, x1, x2, value if (a, b) == (i, j) else v)
            for a, b, x1, x2, v in field]


def test_minimizer_checks_accept_the_radial_field():
    assert w.check_minimizer(_radial_field(16), 16, 1e-6) == []


def test_free_node_above_one_is_rejected():
    field = _replace(_radial_field(16), 8, 12, 1.2)
    assert any("free node" in p for p in w.check_minimizer(field, 16, 1e-6))


def test_plate_node_off_its_value_is_rejected():
    field = _replace(_radial_field(16), 8, 8, 0.999)  # inside the inner disk
    assert any("inner plate" in p for p in w.check_minimizer(field, 16, 1e-6))


def test_broken_symmetry_is_rejected():
    field = _radial_field(16)
    v = next(v for i, j, _, _, v in field if (i, j) == (8, 12))
    field = _replace(field, 8, 12, v + 1e-3)
    assert any("asymmetry" in p for p in w.check_minimizer(field, 16, 1e-6))


def test_mu_outside_the_bracket_is_rejected():
    assert w.check_mu(30.0, True, 15, 14.0, 50.0, 15) == []
    assert w.check_mu(51.0, True, 15, 14.0, 50.0, 15)
    assert w.check_mu(13.0, True, 15, 14.0, 50.0, 15)
    assert w.check_mu(math.inf, True, 15, 14.0, 50.0, 15)
    assert w.check_mu(30.0, False, 15, 14.0, 50.0, 15)


def test_failing_or_missing_report_is_rejected():
    names = ("conformality", "pullback_volume")
    ok = [["conformality", "10", "1e-16", "1e-10", "true"],
          ["pullback_volume", "10", "2e-15", "1e-06", "true"]]
    assert w.check_reports(ok, names) == []
    assert w.check_reports([ok[0], ok[1][:4] + ["false"]], names)
    assert w.check_reports([ok[0], ok[1][:2] + ["2e-6", "1e-06", "true"]],
                           names)
    assert w.check_reports(ok[:1], names)


def test_values_that_move_across_rounds_are_rejected():
    import run
    same = [{"value": 29.42}, {"value": 29.42 * (1.0 + 1e-9)}]
    assert run.cross_checks("catalog-mu", same, 0) == []
    moved = [{"value": 29.42}, {"value": 29.42 * 1.01}]
    assert run.cross_checks("catalog-mu", moved, 0)
    assert run.cross_checks("annulus-p2", moved, 0)


@pytest.mark.parametrize("code", [1, 2])
def test_operation_that_exits_non_zero_makes_the_run_incorrect(
        tmp_path, monkeypatch, capsys, code):
    # finslercap exits 1 when a check report fails and 2 when a solve does
    # not converge; the stand-in CLI exits so without writing any output
    import run
    fake = tmp_path / "probe.py"
    fake.write_text(f"import sys\nsys.exit({code})\n")
    monkeypatch.setattr(run, "PROBE", str(fake))
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))
    argv = ["--workload", "annulus-p3", "--seed", "1", "--seconds", "0"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 1)


# -- the trace against the program's own summary ------------------------------------

def test_traced_gradient_calls_match_the_summary(tmp_path):
    text, _ = w.config("annulus-p3", 1, 0)
    text = text.replace("nx = 64", "nx = 16").replace("ny = 64", "ny = 16")
    text = text.replace("x1min = -2.0", "x1min = -2.2").replace(
        "x2min = -2.0", "x2min = -2.2")
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    record = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), str(record), "1",
         "--", "capacity", "--config", str(cfg), "--out",
         str(tmp_path / "out")], env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    layers = json.loads(record.read_text())["layers"]
    summary = w.read_summary(str(tmp_path / "out" / "capacity_summary.csv"))
    assert summary["converged"] == "true"
    assert layers["capacity.solves"] == 1
    assert layers["capacity.gradient_calls"] == int(summary["iterations"]) + 1
    assert layers["capacity.iterations"] == int(summary["iterations"])
    assert layers["shapes.rasterize_calls"] == 2
    assert layers["bundle.node_tensors_nodes"] == 16 * 16 * 8
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(layers) == sorted(names)
    assert 0.0 <= layers["cli.self_s"] <= layers["capacity.value_s"] + \
        layers["capacity.gradient_s"] + layers["capacity.minimize_self_s"]
