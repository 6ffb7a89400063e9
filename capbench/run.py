"""Benchmark of the finslercap CLI on four workloads.

Usage, from the repository root:

    python3 capbench/run.py --workload annulus-p2 --seed 1 --seconds 25 --trace 0

One operation is one ``finslercap`` invocation in a fresh process, run
serially (a closed loop of one client).  The run repeats whole operations
until ``--seconds`` have passed, checks every operation's output files,
and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (medians over the run's operations); with
``--trace 1`` they are the per-layer ones recorded by ``layers.py``
(medians as well).  ``run_s`` is the wall time scaled to a fixed machine
speed, gauged by a reference computation timed just before and after
each operation (see README.md).  An operation whose CLI exits non-zero
counts in ``failed`` and makes the run incorrect.  The exit code is 0
when every output is correct, 1 when one is not, and 2 when the program
cannot be run at all.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(HERE, "probe.py")
WORK = os.path.join(HERE, "_work")
OP_TIMEOUT_S = 150.0
# run_s is given at the machine speed at which reference_s() takes this long
REF_NOMINAL_S = 0.1

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_s():
    """Time a fixed numpy computation that gauges the machine's speed now.

    It uses no repository code, so no change to the program moves it.
    """
    import numpy as np
    a = np.linspace(0.0, 1.0, 65536)
    start = time.perf_counter()
    for _ in range(100):
        float((np.sin(a) * a + np.sqrt(a + 1.0)).sum())
    return time.perf_counter() - start


def run_operation(name, seed, k, trace, run_dir):
    """One CLI invocation; returns (op record, exit code, problems)."""
    text, params = workloads.config(name, seed, k)
    round_dir = os.path.join(run_dir, f"round-{k}")
    out_dir = os.path.join(round_dir, "out")
    os.makedirs(round_dir)
    cfg = os.path.join(round_dir, "run.ini")
    with open(cfg, "w") as fh:
        fh.write(text)
    record = os.path.join(round_dir, "record.json")
    cmd = [sys.executable, PROBE, record, str(trace), "--",
           workloads.COMMANDS[name], "--config", cfg, "--out", out_dir]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    ref_before = reference_s()
    with open(os.path.join(round_dir, "log.txt"), "w") as log:
        start = _monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=log,
                                stderr=subprocess.STDOUT, cwd=round_dir)
        status, usage = _wait(proc, start + OP_TIMEOUT_S)
    ref_s = (ref_before + reference_s()) / 2.0
    code = os.waitstatus_to_exitcode(status)
    # the CLI exits non-zero exactly when a check report fails or a solve
    # does not converge, so a failed operation is an incorrect one; its
    # output files, where written, are still checked
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        probs, facts = workloads.check_outputs(name, out_dir, params)
        problems += probs
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable output: {exc!r}")
        facts = {}
    if code != 0:
        return None, code, problems
    if not os.path.exists(record):
        return None, code, problems + ["no timing record"]
    with open(record) as fh:
        rec = json.load(fh)
    rec["setup_s"] = rec["loaded"] - start
    rec["wall_run_s"] = rec["done"] - rec["loaded"]
    rec["ref_s"] = ref_s
    # the host's speed drifts by up to 1.7x over minutes; scaling by a
    # reference timed just before and after cancels that common factor
    rec["run_s"] = rec["wall_run_s"] * REF_NOMINAL_S / ref_s
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    rec.update(facts)
    return rec, code, problems


def _wait(proc, deadline):
    """Reap proc with its own rusage; kill it past the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return status, usage
        if _monotonic() > deadline:
            proc.kill()
        time.sleep(0.005)


def cross_checks(name, records, trace):
    """Checks across the run's operations and against the trace."""
    problems = []
    values = [r["value"] for r in records if "value" in r]
    if values:
        # rounds differ only by a conformal factor, which p = n cancels,
        # and by a symmetry of the grid: one discrete problem, one value
        spread = (max(values) - min(values)) / abs(values[0])
        if not spread <= workloads.SOLVER_TOL:
            problems.append(f"value moved by {spread:.2e} across rounds")
    if trace and workloads.COMMANDS[name] == "capacity":
        for r in (r for r in records if "iterations" in r):
            # one gradient per iteration plus the final convergence test
            expect = r["iterations"] + (1 if r["converged"] else 0)
            got = r["layers"]["capacity.gradient_calls"]
            if got != expect:
                problems.append(f"traced {got} gradient calls, summary "
                                f"implies {expect}")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.COMMANDS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "finslercap", "cli.py")):
        print(f"error: no finslercap sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    records, problems = [], []
    attempted = failed = 0
    try:
        deadline = _monotonic() + args.seconds
        while attempted == 0 or _monotonic() < deadline:
            rec, code, probs = run_operation(args.workload, args.seed,
                                             attempted, args.trace, run_dir)
            attempted += 1
            problems += [f"operation {attempted - 1}: {p}" for p in probs]
            if rec is None:
                failed += 1
                continue
            records.append(rec)
        problems += cross_checks(args.workload, records, args.trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {}
    for m in SPEC["per_layer" if args.trace else "end_to_end"] if records else ():
        values = [r["layers"][m["name"]] if args.trace else r[m["name"]]
                  for r in records]
        metrics[m["name"]] = {"value": statistics.median(values),
                              "unit": m["unit"]}
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)
    for key, m in metrics.items():
        print(f"{key}: {m['value']:.6g} {m['unit']}")
    if records and not args.trace:
        for key in ("wall_run_s", "ref_s"):
            value = statistics.median(r[key] for r in records)
            print(f"{key}: {value:.6g} s (not a gated metric)")
    correct = bool(records) and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
