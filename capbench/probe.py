"""Run one finslercap CLI command in this process and record its timings.

Usage: python3 probe.py RECORD.json TRACE -- SUBCOMMAND CLI-ARGS...

``finslercap`` must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH).  The record holds CLOCK_MONOTONIC readings taken when the
config load returns and when ``cli.main`` returns, and with TRACE = 1 the
per-layer metrics of the invocation.  The exit code of this
process is the CLI's.
"""

import json
import sys
import time


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: probe.py RECORD TRACE -- SUBCOMMAND ARGS...")
    argv = sys.argv[4:]
    from finslercap import cli

    tracer = None
    if trace:
        import layers
        tracer = layers.Tracer()
        layers.install(tracer)

    marks = {}
    load = cli.load_config

    def load_config(*args, **kwargs):
        out = load(*args, **kwargs)
        marks["loaded"] = _monotonic()
        marks["loaded_pc"] = time.perf_counter()
        return out

    cli.load_config = load_config
    code = cli.main(argv)
    marks["done"] = _monotonic()
    marks["done_pc"] = time.perf_counter()
    record = {"loaded": marks.get("loaded"), "done": marks["done"]}
    if tracer is not None and "loaded" in marks:
        record["layers"] = tracer.layer_metrics(marks["loaded_pc"],
                                                marks["done_pc"])
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
