"""Per-layer spans and counts, recorded around finslercap's public functions.

Nothing inside the package is edited: :func:`install` replaces each public
function at the module attribute it is called through (``cli.minimize``,
``conformal.minimize``, ``capacity.node_tensors`` ...) with a wrapper that
records a span, plus the counts the layer's metrics need.  Spans nest
through a stack, so a layer's self time is its duration minus the time its
child spans cover.  Spans stay in memory; :meth:`Tracer.layer_metrics`
reduces them to the per-layer metrics of one CLI invocation.
"""

import dataclasses
import hashlib
import time

import numpy as np


COUNTS = ("tensor_points", "node_tensors_calls", "node_tensors_hits",
          "node_tensors_nodes", "node_tensors_bytes", "solves", "iterations",
          "accepted_steps", "value_calls", "gradient_calls",
          "rasterize_calls", "candidates", "bytes_written")


class Tracer:
    """Span recorder for one CLI invocation."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self._stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._solve_masks = []   # rasterized plate digests of open solves
        self.solved_plates = []  # one tuple of plate digests per solve

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span; ``after(result, args)`` adds counts."""

        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    def count(self, key, n=1):
        self.counts[key] += n

    # -- reduction -------------------------------------------------------------

    def _durations(self):
        total, self_time = {}, {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = (self_time.get(name, 0.0)
                               + (end - start) - child[i])
        return total, self_time

    def layer_metrics(self, loaded, done):
        """Per-layer metrics; ``loaded``/``done`` bound the run phase.

        Both are ``time.perf_counter`` readings: the return of the config
        load and the return of ``cli.main``.
        """
        total, self_time = self._durations()
        c = self.counts
        t = lambda name: total.get(name, 0.0)
        ratio = lambda a, b: a / b if b else 0.0
        # cli self time: the run phase minus the top-level layer calls in it
        mains = [i for i, s in enumerate(self.spans) if s[0] == "cli.main"]
        top = sum(e - s for _, s, e, parent in self.spans
                  if parent in mains and s >= loaded)
        nt_calls = c["node_tensors_calls"]
        return {
            "config.load_s": t("config.load"),
            "metrics.tensor_point_s": t("metrics.tensor_point"),
            "metrics.tensor_points": c["tensor_points"],
            "bundle.node_tensors_s": t("bundle.node_tensors"),
            "bundle.node_tensors_nodes": c["node_tensors_nodes"],
            "bundle.node_tensors_hit_ratio":
                ratio(c["node_tensors_hits"], nt_calls),
            "bundle.node_tensors_bytes": c["node_tensors_bytes"],
            "capacity.solves": c["solves"],
            "capacity.iterations": c["iterations"],
            "capacity.functional_setup_s": t("capacity.functional_setup"),
            "capacity.value_calls": c["value_calls"],
            "capacity.gradient_calls": c["gradient_calls"],
            "capacity.value_s": t("capacity.value"),
            "capacity.gradient_s": t("capacity.gradient"),
            "capacity.s_per_iteration":
                ratio(t("capacity.minimize"), c["iterations"]),
            "capacity.accepted_per_value_call":
                ratio(c["accepted_steps"], c["value_calls"]),
            "capacity.minimize_self_s": self_time.get("capacity.minimize", 0.0),
            "shapes.rasterize_calls": c["rasterize_calls"],
            "shapes.rasterize_s": t("shapes.rasterize"),
            "conformal.candidates": c["candidates"],
            "conformal.distinct_candidates": len(set(self.solved_plates)),
            "conformal.orchestration_self_s":
                self_time.get("conformal.invariant", 0.0),
            "conformal.pointwise_checks_s": t("conformal.pointwise_check"),
            "conformal.energy_invariance_s": t("conformal.energy_invariance"),
            "output.write_s": t("output.write"),
            "output.bytes_written": c["bytes_written"],
            "cli.self_s": (done - loaded) - top,
        }


def _patch(tracer, owner, attr, name, after=None):
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))


def install(tracer):
    """Wrap finslercap's public functions; call before ``cli.main``."""
    from finslercap import bundle, capacity, cli, conformal, output, shapes

    _patch(tracer, cli, "load_config", "config.load")

    def points(tp, args):
        tracer.count("tensor_points", int(np.size(tp.F)))

    for mod in (bundle, conformal, cli):
        _patch(tracer, mod, "tensor_point", "metrics.tensor_point", points)

    cached = bundle.node_tensors
    traced_nt = tracer.wrap("bundle.node_tensors", cached)

    def node_tensors(m, grid):
        hits = cached.cache_info().hits
        nd = traced_nt(m, grid)
        tracer.count("node_tensors_calls")
        if cached.cache_info().hits > hits:
            tracer.count("node_tensors_hits")
        else:
            tracer.count("node_tensors_nodes", grid.nx * grid.ny * grid.ntheta)
            tracer.count("node_tensors_bytes", sum(
                getattr(nd, f.name).nbytes for f in dataclasses.fields(nd)))
        return nd

    bundle.node_tensors = node_tensors
    capacity.node_tensors = node_tensors

    for mod in (cli, conformal, capacity):
        traced_min = tracer.wrap("capacity.minimize", mod.minimize)

        def minimize(*args, _traced=traced_min, **kwargs):
            tracer._solve_masks.append([])
            try:
                res = _traced(*args, **kwargs)
            finally:
                tracer.solved_plates.append(tuple(tracer._solve_masks.pop()))
            tracer.count("solves")
            tracer.count("iterations", res.iterations)
            tracer.count("accepted_steps", max(len(res.energy_history) - 1, 0))
            return res

        mod.minimize = minimize

    ef = capacity.EnergyFunctional
    _patch(tracer, ef, "__init__", "capacity.functional_setup")
    _patch(tracer, ef, "value", "capacity.value",
           lambda out, args: tracer.count("value_calls"))
    _patch(tracer, ef, "gradient", "capacity.gradient",
           lambda out, args: tracer.count("gradient_calls"))

    def plates(mask, args):
        tracer.count("rasterize_calls")
        if tracer._solve_masks:
            digest = hashlib.blake2b(np.packbits(mask).tobytes() +
                                     repr(mask.shape).encode(),
                                     digest_size=16).digest()
            tracer._solve_masks[-1].append(digest)

    _patch(tracer, shapes.Shape, "rasterize", "shapes.rasterize", plates)

    def candidates(res, args):
        tracer.count("candidates", len(res.candidate_values))

    for key in list(cli._INVARIANTS):
        cli._INVARIANTS[key] = tracer.wrap(
            "conformal.invariant", cli._INVARIANTS[key], candidates)
    for attr in ("conformality_witness", "check_pullback_volume",
                 "check_pullback_energy_density"):
        _patch(tracer, cli, attr, "conformal.pointwise_check")
    _patch(tracer, cli, "check_energy_invariance",
           "conformal.energy_invariance")

    for attr in ("summary_csv", "base_field_csv", "svg_heatmap", "write_csv",
                 "reports_csv"):
        _patch(tracer, cli, attr, "output.write")
    _patch(tracer, output, "atomic_write", "output.atomic_write",
           lambda out, args: tracer.count("bytes_written",
                                          len(args[1].encode())))
    cli.main = tracer.wrap("cli.main", cli.main)
