"""Span tracing of the surplus-consensus layers from outside the package.

The CLI and the library call one another through module attributes
(`delay_mod.rightmost_root`, `_integrator.integrate_delayed`, ...), so
replacing the public functions of each module with timing wrappers traces
every call between layers without changing the package.

Run as a script, it traces one CLI invocation in this process and writes the
spans as JSON:

    python3 perfbench/tracing.py SPANS.json -- simulate --graph g.edges ...
"""

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

LAYERS = ("graph", "system", "delay", "_integrator", "sim", "cli")

# Called about 10^5 times per sweep: counted and timed on the enclosing span
# instead of getting spans of their own.
AGGREGATED = frozenset({"delay.lambert_w"})


def _integrated(flops_per_entry):
    def annotate(args, kwargs, result):
        arrays, last = result[:-1], int(result[-1])
        dim = arrays[0].shape[1]
        return {"steps": last, "flops": flops_per_entry * dim * dim * last,
                "bytes": sum(a.nbytes for a in arrays)}
    return annotate


def _file_size(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"bytes": os.path.getsize(path)}


# Work counts computed from arguments and results, outside the span's timing.
# Flops: two (2n x 2n) mat-vecs per delayed step, four per RK4 step.
ANNOTATORS = {
    "_integrator.integrate_delayed": _integrated(4),
    "_integrator.integrate_undelayed": _integrated(8),
    "sim.write_trajectory_csv": _file_size,
}


class Tracer:
    """Records name, start, end and parent of every wrapped call, in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._thread = threading.get_ident()

    def _open(self, name):
        if threading.get_ident() != self._thread:
            raise RuntimeError("the tracer records spans of one thread only")
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "end": None, "agg": {}, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def record(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def spanned(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                span["attrs"] = annotate(args, kwargs, result)
            return result
        return wrapper

    def aggregated(self, name, fn):
        clock, stack = time.perf_counter, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = stack[-1]["agg"].setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += clock() - t0
        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Wrap the public functions of each layer; restore them on exit."""
        originals = []
        try:
            for layer in LAYERS:
                module = importlib.import_module("surplus_consensus." + layer)
                for attr, fn in vars(module).copy().items():
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != module.__name__):
                        continue
                    name = "%s.%s" % (layer, attr)
                    if name in AGGREGATED:
                        wrapped = self.aggregated(name, fn)
                    else:
                        wrapped = self.spanned(name, fn, ANNOTATORS.get(name))
                    originals.append((module, attr, fn))
                    setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def self_times(spans):
    """Span duration minus the part of it that child spans and aggregated
    calls cover, by span id."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children.get(span["id"], []), key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        aggregated = sum(seconds for _, seconds in span["agg"].values())
        result[span["id"]] = span["end"] - span["start"] - covered - aggregated
    return result


def layer_metrics(spans):
    """Per-layer metrics of one traced invocation."""
    selfs = self_times(spans)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(s["end"] - s["start"] for s in named(*names))

    def self_sum(pred):
        return sum(selfs[s["id"]] for s in spans if pred(s["name"]))

    def attr(key, *names):
        return sum(s["attrs"].get(key, 0) for s in named(*names))

    def agg(name, field):
        return sum(s["agg"][name][field] for s in spans if name in s["agg"])

    kernels = ("_integrator.integrate_delayed", "_integrator.integrate_undelayed")
    integrator_s = total(*kernels)
    steps = attr("steps", *kernels)
    lw_calls = agg("delay.lambert_w", 0)
    rr_calls = len(named("delay.rightmost_root"))
    return {
        "integrator.s": integrator_s,
        "integrator.steps": steps,
        "integrator.steps_per_s": steps / integrator_s if integrator_s else 0.0,
        "integrator.flops": attr("flops", *kernels),
        "integrator.bytes": attr("bytes", *kernels),
        "sim.simulate.self_s": self_sum(lambda n: n == "sim.simulate"),
        "sim.csv_s": total("sim.write_trajectory_csv"),
        "sim.csv_bytes": attr("bytes", "sim.write_trajectory_csv"),
        "sim.metadata_s": total("sim.write_metadata"),
        "delay.lambert_w.calls": lw_calls,
        "delay.lambert_w.s": agg("delay.lambert_w", 1),
        "delay.lambert_w.per_root": lw_calls / rr_calls if rr_calls else 0.0,
        "delay.rightmost_root.calls": rr_calls,
        "delay.rightmost_root.self_s": self_sum(lambda n: n == "delay.rightmost_root"),
        "delay.stability_map.self_s": self_sum(lambda n: n == "delay.stability_map"),
        "delay.oracle.calls": len(named("delay.rightmost_root_oracle")),
        "delay.oracle.s": total("delay.rightmost_root_oracle"),
        "delay.bisect.s": total("delay.bisect_tau_crossing"),
        "system.spectrum.calls": len(named("system.spectrum")),
        "system.spectrum.s": total("system.spectrum"),
        "graph.self_s": self_sum(lambda n: n.startswith("graph.")),
        "cli.import_s": total("cli.import"),
        "cli.self_s": self_sum(lambda n: n.startswith("cli.") and n != "cli.import"),
    }


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- CLI_ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    with tracer.record("cli.import"):
        from surplus_consensus import cli
    with tracer.install():
        code = cli.main(argv[2:])
    with open(argv[0], "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
