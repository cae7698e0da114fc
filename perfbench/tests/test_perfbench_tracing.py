"""Self-tests of the benchmark's tracing: self-time arithmetic and exact counts.

Run with `PYTHONPATH=src python -m pytest perfbench/tests`.
"""

import sys
from pathlib import Path

import surplus_consensus as sc
from surplus_consensus import cli, delay

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tracing import Tracer, layer_metrics, self_times  # noqa: E402


def _span(id_, parent, start, end, agg=None):
    return {"id": id_, "name": "s%d" % id_, "parent": parent, "start": start,
            "end": end, "agg": agg or {}, "attrs": {}}


def test_self_time_nested_spans():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0, agg={"delay.lambert_w": [7, 1.5]}),
        _span(2, 0, 5.0, 9.0),
        _span(3, 2, 6.0, 7.0),
        _span(4, 2, 6.5, 8.0),  # overlaps its sibling: covered once
    ]
    assert self_times(spans) == {0: 3.0, 1: 1.5, 2: 2.0, 3: 1.0, 4: 1.5}


def _graph_file(tmp_path, n):
    path = tmp_path / "g.edges"
    sc.save_edge_list(sc.random_strongly_connected(n, n, seed=3), str(path))
    return str(path)


def _traced(argv):
    tracer = Tracer()
    original = delay.lambert_w
    with tracer.install():
        assert cli.main(argv) == 0
    assert delay.lambert_w is original
    return layer_metrics(tracer.spans)


def test_lambert_w_calls_on_two_d_sweep(tmp_path, capsys):
    n = 5
    metrics = _traced(["sweep", "--mode", "two_d", "--graph", _graph_file(tmp_path, n),
                       "--eps-range", "0.5:0.5:1.0", "--tau-range", "0.1:0.1:0.3",
                       "--out", str(tmp_path / "out")])
    cells = 2 * 3
    assert metrics["delay.rightmost_root.calls"] == cells
    assert metrics["delay.lambert_w.calls"] == cells * 5 * (2 * n - 1)
    assert metrics["delay.lambert_w.per_root"] == 5 * (2 * n - 1)
    assert metrics["system.spectrum.calls"] == 2


def test_integrator_steps_match_t_final(tmp_path, capsys):
    tau, t_final = 0.1, 2.0
    metrics = _traced(["simulate", "--graph", _graph_file(tmp_path, 4), "--eps", "1.0",
                       "--tau", str(tau), "--t-final", str(t_final)])
    steps = round(t_final / (tau / 50.0))
    assert metrics["integrator.steps"] == steps
    assert metrics["integrator.flops"] == 4 * 8 * 8 * steps
