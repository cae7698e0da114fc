"""Every value the library refuses as outside its domain raises InvalidParameter,
whichever entry point refuses it; a graph file's refused edges stay a
GraphFormatError that names the file."""

import json
import re

import numpy as np
import pytest

import surplus_consensus as sc
from surplus_consensus import sim

X0 = np.ones(3)


def demo_spectrum():
    return sc.spectrum(sc.build_system(sc.load_edge_list(sc.demo_graph_path()), 1.1))


REFUSALS = {
    "tau-zero": (lambda: sc.SimConfig(tau=0.0, x0=X0).resolved(),
                 "tau must be positive, got 0.0"),
    "tau-negative": (lambda: sc.SimConfig(tau=-1.0, x0=X0).resolved(),
                     "tau must be positive, got -1.0"),
    "dt-misaligned": (lambda: sc.SimConfig(tau=0.18, x0=X0, dt=0.007).resolved(),
                      "tau/dt = 25.71428571428571 must be an integer for history alignment"),
    "z0-length": (lambda: sc.SimConfig(tau=0.1, x0=X0, z0=np.ones(2)).resolved(),
                  "x0 and z0 must have the same length"),
    "system-shape": (lambda: sc.simulate(np.zeros((4, 4)), sc.SimConfig(tau=0.1, x0=X0)),
                     "system shape (4, 4) does not match x0 length 3, want (6, 6)"),
    "seed": (lambda: sim.seeded_x0(-1, 6), "seed must be in [0, 4294967295], got -1"),
    "self-loop": (lambda: sc.build_graph(3, [(2, 2)]), "self-loop (2, 2) rejected"),
    "endpoint": (lambda: sc.build_graph(3, [(2, 4)]), "edge (2, 4) out of range 1..3"),
    "no-nodes": (lambda: sc.build_graph(0, []), "node count must be positive, got 0"),
    "eps-negative": (lambda: sc.build_system(sc.build_graph(2, [(1, 2), (2, 1)]), -0.5),
                     "epsilon must be non-negative, got -0.5"),
    "root-tau-zero": (lambda: sc.rightmost_root(demo_spectrum(), 0.0),
                      "tau must be positive, got 0.0"),
    "grid-descends": (lambda: sc.find_eps_bar(sc.build_graph(2, [(1, 2), (2, 1)]), [0.5, 0.2]),
                      "eps_grid must ascend"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_every_refused_value_is_an_invalid_parameter(case):
    call, text = REFUSALS[case]
    with pytest.raises(sc.InvalidParameter, match="^%s$" % re.escape(text)):
        call()


@pytest.mark.parametrize("name, content, text", [
    ("self-loop.edges", "n 3\n1 2\n2 2\n", "self-loop (2, 2) rejected"),
    ("endpoint.edges", "n 3\n1 2\n2 4\n", "edge (2, 4) out of range 1..3"),
    ("no-nodes.edges", "n 0\n", "node count must be positive, got 0"),
    ("self-loop.json", json.dumps({"n": 2, "adjacency": [[1, 1], [1, 0]]}),
     "self-loop (1, 1) rejected"),
])
def test_a_refused_edge_in_a_file_is_a_graph_format_error(name, content, text, tmp_path):
    path = tmp_path / name
    path.write_text(content)
    load = sc.load_adjacency_json if name.endswith(".json") else sc.load_edge_list
    with pytest.raises(sc.GraphFormatError, match="^%s$" % re.escape("%s: %s" % (path, text))):
        load(str(path))
