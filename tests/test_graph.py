import json
import tracemalloc

import numpy as np
import pytest

import surplus_consensus as sc
from surplus_consensus import cli

DEMO_ADJACENCY = np.array([
    [0, 1, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [1, 0, 0, 0, 1, 0],
    [0, 1, 0, 0, 0, 1],
    [1, 0, 1, 0, 0, 0],
])


def test_build_rejects_self_loop():
    with pytest.raises(sc.InvalidParameter):
        sc.build_graph(3, [(1, 1)])


def test_build_rejects_out_of_range():
    with pytest.raises(sc.InvalidParameter):
        sc.build_graph(2, [(1, 3)])
    with pytest.raises(sc.InvalidParameter):
        sc.build_graph(2, [(0, 1)])
    with pytest.raises(sc.InvalidParameter, match=r"^node count must be positive, got 0$"):
        sc.build_graph(0, [])


def test_duplicate_edges_collapse():
    g = sc.build_graph(2, [(1, 2), (1, 2), (2, 1)])
    assert len(g.edges) == 2


def test_adjacency_two_node(two_node):
    assert np.array_equal(sc.adjacency(two_node), [[0, 1], [1, 0]])


def test_adjacency_demo(demo6):
    assert np.array_equal(sc.adjacency(demo6), DEMO_ADJACENCY)


def test_adjacency_edgeless():
    g = sc.build_graph(3, [])
    assert np.array_equal(sc.adjacency(g), np.zeros((3, 3)))


def test_laplacians_two_node(two_node):
    lap = sc.laplacians(two_node)
    expected = [[1, -1], [-1, 1]]
    assert np.array_equal(lap.l_in, expected)
    assert np.array_equal(lap.l_out, expected)


def test_laplacians_demo(demo6):
    lap = sc.laplacians(demo6)
    assert np.array_equal(np.diag(lap.l_in), [3, 2, 3, 2, 2, 2])
    assert np.array_equal(np.diag(lap.l_out), [2, 3, 2, 2, 2, 3])
    assert np.array_equal(lap.l_in, np.diag([3, 2, 3, 2, 2, 2]) - DEMO_ADJACENCY)
    assert np.array_equal(lap.l_out, np.diag([2, 3, 2, 2, 2, 3]) - DEMO_ADJACENCY)


def test_laplacians_three_cycle(three_cycle):
    lap = sc.laplacians(three_cycle)
    assert np.array_equal(np.diag(lap.l_in), [1, 1, 1])
    assert np.array_equal(np.diag(lap.l_out), [1, 1, 1])
    assert np.array_equal(lap.l_in.sum(axis=1), [0, 0, 0])
    assert np.array_equal(lap.l_out.sum(axis=0), [0, 0, 0])


def test_strong_connectivity(demo6, three_cycle):
    assert sc.is_strongly_connected(demo6)
    assert sc.is_strongly_connected(three_cycle)
    assert not sc.is_strongly_connected(sc.build_graph(2, [(1, 2)]))
    # n edges are enough: a cycle through every node
    cycle = [(i, i % 5 + 1) for i in range(1, 6)]
    assert sc.is_strongly_connected(sc.build_graph(5, cycle))
    assert not sc.is_strongly_connected(sc.build_graph(5, cycle[1:]))


def test_node_count_typo_is_refused_without_per_node_memory(tmp_path, capsys):
    # a three-line file whose header says n = 1,000,000: fewer edges than nodes
    # fail before the 2n adjacency lists (about 150 MB at this n) exist
    path = tmp_path / "typo.edges"
    path.write_text("n 1000000\n1 2\n2 1\n")
    tracemalloc.start()
    try:
        code = cli.main(["analyze", "--graph", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err == "error: graph is not strongly connected\n"
    assert peak < 1_000_000


def test_node_count_over_the_bound_is_refused_before_dense_arrays(tmp_path, capsys):
    # a strongly connected cycle one node past the bound: n x n int64 would be 8 n^2 bytes
    n = sc.graph.MAX_NODES + 1
    path = tmp_path / "cycle.edges"
    path.write_text("n %d\n" % n + "".join("%d %d\n" % (i, i % n + 1) for i in range(1, n + 1)))
    message = "graph has %d nodes, more than MAX_NODES = %d" % (n, sc.graph.MAX_NODES)
    tracemalloc.start()
    try:
        codes = [cli.main(["analyze", "--graph", str(path)] + eps) for eps in ([], ["--eps", "1"])]
        g = sc.load_edge_list(str(path))
        with pytest.raises(sc.GraphFormatError) as info:
            sc.laplacians(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert codes == [2, 2]
    assert capsys.readouterr().err == ("error: %s\n" % message) * 2
    assert str(info.value) == message
    assert peak < 8 * n * n // 10


def test_balanced(two_node, demo6, three_cycle):
    assert sc.is_balanced(two_node)
    assert not sc.is_balanced(demo6)  # node 1: in-degree 3, out-degree 2
    assert sc.is_balanced(three_cycle)


def test_degree_profile_demo(demo6):
    prof = sc.degree_profile(demo6)
    assert prof.in_degrees == (3, 2, 3, 2, 2, 2)
    assert prof.out_degrees == (2, 3, 2, 2, 2, 3)
    assert prof.delta_bar == 3
    assert sum(prof.in_degrees) == sum(prof.out_degrees) == len(demo6.edges)


def test_laplacian_invariants_random():
    for seed in range(30):
        n = 3 + seed % 6
        g = sc.random_strongly_connected(n, extra_edges=seed % 7, seed=100 + seed)
        lap = sc.laplacians(g)
        prof = sc.degree_profile(g)
        # exact integer row/column sums
        assert np.array_equal(lap.l_in.sum(axis=1), np.zeros(n, dtype=np.int64))
        assert np.array_equal(lap.l_out.sum(axis=0), np.zeros(n, dtype=np.int64))
        off_in = lap.l_in[~np.eye(n, dtype=bool)]
        assert set(np.unique(off_in)) <= {0, -1}
        # simple null eigenvalue, remainder bounded away from zero
        for mat in (lap.l_in, lap.l_out):
            vals = np.linalg.eigvals(mat.astype(float))
            assert np.sum(np.abs(vals) <= 1e-9) == 1
            assert np.all(vals[np.abs(vals) > 1e-9].real > 1e-9)
            # Gershgorin bound
            assert np.all(np.abs(vals) <= 2 * prof.delta_bar + 1e-9)


def test_balanced_implies_equal_diagonals():
    g = sc.build_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (3, 1)])
    if sc.is_balanced(g):
        lap = sc.laplacians(g)
        assert np.array_equal(np.diag(lap.l_in), np.diag(lap.l_out))


def test_edge_list_roundtrip(tmp_path, demo6):
    path = tmp_path / "g.edges"
    sc.save_edge_list(demo6, str(path))
    g2 = sc.load_edge_list(str(path))
    assert g2 == demo6


def test_edge_list_bad_header(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("6\n1 2\n")
    with pytest.raises(sc.GraphFormatError, match="header"):
        sc.load_edge_list(str(path))


def test_edge_list_bad_field(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("n 3\n1 x\n")
    with pytest.raises(sc.GraphFormatError, match=":2"):
        sc.load_edge_list(str(path))


def test_edge_list_out_of_range(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("n 3\n1 7\n")
    with pytest.raises(sc.GraphFormatError):
        sc.load_edge_list(str(path))


@pytest.mark.parametrize("name, content, message", [
    ("g.edges", "n x\n1 2\n", ":1: node count 'x' is not an integer"),
    ("g.edges", "# no header\n\n", ": missing 'n <count>' header"),
    ("g.edges", "n 0\n", ": node count must be positive, got 0"),
    ("g.json", "[]", ": expected object with fields 'n' and 'adjacency'"),
    ("g.json", '{"n": 2, "adjacency": [[0, 1]]}', ": 'adjacency' must be a list of 2 rows"),
    ("g.json", '{"n": 2, "adjacency": [[0, 1], [1]]}', ": adjacency row 2 must have 2 entries"),
    ("g.json", '{"n": 2, "adjacency": [[1, 1], [1, 0]]}', ": self-loop (1, 1) rejected"),
], ids=["header-not-integer", "no-header", "header-zero", "json-not-object",
        "json-row-count", "json-short-row", "json-diagonal"])
def test_refused_file_names_itself_and_exits_2(tmp_path, capsys, name, content, message):
    path = tmp_path / name
    path.write_text(content)
    read = sc.load_adjacency_json if name.endswith(".json") else sc.load_edge_list
    with pytest.raises(sc.GraphFormatError) as info:
        read(str(path))
    assert str(info.value) == "%s%s" % (path, message)
    assert cli.main(["analyze", "--graph", str(path)]) == 2
    assert capsys.readouterr().err == "error: %s%s\n" % (path, message)


def test_adjacency_json(tmp_path, two_node):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 2, "adjacency": [[0, 1], [1, 0]]}))
    assert sc.load_adjacency_json(str(path)) == two_node


@pytest.mark.parametrize("doc, message", [
    ({"n": True, "adjacency": [[0]]}, "field 'n' must be a positive integer"),
    ({"n": 2.0, "adjacency": [[0, 1], [1, 0]]}, "field 'n' must be a positive integer"),
    ({"n": 2, "adjacency": [[False, True], [1.0, 0]]}, "adjacency[1][1] = False is not in {0, 1}"),
    ({"n": 2, "adjacency": [[0, 1], [1.0, 0]]}, "adjacency[2][1] = 1.0 is not in {0, 1}"),
    ({"n": 2, "adjacency": [[0, True], [1, 0]]}, "adjacency[1][2] = True is not in {0, 1}"),
], ids=["n-true", "n-float", "entries-bool", "entry-float", "entry-true"])
def test_adjacency_json_takes_only_integers(tmp_path, doc, message):
    # a JSON boolean or float equals 0 or 1 in Python, but is not an integer
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(sc.GraphFormatError) as info:
        sc.load_adjacency_json(str(path))
    assert str(info.value) == "%s: %s" % (path, message)
    assert cli.main(["analyze", "--graph", str(path)]) == 2


def test_adjacency_json_malformed(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 2, "adjacency": [[0, 2], [1, 0]]}))
    with pytest.raises(sc.GraphFormatError, match="adjacency"):
        sc.load_adjacency_json(str(path))
    path.write_text("{not json")
    with pytest.raises(sc.GraphFormatError, match="JSON"):
        sc.load_adjacency_json(str(path))
