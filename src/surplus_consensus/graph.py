"""Directed-graph model: adjacency, degrees, Laplacians, connectivity.

Edge convention: (i, j) means node i receives information from node j.
All node indices are 1-based at the API and file-format level.
"""

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import GraphFormatError, InvalidEdge, NotStronglyConnected, SelfLoopRejected


@dataclass(frozen=True)
class DirectedGraph:
    """Unweighted digraph on nodes 1..n with no self-loops."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise InvalidEdge("node count must be positive, got %r" % (self.n,))
        for (i, j) in self.edges:
            if i == j:
                raise SelfLoopRejected("self-loop (%d, %d) rejected" % (i, j))
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise InvalidEdge(
                    "edge (%r, %r) out of range 1..%d" % (i, j, self.n)
                )


@dataclass(frozen=True)
class DegreeProfile:
    in_degrees: tuple
    out_degrees: tuple
    delta_bar: int


# == is identity: the generated == compares ndarray fields and raises
@dataclass(frozen=True, eq=False)
class LaplacianPair:
    """l_in = D_in - A (zero row sums), l_out = D_out - A (zero column sums)."""

    l_in: np.ndarray
    l_out: np.ndarray


def build_graph(n, edges):
    """Validate and build a graph; duplicate edges collapse to one."""
    return DirectedGraph(n=int(n), edges=frozenset((int(i), int(j)) for i, j in edges))


def adjacency(g):
    """A[i][j] = 1 iff (i+1, j+1) is an edge (0-based array, 1-based nodes)."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for (i, j) in g.edges:
        a[i - 1, j - 1] = 1
    return a


def degree_profile(g):
    a = adjacency(g)
    din = a.sum(axis=1)
    dout = a.sum(axis=0)
    return DegreeProfile(
        in_degrees=tuple(int(v) for v in din),
        out_degrees=tuple(int(v) for v in dout),
        delta_bar=int(max(din.max(), dout.max())) if g.edges else 0,
    )


def laplacians(g):
    a = adjacency(g)
    l_in = np.diag(a.sum(axis=1)) - a
    l_out = np.diag(a.sum(axis=0)) - a
    return LaplacianPair(l_in=l_in, l_out=l_out)


def is_strongly_connected(g):
    """True iff a directed path joins every ordered node pair (two BFS passes)."""
    if g.n == 1:
        return True
    # every node of a strongly connected digraph on n >= 2 nodes has an
    # in-edge: a header's typo in n fails here, before 2n adjacency lists exist
    if len(g.edges) < g.n:
        return False
    fwd = [[] for _ in range(g.n)]
    bwd = [[] for _ in range(g.n)]
    for (i, j) in g.edges:
        fwd[i - 1].append(j - 1)
        bwd[j - 1].append(i - 1)

    def reaches_all(adj):
        seen = [False] * g.n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    queue.append(v)
        return count == g.n

    return reaches_all(fwd) and reaches_all(bwd)


def require_strongly_connected(g):
    """Raise NotStronglyConnected unless g is strongly connected."""
    if not is_strongly_connected(g):
        raise NotStronglyConnected("graph is not strongly connected")


def is_balanced(g):
    prof = degree_profile(g)
    return prof.in_degrees == prof.out_degrees


def load_edge_list(path):
    """Read the text edge-list format: header 'n <count>', then 'i j' lines.

    Lines starting with '#' and blank lines are ignored.
    """
    n = None
    edges = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if n is None:
                if len(fields) != 2 or fields[0] != "n":
                    raise GraphFormatError(
                        "%s:%d: expected header 'n <count>', got %r" % (path, lineno, line)
                    )
                try:
                    n = int(fields[1])
                except ValueError:
                    raise GraphFormatError(
                        "%s:%d: node count %r is not an integer" % (path, lineno, fields[1])
                    )
                continue
            if len(fields) != 2:
                raise GraphFormatError(
                    "%s:%d: expected 'i j', got %r" % (path, lineno, line)
                )
            try:
                i, j = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphFormatError(
                    "%s:%d: non-integer edge field in %r" % (path, lineno, line)
                )
            edges.append((i, j))
    if n is None:
        raise GraphFormatError("%s: missing 'n <count>' header" % path)
    try:
        return build_graph(n, edges)
    except (InvalidEdge, SelfLoopRejected) as exc:
        raise GraphFormatError("%s: %s" % (path, exc))


def load_adjacency_json(path):
    """Read the JSON adjacency format: {"n": ..., "adjacency": [[0/1, ...], ...]}."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError("%s: invalid JSON: %s" % (path, exc))
    if not isinstance(doc, dict) or "n" not in doc or "adjacency" not in doc:
        raise GraphFormatError("%s: expected object with fields 'n' and 'adjacency'" % path)
    n = doc["n"]
    rows = doc["adjacency"]
    # bool is an int subclass, so JSON true and false would pass isinstance
    if type(n) is not int or n < 1:
        raise GraphFormatError("%s: field 'n' must be a positive integer" % path)
    if not isinstance(rows, list) or len(rows) != n:
        raise GraphFormatError("%s: 'adjacency' must be a list of %d rows" % (path, n))
    edges = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise GraphFormatError("%s: adjacency row %d must have %d entries" % (path, r + 1, n))
        for c, v in enumerate(row):
            if type(v) is not int or v not in (0, 1):
                raise GraphFormatError(
                    "%s: adjacency[%d][%d] = %r is not in {0, 1}" % (path, r + 1, c + 1, v)
                )
            if v == 1:
                edges.append((r + 1, c + 1))
    try:
        return build_graph(n, edges)
    except (InvalidEdge, SelfLoopRejected) as exc:
        raise GraphFormatError("%s: %s" % (path, exc))


def save_edge_list(g, path):
    with open(path, "w") as fh:
        fh.write("# directed edge list: (i, j) means node i receives information from node j\n")
        fh.write("n %d\n" % g.n)
        for (i, j) in sorted(g.edges):
            fh.write("%d %d\n" % (i, j))


def random_strongly_connected(n, extra_edges, seed):
    """Seeded test helper: a random Hamiltonian cycle plus uniform extra edges."""
    rng = np.random.RandomState(seed)
    perm = list(rng.permutation(n) + 1)
    edges = set()
    for k in range(n):
        edges.add((perm[k], perm[(k + 1) % n]))
    candidates = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                  if i != j and (i, j) not in edges]
    take = min(extra_edges, len(candidates))
    for idx in rng.choice(len(candidates), size=take, replace=False):
        edges.add(candidates[idx])
    return build_graph(n, edges)
