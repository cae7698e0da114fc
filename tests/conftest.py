import numpy as np
import pytest

import surplus_consensus as sc


@pytest.fixture(scope="session")
def demo6():
    return sc.load_edge_list(sc.demo_graph_path())


@pytest.fixture(scope="session")
def two_node():
    return sc.build_graph(2, [(1, 2), (2, 1)])


@pytest.fixture(scope="session")
def three_cycle():
    # 1 listens to 2, 2 listens to 3, 3 listens to 1
    return sc.build_graph(3, [(1, 2), (2, 3), (3, 1)])


@pytest.fixture(scope="session")
def random_graphs():
    """20 seeded strongly connected graphs with n in 3..6."""
    graphs = []
    for seed in range(20):
        n = 3 + seed % 4
        g = sc.random_strongly_connected(n, extra_edges=2 + seed % 3, seed=seed)
        assert sc.is_strongly_connected(g)
        graphs.append(g)
    return graphs


def max_nonnull_real(spec):
    return float(np.max(spec.nonnull.real))
