import os

import numpy as np
import pytest

import surplus_consensus as sc
from surplus_consensus.delay import chebyshev_nodes_diff

# the full generator's null eigenvalue carries ~100 times the rounding of M(eps)'s
REFERENCE_NULL_TOLERANCE = 1e-7


@pytest.fixture(autouse=True)
def no_leaked_child_process():
    """Fail a test that leaves a child process running or unreaped: every
    simulate with a CSV forks a helper, which must be reaped before it returns."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail("the test left a child process %s" % ("running" if pid == 0 else
                                                       "unreaped, pid %d" % pid))


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


def reference_oracle(m, tau, discretization_order=30):
    """Rightmost non-null eigenvalue of the Chebyshev collocation of the whole
    2n-dimensional delay system's generator on [-tau, 0], a dense eigensolve of
    size 2n (order + 1): the reference that sc.rightmost_root_oracle's per-eigenvalue
    scalar generators and the Lambert W route are checked against."""
    dim = m.shape[0]
    order = int(discretization_order)
    _, d = chebyshev_nodes_diff(order, tau)
    gen = np.zeros((dim * (order + 1), dim * (order + 1)))
    # collocation rows: d/dtheta along the segment
    gen[dim:, :] = np.kron(d[1:], np.eye(dim))
    # boundary row at theta = 0: dy/dt = M y(-tau); the delay lands on the last node
    gen[:dim, dim * order:] = m
    vals = sc.Spectrum(np.linalg.eigvals(gen)).eigenvalues  # sorted, rightmost first
    return complex(vals[np.abs(vals) > REFERENCE_NULL_TOLERANCE][0])
