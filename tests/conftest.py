import math
import os
from fractions import Fraction

import numpy as np
import pytest

import surplus_consensus as sc
from surplus_consensus.delay import chebyshev_nodes_diff

# the full generator's null eigenvalue carries ~100 times the rounding of M(eps)'s
REFERENCE_NULL_CUTOFF = 1e-7


@pytest.fixture(autouse=True)
def no_leaked_child_process():
    """Fail a test that leaves a child process running or unreaped."""
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
    return complex(vals[np.abs(vals) > REFERENCE_NULL_CUTOFF][0])


def exact_system(g, eps):
    """M(eps) with Fraction entries: M(0) is an integer matrix and
    M(eps) = M(0) + eps [[0, I], [0, -I]], so for a rational eps it is exact."""
    m = [[Fraction(v) for v in row] for row in sc.build_system(g, 0.0)]
    for i in range(g.n):
        m[i][g.n + i] += eps
        m[g.n + i][g.n + i] -= eps
    return m


def exact_delayed_state(m, y0, tau, t):
    """y(t) of y'(t) = m y(t - tau) with the constant history y0, in exact
    arithmetic: the delayed matrix exponential (Khusainov & Shuklin, 2003),
    y(t) = sum_{k=0}^{floor(t/tau)+1} m^k y0 (t - (k - 1) tau)^k / k!, where no
    t - (k - 1) tau is negative. m is a list of rows and y0 a list, of Fractions;
    tau and t are Fractions. In float64 the terms cancel: on demo6 at t = 51/10
    the largest is 4.8e6."""
    y, term = [Fraction(0)] * len(y0), list(y0)  # term = m^k y0
    for k in range(math.floor(t / tau) + 2):
        weight = (t - (k - 1) * tau) ** k / math.factorial(k)
        y = [a + weight * b for a, b in zip(y, term)]
        term = [sum(r * b for r, b in zip(row, term)) for row in m]
    return y
