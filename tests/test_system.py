import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import surplus_consensus as sc
from surplus_consensus import cli, system

from conftest import (balanced_eps_bar, balanced_roots, exact_eps_bar, exact_null_vector,
                      max_nonnull_real, scan_eps_bar)


def test_block_structure(demo6):
    lap = sc.laplacians(demo6)
    sys = sc.build_system(demo6, 1.3)
    n = demo6.n
    assert np.array_equal(sys[:n, :n], -lap.l_in)
    assert np.array_equal(sys[:n, n:], 1.3 * np.eye(n))
    assert np.array_equal(sys[n:, :n], lap.l_in)
    assert np.allclose(sys[n:, n:], -lap.l_out - 1.3 * np.eye(n))


def test_negative_epsilon_rejected(two_node):
    with pytest.raises(sc.InvalidParameter):
        sc.build_system(two_node, -0.1)


def test_conservation_row(demo6):
    ones = np.ones(2 * demo6.n)
    for eps in [0.0, 0.3, 1.3, 2.7]:
        sys = sc.build_system(demo6, eps)
        assert np.max(np.abs(ones @ sys)) <= 1e-12


def test_eps_derivative_structure(demo6):
    n = demo6.n
    m0 = sc.build_system(demo6, 0.0)
    m1 = sc.build_system(demo6, 1.0)
    mprime = np.block([[np.zeros((n, n)), np.eye(n)],
                       [np.zeros((n, n)), -np.eye(n)]])
    assert np.allclose(m1 - m0, mprime, atol=1e-14)


def test_spectrum_two_node_eps0(two_node):
    # -2 is a defective double eigenvalue of M(0); the two n x n blocks, -L_in and
    # -L_out, give it to rounding
    spec = sc.spectrum(sc.build_system(two_node, 0.0))
    assert spec.null_count == 2
    assert np.max(np.abs(spec.eigenvalues - [0, 0, -2, -2])) <= 1e-15
    assert np.all(spec.eigenvalues.imag == 0)


def test_spectrum_demo_eps0(demo6):
    spec = sc.spectrum(sc.build_system(demo6, 0.0))
    assert spec.null_count == 2
    nonnull = spec.nonnull
    assert nonnull.size == 10
    assert np.all(nonnull.real < 0)


def test_spectrum_demo_small_eps(demo6):
    for eps in [1e-3, 1e-2, 0.5]:
        spec = sc.spectrum(sc.build_system(demo6, eps))
        assert spec.null_count == 1
        assert max_nonnull_real(spec) < 0


def test_spectrum_sorted_and_conjugate_closed(demo6):
    spec = sc.spectrum(sc.build_system(demo6, 1.1))
    vals = spec.eigenvalues
    for a, b in zip(vals, vals[1:]):
        assert (a.real, a.imag) >= (b.real, b.imag)
    # closed under conjugation
    for v in vals:
        assert np.min(np.abs(vals - np.conj(v))) <= 1e-9


def test_block_triangular_split(demo6):
    lap = sc.laplacians(demo6)
    spec = sc.spectrum(sc.build_system(demo6, 0.0))
    expected = np.concatenate([
        np.linalg.eigvals(-lap.l_in.astype(float)),
        np.linalg.eigvals(-lap.l_out.astype(float)),
    ])
    # M(0)'s spectrum is its diagonal blocks' spectra, digit for digit
    assert np.array_equal(spec.eigenvalues, sc.Spectrum(expected).eigenvalues)


# ------------------------------------------------------------ the eps = 0 layer

def undirected_cycle(n):
    return sc.build_graph(n, [(i, i % n + 1) for i in range(1, n + 1)]
                          + [(i % n + 1, i) for i in range(1, n + 1)])


def test_spectrum_at_eps0_undirected_cycles():
    # L_in = L_out = L of the n-cycle, whose eigenvalues are 2 - 2 cos(2 pi k / n)
    for n in range(3, 13):
        vals = sc.spectrum(sc.build_system(undirected_cycle(n), 0.0)).eigenvalues
        closed = np.tile(-(2 - 2 * np.cos(2 * np.pi * np.arange(n) / n)), 2)
        assert np.max(np.abs(np.sort(vals.real) - np.sort(closed))) <= 1e-14, n
        assert np.all(vals.imag == 0), n


def test_spectrum_at_eps0_keeps_shared_eigenvalues_whole(demo6):
    # L_in and L_out share -3 and a conjugate pair, which eigvals of the 2n x 2n
    # M(0) split by about sqrt(u); the blocks give each twice
    spec = sc.spectrum(sc.build_system(demo6, 0.0))
    vals = spec.eigenvalues
    assert spec.null_count == 2
    for v in (-3, -2.11535382288 + 0.589742805022j, -2.11535382288 - 0.589742805022j):
        twins = vals[np.abs(vals - v) <= 1e-11]
        assert twins.size == 2 and abs(twins[0] - twins[1]) <= 1e-13, v
    assert np.all(vals[np.abs(vals + 3) <= 1e-11].imag == 0)
    # so analyze prints each twice, digit for digit
    printed = [cli._fmt_complex(v) for v in vals]
    for text in ("-3+0j", "-2.11535382288+0.589742805022j", "-2.11535382288-0.589742805022j"):
        assert printed.count(text) == 2, text


def test_sweep_at_eps0_writes_a_real_root_as_real(tmp_path, capsys):
    # on the undirected 5-cycle M(0)'s rightmost non-null eigenvalue is the real
    # 2 cos(2 pi / 5) - 2, twice; one 2n x 2n eigensolve gave it Im 2.5e-8
    path, out = tmp_path / "cycle.edges", tmp_path / "sweep"
    sc.save_edge_list(undirected_cycle(5), str(path))
    assert cli.main(["sweep", "--mode", "eps", "--graph", str(path),
                     "--eps-range", "0:0.5:1", "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    row = (out / "sweep_eps.csv").read_text().splitlines()[1].split(",")
    assert row[:2] == ["0", "0"]
    assert float(row[2]) == pytest.approx(2 * np.cos(2 * np.pi / 5) - 2, abs=1e-15)
    assert row[3] == "0"


def test_stability_map_at_eps0_roots_the_exact_eigenvalue():
    # the rightmost root at tau = 0.3 solves s e^{0.3 s} = -(5 + sqrt(5)) / 2, an
    # eigenvalue of the 5-cycle's L; 40-digit W_0(0.3 lambda) / 0.3 from mpmath
    reference = -0.86956951733795328984 + 4.6152203721002935385j
    smap = sc.stability_map(undirected_cycle(5), [0.0], [0.3])
    assert abs(smap.roots[0, 0] - reference) <= 1e-14


def test_analyze_solves_only_n_by_n_eigenproblems(eigensolves, capsys):
    assert cli.main(["analyze", "--graph", sc.demo_graph_path()]) == cli.EXIT_OK
    capsys.readouterr()
    # -L_in and -L_out, once: tau_tilde reuses analyze's own M(0) spectrum
    assert eigensolves == [("eigvals", (6, 6))] * 2


@pytest.mark.parametrize("eps_range, solves", [
    ("0:1:0", [("eigvals", (6, 6))] * 2),  # -L_in and -L_out
    ("0.5:1:0.5", [("eigvals", (12, 12))]),
])
def test_sweep_solves_m0_by_blocks_and_m_eps_whole(tmp_path, capsys, eigensolves,
                                                   eps_range, solves):
    assert cli.main(["sweep", "--mode", "eps", "--graph", sc.demo_graph_path(),
                     "--eps-range", eps_range, "--out", str(tmp_path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert eigensolves == solves


def test_spectrum_splits_only_an_even_block_lower_triangular_matrix(eigensolves):
    # 1 x 1: h = 0, nothing to split
    assert np.array_equal(sc.spectrum(np.array([[2.5]])).eigenvalues, [2.5])
    # 3 x 3 with zero upper entries: odd, so one eigensolve
    odd = np.array([[-1.0, 0, 0], [1, -2, 0], [1, 1, -3]])
    assert np.allclose(sc.spectrum(odd).eigenvalues, [-1, -2, -3], rtol=0, atol=1e-15)
    # [[a, 0], [c, d]]: its two 1 x 1 blocks, exactly
    a, c, d = -0.1, 7.0, -1 / 3
    assert np.array_equal(sc.spectrum(np.array([[a, 0], [c, d]])).eigenvalues, [a, d])
    # a nonzero top-right block takes one eigensolve
    sc.spectrum(np.array([[a, 1e-300], [c, d]]))
    assert eigensolves == [("eigvals", (1, 1)), ("eigvals", (3, 3)),
                           ("eigvals", (1, 1)), ("eigvals", (1, 1)), ("eigvals", (2, 2))]


def test_spectrum_does_not_call_itself_through_the_module(monkeypatch, demo6):
    # a tracer that wraps system.spectrum counts one call per spectrum
    calls = []
    spectrum = system.spectrum
    monkeypatch.setattr(system, "spectrum", lambda m: calls.append(m) or spectrum(m))
    for eps in (0.0, 0.5):
        system.spectrum(sc.build_system(demo6, eps))
    assert len(calls) == 2


def reset_digraph(n):
    # node j sends to j + 1 and to node 1
    return sc.build_graph(n, [(j + 1, j) for j in range(1, n)]
                          + [(1, j) for j in range(2, n + 1)])


@pytest.mark.parametrize("n", [80, 200])
def test_null_vector_keeps_tiny_entries(n):
    # L_out nu = 0 halves nu down the chain: (2^-1, ..., 2^-(n-1), 2^-(n-1)), whose
    # tail an eigenvector clipped at a tolerance returned as 0 from n = 59 on
    nu = sc.null_eigenvectors(reset_digraph(n)).nu_r_out
    expected = 2.0 ** -np.minimum(np.arange(1, n + 1), n - 1)
    assert np.all(nu > 0)
    assert np.max(np.abs(nu / expected - 1)) <= 1e-15


def test_null_vectors_and_slope_match_exact_arithmetic():
    for n in range(2, 13):
        for seed in range(8):
            extra = np.random.RandomState(100 * n + seed).randint(0, n * (n - 1) - n + 1)
            g = sc.random_strongly_connected(n, int(extra), seed=seed)
            lap = sc.laplacians(g)
            nev = sc.null_eigenvectors(g)
            exact_in = exact_null_vector(-lap.l_in)
            exact_out = exact_null_vector(-lap.l_out.T)
            for got, want in ((nev.nu_l_in, exact_in), (nev.nu_r_out, exact_out)):
                assert np.max(np.abs(got / np.array(want, dtype=float) - 1)) <= 1e-14, (n, seed)
            slope = float(-n * sum(a * b for a, b in zip(exact_in, exact_out)))
            assert abs(sc.lambda2_slope(g) / slope - 1) <= 1e-14, (n, seed)


def test_null_eigenvectors_two_node(two_node):
    nev = sc.null_eigenvectors(two_node)
    assert np.allclose(nev.nu_l_in, [0.5, 0.5], atol=1e-12)
    assert np.allclose(nev.nu_r_out, [0.5, 0.5], atol=1e-12)


def test_null_eigenvectors_three_cycle(three_cycle):
    nev = sc.null_eigenvectors(three_cycle)
    assert np.allclose(nev.nu_l_in, 1 / 3, atol=1e-12)
    assert np.allclose(nev.nu_r_out, 1 / 3, atol=1e-12)


def test_null_eigenvectors_demo(demo6):
    lap = sc.laplacians(demo6)
    nev = sc.null_eigenvectors(demo6)
    assert np.all(nev.nu_l_in > 0) and np.all(nev.nu_r_out > 0)
    assert np.linalg.norm(nev.nu_l_in @ lap.l_in) <= 1e-9
    assert np.linalg.norm(lap.l_out @ nev.nu_r_out) <= 1e-9
    assert nev.nu_l_in @ nev.nu_r_out > 0
    # the second null pair of M(0): right [0; nu_r_out], left [nu_l_in; 0]
    m0 = sc.build_system(demo6, 0.0)
    zeros = np.zeros(6)
    assert np.linalg.norm(m0 @ np.concatenate([zeros, nev.nu_r_out])) <= 1e-9
    assert np.linalg.norm(np.concatenate([nev.nu_l_in, zeros]) @ m0) <= 1e-9


def test_null_eigenvectors_precondition():
    g = sc.build_graph(2, [(1, 2)])
    with pytest.raises(sc.NotStronglyConnected):
        sc.null_eigenvectors(g)
    assert issubclass(sc.NotStronglyConnected, sc.PreconditionViolated)


def test_lambda2_slope_values(two_node, three_cycle, demo6):
    # exact first-order derivative: -n * nu_l_in . nu_r_out for unit-1-norm vectors
    assert sc.lambda2_slope(two_node) == pytest.approx(-1.0, abs=1e-12)
    assert sc.lambda2_slope(three_cycle) == pytest.approx(-1.0, abs=1e-12)
    assert sc.lambda2_slope(demo6) < 0


def test_lambda2_slope_taylor(demo6, two_node):
    for g in (demo6, two_node):
        slope = sc.lambda2_slope(g)
        for eps in [1e-3, 1e-2]:
            spec = sc.spectrum(sc.build_system(g, eps))
            lam2 = max_nonnull_real(spec)
            assert abs(lam2 / eps - slope) <= 0.1 * abs(slope)


def small_eps_graphs():
    """90 random strongly connected digraphs, n 2..10, with a random number of extra edges."""
    for n in range(2, 11):
        for seed in range(10):
            extra = np.random.RandomState(1000 * n + seed).randint(0, n * (n - 1) - n + 1)
            yield sc.random_strongly_connected(n, int(extra), seed=seed)


def test_null_split_holds_at_small_eps():
    # the split scales with rounding, so lambda_2 ~ lambda2_slope * eps stays
    # non-null far below eps = 1e-9, and M(0) keeps both nulls
    for g in small_eps_graphs():
        for eps, nulls in [(0.0, 2), (1e-12, 1), (1e-10, 1), (1e-9, 1), (1e-8, 1)]:
            assert sc.spectrum(sc.build_system(g, eps)).null_count == nulls, (g.n, eps)
        spec = sc.spectrum(sc.build_system(g, 1e-10))
        slope = sc.lambda2_slope(g)
        assert abs(spec.nonnull[0] / 1e-10 - slope) <= 1e-3 * abs(slope)
        assert sc.tau_critical(spec).tau_c > 0
        assert sc.find_eps_bar(g, [1e-10]) == 1e-10


def test_lambda1_stays_null(demo6):
    for eps in [0.1, 0.7, 1.3]:
        spec = sc.spectrum(sc.build_system(demo6, eps))
        assert spec.null_count == 1


def test_find_eps_bar_demo(demo6):
    grid = np.round(np.arange(0.1, 2.0001, 0.1), 10)
    assert sc.find_eps_bar(demo6, grid) >= 1.3


def test_find_eps_bar_two_node(two_node):
    grid = np.round(np.arange(0.1, 1.0001, 0.1), 10)
    value = sc.find_eps_bar(two_node, grid)
    assert value in grid


@pytest.mark.parametrize("call, message", [
    (lambda g: sc.find_eps_bar(g, []), "eps_grid must be non-empty"),
    (lambda g: sc.find_eps_bar(g, [0.1, 0.3, 0.2]), "eps_grid must ascend"),
    (lambda g: sc.find_eps_bar(g, [0.1, math.nan, 0.3]), "epsilon must be finite, got nan"),
    (lambda g: sc.stability_map(g, [], [0.1]), "grids must be non-empty"),
], ids=["find_eps_bar", "find_eps_bar-descending", "find_eps_bar-nan", "stability_map"])
def test_empty_grid_rejected(demo6, call, message):
    with pytest.raises(sc.InvalidParameter) as info:
        call(demo6)
    assert str(info.value) == message


def test_find_eps_bar_bisects_the_grid(demo6, eigensolves):
    # verify's grid is admissible throughout on demo6: the first and the last point
    # decide it, two spectra where a scan takes twenty
    grid = np.linspace(0.1, 2.0, 20)
    eps_bar = sc.find_eps_bar(demo6, grid)
    assert len(eigensolves) == 2
    assert eps_bar == scan_eps_bar(demo6, grid) == grid[-1]
    # the directed 6-cycle loses stability inside the grid: after its two ends the
    # bisection takes at most ceil(log2(59)) spectra
    ring = sc.build_graph(6, [(i, i % 6 + 1) for i in range(1, 7)])
    grid = np.round(np.arange(0.05, 3.0001, 0.05), 10)
    del eigensolves[:]
    eps_bar = sc.find_eps_bar(ring, grid)
    assert 2 < len(eigensolves) <= 2 + math.ceil(math.log2(grid.size - 1))
    assert eps_bar == scan_eps_bar(ring, grid) < grid[-1]


@st.composite
def _graph_and_eps_grid(draw):
    """A random strongly connected digraph on 2..10 nodes and a grid like verify's:
    m = 1..60 points evenly spaced from top / m to top = 0.1..20. Half the draws
    take at most two extra edges: a digraph near its Hamiltonian cycle loses
    stability inside the grid more often than a dense one."""
    n = draw(st.sampled_from(range(2, 11)))
    extra = draw(st.one_of(st.integers(0, 2), st.integers(0, n * (n - 1))))
    g = sc.random_strongly_connected(n, extra, draw(st.integers(0, 2 ** 32 - 1)))
    top, m = draw(st.sampled_from(range(1, 201))) / 10, draw(st.sampled_from(range(1, 61)))
    return g, np.linspace(top / m, top, m).tolist()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_graph_and_eps_grid())
def test_find_eps_bar_bisection_matches_the_scan(case):
    # the bisection assumes the admissible eps form one interval (0, eps_bar); a
    # graph and grid where it and the scan disagree is a counterexample to that
    g, grid = case
    expected = scan_eps_bar(g, grid)
    if expected is None:
        with pytest.raises(sc.NoAdmissibleEpsilon):
            sc.find_eps_bar(g, grid)
    else:
        assert sc.find_eps_bar(g, grid) == expected


@st.composite
def _unbalanced_graph(draw):
    """A random unbalanced strongly connected digraph on 3..8 nodes (the one strongly
    connected digraph on 2 nodes, the 2-cycle, is balanced); half the draws take at
    most two extra edges, as in _graph_and_eps_grid."""
    n = draw(st.integers(3, 8))
    extra = draw(st.one_of(st.integers(0, 2), st.integers(0, n * (n - 1))))
    g = sc.random_strongly_connected(n, extra, draw(st.integers(0, 2 ** 32 - 1)))
    assume(not sc.is_balanced(g))
    return g


EXACT_GRID = np.linspace(0.05, 5.0, 100).tolist()


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_unbalanced_graph())
def test_find_eps_bar_is_the_last_grid_point_below_the_exact_eps_bar(g):
    # the exact eps_bar needs no interval assumption, so a graph where find_eps_bar's
    # bisection misses it is a counterexample to that assumption
    eps_bar = exact_eps_bar(g)
    # a grid point within rounding of eps_bar is admissible or not by rounding
    assume(all(abs(eps - eps_bar) > 1e-7 * eps for eps in EXACT_GRID))
    below = [eps for eps in EXACT_GRID if eps < eps_bar]
    if not below:
        with pytest.raises(sc.NoAdmissibleEpsilon):
            sc.find_eps_bar(g, EXACT_GRID)
    else:
        assert sc.find_eps_bar(g, EXACT_GRID) == below[-1]


def test_find_eps_bar_no_admissible():
    # the directed 6-cycle loses stability well below eps = 2
    ring = sc.build_graph(6, [(i, i % 6 + 1) for i in range(1, 7)])
    with pytest.raises(sc.NoAdmissibleEpsilon):
        sc.find_eps_bar(ring, [2.0, 5.0])


# ------------------------------------------------- cycles, in closed form

def directed_cycle(n):
    # node i listens to node i + 1: L = I - P, P the cyclic shift
    return sc.build_graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def cycle_mu(n):
    """The eigenvalues 1 - e^{2 pi i j / n} of the directed n-cycle's Laplacian."""
    return 1.0 - np.exp(2j * np.pi * np.arange(n) / n)


def test_spectrum_of_directed_cycles_is_the_quadratics_roots():
    # each mu of L gives two eigenvalues of M(eps); the 2n computed ones are
    # within 8.9e-15 of them, matched one to one
    for n in range(3, 13):
        vals = sc.spectrum(sc.build_system(directed_cycle(n), 0.3)).eigenvalues
        dist = np.abs(vals[:, None] - balanced_roots(cycle_mu(n), 0.3)[None, :])
        nearest = dist.argmin(axis=1)
        assert sorted(nearest.tolist()) == list(range(2 * n)), n
        assert dist[np.arange(2 * n), nearest].max() <= 1e-13, n


def test_find_eps_bar_on_directed_cycles_is_the_closed_form():
    # eps_bar is sqrt(2) - 1 on the 8-cycle and inf on the 3- and 4-cycles, where
    # Re mu >= |Im mu| for every mu; find_eps_bar gives the last grid point below it
    grid = [i / 100 for i in range(1, 301)]
    assert balanced_eps_bar(cycle_mu(8)) == pytest.approx(math.sqrt(2) - 1, rel=1e-14)
    found = {n: sc.find_eps_bar(directed_cycle(n), grid) for n in range(3, 13)}
    for n, eps in found.items():
        assert eps == max(e for e in grid if e < balanced_eps_bar(cycle_mu(n))), n
    assert (found[3], found[4], found[8]) == (3.0, 3.0, 0.41)


def test_exact_eps_bar_on_directed_cycles_is_the_closed_form():
    # the pencils' eps_bar is the quadratics'; on the 4-cycle, Re mu = |Im mu| puts the
    # crossing at eps = inf, which both routes compute as a rounding-level finite value
    assert exact_eps_bar(directed_cycle(3)) == math.inf
    for n in range(5, 11):
        assert exact_eps_bar(directed_cycle(n)) == pytest.approx(
            balanced_eps_bar(cycle_mu(n)), rel=1e-12), n


def test_tau_critical_on_undirected_cycles_is_pi_over_twice_the_spectral_radius():
    # L is symmetric, so every mu is real, every eigenvalue of M(eps) is real and
    # negative, and tau_c = (pi - pi / 2) / |lambda| is least at the largest |lambda|
    for n in range(3, 13):
        spec = sc.spectrum(sc.build_system(undirected_cycle(n), 0.3))
        assert np.max(np.abs(spec.eigenvalues.imag)) <= 1e-13, n
        radius = np.abs(balanced_roots(2.0 - 2.0 * np.cos(2 * np.pi * np.arange(n) / n),
                                       0.3)).max()
        assert sc.tau_critical(spec).tau_c == pytest.approx(math.pi / (2 * radius),
                                                            rel=1e-13), n


# ----------------------------------------------------------------- Spectrum

def test_spectrum_sorts_and_splits_the_values_it_is_given():
    spec = sc.Spectrum([-1.0, 1e-17j, -2 - 1j, 0.5, -2 + 1j, 2e-9])
    assert spec.eigenvalues.tolist() == [0.5, 2e-9, 1e-17j, -1, -2 + 1j, -2 - 1j]
    # the split is 8 m u max(1, max |lambda|) = 1.2e-14 here: 1e-17j is null, 2e-9 is not
    assert spec.null_count == 1
    assert spec.nonnull_index.tolist() == [0, 1, 3, 4, 5]
    assert spec.nonnull.tolist() == [0.5, 2e-9, -1, -2 + 1j, -2 - 1j]


def test_spectrum_takes_the_eigenvalues_alone():
    with pytest.raises(TypeError):
        sc.Spectrum(np.array([0.0, -1.0]), null_count=1)


def test_spectrum_without_nonnull_eigenvalue_raises_once_for_all():
    spec = sc.Spectrum([1e-17, 0.0])
    assert spec.null_count == 2
    for read in (lambda: spec.nonnull, lambda: sc.rightmost_root(spec, 0.1),
                 lambda: sc.rightmost_root_oracle(spec, 0.1)):
        with pytest.raises(sc.PreconditionViolated) as info:
            read()
        assert str(info.value) == "spectrum has no non-null eigenvalue"


@pytest.mark.parametrize("values, message", [
    ([0, 0, -1], "expected exactly one null eigenvalue, found 2"),
    ([-1, 0.5, 0], "a non-null eigenvalue has non-negative real part"),
    ([0, -1, 2j, -2j], "a non-null eigenvalue has non-negative real part"),
    ([0], "spectrum has no non-null eigenvalue"),
])
def test_require_admissible(values, message):
    spec = sc.Spectrum(values)
    for check in (spec.require_admissible, lambda: sc.tau_critical(spec)):
        with pytest.raises(sc.PreconditionViolated) as info:
            check()
        assert str(info.value) == message
    sc.Spectrum([-1e-17, -1, -2 + 1j, -2 - 1j]).require_admissible()


def test_find_eps_bar_admits_exactly_where_tau_critical_returns(demo6):
    # one admissibility rule: find_eps_bar accepts a one-point grid iff
    # tau_critical has a margin there; the 6-cycle loses stability below 2
    ring = sc.build_graph(6, [(i, i % 6 + 1) for i in range(1, 7)])
    grid = [0.0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8] + np.round(
        np.arange(0.05, 3.0001, 0.05), 10).tolist()
    for g in (demo6, ring):
        admitted = []
        for eps in grid:
            try:
                sc.tau_critical(sc.spectrum(sc.build_system(g, eps)))
                has_margin = True
            except sc.PreconditionViolated:
                has_margin = False
            try:
                accepted = sc.find_eps_bar(g, [eps]) == eps
            except sc.NoAdmissibleEpsilon:
                accepted = False
            assert accepted == has_margin, eps
            admitted.append(accepted)
        assert True in admitted and False in admitted


ARRAY_DATACLASSES = {
    "LaplacianPair": lambda g: sc.laplacians(g),
    "Spectrum": lambda g: sc.spectrum(sc.build_system(g, 1.3)),
    "NullEigenvectors": lambda g: sc.null_eigenvectors(g),
    "SimConfig": lambda g: sc.SimConfig(tau=0.2, x0=np.arange(g.n, dtype=float)),
    "Trajectory": lambda g: sc.simulate(
        sc.build_system(g, 1.3), sc.SimConfig(tau=0.2, x0=np.arange(g.n, dtype=float),
                                              t_final=0.4)),
    # more than one cell: the generated == raised on any array of two or more
    "StabilityMap": lambda g: sc.stability_map(g, [0.5, 1.3], [0.0, 0.1]),
}


@pytest.mark.parametrize("kind", list(ARRAY_DATACLASSES))
def test_array_dataclasses_compare_without_raising(demo6, kind):
    a, b = ARRAY_DATACLASSES[kind](demo6), ARRAY_DATACLASSES[kind](demo6)
    assert type(a).__name__ == kind
    assert a == a and not a != a
    # equal values, distinct instances: == is identity, and defined
    assert (a == b) is False and (a != b) is True
