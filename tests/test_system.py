import numpy as np
import pytest

import surplus_consensus as sc
from surplus_consensus.system import NULL_TOLERANCE

from conftest import max_nonnull_real


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
    spec = sc.spectrum(sc.build_system(two_node, 0.0))
    assert spec.null_count == 2
    # -2 is a defective double eigenvalue of M(0); the eigensolver resolves it
    # only to O(sqrt(machine eps))
    assert np.allclose(sorted(spec.eigenvalues.real), [-2, -2, 0, 0], atol=1e-6)
    assert np.allclose(spec.eigenvalues.imag, 0, atol=1e-6)


def test_spectrum_demo_eps0(demo6):
    spec = sc.spectrum(sc.build_system(demo6, 0.0))
    assert spec.null_count == 2
    nonnull = spec.eigenvalues[np.abs(spec.eigenvalues) > NULL_TOLERANCE]
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
    got = np.array(spec.eigenvalues, copy=True)
    for v in expected:
        i = int(np.argmin(np.abs(got - v)))
        # repeated eigenvalues shared by both Laplacians limit matching
        # accuracy to roughly sqrt(machine eps)
        assert abs(got[i] - v) <= 1e-6
        got[i] = np.inf  # consume the match


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


def test_find_eps_bar_no_admissible():
    # the directed 6-cycle loses stability well below eps = 2
    ring = sc.build_graph(6, [(i, i % 6 + 1) for i in range(1, 7)])
    with pytest.raises(sc.NoAdmissibleEpsilon):
        sc.find_eps_bar(ring, [2.0, 5.0])



# ----------------------------------------------------------------- Spectrum

def test_spectrum_sorts_and_splits_the_values_it_is_given():
    spec = sc.Spectrum([-1.0, 3e-10j, -2 - 1j, 0.5, -2 + 1j, 2e-9])
    assert spec.eigenvalues.tolist() == [0.5, 2e-9, 3e-10j, -1, -2 + 1j, -2 - 1j]
    # 3e-10j is within NULL_TOLERANCE of 0, 2e-9 is not
    assert spec.null_count == 1
    assert spec.nonnull_index.tolist() == [0, 1, 3, 4, 5]
    assert spec.nonnull.tolist() == [0.5, 2e-9, -1, -2 + 1j, -2 - 1j]


def test_spectrum_takes_the_eigenvalues_alone():
    with pytest.raises(TypeError):
        sc.Spectrum(np.array([0.0, -1.0]), null_count=1)


def test_spectrum_without_nonnull_eigenvalue_raises_once_for_all():
    spec = sc.Spectrum([1e-10, 0.0])
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
    sc.Spectrum([-1e-10, -1, -2 + 1j, -2 - 1j]).require_admissible()


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
