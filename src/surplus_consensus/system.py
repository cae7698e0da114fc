"""Augmented surplus-consensus system matrix and its spectral facts.

The 2n x 2n system matrix is

    M(eps) = [ -L_in        eps*I      ]
             [  L_in   -L_out - eps*I  ]

so [1^T 1^T] M(eps) = 0 for every eps, and M(eps) = M(0) + eps * [[0, I], [0, -I]].
M(0) is block lower-triangular, so spectrum solves its blocks -L_in and -L_out apart.
"""

from dataclasses import dataclass

import numpy as np

from . import graph as graph_mod
from .errors import (
    InvalidParameter,
    NoAdmissibleEpsilon,
    NumericalFailure,
    PreconditionViolated,
    require_non_negative,
)


# == is identity: the generated == compares ndarray fields and raises
@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues, given in any order, sorted by descending real part (ties:
    descending imaginary) and split into null and non-null at 8 m u max(1, max |lambda|)
    for m values, u = 2^-53: 1^T M = 0 bounds the conserved zero's condition by sqrt(m)."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=complex)
        object.__setattr__(self, "eigenvalues", vals[np.lexsort((-vals.imag, -vals.real))])

    @property
    def nonnull_index(self):
        mag = np.abs(self.eigenvalues)
        return np.flatnonzero(mag > 8 * mag.size * 2.0 ** -53 * max(1.0, mag.max(initial=0)))

    @property
    def null_count(self):
        return self.eigenvalues.size - self.nonnull_index.size

    @property
    def nonnull(self):
        """Non-null eigenvalues, rightmost first; PreconditionViolated if there is none."""
        index = self.nonnull_index
        if index.size == 0:
            raise PreconditionViolated("spectrum has no non-null eigenvalue")
        return self.eigenvalues[index]

    def require_admissible(self):
        """PreconditionViolated unless exactly one eigenvalue is null and every
        other has Re < 0: the spectra tau_critical and find_eps_bar admit."""
        if self.null_count != 1:
            raise PreconditionViolated("expected exactly one null eigenvalue, found %d"
                                       % self.null_count)
        if self.nonnull[0].real >= 0:
            raise PreconditionViolated("a non-null eigenvalue has non-negative real part")


# == is identity: the generated == compares ndarray fields and raises
@dataclass(frozen=True, eq=False)
class NullEigenvectors:
    """Unit-1-norm null vectors, left of L_in and right of L_out; every entry is positive."""

    nu_l_in: np.ndarray
    nu_r_out: np.ndarray


def build_system(g, epsilon):
    require_non_negative("epsilon", [epsilon])
    lap = graph_mod.laplacians(g)
    n = g.n
    eye = np.eye(n)
    return np.block([
        [-lap.l_in.astype(float), epsilon * eye],
        [lap.l_in.astype(float), -lap.l_out.astype(float) - epsilon * eye],
    ])


def spectrum(m):
    """Spectrum of m: eig of each diagonal block if m is 2h x 2h (h >= 1) with a zero
    top-right h x h block, so no eigenvalue the blocks share splits by sqrt(u); else eig(m)."""
    m = np.asarray(m)
    h = m.shape[0] // 2 if m.ndim == 2 else 0
    blocks = [m]
    if h and m.shape == (2 * h, 2 * h) and not m[:h, h:].any():
        blocks = [m[:h, :h], m[h:, h:]]
    try:
        vals = np.concatenate([np.linalg.eigvals(b) for b in blocks])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigenvalue computation failed: %s" % exc)
    return Spectrum(vals)


def _null_vector(q):
    """Unit-1-norm p with p q = 0 for an irreducible generator q (off-diagonal entries
    >= 0, zero row sums) by Grassmann, Taksar & Heyman's elimination (Oper. Res. 33, 1985):
    each pivot is a sum of off-diagonal entries, so no step subtracts and p > 0."""
    q = q.astype(float)
    for k in range(q.shape[0] - 1, 0, -1):
        q[:k, k] /= q[k, :k].sum()
        q[:k, :k] += np.outer(q[:k, k], q[k, :k])
    p = np.ones(q.shape[0])
    for k in range(1, q.shape[0]):
        p[k] = p[:k] @ q[:k, k]
    return p / p.sum()


def null_eigenvectors(g):
    graph_mod.require_strongly_connected(g)
    lap = graph_mod.laplacians(g)
    nu_l_in = _null_vector(-lap.l_in)
    nu_r_out = _null_vector(-lap.l_out.T)
    return NullEigenvectors(nu_l_in=nu_l_in, nu_r_out=nu_r_out)


def lambda2_slope(g):
    """First-order rate d(lambda_2)/d(eps) at eps = 0.

    The null eigenvalue of M(0) is semi-simple with multiplicity two; reducing
    the perturbation [[0, I], [0, -I]] onto the null pair (with the Gram matrix
    of the non-biorthogonal bases r1 = [1; 0], r2 = [0; nu_r_out],
    l1 = [1; 1], l2 = [nu_l_in; 0]) gives derivatives {0, -n * nu_l_in . nu_r_out}
    for unit-1-norm null vectors. Strictly negative on strongly connected graphs.
    """
    nev = null_eigenvectors(g)
    return -g.n * float(nev.nu_l_in @ nev.nu_r_out)


def find_eps_bar(g, eps_grid):
    """Largest grid value whose whole prefix yields an admissible spectrum
    (Spectrum.require_admissible); a numerical estimate, not a provable supremum.
    Assumes the admissible eps form one interval (0, eps_bar), as on a balanced
    digraph and on every random digraph tried, and bisects the grid index after its
    first and last points: about log2(len(eps_grid)) spectra. The grid must ascend."""
    eps_grid = list(eps_grid)
    if not eps_grid:
        raise InvalidParameter("eps_grid must be non-empty")
    require_non_negative("epsilon", eps_grid)
    if any(b < a for a, b in zip(eps_grid, eps_grid[1:])):
        raise InvalidParameter("eps_grid must ascend")

    def admissible(i):
        try:
            spectrum(build_system(g, eps_grid[i])).require_admissible()
        except PreconditionViolated:
            return False
        return True

    if not admissible(0):
        raise NoAdmissibleEpsilon(
            "smallest grid point %r already yields an unstable system" % (eps_grid[0],)
        )
    lo, hi = 0, len(eps_grid)  # eps_grid[lo] is admissible, eps_grid[hi] is not or past the end
    while hi - lo > 1:
        mid = hi - 1 if hi == len(eps_grid) else (lo + hi) // 2  # the last point first
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return eps_grid[lo]
