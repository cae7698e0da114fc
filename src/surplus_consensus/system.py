"""Augmented surplus-consensus system matrix and its spectral facts.

The 2n x 2n system matrix is

    M(eps) = [ -L_in        eps*I      ]
             [  L_in   -L_out - eps*I  ]

so [1^T 1^T] M(eps) = 0 for every eps, and M(eps) = M(0) + eps * [[0, I], [0, -I]].
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

NULL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by descending real part (ties: descending imaginary)."""

    eigenvalues: np.ndarray
    null_tolerance: float
    null_count: int

    @property
    def nonnull_index(self):
        """Positions of the non-null eigenvalues, |lambda| > null_tolerance."""
        return np.flatnonzero(np.abs(self.eigenvalues) > self.null_tolerance)

    @property
    def nonnull(self):
        """Non-null eigenvalues in spectrum order, rightmost first."""
        return self.eigenvalues[self.nonnull_index]

    @property
    def rightmost_nonnull(self):
        """The rightmost non-null eigenvalue; PreconditionViolated if none is."""
        lam = self.nonnull
        if lam.size == 0:
            raise PreconditionViolated("spectrum has no non-null eigenvalue")
        return lam[0]


@dataclass(frozen=True)
class NullEigenvectors:
    """Unit-1-norm positive null vectors: left of L_in, right of L_out."""

    nu_l_in: np.ndarray
    nu_r_out: np.ndarray

    @property
    def r2(self):
        """Right null eigenvector [0; nu_r_out] of the eps=0 system matrix."""
        return np.concatenate([np.zeros_like(self.nu_r_out), self.nu_r_out])

    @property
    def l2(self):
        """Left null eigenvector [nu_l_in; 0] of the eps=0 system matrix."""
        return np.concatenate([self.nu_l_in, np.zeros_like(self.nu_l_in)])


def build_system(g, epsilon):
    require_non_negative("epsilon", [epsilon])
    lap = graph_mod.laplacians(g)
    n = g.n
    eye = np.eye(n)
    return np.block([
        [-lap.l_in.astype(float), epsilon * eye],
        [lap.l_in.astype(float), -lap.l_out.astype(float) - epsilon * eye],
    ])


def sort_eigenvalues(vals):
    order = np.lexsort((-vals.imag, -vals.real))
    return vals[order]


def spectrum_of_matrix(mat, null_tolerance):
    try:
        vals = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigenvalue computation failed: %s" % exc)
    vals = sort_eigenvalues(vals)
    null_count = int(np.sum(np.abs(vals) <= null_tolerance))
    return Spectrum(eigenvalues=vals, null_tolerance=float(null_tolerance),
                    null_count=null_count)


def spectrum(m):
    return spectrum_of_matrix(m, NULL_TOLERANCE)


def _null_vector(mat, residual_tol=1e-9):
    """Positive unit-1-norm right null vector of a matrix with a simple null eigenvalue."""
    vals, vecs = np.linalg.eig(mat)
    v = np.real(vecs[:, np.argmin(np.abs(vals))])
    v = v / v.sum()
    if np.min(v) < -residual_tol:
        raise NumericalFailure(
            "null eigenvector has a negative entry beyond tolerance: %r" % (v,)
        )
    v = np.maximum(v, 0.0)
    v = v / v.sum()
    if np.linalg.norm(mat @ v) > residual_tol:
        raise NumericalFailure("null eigenvector residual exceeds %g" % residual_tol)
    return v


def null_eigenvectors(g):
    graph_mod.require_strongly_connected(g)
    lap = graph_mod.laplacians(g)
    nu_l_in = _null_vector(lap.l_in.T.astype(float))
    nu_r_out = _null_vector(lap.l_out.astype(float))
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
    """Largest grid value whose whole prefix yields one null eigenvalue and a
    strictly stable remainder. Numerical estimate, not a provable supremum."""
    eps_grid = list(eps_grid)
    if not eps_grid:
        raise InvalidParameter("eps_grid must be non-empty")
    best = None
    for eps in eps_grid:
        spec = spectrum(build_system(g, eps))
        ok = spec.null_count == 1 and np.all(spec.nonnull.real < -NULL_TOLERANCE)
        if not ok:
            break
        best = eps
    if best is None:
        raise NoAdmissibleEpsilon(
            "smallest grid point %r already yields an unstable system" % (eps_grid[0],)
        )
    return best
