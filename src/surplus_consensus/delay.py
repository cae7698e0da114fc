"""Delay margins and rightmost quasi-polynomial roots.

The characteristic function of the delayed system is det(sI - M(eps) e^{-s tau});
its roots split per eigenvalue into s e^{s tau} = lambda_i(eps), solved with the
principal branch of the complex Lambert W function; a Chebyshev collocation of
each scalar equation's generator cross-checks them.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import graph as graph_mod
from . import system as system_mod
from .errors import (
    InvalidParameter,
    NumericalFailure,
    PreconditionViolated,
    require_non_negative,
)

FOUR_UNIT_ROUNDOFF = 2.0 ** -51  # 4u, u = 2^-53 the unit roundoff of a double
LAMBERT_W_MAX_ITER = 100  # Halley steps per start point
ORACLE_ORDER = 30  # Chebyshev collocation order: 31 x 31 scalar generators


@dataclass(frozen=True)
class DelayMargin:
    tau_c: float
    limiting_eigenvalue_index: int
    crossing_frequency: float


@dataclass(frozen=True)
class RightmostRoot:
    root: complex
    source_eigenvalue_index: int
    residual: float


# == is identity: the generated == compares ndarray fields and raises
@dataclass(frozen=True, eq=False)
class StabilityMap:
    eps_grid: np.ndarray
    tau_grid: np.ndarray
    roots: np.ndarray
    source_index: np.ndarray
    residual: np.ndarray
    margins: list
    failures: list

    @property
    def max_root_residual(self):
        """Largest root residual over the tau > 0 cells; NaN if there is none."""
        finite = self.residual[~np.isnan(self.residual)]
        return float(finite.max()) if finite.size else math.nan


def lambert_w(z, k=0):
    """Branch k of the Lambert W function by Halley iteration.

    Returns w with unwinding number k, Im(w + Log w - Log z) = 2 pi k (Corless et
    al., Adv. Comput. Math. 5, 1996), since the residual alone cannot tell
    branches apart, and |w e^w - z| <= FOUR_UNIT_ROUNDOFF |z| (1 + |Log z + 2 pi i k|),
    the rounding error of w e^w, |w| ~ |Log z + 2 pi i k|. A start point that diverges
    or lands on another branch is followed by the next. Within Im z <= 4u |z| of the
    cut [-1/e, 0) both real branches have unwinding number 0, so W_-1 is exempt.
    Im z < 0 is solved as conj W_-k(conj z); a signed zero Im z takes the value from above.
    So W_k(conj z) = conj W_-k(z) is one solve: the last five solves (z folded to
    Im z >= 0, k) are kept, one eigenvalue's branches in rightmost_root, and a mirror
    call returns the kept w, bit for bit a fresh solve's. A failure is not kept.
    """
    z = complex(z) + 0.0
    k = int(k)
    if z == 0:
        if k == 0:
            return 0j
        raise NumericalFailure("branch %d of W is singular at z = 0" % k)
    lower = z.imag < 0
    try:
        w = _upper(z.conjugate(), -k) if lower else _upper(z, k)
    except NumericalFailure:  # named for the caller's z and k, not the folded ones
        raise NumericalFailure("Lambert W branch %d failed to converge for z = %r"
                               % (k, z)) from None
    return w.conjugate() if lower else w


@functools.lru_cache(maxsize=5)
def _upper(z, k):
    """lambert_w(z, k) for Im z >= 0; NumericalFailure if no start point converges."""
    real_branch = (k == -1 and z.imag <= FOUR_UNIT_ROUNDOFF * abs(z)
                   and -1.0 / math.e <= z.real < 0)
    log_z = cmath.log(z)
    two_pi_k = 2.0 * math.pi * k
    log_zk = log_z + two_pi_k * 1j
    bound = FOUR_UNIT_ROUNDOFF * abs(z) * (1.0 + abs(log_zk))
    for w in _start_points(z, k, real_branch, log_zk):
        try:
            stalled = False
            # the loop exits only after computing f for the current w, so the
            # residual checked is that of the w returned
            for i in range(LAMBERT_W_MAX_ITER + 1):
                ew = cmath.exp(w)
                f = w * ew - z
                if abs(f) <= bound or stalled or i == LAMBERT_W_MAX_ITER:
                    break
                wp1 = w + 1.0
                step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
                w = w - step
                abs_w = abs(w)
                stalled = abs(step) <= (1e-17 * abs_w if abs_w > 1.0 else 1e-17)
        except OverflowError:  # the iteration diverged from this start point
            continue
        if abs(f) <= bound and (
                real_branch or abs((w + cmath.log(w) - log_z).imag - two_pi_k) < math.pi):
            return w
    raise NumericalFailure("no start point converged")


def _start_points(z, k, real_branch, log_zk):
    """Initial guesses for branch k at z, best first; log_zk is Log z + 2 pi i k."""
    if k in (0, -1) and abs(p2 := 2.0 * (math.e * z + 1.0)) < 0.8:
        # series around the branch point at -1/e, first: near this double root the
        # residual is quadratic in the error of w, so a start point that Halley
        # has to move stops about sqrt(bound) from the root
        p = -cmath.sqrt(p2) if k == -1 else cmath.sqrt(p2)
        yield -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p * p * p
    elif k == 0 and abs(z) <= 1.0 / math.e:
        yield z * (1.0 - z + 1.5 * z * z)
    elif real_branch:
        ln = math.log(-z.real)
        yield complex(ln - math.log(-ln))
    # asymptotic guesses L1 - L2 + L2 / L1, then L1 - L2; near |z| = 1/e they and the
    # ones above can fall into a neighbouring branch's basin, and within rounding of
    # the cut (-1/e, 0) the first can stop with Im w of the wrong sign
    w = log_zk
    if abs(w) > 1.0:
        log_w = cmath.log(w)
        yield w - log_w + log_w / w
        w = w - log_w
    yield w
    if k == 0:
        yield cmath.log(1.0 + z)


def tau_critical(spec):
    """Critical delay min_i (theta_i - pi/2) / |lambda_i| over non-null eigenvalues.

    Angles are folded into the upper half-plane, theta_i = |arg lambda_i| in
    (pi/2, pi]; the crossing frequency equals the limiting eigenvalue's modulus.
    """
    spec.require_admissible()
    lam = spec.nonnull
    radius = np.abs(lam)
    values = (np.abs(np.angle(lam)) - math.pi / 2.0) / radius
    j = int(np.argmin(values))
    return DelayMargin(tau_c=float(values[j]),
                       limiting_eigenvalue_index=int(spec.nonnull_index[j]),
                       crossing_frequency=float(radius[j]))


def tau_tilde_bound(g):
    """Topology-only delay bound (1 / 2 delta_bar) * arctan(|Re lambda_3(0)| / delta_bar).

    lambda_3(0) is the rightmost non-null eigenvalue of M(0), from -L_in and -L_out.
    The absolute value repairs the sign of the bound, which is negative as
    literally stated for a Hurwitz eigenvalue.
    """
    graph_mod.require_strongly_connected(g)
    return _tau_tilde(graph_mod.degree_profile(g).delta_bar,
                      system_mod.spectrum(system_mod.build_system(g, 0.0)).nonnull[0])


def _tau_tilde(delta_bar, lam3):
    """tau_tilde_bound from delta_bar and lambda_3(0), for a caller that has them."""
    return (1.0 / (2.0 * delta_bar)) * math.atan(abs(lam3.real) / delta_bar)


def _require_positive_delay(tau):
    """Raise InvalidParameter unless tau is finite and positive."""
    if not math.isfinite(tau):
        raise InvalidParameter("tau must be finite, got %r" % (float(tau),))
    if tau <= 0:
        raise InvalidParameter("tau must be positive, got %r" % (float(tau),))


def rightmost_root(spec, tau):
    """Rightmost non-null root of the quasi-polynomial at delay tau.

    Scans s = W_k(tau * lambda_i) / tau over the non-null eigenvalues and the
    branches k in [-2, 2] and keeps the largest (Re s, Im s): of a conjugate
    pair, the root with Im s >= 0. W_0 has the largest real part of all branches
    (proved for real arguments by Shinozaki and Mori, Automatica 42, 2006; the
    tests check complex ones against scipy), so the other four never win; cutting
    the scan to W_0 waits on the benchmark's call-count figures (ROADMAP item 1).
    So a branch k != 0 that raises NumericalFailure is skipped, and only a W_0
    failure fails the scan. The null eigenvalue contributes only s = 0 and is
    excluded. The spectrum lists a conjugate pair side by side, so lambert_w
    answers the second's five branches from the first's kept solves (not its failures).
    """
    _require_positive_delay(tau)
    best, best_re, best_im = None, -math.inf, -math.inf
    for i, lam in zip(spec.nonnull_index.tolist(), spec.nonnull.tolist()):
        z = tau * lam
        for k in range(-2, 3):
            try:
                s = lambert_w(z, k) / tau
            except NumericalFailure:
                if k == 0:
                    raise
                continue  # a branch that is never rightmost
            if s.real > best_re or (s.real == best_re and s.imag > best_im):
                best, best_re, best_im = (s, i, lam), s.real, s.imag
    s, i, lam = best
    return RightmostRoot(root=s, source_eigenvalue_index=i,
                         residual=abs(s * cmath.exp(s * tau) - lam))


def chebyshev_nodes_diff(order, span):
    """Differentiation matrix on the Chebyshev-Gauss-Lobatto nodes of [-span, 0],
    node 0 first."""
    n = order
    x = np.cos(np.pi * np.arange(n + 1) / n)
    x = span * (x - 1.0) / 2.0
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    xcol = np.tile(x, (n + 1, 1)).T
    dx = xcol - xcol.T
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    return d - np.diag(d.sum(axis=1))


def rightmost_root_oracle(spec, tau):
    """Rightmost non-null root, Im >= 0, from a Chebyshev collocation of order
    ORACLE_ORDER of the delay system's generator on [-tau, 0] (Breda, Maset &
    Vermiglio, 2005). It splits into one scalar generator per eigenvalue, since
    det(sI - M e^{-s tau}) = prod_i (s - lambda_i e^{-s tau}) for any M
    (Jarlebring & Damm, 2007)."""
    _require_positive_delay(tau)
    lam = spec.nonnull
    # a conjugate eigenvalue has the conjugate roots, the same once folded to Im >= 0
    lam = np.unique(lam.real + 1j * np.abs(lam.imag))
    d = chebyshev_nodes_diff(ORACLE_ORDER, tau)
    gen = np.zeros((lam.size,) + d.shape, dtype=complex)
    # collocation rows: d/dtheta; boundary row: dy/dt = lambda_i y(-tau), on the last node
    gen[:, 1:, :] = d[1:]
    gen[:, 0, -1] = lam
    try:
        roots = np.linalg.eigvals(gen).ravel()
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigenvalue computation failed: %s" % exc)
    # fold to Im >= 0: a real lambda_i's roots are conjugate only to rounding
    roots = roots.real + 1j * np.abs(roots.imag)
    return complex(roots[np.lexsort((roots.imag, roots.real))[-1]])


def stability_map(g, eps_grid, tau_grid):
    """Rightmost non-null root per (eps, tau) cell, the one scan of every sweep.

    tau > 0 cells take rightmost_root's branch scan and keep its root,
    source eigenvalue index and residual; tau = 0 cells take the rightmost
    non-null matrix eigenvalue, with source index -1 and residual NaN. A cell
    whose spectrum or root fails holds root NaN, source index -1 and residual
    NaN, and is listed in .failures as (eps index, tau index, reason). Each eps
    row's tau_critical goes to .margins as (DelayMargin, None), or (None, reason)
    if the row's spectrum or tau_critical refuses it; a refused margin is not a
    failed cell. A negative eps or tau raises InvalidParameter before any work.
    .max_root_residual is derived from these arrays.
    """
    eps_grid = np.asarray(list(eps_grid), dtype=float)
    tau_grid = np.asarray(list(tau_grid), dtype=float)
    if eps_grid.size == 0 or tau_grid.size == 0:
        raise InvalidParameter("grids must be non-empty")
    require_non_negative("epsilon", eps_grid)
    require_non_negative("tau", tau_grid)
    shape = (eps_grid.size, tau_grid.size)
    roots = np.full(shape, np.nan, dtype=complex)
    source_index = np.full(shape, -1)
    residual = np.full(shape, np.nan)
    margins, failures = [], []
    for a, eps in enumerate(eps_grid):
        try:
            spec = system_mod.spectrum(system_mod.build_system(g, eps))
        except (NumericalFailure, PreconditionViolated) as exc:
            margins.append((None, str(exc)))
            failures.extend((a, b, str(exc)) for b in range(tau_grid.size))
            continue
        try:
            margins.append((tau_critical(spec), None))
        except PreconditionViolated as exc:
            margins.append((None, str(exc)))
        for b, tau in enumerate(tau_grid):
            try:
                if tau == 0.0:
                    roots[a, b] = spec.nonnull[0]
                else:
                    root = rightmost_root(spec, tau)
                    roots[a, b] = root.root
                    source_index[a, b] = root.source_eigenvalue_index
                    residual[a, b] = root.residual
            except (NumericalFailure, PreconditionViolated) as exc:
                failures.append((a, b, str(exc)))
    return StabilityMap(eps_grid=eps_grid, tau_grid=tau_grid, roots=roots,
                        source_index=source_index, residual=residual,
                        margins=margins, failures=failures)

