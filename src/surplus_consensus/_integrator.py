"""Fixed-step method-of-steps kernels for y'(t) = M y(t - tau), in numpy.

The right-hand side reads only the delayed state, so every step in a window
[s, s + d), d = tau/dt, depends on stored nodes at or before s alone (Bellen
and Zennaro, Numerical Methods for Delay Differential Equations, 2003). A
whole window is therefore two matrix products and one cumulative sum. The
derivatives at the d + 1 nodes a window reads are carried from one window to
the next as a single block, so the states are the only array that grows with
the run.
"""

import numpy as np


def integrate_delayed(mat, y0, delay_steps, nsteps, dt, blow_threshold):
    """Integrate y' = mat @ y(t - delay_steps*dt) from constant history y0.

    Classical 4th-order one-step scheme; since the right-hand side depends only
    on the delayed state, each step reduces to Simpson quadrature with the
    midpoint value obtained by cubic Hermite interpolation of the stored
    history. Returns (states, last_valid_index); the run stops early when any
    |state| exceeds blow_threshold or turns non-finite, and rows after
    last_valid_index are not meaningful.
    """
    d = delay_steps
    # d leading rows hold the constant history, so row j is time (j - d) * dt
    # and every midpoint before t = 0 is exactly y0
    states = np.empty((d + nsteps + 1, y0.shape[0]))
    states[:d + 1] = y0
    # derivatives at rows s..s+d, where row j's is mat @ states[j - d]; carried
    # from one window to the next instead of stored for the whole run
    f = np.tile(mat @ y0, (d + 1, 1))
    for s in range(0, nsteps, d):
        e = min(s + d, nsteps)
        # steps s..e-1 read the delayed nodes s..e, all at or before step s
        ymid = (0.5 * (states[s:e] + states[s + 1:e + 1])
                + (dt / 8.0) * (f[:e - s] - f[1:e - s + 1]))
        # rows s+d..e+d; row s+d closed the previous block
        f = np.concatenate([f[-1:], states[s + 1:e + 1] @ mat.T])
        # k1 of each step is the k4 of the step before it
        states[s + d + 1:e + d + 1] = (dt / 6.0) * (f[:-1] + 4.0 * (ymid @ mat.T) + f[1:])
        window = states[s + d:e + d + 1]
        np.cumsum(window, axis=0, out=window)
        bad = _first_bad_row(window[1:], blow_threshold)
        if bad is not None:
            return states[d:], s + 1 + bad
    return states[d:], nsteps


def integrate_undelayed(mat, y0, nsteps, dt, blow_threshold):
    """Classical RK4 for y' = mat @ y (the tau = 0 reduction).

    For a linear right-hand side one RK4 step is y <- P y with the fixed
    polynomial P = I + hM (I + hM/2 (I + hM/3 (I + hM/4))).
    """
    hm = dt * mat
    eye = np.eye(mat.shape[0])
    step = eye + hm @ (eye + hm @ (eye + hm @ (eye + hm / 4.0) / 3.0) / 2.0)
    states = np.empty((nsteps + 1, y0.shape[0]))
    states[0] = y0
    for s in range(nsteps):
        states[s + 1] = step @ states[s]
        if _first_bad_row(states[s + 1:s + 2], blow_threshold) is not None:
            return states, s + 1
    return states, nsteps


def _first_bad_row(rows, blow_threshold):
    """Index of the first row with a non-finite entry or one whose |value|
    exceeds blow_threshold; None if there is none."""
    peak = np.abs(rows).max(axis=1)
    bad = np.flatnonzero(~np.isfinite(peak) | (peak > blow_threshold))
    return int(bad[0]) if bad.size else None
