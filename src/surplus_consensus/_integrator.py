"""Fixed-step method-of-steps kernel for y'(t) = M y(t - tau), in numpy.

The right-hand side reads only the delayed state, so every step in a window
[s, s + d), d = tau/dt, depends on stored nodes at or before s alone (Bellen
and Zennaro, Numerical Methods for Delay Differential Equations, 2003). A
whole window is therefore two matrix products and one cumulative sum, and it
reads nothing older than the window before it. The kernel holds those two
windows and the derivatives at the d + 1 nodes a window reads, and hands each
window's rows to its caller, so nothing it holds grows with the run.
"""

import numpy as np


def integrate_delayed(mat, y0, delay_steps, nsteps, dt, blow_threshold, emit):
    """Integrate y' = mat @ y(t - delay_steps*dt) from constant history y0.

    Classical 4th-order one-step scheme; since the right-hand side depends only
    on the delayed state, each step reduces to Simpson quadrature with the
    midpoint value obtained by cubic Hermite interpolation of the stored
    history. The rows of the trajectory go to emit(start, rows) in order, row
    0 = y0 first, then each window's new rows as soon as the window is
    integrated; start is the index of rows[0], and rows a view that the next
    window overwrites. The run stops after the first row with an |entry| over
    blow_threshold or a non-finite one.
    Returns (block, last): the last window, ending at row last, the index of
    the last row emitted.
    """
    d = delay_steps
    # the window a step reads (rows s-d..s of the trajectory, the constant
    # history before t = 0) and the window it writes (rows s..s+d)
    prev = np.tile(y0, (d + 1, 1))
    cur = np.empty_like(prev)
    # the derivatives at the rows s-d..s a window reads, where row j's is
    # mat @ (row j - d); carried from one window to the next
    f = np.tile(mat @ y0, (d + 1, 1))
    emit(0, prev[d:])
    for s in range(0, nsteps, d):
        w = min(d, nsteps - s)
        # steps s..s+w-1 read the delayed nodes s-d..s-d+w, all at or before step s
        ymid = (0.5 * (prev[:w] + prev[1:w + 1])
                + (dt / 8.0) * (f[:w] - f[1:w + 1]))
        # the derivatives at rows s..s+w; row s's closed the previous block
        f = np.concatenate([f[-1:], prev[1:w + 1] @ mat.T])
        # k1 of each step is the k4 of the step before it
        cur[0] = prev[d]
        cur[1:w + 1] = (dt / 6.0) * (f[:-1] + 4.0 * (ymid @ mat.T) + f[1:])
        window = cur[:w + 1]
        # np.cumsum's Python wrapper allocates per call, which can refill the
        # interpreter's free lists as the run goes; the ufunc method does not
        np.add.accumulate(window, axis=0, out=window)
        bad = _first_bad_row(window[1:], blow_threshold)
        if bad is not None:
            emit(s + 1, window[1:bad + 2])
            return window[:bad + 2], s + 1 + bad
        emit(s + 1, window[1:])
        prev, cur = cur, prev
    return prev[:w + 1], nsteps


def _first_bad_row(rows, blow_threshold):
    """Index of the first row with a non-finite entry or one whose |value|
    exceeds blow_threshold; None if there is none. NaN fails the first test."""
    if np.abs(rows).max() <= blow_threshold:
        return None
    peak = np.abs(rows).max(axis=1)
    bad = np.flatnonzero(~np.isfinite(peak) | (peak > blow_threshold))
    return int(bad[0]) if bad.size else None
