"""Simulation of the delayed network dynamics with consensus metrics."""

import contextlib
import random
from dataclasses import dataclass

import numpy as np

from . import _integrator
from .errors import InvalidConfig

CONSENSUS_TOLERANCE = 1e-4
DIVERGENCE_THRESHOLD = 1e6
# rows formatted per write: at n = 40, 32 rows keep the writer's own
# allocations near 0.2 MB, against 12.8 MB for all the rows of a 20,000-step
# run; _csv_format.format_rows holds about 8 bytes per byte of its block, so
# 64 rows take 0.4 MB
CSV_BLOCK_ROWS = 32
MAX_SEED = 2**32 - 1
# the most state values a run may compute, (tau/dt + t_final/dt + 1) x 2n: it
# bounds the run time, which a tiny dt or a long horizon would make hours
MAX_STATE_VALUES = 10**8


# == is identity: the generated == compares ndarray fields and raises
@dataclass(frozen=True, eq=False)
class SimConfig:
    tau: float
    x0: np.ndarray
    z0: np.ndarray = None
    dt: float = None
    t_final: float = 40.0

    def resolved(self):
        """Fill defaults (z0 = 0, dt = tau/50) and validate invariants.

        Returns (x0, z0, dt, delay_steps, nsteps), nsteps = round(t_final/dt)."""
        for name in ("tau", "dt", "t_final"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise InvalidConfig("%s must be finite, got %r" % (name, float(value)))
        x0 = np.asarray(self.x0, dtype=float)
        if x0.ndim != 1 or x0.size == 0:
            raise InvalidConfig("x0 must be a non-empty 1-D array, got shape %r" % (x0.shape,))
        z0 = np.zeros_like(x0) if self.z0 is None else np.asarray(self.z0, dtype=float)
        if z0.shape != x0.shape:
            raise InvalidConfig("x0 and z0 must have the same length")
        for name, values in (("x0", x0), ("z0", z0)):
            bad = values[~np.isfinite(values)]
            if bad.size:
                raise InvalidConfig("%s must be finite, got %r" % (name, float(bad[0])))
        # tau = 0 is y' = My, which the spectrum of M answers exactly
        if self.tau <= 0:
            raise InvalidConfig("tau must be positive, got %r" % (self.tau,))
        dt = self.tau / 50.0 if self.dt is None else self.dt
        if dt <= 0:
            raise InvalidConfig("dt must be positive, got %r" % (dt,))
        if self.t_final <= 0 or self.t_final < self.tau:
            raise InvalidConfig("t_final must be positive and at least tau")
        # (delay_steps + nsteps + 1) x 2n values, counted in floats so that a
        # tiny dt gives a huge count or inf, not an exception
        if ((self.tau + self.t_final) / dt + 1) * 2 * x0.size > MAX_STATE_VALUES:
            raise InvalidConfig("the run would compute more than %d state values; "
                                "raise dt or shorten t_final" % MAX_STATE_VALUES)
        nsteps = int(round(self.t_final / dt))
        if nsteps < 1:
            raise InvalidConfig("t_final must be at least one step dt")
        ratio = self.tau / dt
        delay_steps = int(round(ratio))
        if abs(ratio - delay_steps) > 1e-9 * max(1.0, ratio):
            raise InvalidConfig(
                "tau/dt = %r must be an integer for history alignment" % (ratio,)
            )
        if delay_steps < 10:
            raise InvalidConfig("tau/dt must be at least 10, got %d" % delay_steps)
        return x0, z0, float(dt), delay_steps, nsteps


# == is identity: the generated == compares ndarray fields and raises
@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray
    final_state: np.ndarray  # the 2n values (x, z) of the last sample
    consensus_error: np.ndarray
    conservation_drift: np.ndarray
    verdict: str
    decision_time: float
    convergence_time: float  # None when the last sample is above the tolerance
    target: float
    t_final: float  # the horizon integrated, nsteps * dt with nsteps = round(t_final / dt)


def simulate(m, cfg, csv_path=None):
    """Integrate the delayed dynamics and grade the run.

    The run settles at the first sample from which the consensus error stays
    below CONSENSUS_TOLERANCE to the end, a NaN counting as above: that is
    convergence_time, None if the last sample is above. Verdict: 'diverged' when
    any state exceeds DIVERGENCE_THRESHOLD or turns non-finite; 'converged',
    at the window's end, when the settled stretch spans a window of 5% of
    t_final; otherwise 'inconclusive'.

    Of the states, only the last row is kept, as final_state. With csv_path,
    every row goes to the trajectory CSV there, one delay window at a time as
    the run goes: a header line, then one row per sample, t, x, z, error and
    drift, each formatted "%.17g" byte for byte, by array arithmetic (see
    _csv_format.format_rows), and written as bytes.
    """
    x0, z0, dt, delay_steps, nsteps = cfg.resolved()
    n = x0.size
    if m.shape != (2 * n, 2 * n):
        raise InvalidConfig("system shape %r does not match x0 length %d, want %r"
                            % (m.shape, n, (2 * n, 2 * n)))
    target = float((x0.sum() + z0.sum()) / n)  # the invariant (1'x0 + 1'z0) / n
    y0 = np.ascontiguousarray(np.concatenate([x0, z0]))
    total0 = y0.sum()
    mat = np.ascontiguousarray(m)
    # the per-sample arrays, filled a block of rows at a time
    times, err, drift = np.empty(nsteps + 1), np.empty(nsteps + 1), np.empty(nsteps + 1)

    def take(start, rows):
        k = slice(start, start + rows.shape[0])
        times[k] = dt * np.arange(k.start, k.stop)
        # max |x - target| without an n-column temporary: rounding is monotone
        # and fl(a - b) = -fl(b - a), so this is exact, NaN and inf included
        x = rows[:, :n]
        err[k] = np.maximum(x.max(axis=1) - target, target - x.min(axis=1))
        drift[k] = np.abs(rows.sum(axis=1) - total0)
        if fh is not None:
            _write_rows(fh, times[k], rows, err[k], drift[k])

    with open(csv_path, "wb") if csv_path is not None else contextlib.nullcontext() as fh:
        if fh is not None:
            fh.write(_csv_header(n))
        block, last = _integrator.integrate_delayed(
            mat, y0, delay_steps, nsteps, dt, DIVERGENCE_THRESHOLD, take)
    times, err, drift = times[:last + 1], err[:last + 1], drift[:last + 1]

    # one past the last sample not below the tolerance, by the first one from
    # the end, without an index array as long as the run
    below = err < CONSENSUS_TOLERANCE
    settle = 0 if below.all() else last + 1 - int(np.argmin(below[::-1]))
    window = max(1, int(round(0.05 * cfg.t_final / dt)))
    verdict, decision_time = "inconclusive", times[-1]
    if last < nsteps:
        verdict = "diverged"
    elif settle + window <= last:
        verdict, decision_time = "converged", times[settle + window]
    return Trajectory(times=times, final_state=block[-1].copy(), consensus_error=err,
                      conservation_drift=drift, verdict=verdict,
                      decision_time=float(decision_time),
                      convergence_time=float(times[settle]) if settle <= last else None,
                      target=target, t_final=nsteps * dt)


def seeded_x0(seed, n):
    """n initial states drawn from seed, bit for bit
    np.random.RandomState(seed).uniform(0.0, 1.0, n).

    RandomState seeds MT19937 from an integer with init_genrand and draws a
    uniform with genrand_res53, a stream NEP 19 freezes; random.Random draws
    with the same genrand_res53, so only the seeding is rebuilt here, and
    numpy.random, whose import loads hashlib and OpenSSL, stays unloaded."""
    if not 0 <= seed <= MAX_SEED:
        raise InvalidConfig("seed must be in [0, %d], got %r" % (MAX_SEED, seed))
    key = [seed]
    for i in range(1, 624):
        prev = key[-1]
        key.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    rng = random.Random()
    # position 624: the first draw regenerates the whole key, as after seeding
    rng.setstate((3, tuple(key) + (624,), None))
    return np.array([rng.random() for _ in range(n)])


def _csv_header(n):
    return (",".join(["t"] + ["x%d" % i for i in range(1, n + 1)]
                     + ["z%d" % i for i in range(1, n + 1)]
                     + ["consensus_error", "conservation_drift"]) + "\n").encode("ascii")


def _write_rows(fh, times, states, err, drift):
    """Write to fh the CSV rows of the samples given, t, x, z, error and drift,
    CSV_BLOCK_ROWS rows at a time, so that no copy of all the rows is built."""
    # imported here: only a CSV run compiles the formatter and builds its tables
    from . import _csv_format

    for i in range(0, times.size, CSV_BLOCK_ROWS):
        rows = slice(i, i + CSV_BLOCK_ROWS)
        fh.write(_csv_format.format_rows(np.hstack([times[rows, None], states[rows],
                                                    err[rows, None], drift[rows, None]])))
