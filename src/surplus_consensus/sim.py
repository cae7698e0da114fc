"""Simulation of the delayed network dynamics with consensus metrics."""

import json
import random
from dataclasses import dataclass

import numpy as np

from . import _integrator
from .errors import InvalidConfig

CONSENSUS_TOLERANCE = 1e-4
DEFAULT_DIVERGENCE_THRESHOLD = 1e6
# rows formatted per write: at n = 40, 64 rows keep the writer's own
# allocations under 0.4 MB, against 12.8 MB of states in a 20,000-step run
CSV_BLOCK_ROWS = 64
MAX_SEED = 2**32 - 1
# the most values of the states array simulate allocates, 800 MB: a tiny dt or
# a long horizon would otherwise fail allocating or run for hours
MAX_STATE_VALUES = 10**8


@dataclass(frozen=True)
class SimConfig:
    tau: float
    x0: np.ndarray
    z0: np.ndarray = None
    dt: float = None
    t_final: float = 40.0
    divergence_threshold: float = DEFAULT_DIVERGENCE_THRESHOLD

    def resolved(self):
        """Fill defaults (z0 = 0, dt = tau/50 or 1e-2) and validate invariants.

        Returns (x0, z0, dt, delay_steps, nsteps), nsteps = round(t_final/dt)."""
        for name in ("tau", "dt", "t_final"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise InvalidConfig("%s must be finite, got %r" % (name, float(value)))
        if not self.divergence_threshold > 0:
            raise InvalidConfig("divergence_threshold must be positive, got %r"
                                % (float(self.divergence_threshold),))
        x0 = np.asarray(self.x0, dtype=float)
        if x0.ndim != 1 or x0.size == 0:
            raise InvalidConfig("x0 must be a non-empty 1-D array, got shape %r" % (x0.shape,))
        z0 = np.zeros_like(x0) if self.z0 is None else np.asarray(self.z0, dtype=float)
        if z0.shape != x0.shape:
            raise InvalidConfig("x0 and z0 must have the same length")
        dt = self.dt
        if dt is None:
            dt = self.tau / 50.0 if self.tau > 0 else 1e-2
        if dt <= 0:
            raise InvalidConfig("dt must be positive, got %r" % (dt,))
        if self.tau < 0:
            raise InvalidConfig("tau must be non-negative, got %r" % (self.tau,))
        if self.t_final <= 0 or self.t_final < self.tau:
            raise InvalidConfig("t_final must be positive and at least tau")
        # (delay_steps + nsteps + 1) x 2n values, counted in floats so that a
        # tiny dt gives a huge count or inf, not an exception
        if ((self.tau + self.t_final) / dt + 1) * 2 * x0.size > MAX_STATE_VALUES:
            raise InvalidConfig("the run would hold more than %d state values; "
                                "raise dt or shorten t_final" % MAX_STATE_VALUES)
        nsteps = int(round(self.t_final / dt))
        if nsteps < 1:
            raise InvalidConfig("t_final must be at least one step dt")
        delay_steps = 0
        if self.tau > 0:
            ratio = self.tau / dt
            delay_steps = int(round(ratio))
            if abs(ratio - delay_steps) > 1e-9 * max(1.0, ratio):
                raise InvalidConfig(
                    "tau/dt = %r must be an integer for history alignment" % (ratio,)
                )
            if delay_steps < 10:
                raise InvalidConfig("tau/dt must be at least 10, got %d" % delay_steps)
        return x0, z0, float(dt), delay_steps, nsteps


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    consensus_error: np.ndarray
    conservation_drift: np.ndarray
    verdict: str
    decision_time: float
    convergence_time: float  # None when the last sample is above the tolerance
    target: float
    t_final: float  # the horizon integrated, nsteps * dt with nsteps = round(t_final / dt)


def simulate(m, cfg):
    """Integrate the delayed dynamics and grade the run.

    The run settles at the first sample from which the consensus error stays
    below CONSENSUS_TOLERANCE to the end, a NaN counting as above: that is
    convergence_time, None if the last sample is above. Verdict: 'diverged' when
    any state exceeds the divergence threshold or turns non-finite; 'converged',
    at the window's end, when the settled stretch spans a window of 5% of
    t_final; otherwise 'inconclusive'.
    """
    x0, z0, dt, delay_steps, nsteps = cfg.resolved()
    n = x0.size
    if m.shape[0] != 2 * n:
        raise InvalidConfig("system dimension %d does not match x0 length %d"
                            % (m.shape[0], 2 * n))
    target = float((x0.sum() + z0.sum()) / n)  # the invariant (1'x0 + 1'z0) / n
    y0 = np.ascontiguousarray(np.concatenate([x0, z0]))
    mat = np.ascontiguousarray(m)
    if delay_steps > 0:
        states, last = _integrator.integrate_delayed(
            mat, y0, delay_steps, nsteps, dt, cfg.divergence_threshold)
    else:
        states, last = _integrator.integrate_undelayed(
            mat, y0, nsteps, dt, cfg.divergence_threshold)
    states = states[:last + 1]
    times = dt * np.arange(last + 1)

    # max |x - target| without an n-column temporary: rounding is monotone and
    # fl(a - b) = -fl(b - a), so this is exact, NaN and inf included
    x = states[:, :n]
    err = np.maximum(x.max(axis=1) - target, target - x.min(axis=1))
    total0 = y0.sum()
    drift = np.abs(states.sum(axis=1) - total0)

    above = np.flatnonzero(~(err < CONSENSUS_TOLERANCE))
    settle = above[-1] + 1 if above.size else 0
    window = max(1, int(round(0.05 * cfg.t_final / dt)))
    verdict, decision_time = "inconclusive", times[-1]
    if last < nsteps:
        verdict = "diverged"
    elif settle + window <= last:
        verdict, decision_time = "converged", times[settle + window]
    return Trajectory(times=times, states=states, consensus_error=err,
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


def write_trajectory_csv(traj, path):
    """One row per sample, t, x, z, error and drift, each formatted "%.17g":
    the bytes of np.savetxt on the full table, written CSV_BLOCK_ROWS rows at
    a time so that no copy of the trajectory is built."""
    n = traj.states.shape[1] // 2
    header = (["t"] + ["x%d" % i for i in range(1, n + 1)]
              + ["z%d" % i for i in range(1, n + 1)]
              + ["consensus_error", "conservation_drift"])
    row_fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, traj.times.size, CSV_BLOCK_ROWS):
            rows = slice(i, i + CSV_BLOCK_ROWS)
            block = np.hstack([traj.times[rows, None], traj.states[rows],
                               traj.consensus_error[rows, None],
                               traj.conservation_drift[rows, None]])
            fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def write_metadata(traj, cfg, path, extra):
    """Write the run's configuration and grades as sorted JSON; extra adds what
    simulate does not see, such as epsilon, the graph and the seed."""
    x0, z0, dt, _, _ = cfg.resolved()
    doc = {
        "tau": cfg.tau,
        "dt": dt,
        "t_final": traj.t_final,
        "x0": list(x0),
        "z0": list(z0),
        "consensus_tolerance": CONSENSUS_TOLERANCE,
        "divergence_threshold": cfg.divergence_threshold,
        "verdict": traj.verdict,
        "decision_time": traj.decision_time,
        "consensus_target": traj.target,
        "convergence_time": traj.convergence_time,
    }
    doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
