"""Time stepping for the stochastic delayed system.

The scheme is explicit Euler for the drift, a multiplicative Brownian
increment, and a compensated compound-Poisson jump increment, per species i:

    S' = S + f_i(S, delays)*dt + sigma_i*S*sqrt(dt)*Z_i + q_i*S*(dN - lambda*dt)

with Z_i independent standard normals and dN the Poisson count of jump
arrivals during the step, one count shared by all species.
Multiple arrivals within a step collapse into the count, which is exact for
the compensator at first order. Strong order is 0.5 in the noise, and the
scheme reduces to explicit Euler on the deterministic core when all noise
is switched off.

Delay taps are resolved on the time grid: each positive delay, and the
horizon t_end, must be a whole multiple of dt (anything else is rejected),
which removes interpolation error at the taps and ends every run exactly at
t_end. A positivity floor of 1e-12 masks the rare discretization overshoot
below zero; every clamp is counted so the artifact stays observable.
Components that are exactly zero stay zero: the origin is absorbing under
purely multiplicative terms, and clamping a true zero upward would re-seed
an extinct population.

Two drivers run this update through _advance, its one definition, and give
the same numbers bit for bit. Both take their random numbers from _draws,
the only code that draws them, _DRAW_CHUNK steps at a time from each
replicate's own streams. A block builds and draws only the streams whose
draws can move its states: none of the Gaussian ones when every sigma is 0
(and no history value is -0.0), none of the jump ones when lambda is 0; it
steps on zeros instead, with the same result. simulate always builds both,
so its stream count and a fault's reported normals do not depend on the
noise. simulate steps one replicate on Python floats and
keeps its whole path, so it refuses a horizon whose grid record and path
would exceed 1 GiB (_check_horizon). _simulate_batch steps a block of
replicates on arrays and keeps only the stats-grid rows and the running
averages; ensemble.run_ensemble decides which driver runs. It reads delay
taps from a ring buffer of kmax + 1 grid rows, so its memory is bounded by
the block size, the delays and the draw chunk, not by the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from . import rng
from .model import DelaySpec, FieldError, HistorySpec, ModelParams, NoiseSpec, _in_range

__all__ = [
    "StepConfig",
    "Trajectory",
    "SimulationError",
    "init_history",
    "simulate",
]

# relative slack for every "is this value a whole number of steps" decision
_GRID_TOL = 1e-9

# value a positive component is clamped to when a step overshoots below zero
_POSITIVITY_FLOOR = 1e-12

# memory a run may claim up front: simulate's grid record and path, and an
# ensemble's path statistics and delay ring
_MAX_BYTES = 1 << 30

# bytes of one grid record row: an 8-byte list slot and a 24-byte float per
# species
_ROW_BYTES = 3 * (8 + 24)

# bytes simulate holds per step at its peak: the grid record row (96), the
# returned path's row (24 for the states, 8 for the time), the 8-byte integer
# row np.arange makes on the way, and 8 for list growth. tracemalloc's peak
# over a fig1 run, divided by its steps, reads 139.7 at 10^5 steps and 137.4
# at 10^6; the draws, made _DRAW_CHUNK steps at a time, add a fixed amount
# that does not grow with the horizon
_STEP_BYTES = _ROW_BYTES + 24 + 8 + 8 + 8

# steps of draws materialised at once, by both drivers
_DRAW_CHUNK = 512


class SimulationError(RuntimeError):
    """Integration fault: non-finite state or unusable step configuration."""


@dataclass(frozen=True)
class StepConfig:
    """Discretization: step size and horizon in days (t_end on the dt grid), RNG seed (>= 0)."""

    dt: float
    t_end: float
    seed: int = 0

    def __post_init__(self) -> None:
        _in_range("StepConfig", "dt", self.dt, strict=True)
        _in_range("StepConfig", "t_end", self.t_end, strict=True)
        _in_range("StepConfig", "seed", self.seed, any_int=True)
        _on_grid("StepConfig", "t_end", self.t_end, self.dt)

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass(frozen=True)
class Trajectory:
    """One integrated sample path on [0, t_end].

    times       uniform grid including t=0
    states      (n+1, 3) array of (x, y, z) per grid point, all >= 0
    jump_events number of steps with at least one jump arrival
    floor_hits  number of positivity-floor clamps across all steps
    """

    times: np.ndarray
    states: np.ndarray
    jump_events: int
    floor_hits: int

    @classmethod
    def from_grid(cls, xs: list[float], ys: list[float], zs: list[float], start: int,
                  dt: float, jump_events: int, floor_hits: int) -> "Trajectory":
        """The grid record from index ``start`` (t = 0) onward, as a path."""
        n = len(xs) - start
        states = np.empty((n, 3))
        states[:, 0] = xs[start:]
        states[:, 1] = ys[start:]
        states[:, 2] = zs[start:]
        return cls(np.arange(n) * dt, states, jump_events, floor_hits)

    @property
    def x(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def grid_steps(value: float, dt: float) -> int | None:
    """Whole number of steps k >= 1 with k*dt equal to value within the grid
    tolerance, or None when value is not a positive multiple of dt (also when
    value / dt is beyond float range, as for dt = 1e-320)."""
    try:
        k = round(value / dt)
    except OverflowError:
        return None
    if k < 1 or abs(k * dt - value) > _GRID_TOL * max(1.0, value):
        return None
    return k


def _on_grid(owner: str, field: str, value: float, dt: float) -> int:
    """grid_steps(value, dt), raising FieldError when value is off the grid."""
    k = grid_steps(value, dt)
    if k is None:
        raise FieldError(owner, field, f"must be divided evenly by dt = {dt:g}", value)
    return k


def lag_steps(d: DelaySpec, dt: float) -> tuple[int, int, int]:
    """Delay taps in whole steps; FieldError names a positive delay off the dt grid."""
    ks = []
    for name, tau in zip(("tau1", "tau2", "tau3"), d.taus):
        ks.append(0 if tau == 0.0 else _on_grid("DelaySpec", name, tau, dt))
    return (ks[0], ks[1], ks[2])


def init_history(
    h: HistorySpec, d: DelaySpec, c: StepConfig
) -> tuple[list[float], list[float], list[float]]:
    """The grid record (xs, ys, zs) at every grid point of [-tau_max, 0],
    each the history's constant; the last one is t = 0.

    Callers append each new state, and nothing is evicted: at the horizons
    this engine targets the full record is a few megabytes, and the path is
    read straight out of it (Trajectory.from_grid).
    """
    rows = max(lag_steps(d, c.dt)) + 1
    return [h.x0] * rows, [h.y0] * rows, [h.z0] * rows


def _check_bytes(what: str, nbytes: int, of: str, remedy: str) -> None:
    """ValueError "<what> needs X.XX GiB of <of> (limit 1 GiB); <remedy>" when
    nbytes is over _MAX_BYTES."""
    if nbytes > _MAX_BYTES:
        # hundredths of a GiB in integers, since nbytes may be beyond float range
        centi_gib = (nbytes * 100 + 2**29) // 2**30
        raise ValueError(
            f"{what} needs {centi_gib // 100}.{centi_gib % 100:02d} GiB of {of} "
            f"(limit {_MAX_BYTES / 2**30:g} GiB); {remedy}"
        )


def _check_horizon(
    c: StepConfig, d: DelaySpec, remedy: str = "lower t_end or the delays, or raise dt"
) -> None:
    """ValueError naming t_end and dt when simulate's grid record (the kmax + 1
    history rows init_history fills, then one row per step) and path would
    exceed _MAX_BYTES; FieldError when a positive delay is off the dt grid."""
    rows = max(lag_steps(d, c.dt)) + 1
    _check_bytes(
        f"simulation too large: {c.n_steps} steps (t_end={c.t_end!r}, dt={c.dt!r})",
        c.n_steps * _STEP_BYTES + rows * _ROW_BYTES,
        f"grid record ({rows} history rows) and path", remedy,
    )


def _advance(x, y, z, xd1, yd2, xd3, yd3, pk, z1, z2, z3, j):
    """One raw update on the step's shared jump count j. pk is the tuple
    prepared by _pack; returns the three candidate values before floor
    handling."""
    (r1, r2, ik1, ik2, a1, a2, al1, al2, al3, beta, delta, dt, s1, s2, s3, q1, q2, q3, lam_dt) = pk
    fx = r1 * x * (1.0 - xd1 * ik1) - al1 * x * z + beta * x * y * z
    fy = r2 * y * (1.0 - yd2 * ik2) - al2 * y * z + beta * x * y * z
    fz = -delta * z - al3 * z * z + a1 * xd3 * z + a2 * yd3 * z
    dn = j - lam_dt
    nx = x + fx * dt + s1 * x * z1 + q1 * x * dn
    ny = y + fy * dt + s2 * y * z2 + q2 * y * dn
    nz = z + fz * dt + s3 * z * z3 + q3 * z * dn
    return nx, ny, nz


def _pack(p: ModelParams, n: NoiseSpec, dt: float):
    sqdt = math.sqrt(dt)
    return (
        p.r1, p.r2, 1.0 / p.k1, 1.0 / p.k2, p.a1, p.a2,
        p.alpha1, p.alpha2, p.alpha3, p.beta, p.delta, dt,
        n.sigma1 * sqdt, n.sigma2 * sqdt, n.sigma3 * sqdt,
        n.q1, n.q2, n.q3, n.lam * dt,
    )


def _draws(seed: int, reps: Sequence[int], n: NoiseSpec, dt: float, n_steps: int,
           gauss: bool = True, jumps: bool = True):
    """Every random number of a run: yields chunks of at most _DRAW_CHUNK
    steps, a (3, steps, B) float array of normals, species first so that a
    driver unpacks a step into three columns, and a (steps, B) int64 array
    of Poisson counts, one per step shared by all species, with column b
    from replicate reps[b]'s own (seed, k) streams. Drawing in chunks gives
    the same values as one full-horizon draw; a yielded chunk is valid
    until the next one. The generators come from rng.streams, one
    vectorised pass per purpose for a block and rng.stream for a single
    replicate, the same streams either way. With gauss false the normals,
    and with jumps false the counts, are zeros: their streams are neither
    built nor drawn."""
    gaussians = rng.streams(seed, reps, rng.GAUSSIAN) if gauss else []
    poissons = rng.streams(seed, reps, rng.JUMPS) if jumps else []
    lam_dt = n.lam * dt
    size = min(_DRAW_CHUNK, n_steps)
    normals = np.zeros((3, size, len(reps)))
    counts = np.zeros((size, len(reps)), dtype=np.int64)
    for start in range(0, n_steps, size):
        m = min(size, n_steps - start)
        for b, g in enumerate(gaussians):
            normals[:, :m, b] = g.standard_normal((m, 3)).T
        for b, g in enumerate(poissons):
            counts[:m, b] = g.poisson(lam_dt, m)
        yield normals[:, :m], counts[:m]


def simulate(
    p: ModelParams,
    n: NoiseSpec,
    d: DelaySpec,
    h: HistorySpec,
    c: StepConfig,
    *,
    replicate: int = 0,
) -> Trajectory:
    """Integrate one sample path over [0, t_end].

    The Gaussian and Poisson draws come from disjoint streams derived from
    (c.seed, replicate), so identical inputs give bit-identical trajectories
    and toggling jumps leaves the Brownian path untouched.
    """
    k1, k2, k3 = lag_steps(d, c.dt)
    n_steps = c.n_steps
    _check_horizon(c, d)
    xs, ys, zs = init_history(h, d, c)
    dt = c.dt
    floor = _POSITIVITY_FLOOR
    pk = _pack(p, n, dt)
    base = len(xs) - 1  # index of t = 0
    jump_events = 0
    floor_hits = 0
    isfinite = math.isfinite
    # both streams, even one whose draws cannot move a state: the fault
    # message names the normals, and perfbench/test_perfbench.py pins two
    # rng.stream calls per replicate on a scalar ensemble with sigma = 0
    steps = chain.from_iterable(
        zip(*normals[:, :, 0].tolist(), counts[:, 0].tolist())
        for normals, counts in _draws(c.seed, [replicate], n, dt, n_steps)
    )

    for i, (z1, z2, z3, j) in enumerate(steps):
        m = base + i
        x, y, z = xs[m], ys[m], zs[m]
        nx, ny, nz = _advance(
            x,
            y,
            z,
            xs[m - k1],
            ys[m - k2],
            xs[m - k3],
            ys[m - k3],
            pk,
            z1,
            z2,
            z3,
            j,
        )
        if not (isfinite(nx) and isfinite(ny) and isfinite(nz)):
            raise SimulationError(
                f"non-finite state at t={(i + 1) * dt:g}: from ({x:g},{y:g},{z:g}), "
                f"normals=({z1:g},{z2:g},{z3:g}), jumps={j}"
            )
        if nx < floor and x > 0.0:
            nx = floor
            floor_hits += 1
        if ny < floor and y > 0.0:
            ny = floor
            floor_hits += 1
        if nz < floor and z > 0.0:
            nz = floor
            floor_hits += 1
        xs.append(nx)
        ys.append(ny)
        zs.append(nz)
        if j:
            jump_events += 1

    return Trajectory.from_grid(xs, ys, zs, base, dt, jump_events, floor_hits)


# an overflow shows as a non-finite state, as it does in simulate
@np.errstate(over="ignore", invalid="ignore")
def _simulate_batch(
    p: ModelParams,
    n: NoiseSpec,
    d: DelaySpec,
    h: HistorySpec,
    c: StepConfig,
    reps: Sequence[int],
    stat_idx: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, int]:
    """The batched driver: steps the replicates ``reps`` together, B =
    len(reps) of them.

    Returns the states at the grid indices ``stat_idx`` (which start at 0
    and end at n_steps) as a (B, len(stat_idx), 3) array, the terminal
    running averages (B, 3), and the floor clamps summed over the block.
    Every value is bit for bit what simulate and analysis.time_average give
    replicate k: the draws come from _draws as simulate's do (zeros for a
    stream whose draws cannot move a state), _advance does the
    update on (B,) arrays, the clamp applies by mask, and the trapezoid sums
    keep time_average's operation order, 0.5*(s1 + s0)*(t1 - t0) added in
    sequence and divided by N*dt at the end. Delay taps read a ring buffer
    of kmax + 1 grid rows (run_ensemble counts it toward its 1 GiB limit),
    so memory is bounded by B, the delays, the draw chunk and the stats
    grid, not by the horizon. A non-finite state raises
    SimulationError without naming the replicate; run_ensemble re-runs the
    block through simulate for that.
    """
    k1, k2, k3 = lag_steps(d, c.dt)
    width = len(reps)
    history = np.array(init_history(h, d, c)).T  # (kmax + 1, 3), t = 0 last
    rows = len(history)
    ring = np.repeat(history[:, :, None], width, axis=2)
    dt = c.dt
    n_steps = c.n_steps
    pk = _pack(p, n, dt)
    floor = _POSITIVITY_FLOOR

    marks = [int(k) for k in stat_idx]
    recorded = np.empty((len(marks), 3, width))
    recorded[0] = ring[-1]
    mark = 1
    sums = np.zeros((3, width))
    floor_hits = 0
    # build and draw only the streams whose draws can move a state. With
    # every sigma 0 a normal adds s*S*Z = +-0 to S + f*dt, and the sign of
    # that zero shows only where S + f*dt is -0.0, which needs S = -0.0, a
    # -0.0 history value. A Poisson count at rate 0 is always 0
    gauss = any((n.sigma1, n.sigma2, n.sigma3)) or any(
        math.copysign(1.0, v) < 0 for v in (h.x0, h.y0, h.z0)
    )
    steps = chain.from_iterable(
        zip(*normals, counts)
        for normals, counts in _draws(c.seed, reps, n, dt, n_steps, gauss, n.lam != 0)
    )
    for i, (z1, z2, z3, j) in enumerate(steps):
        m = rows - 1 + i  # grid index of the current state
        cur = ring[m % rows]
        new = np.array(_advance(
            cur[0], cur[1], cur[2],
            ring[(m - k1) % rows, 0], ring[(m - k2) % rows, 1],
            ring[(m - k3) % rows, 0], ring[(m - k3) % rows, 1],
            pk, z1, z2, z3, j,
        ))
        lo, hi = new.min(), new.max()  # NaN if any value is NaN
        if not -math.inf < lo <= hi < math.inf:
            raise SimulationError(f"non-finite state at t={(i + 1) * dt:g}")
        if lo < floor:
            clamp = (new < floor) & (cur > 0.0)
            new[clamp] = floor
            floor_hits += int(np.count_nonzero(clamp))
        sums += 0.5 * (new + cur) * ((i + 1) * dt - i * dt)
        ring[(m + 1) % rows] = new
        if i + 1 == marks[mark]:
            recorded[mark] = new
            mark += 1
    return recorded.transpose(2, 0, 1), (sums / (n_steps * dt)).T, floor_hits
