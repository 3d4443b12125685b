"""Time stepping for the stochastic delayed system.

The scheme is explicit Euler for the drift, a multiplicative Brownian
increment, and a compensated compound-Poisson jump increment, per species i:

    S' = S + f_i(S, delays)*dt + sigma_i*S*sqrt(dt)*Z_i + q_i*S*(dN - lambda*dt)

with Z_i independent standard normals and dN the Poisson count of jump
arrivals during the step, one count shared by all species.
Multiple arrivals within a step collapse into the count, which is exact for
the compensator at first order. A step with j arrivals therefore scales S
by 1 + q_i*(j - lambda*dt), about 1 + q_i*j, and not by the model's
(1 + q_i)^j, so for q_i <= -1/j it sends a positive species to the floor
below in one step (ROADMAP item 10). Strong order is 0.5 in the noise, and
the scheme reduces to explicit Euler on the deterministic core when all
noise is switched off.

Delay taps are resolved on the time grid: each positive delay, and the
horizon t_end, must be a whole multiple of dt (anything else is rejected),
which removes interpolation error at the taps and ends every run exactly at
t_end. A positivity floor of 1e-12 applies whenever a positive component's
update falls below it, also while the update is still positive, so it is a
lower barrier for a species that dies out and not only a guard against
Euler overshooting below zero (on the extinct preset 4 to 6% of steps per
species sit at it). Every clamp is counted so the artifact stays
observable. Components that are exactly zero stay zero: the origin is
absorbing under purely multiplicative terms, and clamping a true zero
upward would re-seed an extinct population.

Two drivers run this update through the function _stepper returns, its one
definition, with the run's constants bound in once, and give the same
numbers bit for bit. Both take their random numbers from _draws, the only
code that draws them, a chunk of steps at a time from each replicate's own
streams: _DRAW_CHUNK = 512 steps for up to 256 replicates, and for a wider
block of B 512 * 256 // B steps (_chunk_steps), so that its draw arrays
stay the size of a 256-wide block's. A generator draws its chunks in
sequence, so the chunk length moves no value. A run of one chunk builds
each generator, draws from it and drops it before building the next; a
longer run keeps them between chunks. A block builds and draws only the
streams whose draws can move its states: none of the Gaussian ones when
every sigma is 0, none of the jump ones when lambda is 0; it steps on zeros
instead, with the same result. simulate always builds both, so its stream
count and a fault's reported normals do not depend on the noise; a faulting
block that drew no normals draws the named replicate's, so both drivers
report a fault in the same words (_fault_text). simulate steps one
replicate on Python floats. It keeps only a window of its grid record, the
kmax + 1 rows a step reads and a bounded spare (_window), and writes each
draw chunk's rows straight into the returned path, so it holds about 32
bytes per step; it refuses a horizon whose window and path would exceed 1
GiB (_check_horizon). _simulate_batch steps a block of replicates on arrays
and writes its stats-grid rows and running averages straight into the
caller's rows; ensemble.run_ensemble decides which driver runs. It reads
delay taps from a ring buffer of kmax + 1 grid rows, so its own memory is
bounded by the block size and the delays, not by the horizon or the stats
grid, also when a replicate faults; _block_bytes gives that bound.
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

# value a positive component is clamped to when its update falls below it
_POSITIVITY_FLOOR = 1e-12

# memory a run may claim up front: simulate's record window and path, and an
# ensemble's path statistics and delay ring
_MAX_BYTES = 1 << 30

# bytes of one grid record row: an 8-byte list slot and a 24-byte float per
# species
_ROW_BYTES = 3 * (8 + 24)

# bytes simulate holds per step at its peak: the returned path's row (24 for
# the states, 8 for the time) and 8 that pays for the record rows its window
# keeps past the kmax + 1 a step reads (_window) and for list growth.
# tracemalloc's peak over a fig1 run, divided by its steps, reads 32.5 at
# 10^5 steps and 32.0 at 10^6; the draws and the window's spare rows, made
# _DRAW_CHUNK steps at a time, add a fixed amount that does not grow with
# the horizon
_STEP_BYTES = 24 + 8 + 8

# steps of draws materialised at once by both drivers, for a block of up to
# _DRAW_WIDTH replicates; a wider block draws proportionally fewer steps at
# a time (_chunk_steps), so its draw arrays stay the size of a 256-wide one's
_DRAW_CHUNK = 512
_DRAW_WIDTH = 256

# bytes one generator holds, as tracemalloc counts them (777 to 796 per
# generator in blocks of 256 to 2048)
_STREAM_BYTES = 1 << 10

# bytes per replicate of _simulate_batch's per-step arrays (the update's
# temporaries, the new state and the running sums) and of rng.streams' hash
# lanes: tracemalloc reads 130 to 155 at 2048 to 5000 replicates, and 512
# also covers the block's fixed lists (its stats-grid marks) over 64
_STEP_ARRAY_BYTES = 1 << 9

# numpy's POISSON_LAM_MAX: Generator.poisson refuses a larger mean
_POISSON_LAM_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


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

    Callers append each new state and copy the rows into their path, and
    _window drops the rows no step reads again, so the record holds about
    kmax + 1 rows whatever the horizon.
    """
    rows = max(lag_steps(d, c.dt)) + 1
    return [h.x0] * rows, [h.y0] * rows, [h.z0] * rows


def _window(record: tuple[list[float], ...], path: np.ndarray, a: int, b: int, keep: int) -> None:
    """Copy the last b - a rows of the grid record (xs, ys, zs) into path[a:b],
    then drop all but the last ``keep`` once max(_DRAW_CHUNK, keep // 32)
    more have piled up: a drop moves the kept rows, so spacing the drops by
    keep // 32 steps or more keeps the cost O(1) per step at any delay."""
    for col, series in enumerate(record):
        path[a:b, col] = series[len(series) - (b - a):]
        if len(series) >= keep + max(_DRAW_CHUNK, keep // 32):
            del series[:-keep]


def _path(states: np.ndarray, dt: float, jump_events: int, floor_hits: int) -> Trajectory:
    """``states`` as a Trajectory on the grid t = 0, dt, ...; the times are
    scaled in place, so they cost 8 bytes per row at their peak."""
    times = np.arange(len(states), dtype=float)
    times *= dt
    return Trajectory(times, states, jump_events, floor_hits)


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


def _trajectory_bytes(c: StepConfig, d: DelaySpec) -> int:
    """Bytes simulate holds at its peak: the window of its grid record (the
    kmax + 1 rows init_history fills, then _window's spare) and path."""
    return c.n_steps * _STEP_BYTES + (max(lag_steps(d, c.dt)) + 1) * _ROW_BYTES


def _check_horizon(
    c: StepConfig, d: DelaySpec, remedy: str = "lower t_end or the delays, or raise dt",
    midpoints: int = 0,
) -> int:
    """simulate's window and path bytes (_trajectory_bytes), plus the
    reference solver's ``midpoints`` bytes; ValueError naming t_end and dt
    when they would exceed _MAX_BYTES, FieldError when a positive delay is
    off the dt grid."""
    rows = max(lag_steps(d, c.dt)) + 1
    nbytes = _trajectory_bytes(c, d) + midpoints
    _check_bytes(
        f"simulation too large: {c.n_steps} steps (t_end={c.t_end!r}, dt={c.dt!r})",
        nbytes, f"grid record ({rows} history rows){', midpoints' if midpoints else ''} and path",
        remedy,
    )
    return nbytes


def _stepper(p: ModelParams, n: NoiseSpec, dt: float):
    """The step update with the run's rates, noise and step bound in once:
    advance(x, y, z, xd1, yd2, xd3, yd3, z1, z2, z3, j) returns the three
    candidate values before floor handling, on the step's shared jump count
    j, for floats and (B,) arrays alike."""
    r1, r2, ik1, ik2, a1, a2 = p.r1, p.r2, 1.0 / p.k1, 1.0 / p.k2, p.a1, p.a2
    al1, al2, al3, beta, delta = p.alpha1, p.alpha2, p.alpha3, p.beta, p.delta
    sqdt = math.sqrt(dt)
    s1, s2, s3 = n.sigma1 * sqdt, n.sigma2 * sqdt, n.sigma3 * sqdt
    q1, q2, q3, lam_dt = n.q1, n.q2, n.q3, n.lam * dt

    def advance(x, y, z, xd1, yd2, xd3, yd3, z1, z2, z3, j):
        fx = r1 * x * (1.0 - xd1 * ik1) - al1 * x * z + beta * x * y * z
        fy = r2 * y * (1.0 - yd2 * ik2) - al2 * y * z + beta * x * y * z
        fz = -delta * z - al3 * z * z + a1 * xd3 * z + a2 * yd3 * z
        dn = j - lam_dt
        nx = x + fx * dt + s1 * x * z1 + q1 * x * dn
        ny = y + fy * dt + s2 * y * z2 + q2 * y * dn
        nz = z + fz * dt + s3 * z * z3 + q3 * z * dn
        return nx, ny, nz

    return advance


def _chunk_steps(width: int) -> int:
    """Steps _draws draws at once for a block of width replicates."""
    return max(1, _DRAW_CHUNK * _DRAW_WIDTH // max(width, _DRAW_WIDTH))


def _block_bytes(width: int, n_steps: int, rows: int) -> int:
    """Bytes _simulate_batch holds for a block of width replicates over
    n_steps with a ring of rows grid rows: the ring, a draw chunk, the
    per-step arrays and, when the run takes more than one chunk, the
    generators (two per replicate at most), which a one-chunk run builds and
    drops one at a time. It grows with width: a wider block draws fewer
    steps at a time, but never more step-replicates than a 256-wide one."""
    draws = min(n_steps * width, _DRAW_CHUNK * min(width, _DRAW_WIDTH)) * 4 * 8
    streams = 2 * _STREAM_BYTES if n_steps > _chunk_steps(width) else 0
    return draws + width * (rows * 3 * 8 + _STEP_ARRAY_BYTES + streams)


def _draws(seed: int, reps: Sequence[int], n: NoiseSpec, dt: float, n_steps: int,
           gauss: bool = True, jumps: bool = True):
    """Every random number of a run: yields chunks of at most
    _chunk_steps(B) steps, a (3, steps, B) float array of normals, species
    first so that a driver unpacks a step into three columns, and a
    (steps, B) int64 array of Poisson counts, one per step shared by all
    species, with column b from replicate reps[b]'s own (seed, k) streams.
    A generator draws its chunks in sequence, so chunks of any length give
    the same values as one full-horizon draw; a yielded chunk is valid
    until the next one. The generators come from rng.streams, one
    vectorised pass per purpose for a block and rng.stream for a single
    replicate, the same streams either way. A run of one chunk builds each
    generator, draws from it and drops it before building the next, so it
    holds one at a time; a longer run keeps them all between its chunks.
    With gauss false the normals, and with jumps false the counts, are
    zeros: their streams are neither built nor drawn."""
    size = min(_chunk_steps(len(reps)), n_steps)
    gaussians = rng.streams(seed, reps, rng.GAUSSIAN) if gauss else ()
    poissons = rng.streams(seed, reps, rng.JUMPS) if jumps else ()
    if n_steps > size:  # each later chunk draws from them again
        gaussians, poissons = list(gaussians), list(poissons)
    lam_dt = n.lam * dt
    normals = np.zeros((3, size, len(reps)))
    counts = np.zeros((size, len(reps)), dtype=np.int64)
    for start in range(0, n_steps, size):
        m = min(size, n_steps - start)
        for b, g in enumerate(gaussians):
            normals[:, :m, b] = g.standard_normal((m, 3)).T
        for b, g in enumerate(poissons):
            counts[:m, b] = g.poisson(lam_dt, m)
        yield normals[:, :m], counts[:m]


def _check_jump_rate(n: NoiseSpec, dt: float) -> None:
    """FieldError on lam when _draws' Poisson mean lam * dt is over numpy's
    limit, which numpy would report only at the first draw."""
    if n.lam * dt > _POISSON_LAM_MAX:
        raise FieldError("NoiseSpec", "lam", "* dt must be at most numpy's Poisson limit "
                         f"{_POISSON_LAM_MAX!r}", n.lam)


def _fault_text(i: int, dt: float, state, normals, j: int) -> str:
    """simulate's message for a state that turns non-finite in step i (from
    t = i*dt), given the state before the step and the step's draws."""
    x, y, z = state
    z1, z2, z3 = normals
    return (
        f"non-finite state at t={(i + 1) * dt:g}: from ({x:g},{y:g},{z:g}), "
        f"normals=({z1:g},{z2:g},{z3:g}), jumps={j}"
    )


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
    xs, ys, zs = record = init_history(h, d, c)
    keep = len(xs)
    states = np.empty((n_steps + 1, 3))
    states[0] = xs[-1], ys[-1], zs[-1]
    dt = c.dt
    floor = _POSITIVITY_FLOOR
    advance = _stepper(p, n, dt)
    jump_events = 0
    floor_hits = 0
    isfinite = math.isfinite
    done = 0  # steps taken, and the path row of the current state
    # both streams, even one whose draws cannot move a state: the fault
    # message names the normals, and perfbench/test_perfbench.py pins two
    # rng.stream calls per replicate on a scalar ensemble with sigma = 0
    for normals, counts in _draws(c.seed, [replicate], n, dt, n_steps):
        base = len(xs) - 1 - done  # the record index of t = 0
        js = counts[:, 0].tolist()
        for i, z1, z2, z3, j in zip(range(done, done + len(js)), *normals[:, :, 0].tolist(), js):
            m = base + i
            x, y, z = xs[m], ys[m], zs[m]
            nx, ny, nz = advance(x, y, z, xs[m - k1], ys[m - k2], xs[m - k3], ys[m - k3], z1, z2, z3, j)
            if not (isfinite(nx) and isfinite(ny) and isfinite(nz)):
                raise SimulationError(_fault_text(i, dt, (x, y, z), (z1, z2, z3), j))
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
        jump_events += np.count_nonzero(counts)
        _window(record, states, done + 1, done + 1 + len(js), keep)
        done += len(js)

    return _path(states, dt, jump_events, floor_hits)


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
    paths: np.ndarray,
    terminal: np.ndarray,
) -> int:
    """The batched driver: steps the B = len(reps) replicates ``reps`` together.

    Writes the states at the grid indices ``stat_idx`` (which start at 0
    and end at n_steps) into the caller's (B, len(stat_idx), 3) ``paths``
    and the terminal running averages into its (B, 3) ``terminal``; returns
    the floor clamps summed over the block. Every value is bit for bit what
    simulate and analysis.time_average give replicate k: the draws come
    from _draws as simulate's do (zeros for a stream whose draws cannot
    move a state), _stepper's update runs on (B,) arrays, the clamp
    applies by mask, and the trapezoid sums keep time_average's operation
    order, 0.5*(s1 + s0)*(t1 - t0) added in sequence and divided by N*dt at
    the end. Delay taps read a ring buffer of kmax + 1 grid rows, filled
    from the history's constants, so the driver's own memory is bounded by
    B and the delays (_block_bytes, which run_ensemble charges), not by the
    horizon or the stats grid. A replicate whose
    state turns non-finite is set to 0 in the step and in every ring row,
    where it stays, since the origin is absorbing; the block steps on, up
    to its first replicate's fault, and then raises SimulationError for the
    lowest faulting replicate k: "replicate k: " and simulate's message,
    its normals drawn afresh when the block drew none.
    """
    k1, k2, k3 = lag_steps(d, c.dt)
    width = len(reps)
    rows = max(k1, k2, k3) + 1
    ring = np.empty((rows, 3, width))  # grid rows of (species, replicate), t = 0 last
    ring[:] = [[h.x0], [h.y0], [h.z0]]
    dt = c.dt
    n_steps = c.n_steps
    advance = _stepper(p, n, dt)
    floor = _POSITIVITY_FLOOR

    marks = [int(k) for k in stat_idx]
    paths[:, 0] = ring[-1].T
    mark = 1
    sums = np.zeros((3, width))
    floor_hits = 0
    faults = {}  # column -> (step, state before it, normals, count) of its fault
    # build and draw only the streams whose draws can move a state
    gauss = any((n.sigma1, n.sigma2, n.sigma3))
    steps = chain.from_iterable(
        zip(*normals, counts)
        for normals, counts in _draws(c.seed, reps, n, dt, n_steps, gauss, n.lam != 0)
    )
    for i, (z1, z2, z3, j) in enumerate(steps):
        m = rows - 1 + i  # grid index of the current state
        cur = ring[m % rows]
        new = np.array(advance(
            cur[0], cur[1], cur[2],
            ring[(m - k1) % rows, 0], ring[(m - k2) % rows, 1],
            ring[(m - k3) % rows, 0], ring[(m - k3) % rows, 1],
            z1, z2, z3, j,
        ))
        lo, hi = new.min(), new.max()  # NaN if any value is NaN
        if not -math.inf < lo <= hi < math.inf:
            bad = ~np.isfinite(new).all(axis=0)
            for b in np.flatnonzero(bad).tolist():
                faults[b] = (i, cur[:, b].tolist(), (z1[b], z2[b], z3[b]), j[b])
            if 0 in faults:
                break
            new[:, bad] = 0.0  # the origin is absorbing: the column stays 0
            ring[:, :, bad] = 0.0
            lo = new.min()  # finite again, so the clamp test below sees the others
        if lo < floor:
            clamp = (new < floor) & (cur > 0.0)
            new[clamp] = floor
            floor_hits += int(np.count_nonzero(clamp))
        sums += 0.5 * (new + cur) * ((i + 1) * dt - i * dt)
        ring[(m + 1) % rows] = new
        if i + 1 == marks[mark]:
            paths[:, mark] = new.T
            mark += 1
    if faults:
        b = min(faults)
        i, state, normals, j = faults[b]
        if not gauss:  # simulate reports the normals it drew
            for chunk, _ in _draws(c.seed, [reps[b]], n, dt, i + 1, jumps=False):
                normals = chunk[:, -1, 0].tolist()
        raise SimulationError(f"replicate {reps[b]}: {_fault_text(i, dt, state, normals, j)}")
    terminal[:] = (sums / (n_steps * dt)).T
    return floor_hits
