"""Monte Carlo replicate sets and empirical regime verification.

Replicate k draws from streams derived from (seed, k), so its path does not
depend on how many replicates run beside it or on which driver steps it, and
replicates never share randomness. Per-gridpoint statistics (mean,
standard deviation, 2.5/50/97.5% quantiles) are collected on a decimated
stats grid to keep memory bounded on long horizons, and an ensemble whose
path statistics and delay ring (below) would still exceed 1 GiB is refused
before any replicate runs. Terminal running averages are computed exactly on the full
integration grid, since those are what the regime predictions speak about.

Replicates run as a list of tasks, each filling a consecutive run of rows:
one replicate per task below _BATCH_MIN = 64 while simulate can keep their
paths (below), and otherwise blocks of at most _BATCH_MAX = 256, which
bounds the generators (two per replicate at most) and the draws a block
holds, split evenly, so from 64 up each has at least 64 (257 runs as 129 +
128). A block steps its replicates together through engine._simulate_batch,
on arrays; a task of one replicate runs it through engine.simulate. The
batched driver's numpy calls cost about the same per step whatever the
block size, so on one core it overtakes the scalar loop between 32 and 50
replicates (persist, ns per step-replicate, scalar vs batched: 1842 vs 1887
at 32, 1871 vs 1296 at 50, 1852 vs 1050 at 64). 64 is the first power of
two past that crossover.

The tasks run in contiguous shares over the usable cores
(len(os.sched_getaffinity(0))): parallel.run_tasks runs the first share
here and each other in a forked child, whose tasks write into its copy of
their rows, sent as raw bytes when the share is done and read straight
into this process's arrays. A replicate draws only
from its own streams, so the numbers do not depend on the cores. Work below
parallel._FORK_MIN = 10000 step-replicates (replicates times steps), where
a fork costs more than it saves, runs here, as does everything on one core
and a single block (64 to 256 replicates), whose fixed per-step numpy cost
a split would pay twice. Apart from stepping, a replicate's main cost is
building its generators: a block builds them with rng.streams in one
vectorised pass per purpose, about 4 µs per generator, where the scalar
driver's rng.stream takes about 24 µs. A block builds and draws only the
streams whose draws can move its states: no Gaussian ones when every sigma
is 0, no jump ones when lambda is 0, so criterion 07's compensator check
(sigma 0) builds half of them. engine.simulate, the scalar driver, builds
both for every replicate, and its fault message names the normals it drew.
Both drivers write straight into the ensemble's rows and give the same
numbers, and the same fault message, bit for bit. A block's
own memory is bounded by the block, its draw chunk and its delay ring, not
by the horizon: the ring holds kmax + 1 grid rows of 3 floats per replicate
(about 6 KB per row for a block of 256).

The 1 GiB limit holds in total over the processes, for both drivers. Each
process is charged the widest block's ring, or with no blocks one
trajectory of simulate, and the statistics are charged twice, here and for
the children's shares of rows; parallel.run_tasks applies the rule and runs
the tasks here one after another when the charges do not fit. _layout does
this arithmetic, also for ``sweep --mode ensemble``, whose value may spread
again and is charged both statistics and a hold per task. simulate keeps a
replicate's path while it runs, so below 64 replicates a run whose paths
would not fit its horizon limit steps as one block; a block keeps none,
whatever the horizon, so the horizon alone refuses no ensemble. A replicate
in a block that meets a non-finite state is held at 0 while the block steps
on, and the block names the lowest one itself, the same on any core count.

The asymptotic statements behind the regime classifier are checked at a
finite horizon with explicit tolerances: medians of terminal time averages
against an extinction ceiling and against slack-discounted persistence
bounds. The ceiling (0.05 population units) and the slack (0.2) are artifact
choices, fixed below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import engine, parallel
from .analysis import Regime, RegimeReport, time_average
from .engine import SimulationError, StepConfig
from .model import DelaySpec, HistorySpec, ModelParams, NoiseSpec, _in_range, parameter_fingerprint

__all__ = [
    "EnsembleStats",
    "VerificationOutcome",
    "run_ensemble",
    "verify_regime",
]

# cap on stats-grid points per ensemble; full grid is used when shorter
_MAX_STAT_POINTS = 2001

# the fewest replicates that run batched, and the most in one block
_BATCH_MIN = 64
_BATCH_MAX = 256

# most bytes of path statistics reduced at once into the pointwise statistics
_STAT_SLAB_BYTES = 8 << 20

# finite-horizon surrogates for the asymptotic claims: a median terminal time
# average below _EXTINCTION (population units) counts as "tends to zero", and
# a persistence lower bound holds when the median reaches (1 - _SLACK) * bound
_EXTINCTION = 0.05
_SLACK = 0.2


@dataclass(frozen=True)
class EnsembleStats:
    """Aggregated replicate statistics.

    stat_times         decimated time grid used for pointwise statistics
    mean, sd           (m, 3) pointwise mean and standard deviation
    q025, q500, q975   (m, 3) pointwise quantile band
    terminal_averages  (n_replicates, 3) terminal running average per replicate
    floor_hits_total   positivity clamps summed over all replicates
    """

    n_replicates: int
    stat_times: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    q025: np.ndarray
    q500: np.ndarray
    q975: np.ndarray
    terminal_averages: np.ndarray
    floor_hits_total: int
    provenance: str

    @property
    def terminal_medians(self) -> np.ndarray:
        """Median over replicates of the terminal time averages, per species."""
        return np.median(self.terminal_averages, axis=0)


def _path_stats(paths: np.ndarray) -> tuple[np.ndarray, ...]:
    """Pointwise mean, sd (ddof = 1; zero for one replicate) and 2.5/50/97.5%
    quantiles over the replicates of paths (R, m, 3), each (m, 3). They are
    reduced in slabs of stat points of at most _STAT_SLAB_BYTES (or one stat
    point), which gives the same values as reducing the whole array, while
    the copies that sd and the quantiles make are a slab's size instead of
    the whole array's. Statistics that fit in one slab are reduced whole:
    many small slabs fragment the heap, and a process that runs ensembles
    repeatedly then grows by about a megabyte."""
    n_reps, m, _ = paths.shape
    width = max(1, _STAT_SLAB_BYTES // (n_reps * 3 * 8))
    mean, sd, quantiles = np.empty((m, 3)), np.zeros((m, 3)), np.empty((3, m, 3))
    for a in range(0, m, width):
        b = a + width
        slab = paths[:, a:b]
        slab.mean(axis=0, out=mean[a:b])
        if n_reps > 1:
            slab.std(axis=0, ddof=1, out=sd[a:b])
        np.quantile(slab, (0.025, 0.5, 0.975), axis=0, out=quantiles[:, a:b])
    return (mean, sd, *quantiles)


def _layout(c: StepConfig, d: DelaySpec, n_reps: int) -> tuple[np.ndarray, int, list, int, int]:
    """run_ensemble's stats-grid indices, block width (0: a task per replicate), each task's rows
    (a, b), statistics bytes and bytes held per task; ValueError when they exceed the limit."""
    _in_range("run_ensemble", "n_reps", n_reps, low=1, any_int=True)
    n_points = c.n_steps + 1
    stats_stride = max(1, math.ceil(n_points / _MAX_STAT_POINTS))
    stat_idx = np.unique(np.append(np.arange(0, n_points, stats_stride), n_points - 1))
    # from _BATCH_MIN up, or when simulate could not keep the paths, blocks
    # are consecutive runs of indices, at most _BATCH_MAX long and as even as
    # possible; a block holds a delay ring of kmax + 1 grid rows per replicate
    n_blocks = -(-n_reps // _BATCH_MAX)
    path = engine._trajectory_bytes(c, d)
    scalar = n_reps < _BATCH_MIN and path <= engine._MAX_BYTES
    width = 0 if scalar else -(-n_reps // n_blocks)
    stats = n_reps * len(stat_idx) * 3 * 8
    ring = width * (max(engine.lag_steps(d, c.dt)) + 1) * 3 * 8
    engine._check_bytes(
        f"ensemble too large: n_reps={n_reps} x {len(stat_idx)} stat points",
        stats + ring, "path statistics and delay ring", "lower n_reps",
    )
    # a task per block, else per replicate, in np.array_split's layout: the
    # first n_reps % n_tasks are one longer
    n_tasks = n_blocks if width else n_reps
    size, longer = divmod(n_reps, n_tasks)
    bounds = [i * size + min(i, longer) for i in range(n_tasks + 1)]
    return stat_idx, width, list(zip(bounds, bounds[1:])), stats, ring if width else path


def run_ensemble(
    p: ModelParams,
    n: NoiseSpec,
    d: DelaySpec,
    h: HistorySpec,
    c: StepConfig,
    n_reps: int,
) -> EnsembleStats:
    """Run n_reps independent replicates and aggregate their statistics.

    Replicate k draws from (c.seed, k) and fills row k, so every statistic is
    a reduction over the index axis. A replicate that meets a non-finite
    state raises SimulationError naming it; when several would, the lowest
    index is named.
    """
    stat_idx, width, pairs, stats, hold = _layout(c, d, n_reps)
    paths = np.empty((n_reps, len(stat_idx), 3))
    terminal = np.empty((n_reps, 3))

    def task(a: int, b: int) -> int:
        """Fills rows a to b - 1 of paths and terminal (a block, or replicate
        a alone); returns their floor clamps."""
        if width:
            return engine._simulate_batch(
                p, n, d, h, c, range(a, b), stat_idx, paths[a:b], terminal[a:b]
            )
        try:
            traj = engine.simulate(p, n, d, h, c, replicate=a)
        except SimulationError as exc:
            raise SimulationError(f"replicate {a}: {exc}") from exc
        paths[a], terminal[a] = traj.states[stat_idx], time_average(traj)[-1]
        return traj.floor_hits

    # spread; the statistics count twice, here and for the children's rows
    done, fault = parallel.run_tasks(
        [partial(task, a, b) for a, b in pairs], n_reps * c.n_steps, hold,
        engine._MAX_BYTES - 2 * stats, fill=[(paths[a:b], terminal[a:b]) for a, b in pairs],
    )
    if fault is not None:
        raise fault

    mean, sd, q025, q500, q975 = _path_stats(paths)
    return EnsembleStats(
        n_replicates=n_reps,
        stat_times=stat_idx * c.dt,
        mean=mean,
        sd=sd,
        q025=q025,
        q500=q500,
        q975=q975,
        terminal_averages=terminal,
        floor_hits_total=sum(done),
        provenance=parameter_fingerprint(p, n, d),
    )


@dataclass(frozen=True)
class VerificationOutcome:
    """Empirical check of a predicted regime against ensemble medians."""

    checkable: bool
    passed: bool | None
    details: tuple[str, ...]


def verify_regime(stats: EnsembleStats, report: RegimeReport) -> VerificationOutcome:
    """Compare ensemble medians of terminal time averages to the prediction.

    Indeterminate predictions are not checkable (no sufficient condition
    applies), never pass/fail. Stats and report must come from the same
    parameter set.
    """
    if stats.provenance != report.provenance:
        raise ValueError(
            "provenance mismatch: ensemble stats and regime report come from "
            "different parameter sets"
        )
    med = stats.terminal_medians
    details: list[str] = [
        f"median terminal averages: <x> = {med[0]:.6g}, <y> = {med[1]:.6g}, "
        f"<z> = {med[2]:.6g} over {stats.n_replicates} replicates"
    ]

    if report.predicted is Regime.INDETERMINATE:
        details.append("no sufficient condition applies; nothing to verify")
        return VerificationOutcome(checkable=False, passed=None, details=tuple(details))

    if report.predicted is Regime.EXTINCTION_ALL:
        checks = [
            (f"<{s}> = {m:.6g} < {_EXTINCTION:g}", m < _EXTINCTION)
            for s, m in zip("xyz", med)
        ]
    elif report.predicted is Regime.PREDATOR_EXTINCT_PREY_PERSIST:
        assert report.lx is not None and report.ly is not None
        fx = (1.0 - _SLACK) * report.lx
        fy = (1.0 - _SLACK) * report.ly
        checks = [
            (f"<z> = {med[2]:.6g} < {_EXTINCTION:g}", med[2] < _EXTINCTION),
            (f"<x> = {med[0]:.6g} >= {fx:.6g}", med[0] >= fx),
            (f"<y> = {med[1]:.6g} >= {fy:.6g}", med[1] >= fy),
        ]
    else:  # AllPersist
        assert report.lx is not None and report.ly is not None and report.lz is not None
        targets = [(1.0 - _SLACK) * bound for bound in (report.lx, report.ly, report.lz)]
        checks = [
            (f"<{s}> = {m:.6g} >= {tgt:.6g}", m >= tgt)
            for s, m, tgt in zip("xyz", med, targets)
        ]

    passed = all(ok for _, ok in checks)
    details.extend(f"{text} -> {'ok' if ok else 'FAIL'}" for text, ok in checks)
    return VerificationOutcome(checkable=True, passed=passed, details=tuple(details))
