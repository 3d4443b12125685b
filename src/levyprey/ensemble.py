"""Monte Carlo replicate sets and empirical regime verification.

Replicate k draws from streams derived from (seed, k), so its path does not
depend on how many replicates run beside it or on which driver steps it, and
replicates never share randomness. Per-gridpoint statistics (mean,
standard deviation, 2.5/50/97.5% quantiles) are collected on a decimated
stats grid to keep memory bounded on long horizons, and an ensemble whose
path statistics and delay ring (below) would still exceed 1 GiB is refused
before any replicate runs. Terminal running averages are computed exactly on the full
integration grid, since those are what the regime predictions speak about.

Below _BATCH_MIN = 64 replicates, replicates run one at a time through
engine.simulate. From 64 up, they run in blocks through
engine._simulate_batch, which steps a block together on arrays. Its numpy
calls cost about the same per step whatever the block size, so on one core
it overtakes the scalar loop between 32 and 50 replicates (persist, ns per
step-replicate, scalar vs batched: 1842 vs 1887 at 32, 1871 vs 1296 at 50,
1852 vs 1050 at 64). 64 is the first power of two past that crossover.
Blocks are consecutive runs of replicate indices, at most _BATCH_MAX = 256
long, which bounds the generators (two per replicate at most) and the
draws a block holds, and split evenly, so each has at least 64 (257 runs
as 129 + 128).

Either way the tasks (replicates, or blocks when there are two or more) run
in contiguous shares over the usable cores (len(os.sched_getaffinity(0))):
parallel.run_tasks runs the first share here and each other in a forked
child, which holds its share's stats-grid rows and terminal averages until
the share is done and then sends them as raw bytes, read straight into this
process's arrays. A replicate draws only from its own streams, so the
numbers do not depend on the cores. Work below parallel._FORK_MIN = 10000
step-replicates (replicates times steps), where a fork costs more than it
saves, runs here, as does everything on one core and a single block (64 to
256 replicates), whose fixed per-step numpy cost a split would pay twice. On
a 2-core Xeon VM this takes 8 persist replicates of 50000 steps
(ensemble_long) from 1.14 to 0.63 s, and 5000 replicates of 10 steps in 20
blocks (ensemble_wide) from 0.110 to 0.081 s. Apart from stepping, a
replicate's main cost is building its generators: a block builds them with
rng.streams in one vectorised pass per purpose, about 4 µs per generator,
where the scalar driver's rng.stream takes about 24 µs. A block builds and
draws only the streams whose draws can move its states: no Gaussian ones
when every sigma is 0, no jump ones when lambda is 0, so criterion 07's
compensator check (sigma 0) builds half of them. engine.simulate, which
runs the scalar driver and a faulting block's re-run, builds both for every
replicate, and its fault message names the normals it drew. Both drivers
give the same numbers bit for bit, and a block's memory is bounded by the
block, its draw chunk and its delay ring, not by the horizon. The ring holds kmax + 1
grid rows of 3 floats per replicate (about 6 KB per row for a block of 256);
the widest block's ring counts toward the 1 GiB limit, which holds in total
over the processes: blocks spread over the cores only while the statistics,
one more copy of them for the children's shares and a ring per process fit
in it, and otherwise run here one after another. A block that meets a
non-finite state runs again one replicate at a time through engine.simulate
in the process that ran it, so the fault names the same replicate, the
lowest faulting index, on any number of cores.
Since any replicate may run through simulate, every ensemble must fit
simulate's horizon limit, and one that does not is refused before any
replicate runs, whatever its size. That limit bounds one trajectory, so the
one-at-a-time driver holds up to one trajectory per core at once.

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
from typing import Sequence

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
    _in_range("run_ensemble", "n_reps", n_reps, low=1, any_int=True)
    n_points = c.n_steps + 1
    stats_stride = max(1, math.ceil(n_points / _MAX_STAT_POINTS))
    stat_idx = np.arange(0, n_points, stats_stride)
    if stat_idx[-1] != n_points - 1:
        stat_idx = np.append(stat_idx, n_points - 1)
    # from _BATCH_MIN up, blocks are consecutive runs of indices, at most
    # _BATCH_MAX long and as even as possible; a block holds a delay ring
    # of kmax + 1 grid rows per replicate
    n_blocks = -(-n_reps // _BATCH_MAX)
    width = -(-n_reps // n_blocks) if n_reps >= _BATCH_MIN else 0
    ring_rows = max(engine.lag_steps(d, c.dt)) + 1
    engine._check_bytes(
        f"ensemble too large: n_reps={n_reps} x {len(stat_idx)} stat points",
        (n_reps * len(stat_idx) + width * ring_rows) * 3 * 8,
        "path statistics and delay ring", "lower n_reps",
    )
    engine._check_horizon(c, d)

    paths = np.empty((n_reps, len(stat_idx), 3))
    terminal = np.empty((n_reps, 3))

    def replicate(k: int) -> int:
        """The scalar driver: fills row k with replicate k's stats-grid rows and
        terminal average; returns its floor clamps."""
        try:
            traj = engine.simulate(p, n, d, h, c, replicate=k)
        except SimulationError as exc:
            raise SimulationError(f"replicate {k}: {exc}") from exc
        paths[k], terminal[k] = traj.states[stat_idx], time_average(traj).terminal
        return traj.floor_hits

    def block(a: int, b: int) -> int:
        """The batched driver: fills rows a to b - 1; returns their floor clamps."""
        try:
            paths[a:b], terminal[a:b], hits = engine._simulate_batch(
                p, n, d, h, c, range(a, b), stat_idx
            )
        except SimulationError:
            # one at a time, here, the block stops at the replicate that the
            # scalar path would name
            hits = sum(replicate(k) for k in range(a, b))
        return hits

    def spread(tasks: Sequence[partial[int]], rows: Sequence[int]) -> int:
        """Runs tasks that fill the rows rows[0] to rows[-1] - 1 over the
        usable cores; returns their floor clamps."""
        done, fault = parallel.run_tasks(
            tasks, (rows[-1] - rows[0]) * c.n_steps, fill=(paths, terminal), rows=rows
        )
        if fault is not None:
            raise fault
        return sum(done)

    if n_reps < _BATCH_MIN:
        floor_total = spread([partial(replicate, k) for k in range(n_reps)], range(n_reps + 1))
    else:
        # np.array_split's layout: the first n_reps % n_blocks blocks are one longer
        size, longer = divmod(n_reps, n_blocks)
        bounds = [i * size + min(i, longer) for i in range(n_blocks + 1)]
        blocks = [partial(block, a, b) for a, b in zip(bounds, bounds[1:])]
        # spread, every process holds a ring, and the children hold their
        # shares' rows, together less than one more copy of the statistics
        shares = min(parallel.usable_cores(), n_blocks)
        if (2 * n_reps * len(stat_idx) + shares * width * ring_rows) * 3 * 8 <= engine._MAX_BYTES:
            floor_total = spread(blocks, bounds)
        else:
            floor_total = sum(task() for task in blocks)

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
        floor_hits_total=floor_total,
        provenance=parameter_fingerprint(p, n, d),
    )


@dataclass(frozen=True)
class VerificationOutcome:
    """Empirical check of a predicted regime against ensemble medians."""

    regime: Regime
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
        return VerificationOutcome(
            regime=report.predicted, checkable=False, passed=None, details=tuple(details)
        )

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
    return VerificationOutcome(
        regime=report.predicted, checkable=True, passed=passed, details=tuple(details)
    )
