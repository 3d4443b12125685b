"""Unit tests for Monte Carlo aggregation and regime verification."""

import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levyprey import (
    DelaySpec,
    EnsembleStats,
    HistorySpec,
    ModelParams,
    NoiseSpec,
    PRESETS,
    StepConfig,
    classify,
    run_ensemble,
    simulate,
    time_average,
    verify_regime,
)
from conftest import assert_no_children
from levyprey import SimulationError, engine, ensemble
from levyprey.config import parse_config
from levyprey.model import parameter_fingerprint

PARAMS = ModelParams(r1=0.5, r2=0.5, k1=100.0, k2=100.0, alpha1=1e-3, alpha2=1e-3,
                     alpha3=0.2, beta=0.0, delta=0.02, a1=0.1, a2=0.1)
NOISE = NoiseSpec(1e-3, 1e-3, 1e-3, -0.04, -0.006, -0.008, lam=1.0)
NOISE_OFF = NoiseSpec(0, 0, 0, 0, 0, 0, lam=0.0)
DELAYS = DelaySpec(0.5, 1.0, 1.5)
HIST = HistorySpec(5, 5, 5)
CFG = StepConfig(dt=0.01, t_end=5.0, seed=0)


class TestRunEnsemble:
    def test_deterministic_limit_degenerate_stats(self):
        stats = run_ensemble(PARAMS, NOISE_OFF, DELAYS, HIST, replace(CFG, seed=1), n_reps=8)
        single = simulate(PARAMS, NOISE_OFF, DELAYS, HIST, StepConfig(dt=0.01, t_end=5.0, seed=1))
        # identical replicates: quantiles are order statistics, hence bit-exact;
        # mean/sd see summation roundoff only (a few ulps)
        assert np.array_equal(stats.q025, stats.q975)
        assert np.max(stats.sd) < 1e-12
        idx = np.searchsorted(single.times, stats.stat_times)
        assert np.max(np.abs(stats.mean - single.states[idx])) < 1e-12

    def test_singleton_ensemble(self):
        stats = run_ensemble(PARAMS, NOISE, DELAYS, HIST, replace(CFG, seed=4), n_reps=1)
        assert np.array_equal(stats.mean, stats.q500)
        assert np.all(stats.sd == 0.0)
        assert stats.terminal_averages.shape == (1, 3)

    def test_terminal_average_matches_direct_computation(self):
        stats = run_ensemble(PARAMS, NOISE, DELAYS, HIST, replace(CFG, seed=11), n_reps=3)
        for k in range(3):
            traj = simulate(PARAMS, NOISE, DELAYS, HIST,
                            StepConfig(dt=0.01, t_end=5.0, seed=11), replicate=k)
            assert np.array_equal(stats.terminal_averages[k], time_average(traj).terminal)

    def test_quantiles_ordered_and_mean_bounded(self):
        stats = run_ensemble(PARAMS, NOISE, DELAYS, HIST, replace(CFG, seed=2), n_reps=32)
        assert np.all(stats.q025 <= stats.q500 + 1e-15)
        assert np.all(stats.q500 <= stats.q975 + 1e-15)
        assert np.all(stats.mean <= stats.q975 + stats.sd * 10 + 1e-9)

    def test_nonpositive_reps_rejected(self):
        with pytest.raises(ValueError, match="n_reps"):
            run_ensemble(PARAMS, NOISE, DELAYS, HIST, CFG, n_reps=0)

    def test_stats_stride_includes_endpoint(self):
        # 2004 grid points decimate with stride 2, which skips the last point
        # unless it is appended
        cfg = StepConfig(dt=0.01, t_end=20.03, seed=0)
        stats = run_ensemble(PARAMS, NOISE, DELAYS, HIST, cfg, n_reps=2)
        assert stats.stat_times[0] == 0.0
        assert stats.stat_times[-1] == pytest.approx(20.03)
        assert len(stats.stat_times) == 1003

    def test_oversized_ensemble_fails_before_allocating(self, monkeypatch):
        # 100k replicates x 2001 stat points x 3 doubles is about 4.5 GiB
        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate ran")

        real_empty = np.empty

        def small_empty(shape, *args, **kwargs):
            assert np.prod(shape) * 8 < 2**30, f"allocated {shape}"
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(ensemble.engine, "simulate", no_replicate)
        monkeypatch.setattr(np, "empty", small_empty)
        sc = PRESETS["persist"]
        cfg = StepConfig(dt=sc.dt, t_end=500.0)
        with pytest.raises(ValueError, match=r"n_reps=100000 x 2001 stat points needs 4\.47 GiB"):
            run_ensemble(sc.params, sc.noise, sc.delays, sc.history, cfg,
                         n_reps=100_000)

    @pytest.mark.parametrize("n_reps", [8, 64, 257])
    def test_slab_reduction_equals_whole_array(self, n_reps, monkeypatch):
        # slabs of 100, 12 and 3 stat points: 301 points end in a short
        # slab; the t = 0 row is the same in every replicate, as in a real
        # ensemble
        monkeypatch.setattr(ensemble, "_STAT_SLAB_BYTES", 100 * 8 * 3 * 8)
        paths = np.random.default_rng(n_reps).lognormal(size=(n_reps, 301, 3))
        paths[:, 0] = 5.0
        mean, sd, q025, q500, q975 = ensemble._path_stats(paths)
        whole = np.quantile(paths, (0.025, 0.5, 0.975), axis=0)
        assert np.array_equal(mean, paths.mean(axis=0))
        assert np.array_equal(sd, paths.std(axis=0, ddof=1))
        assert np.array_equal(np.stack([q025, q500, q975]), whole)

    def test_peak_memory_near_path_statistics(self):
        # 2000 replicates in 8 blocks: the path statistics, one block's
        # stats-grid rows (1/8) and its draw chunk (about 1/16) at most;
        # reducing the whole array at once used to add a second full copy
        sc = PRESETS["persist"]
        cfg = StepConfig(dt=sc.dt, t_end=20.0)
        tracemalloc.start()
        try:
            stats = run_ensemble(sc.params, sc.noise, sc.delays, sc.history, cfg,
                                 n_reps=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stats_bytes = 2000 * len(stats.stat_times) * 3 * 8
        assert peak <= 1.25 * stats_bytes

    def test_long_horizon_decimates_stats_grid(self):
        # 20000 integration steps decimate to <= ~2000 stats points; the
        # terminal averages still come from the full grid
        cfg = StepConfig(dt=0.01, t_end=200.0, seed=5)
        stats = run_ensemble(PARAMS, NOISE, DELAYS, HIST, cfg, n_reps=2)
        assert len(stats.stat_times) <= 2002
        assert stats.stat_times[-1] == pytest.approx(200.0)
        traj = simulate(PARAMS, NOISE, DELAYS, HIST, cfg, replicate=0)
        assert np.array_equal(stats.terminal_averages[0], time_average(traj).terminal)


def _reference(p, n, d, h, c, n_reps, stat_idx):
    """run_ensemble's statistics from a plain loop over simulate and
    time_average, with the paths read at the grid indices stat_idx."""
    paths = np.empty((n_reps, len(stat_idx), 3))
    terminal = np.empty((n_reps, 3))
    floor_hits = 0
    for k in range(n_reps):
        traj = simulate(p, n, d, h, c, replicate=k)
        paths[k] = traj.states[stat_idx]
        terminal[k] = time_average(traj).terminal
        floor_hits += traj.floor_hits
    q025, q500, q975 = np.quantile(paths, (0.025, 0.5, 0.975), axis=0)
    return {
        "stat_times": traj.times[stat_idx], "mean": paths.mean(axis=0),
        "sd": paths.std(axis=0, ddof=1), "q025": q025, "q500": q500, "q975": q975,
        "terminal_averages": terminal, "floor_hits_total": floor_hits,
    }


_LAGS = ((0.0, 0.0, 0.0), (0.5, 1.0, 1.5), (0.05, 0.0, 0.1))


class TestBatchedDriver:
    """From 64 replicates run_ensemble steps blocks of replicates together
    (engine._simulate_batch); every number must equal the scalar loop's."""

    @settings(max_examples=12, deadline=None)
    @given(
        n_reps=st.sampled_from([64, 65, 257]),
        steps=st.sampled_from([3, 40, 600]),  # 600 spans two draw chunks
        lags=st.sampled_from(_LAGS),
        sigma=st.sampled_from([1e-3, 3.0]),  # 3.0 overshoots below zero often
        seed=st.integers(0, 2**32),
    )
    @example(n_reps=257, steps=600, lags=_LAGS[1], sigma=3.0, seed=1)
    @example(n_reps=65, steps=600, lags=_LAGS[0], sigma=1e-3, seed=2)
    @example(n_reps=64, steps=40, lags=_LAGS[2], sigma=3.0, seed=3)
    # 2004 grid points: the stats grid takes every second one, then the last
    @example(n_reps=64, steps=2003, lags=_LAGS[1], sigma=1e-3, seed=4)
    def test_equals_scalar_loop(self, n_reps, steps, lags, sigma, seed):
        dt = 0.05
        noise = NoiseSpec(sigma, 1e-3, sigma, -0.04, -0.006, -0.008, lam=1.0)
        delays = DelaySpec(*lags)
        cfg = StepConfig(dt=dt, t_end=steps * dt, seed=seed)
        stat_idx = list(range(steps + 1)) if steps < 2001 else [*range(0, steps, 2), steps]
        want = _reference(PARAMS, noise, delays, HIST, cfg, n_reps, stat_idx)
        stats = run_ensemble(PARAMS, noise, delays, HIST, cfg, n_reps)
        for field, value in want.items():
            assert np.array_equal(getattr(stats, field), value), field

    def test_integer_history_steps_as_float(self):
        # the batched ring is an array of the history's values: integers
        # stored as given would make it int64 and truncate every state
        ints, floats = HistorySpec(10, 10, 5), HistorySpec(10.0, 10.0, 5.0)
        assert all(type(v) is float for v in vars(ints).values())
        a = run_ensemble(PARAMS, NOISE, DELAYS, ints, CFG, n_reps=64)
        b = run_ensemble(PARAMS, NOISE, DELAYS, floats, CFG, n_reps=64)
        for field in ("stat_times", "mean", "sd", "q025", "q500", "q975", "terminal_averages"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert a.floor_hits_total == b.floor_hits_total
        one = simulate(PARAMS, NOISE, DELAYS, ints, CFG, replicate=5)
        assert np.array_equal(one.states, simulate(PARAMS, NOISE, DELAYS, floats, CFG, replicate=5).states)

    def test_seed_beyond_32_bits_agrees_with_simulate(self):
        # a seed of 2**32 hashes one more entropy word, so its blocks build
        # their streams one replicate at a time
        cfg = replace(CFG, seed=2**32)
        stats = run_ensemble(PARAMS, NOISE, DELAYS, HIST, cfg, n_reps=64)
        traj = simulate(PARAMS, NOISE, DELAYS, HIST, cfg, replicate=41)
        assert np.array_equal(stats.terminal_averages[41], time_average(traj).terminal)

    def test_threshold_picks_the_driver(self, monkeypatch, cores):
        # 63 replicates run through simulate, 64 never call it; on one core,
        # so that every call is made in this process
        cores(1)
        calls = []
        real = engine.simulate

        def counted(*args, **kwargs):
            calls.append(kwargs["replicate"])
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "simulate", counted)
        run_ensemble(PARAMS, NOISE, DELAYS, HIST, CFG, n_reps=63)
        assert calls == list(range(63))
        calls.clear()
        run_ensemble(PARAMS, NOISE, DELAYS, HIST, CFG, n_reps=64)
        assert calls == []

    def test_blocks_are_even_consecutive_slices_of_the_schedule(self, monkeypatch):
        blocks = []
        real = engine._simulate_batch

        def recorded(p, n, d, h, c, reps, stat_idx):
            blocks.append(list(reps))
            return real(p, n, d, h, c, reps, stat_idx)

        monkeypatch.setattr(engine, "_simulate_batch", recorded)
        short = StepConfig(dt=0.01, t_end=0.02)
        run_ensemble(PARAMS, NOISE, DELAYS, HIST, short, n_reps=257)
        assert blocks == [list(range(129)), list(range(129, 257))]
        blocks.clear()
        run_ensemble(PARAMS, NOISE, DELAYS, HIST, short, n_reps=600)
        assert [len(b) for b in blocks] == [200, 200, 200]
        assert sum(blocks, []) == list(range(600))

    # a block draws no normals when every sigma is 0 and no counts when lam
    # is 0; simulate draws both, so each case must still match it exactly,
    # down to the sign of every zero
    ZERO_STREAMS = {
        "sigma0": (NoiseSpec(0, 0, 0, -0.04, -0.006, -0.008, lam=1.0), HIST),
        "lam0": (NoiseSpec(3.0, 1e-3, 3.0, -0.04, -0.006, -0.008, lam=0.0), HIST),
        "off": (NOISE_OFF, HIST),
        # about 1700 floor clamps per lag set
        "clamps": (NoiseSpec(0, 0, 0, -0.9, 3.0, -0.5, lam=2.0), HIST),
        # with a -0.0 history value a block draws its normals: with x, y and
        # z all -0.0 a normal's +-0 decides the sign of x and y at step 1,
        # and so of q025's
        "zeros": (NoiseSpec(0, 0, 0, -0.04, -0.006, -0.008, lam=1.0), HistorySpec(0.0, -0.0, 5.0)),
        "origin": (NoiseSpec(0, 0, 0, 0.3, 0.3, 0.3, lam=0.0), HistorySpec(-0.0, -0.0, -0.0)),
    }

    @pytest.mark.parametrize("lags", _LAGS[:2])
    @pytest.mark.parametrize("case", ZERO_STREAMS)
    def test_zero_streams_equal_scalar_loop(self, case, lags):
        noise, hist = self.ZERO_STREAMS[case]
        delays, cfg = DelaySpec(*lags), StepConfig(dt=0.1, t_end=10.0, seed=3)
        stat_idx = list(range(cfg.n_steps + 1))
        want = _reference(PARAMS, noise, delays, hist, cfg, 64, stat_idx)
        stats = run_ensemble(PARAMS, noise, delays, hist, cfg, 64)
        for field, value in want.items():
            got = getattr(stats, field)
            assert np.array_equal(got, value), field
            assert np.array_equal(np.signbit(got), np.signbit(value)), field
        if case == "clamps":
            assert stats.floor_hits_total > 1000

    @pytest.mark.parametrize(
        ("noise", "hist", "n_reps", "built"),
        [
            (ZERO_STREAMS["sigma0"][0], HIST, 64, {engine.rng.JUMPS}),
            (ZERO_STREAMS["lam0"][0], HIST, 64, {engine.rng.GAUSSIAN}),
            (NOISE_OFF, HIST, 64, set()),
            (NOISE_OFF, HistorySpec(5.0, -0.0, 5.0), 64, {engine.rng.GAUSSIAN}),
            (NOISE_OFF, HIST, 63, {engine.rng.GAUSSIAN, engine.rng.JUMPS}),
        ],
        ids=["sigma0", "lam0", "off", "negative-zero", "scalar"],
    )
    def test_builds_only_the_streams_that_can_move_a_state(self, monkeypatch, cores,
                                                           noise, hist, n_reps, built):
        # on one core, so that every stream is built in this process
        cores(1)
        made = []
        real = engine.rng.streams

        def recorded(seed, reps, purpose):
            made.extend((purpose, k) for k in reps)
            return real(seed, reps, purpose)

        monkeypatch.setattr(engine.rng, "streams", recorded)
        run_ensemble(PARAMS, noise, DELAYS, hist, CFG, n_reps)
        assert sorted(made) == [(purpose, k) for purpose in sorted(built) for k in range(n_reps)]


class TestFanOut:
    """Below 64 replicates, contiguous shares of the replicates run on the
    usable cores, the first in this process; every number must equal the
    in-process run's, and a fault must name the same replicate."""

    FIELDS = ("stat_times", "mean", "sd", "q025", "q500", "q975", "terminal_averages", "floor_hits_total")

    @pytest.mark.parametrize("n_reps", [2, 8, 63])
    def test_equals_in_process_run(self, cores, n_reps):
        # sigma = 3 overshoots below zero often, so the floor clamps count
        noise = NoiseSpec(3.0, 1e-3, 3.0, -0.04, -0.006, -0.008, lam=1.0)
        runs = []
        for n_cores in (1, 2):
            cores(n_cores)
            runs.append(run_ensemble(PARAMS, noise, DELAYS, HIST, CFG, n_reps))
        assert runs[0].floor_hits_total > 0
        for field in self.FIELDS:
            assert np.array_equal(getattr(runs[0], field), getattr(runs[1], field)), field
        assert_no_children()

    @pytest.mark.parametrize("n_reps", [4, 16])
    def test_fault_names_the_lowest_faulting_replicate(self, cores, n_reps):
        # fig3 over 20 days: replicates 3, 8, 11, 12 and 15 explode. At 16
        # replicates replicate 3 is in this process's share; at 4 (shares
        # [0, 1] and [2, 3]) only in the child's
        cfg = parse_config("preset = fig3\nt_end = 20\n")
        parts = (cfg.to_params(), cfg.to_noise(), cfg.to_delays(), cfg.to_history(), cfg.to_step_config())
        errors = []
        for n_cores in (1, 2):
            cores(n_cores)
            with pytest.raises(SimulationError) as info:
                run_ensemble(*parts, n_reps)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("replicate 3: non-finite state at t=19.37: ")
        assert_no_children()


class TestSpreadBlocks:
    """From two blocks up, contiguous shares of the blocks run on the usable
    cores, the first in this process; every number must equal the
    in-process run's, and a fault must name the same replicate."""

    @pytest.mark.parametrize("n_reps, own", [(257, [range(129)]), (600, [range(200), range(200, 400)])])
    def test_equals_in_process_run(self, cores, monkeypatch, n_reps, own):
        # 257 runs as 129 + 128, one block a share; 600 as three blocks of
        # 200, two in this process and one in the child. sigma = 3 overshoots
        # below zero often, so the floor clamps count
        noise = NoiseSpec(3.0, 1e-3, 3.0, -0.04, -0.006, -0.008, lam=1.0)
        blocks = []
        real = engine._simulate_batch

        def recorded(p, n, d, h, c, reps, stat_idx):
            blocks.append(reps)  # only the blocks that this process runs
            return real(p, n, d, h, c, reps, stat_idx)

        monkeypatch.setattr(engine, "_simulate_batch", recorded)
        runs = []
        for n_cores in (1, 2):
            cores(n_cores)
            blocks.clear()
            runs.append(run_ensemble(PARAMS, noise, DELAYS, HIST, CFG, n_reps))
        assert blocks == own
        assert runs[0].floor_hits_total > 0
        for field in TestFanOut.FIELDS:
            assert np.array_equal(getattr(runs[0], field), getattr(runs[1], field)), field
        assert_no_children()

    def test_fault_in_the_childs_share(self, cores, monkeypatch):
        # fig3 over 13 days, seed 2: of 257 replicates only 236 and 255
        # explode, both in the second block, which the child runs. 255 does
        # so first, but the block runs again one replicate at a time, in the
        # child and without forking again, and names 236
        cfg = parse_config("preset = fig3\nt_end = 13\nseed = 2\n")
        parts = (cfg.to_params(), cfg.to_noise(), cfg.to_delays(), cfg.to_history(), cfg.to_step_config())
        parent, forks = os.getpid(), []
        real_fork = os.fork

        def fork():
            if os.getpid() != parent:
                raise AssertionError("a worker process forked")
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        errors = []
        for n_cores in (1, 2):
            cores(n_cores)
            with pytest.raises(SimulationError) as info:
                run_ensemble(*parts, 257)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("replicate 236: non-finite state at t=12.74: ")
        assert len(forks) == 1
        assert_no_children()

    def test_near_the_limit_blocks_run_in_process(self, cores, monkeypatch):
        # 257 replicates (129 + 128) with the limit at exactly what one
        # process holds: the ensemble runs, but a second process's share of
        # rows and ring would not fit, so nothing forks; one byte less and
        # it is refused
        def fork():
            raise AssertionError("an ensemble over the limit forked")

        want = run_ensemble(PARAMS, NOISE, DELAYS, HIST, CFG, 257)
        ring_rows = max(engine.lag_steps(DELAYS, CFG.dt)) + 1
        held = (257 * len(want.stat_times) + 129 * ring_rows) * 3 * 8
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(engine, "_MAX_BYTES", held)
        cores(2)
        got = run_ensemble(PARAMS, NOISE, DELAYS, HIST, CFG, 257)
        for field in TestFanOut.FIELDS:
            assert np.array_equal(getattr(want, field), getattr(got, field)), field
        monkeypatch.setattr(engine, "_MAX_BYTES", held - 1)
        with pytest.raises(ValueError, match="ensemble too large"):
            run_ensemble(PARAMS, NOISE, DELAYS, HIST, CFG, 257)


class TestVerifyRegime:
    def _stats_with(self, terminal, provenance):
        terminal = np.asarray(terminal, dtype=float)
        m = np.zeros((2, 3))
        return EnsembleStats(
            n_replicates=len(terminal), stat_times=np.array([0.0, 1.0]),
            mean=m, sd=m, q025=m, q500=m, q975=m,
            terminal_averages=terminal, floor_hits_total=0, provenance=provenance,
        )

    def test_indeterminate_not_checkable(self):
        sc = PRESETS["fig2"]
        report = classify(sc.params, sc.noise, sc.delays)
        stats = self._stats_with([[1, 1, 1]], report.provenance)
        out = verify_regime(stats, report)
        assert not out.checkable
        assert out.passed is None

    def test_all_persist_slack_arithmetic(self):
        sc = PRESETS["persist"]
        report = classify(sc.params, sc.noise, sc.delays)
        # observed medians at 0.95 clear (1 - 0.2) * 0.98039 = 0.78431
        stats = self._stats_with([[0.95, 0.95, 0.95]], report.provenance)
        out = verify_regime(stats, report)
        assert out.checkable and out.passed

    def test_all_persist_failure_detected(self):
        sc = PRESETS["persist"]
        report = classify(sc.params, sc.noise, sc.delays)
        stats = self._stats_with([[0.95, 0.5, 0.95]], report.provenance)
        out = verify_regime(stats, report)
        assert out.checkable and not out.passed

    def test_extinction_pass(self):
        sc = PRESETS["extinct"]
        report = classify(sc.params, sc.noise, sc.delays)
        stats = self._stats_with([[0.01, 0.02, 0.01]], report.provenance)
        out = verify_regime(stats, report)
        assert out.checkable and out.passed

    def test_provenance_mismatch_rejected(self):
        sc = PRESETS["extinct"]
        report = classify(sc.params, sc.noise, sc.delays)
        stats = self._stats_with([[0.01, 0.02, 0.01]], "deadbeefdeadbeef")
        with pytest.raises(ValueError, match="provenance"):
            verify_regime(stats, report)

    def test_fingerprint_distinguishes_parameter_sets(self):
        a = parameter_fingerprint(PARAMS, NOISE, DELAYS)
        b = parameter_fingerprint(PARAMS, NOISE_OFF, DELAYS)
        c = parameter_fingerprint(PARAMS, NOISE, DELAYS)
        assert a != b
        assert a == c
