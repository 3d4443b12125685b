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
            assert np.array_equal(stats.terminal_averages[k], time_average(traj)[-1])

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
        # 2000 replicates as one block on one core, two on two: the path
        # statistics, which each block writes its rows into, and one block's
        # ring, draw chunk (the size of a 256-wide block's) and generators
        # (1.17x on one core, 1.11x on two, on Python 3.11); reducing the
        # whole array at once used to add a second full copy
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
        assert peak <= 1.25 * stats_bytes, (
            f"{peak / stats_bytes:.2f}x the statistics, {peak / (2000 * cfg.n_steps):.1f} B/step"
        )

    def test_long_horizon_decimates_stats_grid(self):
        # 20000 integration steps decimate to <= ~2000 stats points; the
        # terminal averages still come from the full grid
        cfg = StepConfig(dt=0.01, t_end=200.0, seed=5)
        stats = run_ensemble(PARAMS, NOISE, DELAYS, HIST, cfg, n_reps=2)
        assert len(stats.stat_times) <= 2002
        assert stats.stat_times[-1] == pytest.approx(200.0)
        traj = simulate(PARAMS, NOISE, DELAYS, HIST, cfg, replicate=0)
        assert np.array_equal(stats.terminal_averages[0], time_average(traj)[-1])


def _reference(p, n, d, h, c, n_reps, stat_idx):
    """run_ensemble's statistics from a plain loop over simulate and
    time_average, with the paths read at the grid indices stat_idx."""
    paths = np.empty((n_reps, len(stat_idx), 3))
    terminal = np.empty((n_reps, 3))
    floor_hits = 0
    for k in range(n_reps):
        traj = simulate(p, n, d, h, c, replicate=k)
        paths[k] = traj.states[stat_idx]
        terminal[k] = time_average(traj)[-1]
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
        assert np.array_equal(stats.terminal_averages[41], time_average(traj)[-1])

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

    @pytest.mark.parametrize("n_reps", [1, 2, 8, 63])
    def test_below_64_a_path_simulate_cannot_keep_steps_as_one_block(self, monkeypatch, n_reps):
        # one byte per step over simulate's horizon limit, the replicates run
        # as one block of them all instead of being refused, with the scalar
        # loop's numbers bit for bit; sigma = 3 overshoots below zero often,
        # so the floor clamps count
        noise = NoiseSpec(3.0, 1e-3, 3.0, -0.04, -0.006, -0.008, lam=1.0)
        want = run_ensemble(PARAMS, noise, DELAYS, HIST, CFG, n_reps)
        rows = max(engine.lag_steps(DELAYS, CFG.dt)) + 1
        at_limit = (engine._MAX_BYTES - rows * engine._ROW_BYTES) // CFG.n_steps
        monkeypatch.setattr(engine, "_STEP_BYTES", at_limit + 1)
        blocks = []
        real = engine._simulate_batch

        def recorded(p, n, d, h, c, reps, stat_idx, paths, terminal):
            blocks.append(reps)
            return real(p, n, d, h, c, reps, stat_idx, paths, terminal)

        def no_simulate(*args, **kwargs):
            raise AssertionError("simulate ran")

        monkeypatch.setattr(engine, "_simulate_batch", recorded)
        monkeypatch.setattr(engine, "simulate", no_simulate)
        got = run_ensemble(PARAMS, noise, DELAYS, HIST, CFG, n_reps)
        assert blocks == [range(n_reps)]
        for field in ("stat_times", "mean", "sd", "q025", "q500", "q975", "terminal_averages"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert got.floor_hits_total == want.floor_hits_total

    def test_a_narrow_block_holds_its_ring_once(self):
        # one replicate of persist with tau1 = 10000 at dt = 0.01 is a ring
        # of 1,000,001 grid rows, 24 MB; filling it from the history's
        # constants holds no second or third copy on the way
        sc = PRESETS["persist"]
        delays = replace(sc.delays, tau1=10000.0)
        cfg = StepConfig(dt=0.01, t_end=0.1)
        assert max(engine.lag_steps(delays, cfg.dt)) + 1 == 1_000_001
        paths, terminal = np.empty((1, 11, 3)), np.empty((1, 3))
        tracemalloc.start()
        try:
            engine._simulate_batch(sc.params, sc.noise, delays, sc.history, cfg, range(1), range(11),
                                   paths, terminal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_001 * 3 * 8 + (64 << 10)

    def test_a_block_at_the_cap_peaks_within_its_hold(self, cores):
        # persist over 20 days is 2000 steps, several draw chunks, so the
        # block keeps its generators; its ring, draw chunk, generators and
        # per-step arrays stay within what _layout charges it
        cores(1)
        sc = PRESETS["persist"]
        cfg = StepConfig(dt=sc.dt, t_end=20.0)
        stat_idx, _, pairs, _, hold = ensemble._layout(cfg, sc.delays, ensemble._BATCH_MAX)
        assert pairs == [(0, ensemble._BATCH_MAX)]
        assert cfg.n_steps > engine._chunk_steps(ensemble._BATCH_MAX)
        paths, terminal = np.empty((ensemble._BATCH_MAX, len(stat_idx), 3)), np.empty((ensemble._BATCH_MAX, 3))
        tracemalloc.start()
        try:
            engine._simulate_batch(sc.params, sc.noise, sc.delays, sc.history, cfg,
                                   range(ensemble._BATCH_MAX), stat_idx, paths, terminal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= hold

    def test_a_one_chunk_block_holds_one_generator_at_a_time(self):
        # criterion 07's compensator config, 10 steps: one draw chunk, so a
        # block of 5000 builds, draws and drops each replicate's jump
        # generator (777 B under tracemalloc) in turn. Beside its ring and
        # draw chunk it holds its hash lanes and per-step arrays, about
        # 150 B per replicate; holding every generator would add 5000 x 777 B
        p = ModelParams(r1=0, r2=0, k1=1, k2=1, alpha1=0, alpha2=0,
                        alpha3=0, beta=0, delta=0, a1=0, a2=0)
        n = NoiseSpec(0, 0, 0, q1=-0.04, q2=-0.006, q3=-0.008, lam=1.0)
        delays, cfg = DelaySpec(0, 0, 0), StepConfig(dt=0.1, t_end=1.0, seed=2026)
        assert cfg.n_steps <= engine._chunk_steps(5000)
        paths, terminal = np.empty((5000, 11, 3)), np.empty((5000, 3))
        tracemalloc.start()
        try:
            engine._simulate_batch(p, n, delays, HistorySpec(10, 10, 10), cfg, range(5000), range(11),
                                   paths, terminal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ring_and_draws = 5000 * 3 * 8 + cfg.n_steps * 5000 * 4 * 8
        assert peak - ring_and_draws < 5000 * 777 / 2
        assert peak <= engine._block_bytes(5000, cfg.n_steps, 1)

    def test_a_faulting_block_names_its_replicate_without_simulate(self, monkeypatch):
        # fig3 over 20 days: replicate 3 is the lowest of 100 to explode. The
        # block names it with simulate's message and never calls simulate
        cfg = parse_config("preset = fig3\nt_end = 20\n")
        parts = (cfg.to_params(), cfg.to_noise(), cfg.to_delays(), cfg.to_history(), cfg.to_step_config())
        with pytest.raises(SimulationError) as want:
            simulate(*parts, replicate=3)

        def no_simulate(*args, **kwargs):
            raise AssertionError("simulate ran")

        monkeypatch.setattr(engine, "simulate", no_simulate)
        with pytest.raises(SimulationError) as got:
            run_ensemble(*parts, 100)
        assert str(got.value) == f"replicate 3: {want.value}"

    @pytest.mark.parametrize("reps", [range(3, 67), range(24, 88)])
    def test_a_block_whose_first_replicate_faults_names_it(self, reps):
        # fig3 over 20 days, seed 0: a block's first replicate, 3 (at
        # t = 19.37) or 24 (at t = 19.92), faults after replicate 39 does
        # (t = 12.46). The block steps on past 39's fault, stops at its first
        # replicate's and names that one, in simulate's words
        cfg = parse_config("preset = fig3\nt_end = 20\n")
        parts = (cfg.to_params(), cfg.to_noise(), cfg.to_delays(), cfg.to_history(), cfg.to_step_config())
        with pytest.raises(SimulationError) as early:
            simulate(*parts, replicate=39)
        assert str(early.value).startswith("non-finite state at t=12.46: ")
        with pytest.raises(SimulationError) as want:
            simulate(*parts, replicate=reps[0])
        paths, terminal = np.empty((len(reps), 2, 3)), np.empty((len(reps), 3))
        with pytest.raises(SimulationError) as got:
            engine._simulate_batch(*parts, reps, [0, parts[4].n_steps], paths, terminal)
        assert str(got.value) == f"replicate {reps[0]}: {want.value}"
        assert str(got.value).startswith(
            {3: "replicate 3: non-finite state at t=19.37: ",
             24: "replicate 24: non-finite state at t=19.92: "}[reps[0]])

    def test_blocks_are_even_consecutive_slices_of_the_schedule(self, monkeypatch):
        # two steps are too little work to spread, so one share runs the
        # fewest blocks of at most the cap
        blocks = []
        real = engine._simulate_batch

        def recorded(p, n, d, h, c, reps, stat_idx, paths, terminal):
            blocks.append(list(reps))
            return real(p, n, d, h, c, reps, stat_idx, paths, terminal)

        monkeypatch.setattr(engine, "_simulate_batch", recorded)
        short = StepConfig(dt=0.01, t_end=0.02)
        for cap, widths in [
            (64, {257: [52, 52, 51, 51, 51], 600: [60] * 10}),
            (256, {257: [129, 128], 600: [200, 200, 200]}),
            (ensemble._BATCH_MAX, {257: [257], 600: [600]}),
        ]:
            monkeypatch.setattr(ensemble, "_BATCH_MAX", cap)
            for n_reps, want in widths.items():
                blocks.clear()
                run_ensemble(PARAMS, NOISE, DELAYS, HIST, short, n_reps=n_reps)
                assert [len(b) for b in blocks] == want
                assert sum(blocks, []) == list(range(n_reps))

    # a block draws no normals when every sigma is 0 and no counts when lam
    # is 0; simulate draws both, so each case must still match it exactly,
    # down to the sign of every zero
    ZERO_STREAMS = {
        "sigma0": (NoiseSpec(0, 0, 0, -0.04, -0.006, -0.008, lam=1.0), HIST),
        "lam0": (NoiseSpec(3.0, 1e-3, 3.0, -0.04, -0.006, -0.008, lam=0.0), HIST),
        "off": (NOISE_OFF, HIST),
        # about 1700 floor clamps per lag set
        "clamps": (NoiseSpec(0, 0, 0, -0.9, 3.0, -0.5, lam=2.0), HIST),
        # a -0.0 history value is stored as 0.0, so a zero-scaled normal's
        # +-0 cannot flip the sign of a zero state here either
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
            # a -0.0 history builds the streams a 0.0 history builds: none
            (NOISE_OFF, HistorySpec(5.0, -0.0, 5.0), 64, set()),
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

    @pytest.mark.parametrize("n_reps, own", [
        (257, {256: [range(129)], ensemble._BATCH_MAX: [range(129)]}),
        (600, {256: [range(150), range(150, 300)], ensemble._BATCH_MAX: [range(300)]}),
    ])
    def test_equals_in_process_run(self, cores, monkeypatch, n_reps, own):
        # two shares take an even number of blocks: 257 runs as 129 + 128
        # and 600 as two blocks of 300, one block a share, or at a cap of 256
        # as four blocks of 150, two in this process and two in the child.
        # sigma = 3 overshoots below zero often, so the floor clamps count
        noise = NoiseSpec(3.0, 1e-3, 3.0, -0.04, -0.006, -0.008, lam=1.0)
        blocks = []
        real = engine._simulate_batch

        def recorded(p, n, d, h, c, reps, stat_idx, paths, terminal):
            blocks.append(reps)  # only the blocks that this process runs
            return real(p, n, d, h, c, reps, stat_idx, paths, terminal)

        monkeypatch.setattr(engine, "_simulate_batch", recorded)
        for cap, mine in own.items():
            monkeypatch.setattr(ensemble, "_BATCH_MAX", cap)
            runs = []
            for n_cores in (1, 2):
                cores(n_cores)
                blocks.clear()
                runs.append(run_ensemble(PARAMS, noise, DELAYS, HIST, CFG, n_reps))
            assert blocks == mine
            assert runs[0].floor_hits_total > 0
            for field in TestFanOut.FIELDS:
                assert np.array_equal(getattr(runs[0], field), getattr(runs[1], field)), field
            assert_no_children()

    # criterion 07's compensator config, and persist with sigma = 3, which
    # overshoots below zero often, over 600 steps, more than one draw chunk
    LAYOUTS = {
        "compensator": (ModelParams(r1=0, r2=0, k1=1, k2=1, alpha1=0, alpha2=0, alpha3=0, beta=0,
                                    delta=0, a1=0, a2=0),
                        NoiseSpec(0, 0, 0, q1=-0.04, q2=-0.006, q3=-0.008, lam=1.0),
                        DelaySpec(0, 0, 0), HistorySpec(10, 10, 10),
                        StepConfig(dt=0.1, t_end=1.0, seed=2026), 1200),
        "persist": (PRESETS["persist"].params, NoiseSpec(3.0, 1e-3, 3.0, -0.04, -0.006, -0.008, lam=1.0),
                    PRESETS["persist"].delays, PRESETS["persist"].history,
                    StepConfig(dt=0.01, t_end=6.0, seed=4), 600),
    }

    @pytest.mark.parametrize("case", LAYOUTS)
    def test_the_layout_does_not_move_a_number(self, cores, monkeypatch, case):
        # caps of 64, 256 and _BATCH_MAX on one core and two, five layouts
        # (at a cap of 64 both core counts run the same blocks) from 19
        # blocks of 63 or 64 to one of 1200, all give the same bytes
        *parts, n_reps = self.LAYOUTS[case]
        runs, layouts = [], set()
        for cap in (64, 256, ensemble._BATCH_MAX):
            monkeypatch.setattr(ensemble, "_BATCH_MAX", cap)
            for n_cores in (1, 2):
                cores(n_cores)
                layouts.add(tuple(ensemble._layout(parts[4], parts[2], n_reps)[2]))
                runs.append(run_ensemble(*parts, n_reps))
        assert len(layouts) == 5
        if case == "persist":
            assert runs[0].floor_hits_total > 0
        for run in runs[1:]:
            for field in ("stat_times", "mean", "sd", "q025", "q500", "q975", "terminal_averages"):
                assert getattr(run, field).tobytes() == getattr(runs[0], field).tobytes(), field
            assert run.floor_hits_total == runs[0].floor_hits_total
        assert_no_children()

    def test_fault_in_the_childs_share(self, cores, monkeypatch):
        # fig3 over 13 days, seed 2: of 257 replicates only 236 and 255
        # explode, both in the second block (129 + 128 on two cores, at
        # either cap), which the child runs. 255 does so first, but the
        # block steps on, without forking again, and names the lowest, 236
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
        for cap in (256, ensemble._BATCH_MAX):
            monkeypatch.setattr(ensemble, "_BATCH_MAX", cap)
            errors = []
            forks.clear()
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
        # 257 replicates, whose limit is reckoned on blocks of at most 256
        # (129 + 128) at any cap, with the limit at exactly what one process
        # holds: the ensemble runs, but a second process's share of rows and
        # block would not fit, so nothing forks; one byte less and it is
        # refused
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

    def test_one_at_a_time_shares_count_toward_the_limit(self, cores, monkeypatch):
        # 8 replicates run one at a time, each holding its trajectory while
        # it runs: with the limit one byte below the statistics, a second
        # copy of them and a trajectory in each of four processes, nothing
        # forks
        def fork():
            raise AssertionError("an ensemble over the limit forked")

        cores(1)
        want = run_ensemble(PARAMS, NOISE, DELAYS, HIST, CFG, 8)
        stats = 8 * len(want.stat_times) * 3 * 8
        trajectory = engine._trajectory_bytes(CFG, DELAYS)
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(engine, "_MAX_BYTES", 2 * stats + 4 * trajectory - 1)
        cores(4)
        got = run_ensemble(PARAMS, NOISE, DELAYS, HIST, CFG, 8)
        for field in TestFanOut.FIELDS:
            assert np.array_equal(getattr(want, field), getattr(got, field)), field

    def test_block_shares_count_their_rings_not_a_trajectory(self, cores, monkeypatch):
        # 257 replicates (129 + 128 on two cores) whose trajectory is charged
        # more than the widest block holds, ring, draw chunk, generators and
        # all: with the limit at exactly the statistics, a second copy of
        # them and a block's hold in each of two processes, the blocks still
        # spread, since a block never holds a trajectory
        cores(1)
        want = run_ensemble(PARAMS, NOISE, DELAYS, HIST, CFG, 257)
        cores(2)
        _, _, pairs, stats, hold = ensemble._layout(CFG, DELAYS, 257)
        assert len(pairs) == 2
        monkeypatch.setattr(engine, "_STEP_BYTES", hold)
        assert hold < engine._trajectory_bytes(CFG, DELAYS)
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(engine, "_MAX_BYTES", 2 * stats + 2 * hold)
        got = run_ensemble(PARAMS, NOISE, DELAYS, HIST, CFG, 257)
        assert len(forks) == 1
        for field in TestFanOut.FIELDS:
            assert np.array_equal(getattr(want, field), getattr(got, field)), field
        assert_no_children()


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
        assert out.passed is None

    def test_all_persist_slack_arithmetic(self):
        sc = PRESETS["persist"]
        report = classify(sc.params, sc.noise, sc.delays)
        # observed medians at 0.95 clear (1 - 0.2) * 0.98039 = 0.78431
        stats = self._stats_with([[0.95, 0.95, 0.95]], report.provenance)
        out = verify_regime(stats, report)
        assert out.passed is True

    def test_all_persist_failure_detected(self):
        sc = PRESETS["persist"]
        report = classify(sc.params, sc.noise, sc.delays)
        stats = self._stats_with([[0.95, 0.5, 0.95]], report.provenance)
        out = verify_regime(stats, report)
        assert out.passed is False

    def test_extinction_pass(self):
        sc = PRESETS["extinct"]
        report = classify(sc.params, sc.noise, sc.delays)
        stats = self._stats_with([[0.01, 0.02, 0.01]], report.provenance)
        out = verify_regime(stats, report)
        assert out.passed is True

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
