"""Unit tests for the stochastic integrator."""

import math
import warnings

import numpy as np
import pytest

from levyprey import (
    DelaySpec,
    DelayedState,
    HistorySpec,
    ModelParams,
    NoiseSpec,
    State,
    StepConfig,
    drift,
    init_history,
    simulate,
    solve_deterministic,
)
from levyprey import rng as lrng
from levyprey.model import FieldError

FIG1_PARAMS = ModelParams(
    r1=0.7, r2=0.65, k1=100.0, k2=100.0, alpha1=0.3, alpha2=0.35,
    alpha3=0.5, beta=1e-4, delta=0.1, a1=0.05, a2=0.05,
)
FIG1_NOISE = NoiseSpec(sigma1=1e-4, sigma2=2e-4, sigma3=2e-4, q1=-0.04, q2=-0.006, q3=-0.008, lam=1.0)
TABLE_DELAYS = DelaySpec(0.5, 1.0, 1.5)
NOISE_OFF = NoiseSpec(0, 0, 0, 0, 0, 0, lam=0.0)
# no drift at all: only the noise terms move the state
ZERO_RATES = ModelParams(r1=0, r2=0, k1=1, k2=1, alpha1=0, alpha2=0,
                         alpha3=0, beta=0, delta=0, a1=0, a2=0)


def _nonzero_rows(counts):
    return int(np.count_nonzero(np.asarray(counts).reshape(len(counts), -1).any(axis=1)))


class TestHistory:
    def test_constant_fill(self):
        c = StepConfig(dt=0.01, t_end=1.0)
        buf = init_history(HistorySpec.from_constant(50, 50, 10), TABLE_DELAYS, c)
        assert len(buf.xs) == 151  # tau_max = 1.5 at dt = 0.01
        assert (buf.xs[0], buf.ys[0], buf.zs[0]) == (50, 50, 10)
        assert (buf.xs[-1], buf.ys[-1], buf.zs[-1]) == (50, 50, 10)

    def test_table_fill_linear_midpoint(self):
        c = StepConfig(dt=0.5, t_end=1.0)
        h = HistorySpec.from_table([(-1, 0, 0, 0), (0, 10, 10, 10)])
        buf = init_history(h, DelaySpec(1.0, 0, 0), c)
        assert (buf.xs[1], buf.ys[1], buf.zs[1]) == pytest.approx((5, 5, 5))  # t = -0.5

    def test_no_delay_single_sample(self):
        c = StepConfig(dt=0.01, t_end=1.0)
        buf = init_history(HistorySpec.from_constant(1, 2, 3), DelaySpec(0, 0, 0), c)
        assert len(buf.xs) == 1
        assert (buf.xs[0], buf.ys[0], buf.zs[0]) == (1, 2, 3)

    def test_table_must_span_window(self):
        c = StepConfig(dt=0.1, t_end=1.0)
        h = HistorySpec.from_table([(-0.5, 1, 1, 1), (0, 1, 1, 1)])
        with pytest.raises(ValueError, match="must cover"):
            init_history(h, DelaySpec(1.0, 0, 0), c)

    def test_window_decided_by_one_tolerance(self):
        # one tolerance decides coverage: a table starting 5e-10 after the
        # window start is rejected by every entry point with the window named,
        # and slack below the history-query tolerance is accepted
        c = StepConfig(dt=0.01, t_end=0.1)
        short = HistorySpec.from_table([(-1.5 + 5e-10, 1, 1, 1), (0, 1, 1, 1)])
        runs = (
            lambda h: init_history(h, TABLE_DELAYS, c),
            lambda h: simulate(FIG1_PARAMS, FIG1_NOISE, TABLE_DELAYS, h, c),
            lambda h: solve_deterministic(FIG1_PARAMS, TABLE_DELAYS, h, c.dt, c.t_end),
        )
        for run in runs:
            with pytest.raises(ValueError, match=r"must cover \[-1\.5, 0\]"):
                run(short)
        nearly = HistorySpec.from_table([(-1.5 + 5e-13, 1, 1, 1), (0, 1, 1, 1)])
        for run in runs:
            run(nearly)


class TestDelayedLookup:
    def test_zero_delay_returns_current(self):
        # the history before t = 0 differs from x(0); zero delays must tap
        # the current state, never the history
        h = HistorySpec.from_table([(-1.0, 1, 1, 1), (0.0, 30, 20, 4)])
        sc = StepConfig(dt=0.01, t_end=0.02)
        traj = simulate(FIG1_PARAMS, NOISE_OFF, DelaySpec(0, 0, 0), h, sc)
        xs = [State(30.0, 20.0, 4.0)]
        for _ in range(2):
            s = xs[-1]
            f = drift(s, DelayedState(s.x, s.y, s.x, s.y), FIG1_PARAMS)
            xs.append(State(s.x + 0.01 * f[0], s.y + 0.01 * f[1], s.z + 0.01 * f[2]))
        assert np.allclose(traj.states, np.array(xs), rtol=1e-13, atol=0)

    def test_grid_aligned_is_bit_exact(self):
        # x = 2, 3, 4 at t = -0.02, -0.01, 0; the tau1 = 0.02 tap must read
        # the stored 2 exactly: fx = r1*x*(1 - 2/K1) = 1*4*(1 - 0.5) = 2
        p = ModelParams(r1=1.0, r2=0, k1=4.0, k2=1, alpha1=0, alpha2=0,
                        alpha3=0, beta=0, delta=0, a1=0, a2=0)
        h = HistorySpec.from_table([(-0.02, 2, 1, 1), (0.0, 4, 1, 1)])
        traj = simulate(p, NOISE_OFF, DelaySpec(0.02, 0, 0), h, StepConfig(dt=0.01, t_end=0.01))
        assert traj.x[-1] == 4.0 + 2.0 * 0.01


class TestSampleJumps:
    """The jump clock the engine draws from: Poisson(lam*dt) per step."""

    def test_zero_rate_always_zero(self):
        n = NoiseSpec(0, 0, 0, q1=-0.04, q2=-0.006, q3=-0.008, lam=0.0)
        traj = simulate(FIG1_PARAMS, n, TABLE_DELAYS, HistorySpec.from_constant(10, 10, 5),
                        StepConfig(dt=0.01, t_end=1.0))
        assert traj.jump_events == 0

    def test_poisson_mean(self):
        # closed-form moments: mean = var = lam*dt = 0.01, drawn the way the
        # shared clock draws its counts
        draws = lrng.stream(1, 0, lrng.JUMPS).poisson(1.0 * 0.01, 1_000_000)
        se = math.sqrt(0.01 / 1_000_000)
        assert abs(draws.mean() - 0.01) < 3 * se

    def test_poisson_tail(self):
        # share of steps with an arrival is P(count >= 1) = 1 - exp(-lam*dt),
        # binomial 3-sigma band
        n_steps, lam, dt = 50_000, 10.0, 0.01
        n = NoiseSpec(0, 0, 0, 0, 0, 0, lam=lam)
        traj = simulate(ZERO_RATES, n, DelaySpec(0, 0, 0), HistorySpec.from_constant(1, 1, 1),
                        StepConfig(dt=dt, t_end=n_steps * dt, seed=2))
        p = 1.0 - math.exp(-lam * dt)
        se = math.sqrt(p * (1 - p) / n_steps)
        assert abs(traj.jump_events / n_steps - p) < 3 * se

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            NoiseSpec(0, 0, 0, 0, 0, 0, lam=-1.0)


class TestStep:
    """Single steps, driven through simulate with t_end = dt."""

    def test_hand_computed_step(self):
        # drift example plus jump compensator -q_i*lam*S_i*dt with dN = 0:
        #   x' = 50 - 130*0.01 + (-0.04)*50*(-0.01) = 48.72
        #   y' = 50 - 156.25*0.01 + (-0.006)*50*(-0.01) = 48.4405
        #   z' = 10 - 1*0.01 + (-0.008)*10*(-0.01) = 9.9908
        assert lrng.stream(0, 0, lrng.JUMPS).poisson(0.01, 1)[0] == 0
        n = NoiseSpec(0, 0, 0, q1=-0.04, q2=-0.006, q3=-0.008, lam=1.0)
        c = StepConfig(dt=0.01, t_end=0.01, seed=0)
        traj = simulate(FIG1_PARAMS, n, TABLE_DELAYS, HistorySpec.from_constant(50, 50, 10), c)
        assert traj.floor_hits == 0
        assert traj.jump_events == 0
        assert traj.x[-1] == pytest.approx(48.72, abs=1e-12)
        assert traj.y[-1] == pytest.approx(48.4405, abs=1e-12)
        assert traj.z[-1] == pytest.approx(9.9908, abs=1e-12)

    def test_noise_off_equals_explicit_euler(self):
        c = StepConfig(dt=0.01, t_end=0.01)
        h = HistorySpec.from_constant(30, 20, 4)
        traj = simulate(FIG1_PARAMS, NOISE_OFF, TABLE_DELAYS, h, c)
        f = drift(State(30, 20, 4), DelayedState(30, 20, 30, 20), FIG1_PARAMS)
        assert traj.x[-1] == pytest.approx(30 + 0.01 * f[0], rel=1e-15)
        assert traj.y[-1] == pytest.approx(20 + 0.01 * f[1], rel=1e-15)
        assert traj.z[-1] == pytest.approx(4 + 0.01 * f[2], rel=1e-15)

    def test_origin_stays_at_origin(self):
        hot = NoiseSpec(1.0, 2.0, 0.5, q1=-0.04, q2=-0.006, q3=-0.008, lam=50.0)
        c = StepConfig(dt=0.01, t_end=1.0, seed=3)
        traj = simulate(FIG1_PARAMS, hot, TABLE_DELAYS, HistorySpec.from_constant(0, 0, 0), c)
        assert traj.jump_events > 0
        assert np.all(traj.states == 0.0)
        assert traj.floor_hits == 0

    def test_overshoot_clamps_to_floor_and_counts(self):
        # predation strong enough that x + fx*dt < 0 in one step
        p = ModelParams(r1=0, r2=0, k1=1, k2=1, alpha1=1.0, alpha2=0,
                        alpha3=0, beta=0, delta=0, a1=0, a2=0)
        c = StepConfig(dt=0.1, t_end=0.1)
        traj = simulate(p, NOISE_OFF, DelaySpec(0, 0, 0), HistorySpec.from_constant(1, 0, 100), c)
        assert traj.x[-1] == 1e-12
        assert traj.y[-1] == 0.0  # a true zero is not clamped upward
        assert traj.floor_hits == 1


class TestSimulate:
    def test_deterministic_equilibrium(self):
        # (K1, K2, 0) is a fixed point of the noise-free flow
        p = FIG1_PARAMS
        cfg = StepConfig(dt=0.01, t_end=20.0)
        traj = simulate(p, NOISE_OFF, TABLE_DELAYS, HistorySpec.from_constant(100, 100, 0), cfg)
        assert np.max(np.abs(traj.x - 100.0) / 100.0) <= 1e-9
        assert np.max(np.abs(traj.y - 100.0) / 100.0) <= 1e-9
        assert np.max(np.abs(traj.z)) <= 1e-9

    def test_same_seed_bit_identical(self):
        sc = StepConfig(dt=0.01, t_end=5.0, seed=42)
        h = HistorySpec.from_constant(10, 10, 5)
        a = simulate(FIG1_PARAMS, FIG1_NOISE, TABLE_DELAYS, h, sc)
        b = simulate(FIG1_PARAMS, FIG1_NOISE, TABLE_DELAYS, h, sc)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)
        assert a.jump_events == b.jump_events
        assert a.floor_hits == b.floor_hits

    def test_toggling_jumps_keeps_brownian_path(self):
        # q = 0 makes the jump term exactly zero; disjoint streams mean the
        # Gaussian draws are identical whether or not the jump clock runs
        sc = StepConfig(dt=0.01, t_end=5.0, seed=3)
        h = HistorySpec.from_constant(10, 10, 5)
        n_zero_q = NoiseSpec(1e-4, 2e-4, 2e-4, 0, 0, 0, lam=1.0)
        n_no_jumps = NoiseSpec(1e-4, 2e-4, 2e-4, 0, 0, 0, lam=0.0)
        a = simulate(FIG1_PARAMS, n_zero_q, TABLE_DELAYS, h, sc)
        b = simulate(FIG1_PARAMS, n_no_jumps, TABLE_DELAYS, h, sc)
        assert np.array_equal(a.states, b.states)

    def test_distinct_replicates_differ(self):
        sc = StepConfig(dt=0.01, t_end=2.0, seed=5)
        h = HistorySpec.from_constant(10, 10, 5)
        a = simulate(FIG1_PARAMS, FIG1_NOISE, TABLE_DELAYS, h, sc, replicate=0)
        b = simulate(FIG1_PARAMS, FIG1_NOISE, TABLE_DELAYS, h, sc, replicate=1)
        assert not np.array_equal(a.states, b.states)

    def test_jump_events_counts_arrival_steps(self):
        # one event per step with at least one arrival, read from the
        # replicate's own jump stream, under both clock layouts
        sc = StepConfig(dt=0.1, t_end=5.0, seed=1)
        h = HistorySpec.from_constant(10, 10, 5)
        for shared, size in ((True, 50), (False, (50, 3))):
            hot = NoiseSpec(0, 0, 0, q1=-0.04, q2=-0.006, q3=-0.008, lam=5.0, shared_clock=shared)
            traj = simulate(FIG1_PARAMS, hot, TABLE_DELAYS, h, sc, replicate=2)
            counts = lrng.stream(1, 2, lrng.JUMPS).poisson(5.0 * 0.1, size)
            assert 0 < traj.jump_events < 50
            assert traj.jump_events == _nonzero_rows(counts)
        cold = simulate(FIG1_PARAMS, NOISE_OFF, TABLE_DELAYS, h, sc)
        assert cold.jump_events == 0

    def test_independent_clocks(self):
        # equal marks on equal states: a shared clock keeps the species equal,
        # independent clocks must desynchronize them somewhere
        sc = StepConfig(dt=0.1, t_end=5.0, seed=1)
        h = HistorySpec.from_constant(10, 10, 10)
        shared = NoiseSpec(0, 0, 0, q1=-0.04, q2=-0.04, q3=-0.04, lam=5.0)
        indep = NoiseSpec(0, 0, 0, q1=-0.04, q2=-0.04, q3=-0.04, lam=5.0, shared_clock=False)
        a = simulate(ZERO_RATES, shared, DelaySpec(0, 0, 0), h, sc)
        b = simulate(ZERO_RATES, indep, DelaySpec(0, 0, 0), h, sc)
        assert np.all(a.x == a.y) and np.all(a.y == a.z)
        assert np.any(b.x != b.y) or np.any(b.y != b.z)

    def test_noise_off_simulate_equals_manual_euler(self):
        # hand-rolled explicit Euler over the same grid, built on drift()
        sc = StepConfig(dt=0.01, t_end=3.0)
        h = HistorySpec.from_constant(10, 10, 5)
        traj = simulate(FIG1_PARAMS, NOISE_OFF, TABLE_DELAYS, h, sc)

        k1, k2, k3 = 50, 100, 150  # delays in steps at dt = 0.01
        xs = [10.0] * (k3 + 1)
        ys = [10.0] * (k3 + 1)
        zs = [5.0] * (k3 + 1)
        for i in range(sc.n_steps):
            m = k3 + i
            f = drift(
                State(xs[m], ys[m], zs[m]),
                DelayedState(xs[m - k1], ys[m - k2], xs[m - k3], ys[m - k3]),
                FIG1_PARAMS,
            )
            xs.append(xs[m] + 0.01 * f[0])
            ys.append(ys[m] + 0.01 * f[1])
            zs.append(zs[m] + 0.01 * f[2])
        manual = np.column_stack([xs, ys, zs])[k3:]
        assert np.allclose(traj.states, manual, rtol=1e-13, atol=1e-13)

    def test_table_history_matches_equivalent_constant(self):
        # a table that encodes a constant must reproduce the constant-history
        # run bit for bit
        sc = StepConfig(dt=0.01, t_end=2.0, seed=8)
        const = HistorySpec.from_constant(10, 10, 5)
        table = HistorySpec.from_table([(-2.0, 10, 10, 5), (-0.7, 10, 10, 5), (0.0, 10, 10, 5)])
        a = simulate(FIG1_PARAMS, FIG1_NOISE, TABLE_DELAYS, const, sc)
        b = simulate(FIG1_PARAMS, FIG1_NOISE, TABLE_DELAYS, table, sc)
        assert np.array_equal(a.states, b.states)

    def test_independent_clocks_deterministic(self):
        sc = StepConfig(dt=0.1, t_end=5.0, seed=4)
        h = HistorySpec.from_constant(10, 10, 5)
        n = NoiseSpec(0, 0, 0, q1=-0.04, q2=-0.006, q3=-0.008, lam=5.0, shared_clock=False)
        a = simulate(FIG1_PARAMS, n, TABLE_DELAYS, h, sc)
        b = simulate(FIG1_PARAMS, n, TABLE_DELAYS, h, sc)
        assert np.array_equal(a.states, b.states)
        assert a.jump_events == b.jump_events

    def test_off_grid_delay_rejected(self):
        sc = StepConfig(dt=0.01, t_end=1.0)
        h = HistorySpec.from_constant(10, 10, 5)
        with pytest.raises(ValueError, match=r"tau1 must be divided evenly by dt = 0\.01, got 0\.015"):
            simulate(FIG1_PARAMS, NOISE_OFF, DelaySpec(0.015, 0, 0), h, sc)

    def test_dt_larger_than_delay_rejected(self):
        sc = StepConfig(dt=0.6, t_end=6.0)
        h = HistorySpec.from_constant(10, 10, 5)
        with pytest.raises(ValueError, match=r"tau1 must be divided evenly by dt = 0\.6, got 0\.5"):
            simulate(FIG1_PARAMS, NOISE_OFF, DelaySpec(0.5, 0, 0), h, sc)

    def test_t_end_must_be_on_the_grid(self):
        # the horizon is never rounded: 1.005 at dt = 0.01 would end at t = 1
        with pytest.raises(FieldError, match=r"t_end must be divided evenly by dt = 0\.01") as exc:
            StepConfig(dt=0.01, t_end=1.005)
        assert exc.value.field == "t_end"
        assert StepConfig(dt=0.01, t_end=1.01).n_steps == 101

    def test_every_entry_point_rejects_off_grid_delay(self):
        # one delay-grid rule: the history fill, the engine and the reference
        # solver raise the same error, and nothing is snapped with a warning
        sc = StepConfig(dt=0.01, t_end=0.1)
        h = HistorySpec.from_constant(10, 10, 5)
        d = DelaySpec(0.5, 1.0049, 1.5)
        runs = (
            lambda: init_history(h, d, sc),
            lambda: simulate(FIG1_PARAMS, FIG1_NOISE, d, h, sc),
            lambda: solve_deterministic(FIG1_PARAMS, d, h, sc.dt, sc.t_end),
        )
        for run in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FieldError) as exc:
                    run()
            assert (exc.value.field, str(exc.value)) == (
                "tau2", "DelaySpec.tau2 must be divided evenly by dt = 0.01, got 1.0049"
            )

    def test_positivity_short_runs(self):
        # discretization overshoot is not expected at this dt; the full-size
        # check lives in the acceptance suite
        from levyprey import PRESETS

        for name in ("persist", "fig3"):
            sc = PRESETS[name]
            clean = 0
            for k in range(50):
                cfg = StepConfig(dt=1e-3, t_end=2.0, seed=77)
                traj = simulate(sc.params, sc.noise, sc.delays, sc.history, cfg, replicate=k)
                assert np.all(traj.states >= 1e-12)
                clean += traj.floor_hits == 0
            assert clean >= int(50 * 0.99)


class TestStreams:
    def test_streams_are_deterministic_and_disjoint(self):
        a = lrng.stream(1, 0, lrng.GAUSSIAN).standard_normal(4)
        b = lrng.stream(1, 0, lrng.GAUSSIAN).standard_normal(4)
        c = lrng.stream(1, 0, lrng.JUMPS).standard_normal(4)
        d = lrng.stream(1, 1, lrng.GAUSSIAN).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_no_stream_collisions_over_many_replicates(self):
        # checksum of each replicate's first Gaussian block must be unique
        seen = set()
        for k in range(10_000):
            block = lrng.stream(123, k, lrng.GAUSSIAN).standard_normal(4)
            seen.add(block.tobytes())
        assert len(seen) == 10_000
