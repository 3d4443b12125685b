"""Unit tests for the stochastic integrator."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levyprey import (
    DelaySpec,
    HistorySpec,
    ModelParams,
    NoiseSpec,
    StepConfig,
    simulate,
    solve_deterministic,
)
from levyprey import engine
from levyprey import rng as lrng
from levyprey.engine import SimulationError, init_history
from levyprey.model import FieldError, drift

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


class TestHistory:
    def test_constant_fill(self):
        c = StepConfig(dt=0.01, t_end=1.0)
        xs, ys, zs = init_history(HistorySpec(50, 50, 10), TABLE_DELAYS, c)
        assert len(xs) == 151  # tau_max = 1.5 at dt = 0.01
        assert (xs[0], ys[0], zs[0]) == (50, 50, 10)
        assert (xs[-1], ys[-1], zs[-1]) == (50, 50, 10)

    def test_no_delay_single_sample(self):
        c = StepConfig(dt=0.01, t_end=1.0)
        xs, ys, zs = init_history(HistorySpec(1, 2, 3), DelaySpec(0, 0, 0), c)
        assert len(xs) == 1
        assert (xs[0], ys[0], zs[0]) == (1, 2, 3)


class TestDelayedLookup:
    def test_zero_delay_returns_current(self):
        # the state moves away from the history within a few steps; zero
        # delays must tap the current state, never the history or a stored row
        h = HistorySpec(30, 20, 4)
        sc = StepConfig(dt=0.01, t_end=0.2)
        traj = simulate(FIG1_PARAMS, NOISE_OFF, DelaySpec(0, 0, 0), h, sc)
        xs = [(30.0, 20.0, 4.0)]
        for _ in range(20):
            x, y, z = xs[-1]
            f = drift(x, y, z, x, y, x, y, FIG1_PARAMS)
            xs.append((x + 0.01 * f[0], y + 0.01 * f[1], z + 0.01 * f[2]))
        assert abs(traj.states[-1, 0] - 30.0) > 1.0
        assert np.allclose(traj.states, np.array(xs), rtol=1e-13, atol=0)

    def test_grid_aligned_is_bit_exact(self):
        # x = 2 on [-0.5, 0], then 2.5 and 3.125 at t = 0.5 and 1; the third
        # step's tau1 = 0.5 tap must read the stored 2.5 exactly:
        # fx = r1*x*(1 - 2.5/K1) = 3.125*0.375, every value a dyadic fraction
        p = ModelParams(r1=1.0, r2=0, k1=4.0, k2=1, alpha1=0, alpha2=0,
                        alpha3=0, beta=0, delta=0, a1=0, a2=0)
        traj = simulate(p, NOISE_OFF, DelaySpec(0.5, 0, 0), HistorySpec(2, 1, 1),
                        StepConfig(dt=0.5, t_end=1.5))
        assert traj.states[:, 0].tolist() == [2.0, 2.5, 3.125, 3.125 + 0.5 * 3.125 * 0.375]


class TestSampleJumps:
    """The jump clock the engine draws from: Poisson(lam*dt) per step."""

    def test_zero_rate_always_zero(self):
        n = NoiseSpec(0, 0, 0, q1=-0.04, q2=-0.006, q3=-0.008, lam=0.0)
        traj = simulate(FIG1_PARAMS, n, TABLE_DELAYS, HistorySpec(10, 10, 5),
                        StepConfig(dt=0.01, t_end=1.0))
        assert traj.jump_events == 0

    def test_poisson_mean(self):
        # closed-form moments: mean = var = lam*dt = 0.01, drawn the way the
        # engine draws its one count per step
        draws = lrng.stream(1, 0, lrng.JUMPS).poisson(1.0 * 0.01, 1_000_000)
        se = math.sqrt(0.01 / 1_000_000)
        assert abs(draws.mean() - 0.01) < 3 * se

    def test_poisson_tail(self):
        # share of steps with an arrival is P(count >= 1) = 1 - exp(-lam*dt),
        # binomial 3-sigma band
        n_steps, lam, dt = 50_000, 10.0, 0.01
        n = NoiseSpec(0, 0, 0, 0, 0, 0, lam=lam)
        traj = simulate(ZERO_RATES, n, DelaySpec(0, 0, 0), HistorySpec(1, 1, 1),
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
        traj = simulate(FIG1_PARAMS, n, TABLE_DELAYS, HistorySpec(50, 50, 10), c)
        assert traj.floor_hits == 0
        assert traj.jump_events == 0
        assert traj.states[-1, 0] == pytest.approx(48.72, abs=1e-12)
        assert traj.states[-1, 1] == pytest.approx(48.4405, abs=1e-12)
        assert traj.states[-1, 2] == pytest.approx(9.9908, abs=1e-12)

    def test_noise_off_equals_explicit_euler(self):
        c = StepConfig(dt=0.01, t_end=0.01)
        h = HistorySpec(30, 20, 4)
        traj = simulate(FIG1_PARAMS, NOISE_OFF, TABLE_DELAYS, h, c)
        f = drift(30, 20, 4, 30, 20, 30, 20, FIG1_PARAMS)
        assert traj.states[-1, 0] == pytest.approx(30 + 0.01 * f[0], rel=1e-15)
        assert traj.states[-1, 1] == pytest.approx(20 + 0.01 * f[1], rel=1e-15)
        assert traj.states[-1, 2] == pytest.approx(4 + 0.01 * f[2], rel=1e-15)

    def test_origin_stays_at_origin(self):
        hot = NoiseSpec(1.0, 2.0, 0.5, q1=-0.04, q2=-0.006, q3=-0.008, lam=50.0)
        c = StepConfig(dt=0.01, t_end=1.0, seed=3)
        traj = simulate(FIG1_PARAMS, hot, TABLE_DELAYS, HistorySpec(0, 0, 0), c)
        assert traj.jump_events > 0
        assert np.all(traj.states == 0.0)
        assert traj.floor_hits == 0

    def test_overshoot_clamps_to_floor_and_counts(self):
        # predation strong enough that x + fx*dt < 0 in one step
        p = ModelParams(r1=0, r2=0, k1=1, k2=1, alpha1=1.0, alpha2=0,
                        alpha3=0, beta=0, delta=0, a1=0, a2=0)
        c = StepConfig(dt=0.1, t_end=0.1)
        traj = simulate(p, NOISE_OFF, DelaySpec(0, 0, 0), HistorySpec(1, 0, 100), c)
        assert traj.states[-1, 0] == 1e-12
        assert traj.states[-1, 1] == 0.0  # a true zero is not clamped upward
        assert traj.floor_hits == 1


class TestSimulate:
    def test_deterministic_equilibrium(self):
        # (K1, K2, 0) is a fixed point of the noise-free flow
        p = FIG1_PARAMS
        cfg = StepConfig(dt=0.01, t_end=20.0)
        traj = simulate(p, NOISE_OFF, TABLE_DELAYS, HistorySpec(100, 100, 0), cfg)
        assert np.max(np.abs(traj.states[:, 0] - 100.0) / 100.0) <= 1e-9
        assert np.max(np.abs(traj.states[:, 1] - 100.0) / 100.0) <= 1e-9
        assert np.max(np.abs(traj.states[:, 2])) <= 1e-9

    def test_same_seed_bit_identical(self):
        sc = StepConfig(dt=0.01, t_end=5.0, seed=42)
        h = HistorySpec(10, 10, 5)
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
        h = HistorySpec(10, 10, 5)
        n_zero_q = NoiseSpec(1e-4, 2e-4, 2e-4, 0, 0, 0, lam=1.0)
        n_no_jumps = NoiseSpec(1e-4, 2e-4, 2e-4, 0, 0, 0, lam=0.0)
        a = simulate(FIG1_PARAMS, n_zero_q, TABLE_DELAYS, h, sc)
        b = simulate(FIG1_PARAMS, n_no_jumps, TABLE_DELAYS, h, sc)
        assert np.array_equal(a.states, b.states)

    def test_distinct_replicates_differ(self):
        sc = StepConfig(dt=0.01, t_end=2.0, seed=5)
        h = HistorySpec(10, 10, 5)
        a = simulate(FIG1_PARAMS, FIG1_NOISE, TABLE_DELAYS, h, sc, replicate=0)
        b = simulate(FIG1_PARAMS, FIG1_NOISE, TABLE_DELAYS, h, sc, replicate=1)
        assert not np.array_equal(a.states, b.states)

    def test_jump_events_counts_arrival_steps(self):
        # one event per step with at least one arrival, read from the
        # replicate's own jump stream
        sc = StepConfig(dt=0.1, t_end=5.0, seed=1)
        h = HistorySpec(10, 10, 5)
        hot = NoiseSpec(0, 0, 0, q1=-0.04, q2=-0.006, q3=-0.008, lam=5.0)
        traj = simulate(FIG1_PARAMS, hot, TABLE_DELAYS, h, sc, replicate=2)
        stream = lrng.stream(1, 2, lrng.JUMPS)
        assert 0 < traj.jump_events < 50
        assert traj.jump_events == np.count_nonzero(stream.poisson(5.0 * 0.1, 50))
        cold = simulate(FIG1_PARAMS, NOISE_OFF, TABLE_DELAYS, h, sc)
        assert cold.jump_events == 0

    def test_one_count_moves_every_species(self):
        # equal marks on equal states: the one count per step moves every
        # species alike, so they stay equal at every grid point
        sc = StepConfig(dt=0.1, t_end=5.0, seed=1)
        n = NoiseSpec(0, 0, 0, q1=-0.04, q2=-0.04, q3=-0.04, lam=5.0)
        traj = simulate(ZERO_RATES, n, DelaySpec(0, 0, 0), HistorySpec(10, 10, 10), sc)
        assert traj.jump_events > 0
        x, y, z = traj.states.T
        assert np.all(x == y) and np.all(y == z)

    def test_multi_arrival_step_is_linear_in_the_count(self):
        # a step applies its count j as q*S*(j - lambda*dt), so it scales S by
        # 1 + q*(j - lambda*dt), not by the model's (1 + q)^j: with q = -0.9
        # every step of two or more arrivals sends x to the floor, where
        # (1 + q)^2 = 0.01 would keep it positive
        dt, lam, n_steps, seed = 0.5, 1.0, 200, 4
        q = (-0.9, -0.3, 0.4)
        n = NoiseSpec(0, 0, 0, *q, lam=lam)
        sc = StepConfig(dt=dt, t_end=n_steps * dt, seed=seed)
        traj = simulate(ZERO_RATES, n, DelaySpec(0, 0, 0), HistorySpec(10, 10, 10), sc)
        counts = lrng.stream(seed, 0, lrng.JUMPS).poisson(lam * dt, n_steps)
        assert np.count_nonzero(counts >= 2) >= 5
        rows, hits = [(10.0, 10.0, 10.0)], 0
        for j in counts.tolist():
            new = [s + qi * s * (j - lam * dt) for s, qi in zip(rows[-1], q)]
            hits += sum(v < 1e-12 for v in new)
            rows.append(tuple(max(v, 1e-12) for v in new))
        assert np.array_equal(traj.states, np.array(rows))
        assert traj.floor_hits == hits
        assert np.all(traj.states[1:, 0][counts >= 2] == 1e-12)

    def test_noise_off_simulate_equals_manual_euler(self):
        # hand-rolled explicit Euler over the same grid, built on drift()
        sc = StepConfig(dt=0.01, t_end=3.0)
        h = HistorySpec(10, 10, 5)
        traj = simulate(FIG1_PARAMS, NOISE_OFF, TABLE_DELAYS, h, sc)

        k1, k2, k3 = 50, 100, 150  # delays in steps at dt = 0.01
        xs = [10.0] * (k3 + 1)
        ys = [10.0] * (k3 + 1)
        zs = [5.0] * (k3 + 1)
        for i in range(sc.n_steps):
            m = k3 + i
            f = drift(xs[m], ys[m], zs[m], xs[m - k1], ys[m - k2], xs[m - k3], ys[m - k3], FIG1_PARAMS)
            xs.append(xs[m] + 0.01 * f[0])
            ys.append(ys[m] + 0.01 * f[1])
            zs.append(zs[m] + 0.01 * f[2])
        manual = np.column_stack([xs, ys, zs])[k3:]
        assert np.allclose(traj.states, manual, rtol=1e-13, atol=1e-13)

    def test_off_grid_delay_rejected(self):
        sc = StepConfig(dt=0.01, t_end=1.0)
        h = HistorySpec(10, 10, 5)
        with pytest.raises(ValueError, match=r"tau1 must be divided evenly by dt = 0\.01, got 0\.015"):
            simulate(FIG1_PARAMS, NOISE_OFF, DelaySpec(0.015, 0, 0), h, sc)

    def test_dt_larger_than_delay_rejected(self):
        sc = StepConfig(dt=0.6, t_end=6.0)
        h = HistorySpec(10, 10, 5)
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
        h = HistorySpec(10, 10, 5)
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


def _keep_everything(p, n, d, h, c, replicate=0):
    """simulate's numbers from a loop that keeps every grid row and draws
    each stream once over the whole horizon: (states, jump_events,
    floor_hits), or SimulationError with simulate's message."""
    k1, k2, k3 = engine.lag_steps(d, c.dt)
    xs, ys, zs = init_history(h, d, c)
    base = len(xs) - 1
    normals = lrng.stream(c.seed, replicate, lrng.GAUSSIAN).standard_normal((c.n_steps, 3))
    counts = lrng.stream(c.seed, replicate, lrng.JUMPS).poisson(n.lam * c.dt, c.n_steps)
    advance = engine._stepper(p, n, c.dt)
    hits = 0
    for i, (z, j) in enumerate(zip(normals.tolist(), counts.tolist())):
        m = base + i
        old = (xs[m], ys[m], zs[m])
        new = advance(*old, xs[m - k1], ys[m - k2], xs[m - k3], ys[m - k3], *z, j)
        if not all(map(math.isfinite, new)):
            raise SimulationError(engine._fault_text(i, c.dt, old, z, j))
        clamped = [v < 1e-12 and s > 0.0 for v, s in zip(new, old)]
        hits += sum(clamped)
        for series, v, low in zip((xs, ys, zs), new, clamped):
            series.append(1e-12 if low else v)
    return np.array([xs[base:], ys[base:], zs[base:]]).T, np.count_nonzero(counts), hits


class TestRecordWindow:
    """simulate keeps a window of its grid record and writes each draw
    chunk's rows into the path: the numbers are those of keeping every row."""

    # sigma = 3 overshoots below zero, so the floor clamps count too
    NOISY = NoiseSpec(3.0, 1e-3, 3.0, q1=-0.04, q2=-0.006, q3=-0.008, lam=5.0)

    @pytest.mark.parametrize("delays", [TABLE_DELAYS, DelaySpec(0, 0, 0), DelaySpec(0, 0, 6.0),
                                        DelaySpec(0.01, 0.01, 0.01), DelaySpec(5.12, 0, 0),
                                        DelaySpec(0, 0.01, 0)],
                             ids=["kmax-150", "zero-lags", "kmax-600-over-a-chunk",
                                  "one-step-lags", "lag-of-a-chunk", "mixed-zero-and-one-step"])
    @pytest.mark.parametrize("n_steps", [511, 512, 513, 1025])
    def test_equals_keeping_every_row(self, delays, n_steps):
        c = StepConfig(dt=0.01, t_end=n_steps * 0.01, seed=9)
        h = HistorySpec(10, 10, 5)
        traj = simulate(FIG1_PARAMS, self.NOISY, delays, h, c, replicate=2)
        states, jumps, hits = _keep_everything(FIG1_PARAMS, self.NOISY, delays, h, c, replicate=2)
        assert traj.states.tobytes() == states.tobytes()
        assert traj.times.tobytes() == (np.arange(n_steps + 1) * 0.01).tobytes()
        assert (traj.jump_events, traj.floor_hits) == (jumps, hits)

    @pytest.mark.parametrize("tau1, n_steps", [(1.5, 1025), (200.0, 2600)],
                             ids=["spare-a-chunk", "spare-a-32nd"])
    def test_window_stays_bounded(self, monkeypatch, tau1, n_steps):
        # kmax = 150 drops rows after every chunk; kmax = 20000 keeps
        # 20001 // 32 = 625 spare rows, so it drops after every second chunk
        # and the rows move only every 625 steps or more
        seen = []
        real = engine._window

        def window(record, path, a, b, keep):
            seen.append(len(record[0]))
            real(record, path, a, b, keep)
            seen.append(len(record[0]))

        monkeypatch.setattr(engine, "_window", window)
        d = DelaySpec(tau1, 0, 0)
        c = StepConfig(dt=0.01, t_end=n_steps * 0.01, seed=1)
        h = HistorySpec(10, 10, 5)
        traj = simulate(FIG1_PARAMS, FIG1_NOISE, d, h, c)
        keep = round(tau1 / 0.01) + 1
        spare = max(engine._DRAW_CHUNK, keep // 32)
        assert max(seen) <= keep + spare - 1 + engine._DRAW_CHUNK
        assert seen.count(keep) >= 2 and seen[-1] < keep + spare
        assert traj.states.tobytes() == _keep_everything(FIG1_PARAMS, FIG1_NOISE, d, h, c)[0].tobytes()

    def test_fault_in_the_second_chunk_keeps_its_message(self):
        # x doubles every step (dt = 1, r1 = 1, K1 = 1e308, and its 600-step
        # delayed tap stays far below K1), so it overflows in step 1023, the
        # second chunk's last, while the record's window has dropped rows
        p = ModelParams(r1=1.0, r2=0, k1=1e308, k2=1, alpha1=0, alpha2=0,
                        alpha3=0, beta=0, delta=0, a1=0, a2=0)
        c = StepConfig(dt=1.0, t_end=2000.0, seed=4)
        args = (p, NOISE_OFF, DelaySpec(600.0, 0, 0), HistorySpec(1, 1, 1), c)
        with pytest.raises(SimulationError) as want:
            _keep_everything(*args)
        with pytest.raises(SimulationError) as got:
            simulate(*args)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("non-finite state at t=1024: from (8.98847e+307,1,1), normals=(")

    def test_fault_in_the_middle_of_a_chunk_keeps_its_message(self):
        # fig3 at seed 3 overflows in step 1942, the 407th of the fourth chunk
        from levyprey import PRESETS

        sc = PRESETS["fig3"]
        c = StepConfig(dt=sc.dt, t_end=20.0, seed=3)
        assert 0 < 1942 % engine._DRAW_CHUNK < engine._DRAW_CHUNK - 1
        args = (sc.params, sc.noise, sc.delays, sc.history, c)
        with pytest.raises(SimulationError) as want:
            _keep_everything(*args)
        with pytest.raises(SimulationError) as got:
            simulate(*args)
        assert str(got.value) == str(want.value) == (
            "non-finite state at t=19.43: from (1.17945e+174,1.17945e+174,41.2562), "
            "normals=(0.413234,-0.382124,-0.321559), jumps=0"
        )

    def test_memory_per_step_within_budget(self):
        # 10^5 fig1 steps hold the path, 32 bytes a step, under _STEP_BYTES
        # (40); the draw chunk and the window's spare rows are a fixed
        # allowance, 128 kB, whatever the horizon
        from levyprey import PRESETS

        sc = PRESETS["fig1"]
        c = StepConfig(dt=sc.dt, t_end=1000.0)
        assert c.n_steps == 100_000
        tracemalloc.start()
        try:
            simulate(sc.params, sc.noise, sc.delays, sc.history, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = engine._trajectory_bytes(c, sc.delays) + (128 << 10)
        assert peak <= budget, f"{peak / c.n_steps:.1f} B/step, budget {budget / c.n_steps:.1f}"


class TestStreams:
    def test_streams_are_deterministic_and_disjoint(self):
        a = lrng.stream(1, 0, lrng.GAUSSIAN).standard_normal(4)
        b = lrng.stream(1, 0, lrng.GAUSSIAN).standard_normal(4)
        c = lrng.stream(1, 0, lrng.JUMPS).standard_normal(4)
        d = lrng.stream(1, 1, lrng.GAUSSIAN).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    @pytest.mark.parametrize("build, message", [
        (lambda: lrng.stream(1, -1, lrng.GAUSSIAN), "replicate index must be >= 0, got -1"),
        (lambda: lrng.stream(1, 0, 2), "unknown stream purpose 2"),
        # two replicates in [0, 2**32) take the vectorised path
        (lambda: lrng.streams(1, [0, 1], 2), "unknown stream purpose 2"),
    ], ids=["negative-replicate", "stream-purpose", "streams-purpose"])
    def test_bad_triples_are_refused(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**33),
        reps=st.lists(st.integers(0, 2**33), min_size=1, max_size=6),
        purpose=st.sampled_from([lrng.GAUSSIAN, lrng.JUMPS]),
    )
    @example(seed=2**32 - 1, reps=[0, 2**32 - 1], purpose=lrng.JUMPS)
    @example(seed=0, reps=[5], purpose=lrng.GAUSSIAN)
    # a block with replicates below and above 2**32
    @example(seed=3, reps=[2**32 - 1, 2**32, 7], purpose=lrng.GAUSSIAN)
    def test_block_streams_equal_single_streams(self, seed, reps, purpose):
        # rng.streams hashes numpy's SeedSequence itself; a numpy release that
        # changes SeedSequence or PCG64 seeding fails here rather than moving
        # every stream
        got = list(lrng.streams(seed, reps, purpose))
        want = [lrng.stream(seed, k, purpose) for k in reps]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.bit_generator.state == w.bit_generator.state
            assert np.array_equal(g.standard_normal(5), w.standard_normal(5))
            assert np.array_equal(g.poisson(1.5, 5), w.poisson(1.5, 5))

    def test_values_across_draw_chunks(self):
        # 1100 steps are three draw chunks; the final state and jump count
        # were recorded from one full-horizon draw per stream, so drawing in
        # chunks must not move a single value
        sc = StepConfig(dt=0.01, t_end=11.0, seed=7)
        n = NoiseSpec(0.05, 0.05, 0.05, q1=-0.04, q2=-0.006, q3=-0.008, lam=5.0)
        traj = simulate(FIG1_PARAMS, n, TABLE_DELAYS, HistorySpec(10, 10, 5), sc,
                        replicate=3)
        assert len(traj.times) == 1101
        assert tuple(traj.states[-1].tolist()) == (14.285817464559422, 7.011850555934638, 2.4165979704360754)
        assert traj.jump_events == 66

    @pytest.mark.parametrize("n_reps", [1, 3])
    def test_draws_are_each_replicates_own_streams(self, n_reps):
        # one replicate draws through rng.stream, a block through the
        # vectorised rng.streams; 600 steps are two chunks, and together
        # they are each replicate's full-horizon draw: three normals and
        # one Poisson count per step
        n = NoiseSpec(0, 0, 0, 0, 0, 0, lam=5.0)
        chunks = [(z.copy(), j.copy()) for z, j in engine._draws(7, range(n_reps), n, 0.01, 600)]
        assert [j.shape for _, j in chunks] == [(512, n_reps), (88, n_reps)]
        normals = np.concatenate([z for z, _ in chunks], axis=1)
        counts = np.concatenate([j for _, j in chunks])
        for b in range(n_reps):
            gauss = lrng.stream(7, b, lrng.GAUSSIAN).standard_normal((600, 3)).T
            assert np.array_equal(normals[:, :, b], gauss)
            assert np.array_equal(counts[:, b], lrng.stream(7, b, lrng.JUMPS).poisson(0.05, 600))

    def test_no_stream_collisions_over_many_replicates(self):
        # checksum of each replicate's first Gaussian block must be unique
        seen = set()
        for k in range(10_000):
            block = lrng.stream(123, k, lrng.GAUSSIAN).standard_normal(4)
            seen.add(block.tobytes())
        assert len(seen) == 10_000


class TestStrongOrder:
    """The scheme's strong order in the noise, measured against an exact solution.

    With zero drift and no delays each species follows the linear jump SDE
    dS = sigma*S*dW + q*S*(dN - lambda*dt), whose exact solution is
    S_T = S_0 * exp((-sigma^2/2 - q*lambda)*T + sigma*W_T) * (1 + q)^N_T
    (Higham & Kloeden, Numer. Math. 101 (2005)). The levels are coupled as in
    Higham, SIAM Review 43 (2001): one fine draw set per replicate; coarse
    level r steps on sums of r fine draws of the same replicate (normals
    sum(Z)/sqrt(r), counts sum(N)), and W_T and N_T are the same sums over
    the whole horizon. The drift is off because its first-order error would
    hide the noise's half order (persist, with its small noise, reads about
    1.2). There is no weak-order check: with zero drift the compensated
    Euler mean is exactly S_0, so the weak error is pure Monte Carlo noise.
    """

    SIGMA = np.array([0.5, 0.3, 0.1])
    Q = np.array([-0.3, 0.2, 0.0])
    S0 = np.array([1.0, 2.0, 0.5])
    FINE = 2**10  # fine steps over T = 1
    LEVELS = [2**j for j in range(1, 8)]  # coarse dt = 2^-9 ... 2^-3
    REPS, BLOCK = 4096, 512

    def test_strong_order_is_one_half(self, monkeypatch):
        noise = NoiseSpec(*self.SIGMA, *self.Q, lam=1.0)
        delays, hist = DelaySpec(0, 0, 0), HistorySpec(*self.S0)
        dt, seed = 1.0 / self.FINE, 7
        real = engine._draws
        err = np.zeros((len(self.LEVELS), 3))
        for start in range(0, self.REPS, self.BLOCK):
            reps = range(start, start + self.BLOCK)
            # copies: a yielded chunk is valid only until the next one
            chunks = [(z.copy(), j.copy()) for z, j in real(seed, reps, noise, dt, self.FINE)]
            normals = np.concatenate([z for z, _ in chunks], axis=1)  # (3, FINE, BLOCK)
            counts = np.concatenate([j for _, j in chunks])  # (FINE, BLOCK)
            w_t = math.sqrt(dt) * normals.sum(axis=1)
            n_t = counts.sum(axis=0)
            rate = -self.SIGMA**2 / 2 - self.Q * noise.lam
            exact = self.S0[:, None] * np.exp(rate[:, None] + self.SIGMA[:, None] * w_t)
            exact *= (1 + self.Q)[:, None] ** n_t
            for i, r in enumerate(self.LEVELS):
                steps = self.FINE // r
                coarse = (normals.reshape(3, steps, r, self.BLOCK).sum(axis=2) / math.sqrt(r),
                          counts.reshape(steps, r, self.BLOCK).sum(axis=1))
                monkeypatch.setattr(engine, "_draws", lambda *args, coarse=coarse: iter([coarse]))
                cfg = StepConfig(dt=dt * r, t_end=1.0, seed=seed)
                states, terminal = np.empty((self.BLOCK, 2, 3)), np.empty((self.BLOCK, 3))
                engine._simulate_batch(
                    ZERO_RATES, noise, delays, hist, cfg, reps, [0, steps], states, terminal
                )
                err[i] += np.abs(states[:, -1, :] - exact.T).sum(axis=0)
        log_dt = np.log2(np.array(self.LEVELS) * dt)
        orders = [np.polyfit(log_dt, np.log2(err[:, s]), 1)[0] for s in range(3)]
        # seeds 0-19 fit 0.487 to 0.512 for every species
        assert all(0.45 <= o <= 0.55 for o in orders), orders
