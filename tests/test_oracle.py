"""Unit tests for the deterministic reference solver and convergence studies."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from conftest import rk4_self_convergence
from levyprey import (
    DelaySpec,
    HistorySpec,
    ModelParams,
    PRESETS,
    StepConfig,
    Trajectory,
    convergence_study,
    solve_deterministic,
)
from levyprey import engine, oracle
from levyprey.model import drift

FIG1_PARAMS = PRESETS["fig1"].params
TABLE_DELAYS = DelaySpec(0.5, 1.0, 1.5)
FIG3 = PRESETS["fig3"]

LOGISTIC = ModelParams(r1=1.0, r2=0.0, k1=100.0, k2=1.0, alpha1=0, alpha2=0,
                       alpha3=0, beta=0, delta=0, a1=0, a2=0)


def _lagrange(series, u, lo_bound, hi_bound):
    """Lagrange interpolation of series at fractional index u, on up to four
    nodes confined to [lo_bound, hi_bound], its weights computed on each call."""
    lo = max(math.floor(u) - 1, lo_bound)
    if lo > hi_bound - 3:
        lo = max(lo_bound, hi_bound - 3)
    hi = min(lo + 3, hi_bound)
    acc = 0.0
    for a in range(lo, hi + 1):
        w = 1.0
        for b in range(lo, hi + 1):
            if b != a:
                w *= (u - b) / (a - b)
        acc += w * series[a]
    return acc


def _uncached_solve(p, d, h, dt, t_end):
    """The reference solver's states with every delayed argument evaluated
    afresh at every stage: a stored sample at a whole grid index; at a half
    index, the history's constant before t = 0 and an uncached stencil inside
    the smooth piece after it; the stage value for a zero lag."""
    lags = engine.lag_steps(d, dt)
    xs, ys, zs = engine.init_history(h, d, StepConfig(dt=dt, t_end=t_end))
    base = len(xs) - 1
    gs = math.gcd(*lags)

    def past(which, q2):
        # x (which = 0) or y (1) at grid index q2 / 2 from t = 0
        series = (xs, ys)[which]
        n, odd = divmod(q2, 2)
        if not odd:
            return series[base + n]
        if n < 0:
            return (h.x0, h.y0)[which]
        lo = base + n // gs * gs
        return _lagrange(series, base + n + 0.5, lo, lo + gs)

    def rates(x, y, z, q2):
        k1, k2, k3 = (2 * k for k in lags)
        return drift(x, y, z, past(0, q2 - k1) if k1 else x, past(1, q2 - k2) if k2 else y,
                     past(0, q2 - k3) if k3 else x, past(1, q2 - k3) if k3 else y, p)

    half, sixth = dt / 2.0, dt / 6.0
    for i in range(round(t_end / dt)):
        x0, y0, z0 = xs[-1], ys[-1], zs[-1]
        f1 = rates(x0, y0, z0, 2 * i)
        f2 = rates(x0 + half * f1[0], y0 + half * f1[1], z0 + half * f1[2], 2 * i + 1)
        f3 = rates(x0 + half * f2[0], y0 + half * f2[1], z0 + half * f2[2], 2 * i + 1)
        f4 = rates(x0 + dt * f3[0], y0 + dt * f3[1], z0 + dt * f3[2], 2 * i + 2)
        xs.append(x0 + sixth * (f1[0] + 2.0 * f2[0] + 2.0 * f3[0] + f4[0]))
        ys.append(y0 + sixth * (f1[1] + 2.0 * f2[1] + 2.0 * f3[1] + f4[1]))
        zs.append(z0 + sixth * (f1[2] + 2.0 * f2[2] + 2.0 * f3[2] + f4[2]))
    return np.array([xs[base:], ys[base:], zs[base:]]).T


def _same_bits(a, b):
    """Equal shape, dtype and bytes: unlike np.array_equal, -0.0 differs from 0.0."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSolveDeterministic:
    def test_capacity_equilibrium_preserved(self):
        h = HistorySpec(100.0, 100.0, 0.0)
        sol = solve_deterministic(FIG1_PARAMS, TABLE_DELAYS, h, dt=0.1, t_end=500.0)
        assert np.max(np.abs(sol.x - 100.0) / 100.0) <= 1e-9
        assert np.max(np.abs(sol.y - 100.0) / 100.0) <= 1e-9
        assert np.max(np.abs(sol.z)) <= 1e-9

    def test_origin_equilibrium_preserved(self):
        h = HistorySpec(0.0, 0.0, 0.0)
        sol = solve_deterministic(FIG1_PARAMS, TABLE_DELAYS, h, dt=0.1, t_end=500.0)
        assert np.max(np.abs(sol.states)) == 0.0

    def test_logistic_closed_form(self):
        # single-prey reduction: x(t) = K / (1 + (K/x0 - 1) e^{-rt})
        h = HistorySpec(10.0, 0.0, 0.0)
        sol = solve_deterministic(LOGISTIC, DelaySpec(0, 0, 0), h, dt=1e-3, t_end=1.0)
        exact = 100.0 / (1.0 + 9.0 * np.exp(-sol.times))
        assert np.max(np.abs(sol.x - exact) / exact) <= 1e-6
        assert sol.x[-1] == pytest.approx(23.1969, abs=1e-3)

    def test_halving_dt_sixteenfold_on_smooth_problem(self):
        h = HistorySpec(10.0, 0.0, 0.0)
        ref = solve_deterministic(LOGISTIC, DelaySpec(0, 0, 0), h, dt=1e-4, t_end=2.0)
        errs = []
        for dt in (1e-2, 5e-3):
            sol = solve_deterministic(LOGISTIC, DelaySpec(0, 0, 0), h, dt=dt, t_end=2.0)
            k = round(dt / 1e-4)
            errs.append(np.max(np.abs(sol.states - ref.states[::k][: len(sol.states)])))
        ratio = errs[0] / errs[1]
        assert 10.0 < ratio < 25.0  # ~2^4

    def test_returns_engine_path_type(self):
        h = HistorySpec(10, 10, 5)
        sol = solve_deterministic(FIG1_PARAMS, TABLE_DELAYS, h, dt=0.05, t_end=1.0)
        assert isinstance(sol, Trajectory)
        assert (sol.jump_events, sol.floor_hits) == (0, 0)
        assert np.array_equal(sol.times, np.arange(21) * 0.05)
        assert sol.states.shape == (21, 3)
        assert tuple(sol.states[0]) == (10, 10, 5)

    # pinned exact end states: any change to a delay tap, its stencil or its
    # order of operations moves the last bits
    @pytest.mark.parametrize("delays, dt, t_end, end", [
        # zero and positive lags mixed: a zero lag reads the stage value, a
        # positive one the history's constant and then stored midpoints
        (DelaySpec(0.5, 0, 1.0), 0.25, 2.0,
         (29.374074520699757, 21.641136496147546, 12.988771337501198)),
        # lag gcd of 1 step: two-node (linear) midpoint stencils
        (TABLE_DELAYS, 0.5, 5.0,
         (34.035941727078196, 25.883403077367475, 12.345409686831234)),
        # lag gcd of 2 steps: three-node (quadratic) midpoint stencils
        (TABLE_DELAYS, 0.25, 5.0,
         (34.23234576436944, 26.110901696317796, 12.30915375343764)),
    ], ids=["mixed-lags", "gcd-1-step", "gcd-2-steps"])
    def test_exact_end_state(self, delays, dt, t_end, end):
        sol = solve_deterministic(FIG3.params, delays, FIG3.history, dt=dt, t_end=t_end)
        assert tuple(float(v) for v in sol.states[-1]) == end

    @pytest.mark.parametrize("delays, dt", [
        (DelaySpec(0, 0, 0), 0.05),
        (DelaySpec(0.5, 0, 1.0), 0.25),
        (DelaySpec(1.0, 1.0, 1.0), 0.1),
        (TABLE_DELAYS, 0.5),
        (TABLE_DELAYS, 0.25),
        (DelaySpec(1.5, 1.0, 0.5), 0.05),
        (DelaySpec(0.5, 1.0, 0.25), 0.05),
    ], ids=["zero-lags", "mixed-lags-table", "equal-lags", "gcd-1-step", "gcd-2-steps",
            "longest-lag-first", "cubic-table"])
    def test_equals_uncached_taps(self, delays, dt):
        # cached stencil weights and a midpoint shared between the two lags
        # that read a series must give the same bits as computing every tap
        # afresh
        sol = solve_deterministic(FIG3.params, delays, FIG3.history, dt=dt, t_end=5.0)
        assert _same_bits(sol.states, _uncached_solve(FIG3.params, delays, FIG3.history, dt, 5.0))

    def test_fig3_reference_states_pinned(self):
        # the convergence study's reference solve on fig3: lags of 800, 1600
        # and 2400 steps, 16000 steps with cubic midpoint stencils
        sol = solve_deterministic(FIG3.params, FIG3.delays, FIG3.history, dt=6.25e-4, t_end=10.0)
        digest = hashlib.sha256(sol.states.astype("<f8").tobytes()).hexdigest()
        assert digest == "24ddd2844f51e42492d9bd75f66331d437e12d56783fa97d073bd9dc41002169"

    @pytest.mark.parametrize("delays, dt, t_end, history", [
        (DelaySpec(0, 0, 0), 0.25, 5.0, FIG3.history),
        (DelaySpec(0.5, 1.0, 0.75), 0.25, 5.0, FIG3.history),
        (DelaySpec(0.5, 0, 0), 0.25, 5.0, FIG3.history),
        (DelaySpec(1.5, 0.75, 0.75), 0.25, 5.0, FIG3.history),
        (DelaySpec(1.0, 0.5, 1.0), 0.125, 5.0, FIG3.history),
        (DelaySpec(0.5, 1.0, 1.0), 0.03125, 5.0, FIG3.history),
        (DelaySpec(1.0, 0.5, 0.5), 0.03125, 2.0, FIG3.history),
        (DelaySpec(0.5, 1.0, 1.0), 0.03125, 0.25, FIG3.history),
        (DelaySpec(0, 0.5, 0), 0.03125, 0.25, FIG3.history),
        (DelaySpec(0.5, 1.0, 1.0), 0.03125, 5.0, HistorySpec(0.0, 25.0, 13.0)),
    ], ids=["zero-lags", "gcd-1-step-table", "x-lag-only", "gcd-3-steps-longest-first",
            "gcd-4-steps-equal", "gcd-16-steps-table", "gcd-16-steps-longest-first",
            "horizon-inside-first-piece", "y-lag-only-horizon-inside-first-piece",
            "zero-prey-history"])
    def test_equals_per_query_stencils(self, monkeypatch, delays, dt, t_end, history):
        # evaluating the midpoints a smooth piece at a time, from a stencil
        # table, must give the same bits as the per-query stencil rule, both
        # the midpoints and the states: the first and last pieces, a piece of
        # 1 to 16 steps, the shorter lag of a series first or last or both
        # equal, zero lags, a horizon that ends inside the first piece, and a
        # zero prey, whose midpoints sum zeros through negative cubic weights.
        # Stored nodes are never -0.0, so each piece is also interpolated on
        # -0.0 nodes, where only a sum that starts from +0.0, as the
        # per-query one does, keeps every sign bit
        interpolate, mids, expected = oracle._interpolate, [], []

        def checked_interpolate(series, at, table):
            for nodes in ([-0.0] * len(series), series):
                got = interpolate(nodes, at, table)
                mids.extend(got)
                gs = len(got)
                expected.extend(_lagrange(nodes, at + j + 0.5, at, at + gs) for j in range(gs))
            return got

        monkeypatch.setattr(oracle, "_interpolate", checked_interpolate)
        sol = solve_deterministic(FIG3.params, delays, history, dt=dt, t_end=t_end)
        assert _same_bits(np.array(mids), np.array(expected))
        assert _same_bits(sol.states, _uncached_solve(FIG3.params, delays, history, dt, t_end))

    @pytest.mark.parametrize("ka, kb", [(3, 7), (7, 3), (5, 5), (0, 4), (4, 0), (0, 0)])
    def test_each_midpoint_computed_once(self, monkeypatch, ka, kb):
        # x is read at lags of ka and kb steps (tau1, tau3), y at 2 and kb
        # steps: every midpoint a positive lag reads is computed once, however
        # many lags and stages read it, and a series no positive lag reads
        # gets no midpoints after t = 0
        dt, n_steps, k2 = 0.25, 20, 2
        kmax, gs = max(ka, k2, kb), math.gcd(ka, k2, kb)
        computed = {28.0: [], 25.0: []}  # keyed by the x and y histories
        interpolate = oracle._interpolate

        def counted_interpolate(series, at, table):
            mids = interpolate(series, at, table)
            computed[series[0]].extend(range(at - kmax, at - kmax + len(mids)))
            return mids

        delays = DelaySpec(ka * dt, k2 * dt, kb * dt)
        expected = _uncached_solve(FIG3.params, delays, FIG3.history, dt, n_steps * dt)
        monkeypatch.setattr(oracle, "_interpolate", counted_interpolate)
        sol = solve_deterministic(FIG3.params, delays, FIG3.history, dt, n_steps * dt)
        assert _same_bits(sol.states, expected)
        # after t = 0, each midpoint a lag reads, once, in the pieces before the last
        for series, lags in ((28.0, (ka, kb)), (25.0, (k2, kb))):
            read = {i - k for i in range(n_steps) for k in lags if k and i >= k}
            assert len(computed[series]) == len(set(computed[series]))
            assert read <= set(computed[series]) <= set(range(n_steps - 1))
            assert len(computed[series]) == ((n_steps - 1) // gs * gs if any(lags) else 0)

    def test_memory_per_step_within_budget(self):
        # the midpoints held between steps are bounded by the delays, so the
        # solve keeps little more than the grid record and the path: it must
        # fit the engine's per-step budget. 2 * 10^4 steps is where the fixed part
        # (history, weights, numpy) has shrunk below the margin; under
        # tracemalloc the solve runs about twenty times slower
        sc = PRESETS["persist"]
        delays = DelaySpec(sc.delays.tau1, sc.delays.tau2, 0.0)
        tracemalloc.start()
        try:
            solve_deterministic(sc.params, delays, sc.history, dt=0.01, t_end=200.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20_000 * engine._STEP_BYTES

    def test_horizon_over_the_limit_is_refused(self, monkeypatch):
        # the solver holds simulate's grid record and path, so it obeys
        # simulate's limit: one byte under them it refuses, at them it runs
        sc = PRESETS["persist"]
        need = engine._trajectory_bytes(StepConfig(dt=0.01, t_end=10.0), sc.delays)
        monkeypatch.setattr(engine, "_MAX_BYTES", need - 1)
        with pytest.raises(ValueError, match="simulation too large"):
            solve_deterministic(sc.params, sc.delays, sc.history, dt=0.01, t_end=10.0)
        monkeypatch.setattr(engine, "_MAX_BYTES", need)
        traj = solve_deterministic(sc.params, sc.delays, sc.history, dt=0.01, t_end=10.0)
        assert len(traj.states) == 1001

    def test_dt_must_divide_delays(self):
        h = HistorySpec(10, 10, 5)
        with pytest.raises(ValueError, match="divide"):
            solve_deterministic(FIG1_PARAMS, DelaySpec(0.5, 1.0, 1.5), h, dt=0.3, t_end=1.0)


class TestConvergenceStudy:
    def test_engine_noise_off_is_first_order(self):
        sc = PRESETS["fig3"]
        h = HistorySpec(28.0, 25.0, 13.0)
        table = convergence_study(sc.params, sc.delays, h, [1e-2, 5e-3], t_end=5.0)
        assert 0.7 <= table.observed_order <= 1.3
        errs = [r.max_err for r in table.rows]
        assert errs[1] < errs[0]

    def test_single_dt_has_no_order_estimate(self):
        sc = PRESETS["fig3"]
        h = HistorySpec(28.0, 25.0, 13.0)
        table = convergence_study(sc.params, sc.delays, h, [1e-2], t_end=2.0)
        assert len(table.rows) == 1
        assert table.rows[0].pair_order is None

    def test_dt_list_must_descend(self):
        sc = PRESETS["fig3"]
        h = HistorySpec(28.0, 25.0, 13.0)
        with pytest.raises(ValueError, match="descending"):
            convergence_study(sc.params, sc.delays, h, [5e-3, 1e-2], t_end=2.0)

    def test_oracle_engine_gap_shrinks_monotonically(self):
        sc = PRESETS["fig3"]
        h = HistorySpec(28.0, 25.0, 13.0)
        table = convergence_study(sc.params, sc.delays, h, [2e-2, 1e-2, 5e-3, 2.5e-3], t_end=5.0)
        errs = [r.max_err for r in table.rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_delayed_rk4_self_convergence_is_fourth_order(self):
        sc = PRESETS["fig3"]
        h = HistorySpec(10.0, 10.0, 5.0)
        table = rk4_self_convergence(sc.params, sc.delays, h, [1e-2, 5e-3, 2.5e-3], t_end=10.0)
        assert 3.5 <= table.observed_order <= 4.5
