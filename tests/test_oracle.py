"""Unit tests for the deterministic reference solver and convergence studies."""

import numpy as np
import pytest

from levyprey import (
    DelaySpec,
    HistorySpec,
    ModelParams,
    PRESETS,
    Trajectory,
    convergence_study,
    rk4_self_convergence,
    solve_deterministic,
)

FIG1_PARAMS = PRESETS["fig1"].params
TABLE_DELAYS = DelaySpec(0.5, 1.0, 1.5)
FIG3 = PRESETS["fig3"]
TABLE_HISTORY = HistorySpec.from_table(
    [(-1.0, 20, 18, 9), (-0.6, 26, 21, 12), (-0.25, 24, 27, 10), (0, 28, 25, 13)]
)

LOGISTIC = ModelParams(r1=1.0, r2=0.0, k1=100.0, k2=1.0, alpha1=0, alpha2=0,
                       alpha3=0, beta=0, delta=0, a1=0, a2=0)


class TestSolveDeterministic:
    def test_capacity_equilibrium_preserved(self):
        h = HistorySpec.from_constant(100.0, 100.0, 0.0)
        sol = solve_deterministic(FIG1_PARAMS, TABLE_DELAYS, h, dt=0.1, t_end=500.0)
        assert np.max(np.abs(sol.x - 100.0) / 100.0) <= 1e-9
        assert np.max(np.abs(sol.y - 100.0) / 100.0) <= 1e-9
        assert np.max(np.abs(sol.z)) <= 1e-9

    def test_origin_equilibrium_preserved(self):
        h = HistorySpec.from_constant(0.0, 0.0, 0.0)
        sol = solve_deterministic(FIG1_PARAMS, TABLE_DELAYS, h, dt=0.1, t_end=500.0)
        assert np.max(np.abs(sol.states)) == 0.0

    def test_logistic_closed_form(self):
        # single-prey reduction: x(t) = K / (1 + (K/x0 - 1) e^{-rt})
        h = HistorySpec.from_constant(10.0, 0.0, 0.0)
        sol = solve_deterministic(LOGISTIC, DelaySpec(0, 0, 0), h, dt=1e-3, t_end=1.0)
        exact = 100.0 / (1.0 + 9.0 * np.exp(-sol.times))
        assert np.max(np.abs(sol.x - exact) / exact) <= 1e-6
        assert sol.x[-1] == pytest.approx(23.1969, abs=1e-3)

    def test_halving_dt_sixteenfold_on_smooth_problem(self):
        h = HistorySpec.from_constant(10.0, 0.0, 0.0)
        ref = solve_deterministic(LOGISTIC, DelaySpec(0, 0, 0), h, dt=1e-4, t_end=2.0)
        errs = []
        for dt in (1e-2, 5e-3):
            sol = solve_deterministic(LOGISTIC, DelaySpec(0, 0, 0), h, dt=dt, t_end=2.0)
            k = round(dt / 1e-4)
            errs.append(np.max(np.abs(sol.states - ref.states[::k][: len(sol.states)])))
        ratio = errs[0] / errs[1]
        assert 10.0 < ratio < 25.0  # ~2^4

    def test_returns_engine_path_type(self):
        h = HistorySpec.from_constant(10, 10, 5)
        sol = solve_deterministic(FIG1_PARAMS, TABLE_DELAYS, h, dt=0.05, t_end=1.0)
        assert isinstance(sol, Trajectory)
        assert (sol.jump_events, sol.floor_hits) == (0, 0)
        assert sol.dt == 0.05
        assert np.array_equal(sol.times, np.arange(21) * 0.05)
        assert sol.states.shape == (21, 3)
        assert tuple(sol.states[0]) == (10, 10, 5)

    # pinned exact end states: any change to a delay tap, its stencil or its
    # order of operations moves the last bits
    @pytest.mark.parametrize("delays, history, dt, t_end, end", [
        # zero and positive lags mixed, with a table history whose kinks lie
        # off the grid: midpoint taps before t = 0 read the history function
        (DelaySpec(0.5, 0, 1.0), TABLE_HISTORY, 0.25, 2.0,
         (31.823425675128, 23.68233223084142, 14.472146523563872)),
        # lag gcd of 1 step: two-node (linear) midpoint stencils
        (TABLE_DELAYS, FIG3.history, 0.5, 5.0,
         (34.035941727078196, 25.883403077367475, 12.345409686831234)),
        # lag gcd of 2 steps: three-node (quadratic) midpoint stencils
        (TABLE_DELAYS, FIG3.history, 0.25, 5.0,
         (34.23234576436944, 26.110901696317796, 12.30915375343764)),
    ], ids=["mixed-lags-table", "gcd-1-step", "gcd-2-steps"])
    def test_exact_end_state(self, delays, history, dt, t_end, end):
        sol = solve_deterministic(FIG3.params, delays, history, dt=dt, t_end=t_end)
        assert tuple(float(v) for v in sol.states[-1]) == end

    def test_dt_must_divide_delays(self):
        h = HistorySpec.from_constant(10, 10, 5)
        with pytest.raises(ValueError, match="divide"):
            solve_deterministic(FIG1_PARAMS, DelaySpec(0.5, 1.0, 1.5), h, dt=0.3, t_end=1.0)


class TestConvergenceStudy:
    def test_engine_noise_off_is_first_order(self):
        sc = PRESETS["fig3"]
        h = HistorySpec.from_constant(28.0, 25.0, 13.0)
        table = convergence_study(sc.params, sc.delays, h, [1e-2, 5e-3], t_end=5.0)
        assert 0.7 <= table.observed_order <= 1.3
        errs = table.errors()
        assert errs[1] < errs[0]

    def test_self_comparison_is_zero(self):
        h = HistorySpec.from_constant(10, 10, 5)
        table = rk4_self_convergence(
            PRESETS["fig1"].params, TABLE_DELAYS, h, [1e-2], t_end=1.0, ref_dt=1e-2
        )
        assert table.rows[0].max_err == 0.0
        assert table.observed_order is None

    def test_single_dt_has_no_order_estimate(self):
        sc = PRESETS["fig3"]
        h = HistorySpec.from_constant(28.0, 25.0, 13.0)
        table = convergence_study(sc.params, sc.delays, h, [1e-2], t_end=2.0)
        assert len(table.rows) == 1
        assert table.rows[0].pair_order is None

    def test_dt_list_must_descend(self):
        sc = PRESETS["fig3"]
        h = HistorySpec.from_constant(28.0, 25.0, 13.0)
        with pytest.raises(ValueError, match="descending"):
            convergence_study(sc.params, sc.delays, h, [5e-3, 1e-2], t_end=2.0)

    def test_oracle_engine_gap_shrinks_monotonically(self):
        sc = PRESETS["fig3"]
        h = HistorySpec.from_constant(28.0, 25.0, 13.0)
        table = convergence_study(sc.params, sc.delays, h, [2e-2, 1e-2, 5e-3, 2.5e-3], t_end=5.0)
        errs = table.errors()
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_delayed_rk4_self_convergence_is_fourth_order(self):
        sc = PRESETS["fig3"]
        h = HistorySpec.from_constant(10.0, 10.0, 5.0)
        table = rk4_self_convergence(sc.params, sc.delays, h, [1e-2, 5e-3, 2.5e-3], t_end=10.0)
        assert 3.5 <= table.observed_order <= 4.5
