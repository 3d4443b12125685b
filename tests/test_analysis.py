"""Unit tests for time averages, threshold coefficients, and the classifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyprey import (
    DelaySpec,
    ModelParams,
    NoiseSpec,
    PRESETS,
    Regime,
    Trajectory,
    boundedness_check,
    classify,
    extinction_coefficients,
    persistence_report,
    predator_extinction_report,
    time_average,
)


def _traj(times, states):
    states = np.asarray(states, dtype=float)
    times = np.asarray(times, dtype=float)
    return Trajectory(times=times, states=states, jump_events=0, floor_hits=0)


def _params(**kw):
    base = dict(r1=0.5, r2=0.5, k1=100.0, k2=100.0, alpha1=0.1, alpha2=0.1,
                alpha3=0.2, beta=1e-4, delta=0.05, a1=0.05, a2=0.05)
    base.update(kw)
    return ModelParams(**base)


QUIET = NoiseSpec(0, 0, 0, 0, 0, 0, lam=0.0)


class TestTimeAverage:
    def test_constant_trajectory(self):
        t = np.linspace(0, 10, 101)
        ta = time_average(_traj(t, np.full((101, 3), 7.0)))
        assert np.allclose(ta.means, 7.0, rtol=0, atol=1e-14)

    def test_linear_integrand_exact(self):
        # <s>(T) for s(t) = t is exactly T/2 under the trapezoidal rule
        t = np.linspace(0, 4, 81)
        ta = time_average(_traj(t, np.column_stack([t, 2 * t, 3 * t])))
        assert ta.terminal == pytest.approx([2.0, 4.0, 6.0], rel=1e-14)

    def test_alternating_hand_sum(self):
        # samples 0,1,0,1,0 at dt=1: trapezoid integral = 2, <x>(4) = 0.5
        t = np.arange(5.0)
        vals = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        ta = time_average(_traj(t, np.column_stack([vals, vals, vals])))
        assert ta.terminal == pytest.approx([0.5, 0.5, 0.5], abs=1e-15)

    def test_first_entry_is_initial_state(self):
        t = np.linspace(0, 1, 11)
        s = np.random.default_rng(0).uniform(0, 5, (11, 3))
        ta = time_average(_traj(t, s))
        assert np.array_equal(ta.means[0], s[0])

    def test_average_bounded_by_samples(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(2, 40)
            t = np.linspace(0, rng.uniform(1, 20), n)
            s = rng.uniform(0, 10, (n, 3))
            ta = time_average(_traj(t, s))
            for j in range(3):
                assert np.all(ta.means[:, j] <= s[:, j].max() + 1e-12)
                assert np.all(ta.means[:, j] >= s[:, j].min() - 1e-12)


class TestExtinctionCoefficients:
    def test_noise_off_reduction(self):
        p = _params()
        c1, c2, c3 = extinction_coefficients(p, QUIET)
        assert (c1, c2) == (p.r1, p.r2)
        assert c3 == pytest.approx(p.a1 * p.k1 + p.a2 * p.k2 - p.delta, rel=1e-14)

    def test_constructed_extinction_values(self):
        p = _params(r1=0.1, r2=0.1, delta=0.1, alpha3=0.5)
        n = NoiseSpec(1.0, 1.0, 0.5, -0.04, -0.006, -0.008, lam=1.0)
        c1, c2, c3 = extinction_coefficients(p, n)
        assert c1 == pytest.approx(-0.4, abs=1e-12)
        assert c2 == pytest.approx(-0.4, abs=1e-12)
        # 0.05*(100/0.1)*(-0.4)*2 - 0.1 - 0.125
        assert c3 == pytest.approx(-40.225, abs=1e-12)

    def test_zero_growth_rate_rejected(self):
        with pytest.raises(ValueError, match="c3"):
            extinction_coefficients(_params(r1=0.0), QUIET)


class TestPredatorExtinction:
    def test_no_recruitment_c4_nonpositive(self):
        p = _params(a1=0.0, a2=0.0)
        c4, _ = predator_extinction_report(p, QUIET)
        assert c4 == pytest.approx(-p.delta)
        assert c4 <= 0

    def test_denominator_contribution(self):
        # 1 - 0.5 + 2*0.5/100 = 0.51 is the binding minimum here
        p = _params(r1=0.5, k1=100.0, r2=0.4)
        _, m = predator_extinction_report(p, QUIET)
        assert m == pytest.approx(min(0.4, 0.51, 1 - 0.4 + 0.008), rel=1e-12)

    def test_fig3_denominator_is_negative(self):
        sc = PRESETS["fig3"]
        _, m = predator_extinction_report(sc.params, sc.noise)
        rep = classify(sc.params, sc.noise, sc.delays)
        # prey-1 denominator is 1 - 2 + 2*2/100 = -0.96; prey-2's is lower still
        assert rep.denom1 == pytest.approx(-0.96, abs=1e-12)
        assert m <= -0.96
        assert m < 0


class TestPersistence:
    def test_noise_off_prey_bound(self):
        lx, ly, lz, ok = persistence_report(_params(a1=0.1, a2=0.1, delta=0.02), QUIET)
        assert lx == pytest.approx(0.5 / 0.51, rel=1e-12)
        assert ok

    def test_canonical_all_persist_values(self):
        p = _params(a1=0.1, a2=0.1, delta=0.02, alpha3=0.2)
        lx, ly, lz, ok = persistence_report(p, QUIET)
        assert lx == pytest.approx(0.980392156862745, rel=1e-12)
        assert ly == pytest.approx(0.980392156862745, rel=1e-12)
        assert lz == pytest.approx((0.1 * lx + 0.1 * ly - 0.02) / 0.2, rel=1e-12)
        assert lz == pytest.approx(0.880392156862745, rel=1e-9)
        assert ok

    def test_critical_noise_kills_hypothesis(self):
        # sigma1 = sqrt(2*r1) makes the prey-1 margin exactly zero
        n = NoiseSpec(1.0, 0, 0, 0, 0, 0, lam=0)  # sqrt(2*0.5) = 1 exactly
        lx, _, _, ok = persistence_report(_params(a1=0.1, a2=0.1, delta=0.02), n)
        assert lx == 0.0
        assert not ok

    def test_zero_denominator_rejected(self):
        # K = 4, r = 2 gives 1 - 2 + 1 = 0 exactly
        with pytest.raises(ValueError, match="denominator"):
            persistence_report(_params(r1=2.0, k1=4.0), QUIET)

    def test_zero_alpha3_rejected(self):
        with pytest.raises(ValueError, match="alpha3"):
            persistence_report(_params(alpha3=0.0), QUIET)


class TestBoundedness:
    def test_fig1_hand_value(self):
        sc = PRESETS["fig1"]
        b1, b2, b3, all_neg = boundedness_check(sc.params, sc.noise)
        assert b1 == pytest.approx(1e-8 + 0.0016 + 1.4 + 0.01 - 30, abs=1e-12)
        assert b1 < 0 and all_neg

    def test_single_term(self):
        p = ModelParams(r1=0, r2=0, k1=1.0, k2=1.0, alpha1=1.0, alpha2=0,
                        alpha3=0, beta=0, delta=0, a1=0, a2=0)
        b1, _, _, _ = boundedness_check(p, QUIET)
        assert b1 == -1.0

    def test_cooperation_dominance_flips_sign(self):
        p = _params(beta=10.0)  # beta*K2 = 1000 overwhelms alpha1*K1
        b1, _, _, all_neg = boundedness_check(p, QUIET)
        assert b1 > 0
        assert not all_neg


class TestClassify:
    def test_constructed_extinction(self):
        sc = PRESETS["extinct"]
        rep = classify(sc.params, sc.noise, sc.delays)
        assert rep.predicted is Regime.EXTINCTION_ALL
        assert max(rep.c1, rep.c2, rep.c3) == pytest.approx(-0.4, abs=1e-12)

    def test_constructed_all_persist(self):
        sc = PRESETS["persist"]
        rep = classify(sc.params, sc.noise, sc.delays)
        assert rep.predicted is Regime.ALL_PERSIST
        assert rep.lx == pytest.approx(0.98039, abs=1e-4)
        assert rep.lz == pytest.approx(0.88039, abs=1e-4)

    def test_constructed_predator_extinction(self):
        sc = PRESETS["predator_extinct"]
        rep = classify(sc.params, sc.noise, sc.delays)
        assert rep.predicted is Regime.PREDATOR_EXTINCT_PREY_PERSIST
        assert rep.c4 <= 0
        assert rep.prey_min > 0

    def test_fig2_indeterminate_with_trace(self):
        sc = PRESETS["fig2"]
        rep = classify(sc.params, sc.noise, sc.delays)
        assert rep.predicted is Regime.INDETERMINATE
        assert not rep.well_posed_ok
        text = "\n".join(rep.trace)
        assert "fails" in text

    def test_fig1_values_match_hand_computation(self):
        sc = PRESETS["fig1"]
        rep = classify(sc.params, sc.noise, sc.delays)
        assert rep.c1 == pytest.approx(0.7 - 5e-9, abs=1e-15)
        assert not rep.well_posed_ok  # delta = 0.1 < alpha3 = 0.5
        assert rep.c1 > 0  # extinction hypothesis cannot apply

    def test_classifier_is_pure(self):
        sc = PRESETS["fig1"]
        a = classify(sc.params, sc.noise, sc.delays)
        b = classify(sc.params, sc.noise, sc.delays)
        assert a == b

    def test_never_faults_on_degenerate_inputs(self):
        rep = classify(_params(r1=0.0), QUIET, DelaySpec(0, 0, 0))
        assert rep.c1 is None
        assert rep.predicted in Regime
        assert any("not evaluable" in line for line in rep.trace)

    def test_predator_extinction_with_zero_alpha3_keeps_prey_bounds(self):
        # Lz cannot be formed, but the prey bounds (and the regime) can
        p = _params(a1=1e-4, a2=1e-4, delta=0.1, alpha3=0.0)
        rep = classify(p, NoiseSpec(1e-3, 1e-3, 1e-3, 0, 0, 0, lam=0), DelaySpec(0, 0, 0))
        assert rep.predicted is Regime.PREDATOR_EXTINCT_PREY_PERSIST
        assert rep.lz is None
        assert rep.lx == pytest.approx(0.98039, abs=1e-4)


class TestCoefficientProperties:
    def _random_case(self, rng):
        p = _params(
            r1=rng.uniform(0.01, 2), r2=rng.uniform(0.01, 2),
            k1=rng.uniform(10, 300), k2=rng.uniform(10, 300),
            delta=rng.uniform(0, 1), a1=rng.uniform(0, 0.2), a2=rng.uniform(0, 0.2),
            alpha3=rng.uniform(0.01, 1),
        )
        n = NoiseSpec(*rng.uniform(0, 1.5, 3), *rng.uniform(-0.5, 0.5, 3), lam=rng.uniform(0, 3))
        return p, n

    def test_exactness_over_random_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            p, n = self._random_case(rng)
            c1, c2, c3 = extinction_coefficients(p, n)
            assert c1 + n.sigma1**2 / 2 == pytest.approx(p.r1, rel=1e-12, abs=1e-15)
            assert c2 + n.sigma2**2 / 2 == pytest.approx(p.r2, rel=1e-12, abs=1e-15)
            rebuilt = p.a1 * (p.k1 / p.r1) * c1 + p.a2 * (p.k2 / p.r2) * c2 - p.delta - n.sigma3**2 / 2
            assert c3 == pytest.approx(rebuilt, rel=1e-12, abs=1e-15)

    def test_monotonicity(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            p, n = self._random_case(rng)
            bump = 0.1
            c1_lo = extinction_coefficients(p, n)[0]
            n_hi = NoiseSpec(n.sigma1 + bump, n.sigma2, n.sigma3, n.q1, n.q2, n.q3, lam=n.lam)
            assert extinction_coefficients(p, n_hi)[0] < c1_lo

            b1_lo = boundedness_check(p, n)[0]
            import dataclasses

            p_beta = dataclasses.replace(p, beta=p.beta + 0.01)
            assert boundedness_check(p_beta, n)[0] > b1_lo

            try:
                lx, ly, lz, _ = persistence_report(p, n)
            except ValueError:
                continue
            if lx > 0:
                p_a = dataclasses.replace(p, a1=p.a1 + 0.05)
                lz_hi = persistence_report(p_a, n)[2]
                assert lz_hi > lz


_RATE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_MARK = st.floats(min_value=-1.0, exclude_min=True, allow_nan=False, allow_infinity=False)


@st.composite
def _any_valid_inputs(draw):
    """Any parameter set the types accept, with the degenerate cases the
    classifier must survive drawn often: r = 0, alpha3 = 0, and r = 2,
    K = 4, which makes the prey denominator 1 - r + 2r/K exactly zero."""
    rate = _RATE | st.just(0.0)
    kw = {name: draw(rate) for name in (
        "alpha1", "alpha2", "alpha3", "beta", "delta", "a1", "a2")}
    for r, k in (("r1", "k1"), ("r2", "k2")):
        if draw(st.booleans()):
            kw[r], kw[k] = 2.0, 4.0
        else:
            kw[r] = draw(rate)
            kw[k] = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    p = ModelParams(**kw)
    n = NoiseSpec(*(draw(rate) for _ in range(3)), *(draw(_MARK) for _ in range(3)),
                  lam=draw(rate), shared_clock=draw(st.booleans()))
    d = DelaySpec(*(draw(rate) for _ in range(3)))
    return p, n, d


class TestClassifyProperty:
    @settings(max_examples=300, deadline=None)
    @given(_any_valid_inputs())
    def test_never_raises(self, inputs):
        rep = classify(*inputs)
        assert rep.predicted in Regime
        assert rep.well_posed_ok == (inputs[0].delta > inputs[0].alpha3)
