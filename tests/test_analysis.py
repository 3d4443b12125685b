"""Unit tests for time averages, threshold coefficients, and the classifier."""

import dataclasses
import math

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
    StepConfig,
    Trajectory,
    classify,
    simulate,
    time_average,
)
from levyprey import analysis, engine


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
NO_DELAYS = DelaySpec(0, 0, 0)


def _classify(p, n):
    return classify(p, n, NO_DELAYS)


def _line(rep, prefix):
    """The one trace line that starts with ``prefix``."""
    (line,) = [line for line in rep.trace if line.startswith(prefix)]
    return line


def _holds(rep, prefix):
    """Whether the condition whose verdict line starts with ``prefix`` holds:
    that line ends in ``-> holds`` (a hypothesis that cannot be evaluated
    has only a "not evaluable" line and does not hold)."""
    lines = [line for line in rep.trace
             if line.startswith(prefix) and line.endswith(("-> holds", "-> fails"))]
    assert len(lines) <= 1
    return lines != [] and lines[0].endswith("-> holds")


def _denoms(p):
    """The prey denominators 1 - r1 + 2*r1/K1 and 1 - r2 + 2*r2/K2."""
    return 1 - p.r1 + 2 * p.r1 / p.k1, 1 - p.r2 + 2 * p.r2 / p.k2


def _prey_min(p, rep):
    """min{c1, c2, denominators} of the predator-extinction test, as its
    trace line prints it."""
    m = min(rep.c1, rep.c2, *_denoms(p))
    line = _line(rep, "predator-extinction test:")
    assert f"min{{c1, c2, 1-r1+2r1/K1, 1-r2+2r2/K2}} = {m:.10g} (need > 0)" in line
    return m


class TestTimeAverage:
    def test_constant_trajectory(self):
        t = np.linspace(0, 10, 101)
        ta = time_average(_traj(t, np.full((101, 3), 7.0)))
        assert np.allclose(ta, 7.0, rtol=0, atol=1e-14)

    def test_linear_integrand_exact(self):
        # <s>(T) for s(t) = t is exactly T/2 under the trapezoidal rule
        t = np.linspace(0, 4, 81)
        ta = time_average(_traj(t, np.column_stack([t, 2 * t, 3 * t])))
        assert ta[-1] == pytest.approx([2.0, 4.0, 6.0], rel=1e-14)

    def test_alternating_hand_sum(self):
        # samples 0,1,0,1,0 at dt=1: trapezoid integral = 2, <x>(4) = 0.5
        t = np.arange(5.0)
        vals = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        ta = time_average(_traj(t, np.column_stack([vals, vals, vals])))
        assert ta[-1] == pytest.approx([0.5, 0.5, 0.5], abs=1e-15)

    def test_first_entry_is_initial_state(self):
        t = np.linspace(0, 1, 11)
        s = np.random.default_rng(0).uniform(0, 5, (11, 3))
        ta = time_average(_traj(t, s))
        assert np.array_equal(ta[0], s[0])

    def test_average_bounded_by_samples(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(2, 40)
            t = np.linspace(0, rng.uniform(1, 20), n)
            s = rng.uniform(0, 10, (n, 3))
            ta = time_average(_traj(t, s))
            for j in range(3):
                assert np.all(ta[:, j] <= s[:, j].max() + 1e-12)
                assert np.all(ta[:, j] >= s[:, j].min() - 1e-12)


    @pytest.mark.parametrize("extra", [-1, 0, 1, None], ids=["slab-1", "slab", "slab+1", "3slab+7"])
    def test_slabs_give_the_whole_cumsum_bits(self, extra):
        # steps = len - 1: one slab short, exactly one, one over, and a
        # partial fourth slab; the first trapezoid is -0.0, whose sign a sum
        # started from 0.0 would lose, and the values span many magnitudes
        slab = analysis._AVG_SLAB
        n = 3 * slab + 7 if extra is None else slab + extra
        rng = np.random.default_rng(n)
        t = np.arange(n + 1) * 0.01
        s = rng.lognormal(0.0, 5.0, (n + 1, 3)) * rng.choice([-1.0, 1.0], (n + 1, 3))
        s[:2] = -0.0
        seg = 0.5 * (s[1:] + s[:-1]) * np.diff(t)[:, None]
        want = np.concatenate([s[:1], np.cumsum(seg, axis=0) / t[1:, None]])
        got = time_average(_traj(t, s))
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[1]).all()

class TestExtinctionCoefficients:
    def test_noise_off_reduction(self):
        p = _params()
        rep = _classify(p, QUIET)
        assert (rep.c1, rep.c2) == (p.r1, p.r2)
        assert rep.c3 == pytest.approx(p.a1 * p.k1 + p.a2 * p.k2 - p.delta, rel=1e-14)

    def test_constructed_extinction_values(self):
        p = _params(r1=0.1, r2=0.1, delta=0.1, alpha3=0.5)
        n = NoiseSpec(1.0, 1.0, 0.5, -0.04, -0.006, -0.008, lam=1.0)
        rep = _classify(p, n)
        assert rep.c1 == pytest.approx(-0.4, abs=1e-12)
        assert rep.c2 == pytest.approx(-0.4, abs=1e-12)
        # 0.05*(100/0.1)*(-0.4)*2 - 0.1 - 0.125
        assert rep.c3 == pytest.approx(-40.225, abs=1e-12)

    def test_zero_growth_rate_rejected(self):
        # c3 divides by r1: undefined, so c1 = c2 = c3 = None with the reason traced
        rep = _classify(_params(r1=0.0), QUIET)
        assert (rep.c1, rep.c2, rep.c3) == (None, None, None)
        assert not _holds(rep, "extinction margins")
        assert (
            "extinction margins not evaluable: c3 is undefined when r1 or r2 is zero "
            "(divides by the growth rate)"
        ) in rep.trace


class TestPredatorExtinction:
    def test_no_recruitment_c4_nonpositive(self):
        p = _params(a1=0.0, a2=0.0)
        rep = _classify(p, QUIET)
        assert rep.c4 == pytest.approx(-p.delta)
        assert rep.c4 <= 0

    def test_denominator_contribution(self):
        # 1 - 0.5 + 2*0.5/100 = 0.51 is the binding minimum here
        p = _params(r1=0.5, k1=100.0, r2=0.4)
        m = _prey_min(p, _classify(p, QUIET))
        assert m == pytest.approx(min(0.4, 0.51, 1 - 0.4 + 0.008), rel=1e-12)

    def test_fig3_denominator_is_negative(self):
        sc = PRESETS["fig3"]
        rep = classify(sc.params, sc.noise, sc.delays)
        # prey-1 denominator is 1 - 2 + 2*2/100 = -0.96; prey-2's is lower still
        assert _denoms(sc.params)[0] == pytest.approx(-0.96, abs=1e-12)
        assert _prey_min(sc.params, rep) <= -0.96
        assert not _holds(rep, "predator-extinction test")


class TestPersistence:
    def test_noise_off_prey_bound(self):
        rep = _classify(_params(a1=0.1, a2=0.1, delta=0.02), QUIET)
        assert rep.lx == pytest.approx(0.5 / 0.51, rel=1e-12)
        assert _holds(rep, "persistence bounds")

    def test_canonical_all_persist_values(self):
        p = _params(a1=0.1, a2=0.1, delta=0.02, alpha3=0.2)
        rep = _classify(p, QUIET)
        lx, ly, lz = rep.lx, rep.ly, rep.lz
        assert lx == pytest.approx(0.980392156862745, rel=1e-12)
        assert ly == pytest.approx(0.980392156862745, rel=1e-12)
        assert lz == pytest.approx((0.1 * lx + 0.1 * ly - 0.02) / 0.2, rel=1e-12)
        assert lz == pytest.approx(0.880392156862745, rel=1e-9)
        assert _holds(rep, "persistence bounds")

    def test_critical_noise_kills_hypothesis(self):
        # sigma1 = sqrt(2*r1) makes the prey-1 margin exactly zero
        n = NoiseSpec(1.0, 0, 0, 0, 0, 0, lam=0)  # sqrt(2*0.5) = 1 exactly
        rep = _classify(_params(a1=0.1, a2=0.1, delta=0.02), n)
        assert rep.lx == 0.0
        assert not _holds(rep, "persistence bounds")

    def test_zero_denominator_rejected(self):
        # K = 4, r = 2 gives 1 - 2 + 1 = 0 exactly: Lx and Lz are undefined
        p = _params(r1=2.0, k1=4.0)
        rep = _classify(p, QUIET)
        assert _denoms(p)[0] == 0.0
        assert (rep.lx, rep.lz) == (None, None)
        assert rep.ly == pytest.approx(0.5 / 0.51, rel=1e-12)
        assert not _holds(rep, "persistence bounds")
        assert (
            "persistence bounds not evaluable: "
            "prey-1 denominator 1 - r1 + 2*r1/K1 is zero; bound undefined"
        ) in rep.trace

    def test_zero_alpha3_rejected(self):
        rep = _classify(_params(alpha3=0.0), QUIET)
        assert rep.lz is None
        assert rep.lx is not None and rep.ly is not None
        assert not _holds(rep, "persistence bounds")
        assert (
            "persistence bounds not evaluable: alpha3 is zero; predator bound Lz undefined"
        ) in rep.trace


class TestBoundedness:
    def test_fig1_hand_value(self):
        sc = PRESETS["fig1"]
        rep = classify(sc.params, sc.noise, sc.delays)
        assert rep.b1 == pytest.approx(1e-8 + 0.0016 + 1.4 + 0.01 - 30, abs=1e-12)
        assert max(rep.b1, rep.b2, rep.b3) < 0
        assert _holds(rep, "boundedness margins")

    def test_single_term(self):
        p = ModelParams(r1=0, r2=0, k1=1.0, k2=1.0, alpha1=1.0, alpha2=0,
                        alpha3=0, beta=0, delta=0, a1=0, a2=0)
        assert _classify(p, QUIET).b1 == -1.0

    def test_cooperation_dominance_flips_sign(self):
        p = _params(beta=10.0)  # beta*K2 = 1000 overwhelms alpha1*K1
        rep = _classify(p, QUIET)
        assert rep.b1 > 0
        assert not max(rep.b1, rep.b2, rep.b3) < 0
        assert not _holds(rep, "boundedness margins")


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
        assert _prey_min(sc.params, rep) > 0
        assert _holds(rep, "predator-extinction test")

    def test_fig2_indeterminate_with_trace(self):
        sc = PRESETS["fig2"]
        rep = classify(sc.params, sc.noise, sc.delays)
        assert rep.predicted is Regime.INDETERMINATE
        assert not sc.params.well_posed
        assert not _holds(rep, "unique-global-solution condition")
        text = "\n".join(rep.trace)
        assert "fails" in text

    def test_fig1_values_match_hand_computation(self):
        sc = PRESETS["fig1"]
        rep = classify(sc.params, sc.noise, sc.delays)
        assert rep.c1 == pytest.approx(0.7 - 5e-9, abs=1e-15)
        # delta = 0.1 < alpha3 = 0.5
        assert not sc.params.well_posed
        assert not _holds(rep, "unique-global-solution condition")
        assert rep.c1 > 0  # extinction hypothesis cannot apply

    def test_classifier_is_pure(self):
        sc = PRESETS["fig1"]
        a = classify(sc.params, sc.noise, sc.delays)
        b = classify(sc.params, sc.noise, sc.delays)
        assert a == b

    def test_overlapping_hypotheses_take_the_precedence(self):
        # r = 1.02 nearly cancels 1 - r + 2r/K, so Lx = Ly = 2550 > K and the
        # persistence margin 0.01*2550*2 - 3 = 48 is positive, while
        # c4 = 0.01*100*2 - 3 = -1: full persistence and predator extinction
        # both hold, and full persistence is predicted
        p = ModelParams(r1=1.02, r2=1.02, k1=100.0, k2=100.0, alpha1=1e-3, alpha2=1e-3,
                        alpha3=1.0, beta=0.0, delta=3.0, a1=0.01, a2=0.01)
        sc = PRESETS["persist"]
        rep = classify(p, sc.noise, sc.delays)
        assert rep.lx == pytest.approx(2550, rel=1e-5) and rep.c4 == pytest.approx(-1.0)
        assert _holds(rep, "persistence bounds") and _holds(rep, "predator-extinction test")
        assert not _holds(rep, "extinction margins")
        assert rep.predicted is Regime.ALL_PERSIST
        assert rep.trace[-2] == (
            "overlapping hypotheses ['AllPersist', 'PredatorExtinctPreyPersist']; "
            "precedence picks AllPersist"
        )

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
            rep = _classify(p, n)
            c1, c2 = rep.c1, rep.c2
            assert c1 + n.sigma1**2 / 2 == pytest.approx(p.r1, rel=1e-12, abs=1e-15)
            assert c2 + n.sigma2**2 / 2 == pytest.approx(p.r2, rel=1e-12, abs=1e-15)
            rebuilt = p.a1 * (p.k1 / p.r1) * c1 + p.a2 * (p.k2 / p.r2) * c2 - p.delta - n.sigma3**2 / 2
            assert rep.c3 == pytest.approx(rebuilt, rel=1e-12, abs=1e-15)

    def test_monotonicity(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            p, n = self._random_case(rng)
            bump = 0.1
            rep = _classify(p, n)
            n_hi = NoiseSpec(n.sigma1 + bump, n.sigma2, n.sigma3, n.q1, n.q2, n.q3, lam=n.lam)
            assert _classify(p, n_hi).c1 < rep.c1

            p_beta = dataclasses.replace(p, beta=p.beta + 0.01)
            assert _classify(p_beta, n).b1 > rep.b1

            if rep.lz is None:
                continue
            if rep.lx > 0:
                p_a = dataclasses.replace(p, a1=p.a1 + 0.05)
                assert _classify(p_a, n).lz > rep.lz


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
                  lam=draw(rate))
    d = DelaySpec(*(draw(rate) for _ in range(3)))
    return p, n, d


def _square(v):
    try:
        return v**2
    except OverflowError:  # a square too large for a float is reported as inf
        return math.inf


def _same(got, want):
    """Equal as floats, with NaN equal to NaN and None only equal to None."""
    if got is None or want is None:
        return got is want
    return got == want or (math.isnan(got) and math.isnan(want))


class TestClassifyProperty:
    @settings(max_examples=300, deadline=None)
    @given(_any_valid_inputs())
    def test_never_raises(self, inputs):
        p, n, _ = inputs
        rep = classify(*inputs)
        assert rep.predicted in Regime
        assert _holds(rep, "unique-global-solution condition") == (p.delta > p.alpha3)

        # every number against the README formulas, written out here in the
        # README's operand order so the two agree bit for bit
        c1 = p.r1 - _square(n.sigma1) / 2
        c2 = p.r2 - _square(n.sigma2) / 2
        d1 = 1 - p.r1 + 2 * p.r1 / p.k1
        d2 = 1 - p.r2 + 2 * p.r2 / p.k2
        noise3 = _square(n.sigma3) / 2
        c3 = None
        if p.r1 != 0 and p.r2 != 0:
            c3 = p.a1 * (p.k1 / p.r1) * c1 + p.a2 * (p.k2 / p.r2) * c2 - p.delta - noise3
        c4 = p.a1 * p.k1 + p.a2 * p.k2 - p.delta - noise3
        lx = c1 / d1 if d1 != 0 else None
        ly = c2 / d2 if d2 != 0 else None
        lz = margin = None
        if lx is not None and ly is not None and p.alpha3 != 0:
            margin = p.a1 * lx + p.a2 * ly - p.delta - noise3
            lz = margin / p.alpha3
        b1 = _square(n.sigma1) + _square(n.q1) * n.lam + 2 * p.r1 + p.beta * p.k2 - p.alpha1 * p.k1
        b2 = _square(n.sigma2) + _square(n.q2) * n.lam + 2 * p.r2 + p.beta * p.k1 - p.alpha2 * p.k2
        b3 = (_square(n.sigma3) + _square(n.q3) * n.lam + 2 * p.a1 * p.k1 + 2 * p.a2 * p.k2
              - p.delta - p.alpha1 * p.k1 - p.alpha2 * p.k2)
        expected = {
            "c1": c1 if c3 is not None else None,
            "c2": c2 if c3 is not None else None,
            "c3": c3, "c4": c4, "lx": lx, "ly": ly, "lz": lz,
            "b1": b1, "b2": b2, "b3": b3,
        }
        for name, want in expected.items():
            assert _same(getattr(rep, name), want), (name, getattr(rep, name), want)

        extinction = c3 is not None and max(c1, c2, c3) < 0
        persistence = margin is not None and all(v > 0 for v in (lx, ly, margin, d1, d2))
        predator = min(c1, c2, d1, d2) > 0 and c4 <= 0
        assert _holds(rep, "extinction margins") == extinction
        assert _holds(rep, "persistence bounds") == persistence
        assert _holds(rep, "predator-extinction test") == predator
        assert _holds(rep, "boundedness margins") == (b1 < 0 and b2 < 0 and b3 < 0)
        prey = _line(rep, "predator-extinction test:")
        assert f"1-r2+2r2/K2}} = {min(c1, c2, d1, d2):.10g} (need > 0)" in prey
        holding = [r for r, ok in ((Regime.EXTINCTION_ALL, extinction),
                                   (Regime.ALL_PERSIST, persistence),
                                   (Regime.PREDATOR_EXTINCT_PREY_PERSIST, predator)) if ok]
        assert rep.predicted is (holding[0] if holding else Regime.INDETERMINATE)
        overlap = [line for line in rep.trace if line.startswith("overlapping hypotheses")]
        assert overlap == ([
            f"overlapping hypotheses {[r.value for r in holding]}; "
            f"precedence picks {holding[0].value}"
        ] if len(holding) > 1 else [])


class TestLogGrowthBalance:
    """The identity the margins c1 to c4 and the bounds Lx, Ly, Lz are read
    from: by Ito's formula, over [0, T] on one path, (ln S(T) - ln S(0))/T is
    the species' per-capita rate averaged over the path, less sigma^2/2 and
    the jump cost lambda*(q - ln(1 + q)), plus martingale terms. For x the
    rate is r1 - (r1/K1)*x(t - tau1) - alpha1*z + beta*y*z, for y the same
    with r2, K2, tau2, alpha2 and beta*x*z, and for z it is -delta -
    alpha3*z + a1*x(t - tau3) + a2*y(t - tau3). The averages are taken at
    the Euler drift's left points, and each path's jump martingale
    ln(1 + q)*(N_T - lambda*T) (N_T its jump events) and Brownian martingale
    sigma*W_T (W_T from its own normals) are taken off. The mean residual
    over 10 replicates must then be zero within 4 standard errors plus 2*dt
    for the scheme's O(dt) bias; 2*dt covers the largest residual measured
    before this test, about 1.3*dt on z with jumps."""

    CASES = {
        "persist": ("persist", {}),
        "predator_extinct": ("predator_extinct", {}),
        "sigma": ("persist", dict(sigma1=0.3, sigma2=0.3, sigma3=0.3)),
        "jumps": ("persist", dict(q1=-0.5, q2=-0.5, q3=-0.5, lam=0.5)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_mean_residual_is_zero(self, case):
        name, change = self.CASES[case]
        sc = PRESETS[name]
        p, n, d, h = sc.params, dataclasses.replace(sc.noise, **change), sc.delays, sc.history
        c = StepConfig(dt=sc.dt, t_end=200.0, seed=7)
        steps, dt, t_end = c.n_steps, c.dt, c.t_end
        k1, k2, k3 = engine.lag_steps(d, dt)
        sigma = np.array([n.sigma1, n.sigma2, n.sigma3])
        log_mark = np.log1p([n.q1, n.q2, n.q3])
        jump_cost = n.lam * (np.array([n.q1, n.q2, n.q3]) - log_mark)

        def lagged(s, s0, lag):  # s(t - lag*dt) at the left points
            return np.concatenate((np.full(lag, s0), s))[:steps]

        residuals = []
        for k in range(10):
            traj = simulate(p, n, d, h, c, replicate=k)
            assert traj.floor_hits == 0
            x, y, z = traj.states[:-1].T
            rate = np.array([
                p.r1 - p.r1 / p.k1 * lagged(x, h.x0, k1).mean() - p.alpha1 * z.mean()
                + p.beta * (y * z).mean(),
                p.r2 - p.r2 / p.k2 * lagged(y, h.y0, k2).mean() - p.alpha2 * z.mean()
                + p.beta * (x * z).mean(),
                -p.delta - p.alpha3 * z.mean() + p.a1 * lagged(x, h.x0, k3).mean()
                + p.a2 * lagged(y, h.y0, k3).mean(),
            ])
            w = sum(normals[:, :, 0].sum(axis=1)
                    for normals, _ in engine._draws(c.seed, [k], n, dt, steps))
            martingale = log_mark * (traj.jump_events - n.lam * t_end) + sigma * math.sqrt(dt) * w
            growth = np.log(traj.states[-1] / traj.states[0])
            residuals.append((growth - martingale) / t_end - (rate - sigma**2 / 2 - jump_cost))
        mean = np.mean(residuals, axis=0)
        tol = 4 * np.std(residuals, axis=0, ddof=1) / math.sqrt(len(residuals)) + 2 * dt
        assert np.all(np.abs(mean) <= tol), (mean, tol)
        # the tolerance resolves the term the case is there for
        term = {"sigma": sigma**2 / 2, "jumps": jump_cost}.get(case)
        assert term is None or np.all(tol < term), (tol, term)
