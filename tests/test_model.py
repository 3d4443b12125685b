"""Unit tests for parameter types and pointwise model terms."""

import math
import pickle

import numpy as np
import pytest

from levyprey import (
    DelaySpec,
    HistorySpec,
    ModelParams,
    NoiseSpec,
    StepConfig,
    classify,
    simulate,
)
from levyprey import rng as lrng
from levyprey.model import FieldError, drift

# published simulation column used throughout (extinction flavor), with the
# package-assumed transformation rates
FIG1_PARAMS = ModelParams(
    r1=0.7, r2=0.65, k1=100.0, k2=100.0, alpha1=0.3, alpha2=0.35,
    alpha3=0.5, beta=1e-4, delta=0.1, a1=0.05, a2=0.05,
)
FIG1_NOISE = NoiseSpec(sigma1=1e-4, sigma2=2e-4, sigma3=2e-4, q1=-0.04, q2=-0.006, q3=-0.008, lam=1.0)
TABLE_DELAYS = DelaySpec(0.5, 1.0, 1.5)
# no drift at all: only the noise terms move the state
ZERO_RATES = ModelParams(r1=0, r2=0, k1=1, k2=1, alpha1=0, alpha2=0,
                         alpha3=0, beta=0, delta=0, a1=0, a2=0)
DT = 0.01
# the first jump count of replicate 0 at lam*dt = 0.01 is 1 under this seed
ONE_ARRIVAL_SEED = 64


def _one_step(n, state, seed=0):
    """(normals, state after one engine step of size DT) from a constant history."""
    traj = simulate(ZERO_RATES, n, DelaySpec(0, 0, 0), HistorySpec.from_constant(*state),
                    StepConfig(dt=DT, t_end=DT, seed=seed))
    normals = lrng.stream(seed, 0, lrng.GAUSSIAN).standard_normal((1, 3))[0]
    return normals, tuple(traj.states[-1])


class TestDrift:
    """drift(x, y, z, x(t-tau1), y(t-tau2), x(t-tau3), y(t-tau3), params)."""

    def test_origin_is_equilibrium(self):
        f = drift(0, 0, 0, 5, 7, 9, 11, FIG1_PARAMS)
        assert f == (0.0, 0.0, 0.0)

    def test_prey1_at_capacity_without_predator(self):
        # x at carrying capacity with delayed tap also at K1, no y, no z
        f = drift(100.0, 0.0, 0.0, 100.0, 0.0, 100.0, 0.0, FIG1_PARAMS)
        assert f == (0.0, 0.0, 0.0)

    def test_hand_evaluated_rates(self):
        # independent hand sum, term by term:
        #   fx = 0.7*50*(1 - 0.5) - 0.3*50*10 + 1e-4*50*50*10 = 17.5 - 150 + 2.5
        #   fy = 0.65*50*(1 - 0.5) - 0.35*50*10 + 2.5        = 16.25 - 175 + 2.5
        #   fz = -0.1*10 - 0.5*100 + 0.05*50*10 + 0.05*50*10 = -1 - 50 + 25 + 25
        fx, fy, fz = drift(50, 50, 10, 50, 50, 50, 50, FIG1_PARAMS)
        assert fx == pytest.approx(-130.0, abs=1e-12)
        assert fy == pytest.approx(-156.25, abs=1e-12)
        assert fz == pytest.approx(-1.0, abs=1e-12)

    def test_pure_and_zero_predator_forces_fz_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x, y, z = rng.uniform(0, 50, 3)
            d = rng.uniform(0, 50, 4)
            assert drift(x, y, z, *d, FIG1_PARAMS) == drift(x, y, z, *d, FIG1_PARAMS)
            assert drift(x, y, 0.0, *d, FIG1_PARAMS)[2] == 0.0


class TestDiffusion:
    """Brownian increment sigma_i * S_i * sqrt(dt) * Z_i of one engine step."""

    def test_vanishes_at_origin(self):
        _, out = _one_step(NoiseSpec(0.1, 0.2, 0.3, 0, 0, 0, lam=0.0), (0, 0, 0))
        assert out == (0.0, 0.0, 0.0)

    def test_direct_multiplication(self):
        zs, out = _one_step(NoiseSpec(0.1, 0.2, 0.3, 0, 0, 0, lam=0.0), (10, 10, 10), seed=5)
        scale = math.sqrt(DT)
        for v, sigma, z in zip(out, (0.1, 0.2, 0.3), zs):
            assert v - 10 == pytest.approx(sigma * 10 * scale * z, rel=1e-12)

    def test_fig1_intensities(self):
        n = NoiseSpec(1e-4, 2e-4, 2e-4, 0, 0, 0, lam=0.0)
        zs, out = _one_step(n, (50, 50, 10), seed=5)
        g = [(v - s) / (math.sqrt(DT) * z) for v, s, z in zip(out, (50, 50, 10), zs)]
        assert g == pytest.approx((5e-3, 1e-2, 2e-3), rel=1e-9)


class TestApplyJump:
    """A step with one arrival sends S -> S * (1 + q*(1 - lam*dt)), the jump
    and its compensator."""

    def test_all_species_table_marks(self):
        assert lrng.stream(ONE_ARRIVAL_SEED, 0, lrng.JUMPS).poisson(0.01, 1)[0] == 1
        n = NoiseSpec(0, 0, 0, q1=-0.04, q2=-0.006, q3=-0.008, lam=1.0)
        _, out = _one_step(n, (10, 10, 10), seed=ONE_ARRIVAL_SEED)
        assert out == pytest.approx((9.604, 9.9406, 9.9208), rel=1e-12)

    def test_empty_subset_is_identity(self):
        # no arrivals and no compensator: the marks leave the state alone
        n = NoiseSpec(0, 0, 0, q1=-0.04, q2=-0.006, q3=-0.008, lam=0.0)
        _, out = _one_step(n, (10, 10, 10), seed=ONE_ARRIVAL_SEED)
        assert out == (10, 10, 10)

    def test_zero_is_absorbing(self):
        n = NoiseSpec(0, 0, 0, q1=-0.04, q2=-0.006, q3=-0.008, lam=1.0)
        _, (x, y, z) = _one_step(n, (0.0, 5.0, 5.0), seed=ONE_ARRIVAL_SEED)
        assert x == 0.0
        assert y == pytest.approx(5 * (1 - 0.006 * 0.99))
        assert z == pytest.approx(5 * (1 - 0.008 * 0.99))

    def test_positivity_preserved_for_random_marks(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            q = rng.uniform(-0.999, 4.0, 3)
            n = NoiseSpec(0, 0, 0, q1=q[0], q2=q[1], q3=q[2], lam=1.0)
            traj = simulate(ZERO_RATES, n, DelaySpec(0, 0, 0),
                            HistorySpec.from_constant(*rng.uniform(1e-8, 100.0, 3)),
                            StepConfig(dt=DT, t_end=DT, seed=ONE_ARRIVAL_SEED))
            assert traj.jump_events == 1
            assert traj.floor_hits == 0
            assert np.all(traj.states > 0)


class TestTypeInvariants:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="r1"):
            ModelParams(r1=-0.1, r2=0.5, k1=1, k2=1, alpha1=0, alpha2=0,
                        alpha3=0, beta=0, delta=0, a1=0, a2=0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="k2"):
            ModelParams(r1=0.1, r2=0.5, k1=1, k2=0, alpha1=0, alpha2=0,
                        alpha3=0, beta=0, delta=0, a1=0, a2=0)

    def test_jump_mark_at_or_below_minus_one_rejected(self):
        with pytest.raises(ValueError, match="q1"):
            NoiseSpec(0, 0, 0, q1=-1.5, q2=0, q3=0)
        with pytest.raises(ValueError, match="q3"):
            NoiseSpec(0, 0, 0, q1=0, q2=0, q3=-1.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="tau2"):
            DelaySpec(0.5, -1.0, 0.5)

    def test_history_table_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            HistorySpec.from_table([(-1, 1, 1, 1), (-1, 2, 2, 2), (0, 3, 3, 3)])

    def test_history_negative_value_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            HistorySpec.from_table([(-1, 1, -1, 1), (0, 1, 1, 1)])
        with pytest.raises(ValueError, match="y0"):
            HistorySpec.from_constant(1.0, -2.0, 3.0)

    def test_history_linear_interpolation(self):
        h = HistorySpec.from_table([(-1, 0, 0, 0), (0, 10, 10, 10)])
        assert h.value_at(-0.5) == pytest.approx((5, 5, 5))

    def test_field_error_survives_pickling(self):
        # a worker process sends its fault to the parent pickled
        err = FieldError("StepConfig", "dt", "must be positive", -1.0)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is FieldError
        assert (back.owner, back.field, back.rule, back.value) == ("StepConfig", "dt", "must be positive", -1.0)
        assert str(back) == str(err) == "StepConfig.dt must be positive, got -1.0"


class TestValidate:
    """The unique-global-solution condition delta > alpha3, as classify reports it."""

    def test_fig1_fails_unique_solution_condition(self):
        report = classify(FIG1_PARAMS, FIG1_NOISE, TABLE_DELAYS)
        assert not report.well_posed_ok
        assert any("delta > alpha3" in line and "fails" in line for line in report.trace)

    def test_passes_when_delta_exceeds_alpha3(self):
        p = ModelParams(r1=0.7, r2=0.65, k1=100, k2=100, alpha1=0.3, alpha2=0.35,
                        alpha3=0.5, beta=1e-4, delta=0.6, a1=0.05, a2=0.05)
        assert classify(p, FIG1_NOISE, TABLE_DELAYS).well_posed_ok

    def test_overall_pass_iff_every_check_passes(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = ModelParams(
                r1=rng.uniform(0, 2), r2=rng.uniform(0, 2),
                k1=rng.uniform(1, 200), k2=rng.uniform(1, 200),
                alpha1=rng.uniform(0, 1), alpha2=rng.uniform(0, 1),
                alpha3=rng.uniform(0, 1), beta=rng.uniform(0, 0.01),
                delta=rng.uniform(0, 1), a1=rng.uniform(0, 0.2), a2=rng.uniform(0, 0.2),
            )
            assert classify(p, FIG1_NOISE, TABLE_DELAYS).well_posed_ok == (p.delta > p.alpha3)
