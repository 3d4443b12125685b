"""Two-prey/one-predator stochastic delay simulator with Levy-type jumps.

Integrates sample paths of a delayed predator-prey system driven by
multiplicative Brownian noise and compensated compound-Poisson jumps,
evaluates the closed-form extinction/persistence thresholds, and checks
predicted regimes against Monte Carlo time averages.
"""

from .analysis import (
    Regime,
    RegimeReport,
    classify,
    time_average,
)
from .engine import SimulationError, StepConfig, Trajectory, simulate
from .ensemble import (
    EnsembleStats,
    VerificationOutcome,
    run_ensemble,
    verify_regime,
)
from .model import DelaySpec, HistorySpec, ModelParams, NoiseSpec
from .oracle import (
    ConvergenceTable,
    convergence_study,
    solve_deterministic,
)
from .presets import PRESETS, SWEEPS, Scenario, SweepPreset

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "ModelParams",
    "NoiseSpec",
    "DelaySpec",
    "HistorySpec",
    # engine
    "StepConfig",
    "Trajectory",
    "SimulationError",
    "simulate",
    # analysis
    "Regime",
    "RegimeReport",
    "time_average",
    "classify",
    # ensemble
    "EnsembleStats",
    "VerificationOutcome",
    "run_ensemble",
    "verify_regime",
    # oracle
    "ConvergenceTable",
    "solve_deterministic",
    "convergence_study",
    # presets
    "Scenario",
    "SweepPreset",
    "PRESETS",
    "SWEEPS",
]
