"""The package's public surface: what the CLI, the README and the paper use."""

import pathlib
import re

import levyprey

PUBLIC = [
    "__version__",
    "ModelParams",
    "NoiseSpec",
    "DelaySpec",
    "HistorySpec",
    "StepConfig",
    "Trajectory",
    "SimulationError",
    "simulate",
    "Regime",
    "RegimeReport",
    "TimeAverageSeries",
    "time_average",
    "classify",
    "EnsembleStats",
    "VerificationOutcome",
    "run_ensemble",
    "verify_regime",
    "ConvergenceTable",
    "solve_deterministic",
    "convergence_study",
    "Scenario",
    "SweepPreset",
    "PRESETS",
    "SWEEPS",
]

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_the_pinned_list():
    assert levyprey.__all__ == PUBLIC
    assert all(hasattr(levyprey, name) for name in PUBLIC)


def test_readme_library_block_uses_only_public_names():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.S)[1]
    used = set(re.findall(r"\blp\.(\w+)", block))
    assert used and used <= set(PUBLIC)
