"""Flat ``key = value`` run configuration.

UTF-8 text, ``#`` comments, one assignment per line, processed top to
bottom: a ``preset = NAME`` line bulk-applies that scenario's values, and
any line after it overrides individual keys. Unknown keys are rejected by
name; missing keys fall back to documented defaults (the ``fig1`` scenario,
seed 0, 100 replicates).

The parser enforces the same structural constraints as the model types
(finite values, jump marks > -1, positive capacities, nonnegative rates) plus
grid resolvability (dt must divide every positive delay and t_end),
reporting the offending key and line. Regime-hypothesis failures are never
parse errors; the one soft condition surfaced here (predator death rate not
exceeding predator competition) becomes a warning on the parsed config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .engine import StepConfig, grid_steps
from .model import DelaySpec, HistorySpec, ModelParams, NoiseSpec
from .presets import PRESETS

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_file"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# every numeric key, in canonical serialization order: (config key, part of
# the scenario it belongs to, attribute name on that part)
_FIELDS = (
    ("r1", "params", "r1"),
    ("r2", "params", "r2"),
    ("K1", "params", "k1"),
    ("K2", "params", "k2"),
    ("alpha1", "params", "alpha1"),
    ("alpha2", "params", "alpha2"),
    ("alpha3", "params", "alpha3"),
    ("beta", "params", "beta"),
    ("delta", "params", "delta"),
    ("a1", "params", "a1"),
    ("a2", "params", "a2"),
    ("sigma1", "noise", "sigma1"),
    ("sigma2", "noise", "sigma2"),
    ("sigma3", "noise", "sigma3"),
    ("q1", "noise", "q1"),
    ("q2", "noise", "q2"),
    ("q3", "noise", "q3"),
    ("lambda", "noise", "lam"),
    ("tau1", "delays", "tau1"),
    ("tau2", "delays", "tau2"),
    ("tau3", "delays", "tau3"),
    ("dt", "step", "dt"),
    ("t_end", "step", "t_end"),
    ("x0", "history", "x"),
    ("y0", "history", "y"),
    ("z0", "history", "z"),
)
_FLOAT_KEYS = tuple(key for key, _, _ in _FIELDS)
_INT_KEYS = ("seed", "n_reps")
_STR_KEYS = ("preset", "output")
KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS


def _scenario_values(name: str) -> dict[str, float]:
    s = PRESETS[name]
    assert s.history.constant is not None  # presets use constant histories
    parts = {
        "params": s.params,
        "noise": s.noise,
        "delays": s.delays,
        "step": s,
        "history": s.history.constant,
    }
    return {key: getattr(parts[part], attr) for key, part, attr in _FIELDS}


_DEFAULTS: dict[str, object] = {**_scenario_values("fig1"), "seed": 0, "n_reps": 100}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (all keys have values)."""

    values: dict[str, object]
    preset: str | None = None
    output: str | None = None
    explicit: frozenset[str] = field(default_factory=frozenset, compare=False)
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __getitem__(self, key: str) -> object:
        return self.values[key]

    @property
    def seed(self) -> int:
        return int(self.values["seed"])  # type: ignore[arg-type]

    @property
    def n_reps(self) -> int:
        return int(self.values["n_reps"])  # type: ignore[arg-type]

    @property
    def assumed_keys(self) -> tuple[str, ...]:
        """Preset-assumption keys the user did not override."""
        if self.preset is None:
            return ()
        return tuple(
            k for k in PRESETS[self.preset].assumed if k not in self.explicit
        )

    def replaced(self, **overrides: object) -> "RunConfig":
        """Copy with individual keys replaced (marked explicit)."""
        bad = set(overrides) - set(KEYS)
        if bad:
            raise ConfigError(f"unknown key(s): {sorted(bad)}")
        vals = dict(self.values)
        vals.update(overrides)
        cfg = RunConfig(
            values=vals,
            preset=self.preset,
            output=self.output,
            explicit=self.explicit | frozenset(overrides),
            warnings=self.warnings,
        )
        _check(cfg.values, {})
        return cfg

    # builders for the typed objects the engine consumes

    def _part(self, part: str) -> dict[str, object]:
        return {attr: self.values[key] for key, p, attr in _FIELDS if p == part}

    def to_params(self) -> ModelParams:
        return ModelParams(**self._part("params"))

    def to_noise(self) -> NoiseSpec:
        return NoiseSpec(**self._part("noise"))

    def to_delays(self) -> DelaySpec:
        return DelaySpec(**self._part("delays"))

    def to_history(self) -> HistorySpec:
        h = self._part("history")
        return HistorySpec.from_constant(h["x"], h["y"], h["z"])

    def to_step_config(self) -> StepConfig:
        return StepConfig(**self._part("step"), seed=self.seed)

    def to_text(self) -> str:
        """Canonical serialization; parsing it back reproduces this config."""
        lines = []
        if self.preset is not None:
            lines.append(f"preset = {self.preset}")
        for key in _FLOAT_KEYS:
            lines.append(f"{key} = {self.values[key]!r}")
        for key in _INT_KEYS:
            lines.append(f"{key} = {self.values[key]}")
        if self.output is not None:
            lines.append(f"output = {self.output}")
        return "\n".join(lines) + "\n"


def _check(values: dict[str, object], lines: dict[str, int]) -> None:
    """Structural validation; raises ConfigError naming key and line."""

    def where(key: str) -> str:
        ln = lines.get(key)
        return f" (line {ln})" if ln else ""

    for key in _FLOAT_KEYS:
        if not math.isfinite(values[key]):  # type: ignore[arg-type]
            raise ConfigError(f"{key} must be finite{where(key)}: got {values[key]}")
    for key in ("q1", "q2", "q3"):
        if values[key] <= -1.0:  # type: ignore[operator]
            raise ConfigError(f"{key} must be > -1{where(key)}: got {values[key]}")
    for key in ("sigma1", "sigma2", "sigma3", "lambda", "tau1", "tau2", "tau3",
                "x0", "y0", "z0", "r1", "r2", "alpha1", "alpha2", "alpha3",
                "beta", "delta", "a1", "a2"):
        if values[key] < 0:  # type: ignore[operator]
            raise ConfigError(f"{key} must be >= 0{where(key)}: got {values[key]}")
    for key in ("K1", "K2", "dt", "t_end"):
        if values[key] <= 0:  # type: ignore[operator]
            raise ConfigError(f"{key} must be > 0{where(key)}: got {values[key]}")
    if values["n_reps"] < 1:  # type: ignore[operator]
        raise ConfigError(f"n_reps must be >= 1{where('n_reps')}: got {values['n_reps']}")
    dt = float(values["dt"])  # type: ignore[arg-type]
    for key in ("tau1", "tau2", "tau3"):
        tau = float(values[key])  # type: ignore[arg-type]
        if tau != 0 and grid_steps(tau, dt) is None:
            raise ConfigError(
                f"dt = {dt:g} must divide positive delay {key} = {tau:g}{where(key)}"
            )
    t_end = float(values["t_end"])  # type: ignore[arg-type]
    if grid_steps(t_end, dt) is None:
        raise ConfigError(
            f"t_end = {t_end:g} must be a whole multiple of dt = {dt:g}{where('t_end')}"
        )


def parse_config(text: str) -> RunConfig:
    """Parse a key=value document into a fully resolved RunConfig."""
    values: dict[str, object] = dict(_DEFAULTS)
    lines: dict[str, int] = {}
    explicit: set[str] = set()
    preset: str | None = None
    output: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key == "preset":
            if value not in PRESETS:
                raise ConfigError(
                    f"line {lineno}: unknown preset {value!r} "
                    f"(available: {', '.join(sorted(PRESETS))})"
                )
            # preset expansion does not mark keys explicit; later lines do
            preset = value
            scen = _scenario_values(value)
            values.update(scen)
            for k in scen:
                lines[k] = lineno
        elif key == "output":
            output = value
        elif key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: {key} must be an integer, got {value!r}"
                ) from None
            lines[key] = lineno
            explicit.add(key)
        else:
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: {key} must be a number, got {value!r}"
                ) from None
            lines[key] = lineno
            explicit.add(key)

    _check(values, lines)

    warns: list[str] = []
    if values["delta"] <= values["alpha3"]:  # type: ignore[operator]
        warns.append(
            f"delta = {values['delta']} does not exceed alpha3 = {values['alpha3']}; "
            "the unique-global-solution condition is not certified"
        )
    return RunConfig(
        values=values,
        preset=preset,
        output=output,
        explicit=frozenset(explicit),
        warnings=tuple(warns),
    )


def parse_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
