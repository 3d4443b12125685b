"""Flat ``key = value`` run configuration.

UTF-8 text, ``#`` comments, one assignment per line, processed top to
bottom: a ``preset = NAME`` line bulk-applies that scenario's values, and
any line after it overrides individual keys. Unknown keys are rejected by
name; missing keys fall back to documented defaults (the ``fig1`` scenario,
seed 0, 100 replicates).

Values are checked by building the typed parts the engine consumes: the
model types own every range rule, engine.lag_steps the delay grid and
StepConfig the horizon grid. The parser only adds the offending key and its
line; the replicate count is the one rule it owns. Regime-hypothesis
failures are never parse errors; the one soft condition surfaced here
(ModelParams.well_posed, predator death rate above predator competition)
becomes a warning on the parsed config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .engine import StepConfig, lag_steps
from .model import DelaySpec, FieldError, HistorySpec, ModelParams, NoiseSpec
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
    ("x0", "history", "x0"),
    ("y0", "history", "y0"),
    ("z0", "history", "z0"),
)
_FLOAT_KEYS = tuple(key for key, _, _ in _FIELDS)
_KEY_OF = {attr: key for key, _, attr in _FIELDS}  # attribute names are unique
_INT_KEYS = ("seed", "n_reps")
_STR_KEYS = ("preset", "output")
KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS


def _scenario_values(name: str) -> dict[str, float]:
    s = PRESETS[name]
    parts = {
        "params": vars(s.params),
        "noise": vars(s.noise),
        "delays": vars(s.delays),
        "step": vars(s),
        # presets use constant histories
        "history": dict(zip(("x0", "y0", "z0"), s.history.constant)),
    }
    return {key: parts[part][attr] for key, part, attr in _FIELDS}


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
        _check(cfg, {})
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
        return HistorySpec.from_constant(**self._part("history"))

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


def _check(cfg: RunConfig, lines: dict[str, int]) -> ModelParams:
    """Build every typed part once, ranges before grids; the first broken
    rule becomes a ConfigError naming key and line. Returns the parameters."""

    def where(key: str) -> str:
        ln = lines.get(key)
        return f" (line {ln})" if ln else ""

    try:
        cfg.to_noise()
        delays = cfg.to_delays()
        cfg.to_history()
        params = cfg.to_params()
        if cfg.n_reps < 1:
            raise ConfigError(f"n_reps must be >= 1{where('n_reps')}: got {cfg.n_reps}")
        try:
            cfg.to_step_config()
        except FieldError as exc:
            if exc.field == "t_end":  # dt is usable: an off-grid delay is reported first
                lag_steps(delays, cfg["dt"])  # type: ignore[arg-type]
            raise
        lag_steps(delays, cfg["dt"])  # type: ignore[arg-type]
    except FieldError as exc:
        key = _KEY_OF[exc.field]
        raise ConfigError(f"{key} {exc.rule}{where(key)}: got {cfg[key]}") from None
    return params


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

    cfg = RunConfig(values=values, preset=preset, output=output, explicit=frozenset(explicit))
    p = _check(cfg, lines)
    if p.well_posed:
        return cfg
    return replace(cfg, warnings=(
        f"delta = {p.delta} does not exceed alpha3 = {p.alpha3}; "
        "the unique-global-solution condition is not certified",
    ))


def parse_config_file(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
