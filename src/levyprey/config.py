"""Flat ``key = value`` run configuration.

UTF-8 text, ``#`` comments, one assignment per line, processed top to
bottom: a ``preset = NAME`` line bulk-applies that scenario's values, and a
line after it overrides individual keys. A key is given at most once, and
a preset line may not follow a key that its scenario sets.
Unknown keys are rejected by name; missing keys fall back to documented
defaults (the ``fig1`` scenario, seed 0, 100 replicates).

Config text and RunConfig.replaced type a value by its key in one place
(an integral int for seed and n_reps, a float otherwise). Values are
checked by building the typed parts the engine consumes: the model types
own every range rule, engine.lag_steps the delay grid and StepConfig the
horizon grid and the seed, engine._check_jump_rate numpy's limit on a step's
Poisson mean lambda * dt, and model._in_range the replicate count (the rule
run_ensemble states too). The parser only adds the offending key and
its line. Regime-hypothesis
failures are never parse errors; the one soft condition surfaced here
(ModelParams.well_posed, predator death rate above predator competition)
becomes a warning on the parsed config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .engine import StepConfig, _check_jump_rate, lag_steps
from .model import DelaySpec, FieldError, HistorySpec, ModelParams, NoiseSpec, _in_range
from .presets import PRESETS

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_file"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# every numeric key: (config key, part of the scenario it belongs to,
# attribute name on that part); a key is its attribute's name, but for the
# three in _RENAMED
_RENAMED = {"k1": "K1", "k2": "K2", "lam": "lambda"}
_FIELDS = tuple(
    (_RENAMED.get(f.name, f.name), part, f.name)
    for part, typ in (("params", ModelParams), ("noise", NoiseSpec), ("delays", DelaySpec),
                      ("step", StepConfig), ("history", HistorySpec))
    for f in fields(typ)
    if f.name != "seed"
)
_FLOAT_KEYS = tuple(key for key, _, _ in _FIELDS)
# the config key of each typed field (attribute names are unique)
_KEY_OF = {attr: key for key, _, attr in _FIELDS} | {"seed": "seed", "n_reps": "n_reps"}
_INT_KEYS = ("seed", "n_reps")
_STR_KEYS = ("preset", "output")
KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS


def _typed(key: str, value: object, where: str = "") -> int | float:
    """``value`` (config text or a number) in the type of numeric ``key``: an
    int for seed and n_reps, which take integral values only, else a float."""
    if key not in _FLOAT_KEYS + _INT_KEYS:  # unknown, or preset and output
        raise ConfigError(f"{key!r} is not a numeric key")
    is_int = key in _INT_KEYS
    try:
        if is_int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value) if is_int else float(value)  # type: ignore[arg-type]
    except ValueError:
        kind = "an integer" if is_int else "a number"
        raise ConfigError(f"{where}{key} must be {kind}, got {value!r}") from None


def _scenario_values(name: str) -> dict[str, float]:
    s = PRESETS[name]
    parts = {
        "params": vars(s.params),
        "noise": vars(s.noise),
        "delays": vars(s.delays),
        "step": vars(s),
        "history": vars(s.history),
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
        """Copy with numeric keys replaced (marked explicit), typed as parse_config types them."""
        vals = dict(self.values)
        vals.update((key, _typed(key, value)) for key, value in overrides.items())
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
        return HistorySpec(**self._part("history"))

    def to_step_config(self) -> StepConfig:
        return StepConfig(**self._part("step"), seed=self.seed)


def _check(cfg: RunConfig, lines: dict[str, int]) -> ModelParams:
    """Build every typed part once, ranges before grids; the first broken
    rule becomes a ConfigError naming key and line. Returns the parameters."""

    def where(key: str) -> str:
        ln = lines.get(key)
        return f" (line {ln})" if ln else ""

    try:
        noise = cfg.to_noise()
        delays = cfg.to_delays()
        cfg.to_history()
        params = cfg.to_params()
        _in_range("RunConfig", "n_reps", cfg.n_reps, low=1, any_int=True)
        try:
            cfg.to_step_config()
        except FieldError as exc:
            if exc.field == "t_end":  # dt is usable: an off-grid delay is reported first
                lag_steps(delays, cfg["dt"])  # type: ignore[arg-type]
            raise
        lag_steps(delays, cfg["dt"])  # type: ignore[arg-type]
        _check_jump_rate(noise, cfg["dt"])  # type: ignore[arg-type]
    except FieldError as exc:
        key = _KEY_OF[exc.field]
        raise ConfigError(f"{key} {exc.rule}{where(key)}: got {cfg[key]}") from None
    return params


def parse_config(text: str) -> RunConfig:
    """Parse a key=value document into a fully resolved RunConfig."""
    values: dict[str, object] = dict(_DEFAULTS)
    lines: dict[str, int] = {}  # the line that set each value, a preset's included
    given: dict[str, int] = {}  # the line of each key written out
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
        if key in given:
            raise ConfigError(f"line {lineno}: {key!r} is already given on line {given[key]}")
        given[key] = lineno
        if key == "preset":
            if value not in PRESETS:
                raise ConfigError(
                    f"line {lineno}: unknown preset {value!r} "
                    f"(available: {', '.join(sorted(PRESETS))})"
                )
            preset = value
            scen = _scenario_values(value)
            values.update(scen)
            for k in scen:
                if k in given:
                    raise ConfigError(
                        f"line {lineno}: preset {value!r} sets {k!r}, already given on line {given[k]}"
                    )
                lines[k] = lineno
        elif key == "output":
            output = value
        else:
            values[key] = _typed(key, value, f"line {lineno}: ")
            lines[key] = lineno

    explicit = frozenset(given.keys() - {"preset", "output"})
    cfg = RunConfig(values=values, preset=preset, output=output, explicit=explicit)
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
