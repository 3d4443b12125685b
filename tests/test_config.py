"""Unit tests for the key=value config parser."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyprey import PRESETS, cli, engine
from levyprey.config import KEYS, ConfigError, parse_config


def _from_header(cfg):
    """The config a CSV written under cfg records: its header's preset line
    and override lines, parsed back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        cli._write_csv(path, cfg, "test", [], "t", [np.zeros(0)])
        with open(path, encoding="utf-8") as fh:
            meta = [line[2:] for line in fh.read().splitlines() if line.startswith("# ")]
    text = "".join(
        f"{line.removeprefix('override: ')}\n" for line in meta
        if line.startswith("override: ") or (line.startswith("preset = ") and line != "preset = none")
    )
    return parse_config(text)


class TestParsing:
    def test_empty_config_uses_defaults(self):
        cfg = parse_config("")
        assert cfg["r1"] == 0.7  # fig1 column is the documented default
        assert cfg.seed == 0
        assert cfg.n_reps == 100
        assert cfg.preset is None

    def test_preset_expansion(self):
        cfg = parse_config("preset = fig3\n")
        assert cfg["r1"] == 2.0
        assert cfg["r2"] == 2.3
        assert cfg["alpha1"] == 0.13
        assert cfg["beta"] == 1e-3
        assert cfg["sigma3"] == 2e-3
        # documented package defaults fill the unpublished knobs
        assert cfg["a1"] == 0.05
        assert cfg["a2"] == 0.05
        assert cfg["lambda"] == 1.0
        assert cfg.assumed_keys == ("a1", "a2", "lambda")

    def test_override_after_preset(self):
        cfg = parse_config("preset = fig3\nsigma3 = 0\n")
        assert cfg["sigma3"] == 0.0
        assert cfg["sigma2"] == 2e-4
        assert cfg.assumed_keys == ("a1", "a2", "lambda")
        cfg2 = parse_config("preset = fig3\na1 = 0.2\n")
        assert "a1" not in cfg2.assumed_keys

    def test_preset_replaces_keys_set_before_it(self):
        # a preset line after a key it sets would drop that key's value, so
        # it is refused, naming the key and both lines; seed and output are
        # not preset keys and may come before it
        with pytest.raises(ConfigError) as err:
            parse_config("a1 = 0.3\nseed = 4\npreset = fig1\nt_end = 1\n")
        assert str(err.value) == "line 3: preset 'fig1' sets 'a1', already given on line 1"
        cfg = parse_config("seed = 4\noutput = o.csv\npreset = fig1\nt_end = 1\n")
        assert (cfg.seed, cfg.output, cfg["t_end"]) == (4, "o.csv", 1.0)
        assert cfg.explicit == {"seed", "t_end"}
        assert cfg.assumed_keys == ("a1", "a2", "lambda")

    @pytest.mark.parametrize("key, first, second", [
        ("x0", "1", "2"), ("seed", "1", "2"), ("preset", "fig1", "persist"), ("output", "a", "b"),
    ])
    def test_key_given_twice_is_refused(self, key, first, second):
        with pytest.raises(ConfigError) as err:
            parse_config(f"{key} = {first}\nr1 = 0.5\n{key} = {second}\n")
        assert str(err.value) == f"line 3: {key!r} is already given on line 1"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nr1 = 0.9  # inline comment\n")
        assert cfg["r1"] == 0.9

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'r3'"):
            parse_config("r3 = 1\n")

    def test_malformed_number_names_key_and_line(self):
        with pytest.raises(ConfigError, match="line 2.*sigma1"):
            parse_config("r1 = 0.5\nsigma1 = fast\n")

    def test_jump_mark_bound(self):
        with pytest.raises(ConfigError, match="q1.*line 1"):
            parse_config("q1 = -2\n")

    def test_dt_must_divide_positive_delay(self):
        with pytest.raises(ConfigError, match="tau1"):
            parse_config("tau1 = 0.5\ndt = 0.3\n")

    def test_t_end_must_be_multiple_of_dt(self):
        with pytest.raises(ConfigError, match="t_end.*line 2"):
            parse_config("dt = 0.01\nt_end = 1.005\n")
        assert parse_config("dt = 0.01\nt_end = 1.01\n")["t_end"] == 1.01

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_key_and_line(self, value):
        with pytest.raises(ConfigError, match="r1 must be finite.*line 2"):
            parse_config(f"seed = 1\nr1 = {value}\n")

    @pytest.mark.parametrize("line, message", [
        ("K1 = 0", "K1 must be > 0 (line 2): got 0.0"),
        ("lambda = -1", "lambda must be >= 0 (line 2): got -1.0"),
        ("y0 = -2", "y0 must be >= 0 (line 2): got -2.0"),
        ("dt = 0", "dt must be > 0 (line 2): got 0.0"),
        ("n_reps = 0", "n_reps must be >= 1 (line 2): got 0"),
    ])
    def test_range_error_names_config_key_and_line(self, line, message):
        # the typed parts own the rules; the parser maps their field to the key
        with pytest.raises(ConfigError) as exc:
            parse_config(f"seed = 1\n{line}\n")
        assert str(exc.value) == message

    def test_jump_rate_over_numpys_poisson_limit_names_lambda(self):
        # the limit is the installed numpy's: it draws at lambda * dt = limit
        # and refuses the next double up, which the config refuses first
        limit = engine._POISSON_LAM_MAX
        over = float(np.nextafter(limit, np.inf))
        np.random.default_rng(0).poisson(limit)
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(over)
        # at dt = 0.5, lambda * dt halves lambda exactly
        assert parse_config(f"dt = 0.5\nlambda = {2 * limit!r}\n")["lambda"] == 2 * limit
        with pytest.raises(ConfigError) as exc:
            parse_config(f"dt = 0.5\nlambda = {2 * over!r}\n")
        assert str(exc.value) == (
            f"lambda * dt must be at most numpy's Poisson limit {limit!r} (line 2): got {2 * over!r}"
        )
        # the product is checked: at dt = 0.01 (fig1's) lambda may be 100 times higher
        parse_config(f"lambda = {over!r}\n")
        with pytest.raises(ConfigError, match="lambda"):
            parse_config("lambda = 1e300\n")
        with pytest.raises(ConfigError, match="lambda"):
            parse_config("").replaced(**{"lambda": 1e300})

    def test_integers_beyond_float_range_are_in_range(self):
        # the range rule compares, so an int no float can hold is still finite
        big = 10**400
        cfg = parse_config(f"seed = {big}\nn_reps = {big}\n")
        assert (cfg.seed, cfg.n_reps) == (big, big)

    def test_integer_keys_reject_floats(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("seed = 1.5\n")

    def test_unknown_preset_listed(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config("preset = fig99\n")

    def test_output_key(self):
        cfg = parse_config("output = runs/out.csv\n")
        assert cfg.output == "runs/out.csv"

    def test_soft_condition_is_warning_not_error(self):
        cfg = parse_config("preset = fig1\n")  # delta = 0.1 < alpha3 = 0.5
        assert any("alpha3" in w for w in cfg.warnings)


class TestCanonicalForm:
    def test_header_reproduces_the_config(self):
        cfg = parse_config("preset = fig3\nsigma3 = 0\nseed = 9\n")
        again = _from_header(cfg)
        assert again == cfg
        assert (again.explicit, again.assumed_keys) == ({"sigma3", "seed"}, cfg.assumed_keys)
        assert _from_header(again) == cfg

    def test_header_preserves_exact_floats(self):
        cfg = parse_config("r1 = 0.1\nbeta = 1e-4\nx0 = 0.30000000000000004\n")
        again = _from_header(cfg)
        assert (again["r1"], again["beta"], again["x0"]) == (0.1, 1e-4, 0.30000000000000004)
        assert again == cfg

    def test_keys_map_to_their_fields_both_ways(self):
        cfg = parse_config(
            "K1 = 3\nK2 = 5\nlambda = 0.25\nx0 = 1\ny0 = 2\nz0 = 4\n"
            "tau1 = 0.5\ntau2 = 1\ntau3 = 2\ndt = 0.5\nt_end = 1.5\n"
        )
        assert (cfg.to_params().k1, cfg.to_params().k2) == (3, 5)
        assert cfg.to_noise().lam == 0.25
        h = cfg.to_history()
        assert (h.x0, h.y0, h.z0) == (1, 2, 4)
        assert cfg.to_delays().taus == (0.5, 1, 2)
        assert (cfg.to_step_config().dt, cfg.to_step_config().t_end) == (0.5, 1.5)
        scn = PRESETS["fig3"]  # distinct x0, y0, z0
        cfg = parse_config("preset = fig3\n")
        assert cfg.to_params() == scn.params
        assert cfg.to_noise() == scn.noise
        assert cfg.to_delays() == scn.delays
        assert cfg.to_history() == scn.history
        assert (cfg["dt"], cfg["t_end"]) == (scn.dt, scn.t_end)

    def test_replaced_validates(self):
        cfg = parse_config("")
        with pytest.raises(ConfigError):
            cfg.replaced(q1=-3.0)
        assert cfg.replaced(seed=5).seed == 5


_NONNEG = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_POS = st.floats(min_value=1e-300, allow_nan=False, allow_infinity=False)
_MARK = st.floats(min_value=-1.0, exclude_min=True, allow_nan=False, allow_infinity=False)
_OVERRIDABLE = sorted(set(KEYS) - {"preset", "output"})


@st.composite
def _valid_configs(draw):
    """A RunConfig built from a random preset (or none) plus random overrides
    of a random subset of the values, all of which pass validation. Every
    preset's delays and horizon are whole multiples of each dt drawn here."""
    preset = draw(st.sampled_from([None, *sorted(PRESETS)]))
    overridden = draw(st.sets(st.sampled_from(_OVERRIDABLE)))
    text = f"preset = {preset}\n" if preset else ""
    dt = parse_config(text)["dt"]
    if "dt" in overridden:
        dt = draw(st.sampled_from([1e-3, 0.01, 0.025, 0.1, 0.5]))
    values = {key: draw(_NONNEG) for key in (
        "r1", "r2", "alpha1", "alpha2", "alpha3", "beta", "delta", "a1", "a2",
        "sigma1", "sigma2", "sigma3", "x0", "y0", "z0")}
    values.update({key: draw(_POS) for key in ("K1", "K2")})
    # every dt here is below 1, so lambda * dt stays within numpy's Poisson limit
    values["lambda"] = draw(st.floats(min_value=0.0, max_value=engine._POISSON_LAM_MAX))
    values.update({key: draw(_MARK) for key in ("q1", "q2", "q3")})
    steps = st.integers(min_value=1, max_value=10_000)
    values.update({key: draw(st.sampled_from([0, 1]) | steps) * dt
                   for key in ("tau1", "tau2", "tau3")})
    values.update(dt=dt, t_end=draw(steps) * dt)
    values.update(seed=draw(st.integers(min_value=0, max_value=2**63)),
                  n_reps=draw(st.integers(min_value=1, max_value=10**6)))
    output = draw(st.none() | st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True))
    if output is not None:
        text += f"output = {output}\n"
    return parse_config(text).replaced(**{key: values[key] for key in overridden})


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(_valid_configs())
    def test_header_parses_back_to_the_same_config(self, cfg):
        again = _from_header(cfg)
        assert again.values == cfg.values
        assert again.preset == cfg.preset
        assert again.explicit == cfg.explicit
