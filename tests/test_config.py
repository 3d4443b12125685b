"""Unit tests for the key=value config parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyprey import PRESETS
from levyprey.config import ConfigError, parse_config


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
    def test_parse_serialize_fixed_point(self):
        text = "preset = fig3\nsigma3 = 0\nseed = 9\n"
        cfg = parse_config(text)
        canon = cfg.to_text()
        cfg2 = parse_config(canon)
        assert cfg2 == cfg
        assert cfg2.to_text() == canon

    def test_round_trip_preserves_exact_floats(self):
        cfg = parse_config("r1 = 0.1\nbeta = 1e-4\n")
        cfg2 = parse_config(cfg.to_text())
        assert cfg2["r1"] == cfg["r1"]
        assert cfg2["beta"] == cfg["beta"]

    def test_keys_map_to_their_fields_both_ways(self):
        cfg = parse_config(
            "K1 = 3\nK2 = 5\nlambda = 0.25\nx0 = 1\ny0 = 2\nz0 = 4\n"
            "tau1 = 0.5\ntau2 = 1\ntau3 = 2\ndt = 0.5\nt_end = 1.5\n"
        )
        assert (cfg.to_params().k1, cfg.to_params().k2) == (3, 5)
        assert cfg.to_noise().lam == 0.25
        assert cfg.to_history().constant == (1, 2, 4)
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


@st.composite
def _valid_configs(draw):
    """A RunConfig built from a random preset (or none) plus random overrides
    of every value, all of which pass validation."""
    preset = draw(st.sampled_from([None, *sorted(PRESETS)]))
    dt = draw(st.sampled_from([1e-3, 0.01, 0.025, 0.1, 0.5]))
    values = {key: draw(_NONNEG) for key in (
        "r1", "r2", "alpha1", "alpha2", "alpha3", "beta", "delta", "a1", "a2",
        "sigma1", "sigma2", "sigma3", "lambda", "x0", "y0", "z0")}
    values.update({key: draw(_POS) for key in ("K1", "K2")})
    values.update({key: draw(_MARK) for key in ("q1", "q2", "q3")})
    steps = st.integers(min_value=1, max_value=10_000)
    values.update({key: draw(st.sampled_from([0, 1]) | steps) * dt
                   for key in ("tau1", "tau2", "tau3")})
    values.update(dt=dt, t_end=draw(steps) * dt)
    values.update(seed=draw(st.integers(min_value=0, max_value=2**63)),
                  n_reps=draw(st.integers(min_value=1, max_value=10**6)))
    text = f"preset = {preset}\n" if preset else ""
    output = draw(st.none() | st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True))
    if output is not None:
        text += f"output = {output}\n"
    return parse_config(text).replaced(**values)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(_valid_configs())
    def test_to_text_parses_back_to_the_same_config(self, cfg):
        text = cfg.to_text()
        again = parse_config(text)
        assert again == cfg
        assert again.to_text() == text
        assert again.to_params() == cfg.to_params()
        assert again.to_noise() == cfg.to_noise()
        assert again.to_delays() == cfg.to_delays()
        assert again.to_history() == cfg.to_history()
        assert again.to_step_config() == cfg.to_step_config()
