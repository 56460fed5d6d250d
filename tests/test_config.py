import math
import re
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpsdetect.config import (INT64, AnomalyWindow, PipelineConfig, SyntheticConfig,
                              apply_setting, config_to_text, parse_anomaly_spec,
                              parse_config_text)
from cpsdetect.errors import ConfigError

# configparser strips surrounding blanks, so text values draw from an
# alphabet without them; "%" and parentheses are in it, since a config value
# is stored as it is written.
TEXT = st.text(st.sampled_from("abcXYZ019/._-%()"), max_size=12)


def _scalar_strategy(value):
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(-10**9, 10**9)
    if isinstance(value, float):
        return st.floats(allow_nan=False, allow_infinity=False)
    if isinstance(value, str):
        return TEXT
    if value is None:  # synthetic.split
        return st.none() | st.integers(0, 10**9)
    return None  # tuples (widths, anomalies) are not scalars


def _scalar_fields():
    default = PipelineConfig()
    out = {}
    for section in fields(PipelineConfig):
        for f in fields(getattr(default, section.name)):
            strategy = _scalar_strategy(getattr(getattr(default, section.name), f.name))
            if strategy is not None:
                out[(section.name, f.name)] = strategy
    return out


SCALARS = _scalar_fields()
# The sections a trained model does not read, which ``config_to_text``
# leaves out.
UNSAVED = ("paths", "synthetic")
MODEL_SCALARS = {key: s for key, s in SCALARS.items() if key[0] not in UNSAVED}
UNSAVED_SCALARS = {key: s for key, s in SCALARS.items() if key[0] in UNSAVED}


def _config_with(values):
    config = PipelineConfig()
    for (section, key), value in values.items():
        setattr(getattr(config, section), key, value)
    return config


def test_every_section_has_scalar_fields():
    assert {section for section, _ in SCALARS} == {
        f.name for f in fields(PipelineConfig)}


@given(st.fixed_dictionaries(MODEL_SCALARS))
def test_text_round_trip_over_scalar_fields(values):
    config = _config_with(values)
    assert parse_config_text(config_to_text(config)) == config


@given(st.fixed_dictionaries(UNSAVED_SCALARS))
def test_paths_and_synthetic_settings_do_not_change_the_text(values):
    config = _config_with(values)
    config.synthetic.anomalies = (AnomalyWindow("drift", 10, 50, 2),)
    assert config_to_text(config) == config_to_text(PipelineConfig())


def test_a_four_field_anomaly_spec_takes_the_default_magnitude():
    assert parse_anomaly_spec("drift:10:50:2 | offset:90:5:1:1.5") == (
        AnomalyWindow("drift", 10, 50, 2), AnomalyWindow("offset", 90, 5, 1, 1.5))
    with pytest.raises(ConfigError, match="bad anomaly spec 'offset:1:5:x'"):
        parse_anomaly_spec("offset:1:5:x")


def test_the_anomaly_kind_is_checked_once_by_the_generator_config():
    # The spec parser checks the syntax only; the kind is the config's to
    # refuse, as it does for a window built any other way.
    (window,) = parse_anomaly_spec("bogus:10:5:1")
    assert window == AnomalyWindow("bogus", 10, 5, 1)
    with pytest.raises(ConfigError, match=r"^unknown anomaly kind 'bogus'$"):
        SyntheticConfig(anomalies=(window,)).validate()


def test_a_one_row_window_is_a_config_error():
    config = PipelineConfig()
    config.window.length = 1
    with pytest.raises(ConfigError, match=r"^window\.length must be at least 2, got 1$"):
        config.validate()


# Every bounded setting's range, as its refusal words it.
RANGES = {
    "window.length": "at least 2", "window.stride": "positive",
    **{f"temporal.{key}": "positive" for key in ("heads", "head_dim", "model_dim", "lr")},
    **{f"vgae.{key}": "positive" for key in ("hidden_dim", "embed_dim", "lr")},
    **{f"{section}.epochs": "non-negative" for section in ("temporal", "vgae", "svdd")},
    "vgae.kl_weight": "non-negative", "svdd.weight_decay": "non-negative",
    "svdd.widths": "positive", "svdd.lr": "positive",
    "svdd.slope": "in (0, 1]", "svdd.quantile": "in (0, 1]",
    "run.seed": "non-negative", "run.train_fraction": "in (0, 1]",
    "run.calibration_fraction": "in (0, 1)",
    "synthetic.sensors": "at least 4", "synthetic.types": "at least 2",
    "synthetic.length": "positive", "synthetic.density": "in [0, 1]",
    **{f"synthetic.{key}": "non-negative"
       for key in ("noise", "seed", "drift_delay", "cascade_lag")},
}
# The settings with no range of their own: the paths, the switches, the
# event list, the split (checked against the stream's length) and the
# cascade attenuation.
RULE_FREE = {"paths.data", "paths.topology", "paths.checkpoint", "paths.out",
             "temporal.enabled", "graph.weighting", "vgae.enabled",
             "synthetic.anomalies", "synthetic.split",
             "synthetic.cascade_attenuation"}


def test_every_setting_has_a_range_or_is_rule_free():
    default = PipelineConfig()
    settings = [f"{section.name}.{f.name}" for section in fields(PipelineConfig)
                for f in fields(getattr(default, section.name))]
    assert sorted(settings) == sorted([*RANGES, *RULE_FREE])


def _outside_and_inside(words: str, kind: type) -> tuple[list, list]:
    """Values just past each bound of the range ``words`` names, and values
    at or just inside each bound, for a setting of type ``kind``."""
    def step(bound, direction):
        if kind is int:
            return bound + direction
        return math.nextafter(float(bound), direction * math.inf)

    if words.startswith("at least "):
        k = int(words.removeprefix("at least "))
        return [step(k, -1)], [k]
    return {"positive": ([kind(0), step(0, -1)], [step(0, 1)]),
            "non-negative": ([step(0, -1)], [kind(0)]),
            "in (0, 1]": ([0.0, step(1, 1)], [step(0, 1), 1.0]),
            "in (0, 1)": ([0.0, 1.0], [step(0, 1), step(1, -1)]),
            "in [0, 1]": ([step(0, -1), step(1, 1)], [0.0, 1.0])}[words]


def _validate(setting: str, value) -> None:
    config = PipelineConfig()
    section, key = setting.split(".")
    setattr(getattr(config, section), key, value)
    (config.synthetic if section == "synthetic" else config).validate()


@pytest.mark.parametrize("setting", RANGES)
def test_a_setting_just_outside_its_range_is_refused(setting):
    section, key = setting.split(".")
    default = getattr(getattr(PipelineConfig(), section), key)
    # A tuple setting's range holds for each entry; the message shows the
    # whole tuple.
    as_set = (lambda v: (8, v)) if isinstance(default, tuple) else (lambda v: v)
    kind = type(default[0] if isinstance(default, tuple) else default)
    outside, inside = _outside_and_inside(RANGES[setting], kind)
    for value in map(as_set, outside):
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"{setting} must be {RANGES[setting]}, got {value}") + "$"):
            _validate(setting, value)
    for value in map(as_set, inside):
        _validate(setting, value)


def _integer_fields(group):
    return [f.name for f in fields(group) if type(getattr(group, f.name)) is int]


@pytest.mark.parametrize("section", ["window", "temporal", "vgae", "svdd", "run"])
def test_an_integer_setting_outside_int64_is_a_config_error(section):
    default = getattr(PipelineConfig(), section)
    keys = _integer_fields(default) + (["widths"] if section == "svdd" else [])
    assert keys
    for key in keys:
        for value in (INT64.min - 1, INT64.max + 1, INT64.max):
            config = PipelineConfig()
            setattr(getattr(config, section), key,
                    (8, value) if key == "widths" else value)
            if value == INT64.max:
                config.validate()
                continue
            with pytest.raises(ConfigError, match=(
                    rf"^{section}\.{key} must fit in int64, got {value}$")):
                config.validate()


@pytest.mark.parametrize("key", _integer_fields(SyntheticConfig()) + ["split"])
def test_a_synthetic_integer_outside_int64_is_a_config_error(key):
    for value in (INT64.min - 1, INT64.max + 1):
        config = SyntheticConfig()
        setattr(config, key, value)
        with pytest.raises(ConfigError, match=(
                rf"^synthetic\.{key} must fit in int64, got {value}$")):
            config.validate()


def test_sections_are_written_in_declaration_order():
    headers = [line for line in config_to_text(PipelineConfig()).splitlines()
               if line.startswith("[")]
    assert headers == ["[window]", "[temporal]", "[graph]", "[vgae]", "[svdd]",
                       "[run]"]


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown config section \[bogus\]"):
        parse_config_text("[bogus]\nkey = 1\n")
    with pytest.raises(ConfigError, match="section"):
        apply_setting(PipelineConfig(), "windows", "length", "3")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match=r"unknown key 'lenght' in section \[window\]"):
        parse_config_text("[window]\nlenght = 10\n")
