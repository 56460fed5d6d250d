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


def test_a_one_row_window_is_a_config_error():
    config = PipelineConfig()
    config.window.length = 1
    with pytest.raises(ConfigError, match=r"^window length must be >= 2, got 1$"):
        config.validate()


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
