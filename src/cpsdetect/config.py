"""Every setting of the package: the pipeline's and the synthetic
generator's dataclasses, each checked once by its ``validate``, and the
key = value file format.

Each bounded setting declares its range on its own field, beside its
default (``bounded``), and one walk over a section's fields refuses a value
outside it. A ``validate`` keeps only the rules that read two values or a
tuple as a whole.

Config files are INI-style: ``[section]`` headers with ``key = value`` lines.
Every field can be overridden on the command line with ``--set
section.key=value``; unknown sections or keys are errors so typos fail
loudly. Anomaly specs for the synthetic generator use a compact
``kind:start:duration:sensor[:magnitude]`` syntax, multiple windows joined
with ``|``. ``config_to_text`` writes the settings a trained model reads,
every section but ``paths`` and ``synthetic``, for its checkpoint.
"""
from __future__ import annotations

import configparser
import contextlib
import io
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError

# The range of every integer setting: numpy holds a larger integer only in
# an object array, which fails later as an index or a size.
INT64 = np.iinfo(np.int64)

# The ranges a setting can declare: the words of its refusal and the test
# each value passes.
POSITIVE = ("positive", lambda x: x > 0)
NON_NEGATIVE = ("non-negative", lambda x: x >= 0)
UNIT = ("in (0, 1]", lambda x: 0 < x <= 1)
OPEN_UNIT = ("in (0, 1)", lambda x: 0 < x < 1)
CLOSED_UNIT = ("in [0, 1]", lambda x: 0 <= x <= 1)


def at_least(k: int):
    return (f"at least {k}", lambda x: x >= k)


def bounded(default, rule):
    """A field whose value, each entry of a tuple, must pass ``rule``."""
    return field(default=default, metadata={"rule": rule})


def _check_fields(section: str, group) -> None:
    """Refuse a value of any field of ``group``, each entry of a tuple
    included, that is a non-finite float, an integer outside int64, or
    outside the range its field declares. NaN passes every comparison of a
    range check, and an infinite rate or weight would only fail later, as a
    numeric error inside training."""
    for f in fields(group):
        value = getattr(group, f.name)
        numbers = value if isinstance(value, tuple) else (value,)
        for number in numbers:
            if isinstance(number, float) and not math.isfinite(number):
                raise ConfigError(f"{section}.{f.name} must be finite, got {number}")
            if isinstance(number, int) and not INT64.min <= number <= INT64.max:
                raise ConfigError(f"{section}.{f.name} must fit in int64, got {number}")
        if "rule" in f.metadata:
            words, holds = f.metadata["rule"]
            if not all(map(holds, numbers)):
                raise ConfigError(f"{section}.{f.name} must be {words}, got {value}")


@dataclass
class PathsConfig:
    data: str = ""
    topology: str = ""
    checkpoint: str = ""
    out: str = "."


@dataclass
class WindowConfig:
    length: int = bounded(30, at_least(2))
    stride: int = bounded(30, POSITIVE)


@dataclass
class TemporalConfig:
    enabled: bool = True
    heads: int = bounded(4, POSITIVE)
    head_dim: int = bounded(8, POSITIVE)
    model_dim: int = bounded(32, POSITIVE)
    epochs: int = bounded(40, NON_NEGATIVE)
    lr: float = bounded(2e-3, POSITIVE)


@dataclass
class GraphConfig:
    weighting: bool = True


@dataclass
class VgaeConfig:
    enabled: bool = True
    hidden_dim: int = bounded(32, POSITIVE)
    embed_dim: int = bounded(8, POSITIVE)
    kl_weight: float = bounded(1.0, NON_NEGATIVE)
    epochs: int = bounded(60, NON_NEGATIVE)
    lr: float = bounded(1e-2, POSITIVE)


@dataclass
class SvddConfig:
    widths: tuple[int, ...] = bounded((64, 32), POSITIVE)
    # A slope outside (0, 1] makes the leaky layer non-monotone or
    # expanding.
    slope: float = bounded(0.1, UNIT)
    weight_decay: float = bounded(1e-4, NON_NEGATIVE)
    epochs: int = bounded(1500, NON_NEGATIVE)
    lr: float = bounded(1e-3, POSITIVE)
    quantile: float = bounded(0.99, UNIT)


@dataclass
class RunConfig:
    seed: int = bounded(7, NON_NEGATIVE)
    train_fraction: float = bounded(1.0, UNIT)
    calibration_fraction: float = bounded(0.15, OPEN_UNIT)


@dataclass
class AnomalyWindow:
    """One injected event. ``kind`` is offset, drift, or cascade."""

    kind: str
    start: int
    duration: int
    sensor: int
    magnitude: float = 3.0

    KINDS = ("offset", "drift", "cascade")

    def validate(self, length: int, n: int) -> None:
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown anomaly kind {self.kind!r}")
        if self.duration < 1:
            raise ConfigError(f"anomaly duration must be positive, got {self.duration}")
        if not math.isfinite(self.magnitude):
            raise ConfigError(f"anomaly magnitude must be finite, got {self.magnitude}")
        if self.start < 0 or self.start + self.duration > length:
            raise ConfigError(
                f"anomaly window [{self.start}, {self.start + self.duration}) "
                f"outside stream of length {length}")
        if not 0 <= self.sensor < n:
            raise ConfigError(f"anomaly sensor {self.sensor} out of range for {n} sensors")


@dataclass
class SyntheticConfig:
    sensors: int = bounded(12, at_least(4))
    types: int = bounded(3, at_least(2))
    length: int = bounded(28_000, POSITIVE)
    density: float = bounded(0.25, CLOSED_UNIT)
    noise: float = bounded(0.12, NON_NEGATIVE)
    seed: int = bounded(7, NON_NEGATIVE)
    anomalies: tuple[AnomalyWindow, ...] = ()
    drift_delay: int = bounded(60, NON_NEGATIVE)
    cascade_lag: int = bounded(5, NON_NEGATIVE)
    cascade_attenuation: float = 0.6
    split: int | None = None

    def validate(self) -> None:
        _check_fields("synthetic", self)
        if self.types > self.sensors:
            raise ConfigError("more types than sensors")
        if self.split is not None and not 0 < self.split < self.length:
            raise ConfigError(f"synthetic.split {self.split} outside stream "
                              f"of length {self.length}")
        spans = sorted((w.start, w.start + w.duration) for w in self.anomalies)
        for (s0, e0), (s1, _) in zip(spans, spans[1:]):
            if s1 < e0:
                raise ConfigError(
                    f"anomaly windows overlap near timestamps {s1}..{e0}")
        for w in self.anomalies:
            w.validate(self.length, self.sensors)
            if w.kind == "drift" and self.drift_delay >= w.duration:
                raise ConfigError(
                    f"drift delay {self.drift_delay} swallows the whole "
                    f"window of {w.duration} steps")


@dataclass
class PipelineConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    window: WindowConfig = field(default_factory=WindowConfig)
    temporal: TemporalConfig = field(default_factory=TemporalConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    vgae: VgaeConfig = field(default_factory=VgaeConfig)
    svdd: SvddConfig = field(default_factory=SvddConfig)
    run: RunConfig = field(default_factory=RunConfig)
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)

    def validate(self) -> None:
        for section in ("window", "temporal", "vgae", "svdd", "run"):
            _check_fields(section, getattr(self, section))
        if not self.svdd.widths:
            raise ConfigError(f"svdd.widths must be positive, got {self.svdd.widths}")


@contextlib.contextmanager
def sizing(section: str, group):
    """Refuse the size settings of ``group``, every integer or tuple field
    but the epoch count, if a parameter array of the stage built in here is
    too big to exist. numpy refuses an array whose byte count overflows its
    index type with a ValueError, the only one drawing parameters raises;
    an array that could exist but does not fit in memory stays numpy's
    MemoryError."""
    try:
        yield
    except ValueError:
        sizes = ", ".join(f"{section}.{f.name}={getattr(group, f.name)}"
                          for f in fields(group) if f.name != "epochs"
                          and type(getattr(group, f.name)) in (int, tuple))
        raise ConfigError(f"a {section} parameter array sized by {sizes} "
                          "is too big to exist") from None


def parse_anomaly_spec(text: str) -> tuple[AnomalyWindow, ...]:
    windows = []
    text = text.strip()
    if not text:
        return ()
    for chunk in text.split("|"):
        parts = [p.strip() for p in chunk.strip().split(":")]
        if len(parts) not in (4, 5):
            raise ConfigError(
                f"anomaly spec {chunk.strip()!r} is not "
                "kind:start:duration:sensor[:magnitude]")
        try:
            # A 4-field spec leaves the magnitude at AnomalyWindow's default.
            windows.append(AnomalyWindow(parts[0], int(parts[1]), int(parts[2]),
                                         int(parts[3]), *map(float, parts[4:])))
        except ValueError as err:
            raise ConfigError(f"bad anomaly spec {chunk.strip()!r}: {err}") from None
    return tuple(windows)


def _coerce(section: str, key: str, raw: str, current):
    if key == "anomalies":
        return parse_anomaly_spec(raw)
    if section == "synthetic" and key == "split":
        if raw.strip().lower() in ("", "none"):
            return None
        current = 0  # otherwise an integer, parsed as any other below
    if section == "svdd" and key == "widths":
        try:
            return tuple(int(p.strip()) for p in raw.split(",") if p.strip())
        except ValueError:
            raise ConfigError(f"[svdd] widths: cannot parse {raw!r}") from None
    if isinstance(current, bool):
        text = raw.strip().lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")
    try:
        if isinstance(current, int):
            return int(raw.strip())
        if isinstance(current, float):
            return float(raw.strip())
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None
    return raw.strip()


def apply_setting(config: PipelineConfig, section: str, key: str, raw: str) -> None:
    if section not in {f.name for f in fields(PipelineConfig)}:
        raise ConfigError(f"unknown config section [{section}]")
    group = getattr(config, section)
    names = {f.name for f in fields(group)}
    if key not in names:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    setattr(group, key, _coerce(section, key, raw, getattr(group, key)))


def parse_config_text(text: str) -> PipelineConfig:
    config = PipelineConfig()
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse config: {err}") from None
    for section in parser.sections():
        for key, raw in parser.items(section):
            apply_setting(config, section, key, raw)
    return config


def load_config(path) -> PipelineConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    return parse_config_text(text)


def config_to_text(config: PipelineConfig) -> str:
    """The settings a trained model reads, as text ``parse_config_text``
    reads back: the window, temporal, graph, vgae, svdd and run sections,
    in declaration order. ``paths`` and ``synthetic`` are left out, so the
    text does not depend on where the files were or how the data was
    made."""
    out = io.StringIO()
    for section in fields(PipelineConfig):
        if section.name in ("paths", "synthetic"):
            continue
        group = getattr(config, section.name)
        out.write(f"[{section.name}]\n")
        for f in fields(group):
            value = getattr(group, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            elif isinstance(value, float):
                value = repr(value)
            out.write(f"{f.name} = {value}\n")
        out.write("\n")
    return out.getvalue()
