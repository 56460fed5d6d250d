"""Every setting of the package: the pipeline's and the synthetic
generator's dataclasses, each checked once by its ``validate``, and the
key = value file format.

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


def _check_numbers(section: str, group) -> None:
    """Refuse a non-finite float, or an integer outside int64, in any field
    of ``group``, each entry of a tuple included. NaN passes every
    comparison of a range check, and an infinite rate or weight would only
    fail later, as a numeric error inside training."""
    for f in fields(group):
        value = getattr(group, f.name)
        for number in value if isinstance(value, tuple) else (value,):
            if isinstance(number, float) and not math.isfinite(number):
                raise ConfigError(f"{section}.{f.name} must be finite, got {number}")
            if isinstance(number, int) and not INT64.min <= number <= INT64.max:
                raise ConfigError(f"{section}.{f.name} must fit in int64, got {number}")


@dataclass
class PathsConfig:
    data: str = ""
    topology: str = ""
    checkpoint: str = ""
    out: str = "."


@dataclass
class WindowConfig:
    length: int = 30
    stride: int = 30


@dataclass
class TemporalConfig:
    enabled: bool = True
    heads: int = 4
    head_dim: int = 8
    model_dim: int = 32
    epochs: int = 40
    lr: float = 2e-3


@dataclass
class GraphConfig:
    weighting: bool = True


@dataclass
class VgaeConfig:
    enabled: bool = True
    hidden_dim: int = 32
    embed_dim: int = 8
    kl_weight: float = 1.0
    epochs: int = 60
    lr: float = 1e-2


@dataclass
class SvddConfig:
    widths: tuple[int, ...] = (64, 32)
    slope: float = 0.1
    weight_decay: float = 1e-4
    epochs: int = 1500
    lr: float = 1e-3
    quantile: float = 0.99


@dataclass
class RunConfig:
    seed: int = 7
    train_fraction: float = 1.0
    calibration_fraction: float = 0.15


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
    sensors: int = 12
    types: int = 3
    length: int = 28_000
    density: float = 0.25
    noise: float = 0.12
    seed: int = 7
    anomalies: tuple[AnomalyWindow, ...] = ()
    drift_delay: int = 60
    cascade_lag: int = 5
    cascade_attenuation: float = 0.6
    split: int | None = None

    def validate(self) -> None:
        _check_numbers("synthetic", self)
        if self.length < 1:
            raise ConfigError(f"synthetic.length must be positive, got {self.length}")
        if self.noise < 0:
            raise ConfigError(f"synthetic.noise must be non-negative, got {self.noise}")
        if self.sensors < 4:
            raise ConfigError(f"need at least 4 sensors, got {self.sensors}")
        if self.types < 2:
            raise ConfigError(f"need at least 2 sensor types, got {self.types}")
        if self.types > self.sensors:
            raise ConfigError("more types than sensors")
        if not 0.0 <= self.density <= 1.0:
            raise ConfigError(f"density must be in [0, 1], got {self.density}")
        if self.drift_delay < 0 or self.cascade_lag < 0:
            raise ConfigError("delays must be non-negative")
        if self.seed < 0:
            raise ConfigError(f"synthetic.seed must be non-negative, got {self.seed}")
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
        w, t, v, s, r = self.window, self.temporal, self.vgae, self.svdd, self.run
        for section in ("window", "temporal", "vgae", "svdd", "run"):
            _check_numbers(section, getattr(self, section))
        positive = {
            "window.length": w.length, "window.stride": w.stride,
            "temporal.heads": t.heads, "temporal.head_dim": t.head_dim,
            "temporal.model_dim": t.model_dim, "temporal.lr": t.lr,
            "vgae.hidden_dim": v.hidden_dim, "vgae.embed_dim": v.embed_dim,
            "vgae.lr": v.lr, "svdd.lr": s.lr,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if w.length < 2:
            raise ConfigError(f"window length must be >= 2, got {w.length}")
        for name, value in (("temporal.epochs", t.epochs),
                            ("vgae.epochs", v.epochs),
                            ("svdd.epochs", s.epochs), ("run.seed", r.seed)):
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        if v.kl_weight < 0:
            raise ConfigError(f"vgae.kl_weight must be non-negative, got {v.kl_weight}")
        if s.weight_decay < 0:
            raise ConfigError(f"svdd.weight_decay must be non-negative, got {s.weight_decay}")
        if not s.widths or any(width <= 0 for width in s.widths):
            raise ConfigError(f"svdd.widths must be positive, got {s.widths}")
        # A slope outside (0, 1] makes the leaky layer non-monotone or
        # expanding.
        if not 0.0 < s.slope <= 1.0:
            raise ConfigError(f"svdd.slope must be in (0, 1], got {s.slope}")
        if not 0.0 < s.quantile <= 1.0:
            raise ConfigError(f"svdd.quantile must be in (0, 1], got {s.quantile}")
        if not 0.0 < r.train_fraction <= 1.0:
            raise ConfigError(f"run.train_fraction must be in (0, 1], got {r.train_fraction}")
        if not 0.0 < r.calibration_fraction < 1.0:
            raise ConfigError(
                f"run.calibration_fraction must be in (0, 1), got {r.calibration_fraction}")


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
