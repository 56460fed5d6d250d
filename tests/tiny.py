"""A pipeline small enough to train end to end in well under a second.

Four sensors of two types, 10-row windows and a few epochs per stage: every
code path of the full detector runs, none of it long enough to matter.
"""
from __future__ import annotations

from cpsdetect import benchmark, data
from cpsdetect.config import PipelineConfig, apply_setting

# As ``--set`` overrides, so the CLI tests can pass the same settings.
SETTINGS = (
    "window.length=10", "window.stride=10",
    "temporal.heads=2", "temporal.head_dim=2", "temporal.model_dim=4",
    "temporal.epochs=2",
    "vgae.hidden_dim=4", "vgae.embed_dim=2", "vgae.epochs=2",
    "svdd.widths=8,4", "svdd.epochs=20",
    "synthetic.sensors=4", "synthetic.types=2", "synthetic.length=400",
)
TRAIN_ROWS = 300


def tiny_config(variant: str = "full", settings: tuple[str, ...] = ()) -> PipelineConfig:
    """The tiny settings, then ``settings`` (as ``--set`` overrides)."""
    config = PipelineConfig()
    for setting in SETTINGS + settings:
        target, value = setting.split("=")
        section, key = target.split(".")
        apply_setting(config, section, key, value)
    return benchmark.apply_variant(config, variant)


def tiny_data(config: PipelineConfig):
    """(topology, train values, train labels, test values) from the generator."""
    topology, values, labels = data.generate_synthetic(config.synthetic)
    return (topology, values[:TRAIN_ROWS], labels[:TRAIN_ROWS],
            values[TRAIN_ROWS:])
