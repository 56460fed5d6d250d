"""Reference synthetic benchmark: dataset recipe plus pipeline settings.

One pinned-seed configuration shared by the benchmark harness
(``perfbench/``), ``scripts/run_synthetic_benchmark.py`` and
``scripts/checkpoint_digests.py``: a 12-sensor, 3-type plant simulated for
28k steps, the first 20k anomaly-free for training, the rest holding five
labeled events that cover all three archetypes (plain offsets, a delayed
drift, and two cascades that spread over graph neighbors). A variant name
is one of ``VARIANTS``; the harness and both scripts refuse any other name
before they call in here.
"""
from __future__ import annotations

import numpy as np

from . import pipeline
from .config import AnomalyWindow, PipelineConfig, SyntheticConfig
from .data import SensorTopology, generate_synthetic

TRAIN_ROWS = 20_000


def benchmark_synthetic() -> SyntheticConfig:
    return SyntheticConfig(
        sensors=12,
        types=3,
        length=28_000,
        density=0.3,
        noise=0.12,
        seed=715,
        anomalies=(
            AnomalyWindow("offset", 20_600, 300, 3, magnitude=2.5),
            AnomalyWindow("offset", 22_000, 250, 8, magnitude=2.0),
            AnomalyWindow("drift", 23_200, 500, 5, magnitude=3.0),
            AnomalyWindow("cascade", 24_800, 400, 1, magnitude=2.2),
            AnomalyWindow("cascade", 26_500, 350, 9, magnitude=2.5),
        ),
        drift_delay=60,
        cascade_lag=5,
        cascade_attenuation=0.6,
        split=TRAIN_ROWS,
    )


def benchmark_config() -> PipelineConfig:
    config = PipelineConfig()
    config.run.seed = 20_715
    return config


def benchmark_data() -> tuple[SensorTopology, np.ndarray, np.ndarray]:
    return generate_synthetic(benchmark_synthetic())


VARIANTS = {
    "full": (True, True, True),
    "no-weighting": (True, False, True),
    "no-temporal": (False, True, True),
    "temporal-only": (True, False, False),
    "raw": (False, False, False),
}


def apply_variant(config: PipelineConfig, name: str) -> PipelineConfig:
    """Set the ablation toggles for one variant of ``VARIANTS`` in place."""
    temporal, weighting, vgae = VARIANTS[name]
    config.temporal.enabled = temporal
    config.graph.weighting = weighting
    config.vgae.enabled = vgae
    return config


def short_run(name: str, topology: SensorTopology, values, labels):
    """Variant ``name`` trained with epochs (temporal, vgae, svdd) = (1, 1,
    300) on the first ``TRAIN_ROWS`` rows: the pipeline and its
    ``score_stream`` output, (segments, results), on the rest."""
    config = apply_variant(benchmark_config(), name)
    config.temporal.epochs, config.vgae.epochs, config.svdd.epochs = 1, 1, 300
    pipe = pipeline.train_pipeline(config, topology, values[:TRAIN_ROWS],
                                   labels[:TRAIN_ROWS])
    return (pipe, *pipeline.score_stream(pipe, values[TRAIN_ROWS:]))
