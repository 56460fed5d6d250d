"""Pinned acceptance run: the quality of the reduced benchmark recipe.

``benchmark.short_run``, the recipe behind ``scripts/checkpoint_digests.py``,
trains each variant with epochs (1, 1, 300) on the first ``TRAIN_ROWS`` rows
of the pinned benchmark stream and scores the rest; all five take a few
seconds. The expected F1 (point-adjusted and raw) and AUC over the covered
timestamps were measured with default BLAS threading and with one thread,
which agree to six decimals. Work on the graph stages (ROADMAP item 2) is
expected to move these numbers; a change that does so records the new
values in CHANGES.md.
"""
import pytest

from cpsdetect import benchmark, metrics, pipeline
from cpsdetect.benchmark import TRAIN_ROWS

# variant -> (F1 point-adjusted, F1 raw, AUC)
EXPECTED = {
    "full": (0.588235, 0.356164, 0.617988),
    "no-weighting": (0.588235, 0.333333, 0.622195),
    "no-temporal": (0.555556, 0.452381, 0.734763),
    "temporal-only": (0.579151, 0.406926, 0.658360),
    "raw": (0.880196, 0.816537, 0.927211),
}


@pytest.fixture(scope="module")
def stream():
    return benchmark.benchmark_data()


@pytest.mark.parametrize("variant", EXPECTED)
def test_short_run_quality_is_pinned(stream, variant):
    topology, values, labels = stream
    pipe, segments, results = benchmark.short_run(variant, topology, values, labels)
    indices, scores, predictions = pipeline.expand_to_timestamps(
        segments, results, pipe.threshold)
    truth = labels[TRAIN_ROWS:][indices]
    adjusted = metrics.evaluate_scores(truth, scores, predictions=predictions)
    raw = metrics.evaluate_scores(truth, scores, predictions=predictions,
                                  adjust=False)
    assert (adjusted.f1, raw.f1, adjusted.auc) == pytest.approx(
        EXPECTED[variant], abs=1e-3)
