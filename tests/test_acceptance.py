"""Pinned acceptance run: the quality of the reduced benchmark recipe.

``benchmark.short_run``, the recipe behind ``scripts/checkpoint_digests.py``,
trains each variant with epochs (1, 1, 300) on the first ``TRAIN_ROWS`` rows
of the pinned benchmark stream and scores the rest; all five take a few
seconds. The expected F1 (point-adjusted and raw) and AUC over the covered
timestamps hold with BLAS on one thread. The fits run in float32, whose
rounding makes the trained weights depend on how the BLAS splits its
products, so the five runs are made in one child process with
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set
to 1: the test process has loaded numpy's BLAS with its own thread count
before this module is collected. Run as a script, this file prints the
measured values as JSON. Work on the graph stages (ROADMAP item 2) is
expected to move these numbers; a change that does so records the new
values in CHANGES.md.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cpsdetect import benchmark, metrics, pipeline
from cpsdetect.benchmark import TRAIN_ROWS

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# variant -> (F1 point-adjusted, F1 raw, AUC)
EXPECTED = {
    "full": (0.588235, 0.356164, 0.617988),
    "no-weighting": (0.588235, 0.333333, 0.621980),
    "no-temporal": (0.555556, 0.452381, 0.734547),
    "temporal-only": (0.579151, 0.385965, 0.660410),
    "raw": (0.880196, 0.816537, 0.927157),
}


def measure() -> dict[str, tuple[float, float, float]]:
    """Each variant's (F1 point-adjusted, F1 raw, AUC) on the pinned stream."""
    topology, values, labels = benchmark.benchmark_data()
    measured = {}
    for variant in EXPECTED:
        pipe, segments, results = benchmark.short_run(variant, topology, values,
                                                      labels)
        indices, scores, predictions = pipeline.expand_to_timestamps(
            segments, results, pipe.threshold)
        truth = labels[TRAIN_ROWS:][indices]
        adjusted = metrics.evaluate_scores(truth, scores, predictions=predictions)
        raw = metrics.evaluate_scores(truth, scores, predictions=predictions,
                                      adjust=False)
        measured[variant] = (adjusted.f1, raw.f1, adjusted.auc)
    return measured


@pytest.fixture(scope="module")
def measured():
    source = str(Path(pipeline.__file__).resolve().parents[1])
    env = {**os.environ, **dict.fromkeys(THREAD_VARIABLES, "1"),
           "PYTHONPATH": os.pathsep.join(filter(None, (
               source, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, __file__], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("variant", EXPECTED)
def test_short_run_quality_is_pinned(measured, variant):
    assert tuple(measured[variant]) == pytest.approx(EXPECTED[variant], abs=1e-3)


if __name__ == "__main__":
    print(json.dumps(measure()))
