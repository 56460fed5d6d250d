"""Pinned acceptance run: the quality and digests of the reduced benchmark recipe.

``benchmark.short_run``, the recipe behind ``scripts/checkpoint_digests.py``,
trains each variant with epochs (1, 1, 300) on the first ``TRAIN_ROWS`` rows
of the pinned benchmark stream and scores the rest; all five take a few
seconds. The expected F1 (point-adjusted and raw) and AUC over the covered
timestamps hold with BLAS on one thread. The fits run in float32, whose
rounding makes the trained weights depend on how the BLAS splits its
products, so the five runs are made in one child process with
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set
to 1: the test process has loaded numpy's BLAS with its own thread count
before this module is collected. The same child also hashes each run as
``scripts/checkpoint_digests.py`` does (its ``contents``, and the training
record), so the ten digests that script prints at one thread are pinned
too, and so are the five window digests it prints beside them: each test
window scored in its own ``score_stream`` call, the path a monitor takes
as windows arrive. Run as a script, this file prints the measured values and digests as
JSON. Work on the graph stages (ROADMAP item 2) is expected to move these
numbers; a change that moves any trained bit updates ``EXPECTED`` and
``DIGESTS`` (and ``WINDOW_DIGESTS``) and records the new values in CHANGES.md.
"""
import hashlib
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

# variant -> (model digest, record digest), as scripts/checkpoint_digests.py
# prints them with BLAS on one thread.
DIGESTS = {
    "full": ("2602bfe728a7af3f286bc6f56f56dd4fb114e155e07448feacbad13d06563472",
             "74598e8aeb955165b5d5938dd7c99c5b245fdb923e5cf0eeb0417ab4fab5e619"),
    "no-weighting": (
        "25f18d4c99609c95f6f15ae76ca761cceb636523a90463128b748ee31f7667cb",
        "216aafe2c2ed5fcb95e1f31e393d564b8851a6535d75be001d6e640515d00809"),
    "no-temporal": (
        "d0bf79999b6dd9a74ebf00e44320f00b8970f3bb2f04e20c06cbb76027048769",
        "065f21047c941b3f3758924aa0203152fc51ab2f5661260f2fd94d86a6956b2f"),
    "temporal-only": (
        "d0ec0f8b99374bdf836bbf6531f6f927da1dca5e98ada56633556ec778eaddb8",
        "3bf6c25d269d1ab65a4b72c852e4ea75d282e73463c3657ebe7eee2e1d38f4d1"),
    "raw": ("6d80c4aea68cadfaf8ea12ab5fda2153939f94eda9a8776dc09ddc9c99409c28",
            "e872e462875eb12d4b22ae2d62e8415b0fca6b209a84938efd7a37991fe04bc7"),
}

# variant -> window digest, as scripts/checkpoint_digests.py prints it with
# BLAS on one thread.
WINDOW_DIGESTS = {
    "full": "853d71a099bfc13cd4ea3d0470c014d304ed3568774bcb6c29bb70e6a4d082f2",
    "no-weighting": "b971cac3eb2a29a29d9a40aad47be09e017bd8958de880e26445b654961fae67",
    "no-temporal": "76d65e36b8cdd161c9f9c0e8bda6e273fe369259b3e4c5dbd4a61ae9ad187efc",
    "temporal-only": "7ad1428a343822565ec233c38baef1509109c6bb71fc3cfc99c364fb17d46de4",
    "raw": "2b74f9faa4c55b6a213c8b590fe7ddc72bc2ab09967e300d9aac686a815f7c74",
}


def measure() -> dict[str, dict[str, list]]:
    """Each variant's (F1 point-adjusted, F1 raw, AUC) on the pinned stream,
    under ``quality``, its (model, record) digests, under ``digests``, and
    its window digest, under ``windows``."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
    from checkpoint_digests import contents, window_digest

    topology, values, labels = benchmark.benchmark_data()
    measured = {"quality": {}, "digests": {}, "windows": {}}
    for variant in EXPECTED:
        pipe, segments, results = benchmark.short_run(variant, topology, values,
                                                      labels)
        indices, scores, predictions = pipeline.expand_to_timestamps(
            segments, results, pipe.threshold)
        truth = labels[TRAIN_ROWS:][indices]
        adjusted = metrics.evaluate_scores(truth, scores, predictions=predictions)
        raw = metrics.evaluate_scores(truth, scores, predictions=predictions,
                                      adjust=False)
        measured["quality"][variant] = (adjusted.f1, raw.f1, adjusted.auc)
        measured["digests"][variant] = (
            hashlib.sha256(b"".join(contents(pipe, segments, results))).hexdigest(),
            hashlib.sha256(json.dumps(pipe.record).encode("utf-8")).hexdigest())
        measured["windows"][variant] = window_digest(pipe, segments,
                                                     values[TRAIN_ROWS:])
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
    assert tuple(measured["quality"][variant]) == pytest.approx(EXPECTED[variant],
                                                                abs=1e-3)


@pytest.mark.parametrize("variant", DIGESTS)
def test_short_run_digests_are_pinned(measured, variant):
    assert tuple(measured["digests"][variant]) == DIGESTS[variant]


@pytest.mark.parametrize("variant", WINDOW_DIGESTS)
def test_one_window_digests_are_pinned(measured, variant):
    assert measured["windows"][variant] == WINDOW_DIGESTS[variant]


if __name__ == "__main__":
    print(json.dumps(measure()))
