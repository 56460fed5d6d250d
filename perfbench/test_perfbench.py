"""Tests of the benchmark harness itself: tracer arithmetic, patching, exact
counts across fresh processes, the host-speed correction, and failure
outside a source checkout."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import cpsdetect.pipeline  # noqa: E402
import cpsdetect.temporal  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from tracer import Span, Tracer  # noqa: E402
from workloads import Ledger  # noqa: E402

# A traced, shortened training of `full` on a tenth of the training rows,
# then scoring of 900 test rows; prints the run's exact counts as JSON.
COUNTS_RUN = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import workloads
from cpsdetect import pipeline
from tracer import Tracer
inputs = workloads.load_inputs("full")
config = workloads.short_epochs(inputs.config)
config.svdd.epochs = 5
config.run.train_fraction = 0.1
tracer = Tracer()
tracer.install()
pipe = pipeline.train_pipeline(config, inputs.topology, inputs.train_values,
                               inputs.train_labels)
pipeline.score_stream(pipe, inputs.test_values[:900])
tracer.uninstall()
print(json.dumps({name: value for name, (value, unit) in
                  workloads.per_layer(tracer, 0.0).items() if unit == "count"}))
"""

EXACT = ("autodiff.tensors", "temporal.encode_calls", "vgae.encode_calls",
         "graphgen.weighted_graph_calls", "svdd.forward_calls")


def test_self_time_subtracts_child_spans_and_layers_skip_nested_names():
    tracer = Tracer()
    tracer.spans = [
        Span("train", 0.0, 10.0, -1, 0, 0),
        Span("encode", 1.0, 4.0, 0, 0, 0),
        Span("encode", 1.5, 2.0, 1, 0, 0),
        Span("step", 5.0, 6.0, 0, 0, 0),
    ]
    assert tracer.self_times() == [6.0, 2.5, 0.5, 1.0]
    layers = tracer.layers()
    assert layers["encode"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}
    assert tracer.children_of("train") == (10.0, {"encode": 3.0, "step": 1.0})


def test_install_wraps_from_import_bindings_and_uninstall_restores():
    original = cpsdetect.temporal.train_temporal
    assert cpsdetect.pipeline.train_temporal is original
    encode = cpsdetect.temporal.TemporalEncoder.encode
    tracer = Tracer()
    tracer.install((
        ("temporal.train", "cpsdetect.temporal", "train_temporal", "span"),
        ("temporal.encode", "cpsdetect.temporal", "TemporalEncoder.encode", "span"),
        ("gone", "cpsdetect.pipeline", "no_such_function", "span"),
    ))
    try:
        assert cpsdetect.pipeline.train_temporal is not original
        assert cpsdetect.temporal.train_temporal is cpsdetect.pipeline.train_temporal
        assert cpsdetect.temporal.TemporalEncoder.encode is not encode
        assert tracer.absent == ["cpsdetect.pipeline.no_such_function"]
    finally:
        tracer.uninstall()
    assert cpsdetect.pipeline.train_temporal is original
    assert cpsdetect.temporal.train_temporal is original
    assert cpsdetect.temporal.TemporalEncoder.encode is encode


def test_ledger_counts_exceptions_and_failed_checks():
    ledger = Ledger()
    assert ledger.attempt("ok", lambda: 1)[0] == 1
    assert ledger.attempt("raises", lambda: 1 / 0)[0] is None
    assert ledger.attempt("bad", lambda: 2, check=lambda v: "wrong")[0] == 2
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.problems[0].startswith("raises: ZeroDivisionError")


def test_factor_widens_short_spans_and_drops_stalled_probes():
    speed = HostSpeed()
    speed.durations = [REFERENCE_S] * 30 + [2 * REFERENCE_S] * 30
    assert speed.factor(0, 30) == pytest.approx(1.0)
    assert speed.factor(30, 60) == pytest.approx(2.0)
    # Two probes widen to MIN_PROBES, evenly around the span.
    assert speed.factor(29, 31) == pytest.approx(1.5)
    assert speed.factor(58, 60) == pytest.approx(2.0)
    speed.durations[40] = 50 * REFERENCE_S
    assert speed.factor(30, 60) == pytest.approx(2.0)
    assert speed.corrected(3.0, 30, 60) == pytest.approx(1.5)
    assert HostSpeed().factor(0, 0) == 1.0


def test_ledger_leaves_probe_time_out():
    ledger = Ledger(HostSpeed(interval=0.001))
    ledger.speed.install()
    try:
        start = time.perf_counter()
        _, seconds = ledger.attempt("sleep", time.sleep, 0.05)
        wall = time.perf_counter() - start
    finally:
        ledger.speed.uninstall()
    assert ledger.speed.mark() > 0
    assert seconds == pytest.approx(wall - ledger.speed.spent, abs=1e-3)


def test_exact_counts_repeat_across_fresh_processes():
    command = [sys.executable, "-c", COUNTS_RUN, str(HERE), str(SRC)]
    runs = [subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
            for _ in range(2)]
    outputs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    first, second = (json.loads(out.strip().splitlines()[-1]) for out in outputs)
    assert first == second
    assert all(first[name] > 0 for name in EXACT)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-raw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
