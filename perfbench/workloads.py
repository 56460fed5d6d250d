"""The benchmark's workloads, driven through cpsdetect's public API.

Every workload uses the pinned recipe of ``cpsdetect.benchmark`` (data seed
715, run seed 20715, 20k training rows, 8k test rows), so its quality numbers
stay comparable with the recorded baseline. The workload seed picks which
test windows the per-window (online) scoring calls take, and in which order.

Timed runs report host-speed corrected seconds (see ``hostspeed.py``): a
reference kernel runs on a timer in the measured thread, and each section's
time, less the probes' own, is scaled by the kernel's mean time in it.

Each call into the package is one attempted operation. An operation fails
when it raises or when its output fails a check: scores must be finite, the
test stream must yield 266 segments, repeated and per-window scores must
match the batch scores, a repeated training must score bit for bit like the
first, quality must stay inside the recorded floor, and a loaded checkpoint
must score bit for bit like the pipeline that saved it.
"""
from __future__ import annotations

import contextlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cpsdetect import benchmark, checkpoint, metrics, pipeline
from cpsdetect.benchmark import TRAIN_ROWS

from hostspeed import HostSpeed
from tracer import Tracer, estimate_overhead

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TEST_SEGMENTS = 266
WINDOW = 30
# Set-up repeats at least this often (and, on train-*, for at least this
# long, once before the training and once more after the scoring); setup_s
# is the median. score-full runs exactly SETUP_REPEATS rounds.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
# Scoring cycles a scoring loop makes at least: 4 x 266 per-window calls
# leave more than 10 samples beyond the 99th percentile. A traced run makes
# exactly this minimum (and one training), so its counts repeat exactly.
MIN_CYCLES = 4
# Trainings per timed run, each followed by its share of the scoring time:
# train_s is their median. One `full` training takes about 85 s, so
# train-full affords one; it spans many host state switches by itself.
TRAININGS = {"train-full": 1, "train-raw": 2}
# A traced run replays its work untraced to measure the tracing overhead
# only while both halves fit well inside the 180 s a run may take.
REPLAY_BUDGET_S = 120.0
# score-full fits its model with these (temporal, vgae, svdd) epochs:
# scoring cost does not depend on the weights.
SHORT_EPOCHS = (1, 1, 300)
# Per-window scores may differ from batch scores by summation order only.
MATCH_RTOL = 1e-9

# Quality of the pinned recipe at the seed commit. A run fails its quality
# check when a number falls more than QUALITY_TOLERANCE below its floor.
QUALITY_FLOOR = {
    "train-full": {"f1_adj": 0.866, "f1_raw": 0.575, "auc": 0.745},
    "train-raw": {"f1_adj": 0.887, "f1_raw": 0.785, "auc": 0.915},
    "score-full": {"f1_adj": 0.588, "f1_raw": 0.356, "auc": 0.618},
}
QUALITY_TOLERANCE = {"f1_adj": 0.05, "f1_raw": 0.05, "auc": 0.02}

CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.fit_checkpoint(sys.argv[3])")

clock = time.perf_counter


class Ledger:
    """Operations attempted and failed; a failed output check fails its operation.

    With a ``HostSpeed`` installed as ``speed``, times leave out the probes'
    own time, and ``corrected`` turns them into corrected seconds; without
    one (traced runs) they are wall seconds.
    """

    def __init__(self, speed: HostSpeed | None = None):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.speed = speed

    def now(self) -> float:
        return self.speed.net_clock() if self.speed else clock()

    def mark(self) -> int:
        return self.speed.mark() if self.speed else 0

    def corrected(self, seconds: float, first: int, last: int) -> float:
        return self.speed.corrected(seconds, first, last) if self.speed else seconds

    def paused(self):
        return self.speed.paused() if self.speed else contextlib.nullcontext()

    def attempt(self, label: str, fn, *args, check=None):
        """Call ``fn``; return (result, seconds in ``fn``), result None if it raised."""
        self.attempted += 1
        start = self.now()
        try:
            result = fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            elapsed = self.now() - start
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None, elapsed
        elapsed = self.now() - start
        problem = check(result) if check is not None else None
        if problem:
            self.fail(f"{label}: {problem}")
        return result, elapsed

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)


@dataclass
class Inputs:
    config: object
    topology: object
    train_values: np.ndarray
    train_labels: np.ndarray
    test_values: np.ndarray
    test_labels: np.ndarray


@dataclass
class Measured:
    setup_s: list[float] = field(default_factory=list)
    train_s: list[float] = field(default_factory=list)
    batch_s: list[float] = field(default_factory=list)
    window_s: list[float] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)


def load_inputs(variant: str) -> Inputs:
    topology, values, labels = benchmark.benchmark_data()
    config = benchmark.apply_variant(benchmark.benchmark_config(), variant)
    return Inputs(config, topology, values[:TRAIN_ROWS], labels[:TRAIN_ROWS],
                  values[TRAIN_ROWS:], labels[TRAIN_ROWS:])


def short_epochs(config):
    config.temporal.epochs, config.vgae.epochs, config.svdd.epochs = SHORT_EPOCHS
    return config


def scores_of(output) -> np.ndarray:
    return np.array([result.score for result in output[1]])


def score_check(segments: int, reference: np.ndarray | None = None,
                exact: bool = True):
    """Check a score_stream output: segment count, finite scores, reference."""
    def check(output):
        scores = scores_of(output)
        if len(output[0]) != segments:
            return f"{len(output[0])} segments, expected {segments}"
        if not np.isfinite(scores).all():
            return "non-finite score"
        if reference is None:
            return None
        if exact and not np.array_equal(scores, reference):
            return "scores differ from the reference scores"
        if not exact and not np.allclose(scores, reference, rtol=MATCH_RTOL, atol=0.0):
            return f"score {scores} differs from batch score {reference}"
        return None
    return check


def evaluate(labels: np.ndarray, output, threshold: float) -> dict[str, float]:
    """Point-adjusted F1, unadjusted F1 and AUC over the covered timestamps."""
    indices, scores, predictions = pipeline.expand_to_timestamps(
        output[0], output[1], threshold)
    adjusted = metrics.evaluate_scores(labels[indices], scores, predictions=predictions)
    raw = metrics.evaluate_scores(labels[indices], scores, predictions=predictions,
                                  adjust=False)
    return {"f1_adj": adjusted.f1, "f1_raw": raw.f1, "auc": adjusted.auc}


def quality_check(workload: str):
    def check(quality):
        low = [f"{name} {quality[name]:.4f} < {floor - QUALITY_TOLERANCE[name]:.4f}"
               for name, floor in QUALITY_FLOOR[workload].items()
               if quality[name] < floor - QUALITY_TOLERANCE[name]]
        return "quality below floor: " + ", ".join(low) if low else None
    return check


def score_loop(ledger: Ledger, workload: str, inputs: Inputs, pipe, output,
               rng: np.random.Generator, seconds: float, measured: Measured) -> None:
    """Score in a closed loop with one caller, then evaluate ``output``.

    Each cycle makes one whole-test-stream call (batch use), then one call
    per 30-row window, every window once in an ``rng``-shuffled order (online
    use). Cycles repeat until ``seconds`` pass, at least MIN_CYCLES times. All
    scores are checked against ``output``, the pipeline's first test-stream
    scores.
    """
    reference = scores_of(output)
    start, cycles = clock(), 0
    while cycles < MIN_CYCLES or clock() - start < seconds:
        cycles += 1
        first = ledger.mark()
        _, batch = ledger.attempt(
            "score stream", pipeline.score_stream, pipe, inputs.test_values,
            check=score_check(TEST_SEGMENTS, reference))
        windows = []
        for k in rng.permutation(TEST_SEGMENTS):
            rows = inputs.test_values[k * WINDOW:(k + 1) * WINDOW]
            _, elapsed = ledger.attempt(
                "score window", pipeline.score_stream, pipe, rows,
                check=score_check(1, reference[k:k + 1], exact=False))
            windows.append(elapsed)
        # One correction per cycle: a window call is shorter than the
        # interval between probes.
        last = ledger.mark()
        measured.batch_s.append(ledger.corrected(batch, first, last))
        measured.window_s.extend(ledger.corrected(w, first, last) for w in windows)
    quality, _ = ledger.attempt("evaluate", evaluate, inputs.test_labels, output,
                                pipe.threshold, check=quality_check(workload))
    measured.quality = quality or {}


# -- train-full / train-raw ------------------------------------------------

def train_body(ledger: Ledger, workload: str, inputs: Inputs,
               rng: np.random.Generator, seconds: float, measured: Measured,
               trainings: int) -> None:
    """Train ``trainings`` times, each followed by scoring for its share of
    ``seconds``; every training must score like the first, bit for bit."""
    first = None
    for _ in range(trainings):
        mark = ledger.mark()
        pipe, elapsed = ledger.attempt(
            "train", pipeline.train_pipeline, inputs.config, inputs.topology,
            inputs.train_values, inputs.train_labels)
        measured.train_s.append(ledger.corrected(elapsed, mark, ledger.mark()))
        if pipe is None:
            return
        output, _ = ledger.attempt("score stream", pipeline.score_stream, pipe,
                                   inputs.test_values,
                                   check=score_check(TEST_SEGMENTS, first))
        if output is None:
            return
        if first is None:
            first = scores_of(output)
        score_loop(ledger, workload, inputs, pipe, output, rng,
                   seconds / trainings, measured)


# -- score-full --------------------------------------------------------------

@dataclass
class Scoring:
    inputs: Inputs
    pipe: object
    output: tuple


def fit_checkpoint(directory: str) -> None:
    """Child-process half of the score-full set-up.

    Generates the data, trains ``full`` with short epochs and saves the
    checkpoint; writes the in-memory pipeline's test-stream scores beside it,
    and the corrected seconds of the training and of all this work. Running
    it in a child keeps training out of the parent's peak RSS.
    """
    directory = Path(directory)
    speed = HostSpeed()
    speed.install()
    try:
        start, first = speed.net_clock(), speed.mark()
        inputs = load_inputs("full")
        train_start, train_first = speed.net_clock(), speed.mark()
        pipe = pipeline.train_pipeline(short_epochs(inputs.config), inputs.topology,
                                       inputs.train_values, inputs.train_labels)
        train_s = speed.corrected(speed.net_clock() - train_start, train_first,
                                  speed.mark())
        checkpoint.save_checkpoint(directory / "pipe.ckpt", pipe)
        scores = scores_of(pipeline.score_stream(pipe, inputs.test_values))
        work_s = speed.corrected(speed.net_clock() - start, first, speed.mark())
    finally:
        speed.uninstall()
    np.save(directory / "scores.npy", scores)
    (directory / "fit.json").write_text(json.dumps({"train_s": train_s,
                                                    "work_s": work_s}))


def _fit_in_child(directory: Path) -> dict[str, float]:
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(HERE), str(ROOT / "src"), str(directory)],
        capture_output=True, text=True, timeout=150)
    if child.returncode != 0:
        raise RuntimeError(f"fit child exited {child.returncode}: "
                           f"{child.stderr.strip().splitlines()[-1:]}")
    return json.loads((directory / "fit.json").read_text())


def score_setup(ledger: Ledger, workdir: Path, measured: Measured,
                first: np.ndarray | None = None) -> Scoring | None:
    """Fit and save in a child, load here, and check the round trip.

    ``first`` holds the test-stream scores of the run's first set-up, which
    every later fit must reproduce bit for bit. The set-up time is the
    child's work (not its interpreter start) plus the loading and checks
    here; the probes pause while the child runs on the other core.
    """
    with ledger.paused():
        fit, _ = ledger.attempt("fit", _fit_in_child, workdir)
    if fit is None:
        return None
    start, mark = ledger.now(), ledger.mark()
    inputs = load_inputs("full")
    fitted = np.load(workdir / "scores.npy")
    if first is not None and not np.array_equal(fitted, first):
        ledger.fail("fit: scores differ from the first set-up's fit")
    pipe, _ = ledger.attempt("load checkpoint", checkpoint.load_checkpoint,
                             workdir / "pipe.ckpt", inputs.topology)
    if pipe is None:
        return None
    output, _ = ledger.attempt("score stream", pipeline.score_stream, pipe,
                               inputs.test_values,
                               check=score_check(TEST_SEGMENTS, fitted))
    saved = (workdir / "pipe.ckpt").read_bytes()
    ledger.attempt("save checkpoint", checkpoint.save_checkpoint,
                   workdir / "resaved.ckpt", pipe,
                   check=lambda _: None if (workdir / "resaved.ckpt").read_bytes() == saved
                   else "re-saved checkpoint differs from the loaded one")
    measured.train_s.append(fit["train_s"])
    measured.setup_s.append(
        fit["work_s"] + ledger.corrected(ledger.now() - start, mark, ledger.mark()))
    if output is None:
        return None
    return Scoring(inputs, pipe, output)


# -- metrics -------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(measured: Measured) -> dict[str, tuple[float, str]]:
    windows = np.array(measured.window_s)
    test_rows = benchmark.benchmark_synthetic().length - TRAIN_ROWS
    out = {
        "setup_s": (statistics.median(measured.setup_s), "s"),
        "train_s": (statistics.median(measured.train_s), "s"),
        "score_p50_ms": (float(np.percentile(windows, 50)) * 1e3, "ms"),
        "score_p99_ms": (float(np.percentile(windows, 99)) * 1e3, "ms"),
        "score_rows_per_s": (test_rows / statistics.median(measured.batch_s), "rows/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for name in ("f1_adj", "f1_raw", "auc"):
        out[name] = (measured.quality[name], "ratio")
    return out


def per_layer(tracer: Tracer, overhead_s: float) -> dict[str, tuple[float, str]]:
    layers = tracer.layers()

    def total(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    stages = ("temporal.train", "vgae.train", "svdd.train")
    trained = sum(span.tensors_after - span.tensors_before
                  for span in tracer.spans if span.name in stages)
    steps = calls("autodiff.adam_step")
    return {
        "autodiff.tensors": (tracer.counts["autodiff.tensor"], "count"),
        "autodiff.tensors_per_epoch": (trained / steps if steps else 0.0, "count"),
        "autodiff.backward_calls": (calls("autodiff.backward"), "count"),
        "autodiff.backward_s": (total("autodiff.backward"), "s"),
        "autodiff.adam_step_s": (total("autodiff.adam_step"), "s"),
        "temporal.train_s": (total("temporal.train"), "s"),
        "temporal.encode_calls": (calls("temporal.encode"), "count"),
        "temporal.encode_s": (total("temporal.encode"), "s"),
        "vgae.train_s": (total("vgae.train"), "s"),
        "vgae.encode_calls": (calls("vgae.encode"), "count"),
        "vgae.encode_s": (total("vgae.encode"), "s"),
        "graphgen.weighted_graph_calls": (calls("graphgen.weighted_graph"), "count"),
        "graphgen.weighted_graph_s": (total("graphgen.weighted_graph"), "s"),
        "pipeline.segment_graphs_s": (total("pipeline.segment_graphs"), "s"),
        "pipeline.segment_features_s": (total("pipeline.segment_features"), "s"),
        "pipeline.score_stream_s": (total("pipeline.score_stream"), "s"),
        "svdd.train_s": (total("svdd.train"), "s"),
        "svdd.forward_calls": (tracer.counts["svdd.forward"], "count"),
        "svdd.calibrate_s": (total("svdd.calibrate"), "s"),
        "svdd.scores_s": (total("svdd.scores"), "s"),
        "data.normalize_s": (total("data.normalize"), "s"),
        "data.segment_s": (total("data.segment"), "s"),
        "data.segments": (tracer.units["data.segment"], "count"),
        "checkpoint.save_s": (total("checkpoint.save"), "s"),
        "checkpoint.load_s": (total("checkpoint.load"), "s"),
        "checkpoint.bytes": (tracer.units["checkpoint.save"], "bytes"),
        "metrics.evaluate_s": (total("metrics.evaluate"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


# -- one run -------------------------------------------------------------------

@dataclass
class Report:
    ledger: Ledger
    metrics: dict[str, tuple[float, str]]
    quality: dict[str, float]
    notes: list[str]
    tracer: Tracer | None = None


def _set_up(workload: str, ledger: Ledger, workdir: Path, measured: Measured,
            first: np.ndarray | None = None):
    """One set-up: the inputs (train-*) or a fitted, loaded pipeline (score-full).

    Appends its corrected time to ``measured.setup_s``.
    """
    if workload == "score-full":
        return score_setup(ledger, workdir, measured, first)
    start, mark = ledger.now(), ledger.mark()
    inputs = load_inputs(workload.removeprefix("train-"))
    measured.setup_s.append(ledger.corrected(ledger.now() - start, mark, ledger.mark()))
    return inputs


def _body(workload: str, ledger: Ledger, state, rng: np.random.Generator,
          seconds: float, measured: Measured, trainings: int) -> None:
    """Score a set-up pipeline (score-full) or train, then score (train-*)."""
    if workload == "score-full":
        score_loop(ledger, workload, state.inputs, state.pipe, state.output, rng,
                   seconds, measured)
    else:
        train_body(ledger, workload, state, rng, seconds, measured, trainings)


def _timed(workload: str, ledger: Ledger, workdir: Path, seed: int,
           seconds: float) -> Measured:
    """A timed run's set-ups, trainings and scoring loops.

    train-* sets up at least SETUP_REPEATS times and SETUP_SECONDS, trains
    TRAININGS times, each training followed by its share of the scoring
    time, and then sets up as often again, so the set-up samples span the
    run. score-full sets up SETUP_REPEATS times, each set-up followed by its
    share, so its scoring samples spread over the whole run too.
    """
    measured = Measured()
    rng = np.random.default_rng(seed)
    if workload in TRAININGS:
        def set_up_until(repeats: int, seconds_total: float) -> Inputs | None:
            inputs = None
            while (len(measured.setup_s) < repeats
                   or sum(measured.setup_s) < seconds_total):
                inputs = _set_up(workload, ledger, workdir, measured)
            return inputs

        inputs = set_up_until(SETUP_REPEATS, SETUP_SECONDS)
        train_body(ledger, workload, inputs, rng, seconds, measured,
                   TRAININGS[workload])
        set_up_until(2 * SETUP_REPEATS, 2 * SETUP_SECONDS)
        return measured
    first = None
    for _ in range(SETUP_REPEATS):
        scoring = _set_up(workload, ledger, workdir, measured, first)
        if scoring is None:
            break
        first = scores_of(scoring.output)
        score_loop(ledger, workload, scoring.inputs, scoring.pipe, scoring.output,
                   rng, seconds / SETUP_REPEATS, measured)
    return measured


def run(workload: str, seed: int, seconds: int, trace: bool) -> Report:
    """One run: timed (end-to-end metrics) or traced (per-layer metrics).

    A traced run sets up once and does the least work a timed run does (one
    training, MIN_CYCLES scoring cycles), so its counts do not depend on the
    machine's speed.
    """
    started = clock()
    ledger = Ledger()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workdir = Path(workdir)
        if not trace:
            ledger.speed = HostSpeed()
            ledger.speed.install()
            try:
                measured = _timed(workload, ledger, workdir, seed, seconds)
            finally:
                ledger.speed.uninstall()
            complete = measured.quality and measured.window_s
            notes = [f"samples: {len(measured.setup_s)} set-ups, "
                     f"{len(measured.train_s)} trainings, "
                     f"{len(measured.batch_s)} whole-stream calls, "
                     f"{len(measured.window_s)} window calls"]
            probes = ledger.speed.mark()
            if probes:
                notes.append(f"host speed: {probes} probes, median "
                             f"{np.median(ledger.speed.durations) * 1e6:.1f} us, "
                             f"run factor {ledger.speed.factor(0, probes):.3f}")
            if complete:
                notes.append("corrected window call ms at p1/p50/p90/p99: " + " / ".join(
                    f"{np.percentile(measured.window_s, q) * 1e3:.4f}"
                    for q in (1, 50, 90, 99)))
                notes.append("corrected whole-stream call ms at p10/p50/p90: " + " / ".join(
                    f"{np.percentile(measured.batch_s, q) * 1e3:.2f}"
                    for q in (10, 50, 90)))
            return Report(ledger, end_to_end(measured) if complete else {},
                          measured.quality, notes)

        measured = Measured()
        tracer = Tracer()
        tracer.install()
        try:
            state = _set_up(workload, ledger, workdir, measured)
            start = clock()
            if state is not None:
                _body(workload, ledger, state, np.random.default_rng(seed), 0,
                      measured, 1)
            traced_s = clock() - start
        finally:
            tracer.uninstall()
        estimate = estimate_overhead(tracer)
        if state is not None and clock() - started + traced_s < REPLAY_BUDGET_S:
            start = clock()
            _body(workload, ledger, state, np.random.default_rng(seed), 0, Measured(), 1)
            overhead, method = traced_s - (clock() - start), "traced minus untraced replay"
        else:
            overhead, method = estimate, "calibrated wrapper cost"
        notes = [f"trace.overhead_s: {overhead:.4f} s by {method}; "
                 f"calibrated wrapper cost {estimate:.4f} s"]
        if tracer.absent:
            notes.append("entry points not found: " + ", ".join(tracer.absent))
        return Report(ledger, per_layer(tracer, overhead), measured.quality, notes, tracer)
