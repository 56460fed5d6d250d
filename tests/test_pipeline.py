import json
import re

import numpy as np
import pytest

from cpsdetect import (autodiff, benchmark, checkpoint, data, pipeline, svdd,
                       temporal, vgae)
from cpsdetect.config import PipelineConfig
from cpsdetect.errors import DataError, NumericError
from cpsdetect.temporal import TemporalEncoder

from conftest import STAGE_MAPS, traced_peak
from tiny import tiny_config, tiny_data


def raw_pipeline(threshold: float) -> pipeline.TrainedPipeline:
    """Two sensors, 3-row windows, no learned stage before the detector."""
    topology = data.parse_topology("sensor A x\nsensor B y\nedge A B\n")
    config = PipelineConfig()
    config.window.length = config.window.stride = 3
    config.temporal.enabled = config.vgae.enabled = False
    net = svdd.SvddNet(6, (4, 2), 0.1, np.random.default_rng(0))
    net.init_center(np.zeros((1, 6)))
    net.trained = True
    identity = data.Normalizer(np.zeros(2), np.ones(2))
    return pipeline.TrainedPipeline(config, topology, identity, None, None,
                                    net, threshold)


def window_row(values: np.ndarray, k: int) -> np.ndarray:
    """The detector input of the k-th 3-row window: sensor-major, flattened."""
    return values[3 * k:3 * k + 3].T.reshape(1, -1)


class TestScoreStream:
    def test_below_threshold(self):
        pipe = raw_pipeline(threshold=0.5)
        values = np.random.default_rng(32).normal(size=(6, 2))
        pipe.svdd.center = pipe.svdd.forward(window_row(values, 0))[0]
        segments, results = pipeline.score_stream(pipe, values)
        assert segments.starts.tolist() == [0, 3]
        assert results[0].score == pytest.approx(0.0)
        assert results[0].predicted == 0
        assert [r.segment_index for r in results] == [0, 1]

    def test_boundary_is_strict(self):
        values = np.random.default_rng(33).normal(size=(3, 2))
        score = raw_pipeline(0.0).svdd.scores(window_row(values, 0))[0]
        _, results = pipeline.score_stream(raw_pipeline(score), values)
        assert results[0].score == score and results[0].predicted == 0
        _, results = pipeline.score_stream(raw_pipeline(score - 1e-9), values)
        assert results[0].predicted == 1

    def test_short_stream_yields_nothing(self):
        segments, results = pipeline.score_stream(raw_pipeline(1.0), np.zeros((2, 2)))
        assert len(segments) == 0 and results == []
        assert segments.length == 3
        assert [len(a) for a in pipeline.expand_to_timestamps(
            segments, results, 1.0)] == [0, 0, 0]


class TestEmbedOnce:
    """Training embeds each normal segment once and builds its graph once."""

    def _train_counting(self, monkeypatch, variant):
        counts = {"encode calls": 0, "segments embedded": 0, "graphs": 0}
        encode, graph = TemporalEncoder.encode, pipeline.weighted_graph

        def counted_encode(self, windows, tape=None):
            counts["encode calls"] += 1
            counts["segments embedded"] += windows.shape[0]
            return encode(self, windows, tape)

        def counted_graph(topology, attributes, *args, **kwargs):
            counts["graphs"] += attributes.shape[0]
            return graph(topology, attributes, *args, **kwargs)

        monkeypatch.setattr(TemporalEncoder, "encode", counted_encode)
        monkeypatch.setattr(pipeline, "weighted_graph", counted_graph)
        config = tiny_config(variant)
        topology, values, labels, _ = tiny_data(config)
        pipe = pipeline.train_pipeline(config, topology, values, labels)
        # All 30 training windows are normal; 29 have a full successor.
        # Each of the 2 temporal epochs embeds the 29 as one stack, and the
        # feature pass embeds the 30 once more.
        return counts, pipe

    def test_full(self, monkeypatch):
        counts, pipe = self._train_counting(monkeypatch, "full")
        assert counts == {"encode calls": 3, "segments embedded": 2 * 29 + 30,
                          "graphs": 30}
        assert len(pipe.record["vgae"]["loss"]) == 2

    def test_no_graph_without_the_autoencoder(self, monkeypatch):
        counts, pipe = self._train_counting(monkeypatch, "temporal-only")
        assert counts == {"encode calls": 3, "segments embedded": 2 * 29 + 30,
                          "graphs": 0}
        assert pipe.vgae is None


# Test ids per variant. Every variant's detector input is its embeddings
# flattened node-major, and the ids name that layout.
FLATTENED = [f"{variant}-flatten" for variant in benchmark.VARIANTS]


def _tiny_pipeline(variant):
    config = tiny_config(variant)
    topology, values, labels, test = tiny_data(config)
    return pipeline.train_pipeline(config, topology, values, labels), test


def scoring_cases(ids):
    """Each variant, under ``ids``, scored at the tiny pipelines' stride of
    10 rows, whose windows tile the stream, then at a stride of 3 rows,
    whose windows overlap."""
    return [pytest.param(variant, stride, id=name + suffix)
            for stride, suffix in ((10, ""), (3, "-overlapping"))
            for variant, name in zip(benchmark.VARIANTS, ids)]


@pytest.mark.parametrize("variant, stride", scoring_cases(FLATTENED))
def test_whole_stream_scores_equal_per_window_scores(variant, stride):
    pipe, test = _tiny_pipeline(variant)
    pipe.config.window.stride = stride
    segments, results = pipeline.score_stream(pipe, test)
    assert len(segments) == (len(test) - 10) // stride + 1
    for start, end, result in zip(segments.starts, segments.ends, results):
        _, (alone,) = pipeline.score_stream(pipe, test[start:end])
        assert alone.score == pytest.approx(result.score, rel=1e-9, abs=0.0)
        assert alone.predicted == result.predicted


@pytest.mark.parametrize("variant", benchmark.VARIANTS, ids=FLATTENED)
def test_training_starts_from_the_built_stages(tmp_path, variant):
    # With no epochs, training leaves every stage as build_stages drew it,
    # rounded to the fits' float32 and stored as float64.
    config = tiny_config(variant)
    config.temporal.epochs = config.vgae.epochs = config.svdd.epochs = 0
    topology, values, labels, _ = tiny_data(config)
    pipe = pipeline.train_pipeline(config, topology, values, labels)
    built = pipeline.build_stages(
        config, topology, np.random.SeedSequence(config.run.seed).spawn(4))
    trained = (pipe.temporal, pipe.vgae, pipe.svdd)
    assert [stage is None for stage in built] == [stage is None for stage in trained]
    path = tmp_path / "model.ckpt"
    checkpoint.save_checkpoint(path, pipe)
    blocks = checkpoint._read_blocks(path)
    compared = []
    for prefix, fresh, kept in zip(("temporal", "vgae", "svdd"), built, trained):
        if fresh is None:
            continue
        for (name, drawn), (kept_name, param) in zip(
                fresh.named_parameters(), kept.named_parameters(), strict=True):
            assert kept_name == name
            assert drawn.value.shape == blocks[f"{prefix}/{name}"].shape
            rounded = drawn.value.astype(pipeline.FIT_DTYPE).astype(np.float64)
            assert rounded.tobytes() == param.value.tobytes()
            compared.append(f"{prefix}/{name}")
    assert compared == [name for name, _ in checkpoint._arrays(pipe)
                        if name.split("/")[0] in ("temporal", "vgae", "svdd")]
    assert blocks["detector/center"].shape == (built[-1].widths[-1],)


@pytest.mark.parametrize("variant", benchmark.VARIANTS)
def test_every_fit_returns_one_gradient_per_parameter(monkeypatch, variant):
    # Every parameter and gradient of every epoch is float32: a stray
    # float64 operand would keep the quality and lose the speed. The trained
    # pipeline holds float64 values that the fits' float32 round trips keep,
    # apart from the normalizer's statistics, which are fitted in float64.
    config = tiny_config(variant)
    topology, values, labels, _ = tiny_data(config)
    fit, returned = autodiff.fit, {}

    def spied_fit(named_params, loss_fn, *args, **kwargs):
        named_params = list(named_params)

        def spied_loss():
            loss, grads = loss_fn()
            params = [p.value for _, p in named_params]
            returned.setdefault(kwargs["tag"], []).append(
                [g.shape for g in grads] == [p.shape for p in params]
                and all(a.dtype == pipeline.FIT_DTYPE for a in grads + params))
            return loss, grads
        return fit(named_params, spied_loss, *args, **kwargs)

    monkeypatch.setattr(autodiff, "fit", spied_fit)
    # 7-window parts: every pass that walks parts meets several.
    monkeypatch.setattr(autodiff, "CHUNK", 7)
    pipe = pipeline.train_pipeline(config, topology, values, labels)
    fitted = {"svdd"} | {tag for tag, stage in (("temporal", config.temporal),
                                                 ("vgae", config.vgae)) if stage.enabled}
    assert set(returned) == fitted
    assert all(all(epochs) for epochs in returned.values())
    for name, array in checkpoint._arrays(pipe):
        assert array.dtype == np.float64, name
        if not name.startswith("normalizer/"):
            rounded = array.astype(pipeline.FIT_DTYPE).astype(np.float64)
            assert rounded.tobytes() == array.tobytes(), name


@pytest.mark.parametrize("variant", benchmark.VARIANTS)
def test_chunked_training_stores_the_whole_stack_bits(monkeypatch, variant):
    # The tiny pipelines train on 20-odd windows: 7-window parts split every
    # stack-shaped fit into several.
    stored = []
    for chunk in (10**6, 7):
        monkeypatch.setattr(autodiff, "CHUNK", chunk)
        pipe, _ = _tiny_pipeline(variant)
        stored.append([(name, np.asarray(array).tobytes())
                       for name, array in checkpoint._arrays(pipe)])
    assert stored[0] == stored[1]


@pytest.mark.parametrize("variant, stride", scoring_cases(benchmark.VARIANTS))
def test_chunked_scoring_gives_the_whole_stack_bits(monkeypatch, variant, stride):
    # The tiny test stream has 10 windows at stride 10 and 31 at stride 3:
    # 7-window parts split it in two or five.
    pipe, test = _tiny_pipeline(variant)
    pipe.config.window.stride = stride
    scored = []
    for chunk in (10**6, 7):
        monkeypatch.setattr(autodiff, "CHUNK", chunk)
        _, results = pipeline.score_stream(pipe, test)
        scored.append(np.array([r.score for r in results]).tobytes())
    assert scored[0] == scored[1]


def test_feature_working_set_stays_flat_in_the_stack_length(monkeypatch):
    # The traced peak of a feature pass above its output, for 4x and 16x
    # the benchmark's 266 test windows at the default sizes, gathered from
    # one stream: about 1.33 MB both times (numpy 2.4.6, Python 3.11), one
    # 64-window part's windows, embeddings, graphs and encodings. One
    # whole-stack pass grows 4x with the stack.
    monkeypatch.setattr(autodiff, "CHUNK", 64)
    config = benchmark.benchmark_config()
    topology, _, _ = benchmark.benchmark_data()
    temporal, vgae, _ = pipeline.build_stages(
        config, topology, np.random.SeedSequence(0).spawn(4))
    length = config.window.length
    values = np.random.default_rng(40).normal(size=(16 * 266 * length, topology.n))
    working = []
    for count in (4 * 266, 16 * 266):
        features, peak = traced_peak(pipeline.segment_features, config, topology,
                                     temporal, vgae, values, np.arange(count) * length)
        assert features.shape == (count, topology.n * config.vgae.embed_dim)
        working.append(peak - features.nbytes)
    assert working[1] < 1.2 * working[0], working


def test_scoring_holds_the_stream_features_and_scores():
    # The benchmark's test stream tiled 4x through the benchmark stages
    # (untrained; the shapes set the working set): a traced peak of 1.83x
    # the stream's bytes (numpy 2.4.6, Python 3.11), the normalized stream,
    # the features and one part's windows and graphs. Scoring that also
    # builds a stack of every window reads 3.00x.
    config = benchmark.benchmark_config()
    topology, values, _ = benchmark.benchmark_data()
    temporal, vgae, net = pipeline.build_stages(
        config, topology, np.random.SeedSequence(0).spawn(4))
    net.init_center(np.zeros((1, net.weights[0].value.shape[0])))
    net.trained = True
    normalizer = data.fit_normalizer(values[:benchmark.TRAIN_ROWS])
    pipe = pipeline.TrainedPipeline(config, topology, normalizer, temporal, vgae,
                                    net, 1.0)
    test = np.tile(values[benchmark.TRAIN_ROWS:], (4, 1))
    pipeline.score_stream(pipe, test[:config.window.length])
    (segments, _), peak = traced_peak(pipeline.score_stream, pipe, test)
    assert len(segments) == len(test) // config.window.length
    assert peak <= 2.2 * test.nbytes, peak / test.nbytes


def test_training_drops_each_stack_after_its_last_reader():
    # The benchmark's training rows tiled twice, one epoch per stage: a
    # traced peak of 2.74x the stream's bytes (numpy 2.4.6, Python 3.11),
    # the z-scored stream and the VGAE's parts as the last one is built.
    # A training that also keeps a reconstruction target per graph reads
    # 3.13x; one that builds the window stack, the normal windows, the
    # prediction pairs and a whole graph stack 4.04x, and one that also
    # holds the z-scored stream, the window stack and the normal windows
    # through every fit 6.93x.
    config = benchmark.benchmark_config()
    config.temporal.epochs = config.vgae.epochs = config.svdd.epochs = 1
    topology, values, labels = benchmark.benchmark_data()
    values = np.tile(values[:benchmark.TRAIN_ROWS], (2, 1))
    labels = np.tile(labels[:benchmark.TRAIN_ROWS], 2)
    _, peak = traced_peak(pipeline.train_pipeline, config, topology, values, labels)
    assert peak <= 2.85 * values.nbytes, peak / values.nbytes


@pytest.fixture(scope="module")
def tiny_full():
    return _tiny_pipeline("full")


def _enter(caller, pipe, values):
    """Hand a stream to training, with as many normal labels, or to scoring."""
    if caller == "train":
        pipeline.train_pipeline(pipe.config, pipe.topology, values,
                                np.zeros(len(values), dtype=np.int64))
    else:
        pipeline.score_stream(pipe, values)


@pytest.mark.parametrize("caller", ["train", "score"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_cell_is_a_data_error_naming_it(tiny_full, caller, bad):
    pipe, test = tiny_full
    test = test.copy()
    test[13, 2] = bad
    name = pipe.topology.names[2]
    with pytest.raises(DataError,
                       match=f"^non-finite value at row 13, column '{name}'$"):
        _enter(caller, pipe, test)


@pytest.mark.parametrize("caller", ["train", "score"])
@pytest.mark.parametrize("shape, message", [
    ((100,), r"must be 2-D \(rows x sensors\), got shape \(100,\)"),
    ((1, 100, 4), r"must be 2-D \(rows x sensors\), got shape \(1, 100, 4\)"),
    ((100, 3), "has 3 columns, topology has 4 sensors"),
], ids=["1-D", "3-D", "columns"])
def test_a_stream_not_rows_by_sensors_is_a_data_error(tiny_full, caller, shape,
                                                      message):
    pipe, test = tiny_full
    with pytest.raises(DataError, match=f"^stream {message}$"):
        _enter(caller, pipe, np.resize(test, shape))


@pytest.mark.parametrize("caller", ["train", "score"])
def test_a_stream_given_as_a_list_is_read_as_its_array(tiny_full, caller):
    pipe, test = tiny_full
    if caller == "train":
        config = tiny_config("full")
        topology, values, labels, _ = tiny_data(config)
        stored = [[array.tobytes() for _, array in checkpoint._arrays(
            pipeline.train_pipeline(config, topology, stream, labels))]
            for stream in (values, values.tolist())]
    else:
        stored = [[r.score for r in pipeline.score_stream(pipe, stream)[1]]
                  for stream in (test, test.tolist())]
    assert stored[0] == stored[1]


@pytest.mark.parametrize("caller", ["train", "score"])
def test_a_stream_of_text_is_a_data_error(tiny_full, caller):
    pipe, test = tiny_full
    text = test.astype(str)
    text[13, 2] = "abc"
    with pytest.raises(DataError, match="^stream is not an array of numbers: "
                                        "could not convert string to float: .*'abc'"):
        _enter(caller, pipe, text)


@pytest.mark.parametrize("offset", [-1, 1])
def test_training_labels_must_match_the_stream(offset):
    config = tiny_config("full")
    topology, values, labels, _ = tiny_data(config)
    count = len(values) + offset
    with pytest.raises(DataError,
                       match=f"^{count} labels for a stream of {len(values)} rows$"):
        pipeline.train_pipeline(config, topology, values, np.resize(labels, count))


def _with_one(labels: np.ndarray, value) -> np.ndarray:
    labels = labels.astype(float)
    labels[7] = value
    return labels


@pytest.mark.parametrize("bad, message", [
    (lambda labels: labels[:, None], "must be 1-D"),
    (lambda labels: _with_one(labels, np.nan), "must contain only 0 and 1"),
    (lambda labels: _with_one(labels, 2), "must contain only 0 and 1"),
    (lambda labels: _with_one(labels, 0.5), "must contain only 0 and 1"),
    (lambda labels: _with_one(labels, -1), "must contain only 0 and 1"),
    (lambda labels: _with_one(labels, 2).tolist(), "must contain only 0 and 1"),
], ids=["2-D", "nan", "2", "0.5", "-1", "list"])
def test_training_labels_are_checked_where_they_enter(bad, message):
    config = tiny_config("full")
    topology, values, labels, _ = tiny_data(config)
    with pytest.raises(DataError, match=f"^labels {message}"):
        pipeline.train_pipeline(config, topology, values, bad(labels))


def test_the_record_holds_the_losses_each_fit_returned(monkeypatch):
    returned = []
    fit = autodiff.fit

    def spy(*args, **kwargs):
        returned.append(fit(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(autodiff, "fit", spy)
    config = tiny_config("full")
    topology, values, labels, _ = tiny_data(config)
    record = pipeline.train_pipeline(config, topology, values, labels).record
    assert list(record) == ["data", "temporal", "vgae", "svdd"]
    assert [record[stage]["loss"] for stage in ("temporal", "vgae", "svdd")] == returned
    # Every value is a plain int, float or list, and each float round-trips.
    assert json.loads(json.dumps(record)) == record
    leaves = [v for entry in record.values() for v in entry.values()]
    assert all(type(v) in (int, float, list) for v in leaves)
    assert all(type(x) is float for v in leaves if type(v) is list for x in v)


def test_the_vgae_target_keeps_the_edges_a_window_weights_zero(monkeypatch):
    # Every sensor of type 0 is constant, so without the temporal encoder
    # its z-scored attributes are all zero in every window, and weighting
    # gives each edge between the two types weight 0. The fit's one target,
    # built once, still holds those edges; the encoder's propagation drops
    # them.
    config = tiny_config("no-temporal")
    topology, values, labels, _ = tiny_data(config)
    values = values.copy()
    values[:, topology.type_of == 0] = 1.0
    across = topology.adjacency.astype(bool) & (
        topology.type_of[:, None] != topology.type_of[None, :])
    assert across.any()
    received, built = [], []
    train_vgae, reconstruction_target = pipeline.train_vgae, pipeline.reconstruction_target

    def spy(encoder, parts, target, *args):
        received.append((parts, target))
        return train_vgae(encoder, parts, target, *args)

    def counted(adjacency):
        built.append(adjacency.shape)
        return reconstruction_target(adjacency)

    monkeypatch.setattr(pipeline, "train_vgae", spy)
    monkeypatch.setattr(pipeline, "reconstruction_target", counted)
    with pytest.warns(RuntimeWarning, match="zero-norm"):
        pipeline.train_pipeline(config, topology, values, labels)
    ((parts, target),) = received
    assert built == [topology.adjacency.shape]
    np.testing.assert_array_equal(
        target, vgae.reconstruction_target(topology.adjacency))
    assert all((norm[:, across] == 0.0).all() for norm, _ in parts)


def test_scoring_runs_every_stage_with_the_numeric_traps_on(trapped_calls):
    pipe, test = _tiny_pipeline("full")
    trapped_calls.clear()
    pipeline.score_stream(pipe, test)
    assert {name for name, _ in trapped_calls} == set(STAGE_MAPS)
    assert all(trapped for _, trapped in trapped_calls)


@pytest.mark.parametrize("variant", benchmark.VARIANTS)
def test_training_runs_every_stage_with_the_numeric_traps_on(trapped_calls, variant):
    config = tiny_config(variant)
    _tiny_pipeline(variant)
    # Graphs are built only for the VGAE.
    expected = {"SvddNet.forward"}
    if config.temporal.enabled:
        expected.add("TemporalEncoder.encode")
    if config.vgae.enabled:
        expected |= {"weighted_graph", "VgaeEncoder.encode"}
    assert {name for name, _ in trapped_calls} == expected
    assert all(trapped for _, trapped in trapped_calls)


def _overflow(*args, **kwargs):
    return np.exp(np.array([1e4]))


# (where, step, label): an overflow in the step fails under the label.
STEP_LABELS = [
    (pipeline, "fit_normalizer", "[data] normalizer"),
    (pipeline, "build_stages", "[train]"),
    (pipeline, "segment_graphs", "[temporal] after training"),
    (pipeline, "train_vgae", "[vgae]"),
    (svdd.SvddNet, "init_center", "[svdd]"),
    (pipeline, "calibrate_threshold", "[svdd] after training"),
]


@pytest.mark.parametrize("where, step, label", STEP_LABELS,
                         ids=[step for _, step, _ in STEP_LABELS])
def test_an_overflow_fails_under_its_stage(monkeypatch, where, step, label):
    config = tiny_config("full")
    topology, values, labels, _ = tiny_data(config)
    monkeypatch.setattr(where, step, _overflow)
    with pytest.raises(NumericError,
                       match=f"^{re.escape(label)}: overflow encountered in exp$"):
        pipeline.train_pipeline(config, topology, values, labels)


def test_an_overflow_in_scoring_fails_under_score(monkeypatch):
    pipe, test = _tiny_pipeline("full")
    monkeypatch.setattr(pipeline, "segment_features", _overflow)
    with pytest.raises(NumericError, match=r"^\[score\]: overflow encountered in exp$"):
        pipeline.score_stream(pipe, test)


def test_prediction_pairs_skip_dirty_successors():
    # 30 windows of 10 rows; rows 105-107 make window 10 anomalous. Of the
    # 29 normal windows, 29 has no successor and 9's successor is window 10.
    config = tiny_config("temporal-only")
    topology, values, labels, _ = tiny_data(config)
    labels = labels.copy()
    labels[105:108] = 1
    pipe = pipeline.train_pipeline(config, topology, values, labels)
    assert pipe.record["temporal"]["samples"] == 27


def test_prediction_pairs_are_a_window_and_the_rows_after_it(monkeypatch):
    # 6-row windows every 4 rows over 120 rows; rows 50-51 make the window
    # at 48 anomalous and the successors of 40 and 44 (rows 46..51 and
    # 50..55) dirty. Windows after 108 have no 6 rows after them.
    config = tiny_config("temporal-only")
    config.window.length, config.window.stride = 6, 4
    config.temporal.epochs = 1
    topology, values, labels, _ = tiny_data(config)
    values, labels = values[:120], labels[:120].copy()
    labels[50:52] = 1
    seen = []
    loss = temporal.loss_and_gradients

    def spy(encoder, windows, successors, count, grads):
        seen.append((windows, successors))
        return loss(encoder, windows, successors, count, grads)

    monkeypatch.setattr(temporal, "loss_and_gradients", spy)
    monkeypatch.setattr(autodiff, "CHUNK", 7)
    pipe = pipeline.train_pipeline(config, topology, values, labels)
    # The fits read the z-scored stream cast to float32 once.
    values = data.apply_normalizer(pipe.normalizer, values).astype(pipeline.FIT_DTYPE)
    starts = [s for s in range(0, 120 - 12 + 1, 4) if s not in (40, 44, 48)]
    # The 25 pairs come in parts of 7, 7, 7 and 4.
    assert [len(windows) for windows, _ in seen] == [7, 7, 7, 4]
    windows, successors = (np.concatenate(stacks) for stacks in zip(*seen))
    np.testing.assert_array_equal(windows, np.array([values[s:s + 6].T for s in starts]),
                                  strict=True)
    np.testing.assert_array_equal(successors,
                                  np.array([values[s + 6:s + 12].T for s in starts]),
                                  strict=True)


def test_timestamp_scores_are_the_max_over_covering_windows():
    # Windows of 5 rows every 2 rows over 12 rows: most rows lie in two or
    # three windows, and row 11 in none.
    segments = data.segment_stream(np.zeros((12, 1)), 5, 2)
    scores = [0.3, 0.9, 0.1, 0.5]
    results = [svdd.DetectionResult(i, s, 0.4, int(s > 0.4))
               for i, s in enumerate(scores)]
    indices, ts_scores, predictions = pipeline.expand_to_timestamps(
        segments, results, 0.4)
    expected = [max(s for start, s in zip((0, 2, 4, 6), scores)
                    if start <= t < start + 5) for t in range(11)]
    assert indices.tolist() == list(range(11))
    assert ts_scores.tolist() == expected
    assert predictions.tolist() == [int(s > 0.4) for s in expected]
