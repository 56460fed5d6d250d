import numpy as np
import pytest

from cpsdetect import data, pipeline, svdd
from cpsdetect.autodiff import Tensor
from cpsdetect.config import PipelineConfig
from cpsdetect.temporal import TemporalEncoder

from tiny import tiny_config, tiny_data


def raw_pipeline(threshold: float) -> pipeline.TrainedPipeline:
    """Two sensors, 3-row windows, no learned stage before the detector."""
    topology = data.parse_topology("sensor A x\nsensor B y\nedge A B\n")
    config = PipelineConfig()
    config.window.length = config.window.stride = 3
    config.temporal.enabled = config.vgae.enabled = False
    config.run.normalize = False
    net = svdd.SvddNet(6, (4, 2), 0.1, np.random.default_rng(0))
    net.init_center(np.zeros((1, 6)))
    net.trained = True
    return pipeline.TrainedPipeline(config, topology, None, None, None, net,
                                    threshold)


def window_row(values: np.ndarray, k: int) -> np.ndarray:
    """The detector input of the k-th 3-row window: sensor-major, flattened."""
    return values[3 * k:3 * k + 3].T.reshape(1, -1)


class TestScoreStream:
    def test_below_threshold(self):
        pipe = raw_pipeline(threshold=0.5)
        values = np.random.default_rng(32).normal(size=(6, 2))
        pipe.svdd.center = pipe.svdd.forward(Tensor(window_row(values, 0))).value[0]
        segments, results = pipeline.score_stream(pipe, values)
        assert [s.start for s in segments] == [0, 3]
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
        assert pipeline.score_stream(raw_pipeline(1.0), np.zeros((2, 2))) == ([], [])


class TestEmbedOnce:
    """Training embeds each normal segment once and builds its graph once."""

    def _train_counting(self, monkeypatch, variant):
        calls = {"encode": 0, "graph": 0}
        encode, graph = TemporalEncoder.encode, pipeline.weighted_graph

        def counted_encode(self, t):
            calls["encode"] += 1
            return encode(self, t)

        def counted_graph(*args, **kwargs):
            calls["graph"] += 1
            return graph(*args, **kwargs)

        monkeypatch.setattr(TemporalEncoder, "encode", counted_encode)
        monkeypatch.setattr(pipeline, "weighted_graph", counted_graph)
        config = tiny_config(variant)
        topology, values, labels, _ = tiny_data(config)
        pipe = pipeline.train_pipeline(config, topology, values, labels)
        # All 30 training windows are normal; 29 have a full successor.
        return calls, pipe

    def test_full(self, monkeypatch):
        calls, pipe = self._train_counting(monkeypatch, "full")
        assert calls == {"encode": 2 * 29 + 30, "graph": 30}
        assert len(pipe.traces["vgae"]) == 2

    def test_no_graph_without_the_autoencoder(self, monkeypatch):
        calls, pipe = self._train_counting(monkeypatch, "temporal-only")
        assert calls == {"encode": 2 * 29 + 30, "graph": 0}
        assert pipe.vgae is None

