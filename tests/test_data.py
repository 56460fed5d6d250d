import os
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cpsdetect import benchmark, data, pipeline
from cpsdetect.config import AnomalyWindow, SyntheticConfig
from cpsdetect.errors import ConfigError, DataError

from conftest import traced_peak
from oracles import reference_ar1, reference_synthetic, reference_topology
from tiny import tiny_config, tiny_data

PATH_TOPOLOGY = """\
sensor A flow
sensor B flow
sensor C level
edge A B
edge B C
"""

# The ``stream:`` line of ``scripts/checkpoint_digests.py``: the digest of
# the pinned benchmark stream's values, labels and adjacency.
BENCHMARK_STREAM = "6886e30e027dc6a63349a3d3593274203ce54105bf3ac73bd905bf4652b886cc"

# The event settings of ``inject_anomalies``, as the generator's config
# gives them.
EVENTS = {name: getattr(SyntheticConfig(), name)
          for name in ("drift_delay", "cascade_lag", "cascade_attenuation")}


@pytest.fixture
def path_topology():
    return data.parse_topology(PATH_TOPOLOGY)


class TestTopology:
    def test_parse_round_trip(self, path_topology):
        text = data.format_topology(path_topology)
        again = data.parse_topology(text)
        assert again.names == path_topology.names
        np.testing.assert_array_equal(again.adjacency, path_topology.adjacency)
        np.testing.assert_array_equal(again.type_of, path_topology.type_of)

    def test_parse_shapes(self, path_topology):
        assert path_topology.n == 3
        assert path_topology.type_count == 2
        np.testing.assert_array_equal(
            path_topology.adjacency, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_unknown_edge_name(self):
        with pytest.raises(DataError, match="unknown sensor"):
            data.parse_topology("sensor A x\nsensor B x\nedge A Z\n")

    def test_self_edge_rejected(self):
        with pytest.raises(DataError, match="^self edge on 'B' is not allowed$"):
            data.parse_topology("sensor A x\nsensor B x\nedge A B\nedge B B\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(DataError, match="line 1"):
            data.parse_topology("nonsense here\n")

    def test_hop_distances(self, path_topology):
        np.testing.assert_array_equal(path_topology.hop_distances(0), [0, 1, 2])

    # Each defect of a path A - B - C of types (0, 1, 0), made on a copy of
    # its names, adjacency and type indices.
    @pytest.mark.parametrize("defect, message", [
        (lambda n, a, t: ([], a[:0, :0], t[:0]), "topology defines no sensors"),
        (lambda n, a, t: (["A", "B", "A"], a, t), "duplicate sensor 'A'"),
        (lambda n, a, t: (n, np.zeros((3, 2), np.int64), t),
         "adjacency shape (3, 2) does not match 3 sensors"),
        (lambda n, a, t: (n, a * 2, t), "adjacency entries must be 0 or 1"),
        (lambda n, a, t: (n, a + np.triu(1 - a, 1), t), "adjacency must be symmetric"),
        (lambda n, a, t: (n, a + np.diag([0, 1, 1]), t),
         "self edge on 'B' is not allowed"),
        (lambda n, a, t: (n, a, t[:2]), "every sensor needs exactly one type"),
        (lambda n, a, t: (n, a, np.zeros_like(t)),
         "type indices used [0] do not cover 0..1"),
    ], ids=["no-sensors", "duplicate-name", "shape", "entry-2", "asymmetric",
            "self-loop", "short-types", "uncovered-types"])
    def test_an_invalid_topology_cannot_be_built(self, path_topology, defect, message):
        names, adjacency, type_of = defect(list(path_topology.names),
                                           path_topology.adjacency.copy(),
                                           path_topology.type_of.copy())
        with pytest.raises(DataError, match=re.escape(message)):
            data.SensorTopology(names, adjacency, type_of, path_topology.type_names)


class TestCsv:
    def test_three_row_hand_csv(self, tmp_path, path_topology):
        f = tmp_path / "d.csv"
        f.write_text("timestamp,A,B,C,label\n0,1,2,3,0\n1,4,5,6,1\n2,7,8,9,0\n")
        values, labels = data.load_csv(f, path_topology)
        assert len(values) == len(labels) == 3
        assert labels.sum() == 1
        np.testing.assert_array_equal(values[1], [4, 5, 6])

    def test_column_order_follows_topology(self, tmp_path, path_topology):
        f = tmp_path / "d.csv"
        f.write_text("C,A,B\n3,1,2\n")
        values, _ = data.load_csv(f, path_topology)
        np.testing.assert_array_equal(values, [[1, 2, 3]])

    def test_missing_sensor_column(self, tmp_path, path_topology):
        f = tmp_path / "d.csv"
        f.write_text("A,B\n1,2\n")
        with pytest.raises(DataError, match=r"\['C'\]"):
            data.load_csv(f, path_topology)

    def test_bad_cell_names_row_and_column(self, tmp_path, path_topology):
        f = tmp_path / "d.csv"
        f.write_text("A,B,C\n1,2,3\n1,oops,3\n")
        with pytest.raises(DataError, match="row 3.*'B'"):
            data.load_csv(f, path_topology)

    def test_non_finite_cell_names_its_file_line_and_column(self, tmp_path,
                                                            path_topology):
        f = tmp_path / "d.csv"
        f.write_text("A,B,C\n1,2,3\n\n\n1,nan,3\n")
        with pytest.raises(DataError, match="row 5, column 'B'"):
            data.load_csv(f, path_topology)

    def test_repeated_column_names_its_file_and_column(self, tmp_path,
                                                       path_topology):
        f = tmp_path / "d.csv"
        f.write_text("A,B,C,A\n1,2,3,9\n")
        with pytest.raises(DataError,
                           match=re.escape(f"{f}: column 'A' appears more than once")):
            data.load_csv(f, path_topology)

    def test_repeated_unread_column_is_ignored(self, tmp_path, path_topology):
        f = tmp_path / "d.csv"
        f.write_text("A,B,C,note,note\n1,2,3,x,y\n")
        np.testing.assert_array_equal(data.load_csv(f, path_topology)[0],
                                      [[1, 2, 3]])

    def test_missing_label_column_means_normal(self, tmp_path, path_topology):
        f = tmp_path / "d.csv"
        f.write_text("A,B,C\n1,2,3\n")
        assert data.load_csv(f, path_topology)[1].tolist() == [0]

    def test_swat_style_text_labels(self, tmp_path, path_topology):
        f = tmp_path / "d.csv"
        f.write_text("A,B,C,label\n1,2,3,Normal\n1,2,3,Attack\n1,2,3, Attack \n")
        assert data.load_csv(f, path_topology)[1].tolist() == [0, 1, 1]

    def test_unparseable_label(self, tmp_path, path_topology):
        f = tmp_path / "d.csv"
        f.write_text("A,B,C,label\n1,2,3,maybe\n")
        with pytest.raises(DataError, match="label"):
            data.load_csv(f, path_topology)

    def test_row_shorter_than_label_column_names_the_row(self, tmp_path,
                                                          path_topology):
        f = tmp_path / "d.csv"
        f.write_text("A,B,C,label\n1,2,3,0\n1,2,3\n")
        with pytest.raises(DataError, match="row 3: no label value"):
            data.load_csv(f, path_topology)
        with pytest.raises(DataError, match="row 3: no label value"):
            data.load_labels(f)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(3)),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                       [2.2250738585072014e-308, -1e-320, -1e300]]))
    def test_save_load_round_trip(self, tmp_path_factory, values):
        topology = data.parse_topology(PATH_TOPOLOGY)
        labels = np.arange(len(values)) % 2
        f = tmp_path_factory.mktemp("csv") / "d.csv"
        data.save_csv(f, topology, values, labels)
        loaded, loaded_labels = data.load_csv(f, topology)
        # Bit-exact: -0.0 and subnormals must come back as written.
        assert loaded.shape == values.shape
        assert loaded.tobytes() == values.tobytes()
        np.testing.assert_array_equal(loaded_labels, labels)

    def test_load_labels_only(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,label\n1,0\n2,1\n")
        np.testing.assert_array_equal(data.load_labels(f), [0, 1])
        f2 = tmp_path / "nolabel.csv"
        f2.write_text("x\n1\n")
        with pytest.raises(DataError, match="'label'"):
            data.load_labels(f2)


class TestNormalizer:
    def test_constant_sensor_maps_to_zero(self):
        values = np.array([[2.0], [2.0], [2.0]])
        norm = data.fit_normalizer(values)
        np.testing.assert_array_equal(data.apply_normalizer(norm, values), 0.0)

    def test_hand_zscore(self):
        values = np.array([[0.0], [10.0]])
        norm = data.fit_normalizer(values)
        np.testing.assert_allclose(
            data.apply_normalizer(norm, values), [[-1.0], [1.0]])

    def test_fit_data_has_zero_mean(self):
        rng = np.random.default_rng(1)
        values = rng.normal(3.0, 2.0, size=(50, 4))
        out = data.apply_normalizer(data.fit_normalizer(values), values)
        assert np.abs(out.mean(axis=0)).max() <= 1e-9

    def test_double_application_is_not_identity(self):
        values = np.random.default_rng(2).normal(5.0, 3.0, size=(20, 2))
        norm = data.fit_normalizer(values)
        once = data.apply_normalizer(norm, values)
        twice = data.apply_normalizer(norm, once)
        assert not np.allclose(once, twice)

    def test_makes_one_stream_sized_array(self):
        # The z-scored stream alone: a traced peak of 1.00x the input's
        # bytes. Dividing a separate difference makes two arrays, 2x.
        values = np.random.default_rng(4).normal(5.0, 3.0, size=(20_000, 12))
        norm = data.fit_normalizer(values)
        out, peak = traced_peak(data.apply_normalizer, norm, values)
        assert peak <= 1.1 * values.nbytes, peak / values.nbytes
        assert out.tobytes() == ((values - norm.mean) / norm.std).tobytes()

    def test_affine_preserves_correlation(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(100, 3)) * [1.0, 5.0, 0.2] + [4, -2, 9]
        out = data.apply_normalizer(data.fit_normalizer(values), values)
        for j in range(3):
            corr = np.corrcoef(values[:, j], out[:, j])[0, 1]
            assert corr == pytest.approx(1.0, abs=1e-12)


def _train_record(labels, length: int, stride: int, variant: str = "temporal-only"):
    """Train the tiny pipeline on the first len(labels) rows with the given
    window and row labels; returns its training record."""
    config = tiny_config(variant)
    config.window.length, config.window.stride = length, stride
    topology, values, _, _ = tiny_data(config)
    return pipeline.train_pipeline(config, topology, values[:len(labels)],
                                   np.asarray(labels, dtype=np.int64)).record


class TestSegmentation:
    def _stream(self, length, n=2):
        return np.arange(length * n, dtype=float).reshape(length, n)

    def test_enumerated_starts(self):
        segs = data.segment_stream(self._stream(10), length=4, stride=2)
        assert segs.starts.tolist() == [0, 2, 4, 6]
        assert segs.ends.tolist() == [4, 6, 8, 10]
        assert len(segs) == 4

    def test_single_window_no_successor(self):
        assert len(data.segment_stream(self._stream(4), length=4, stride=1)) == 1
        # Training refuses a stream with no window, an empty one too.
        for rows in (0, 3):
            with pytest.raises(DataError, match=re.escape(
                    f"stream of length {rows} is shorter than one window (4)")):
                _train_record(np.zeros(rows), length=4, stride=1)
        # Training needs two windows: one to fit, one to calibrate on.
        with pytest.raises(DataError, match="need 2 normal training windows"):
            _train_record(np.zeros(4), length=4, stride=1)
        # Neither of two windows has a full window of rows after it, so
        # there is nothing to predict.
        with pytest.raises(DataError, match=r"no normal \(window, successor\) pairs"):
            _train_record(np.zeros(5), length=4, stride=1)

    def test_disjoint_tiling(self):
        segs = data.segment_stream(self._stream(23), length=5, stride=5)
        assert len(segs) == 23 // 5

    def test_segment_values_are_sensor_major(self):
        vals = self._stream(6, n=3)
        segs = data.segment_stream(vals, length=4, stride=4)
        windows = data.gather_windows(vals, segs.starts, segs.length)
        assert windows.shape == (1, 3, 4)
        np.testing.assert_array_equal(windows[0][:, 0], vals[0])

    def test_successor_is_next_window(self):
        # Starts 0, 2, 4 have a full window after them; 6 and 8 do not.
        assert _train_record(np.zeros(12), length=4, stride=2)["temporal"]["samples"] == 3

    def test_successor_need_not_be_a_window_start(self):
        # stride < length: 5-row windows start at 0, 3, 6, 9, 12 and 15.
        # Row 10 is anomalous, so windows 6 and 9 are dropped. Of the normal
        # 0, 3, 12 and 15, only 0, 3 and 12 have 5 rows after them; 3's
        # successor (rows 8..12) holds row 10, and the clean successors of
        # 0 and 12 start at rows 5 and 17, where no window starts.
        labels = np.zeros(22)
        labels[10] = 1
        record = _train_record(labels, length=5, stride=3)
        data_record = record["data"]
        assert (data_record["anomalous_windows"], data_record["anomalous_rows"]) == (2, 1)
        assert record["temporal"]["samples"] == 2

    def test_segment_label_is_or_of_labels(self):
        record = _train_record([0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0], length=4,
                               stride=4, variant="raw")
        assert record["data"] == {"rows": 12, "anomalous_rows": 1, "windows": 3,
                                  "anomalous_windows": 1, "normal_windows": 2,
                                  "window_length": 4}

    @given(st.integers(8, 200), st.integers(2, 12), st.integers(1, 15))
    @settings(max_examples=60)
    def test_count_formula(self, total, length, stride):
        segs = data.segment_stream(np.zeros((total, 2)), length, stride)
        assert len(segs) == max((total - length) // stride + 1, 0)

    @given(st.integers(2, 60), st.integers(1, 4), st.integers(2, 12),
           st.integers(1, 15), st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_windows_are_transposed_row_slices(self, total, n, length, stride, seed):
        if total < length:
            return
        vals = np.random.default_rng(seed).normal(size=(total, n))
        segs = data.segment_stream(vals, length, stride)
        windows = data.gather_windows(vals, segs.starts, length)
        assert windows.shape == (len(segs), n, length)
        assert windows.flags["C_CONTIGUOUS"]
        for i, start in enumerate(segs.starts):
            np.testing.assert_array_equal(windows[i], vals[start:start + length].T)
        np.testing.assert_array_equal(segs.rows, [np.arange(s, s + length)
                                                  for s in segs.starts])

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_anomalies_in_covered_span_always_land_in_a_segment(self, seed):
        rng = np.random.default_rng(seed)
        total = int(rng.integers(20, 120))
        length = int(rng.integers(2, 10))
        stride = int(rng.integers(1, length + 1))  # stride <= length
        labels = np.zeros(total, dtype=np.int64)
        covered = ((total - length) // stride) * stride + length
        labels[rng.integers(0, covered)] = 1
        segs = data.segment_stream(np.zeros((total, 2)), length, stride)
        # A window's label is the OR of its rows' labels.
        assert labels[segs.rows].any(axis=1).any()


class TestSynthetic:
    def _config(self, **kw):
        defaults = dict(sensors=6, types=2, length=400, density=0.4,
                        noise=0.1, seed=11)
        defaults.update(kw)
        return SyntheticConfig(**defaults)

    def test_empty_spec_gives_zero_labels(self):
        _, _, labels = data.generate_synthetic(self._config())
        assert labels.sum() == 0

    def test_same_seed_is_bit_identical(self):
        t1, v1, l1 = data.generate_synthetic(self._config())
        t2, v2, l2 = data.generate_synthetic(self._config())
        assert t1.names == t2.names
        np.testing.assert_array_equal(t1.adjacency, t2.adjacency)
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(l1, l2)

    @pytest.mark.parametrize("small", [False, True], ids=["benchmark", "small"])
    def test_generator_equals_the_per_row_reference(self, small):
        config = benchmark.benchmark_synthetic()
        if small:
            config = self._config(anomalies=(
                AnomalyWindow("offset", 50, 30, 0),
                AnomalyWindow("drift", 120, 40, 1),
                AnomalyWindow("cascade", 200, 50, 2)), drift_delay=10)
        topology, clean, values, labels = reference_synthetic(config)
        rng = np.random.default_rng(config.seed)
        data.generate_topology(config.sensors, config.types, config.density, rng)
        stream = data.generate_normal_stream(topology, config.length, config.noise, rng)
        assert stream.tobytes() == clean.tobytes()
        got_topology, got_values, got_labels = data.generate_synthetic(config)
        np.testing.assert_array_equal(got_topology.adjacency, topology.adjacency)
        assert got_values.tobytes() == values.tobytes()
        assert got_labels.tobytes() == labels.tobytes()

    def test_generator_gives_the_pinned_benchmark_stream(self):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
        # The script sets the BLAS thread variables as it is imported; they
        # stay out of this process's environment.
        with mock.patch.dict(os.environ):
            from checkpoint_digests import stream_digest
        assert stream_digest(*benchmark.benchmark_data()) == BENCHMARK_STREAM

    @pytest.mark.parametrize("noise", [0.0, 1e-3, 0.12, 100.0, 1e-320],
                             ids=["noise 0", "noise 1e-3", "noise 0.12",
                                  "noise 100", "subnormal noise"])
    @pytest.mark.parametrize("sensors", [4, 12])
    @pytest.mark.parametrize("rows", [1, data.AR_BLOCK - 1, 3 * data.AR_BLOCK,
                                      3 * data.AR_BLOCK + 17, 28_000],
                             ids=["one row", "under a block", "three blocks",
                                  "three blocks and a remainder", "28000 rows"])
    def test_blocked_ar1_equals_the_per_row_reference(self, rows, sensors, noise):
        # tobytes, not ==, which takes -0.0 and +0.0 as equal.
        innovations = np.random.default_rng(rows + sensors).normal(
            scale=noise, size=(rows, sensors))
        noise = innovations.copy()
        data.ar1_in_place(noise)
        assert noise.tobytes() == reference_ar1(innovations).tobytes()

    @pytest.mark.parametrize("block", [4, 64])
    def test_blocked_ar1_doubles_a_warmup_whose_bounds_do_not_meet(
            self, monkeypatch, block):
        # From one row of warm-up no block's bounds meet, so every block
        # doubles its warm-up. With 4-row blocks the second block's bounds
        # cannot meet within 1 or 2 rows, and its warm-up of 4 reaches row 0.
        monkeypatch.setattr(data, "AR_WARMUP", 1)
        monkeypatch.setattr(data, "AR_BLOCK", block)
        innovations = np.random.default_rng(block).normal(scale=0.12, size=(2_000, 12))
        noise = innovations.copy()
        data.ar1_in_place(noise)
        assert noise.tobytes() == reference_ar1(innovations).tobytes()

    def test_blocked_ar1_keeps_the_sign_of_zero(self):
        # Every innovation -0.0: every state is +0.0, since row 0's
        # e_0 + 0.0 turns -0.0 into +0.0, but the bounds start at -0.0 and
        # +0.0 and stay there, equal as floats and never bit for bit. So
        # every block walks from row 0.
        innovations = np.full((3 * data.AR_BLOCK + 5, 4), -0.0)
        noise = innovations.copy()
        data.ar1_in_place(noise)
        assert noise.tobytes() == reference_ar1(innovations).tobytes()

    def test_blocked_ar1_with_an_overflowing_bound_runs_row_by_row(self):
        # 8 x 3e307 overflows, so the bounds would start at -inf and +inf.
        innovations = np.random.default_rng(3).normal(scale=0.12, size=(2_000, 4))
        innovations[700, 2] = 3e307
        noise = innovations.copy()
        data.ar1_in_place(noise)
        assert noise.tobytes() == reference_ar1(innovations).tobytes()

    def test_generator_holds_one_stream(self):
        # The stream, with the events added into it in place: a traced peak
        # of 1.34x the stream's bytes (numpy 2.4.6, Python 3.11), set by the
        # sinusoid mixture's sensor-length temporaries. A generator that
        # injects into a copy of the clean stream reads 2.09x, and one that
        # also draws the innovations apart from its result 3.11x. A first
        # call in a process traces about 0.28x more, so one call warms up.
        config = benchmark.benchmark_synthetic()
        data.generate_synthetic(config)
        (_, values, _), peak = traced_peak(data.generate_synthetic, config)
        assert peak <= 1.4 * values.nbytes, peak / values.nbytes

    @pytest.mark.parametrize("rows", [1, data.STD_BLOCK - 1, 3 * data.STD_BLOCK,
                                      28_000], ids=["one row", "under a block",
                                                    "three blocks", "28000 rows"])
    def test_column_std_is_the_numpy_std(self, rows):
        rng = np.random.default_rng(rows)
        values = rng.normal(size=(rows, 12)) * 1e3 + rng.normal(size=12) * 1e6
        assert data.column_std(values).tobytes() == values.std(axis=0).tobytes()

    def test_inject_anomalies_adds_into_its_stream(self):
        topology = data.parse_topology(PATH_TOPOLOGY)
        clean = data.generate_normal_stream(topology, 300, 0.05,
                                            np.random.default_rng(7))
        stream = clean.copy()
        window = AnomalyWindow("offset", 100, 80, 2, magnitude=4.0)
        labels = data.inject_anomalies(stream, topology, [window], **EVENTS)
        added = np.zeros_like(clean)
        added[100:180, 2] = 4.0 * clean.std(axis=0)[2]
        np.testing.assert_array_equal(stream, clean + added)
        assert labels.tolist() == [0] * 100 + [1] * 80 + [0] * 120

    def test_different_seed_differs(self):
        _, v1, _ = data.generate_synthetic(self._config(seed=1))
        _, v2, _ = data.generate_synthetic(self._config(seed=2))
        assert not np.array_equal(v1, v2)

    def test_anomaly_fraction_is_exact(self):
        windows = (AnomalyWindow("offset", 50, 30, 0),
                   AnomalyWindow("drift", 120, 40, 1),
                   AnomalyWindow("cascade", 200, 50, 2))
        cfg = self._config(anomalies=windows, drift_delay=10)
        _, _, labels = data.generate_synthetic(cfg)
        assert labels.sum() == 30 + 40 + 50

    def test_window_out_of_bounds(self):
        cfg = self._config(anomalies=(AnomalyWindow("offset", 390, 20, 0),))
        with pytest.raises(ConfigError, match="outside stream"):
            data.generate_synthetic(cfg)

    def test_overlapping_windows_rejected(self):
        cfg = self._config(anomalies=(AnomalyWindow("offset", 50, 30, 0),
                                      AnomalyWindow("offset", 60, 30, 1)))
        with pytest.raises(ConfigError, match="overlap"):
            data.generate_synthetic(cfg)

    def test_drift_delay_longer_than_window_rejected(self):
        cfg = self._config(anomalies=(AnomalyWindow("drift", 50, 30, 0),),
                           drift_delay=30)
        with pytest.raises(ConfigError, match="drift delay"):
            data.generate_synthetic(cfg)

    def test_cascade_onset_lag_per_hop(self):
        # Path 0-1-2: with a 5-step lag per hop, sensor 2 deviates 10 steps
        # after the seed sensor 0.
        topology = data.parse_topology(PATH_TOPOLOGY)
        rng = np.random.default_rng(5)
        clean = data.generate_normal_stream(topology, 300, 0.05, rng)
        window = AnomalyWindow("cascade", 100, 80, 0, magnitude=4.0)
        dirty = clean.copy()
        labels = data.inject_anomalies(
            dirty, topology, [window],
            **{**EVENTS, "cascade_lag": 5, "cascade_attenuation": 0.7})
        delta = np.abs(dirty - clean)
        onsets = [int(np.flatnonzero(delta[:, i] > 1e-9)[0]) for i in range(3)]
        assert onsets[0] == 100
        assert onsets[1] == 105
        assert onsets[2] == 110
        assert labels[100:180].all() and labels.sum() == 80

    def test_drift_deviation_starts_after_delay(self):
        topology = data.parse_topology(PATH_TOPOLOGY)
        rng = np.random.default_rng(6)
        clean = data.generate_normal_stream(topology, 300, 0.05, rng)
        window = AnomalyWindow("drift", 100, 80, 1, magnitude=4.0)
        dirty = clean.copy()
        labels = data.inject_anomalies(dirty, topology, [window],
                                       **{**EVENTS, "drift_delay": 20})
        delta = np.abs(dirty - clean)[:, 1]
        assert delta[:121].max() == 0.0  # ramp starts at 0 at onset+delay
        assert delta[150] > 0.0
        assert labels[100:180].all()

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("sensors, types", [(4, 2), (9, 3), (30, 4)])
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.25, 0.6, 1.0])
    def test_topology_equals_the_per_candidate_reference(self, seed, sensors,
                                                         types, density):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = data.generate_topology(sensors, types, density, rng)
        want = reference_topology(sensors, types, density, reference_rng)
        assert (got.names, got.type_names) == (want.names, want.type_names)
        for name in ("adjacency", "type_of"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        # Both leave the generator at the same draw.
        assert rng.random() == reference_rng.random()

    def test_same_type_sensors_share_dynamics(self):
        topology = data.generate_topology(8, 2, 0.3, np.random.default_rng(4))
        values = data.generate_normal_stream(
            topology, 2000, 0.05, np.random.default_rng(4))
        same = [i for i in range(8) if topology.type_of[i] == 0]
        other = [i for i in range(8) if topology.type_of[i] == 1]
        corr_same = np.corrcoef(values[:, same[0]], values[:, same[1]])[0, 1]
        corr_cross = np.corrcoef(values[:, same[0]], values[:, other[0]])[0, 1]
        assert corr_same > abs(corr_cross)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            self._config(sensors=3).validate()
        with pytest.raises(ConfigError):
            self._config(types=1).validate()
        with pytest.raises(ConfigError):
            self._config(density=1.5).validate()
        with pytest.raises(ConfigError, match="synthetic.seed"):
            self._config(seed=-1).validate()
        for split in (-1, 0, 400, 401):
            with pytest.raises(ConfigError, match="synthetic.split"):
                self._config(split=split).validate()
        for split in (None, 1, 399):
            self._config(seed=0, split=split).validate()
