import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cpsdetect import metrics
from cpsdetect.errors import DataError

from oracles import pairwise_auc

binary_arrays = hnp.arrays(np.int64, st.integers(1, 60),
                           elements=st.integers(0, 1))


def evaluate(labels, predictions, adjust=True):
    """``evaluate_scores`` with constant scores, for the 0/1 metrics."""
    return metrics.evaluate_scores(labels, np.zeros(len(labels)), predictions,
                                   adjust=adjust)


def counts(report):
    return report.tp, report.fp, report.fn, report.tn


def point_adjust(labels, predictions):
    return metrics._point_adjust(np.array(labels, dtype=np.int64),
                                 np.array(predictions, dtype=np.int64))


class TestPointAdjust:
    def test_hand_example(self):
        np.testing.assert_array_equal(point_adjust([0, 1, 1, 0, 1], [0, 0, 1, 0, 0]),
                                      [0, 1, 1, 0, 0])
        # Runs at index 0 and up to the last index; a hit at label 0 stays.
        np.testing.assert_array_equal(
            point_adjust([1, 1, 0, 0, 1, 1], [0, 1, 1, 0, 1, 0]), [1, 1, 1, 0, 1, 1])
        np.testing.assert_array_equal(point_adjust([0, 0], [1, 0]), [1, 0])

    def test_all_zero_predictions_unchanged(self):
        np.testing.assert_array_equal(point_adjust([0, 1, 1, 0], [0, 0, 0, 0]),
                                      [0, 0, 0, 0])

    def test_perfect_predictions_are_fixpoint(self):
        labels = [0, 1, 1, 0, 1, 0]
        np.testing.assert_array_equal(point_adjust(labels, labels), labels)

    @given(binary_arrays, binary_arrays)
    def test_idempotent_and_outside_runs_untouched(self, labels, preds):
        n = min(len(labels), len(preds))
        labels, preds = labels[:n], preds[:n]
        once = metrics._point_adjust(labels, preds)
        twice = metrics._point_adjust(labels, once)
        np.testing.assert_array_equal(once, twice)
        np.testing.assert_array_equal(once[labels == 0], preds[labels == 0])

    @given(binary_arrays, binary_arrays)
    def test_never_decreases_recall(self, labels, preds):
        n = min(len(labels), len(preds))
        labels, preds = labels[:n], preds[:n]
        assert evaluate(labels, preds).recall >= evaluate(labels, preds, adjust=False).recall


class TestPrecisionRecallF1:
    def test_hand_confusion(self):
        report = evaluate([0, 1, 1, 0, 1], [0, 0, 1, 0, 0])
        assert counts(report) == (2, 0, 1, 2)
        assert report.precision == 1.0
        assert abs(report.recall - 2 / 3) < 1e-12
        assert abs(report.f1 - 0.8) < 1e-12
        raw = evaluate([0, 1, 1, 0, 1], [0, 0, 1, 0, 0], adjust=False)
        assert counts(raw) == (1, 0, 2, 2)

    def test_perfect(self):
        report = evaluate([0, 1, 1], [0, 1, 1])
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_zero_conventions(self):
        # Nothing predicted (precision 0/0), then nothing to find (recall 0/0).
        for labels, predictions in (([1, 1, 0], [0, 0, 0]), ([0, 0, 0], [1, 0, 0])):
            report = evaluate(labels, predictions)
            assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_rejects_non_binary(self):
        with pytest.raises(DataError, match="0 and 1"):
            evaluate([0, 2], [0, 1])

    @pytest.mark.parametrize("bad", [0.5, 0.9, 2, -1, math.nan])
    def test_rejects_a_value_that_is_not_exactly_0_or_1(self, bad):
        with pytest.raises(DataError, match="^labels must contain only 0 and 1"):
            evaluate([bad, 1.0, 0.0], [0, 1, 0])
        with pytest.raises(DataError, match="^predictions must contain only 0 and 1"):
            evaluate([0, 1, 0], [bad, 1.0, 0.0])

    def test_bools_and_float_zeros_and_ones_are_labels(self):
        expected = evaluate([0, 1, 1, 0], [0, 1, 0, 1])
        assert evaluate([False, True, True, False],
                        np.array([0.0, 1.0, 0.0, 1.0])) == expected
        assert evaluate(np.array([0.0, 1.0, 1.0, -0.0]),
                        [False, True, False, True]) == expected


class TestRocAuc:
    def test_hand_example(self):
        auc = metrics.evaluate_scores([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8], [0, 0, 0, 0]).auc
        assert abs(auc - 0.75) < 1e-12

    def test_perfect_separation(self):
        assert metrics._roc_auc(np.array([0, 0, 1, 1]),
                                np.array([1.0, 2.0, 3.0, 4.0])) == 1.0

    def test_all_ties(self):
        assert metrics._roc_auc(np.array([0, 1, 0, 1]), np.full(4, 5.0)) == 0.5

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_matches_bruteforce_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        if labels.sum() == n:
            labels[0] = 0
        # Quantized scores force plenty of ties.
        scores = np.round(rng.normal(size=n), 1)
        fast = metrics.evaluate_scores(labels, scores, labels).auc
        slow = pairwise_auc(labels, scores)
        assert abs(fast - slow) <= 1e-12


class TestEntryChecks:
    def test_length_mismatch(self):
        with pytest.raises(DataError, match="^length mismatch: 2 labels, 1 predictions"):
            metrics.evaluate_scores([0, 1], [0.1, 0.2], [0])
        with pytest.raises(DataError, match="^length mismatch: .* 1 scores"):
            metrics.evaluate_scores([0, 1], [0.1], [0, 1])

    @pytest.mark.parametrize("labels, scores, message", [
        pytest.param([0, 1, 0, 1], [math.nan, 0.5, 0.2, 0.1], "scores must be finite",
                     id="nan"),
        pytest.param([0, 1, 0, 1], [0.1, math.inf, 0.2, 0.1], "scores must be finite",
                     id="inf"),
        # One class leaves the AUC undefined, yet the scores are still read.
        pytest.param([0, 0, 0], [0.1], "3 predictions, 1 scores", id="one-class-short"),
        pytest.param([0, 0, 0], [0.1, math.nan, 0.2], "scores must be finite",
                     id="one-class-nan"),
        pytest.param([0, 1, 0], ["a", "b", "c"], "scores must be numbers", id="text"),
        pytest.param([0, 1, 0], [0.1, None, 0.2], "scores must be numbers", id="none"),
        pytest.param([0, 1, 0], [[0.1], [0.2], [0.3]],
                     r"scores must be 1-D, got shape \(3, 1\)", id="2-d"),
    ])
    def test_bad_scores_are_refused(self, labels, scores, message):
        with pytest.raises(DataError, match=message):
            metrics.evaluate_scores(labels, scores, [0] * len(labels))

    @pytest.mark.parametrize("adjust", [True, False])
    def test_labels_and_predictions_are_checked_once(self, monkeypatch, adjust):
        checked = []
        check = metrics._binary_array
        monkeypatch.setattr(metrics, "_binary_array",
                            lambda values, name: checked.append(name) or check(values, name))
        metrics.evaluate_scores([0, 1, 1, 0], [0.1, 0.9, 0.4, 0.2], [0, 1, 0, 0],
                                adjust=adjust)
        assert checked == ["labels", "predictions"]


def test_split_at_zero_label_boundary_preserves_counts():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, size=80)
    preds = rng.integers(0, 2, size=80)
    # Split where a 0-label guarantees no run straddles the boundary.
    cut = int(np.flatnonzero(labels == 0)[len(labels) // 4])
    whole = counts(evaluate(labels, preds))
    left = counts(evaluate(labels[:cut], preds[:cut]))
    right = counts(evaluate(labels[cut:], preds[cut:]))
    assert whole == tuple(a + b for a, b in zip(left, right))


def test_report_formats_round_trip():
    report = metrics.evaluate_scores([0, 1], [0.1, 0.9], [0, 1])
    kv = metrics.report_keyvalues(report, report)
    parsed = dict(line.split("=") for line in kv.strip().splitlines())
    assert float(parsed["f1"]) == float(parsed["f1_raw"]) == 1.0
    assert "precision" in metrics.report_text(report, report)


@pytest.mark.parametrize("label", [0, 1])
def test_single_class_labels_leave_auc_undefined(label):
    labels = [label] * 4
    report = metrics.evaluate_scores(labels, [0.1, 0.9, 0.4, 0.2], [0, 1, 0, 0])
    assert math.isnan(report.auc)
    # One hit at 0.9: a false alarm among normals, or (point-adjusted) the
    # whole all-anomalous run detected.
    assert counts(report) == (
        (0, 1, 0, 3) if label == 0 else (4, 0, 0, 0))
    assert "auc=undefined" in metrics.report_keyvalues(report, report)
    assert "auc       : undefined" in metrics.report_text(report, report)
