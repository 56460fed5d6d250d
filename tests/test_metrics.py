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


class TestPointAdjust:
    def test_hand_example(self):
        adjusted = metrics.point_adjust([0, 1, 1, 0, 1], [0, 0, 1, 0, 0])
        np.testing.assert_array_equal(adjusted, [0, 1, 1, 0, 0])

    def test_all_zero_predictions_unchanged(self):
        adjusted = metrics.point_adjust([0, 1, 1, 0], [0, 0, 0, 0])
        np.testing.assert_array_equal(adjusted, [0, 0, 0, 0])

    def test_perfect_predictions_are_fixpoint(self):
        labels = [0, 1, 1, 0, 1, 0]
        np.testing.assert_array_equal(metrics.point_adjust(labels, labels), labels)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length"):
            metrics.point_adjust([0, 1], [0])

    @given(binary_arrays, binary_arrays)
    def test_idempotent_and_outside_runs_untouched(self, labels, preds):
        n = min(len(labels), len(preds))
        labels, preds = labels[:n], preds[:n]
        once = metrics.point_adjust(labels, preds)
        twice = metrics.point_adjust(labels, once)
        np.testing.assert_array_equal(once, twice)
        np.testing.assert_array_equal(once[labels == 0], preds[labels == 0])

    @given(binary_arrays, binary_arrays)
    def test_never_decreases_recall(self, labels, preds):
        n = min(len(labels), len(preds))
        labels, preds = labels[:n], preds[:n]
        adjusted = metrics.point_adjust(labels, preds)
        _, r_before, _, _ = metrics.precision_recall_f1(labels, preds)
        _, r_after, _, _ = metrics.precision_recall_f1(labels, adjusted)
        assert r_after >= r_before


class TestPrecisionRecallF1:
    def test_hand_confusion(self):
        labels = [0, 1, 1, 0, 1]
        adjusted = metrics.point_adjust(labels, [0, 0, 1, 0, 0])
        p, r, f1, (tp, fp, fn, tn) = metrics.precision_recall_f1(labels, adjusted)
        assert (tp, fp, fn, tn) == (2, 0, 1, 2)
        assert p == 1.0
        assert abs(r - 2 / 3) < 1e-12
        assert abs(f1 - 0.8) < 1e-12

    def test_perfect(self):
        p, r, f1, _ = metrics.precision_recall_f1([0, 1, 1], [0, 1, 1])
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_zero_conventions(self):
        p, r, f1, _ = metrics.precision_recall_f1([1, 1, 0], [0, 0, 0])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_rejects_non_binary(self):
        with pytest.raises(DataError, match="0 and 1"):
            metrics.precision_recall_f1([0, 2], [0, 1])

    @pytest.mark.parametrize("bad", [0.5, 0.9, 2, -1, math.nan])
    def test_rejects_a_value_that_is_not_exactly_0_or_1(self, bad):
        with pytest.raises(DataError, match="^labels must contain only 0 and 1"):
            metrics.precision_recall_f1([bad, 1.0, 0.0], [0, 1, 0])
        with pytest.raises(DataError, match="^predictions must contain only 0 and 1"):
            metrics.precision_recall_f1([0, 1, 0], [bad, 1.0, 0.0])
        with pytest.raises(DataError, match="^labels must contain only 0 and 1"):
            metrics.evaluate_scores([0, bad, 1], [0.1, 0.2, 0.3], [0, 1, 1])

    def test_bools_and_float_zeros_and_ones_are_labels(self):
        expected = metrics.precision_recall_f1([0, 1, 1, 0], [0, 1, 0, 1])
        assert metrics.precision_recall_f1(
            [False, True, True, False], np.array([0.0, 1.0, 0.0, 1.0])) == expected
        assert metrics.precision_recall_f1(
            np.array([0.0, 1.0, 1.0, -0.0]), [False, True, False, True]) == expected


class TestRocAuc:
    def test_hand_example(self):
        auc = metrics.roc_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])
        assert abs(auc - 0.75) < 1e-12

    def test_perfect_separation(self):
        assert metrics.roc_auc([0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0]) == 1.0

    def test_all_ties(self):
        assert metrics.roc_auc([0, 1, 0, 1], [5.0, 5.0, 5.0, 5.0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="positive and .* negative"):
            metrics.roc_auc([1, 1], [0.1, 0.2])
        with pytest.raises(DataError):
            metrics.roc_auc([0, 0], [0.1, 0.2])

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
        fast = metrics.roc_auc(labels, scores)
        slow = pairwise_auc(labels, scores)
        assert abs(fast - slow) <= 1e-12


def test_split_at_zero_label_boundary_preserves_counts():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, size=80)
    preds = rng.integers(0, 2, size=80)
    # Split where a 0-label guarantees no run straddles the boundary.
    cut = int(np.flatnonzero(labels == 0)[len(labels) // 4])
    whole = metrics.confusion_counts(labels, metrics.point_adjust(labels, preds))
    left = metrics.confusion_counts(
        labels[:cut], metrics.point_adjust(labels[:cut], preds[:cut]))
    right = metrics.confusion_counts(
        labels[cut:], metrics.point_adjust(labels[cut:], preds[cut:]))
    assert whole == tuple(a + b for a, b in zip(left, right))


def test_anomaly_runs_extraction():
    assert metrics.anomaly_runs([0, 1, 1, 0, 1]) == [(1, 3), (4, 5)]
    assert metrics.anomaly_runs([1, 1, 0]) == [(0, 2)]
    assert metrics.anomaly_runs([0, 0]) == []


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
    assert (report.tp, report.fp, report.fn, report.tn) == (
        (0, 1, 0, 3) if label == 0 else (4, 0, 0, 0))
    assert "auc=undefined" in metrics.report_keyvalues(report, report)
    assert "auc       : undefined" in metrics.report_text(report, report)
