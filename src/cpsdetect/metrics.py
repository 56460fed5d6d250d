"""Detection metrics: run-adjusted and raw precision/recall/F1, rank-based ROC AUC.

The adjustment rule treats each maximal run of consecutive positive ground
truth labels as one event: if any prediction inside the run fires, the whole
run counts as detected. Predictions outside true runs are never modified.
AUC is always computed on raw scores, without adjustment, since it is a
threshold-free metric defined on score orderings; on labels of one class it
is undefined (NaN in a report, printed as ``undefined``).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError


def _binary_array(values, name: str) -> np.ndarray:
    """``values`` as int64 0/1 labels; checked before the cast, so 0.5 or
    NaN is an error, not a truncated 0."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DataError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.isin(arr, (0, 1)).all():
        raise DataError(f"{name} must contain only 0 and 1")
    return arr.astype(np.int64)


def _binary_pair(labels, predictions) -> tuple[np.ndarray, np.ndarray]:
    lab = _binary_array(labels, "labels")
    pred = _binary_array(predictions, "predictions")
    if len(lab) != len(pred):
        raise DataError(
            f"length mismatch: {len(lab)} labels vs {len(pred)} predictions")
    return lab, pred


def anomaly_runs(labels) -> list[tuple[int, int]]:
    """Half-open [start, end) index ranges of maximal runs of 1-labels."""
    arr = _binary_array(labels, "labels")
    edges = np.flatnonzero(np.diff(arr, prepend=0, append=0))
    return [(int(edges[i]), int(edges[i + 1])) for i in range(0, len(edges), 2)]


def point_adjust(labels, predictions) -> np.ndarray:
    """Expand any hit inside a true-anomaly run to the whole run.

    Predictions at indices whose label is 0 pass through unchanged, so the
    operation is idempotent and can only raise recall.
    """
    lab, pred = _binary_pair(labels, predictions)
    adjusted = pred.copy()
    for start, end in anomaly_runs(lab):
        if adjusted[start:end].any():
            adjusted[start:end] = 1
    return adjusted


def confusion_counts(labels, predictions) -> tuple[int, int, int, int]:
    """Return (tp, fp, fn, tn)."""
    lab, pred = _binary_pair(labels, predictions)
    tp = int(((lab == 1) & (pred == 1)).sum())
    fp = int(((lab == 0) & (pred == 1)).sum())
    fn = int(((lab == 1) & (pred == 0)).sum())
    tn = int(((lab == 0) & (pred == 0)).sum())
    return tp, fp, fn, tn


def precision_recall_f1(labels, predictions):
    """Standard confusion-matrix metrics with 0/0 defined as 0."""
    tp, fp, fn, tn = confusion_counts(labels, predictions)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1, (tp, fp, fn, tn)


def roc_auc(labels, scores) -> float:
    """Area under the ROC curve via average ranks (ties count one half).

    Equivalent to the pairwise concordance statistic over all
    (positive, negative) score pairs.
    """
    lab = _binary_array(labels, "labels")
    sc = np.asarray(scores, dtype=float)
    if sc.ndim != 1 or len(sc) != len(lab):
        raise DataError(
            f"length mismatch: {len(lab)} labels vs {sc.shape} scores")
    n_pos = int(lab.sum())
    n_neg = len(lab) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("roc auc needs at least one positive and one negative label")
    # Average rank per distinct score value, ascending order, ranks start at 1.
    _, inverse, counts = np.unique(sc, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    avg_rank = (upper - counts + 1 + upper) / 2.0
    ranks = avg_rank[inverse]
    pos_rank_sum = ranks[lab == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class MetricReport:
    precision: float
    recall: float
    f1: float
    auc: float
    tp: int
    fp: int
    fn: int
    tn: int


def evaluate_scores(labels, scores, predictions,
                    adjust: bool = True) -> MetricReport:
    """Metrics of 0/1 predictions, run-adjusted unless ``adjust`` is False,
    and the AUC of the raw scores."""
    adjusted = point_adjust(labels, predictions) if adjust else predictions
    precision, recall, f1, (tp, fp, fn, tn) = precision_recall_f1(labels, adjusted)
    auc = roc_auc(labels, scores) if 0 < tp + fn < tp + fp + fn + tn else math.nan
    return MetricReport(precision, recall, f1, auc, tp, fp, fn, tn)


def _float_text(value: float, digits: int) -> str:
    """A metric to ``digits`` places; NaN, an AUC on one class, is undefined."""
    return "undefined" if math.isnan(value) else f"{value:.{digits}f}"


def report_keyvalues(report: MetricReport, raw: MetricReport) -> str:
    """``report``'s fields, then ``raw``'s precision, recall and F1 as
    ``*_raw`` keys; one ``key=value`` line each."""
    values = {**asdict(report), **{f"{key}_raw": getattr(raw, key)
                                   for key in ("precision", "recall", "f1")}}
    return "".join(f"{key}={value if isinstance(value, int) else _float_text(value, 6)}\n"
                   for key, value in values.items())


def report_text(report: MetricReport, raw: MetricReport) -> str:
    return (
        "detection metrics (run-adjusted)\n"
        f"  precision : {report.precision:.4f}\n"
        f"  recall    : {report.recall:.4f}\n"
        f"  f1        : {report.f1:.4f}\n"
        f"  auc       : {_float_text(report.auc, 4)}\n"
        f"  counts    : tp={report.tp} fp={report.fp} fn={report.fn} tn={report.tn}\n"
        f"  unadjusted: precision={raw.precision:.4f} recall={raw.recall:.4f} "
        f"f1={raw.f1:.4f}\n"
    )
