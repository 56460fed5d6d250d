"""Detection metrics: run-adjusted and raw precision/recall/F1, rank-based ROC AUC.

``evaluate_scores`` is the one entry. It checks its inputs once: labels and
predictions must be 1-D and hold only 0 and 1, and scores must be 1-D
finite numbers; all three must have one length. The private helpers it
calls take those checked arrays and check nothing again.

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


def _point_adjust(labels: np.ndarray, predictions: np.ndarray) -> np.ndarray:
    """Expand any hit inside a maximal run of 1-labels to the whole run.

    Predictions at indices whose label is 0 pass through unchanged, so the
    operation is idempotent and can only raise recall.
    """
    adjusted = predictions.copy()
    edges = np.flatnonzero(np.diff(labels, prepend=0, append=0))
    for start, end in zip(edges[::2], edges[1::2]):
        if adjusted[start:end].any():
            adjusted[start:end] = 1
    return adjusted


def _roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via average ranks (ties count one half), the
    concordance over all (positive, negative) score pairs; needs both classes."""
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    # Average rank per distinct score value, ascending order, ranks start at 1.
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    avg_rank = (upper - counts + 1 + upper) / 2.0
    ranks = avg_rank[inverse]
    pos_rank_sum = ranks[labels == 1].sum()
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
    and the AUC of the raw scores; 0/0 counts as 0."""
    labels = _binary_array(labels, "labels")
    predictions = _binary_array(predictions, "predictions")
    scores = np.asarray(scores)
    if scores.dtype.kind not in "biuf":
        raise DataError(f"scores must be numbers, got {scores.dtype}")
    if scores.ndim != 1:
        raise DataError(f"scores must be 1-D, got shape {scores.shape}")
    n = len(labels)
    if len(predictions) != n or len(scores) != n:
        raise DataError(f"length mismatch: {n} labels, {len(predictions)} "
                        f"predictions, {len(scores)} scores")
    if not np.isfinite(scores).all():
        raise DataError("scores must be finite")
    if adjust:
        predictions = _point_adjust(labels, predictions)
    tp = int((labels & predictions).sum())
    fp = int(predictions.sum()) - tp
    fn = int(labels.sum()) - tp
    tn = n - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    auc = _roc_auc(labels, scores) if 0 < tp + fn < n else math.nan
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
