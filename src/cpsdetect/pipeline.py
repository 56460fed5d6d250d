"""Stage-wise training and scoring orchestration.

Training order: z-score the stream (scoring reuses the statistics), fit the
temporal encoder on next-window prediction over normal data, freeze it, embed
the normal segments once and build their weighted attributed graphs, fit the
graph autoencoder on those graphs, freeze it, then fit the hypersphere
detector on the node-major flattened posterior means of the same graphs and
calibrate the alarm threshold on a held-out slice of normal segments.
Ablation toggles swap a stage for the identity: raw window matrices stand in
for missing temporal embeddings, the binary adjacency for missing edge
weighting, and the flattened embeddings themselves for the missing graph
autoencoder, in which case no graph is built. Training and scoring both
work from window start rows (``data.segment_stream``), keep only the
z-scored stream, and walk it with ``segment_nodes``, the one part loop
outside the temporal fit: it gathers each ``autodiff.CHUNK`` part's windows
(``data.gather_windows``) when a step reads them and embeds them into the
part's node attributes, so no window stack is built. Training flags
anomalous windows and picks prediction pairs with its labels read at the
windows' rows. The temporal fit gathers its pairs part by part every epoch.
A graph is two plain arrays, its weighted adjacency
(``graphgen.weighted_graph``) and the node attributes it was built from.
With the VGAE, training turns each part's graphs into that part's
``vgae.propagate`` arrays at once, the fit reconstructs one target, the
topology's edges (``vgae.reconstruction_target``), and the posterior-mean
pass encodes the parts it fitted; without it, ``segment_features`` builds
the features. ``segment_features`` maps each part of ``segment_nodes`` to
its feature rows (through the part's graphs and posterior means when the
VGAE is on); training stacks them for the full-batch detector fit, scoring
scores each as it comes. ``score --dump-graphs`` walks ``segment_nodes``
again and writes each part's adjacencies. No fit records a graph: every
stage works on plain arrays, and its fit differentiates by hand
(``temporal.loss_and_gradients``, ``vgae.loss_and_gradients``,
``svdd.loss_and_gradients``) through the same ``encode`` or ``forward``
that ``segment_nodes``, ``segment_features`` and scoring call. Training
holds the z-scored stream until the VGAE's parts or the features exist,
and the VGAE's parts (about 1.5 times the stream's bytes at the default sizes)
until the posterior means exist; its peak is reached as the last part is
built. When scoring, the arrays that grow with the stream are the
normalized stream and the scores: the detector scores each part's features
as the part is built, which leaves the bits of one call over every window
(a row's score reads only that row; the tests check it at two part
sizes). ``score_stream`` returns one
``DetectionResult``, the window's score, per window; a window alarms when
its score is above the threshold, a rule that ``expand_to_timestamps`` and
the ``score`` command apply. A library caller's stream is
converted to float64 and checked where it enters: real numbers, 2-D, one
column per sensor, finite. Every numeric step of training and scoring runs
in a labelled ``numeric_context``.
Training and scoring differ in precision. Training fits and applies the
z-score statistics in float64, then casts the z-scored stream and every
parameter ``build_stages`` drew to ``FIT_DTYPE`` (float32) once; each pass
of training, from the temporal fit to the threshold's calibration, follows
its inputs' dtype, so the threshold is a quantile of float32 calibration
scores. The returned pipeline holds every parameter and the center as
float64, which keeps the float32 values exactly, and scoring runs in
float64. Float32 scoring would put a window scored alone about
1e-7 relative from the same window scored inside a whole stream, where
both must agree to 1e-9 (``MATCH_RTOL`` of the benchmark harness).
``build_stages`` alone decides which learned stages exist, their shapes
(from the config and topology only) and their initial draws' seeds; training
and checkpoint loading start from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .autodiff import chunks, numeric_context
from .config import PipelineConfig
from .data import (Normalizer, Segments, SensorTopology, apply_normalizer,
                   fit_normalizer, gather_windows, segment_stream, window_rows)
from .errors import DataError
from .graphgen import weighted_graph
from .metrics import _binary_array
from .svdd import SvddNet, calibrate_threshold, train_svdd
from .temporal import TemporalEncoder, train_temporal
from .vgae import VgaeEncoder, propagate, reconstruction_target, train_vgae

# The dtype of every training pass: float32 runs the fits' matrix products
# and elementwise steps up to about twice as fast as float64, and a full
# training about a third faster. Scoring stays float64 (module docstring).
FIT_DTYPE = np.float32


@dataclass
class TrainedPipeline:
    config: PipelineConfig
    topology: SensorTopology
    normalizer: Normalizer
    temporal: TemporalEncoder | None
    vgae: VgaeEncoder | None
    svdd: SvddNet
    threshold: float
    record: dict | None = None


@dataclass
class DetectionResult:
    """One window's anomaly score."""

    score: float


def build_stages(config: PipelineConfig, topology: SensorTopology,
                 seeds: Sequence[np.random.SeedSequence]
                 ) -> tuple[TemporalEncoder | None, VgaeEncoder | None, SvddNet]:
    """The untrained (temporal, vgae, svdd) stages the config enables, drawn
    from ``seeds`` 0, 1 and 3; seed 2 is the VGAE's sampling noise."""
    t, v = config.temporal, config.vgae
    temporal = vgae = None
    width = config.window.length
    if t.enabled:
        temporal = TemporalEncoder(topology.n, width, t.heads, t.head_dim,
                                   t.model_dim, np.random.default_rng(seeds[0]))
        width = t.model_dim
    if v.enabled:
        vgae = VgaeEncoder(width, v.hidden_dim, v.embed_dim,
                           np.random.default_rng(seeds[1]), kl_weight=v.kl_weight)
        width = v.embed_dim
    svdd = SvddNet(topology.n * width, config.svdd.widths, config.svdd.slope,
                   np.random.default_rng(seeds[3]))
    return temporal, vgae, svdd


def _cast_stages(stages: Iterable, dtype: type) -> None:
    """Cast every parameter of the built stages to ``dtype``."""
    for stage in stages:
        if stage is not None:
            for _, param in stage.named_parameters():
                param.value = param.value.astype(dtype)


def _checked_stream(values, topology: SensorTopology) -> np.ndarray:
    """A stream from a library caller as a float64 array, checked to be
    real, (rows x sensors) and finite. A float64 array is returned as it
    is."""
    try:
        # The float64 cast would drop a complex stream's imaginary part.
        if np.iscomplexobj(values):
            raise TypeError("its values are complex")
        values = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise DataError(f"stream is not an array of numbers: {err}") from None
    if values.ndim != 2:
        raise DataError(
            f"stream must be 2-D (rows x sensors), got shape {values.shape}")
    if values.shape[1] != topology.n:
        raise DataError(
            f"stream has {values.shape[1]} columns, topology has {topology.n} sensors")
    if not np.isfinite(values).all():
        row, column = np.argwhere(~np.isfinite(values))[0]
        raise DataError(f"non-finite value at row {row}, column "
                        f"{topology.names[column]!r}")
    return values


def _in_parts(parts: Iterable[np.ndarray], count: int) -> np.ndarray:
    """Consecutive parts of ``count`` rows in all, each written into its
    rows of one stack as it arrives: only that stack grows with ``count``.
    A first part of every row is returned as it is."""
    parts = iter(parts)
    first = next(parts)
    if len(first) == count:
        return first
    stack = np.empty((count,) + first.shape[1:], dtype=first.dtype)
    stack[:len(first)] = first
    end = len(first)
    for value in parts:
        stack[end:end + len(value)] = value
        end += len(value)
    return stack


def segment_nodes(config: PipelineConfig, temporal: TemporalEncoder | None,
                  values: np.ndarray, starts: np.ndarray) -> Iterator[np.ndarray]:
    """The node attributes of each window of ``config.window.length`` rows
    of a z-scored stream, one at each row of ``starts``: its (nodes x dim)
    embedding, or the raw window without a temporal stage.

    They come in consecutive (windows x nodes x dim) parts of
    ``autodiff.CHUNK`` windows, in window order, each built when the next
    part is asked for: its windows are gathered from the stream and
    embedded once. So nothing here grows with the number of windows.
    """
    length = config.window.length
    for rows in chunks(len(starts)):
        windows = gather_windows(values, starts[rows], length)
        yield windows if temporal is None else temporal.encode(windows)


def segment_features(config: PipelineConfig, topology: SensorTopology,
                     temporal: TemporalEncoder | None,
                     vgae_encoder: VgaeEncoder | None,
                     values: np.ndarray, starts: np.ndarray) -> Iterator[np.ndarray]:
    """One feature row per window of ``segment_nodes``, in its parts, through
    the enabled stages: each window's (nodes x dim) matrix flattened
    node-major. Graphs are built only for the graph autoencoder, whose
    posterior means (no samples) are flattened. Training stacks the parts,
    scoring scores each part as it comes.
    """
    for nodes in segment_nodes(config, temporal, values, starts):
        if vgae_encoder is not None:
            nodes = vgae_encoder.encode(propagate(weighted_graph(
                topology, nodes, config.graph.weighting), nodes))
        yield nodes.reshape(len(nodes), -1)


@numeric_context("[train]")
def train_pipeline(config: PipelineConfig, topology: SensorTopology,
                   values: np.ndarray, labels: np.ndarray) -> TrainedPipeline:
    """Run all enabled training stages on one stream and calibrate; the
    result's ``record`` is the ``run.json`` that ``data.py`` describes."""
    config.validate()
    topology.validate()
    values = _checked_stream(values, topology)
    labels = _binary_array(labels, "labels")
    if len(labels) != len(values):
        raise DataError(f"{len(labels)} labels for a stream of {len(values)} rows")

    if config.run.train_fraction < 1.0:
        keep = max(int(round(values.shape[0] * config.run.train_fraction)), 1)
        values, labels = values[:keep], labels[:keep]

    with numeric_context("[data] normalizer"):
        normalizer = fit_normalizer(values)
        values = apply_normalizer(normalizer, values).astype(FIT_DTYPE)

    length = config.window.length
    segments = segment_stream(values, length, config.window.stride)
    anomalous = labels[segments.rows].any(axis=1)
    normal = segments.starts[~anomalous]
    count = len(normal)
    if count < 2:
        raise DataError(f"need 2 normal training windows, one to fit the detector "
                        f"and one to calibrate it; {count} remain after filtering")
    record = {"data": {
        "rows": len(values), "anomalous_rows": int(labels.sum()),
        "windows": len(segments), "anomalous_windows": int(anomalous.sum()),
        "normal_windows": count, "window_length": length}}

    seeds = np.random.SeedSequence(config.run.seed).spawn(4)
    temporal, vgae_encoder, net = build_stages(config, topology, seeds)
    _cast_stages((temporal, vgae_encoder, net), FIT_DTYPE)

    if temporal is not None:
        # A pair is a normal window and the `length` rows right after it,
        # which must lie in the stream and hold no anomalous row.
        pairs = normal[normal + 2 * length <= len(values)]
        pairs = pairs[~labels[window_rows(pairs + length, length)].any(axis=1)]
        if not pairs.size:
            raise DataError("no normal (window, successor) pairs for "
                            "prediction training; need a longer stream")
        record["temporal"] = {"samples": int(pairs.size), "loss": train_temporal(
            temporal, values, pairs, config.temporal.epochs, config.temporal.lr)}

    # A stage's first pass after its fit is where weights that its last
    # Adam step made huge overflow, so that pass names the stage.
    if vgae_encoder is not None:
        with numeric_context("[temporal] after training"):
            parts = [propagate(weighted_graph(topology, nodes, config.graph.weighting),
                               nodes)
                     for nodes in segment_nodes(config, temporal, values, normal)]
        del values  # the VGAE and the detector read only the parts
        with numeric_context("[vgae]"):
            record["vgae"] = {
                "samples": count, "attribute_dim": vgae_encoder.input_dim,
                "loss": train_vgae(vgae_encoder, parts,
                                   reconstruction_target(topology.adjacency
                                                         ).astype(FIT_DTYPE),
                                   config.vgae.epochs, config.vgae.lr,
                                   np.random.default_rng(seeds[2]))}
        with numeric_context("[vgae] after training"):
            means = _in_parts(map(vgae_encoder.encode, parts), count)
        del parts  # the detector reads only the posterior means
        features = means.reshape(count, -1)
    else:
        with numeric_context("[temporal] after training"):
            features = _in_parts(segment_features(config, topology, temporal, None,
                                                  values, normal), count)
        del values  # the detector reads only the features

    # The threshold is calibrated on windows the detector was not fit on.
    split = min(count - 1, max(1, round(count * (1.0 - config.run.calibration_fraction))))
    fit_features, calibration_features = features[:split], features[split:]

    with numeric_context("[svdd]"):
        net.init_center(fit_features)
    loss = train_svdd(net, fit_features, config.svdd.epochs, config.svdd.lr,
                      config.svdd.weight_decay)
    with numeric_context("[svdd] after training"):
        threshold = calibrate_threshold(net, calibration_features,
                                        config.svdd.quantile)
    _cast_stages((temporal, vgae_encoder, net), np.float64)
    net.center = net.center.astype(np.float64)
    record["svdd"] = {"samples": len(fit_features), "input_dim": features.shape[1],
                      "calibration_samples": len(calibration_features), "loss": loss,
                      "quantile": config.svdd.quantile, "threshold": threshold}

    return TrainedPipeline(config, topology, normalizer, temporal,
                           vgae_encoder, net, threshold, record)


@numeric_context("[score]")
def score_stream(pipe: TrainedPipeline, values: np.ndarray
                 ) -> tuple[Segments, list[DetectionResult]]:
    """Segment and score a stream with a trained pipeline.

    Streams shorter than one window yield empty segments (and no error), so
    header-only outputs are possible downstream. A stream that is not
    numbers, not (rows x sensors) or holds a non-finite value is a
    ``DataError``. The normalized stream and the scores are whole-stream
    arrays; the windows, embeddings, graphs, features and detector layers
    exist for ``autodiff.CHUNK`` windows at a time, gathered from the
    normalized stream by ``segment_nodes`` and scored part by part.
    """
    config = pipe.config
    values = _checked_stream(values, pipe.topology)
    length = config.window.length
    if values.shape[0] < length:
        return Segments(np.arange(0), length), []
    values = apply_normalizer(pipe.normalizer, values)
    segments = segment_stream(values, length, config.window.stride)
    scores = _in_parts(map(pipe.svdd.scores, segment_features(
        config, pipe.topology, pipe.temporal, pipe.vgae, values, segments.starts)),
        len(segments))
    return segments, [DetectionResult(float(s)) for s in scores]


def expand_to_timestamps(segments: Segments,
                         results: Sequence[DetectionResult],
                         threshold: float
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-timestamp scores over the covered span.

    A timestamp covered by several (overlapping) segments takes the maximum
    segment score; its prediction is the strict threshold comparison, which
    equals the OR of the covering segments' predictions.
    """
    scores = np.full(segments.ends.max(initial=0), -np.inf)
    np.maximum.at(scores, segments.rows,
                  np.array([r.score for r in results])[:, None])
    indices = np.flatnonzero(np.isfinite(scores))
    scores = scores[indices]
    predictions = (scores > threshold).astype(np.int64)
    return indices, scores, predictions
