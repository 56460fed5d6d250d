"""Command-line entry point.

Subcommands: ``synth`` (generate a labeled synthetic dataset), ``train``
(stage-wise pipeline training to a checkpoint, its training record to
``run.json`` in the output directory, and one line per stage of it to
stdout), ``score`` (per-segment and per-timestamp anomaly scores),
``evaluate`` (run-adjusted and unadjusted metrics from score and label files).

Every configuration field can be overridden with ``--set section.key=value``,
an ablation too (``--set vgae.enabled=false``). Only the paths, the seed and
``synth``'s anomaly spec and split also have dedicated flags. Exit codes: 0
success, 1 usage or configuration error (a setting that sizes an array
beyond memory too, reported with numpy's message), 2 data error (an input
that is malformed, unreadable or not utf-8), 3 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import data as data_mod
from . import metrics as metrics_mod
from . import pipeline as pipeline_mod
from .autodiff import numeric_context
from .config import (PipelineConfig, apply_setting, load_config,
                     parse_anomaly_spec)
from .errors import ConfigError, DataError, NumericError, reading
from .graphgen import weighted_graph


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to exit code 1
        raise ConfigError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                        help="override any config field, repeatable")


def build_parser() -> _Parser:
    parser = _Parser(prog="cpsdetect",
                     description="Anomaly detection for networked sensor streams.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    synth = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    _add_common(synth)
    synth.add_argument("--anomalies",
                       help="anomaly spec, kind:start:duration:sensor[:magnitude] "
                            "joined with |")
    synth.add_argument("--split", type=int,
                       help="row index separating train.csv from test.csv")

    train = sub.add_parser("train", help="train the pipeline to a checkpoint")
    _add_common(train)
    train.add_argument("--data", help="training stream CSV")
    train.add_argument("--topology", help="sensor topology file")
    train.add_argument("--checkpoint", help="checkpoint output path")

    score = sub.add_parser("score", help="score a stream with a checkpoint")
    _add_common(score)
    score.add_argument("--data", help="stream CSV to score")
    score.add_argument("--topology", help="sensor topology file")
    score.add_argument("--checkpoint", help="checkpoint path")
    score.add_argument("--dump-graphs", action="store_true",
                       help="write each segment's weighted adjacency as CSV")

    evaluate = sub.add_parser("evaluate", help="metrics from score + label files")
    _add_common(evaluate)
    evaluate.add_argument("--scores", help="timestamps.csv or segments.csv from score")
    evaluate.add_argument("--data", help="labeled stream CSV")
    evaluate.add_argument("--granularity", choices=("timestamp", "segment"),
                          default="timestamp")
    return parser


def _build_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    for override in args.set:
        if "=" not in override or "." not in override.split("=", 1)[0]:
            raise ConfigError(f"--set needs section.key=value, got {override!r}")
        target, value = override.split("=", 1)
        section, key = target.strip().split(".", 1)
        apply_setting(config, section.strip(), key.strip(), value.strip())
    if args.seed is not None:
        config.run.seed = args.seed
        config.synthetic.seed = args.seed
    if args.out is not None:
        config.paths.out = args.out
    for name in ("data", "topology", "checkpoint"):
        if getattr(args, name, None):
            setattr(config.paths, name, getattr(args, name))
    return config


def _out_dir(config: PipelineConfig) -> Path:
    out = Path(config.paths.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(value: str, what: str, flag: str) -> str:
    if not value:
        raise ConfigError(f"{what} is required (use {flag} or the config file)")
    return value


def cmd_synth(args) -> int:
    config = _build_config(args)
    synth = config.synthetic
    if args.anomalies is not None:
        synth.anomalies = parse_anomaly_spec(args.anomalies)
    if args.split is not None:
        synth.split = args.split
    topology, values, labels = data_mod.generate_synthetic(synth)
    out = _out_dir(config)
    data_mod.save_topology(out / "topology.txt", topology)
    if synth.split is not None:
        data_mod.save_csv(out / "train.csv", topology, values[:synth.split],
                          labels[:synth.split])
        data_mod.save_csv(out / "test.csv", topology,
                          values[synth.split:], labels[synth.split:],
                          timestamps=range(synth.split, synth.length))
        written = "train.csv + test.csv"
    else:
        data_mod.save_csv(out / "data.csv", topology, values, labels)
        written = "data.csv"
    fraction = labels.sum() / len(labels)
    print(f"wrote {written} and topology.txt to {out}")
    print(f"rows={len(labels)} sensors={topology.n} anomaly_fraction={fraction:.4f}")
    return 0


def cmd_train(args) -> int:
    config = _build_config(args)
    topology = data_mod.load_topology(
        _require(config.paths.topology, "a topology file", "--topology"))
    values, labels = data_mod.load_csv(
        _require(config.paths.data, "a training CSV", "--data"), topology)
    print(f"loaded {len(values)} rows x {topology.n} sensors")

    pipe = pipeline_mod.train_pipeline(config, topology, values, labels)
    out = _out_dir(config)
    ckpt_path = Path(config.paths.checkpoint or out / "model.ckpt")
    ckpt.save_checkpoint(ckpt_path, pipe)
    (out / "run.json").write_text(json.dumps(pipe.record), encoding="utf-8")
    for stage, entry in pipe.record.items():
        fields = {key: value for key, value in entry.items() if key != "loss"}
        if "loss" in entry:
            loss = entry["loss"][:1] + entry["loss"][-1:]
            fields.update(epochs=len(entry["loss"]),
                          loss="->".join(f"{value:.6f}" for value in loss))
        print(f"[{stage}]", *(f"{key}={value}" for key, value in fields.items()))
    print(f"checkpoint written to {ckpt_path}, training record to {out / 'run.json'}")
    return 0


@numeric_context("[score]")
def cmd_score(args) -> int:
    config = _build_config(args)
    topology = data_mod.load_topology(
        _require(config.paths.topology, "a topology file", "--topology"))
    pipe = ckpt.load_checkpoint(
        _require(config.paths.checkpoint, "a checkpoint", "--checkpoint"), topology)
    values, _ = data_mod.load_csv(
        _require(config.paths.data, "a data CSV", "--data"), topology)
    segments, results = pipeline_mod.score_stream(pipe, values)
    out = _out_dir(config)

    scores = np.array([r.score for r in results])
    data_mod.write_columns(out / "segments.csv", {
        "segment": range(len(segments)), "start": segments.starts,
        "end": segments.ends, "score": scores,
        "threshold": np.full(len(segments), pipe.threshold),
        "predicted": scores > pipe.threshold})

    indices, ts_scores, ts_preds = pipeline_mod.expand_to_timestamps(
        segments, results, pipe.threshold)
    data_mod.write_columns(out / "timestamps.csv", {
        "index": indices, "score": ts_scores, "predicted": ts_preds})

    if args.dump_graphs and len(segments):
        graph_dir = out / "graphs"
        graph_dir.mkdir(exist_ok=True)
        values = data_mod.apply_normalizer(pipe.normalizer, values)
        parts = pipeline_mod.segment_nodes(pipe.config, pipe.temporal, values,
                                           segments.starts)
        graphs = (graph for nodes in parts
                  for graph in weighted_graph(topology, nodes, pipe.config.graph.weighting))
        for i, adjacency in enumerate(graphs):
            np.savetxt(graph_dir / f"graph_{i:05d}.csv", adjacency, delimiter=",")

    flagged = int((scores > pipe.threshold).sum())
    print(f"scored {len(segments)} segments ({flagged} flagged) "
          f"over {len(indices)} timestamps; outputs in {out}")
    return 0


def cmd_evaluate(args) -> int:
    config = _build_config(args)
    scores_path = _require(args.scores or "", "a score CSV", "--scores")
    data_path = _require(args.data or config.paths.data, "a labeled CSV", "--data")
    labels = data_mod.load_labels(data_path)

    # A timestamp row covers rows [index, index + 1), a segment row [start, end).
    span = ["index"] if args.granularity == "timestamp" else ["start", "end"]
    table = data_mod.read_columns(scores_path, {
        **dict.fromkeys(span, np.int64), "score": data_mod.finite,
        "predicted": np.int64})
    starts = table[span[0]]
    ends = table["end"] if "end" in table else starts + 1
    with reading(scores_path):
        if not len(starts):
            raise DataError("no score rows to evaluate")
        outside = np.flatnonzero((starts < 0) | (ends <= starts) | (ends > len(labels)))
        if outside.size:
            i = outside[0]
            raise DataError(f"score row span [{starts[i]}, {ends[i]}) is empty or "
                            f"outside the {len(labels)} labeled rows")
        values, counts = np.unique(starts, return_counts=True)
        if (counts > 1).any():
            raise DataError(f"{span[0]} {values[counts > 1][0]} appears in "
                            f"more than one score row")
        covered = np.concatenate([[0], np.cumsum(labels)])
        reports = [metrics_mod.evaluate_scores(
            (covered[ends] > covered[starts]).astype(np.int64), table["score"],
            table["predicted"], adjust=adjust) for adjust in (True, False)]
    out = _out_dir(config)
    text = metrics_mod.report_text(*reports)
    (out / "metrics.txt").write_text(text, encoding="utf-8")
    (out / "metrics.kv").write_text(metrics_mod.report_keyvalues(*reports),
                                    encoding="utf-8")
    print(text, end="")
    print(f"metric files written to {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    commands = {"synth": cmd_synth, "train": cmd_train,
                "score": cmd_score, "evaluate": cmd_evaluate}
    try:
        args = parser.parse_args(argv)
        return commands[args.command](args)
    except (ConfigError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (DataError, OSError, UnicodeDecodeError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
