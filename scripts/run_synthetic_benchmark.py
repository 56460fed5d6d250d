#!/usr/bin/env python3
"""Train and evaluate pipeline variants on the reference synthetic benchmark.

Mirrors the ablation table: raw windows into the detector, temporal
embeddings only, the graph stages with and without edge weighting, and the
full pipeline. Prints timestamp-level metrics per variant: precision,
recall and F1 after point adjustment, the unadjusted F1 beside them, and AUC.
"""
import argparse
import copy
import time

from cpsdetect import benchmark, metrics, pipeline
from cpsdetect.benchmark import TRAIN_ROWS
from cpsdetect.data import generate_synthetic


def evaluate_variant(name, config, topology, values, labels):
    config = benchmark.apply_variant(copy.deepcopy(config), name)
    train_values, train_labels = values[:TRAIN_ROWS], labels[:TRAIN_ROWS]
    test_values, test_labels = values[TRAIN_ROWS:], labels[TRAIN_ROWS:]

    started = time.perf_counter()
    pipe = pipeline.train_pipeline(config, topology, train_values, train_labels)
    trained = time.perf_counter()
    segments, results = pipeline.score_stream(pipe, test_values)
    indices, scores, preds = pipeline.expand_to_timestamps(
        segments, results, pipe.threshold)
    done = time.perf_counter()

    report = metrics.evaluate_scores(test_labels[indices], scores,
                                     predictions=preds)
    raw = metrics.evaluate_scores(test_labels[indices], scores,
                                  predictions=preds, adjust=False)
    return report, raw.f1, trained - started, done - trained


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--variants", nargs="*", default=list(benchmark.VARIANTS),
                        choices=list(benchmark.VARIANTS))
    parser.add_argument("--seed", type=int, help="override both seeds")
    args = parser.parse_args()

    config = benchmark.benchmark_config()
    if args.seed is not None:
        config.run.seed = args.seed
        config.synthetic.seed = args.seed
    print(f"generating benchmark data (seed {config.synthetic.seed})")
    topology, values, labels = generate_synthetic(config.synthetic)
    print(f"{values.shape[0]} rows, {topology.n} sensors, "
          f"{labels.sum()} anomalous timestamps\n")

    rows = []
    for name in args.variants:
        report, f1_raw, train_s, score_s = evaluate_variant(
            name, config, topology, values, labels)
        rows.append((name, report, f1_raw, train_s, score_s))
        print(f"[{name}] f1={report.f1:.4f} f1_raw={f1_raw:.4f} "
              f"auc={report.auc:.4f} (train {train_s:.1f}s, score {score_s:.1f}s)\n")

    print(f"{'variant':<14} {'precision':>9} {'recall':>9} {'f1':>9} "
          f"{'f1_raw':>9} {'auc':>9} {'train_s':>8} {'score_s':>8}")
    for name, report, f1_raw, train_s, score_s in rows:
        print(f"{name:<14} {report.precision:>9.4f} {report.recall:>9.4f} "
              f"{report.f1:>9.4f} {f1_raw:>9.4f} {report.auc:>9.4f} "
              f"{train_s:>8.1f} {score_s:>8.1f}")


if __name__ == "__main__":
    main()
