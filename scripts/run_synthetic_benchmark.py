#!/usr/bin/env python3
"""Train and evaluate every pipeline variant over five run seeds and write
the quality table as JSON.

Each variant of ``benchmark.VARIANTS`` trains with the default epochs on the
first ``TRAIN_ROWS`` rows of the pinned benchmark stream (data seed 715) at
run seeds 20715, 101, 202, 303 and 404, and scores the rest. Per variant the
JSON holds, for F1 after point adjustment (``f1_adj``), unadjusted timestamp
F1 (``f1_raw``), AUC and training wall time (``train_wall_s``, uncorrected
``perf_counter`` seconds), the value at each run seed in seed order
(``runs``) and their ``mean``, ``min`` and ``max``. Trained bits depend on
BLAS threading: BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` is set, and the JSON records the
settings. Run from the repository root::

    PYTHONPATH=src python3 scripts/run_synthetic_benchmark.py --out BENCH.json
"""
import argparse
import json
import os
import platform
import time

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for name in THREAD_VARIABLES:
    os.environ.setdefault(name, "1")

import numpy as np  # noqa: E402  (after the thread settings)

from cpsdetect import benchmark, metrics, pipeline  # noqa: E402
from cpsdetect.benchmark import TRAIN_ROWS  # noqa: E402

RUN_SEEDS = (20_715, 101, 202, 303, 404)
METRICS = ("f1_adj", "f1_raw", "auc", "train_wall_s")


def run_variant(name, run_seed, topology, values, labels):
    """One training and scoring of a variant: its ``METRICS`` values."""
    config = benchmark.apply_variant(benchmark.benchmark_config(), name)
    config.run.seed = run_seed
    started = time.perf_counter()
    pipe = pipeline.train_pipeline(config, topology, values[:TRAIN_ROWS],
                                   labels[:TRAIN_ROWS])
    train_wall_s = time.perf_counter() - started
    indices, scores, predictions = pipeline.expand_to_timestamps(
        *pipeline.score_stream(pipe, values[TRAIN_ROWS:]), pipe.threshold)
    truth = labels[TRAIN_ROWS:][indices]
    adjusted = metrics.evaluate_scores(truth, scores, predictions=predictions)
    raw = metrics.evaluate_scores(truth, scores, predictions=predictions,
                                  adjust=False)
    return {"f1_adj": adjusted.f1, "f1_raw": raw.f1, "auc": adjusted.auc,
            "train_wall_s": train_wall_s}


def summary(runs):
    return {"runs": runs, "mean": float(np.mean(runs)),
            "min": min(runs), "max": max(runs)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--variants", nargs="*", default=list(benchmark.VARIANTS),
                        choices=list(benchmark.VARIANTS))
    parser.add_argument("--out", required=True, help="path of the JSON table")
    args = parser.parse_args()

    topology, values, labels = benchmark.benchmark_data()
    table = {}
    for name in args.variants:
        runs = {key: [] for key in METRICS}
        for seed in RUN_SEEDS:
            result = run_variant(name, seed, topology, values, labels)
            print(f"[{name} seed {seed}] " + " ".join(
                f"{key}={value:.4f}" for key, value in result.items()), flush=True)
            for key, value in result.items():
                runs[key].append(value)
        table[name] = {key: summary(runs[key]) for key in METRICS}

    report = {
        "data_seed": benchmark.benchmark_synthetic().seed,
        "run_seeds": list(RUN_SEEDS),
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__},
        "variants": table,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(f"\n{'variant':<14} {'f1_adj':>15} {'f1_raw':>15} {'auc':>15} "
          f"{'train_wall_s':>13}")
    for name, row in table.items():
        print(f"{name:<14} " + " ".join(
            f"{row[key]['mean']:.3f} [{row[key]['min']:.2f}-{row[key]['max']:.2f}]"
            for key in ("f1_adj", "f1_raw", "auc"))
            + f" {row['train_wall_s']['mean']:>13.1f}")


if __name__ == "__main__":
    main()
