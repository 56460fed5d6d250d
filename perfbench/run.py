#!/usr/bin/env python3
"""Run one cpsdetect benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 10 --trace 0

Run it from any directory of a source checkout; it imports ``cpsdetect`` from
the checkout's ``src/`` and fails (exit 2) when that is missing. It prints a
table of every metric with its unit, then, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they are
the per-layer ones of a separate traced run. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("train-full", "train-raw", "score-full")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> str:
    """Give BLAS and OpenMP one thread; effective only before numpy is imported.

    numpy's bundled OpenBLAS otherwise starts a thread per core. The harness
    runs on one thread, and child processes inherit the setting.
    """
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    return " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARIABLES) + \
        f" (nproc {os.cpu_count()})"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def print_table(report, trace: bool) -> None:
    print(f"{'metric':<30} {'value':>16}  unit")
    for name, (value, unit) in report.metrics.items():
        print(f"{name:<30} {value:>16.6g}  {unit}")
    if report.quality:
        q = report.quality
        print(f"quality: f1_adj {q['f1_adj']:.4f}  f1_raw {q['f1_raw']:.4f}  "
              f"auc {q['auc']:.4f}")
    if trace:
        print_layers(report.tracer)


def print_layers(tracer) -> None:
    layers = tracer.layers()
    print(f"\n{'span':<28} {'calls':>8} {'total_s':>10} {'self_s':>10}")
    for name, row in sorted(layers.items(), key=lambda item: -item[1]["self_s"]):
        print(f"{name:<28} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    if layers:
        dominant = max(layers, key=lambda name: layers[name]["self_s"])
        print(f"dominant layer (self time): {dominant}")
    for root in ("pipeline.train", "pipeline.score_stream"):
        total, children = tracer.children_of(root)
        if not total:
            continue
        print(f"{root}: {total:.3f} s, {sum(children.values()) / total:.1%} in "
              f"top-level layer spans: " + ", ".join(
                  f"{name} {seconds / total:.1%}" for name, seconds in
                  sorted(children.items(), key=lambda item: -item[1])))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cpsdetect" / "__init__.py").is_file():
        print(f"error: cpsdetect sources not found in {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, str(SRC))
    import cpsdetect
    import workloads

    if Path(cpsdetect.__file__).resolve().parent != (SRC / "cpsdetect").resolve():
        print(f"error: imported cpsdetect from {cpsdetect.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}")
    print(f"threads: {threads}")
    report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in report.notes:
        print(note)
    print_table(report, bool(args.trace))
    for problem in report.ledger.problems:
        print(f"FAILED {problem}")
    ledger = report.ledger
    print(json.dumps({
        "correct": ledger.failed == 0 and bool(report.metrics),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
