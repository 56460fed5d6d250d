#!/usr/bin/env python3
"""Print one content digest per benchmark variant, to check "same behaviour".

For each of ``benchmark.VARIANTS``, run ``benchmark.short_run``: train on
the first ``TRAIN_ROWS`` rows of the pinned benchmark stream with epochs
(temporal, vgae, svdd) = (1, 1, 300) and score the rest. Hash, in this
order, every array of the checkpoint listing ``checkpoint._arrays`` (its
utf-8 block name, then its ``<f8`` bytes; the listing ends with the center
and the threshold), the three outputs of ``expand_to_timestamps`` (indices
and predictions ``<i8``, scores ``<f8``) and the per-segment scores
(``<f8``).
Hashing the contents rather than a saved file keeps the digest stable when
only the checkpoint format changes. Beside it, after ``record``, the script
prints a digest of the training record ``pipe.record``: the utf-8 bytes of
``json.dumps(pipe.record)``, the ``run.json`` that ``train`` writes, with
its counts, per-epoch losses and threshold.

Each variant's pipeline is also saved to a temporary directory and loaded
back; the script exits 1, naming the variant, unless everything hashed
(stored arrays and test-stream scores) is bit for bit the same for the
loaded pipeline.

Two trees behave the same when they print the same digests on the same
host. The digests depend on BLAS threading, so compare runs made with the
same thread settings: BLAS runs on one thread unless
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` is
set, and the first line printed names the settings, e.g. ``threads:
OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 (nproc 2)``.
The second line, ``stream: <digest>``, hashes the pinned benchmark stream
the variants train and score on: the values (``<f8``), labels (``<i8``)
and topology adjacency (``<i8``) of ``benchmark.benchmark_data()``, so a
change of the generator shows apart from the models. Each variant's line
reads ``<variant>: <model digest> record <record digest>``. Run from the
repository root::

    PYTHONPATH=src python3 scripts/checkpoint_digests.py [variant ...]
"""
import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for name in THREAD_VARIABLES:
    os.environ.setdefault(name, "1")

import numpy as np  # noqa: E402  (after the thread settings)

from cpsdetect import benchmark, checkpoint, pipeline  # noqa: E402


def contents(pipe, segments, results) -> list[bytes]:
    """What the digest hashes, in order: every stored array (its utf-8
    block name, then its ``<f8`` bytes), the three outputs of
    ``expand_to_timestamps`` and the per-segment scores."""
    indices, scores, predictions = pipeline.expand_to_timestamps(
        segments, results, pipe.threshold)
    parts = []
    for block, array in checkpoint._arrays(pipe):
        parts += [block.encode("utf-8"),
                  np.ascontiguousarray(array, dtype="<f8").tobytes()]
    for array, dtype in ((indices, "<i8"), (scores, "<f8"), (predictions, "<i8"),
                         ([r.score for r in results], "<f8")):
        parts.append(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return parts


def stream_digest(topology, values, labels) -> str:
    """The digest of a stream: its values, labels and adjacency."""
    return hashlib.sha256(b"".join(
        np.ascontiguousarray(array, dtype=dtype).tobytes()
        for array, dtype in ((values, "<f8"), (labels, "<i8"),
                             (topology.adjacency, "<i8")))).hexdigest()


def digest(name: str, topology, values, labels) -> tuple[str, str]:
    """The model digest and the record digest of variant ``name``."""
    pipe, segments, results = benchmark.short_run(name, topology, values, labels)
    trained = contents(pipe, segments, results)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        checkpoint.save_checkpoint(path, pipe)
        loaded = checkpoint.load_checkpoint(path, pipe.topology)
    test = values[benchmark.TRAIN_ROWS:]
    if contents(loaded, *pipeline.score_stream(loaded, test)) != trained:
        print(f"{name}: the loaded checkpoint differs from the trained "
              "pipeline", file=sys.stderr)
        sys.exit(1)
    return (hashlib.sha256(b"".join(trained)).hexdigest(),
            hashlib.sha256(json.dumps(pipe.record).encode("utf-8")).hexdigest())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("variants", nargs="*", metavar="variant",
                        help=f"any of {', '.join(benchmark.VARIANTS)} (default: all)")
    args = parser.parse_args()
    unknown = sorted(set(args.variants) - set(benchmark.VARIANTS))
    if unknown:
        parser.error(f"unknown variants {unknown}")
    print("threads: " + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARIABLES)
          + f" (nproc {os.cpu_count()})", flush=True)
    topology, values, labels = benchmark.benchmark_data()
    print(f"stream: {stream_digest(topology, values, labels)}", flush=True)
    for name in args.variants or benchmark.VARIANTS:
        model, record = digest(name, topology, values, labels)
        print(f"{name}: {model} record {record}", flush=True)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # The reader closed the pipe (``| head -3``): stop without a
        # traceback, and point stdout at devnull so the interpreter's final
        # flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
