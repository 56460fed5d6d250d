"""Self-describing binary checkpoint container.

Layout (all integers little-endian):

    magic  b"CPSD"
    u32    format version
    u32    block count
    blocks, each:
        u8   kind  (M = matrix, S = scalar, T = text)
        u16  name length, then the utf-8 name
        M: u32 rows, u32 cols, rows*cols little-endian float64
        S: one little-endian float64
        T: u64 byte length, then utf-8 text

Block names are namespaced per stage (``temporal/w_out``) and written in a
fixed order, so identical training runs produce byte-identical files. Two
text blocks lead: ``config`` and ``topology``, the training topology in the
topology file format; loading against any other topology is an error. The
matrix blocks always start with the z-score statistics ``normalizer/mean``
and ``normalizer/std``. A version mismatch on load is an error, never a
silent migration.
Loading builds the stages from the stored config through
``pipeline.build_stages``, then shape-checks every block against them.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .config import PipelineConfig, config_to_text, parse_config_text
from .data import Normalizer, SensorTopology, format_topology
from .errors import ConfigError, DataError, reading
from .pipeline import TrainedPipeline, build_stages, named_stages

MAGIC = b"CPSD"
VERSION = 3


def _matrix_blocks(pipe: TrainedPipeline) -> list[tuple[str, np.ndarray]]:
    blocks = [("normalizer/mean", pipe.normalizer.mean.reshape(1, -1)),
              ("normalizer/std", pipe.normalizer.std.reshape(1, -1))]
    for prefix, stage in named_stages((pipe.temporal, pipe.vgae, pipe.svdd)):
        blocks.extend((f"{prefix}/{name}", p.value)
                      for name, p in stage.named_parameters())
    blocks.append(("detector/center", pipe.svdd.center.reshape(1, -1)))
    return blocks


def save_checkpoint(path, pipe: TrainedPipeline) -> None:
    matrices = _matrix_blocks(pipe)
    texts = [("config", config_to_text(pipe.config)),
             ("topology", format_topology(pipe.topology))]
    chunks = [MAGIC, struct.pack("<II", VERSION, len(texts) + len(matrices) + 1)]

    def write_name(kind: bytes, name: str) -> None:
        encoded = name.encode("utf-8")
        chunks.append(kind + struct.pack("<H", len(encoded)) + encoded)

    for name, text in texts:
        encoded = text.encode("utf-8")
        write_name(b"T", name)
        chunks.append(struct.pack("<Q", len(encoded)) + encoded)
    write_name(b"S", "detector/threshold")
    chunks.append(struct.pack("<d", pipe.threshold))
    for name, matrix in matrices:
        write_name(b"M", name)
        matrix = np.ascontiguousarray(matrix, dtype="<f8")
        chunks.append(struct.pack("<II", matrix.shape[0], matrix.shape[1]))
        chunks.append(matrix.tobytes())
    Path(path).write_bytes(b"".join(chunks))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.blob):
            raise DataError("truncated checkpoint")
        out = self.blob[self.pos:self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, count: int) -> str:
        try:
            return self.take(count).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"invalid utf-8 before byte {self.pos}") from None


def _read_blocks(path) -> dict[str, object]:
    reader = _Reader(Path(path).read_bytes())
    if reader.take(4) != MAGIC:
        raise DataError("not a checkpoint file")
    version, count = reader.unpack("<II")
    if version != VERSION:
        raise ConfigError(
            f"checkpoint format version {version} is not "
            f"supported (expected {VERSION})")
    blocks: dict[str, object] = {}
    for _ in range(count):
        kind = reader.take(1)
        (name_len,) = reader.unpack("<H")
        name = reader.text(name_len)
        if kind == b"M":
            rows, cols = reader.unpack("<II")
            payload = reader.take(rows * cols * 8)
            blocks[name] = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
        elif kind == b"S":
            (blocks[name],) = reader.unpack("<d")
        elif kind == b"T":
            (length,) = reader.unpack("<Q")
            blocks[name] = reader.text(length)
        else:
            raise DataError(f"unknown block kind {kind!r}")
    return blocks


def _block(blocks: dict, name: str):
    if name not in blocks:
        raise DataError(f"checkpoint is missing block {name!r}")
    return blocks[name]


def _shaped(blocks: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    stored = _block(blocks, name)
    if stored.shape != shape:
        raise DataError(
            f"checkpoint block {name!r} has shape {stored.shape}, "
            f"model expects {shape}")
    return stored


def load_checkpoint(path, topology: SensorTopology) -> TrainedPipeline:
    """Rebuild a trained pipeline; the topology must equal the training one.

    A malformed or mismatched checkpoint is a DataError, and a bad stored
    config a ConfigError; either names ``path``.
    """
    with reading(path):
        return _rebuild(_read_blocks(path), topology)


def _rebuild(blocks: dict, topology: SensorTopology) -> TrainedPipeline:
    if _block(blocks, "topology") != format_topology(topology):
        raise DataError("checkpoint was trained on another topology "
                        "(sensors, types or edges differ)")
    config = parse_config_text(_block(blocks, "config"), base=PipelineConfig())
    config.validate()

    normalizer = Normalizer(_shaped(blocks, "normalizer/mean", (1, topology.n))[0],
                            _shaped(blocks, "normalizer/std", (1, topology.n))[0])

    stages = build_stages(config, topology,
                          np.random.SeedSequence(config.run.seed).spawn(4))
    # Each block overwrites its initial draw in place: a per-head view
    # writes into its stage's stored stack.
    for prefix, stage in named_stages(stages):
        for name, param in stage.named_parameters():
            param.value[...] = _shaped(blocks, f"{prefix}/{name}", param.value.shape)
    net = stages[-1]
    net.center = _shaped(blocks, "detector/center", (1, net.widths[-1]))[0]
    net.trained = True
    return TrainedPipeline(config, topology, normalizer, *stages,
                           float(_block(blocks, "detector/threshold")))
