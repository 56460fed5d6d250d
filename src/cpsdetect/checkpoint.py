"""Self-describing binary checkpoint container.

Layout (all integers little-endian):

    magic  b"CPSD"
    u32    format version (5)
    u32    block count
    blocks, each:
        u8   kind  (T = text, A = array)
        u16  name length, then the utf-8 name
        T: u64 byte length, then utf-8 text
        A: u8 ndim, ndim u32 dims, then the little-endian float64 values

Two text blocks lead: ``config``, the settings the model reads as
``config_to_text`` writes them (no ``paths`` or ``synthetic`` section), and
``topology``, the training topology in the topology file format; loading
against any other topology is an error.
The array blocks follow in the order of ``_arrays``, the one listing of
stored values: the z-score statistics, each enabled stage's parameters
under its prefix (``temporal/w_out``), the hypersphere center and the 0-d
threshold, each in its own shape; the temporal projections
(``temporal/w_query``, ``w_key``, ``w_value``) are (window x heads *
head_dim), head h in the h-th column block. Training fits in float32
(``pipeline.FIT_DTYPE``), so every stored parameter, the center and the
threshold hold float32-representable values; they are stored, loaded and
scored as float64 like the z-score statistics, and the format does not
depend on the fits' dtype. Identical training runs write identical
files. Loading builds the stages from the stored config through
``pipeline.build_stages`` and writes each block, shape-checked, into the
array the listing names. A non-finite value, or a std below the floor that
``fit_normalizer`` keeps, is an error that names its block. The reader
accepts what ``save_checkpoint`` writes, and a config block that also
holds ``paths`` and ``synthetic`` sections; anything else, a version
mismatch included, is an error, never a silent migration.
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .config import config_to_text, parse_config_text
from .data import STD_FLOOR, Normalizer, SensorTopology, format_topology
from .errors import ConfigError, DataError, reading
from .pipeline import TrainedPipeline, build_stages

MAGIC = b"CPSD"
VERSION = 5


def _arrays(pipe: TrainedPipeline) -> list[tuple[str, np.ndarray]]:
    """Every stored array by block name, in file order. The statistics, the
    parameters and the center are the pipeline's own arrays; the threshold
    is a 0-d copy of the float."""
    arrays = [("normalizer/mean", pipe.normalizer.mean),
              ("normalizer/std", pipe.normalizer.std)]
    for prefix, stage in (("temporal", pipe.temporal), ("vgae", pipe.vgae),
                          ("svdd", pipe.svdd)):
        if stage is not None:
            arrays.extend((f"{prefix}/{name}", p.value)
                          for name, p in stage.named_parameters())
    arrays.append(("detector/center", pipe.svdd.center))
    arrays.append(("detector/threshold", np.array(pipe.threshold)))
    return arrays


def save_checkpoint(path, pipe: TrainedPipeline) -> None:
    texts = [("config", config_to_text(pipe.config)),
             ("topology", format_topology(pipe.topology))]
    arrays = _arrays(pipe)
    chunks = [MAGIC, struct.pack("<II", VERSION, len(texts) + len(arrays))]

    def write_name(kind: bytes, name: str) -> None:
        encoded = name.encode("utf-8")
        chunks.append(kind + struct.pack("<H", len(encoded)) + encoded)

    for name, text in texts:
        encoded = text.encode("utf-8")
        write_name(b"T", name)
        chunks.append(struct.pack("<Q", len(encoded)) + encoded)
    for name, array in arrays:
        array = np.asarray(array, dtype="<f8")
        write_name(b"A", name)
        chunks.append(struct.pack(f"<B{array.ndim}I", array.ndim, *array.shape))
        chunks.append(array.tobytes())
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


def _read_blocks(path) -> dict[str, str | np.ndarray]:
    reader = _Reader(Path(path).read_bytes())
    if reader.take(4) != MAGIC:
        raise DataError("not a checkpoint file")
    version, count = reader.unpack("<II")
    if version != VERSION:
        raise ConfigError(
            f"checkpoint format version {version} is not "
            f"supported (expected {VERSION})")
    blocks: dict[str, str | np.ndarray] = {}
    for _ in range(count):
        kind = reader.take(1)
        (name_len,) = reader.unpack("<H")
        name = reader.text(name_len)
        if name in blocks:
            raise DataError(f"checkpoint repeats block {name!r}")
        if kind == b"A":
            (ndim,) = reader.unpack("<B")
            shape = reader.unpack(f"<{ndim}I")
            payload = reader.take(8 * math.prod(shape))
            blocks[name] = np.frombuffer(payload, dtype="<f8").reshape(shape)
        elif kind == b"T":
            (length,) = reader.unpack("<Q")
            blocks[name] = reader.text(length)
        else:
            raise DataError(f"unknown block kind {kind!r}")
    if reader.pos != len(reader.blob):
        raise DataError(f"trailing bytes after the last block, from byte {reader.pos}")
    return blocks


def _block(blocks: dict, name: str, kind: type):
    if name not in blocks:
        raise DataError(f"checkpoint is missing block {name!r}")
    if not isinstance(blocks[name], kind):
        raise DataError(f"checkpoint block {name!r} is of the wrong kind")
    return blocks[name]


def load_checkpoint(path, topology: SensorTopology) -> TrainedPipeline:
    """Rebuild a trained pipeline; the topology must equal the training one.

    A malformed or mismatched checkpoint is a DataError, and a bad stored
    config a ConfigError; either names ``path``.
    """
    with reading(path):
        return _rebuild(_read_blocks(path), topology)


def _rebuild(blocks: dict, topology: SensorTopology) -> TrainedPipeline:
    if _block(blocks, "topology", str) != format_topology(topology):
        raise DataError("checkpoint was trained on another topology "
                        "(sensors, types or edges differ)")
    config = parse_config_text(_block(blocks, "config", str))
    config.validate()
    stages = build_stages(config, topology,
                          np.random.SeedSequence(config.run.seed).spawn(4))
    net = stages[-1]
    net.center = np.zeros(net.widths[-1])
    normalizer = Normalizer(np.zeros(topology.n), np.zeros(topology.n))
    pipe = TrainedPipeline(config, topology, normalizer, *stages, 0.0)
    arrays = _arrays(pipe)
    listed = dict(arrays).keys() | {"config", "topology"}
    for name in blocks:
        if name not in listed:
            raise DataError(f"checkpoint block {name!r} is not part of the "
                            "model its config describes")
    # Each block overwrites its array in place: a stage's initial draw, a
    # zeroed statistic or center, or the threshold's 0-d copy.
    for name, array in arrays:
        stored = _block(blocks, name, np.ndarray)
        if stored.shape != array.shape:
            raise DataError(
                f"checkpoint block {name!r} has shape {stored.shape}, "
                f"model expects {array.shape}")
        if not np.isfinite(stored).all():
            raise DataError(f"checkpoint block {name!r} holds a non-finite value")
        array[...] = stored
    if (normalizer.std < STD_FLOOR).any():
        raise DataError(f"checkpoint block 'normalizer/std' is below {STD_FLOOR}")
    pipe.threshold = float(arrays[-1][1])
    return pipe
