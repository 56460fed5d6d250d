"""Stream ingestion, windowing, and the labeled synthetic benchmark generator.

Tables are UTF-8 CSV with a header row, read by ``read_columns`` (blank rows
skipped, other columns ignored) and written by ``write_columns`` (floats as
``repr(float(x))``, which reads back bit-exactly, other cells as ``int(x)``).
A read error is a DataError naming the file and, for a missing or repeated
column, a short row or a rejected cell, the file line and the column.

* stream CSV (``data.csv``, ``train.csv``, ``test.csv``): one float column
  per topology sensor, named as the sensor; ``nan``, ``inf`` or text is an
  error. An optional ``label`` column holds ``0``/``0.0``/``Normal`` or
  ``1``/``1.0``/``Attack`` in any case, anything else is an error; without
  it every row is normal. ``synth``'s int ``timestamp`` column is ignored.
* ``timestamps.csv``: int ``index`` (a stream row), float ``score`` (the
  maximum over the windows covering it), 0/1 ``predicted``.
* ``segments.csv``: int ``segment``, ``start`` and ``end`` (rows ``[start,
  end)``), float ``score`` and ``threshold``, 0/1 ``predicted``.
* ``run.json`` (written by ``train``): the training record, one object
  per stage. ``data``: ``rows`` trained on, ``anomalous_rows``, ``windows``,
  ``anomalous_windows``, ``normal_windows``, ``window_length``. ``temporal``
  and ``vgae`` when enabled, and ``svdd``: ``samples`` (prediction pairs,
  graphs, fit rows) and the per-epoch ``loss`` list; ``vgae`` adds
  ``attribute_dim``, ``svdd`` adds ``input_dim``, ``calibration_samples``,
  ``quantile`` and ``threshold``. Floats read back bit-exactly.

``evaluate`` rejects a fractional ``index``, ``start``, ``end`` or
``predicted``, a non-finite ``score``, a ``predicted`` other than 0/1, a
repeated ``index`` or ``start``, and a row whose span, ``[index, index + 1)``
or ``[start, end)``, is empty or outside the labeled rows.

The topology file is line oriented: ``sensor <name> <type>`` lines (not
``label``, the CSV's label column), then ``edge <nameA> <nameB>`` lines;
blank lines and ``#`` comments allowed.
``segment_stream`` cuts a stream into windows and returns them as
``Segments``, an index of start rows that copies nothing; ``window_rows``
gives the (windows x length) index of the rows windows cover, with which
labels are read, and ``gather_windows`` copies the windows at any starts out
of the stream, so a caller holds a few windows at a time, never a stack of
every window.

The synthetic generator holds one stream-sized array: the clean stream is
made in place and ``inject_anomalies`` adds the events into it, after
``column_std`` has taken each sensor's std in blocks of ``STD_BLOCK`` rows.
Its settings live in ``config`` (``SyntheticConfig``, whose ``validate``
``generate_synthetic`` runs first); nothing here refuses a setting.
"""
from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .autodiff import carried_sum
from .errors import DataError, reading

STD_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# topology


@dataclass
class SensorTopology:
    """Static sensor set: names, binary adjacency, and type assignment."""

    names: list[str]
    adjacency: np.ndarray
    type_of: np.ndarray
    type_names: list[str]

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def type_count(self) -> int:
        return len(self.type_names)

    @cached_property
    def type_members(self) -> np.ndarray:
        """(types x largest type size) sensor indices: row ``k`` lists type
        ``k``'s sensors in index order, padded with ``n`` (one past the last
        sensor). Built once per topology."""
        counts = np.bincount(self.type_of, minlength=self.type_count)
        members = np.full((self.type_count, counts.max()), self.n)
        for k, row in enumerate(members):
            sensors = np.flatnonzero(self.type_of == k)
            row[:len(sensors)] = sensors
        return members

    def validate(self) -> None:
        a = self.adjacency
        if a.shape != (self.n, self.n):
            raise DataError(f"adjacency shape {a.shape} does not match {self.n} sensors")
        if not np.isin(a, (0, 1)).all():
            raise DataError("adjacency entries must be 0 or 1")
        if not np.array_equal(a, a.T):
            raise DataError("adjacency must be symmetric")
        if np.diag(a).any():
            raise DataError("adjacency must have a zero diagonal")
        if len(self.type_of) != self.n:
            raise DataError("every sensor needs exactly one type")
        used = set(int(t) for t in self.type_of)
        expected = set(range(self.type_count))
        if used != expected:
            raise DataError(
                f"type indices used {sorted(used)} do not cover 0..{self.type_count - 1}")

    def hop_distances(self, source: int) -> np.ndarray:
        """BFS hop counts from ``source``; unreachable sensors get -1."""
        dist = np.full(self.n, -1, dtype=np.int64)
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in np.flatnonzero(self.adjacency[u]):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(int(v))
        return dist


def parse_topology(text: str) -> SensorTopology:
    names: list[str] = []
    type_names: list[str] = []
    sensor_type: dict[str, str] = {}
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "sensor" and len(parts) == 3:
            _, name, tname = parts
            if name in sensor_type:
                raise DataError(f"line {lineno}: duplicate sensor {name!r}")
            if name == "label":
                raise DataError(f"line {lineno}: a sensor cannot be named 'label'")
            sensor_type[name] = tname
            names.append(name)
            if tname not in type_names:
                type_names.append(tname)
        elif parts[0] == "edge" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        else:
            raise DataError(f"line {lineno}: cannot parse topology line {raw!r}")
    if not names:
        raise DataError("topology defines no sensors")
    index = {name: i for i, name in enumerate(names)}
    adjacency = np.zeros((len(names), len(names)), dtype=np.int64)
    for a, b in edges:
        if a not in index:
            raise DataError(f"edge references unknown sensor {a!r}")
        if b not in index:
            raise DataError(f"edge references unknown sensor {b!r}")
        if a == b:
            raise DataError(f"self edge on {a!r} is not allowed")
        adjacency[index[a], index[b]] = 1
        adjacency[index[b], index[a]] = 1
    type_of = np.array([type_names.index(sensor_type[n]) for n in names])
    topology = SensorTopology(names, adjacency, type_of, type_names)
    topology.validate()
    return topology


def format_topology(topology: SensorTopology) -> str:
    lines = [f"sensor {name} {topology.type_names[topology.type_of[i]]}"
             for i, name in enumerate(topology.names)]
    for i in range(topology.n):
        for j in range(i + 1, topology.n):
            if topology.adjacency[i, j]:
                lines.append(f"edge {topology.names[i]} {topology.names[j]}")
    return "\n".join(lines) + "\n"


def load_topology(path) -> SensorTopology:
    with reading(path):
        return parse_topology(Path(path).read_text(encoding="utf-8"))


def save_topology(path, topology: SensorTopology) -> None:
    Path(path).write_text(format_topology(topology), encoding="utf-8")


# ---------------------------------------------------------------------------
# CSV streams


def finite(cell: str) -> float:
    """A float cell; ``nan`` and ``inf`` are rejected."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(cell)
    return value


def label(cell: str) -> int:
    """A 0/1 label cell, also ``Normal``/``Attack`` in any case."""
    text = cell.strip().lower()
    if text in ("0", "0.0", "normal"):
        return 0
    if text in ("1", "1.0", "attack"):
        return 1
    raise ValueError(cell)


def read_columns(path, parsers: dict, optional=()) -> dict[str, np.ndarray]:
    """One array per column of ``parsers``: ``finite`` gives float64,
    ``np.int64`` and ``label`` give int64. A column in ``optional`` may be
    missing from the header, and then from the result."""
    path = Path(path)
    with reading(path), path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if not header:
            raise DataError("missing header row")
        repeated = [name for name in parsers if header.count(name) > 1]
        if repeated:
            raise DataError(f"column {repeated[0]!r} appears more than once "
                            f"in the header")
        column_of = {name: i for i, name in enumerate(header)}
        missing = [name for name in parsers
                   if name not in column_of and name not in optional]
        if missing:
            raise DataError(f"columns missing from header: {missing}")
        table = {name: [] for name in parsers if name in column_of}
        for record in reader:
            if not any(cell.strip() for cell in record):
                continue
            for name, cells in table.items():
                col, parser = column_of[name], parsers[name]
                if col >= len(record):
                    raise DataError(
                        f"row {reader.line_num}: no {name} value (the row has "
                        f"{len(record)} of the header's columns)")
                try:
                    cells.append(parser(record[col]))
                except (ValueError, OverflowError):
                    raise DataError(
                        f"row {reader.line_num}, column {name!r}: {record[col]!r} "
                        f"is not a valid {parser.__name__} value") from None
    return {name: np.array(cells, np.float64 if parsers[name] is finite else np.int64)
            for name, cells in table.items()}


def write_columns(path, columns: dict) -> None:
    """A header of the column names, then one row per entry."""
    cells = [[repr(float(x)) for x in column] if np.asarray(column).dtype.kind == "f"
             else [int(x) for x in column] for column in columns.values()]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells))


def load_csv(path, topology: SensorTopology) -> tuple[np.ndarray, np.ndarray]:
    """Read a stream CSV as (values, labels): the (rows x sensors) values
    in topology sensor order and one 0/1 label per row."""
    table = read_columns(path, {**dict.fromkeys(topology.names, finite),
                                "label": label}, optional=("label",))
    values = np.stack([table[name] for name in topology.names], axis=1)
    return values, table.get("label", np.zeros(len(values), np.int64))


def load_labels(path) -> np.ndarray:
    """Read just the label column of a stream CSV."""
    return read_columns(path, {"label": label})["label"]


def save_csv(path, topology: SensorTopology, values: np.ndarray,
             labels: np.ndarray, timestamps=None) -> None:
    write_columns(path, {
        "timestamp": range(len(values)) if timestamps is None else timestamps,
        **dict(zip(topology.names, values.T)), "label": labels})


# ---------------------------------------------------------------------------
# normalization


@dataclass
class Normalizer:
    """Per-sensor z-score statistics, fit on the training split only."""

    mean: np.ndarray
    std: np.ndarray


def fit_normalizer(values: np.ndarray) -> Normalizer:
    if values.shape[0] == 0:
        raise DataError("cannot fit a normalizer on an empty stream")
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    # Constant sensors get a floored std, so their normalized values are 0.
    std = np.maximum(std, STD_FLOOR)
    return Normalizer(mean, std)


def apply_normalizer(normalizer: Normalizer, values: np.ndarray) -> np.ndarray:
    """The z-scored stream, a new array: the difference is divided in place,
    so only one stream-sized array is made."""
    out = values - normalizer.mean
    out /= normalizer.std
    return out


# ---------------------------------------------------------------------------
# windowing


@dataclass
class Segments:
    """The sliding windows of a stream as an index: window ``i`` covers
    rows ``starts[i]:ends[i]``, ``length`` rows; ``gather_windows`` copies
    any of them out of the stream."""

    starts: np.ndarray
    length: int

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def ends(self) -> np.ndarray:
        return self.starts + self.length

    @property
    def rows(self) -> np.ndarray:
        """The (windows x length) index of the rows each window covers."""
        return window_rows(self.starts, self.length)


def segment_stream(values: np.ndarray, length: int, stride: int) -> Segments:
    """The windows of ``length`` rows every ``stride`` rows of a stream.

    The trailing remainder that does not fill a window is dropped. Only the
    start rows are made; the stream is not copied.
    """
    total = len(values)
    if total < length:
        raise DataError(f"stream of length {total} is shorter than one window ({length})")
    return Segments(np.arange(0, total - length + 1, stride), length)


def window_rows(starts: np.ndarray, length: int) -> np.ndarray:
    """The (windows x length) index of the rows that the windows of
    ``length`` rows at ``starts`` cover."""
    return starts[:, None] + np.arange(length)


def gather_windows(values: np.ndarray, starts: np.ndarray, length: int) -> np.ndarray:
    """The windows of ``length`` rows at ``starts`` as one C-ordered
    (windows x sensors x length) copy."""
    return values[window_rows(starts, length)].transpose(0, 2, 1).copy()


# ---------------------------------------------------------------------------
# synthetic generator


def generate_topology(sensors: int, types: int, density: float,
                      rng: np.random.Generator) -> SensorTopology:
    """Random connected topology with round-robin type assignment."""
    adjacency = np.zeros((sensors, sensors), dtype=np.int64)
    type_of = np.arange(sensors) % types
    # Spanning tree first, so cascades can always propagate somewhere.
    for i in range(1, sensors):
        j = int(rng.integers(0, i))
        adjacency[i, j] = adjacency[j, i] = 1
    # Then the free pairs, in upper-triangle row order, shuffled: the first
    # ones bring the edge count up to the target.
    target = int(round(density * sensors * (sensors - 1) / 2))
    rows, cols = np.nonzero(np.triu(adjacency == 0, 1))
    chosen = rng.permutation(len(rows))[:max(target - (sensors - 1), 0)]
    adjacency[rows[chosen], cols[chosen]] = 1
    adjacency[cols[chosen], rows[chosen]] = 1
    names = [f"S{i:02d}" for i in range(sensors)]
    type_names = [f"T{j}" for j in range(types)]
    topology = SensorTopology(names, adjacency, type_of, type_names)
    topology.validate()
    return topology


def generate_normal_stream(topology: SensorTopology, length: int,
                           noise: float, rng: np.random.Generator) -> np.ndarray:
    """Per-type sinusoid mixtures plus AR(1) noise, phase-jittered per sensor.

    The (length x sensors) result is the one whole-stream array made here:
    the innovations are drawn into it, the AR(1) recurrence runs over its
    rows in place (one scratch row), and each sensor's sinusoid mixture is
    then added into its column, a sensor-length array at a time.
    """
    t = np.arange(length)
    k = topology.type_count
    n = topology.n
    freqs = rng.uniform(1.0 / 400.0, 1.0 / 40.0, size=(k, 3))
    amps = rng.uniform(0.6, 1.4, size=(k, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(k, 3))
    jitter = rng.uniform(-0.4, 0.4, size=n)
    gains = rng.uniform(0.9, 1.1, size=n)

    # AR(1) noise, one innovation stream per sensor: row s becomes
    # e_s + 0.8 * row s-1, and row 0 is e_0 + 0.0 (a -0.0 draw turns +0.0,
    # as from a zero initial state). Additions commute bit for bit, so
    # adding the mixture to the noise gives the noise-onto-mixture sums.
    values = rng.normal(scale=noise, size=(length, n))
    values[:1] += 0.0
    scaled = np.empty(n)
    for previous, row in zip(values, values[1:]):
        row += np.multiply(previous, 0.8, out=scaled)

    for i in range(n):
        tau = int(topology.type_of[i])
        signal = np.zeros(length)
        for c in range(3):
            signal += amps[tau, c] * np.sin(
                2.0 * np.pi * freqs[tau, c] * t + phases[tau, c] + jitter[i])
        values[:, i] += gains[i] * signal
    return values


# Rows per block of ``column_std``: a 98 KB block of a 12-sensor stream.
STD_BLOCK = 1024


def _column_sum(values: np.ndarray, term) -> np.ndarray:
    """The column sums of ``term(block)`` over the ``STD_BLOCK``-row blocks
    of ``values``, as one sum down the rows. ``term`` returns a new array,
    into whose first row ``autodiff.carried_sum`` adds the previous blocks'
    sums before the block is summed."""
    total = None
    for start in range(0, len(values), STD_BLOCK):
        total = carried_sum(term(values[start:start + STD_BLOCK]), total, (0,))
    return total


def column_std(values: np.ndarray) -> np.ndarray:
    """``values.std(axis=0)``, with one ``STD_BLOCK``-row block as its
    working set, not a stream-sized deviation array.

    numpy sums the rows of a C-ordered array of two or more columns one
    after another, so on such an array the bits are those of
    ``values.std(axis=0)``: the mean and the squared deviations are the
    same elementwise steps, and the blocked sums the same additions.
    """
    count = len(values)
    mean = _column_sum(values, np.copy) / count

    def squared_deviation(block):
        deviation = block - mean
        return np.square(deviation, out=deviation)

    return np.sqrt(_column_sum(values, squared_deviation) / count)


def inject_anomalies(values: np.ndarray, topology: SensorTopology,
                     windows, *, drift_delay: int, cascade_lag: int,
                     cascade_attenuation: float) -> np.ndarray:
    """Add the configured events into ``values`` in place and return the
    labels, which mark the events' full windows.

    The windows are a validated ``SyntheticConfig``'s (``generate_synthetic``
    runs its ``validate`` before the stream exists), so each has a known
    kind and lies inside ``values``' rows and sensors. An event's size
    is its magnitude times its sensor's std in the clean stream
    (``column_std``, floored at ``STD_FLOOR``).
    """
    length, n = values.shape
    scale = np.maximum(column_std(values), STD_FLOOR)
    labels = np.zeros(length, dtype=np.int64)
    for w in windows:
        start, end = w.start, w.start + w.duration
        labels[start:end] = 1
        if w.kind == "offset":
            values[start:end, w.sensor] += w.magnitude * scale[w.sensor]
        elif w.kind == "drift":
            onset = start + drift_delay
            ramp = np.linspace(0.0, 1.0, end - onset, endpoint=True)
            values[onset:end, w.sensor] += w.magnitude * scale[w.sensor] * ramp
        else:  # cascade
            hops = topology.hop_distances(w.sensor)
            for u in range(n):
                h = int(hops[u])
                if h < 0:
                    continue
                onset = start + h * cascade_lag
                if onset >= end:
                    continue
                values[onset:end, u] += (
                    w.magnitude * (cascade_attenuation ** h) * scale[u])
    return labels


def generate_synthetic(config) -> tuple[SensorTopology, np.ndarray, np.ndarray]:
    """Seed-deterministic synthetic stream with labeled anomaly windows, as
    ``config``, a ``config.SyntheticConfig``, describes it.

    The stream is the one whole-stream array: the events are added into
    the clean stream in place."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    topology = generate_topology(config.sensors, config.types, config.density, rng)
    values = generate_normal_stream(topology, config.length, config.noise, rng)
    labels = inject_anomalies(
        values, topology, config.anomalies,
        drift_delay=config.drift_delay,
        cascade_lag=config.cascade_lag,
        cascade_attenuation=config.cascade_attenuation)
    return topology, values, labels
