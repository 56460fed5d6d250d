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
blank lines and ``#`` comments allowed. A ``SensorTopology`` is checked
when it is built, by the parser, the generator or a library caller, so an
invalid one cannot exist.
``segment_stream`` cuts a stream into windows and returns them as
``Segments``, an index of start rows that copies nothing. Windowing refuses
no count: a stream shorter than one window has no window (``train_pipeline``
refuses such a stream, ``score_stream`` scores none). ``window_rows``
gives the (windows x length) index of the rows windows cover, with which
labels are read, and ``gather_windows`` copies the windows at any starts out
of the stream, so a caller holds a few windows at a time, never a stack of
every window.

The synthetic generator holds one stream-sized array: the clean stream is
made in place and ``inject_anomalies`` adds the events into it, after
``column_std`` has taken each sensor's std in blocks of ``STD_BLOCK`` rows.
Its AR(1) noise (``ar1_in_place``) steps blocks of ``AR_BLOCK`` rows side
by side with the bits of one step per row: a rounded step is monotone in
the previous state, so two trajectories run from the lowest and the
highest state any row can hold bracket the true one, and where they meet
bit for bit before a block, that is the state the block starts from
(monotone coupling, Propp & Wilson 1996). The generator's settings live in
``config`` (``SyntheticConfig``, whose ``validate`` ``generate_synthetic``
runs first); nothing here refuses a setting.
"""
from __future__ import annotations

import csv
import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .autodiff import carried_sum, numeric_context
from .errors import DataError, reading

STD_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# topology


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: a constant that many calls share."""
    array.flags.writeable = False
    return array


@dataclass
class SensorTopology:
    """Static sensor set: names, binary adjacency, and type assignment,
    checked when built: a DataError names the first defect."""

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
    def type_sizes(self) -> np.ndarray:
        """The number of sensors of each type, read-only. Built once per
        topology."""
        return _read_only(np.bincount(self.type_of, minlength=self.type_count))

    @cached_property
    def type_members(self) -> np.ndarray:
        """(types x largest type size) sensor indices, read-only: row ``k``
        lists type ``k``'s sensors in index order, padded with ``n`` (one
        past the last sensor). Built once per topology."""
        members = np.full((self.type_count, self.type_sizes.max()), self.n)
        for k, row in enumerate(members):
            sensors = np.flatnonzero(self.type_of == k)
            row[:len(sensors)] = sensors
        return _read_only(members)

    def graph_constants(self, dtype) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency and the (types x 1) type sizes in ``dtype``, the
        constants of every graph built in that dtype: read-only arrays,
        built once per topology and dtype."""
        cache = self.__dict__.setdefault("_graph_constants", {})
        dtype = np.dtype(dtype)
        if dtype not in cache:
            cache[dtype] = (_read_only(self.adjacency.astype(dtype)),
                            _read_only(self.type_sizes.astype(dtype)[:, None]))
        return cache[dtype]

    def __post_init__(self) -> None:
        if not self.names:
            raise DataError("topology defines no sensors")
        repeated = [name for name, count in Counter(self.names).items() if count > 1]
        if repeated:
            raise DataError(f"duplicate sensor {repeated[0]!r}")
        a = self.adjacency
        if a.shape != (self.n, self.n):
            raise DataError(f"adjacency shape {a.shape} does not match {self.n} sensors")
        if not np.isin(a, (0, 1)).all():
            raise DataError("adjacency entries must be 0 or 1")
        if not np.array_equal(a, a.T):
            raise DataError("adjacency must be symmetric")
        looped = np.flatnonzero(np.diag(a))
        if looped.size:
            raise DataError(f"self edge on {self.names[looped[0]]!r} is not allowed")
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
    index = {name: i for i, name in enumerate(names)}
    adjacency = np.zeros((len(names), len(names)), dtype=np.int64)
    for a, b in edges:
        if a not in index:
            raise DataError(f"edge references unknown sensor {a!r}")
        if b not in index:
            raise DataError(f"edge references unknown sensor {b!r}")
        adjacency[index[a], index[b]] = 1
        adjacency[index[b], index[a]] = 1
    type_of = np.array([type_names.index(sensor_type[n]) for n in names])
    return SensorTopology(names, adjacency, type_of, type_names)


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
    return Segments(np.arange(0, len(values) - length + 1, stride), length)


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
    return SensorTopology(names, adjacency, type_of, type_names)


# Rows per block of ``ar1_in_place``, and the rows before a block over
# which its two bounding trajectories first run. From -8 max|e| and
# +8 max|e| the two meet after 190-240 rows on the benchmark's
# innovations, so a 256-row warm-up meets in every block there. On
# 28,000 x 12 innovations (numpy
# 2.4.6, one BLAS thread, 2-vCPU host) the recurrence takes 3.7 ms against
# 27 ms for one step per row; blocks of 256, 384, 512 and 1024 rows take
# 4.4, 4.0, 4.3 and 5.1 ms (256: the second block's warm-up reaches row 0).
AR_BLOCK = 320
AR_WARMUP = 256


def _ar1_rows(rows: np.ndarray, state: np.ndarray) -> None:
    """Step the AR(1) recurrence down the first axis of ``rows`` in place:
    entry ``s`` becomes e_s + 0.8 * entry s-1, where entry -1 is
    ``state``."""
    scaled = np.empty_like(state)
    for row in rows:
        row += np.multiply(state, 0.8, out=scaled)
        state = row


def _entry_states(innovations: np.ndarray, starts: np.ndarray,
                  bound: float) -> np.ndarray:
    """The AR(1) state at the row before each of ``starts`` (ascending
    rows above 0) of the (rows x lanes) ``innovations``, whose every state
    lies in [-bound, bound].

    Two trajectories run over the ``AR_WARMUP`` innovations before a
    start, from -bound and from +bound. A step, fl(e + fl(0.8 y)), is
    monotone in y, signed zeros included, so the true state stays between
    the two, and where they meet bit for bit it is their value. A start
    whose trajectories do not meet doubles its warm-up, and once the
    warm-up would reach row 0 its state is walked from row 0's exact start,
    the zero state, one row at a time."""
    lanes = innovations.shape[1]
    states = np.empty((len(starts), lanes))
    pending = np.arange(len(starts))
    warmup = AR_WARMUP
    while pending.size:
        ends = starts[pending]
        near = ends <= warmup
        state, done = np.zeros(lanes), 0
        for lane, end in zip(pending[near], ends[near]):
            for e in innovations[done:end]:
                state = e + 0.8 * state
            states[lane], done = state, end
        pending, firsts = pending[~near], ends[~near] - warmup
        trajectories = np.empty((2, len(pending), lanes))
        trajectories[0], trajectories[1] = -bound, bound
        for row in range(warmup):
            trajectories *= 0.8
            trajectories += innovations[firsts + row]
        low, high = trajectories.view(np.int64)
        met = (low == high).all(axis=1)
        states[pending[met]] = trajectories[0, met]
        pending = pending[~met]
        warmup *= 2
    return states


def ar1_in_place(values: np.ndarray) -> None:
    """Turn the (rows x lanes) innovations ``values`` into AR(1) noise in
    place: row s becomes e_s + 0.8 * row s-1, and row 0 is e_0 + 0.0 (a
    -0.0 draw turns +0.0, as from a zero initial state).

    The rows run in blocks of ``AR_BLOCK``. ``_entry_states`` finds the
    exact state each block starts from, and then one pass steps row offset
    s of every block at once, ``AR_BLOCK`` steps over blocks x lanes
    instead of one step per row; the rows after the last whole block
    follow it one at a time. Every row gets the bits of one step per row.
    Each state lies within 8 max|e|, since |e| + 0.8 * 8 max|e| stays
    below it after rounding. A stream shorter than two blocks, or one
    whose bound overflows, whose trajectories would start at -inf and +inf
    and never meet, runs one step per row from row 0.
    """
    length, lanes = values.shape
    blocks = length // AR_BLOCK
    # max and min, not abs: no stream-sized temporary.
    bound = (abs(8.0 * max(float(values.max()), -float(values.min())))
             if blocks > 1 else math.inf)
    if not math.isfinite(bound):
        _ar1_rows(values, np.zeros(lanes))
        return
    entry = np.zeros((blocks, lanes))
    entry[1:] = _entry_states(values, np.arange(1, blocks) * AR_BLOCK, bound)
    whole = blocks * AR_BLOCK
    _ar1_rows(values[:whole].reshape(blocks, AR_BLOCK, lanes).swapaxes(0, 1), entry)
    _ar1_rows(values[whole:], values[whole - 1])


def generate_normal_stream(topology: SensorTopology, length: int,
                           noise: float, rng: np.random.Generator) -> np.ndarray:
    """Per-type sinusoid mixtures plus AR(1) noise, phase-jittered per sensor.

    The (length x sensors) result is the one whole-stream array made here:
    the innovations are drawn into it, ``ar1_in_place`` turns them into
    the AR(1) noise in place, in blocks of ``AR_BLOCK`` rows that it steps
    side by side, with the bits of one step per row, and each sensor's
    sinusoid mixture is then added into its column, a sensor-length array
    at a time.
    """
    t = np.arange(length)
    k = topology.type_count
    n = topology.n
    freqs = rng.uniform(1.0 / 400.0, 1.0 / 40.0, size=(k, 3))
    amps = rng.uniform(0.6, 1.4, size=(k, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(k, 3))
    jitter = rng.uniform(-0.4, 0.4, size=n)
    gains = rng.uniform(0.9, 1.1, size=n)

    # AR(1) noise, one innovation stream per sensor. Additions commute bit
    # for bit, so adding the mixture to the noise gives the
    # noise-onto-mixture sums.
    values = rng.normal(scale=noise, size=(length, n))
    ar1_in_place(values)

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


@numeric_context("[synth]")
def generate_synthetic(config) -> tuple[SensorTopology, np.ndarray, np.ndarray]:
    """Seed-deterministic synthetic stream with labeled anomaly windows, as
    ``config``, a ``config.SyntheticConfig``, describes it.

    The stream is the one whole-stream array: the events are added into
    the clean stream in place. A setting whose stream overflows (a noise
    scale near the float64 range) is a ``NumericError``, not a stream of
    non-finite values."""
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
