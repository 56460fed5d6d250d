import csv
import json
import math
import struct
import warnings

import numpy as np
import pytest

from cpsdetect import autodiff, checkpoint, data, pipeline
from cpsdetect.cli import main

from conftest import STAGE_MAPS
from tiny import SETTINGS, TRAIN_ROWS


def _sets(settings):
    return [arg for setting in settings for arg in ("--set", setting)]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A short-epoch checkpoint with 10-row windows, plus its data files."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--out", str(root), "--split", str(TRAIN_ROWS),
                 *_sets(SETTINGS)]) == 0
    assert main(["train", "--out", str(root), "--data", str(root / "train.csv"),
                 "--topology", str(root / "topology.txt"),
                 *_sets(SETTINGS)]) == 0
    return root


def test_train_writes_its_record_as_run_json(trained, tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path), "--data", str(trained / "train.csv"),
                 "--topology", str(trained / "topology.txt"),
                 *_sets(SETTINGS)]) == 0
    record = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    assert list(record) == ["data", "temporal", "vgae", "svdd"]
    epochs = {"temporal": 2, "vgae": 2, "svdd": 20}
    assert {stage: len(record[stage]["loss"]) for stage in epochs} == epochs
    pipe = checkpoint.load_checkpoint(tmp_path / "model.ckpt",
                                      data.load_topology(trained / "topology.txt"))
    assert record["svdd"]["threshold"] == pipe.threshold
    assert not list(tmp_path.glob("trace_*.csv"))
    stages = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("[")]
    assert stages == ["[data]", "[temporal]", "[vgae]", "[svdd]"]


def test_a_checkpoint_does_not_depend_on_where_its_files_are(
        trained, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "data.csv").write_bytes((trained / "train.csv").read_bytes())
    for out, data_path in (("a", "d/data.csv"), ("b", "./d/../d/data.csv")):
        assert main(["train", "--out", out, "--data", data_path,
                     "--topology", str(trained / "topology.txt"),
                     *_sets(SETTINGS)]) == 0
    assert ((tmp_path / "a" / "model.ckpt").read_bytes()
            == (tmp_path / "b" / "model.ckpt").read_bytes())


def test_an_ablation_is_a_set_override(trained, tmp_path):
    assert main(["train", "--out", str(tmp_path), "--data", str(trained / "train.csv"),
                 "--topology", str(trained / "topology.txt"), *_sets(SETTINGS),
                 *_sets(["vgae.enabled=false", "graph.weighting=false"])]) == 0
    record = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    assert list(record) == ["data", "temporal", "svdd"]
    pipe = checkpoint.load_checkpoint(tmp_path / "model.ckpt",
                                      data.load_topology(trained / "topology.txt"))
    assert (pipe.vgae, pipe.config.graph.weighting) == (None, False)


def test_a_percent_sign_in_a_path_survives_the_checkpoint(trained, tmp_path, capsys):
    # The checkpoint stores paths.data as it is; loading it must read it back.
    folder = tmp_path / "100%"
    folder.mkdir()
    (folder / "train.csv").write_bytes((trained / "train.csv").read_bytes())
    topology = str(trained / "topology.txt")
    assert main(["train", "--out", str(folder), "--data", str(folder / "train.csv"),
                 "--topology", topology, *_sets(SETTINGS)]) == 0
    code = main(["score", "--out", str(folder), "--data", str(trained / "test.csv"),
                 "--topology", topology, "--checkpoint", str(folder / "model.ckpt")])
    assert code == 0, capsys.readouterr().err
    assert (folder / "segments.csv").is_file()


def test_dump_graphs_uses_the_checkpoint_window(trained, tmp_path, capsys):
    # No --set here: the CLI's own default window (30 rows) must not matter.
    code = main(["score", "--out", str(tmp_path), "--dump-graphs",
                 "--data", str(trained / "test.csv"),
                 "--topology", str(trained / "topology.txt"),
                 "--checkpoint", str(trained / "model.ckpt")])
    assert code == 0, capsys.readouterr().err
    with (tmp_path / "segments.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert {int(r["end"]) - int(r["start"]) for r in rows} == {10}
    dumped = sorted(p.name for p in (tmp_path / "graphs").iterdir())
    assert dumped == [f"graph_{int(r['segment']):05d}.csv" for r in rows]


def test_segments_csv_flags_the_scores_above_the_threshold(trained, tmp_path):
    topology = trained / "topology.txt"
    assert main(["score", "--out", str(tmp_path), "--data", str(trained / "test.csv"),
                 "--topology", str(topology),
                 "--checkpoint", str(trained / "model.ckpt")]) == 0
    pipe = checkpoint.load_checkpoint(trained / "model.ckpt",
                                      data.load_topology(topology))
    with (tmp_path / "segments.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and {float(r["threshold"]) for r in rows} == {pipe.threshold}
    assert [int(r["predicted"]) for r in rows] == [
        int(float(r["score"]) > pipe.threshold) for r in rows]


def test_dump_graphs_writes_the_same_bytes_in_parts(trained, tmp_path, monkeypatch):
    # The 10 test windows in one part, and in parts of 7 and 3.
    written = []
    for chunk in (10**6, 7):
        monkeypatch.setattr(autodiff, "CHUNK", chunk)
        out = tmp_path / str(chunk)
        assert main(["score", "--out", str(out), "--dump-graphs",
                     "--data", str(trained / "test.csv"),
                     "--topology", str(trained / "topology.txt"),
                     "--checkpoint", str(trained / "model.ckpt")]) == 0
        written.append({p.name: p.read_bytes()
                        for p in sorted((out / "graphs").iterdir())})
    assert len(written[0]) == 10 and written[0] == written[1]


def test_dump_graphs_are_the_graphs_scoring_encodes(trained, tmp_path, monkeypatch):
    # The graphs the VGAE scores, built from the z-scored stream in parts of
    # 7 and 3 windows; the dumped files must hold the same values, in order.
    built, graph = [], pipeline.weighted_graph

    def spied_graph(*args, **kwargs):
        built.append(graph(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(autodiff, "CHUNK", 7)
    monkeypatch.setattr(pipeline, "weighted_graph", spied_graph)
    assert main(["score", "--out", str(tmp_path), "--dump-graphs",
                 "--data", str(trained / "test.csv"),
                 "--topology", str(trained / "topology.txt"),
                 "--checkpoint", str(trained / "model.ckpt")]) == 0
    assert [len(part) for part in built] == [7, 3]
    dumped = [np.loadtxt(p, delimiter=",") for p in sorted((tmp_path / "graphs").iterdir())]
    np.testing.assert_array_equal(dumped, np.concatenate(built))


def test_dump_graphs_runs_every_stage_with_the_numeric_traps_on(trained, tmp_path,
                                                              trapped_calls):
    assert main(["score", "--out", str(tmp_path), "--dump-graphs",
                 "--data", str(trained / "test.csv"),
                 "--topology", str(trained / "topology.txt"),
                 "--checkpoint", str(trained / "model.ckpt")]) == 0
    assert {name for name, _ in trapped_calls} == set(STAGE_MAPS)
    assert all(trapped for _, trapped in trapped_calls)


def test_short_csv_row_exits_with_data_error(trained, tmp_path, capsys):
    lines = (trained / "train.csv").read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0]  # drop the label cell
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines) + "\n")
    code = main(["train", "--out", str(tmp_path), "--data", str(short),
                 "--topology", str(trained / "topology.txt"),
                 *_sets(SETTINGS)])
    assert code == 2
    assert "row 6: no label value" in capsys.readouterr().err


def _flip_top_bit(source, target, offset):
    blob = bytearray(source.read_bytes())
    blob[offset] ^= 0x80
    target.write_bytes(bytes(blob))


# Byte 13 is the low byte of the first block's name length, byte 15 the
# first byte of that name ("config"); the last case hits a later block name.
@pytest.mark.parametrize("where", ["byte 13", "byte 15", "normalizer/mean"])
def test_bit_flipped_checkpoint_exits_with_data_error(trained, tmp_path, capsys, where):
    source = trained / "model.ckpt"
    blob = source.read_bytes()
    offset = int(where[5:]) if where.startswith("byte") else blob.index(where.encode())
    flipped = tmp_path / "flipped.ckpt"
    _flip_top_bit(source, flipped, offset)
    code = main(["score", "--out", str(tmp_path), "--data", str(trained / "test.csv"),
                 "--topology", str(trained / "topology.txt"),
                 "--checkpoint", str(flipped)])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_evaluate_all_normal_labels_reports_auc_undefined(tmp_path, capsys):
    data_csv = tmp_path / "normal.csv"
    data_csv.write_text("timestamp,A,label\n" + "".join(
        f"{t},0.0,0\n" for t in range(6)))
    scores = tmp_path / "timestamps.csv"
    scores.write_text("index,score,predicted\n" + "".join(
        f"{t},{0.1 * t},{int(t == 5)}\n" for t in range(6)))
    code = main(["evaluate", "--out", str(tmp_path), "--scores", str(scores),
                 "--data", str(data_csv)])
    assert code == 0, capsys.readouterr().err
    assert "auc       : undefined" in capsys.readouterr().out
    kv = dict(line.split("=") for line in
              (tmp_path / "metrics.kv").read_text().splitlines())
    assert kv["auc"] == "undefined"
    assert (float(kv["precision"]), float(kv["recall"]), int(kv["fp"])) == (0.0, 0.0, 1)


def test_evaluate_reports_unadjusted_metrics_beside_adjusted(tmp_path, capsys):
    # One alarm inside a 3-row event: point adjustment credits the whole event.
    data_csv = tmp_path / "data.csv"
    data_csv.write_text("A,label\n" + "".join(
        f"0.0,{label}\n" for label in (0, 1, 1, 1, 0, 0)))
    scores = tmp_path / "timestamps.csv"
    scores.write_text("index,score,predicted\n" + "".join(
        f"{t},{0.1 * t},{int(t == 2)}\n" for t in range(6)))
    assert main(["evaluate", "--out", str(tmp_path), "--scores", str(scores),
                 "--data", str(data_csv)]) == 0
    kv = dict(line.split("=") for line in
              (tmp_path / "metrics.kv").read_text().splitlines())
    assert (float(kv["recall"]), float(kv["recall_raw"])) == (1.0, 0.333333)
    assert (float(kv["precision"]), float(kv["precision_raw"])) == (1.0, 1.0)
    assert float(kv["f1_raw"]) == 0.5
    line = "  unadjusted: precision=1.0000 recall=0.3333 f1=0.5000\n"
    assert line in capsys.readouterr().out
    assert line in (tmp_path / "metrics.txt").read_text()


@pytest.mark.parametrize("granularity, rows", [
    ("timestamp", "index,score,predicted\n0,0.1,0\n1,0.2,1\n1,0.2,1\n1,0.2,1\n"),
    ("segment", "segment,start,end,score,threshold,predicted\n"
                "0,1,3,0.1,0.5,0\n1,2,4,0.1,0.5,0\n2,1,3,0.9,0.5,1\n")],
    ids=["timestamp", "segment"])
def test_evaluate_repeated_row_names_its_file_and_value(tmp_path, capsys,
                                                        granularity, rows):
    data_csv = tmp_path / "data.csv"
    data_csv.write_text("A,label\n" + "0.0,0\n0.0,1\n0.0,1\n0.0,0\n")
    scores = tmp_path / "scores.csv"
    scores.write_text(rows)
    code = main(["evaluate", "--out", str(tmp_path), "--scores", str(scores),
                 "--data", str(data_csv), "--granularity", granularity])
    err = capsys.readouterr().err
    assert code == 2, err
    column = "index" if granularity == "timestamp" else "start"
    assert f"{scores}: {column} 1 appears in more than one score row" in err


def _first_sensor_cell(text):
    """The stream with its first sensor's cell in data row 3 set to ``text``."""
    def put(blob):
        lines = blob.split(b"\n")
        cells = lines[3].split(b",")
        cells[1] = text
        lines[3] = b",".join(cells)
        return b"\n".join(lines)
    return put


def _first_sensor_twice(blob):
    """The stream with a second copy of its first sensor column, all zeros."""
    header, *rows = blob.splitlines()
    name = header.split(b",")[1]
    return b"\n".join([header + b"," + name, *(row + b",0.0" for row in rows)])


def _without_first_edge(blob):
    lines = blob.split(b"\n")
    lines.remove(next(line for line in lines if line.startswith(b"edge")))
    return b"\n".join(lines)


def _array_at(blob, block):
    """(offset of its ndim byte, shape, offset of its values) of the array
    block named ``block``."""
    at = blob.index(block.encode()) + len(block)
    ndim = blob[at]
    return at, struct.unpack_from(f"<{ndim}I", blob, at + 1), at + 1 + 4 * ndim


def _one_short(block, axis):
    """The checkpoint with array ``block`` one entry short along ``axis``."""
    def cut(blob):
        at, shape, start = _array_at(blob, block)
        size = math.prod(shape)
        array = np.frombuffer(blob, "<f8", size, start).reshape(shape)
        array = np.delete(array, -1, axis=axis)
        return (blob[:at] + struct.pack(f"<B{array.ndim}I", array.ndim, *array.shape)
                + array.tobytes() + blob[start + 8 * size:])
    return cut


def _first_entry(block, value):
    """The checkpoint with the first value of array ``block`` set to ``value``."""
    def put(blob):
        start = _array_at(blob, block)[2]
        return blob[:start] + struct.pack("<d", value) + blob[start + 8:]
    return put


def _first_dim_huge(blob):
    """The checkpoint with the first dim of ``svdd/w0`` set to 2**32 - 1."""
    at = _array_at(blob, "svdd/w0")[0]
    return blob[:at + 1] + struct.pack("<I", 2**32 - 1) + blob[at + 5:]


def _appended(block, array):
    """The checkpoint with one more array block, ``block``, at its end."""
    def add(blob):
        (count,) = struct.unpack_from("<I", blob, 8)
        name = block.encode()
        return (blob[:8] + struct.pack("<I", count + 1) + blob[12:]
                + b"A" + struct.pack("<H", len(name)) + name
                + struct.pack(f"<B{array.ndim}I", array.ndim, *array.shape)
                + array.astype("<f8").tobytes())
    return add


def _replace_once(blob, old, new):
    assert blob.count(old) == 1 and len(old) == len(new)
    return blob.replace(old, new)


_SEGMENTS_HEADER = b"segment,start,end,score,threshold,predicted\n"


# case -> (flag, what it is given, documented exit code[, text the message
# must contain]). Bytes are written to a file; a function maps the trained
# fixture's file for that flag to the bad bytes; None passes a directory; a
# string is passed as it is. The flag "segments" passes the file as --scores
# with --granularity segment; the flag "train-set" passes each word of its
# string as a --set of a tiny `train` run, "train-data" maps the training
# CSV of a tiny `train` run, and "synth" passes its words as the flags of a
# tiny `synth` run.
EXIT_CASES = {
    "topology not utf-8": ("topology", b"sensor s\xff0 t0\n", 2),
    "topology unknown line": ("topology", b"sensor s0 t0\nvalve s0 s1\n", 2),
    # save_csv would write the labels over that sensor's column.
    "topology sensor named label": (
        "topology", b"sensor s0 t0\nsensor label t0\n", 2,
        "line 2: a sensor cannot be named 'label'"),
    "topology edge to unknown sensor": (
        "topology", b"sensor s0 t0\nsensor s1 t0\nedge s0 s9\n", 2),
    "topology other than the checkpoint's": ("topology", _without_first_edge, 2),
    "csv not utf-8": ("data", lambda b: b.replace(b"\n", b"\n\xff", 1), 2),
    "csv non-numeric cell": ("data", _first_sensor_cell(b"abc"), 2),
    "csv missing header": ("data", b"", 2),
    "csv sensor column repeated": ("data", _first_sensor_twice, 2),
    "score csv not utf-8": ("scores", b"index,score,predicted\n0,\xff,0\n", 2),
    "score csv non-numeric score": ("scores", b"index,score,predicted\n0,abc,0\n", 2),
    "score csv short row": ("scores", b"index,score,predicted\n0,0.5\n", 2),
    "score csv fractional index": ("scores", b"index,score,predicted\n0.5,0.1,0\n", 2),
    "score csv negative index": ("scores", b"index,score,predicted\n-1,0.1,0\n", 2),
    "score csv nan score": ("scores", b"index,score,predicted\n0,nan,0\n", 2),
    "score csv fractional prediction": (
        "scores", b"index,score,predicted\n0,0.1,0.7\n", 2),
    "score csv prediction 2": (
        "scores", b"index,score,predicted\n0,0.1,2\n", 2,
        "predictions must contain only 0 and 1"),
    "score csv repeated index": (
        "scores", b"index,score,predicted\n1,0.1,0\n1,0.1,0\n1,0.1,0\n", 2),
    "segment csv repeated start": (
        "segments", _SEGMENTS_HEADER + b"0,0,10,0.1,0.2,0\n1,0,10,0.1,0.2,0\n", 2),
    "segment csv end before start": (
        "segments", _SEGMENTS_HEADER + b"0,20,10,0.1,0.2,0\n", 2),
    "segment csv negative start": (
        "segments", _SEGMENTS_HEADER + b"0,-10,10,0.1,0.2,0\n", 2),
    "config not utf-8": ("config", b"[run]\nseed = 1\xff\n", 1),
    "config unknown key": ("config", b"[run]\nbogus = 1\n", 1),
    "config split not an integer": ("set", "synthetic.split=abc", 1),
    **{f"config {setting} not finite": (
        "train-set", setting, 1, f"{setting.split('=')[0]} must be finite")
       for setting in ("svdd.lr=nan", "temporal.lr=inf", "vgae.kl_weight=inf",
                       "svdd.slope=nan")},
    **{f"config svdd.slope={slope}": (
        "train-set", f"svdd.slope={slope}", 1,
        f"svdd.slope must be in (0, 1], got {float(slope)}")
       for slope in ("-3", "5")},
    "config negative run seed": (
        "train-set", "run.seed=-1", 1, "run.seed must be non-negative, got -1"),
    # Refused where the config enters: no stage checks these again.
    **{f"config {setting}": ("train-set", setting, 1, message)
       for setting, message in (
           ("window.stride=0", "window.stride must be positive, got 0"),
           ("temporal.lr=0", "temporal.lr must be positive, got 0.0"),
           ("svdd.weight_decay=-1", "svdd.weight_decay must be non-negative, got -1.0"),
           ("svdd.widths=", "svdd.widths must be positive, got ()"),
           ("svdd.quantile=0", "svdd.quantile must be in (0, 1], got 0.0"),
           ("svdd.quantile=1.5", "svdd.quantile must be in (0, 1], got 1.5"),
           ("run.calibration_fraction=0",
            "run.calibration_fraction must be in (0, 1), got 0.0"))},
    # Beyond int64, numpy holds an integer only in an object array, which
    # failed as an index (the stride) or hung (the sensor count).
    "config window.stride beyond int64": (
        "train-set", "window.stride=100000000000000000000", 1,
        "window.stride must fit in int64, got 100000000000000000000"),
    "config svdd.widths beyond int64": (
        "train-set", "svdd.widths=8,100000000000000000000", 1,
        "svdd.widths must fit in int64, got 100000000000000000000"),
    "synth synthetic.sensors beyond int64": (
        "synth", "--set synthetic.sensors=100000000000000000000", 1,
        "synthetic.sensors must fit in int64, got 100000000000000000000"),
    # A setting that sizes an array beyond memory. Each array is above
    # 2**47 bytes, more than any allocator can map, so no case touches
    # memory.
    **{f"{flag} {setting} beyond memory": (
        flag, ("--set " if flag == "synth" else "") + setting, 1,
        f"error: Unable to allocate {size}")
       for flag, setting, size in (
           ("train-set", "temporal.heads=1000000000000", "146. TiB"),
           ("train-set", "svdd.widths=10000000000000", "582. TiB"),
           ("synth", "synthetic.length=100000000000000", "728. TiB"),
           ("synth", "synthetic.sensors=1000000000", "6.94 EiB"))},
    # A shape whose byte count overflows numpy's index type is refused
    # before any memory is asked for, and the message names the setting.
    **{f"train-set {setting} too big to exist": (
        "train-set", f"{setting}={2**62}", 1, named, "is too big to exist")
       for setting, named in (("temporal.heads", f"temporal.heads={2**62},"),
                              ("svdd.widths", f"svdd.widths=({2**62},)"))},
    "synth negative seed": (
        "synth", "--seed -1", 1, "synthetic.seed must be non-negative, got -1"),
    **{f"synth {setting}": ("synth", f"--set {setting}", 1, message)
       for setting, message in (
           ("synthetic.noise=-1", "synthetic.noise must be non-negative, got -1.0"),
           ("synthetic.noise=nan", "synthetic.noise must be finite, got nan"),
           ("synthetic.noise=inf", "synthetic.noise must be finite, got inf"),
           ("synthetic.cascade_attenuation=nan",
            "synthetic.cascade_attenuation must be finite, got nan"),
           ("synthetic.length=-5", "synthetic.length must be positive, got -5"),
           ("synthetic.length=0", "synthetic.length must be positive, got 0"))},
    # A finite noise scale whose draws overflow: the generator runs in a
    # numeric context, so no stream of inf and nan cells is written.
    "synth noise overflows the stream": (
        "synth", "--set synthetic.noise=1e308", 3, "[synth]: overflow"),
    "synth anomaly magnitude nan": (
        "synth", "--anomalies offset:10:5:1:nan", 1,
        "anomaly magnitude must be finite, got nan"),
    "synth anomaly window outside the stream": (
        "synth", "--anomalies offset:390:20:0", 1,
        "anomaly window [390, 410) outside stream of length 400"),
    "synth anomaly on a sensor that does not exist": (
        "synth", "--anomalies offset:10:5:99", 1,
        "anomaly sensor 99 out of range for 4 sensors"),
    **{f"synth split {split}": (
        "synth", f"--split {split}", 1,
        f"synthetic.split {split} outside stream of length 400")
       for split in ("0", "400", "-5")},
    # The fits run in float32: a learning rate beyond its range overflows
    # where Adam's first step casts it.
    "train svdd.lr=1e300 overflows": (
        "train-set", "svdd.lr=1e300", 3,
        "numeric failure: [svdd] epoch 1/20: overflow encountered in cast"),
    # One epoch: the last Adam step leaves the weights near the float32
    # maximum, and the first pass after training overflows.
    **{f"train {stage}.lr=1e38 one epoch overflows after training": (
        "train-set", f"{stage}.lr=1e38 {stage}.epochs=1", 3,
        f"numeric failure: [{stage}] after training: overflow encountered in matmul")
       for stage in ("svdd", "temporal", "vgae")},
    **{f"checkpoint format version {version}": (
        "checkpoint", lambda b, v=version: b[:4] + struct.pack("<I", v) + b[8:], 1,
        f"checkpoint format version {version} is not supported (expected 4)")
       for version in (2, 3)},
    "checkpoint weighting not a boolean": (
        "checkpoint", lambda b: _replace_once(b, b"[graph]\nweighting = True\n",
                                              b"[graph]\nweighting =maybe\n"),
        1, "[graph] weighting: expected a boolean, got 'maybe'"),
    "checkpoint negative run seed": (
        "checkpoint", lambda b: _replace_once(b, b"[run]\nseed = 7\n",
                                              b"[run]\nseed =-7\n"),
        1, "run.seed must be non-negative, got -7"),
    "checkpoint svdd.slope 5": (
        "checkpoint", lambda b: _replace_once(b, b"slope = 0.1\n", b"slope = 5.0\n"),
        1, "svdd.slope must be in (0, 1], got 5.0"),
    **{f"checkpoint truncated to {n} bytes": ("checkpoint", lambda b, n=n: b[:n], 2)
       for n in (0, 3, 11, 40, 700)},
    "checkpoint missing its last byte": ("checkpoint", lambda b: b[:-1], 2),
    "checkpoint array dims beyond the file": (
        "checkpoint", _first_dim_huge, 2, "truncated checkpoint"),
    "checkpoint trailing byte": (
        "checkpoint", lambda b: b + b"\0", 2,
        "trailing bytes after the last block, from byte"),
    "checkpoint repeated block": (
        "checkpoint", _appended("detector/center", np.zeros(4)), 2,
        "checkpoint repeats block 'detector/center'"),
    "checkpoint block its config does not list": (
        "checkpoint", lambda b: _replace_once(b, b"[vgae]\nenabled = True",
                                              b"[vgae]\nenabled = off "),
        2, "checkpoint block 'vgae/w_hidden' is not part of the model"),
    # A value from outside is checked where it enters.
    **{f"checkpoint {block} {value}": (
        "checkpoint", _first_entry(block, value), 2,
        f"checkpoint block {block!r} holds a non-finite value")
       for block, value in (("detector/center", math.nan),
                            ("detector/threshold", math.nan),
                            ("detector/threshold", math.inf),
                            ("svdd/w0", math.nan), ("normalizer/std", math.nan))},
    **{f"checkpoint normalizer/std {value}": (
        "checkpoint", _first_entry("normalizer/std", value), 2,
        "checkpoint block 'normalizer/std' is below 1e-08")
       for value in (-1.0, 0.0)},
    "train csv cell 1e300 overflows the normalizer": (
        "train-data", _first_sensor_cell(b"1e300"), 3,
        "numeric failure: [data] normalizer: overflow encountered in square"),
    "checkpoint normalizer one sensor short": (
        "checkpoint", _one_short("normalizer/std", axis=0), 2),
    "checkpoint svdd/w0 one row short": ("checkpoint", _one_short("svdd/w0", axis=0), 2),
    "checkpoint vgae/w_hidden one row short": (
        "checkpoint", _one_short("vgae/w_hidden", axis=0), 2),
    **{f"directory as --{flag}": (flag, None, 2)
       for flag in ("topology", "data", "checkpoint")},
    "directory as --config": ("config", None, 1),
}


# The start of stderr for each documented exit code.
PREFIXES = {1: "error: ", 2: "data error: ", 3: "numeric failure: "}


@pytest.mark.parametrize("case", EXIT_CASES)
def test_bad_input_ends_in_its_documented_exit_code(trained, tmp_path, capsys, case):
    flag, given, expected, *message = EXIT_CASES[case]
    args = {"data": trained / "test.csv", "topology": trained / "topology.txt",
            "checkpoint": trained / "model.ckpt", "train-data": trained / "train.csv"}
    if given is None:
        args[flag] = tmp_path
    elif isinstance(given, str):
        args[flag] = given
    else:
        bad = tmp_path / "bad"
        bad.write_bytes(given if isinstance(given, bytes)
                        else given(args[flag].read_bytes()))
        args[flag] = bad
    if flag in ("scores", "segments"):
        argv = ["evaluate", "--data", str(args["data"]), "--scores", str(args[flag])]
        if flag == "segments":
            argv += ["--granularity", "segment"]
    elif flag in ("train-set", "train-data"):
        argv = ["train", "--data", str(args["train-data"]),
                "--topology", str(args["topology"]), *_sets(SETTINGS),
                *_sets(given.split() if flag == "train-set" else [])]
    elif flag == "synth":
        argv = ["synth", *_sets(SETTINGS), *given.split()]
    else:
        argv = ["score", *(arg for name, value in args.items()
                           if name != "train-data"
                           for arg in (f"--{name}", str(value)))]
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        code = main([*argv, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    # A warning would reach stderr as a second line outside the test.
    assert not warned, [str(w.message) for w in warned]
    assert code == expected, err
    assert err.startswith(PREFIXES[expected]), err
    assert err.count("\n") == 1, err
    assert "Traceback" not in err
    for text in message:
        assert text in err, err
    if flag in ("synth", "train-set", "train-data"):
        # A failed synth or train writes nothing: no data, no checkpoint.
        assert not (tmp_path / "out").exists()
    if expected == 2 or flag == "checkpoint":
        # A data error names its file; a topology mismatch, the checkpoint;
        # a bad config stored in a checkpoint, the checkpoint too.
        named = "checkpoint" if case.endswith("checkpoint's") else flag
        assert str(args[named]) in err
