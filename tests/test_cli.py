import csv

import pytest

from cpsdetect.cli import main

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
