import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpsdetect import benchmark, checkpoint, data, pipeline
from cpsdetect.errors import ConfigError, DataError

from tiny import tiny_config, tiny_data


def train(variant: str = "full"):
    config = tiny_config(variant)
    topology, values, labels, test = tiny_data(config)
    return pipeline.train_pipeline(config, topology, values, labels), test


def scores(pipe, values) -> np.ndarray:
    return np.array([r.score for r in pipeline.score_stream(pipe, values)[1]])


@pytest.fixture(scope="module")
def trained():
    return train("full")


@pytest.mark.parametrize("variant", list(benchmark.VARIANTS))
def test_save_load_scores_bit_exact(tmp_path, variant):
    pipe, test = train(variant)
    path = tmp_path / "model.ckpt"
    checkpoint.save_checkpoint(path, pipe)
    loaded = checkpoint.load_checkpoint(path, pipe.topology)
    assert loaded.threshold == pipe.threshold
    np.testing.assert_array_equal(scores(loaded, test), scores(pipe, test))
    # Loading then saving again writes the same bytes.
    checkpoint.save_checkpoint(tmp_path / "again.ckpt", loaded)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_identical_runs_write_identical_files(tmp_path, trained):
    pipe, _ = trained
    again, _ = train("full")
    checkpoint.save_checkpoint(tmp_path / "a.ckpt", pipe)
    checkpoint.save_checkpoint(tmp_path / "b.ckpt", again)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_block_names_follow_the_stage_order(trained):
    pipe, _ = trained
    names = [name for name, _ in checkpoint._arrays(pipe)]
    assert names == [
        "normalizer/mean", "normalizer/std",
        "temporal/w_query", "temporal/w_key", "temporal/w_value",
        "temporal/w_out", "temporal/w_ff1", "temporal/b_ff1",
        "temporal/w_ff2", "temporal/b_ff2", "temporal/w_pred",
        "temporal/b_pred", "vgae/w_hidden", "vgae/w_heads",
        "svdd/w0", "svdd/w1", "detector/center", "detector/threshold"]


def test_each_array_keeps_its_own_shape(tmp_path, trained):
    pipe, _ = trained
    path = tmp_path / "model.ckpt"
    checkpoint.save_checkpoint(path, pipe)
    blocks = checkpoint._read_blocks(path)
    assert blocks["normalizer/mean"].shape == (4,)
    assert blocks["temporal/w_query"].shape == (2, 10, 2)
    assert blocks["temporal/w_out"].shape == (4, 4)
    assert blocks["detector/center"].shape == (4,)
    assert blocks["detector/threshold"].shape == ()
    assert float(blocks["detector/threshold"]) == pipe.threshold


def test_block_of_the_wrong_kind_is_a_data_error(tmp_path, trained):
    pipe, _ = trained
    path = tmp_path / "model.ckpt"
    checkpoint.save_checkpoint(path, pipe)
    blocks = checkpoint._read_blocks(path)
    for name, wrong in (("svdd/w0", "text"), ("config", np.zeros(1))):
        with pytest.raises(DataError, match=f"'{name}' is of the wrong kind"):
            checkpoint._rebuild({**blocks, name: wrong}, pipe.topology)


# Blocks whose shape the loader does not read to size a stage.
CHECKED = ("normalizer/mean", "normalizer/std", "temporal/w_key",
           "temporal/b_pred", "vgae/w_heads", "svdd/w1")


def _save_altered(monkeypatch, path, pipe, alter):
    original = checkpoint._arrays
    monkeypatch.setattr(checkpoint, "_arrays",
                        lambda p: alter(original(p)))
    checkpoint.save_checkpoint(path, pipe)
    monkeypatch.undo()


@pytest.mark.parametrize("name", CHECKED + (
    "vgae/w_hidden", "svdd/w0", "detector/center", "detector/threshold"))
def test_missing_block_is_a_data_error(tmp_path, monkeypatch, trained, name):
    pipe, _ = trained
    path = tmp_path / "model.ckpt"
    _save_altered(monkeypatch, path, pipe,
                  lambda blocks: [b for b in blocks if b[0] != name])
    with pytest.raises(DataError, match=f"missing block '{name}'"):
        checkpoint.load_checkpoint(path, pipe.topology)


@pytest.mark.parametrize("name", CHECKED)
def test_wrong_shape_block_is_a_data_error(tmp_path, monkeypatch, trained, name):
    pipe, _ = trained
    path = tmp_path / "model.ckpt"
    _save_altered(monkeypatch, path, pipe, lambda blocks: [
        (n, np.zeros(m.shape[:-1] + (m.shape[-1] + 1,)) if n == name else m)
        for n, m in blocks])
    with pytest.raises(DataError, match=f"block '{name}' has shape"):
        checkpoint.load_checkpoint(path, pipe.topology)


def test_center_of_the_wrong_width_is_a_data_error(tmp_path, monkeypatch, trained):
    # svdd.widths ends in 4; a 3-entry center used to load and then fail
    # at scoring with a numpy broadcast error.
    pipe, _ = trained
    path = tmp_path / "model.ckpt"
    _save_altered(monkeypatch, path, pipe, lambda blocks: [
        (n, m[:3] if n == "detector/center" else m) for n, m in blocks])
    with pytest.raises(DataError, match=r"'detector/center' has shape \(3,\)"):
        checkpoint.load_checkpoint(path, pipe.topology)


def test_a_config_block_with_paths_and_synthetic_still_loads(tmp_path, trained):
    # Earlier version-4 files also stored these two sections; no model
    # reads them.
    pipe, test = trained
    path = tmp_path / "model.ckpt"
    checkpoint.save_checkpoint(path, pipe)
    blocks = checkpoint._read_blocks(path)
    config = ("[paths]\ndata = d/data.csv\nout = .\n\n" + blocks["config"]
              + "[synthetic]\nsensors = 4\nanomalies = drift:10:50:2:3.0\n"
              "split = none\n\n")
    loaded = checkpoint._rebuild({**blocks, "config": config}, pipe.topology)
    np.testing.assert_array_equal(scores(loaded, test), scores(pipe, test))


def _drop_one_edge(topology):
    adjacency = topology.adjacency.copy()
    i, j = np.argwhere(np.triu(adjacency))[0]
    adjacency[i, j] = adjacency[j, i] = 0
    return data.SensorTopology(topology.names, adjacency, topology.type_of,
                               topology.type_names)


def test_checkpoint_stores_its_topology(tmp_path, trained):
    pipe, _ = trained
    path = tmp_path / "model.ckpt"
    checkpoint.save_checkpoint(path, pipe)
    assert data.format_topology(pipe.topology).encode() in path.read_bytes()
    # The same graph written another way loads: edges reversed, a comment.
    lines = data.format_topology(pipe.topology).splitlines()
    sensors = [line for line in lines if line.startswith("sensor")]
    edges = [f"edge {b} {a}" for a, b in (line.split()[1:] for line in lines
                                         if line.startswith("edge"))]
    same = data.parse_topology("\n".join(["# again", *sensors, *edges[::-1]]))
    checkpoint.load_checkpoint(path, same)
    with pytest.raises(DataError, match=re.escape(
            f"{path}: checkpoint was trained on another topology")):
        checkpoint.load_checkpoint(path, _drop_one_edge(pipe.topology))


def test_a_stored_one_row_window_is_a_config_error(tmp_path, trained):
    pipe, _ = trained
    path = tmp_path / "model.ckpt"
    checkpoint.save_checkpoint(path, pipe)
    blob = path.read_bytes()
    old, new = b"[window]\nlength = 10\n", b"[window]\nlength =  1\n"
    assert blob.count(old) == 1
    path.write_bytes(blob.replace(old, new))
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}: window length must be >= 2, got 1")):
        checkpoint.load_checkpoint(path, pipe.topology)


def test_digest_script_prints_the_raw_digest():
    # The script reads the checkpoint listing, so it runs here once, on the
    # quickest variant, with no BLAS thread setting: it runs BLAS on one
    # thread.
    root = Path(__file__).resolve().parent.parent
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(root / "src")
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "checkpoint_digests.py"), "raw"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("threads: ")
    assert "OPENBLAS_NUM_THREADS=1" in lines[0].split()
    assert re.fullmatch(r"stream: [0-9a-f]{64}", lines[1])
    assert len(lines) == 3 and re.fullmatch(
        r"raw: [0-9a-f]{64} record [0-9a-f]{64} windows [0-9a-f]{64}", lines[2])
