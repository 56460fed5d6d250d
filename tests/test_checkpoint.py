import re

import numpy as np
import pytest

from cpsdetect import benchmark, checkpoint, data, pipeline
from cpsdetect.errors import DataError

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
    names = [name for name, _ in checkpoint._matrix_blocks(pipe)]
    assert names == [
        "normalizer/mean", "normalizer/std",
        "temporal/w_query0", "temporal/w_key0", "temporal/w_value0",
        "temporal/w_query1", "temporal/w_key1", "temporal/w_value1",
        "temporal/w_out", "temporal/w_ff1", "temporal/b_ff1",
        "temporal/w_ff2", "temporal/b_ff2", "temporal/w_pred",
        "temporal/b_pred", "vgae/w_hidden", "vgae/w_heads",
        "svdd/w0", "svdd/w1", "detector/center"]


def test_head_blocks_are_the_slices_of_the_stored_stacks(tmp_path, trained):
    pipe, _ = trained
    path = tmp_path / "model.ckpt"
    checkpoint.save_checkpoint(path, pipe)
    blocks = checkpoint._read_blocks(path)
    loaded = checkpoint.load_checkpoint(path, pipe.topology)
    for kind in ("w_query", "w_key", "w_value"):
        stored, reloaded = getattr(pipe.temporal, kind), getattr(loaded.temporal, kind)
        assert stored.shape == reloaded.shape == (2,) + blocks[f"temporal/{kind}0"].shape
        for h in range(2):
            block = blocks[f"temporal/{kind}{h}"]
            assert block.tobytes() == stored.value[h].tobytes()
            # The loader wrote into the stack the encoder computes with.
            assert block.tobytes() == reloaded.value[h].tobytes()


# Blocks whose shape the loader does not read to size a stage.
CHECKED = ("normalizer/mean", "normalizer/std", "temporal/w_key1",
           "temporal/b_pred", "vgae/w_heads", "svdd/w1")


def _save_altered(monkeypatch, path, pipe, alter):
    original = checkpoint._matrix_blocks
    monkeypatch.setattr(checkpoint, "_matrix_blocks",
                        lambda p: alter(original(p)))
    checkpoint.save_checkpoint(path, pipe)
    monkeypatch.undo()


@pytest.mark.parametrize("name", CHECKED + (
    "vgae/w_hidden", "svdd/w0", "detector/center"))
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
        (n, np.zeros((1, m.shape[1] + 1)) if n == name else m) for n, m in blocks])
    with pytest.raises(DataError, match=f"block '{name}' has shape"):
        checkpoint.load_checkpoint(path, pipe.topology)


def test_center_of_the_wrong_width_is_a_data_error(tmp_path, monkeypatch, trained):
    # svdd.widths ends in 4; a 3-entry center used to load and then fail
    # at scoring with a numpy broadcast error.
    pipe, _ = trained
    path = tmp_path / "model.ckpt"
    _save_altered(monkeypatch, path, pipe, lambda blocks: [
        (n, m[:, :3] if n == "detector/center" else m) for n, m in blocks])
    with pytest.raises(DataError, match=r"'detector/center' has shape \(1, 3\)"):
        checkpoint.load_checkpoint(path, pipe.topology)


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
