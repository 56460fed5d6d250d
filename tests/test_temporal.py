import math
import tracemalloc

import numpy as np
import pytest

from cpsdetect import autodiff as ad
from cpsdetect import temporal
from cpsdetect.autodiff import Tensor
from cpsdetect.errors import DataError

from conftest import traced_peak
from oracles import finite_difference, relative_gradient_error


def make_encoder(sensors=3, window=4, heads=2, head_dim=2, model_dim=4, seed=0):
    return temporal.TemporalEncoder(sensors, window, heads, head_dim, model_dim,
                                    np.random.default_rng(seed))


def numpy_encode(enc, t):
    """Independent numpy composition of the attention + feed-forward formulas."""
    heads = []
    for h in range(enc.heads):
        q = t @ enc.w_query.value[h]
        k = t @ enc.w_key.value[h]
        v = t @ enc.w_value.value[h]
        scores = (q @ k.T) / math.sqrt(enc.window)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        heads.append(attn @ v)
    merged = np.concatenate(heads, axis=1) @ enc.w_out.value
    hidden = np.maximum(merged @ enc.w_ff1.value + enc.b_ff1.value, 0.0)
    return merged + hidden @ enc.w_ff2.value + enc.b_ff2.value


class TestAttentionHead:
    # attention_weights gives every head's matrix along a heads axis, and
    # head h's output is column block h of attend.
    def test_single_sensor_attention_is_identity(self):
        enc = make_encoder(sensors=1, window=3, heads=1, head_dim=2)
        t = np.array([[0.5, -1.0, 2.0]])
        weights = enc.attention_weights(Tensor(t)).value
        assert weights.shape == (1, 1, 1)
        np.testing.assert_allclose(weights[0], [[1.0]])
        out = enc.attend(Tensor(t)).value
        np.testing.assert_allclose(out[:, 0:2], t @ enc.w_value.value[0])

    def test_zero_input_gives_uniform_attention_and_zero_output(self):
        enc = make_encoder(sensors=3, window=4, heads=1, head_dim=2)
        t = np.zeros((3, 4))
        weights = enc.attention_weights(Tensor(t)).value
        np.testing.assert_allclose(weights[0], np.full((3, 3), 1.0 / 3.0))
        np.testing.assert_allclose(enc.attend(Tensor(t)).value[:, 0:2], 0.0)

    def test_hand_executed_two_by_two(self):
        enc = make_encoder(sensors=2, window=2, heads=1, head_dim=1)
        enc.w_query.value[0] = [[1.0], [0.0]]
        enc.w_key.value[0] = [[1.0], [0.0]]
        enc.w_value.value[0] = [[0.0], [1.0]]
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        # Hand execution: q = k = [[1],[0]], v = [[0],[1]],
        # scores/sqrt(2) = [[s,0],[0,0]] with s = 1/sqrt(2).
        s = 1.0 / math.sqrt(2.0)
        row0 = [math.exp(s) / (math.exp(s) + 1.0), 1.0 / (math.exp(s) + 1.0)]
        expected = np.array([[row0[1]], [0.5]])  # attn @ v picks column 2 weight
        out = enc.attend(Tensor(t)).value[:, 0:1]
        np.testing.assert_allclose(out, expected, atol=1e-12)
        weights = enc.attention_weights(Tensor(t)).value[0]
        np.testing.assert_allclose(weights[0], row0, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        enc = make_encoder()
        t = np.random.default_rng(1).normal(size=(3, 4))
        weights = enc.attention_weights(Tensor(t)).value
        for h in range(enc.heads):
            sums = weights[h].sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_column_blocks_are_the_heads_in_order(self):
        enc = make_encoder(sensors=4, window=5, heads=3, head_dim=2, seed=24)
        stack = np.random.default_rng(25).normal(size=(2, 4, 5))
        weights = enc.attention_weights(Tensor(stack)).value
        out = enc.attend(Tensor(stack)).value
        assert weights.shape == (2, 3, 4, 4) and out.shape == (2, 4, 6)
        for t, w, o in zip(stack, weights, out):
            for h in range(enc.heads):
                q = t @ enc.w_query.value[h]
                k = t @ enc.w_key.value[h]
                scores = (q @ k.T) / math.sqrt(enc.window)
                e = np.exp(scores - scores.max(axis=1, keepdims=True))
                np.testing.assert_allclose(w[h], e / e.sum(axis=1, keepdims=True),
                                           atol=1e-12)
                np.testing.assert_allclose(o[:, 2 * h:2 * h + 2],
                                           w[h] @ (t @ enc.w_value.value[h]),
                                           atol=1e-12)


class TestEncode:
    def test_zero_feedforward_is_residual_identity(self):
        enc = make_encoder()
        for p in (enc.w_ff1, enc.w_ff2, enc.b_ff1, enc.b_ff2):
            p.value[:] = 0.0
        t = np.random.default_rng(2).normal(size=(3, 4))
        merged = ad.matmul(enc.attend(Tensor(t)), enc.w_out).value
        np.testing.assert_allclose(enc.encode(Tensor(t)).value, merged)

    def test_matches_composed_numpy_oracle(self):
        enc = make_encoder(sensors=4, window=5, heads=1, head_dim=3, model_dim=3,
                           seed=7)
        t = np.random.default_rng(3).normal(size=(4, 5))
        np.testing.assert_allclose(enc.encode(Tensor(t)).value,
                                   numpy_encode(enc, t, ), atol=1e-12)

    def test_multi_head_matches_composed_numpy_oracle(self):
        enc = make_encoder(sensors=4, window=5, heads=3, head_dim=2, model_dim=3,
                           seed=26)
        t = np.random.default_rng(27).normal(size=(4, 5))
        np.testing.assert_allclose(enc.encode(Tensor(t)).value,
                                   numpy_encode(enc, t), atol=1e-12)

    def test_row_permutation_equivariance_with_fresh_biases(self):
        # Freshly initialized biases are zero, so permuting the sensor rows of
        # the input permutes the embedding rows. Trained per-sensor biases
        # intentionally break this.
        enc = make_encoder(sensors=5, window=4, seed=9)
        t = np.random.default_rng(4).normal(size=(5, 4))
        perm = np.array([3, 0, 4, 1, 2])
        direct = enc.encode(Tensor(t[perm])).value
        permuted = enc.encode(Tensor(t)).value[perm]
        np.testing.assert_allclose(direct, permuted, atol=1e-12)

    @pytest.mark.parametrize("window", [3, 6, 9])
    def test_output_shape_independent_of_window(self, window):
        enc = make_encoder(sensors=3, window=window, model_dim=5)
        t = np.zeros((3, window))
        assert enc.encode(Tensor(t)).shape == (3, 5)


class TestStack:
    def test_stack_equals_one_segment_at_a_time(self):
        enc = make_encoder(sensors=4, window=5, seed=17)
        stack = np.random.default_rng(18).normal(size=(6, 4, 5))
        batched = enc.encode(Tensor(stack)).value
        assert batched.shape == (6, 4, 4)
        assert np.array_equal(
            batched, np.stack([enc.encode(Tensor(t)).value for t in stack]))
        predicted = enc.predict_next(Tensor(batched)).value
        assert np.array_equal(
            predicted, np.stack([enc.predict_next(Tensor(u)).value for u in batched]))

    def test_loss_is_the_mean_of_per_pair_losses(self):
        enc = make_encoder(seed=19)
        windows, successors = np.random.default_rng(20).normal(size=(2, 5, 3, 4))
        per_pair = [temporal.prediction_loss(enc, w[None], s[None], 1).value[0, 0]
                    for w, s in zip(windows, successors)]
        loss = temporal.prediction_loss(enc, windows, successors,
                                        len(windows)).value[0, 0]
        assert loss == pytest.approx(np.mean(per_pair), rel=1e-12)

    def test_wrong_segment_shape_rejected(self):
        with pytest.raises(ValueError, match="segment shape"):
            make_encoder().encode(Tensor(np.zeros((2, 3, 5))))


def test_batch_encode_peak_memory_stays_within_the_per_head_loop():
    # An encode of the benchmark's 266 test windows at the default
    # sizes, measured after one warm-up call. The per-head loop this path
    # replaced peaked at 3,372,994 traced bytes (numpy 2.4.6, Python 3.11), with four
    # (266 x 12 x 32) float64 arrays live at once in the feed-forward block.
    # Keeping every head's queries, keys and values alive across the encode
    # (or the hidden layer across the residual add) exceeds that.
    enc = make_encoder(sensors=12, window=30, heads=4, head_dim=8, model_dim=32)
    x = Tensor(np.random.default_rng(28).normal(size=(266, 12, 30)))
    enc.encode(x)
    out, peak = traced_peak(enc.encode, x)
    assert out.shape == (266, 12, 32)
    assert peak <= 3_372_994, peak



def test_prediction_loss_graph_keeps_only_what_its_backward_reads():
    # The bytes a recorded 64-window loss holds at the default sizes,
    # against the windows' own bytes. Its ops' closures keep the queries,
    # the transposed keys, the softmax output, the values, the head outputs,
    # the merged embedding, the hidden layer and its mask, the embedding and
    # the residual: about 10.3x (numpy 2.4.6, Python 3.11). A graph that
    # keeps every node's forward value (the logits before and after
    # scaling, k before its transpose, every bias sum) holds about 21.9x.
    enc = make_encoder(sensors=12, window=30, heads=4, head_dim=8, model_dim=32)
    rng = np.random.default_rng(29)
    windows = rng.normal(size=(64, 12, 30))
    successors = rng.normal(size=windows.shape)

    def build():
        # Traced bytes start at 0: what is traced now is what the loss holds.
        loss = temporal.prediction_loss(enc, windows, successors, 64)
        return loss, tracemalloc.get_traced_memory()[0]

    with ad.trainable([p for _, p in enc.named_parameters()]):
        (loss, kept), _ = traced_peak(build)
    assert loss.requires_grad
    assert kept < 13 * windows.nbytes, (kept, windows.nbytes)

class TestParameters:
    def test_named_in_checkpoint_order_each_once(self):
        enc = make_encoder(heads=2)
        named = list(enc.named_parameters())
        assert [name for name, _ in named] == [
            "w_query", "w_key", "w_value", "w_out", "w_ff1", "b_ff1",
            "w_ff2", "b_ff2", "w_pred", "b_pred"]
        params = [p for _, p in named]
        assert len({id(p) for p in params}) == len(params)
        assert not any(p.requires_grad for p in params)

    def test_projections_are_three_stored_stacks(self):
        enc = make_encoder(window=4, heads=3, head_dim=2)
        stacks = [p for _, p in enc.named_parameters()][:3]
        assert stacks == [enc.w_query, enc.w_key, enc.w_value]
        assert all(p.shape == (3, 4, 2) for p in stacks)
        assert len(list(enc.named_parameters())) == 3 + 7

    def test_stacked_draws_equal_the_per_head_draws(self):
        # One (heads x window x head_dim) draw per projection gives the
        # numbers of one (window x head_dim) draw per head.
        enc = make_encoder(window=4, heads=3, head_dim=2, seed=30)
        rng = np.random.default_rng(30)
        for kind in ("w_query", "w_key", "w_value"):
            for h in range(3):
                assert np.array_equal(getattr(enc, kind).value[h],
                                      ad.uniform_init(rng, 4, 2).value)
        assert np.array_equal(enc.w_out.value, ad.uniform_init(rng, 6, 4).value)


class TestPredictNext:
    def test_zero_weights_return_bias(self):
        enc = make_encoder()
        enc.w_pred.value[:] = 0.0
        enc.b_pred.value[:] = 2.5
        out = enc.predict_next(Tensor(np.ones((3, 4)))).value
        np.testing.assert_allclose(out, np.full((3, 4), 2.5))

    def test_rank_one_case(self):
        enc = make_encoder(sensors=2, window=3, heads=1, head_dim=1, model_dim=1)
        enc.w_pred.value = np.ones((1, 3))
        enc.b_pred.value = np.arange(6.0).reshape(2, 3)
        u = np.array([[2.0], [-1.0]])
        out = enc.predict_next(Tensor(u)).value
        np.testing.assert_allclose(out, u @ np.ones((1, 3)) + enc.b_pred.value)

    def test_matches_affine_oracle(self):
        enc = make_encoder(seed=13)
        u = np.random.default_rng(6).normal(size=(3, 4))
        expected = u @ enc.w_pred.value + enc.b_pred.value
        np.testing.assert_allclose(enc.predict_next(Tensor(u)).value, expected)


def test_prediction_loss_gradients_pass_finite_differences():
    enc = make_encoder(sensors=3, window=4, heads=2, head_dim=2, model_dim=4,
                       seed=21)
    rng = np.random.default_rng(22)
    windows, successors = rng.normal(size=(2, 2, 3, 4))

    def loss_value():
        return float(temporal.prediction_loss(enc, windows, successors, 2).value[0, 0])

    params = [p for _, p in enc.named_parameters()]
    with ad.trainable(params):
        temporal.prediction_loss(enc, windows, successors, 2).backward()
        grads = [np.zeros_like(p.value) if p.grad is None else p.grad.copy()
                 for p in params]
    for p, analytic in zip(params, grads):
        numeric = finite_difference(loss_value, p.value)
        assert relative_gradient_error(analytic, numeric) < 1e-4


def _pairs(values: np.ndarray, window: int, count: int):
    """A (rows x sensors) stream of ``count`` pairs and the pairs' starts:
    pair i is rows ``i * window`` to ``(i + 2) * window``."""
    return values[:(count + 1) * window], np.arange(count) * window


class TestTraining:
    def _constant_pairs(self, value=0.7, sensors=4, window=8, count=4):
        """A constant stream and the starts of ``count`` pairs in it."""
        return _pairs(np.full(((count + 1) * window, sensors), value), window, count)

    def test_constant_stream_converges(self):
        enc = make_encoder(sensors=4, window=8, heads=1, head_dim=2, model_dim=4,
                           seed=5)
        trace = temporal.train_temporal(enc, *self._constant_pairs(),
                                        epochs=200, lr=0.002)
        assert trace[-1] < 1e-4

    def test_smoothed_loss_non_increasing_on_constant_toy(self):
        enc = make_encoder(sensors=4, window=8, heads=1, head_dim=2, model_dim=4,
                           seed=5)
        trace = np.asarray(temporal.train_temporal(
            enc, *self._constant_pairs(), epochs=200, lr=0.002))
        smoothed = np.convolve(trace, np.ones(5) / 5.0, mode="valid")
        assert (np.diff(smoothed) <= 1e-9 * np.maximum(smoothed[:-1], 1.0)).all()

    def test_zero_epochs_changes_nothing(self):
        enc = make_encoder(seed=5)
        before = [p.value.copy() for _, p in enc.named_parameters()]
        trace = temporal.train_temporal(
            enc, *self._constant_pairs(sensors=3, window=4), epochs=0, lr=0.05)
        assert trace == []
        for (_, p), b in zip(enc.named_parameters(), before):
            np.testing.assert_array_equal(p.value, b)

    def test_seeded_runs_are_identical(self):
        traces = []
        for _ in range(2):
            enc = make_encoder(seed=8)
            traces.append(temporal.train_temporal(
                enc, *self._constant_pairs(sensors=3, window=4), epochs=20, lr=0.02))
        assert traces[0] == traces[1]

    def test_epoch_loss_is_the_loss_of_the_gathered_pairs(self):
        # Overlapping pairs at uneven starts: a pair's window is the rows
        # at its start, its successor the rows right after, both sensor-major.
        enc = make_encoder(seed=9)
        values = np.random.default_rng(10).normal(size=(30, 3))
        starts = np.array([0, 3, 4, 11, 22])
        windows = np.stack([values[s:s + 4].T for s in starts])
        successors = np.stack([values[s + 4:s + 8].T for s in starts])
        expected = temporal.prediction_loss(enc, windows, successors, 5).value[0, 0]
        trace = temporal.train_temporal(enc, values, starts, epochs=1, lr=0.01)
        assert trace == [pytest.approx(expected, rel=1e-12)]

    def test_chunked_fit_equals_one_whole_stack_part(self, monkeypatch):
        values, starts = _pairs(np.random.default_rng(30).normal(size=(72, 3)),
                                window=4, count=17)
        fitted = []
        for chunk in (10**6, 7):
            monkeypatch.setattr(ad, "CHUNK", chunk)
            enc = make_encoder(seed=31)
            temporal.train_temporal(enc, values, starts, epochs=3, lr=0.05)
            fitted.append([p.value.tobytes() for _, p in enc.named_parameters()])
        assert fitted[0] == fitted[1]

    def test_empty_pairs_rejected(self):
        enc = make_encoder()
        with pytest.raises(DataError, match="no training pairs"):
            temporal.train_temporal(enc, np.zeros((8, 3)), np.arange(0),
                                    epochs=1, lr=0.01)


def test_fit_epoch_peak_memory_stays_flat_in_the_stack_length(monkeypatch):
    # One epoch over 4x the pairs holds one 64-pair part's windows,
    # successors and graph at a time, as one over 1x does: 1.01x the 1x
    # peak (numpy 2.4.6, Python 3.11). A part kept alive while the next is
    # built peaks at about 1.4x, a single whole-stack part at about 4x.
    monkeypatch.setattr(ad, "CHUNK", 64)
    values, starts = _pairs(np.random.default_rng(32).normal(size=(257 * 30, 12)),
                            window=30, count=256)
    peaks = []
    for count in (64, 256):
        enc = make_encoder(sensors=12, window=30, heads=4, head_dim=8,
                           model_dim=32)
        peaks.append(traced_peak(temporal.train_temporal, enc, values,
                                 starts[:count], 1, 0.01)[1])
    assert peaks[1] < 1.2 * peaks[0], peaks
