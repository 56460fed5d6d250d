import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpsdetect import autodiff as ad
from cpsdetect import temporal

from conftest import traced_peak
from oracles import (by_head, column_blocks, finite_difference,
                     reference_softmax_rows, reference_temporal_forward,
                     reference_temporal_part, relative_gradient_error)
import reverse_mode as rm


def make_encoder(sensors=3, window=4, heads=2, head_dim=2, model_dim=4, seed=0):
    return temporal.TemporalEncoder(sensors, window, heads, head_dim, model_dim,
                                    np.random.default_rng(seed))


def attend(enc, t):
    """The heads' outputs side by side, (..., sensors, heads * head_dim):
    head h's attention-weighted value projections fill column block h."""
    tape = {}
    enc.encode(t, tape)
    return tape["heads"]


def attention(enc, t):
    """Every head's (sensors x sensors) softmax attention matrix,
    (..., heads, sensors, sensors), as ``encode`` keeps it on its tape."""
    tape = {}
    enc.encode(t, tape)
    return tape["attention"]


def fresh_grads():
    return [None] * 10


def head(enc, weight, h):
    """Head h's (window x head_dim) column block of a stored projection."""
    return weight.value[:, h * enc.head_dim:(h + 1) * enc.head_dim]


def numpy_encode(enc, t):
    """Independent numpy composition of the attention + feed-forward formulas."""
    heads = []
    for h in range(enc.heads):
        q = t @ head(enc, enc.w_query, h)
        k = t @ head(enc, enc.w_key, h)
        v = t @ head(enc, enc.w_value, h)
        scores = (q @ k.T) / math.sqrt(enc.window)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        heads.append(attn @ v)
    merged = np.concatenate(heads, axis=1) @ enc.w_out.value
    hidden = np.maximum(merged @ enc.w_ff1.value + enc.b_ff1.value, 0.0)
    return merged + hidden @ enc.w_ff2.value + enc.b_ff2.value


class TestSoftmaxRows:
    def test_symmetry(self):
        np.testing.assert_allclose(temporal.softmax_rows(np.array([[0.0, 0.0]])),
                                   [[0.5, 0.5]])

    def test_large_equal_logits_stable(self):
        for big in (1000.0, 1e150):
            np.testing.assert_allclose(temporal.softmax_rows(np.array([[big, big]])),
                                       [[0.5, 0.5]])

    def test_closed_form(self):
        out = temporal.softmax_rows(np.array([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
           st.floats(-100, 100))
    def test_rows_sum_to_one_and_shift_invariant(self, row, shift):
        x = np.asarray([row])
        base = temporal.softmax_rows(x)
        shifted = temporal.softmax_rows(x + shift)
        assert abs(base.sum() - 1.0) <= 1e-9
        np.testing.assert_allclose(base, shifted, atol=1e-12)
        assert (base >= 0.0).all()


def _activation_inputs():
    # Large enough for numpy's SIMD loops, with both zeros and subnormals.
    rng = np.random.default_rng(6)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300])
    values = np.concatenate([rng.normal(size=20_000), np.tile(special, 500)])
    return rng.permutation(values).reshape(4, 60, 100)


def assert_softmax_matches_the_shifted_exp_formula(values, layout="rows"):
    """The bytes of the formula, with numpy's max and sum along each row,
    from ``softmax_rows`` or, on a key-major copy, ``softmax_keys``; the
    input is unchanged."""
    before = values.tobytes()
    if layout == "rows":
        out = temporal.softmax_rows(values)
    else:
        out = np.moveaxis(values, -1, 0).copy()
        temporal.softmax_keys(out)
        out = np.moveaxis(out, 0, -1)
    assert out.tobytes() == reference_softmax_rows(values).tobytes()
    assert values.tobytes() == before


@pytest.mark.parametrize("layout", ["rows", "keys"])
def test_softmax_matches_the_shifted_exp_formula_bitwise(layout):
    assert_softmax_matches_the_shifted_exp_formula(_activation_inputs(), layout)


@pytest.mark.parametrize("layout", ["rows", "keys"])
@pytest.mark.parametrize("length", [1, 2, 3, 12, 33, 130])
def test_softmax_matches_the_shifted_exp_formula_bitwise_at_row_length(length, layout):
    # Rows hold their max at varied columns, with ties, all-zero rows and
    # signed zeros at either end; numpy's pairwise sum recurses above 128.
    values = _activation_inputs().reshape(-1)[:60 * length].reshape(4, 15, length)
    values[0] = -0.0
    values[1, :, 0] = 0.0
    values[1, :, -1] = -0.0
    assert_softmax_matches_the_shifted_exp_formula(values, layout)


@pytest.mark.parametrize("layout", ["rows", "keys"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("windows", [1, temporal.STACK_WINDOWS - 1,
                                     temporal.STACK_WINDOWS, 10, 11, 16])
def test_softmax_matches_the_shifted_exp_formula_bitwise_across_the_crossovers(
        windows, dtype, layout):
    # The attention of windows on either side of STACK_WINDOWS, at which a
    # tape-free encode turns from row-major logits to key-major ones, and
    # of 10 (480 rows of 12) and 11 windows (528): below and from the
    # COLUMN_ROWS rows at which softmax_rows' max and row_sums turn from
    # numpy's reductions to whole columns; 16 windows are 768 rows.
    assert 10 * 48 < temporal.COLUMN_ROWS <= 11 * 48
    rng = np.random.default_rng(7)
    tiny = np.finfo(dtype).smallest_subnormal
    values = (rng.normal(size=(windows, 4, 12, 12)) * 8.0).astype(dtype)
    special = np.array([0.0, -0.0, tiny, -tiny, 1e-38, -1e-38], dtype=dtype)
    mask = rng.random(values.shape) < 0.2
    values[mask] = rng.choice(special, size=mask.sum())
    values[0, 0] = -0.0
    # Tied maxima, and rows whose max is a zero of either sign, or both.
    values[-1, 1, :, ::3] = values[-1, 1, :, :1]
    values[-1, 2] = -np.abs(values[-1, 2]) - 1.0
    values[-1, 2, :4, 5] = 0.0
    values[-1, 2, 4:8, 5] = -0.0
    values[-1, 2, 8:, 2], values[-1, 2, 8:, 9] = 0.0, -0.0
    values[-1, 2, 10:, 2], values[-1, 2, 10:, 9] = -0.0, 0.0
    assert_softmax_matches_the_shifted_exp_formula(values, layout)


def _summands(shape, dtype, seed):
    """Entries over nine decades of either sign, a third of them signed
    zeros or subnormals, with a row of -0.0 and a row of subnormals."""
    rng = np.random.default_rng(seed)
    tiny = np.finfo(dtype).smallest_subnormal
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 5, size=shape)
    values = values.astype(dtype)
    special = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -7 * tiny], dtype=dtype)
    mask = rng.random(shape) < 0.3
    values[mask] = rng.choice(special, size=mask.sum())
    values[..., 0, :] = -0.0
    values[..., 1, :] = tiny
    return values


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("length", [*range(1, 18), 33, 129, 200])
def test_row_sums_are_the_bits_of_sum_over_the_last_axis(length, dtype):
    # 7 rows take numpy's reduction itself, 600 and 2 x 300 the column adds.
    for shape in ((7, length), (600, length), (2, 300, length)):
        values = _summands(shape, dtype, seed=length)
        before = values.tobytes()
        sums = temporal.row_sums(values)
        expected = values.sum(axis=-1)
        assert sums.dtype == expected.dtype and sums.shape == expected.shape
        assert sums.tobytes() == expected.tobytes(), shape
        assert values.tobytes() == before


class TestAttentionHead:
    # The tape's attention holds every head's matrix along a heads axis, and
    # head h's output is column block h of the encoder's concatenated heads.
    def test_single_sensor_attention_is_identity(self):
        enc = make_encoder(sensors=1, window=3, heads=1, head_dim=2)
        t = np.array([[0.5, -1.0, 2.0]])
        weights = attention(enc, t)
        assert weights.shape == (1, 1, 1)
        np.testing.assert_allclose(weights[0], [[1.0]])
        out = attend(enc, t)
        np.testing.assert_allclose(out[:, 0:2], t @ head(enc, enc.w_value, 0))

    def test_zero_input_gives_uniform_attention_and_zero_output(self):
        enc = make_encoder(sensors=3, window=4, heads=1, head_dim=2)
        t = np.zeros((3, 4))
        weights = attention(enc, t)
        np.testing.assert_allclose(weights[0], np.full((3, 3), 1.0 / 3.0))
        np.testing.assert_allclose(attend(enc, t)[:, 0:2], 0.0)

    def test_hand_executed_two_by_two(self):
        enc = make_encoder(sensors=2, window=2, heads=1, head_dim=1)
        enc.w_query.value[...] = [[1.0], [0.0]]
        enc.w_key.value[...] = [[1.0], [0.0]]
        enc.w_value.value[...] = [[0.0], [1.0]]
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        # Hand execution: q = k = [[1],[0]], v = [[0],[1]],
        # scores/sqrt(2) = [[s,0],[0,0]] with s = 1/sqrt(2).
        s = 1.0 / math.sqrt(2.0)
        row0 = [math.exp(s) / (math.exp(s) + 1.0), 1.0 / (math.exp(s) + 1.0)]
        expected = np.array([[row0[1]], [0.5]])  # attn @ v picks column 2 weight
        out = attend(enc, t)[:, 0:1]
        np.testing.assert_allclose(out, expected, atol=1e-12)
        weights = attention(enc, t)[0]
        np.testing.assert_allclose(weights[0], row0, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        enc = make_encoder()
        t = np.random.default_rng(1).normal(size=(3, 4))
        weights = attention(enc, t)
        for h in range(enc.heads):
            sums = weights[h].sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_column_blocks_are_the_heads_in_order(self):
        enc = make_encoder(sensors=4, window=5, heads=3, head_dim=2, seed=24)
        stack = np.random.default_rng(25).normal(size=(2, 4, 5))
        weights = attention(enc, stack)
        out = attend(enc, stack)
        assert weights.shape == (2, 3, 4, 4) and out.shape == (2, 4, 6)
        for t, w, o in zip(stack, weights, out):
            for h in range(enc.heads):
                q = t @ head(enc, enc.w_query, h)
                k = t @ head(enc, enc.w_key, h)
                scores = (q @ k.T) / math.sqrt(enc.window)
                e = np.exp(scores - scores.max(axis=1, keepdims=True))
                np.testing.assert_allclose(w[h], e / e.sum(axis=1, keepdims=True),
                                           atol=1e-12)
                np.testing.assert_allclose(o[:, 2 * h:2 * h + 2],
                                           w[h] @ (t @ head(enc, enc.w_value, h)),
                                           atol=1e-12)


class TestEncode:
    def test_zero_feedforward_is_residual_identity(self):
        enc = make_encoder()
        for p in (enc.w_ff1, enc.w_ff2, enc.b_ff1, enc.b_ff2):
            p.value[:] = 0.0
        t = np.random.default_rng(2).normal(size=(3, 4))
        merged = attend(enc, t) @ enc.w_out.value
        np.testing.assert_allclose(enc.encode(t), merged)

    def test_matches_composed_numpy_oracle(self):
        enc = make_encoder(sensors=4, window=5, heads=1, head_dim=3, model_dim=3,
                           seed=7)
        t = np.random.default_rng(3).normal(size=(4, 5))
        np.testing.assert_allclose(enc.encode(t),
                                   numpy_encode(enc, t, ), atol=1e-12)

    def test_multi_head_matches_composed_numpy_oracle(self):
        enc = make_encoder(sensors=4, window=5, heads=3, head_dim=2, model_dim=3,
                           seed=26)
        t = np.random.default_rng(27).normal(size=(4, 5))
        np.testing.assert_allclose(enc.encode(t),
                                   numpy_encode(enc, t), atol=1e-12)

    def test_row_permutation_equivariance_with_fresh_biases(self):
        # Freshly initialized biases are zero, so permuting the sensor rows of
        # the input permutes the embedding rows. Trained per-sensor biases
        # intentionally break this.
        enc = make_encoder(sensors=5, window=4, seed=9)
        t = np.random.default_rng(4).normal(size=(5, 4))
        perm = np.array([3, 0, 4, 1, 2])
        direct = enc.encode(t[perm])
        permuted = enc.encode(t)[perm]
        np.testing.assert_allclose(direct, permuted, atol=1e-12)

    @pytest.mark.parametrize("window", [3, 6, 9])
    def test_output_shape_independent_of_window(self, window):
        enc = make_encoder(sensors=3, window=window, model_dim=5)
        t = np.zeros((3, window))
        assert enc.encode(t).shape == (3, 5)


class TestStack:
    def test_stack_equals_one_segment_at_a_time(self):
        enc = make_encoder(sensors=4, window=5, seed=17)
        stack = np.random.default_rng(18).normal(size=(6, 4, 5))
        batched = enc.encode(stack)
        assert batched.shape == (6, 4, 4)
        assert np.array_equal(
            batched, np.stack([enc.encode(t) for t in stack]))
        predicted = enc.predict_next(batched)
        assert np.array_equal(
            predicted, np.stack([enc.predict_next(u) for u in batched]))

    def test_loss_is_the_mean_of_per_pair_losses(self):
        enc = make_encoder(seed=19)
        windows, successors = np.random.default_rng(20).normal(size=(2, 5, 3, 4))
        per_pair = [temporal.loss_and_gradients(enc, w[None], s[None], 1, fresh_grads())
                    for w, s in zip(windows, successors)]
        loss = temporal.loss_and_gradients(enc, windows, successors, len(windows),
                                           fresh_grads())
        assert loss == pytest.approx(np.mean(per_pair), rel=1e-12)


def test_batch_encode_peak_memory_stays_within_the_per_head_loop():
    # An encode of the benchmark's 266 test windows at the default
    # sizes, measured after one warm-up call. The per-head loop this path
    # replaced peaked at 3,372,994 traced bytes (numpy 2.4.6, Python 3.11), with four
    # (266 x 12 x 32) float64 arrays live at once in the feed-forward block.
    # Keeping every head's queries, keys and values alive across the encode
    # (or the hidden layer across the residual add) exceeds that.
    enc = make_encoder(sensors=12, window=30, heads=4, head_dim=8, model_dim=32)
    x = np.random.default_rng(28).normal(size=(266, 12, 30))
    enc.encode(x)
    out, peak = traced_peak(enc.encode, x)
    assert out.shape == (266, 12, 32)
    assert peak <= 3_372_994, peak



def test_the_tape_keeps_only_what_the_reverse_pass_reads():
    # The bytes a 64-window part's tape holds at the default sizes, against
    # the windows' own bytes: the queries, the transposed keys, the
    # attention matrices, the values, the heads' outputs, the merged
    # embedding, the hidden layer and its mask and the embedding: 9.21x
    # (1,698,277 bytes; numpy 2.4.6, Python 3.11). Keeping one more such
    # array, such as the logits before the softmax (1.6x) or the keys
    # before their transpose (1.07x), exceeds the bound.
    enc = make_encoder(sensors=12, window=30, heads=4, head_dim=8, model_dim=32)
    windows = np.random.default_rng(29).normal(size=(64, 12, 30))

    def encode():
        # Traced bytes start at 0: what is traced now is what the tape holds.
        tape = {}
        enc.encode(windows, tape)
        return tape, tracemalloc.get_traced_memory()[0]

    (tape, kept), _ = traced_peak(encode)
    assert kept < 9.5 * windows.nbytes, (kept, windows.nbytes)


class TestParameters:
    def test_named_in_checkpoint_order_each_once(self):
        enc = make_encoder(heads=2)
        named = list(enc.named_parameters())
        assert [name for name, _ in named] == [
            "w_query", "w_key", "w_value", "w_out", "w_ff1", "b_ff1",
            "w_ff2", "b_ff2", "w_pred", "b_pred"]
        params = [p for _, p in named]
        assert len({id(p) for p in params}) == len(params)

    def test_projections_are_three_stored_side_by_side(self):
        enc = make_encoder(window=4, heads=3, head_dim=2)
        projections = [p for _, p in enc.named_parameters()][:3]
        assert projections == [enc.w_query, enc.w_key, enc.w_value]
        assert all(p.value.shape == (4, 3 * 2) and p.value.flags.c_contiguous
                   for p in projections)
        assert len(list(enc.named_parameters())) == 3 + 7

    def test_stacked_draws_equal_the_per_head_draws(self):
        # One (heads x window x head_dim) draw per projection, laid side by
        # side, gives the numbers of one (window x head_dim) draw per head
        # in its column block.
        enc = make_encoder(window=4, heads=3, head_dim=2, seed=30)
        rng = np.random.default_rng(30)
        for kind in ("w_query", "w_key", "w_value"):
            for h in range(3):
                assert np.array_equal(head(enc, getattr(enc, kind), h),
                                      ad.uniform_init(rng, 4, 2).value)
        assert np.array_equal(enc.w_out.value, ad.uniform_init(rng, 6, 4).value)


class TestPredictNext:
    def test_zero_weights_return_bias(self):
        enc = make_encoder()
        enc.w_pred.value[:] = 0.0
        enc.b_pred.value[:] = 2.5
        out = enc.predict_next(np.ones((3, 4)))
        np.testing.assert_allclose(out, np.full((3, 4), 2.5))

    def test_rank_one_case(self):
        enc = make_encoder(sensors=2, window=3, heads=1, head_dim=1, model_dim=1)
        enc.w_pred.value = np.ones((1, 3))
        enc.b_pred.value = np.arange(6.0).reshape(2, 3)
        u = np.array([[2.0], [-1.0]])
        out = enc.predict_next(u)
        np.testing.assert_allclose(out, u @ np.ones((1, 3)) + enc.b_pred.value)

    def test_matches_affine_oracle(self):
        enc = make_encoder(seed=13)
        u = np.random.default_rng(6).normal(size=(3, 4))
        expected = u @ enc.w_pred.value + enc.b_pred.value
        np.testing.assert_allclose(enc.predict_next(u), expected)


def test_prediction_loss_gradients_pass_finite_differences():
    enc = make_encoder(sensors=3, window=4, heads=2, head_dim=2, model_dim=4,
                       seed=21)
    rng = np.random.default_rng(22)
    windows, successors = rng.normal(size=(2, 2, 3, 4))
    for _, p in enc.named_parameters():
        p.value += rng.normal(scale=0.1, size=p.value.shape)  # nonzero biases

    def loss_value():
        return temporal.loss_and_gradients(enc, windows, successors, 2, fresh_grads())

    grads = fresh_grads()
    temporal.loss_and_gradients(enc, windows, successors, 2, grads)
    for (_, p), analytic in zip(enc.named_parameters(), grads):
        numeric = finite_difference(loss_value, p.value)
        assert relative_gradient_error(analytic, numeric) < 1e-4


@pytest.mark.parametrize("sizes, parts", [
    # A tail part of fewer than STACK_WINDOWS windows, whose 240 softmax
    # rows take numpy's reductions below COLUMN_ROWS.
    ((12, 30, 4, 8, 32), (64, 64, 17, temporal.STACK_WINDOWS - 1)),
    ((5, 6, 1, 3, 4), (4, 4, 4, 2)),
], ids=["benchmark-shape", "one-head"])
def test_hand_pass_has_the_reference_bits_over_carried_parts(sizes, parts):
    # Two references: the numpy one, one step per gradient rule, and the
    # reverse-mode graph of the loss, each part backpropagated into leaves
    # that hold the earlier parts' gradients.
    sensors, window = sizes[:2]
    enc = make_encoder(*sizes, seed=33)
    rng = np.random.default_rng(34)
    for _, p in enc.named_parameters():
        if not p.value.any():
            p.value[...] = rng.normal(scale=0.3, size=p.value.shape)
    weights = [p.value for _, p in enc.named_parameters()]
    # The engine's projection leaves are per head; their gradients are laid
    # side by side to compare.
    leaves = [rm.Tensor((by_head(w, enc.heads) if i < 3 else w).copy(),
                        requires_grad=True) for i, w in enumerate(weights)]
    held, grads = fresh_grads(), fresh_grads()
    for n in parts:
        windows = rng.normal(size=(n, sensors, window))
        successors = rng.normal(size=(n, window, sensors)).transpose(0, 2, 1)
        expected, held = reference_temporal_part(weights, windows, successors,
                                                 sum(parts), held, enc.heads)
        recorded = rm.temporal_part_loss(leaves, windows, successors, sum(parts))
        recorded.backward()
        loss = temporal.loss_and_gradients(enc, windows, successors, sum(parts), grads)
        engine = [column_blocks(t.grad) if i < 3 else t.grad
                  for i, t in enumerate(leaves)]
        assert loss == expected == float(recorded.value[0, 0])
        assert [g.tobytes() for g in grads] == [h.tobytes() for h in held]
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in engine]


# The benchmark's part shape: 64 windows of 12 sensors x 30 rows, 4 heads of
# 8, model width 32. OpenBLAS picks its kernels by shape, and kernels round
# differently, so bits pinned at small shapes say nothing about this one.
BENCHMARK_PART = dict(sensors=12, window=30, heads=4, head_dim=8, model_dim=32)


def test_float32_fit_keeps_the_reference_bits_at_the_benchmark_part_shape():
    # A float32 fit's epoch, two 64-window parts carried, at the test
    # process's BLAS threading: the loss and the ten summed gradients equal
    # the reference's, one out-of-place step per gradient rule.
    enc = make_encoder(**BENCHMARK_PART, seed=35)
    rng = np.random.default_rng(36)
    for _, p in enc.named_parameters():
        if not p.value.any():
            p.value[...] = rng.normal(scale=0.3, size=p.value.shape)
        p.value = p.value.astype(np.float32)
    weights = [p.value for _, p in enc.named_parameters()]
    held, grads = fresh_grads(), fresh_grads()
    for _ in range(2):
        windows = rng.normal(size=(64, 12, 30)).astype(np.float32)
        successors = rng.normal(size=(64, 30, 12)).astype(np.float32).transpose(0, 2, 1)
        expected, held = reference_temporal_part(weights, windows, successors, 128,
                                                 held, enc.heads)
        loss = temporal.loss_and_gradients(enc, windows, successors, 128, grads)
        assert loss == expected
        assert [g.dtype for g in grads] == [np.float32] * 10
        assert [g.tobytes() for g in grads] == [h.tobytes() for h in held]


_GATE = temporal.STACK_WINDOWS
# Window counts on either side of STACK_WINDOWS, two 64-window scoring
# parts and the benchmark's whole test stream; 130 sensors, whose attention
# rows are summed with numpy's pairwise recursion above 128, only up to 11
# windows, since its logits grow with the sensors squared.
ENCODE_SHAPES = [(count, sensors) for sensors in (5, 12)
                 for count in (1, _GATE - 1, _GATE, 10, 11, 64, 266)] + [
    (count, 130) for count in (1, _GATE - 1, _GATE, 10, 11)]


# Head widths: the benchmark's 4 heads of 8, and two at which the stack
# path rounds differently (temporal's module docstring): 4 heads of 4,
# whose float64 projection, one side-by-side product, does, and 1 head of
# 32 over 60-row windows, whose key-major logits do.
WIDTHS = {"4x8": (4, 8, 30), "4x4": (4, 4, 30), "1x32": (1, 32, 60)}


def _encoder_and_windows(count, sensors, dtype, widths):
    """An encoder of the benchmark's part shape at ``WIDTHS[widths]`` and
    ``count`` windows of ``sensors`` sensors, in ``dtype``. A sensor of
    zeros gives zero queries and keys, so rows of tied zero logits and rows
    whose max is a zero; two equal sensors give tied maxima."""
    heads, head_dim, window = WIDTHS[widths]
    sizes = dict(BENCHMARK_PART, sensors=sensors, window=window, heads=heads,
                 head_dim=head_dim)
    enc = make_encoder(**sizes, seed=37)
    for _, p in enc.named_parameters():
        p.value = p.value.astype(dtype)
    windows = np.random.default_rng(38).normal(size=(count, sensors, window)).astype(dtype)
    windows[:, 0] = 0.0
    windows[:, 2] = windows[:, 1]
    return enc, windows


@pytest.mark.parametrize("widths", WIDTHS)
@pytest.mark.parametrize("taped", [False, True], ids=["tape-free", "taped"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("count, sensors", ENCODE_SHAPES)
def test_encode_keeps_the_stacked_product_bits(count, sensors, dtype, taped,
                                               widths, monkeypatch):
    # Scoring's float64 encodes and training's float32 ones, at the test
    # process's BLAS threading: the bits of the stacked products, whose
    # heads' outputs are made side by side by a copy of their transpose,
    # on both sides of the gate and on the row-major path a tape takes.
    # The row-major path keeps them at every width, the stack path at the
    # benchmark's; at the others its embedding agrees to a few units of
    # rounding.
    paths = []
    for name in ("_attend_rows", "_attend_stack"):
        def spy(*args, _attend=getattr(temporal.TemporalEncoder, name), _name=name):
            paths.append(_name)
            return _attend(*args)
        monkeypatch.setattr(temporal.TemporalEncoder, name, spy)
    enc, windows = _encoder_and_windows(count, sensors, dtype, widths)
    weights = [p.value for _, p in enc.named_parameters()]
    expected = reference_temporal_forward(weights, windows, enc.heads)
    tape = {} if taped else None
    embedding = enc.encode(windows, tape)
    stacked = not taped and count >= temporal.STACK_WINDOWS
    assert paths == ["_attend_stack" if stacked else "_attend_rows"]
    if stacked and widths != "4x8":
        largest = np.abs(expected["embedding"]).max()
        np.testing.assert_allclose(embedding, expected["embedding"], rtol=0,
                                   atol=16 * np.finfo(dtype).eps * largest)
    else:
        assert embedding.tobytes() == expected["embedding"].tobytes()
    if taped:
        assert tape["q"].tobytes() == expected["q"].tobytes()
        assert tape["k"].tobytes() == np.swapaxes(expected["kt"], -1, -2).tobytes()
        assert tape["vt"].tobytes() == np.swapaxes(expected["v"], -1, -2).tobytes()
        assert tape["attention"].tobytes() == expected["a"].tobytes()
        assert tape["heads"].tobytes() == expected["concatenated"].tobytes()
        assert tape["hidden"].tobytes() == expected["hidden"].tobytes()


# (sensors, windows) of float64 stack-path encodes at 4 heads of 8: at 5 x
# 266, 130 x 10 and 130 x 11 a queries' product with a transposed operand
# rounds differently on one BLAS thread than on two; 12 x 266 is the
# benchmark's whole test stream.
ONE_THREAD_SHAPES = [(5, 266), (130, 10), (130, 11), (12, 266)]


def one_thread_mismatches() -> list[list[int]]:
    """The (sensors, windows) of ``ONE_THREAD_SHAPES`` at which a tape-free
    float64 encode at 4 heads of 8 leaves the reference's bits."""
    mismatched = []
    for sensors, count in ONE_THREAD_SHAPES:
        enc, windows = _encoder_and_windows(count, sensors, np.float64, "4x8")
        weights = [p.value for _, p in enc.named_parameters()]
        expected = reference_temporal_forward(weights, windows, enc.heads)
        if enc.encode(windows).tobytes() != expected["embedding"].tobytes():
            mismatched.append([sensors, count])
    return mismatched


def test_encode_keeps_the_stacked_product_bits_on_one_blas_thread():
    # The digests and the benchmark run BLAS on one thread, and OpenBLAS
    # picks its kernels by thread count as well as by shape. The test
    # process has loaded numpy's BLAS with its own thread count, so the
    # encodes run in a child process with the thread variables set to 1.
    paths = (Path(temporal.__file__).resolve().parents[1],
             Path(__file__).resolve().parent)
    env = {**os.environ, **dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"),
        "PYTHONPATH": os.pathsep.join(filter(None, (
            *map(str, paths), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c",
         "import test_temporal; print(test_temporal.one_thread_mismatches())"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


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
        expected = temporal.loss_and_gradients(enc, windows, successors, 5, fresh_grads())
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

    def test_the_temporal_fit_makes_no_tensor(self, made_tensors):
        enc = make_encoder(seed=6)
        values, starts = self._constant_pairs(sensors=3, window=4)
        made_tensors.clear()
        temporal.train_temporal(enc, values, starts, epochs=3, lr=0.01)
        enc.encode(np.zeros((2, 3, 4)))
        assert made_tensors == []


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
