"""Attention encoder over the sensor axis with a next-window prediction head.

A segment enters as a (sensors x window_length) matrix. Each attention head
projects the per-sensor time rows to query/key/value spaces, so the attention
matrix is (sensors x sensors): sensors attend to each other, sharing temporal
information. Time steps are the projections' input coordinates, so no
positional encoding is added. Scores are scaled by sqrt(window_length). The
heads are one stack axis: each projection is stored as one (heads x
window_length x head_dim) parameter, every head runs in the same array
operations, and the head outputs are laid side by side as column blocks, head
h in columns h*head_dim to (h+1)*head_dim. The feed-forward refinement uses
full per-sensor bias matrices, and a linear head predicts the next window;
training minimizes the mean squared prediction error over all (window,
successor) pairs drawn from normal data. Segments pass every layer together
as a (segments x sensors x window_length) stack: scoring encodes a stream's
windows as one stack, and a training epoch passes its pairs in consecutive
stacks of ``autodiff.CHUNK``, each gathered from the stream and
differentiated before the next is gathered, so no stack of every pair
exists.

The encoder works on plain arrays. ``encode`` is the one definition of the
map, for the fit, graph building and scoring alike; given a tape, it keeps
what the reverse pass reads. A fit's epoch runs ``loss_and_gradients`` on
one part after another: the part's share of the loss and a reverse pass
written out by hand, which adds the part's weight gradients to those the
earlier parts left (``autodiff.carried_sum``), so the parts leave the bits
of one pass over every pair. The pass makes the products and sums of
reverse-mode differentiation through the loss, in its order
(``tests/oracles.py`` writes that order out as a reference), so a fit
leaves the bits of one differentiated through a graph of the same steps. It
frees each forward array after its last reader and works in place where the
elementwise steps stay the same, so an epoch holds one part's working set
at a time and reuses its heap part after part. ``autodiff.fit`` runs the
epochs: the optimizer, the labelled numeric context and the loss trace.

``encode`` takes one of two paths to the heads' outputs. Every taped
encode, and a tape-free one of fewer than ``STACK_WINDOWS`` windows such as
a one-window scoring call, takes the row-major path (``_attend_rows``):
the input, reshaped to (..., 1, sensors, window), times each stored
projection, so every (window, head) pair is one small product; the logits
(..., heads, queries, keys) and ``softmax_rows`` along their rows. A
tape-free encode of at least ``STACK_WINDOWS`` windows, such as a
whole-stream scoring part, takes the stack path (``_attend_stack``). Each
projection is one (windows * sensors x window) @ (window x heads *
head_dim) product, the stored weight laid side by side per call, so
parameters and checkpoints keep their layout. The queries' product is
made transposed, (heads * head_dim x windows * sensors), so the logits'
product reads no transposed operand: for a 64-window float64 part it
takes 73 us against 105-165 us through a transposed view of the queries,
and the transposed projection 7 us more (one BLAS thread, 2-vCPU host).
The logits go straight into one key-major buffer (keys x windows x heads
x queries), written through a permuted view with ``out=``, so numpy makes
no temporary. ``softmax_keys`` runs on that buffer in place: the max is
one reduction over the leading axis, the shift, exponential and division
are whole-buffer passes, and the key sums add contiguous leading slices in
numpy's pairwise order. A reduction along a 12-long last axis pays per row
instead. The attention times the values reads a row-major copy of the
buffer, the row-major path's operand.

``STACK_WINDOWS`` (6) is the smallest stack at which the stack path won a
tape-free float64 encode at the default sizes in every measurement.
Row-major against stack path, best of two measurements, each the best of
five interleaved rounds of three runs (one BLAS thread, 2-vCPU host): 1
window 46.3 against 53.2 us, 2: 50.1/61.0, 3: 65.7/73.7, 4: 74.1/82.0, 5:
93.1/88.4, 6: 106.9/95.4, 7: 120.4/103.4, 8: 130.4/108.3, 9: 148.8/118.4,
10: 157.8/122.3 us; at 5 windows other measurements read 1.006 and 1.030
times the row-major time. In float32 the stack path wins from 4 windows
on. The gate keeps one-window scoring, 1.15 times slower on the stack
path, on the row-major one.

Both paths give the bits of the stacked products (``tests/oracles.py``)
at the default head widths (4 heads of 8, windows of 10 or 30 rows) and at
3 heads of 5 and 8 of 8, checked from 2 to 200 sensors in float32 and
float64. The stack path's products have other shapes than the
per-(window, head) ones, and OpenBLAS picks its kernel by shape, so at
other widths its bits can differ: at 4 heads of 4 the float64 side-by-side
projection rounds differently, and with 16 or more terms per logit in
float64 (2 heads of 16) or 32 in float32 (1 head of 32) the key-major
logits do, at most sensor counts. An embedding's entries then differ by
about 5e-16 of its largest, far within the 1e-9 at which a window scored
alone must agree with it scored inside a stream (the later stages already
differ in their last bits between the two). The temporal fit's bits do
not depend on it, since its parts are taped and take the row-major path;
the embeddings the later stages are fit on are tape-free stacks and do.

The reverse pass writes the gradients at the values, the queries and the
keys, in turn, into one array laid out side by side as the heads' outputs
are (through its per-head view, with ``out=``), so each projection's
weight gradient is one (window x heads * head_dim) product per window: 64
products for a 64-window part instead of 256 per (window, head), 27 us
against 68 us in float32 (2-vCPU host, one BLAS thread), with the same
bits, since every entry is the same dot product over the sensors and the
sum over windows runs in the same order. ``loss_and_gradients`` carries
those three sums across an epoch's parts in that layout, and
``stored_layout`` turns them into the parameters' (heads x window x
head_dim) layout once per epoch. The products that make the gradients at
the projections stay stacked, since each multiplies one window's and one
head's own matrices (attention, keys, values).

A reduction along a short last axis pays per row, so from ``COLUMN_ROWS``
(512) rows on the softmax's row reductions run over whole columns; below
that (a one-window encode has 48 rows) they are numpy's reductions. The row
sums, in ``softmax_rows`` and in the reverse pass's softmax rule, come from
``row_sums``: from 512 rows on, whole columns added in numpy's own pairwise
order, 35 us against 84 us for ``sum(axis=-1)`` over a 64-window part's
3,072 float32 rows of 12, with the same bits. ``softmax_rows``' row max is,
from 512 rows on, a running maximum over the columns, and below that one
``max(axis=-1)``: 4.5 us against 16 us for the column loop over a
one-window encode's 48 float64 rows of 12 (2-vCPU host). A max is exact in
any order; only a zero max's sign may differ, and the shift and the
exponential map both signs to the same values, so either way gives the
softmax's bits.

The tape keeps the keys as projected and the values' transpose as a
contiguous copy, so the reverse pass multiplies by contiguous matrices,
with the same bits: the gradient at the queries takes 22 us against 57 us
through a transposed view of the keys, and that at the attention 17 us for
the copy plus 19 us against 82 us through a transposed view of the values
(64-window float32 part, 2-vCPU host, one BLAS thread).
"""
from __future__ import annotations

from typing import Iterator

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import gather_windows, window_rows


def _pairwise_sum(x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The sums over columns ``start`` to ``stop`` of ``x``'s rows, added as
    whole columns in numpy's pairwise order: fewer than 8 columns in turn
    from +0.0; up to 128, eight accumulators over blocks of eight, joined
    as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in
    turn; above 128, the two halves, split at a multiple of 8."""
    n = stop - start
    if n < 8:
        total = np.zeros(x.shape[:-1], dtype=x.dtype)
        for j in range(start, stop):
            total += x[..., j]
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _pairwise_sum(x, start, start + half)
        total += _pairwise_sum(x, start + half, stop)
        return total
    end = stop - n % 8
    # The first block's columns are the accumulators as views while no
    # later block adds to them, so a row of 8 to 15 needs three temporaries.
    r = [x[..., start + j] for j in range(8)]
    if end - start > 8:
        r = [r[j] + x[..., start + 8 + j] for j in range(8)]
        for i in range(start + 16, end, 8):
            for j in range(8):
                r[j] += x[..., i + j]
    total = r[0] + r[1]
    right = r[2] + r[3]
    total += right
    np.add(r[4], r[5], out=right)
    pair = r[6] + r[7]
    right += pair
    total += right
    for j in range(end, stop):
        total += x[..., j]
    return total


# From this many rows on, the softmax's row reductions run over whole
# columns: the row sums' crossover with numpy's reduction lies between 384
# and 768 rows.
COLUMN_ROWS = 512


def row_sums(x: np.ndarray) -> np.ndarray:
    """The bits of ``x.sum(axis=-1)``.

    A reduction along a short last axis pays per row, so from
    ``COLUMN_ROWS`` rows on the rows are summed as whole columns in numpy's
    own pairwise order (``_pairwise_sum``), which gives the same bits.
    Below that the reduction itself is faster.
    """
    if x.size < COLUMN_ROWS * x.shape[-1]:
        return x.sum(axis=-1)
    total = _pairwise_sum(x, 0, x.shape[-1])
    # The reduction starts from +0.0, so a -0.0 sum reads +0.0.
    total += 0.0
    return total


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, with the row max subtracted first."""
    # From COLUMN_ROWS rows on, the row max is a running maximum over the
    # columns: one pass over every row per column, where a reduction along
    # a short last axis pays per row. A max is exact in any order. Then one
    # full-size array: the shifted logits, exponentiated and normalized in
    # place.
    if x.size < COLUMN_ROWS * x.shape[-1]:
        row_max = x.max(axis=-1, keepdims=True)
    else:
        row_max = x[..., :1].copy()
        for j in range(1, x.shape[-1]):
            np.maximum(row_max, x[..., j:j + 1], out=row_max)
    y = x - row_max
    np.exp(y, out=y)
    y /= row_sums(y)[..., None]
    return y


def softmax_keys(s: np.ndarray) -> None:
    """Softmax over the leading axis of key-major logits, in place: the
    bits of ``softmax_rows`` over their (..., queries, keys) view. The max
    is one leading-axis reduction: a max is exact in any order, and a zero
    max's sign, which may differ, shifts every logit to the same
    exponential. The key sums add contiguous leading slices in numpy's
    pairwise order; each holds an exp(0) = 1, so none is a signed zero."""
    s -= s.max(axis=0)
    np.exp(s, out=s)
    s /= _pairwise_sum(np.moveaxis(s, 0, -1), 0, len(s))


# Tape-free encodes of at least this many windows take the stack path:
# below the float64 crossover its fixed costs outweigh what it saves
# (module docstring).
STACK_WINDOWS = 6


class TemporalEncoder:
    """Multi-head sensor attention encoder plus next-window prediction head."""

    def __init__(self, sensors: int, window: int, heads: int, head_dim: int,
                 model_dim: int, rng: np.random.Generator):
        self.sensors = sensors
        self.window = window
        self.heads = heads
        self.head_dim = head_dim
        self.model_dim = model_dim
        # One (heads x window x head_dim) draw each: the numbers of one draw
        # per head, in head order.
        self.w_query = ad.uniform_init(rng, heads, window, head_dim)
        self.w_key = ad.uniform_init(rng, heads, window, head_dim)
        self.w_value = ad.uniform_init(rng, heads, window, head_dim)
        self.w_out = ad.uniform_init(rng, heads * head_dim, model_dim)
        self.w_ff1 = ad.uniform_init(rng, model_dim, model_dim)
        self.w_ff2 = ad.uniform_init(rng, model_dim, model_dim)
        self.b_ff1 = ad.zeros_init(sensors, model_dim)
        self.b_ff2 = ad.zeros_init(sensors, model_dim)
        self.w_pred = ad.uniform_init(rng, model_dim, window)
        self.b_pred = ad.zeros_init(sensors, window)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        """Parameters by name, in checkpoint order: the three projection
        stacks, then the rest."""
        for name in ("w_query", "w_key", "w_value", "w_out", "w_ff1", "b_ff1",
                     "w_ff2", "b_ff2", "w_pred", "b_pred"):
            yield name, getattr(self, name)

    def encode(self, windows: np.ndarray,
               tape: dict[str, np.ndarray] | None = None) -> np.ndarray:
        """Embed a segment, or a stack of them, as (sensors x model_dim)
        matrices.

        With a ``tape``, it keeps what the reverse pass reads: the queries,
        the keys, every head's softmax attention matrix (``attention``,
        (..., heads, sensors, sensors)), the transposed values (a
        contiguous copy), the heads' outputs side by side, the merged
        embedding, the hidden layer's mask, the activated hidden layer and
        the embedding. Without one, each array is freed after its last
        reader, so a long stack's working set does not grow with every
        head's projections at once.
        A tape-free encode of at least ``STACK_WINDOWS`` windows takes the
        stack path (``_attend_stack``); the rest take the row-major one
        (``_attend_rows``). At the default head widths both give the same
        bits (module docstring).
        """
        if windows.shape[-2:] != (self.sensors, self.window):
            raise ValueError(
                f"segment shape {windows.shape} does not match encoder "
                f"({self.sensors}, {self.window})")
        lead = windows.shape[:-2]
        if tape is None and math.prod(lead) >= STACK_WINDOWS:
            heads = self._attend_stack(windows)
        else:
            heads = self._attend_rows(windows, tape)
        heads = heads.reshape(lead + (self.sensors, self.heads * self.head_dim))
        merged = heads @ self.w_out.value
        if tape is not None:
            tape.update(heads=heads, merged=merged)
        del heads
        hidden = merged @ self.w_ff1.value
        hidden += self.b_ff1.value
        mask = None if tape is None else hidden > 0.0
        np.maximum(hidden, 0.0, out=hidden)
        embedding = hidden @ self.w_ff2.value
        embedding += self.b_ff2.value
        embedding += merged
        if tape is not None:
            tape.update(mask=mask, hidden=hidden, embedding=embedding)
        return embedding

    def _attend_rows(self, windows: np.ndarray,
                     tape: dict[str, np.ndarray] | None) -> np.ndarray:
        """The heads' outputs, (..., sensors, heads, head_dim), by stacked
        products of the (..., 1, sensors, window) input and the stored
        weights, and a softmax along the logits' rows; with a ``tape``, it
        keeps what the reverse pass reads of the attention block."""
        x = windows.reshape(windows.shape[:-2] + (1, self.sensors, self.window))
        q = x @ self.w_query.value
        k = x @ self.w_key.value
        kt = np.swapaxes(k, -1, -2).copy()
        if tape is not None:
            tape.update(q=q, k=k)
        del k
        logits = q @ kt
        del q, kt
        logits *= 1.0 / math.sqrt(self.window)
        a = softmax_rows(logits)
        del logits
        v = x @ self.w_value.value
        # Each head's output written straight into its column block.
        heads = np.empty(v.shape[:-3] + (self.sensors, self.heads, self.head_dim),
                         dtype=v.dtype)
        np.matmul(a, v, out=np.swapaxes(heads, -3, -2))
        if tape is not None:
            tape.update(attention=a, vt=np.swapaxes(v, -1, -2).copy())
        return heads

    def _attend_stack(self, windows: np.ndarray) -> np.ndarray:
        """The heads' outputs, (windows, sensors, heads, head_dim), by one
        2-D product per projection and a softmax over key-major logits
        (keys x windows x heads x queries)."""
        n, sensors = math.prod(windows.shape[:-2]), self.sensors
        rows = windows.reshape(n * sensors, self.window)

        def side_by_side(weight: Tensor) -> np.ndarray:
            # Every head's weight side by side, (window x heads * head_dim),
            # so each window and head reads its own column block.
            return weight.value.transpose(1, 0, 2).reshape(self.window, -1)

        def project(weight: Tensor) -> np.ndarray:
            out = (rows @ side_by_side(weight)).reshape(
                n, sensors, self.heads, self.head_dim)
            return np.swapaxes(out, 1, 2)

        # The queries come transposed, (heads * head_dim x windows *
        # sensors), so the logits' product reads no transposed operand.
        qt = (side_by_side(self.w_query).T @ rows.T).reshape(
            self.heads, self.head_dim, n, sensors)
        k = project(self.w_key)
        s = np.empty((sensors, n, self.heads, sensors), dtype=k.dtype)
        np.matmul(k, qt.transpose(2, 0, 1, 3), out=s.transpose(1, 2, 0, 3))
        del qt, k
        s *= 1.0 / math.sqrt(self.window)
        softmax_keys(s)
        # A row-major copy: the attention's rows are then the row-major
        # path's operand, so the product with the values keeps its bits.
        a = s.transpose(1, 2, 3, 0).copy()
        del s
        v = project(self.w_value)
        heads = np.empty((n, sensors, self.heads, self.head_dim), dtype=v.dtype)
        np.matmul(a, v, out=np.swapaxes(heads, 1, 2))
        return heads

    def predict_next(self, embedding: np.ndarray) -> np.ndarray:
        """Linear prediction of the next window from an embedding."""
        predicted = embedding @ self.w_pred.value
        predicted += self.b_pred.value
        return predicted


def loss_and_gradients(encoder: TemporalEncoder, windows: np.ndarray,
                       successors: np.ndarray, count: int,
                       grads: list[np.ndarray | None]) -> float:
    """One part's share of a training epoch's loss; adds its gradients.

    The part is a stack of windows and the stack of their successors. Its
    loss is the squared Frobenius error of the next-window predictions
    divided by ``count``: the stack's length gives the mean, a training
    epoch's pair count gives a part's share of it. ``grads`` holds one
    gradient per weight, in ``named_parameters`` order, summed over the
    epoch's earlier parts (``None`` before the first); each is replaced by
    the sum continued over this part.
    """
    tape: dict[str, np.ndarray] = {}
    d = encoder.predict_next(encoder.encode(windows, tape))
    np.subtract(successors, d, out=d)
    c = 1.0 / count
    loss = float((d * d).sum()) * c
    # The gradient at the prediction, in place: (2c d) (-1), the exact
    # negation of the subtraction.
    g = d
    g *= 2.0 * c
    g *= -1.0

    def weight(i: int, inputs: np.ndarray, g: np.ndarray) -> None:
        grads[i] = ad.carried_sum(np.swapaxes(inputs, -1, -2) @ g, grads[i], (0,))

    def bias(i: int, g: np.ndarray) -> None:
        # Its last reader: the held sum is added into g's first entry.
        grads[i] = ad.carried_sum(g, grads[i], (0,))

    # The prediction head, then the feed-forward block. The embedding's
    # gradient reaches the merged embedding twice, through the residual
    # and through the hidden layer.
    weight(8, tape.pop("embedding"), g)
    g_embedding = g @ encoder.w_pred.value.T
    bias(9, g)
    weight(6, tape.pop("hidden"), g_embedding)
    g = g_embedding @ encoder.w_ff2.value.T
    g *= tape.pop("mask")
    weight(4, tape.pop("merged"), g)
    g_merged = g @ encoder.w_ff1.value.T
    bias(5, g)
    g_merged += g_embedding
    bias(7, g_embedding)
    del g_embedding
    # The heads' outputs, the attention and the values.
    weight(3, tape.pop("heads"), g_merged)
    g = g_merged @ encoder.w_out.value.T
    del g_merged
    side_by_side = g.shape[:-1] + (encoder.heads, encoder.head_dim)
    g = np.swapaxes(g.reshape(side_by_side), -3, -2)
    # The gradients at the values, the queries and the keys go in turn into
    # one array laid out side by side, as the heads' outputs are, through
    # its (..., heads, sensors, head_dim) view; from there each projection's
    # gradient is one (window x heads * head_dim) product per window.
    at_projection = np.empty(side_by_side, dtype=g.dtype)
    by_head = np.swapaxes(at_projection, -3, -2)
    at_projection = at_projection.reshape(g.shape[:-3] + (encoder.sensors, -1))
    windows_t = np.swapaxes(windows, -1, -2)

    def projection(i: int) -> None:
        grads[i] = ad.carried_sum(windows_t @ at_projection, grads[i], (0,))

    a = tape.pop("attention")
    np.matmul(np.swapaxes(a, -1, -2), g, out=by_head)
    projection(2)
    g = g @ tape.pop("vt")
    # The softmax's rule, then the scale, in place.
    g -= row_sums(g * a)[..., None]
    g *= a
    del a
    g *= 1.0 / math.sqrt(encoder.window)
    # The queries and the keys.
    np.matmul(g, tape.pop("k"), out=by_head)
    projection(0)
    np.matmul(np.swapaxes(tape.pop("q"), -1, -2), g,
              out=np.swapaxes(by_head, -1, -2))
    projection(1)
    return loss


def stored_layout(encoder: TemporalEncoder, grads: list[np.ndarray]
                  ) -> list[np.ndarray]:
    """An epoch's gradients as ``loss_and_gradients`` left them, with the
    three projection gradients turned from side by side (window x heads *
    head_dim) into their parameters' (heads x window x head_dim) layout."""
    shape = (encoder.window, encoder.heads, encoder.head_dim)
    return [np.ascontiguousarray(g.reshape(shape).swapaxes(0, 1))
            for g in grads[:3]] + grads[3:]


def train_temporal(encoder: TemporalEncoder, values: np.ndarray,
                   starts: np.ndarray, epochs: int, lr: float) -> list[float]:
    """Fit the encoder on the (window, successor) pairs of a (rows x
    sensors) stream: pair i is the ``encoder.window`` rows from
    ``starts[i]`` and, as its successor, the ``encoder.window`` rows right
    after them. Returns the per-epoch mean losses.

    Each epoch's loss is one term per ``autodiff.CHUNK`` pairs, summed from
    0.0 in part order, and each part gathers its pairs from ``values`` when
    it is differentiated: its windows as a C-ordered copy
    (``data.gather_windows``) and its successors as the transposed view of
    their rows that the loss reads.
    """
    count = len(starts)
    length = encoder.window

    def epoch() -> tuple[float, list[np.ndarray | None]]:
        loss, grads = 0.0, [None] * 10
        for rows in ad.chunks(count):
            part = starts[rows]
            successors = values[window_rows(part + length, length)]
            loss += loss_and_gradients(
                encoder, gather_windows(values, part, length),
                successors.transpose(0, 2, 1), count, grads)
        return loss, stored_layout(encoder, grads)

    return ad.fit(encoder.named_parameters(), epoch, epochs, lr, tag="temporal")
