"""Attention encoder over the sensor axis with a next-window prediction head.

A segment enters as a (sensors x window_length) matrix. Each attention head
projects the per-sensor time rows to query/key/value spaces, so the attention
matrix is (sensors x sensors): sensors attend to each other, sharing temporal
information. Time steps are the projections' input coordinates, so no
positional encoding is added. Scores are scaled by sqrt(window_length). The
heads are one stack axis: each projection is stored as one (heads x
window_length x head_dim) parameter, the input, reshaped to (..., 1, sensors,
window_length), is multiplied by it, so every head runs in the same array
operations, and the head outputs are laid side by side as column blocks, head
h in columns h*head_dim to (h+1)*head_dim. The feed-forward refinement uses
full per-sensor bias matrices, and a linear head predicts the next window;
training minimizes the mean squared prediction error over all (window,
successor) pairs drawn from normal data. Segments pass every layer together
as a (segments x sensors x window_length) stack: scoring encodes a stream's
windows as one stack, and a training epoch passes its pairs in consecutive
stacks of ``autodiff.CHUNK``, each gathered from the stream and
backpropagated before the next is built, so no stack of every pair exists.
"""
from __future__ import annotations

from typing import Iterator

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import gather_windows, window_rows
from .errors import DataError


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

    def _heads_input(self, t: Tensor) -> Tensor:
        """The input as (..., 1, sensors, window), one matrix for every head."""
        if t.shape[-2:] != (self.sensors, self.window):
            raise ValueError(
                f"segment shape {t.shape} does not match encoder "
                f"({self.sensors}, {self.window})")
        return ad.reshape(t, t.shape[:-2] + (1, self.sensors, self.window))

    def _attention(self, t: Tensor) -> Tensor:
        # The queries and keys live only inside this expression and each
        # temporary is dropped once used, so a long stack's working set
        # does not grow with every head's projections at once.
        return ad.softmax_rows(ad.scale(
            ad.matmul(ad.matmul(t, self.w_query),
                      ad.transpose(ad.matmul(t, self.w_key))),
            1.0 / math.sqrt(self.window)))

    def attention_weights(self, t: Tensor) -> Tensor:
        """Every head's (sensors x sensors) softmax attention matrix, as
        (..., heads, sensors, sensors)."""
        return self._attention(self._heads_input(t))

    def attend(self, t: Tensor) -> Tensor:
        """The attention output, (..., sensors, heads * head_dim): head h's
        attention-weighted value projections fill column block h."""
        t = self._heads_input(t)
        heads = ad.swap_axes(
            ad.matmul(self._attention(t), ad.matmul(t, self.w_value)), -3, -2)
        return ad.reshape(heads, heads.shape[:-2] + (self.heads * self.head_dim,))

    def encode(self, t: Tensor) -> Tensor:
        """Embed a segment, or a stack of them, as (sensors x model_dim) matrices."""
        merged = ad.matmul(self.attend(t), self.w_out)
        # One expression, so that each temporary (the hidden layer too) is
        # dropped as soon as the next operation has used it.
        return ad.add(merged, ad.add(ad.matmul(
            ad.relu(ad.add(ad.matmul(merged, self.w_ff1), self.b_ff1)),
            self.w_ff2), self.b_ff2))

    def predict_next(self, embedding: Tensor) -> Tensor:
        """Linear prediction of the next window from an embedding."""
        if embedding.shape[-2:] != (self.sensors, self.model_dim):
            raise ValueError(
                f"embedding shape {embedding.shape} does not match encoder "
                f"({self.sensors}, {self.model_dim})")
        return ad.add(ad.matmul(embedding, self.w_pred), self.b_pred)


def prediction_loss(encoder: TemporalEncoder, windows: np.ndarray,
                    successors: np.ndarray, count: int) -> Tensor:
    """Squared Frobenius error of next-window predictions over a stack,
    divided by ``count``: the stack's length gives the mean, a training
    epoch's pair count gives a part's share of it."""
    predicted = encoder.predict_next(encoder.encode(Tensor(windows)))
    return ad.scale(ad.frobenius_sq(ad.sub(Tensor(successors), predicted)),
                    1.0 / count)


def train_temporal(encoder: TemporalEncoder, values: np.ndarray,
                   starts: np.ndarray, epochs: int, lr: float) -> list[float]:
    """Fit the encoder on the (window, successor) pairs of a (rows x
    sensors) stream: pair i is the ``encoder.window`` rows from
    ``starts[i]`` and, as its successor, the ``encoder.window`` rows right
    after them. Returns the per-epoch mean losses.

    Each epoch's loss is one part per ``autodiff.CHUNK`` pairs, and each
    part gathers its pairs from ``values`` when it is built: its windows as
    a C-ordered copy (``data.gather_windows``) and its successors as the
    transposed view of their rows that the loss reads.
    """
    count = len(starts)
    if count == 0:
        raise DataError("no training pairs with successor windows")
    length = encoder.window

    def parts():
        for rows in ad.chunks(count):
            part = starts[rows]
            successors = values[window_rows(part + length, length)]
            yield prediction_loss(encoder, gather_windows(values, part, length),
                                  successors.transpose(0, 2, 1), count)

    return ad.fit(encoder.named_parameters(), parts, epochs, lr, tag="temporal")
