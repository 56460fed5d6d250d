"""One-class hypersphere detector over one feature row per window.

Each input row is one window's (nodes x dim) embedding flattened node-major,
node i's dim values in columns i*dim to (i+1)*dim: VGAE posterior means with
the graph autoencoder on, otherwise temporal embeddings or the raw window. A
small bias-free network maps each row to an output space where training pulls
normal rows toward a fixed center; a row's anomaly score is its squared
distance to that center. Bias-free layers and an unbounded leaky activation
are deliberate: with a nonzero fixed center they block the degenerate
solution where everything collapses onto the center regardless of input.

The network works on plain arrays and builds no autodiff graph.
``forward`` is the one definition of the map, for the fit, ``init_center``
and ``scores`` alike; given a tape, it keeps each layer's input and leaky
factor (1 above zero, the slope elsewhere). The fit's objective,
``loss_and_gradients``, is the mean squared distance to the center and a
reverse pass written out by hand over that tape: one gradient per weight,
for any number of layers, with the products of reverse-mode
differentiation through the layers' products, the factor, the center's
subtraction, the squared norm and the 1/n scale, in its order (the
reference in ``tests/oracles.py``), so a fit leaves the bits that
differentiating a graph of those steps leaves. The leaky factor, the center
subtraction and the gradient scale are applied in place to arrays the
epoch made itself. ``autodiff.fit`` still runs the epochs: the optimizer,
the labelled numeric context and the loss trace.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

CENTER_FLOOR = 0.1


class SvddNet:
    """Bias-free multilayer map plus a fixed hypersphere center."""

    def __init__(self, input_dim: int, widths: Sequence[int],
                 slope: float, rng: np.random.Generator):
        self.widths = tuple(int(w) for w in widths)
        self.slope = slope
        dims = [input_dim, *self.widths]
        self.weights = [ad.uniform_init(rng, dims[i], dims[i + 1])
                        for i in range(len(self.widths))]
        self.center: np.ndarray | None = None

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        """Parameters by name, in checkpoint order."""
        for i, w in enumerate(self.weights):
            yield f"w{i}", w

    def forward(self, x: np.ndarray,
                tape: list[tuple[np.ndarray, np.ndarray | None]] | None = None
                ) -> np.ndarray:
        """Map a batch of sample rows through the network.

        With a ``tape``, each layer appends its input and the leaky factor
        that made that input (``None`` for the samples): what the reverse
        pass reads.
        """
        out, factor = x, None
        for w in self.weights[:-1]:
            if tape is not None:
                tape.append((out, factor))
            out = out @ w.value
            # The activation's derivative: 1 or 0, then 0 raised to the
            # slope (0 < slope <= 1 leaves 1 alone), both exact. At the
            # fit's 566 x 64 in float32 it takes 18-27 us against 49-64 us
            # for a take() from (slope, 1) (2-vCPU host, one BLAS thread).
            factor = (out > 0.0).astype(out.dtype)
            np.maximum(factor, self.slope, out=factor)
            out *= factor
        if tape is not None:
            tape.append((out, factor))
        return out @ self.weights[-1].value

    def init_center(self, samples: np.ndarray) -> np.ndarray:
        """Fix the center at the mean initial image of the training samples.

        Coordinates closer to zero than the floor are pushed outward
        (sign-preserving; exact zeros go positive) so the center cannot sit
        at the trivial all-zeros solution.
        """
        image = self.forward(samples)
        center = image.mean(axis=0)
        small = np.abs(center) < CENTER_FLOOR
        center[small] = np.where(center[small] < 0.0, -CENTER_FLOOR, CENTER_FLOOR)
        self.center = center
        return center

    def scores(self, samples: np.ndarray) -> np.ndarray:
        """Squared distances to the center, one per sample row."""
        diff = self.forward(samples)
        diff -= self.center
        return (diff * diff).sum(axis=1)


def loss_and_gradients(net: SvddNet, samples: np.ndarray
                       ) -> tuple[float, list[np.ndarray]]:
    """Mean squared distance of the samples' images to the center, and its
    gradient with respect to each weight, in ``weights`` order."""
    tape: list[tuple[np.ndarray, np.ndarray | None]] = []
    g = net.forward(samples, tape)
    g -= net.center
    scale = 1.0 / samples.shape[0]
    loss = float((g * g).sum()) * scale
    g *= 2.0 * scale  # d loss / d image
    grads = []
    for (inp, factor), w in zip(reversed(tape), reversed(net.weights)):
        grads.append(inp.T @ g)
        if factor is not None:  # the samples get no gradient
            g = g @ w.value.T
            g *= factor
    grads.reverse()
    return loss, grads


def train_svdd(net: SvddNet, samples: np.ndarray, epochs: int, lr: float,
               weight_decay: float) -> list[float]:
    """Shrink the hypersphere around the fixed center; returns loss trace.

    The weight penalty is realized as decoupled decay inside the optimizer;
    the recorded trace is the mean squared distance term.
    """
    # One part: the weight gradient is one product over every sample, whose
    # bits a split into parts would change.
    return ad.fit(net.named_parameters(), lambda: loss_and_gradients(net, samples),
                  epochs, lr, weight_decay=weight_decay, tag="svdd")


def calibrate_threshold(net: SvddNet, samples: np.ndarray,
                        quantile: float) -> float:
    """Empirical quantile of calibration scores (linear interpolation)."""
    return float(np.quantile(net.scores(samples), quantile))

