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

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError

CENTER_FLOOR = 0.1


@dataclass
class DetectionResult:
    segment_index: int
    score: float
    threshold: float
    predicted: int


class SvddNet:
    """Bias-free multilayer map plus a fixed hypersphere center."""

    def __init__(self, input_dim: int, widths: Sequence[int],
                 slope: float, rng: np.random.Generator):
        if not widths:
            raise ValueError("need at least one layer width")
        self.widths = tuple(int(w) for w in widths)
        self.slope = slope
        dims = [input_dim, *self.widths]
        self.weights = [ad.uniform_init(rng, dims[i], dims[i + 1])
                        for i in range(len(self.widths))]
        self.center: np.ndarray | None = None
        self.trained = False

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
        leak = np.array([self.slope, 1.0], dtype=x.dtype)
        out, factor = x, None
        for w in self.weights[:-1]:
            if tape is not None:
                tape.append((out, factor))
            out = out @ w.value
            # The activation's derivative, gathered with take(): in the fit
            # it beats both np.where's branchy loop and fancy indexing.
            factor = leak.take((out > 0.0).view(np.uint8))
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
        samples = np.atleast_2d(samples)
        if samples.shape[0] == 0:
            raise DataError("cannot initialize the center from zero samples")
        image = self.forward(samples)
        center = image.mean(axis=0)
        small = np.abs(center) < CENTER_FLOOR
        center[small] = np.where(center[small] < 0.0, -CENTER_FLOOR, CENTER_FLOOR)
        self.center = center
        return center

    def _require_center(self) -> np.ndarray:
        if self.center is None:
            raise RuntimeError("hypersphere center is not initialized")
        return self.center

    def _require_trained(self) -> None:
        if not self.trained:
            raise RuntimeError("scoring requires a trained network")

    def scores(self, samples: np.ndarray) -> np.ndarray:
        """Squared distances to the center, one per sample row."""
        self._require_trained()
        center = self._require_center()
        diff = self.forward(np.atleast_2d(samples))
        diff -= center
        return (diff * diff).sum(axis=1)


def loss_and_gradients(net: SvddNet, samples: np.ndarray
                       ) -> tuple[float, list[np.ndarray]]:
    """Mean squared distance of the samples' images to the center, and its
    gradient with respect to each weight, in ``weights`` order."""
    tape: list[tuple[np.ndarray, np.ndarray | None]] = []
    g = net.forward(samples, tape)
    g -= net._require_center()
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
    samples = np.atleast_2d(samples)
    if samples.shape[0] == 0:
        raise DataError("no training samples")
    net._require_center()
    # One part: the weight gradient is one product over every sample, whose
    # bits a split into parts would change.
    trace = ad.fit(net.named_parameters(), lambda: loss_and_gradients(net, samples),
                   epochs, lr, weight_decay=weight_decay, tag="svdd")
    net.trained = True
    return trace


def calibrate_threshold(net: SvddNet, samples: np.ndarray,
                        quantile: float) -> float:
    """Empirical quantile of calibration scores (linear interpolation)."""
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    samples = np.atleast_2d(samples)
    if samples.shape[0] == 0:
        raise DataError("no calibration samples")
    return float(np.quantile(net.scores(samples), quantile))

