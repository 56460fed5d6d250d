"""One-class hypersphere detector over one feature row per window.

Each input row is one window's (nodes x dim) embedding flattened node-major,
node i's dim values in columns i*dim to (i+1)*dim: VGAE posterior means with
the graph autoencoder on, otherwise temporal embeddings or the raw window. A
small bias-free network maps each row to an output space where training pulls
normal rows toward a fixed center; a row's anomaly score is its squared
distance to that center. Bias-free layers and an unbounded leaky activation
are deliberate: with a nonzero fixed center they block the degenerate
solution where everything collapses onto the center regardless of input.
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

    def forward(self, x: Tensor) -> Tensor:
        """Map a batch of sample rows through the network."""
        out = x
        for w in self.weights[:-1]:
            out = ad.leaky_relu(ad.matmul(out, w), self.slope)
        return ad.matmul(out, self.weights[-1])

    def init_center(self, samples: np.ndarray) -> np.ndarray:
        """Fix the center at the mean initial image of the training samples.

        Coordinates closer to zero than the floor are pushed outward
        (sign-preserving; exact zeros go positive) so the center cannot sit
        at the trivial all-zeros solution.
        """
        samples = np.atleast_2d(samples)
        if samples.shape[0] == 0:
            raise DataError("cannot initialize the center from zero samples")
        image = self.forward(Tensor(samples)).value
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
        image = self.forward(Tensor(np.atleast_2d(samples))).value
        diff = image - center
        return (diff * diff).sum(axis=1)


def svdd_objective(net: SvddNet, samples: np.ndarray) -> Tensor:
    """Mean squared distance of the samples' images to the center."""
    samples = np.atleast_2d(samples)
    center = net._require_center()
    # A read-only view, one center row for every sample: nothing is copied.
    tiled = Tensor(np.broadcast_to(center, (samples.shape[0], center.shape[-1])))
    return ad.scale(
        ad.frobenius_sq(ad.sub(net.forward(Tensor(samples)), tiled)),
        1.0 / samples.shape[0])


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
    trace = ad.fit(net.named_parameters(), lambda: [svdd_objective(net, samples)],
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

