"""Variational graph autoencoder over weighted attributed graphs.

Two graph-convolution layers share one symmetrically normalized adjacency
(self-loops added before normalization, degrees summed as weight
magnitudes so negatively weighted rows stay finite). The second layer emits
mean and log-variance heads side by side; reparameterized samples decode
back to edge probabilities through a sigmoid Gram matrix. The training loss
is squared reconstruction error against one target, the topology's edges
plus self-loops, plus a weighted diagonal-Gaussian KL term, averaged over
the training graphs. Graphs pass every step as a stack (leading axis), and
a stack enters the encoder as its ``propagate`` constants. A fit reads its
graphs as a list of parts, each one stack's constants, which the caller
builds part by part, so no stack of every graph exists; each epoch
backpropagates one part before the next is built.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError
from .graphgen import WeightedGraph

LOGVAR_RANGE = 10.0


@dataclass
class GraphEmbedding:
    """Latent summary of a graph (or stack): samples plus posterior moments."""

    r: Tensor
    mean: Tensor
    logvar: Tensor


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of the self-looped adjacency.

    Degrees are sums of edge-weight magnitudes, the signed-graph convention:
    negative weights then cannot cancel the unit self-loop. Every graph has
    a zero diagonal (``SensorTopology.validate`` checks the topology's, and
    weighting multiplies into it), so every self-looped degree is at least
    1 and the normalized entries stay bounded.
    """
    with_loops = adjacency + np.eye(adjacency.shape[-1])
    degrees = np.abs(with_loops).sum(axis=-1)
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return inv_sqrt[..., :, None] * with_loops * inv_sqrt[..., None, :]


def reconstruction_target(adjacency: np.ndarray) -> np.ndarray:
    """Binary edge support plus self-loops, matching the sigmoid decoder range.

    A fit builds it once, from the topology's adjacency: every window's
    graph has the topology's edges, and an edge that a window weights 0
    (similarity 0 to a type whose attributes are all zero there) stays in
    the target, although ``normalize_adjacency`` then gives it no weight.
    """
    return ((adjacency != 0.0) | np.eye(adjacency.shape[-1], dtype=bool)).astype(float)


def propagate(graph: WeightedGraph) -> tuple[Tensor, Tensor]:
    """The constants a graph or a stack enters the encoder as: its
    normalized adjacency, and that times the node attributes (the first
    layer's propagation, which holds no parameter). A fit builds them once,
    not every epoch."""
    norm = Tensor(normalize_adjacency(graph.adjacency))
    return norm, ad.matmul(norm, Tensor(graph.attributes))


class VgaeEncoder:
    """Two-layer graph convolution with mean / log-variance output heads."""

    def __init__(self, input_dim: int, hidden_dim: int, embed_dim: int,
                 rng: np.random.Generator, kl_weight: float = 1.0):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.embed_dim = embed_dim
        self.kl_weight = kl_weight
        self.w_hidden = ad.uniform_init(rng, input_dim, hidden_dim)
        self.w_heads = ad.uniform_init(rng, hidden_dim, 2 * embed_dim)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        """Parameters by name, in checkpoint order."""
        yield "w_hidden", self.w_hidden
        yield "w_heads", self.w_heads

    def encode(self, inputs: tuple[Tensor, Tensor],
               noise: np.ndarray | None = None) -> GraphEmbedding:
        """Encode a graph or a stack given as its ``propagate`` constants;
        ``noise=None`` is deterministic."""
        norm, mixed = inputs
        if mixed.shape[-1] != self.input_dim:
            raise ValueError(
                f"attribute dim {mixed.shape[-1]} does not match "
                f"encoder input dim {self.input_dim}")
        hidden = ad.relu(ad.matmul(mixed, self.w_hidden))
        heads = ad.matmul(ad.matmul(norm, hidden), self.w_heads)
        mean = ad.slice_cols(heads, 0, self.embed_dim)
        logvar = ad.clamp(ad.slice_cols(heads, self.embed_dim, 2 * self.embed_dim),
                          -LOGVAR_RANGE, LOGVAR_RANGE)
        if noise is None:
            r = mean
        else:
            std = ad.exp(ad.scale(logvar, 0.5))
            r = ad.add(mean, ad.mul(std, Tensor(noise)))
        return GraphEmbedding(r, mean, logvar)


def decode(r: Tensor) -> Tensor:
    """Edge probabilities: elementwise sigmoid of the Gram matrix."""
    return ad.sigmoid(ad.matmul(r, ad.transpose(r)))


def kl_divergence(mean: Tensor, logvar: Tensor) -> Tensor:
    """KL from the diagonal Gaussian posterior to the standard normal prior."""
    variance = ad.exp(logvar)
    inner = ad.sub(ad.add(ad.mul(mean, mean), variance), logvar)
    ones = Tensor(np.broadcast_to(1.0, inner.shape))
    return ad.scale(ad.total_sum(ad.sub(inner, ones)), 0.5)


def vgae_loss(target: np.ndarray, reconstructed: Tensor,
              embedding: GraphEmbedding, kl_weight: float) -> Tensor:
    """Squared reconstruction error plus weighted KL; a (nodes x nodes)
    target broadcasts against a stack's reconstructions."""
    recon = ad.frobenius_sq(ad.sub(Tensor(target), reconstructed))
    return ad.add(recon, ad.scale(kl_divergence(embedding.mean,
                                                embedding.logvar), kl_weight))


def vgae_objective(encoder: VgaeEncoder, inputs: tuple[Tensor, Tensor],
                   target: np.ndarray, noise: np.ndarray, count: int) -> Tensor:
    """Training loss summed over a stack of graphs, given as their
    ``propagate`` constants, against one (nodes x nodes) ``target`` that
    every graph shares, at a (graphs x nodes x embed_dim) noise draw,
    divided by ``count``: the stack's length gives the mean, a training
    epoch's graph count gives a part's share of it."""
    embedding = encoder.encode(inputs, noise)
    loss = vgae_loss(target, decode(embedding.r), embedding, encoder.kl_weight)
    return ad.scale(loss, 1.0 / count)


def train_vgae(encoder: VgaeEncoder, parts: list[tuple[Tensor, Tensor]],
               target: np.ndarray, epochs: int, lr: float,
               rng: np.random.Generator) -> list[float]:
    """Fit the encoder on graphs given as consecutive parts, each a stack's
    ``propagate`` constants, to reconstruct ``target``, the one
    ``reconstruction_target`` of every graph; returns per-epoch mean losses.

    Each epoch's loss is one term per part, and each part draws fresh noise
    for its graphs at once: over the epoch, the same numbers as one draw
    per graph in stack order. The parts' constants and the target are built
    once, by the caller, not every epoch.
    """
    count = sum(len(mixed.value) for _, mixed in parts)
    if count == 0:
        raise DataError("no graphs to train on")

    def losses():
        for norm, mixed in parts:
            noise = rng.standard_normal(mixed.shape[:-1] + (encoder.embed_dim,))
            yield vgae_objective(encoder, (norm, mixed), target, noise, count)

    return ad.fit(encoder.named_parameters(), losses, epochs, lr, tag="vgae")
