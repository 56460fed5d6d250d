"""Variational graph autoencoder over weighted attributed graphs.

Two graph-convolution layers share one symmetrically normalized adjacency
(self-loops added before normalization, degrees summed as weight
magnitudes so negatively weighted rows stay finite). The second layer emits
mean and log-variance heads side by side; reparameterized samples decode
back to edge probabilities through a sigmoid Gram matrix. The training loss
is squared reconstruction error against one target, the topology's edges
plus self-loops, plus a weighted diagonal-Gaussian KL term, averaged over
the training graphs. Graphs pass every step as a stack (leading axis). A
graph is two plain arrays, its weighted adjacency and its node attributes
(Kipf & Welling's A and X), and a stack enters the encoder as the
``propagate`` arrays of the two. A fit reads its graphs as a list of
parts, each one stack's arrays, which the caller builds part by part
(``pipeline.segment_nodes``), so no stack of every graph exists.

The encoder works on plain arrays and builds no autodiff graph. ``encode``
is the one definition of the map, for the fit and the posterior-mean pass
alike, and keeps what the reverse pass reads on a tape when given one;
``decode`` is that of the decoder, which only the fit runs. The Gram
matrix r rᵀ is exactly symmetric, so ``decode`` takes the sigmoid on its
upper triangle only and copies it to the lower one, and the reverse pass
multiplies the Gram matrix's gradient by the samples themselves, not by a
transposed view of their transpose: 6.5 us against 18 us for a 64-graph
float32 part (2-vCPU host, one BLAS thread), with the same bits. A fit's
epoch runs ``loss_and_gradients`` on one part after another: the part's
share of the loss and a reverse pass written out by hand, which adds the
part's weight gradients to those the
earlier parts left (``autodiff.carried_sum``), so the parts leave the bits
of one pass over every graph. The pass makes the products and sums of
reverse-mode differentiation through the loss, in its order, the mean's
and the log-variance's three gradient terms included (``tests/oracles.py``
writes that order out as a reference), so a fit leaves the bits of one
differentiated through a graph of the same steps. It frees its
temporaries before its largest products and works in place where the
elementwise steps stay the same, so an epoch holds one part's working set
at a time and reuses its heap part after part. ``autodiff.fit`` runs the
epochs: the optimizer, the labelled numeric context and the loss trace.
"""
from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LOGVAR_RANGE = 10.0


@functools.lru_cache(maxsize=None)
def _identity(nodes: int, dtype: np.dtype) -> np.ndarray:
    """The (nodes x nodes) identity in ``dtype``, read-only: the self-loops
    every graph of that size and dtype adds, built once."""
    identity = np.eye(nodes, dtype=dtype)
    identity.flags.writeable = False
    return identity


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of the self-looped adjacency.

    Degrees are sums of edge-weight magnitudes, the signed-graph convention:
    negative weights then cannot cancel the unit self-loop. Every graph has
    a zero diagonal (building a ``SensorTopology`` checks the topology's, and
    weighting multiplies into it), so every self-looped degree is at least
    1 and the normalized entries stay bounded.
    """
    with_loops = adjacency + _identity(adjacency.shape[-1], adjacency.dtype)
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


def propagate(adjacency: np.ndarray, attributes: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """The arrays a graph or a stack, given as its weighted adjacency and
    its node attributes, enters the encoder as: the normalized adjacency,
    and that times the attributes (the first layer's propagation, which
    holds no parameter). A fit builds them once, not every epoch."""
    norm = normalize_adjacency(adjacency)
    return norm, norm @ attributes


class VgaeEncoder:
    """Two-layer graph convolution with mean / log-variance output heads."""

    def __init__(self, input_dim: int, hidden_dim: int, embed_dim: int,
                 rng: np.random.Generator, kl_weight: float):
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

    def encode(self, inputs: tuple[np.ndarray, np.ndarray],
               noise: np.ndarray | None = None,
               tape: dict[str, np.ndarray] | None = None) -> np.ndarray:
        """Posterior samples, (..., nodes, embed_dim), of a graph or a stack
        given as its ``propagate`` arrays, at a standard-normal ``noise``
        draw of that shape; ``noise=None`` gives the posterior means.

        With a ``tape`` and noise, it keeps what the reverse pass reads:
        the hidden layer's mask, the propagated hidden layer, the mean, the
        clipped log-variance, the clip's mask and the std.
        """
        norm, mixed = inputs
        hidden = mixed @ self.w_hidden.value
        mask = None if tape is None else hidden > 0.0
        np.maximum(hidden, 0.0, out=hidden)
        propagated = norm @ hidden
        del hidden  # the reverse pass reads only its mask
        heads = propagated @ self.w_heads.value
        mean = heads[..., :self.embed_dim].copy()
        if noise is None:
            return mean
        raw = heads[..., self.embed_dim:]
        logvar = np.clip(raw, -LOGVAR_RANGE, LOGVAR_RANGE)
        std = np.exp(logvar * 0.5)
        r = std * noise
        r += mean
        if tape is not None:
            tape.update(hidden_mask=mask, propagated=propagated, mean=mean,
                        logvar=logvar, std=std,
                        clip_mask=(raw >= -LOGVAR_RANGE) & (raw <= LOGVAR_RANGE))
        return r


@functools.lru_cache(maxsize=None)
def _triangles(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of a (nodes x nodes) matrix's upper triangle,
    diagonal included, in row order, and those of their transposed
    entries."""
    rows, cols = np.triu_indices(nodes)
    return rows * nodes + cols, cols * nodes + rows


def decode(r: np.ndarray) -> np.ndarray:
    """Edge probabilities: the elementwise sigmoid of the Gram matrix r rᵀ.

    The Gram matrix is exactly symmetric, so the sigmoid is taken on its
    upper triangle only, diagonal included (78 of 144 entries of a
    12-node graph), and written into both triangles: 150 us against 245 us
    for every entry of a 64-graph float32 part (2-vCPU host, one BLAS
    thread), with the same bits.
    """
    # A copy, not a view: numpy multiplies a matrix by its own transposed
    # view with a symmetric-product routine instead of the general one.
    rt = np.swapaxes(r, -1, -2).copy()
    y = r @ rt
    nodes = y.shape[-1]
    upper, lower = _triangles(nodes)
    flat = y.reshape(y.shape[:-2] + (nodes * nodes,))
    t = flat[..., upper]
    # exp(-logaddexp(0, -x)) is the overflow-safe logistic for both tails.
    np.negative(t, out=t)
    np.logaddexp(0.0, t, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    flat[..., upper] = t
    flat[..., lower] = t
    return y


def loss_and_gradients(encoder: VgaeEncoder, inputs: tuple[np.ndarray, np.ndarray],
                       target: np.ndarray, noise: np.ndarray, count: int,
                       grads: list[np.ndarray | None]) -> float:
    """One part's share of a training epoch's loss; adds its gradients.

    The part is a stack of graphs given as its ``propagate`` arrays, at a
    (graphs x nodes x embed_dim) ``noise`` draw, against one (nodes x
    nodes) ``target`` that every graph shares. Its loss is summed over the
    stack and divided by ``count``, the epoch's graph count. ``grads``
    holds one gradient per weight, in ``named_parameters`` order, summed
    over the epoch's earlier parts (``None`` before the first); each is
    replaced by the sum continued over this part.
    """
    tape: dict[str, np.ndarray] = {}
    r = encoder.encode(inputs, noise, tape)
    y = decode(r)
    c = 1.0 / count
    # The squared error, then its gradient at the Gram matrix in place:
    # (2c (target - y)) (-1) y (1 - y), the exact negation folded in.
    g = target - y
    recon = float((g * g).sum())
    g *= -2.0 * c
    g *= y
    g *= np.subtract(1.0, y, out=y)
    g_r = g @ r
    g_r += np.swapaxes(np.swapaxes(r, -1, -2) @ g, -1, -2)
    mean, logvar = tape.pop("mean"), tape.pop("logvar")
    variance = np.exp(logvar)
    kl = float((mean * mean + variance - logvar - 1.0).sum())
    gk = c * encoder.kl_weight * 0.5  # the KL sum's gradient, every entry
    # The log-variance's terms, (the KL's -logvar + the sample's std) + the
    # KL's exp, through the clip; the mean's, (the sample + the KL's
    # mean * mean) + its other factor. The heads' gradient is the sum of
    # the two halves' zero-padded gradients: adding 0.0 gives its bits.
    g_logvar = (-gk + g_r * noise * tape.pop("std") * 0.5 + variance * gk
                ) * tape.pop("clip_mask")
    mean *= gk
    g = np.concatenate([g_r + mean + mean, g_logvar], axis=-1)
    g += 0.0
    # Freed before the largest products: held, they raise a part's peak so
    # far that malloc hands the freed heap back to the OS after each part
    # and faults it in again (about 3,400 minor faults an epoch at the
    # benchmark's part shape, against none).
    del y, r, g_r, mean, logvar, variance, g_logvar
    axes = tuple(range(g.ndim - 2))
    grads[1] = ad.carried_sum(np.swapaxes(tape.pop("propagated"), -1, -2) @ g,
                              grads[1], axes)
    norm, mixed = inputs
    g = np.swapaxes(norm, -1, -2) @ (g @ encoder.w_heads.value.T)
    g *= tape.pop("hidden_mask")
    grads[0] = ad.carried_sum(np.swapaxes(mixed, -1, -2) @ g, grads[0], axes)
    return (recon + kl * 0.5 * encoder.kl_weight) * c


def train_vgae(encoder: VgaeEncoder, parts: list[tuple[np.ndarray, np.ndarray]],
               target: np.ndarray, epochs: int, lr: float,
               rng: np.random.Generator) -> list[float]:
    """Fit the encoder on graphs given as consecutive parts, each a stack's
    ``propagate`` arrays, to reconstruct ``target``, the one
    ``reconstruction_target`` of every graph; returns per-epoch mean losses.

    Each epoch's loss is one term per part, summed from 0.0 in part order,
    and each part draws fresh noise for its graphs at once: over the epoch,
    the same numbers as one draw per graph in stack order. The parts'
    arrays and the target are built once, by the caller, not every epoch.
    """
    count = sum(len(mixed) for _, mixed in parts)

    def epoch() -> tuple[float, list[np.ndarray | None]]:
        loss, grads = 0.0, [None, None]
        for norm, mixed in parts:
            noise = rng.standard_normal(mixed.shape[:-1] + (encoder.embed_dim,)
                                        ).astype(mixed.dtype, copy=False)
            loss += loss_and_gradients(encoder, (norm, mixed), target, noise,
                                       count, grads)
        return loss, grads

    return ad.fit(encoder.named_parameters(), epoch, epochs, lr, tag="vgae")
