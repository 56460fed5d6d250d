"""Dynamic weighted attributed graphs from embeddings and the static topology.

Edge weights come from type-level cosine similarity: per-type mean embeddings
are compared pairwise, the resulting (types x types) matrix is expanded to
sensor pairs through each sensor's type, and the expansion is multiplied
elementwise into the binary adjacency. Weighting therefore reshapes existing
edges but never creates new ones, and weights stay in [-1, 1]. Negative
similarities are kept as negative weights; the downstream degree
normalization handles them. Every step takes a (sensors x dim) attribute
matrix or a (segments x sensors x dim) stack.

A type's mean is the sum of its sensors' rows, added to +0.0 one sensor at
a time in sensor index order, divided by the type's size. The topology's
``type_members`` table (each type's sensors, padded with the index of an
appended zero row) makes those sums one gather per member position for the
whole stack, so every graph of a stack gets the bits a graph built alone
gets.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import SensorTopology


@dataclass
class WeightedGraph:
    """Weighted adjacency plus node attributes of one graph or a stack."""

    adjacency: np.ndarray
    attributes: np.ndarray


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
    counts = np.bincount(topology.type_of, minlength=len(members))
    return sums / counts.astype(sums.dtype)[:, None]


def type_similarity(embeddings: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity between type embeddings.

    A zero-norm embedding is degenerate: its similarity is defined as 0 to
    every other type and 1 to itself, with a warning. Its type's edges to
    other types then get weight 0 (for example a constant type's raw
    windows under ``no-temporal``): the VGAE's propagation drops them, but
    its reconstruction target, the topology's edges, keeps them.
    """
    norms = np.linalg.norm(embeddings, axis=-1)
    if (norms == 0.0).any():
        warnings.warn("zero-norm type embedding; treating its similarity "
                      "to other types as 0", RuntimeWarning, stacklevel=2)
    denom = norms[..., :, None] * norms[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        sim = (embeddings @ np.swapaxes(embeddings, -1, -2)) / denom
    sim[denom == 0.0] = 0.0
    sim[..., np.eye(sim.shape[-1], dtype=bool)] = 1.0
    return np.clip(sim, -1.0, 1.0)


def weighted_graph(topology: SensorTopology, attributes: np.ndarray,
                   weighting: bool = True) -> WeightedGraph:
    """Weighted attributed graphs of one attribute matrix or a stack.

    The (types x types) similarity reaches sensor pairs through each
    sensor's type. With ``weighting`` off every graph keeps the binary
    adjacency untouched (the ablation configuration).
    """
    if attributes.shape[-2] != topology.n:
        raise ValueError(
            f"attributes {attributes.shape} do not match {topology.n} nodes")
    adjacency = topology.adjacency.astype(attributes.dtype)
    if not weighting:
        return WeightedGraph(
            np.broadcast_to(adjacency, attributes.shape[:-2] + adjacency.shape),
            attributes)
    idx = topology.type_of
    sim = type_similarity(type_embeddings(attributes, topology))
    # take() keeps the stack C-ordered: later row sums add as for one graph.
    return WeightedGraph(adjacency * sim.take(idx, axis=-2).take(idx, axis=-1),
                         attributes)
