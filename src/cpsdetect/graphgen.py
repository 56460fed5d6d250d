"""Dynamic weighted attributed graphs from embeddings and the static topology.

Edge weights come from type-level cosine similarity: per-type mean embeddings
are compared pairwise, the resulting (types x types) matrix is expanded to
sensor pairs through each sensor's type, and the expansion is multiplied
elementwise into the binary adjacency. Weighting therefore reshapes existing
edges but never creates new ones, and weights stay in [-1, 1]. Negative
similarities are kept as negative weights; the downstream degree
normalization handles them.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import SensorTopology


@dataclass
class WeightedGraph:
    """Weighted adjacency plus node attributes for one segment."""

    adjacency: np.ndarray
    attributes: np.ndarray


def type_embeddings(attributes: np.ndarray,
                    topology: SensorTopology) -> np.ndarray:
    """Mean attribute row per sensor type, (types x dim)."""
    k = topology.type_count
    out = np.empty((k, attributes.shape[1]))
    for tau in range(k):
        out[tau] = attributes[topology.type_of == tau].mean(axis=0)
    return out


def type_similarity(embeddings: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity between type embeddings.

    A zero-norm embedding is degenerate: its similarity is defined as 0 to
    every other type and 1 to itself, with a warning.
    """
    norms = np.linalg.norm(embeddings, axis=1)
    if (norms == 0.0).any():
        warnings.warn("zero-norm type embedding; treating its similarity "
                      "to other types as 0", RuntimeWarning, stacklevel=2)
    denom = np.outer(norms, norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        sim = (embeddings @ embeddings.T) / denom
    sim[denom == 0.0] = 0.0
    np.fill_diagonal(sim, 1.0)
    return np.clip(sim, -1.0, 1.0)


def expand_similarity(similarity: np.ndarray,
                      topology: SensorTopology) -> np.ndarray:
    """Map the (types x types) similarity onto sensor pairs via type lookup."""
    idx = topology.type_of
    return similarity[np.ix_(idx, idx)]


def build_graph(adjacency: np.ndarray, expanded: np.ndarray,
                attributes: np.ndarray) -> WeightedGraph:
    if adjacency.shape != expanded.shape:
        raise ValueError(
            f"adjacency {adjacency.shape} vs similarity {expanded.shape}")
    if attributes.shape[0] != adjacency.shape[0]:
        raise ValueError(
            f"attributes {attributes.shape} do not match {adjacency.shape[0]} nodes")
    return WeightedGraph(adjacency * expanded, attributes)


def weighted_graph(topology: SensorTopology, attributes: np.ndarray,
                   weighting: bool = True) -> WeightedGraph:
    """Full pipeline from attributes to a weighted attributed graph.

    With ``weighting`` off the binary adjacency is used untouched (the
    ablation configuration).
    """
    if not weighting:
        return WeightedGraph(topology.adjacency.astype(float), attributes)
    sim = type_similarity(type_embeddings(attributes, topology))
    return build_graph(topology.adjacency.astype(float),
                       expand_similarity(sim, topology), attributes)
