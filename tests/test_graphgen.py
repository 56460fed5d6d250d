import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsdetect import data, graphgen, vgae

PATH_TOPOLOGY = data.parse_topology(
    "sensor A flow\nsensor B flow\nsensor C level\nedge A B\nedge B C\n")


class TestTypeEmbeddings:
    def test_singleton_type_is_verbatim(self):
        u = np.array([[1.0, 2.0], [3.0, 4.0], [9.0, 9.0]])
        out = graphgen.type_embeddings(u, PATH_TOPOLOGY)
        np.testing.assert_array_equal(out[1], [9.0, 9.0])

    def test_two_sensor_mean(self):
        u = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
        out = graphgen.type_embeddings(u, PATH_TOPOLOGY)
        np.testing.assert_array_equal(out[0], [2.0, 3.0])

    def test_matches_group_by_mean_oracle(self):
        rng = np.random.default_rng(0)
        topology = data.generate_topology(9, 3, 0.3, rng)
        u = rng.normal(size=(9, 5))
        out = graphgen.type_embeddings(u, topology)
        for tau in range(3):
            members = [i for i in range(9) if topology.type_of[i] == tau]
            np.testing.assert_allclose(out[tau],
                                       np.mean([u[i] for i in members], axis=0))


def add_at_means(attributes, topology):
    """Per-type means by np.add.at: rows added to a +0.0 start in sensor order."""
    k = topology.type_count
    sums = np.zeros(attributes.shape[:-2] + (k, attributes.shape[-1]))
    np.add.at(sums, (..., topology.type_of, slice(None)), attributes)
    return sums / np.bincount(topology.type_of, minlength=k)[:, None]


# Uneven and interleaved types: flow has 8 sensors, level 3, valve 1.
MIXED_TOPOLOGY = data.parse_topology("".join(
    f"sensor s{i} {kind}\n" for i, kind in enumerate(
        ["flow", "level", "flow", "valve", "flow", "level",
         "flow", "flow", "flow", "level", "flow", "flow"])))


def awkward_attributes(shape, seed):
    """Entries over many magnitudes, with +-0.0 and subnormals; in the first
    column every flow sensor (the largest type, so no padding) and every
    level sensor (1, 5 and 9) holds -0.0."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310])
    mask = rng.random(shape) < 0.3
    values[mask] = rng.choice(special, size=int(mask.sum()))
    values[..., MIXED_TOPOLOGY.type_of != 2, 0] = -0.0
    return values


class TestTypeMeansMatchAddAt:
    @pytest.mark.parametrize("shape", [(12, 5), (12, 1), (1, 12, 5), (1, 12, 1),
                                       (266, 12, 32)])
    def test_bytes_equal_the_add_at_means(self, shape):
        values = awkward_attributes(shape, seed=len(shape) * 100 + shape[-1])
        out = graphgen.type_embeddings(values, MIXED_TOPOLOGY)
        expected = add_at_means(values, MIXED_TOPOLOGY)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_all_negative_zero_type_mean_is_positive_zero(self):
        # add.at starts every sum at +0.0, so -0.0 rows sum to +0.0.
        values = awkward_attributes((12, 3), seed=1)
        out = graphgen.type_embeddings(values, MIXED_TOPOLOGY)
        assert (out[:2, 0] == 0.0).all() and not np.signbit(out[:2, 0]).any()

    @pytest.mark.parametrize("shape", [(12, 1), (1, 12, 1), (3, 12, 1), (12, 2)])
    def test_sums_run_in_sensor_order_at_any_width(self, shape):
        # In sensor order 1 + 1e-16 rounds back to 1 at every step; summed
        # in pairs the tiny terms first make 2e-16 and survive. A one-column
        # sum over a gathered (types x members) axis is a contiguous
        # reduction that numpy adds pairwise, so it would read 1 + 2e-16.
        values = np.zeros(shape)
        values[..., MIXED_TOPOLOGY.type_members[0], 0] = [1.0] + [1e-16] * 7
        out = graphgen.type_embeddings(values, MIXED_TOPOLOGY)
        assert out.tobytes() == add_at_means(values, MIXED_TOPOLOGY).tobytes()
        assert (out[..., 0, 0] == 1.0 / 8).all()

    def test_member_table_lists_each_type_in_sensor_order(self):
        assert MIXED_TOPOLOGY.type_members.tolist() == [
            [0, 2, 4, 6, 7, 8, 10, 11],
            [1, 5, 9, 12, 12, 12, 12, 12],
            [3, 12, 12, 12, 12, 12, 12, 12]]
        assert PATH_TOPOLOGY.type_members.tolist() == [[0, 1], [2, 3]]


class TestTypeSimilarity:
    def test_identical_rows(self):
        sim = graphgen.type_similarity(np.array([[1.0, 2.0], [1.0, 2.0]]))
        np.testing.assert_allclose(sim, np.ones((2, 2)))

    def test_orthogonal_rows(self):
        sim = graphgen.type_similarity(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(sim, np.eye(2))

    def test_closed_form_cosine(self):
        sim = graphgen.type_similarity(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert sim[0, 1] == pytest.approx(1.0 / math.sqrt(2.0))

    def test_zero_norm_row_warns_and_degrades(self):
        with pytest.warns(RuntimeWarning, match="zero-norm"):
            sim = graphgen.type_similarity(np.array([[0.0, 0.0], [1.0, 2.0]]))
        assert sim[0, 0] == 1.0
        assert sim[0, 1] == 0.0
        assert sim[1, 0] == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 5), (64, 3, 32), (2, 7, 1)])
    def test_bits_of_the_norm_mask_and_clip_formula(self, shape, dtype):
        # Entries over many magnitudes, with signed zeros; a zero-norm type
        # in every matrix.
        rng = np.random.default_rng(shape[-1])
        emb = rng.normal(size=shape) * 10.0 ** rng.integers(-15, 15, size=shape)
        emb[rng.random(shape) < 0.2] = -0.0
        emb = emb.astype(dtype)
        emb[..., 0, :] = 0.0
        norms = np.linalg.norm(emb, axis=-1)
        denom = norms[..., :, None] * norms[..., None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = (emb @ np.swapaxes(emb, -1, -2)) / denom
        expected[denom == 0.0] = 0.0
        expected[..., np.eye(shape[-2], dtype=bool)] = 1.0
        expected = np.clip(expected, -1.0, 1.0)
        with pytest.warns(RuntimeWarning, match="zero-norm"):
            sim = graphgen.type_similarity(emb)
        assert sim.dtype == expected.dtype
        assert sim.tobytes() == expected.tobytes()

    @given(st.integers(0, 1000))
    @settings(max_examples=30)
    def test_symmetric_unit_diagonal_bounded(self, seed):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(4, 6))
        sim = graphgen.type_similarity(emb)
        np.testing.assert_allclose(sim, sim.T)
        np.testing.assert_allclose(np.diag(sim), 1.0)
        assert (np.abs(sim) <= 1.0).all()

    def test_scale_invariance_is_exact_for_binary_powers(self):
        rng = np.random.default_rng(7)
        emb = rng.normal(size=(3, 5))
        base = graphgen.type_similarity(emb)
        for alpha in (0.5, 2.0, 4.0, 1024.0):
            scaled = graphgen.type_similarity(alpha * emb)
            np.testing.assert_array_equal(scaled, base)

    def test_scale_invariance_near_exact_for_general_scalars(self):
        rng = np.random.default_rng(8)
        emb = rng.normal(size=(3, 5))
        base = graphgen.type_similarity(emb)
        scaled = graphgen.type_similarity(3.7 * emb)
        np.testing.assert_allclose(scaled, base, atol=1e-12)


class TestExpandSimilarity:
    """The type similarity reaches each edge through its sensors' types."""

    def test_single_type_gives_all_ones(self):
        topology = data.parse_topology("sensor A x\nsensor B x\nedge A B\n")
        attrs = np.random.default_rng(0).normal(size=(3, 2, 4))
        g = graphgen.weighted_graph(topology, attrs, weighting=True)
        np.testing.assert_array_equal(g, np.ones((3, 1, 1)) * topology.adjacency)

    def test_two_types_direct_mapping(self):
        topology = data.parse_topology("sensor A x\nsensor B y\nedge A B\n")
        attrs = np.array([[[3.0, 4.0], [4.0, 3.0]]])  # cosine 24/25
        g = graphgen.weighted_graph(topology, attrs, weighting=True)
        np.testing.assert_array_equal(g, [[[0.0, 24 / 25], [24 / 25, 0.0]]])

    def test_matches_index_lookup_oracle(self):
        rng = np.random.default_rng(1)
        topology = data.generate_topology(7, 3, 0.3, rng)
        attrs = rng.normal(size=(4, 7, 5))
        g = graphgen.weighted_graph(topology, attrs, weighting=True)
        for b in range(4):
            c = graphgen.type_similarity(
                graphgen.type_embeddings(attrs[b], topology))
            for i in range(7):
                for j in range(7):
                    assert g[b, i, j] == (
                        topology.adjacency[i, j]
                        * c[topology.type_of[i], topology.type_of[j]])


class TestBuildGraph:
    """Weighting multiplies the similarity into the existing edges only."""

    def test_all_ones_similarity_is_noop(self):
        # Parallel type means (1, 0) and (2, 0) have cosine exactly 1.
        attrs = np.array([[[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
        g = graphgen.weighted_graph(PATH_TOPOLOGY, attrs, weighting=True)
        np.testing.assert_array_equal(g[0], PATH_TOPOLOGY.adjacency)

    def test_empty_adjacency_stays_empty(self):
        topology = data.parse_topology("sensor A x\nsensor B y\nsensor C x\n")
        attrs = np.random.default_rng(4).normal(size=(2, 3, 2))
        g = graphgen.weighted_graph(topology, attrs, weighting=True)
        np.testing.assert_array_equal(g, np.zeros((2, 3, 3)))

    def test_hand_path_graph(self):
        # Types are (flow, flow, level); the flow mean (3, 4) and the level
        # row (4, 3) have cosine 24/25, the weight of the cross-type edge.
        attrs = np.array([[[2.0, 4.0], [4.0, 4.0], [4.0, 3.0]]])
        g = graphgen.weighted_graph(PATH_TOPOLOGY, attrs, weighting=True)
        np.testing.assert_array_equal(
            g, [[[0.0, 1.0, 0.0], [1.0, 0.0, 24 / 25], [0.0, 24 / 25, 0.0]]])


class TestWeightedGraph:
    @given(st.integers(0, 1000))
    @settings(max_examples=30)
    def test_support_symmetry_and_range(self, seed):
        rng = np.random.default_rng(seed)
        topology = data.generate_topology(8, 3, 0.4, rng)
        attrs = rng.normal(size=(8, 6))
        g = graphgen.weighted_graph(topology, attrs, weighting=True)
        support = g != 0.0
        assert not support[topology.adjacency == 0].any()
        np.testing.assert_allclose(g, g.T)
        assert (np.abs(g) <= 1.0).all()

    def test_weighting_off_returns_binary_adjacency(self):
        attrs = np.random.default_rng(2).normal(size=(3, 4))
        g = graphgen.weighted_graph(PATH_TOPOLOGY, attrs, weighting=False)
        np.testing.assert_array_equal(g, PATH_TOPOLOGY.adjacency)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weighting", [True, False])
    def test_graph_takes_the_attributes_dtype(self, weighting, dtype):
        attrs = np.random.default_rng(2).normal(size=(2, 3, 4)).astype(dtype)
        g = graphgen.weighted_graph(PATH_TOPOLOGY, attrs, weighting)
        assert g.dtype == dtype
        assert all(a.dtype == dtype for a in vgae.propagate(g, attrs))

    def test_topology_constants_are_built_once_and_read_only(self):
        topology = data.parse_topology(
            "sensor A flow\nsensor B flow\nsensor C level\nedge A B\n")
        adjacency, sizes = topology.graph_constants(np.float32)
        assert topology.graph_constants(np.float32)[0] is adjacency
        assert adjacency.dtype == sizes.dtype == np.float32
        assert sizes.tolist() == [[2.0], [1.0]]
        assert topology.graph_constants(np.float64)[0].dtype == np.float64
        identity = vgae._identity(3, np.dtype(np.float64))
        assert vgae._identity(3, np.dtype(np.float64)) is identity
        for constant in (adjacency, sizes, topology.type_sizes,
                         topology.type_members, identity):
            with pytest.raises(ValueError, match="read-only"):
                constant[0] = 1

    def test_different_attributes_give_different_weights(self):
        rng = np.random.default_rng(3)
        a1 = graphgen.weighted_graph(PATH_TOPOLOGY, rng.normal(size=(3, 4)),
                                     weighting=True)
        a2 = graphgen.weighted_graph(PATH_TOPOLOGY, rng.normal(size=(3, 4)),
                                     weighting=True)
        assert not np.array_equal(a1, a2)


class TestStack:
    """A stack of attribute matrices gives the stack of single graphs."""

    @pytest.mark.parametrize("zero_norm", [False, True])
    @pytest.mark.parametrize("weighting", [True, False])
    def test_stack_equals_one_graph_at_a_time(self, weighting, zero_norm):
        # With zero_norm, graph 2's type-1 sensors are all zero, so the
        # stack takes the zero-denominator path and the other graphs with
        # it; each graph still gets the bits it gets alone.
        rng = np.random.default_rng(5)
        topology = data.generate_topology(9, 3, 0.4, rng)
        attrs = rng.normal(size=(6, 9, 5))
        if zero_norm:
            attrs[2, topology.type_of == 1] = 0.0
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            g = graphgen.weighted_graph(topology, attrs, weighting)
        assert [str(w.message).startswith("zero-norm") for w in warned] == (
            [True] if weighting and zero_norm else [])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            singles = [graphgen.weighted_graph(topology, a, weighting)
                       for a in attrs]
        assert g.shape == (6, 9, 9)
        assert g.tobytes() == np.stack(singles).tobytes()
        if weighting:
            assert g.flags.c_contiguous
