import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsdetect import autodiff as ad
from cpsdetect import metrics, vgae
from cpsdetect.autodiff import Tensor
from cpsdetect.errors import DataError
from cpsdetect.graphgen import WeightedGraph

from oracles import finite_difference, relative_gradient_error


def make_encoder(input_dim=4, hidden_dim=3, embed_dim=2, seed=0, **kw):
    return vgae.VgaeEncoder(input_dim, hidden_dim, embed_dim,
                            np.random.default_rng(seed), **kw)


def toy_graph(seed=1, nodes=3, dim=4):
    rng = np.random.default_rng(seed)
    adjacency = np.zeros((nodes, nodes))
    for i in range(nodes - 1):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    return WeightedGraph(adjacency, rng.normal(size=(nodes, dim)))


def stack(*graphs):
    """One stacked WeightedGraph of single graphs."""
    return WeightedGraph(np.stack([g.adjacency for g in graphs]),
                         np.stack([g.attributes for g in graphs]))


def fit_parts(graphs: WeightedGraph) -> list:
    """A stack's ``propagate`` constants, one part per ``autodiff.CHUNK``
    graphs."""
    return [vgae.propagate(WeightedGraph(graphs.adjacency[rows],
                                         graphs.attributes[rows]))
            for rows in ad.chunks(len(graphs.adjacency))]


def path_target():
    """The reconstruction target of ``toy_graph``'s 3-node path."""
    return vgae.reconstruction_target(toy_graph().adjacency)


class TestNormalizeAdjacency:
    def test_empty_graph_normalizes_to_identity(self):
        np.testing.assert_allclose(
            vgae.normalize_adjacency(np.zeros((2, 2))), np.eye(2))

    def test_hand_path_graph(self):
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        norm = vgae.normalize_adjacency(a)
        # Self-looped degrees are [2, 3, 2]; the (0,1) entry is 1/sqrt(6).
        assert norm[0, 1] == pytest.approx(1.0 / math.sqrt(6.0))
        assert norm[0, 0] == pytest.approx(0.5)
        assert norm[1, 1] == pytest.approx(1.0 / 3.0)

    @given(st.integers(0, 500))
    @settings(max_examples=30)
    def test_symmetric_in_symmetric_out_and_finite(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(5, 5))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        norm = vgae.normalize_adjacency(a)
        np.testing.assert_allclose(norm, norm.T)
        assert np.isfinite(norm).all()

    def test_negative_weights_stay_bounded(self):
        # Weights near -1 must not cancel the self-loop in the degrees.
        a = np.array([[0.0, -0.99, -0.99],
                      [-0.99, 0.0, 0.0],
                      [-0.99, 0.0, 0.0]])
        norm = vgae.normalize_adjacency(a)
        assert np.abs(norm).max() <= 1.0


class TestEncode:
    def test_zero_noise_returns_mean(self):
        enc = make_encoder()
        g = toy_graph()
        emb = enc.encode(vgae.propagate(stack(g, toy_graph(seed=2))), noise=None)
        np.testing.assert_array_equal(emb.r.value, emb.mean.value)

    def test_zero_weights_collapse_to_pure_noise(self):
        enc = make_encoder()
        enc.w_hidden.value[:] = 0.0
        enc.w_heads.value[:] = 0.0
        g = stack(toy_graph(), toy_graph(seed=2))
        noise = np.random.default_rng(2).normal(size=(2, 3, 2))
        emb = enc.encode(vgae.propagate(g), noise=noise)
        np.testing.assert_array_equal(emb.mean.value, 0.0)
        np.testing.assert_array_equal(emb.logvar.value, 0.0)
        np.testing.assert_allclose(emb.r.value, noise)  # sigma = exp(0) = 1

    def test_matches_composed_numpy_oracle(self):
        enc = make_encoder(seed=5)
        g = toy_graph(seed=6)
        noise = np.random.default_rng(7).normal(size=(3, 2))
        emb = enc.encode(vgae.propagate(g), noise=noise)

        norm = vgae.normalize_adjacency(g.adjacency)
        hidden = np.maximum(norm @ g.attributes @ enc.w_hidden.value, 0.0)
        heads = norm @ hidden @ enc.w_heads.value
        mean, logvar = heads[:, :2], np.clip(heads[:, 2:], -10.0, 10.0)
        expected = mean + np.exp(0.5 * logvar) * noise
        np.testing.assert_allclose(emb.r.value, expected, atol=1e-12)

    def test_logvar_is_clamped(self):
        enc = make_encoder()
        enc.w_heads.value[:] = 50.0
        emb = enc.encode(vgae.propagate(
            WeightedGraph(np.zeros((3, 3)), np.ones((3, 4)) * 10.0)))
        assert (np.abs(emb.logvar.value) <= 10.0).all()

    def test_deterministic_mode_is_pure(self):
        enc = make_encoder(seed=9)
        inputs = vgae.propagate(stack(toy_graph(seed=10), toy_graph(seed=11)))
        first = enc.encode(inputs).r.value
        second = enc.encode(inputs).r.value
        np.testing.assert_array_equal(first, second)

    def test_stack_equals_one_graph_at_a_time(self):
        enc = make_encoder(seed=12)
        graphs = [toy_graph(seed=s) for s in (13, 14, 15)]
        graphs[1].adjacency[0, 1] = graphs[1].adjacency[1, 0] = -0.4
        noise = np.random.default_rng(16).normal(size=(3, 3, 2))
        for n in (None, noise):
            batched = enc.encode(vgae.propagate(stack(*graphs)), noise=n)
            singles = [enc.encode(vgae.propagate(g),
                                  noise=None if n is None else n[b])
                       for b, g in enumerate(graphs)]
            for field in ("r", "mean", "logvar"):
                assert np.array_equal(
                    getattr(batched, field).value,
                    np.stack([getattr(e, field).value for e in singles]))

    def test_input_dim_mismatch(self):
        with pytest.raises(ValueError, match="input dim"):
            make_encoder(input_dim=5).encode(vgae.propagate(toy_graph(dim=4)))


class TestDecode:
    def test_zero_embedding_gives_half(self):
        out = vgae.decode(Tensor(np.zeros((3, 2)))).value
        np.testing.assert_allclose(out, 0.5)

    def test_orthogonal_rows_give_half_off_diagonal(self):
        r = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = vgae.decode(r).value
        assert out[0, 1] == pytest.approx(0.5)
        assert out[1, 0] == pytest.approx(0.5)

    def test_closed_form_diagonal(self):
        r = Tensor(np.array([[math.sqrt(math.log(3.0))]]))
        assert vgae.decode(r).value[0, 0] == pytest.approx(0.75)

    def test_open_interval_and_symmetric(self):
        # Strictness holds for embedding magnitudes the encoder produces;
        # float64 sigmoid only saturates beyond |x| ~ 36.
        r = Tensor(np.random.default_rng(3).normal(size=(4, 2)))
        out = vgae.decode(r).value
        assert (out > 0.0).all() and (out < 1.0).all()
        np.testing.assert_allclose(out, out.T)


class TestLoss:
    def test_standard_normal_posterior_has_zero_kl(self):
        kl = vgae.kl_divergence(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))
        assert kl.value[0, 0] == pytest.approx(0.0)

    def test_unit_mean_unit_variance_kl(self):
        kl = vgae.kl_divergence(Tensor([[1.0]]), Tensor([[0.0]]))
        assert kl.value[0, 0] == pytest.approx(0.5)

    def test_perfect_reconstruction_leaves_only_kl(self):
        g = toy_graph()
        target = vgae.reconstruction_target(g.adjacency)
        emb = vgae.GraphEmbedding(Tensor(np.zeros((3, 2))),
                                  Tensor(np.zeros((3, 2))),
                                  Tensor(np.zeros((3, 2))))
        # Feed the target itself as the "reconstruction".
        loss = vgae.vgae_loss(target, Tensor(target), emb, kl_weight=1.0)
        assert loss.value[0, 0] == pytest.approx(0.0)

    @given(st.integers(0, 500))
    @settings(max_examples=40)
    def test_kl_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        mean = Tensor(rng.normal(size=(3, 2)) * 2.0)
        logvar = Tensor(rng.uniform(-6.0, 6.0, size=(3, 2)))
        assert vgae.kl_divergence(mean, logvar).value[0, 0] >= 0.0

    def test_reconstruction_target_is_support_plus_loops(self):
        adjacency = np.array([[0.0, -0.4], [-0.4, 0.0]])
        np.testing.assert_array_equal(
            vgae.reconstruction_target(adjacency), np.ones((2, 2)))


def test_objective_gradients_pass_finite_differences():
    enc = make_encoder(seed=11)
    graphs = stack(toy_graph(seed=12), toy_graph(seed=13))
    noise = np.stack([np.random.default_rng(14).standard_normal((3, 2)),
                      np.random.default_rng(15).standard_normal((3, 2))])

    inputs = vgae.propagate(graphs)
    target = path_target()

    def loss_value():
        return float(vgae.vgae_objective(enc, inputs, target, noise, 2).value[0, 0])

    params = [p for _, p in enc.named_parameters()]
    with ad.trainable(params):
        vgae.vgae_objective(enc, inputs, target, noise, 2).backward()
        grads = [p.grad.copy() for p in params]
    for p, analytic in zip(params, grads):
        numeric = finite_difference(loss_value, p.value)
        assert relative_gradient_error(analytic, numeric) < 1e-4


def test_shared_target_equals_a_stacked_target_per_graph():
    # One (nodes x nodes) target broadcast against the stack gives the bits
    # of the same target stacked once per graph: loss and gradients alike.
    graphs = [toy_graph(seed=s) for s in (60, 61, 62)]
    graphs[1].adjacency[0, 1] = graphs[1].adjacency[1, 0] = -0.7
    graphs[2].adjacency[1, 2] = graphs[2].adjacency[2, 1] = -0.2
    inputs = vgae.propagate(stack(*graphs))
    noise = np.random.default_rng(63).standard_normal((3, 3, 2))
    target = path_target()
    results = []
    for each in (target, np.broadcast_to(target, (3, 3, 3))):
        enc = make_encoder(seed=64)
        params = [p for _, p in enc.named_parameters()]
        with ad.trainable(params):
            loss = vgae.vgae_objective(enc, inputs, each, noise, 3)
            loss.backward()
            results.append([loss.value.tobytes()]
                           + [p.grad.tobytes() for p in params])
    assert results[0] == results[1]


class TestTraining:
    def _four_node_toy(self):
        adjacency = np.zeros((4, 4))
        for i, j in ((0, 1), (1, 2), (2, 3)):
            adjacency[i, j] = adjacency[j, i] = 1.0
        attrs = np.eye(4)
        return WeightedGraph(adjacency[None], attrs[None])

    def test_zero_epochs_changes_nothing(self):
        enc = make_encoder()
        before = [p.value.copy() for _, p in enc.named_parameters()]
        trace = vgae.train_vgae(enc, fit_parts(stack(toy_graph())), path_target(),
                                epochs=0, lr=0.01, rng=np.random.default_rng(0))
        assert trace == []
        for (_, p), b in zip(enc.named_parameters(), before):
            np.testing.assert_array_equal(p.value, b)

    def test_epoch_loss_is_the_objective_at_the_drawn_noise(self):
        # train_vgae's first recorded loss is vgae_objective at the initial
        # weights; its one draw for the stack equals one draw per graph,
        # graph by graph.
        graphs = stack(toy_graph(seed=30), toy_graph(seed=31))
        enc = make_encoder(seed=32)
        rng = np.random.default_rng(33)
        noise = np.stack([rng.standard_normal((3, 2)) for _ in range(2)])
        expected = vgae.vgae_objective(
            enc, vgae.propagate(graphs), path_target(), noise, 2).value[0, 0]
        trace = vgae.train_vgae(enc, fit_parts(graphs), path_target(), epochs=1,
                                lr=0.01, rng=np.random.default_rng(33))
        assert trace == [expected]

    def test_seeded_runs_identical(self):
        traces = []
        for _ in range(2):
            enc = make_encoder(seed=20)
            traces.append(vgae.train_vgae(enc, fit_parts(stack(toy_graph(seed=21))),
                                          path_target(), epochs=15, lr=0.02,
                                          rng=np.random.default_rng(22)))
        assert traces[0] == traces[1]

    def test_chunked_fit_equals_one_whole_stack_part(self, monkeypatch):
        graphs = stack(*(toy_graph(seed=40 + i) for i in range(17)))
        fitted = []
        for chunk in (10**6, 7):
            monkeypatch.setattr(ad, "CHUNK", chunk)
            enc = make_encoder(seed=34)
            vgae.train_vgae(enc, fit_parts(graphs), path_target(), epochs=3,
                            lr=0.05, rng=np.random.default_rng(35))
            fitted.append([p.value.tobytes() for _, p in enc.named_parameters()])
        assert fitted[0] == fitted[1]

    def test_part_constants_are_built_once_per_fit(self, monkeypatch):
        # Each part's normalized adjacency is built once, by propagate, and
        # the one target once for the whole fit; the fit's epochs build
        # neither.
        monkeypatch.setattr(ad, "CHUNK", 2)
        built = []
        for name in ("normalize_adjacency", "reconstruction_target"):
            def counting(adjacency, build=getattr(vgae, name), name=name):
                built.append((name, adjacency.shape))
                return build(adjacency)
            monkeypatch.setattr(vgae, name, counting)
        parts = fit_parts(stack(*(toy_graph(seed=50 + i) for i in range(5))))
        target = vgae.reconstruction_target(toy_graph().adjacency)
        vgae.train_vgae(make_encoder(), parts, target, epochs=4, lr=0.01,
                        rng=np.random.default_rng(0))
        assert built == [("normalize_adjacency", (n, 3, 3)) for n in (2, 2, 1)
                         ] + [("reconstruction_target", (3, 3))]

    def test_empty_graphs_rejected(self):
        with pytest.raises(DataError, match="no graphs"):
            vgae.train_vgae(make_encoder(), [], path_target(), epochs=1,
                            lr=0.01, rng=np.random.default_rng(0))

    def test_toy_reconstruction_auc_after_training(self):
        g = self._four_node_toy()
        enc = make_encoder(input_dim=4, hidden_dim=8, embed_dim=2, seed=23)
        target = vgae.reconstruction_target(g.adjacency[0])
        vgae.train_vgae(enc, fit_parts(g), target, epochs=100, lr=0.05,
                        rng=np.random.default_rng(24))
        reconstructed = vgae.decode(enc.encode(vgae.propagate(g)).r).value[0]
        iu = np.triu_indices(4, k=1)
        auc = metrics.roc_auc(target[iu].astype(int), reconstructed[iu])
        assert auc > 0.9
