import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsdetect import autodiff as ad
from cpsdetect import vgae

from conftest import traced_peak
from oracles import (finite_difference, pairwise_auc, reference_vgae_forward,
                     reference_vgae_part, relative_gradient_error)


def make_encoder(input_dim=4, hidden_dim=3, embed_dim=2, seed=0, kl_weight=1.0):
    return vgae.VgaeEncoder(input_dim, hidden_dim, embed_dim,
                            np.random.default_rng(seed), kl_weight)


def toy_graph(seed=1, nodes=3, dim=4):
    rng = np.random.default_rng(seed)
    adjacency = np.zeros((nodes, nodes))
    for i in range(nodes - 1):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    return adjacency, rng.normal(size=(nodes, dim))


def stack(*graphs):
    """One stacked (adjacency, attributes) graph of single graphs."""
    return tuple(np.stack(arrays) for arrays in zip(*graphs))


def fit_parts(graphs: tuple[np.ndarray, np.ndarray]) -> list:
    """A stack's ``propagate`` arrays, one part per ``autodiff.CHUNK``
    graphs."""
    adjacency, attributes = graphs
    return [vgae.propagate(adjacency[rows], attributes[rows])
            for rows in ad.chunks(len(adjacency))]


def path_target():
    """The reconstruction target of ``toy_graph``'s 3-node path."""
    return vgae.reconstruction_target(toy_graph()[0])


def part_loss(enc, inputs, target, noise, count, grads=None):
    """``loss_and_gradients`` from no earlier part: the loss and the part's
    gradients."""
    grads = [None, None] if grads is None else grads
    return vgae.loss_and_gradients(enc, inputs, target, noise, count, grads), grads


def tiny_graph(adjacency, attributes):
    """One stacked graph from nested lists."""
    return np.array([adjacency], dtype=float), np.array([attributes], dtype=float)


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
        inputs = vgae.propagate(*stack(toy_graph(), toy_graph(seed=2)))
        tape = {}
        r = enc.encode(inputs, np.zeros((2, 3, 2)), tape)
        np.testing.assert_array_equal(enc.encode(inputs, noise=None), tape["mean"])
        np.testing.assert_array_equal(r, tape["mean"])

    def test_zero_weights_collapse_to_pure_noise(self):
        enc = make_encoder()
        enc.w_hidden.value[:] = 0.0
        enc.w_heads.value[:] = 0.0
        g = stack(toy_graph(), toy_graph(seed=2))
        noise = np.random.default_rng(2).normal(size=(2, 3, 2))
        tape = {}
        r = enc.encode(vgae.propagate(*g), noise, tape)
        np.testing.assert_array_equal(tape["mean"], 0.0)
        np.testing.assert_array_equal(tape["logvar"], 0.0)
        np.testing.assert_allclose(r, noise)  # sigma = exp(0) = 1

    def test_matches_composed_numpy_oracle(self):
        enc = make_encoder(seed=5)
        g = toy_graph(seed=6)
        noise = np.random.default_rng(7).normal(size=(3, 2))
        r = enc.encode(vgae.propagate(*g), noise=noise)

        norm = vgae.normalize_adjacency(g[0])
        hidden = np.maximum(norm @ g[1] @ enc.w_hidden.value, 0.0)
        heads = norm @ hidden @ enc.w_heads.value
        mean, logvar = heads[:, :2], np.clip(heads[:, 2:], -10.0, 10.0)
        expected = mean + np.exp(0.5 * logvar) * noise
        np.testing.assert_allclose(r, expected, atol=1e-12)

    def test_logvar_is_clamped(self):
        enc = make_encoder()
        enc.w_heads.value[:] = 50.0
        tape = {}
        enc.encode(vgae.propagate(np.zeros((3, 3)), np.ones((3, 4)) * 10.0),
                   np.zeros((3, 2)), tape)
        assert (np.abs(tape["logvar"]) <= 10.0).all()
        assert not tape["clip_mask"].any()

    def test_deterministic_mode_is_pure(self):
        enc = make_encoder(seed=9)
        inputs = vgae.propagate(*stack(toy_graph(seed=10), toy_graph(seed=11)))
        np.testing.assert_array_equal(enc.encode(inputs), enc.encode(inputs))

    def test_stack_equals_one_graph_at_a_time(self):
        enc = make_encoder(seed=12)
        graphs = [toy_graph(seed=s) for s in (13, 14, 15)]
        graphs[1][0][0, 1] = graphs[1][0][1, 0] = -0.4
        noise = np.random.default_rng(16).normal(size=(3, 3, 2))
        assert np.array_equal(enc.encode(vgae.propagate(*stack(*graphs))),
                              np.stack([enc.encode(vgae.propagate(*g)) for g in graphs]))
        tape = {}
        batched = enc.encode(vgae.propagate(*stack(*graphs)), noise, tape)
        singles = [{} for _ in graphs]
        rs = [enc.encode(vgae.propagate(*g), noise[b], singles[b])
              for b, g in enumerate(graphs)]
        assert np.array_equal(batched, np.stack(rs))
        for field in ("mean", "logvar", "std", "propagated"):
            assert np.array_equal(tape[field], np.stack([t[field] for t in singles]))


class TestDecode:
    def test_zero_embedding_gives_half(self):
        np.testing.assert_allclose(vgae.decode(np.zeros((3, 2))), 0.5)

    def test_orthogonal_rows_give_half_off_diagonal(self):
        out = vgae.decode(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert out[0, 1] == pytest.approx(0.5)
        assert out[1, 0] == pytest.approx(0.5)

    def test_closed_form_diagonal(self):
        r = np.array([[math.sqrt(math.log(3.0))]])
        assert vgae.decode(r)[0, 0] == pytest.approx(0.75)

    def test_open_interval_and_symmetric(self):
        # Strictness holds for embedding magnitudes the encoder produces;
        # float64 sigmoid only saturates beyond |x| ~ 36.
        out = vgae.decode(np.random.default_rng(3).normal(size=(4, 2)))
        assert (out > 0.0).all() and (out < 1.0).all()
        np.testing.assert_allclose(out, out.T)

    def test_decode_is_the_logaddexp_sigmoid_of_the_gram_matrix_bitwise(self):
        # Gram entries from about -1e4 to 1e4 reach both tails, where
        # 1 / (1 + exp(-x)) would overflow.
        rng = np.random.default_rng(4)
        r = rng.normal(size=(6, 12, 8)) * 10.0 ** rng.integers(-3, 2, size=(6, 12, 1))
        y = vgae.decode(r)
        rt = np.swapaxes(r, -1, -2).copy()
        assert y.tobytes() == np.exp(-np.logaddexp(0.0, -(r @ rt))).tobytes()


    def test_the_gram_matrix_is_exactly_symmetric(self):
        # decode takes the sigmoid on the upper triangle and copies it to the
        # lower one, which gives the full matrix's bits only while every
        # product r @ rt is exactly symmetric.
        rng = np.random.default_rng(8)
        for dtype in (np.float32, np.float64):
            for graphs in (1, 2, 6, 10, 33, 64):
                r = rng.normal(size=(graphs, 12, 8)).astype(dtype)
                y = r @ np.swapaxes(r, -1, -2).copy()
                assert y.tobytes() == np.swapaxes(y, -1, -2).copy().tobytes(), (
                    f"r @ rt is not exactly symmetric for {graphs} graphs in "
                    f"{np.dtype(dtype)} on this BLAS, so decode's upper "
                    f"triangle no longer gives the full matrix's bits")

    @pytest.mark.parametrize("graphs", [64, 10])
    def test_decode_is_the_full_matrix_formula_bitwise_at_the_fit_shapes(self, graphs):
        # A part of the fit and the last, shorter one, in float32.
        rng = np.random.default_rng(graphs)
        r = (rng.normal(size=(graphs, 12, 8))
             * 10.0 ** rng.integers(-2, 2, size=(graphs, 12, 1))).astype(np.float32)
        y = vgae.decode(r)
        gram = r @ np.swapaxes(r, -1, -2).copy()
        assert y.dtype == np.float32
        assert y.tobytes() == np.exp(-np.logaddexp(0.0, -gram)).tobytes()


class TestLoss:
    def test_standard_normal_posterior_has_zero_kl(self):
        # Zero weights: mean 0 and log-variance 0, so the loss is the
        # reconstruction error of the noise alone.
        enc = make_encoder()
        enc.w_hidden.value[:] = 0.0
        enc.w_heads.value[:] = 0.0
        noise = np.random.default_rng(5).normal(size=(2, 3, 2))
        inputs = vgae.propagate(*stack(toy_graph(), toy_graph(seed=2)))
        loss, _ = part_loss(enc, inputs, path_target(), noise, 2)
        error = path_target() - vgae.decode(noise)
        assert loss == pytest.approx((error * error).sum() / 2.0, rel=1e-12)

    def test_unit_mean_unit_variance_kl(self):
        # One isolated node with attribute 1 and unit weights: mean 1 and
        # log-variance 0, whose KL is 1/2.
        enc = make_encoder(input_dim=1, hidden_dim=1, embed_dim=1)
        enc.w_hidden.value[:] = 1.0
        enc.w_heads.value[:] = [[1.0, 0.0]]
        g = tiny_graph([[0.0]], [[1.0]])
        loss, _ = part_loss(enc, vgae.propagate(*g), np.ones((1, 1)),
                            np.zeros((1, 1, 1)), 1)
        assert loss == pytest.approx((1.0 - 1.0 / (1.0 + math.exp(-1.0))) ** 2 + 0.5)

    def test_perfect_reconstruction_leaves_only_kl(self):
        # Two joined nodes, mean 10 and log-variance 0 at zero noise: the
        # decoder saturates to the all-ones target, and the KL is
        # 1/2 * 2 * 10^2.
        enc = make_encoder(input_dim=1, hidden_dim=1, embed_dim=1)
        enc.w_hidden.value[:] = 1.0
        enc.w_heads.value[:] = [[10.0, 0.0]]
        g = tiny_graph([[0.0, 1.0], [1.0, 0.0]], [[1.0], [1.0]])
        target = vgae.reconstruction_target(g[0][0])
        loss, _ = part_loss(enc, vgae.propagate(*g), target, np.zeros((1, 2, 1)), 1)
        assert loss == pytest.approx(100.0, rel=1e-12)

    @given(st.integers(0, 500))
    @settings(max_examples=40)
    def test_kl_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        inputs = vgae.propagate(*stack(toy_graph(seed=seed), toy_graph(seed=seed + 1)))
        noise = rng.normal(size=(2, 3, 2))
        enc = make_encoder(seed=seed)
        enc.w_heads.value *= rng.uniform(0.5, 4.0)
        losses = []
        for kl_weight in (0.0, 1.0):
            enc.kl_weight = kl_weight
            losses.append(part_loss(enc, inputs, path_target(), noise, 2)[0])
        # The KL term alone is the difference between the two.
        assert losses[1] >= losses[0]

    def test_reconstruction_target_is_support_plus_loops(self):
        adjacency = np.array([[0.0, -0.4], [-0.4, 0.0]])
        np.testing.assert_array_equal(
            vgae.reconstruction_target(adjacency), np.ones((2, 2)))


def test_objective_gradients_pass_finite_differences():
    enc = make_encoder(seed=11)
    graphs = stack(toy_graph(seed=12), toy_graph(seed=13))
    noise = np.stack([np.random.default_rng(14).standard_normal((3, 2)),
                      np.random.default_rng(15).standard_normal((3, 2))])
    inputs = vgae.propagate(*graphs)
    target = path_target()
    _, grads = part_loss(enc, inputs, target, noise, 2)
    for (_, p), analytic in zip(enc.named_parameters(), grads):
        numeric = finite_difference(
            lambda: part_loss(enc, inputs, target, noise, 2)[0], p.value)
        assert relative_gradient_error(analytic, numeric) < 1e-4


def test_shared_target_equals_a_stacked_target_per_graph():
    # One (nodes x nodes) target broadcast against the stack gives the bits
    # of the same target stacked once per graph: loss and gradients alike.
    graphs = [toy_graph(seed=s) for s in (60, 61, 62)]
    graphs[1][0][0, 1] = graphs[1][0][1, 0] = -0.7
    graphs[2][0][1, 2] = graphs[2][0][2, 1] = -0.2
    inputs = vgae.propagate(*stack(*graphs))
    noise = np.random.default_rng(63).standard_normal((3, 3, 2))
    target = path_target()
    results = []
    for each in (target, np.broadcast_to(target, (3, 3, 3))):
        loss, grads = part_loss(make_encoder(seed=64), inputs, each, noise, 3)
        results.append([loss] + [g.tobytes() for g in grads])
    assert results[0] == results[1]


# (parts, graphs per part, nodes, attribute dim, hidden dim, embed dim, KL
# weight, weight scale): the benchmark's part shape, the toy shapes, size-1
# weights, and weights 40x their draw, whose log-variances leave the clip.
REFERENCE_CASES = [(3, 64, 12, 32, 32, 8, 1.0, 1.0), (3, 5, 3, 4, 3, 2, 1.0, 1.0),
                   (2, 7, 4, 3, 1, 1, 0.3, 1.0), (3, 6, 5, 4, 4, 2, 1.0, 40.0),
                   (2, 1, 3, 2, 2, 3, 2.5, 3.0)]


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=str)
def test_hand_pass_has_the_reference_bits_over_carried_parts(case):
    # The reference makes every step of reverse-mode differentiation as its
    # own out-of-place numpy operation; the hand pass, in place and
    # dropping its temporaries, must leave the same bits part after part.
    parts, count, nodes, dim, hidden, embed, kl_weight, scale = case
    rng = np.random.default_rng(70)
    enc = make_encoder(dim, hidden, embed, seed=71, kl_weight=kl_weight)
    for _, p in enc.named_parameters():
        p.value *= scale
    clipped = False
    held, grads = [None, None], [None, None]
    target = path_target() if nodes == 3 else np.ones((nodes, nodes))
    for _ in range(parts):
        adjacency = rng.uniform(-1.0, 1.0, size=(count, nodes, nodes))
        adjacency = np.triu(adjacency * (rng.random(adjacency.shape) < 0.5), 1)
        norm, mixed = inputs = vgae.propagate(
            adjacency + np.swapaxes(adjacency, 1, 2),
            rng.normal(size=(count, nodes, dim)))
        noise = rng.standard_normal((count, nodes, embed))
        with np.errstate(under="ignore"):
            loss = vgae.loss_and_gradients(enc, inputs, target, noise,
                                           parts * count, grads)
            expected, held = reference_vgae_part(
                enc.w_hidden.value, enc.w_heads.value, kl_weight, norm, mixed,
                target, noise, parts * count, held)
        assert loss == expected
        assert [g.tobytes() for g in grads] == [h.tobytes() for h in held]
        tape = {}
        enc.encode(inputs, noise, tape)
        clipped |= not tape["clip_mask"].all()
    assert clipped == (scale > 10.0)


def _benchmark_part(rng, count=64, dtype=np.float32):
    """A part's ``propagate`` arrays at the benchmark's shape: ``count``
    weighted graphs of 12 nodes with 32 attributes each."""
    adjacency = rng.uniform(-1.0, 1.0, size=(count, 12, 12))
    adjacency = np.triu(adjacency * (rng.random(adjacency.shape) < 0.5), 1)
    return vgae.propagate(
        (adjacency + np.swapaxes(adjacency, 1, 2)).astype(dtype),
        rng.normal(size=(count, 12, 32)).astype(dtype))


def test_float32_fit_keeps_the_reference_bits_at_the_benchmark_part_shape():
    # A float32 fit's epoch at the benchmark's part shape and widths
    # (32/32/8), two 64-graph parts carried, at the test process's BLAS
    # threading. OpenBLAS picks its kernels by shape, and kernels round
    # differently, so the float64 and small-shape pins do not cover this.
    rng = np.random.default_rng(72)
    enc = make_encoder(32, 32, 8, seed=73)
    for _, p in enc.named_parameters():
        p.value = p.value.astype(np.float32)
    edges = np.triu(rng.random((12, 12)) < 0.3, 1)
    target = vgae.reconstruction_target((edges | edges.T).astype(float)
                                        ).astype(np.float32)
    held, grads = [None, None], [None, None]
    for _ in range(2):
        norm, mixed = inputs = _benchmark_part(rng)
        noise = rng.standard_normal((64, 12, 8)).astype(np.float32)
        with np.errstate(under="ignore"):
            loss = vgae.loss_and_gradients(enc, inputs, target, noise, 128, grads)
            expected, held = reference_vgae_part(
                enc.w_hidden.value, enc.w_heads.value, 1.0, norm, mixed,
                target, noise, 128, held)
        assert loss == expected
        assert [g.dtype for g in grads] == [np.float32] * 2
        assert [g.tobytes() for g in grads] == [h.tobytes() for h in held]


@pytest.mark.parametrize("count", [1, 64])
def test_float64_posterior_means_keep_the_stacked_product_bits(count):
    # Scoring's float64 posterior means of one graph (a one-window call)
    # and of a 64-graph part at the benchmark's widths: the mean columns of
    # the whole heads product.
    enc = make_encoder(32, 32, 8, seed=74)
    norm, mixed = inputs = _benchmark_part(np.random.default_rng(75), count,
                                           np.float64)
    _, _, heads = reference_vgae_forward(enc.w_hidden.value, enc.w_heads.value,
                                         norm, mixed)
    assert enc.encode(inputs).tobytes() == heads[..., :8].tobytes()


class TestTraining:
    def _four_node_toy(self):
        adjacency = np.zeros((4, 4))
        for i, j in ((0, 1), (1, 2), (2, 3)):
            adjacency[i, j] = adjacency[j, i] = 1.0
        attrs = np.eye(4)
        return adjacency[None], attrs[None]

    def test_zero_epochs_changes_nothing(self):
        enc = make_encoder()
        before = [p.value.copy() for _, p in enc.named_parameters()]
        trace = vgae.train_vgae(enc, fit_parts(stack(toy_graph())), path_target(),
                                epochs=0, lr=0.01, rng=np.random.default_rng(0))
        assert trace == []
        for (_, p), b in zip(enc.named_parameters(), before):
            np.testing.assert_array_equal(p.value, b)

    def test_epoch_loss_is_the_objective_at_the_drawn_noise(self):
        # train_vgae's first recorded loss is the part loss at the initial
        # weights; its one draw for the stack equals one draw per graph,
        # graph by graph.
        graphs = stack(toy_graph(seed=30), toy_graph(seed=31))
        enc = make_encoder(seed=32)
        rng = np.random.default_rng(33)
        noise = np.stack([rng.standard_normal((3, 2)) for _ in range(2)])
        expected, _ = part_loss(enc, vgae.propagate(*graphs), path_target(), noise, 2)
        trace = vgae.train_vgae(enc, fit_parts(graphs), path_target(), epochs=1,
                                lr=0.01, rng=np.random.default_rng(33))
        assert trace == [0.0 + expected]
        assert type(trace[0]) is float

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
        target = vgae.reconstruction_target(toy_graph()[0])
        vgae.train_vgae(make_encoder(), parts, target, epochs=4, lr=0.01,
                        rng=np.random.default_rng(0))
        assert built == [("normalize_adjacency", (n, 3, 3)) for n in (2, 2, 1)
                         ] + [("reconstruction_target", (3, 3))]

    def test_toy_reconstruction_auc_after_training(self):
        g = self._four_node_toy()
        enc = make_encoder(input_dim=4, hidden_dim=8, embed_dim=2, seed=23)
        target = vgae.reconstruction_target(g[0][0])
        vgae.train_vgae(enc, fit_parts(g), target, epochs=100, lr=0.05,
                        rng=np.random.default_rng(24))
        reconstructed = vgae.decode(enc.encode(vgae.propagate(*g)))[0]
        iu = np.triu_indices(4, k=1)
        auc = pairwise_auc(target[iu].astype(int), reconstructed[iu])
        assert auc > 0.9

    def test_the_vgae_makes_no_tensor(self, made_tensors):
        enc = make_encoder(seed=36)
        parts = fit_parts(stack(*(toy_graph(seed=80 + i) for i in range(3))))
        made_tensors.clear()
        vgae.train_vgae(enc, parts, path_target(), epochs=3, lr=0.01,
                        rng=np.random.default_rng(37))
        enc.encode(parts[0])
        assert made_tensors == []


def test_fit_epoch_peak_memory_stays_flat_in_the_graph_count(monkeypatch):
    # One epoch over 4x the graphs at the benchmark's part shape holds one
    # 64-graph part's temporaries at a time, as one over 1x does: 1.01x the
    # 1x peak (numpy 2.4.6, Python 3.11). A pass that keeps a part's tape
    # while the next part runs peaks at about 1.35x.
    monkeypatch.setattr(ad, "CHUNK", 64)
    rng = np.random.default_rng(38)
    adjacency = np.triu(rng.uniform(-1.0, 1.0, size=(256, 12, 12)), 1)
    adjacency = adjacency + np.swapaxes(adjacency, 1, 2)
    attributes = rng.normal(size=(256, 12, 32))
    target = vgae.reconstruction_target(np.ones((12, 12)) - np.eye(12))
    peaks = []
    for count in (64, 256):
        parts = fit_parts((adjacency[:count], attributes[:count]))
        enc = make_encoder(32, 32, 8, seed=39)
        peaks.append(traced_peak(vgae.train_vgae, enc, parts, target, 1, 0.01,
                                 np.random.default_rng(40))[1])
    assert peaks[1] < 1.2 * peaks[0], peaks
