import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsdetect import autodiff as ad
from cpsdetect import data, pipeline, svdd
from cpsdetect.config import PipelineConfig

from oracles import finite_difference, reference_svdd_gradients, relative_gradient_error


def make_net(input_dim=6, widths=(5, 3), slope=0.1, seed=0):
    return svdd.SvddNet(input_dim, widths, slope, np.random.default_rng(seed))


def numpy_forward(net, x):
    out = np.atleast_2d(x)
    for w in net.weights[:-1]:
        z = out @ w.value
        out = np.where(z > 0.0, z, net.slope * z)
    return out @ net.weights[-1].value


def graph_reference(net, samples):
    """The SVDD loss and weight gradients as reverse-mode differentiation
    through its expression makes them, one out-of-place numpy step each:
    the reference for the hand-written reverse pass. It gave the bits of a
    graph of autodiff ops while that graph could be built."""
    return reference_svdd_gradients([w.value for w in net.weights], net.slope,
                                    net.center, samples)


def detector_rows(stack: np.ndarray) -> np.ndarray:
    """The detector input ``pipeline.segment_features`` makes of a
    (segments x nodes x dim) stack when no learned stage comes first: the
    stack's windows are laid end to end in a stream, one row per step."""
    count, nodes, dim = stack.shape
    topology = data.parse_topology("".join(f"sensor S{i} x\n" for i in range(nodes)))
    config = PipelineConfig()
    config.window.length = dim
    stream = stack.transpose(0, 2, 1).reshape(count * dim, nodes)
    return np.concatenate(list(pipeline.segment_features(
        config, topology, None, None, stream, np.arange(count) * dim)))


class TestFlatten:
    """Each (nodes x dim) embedding becomes one row, flattened node-major."""

    def test_row_major_order(self):
        np.testing.assert_array_equal(
            detector_rows(np.array([[[1.0, 2.0], [3.0, 4.0]],
                                    [[5.0, 6.0], [7.0, 8.0]]])),
            [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])

    def test_single_row_verbatim(self):
        np.testing.assert_array_equal(
            detector_rows(np.array([[[5.0, 6.0]]])), [[5.0, 6.0]])

    def test_round_trip_reshape(self):
        m = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(detector_rows(m).reshape(2, 3, 4), m)


class TestNetStructure:
    def test_bias_free_parameter_inventory(self):
        net = make_net(input_dim=6, widths=(5, 3))
        named = [(name, p.value.shape) for name, p in net.named_parameters()]
        assert named == [("w0", (6, 5)), ("w1", (5, 3))]  # weights only, no bias rows

    def test_forward_matches_numpy_oracle(self):
        net = make_net(seed=3)
        x = np.random.default_rng(4).normal(size=(7, 6))
        np.testing.assert_allclose(net.forward(x), numpy_forward(net, x), atol=1e-12)

    def test_leaky_layer_matches_the_masked_factor_bitwise(self):
        # Identity first layer: its output is the inputs, zeros and
        # subnormals among them, so the hidden layer sees every case.
        rng = np.random.default_rng(6)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300])
        x = rng.permutation(np.concatenate([rng.normal(size=2000),
                                            np.tile(special, 50)])).reshape(-1, 8)
        net = make_net(input_dim=8, widths=(8, 3), slope=0.1, seed=6)
        net.weights[0].value[...] = np.eye(8)
        tape = []
        net.forward(x, tape)
        z = x @ net.weights[0].value
        factor = np.where(z > 0.0, 1.0, 0.1)
        assert tape[1][1].tobytes() == factor.tobytes()
        assert tape[1][0].tobytes() == (z * factor).tobytes()


class TestInitCenter:
    def test_single_sample_is_its_image(self):
        net = make_net(seed=1)
        x = np.random.default_rng(2).normal(size=(1, 6)) * 5.0
        center = net.init_center(x)
        image = numpy_forward(net, x)[0]
        expected = image.copy()
        small = np.abs(expected) < 0.1
        expected[small] = np.where(expected[small] < 0, -0.1, 0.1)
        np.testing.assert_allclose(center, expected)

    def test_opposite_images_floor_to_plus(self):
        # Slope 1 makes the map linear, so x and -x map to v and -v and the
        # pre-floor mean is exactly zero.
        net = make_net(slope=1.0, seed=5)
        x = np.random.default_rng(6).normal(size=(1, 6))
        center = net.init_center(np.vstack([x, -x]))
        np.testing.assert_array_equal(center, np.full(3, 0.1))

    def test_seeded_repeat_identical(self):
        x = np.random.default_rng(7).normal(size=(4, 6))
        c1 = make_net(seed=8).init_center(x)
        c2 = make_net(seed=8).init_center(x)
        np.testing.assert_array_equal(c1, c2)

    def test_center_never_too_small(self):
        net = make_net(seed=9)
        net.init_center(np.zeros((3, 6)))
        assert (np.abs(net.center) >= 0.1).all()


class TestTraining:
    def test_initial_loss_is_squared_distance(self):
        net = make_net(seed=10)
        x = np.random.default_rng(11).normal(size=(1, 6))
        image = numpy_forward(net, x)[0]
        net.center = image + np.array([2.0, 0.0, 0.0])
        trace = svdd.train_svdd(net, x, epochs=1, lr=1e-12, weight_decay=0.0)
        assert trace[0] == pytest.approx(4.0)

    def test_zero_epochs_changes_nothing(self):
        net = make_net(seed=12)
        x = np.random.default_rng(13).normal(size=(4, 6))
        net.init_center(x)
        before = [w.value.copy() for w in net.weights]
        trace = svdd.train_svdd(net, x, epochs=0, lr=0.01, weight_decay=0.0)
        assert trace == []
        for w, b in zip(net.weights, before):
            np.testing.assert_array_equal(w.value, b)

    def test_training_shrinks_mean_score(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(20, 6)) + 3.0
        net = make_net(seed=15)
        net.init_center(x)
        before = net.scores(x).mean()
        svdd.train_svdd(net, x, epochs=150, lr=0.01, weight_decay=1e-4)
        after = net.scores(x).mean()
        assert after < before


class TestScore:
    def _trained(self, seed=16):
        net = make_net(seed=seed)
        net.init_center(np.random.default_rng(seed + 1).normal(size=(5, 6)))
        return net

    def test_image_at_center_scores_zero(self):
        net = self._trained()
        x = np.random.default_rng(17).normal(size=(1, 6))
        net.center = numpy_forward(net, x)[0]
        assert net.scores(x)[0] == pytest.approx(0.0)

    def test_unit_offset_scores_one(self):
        net = self._trained()
        x = np.random.default_rng(18).normal(size=(1, 6))
        offset = np.zeros(3)
        offset[1] = 1.0
        net.center = numpy_forward(net, x)[0] + offset
        assert net.scores(x)[0] == pytest.approx(1.0)

    def test_matches_independent_oracle(self):
        net = self._trained(seed=19)
        x = np.random.default_rng(20).normal(size=(6, 6))
        expected = ((numpy_forward(net, x) - net.center) ** 2).sum(axis=1)
        np.testing.assert_allclose(net.scores(x), expected)

    def test_scores_non_negative(self):
        net = self._trained(seed=21)
        x = np.random.default_rng(22).normal(size=(30, 6)) * 4.0
        assert (net.scores(x) >= 0.0).all()

    def test_score_is_locally_lipschitz(self):
        # |s(x + d) - s(x)| <= 2 (||phi(x) - c|| + L ||d||) L ||d|| where L is
        # the product of layer spectral norms (slope <= 1).
        net = self._trained(seed=23)
        rng = np.random.default_rng(24)
        x = rng.normal(size=(1, 6))
        lip = np.prod([np.linalg.svd(w.value, compute_uv=False)[0]
                       for w in net.weights])
        base = net.scores(x)[0]
        radius = np.sqrt(base)
        for scale in (1e-1, 1e-2, 1e-3):
            d = rng.normal(size=(1, 6))
            d *= scale / np.linalg.norm(d)
            bound = 2.0 * (radius + lip * scale) * lip * scale
            assert abs(net.scores(x + d)[0] - base) <= bound + 1e-12


class TestObjectiveGradients:
    def test_eq_objective_passes_finite_differences(self):
        net = make_net(input_dim=4, widths=(4, 3), seed=25)
        x = np.random.default_rng(26).normal(size=(3, 4))
        net.init_center(x)
        _, grads = svdd.loss_and_gradients(net, x)
        for w, analytic in zip(net.weights, grads):
            numeric = finite_difference(
                lambda: svdd.loss_and_gradients(net, x)[0], w.value)
            assert relative_gradient_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("slope", [0.1, 1.0])
    @pytest.mark.parametrize("widths", [(5,), (5, 3), (5, 4, 3)], ids=str)
    def test_hand_gradient_has_the_graph_bits(self, widths, slope):
        net = make_net(widths=widths, slope=slope, seed=30)
        x = np.random.default_rng(31).normal(size=(12, 6)) + 0.5
        net.init_center(x)
        loss, grads = svdd.loss_and_gradients(net, x)
        expected_loss, expected = graph_reference(net, x)
        assert loss == expected_loss
        assert len(grads) == len(expected)
        for got, want in zip(grads, expected):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.1, 1.0])
    def test_exact_zero_pre_activations_take_the_slope(self, slope, dtype):
        # Rows 0 and 1 make the first hidden layer exactly +0 and -0: row 0
        # is zero, row 1 the negative smallest subnormal, whose products
        # with weights of one sign below 0.5 round to zeros of the
        # opposite sign. The leaky factor there is the slope, and the hand
        # gradient keeps the reference's bits.
        net = make_net(widths=(5, 4, 3), slope=slope, seed=34)
        signs = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        net.weights[0].value = np.abs(net.weights[0].value) * signs
        for w in net.weights:
            w.value = w.value.astype(dtype)
        x = (np.random.default_rng(35).normal(size=(12, 6)) + 0.5).astype(dtype)
        x[0] = 0.0
        x[1] = -np.finfo(dtype).smallest_subnormal
        z = x[:2] @ net.weights[0].value
        assert not z.any()
        assert np.signbit(z[1]).tolist() == (signs > 0.0).tolist()
        net.init_center(x)
        tape = []
        net.forward(x, tape)
        assert tape[1][1].dtype == dtype
        assert (tape[1][1][:2] == dtype(slope)).all()
        loss, grads = svdd.loss_and_gradients(net, x)
        expected_loss, expected = graph_reference(net, x)
        assert loss == expected_loss
        assert [g.tobytes() for g in grads] == [e.tobytes() for e in expected]

    @pytest.mark.parametrize("slope", [0.1, 1.0])
    @pytest.mark.parametrize("widths", [(5,), (5, 3), (5, 4, 3)], ids=str)
    def test_training_has_the_graph_fit_bits(self, widths, slope):
        x = np.random.default_rng(32).normal(size=(12, 6)) + 0.5
        hand, graph = (make_net(widths=widths, slope=slope, seed=33) for _ in range(2))
        graph.center = hand.init_center(x).copy()
        trace = svdd.train_svdd(hand, x, epochs=20, lr=0.01, weight_decay=1e-4)
        expected = ad.fit(graph.named_parameters(), lambda: graph_reference(graph, x),
                          20, 0.01, weight_decay=1e-4, tag="svdd")
        assert trace == expected
        for a, b in zip(hand.weights, graph.weights):
            assert a.value.tobytes() == b.value.tobytes()

    def test_the_svdd_makes_no_tensor(self, made_tensors):
        net = make_net(input_dim=4, widths=(4, 3), seed=25)
        x = np.random.default_rng(26).normal(size=(3, 4))
        made_tensors.clear()
        net.init_center(x)
        svdd.train_svdd(net, x, epochs=3, lr=0.01, weight_decay=1e-4)
        net.scores(x)
        assert made_tensors == []


class TestThreshold:
    def _trained(self):
        net = make_net(seed=27)
        x = np.random.default_rng(28).normal(size=(8, 6))
        net.init_center(x)
        return net, x

    def test_full_quantile_is_max_so_no_false_alarms(self):
        net, x = self._trained()
        threshold = svdd.calibrate_threshold(net, x, quantile=1.0)
        assert threshold == pytest.approx(net.scores(x).max())
        # The strict > comparison on the batch scoring path flags nothing.
        assert (net.scores(x) > threshold).sum() == 0

    def test_midpoint_interpolation_convention(self):
        class Stub:
            def scores(self, samples):
                return np.array([1.0, 2.0, 3.0, 4.0])
        threshold = svdd.calibrate_threshold(Stub(), np.zeros((4, 1)), 0.5)
        assert threshold == pytest.approx(2.5)

    def test_equal_scores_give_that_value(self):
        class Stub:
            def scores(self, samples):
                return np.array([7.0, 7.0, 7.0])
        assert svdd.calibrate_threshold(Stub(), np.zeros((3, 1)), 0.9) == 7.0

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40),
           st.floats(0.0, 100.0), st.floats(0.0, 50.0))
    @settings(max_examples=60)
    def test_raising_threshold_never_adds_detections(self, scores, thr, bump):
        scores = np.asarray(scores)
        low = (scores > thr).sum()
        high = (scores > thr + bump).sum()
        assert high <= low

