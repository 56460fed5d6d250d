import ast
import math
import re
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpsdetect import autodiff as ad
from cpsdetect.errors import NumericError

from conftest import traced_peak
from oracles import finite_difference, relative_gradient_error

RTOL = 1e-4


def param(values, rng=None):
    return ad.Tensor(np.asarray(values, dtype=float), requires_grad=True)


def dot(t, weights):
    """The sum of ``t``'s entries times fixed ``weights``, a 1x1 tensor:
    ``t`` flattened to one row, times the weights as one column."""
    column = np.reshape(np.asarray(weights, dtype=float), (-1, 1))
    return ad.matmul(ad.reshape(t, (1, -1)), ad.Tensor(column))


def total(t):
    """The sum of ``t``'s entries, a 1x1 tensor."""
    return dot(t, np.ones(t.shape))


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, ad.Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.value, [[1, 2], [3, 4]])

    def test_annihilation_by_zeros(self):
        a = ad.Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = ad.Tensor([[0.0], [5.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).value, [[0.0], [0.0]])

    def test_hand_product(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ad.Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).value, [[19, 22], [43, 50]])

    def test_shape_mismatch_names_both_shapes(self):
        a = ad.Tensor(np.zeros((2, 3)))
        b = ad.Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(a, b)


class TestSoftmaxRows:
    def test_symmetry(self):
        out = ad.softmax_rows(ad.Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.value, [[0.5, 0.5]])

    def test_large_equal_logits_stable(self):
        out = ad.softmax_rows(ad.Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.value, [[0.5, 0.5]])

    def test_closed_form(self):
        out = ad.softmax_rows(ad.Tensor([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out.value, [[0.25, 0.75]], atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
           st.floats(-100, 100))
    def test_rows_sum_to_one_and_shift_invariant(self, row, shift):
        x = np.asarray([row])
        base = ad.softmax_rows(ad.Tensor(x)).value
        shifted = ad.softmax_rows(ad.Tensor(x + shift)).value
        assert abs(base.sum() - 1.0) <= 1e-9
        np.testing.assert_allclose(base, shifted, atol=1e-12)
        assert (base >= 0.0).all()


class TestBackward:
    def test_sum_of_entries_gives_ones(self):
        p = param(np.arange(6.0).reshape(2, 3))
        total(p).backward()
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_half_squared_norm(self):
        p = param([[3.0]])
        ad.scale(ad.frobenius_sq(p), 0.5).backward()
        np.testing.assert_allclose(p.grad, [[3.0]])

    def test_non_scalar_loss_rejected(self):
        p = param([[1.0, 2.0]])
        with pytest.raises(ValueError, match="1x1"):
            ad.add(p, p).backward()

    def test_unreached_parameter_gets_zero(self):
        # A parameter the loss never reaches keeps no gradient, and an
        # optimizer step without decay treats that as zero: it stays put.
        used = param([[1.0]])
        unused = param([[5.0]])
        ad.frobenius_sq(used).backward()
        np.testing.assert_allclose(used.grad, [[2.0]])
        assert unused.grad is None
        ad.Adam([used, unused], lr=0.1).step([used.grad, unused.grad])
        np.testing.assert_array_equal(unused.value, [[5.0]])
        assert used.value[0, 0] < 1.0

    def test_repeated_backward_is_deterministic(self):
        rng = np.random.default_rng(0)
        p = param(rng.normal(size=(3, 3)))
        q = param(rng.normal(size=(3, 3)))
        loss = ad.frobenius_sq(ad.relu(ad.matmul(p, ad.softmax_rows(q))))
        loss.backward()
        first_p, first_q = p.grad.copy(), q.grad.copy()
        p.grad = None
        q.grad = None
        loss.backward()
        np.testing.assert_array_equal(p.grad, first_p)
        np.testing.assert_array_equal(q.grad, first_q)

    def test_shared_subexpression_visited_once(self):
        # f = sum(x) + sum(x): gradient is exactly 2, not 4.
        p = param([[1.0, 1.0]])
        s = total(p)
        ad.add(s, s).backward()
        np.testing.assert_array_equal(p.grad, [[2.0, 2.0]])

    def test_leaf_adds_to_the_gradient_it_holds(self):
        p = param([[3.0]])
        ad.frobenius_sq(p).backward()
        total(p).backward()
        np.testing.assert_array_equal(p.grad, [[7.0]])
        # A fit's epoch starts from no gradient.
        ad.fit([("p", p)], lambda: [total(p)], epochs=1, lr=0.1)
        np.testing.assert_array_equal(p.grad, [[1.0]])


class TestParts:
    """A loss split over consecutive slices of a stack, one backward each."""

    def test_parts_give_the_whole_stack_gradient_bits(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(7, 5, 4))
        y = rng.normal(size=(7, 5, 3))
        w = param(rng.normal(size=(4, 3)))
        b = param(rng.normal(size=(5, 3)))

        def part(rows):
            predicted = ad.add(ad.matmul(ad.Tensor(x[rows]), w), b)
            return ad.scale(ad.frobenius_sq(ad.sub(ad.Tensor(y[rows]), predicted)),
                            1.0 / 7)

        part(slice(0, 7)).backward()
        whole = w.grad.tobytes(), b.grad.tobytes()
        w.grad = b.grad = None
        for rows in (slice(0, 3), slice(3, 6), slice(6, 7)):
            part(rows).backward()
        assert (w.grad.tobytes(), b.grad.tobytes()) == whole

    def test_a_held_bias_gradient_leaves_the_shared_upstream_alone(self):
        # add hands one upstream gradient to both operands: the leaf z keeps
        # it as its .grad, and the bias b, which already holds a gradient,
        # must sum it without writing into it.
        rng = np.random.default_rng(41)
        r = rng.normal(size=(3, 2, 4))
        z = param(np.zeros((3, 2, 4)))
        b = param(np.zeros((2, 4)))
        b.grad = np.ones((2, 4))
        dot(ad.add(z, b), r).backward()
        assert z.grad.tobytes() == r.tobytes()
        assert b.grad.tobytes() == (((1.0 + r[0]) + r[1]) + r[2]).tobytes()


class TestFiniteness:
    def test_overflowing_exp_raises(self):
        with pytest.raises(NumericError, match=r"^\[exp\]: overflow encountered in exp"):
            with ad.numeric_context("[exp]"):
                np.exp(np.array([[1e4]]))

    def test_the_innermost_context_names_the_failure(self):
        big = ad.Tensor([[1e200]])
        with pytest.raises(NumericError, match=r"^\[inner\]: overflow encountered in matmul$"):
            with ad.numeric_context("[outer]"), ad.numeric_context("[inner]"):
                ad.matmul(big, big)

    def test_underflow_stays_quiet_and_the_context_restores_the_flags(self):
        before = np.geterr()
        with ad.numeric_context("[tiny]"):
            assert np.exp(-1e4) == 0.0
            tiny = ad.Tensor([[1e-300]])
            assert ad.matmul(tiny, tiny).value[0, 0] == 0.0
        assert np.geterr() == before

    def test_public_ops_stay_finite_on_large_inputs(self):
        x = ad.Tensor(np.full((3, 4), 1e150))
        for op in (ad.relu, ad.softmax_rows, ad.transpose):
            assert np.isfinite(op(x).value).all()


def _scalar_probe(rng, shape):
    # Contract any matrix output to a scalar with fixed random weights so
    # finite differences can probe the full Jacobian.
    r = rng.normal(size=shape)
    return lambda out: dot(out, r) if out.shape != (1, 1) else out


UNARY_OPS = [
    ("relu", lambda t: ad.relu(t), (3, 4)),
    ("softmax_rows", ad.softmax_rows, (3, 4)),
    ("transpose", ad.transpose, (3, 4)),
    ("frobenius_sq", ad.frobenius_sq, (3, 4)),
    ("scale", lambda t: ad.scale(t, -1.7), (3, 4)),
]


@pytest.mark.parametrize("name,op,shape", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
def test_gradient_check_unary(name, op, shape):
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    x = param(rng.normal(size=shape))
    probe = _scalar_probe(rng, op(ad.Tensor(x.value)).shape)

    def loss_fn():
        return float(probe(op(ad.Tensor(x.value, requires_grad=True))).value[0, 0])

    loss = probe(op(x))
    loss.backward()
    numeric = finite_difference(loss_fn, x.value)
    assert relative_gradient_error(x.grad, numeric) < RTOL


BINARY_OPS = [
    ("add", ad.add, (3, 4), (3, 4)),
    ("sub", ad.sub, (3, 4), (3, 4)),
    ("matmul", ad.matmul, (3, 4), (4, 2)),
]


@pytest.mark.parametrize("name,op,sa,sb", BINARY_OPS, ids=[b[0] for b in BINARY_OPS])
def test_gradient_check_binary(name, op, sa, sb):
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    a = param(rng.normal(size=sa))
    b = param(rng.normal(size=sb))
    probe = _scalar_probe(rng, op(ad.Tensor(a.value), ad.Tensor(b.value)).shape)

    loss = probe(op(a, b))
    loss.backward()
    analytic = {"a": a.grad.copy(), "b": b.grad.copy()}
    for label, p in (("a", a), ("b", b)):
        def loss_fn():
            return float(probe(op(ad.Tensor(a.value), ad.Tensor(b.value))).value[0, 0])
        numeric = finite_difference(loss_fn, p.value)
        assert relative_gradient_error(analytic[label], numeric) < RTOL


def test_gradient_check_composite_graph():
    rng = np.random.default_rng(42)
    w1 = param(rng.normal(size=(4, 3)))
    w2 = param(rng.normal(size=(3, 3)))
    x = ad.Tensor(rng.normal(size=(2, 4)))

    def forward():
        h = ad.relu(ad.matmul(x, ad.Tensor(w1.value, requires_grad=False)))
        h = ad.softmax_rows(ad.matmul(h, ad.Tensor(w2.value)))
        return float(ad.frobenius_sq(h).value[0, 0])

    h = ad.relu(ad.matmul(x, w1))
    loss = ad.frobenius_sq(ad.softmax_rows(ad.matmul(h, w2)))
    loss.backward()
    for p in (w1, w2):
        numeric = finite_difference(forward, p.value)
        assert relative_gradient_error(p.grad, numeric) < RTOL


class TestAdam:
    def test_zero_gradient_zero_decay_unchanged(self):
        p = param([[1.0, -2.0]])
        opt = ad.Adam([p], lr=0.1)
        opt.step([None])
        np.testing.assert_array_equal(p.value, [[1.0, -2.0]])

    def test_constant_gradient_descends(self):
        p = param([[0.0]])
        opt = ad.Adam([p], lr=0.01)
        for _ in range(50):
            opt.step([np.array([[3.0]])])
        assert p.value[0, 0] < 0.0

    def test_single_step_on_quadratic(self):
        # f(x) = x^2 from x=1 with lr 0.1 strictly reduces |x|.
        p = param([[1.0]])
        opt = ad.Adam([p], lr=0.1)
        ad.frobenius_sq(p).backward()
        opt.step([p.grad])
        assert abs(p.value[0, 0]) < 1.0

    def test_step_counter_increments(self):
        p = param([[1.0]])
        opt = ad.Adam([p], lr=0.1)
        for expected in (1, 2, 3):
            opt.step([None])
            assert opt.count == expected

    def test_gradient_shape_mismatch(self):
        p = param([[1.0, 2.0]])
        opt = ad.Adam([p], lr=0.1)
        with pytest.raises(ValueError, match="shape"):
            opt.step([np.zeros((2, 2))])

    def test_one_gradient_per_parameter(self):
        opt = ad.Adam([param([[1.0]]), param([[2.0]])], lr=0.1)
        with pytest.raises(ValueError, match="1 gradients for 2 parameters"):
            opt.step([None])

    def test_decoupled_decay_shrinks_without_gradient(self):
        p = param([[10.0]])
        opt = ad.Adam([p], lr=0.1, weight_decay=0.5)
        opt.step([None])
        np.testing.assert_allclose(p.value, [[10.0 - 0.1 * 0.5 * 10.0]])

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            ad.Adam([param([[1.0]])], lr=0.0)
        with pytest.raises(ValueError):
            ad.Adam([param([[1.0]])], lr=0.1, weight_decay=-1.0)


def test_uniform_init_is_seeded_and_bounded():
    a = ad.uniform_init(np.random.default_rng(5), 4, 3)
    b = ad.uniform_init(np.random.default_rng(5), 4, 3)
    np.testing.assert_array_equal(a.value, b.value)
    assert (np.abs(a.value) <= 1.0 / math.sqrt(4)).all()
    assert not a.requires_grad


def _reference_adam(values, grads, lr, weight_decay, beta1=0.9, beta2=0.999,
                    eps=1e-8):
    """The optimizer's formula written out with a temporary per operation."""
    m, v = np.zeros_like(values), np.zeros_like(values)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m
        m = m + (1.0 - beta1) * g
        v = beta2 * v
        v = v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        update = lr * m_hat / (np.sqrt(v_hat) + eps)
        if weight_decay:
            update = update + lr * weight_decay * values
        values = values - update
    return values


@pytest.mark.parametrize("weight_decay", [0.0, 0.3])
def test_adam_steps_match_the_written_out_formula_bitwise(weight_decay):
    rng = np.random.default_rng(11)
    start = rng.normal(size=(3, 5, 4))
    start.flat[:4] = [0.0, -0.0, 5e-324, 1e300]
    grads = rng.normal(size=(5,) + start.shape) * 10.0 ** rng.integers(
        -8, 8, size=(5,) + start.shape)
    grads[2, 0] = 0.0
    # Entries that never get a gradient move by the decay term alone.
    grads[:, 1] = 0.0
    p = param(start.copy())
    opt = ad.Adam([p], lr=0.07, weight_decay=weight_decay)
    for g in grads:
        opt.step([g])
    expected = _reference_adam(start, grads, 0.07, weight_decay)
    assert p.value.tobytes() == expected.tobytes()


class TestFit:
    def test_descends_and_returns_one_loss_per_epoch(self):
        p = param([[3.0, -2.0]])
        trace = ad.fit([("p", p)], lambda: [ad.frobenius_sq(p)], epochs=20, lr=0.1)
        assert len(trace) == 20 and trace[-1] < trace[0]
        assert trace[0] == pytest.approx(13.0)

    def test_zero_epochs_never_calls_the_loss(self):
        def loss():
            raise AssertionError("loss evaluated")
        assert ad.fit([("p", param([[1.0]]))], loss, epochs=0, lr=0.1) == []

    def test_weight_decay_reaches_the_optimizer(self):
        p = param([[2.0]])
        zero = ad.Tensor([[0.0]])
        ad.fit([("p", p)], lambda: [ad.matmul(p, zero)], epochs=1, lr=0.1,
               weight_decay=0.5)
        assert p.value[0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_numeric_error_names_tag_and_epoch_without_a_warning(self):
        p = param([[1e200]])
        # Outside fit, the overflowing product only warns.
        with pytest.warns(RuntimeWarning, match="overflow"):
            ad.matmul(p, ad.Tensor([[1e200]]))
        epochs = []

        def loss():
            epochs.append(None)
            scale = 1e200 if len(epochs) == 3 else 1e-200
            return [ad.frobenius_sq(ad.matmul(p, ad.Tensor([[scale]])))]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match=r"^\[toy\] epoch 3/5: overflow"):
                ad.fit([("p", p)], loss, epochs=5, lr=0.1, tag="toy")

    def test_each_constant_is_a_leaf_inside_and_a_constant_after(self):
        p, q = ad.Tensor([[1.0]]), ad.Tensor([[2.0, 3.0]])
        inside = []

        def loss():
            inside.append((p.requires_grad, q.requires_grad))
            return [ad.frobenius_sq(p), ad.frobenius_sq(q)]

        ad.fit([("p", p), ("q", q)], loss, epochs=3, lr=0.1)
        assert inside == [(True, True)] * 3
        assert p._node is None and q._node is None

    def test_a_failing_fit_leaves_its_constants_constant(self):
        p = ad.Tensor([[1e200]])
        with pytest.raises(NumericError, match="overflow"):
            ad.fit([("p", p)], lambda: [ad.frobenius_sq(p)], epochs=1, lr=0.1)
        assert p._node is None

    def test_a_leaf_keeps_its_node_and_gradient(self):
        p = param([[3.0]])
        node = p._node
        ad.fit([("p", p)], lambda: [ad.frobenius_sq(p)], epochs=1, lr=0.1)
        assert p._node is node
        np.testing.assert_array_equal(p.grad, [[6.0]])


# -- the leading batch axis ---------------------------------------------------

BATCHED_UNARY = [
    ("transpose", ad.transpose),
    ("softmax_rows", ad.softmax_rows),
    ("reshape", lambda t: ad.reshape(t, (3, 1, 8))),
    ("swap_axes", lambda t: ad.swap_axes(t, 0, 1)),
]


@pytest.mark.parametrize("name,op", BATCHED_UNARY, ids=[u[0] for u in BATCHED_UNARY])
def test_gradient_check_unary_batched(name, op):
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    x = param(rng.normal(size=(2, 3, 4)))
    probe = _scalar_probe(rng, op(ad.Tensor(x.value)).shape)
    probe(op(x)).backward()
    numeric = finite_difference(
        lambda: float(probe(op(ad.Tensor(x.value))).value[0, 0]), x.value)
    assert relative_gradient_error(x.grad, numeric) < RTOL


BATCHED_BINARY = [
    ("matmul-stacks", ad.matmul, (2, 3, 4), (2, 4, 2)),
    ("matmul-shared-right", ad.matmul, (2, 3, 4), (4, 2)),
    ("matmul-shared-left", ad.matmul, (3, 4), (2, 4, 2)),
    ("add-shared", ad.add, (2, 3, 4), (3, 4)),
    ("sub-shared", ad.sub, (3, 4), (2, 3, 4)),
    ("matmul-broadcast-heads", ad.matmul, (2, 1, 3, 4), (3, 4, 2)),
    ("matmul-broadcast-both", ad.matmul, (2, 1, 3, 4), (1, 3, 4, 2)),
]


@pytest.mark.parametrize("name,op,sa,sb", BATCHED_BINARY,
                         ids=[b[0] for b in BATCHED_BINARY])
def test_gradient_check_binary_batched(name, op, sa, sb):
    # A 2-D operand is one parameter shared by every matrix of the stack:
    # its gradient has its own shape and sums the batch.
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    a = param(rng.normal(size=sa))
    b = param(rng.normal(size=sb))
    probe = _scalar_probe(rng, op(ad.Tensor(a.value), ad.Tensor(b.value)).shape)
    probe(op(a, b)).backward()
    assert a.grad.shape == sa and b.grad.shape == sb
    for p in (a, b):
        numeric = finite_difference(
            lambda: float(probe(op(ad.Tensor(a.value), ad.Tensor(b.value))).value[0, 0]),
            p.value)
        assert relative_gradient_error(p.grad, numeric) < RTOL


def test_shared_parameter_gradient_is_the_sum_over_the_stack():
    rng = np.random.default_rng(3)
    w = param(rng.normal(size=(4, 2)))
    x = rng.normal(size=(3, 5, 4))
    ad.frobenius_sq(ad.matmul(ad.Tensor(x), w)).backward()
    per_matrix = []
    for xb in x:
        w_b = param(w.value.copy())
        ad.frobenius_sq(ad.matmul(ad.Tensor(xb), w_b)).backward()
        per_matrix.append(w_b.grad)
    np.testing.assert_allclose(w.grad, sum(per_matrix), rtol=1e-12)


def test_broadcast_operand_gradients_are_the_sums_of_the_per_slice_gradients():
    # (B, 1, n, k) @ (H, k, m): each input slice meets every head, each head
    # every input slice, so each gradient sums over the axis it was
    # broadcast along.
    rng = np.random.default_rng(7)
    x = param(rng.normal(size=(3, 1, 5, 4)))
    w = param(rng.normal(size=(2, 4, 6)))
    ad.frobenius_sq(ad.matmul(x, w)).backward()
    x_grads = np.zeros_like(x.value)
    w_grads = np.zeros_like(w.value)
    for b in range(3):
        for h in range(2):
            x_bh, w_bh = param(x.value[b, 0].copy()), param(w.value[h].copy())
            ad.frobenius_sq(ad.matmul(x_bh, w_bh)).backward()
            x_grads[b, 0] += x_bh.grad
            w_grads[h] += w_bh.grad
    np.testing.assert_allclose(x.grad, x_grads, rtol=1e-12)
    np.testing.assert_allclose(w.grad, w_grads, rtol=1e-12)


def test_stacked_heads_equal_head_by_head_bitwise():
    # One product against a stored stack of per-head weights gives, bit for
    # bit, what one product per head gives, and block h of the stack's
    # gradient is head h's own.
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 12, 30))
    heads = param(rng.normal(size=(4, 30, 8)))
    out = ad.matmul(ad.reshape(ad.Tensor(x), (5, 1, 12, 30)), heads)
    assert out.shape == (5, 4, 12, 8)
    probe = rng.normal(size=out.shape)
    dot(out, probe).backward()
    assert heads.grad.shape == heads.shape
    for h, w in enumerate(heads.value):
        assert np.array_equal(out.value[:, h], x @ w)
        expected = (np.swapaxes(x, -1, -2) @ probe[:, h]).sum(axis=0)
        assert np.array_equal(heads.grad[h], expected)


def test_reshape_and_swap_axes_keep_every_entry():
    a = ad.Tensor(np.arange(24.0).reshape(2, 3, 4))
    np.testing.assert_array_equal(ad.reshape(a, (4, 6)).value,
                                  np.arange(24.0).reshape(4, 6))
    swapped = ad.swap_axes(a, 0, 1)
    np.testing.assert_array_equal(swapped.value, np.swapaxes(a.value, 0, 1))
    assert swapped.value.flags.c_contiguous


def test_batched_forward_equals_matrix_by_matrix():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4, 5))
    w = ad.Tensor(rng.normal(size=(5, 4)))
    stacked = ad.softmax_rows(ad.matmul(ad.Tensor(x), w)).value
    for xb, out in zip(x, stacked):
        assert np.array_equal(ad.softmax_rows(ad.matmul(ad.Tensor(xb), w)).value, out)


@pytest.mark.parametrize("op", [ad.add, ad.sub])
@pytest.mark.parametrize("sa,sb", [((2, 3, 4), (4, 3)), ((2, 3, 4), (3, 3, 4)),
                                   ((3, 4), (3, 5)), ((1, 4), (3, 4))])
def test_elementwise_mismatch_names_both_shapes(op, sa, sb):
    a, b = ad.Tensor(np.zeros(sa)), ad.Tensor(np.zeros(sb))
    pattern = rf"{re.escape(str(sa))} vs {re.escape(str(sb))}"
    with pytest.raises(ValueError, match=pattern):
        op(a, b)


def test_batched_matmul_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3, 4\).*\(3, 4, 2\)"):
        ad.matmul(ad.Tensor(np.zeros((2, 3, 4))), ad.Tensor(np.zeros((3, 4, 2))))
    with pytest.raises(ValueError, match=r"\(2, 3, 4\).*\(3, 2\)"):
        ad.matmul(ad.Tensor(np.zeros((2, 3, 4))), ad.Tensor(np.zeros((3, 2))))


# Every public op, on operands of shape (2, 3, 3); a unary op (arity 1)
# reads only the first.
OPS = [
    ("add", 2, ad.add),
    ("sub", 2, ad.sub),
    ("matmul", 2, ad.matmul),
    ("swap_axes", 1, lambda a, b: ad.swap_axes(a, 0, 1)),
    ("transpose", 1, lambda a, b: ad.transpose(a)),
    ("reshape", 1, lambda a, b: ad.reshape(a, (3, 6))),
    ("scale", 1, lambda a, b: ad.scale(a, -1.7)),
    ("relu", 1, lambda a, b: ad.relu(a)),
    ("softmax_rows", 1, lambda a, b: ad.softmax_rows(a)),
    ("frobenius_sq", 1, lambda a, b: ad.frobenius_sq(a)),
]
OP_IDS = [o[0] for o in OPS]


def _operands():
    return np.random.default_rng(3).normal(size=(2, 2, 3, 3))


class TestNoGrad:
    """An op records exactly when an operand requires a gradient."""

    @pytest.mark.parametrize("name,arity,op", OPS, ids=OP_IDS)
    def test_op_without_a_recorded_operand_gives_a_constant(self, name, arity, op):
        first, second = _operands()
        assert op(ad.Tensor(first), ad.Tensor(second))._node is None

    @pytest.mark.parametrize("recorded", [(True, False), (False, True), (True, True)],
                             ids=["first", "second", "both"])
    @pytest.mark.parametrize("name,arity,op", OPS, ids=OP_IDS)
    def test_op_parents_are_the_recorded_operands_nodes(self, name, arity, op,
                                                        recorded):
        operands = [param(v) if r else ad.Tensor(v)
                    for v, r in zip(_operands(), recorded)]
        nodes = tuple(t._node for t in operands[:arity] if t._node is not None)
        out = op(*operands)
        if nodes:
            assert out._node.parents == nodes and out._node.backward is not None
        else:
            assert out._node is None


# The field of each kind of node that holds the name it mentions.
NAME_FIELDS = {ast.Name: "id", ast.Attribute: "attr", ast.arg: "arg",
               ast.keyword: "arg"}


def mentioners(source: str, name: str) -> list[str]:
    """The functions (methods by their own name) that mention ``name`` as a
    variable, an attribute, a parameter or a keyword argument, and
    ``<module>`` for any other top-level statement that does."""
    found = set()
    for statement in ast.parse(source).body:
        scopes = (statement.body if isinstance(statement, ast.ClassDef)
                  else [statement])
        for scope in scopes:
            if any(getattr(node, NAME_FIELDS[type(node)]) == name
                   for node in ast.walk(scope) if type(node) in NAME_FIELDS):
                found.add(getattr(scope, "name", "<module>"))
    return sorted(found)


PACKAGE = Path(ad.__file__).parent


@pytest.mark.parametrize("path", sorted(path for path in PACKAGE.glob("*.py")
                                        if path.name != "autodiff.py"),
                         ids=lambda path: path.name)
def test_only_autodiff_decides_whether_a_tensor_records(path):
    # A module that set or read a node itself, or made its own parameters
    # trainable, would bring back a second place that decides which tensors
    # record a graph: only autodiff.py calls trainable, and only inside fit.
    source = path.read_text(encoding="utf-8")
    for name in ("_node", "requires_grad", "trainable"):
        assert mentioners(source, name) == [], name


def test_svdd_takes_from_autodiff_only_its_fit_and_weight_draw():
    # The SVDD writes its reverse pass by hand: its weights are never leaves
    # and it builds no graph, so it calls no op and constructs no Tensor.
    tree = ast.parse((PACKAGE / "svdd.py").read_text(encoding="utf-8"))
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "ad"}
    assert used == {"fit", "uniform_init"}
    assert not any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "Tensor" for node in ast.walk(tree))


def test_only_fit_makes_parameters_trainable():
    source = Path(ad.__file__).read_text(encoding="utf-8")
    assert mentioners(source, "trainable") == ["fit"]


@pytest.mark.parametrize("source, found", [
    ("def f():\n    return x\n", ["f"]),
    ("def f():\n    x = 1\n", ["f"]),
    ("class C:\n    def m(self):\n        return self.x\n", ["m"]),
    ("def f():\n    def g():\n        return h(x=1)\n", ["f"]),
    ("def f(x=None):\n    pass\n", ["f"]),
    ("Y = x\n", ["<module>"]),
    ("def x(y):\n    return 'x'\n", []),
], ids=["read", "assignment", "attribute", "nested-keyword", "parameter", "module",
        "definition-and-string"])
def test_mentioners_finds_every_mention(source, found):
    assert mentioners(source, "x") == found


# A constant of 2 MB: much larger than tracemalloc's own bookkeeping.
BIG = (8, 128, 256)


def _lean_matmul(rng):
    # A constant stack times a narrow shared weight: the product the
    # constant would get is (8 x 128 x 256), the weight's is (256 x 2).
    c = ad.Tensor(rng.normal(size=BIG))
    w = param(rng.normal(size=(BIG[2], 2)))
    return c, w, total(ad.matmul(c, w)), [(BIG[0], BIG[1], 2), w.shape]


def _lean_sub(rng):
    # A shared parameter minus a constant stack: the constant's product
    # would be -g, as large as the constant.
    c = ad.Tensor(rng.normal(size=BIG))
    p = param(rng.normal(size=BIG[1:]))
    return c, p, total(ad.sub(p, c)), [BIG, p.shape]


@pytest.mark.parametrize("build", [_lean_matmul, _lean_sub], ids=["matmul", "sub"])
def test_backward_makes_no_product_for_a_constant_operand(build):
    # The reverse pass may allocate the loss's upstream gradient and the
    # parameter's gradient (``needed``), and nothing for the constant: no
    # product for it, and no zero-filled buffer behind a first gradient.
    c, p, loss, needed = build(np.random.default_rng(0))
    budget = sum(8 * math.prod(shape) for shape in needed)
    _, peak = traced_peak(loss.backward)
    assert c.grad is None and p.grad.shape == p.shape
    assert peak < budget + c.value.nbytes // 2, (peak, budget, c.value.nbytes)


def test_parameter_gradients_equal_a_hand_computed_reference_bitwise():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 5, 4))
    y = rng.normal(size=(3, 5, 2))
    w = param(rng.normal(size=(4, 2)))
    b = param(rng.normal(size=(5, 2)))
    z = ad.add(ad.matmul(ad.Tensor(x), w), b)
    ad.frobenius_sq(ad.sub(z, ad.Tensor(y))).backward()
    r = (x @ w.value + b.value) - y
    g = 2.0 * r
    assert np.array_equal(w.grad, (np.swapaxes(x, -1, -2) @ g).sum(axis=0))
    assert np.array_equal(b.grad, g.sum(axis=0))


def test_leaf_used_twice_gets_both_contributions_and_a_constant_none():
    # p cᵀ + p pᵀ: p reaches the loss three times.
    p = param([[1.0, 2.0]])
    c = ad.Tensor([[3.0, 5.0]])
    ad.add(ad.matmul(p, ad.transpose(c)), ad.matmul(p, ad.transpose(p))).backward()
    np.testing.assert_array_equal(p.grad, [[5.0, 9.0]])  # c + 2p
    assert c.grad is None


def test_a_later_contribution_never_writes_into_a_shared_gradient():
    # add hands one upstream array to both operands; p's second
    # contribution must make a new sum, leaving q's gradient alone.
    p = param([[1.0, 2.0]])
    q = param([[4.0, 4.0]])
    dot(ad.add(ad.add(p, q), ad.scale(p, 3.0)), [[1.0, 2.0]]).backward()
    np.testing.assert_array_equal(p.grad, [[4.0, 8.0]])
    np.testing.assert_array_equal(q.grad, [[1.0, 2.0]])


def test_adam_step_leaves_every_gradient_unchanged():
    rng = np.random.default_rng(2)
    p = param(rng.normal(size=(3, 2)))
    q = param(rng.normal(size=(3, 2)))
    loss = ad.frobenius_sq(ad.relu(ad.add(ad.add(p, q), p)))
    loss.backward()
    before = {id(t): (t.grad, t.grad.copy()) for t in (p, q)}
    ad.Adam([p, q], lr=0.1, weight_decay=0.5).step([p.grad, q.grad])
    for t in (p, q):
        grad, copy = before[id(t)]
        assert t.grad is grad and np.array_equal(grad, copy)


def test_backward_holds_a_few_gradients_at_a_time():
    # Eight elementwise ops on a 1 MiB parameter, six of which make a new
    # gradient. Keeping every interior gradient until the end would hold
    # about seven such arrays at once.
    rng = np.random.default_rng(4)
    p = param(rng.normal(size=(128, 1024)))
    c = ad.Tensor(rng.normal(size=p.shape))
    t = p
    for op in (lambda t: ad.scale(t, 0.5), ad.relu, lambda t: ad.add(t, c),
               lambda t: ad.scale(t, 2.0), ad.relu, lambda t: ad.sub(t, c),
               lambda t: ad.scale(t, -1.5), ad.relu):
        t = op(t)
    loss = total(t)
    _, peak = traced_peak(loss.backward)
    assert p.grad.shape == p.shape
    assert peak < 4 * p.value.nbytes, (peak, p.value.nbytes)


def test_backward_keeps_only_leaf_gradients():
    rng = np.random.default_rng(5)
    x = ad.Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)  # an input
    w = param(rng.normal(size=(4, 2)))
    c = ad.Tensor(rng.normal(size=(5, 2)))
    z = ad.matmul(x, w)
    h = ad.add(z, c)
    s = ad.scale(h, 0.5)
    loss = ad.frobenius_sq(s)
    loss.backward()
    assert all(t.grad is None for t in (z, h, s, loss, c))
    g = (2.0 * s.value) * 0.5
    assert np.array_equal(x.grad, g @ w.value.T)
    assert np.array_equal(w.grad, (np.swapaxes(x.value, -1, -2) @ g).sum(axis=0))


def _activation_inputs():
    # Large enough for numpy's SIMD loops, with both zeros and subnormals.
    rng = np.random.default_rng(6)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300])
    values = np.concatenate([rng.normal(size=20_000), np.tile(special, 500)])
    return rng.permutation(values).reshape(4, 60, 100)


def test_relu_matches_the_masked_select_bitwise():
    a = param(_activation_inputs())
    y = ad.relu(a)
    assert y.value.tobytes() == np.where(a.value > 0.0, a.value, 0.0).tobytes()
    assert not np.signbit(ad.relu(param([[-0.0]])).value).any()
    total(y).backward()
    assert a.grad.tobytes() == (np.ones_like(a.value) * (a.value > 0.0)).tobytes()


def assert_softmax_rows_matches_the_shifted_exp_formula(values, seed):
    """Forward and gradient bytes against the formula, with numpy's max."""
    a = param(values)
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    expected = e / e.sum(axis=-1, keepdims=True)
    y = ad.softmax_rows(a)
    assert y.value.tobytes() == expected.tobytes()
    r = np.random.default_rng(seed).normal(size=a.shape)
    dot(y, r).backward()
    inner = (r * expected).sum(axis=-1, keepdims=True)
    assert a.grad.tobytes() == (expected * (r - inner)).tobytes()


def test_softmax_rows_matches_the_shifted_exp_formula_bitwise():
    assert_softmax_rows_matches_the_shifted_exp_formula(_activation_inputs(), 9)


@pytest.mark.parametrize("length", [1, 2, 3, 12, 33])
def test_softmax_rows_matches_the_shifted_exp_formula_bitwise_at_row_length(length):
    # Rows hold their max at varied columns, with ties, all-zero rows and
    # signed zeros at either end.
    values = _activation_inputs().reshape(-1)[:60 * length].reshape(4, 15, length)
    values[0] = -0.0
    values[1, :, 0] = 0.0
    values[1, :, -1] = -0.0
    assert_softmax_rows_matches_the_shifted_exp_formula(values, length)


# Ops whose backward never reads their input's value, with a constant for
# the binary ones.
INPUT_FREE_OPS = [
    ("add", lambda t, c: ad.add(t, c)),
    ("sub", lambda t, c: ad.sub(c, t)),
    ("scale", lambda t, c: ad.scale(t, -1.7)),
    ("reshape", lambda t, c: ad.reshape(t, (4, 6))),
    ("swap_axes", lambda t, c: ad.swap_axes(t, 0, 1)),
    ("relu", lambda t, c: ad.relu(t)),
    ("softmax_rows", lambda t, c: ad.softmax_rows(t)),
]


@pytest.mark.parametrize("name,op", INPUT_FREE_OPS, ids=[o[0] for o in INPUT_FREE_OPS])
def test_graph_drops_an_input_its_backward_does_not_read(name, op):
    rng = np.random.default_rng(7)
    p = param(rng.normal(size=(2, 3, 4)))
    c = ad.Tensor(rng.normal(size=(2, 3, 4)))

    def forward(t):
        # The op's input is an interior tensor with a value of its own.
        return op(ad.scale(t, 1.5), c)

    probe = _scalar_probe(rng, forward(ad.Tensor(p.value)).shape)
    x = ad.scale(p, 1.5)
    freed = weakref.ref(x.value)
    y = op(x, c)
    loss = probe(y)
    del x, y
    assert freed() is None
    loss.backward()
    numeric = finite_difference(
        lambda: float(probe(forward(ad.Tensor(p.value))).value[0, 0]), p.value)
    assert relative_gradient_error(p.grad, numeric) < RTOL
