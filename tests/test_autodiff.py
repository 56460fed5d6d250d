import ast
import math
import re
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from cpsdetect import autodiff as ad
from cpsdetect.errors import NumericError

from conftest import traced_peak
from oracles import finite_difference, relative_gradient_error
import reverse_mode as rm

RTOL = 1e-4


def param(values):
    return ad.Tensor(np.asarray(values, dtype=float))


# The reference reverse-mode engine (tests/reverse_mode.py) the hand passes
# are checked against: its leaves, and contractions of its results to 1x1.

def leaf(values):
    return rm.Tensor(np.asarray(values, dtype=float), requires_grad=True)


def dot(t, weights):
    """The sum of ``t``'s entries times fixed ``weights``, a 1x1 tensor:
    ``t`` flattened to one row, times the weights as one column."""
    column = np.reshape(np.asarray(weights, dtype=float), (-1, 1))
    return rm.matmul(rm.reshape(t, (1, -1)), rm.Tensor(column))


def total(t):
    """The sum of ``t``'s entries, a 1x1 tensor."""
    return dot(t, np.ones(t.shape))


class TestMatmul:
    def test_identity(self):
        a = rm.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = rm.matmul(a, rm.Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.value, [[1, 2], [3, 4]])

    def test_annihilation_by_zeros(self):
        a = rm.Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = rm.Tensor([[0.0], [5.0]])
        np.testing.assert_array_equal(rm.matmul(a, b).value, [[0.0], [0.0]])

    def test_hand_product(self):
        a = rm.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = rm.Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(rm.matmul(a, b).value, [[19, 22], [43, 50]])

    def test_shape_mismatch_names_both_shapes(self):
        a = rm.Tensor(np.zeros((2, 3)))
        b = rm.Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            rm.matmul(a, b)


class TestBackward:
    def test_sum_of_entries_gives_ones(self):
        p = leaf(np.arange(6.0).reshape(2, 3))
        total(p).backward()
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_half_squared_norm(self):
        p = leaf([[3.0]])
        rm.scale(rm.frobenius_sq(p), 0.5).backward()
        np.testing.assert_allclose(p.grad, [[3.0]])

    def test_non_scalar_loss_rejected(self):
        p = leaf([[1.0, 2.0]])
        with pytest.raises(ValueError, match="1x1"):
            rm.add(p, p).backward()

    def test_repeated_backward_is_deterministic(self):
        rng = np.random.default_rng(0)
        p = leaf(rng.normal(size=(3, 3)))
        q = leaf(rng.normal(size=(3, 3)))
        loss = rm.frobenius_sq(rm.relu(rm.matmul(p, rm.softmax_rows(q))))
        loss.backward()
        first_p, first_q = p.grad.copy(), q.grad.copy()
        p.grad = None
        q.grad = None
        loss.backward()
        np.testing.assert_array_equal(p.grad, first_p)
        np.testing.assert_array_equal(q.grad, first_q)

    def test_shared_subexpression_visited_once(self):
        # f = sum(x) + sum(x): gradient is exactly 2, not 4.
        p = leaf([[1.0, 1.0]])
        s = total(p)
        rm.add(s, s).backward()
        np.testing.assert_array_equal(p.grad, [[2.0, 2.0]])

    def test_leaf_adds_to_the_gradient_it_holds(self):
        p = leaf([[3.0]])
        rm.frobenius_sq(p).backward()
        total(p).backward()
        np.testing.assert_array_equal(p.grad, [[7.0]])
        p.grad = None
        total(p).backward()
        np.testing.assert_array_equal(p.grad, [[1.0]])



class TestParts:
    """A gradient summed over consecutive slices of a stack, one part at a
    time, continuing from the sum the earlier parts left."""

    def test_parts_give_the_whole_stack_gradient_bits(self):
        # The weight and bias gradients of a squared error over a stack of
        # 7, whole and in parts of 3, 3 and 1.
        rng = np.random.default_rng(40)
        x = rng.normal(size=(7, 5, 4))
        g = rng.normal(size=(7, 5, 3))

        def gradients(rows, held):
            return (ad.carried_sum(np.swapaxes(x[rows], -1, -2) @ g[rows], held[0], (0,)),
                    ad.carried_sum(g[rows].copy(), held[1], (0,)))

        whole = gradients(slice(0, 7), (None, None))
        held = (None, None)
        for rows in (slice(0, 3), slice(3, 6), slice(6, 7)):
            held = gradients(rows, held)
        assert [h.tobytes() for h in held] == [w.tobytes() for w in whole]
        assert whole[1].tobytes() == g.sum(axis=0).tobytes()

    def test_held_sum_goes_into_the_first_entry_of_every_summed_axis(self):
        stack = np.arange(24.0).reshape(2, 3, 4)
        held = np.full((1, 4), 100.0)
        expected = stack.copy()
        expected[0, 0] += held[0]
        out = ad.carried_sum(stack, held, (0, 1))
        assert out.tobytes() == expected.sum(axis=(0, 1)).tobytes()

    def test_a_held_bias_gradient_leaves_the_shared_upstream_alone(self):
        # add hands one upstream gradient to both operands: the leaf z keeps
        # it as its .grad, and the bias b, which already holds a gradient,
        # must sum it without writing into it.
        rng = np.random.default_rng(41)
        r = rng.normal(size=(3, 2, 4))
        z = leaf(np.zeros((3, 2, 4)))
        b = leaf(np.zeros((2, 4)))
        b.grad = np.ones((2, 4))
        dot(rm.add(z, b), r).backward()
        assert z.grad.tobytes() == r.tobytes()
        assert b.grad.tobytes() == (((1.0 + r[0]) + r[1]) + r[2]).tobytes()


class TestFiniteness:
    def test_overflowing_exp_raises(self):
        with pytest.raises(NumericError, match=r"^\[exp\]: overflow encountered in exp"):
            with ad.numeric_context("[exp]"):
                np.exp(np.array([[1e4]]))

    def test_the_innermost_context_names_the_failure(self):
        big = np.array([[1e200]])
        with pytest.raises(NumericError, match=r"^\[inner\]: overflow encountered in matmul$"):
            with ad.numeric_context("[outer]"), ad.numeric_context("[inner]"):
                big @ big

    def test_underflow_stays_quiet_and_the_context_restores_the_flags(self):
        before = np.geterr()
        with ad.numeric_context("[tiny]"):
            assert np.exp(-1e4) == 0.0
            tiny = np.array([[1e-300]])
            assert (tiny @ tiny)[0, 0] == 0.0
        assert np.geterr() == before

    def test_public_ops_stay_finite_on_large_inputs(self):
        x = rm.Tensor(np.full((3, 4), 1e150))
        for op in (rm.relu, rm.softmax_rows, rm.transpose):
            assert np.isfinite(op(x).value).all()


class TestAdam:
    def test_zero_gradient_zero_decay_unchanged(self):
        p = param([[1.0, -2.0]])
        opt = ad.Adam([p], lr=0.1, weight_decay=0.0)
        opt.step([np.zeros((1, 2))])
        np.testing.assert_array_equal(p.value, [[1.0, -2.0]])

    def test_constant_gradient_descends(self):
        p = param([[0.0]])
        opt = ad.Adam([p], lr=0.01, weight_decay=0.0)
        for _ in range(50):
            opt.step([np.array([[3.0]])])
        assert p.value[0, 0] < 0.0

    def test_single_step_on_quadratic(self):
        # f(x) = x^2 from x=1 with lr 0.1 strictly reduces |x|.
        p = param([[1.0]])
        opt = ad.Adam([p], lr=0.1, weight_decay=0.0)
        opt.step([2.0 * p.value])
        assert abs(p.value[0, 0]) < 1.0

    def test_step_counter_increments(self):
        p = param([[1.0]])
        opt = ad.Adam([p], lr=0.1, weight_decay=0.0)
        for expected in (1, 2, 3):
            opt.step([np.zeros((1, 1))])
            assert opt.count == expected

    def test_gradient_shape_mismatch(self):
        p = param([[1.0, 2.0]])
        opt = ad.Adam([p], lr=0.1, weight_decay=0.0)
        with pytest.raises(ValueError, match="shape"):
            opt.step([np.zeros((2, 2))])

    def test_one_gradient_per_parameter(self):
        opt = ad.Adam([param([[1.0]]), param([[2.0]])], lr=0.1, weight_decay=0.0)
        with pytest.raises(ValueError, match="1 gradients for 2 parameters"):
            opt.step([np.zeros((1, 1))])

    def test_decoupled_decay_shrinks_without_gradient(self):
        p = param([[10.0]])
        opt = ad.Adam([p], lr=0.1, weight_decay=0.5)
        opt.step([np.zeros((1, 1))])
        np.testing.assert_allclose(p.value, [[10.0 - 0.1 * 0.5 * 10.0]])


def test_uniform_init_is_seeded_and_bounded():
    a = ad.uniform_init(np.random.default_rng(5), 4, 3)
    b = ad.uniform_init(np.random.default_rng(5), 4, 3)
    np.testing.assert_array_equal(a.value, b.value)
    assert (np.abs(a.value) <= 1.0 / math.sqrt(4)).all()


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


def test_adam_step_leaves_every_gradient_unchanged():
    rng = np.random.default_rng(2)
    p, q = param(rng.normal(size=(3, 2))), param(rng.normal(size=(3, 2)))
    grads = [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))]
    copies = [g.copy() for g in grads]
    ad.Adam([p, q], lr=0.1, weight_decay=0.5).step(grads)
    assert [g.tobytes() for g in grads] == [c.tobytes() for c in copies]


def _squared_norm(p):
    """``loss_fn`` for ``fit``: the sum of ``p``'s squared entries and its
    gradient."""
    return lambda: (float((p.value * p.value).sum()), [2.0 * p.value])


class TestFit:
    def test_descends_and_returns_one_loss_per_epoch(self):
        p = param([[3.0, -2.0]])
        trace = ad.fit([("p", p)], _squared_norm(p), epochs=20, lr=0.1,
                       tag="toy")
        assert len(trace) == 20 and trace[-1] < trace[0]
        assert trace[0] == pytest.approx(13.0)

    def test_zero_epochs_never_calls_the_loss(self):
        def loss():
            raise AssertionError("loss evaluated")
        assert ad.fit([("p", param([[1.0]]))], loss, epochs=0, lr=0.1,
                      tag="toy") == []

    def test_weight_decay_reaches_the_optimizer(self):
        p = param([[2.0]])
        ad.fit([("p", p)], lambda: (0.0, [np.zeros((1, 1))]), epochs=1, lr=0.1,
               weight_decay=0.5, tag="toy")
        assert p.value[0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_numeric_error_names_tag_and_epoch_without_a_warning(self):
        p = param([[1e200]])
        # Outside fit, the overflowing product only warns.
        with pytest.warns(RuntimeWarning, match="overflow"):
            p.value @ np.array([[1e200]])
        epochs = []

        def loss():
            epochs.append(None)
            scale = 1e200 if len(epochs) == 3 else 1e-200
            scaled = p.value @ np.array([[scale]])
            return float((scaled * scaled).sum()), [2.0 * scale * scaled]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match=r"^\[toy\] epoch 3/5: overflow"):
                ad.fit([("p", p)], loss, epochs=5, lr=0.1, tag="toy")


PACKAGE = Path(ad.__file__).parent


def test_svdd_takes_from_autodiff_only_its_fit_and_weight_draw():
    # The SVDD writes its reverse pass by hand, so it takes nothing from
    # autodiff but the epoch loop and its weights' draw, and constructs no
    # Tensor itself.
    tree = ast.parse((PACKAGE / "svdd.py").read_text(encoding="utf-8"))
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "ad"}
    assert used == {"fit", "uniform_init"}
    assert not any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "Tensor" for node in ast.walk(tree))


# -- the reference engine's gradient rules ------------------------------------

def _scalar_probe(rng, shape):
    # Contract any matrix output to a scalar with fixed random weights so
    # finite differences can probe the full Jacobian.
    r = rng.normal(size=shape)
    return lambda out: dot(out, r) if out.shape != (1, 1) else out


UNARY_OPS = [
    ("relu", lambda t: rm.relu(t), (3, 4)),
    ("softmax_rows", rm.softmax_rows, (3, 4)),
    ("transpose", rm.transpose, (3, 4)),
    ("frobenius_sq", rm.frobenius_sq, (3, 4)),
    ("scale", lambda t: rm.scale(t, -1.7), (3, 4)),
]


@pytest.mark.parametrize("name,op,shape", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
def test_gradient_check_unary(name, op, shape):
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    x = leaf(rng.normal(size=shape))
    probe = _scalar_probe(rng, op(rm.Tensor(x.value)).shape)

    def loss_fn():
        return float(probe(op(rm.Tensor(x.value, requires_grad=True))).value[0, 0])

    loss = probe(op(x))
    loss.backward()
    numeric = finite_difference(loss_fn, x.value)
    assert relative_gradient_error(x.grad, numeric) < RTOL


BINARY_OPS = [
    ("add", rm.add, (3, 4), (3, 4)),
    ("sub", rm.sub, (3, 4), (3, 4)),
    ("matmul", rm.matmul, (3, 4), (4, 2)),
]


@pytest.mark.parametrize("name,op,sa,sb", BINARY_OPS, ids=[b[0] for b in BINARY_OPS])
def test_gradient_check_binary(name, op, sa, sb):
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    a = leaf(rng.normal(size=sa))
    b = leaf(rng.normal(size=sb))
    probe = _scalar_probe(rng, op(rm.Tensor(a.value), rm.Tensor(b.value)).shape)

    loss = probe(op(a, b))
    loss.backward()
    analytic = {"a": a.grad.copy(), "b": b.grad.copy()}
    for label, p in (("a", a), ("b", b)):
        def loss_fn():
            return float(probe(op(rm.Tensor(a.value), rm.Tensor(b.value))).value[0, 0])
        numeric = finite_difference(loss_fn, p.value)
        assert relative_gradient_error(analytic[label], numeric) < RTOL


def test_gradient_check_composite_graph():
    rng = np.random.default_rng(42)
    w1 = leaf(rng.normal(size=(4, 3)))
    w2 = leaf(rng.normal(size=(3, 3)))
    x = rm.Tensor(rng.normal(size=(2, 4)))

    def forward():
        h = rm.relu(rm.matmul(x, rm.Tensor(w1.value)))
        h = rm.softmax_rows(rm.matmul(h, rm.Tensor(w2.value)))
        return float(rm.frobenius_sq(h).value[0, 0])

    h = rm.relu(rm.matmul(x, w1))
    loss = rm.frobenius_sq(rm.softmax_rows(rm.matmul(h, w2)))
    loss.backward()
    for p in (w1, w2):
        numeric = finite_difference(forward, p.value)
        assert relative_gradient_error(p.grad, numeric) < RTOL


BATCHED_UNARY = [
    ("transpose", rm.transpose),
    ("softmax_rows", rm.softmax_rows),
    ("reshape", lambda t: rm.reshape(t, (3, 1, 8))),
    ("swap_axes", lambda t: rm.swap_axes(t, 0, 1)),
]


@pytest.mark.parametrize("name,op", BATCHED_UNARY, ids=[u[0] for u in BATCHED_UNARY])
def test_gradient_check_unary_batched(name, op):
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    x = leaf(rng.normal(size=(2, 3, 4)))
    probe = _scalar_probe(rng, op(rm.Tensor(x.value)).shape)
    probe(op(x)).backward()
    numeric = finite_difference(
        lambda: float(probe(op(rm.Tensor(x.value))).value[0, 0]), x.value)
    assert relative_gradient_error(x.grad, numeric) < RTOL


BATCHED_BINARY = [
    ("matmul-stacks", rm.matmul, (2, 3, 4), (2, 4, 2)),
    ("matmul-shared-right", rm.matmul, (2, 3, 4), (4, 2)),
    ("matmul-shared-left", rm.matmul, (3, 4), (2, 4, 2)),
    ("add-shared", rm.add, (2, 3, 4), (3, 4)),
    ("sub-shared", rm.sub, (3, 4), (2, 3, 4)),
    ("matmul-broadcast-heads", rm.matmul, (2, 1, 3, 4), (3, 4, 2)),
    ("matmul-broadcast-both", rm.matmul, (2, 1, 3, 4), (1, 3, 4, 2)),
]


@pytest.mark.parametrize("name,op,sa,sb", BATCHED_BINARY,
                         ids=[b[0] for b in BATCHED_BINARY])
def test_gradient_check_binary_batched(name, op, sa, sb):
    # A 2-D operand is one parameter shared by every matrix of the stack:
    # its gradient has its own shape and sums the batch.
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    a = leaf(rng.normal(size=sa))
    b = leaf(rng.normal(size=sb))
    probe = _scalar_probe(rng, op(rm.Tensor(a.value), rm.Tensor(b.value)).shape)
    probe(op(a, b)).backward()
    assert a.grad.shape == sa and b.grad.shape == sb
    for p in (a, b):
        numeric = finite_difference(
            lambda: float(probe(op(rm.Tensor(a.value), rm.Tensor(b.value))).value[0, 0]),
            p.value)
        assert relative_gradient_error(p.grad, numeric) < RTOL


def test_shared_parameter_gradient_is_the_sum_over_the_stack():
    rng = np.random.default_rng(3)
    w = leaf(rng.normal(size=(4, 2)))
    x = rng.normal(size=(3, 5, 4))
    rm.frobenius_sq(rm.matmul(rm.Tensor(x), w)).backward()
    per_matrix = []
    for xb in x:
        w_b = leaf(w.value.copy())
        rm.frobenius_sq(rm.matmul(rm.Tensor(xb), w_b)).backward()
        per_matrix.append(w_b.grad)
    np.testing.assert_allclose(w.grad, sum(per_matrix), rtol=1e-12)


def test_broadcast_operand_gradients_are_the_sums_of_the_per_slice_gradients():
    # (B, 1, n, k) @ (H, k, m): each input slice meets every head, each head
    # every input slice, so each gradient sums over the axis it was
    # broadcast along.
    rng = np.random.default_rng(7)
    x = leaf(rng.normal(size=(3, 1, 5, 4)))
    w = leaf(rng.normal(size=(2, 4, 6)))
    rm.frobenius_sq(rm.matmul(x, w)).backward()
    x_grads = np.zeros_like(x.value)
    w_grads = np.zeros_like(w.value)
    for b in range(3):
        for h in range(2):
            x_bh, w_bh = leaf(x.value[b, 0].copy()), leaf(w.value[h].copy())
            rm.frobenius_sq(rm.matmul(x_bh, w_bh)).backward()
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
    heads = leaf(rng.normal(size=(4, 30, 8)))
    out = rm.matmul(rm.reshape(rm.Tensor(x), (5, 1, 12, 30)), heads)
    assert out.shape == (5, 4, 12, 8)
    probe = rng.normal(size=out.shape)
    dot(out, probe).backward()
    assert heads.grad.shape == heads.shape
    for h, w in enumerate(heads.value):
        assert np.array_equal(out.value[:, h], x @ w)
        expected = (np.swapaxes(x, -1, -2) @ probe[:, h]).sum(axis=0)
        assert np.array_equal(heads.grad[h], expected)


def test_reshape_and_swap_axes_keep_every_entry():
    a = rm.Tensor(np.arange(24.0).reshape(2, 3, 4))
    np.testing.assert_array_equal(rm.reshape(a, (4, 6)).value,
                                  np.arange(24.0).reshape(4, 6))
    swapped = rm.swap_axes(a, 0, 1)
    np.testing.assert_array_equal(swapped.value, np.swapaxes(a.value, 0, 1))
    assert swapped.value.flags.c_contiguous


def test_batched_forward_equals_matrix_by_matrix():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4, 5))
    w = rm.Tensor(rng.normal(size=(5, 4)))
    stacked = rm.softmax_rows(rm.matmul(rm.Tensor(x), w)).value
    for xb, out in zip(x, stacked):
        assert np.array_equal(rm.softmax_rows(rm.matmul(rm.Tensor(xb), w)).value, out)


@pytest.mark.parametrize("op", [rm.add, rm.sub])
@pytest.mark.parametrize("sa,sb", [((2, 3, 4), (4, 3)), ((2, 3, 4), (3, 3, 4)),
                                   ((3, 4), (3, 5)), ((1, 4), (3, 4))])
def test_elementwise_mismatch_names_both_shapes(op, sa, sb):
    a, b = rm.Tensor(np.zeros(sa)), rm.Tensor(np.zeros(sb))
    pattern = rf"{re.escape(str(sa))} vs {re.escape(str(sb))}"
    with pytest.raises(ValueError, match=pattern):
        op(a, b)


def test_batched_matmul_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3, 4\).*\(3, 4, 2\)"):
        rm.matmul(rm.Tensor(np.zeros((2, 3, 4))), rm.Tensor(np.zeros((3, 4, 2))))
    with pytest.raises(ValueError, match=r"\(2, 3, 4\).*\(3, 2\)"):
        rm.matmul(rm.Tensor(np.zeros((2, 3, 4))), rm.Tensor(np.zeros((3, 2))))


# Every op of the reference engine, on operands of shape (2, 3, 3); a unary
# op (arity 1) reads only the first.
OPS = [
    ("add", 2, rm.add),
    ("sub", 2, rm.sub),
    ("matmul", 2, rm.matmul),
    ("swap_axes", 1, lambda a, b: rm.swap_axes(a, 0, 1)),
    ("transpose", 1, lambda a, b: rm.transpose(a)),
    ("reshape", 1, lambda a, b: rm.reshape(a, (3, 6))),
    ("scale", 1, lambda a, b: rm.scale(a, -1.7)),
    ("relu", 1, lambda a, b: rm.relu(a)),
    ("softmax_rows", 1, lambda a, b: rm.softmax_rows(a)),
    ("frobenius_sq", 1, lambda a, b: rm.frobenius_sq(a)),
]
OP_IDS = [o[0] for o in OPS]


def _operands():
    return np.random.default_rng(3).normal(size=(2, 2, 3, 3))


class TestNoGrad:
    """An op records exactly when an operand requires a gradient."""

    @pytest.mark.parametrize("name,arity,op", OPS, ids=OP_IDS)
    def test_op_without_a_recorded_operand_gives_a_constant(self, name, arity, op):
        first, second = _operands()
        assert op(rm.Tensor(first), rm.Tensor(second))._node is None

    @pytest.mark.parametrize("recorded", [(True, False), (False, True), (True, True)],
                             ids=["first", "second", "both"])
    @pytest.mark.parametrize("name,arity,op", OPS, ids=OP_IDS)
    def test_op_parents_are_the_recorded_operands_nodes(self, name, arity, op,
                                                        recorded):
        operands = [leaf(v) if r else rm.Tensor(v)
                    for v, r in zip(_operands(), recorded)]
        nodes = tuple(t._node for t in operands[:arity] if t._node is not None)
        out = op(*operands)
        if nodes:
            assert out._node.parents == nodes and out._node.backward is not None
        else:
            assert out._node is None


# A constant of 2 MB: much larger than tracemalloc's own bookkeeping.
BIG = (8, 128, 256)


def _lean_matmul(rng):
    # A constant stack times a narrow shared weight: the product the
    # constant would get is (8 x 128 x 256), the weight's is (256 x 2).
    c = rm.Tensor(rng.normal(size=BIG))
    w = leaf(rng.normal(size=(BIG[2], 2)))
    return c, w, total(rm.matmul(c, w)), [(BIG[0], BIG[1], 2), w.shape]


def _lean_sub(rng):
    # A shared parameter minus a constant stack: the constant's product
    # would be -g, as large as the constant.
    c = rm.Tensor(rng.normal(size=BIG))
    p = leaf(rng.normal(size=BIG[1:]))
    return c, p, total(rm.sub(p, c)), [BIG, p.shape]


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
    w = leaf(rng.normal(size=(4, 2)))
    b = leaf(rng.normal(size=(5, 2)))
    z = rm.add(rm.matmul(rm.Tensor(x), w), b)
    rm.frobenius_sq(rm.sub(z, rm.Tensor(y))).backward()
    r = (x @ w.value + b.value) - y
    g = 2.0 * r
    assert np.array_equal(w.grad, (np.swapaxes(x, -1, -2) @ g).sum(axis=0))
    assert np.array_equal(b.grad, g.sum(axis=0))


def test_leaf_used_twice_gets_both_contributions_and_a_constant_none():
    # p cᵀ + p pᵀ: p reaches the loss three times.
    p = leaf([[1.0, 2.0]])
    c = rm.Tensor([[3.0, 5.0]])
    rm.add(rm.matmul(p, rm.transpose(c)), rm.matmul(p, rm.transpose(p))).backward()
    np.testing.assert_array_equal(p.grad, [[5.0, 9.0]])  # c + 2p
    assert c.grad is None


def test_a_later_contribution_never_writes_into_a_shared_gradient():
    # add hands one upstream array to both operands; p's second
    # contribution must make a new sum, leaving q's gradient alone.
    p = leaf([[1.0, 2.0]])
    q = leaf([[4.0, 4.0]])
    dot(rm.add(rm.add(p, q), rm.scale(p, 3.0)), [[1.0, 2.0]]).backward()
    np.testing.assert_array_equal(p.grad, [[4.0, 8.0]])
    np.testing.assert_array_equal(q.grad, [[1.0, 2.0]])


def test_backward_holds_a_few_gradients_at_a_time():
    # Eight elementwise ops on a 1 MiB parameter, six of which make a new
    # gradient. Keeping every interior gradient until the end would hold
    # about seven such arrays at once.
    rng = np.random.default_rng(4)
    p = leaf(rng.normal(size=(128, 1024)))
    c = rm.Tensor(rng.normal(size=p.shape))
    t = p
    for op in (lambda t: rm.scale(t, 0.5), rm.relu, lambda t: rm.add(t, c),
               lambda t: rm.scale(t, 2.0), rm.relu, lambda t: rm.sub(t, c),
               lambda t: rm.scale(t, -1.5), rm.relu):
        t = op(t)
    loss = total(t)
    _, peak = traced_peak(loss.backward)
    assert p.grad.shape == p.shape
    assert peak < 4 * p.value.nbytes, (peak, p.value.nbytes)


def test_backward_keeps_only_leaf_gradients():
    rng = np.random.default_rng(5)
    x = rm.Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)  # an input
    w = leaf(rng.normal(size=(4, 2)))
    c = rm.Tensor(rng.normal(size=(5, 2)))
    z = rm.matmul(x, w)
    h = rm.add(z, c)
    s = rm.scale(h, 0.5)
    loss = rm.frobenius_sq(s)
    loss.backward()
    assert all(t.grad is None for t in (z, h, s, loss, c))
    g = (2.0 * s.value) * 0.5
    assert np.array_equal(x.grad, g @ w.value.T)
    assert np.array_equal(w.grad, (np.swapaxes(x.value, -1, -2) @ g).sum(axis=0))


def test_relu_matches_the_masked_select_bitwise():
    # Large enough for numpy's SIMD loops, with both zeros and subnormals.
    rng = np.random.default_rng(6)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300])
    values = np.concatenate([rng.normal(size=20_000), np.tile(special, 500)])
    a = leaf(rng.permutation(values).reshape(4, 60, 100))
    y = rm.relu(a)
    assert y.value.tobytes() == np.where(a.value > 0.0, a.value, 0.0).tobytes()
    assert not np.signbit(rm.relu(leaf([[-0.0]])).value).any()
    total(y).backward()
    assert a.grad.tobytes() == (np.ones_like(a.value) * (a.value > 0.0)).tobytes()


# Ops whose backward never reads their input's value, with a constant for
# the binary ones.
INPUT_FREE_OPS = [
    ("add", lambda t, c: rm.add(t, c)),
    ("sub", lambda t, c: rm.sub(c, t)),
    ("scale", lambda t, c: rm.scale(t, -1.7)),
    ("reshape", lambda t, c: rm.reshape(t, (4, 6))),
    ("swap_axes", lambda t, c: rm.swap_axes(t, 0, 1)),
    ("relu", lambda t, c: rm.relu(t)),
    ("softmax_rows", lambda t, c: rm.softmax_rows(t)),
]


@pytest.mark.parametrize("name,op", INPUT_FREE_OPS, ids=[o[0] for o in INPUT_FREE_OPS])
def test_graph_drops_an_input_its_backward_does_not_read(name, op):
    rng = np.random.default_rng(7)
    p = leaf(rng.normal(size=(2, 3, 4)))
    c = rm.Tensor(rng.normal(size=(2, 3, 4)))

    def forward(t):
        # The op's input is an interior tensor with a value of its own.
        return op(rm.scale(t, 1.5), c)

    probe = _scalar_probe(rng, forward(rm.Tensor(p.value)).shape)
    x = rm.scale(p, 1.5)
    freed = weakref.ref(x.value)
    y = op(x, c)
    loss = probe(y)
    del x, y
    assert freed() is None
    loss.backward()
    numeric = finite_difference(
        lambda: float(probe(forward(rm.Tensor(p.value))).value[0, 0]), p.value)
    assert relative_gradient_error(p.grad, numeric) < RTOL
