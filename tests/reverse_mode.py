"""A reference reverse-mode engine over dense float64 matrices, for tests.

The package's learned stages differentiate their losses by hand. This
engine derives the same gradients the generic way, from one gradient rule
per primitive and the chain rule, so a hand pass can be checked against it
bit for bit (``temporal_part_loss`` builds the temporal stage's loss from
it). The primitives are ``add``, ``sub``, ``scale``, ``matmul``,
``swap_axes``, ``transpose``, ``reshape``, ``relu``, ``softmax_rows`` and
``frobenius_sq``.

A value is a matrix or a stack of matrices (leading stack axes; vectors
are 1 x n); ops act on the last two axes. An elementwise operand of the
other's trailing shape is shared across the stack. ``matmul`` broadcasts
its operands' stack axes by numpy rules, so a (B, 1, n, k) stack times an
(H, k, m) stack gives (B, H, n, m); an operand broadcast along an axis gets
its gradient summed over that axis.

Every op records through one helper, ``_record``: the op computes its value
and hands over one gradient rule per operand, and the result records
exactly when an operand has a node, calling only the rules of operands that
do. A node holds its parents' nodes, the op's backward closure, the value's
shape and the gradient received so far; each closure captures only the
arrays its backward reads, so every other forward value is freed as soon as
the expression that made it no longer holds its tensor.

The reverse pass does only work that reaches a leaf: a constant operand
gets no product computed and keeps ``grad is None``. Only leaves keep a
``.grad`` after :meth:`Tensor.backward`; an interior node's gradient is
dropped once passed on. A node's first contribution is stored without a
copy, so treat every ``.grad`` as read-only. A leaf adds each reverse pass
to the gradient it already holds, and a broadcast operand's gradient is
summed in stack order continuing from what it holds (``carried_sum``), so a
loss split into parts over consecutive slices of a stack leaves the bits of
one pass over the whole stack.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from cpsdetect.autodiff import carried_sum
from oracles import reference_softmax_rows

Array = np.ndarray


def _as_matrix(value) -> Array:
    arr = np.asarray(value, dtype=np.float64)
    return arr.reshape(1, -1) if arr.ndim < 2 else arr


class _Node:
    """A tensor that requires a gradient, as the reverse pass sees it."""

    __slots__ = ("parents", "backward", "shape", "grad")

    def __init__(self, parents: tuple, backward: Callable | None,
                 shape: tuple[int, ...]):
        self.parents = parents
        self.backward = backward
        self.shape = shape
        self.grad: Array | None = None


class Tensor:
    """A float64 matrix (or stack) plus, if it requires a gradient, its node.

    A leaf (``requires_grad=True``) collects a gradient; a recorded op's
    result requires one too, and its node links the graph. A constant has
    no node and its ``grad`` is always ``None``.
    """

    __slots__ = ("value", "_node")

    def __init__(self, value, requires_grad: bool = False,
                 _parents: tuple = (), _backward: Callable | None = None):
        self.value = _as_matrix(value)
        self._node = (_Node(_parents, _backward, self.value.shape)
                      if requires_grad else None)

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> Array | None:
        node = self._node
        return None if node is None else node.grad

    @grad.setter
    def grad(self, g: Array | None) -> None:
        if self._node is None:
            raise AttributeError("a tensor that requires no gradient has no .grad")
        self._node.grad = g

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def backward(self) -> None:
        """Add this 1x1 loss's gradient to every reachable leaf.

        Interior gradients are cleared first and each node is visited once;
        a leaf adds to the gradient it already holds.
        """
        if self.shape != (1, 1):
            raise ValueError(f"backward requires a 1x1 loss, got shape {self.shape}")
        root = self._node
        if root is None:
            return
        topo: list[_Node] = []
        seen: set[_Node] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for parent in node.parents:
                if parent not in seen:
                    stack.append((parent, False))
        for node in topo:
            if node.backward is not None:
                node.grad = None
        _accumulate(root, np.ones((1, 1)))
        for node in reversed(topo):
            if node.backward is not None and node.grad is not None:
                node.backward(node.grad)
                node.grad = None


def _accumulate(node: _Node, g: Array, fresh: bool = False) -> None:
    """Add ``g`` to the gradient of ``node``.

    A ``g`` of the broadcast result's shape is summed over every axis the
    node's value was broadcast along, continuing from the gradient the node
    already holds; that gradient goes into ``g`` in place only when
    ``fresh`` says the op made ``g`` for this node alone, and a shared
    upstream gradient is copied first. A ``g`` of the node's own shape is
    stored as it is or makes a new sum with the held one.
    """
    shape, held = node.shape, node.grad
    if g.shape != shape:
        lead = g.ndim - len(shape)
        axes = tuple(range(lead)) + tuple(
            lead + i for i, n in enumerate(shape) if n == 1)
        if held is not None and not fresh:
            g = g.copy()
        g, held = carried_sum(g, held, axes).reshape(shape), None
    node.grad = g if held is None else held + g


def _record(value: Array, a: Tensor, rule_a: Callable, kept_a=None,
            b: Tensor | None = None, rule_b: Callable | None = None,
            kept_b=None) -> Tensor:
    """The result ``value`` of an op on ``a`` (and ``b``): a constant, or a
    recorded tensor whose backward runs the recorded operands' rules."""
    na = a._node
    nb = None if b is None else b._node
    if na is None and nb is None:
        return Tensor(value)
    if nb is None:
        return Tensor(value, True, (na,), rule_a(na, kept_a))
    if na is None:
        return Tensor(value, True, (nb,), rule_b(nb, kept_b))
    share_a, share_b = rule_a(na, kept_a), rule_b(nb, kept_b)

    def backward(g):
        share_a(g)
        share_b(g)

    return Tensor(value, True, (na, nb), backward)


def _passed(node, _):
    return lambda g: _accumulate(node, g)


def _times(node, factor):
    return lambda g: _accumulate(node, g * factor, fresh=True)


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    """Equal shapes, or one shape is the other's trailing shape."""
    short, long = sorted((a.shape, b.shape), key=len)
    if long[len(long) - len(short):] != short:
        raise ValueError(f"{op} shape mismatch: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    return _record(a.value + b.value, a, _passed, None, b, _passed)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    # Times -1.0 is an exact negation.
    return _record(a.value - b.value, a, _passed, None, b, _times, -1.0)


def _matmul_left_rule(node, bv):
    return lambda g: _accumulate(node, g @ np.swapaxes(bv, -1, -2), fresh=True)


def _matmul_right_rule(node, av):
    return lambda g: _accumulate(node, np.swapaxes(av, -1, -2) @ g, fresh=True)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; the stack axes broadcast."""
    try:
        value = a.value @ b.value
    except ValueError:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}") from None
    return _record(value, a, _matmul_left_rule, b.value,
                   b, _matmul_right_rule, a.value)


def _swap_rule(node, axes):
    return lambda g: _accumulate(node, np.swapaxes(g, *axes))


def swap_axes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    """Exchange two axes; the result is a C-contiguous copy."""
    return _record(np.swapaxes(a.value, axis1, axis2).copy(), a, _swap_rule,
                   (axis1, axis2))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    return swap_axes(a, -1, -2)


def _reshape_rule(node, _):
    return lambda g: _accumulate(node, g.reshape(node.shape))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same entries, read in C order, in a new shape."""
    return _record(a.value.reshape(shape), a, _reshape_rule)


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar (not differentiated w.r.t. the scalar)."""
    factor = float(factor)
    return _record(a.value * factor, a, _times, factor)


def _relu_rule(node, x):
    return _times(node, x > 0.0)


def relu(a: Tensor) -> Tensor:
    return _record(np.maximum(a.value, 0.0), a, _relu_rule, a.value)


def _softmax_rule(node, y):
    def share(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(node, y * (g - inner), fresh=True)
    return share


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax, its value from ``oracles.reference_softmax_rows``."""
    y = reference_softmax_rows(a.value)
    return _record(y, a, _softmax_rule, y)


def _frobenius_rule(node, x):
    return lambda g: _accumulate(node, 2.0 * g[0, 0] * x, fresh=True)


def frobenius_sq(a: Tensor) -> Tensor:
    """Squared Frobenius norm, i.e. the sum of squared entries."""
    x = a.value
    return _record([[float((x * x).sum())]], a, _frobenius_rule, x)


def temporal_part_loss(weights: list[Tensor], windows: Array, successors: Array,
                       count: int) -> Tensor:
    """One part's share of the temporal stage's loss, recorded: the squared
    Frobenius error of ``TemporalEncoder``'s next-window predictions over
    the stack, divided by ``count``. ``weights`` are the encoder's ten
    parameters in ``named_parameters`` order, as leaves."""
    w_query, w_key, w_value, w_out, w_ff1, b_ff1, w_ff2, b_ff2, w_pred, b_pred = weights
    heads, window, head_dim = w_query.shape
    t = reshape(Tensor(windows), windows.shape[:-2] + (1,) + windows.shape[-2:])
    attention = softmax_rows(scale(
        matmul(matmul(t, w_query), transpose(matmul(t, w_key))),
        1.0 / math.sqrt(window)))
    side_by_side = swap_axes(matmul(attention, matmul(t, w_value)), -3, -2)
    merged = matmul(reshape(side_by_side, side_by_side.shape[:-2] + (heads * head_dim,)),
                    w_out)
    embedding = add(merged, add(matmul(
        relu(add(matmul(merged, w_ff1), b_ff1)), w_ff2), b_ff2))
    predicted = add(matmul(embedding, w_pred), b_pred)
    return scale(frobenius_sq(sub(Tensor(successors), predicted)), 1.0 / count)
