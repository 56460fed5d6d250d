"""Reverse-mode automatic differentiation over dense float64 matrices.

Everything the learned stages need lives here: a ``Tensor`` (a value plus,
if it requires a gradient, its graph node), a closed set of differentiable
primitives (``add``, ``sub``, ``scale``, ``matmul``, ``swap_axes``,
``transpose``, ``reshape``, ``relu``, ``softmax_rows`` and
``frobenius_sq``), an adaptive-moment optimizer with decoupled weight
decay, and ``fit``, the one epoch loop every stage runs. The temporal
stage hands ``fit`` a loss built from these primitives, which it
backpropagates; the VGAE and SVDD stages write their reverse passes by
hand and hand ``fit`` their loss and gradients, so their fits record no
graph. A value is a matrix or a stack of matrices (leading stack axes;
vectors are 1 x n); ops act on the last two axes. An elementwise operand of
the other's trailing shape is shared across the stack. ``matmul``
broadcasts its operands' stack axes by numpy rules, so a (B, 1, n, k) stack
times an (H, k, m) stack gives (B, H, n, m); an operand broadcast along an
axis gets its gradient summed over that axis.
A parameter is a constant except inside its ``fit``, which alone makes it
a leaf (through ``trainable``) and a constant again on leaving. Every op
records through one helper, ``_record``: the op computes its value and
hands over one gradient rule per operand, and the result records exactly
when an operand has a node, calling only the rules of operands that do.
Two rules keep NaN/Inf from spreading: a value from outside (CSV, config,
checkpoint array) is checked where it enters, and an op that makes one from
finite operands traps inside ``numeric_context``, which raises numpy's
overflow, invalid-value or division-by-zero error as a ``NumericError``.

A recorded graph is a chain of small node records, kept apart from the
tensors' forward values. A node holds its parents' nodes (the operands that
require a gradient), the op's backward closure, the value's shape and the
gradient received so far. Each closure captures only the arrays its
backward reads: ``matmul`` the other operand, and only for a side that
needs a gradient; ``frobenius_sq`` its input; ``softmax_rows`` its own
output; ``relu`` its mask. Every other forward value, such as
a bias sum or the attention logits before the softmax, is freed as soon as
the expression that made it no longer holds its tensor, so a graph keeps
about half the bytes it would if every node kept its value.

The reverse pass does only work that reaches a trainable tensor: gradients
flow only to tensors that require them, so a constant operand (an input
window) gets no product computed and keeps ``grad is None``. Only
leaves keep a ``.grad`` after :meth:`Tensor.backward`: an interior node's
gradient is dropped as soon as it has been passed on to its parents, so a
reverse pass holds a few gradients at a time, not one per node. A node's
first gradient contribution is stored as it arrives, without a copy, so one
``.grad`` array may be shared by several nodes or be a view of another:
treat every ``.grad`` as read-only and never write into it.

A leaf adds each reverse pass to the gradient it already holds, so a loss
split into parts over consecutive slices of a stack (``CHUNK`` entries
each, see :func:`chunks`) can be backpropagated one part at a time, each
part's graph dropped before the next is built. A broadcast operand's
gradient is summed over the stack in stack order, continuing from the
gradient its node already holds (``carried_sum``, which the hand-written
passes use too), so the parts leave a shared weight or bias with the bits
of one pass over the whole stack.
"""
from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable

import numpy as np

from .errors import NumericError

Array = np.ndarray

# Stack entries (windows or graphs) per part of a chunked loss. A 64-window
# temporal part's graph holds about 1.9 MB at the default sizes, and the
# benchmark's training processes reuse that freed heap for the next part.
# They handed the 3.8 MB of a 128-window part (7.6 MB at 256) back to the
# OS and faulted it in again part after part: about 270 k minor page faults
# per training, against about 8 k at 64 (2-vCPU Xeon host, glibc malloc).
CHUNK = 64


def chunks(count: int) -> list[slice]:
    """Consecutive slices of at most ``CHUNK`` entries that cover a stack
    of ``count``, in stack order."""
    return [slice(start, start + CHUNK) for start in range(0, count, CHUNK)]


def carried_sum(stack: Array, held: Array | None, axes: tuple[int, ...]) -> Array:
    """``stack`` summed over ``axes``, continuing the sum ``held`` of the
    stacks before it: ``held`` is added into the first entry of those axes
    first, in place, so consecutive stacks leave the bits of one sum over
    all of them."""
    if held is not None:
        stack[tuple(slice(0, 1) if i in axes else slice(None)
                    for i in range(stack.ndim))] += held
    return stack.sum(axis=axes)


def _as_matrix(value) -> Array:
    arr = np.asarray(value, dtype=np.float64)
    return arr.reshape(1, -1) if arr.ndim < 2 else arr


class _Node:
    """A tensor that requires a gradient, as the reverse pass sees it.

    ``parents`` are the nodes of the operands that require a gradient (an
    operand used twice appears twice), ``backward`` hands a gradient of
    ``shape`` on to them (``None`` for a leaf), and ``grad`` is the gradient
    received so far. No forward value is kept here.
    """

    __slots__ = ("parents", "backward", "shape", "grad")

    def __init__(self, parents: tuple, backward: Callable | None,
                 shape: tuple[int, ...]):
        self.parents = parents
        self.backward = backward
        self.shape = shape
        self.grad: Array | None = None


class Tensor:
    """A float64 matrix (or stack) plus, if it requires a gradient, its node.

    ``value`` is the forward result. A leaf (``requires_grad=True``, or a
    parameter inside its ``fit``) collects a gradient; a recorded op's result
    requires one too, and its node links the graph. A constant has no node
    and its ``grad`` is always ``None``.
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Add this loss's gradient to every reachable leaf that requires one.

        Requires a 1x1 (scalar) value. The interior nodes' gradients are
        cleared first and each node is visited exactly once; a leaf adds to
        the gradient it already holds (``Adam.zero_grad`` clears it), so
        the parts of a loss split over a stack can be backpropagated one
        after another. An interior node's gradient is dropped once its
        parents have received their share, so afterwards only leaves
        (parameters and ``requires_grad`` inputs) hold a ``.grad``. It
        reads only the arrays the ops' closures captured, so the loss's
        intermediate tensors need not be alive.
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
    node's value was broadcast along (the leading axes it lacks and its
    size-1 axes), in stack order and continuing from the gradient the node
    already holds: that gradient is added into the first entry of those
    axes before the sum, so a stack's gradient summed in consecutive parts
    has the bits of one sum over the whole stack. That entry is written in
    place only when ``fresh`` says the op has just made ``g`` for this node
    alone; a shared upstream gradient is copied first. A ``g`` of the node's
    own shape is stored as it is or makes a new sum with the held one, so
    no ``.grad`` array is ever written in place.
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


# Every op computes its value and hands it to ``_record`` with one gradient
# rule per operand; ``_record`` alone decides whether the result records. With
# no operand requiring a gradient, it returns a constant and calls no rule:
# the rules are module functions, so that path builds no closure and no mask.
# Otherwise the result's parents are the nodes of the operands that require a
# gradient, and only their rules are called. A rule takes its operand's node
# and what the op kept for that operand, and returns the closure that adds the
# operand's share of a result gradient to the node; the closure holds only
# what its share reads. A share made as a new array for its node alone is
# passed on as ``fresh``; the result's gradient or a view of it is not.


def _record(value: Array, a: Tensor, rule_a: Callable, kept_a=None,
            b: Tensor | None = None, rule_b: Callable | None = None,
            kept_b=None) -> Tensor:
    """The result ``value`` of an op on ``a`` (and ``b``): a constant, or a
    recorded tensor whose backward runs the closures that the recorded
    operands' rules return."""
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
    """Row-wise softmax with max subtraction for stability."""
    # The row max as a running maximum over the columns: one pass over every
    # row per column, where a reduction along a short last axis pays per row.
    # A max is exact in any order. Then one full-size array: the shifted
    # logits, exponentiated and normalized in place.
    x = a.value
    row_max = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(row_max, x[..., j:j + 1], out=row_max)
    y = x - row_max
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return _record(y, a, _softmax_rule, y)


def _frobenius_rule(node, x):
    return lambda g: _accumulate(node, 2.0 * g[0, 0] * x, fresh=True)


def frobenius_sq(a: Tensor) -> Tensor:
    """Squared Frobenius norm, i.e. the sum of squared entries."""
    x = a.value
    return _record([[float((x * x).sum())]], a, _frobenius_rule, x)


def uniform_init(rng: np.random.Generator, *shape: int) -> Tensor:
    """Scaled-uniform (fan-in) parameter initialization of a matrix, or of a
    stack of (rows x cols) matrices drawn one after the other."""
    span = 1.0 / math.sqrt(shape[-2])
    return Tensor(rng.uniform(-span, span, size=shape))


def zeros_init(rows: int, cols: int) -> Tensor:
    return Tensor(np.zeros((rows, cols)))


# Adam's moment decay rates and the denominator's guard.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected adaptive-moment optimizer with decoupled weight decay.

    Weight decay is applied directly to the parameter (not mixed into the
    moment estimates), so a nonzero ``weight_decay`` realizes an L2 penalty
    on the weights independently of the gradient scaling. ``step`` takes
    the gradients it applies, one per parameter in order (``None`` for a
    parameter the loss does not reach), and only reads them.
    """

    def __init__(self, params: Iterable[Tensor], lr: float,
                 weight_decay: float = 0.0):
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0.0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.count = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self, grads: list[Array | None]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(
                f"{len(grads)} gradients for {len(self.params)} parameters")
        self.count += 1
        t = self.count
        for p, m, v, g in zip(self.params, self._m, self._v, grads):
            if g is None:
                g = np.zeros_like(p.value)
            elif g.shape != p.value.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter {p.value.shape}")
            # lr * m_hat / (sqrt(v_hat) + eps) [+ lr * decay * p], in the
            # order of that formula, in two scratch arrays.
            m *= BETA1
            m += (1.0 - BETA1) * g
            den = (1.0 - BETA2) * g
            den *= g
            v *= BETA2
            v += den
            np.divide(v, 1.0 - BETA2 ** t, out=den)
            np.sqrt(den, out=den)
            den += EPS
            update = m / (1.0 - BETA1 ** t)
            update *= self.lr
            update /= den
            if self.weight_decay:
                update += np.multiply(self.lr * self.weight_decay, p.value, out=den)
            p.value -= update


@contextlib.contextmanager
def numeric_context(label: str):
    """Trap numpy's overflow, invalid-value and division-by-zero in here and
    raise each as ``NumericError("label: message")``; underflow stays quiet.
    Contexts nest, and the innermost one's label names the failure."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as err:
        raise NumericError(f"{label}: {err}") from None


@contextlib.contextmanager
def trainable(params: list[Tensor]):
    """Constants in ``params`` are leaves inside the block, constants after."""
    made = [p for p in params if p._node is None]
    for p in made:
        p._node = _Node((), None, p.shape)
    try:
        yield
    finally:
        for p in made:
            p._node = None


def fit(named_params: Iterable[tuple[str, Tensor]], loss_fn: Callable,
        epochs: int, lr: float, weight_decay: float = 0.0,
        tag: str = "fit", graph: bool = True) -> list[float]:
    """Adam on the loss ``loss_fn()`` gives, rebuilt each epoch; returns the
    per-epoch losses.

    Each epoch runs in a ``numeric_context`` labelled ``[tag] epoch e/E``.
    With ``graph``, ``loss_fn()`` yields the loss in parts built from this
    module's ops and the parameters are leaves for the run (``trainable``).
    Each part is backpropagated, its gradient adding to what the earlier
    parts left, and dropped before the next part is built, so the peak
    holds one part's graph: for a stage that splits its stack into
    ``chunks``, the same size whatever the stack's length. The epoch's loss
    is the sum of its parts' values, and each leaf keeps the last epoch's
    gradient. Without ``graph``, ``loss_fn()`` returns the loss and one
    gradient per parameter, and no parameter becomes a leaf.
    """
    optimizer = Adam((p for _, p in named_params), lr=lr, weight_decay=weight_decay)
    params = optimizer.params
    trace: list[float] = []
    with trainable(params if graph else []):
        for epoch in range(epochs):
            with numeric_context(f"[{tag}] epoch {epoch + 1}/{epochs}"):
                if graph:
                    loss = 0.0
                    for p in params:
                        p.grad = None
                    for part in loss_fn():
                        part.backward()
                        loss += float(part.value[0, 0])
                        del part  # its graph goes before the next part is built
                    optimizer.step([p.grad for p in params])
                else:
                    loss, grads = loss_fn()
                    optimizer.step(grads)
            trace.append(loss)
    return trace
