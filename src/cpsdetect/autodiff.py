"""Reverse-mode automatic differentiation over dense float64 matrices.

Everything the learned stages need lives here: a ``Tensor`` graph node, a
closed set of differentiable primitives, an adaptive-moment optimizer with
decoupled weight decay, and the one training loop every stage runs. A value
is a matrix or a stack of matrices (leading stack axes; vectors are 1 x n);
ops act on the last two axes. An elementwise operand of the other's trailing
shape is shared across the stack. ``matmul`` broadcasts its operands' stack
axes by numpy rules, so a (B, 1, n, k) stack times an (H, k, m) stack gives
(B, H, n, m); an operand broadcast along an axis gets its gradient summed
over that axis.
``no_grad`` turns graph recording off for inference.
Every public operation validates that its result is finite and raises
``NumericError`` otherwise, so NaN/Inf never propagate silently.

The reverse pass does only work that reaches a trainable tensor: gradients
flow only to tensors that require them, so a constant operand (an input, a
fixed adjacency) gets no product computed and keeps ``grad is None``. Only
leaves keep a ``.grad`` after :meth:`Tensor.backward`: an interior node's
gradient is dropped as soon as it has been passed on to its parents, so a
reverse pass holds a few gradients at a time, not one per node. A node's
first gradient contribution is stored as it arrives, without a copy, so one
``.grad`` array may be shared by several nodes or be a view of another:
treat every ``.grad`` as read-only and never write into it.
"""
from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError

Array = np.ndarray


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: results have no parents."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _as_matrix(value) -> Array:
    arr = np.asarray(value, dtype=np.float64)
    return arr.reshape(1, -1) if arr.ndim < 2 else arr


class Tensor:
    """A float64 matrix (or stack) plus the plumbing to replay its backward pass.

    ``value`` is the forward result, ``grad`` is materialized lazily during
    :meth:`backward`. Leaf tensors created with ``requires_grad=True`` are
    trainable parameters; everything else is either a constant or an
    intermediate node holding references to its parents.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad: bool = False,
                 _parents: tuple = (), _backward: Callable | None = None):
        self.value = _as_matrix(value)
        if not np.isfinite(self.value).all():
            raise NumericError(
                f"non-finite entries in tensor of shape {self.value.shape}")
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Populate the gradient of every reachable leaf that requires one.

        Requires a 1x1 (scalar) value. Each call recomputes gradients from
        scratch: grads of all nodes in this graph are cleared first, so
        repeated calls on the same graph are deterministic and each node is
        visited exactly once. An interior node's gradient is dropped once
        its parents have received their share, so afterwards only leaves
        (parameters and ``requires_grad`` inputs) hold a ``.grad``.
        """
        if self.shape != (1, 1):
            raise ValueError(f"backward requires a 1x1 loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones((1, 1))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None


def _accumulate(t: Tensor, g: Array) -> None:
    """Add ``g`` to the gradient of ``t``, which must require one.

    A ``g`` of the broadcast result's shape is first summed over every axis
    ``t`` was broadcast along: the leading axes it lacks and its size-1 axes.
    The first contribution is stored as it is; a later one makes a new sum,
    so no ``.grad`` array is ever written in place.
    """
    shape = t.value.shape
    if g.shape != shape:
        lead = g.ndim - len(shape)
        axes = tuple(range(lead)) + tuple(
            lead + i for i, n in enumerate(shape) if n == 1)
        g = g.sum(axis=axes, keepdims=True).reshape(shape)
    t.grad = g if t.grad is None else t.grad + g


def _node(value, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(value, requires_grad=True,
                      _parents=tuple(parents), _backward=backward)
    return Tensor(value)


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    """Equal shapes, or one shape is the other's trailing shape."""
    short, long = sorted((a.shape, b.shape), key=len)
    if long[len(long) - len(short):] != short:
        raise ValueError(f"{op} shape mismatch: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _node(a.value + b.value, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, -g)

    return _node(a.value - b.value, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product."""
    _check_broadcast(a, b, "mul")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * b.value)
        if b.requires_grad:
            _accumulate(b, g * a.value)

    return _node(a.value * b.value, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; the stack axes broadcast."""
    try:
        value = a.value @ b.value
    except ValueError:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}") from None

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ np.swapaxes(b.value, -1, -2))
        if b.requires_grad:
            _accumulate(b, np.swapaxes(a.value, -1, -2) @ g)

    return _node(value, (a, b), backward)


def swap_axes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    """Exchange two axes; the result is a C-contiguous copy."""
    def backward(g):
        _accumulate(a, np.swapaxes(g, axis1, axis2))

    return _node(np.swapaxes(a.value, axis1, axis2).copy(), (a,), backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    return swap_axes(a, -1, -2)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same entries, read in C order, in a new shape."""
    def backward(g):
        _accumulate(a, g.reshape(a.shape))

    return _node(a.value.reshape(shape), (a,), backward)


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar (not differentiated w.r.t. the scalar)."""
    factor = float(factor)

    def backward(g):
        _accumulate(a, g * factor)

    return _node(a.value * factor, (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.value > 0.0

    def backward(g):
        _accumulate(a, g * mask)

    return _node(np.maximum(a.value, 0.0), (a,), backward)


def leaky_relu(a: Tensor, slope: float = 0.1) -> Tensor:
    # The output's derivative, gathered with take(): in the SVDD fit it beats
    # both np.where's branchy loop and fancy indexing.
    factor = np.array([slope, 1.0]).take((a.value > 0.0).view(np.uint8))

    def backward(g):
        _accumulate(a, g * factor)

    return _node(a.value * factor, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    # exp(-logaddexp(0, -x)) is the overflow-safe logistic for both tails,
    # computed in place in the one array the negation allocates.
    y = np.negative(a.value)
    np.logaddexp(0.0, y, out=y)
    np.negative(y, out=y)
    np.exp(y, out=y)

    def backward(g):
        _accumulate(a, g * y * (1.0 - y))

    return _node(y, (a,), backward)


def exp(a: Tensor) -> Tensor:
    # Overflow surfaces as a NumericError from the constructor, not a warning.
    with np.errstate(over="ignore"):
        y = np.exp(a.value)

    def backward(g):
        _accumulate(a, g * y)

    return _node(y, (a,), backward)


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

    def backward(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accumulate(a, y * (g - inner))

    return _node(y, (a,), backward)


def total_sum(a: Tensor) -> Tensor:
    def backward(g):
        _accumulate(a, np.full_like(a.value, g[0, 0]))

    return _node([[a.value.sum()]], (a,), backward)


def frobenius_sq(a: Tensor) -> Tensor:
    """Squared Frobenius norm, i.e. the sum of squared entries."""
    def backward(g):
        _accumulate(a, 2.0 * g[0, 0] * a.value)

    return _node([[float((a.value * a.value).sum())]], (a,), backward)


def clamp(a: Tensor, low: float, high: float) -> Tensor:
    """Clip entries to [low, high]; gradient flows where the input is in range."""
    mask = (a.value >= low) & (a.value <= high)

    def backward(g):
        _accumulate(a, g * mask)

    return _node(np.clip(a.value, low, high), (a,), backward)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= a.shape[-1]):
        raise ValueError(f"column slice [{start}:{stop}] out of range for {a.shape}")

    def backward(g):
        full = np.zeros_like(a.value)
        full[..., start:stop] = g
        _accumulate(a, full)

    return _node(a.value[..., start:stop].copy(), (a,), backward)


def uniform_init(rng: np.random.Generator, *shape: int) -> Tensor:
    """Scaled-uniform (fan-in) parameter initialization of a matrix, or of a
    stack of (rows x cols) matrices drawn one after the other."""
    span = 1.0 / math.sqrt(shape[-2])
    return Tensor(rng.uniform(-span, span, size=shape), requires_grad=True)


def zeros_init(rows: int, cols: int) -> Tensor:
    return Tensor(np.zeros((rows, cols)), requires_grad=True)


class Adam:
    """Bias-corrected adaptive-moment optimizer with decoupled weight decay.

    Weight decay is applied directly to the parameter (not mixed into the
    moment estimates), so a nonzero ``weight_decay`` realizes an L2 penalty
    on the weights independently of the gradient scaling. ``step`` only
    reads each ``.grad``; it never writes into one.
    """

    def __init__(self, params: Iterable[Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        if lr <= 0.0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0.0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.count = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.count += 1
        t = self.count
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.value)
            elif g.shape != p.value.shape:
                raise ValueError(
                    f"gradient shape {g.shape} does not match parameter {p.value.shape}")
            # lr * m_hat / (sqrt(v_hat) + eps) [+ lr * decay * p], in the
            # order of that formula, in two scratch arrays.
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            den = (1.0 - self.beta2) * g
            den *= g
            v *= self.beta2
            v += den
            np.divide(v, 1.0 - self.beta2 ** t, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            update = m / (1.0 - self.beta1 ** t)
            update *= self.lr
            update /= den
            if self.weight_decay:
                update += np.multiply(self.lr * self.weight_decay, p.value, out=den)
            p.value -= update


def fit(params: Iterable[Tensor], loss_fn: Callable[[], Tensor], epochs: int,
        lr: float, weight_decay: float = 0.0,
        log: Callable[[str], None] | None = None, tag: str = "fit") -> list[float]:
    """Adam on ``loss_fn()``, rebuilt each epoch; returns the per-epoch losses.

    Every tenth of the run is logged as ``[tag] epoch e/E loss=...``.
    """
    optimizer = Adam(params, lr=lr, weight_decay=weight_decay)
    trace: list[float] = []
    for epoch in range(epochs):
        optimizer.zero_grad()
        loss = loss_fn()
        loss.backward()
        optimizer.step()
        trace.append(float(loss.value[0, 0]))
        if log is not None and (epoch + 1) % max(1, epochs // 10) == 0:
            log(f"[{tag}] epoch {epoch + 1}/{epochs} loss={trace[-1]:.6f}")
    return trace
