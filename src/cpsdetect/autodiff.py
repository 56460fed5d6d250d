"""Training support shared by the learned stages: parameters, parts, the
optimizer and the epoch loop.

Every stage differentiates its loss by hand, in a reverse pass written out
in its own module, so nothing here records a graph. A ``Tensor`` holds one
parameter's value, a matrix or a stack of matrices, drawn in float64 by
``uniform_init`` or ``zeros_init`` and updated in place by ``Adam``, an
adaptive-moment optimizer with decoupled weight decay that works in its
parameters' dtype (the pipeline's fits run in float32). ``fit`` is the one
epoch loop every stage runs: each epoch its ``loss_fn`` returns the loss
and one gradient per parameter, which ``Adam`` applies.

A stage whose loss is a sum over a stack (windows or graphs) runs its
epoch in parts of at most ``CHUNK`` consecutive entries (``chunks``), each
gathered, differentiated and dropped before the next, so an epoch holds one
part's working set whatever the stack's length. A weight shared across the
stack gets its gradient summed over the stack in stack order, continuing
from the sum the earlier parts left (``carried_sum``), so the parts leave
the bits of one pass over the whole stack.

NaN and Inf do not spread: a value from outside (CSV, config, checkpoint
array) is checked where it enters, and a step that makes one from finite
operands traps inside ``numeric_context``, which raises numpy's overflow,
invalid-value or division-by-zero error as a ``NumericError``.
"""
from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable

import numpy as np

from .errors import NumericError

Array = np.ndarray

# Stack entries (windows or graphs) per part of a chunked loss. A 64-window
# temporal part's tape holds about 1.7 MB at the default sizes, and the
# benchmark's training processes reuse that freed heap for the next part.
# With parts twice or four times as large (then built as autodiff graphs of
# 3.8 and 7.6 MB), they handed the heap back to the OS and faulted it in
# again part after part: about 270 k minor page faults per training,
# against about 8 k at 64 (2-vCPU Xeon host, glibc malloc).
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


class Tensor:
    """A parameter: its value, a matrix or a stack of matrices, which
    ``fit``'s optimizer updates in place."""

    __slots__ = ("value",)

    def __init__(self, value: Array):
        self.value = value


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
    the gradients it applies, one per parameter in order, and only reads
    them.
    """

    def __init__(self, params: Iterable[Tensor], lr: float, weight_decay: float):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.count = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self, grads: list[Array]) -> None:
        if len(grads) != len(self.params):
            raise ValueError(
                f"{len(grads)} gradients for {len(self.params)} parameters")
        self.count += 1
        t = self.count
        for p, m, v, g in zip(self.params, self._m, self._v, grads):
            if g.shape != p.value.shape:
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


def fit(named_params: Iterable[tuple[str, Tensor]], loss_fn: Callable,
        epochs: int, lr: float, weight_decay: float = 0.0, *,
        tag: str) -> list[float]:
    """Adam on the loss ``loss_fn()`` gives, rebuilt each epoch; returns the
    per-epoch losses.

    ``loss_fn()`` returns the epoch's loss and one gradient per parameter,
    in ``named_params`` order, which the optimizer applies. Each epoch runs
    in a ``numeric_context`` labelled ``[tag] epoch e/E``.
    """
    optimizer = Adam((p for _, p in named_params), lr=lr, weight_decay=weight_decay)
    trace: list[float] = []
    for epoch in range(epochs):
        with numeric_context(f"[{tag}] epoch {epoch + 1}/{epochs}"):
            loss, grads = loss_fn()
            optimizer.step(grads)
        trace.append(loss)
    return trace
