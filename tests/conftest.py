import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cpsdetect import autodiff

# Make the shared oracle helpers importable from every test module.
sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def made_tensors(monkeypatch):
    """For every Tensor made from here on: whether it records a graph,
    whether an ``autodiff.fit`` was running, and whether numpy's overflow,
    invalid-value and division-by-zero traps were on."""
    made, fitting = [], []
    tensor_init, fit = autodiff.Tensor.__init__, autodiff.fit

    def spy(self, value, requires_grad=False, _parents=(), _backward=None):
        flags = np.geterr()
        trapped = all(flags[kind] == "raise" for kind in ("over", "invalid", "divide"))
        made.append((bool(_parents), bool(fitting), trapped))
        tensor_init(self, value, requires_grad, _parents, _backward)

    def marked_fit(*args, **kwargs):
        fitting.append(True)
        try:
            return fit(*args, **kwargs)
        finally:
            fitting.pop()

    monkeypatch.setattr(autodiff.Tensor, "__init__", spy)
    monkeypatch.setattr(autodiff, "fit", marked_fit)
    return made
