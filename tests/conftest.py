import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cpsdetect import autodiff, pipeline, svdd, temporal, vgae

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
    """Every Tensor made from here on."""
    made = []
    tensor_init = autodiff.Tensor.__init__

    def spy(self, value):
        made.append(self)
        tensor_init(self, value)

    monkeypatch.setattr(autodiff.Tensor, "__init__", spy)
    return made


# Each stage's map, as training and scoring call it: the object that
# binds it and its name there.
STAGE_MAPS = {"TemporalEncoder.encode": (temporal.TemporalEncoder, "encode"),
              "weighted_graph": (pipeline, "weighted_graph"),
              "VgaeEncoder.encode": (vgae.VgaeEncoder, "encode"),
              "SvddNet.forward": (svdd.SvddNet, "forward")}


@pytest.fixture
def trapped_calls(monkeypatch):
    """For every call from here on of a map in ``STAGE_MAPS``: its name and
    whether numpy's overflow, invalid-value and division-by-zero traps were
    on."""
    calls = []

    def spied(name, original):
        def spy(*args, **kwargs):
            flags = np.geterr()
            calls.append((name, all(flags[kind] == "raise"
                                    for kind in ("over", "invalid", "divide"))))
            return original(*args, **kwargs)
        return spy

    for name, (owner, attribute) in STAGE_MAPS.items():
        monkeypatch.setattr(owner, attribute, spied(name, getattr(owner, attribute)))
    return calls
