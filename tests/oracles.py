"""Shared independent oracles for the test suite.

These deliberately avoid the library's own computation paths: finite
differences for gradients, brute-force pair counting for AUC, and plain
numpy re-implementations of forward formulas where tests need them.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


def finite_difference(loss_fn: Callable[[], float], param_value: np.ndarray,
                      step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar loss w.r.t. one parameter.

    ``param_value`` is mutated in place entry by entry and restored; the loss
    function must re-run the forward pass on each call.
    """
    grad = np.zeros_like(param_value)
    it = np.nditer(param_value, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = param_value[idx]
        param_value[idx] = orig + step
        up = loss_fn()
        param_value[idx] = orig - step
        down = loss_fn()
        param_value[idx] = orig
        grad[idx] = (up - down) / (2.0 * step)
    return grad


def relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-8)
    return float(np.linalg.norm(analytic - numeric) / denom)


def pairwise_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """O(P*N) concordance count: positives above negatives, ties worth 1/2."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def reference_synthetic(config):
    """``data.generate_synthetic`` as one step per row: the AR(1) state is a
    new array at every step and is added to the sinusoid mixture row by
    row, and the events go into a copy of the clean stream, scaled by
    numpy's whole-stream ``std``. The topology comes from the library's own
    generator."""
    from cpsdetect import data

    rng = np.random.default_rng(config.seed)
    topology = data.generate_topology(config.sensors, config.types,
                                      config.density, rng)
    length, n = config.length, topology.n
    t = np.arange(length)
    freqs = rng.uniform(1.0 / 400.0, 1.0 / 40.0, size=(topology.type_count, 3))
    amps = rng.uniform(0.6, 1.4, size=(topology.type_count, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(topology.type_count, 3))
    jitter = rng.uniform(-0.4, 0.4, size=n)
    gains = rng.uniform(0.9, 1.1, size=n)
    clean = np.empty((length, n))
    for i in range(n):
        tau = int(topology.type_of[i])
        signal = np.zeros(length)
        for c in range(3):
            signal += amps[tau, c] * np.sin(
                2.0 * np.pi * freqs[tau, c] * t + phases[tau, c] + jitter[i])
        clean[:, i] = gains[i] * signal
    innovations = rng.normal(scale=config.noise, size=(length, n))
    ar = np.zeros(n)
    for step in range(length):
        ar = 0.8 * ar + innovations[step]
        clean[step] += ar

    values = clean.copy()
    labels = np.zeros(length, dtype=np.int64)
    scale = np.maximum(clean.std(axis=0), data.STD_FLOOR)
    for w in config.anomalies:
        start, end = w.start, w.start + w.duration
        labels[start:end] = 1
        if w.kind == "offset":
            values[start:end, w.sensor] += w.magnitude * scale[w.sensor]
        elif w.kind == "drift":
            onset = start + config.drift_delay
            ramp = np.linspace(0.0, 1.0, end - onset, endpoint=True)
            values[onset:end, w.sensor] += w.magnitude * scale[w.sensor] * ramp
        else:
            hops = topology.hop_distances(w.sensor)
            for u in range(n):
                h = int(hops[u])
                onset = start + h * config.cascade_lag
                if h >= 0 and onset < end:
                    values[onset:end, u] += (
                        w.magnitude * (config.cascade_attenuation ** h) * scale[u])
    return topology, clean, values, labels
