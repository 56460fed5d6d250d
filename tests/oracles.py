"""Shared independent oracles for the test suite.

These deliberately avoid the library's own computation paths: finite
differences for gradients, brute-force pair counting for AUC, and plain
numpy re-implementations of forward formulas where tests need them.
"""
from __future__ import annotations

import math
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


def reference_topology(sensors, types, density, rng):
    """``data.generate_topology`` one candidate edge at a time: the free
    upper-triangle pairs, shuffled as a list, are added while the edge
    count, recounted from the whole adjacency for each, is below the
    target."""
    from cpsdetect import data

    names = [f"S{i:02d}" for i in range(sensors)]
    type_names = [f"T{j}" for j in range(types)]
    type_of = np.array([i % types for i in range(sensors)])
    adjacency = np.zeros((sensors, sensors), dtype=np.int64)
    for i in range(1, sensors):
        j = int(rng.integers(0, i))
        adjacency[i, j] = adjacency[j, i] = 1
    target = int(round(density * sensors * (sensors - 1) / 2))
    candidates = [(i, j) for i in range(sensors) for j in range(i + 1, sensors)
                  if not adjacency[i, j]]
    rng.shuffle(candidates)
    for i, j in candidates:
        if adjacency.sum() // 2 >= target:
            break
        adjacency[i, j] = adjacency[j, i] = 1
    return data.SensorTopology(names, adjacency, type_of, type_names)


def reference_ar1(innovations):
    """``data.ar1_in_place`` as one step per row, into a new array: the
    AR(1) state starts at zero and is a new array at every step."""
    noise = np.empty_like(innovations)
    ar = np.zeros(innovations.shape[1])
    for step, innovation in enumerate(innovations):
        ar = 0.8 * ar + innovation
        noise[step] = ar
    return noise


def reference_synthetic(config):
    """``data.generate_synthetic`` as one step per row: the AR(1) noise of
    ``reference_ar1`` is added to the sinusoid mixture, and the events go
    into a copy of the clean stream, scaled by numpy's whole-stream
    ``std``. The topology comes from ``reference_topology``."""
    from cpsdetect import data

    rng = np.random.default_rng(config.seed)
    topology = reference_topology(config.sensors, config.types,
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
    clean += reference_ar1(rng.normal(scale=config.noise, size=(length, n)))

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


def _carried(stack, held):
    """``stack`` summed over its leading axis, ``held`` added into its first
    entry before the sum: a gradient summed over consecutive parts."""
    stack = stack.copy()
    if held is not None:
        stack[:1] += held
    return stack.sum(axis=0)


def reference_svdd_gradients(weights, slope, center, samples):
    """The SVDD fit's loss and weight gradients, one out-of-place numpy step
    per step of reverse-mode differentiation through its expression: each
    layer's product, the leaky factor's product, the center's subtraction,
    the squared norm and the 1/n scale, then the gradient rule of each, in
    reverse."""
    inputs, factors, out = [], [], samples
    for w in weights[:-1]:
        inputs.append(out)
        z = out @ w
        factor = np.where(z > 0.0, z.dtype.type(1.0), z.dtype.type(slope))
        factors.append(factor)
        out = z * factor
    inputs.append(out)
    diff = out @ weights[-1] - np.broadcast_to(center, (len(samples), len(center)))
    scale = 1.0 / len(samples)
    loss = float((diff * diff).sum()) * scale
    g = 2.0 * (1.0 * scale) * diff
    grads = [inputs[-1].T @ g]
    for w, inp, factor in zip(reversed(weights[1:]), reversed(inputs[:-1]),
                              reversed(factors)):
        g = (g @ w.T) * factor
        grads.append(inp.T @ g)
    return loss, grads[::-1]


def reference_vgae_forward(w_hidden, w_heads, norm, mixed):
    """The VGAE encoder's stacked products, one out-of-place numpy step
    each: the hidden layer before its ReLU, the propagated hidden layer and
    the heads, the posterior means in their first ``embed_dim`` columns."""
    a = mixed @ w_hidden
    p = norm @ np.maximum(a, 0.0)
    return a, p, p @ w_heads


def reference_vgae_part(w_hidden, w_heads, kl_weight, norm, mixed, target,
                        noise, count, held):
    """One part of a VGAE fit's epoch: its share of the loss and the weight
    gradients summed over it and the earlier parts (``held``, one per
    weight or ``None``), one out-of-place numpy step per operation of the
    loss and per gradient rule of reverse-mode differentiation through it.

    The loss is (‖target − σ(r rᵀ)‖² + kl_weight · ½ Σ(μ² + e^λ − λ − 1)) /
    count, with r = μ + e^{λ/2} · noise, (μ, raw λ) = the heads' column
    halves and λ the raw half clipped to [−10, 10]. Of the gradient terms,
    μ's and λ's three each are summed in the order reverse-mode
    differentiation of that expression meets them; every other sum has two
    terms.
    """
    embed = w_heads.shape[-1] // 2
    a, p, heads = reference_vgae_forward(w_hidden, w_heads, norm, mixed)
    mean = heads[..., :embed].copy()
    raw = heads[..., embed:].copy()
    logvar = np.clip(raw, -10.0, 10.0)
    std = np.exp(logvar * 0.5)
    r = mean + std * noise
    rt = np.swapaxes(r, -1, -2).copy()
    y = np.exp(-np.logaddexp(0.0, -(r @ rt)))
    diff = target - y
    variance = np.exp(logvar)
    kl = (((mean * mean + variance) - logvar) - 1.0).sum()
    c = 1.0 / count
    loss = (float((diff * diff).sum()) + kl * 0.5 * kl_weight) * c

    gk = c * kl_weight * 0.5
    g_gram = ((2.0 * c) * diff) * -1.0 * y * (1.0 - y)
    g_r = (g_gram @ np.swapaxes(rt, -1, -2)
           + np.swapaxes(np.swapaxes(r, -1, -2) @ g_gram, -1, -2))
    g_mean = (g_r + gk * mean) + gk * mean
    g_logvar = (-gk + g_r * noise * std * 0.5) + gk * variance
    g_logvar = g_logvar * ((raw >= -10.0) & (raw <= 10.0))
    mean_half, logvar_half = np.zeros_like(heads), np.zeros_like(heads)
    mean_half[..., :embed] = g_mean
    logvar_half[..., embed:] = g_logvar
    g_heads = mean_half + logvar_half
    g_hidden = (np.swapaxes(norm, -1, -2) @ (g_heads @ w_heads.T)) * (a > 0.0)
    return loss, [_carried(np.swapaxes(mixed, -1, -2) @ g_hidden, held[0]),
                  _carried(np.swapaxes(p, -1, -2) @ g_heads, held[1])]


def reference_softmax_rows(x):
    """Softmax along the last axis, out of place: each row shifted by its
    numpy max, exponentiated and divided by its numpy sum."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def by_head(projection, heads):
    """A projection as the encoder stores it, (window x heads * head_dim)
    with head h in the h-th column block, viewed per head: (heads x window
    x head_dim)."""
    window, width = projection.shape
    return projection.reshape(window, heads, width // heads).swapaxes(0, 1)


def column_blocks(stack):
    """A (..., heads, window, head_dim) stack of per-head matrices as one
    (..., window, heads * head_dim) array, head h in the h-th column block:
    ``by_head``'s inverse, as a copy."""
    shape = stack.shape[:-3] + (stack.shape[-2], -1)
    return np.swapaxes(stack, -3, -2).reshape(shape)


def reference_temporal_forward(weights, windows, heads):
    """The temporal encoder's forward pass over a stack of windows, one
    out-of-place numpy step per operation, every head in one stacked
    product per projection, and the heads' outputs made side by side by a
    copy of their transpose: each step's result by name, the embedding
    last. ``weights`` are the encoder's parameter arrays in
    ``named_parameters`` order, of an encoder of ``heads`` heads; each
    projection is multiplied through its per-head view (``by_head``)."""
    w_query, w_key, w_value, w_out, w_ff1, b_ff1, w_ff2, b_ff2 = weights[:8]
    window, head_dim = w_query.shape[0], w_query.shape[1] // heads
    x = windows.reshape(windows.shape[:-2] + (1,) + windows.shape[-2:])
    q = x @ by_head(w_query, heads)
    k = x @ by_head(w_key, heads)
    kt = np.swapaxes(k, -1, -2).copy()
    logits = q @ kt
    a = reference_softmax_rows(logits * (1.0 / math.sqrt(window)))
    v = x @ by_head(w_value, heads)
    mixed = a @ v
    side_by_side = np.swapaxes(mixed, -3, -2).copy()
    concatenated = side_by_side.reshape(side_by_side.shape[:-2] + (heads * head_dim,))
    merged = concatenated @ w_out
    pre = merged @ w_ff1 + b_ff1
    hidden = np.maximum(pre, 0.0)
    refined = hidden @ w_ff2 + b_ff2
    return {"x": x, "q": q, "kt": kt, "a": a, "v": v,
            "side_by_side": side_by_side, "concatenated": concatenated,
            "merged": merged, "pre": pre, "hidden": hidden,
            "embedding": merged + refined}


def reference_temporal_part(weights, windows, successors, count, held, heads):
    """One part of a temporal fit's epoch: its share of the loss and the
    ten weight gradients summed over it and the earlier parts (``held``,
    one per weight or ``None``), one out-of-place numpy step per operation
    of the loss and per gradient rule of reverse-mode differentiation
    through it. ``weights`` are the encoder's parameter arrays in
    ``named_parameters`` order, of an encoder of ``heads`` heads, and the
    gradients take their layout: each projection's per-head gradients are
    laid side by side before the sum over the part.

    The loss is ‖successors − ((m + relu(m W₁ + b₁) W₂ + b₂) W_p + b_p)‖²
    / count, with m the heads' attention outputs side by side times W_o,
    and head h's output softmax(q kᵀ / √window) v of the window's
    projections q, k and v. Every sum of two gradient terms commutes, so
    its order does not matter.
    """
    w_query, w_key, w_value, w_out, w_ff1, b_ff1, w_ff2, b_ff2, w_pred, b_pred = weights
    scale = 1.0 / math.sqrt(w_query.shape[0])
    f = reference_temporal_forward(weights, windows, heads)
    x, q, kt, a, v, side_by_side, concatenated, merged, pre, hidden, embedding = (
        f[name] for name in ("x", "q", "kt", "a", "v", "side_by_side", "concatenated",
                             "merged", "pre", "hidden", "embedding"))
    predicted = embedding @ w_pred + b_pred
    d = successors - predicted
    c = 1.0 / count
    loss = float((d * d).sum()) * c

    g_pred = (2.0 * c) * d * -1.0
    g_w_pred = np.swapaxes(embedding, -1, -2) @ g_pred
    g_embedding = g_pred @ np.swapaxes(w_pred, -1, -2)
    g_w_ff2 = np.swapaxes(hidden, -1, -2) @ g_embedding
    g_pre = (g_embedding @ np.swapaxes(w_ff2, -1, -2)) * (pre > 0.0)
    g_w_ff1 = np.swapaxes(merged, -1, -2) @ g_pre
    g_merged = g_embedding + g_pre @ np.swapaxes(w_ff1, -1, -2)
    g_w_out = np.swapaxes(concatenated, -1, -2) @ g_merged
    g_concatenated = g_merged @ np.swapaxes(w_out, -1, -2)
    g_mixed = np.swapaxes(g_concatenated.reshape(side_by_side.shape), -3, -2)
    g_a = g_mixed @ np.swapaxes(v, -1, -2)
    g_v = np.swapaxes(a, -1, -2) @ g_mixed
    g_w_value = np.swapaxes(x, -1, -2) @ g_v
    g_scaled = a * (g_a - (g_a * a).sum(axis=-1, keepdims=True))
    g_logits = g_scaled * scale
    g_q = g_logits @ np.swapaxes(kt, -1, -2)
    g_kt = np.swapaxes(q, -1, -2) @ g_logits
    g_k = np.swapaxes(g_kt, -1, -2)
    g_w_query = np.swapaxes(x, -1, -2) @ g_q
    g_w_key = np.swapaxes(x, -1, -2) @ g_k
    stacks = [column_blocks(g_w_query), column_blocks(g_w_key),
              column_blocks(g_w_value), g_w_out, g_w_ff1, g_pre,
              g_w_ff2, g_embedding, g_w_pred, g_pred]
    return loss, [_carried(stack, h) for stack, h in zip(stacks, held)]
