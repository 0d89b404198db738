"""Adam with per-component learning-rate groups (scaled encoder rate).

The gradient (a ModelParams, read through its `flat`) and both moments are
flat buffers laid out like ModelParams.flat, so a step is one run of
in-place operations over the whole model, taken in blocks that keep the
scratch arrays in cache. The encoder comes first in that layout, so its
scaled rate covers one prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from bisimlab.nn import ModelParams

BLOCK = 1 << 15  # elements per pass of the update
ENCODER_LR_SCALE = 0.3  # the encoder's rate, as a fraction of the base rate
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """The step count, both moments (laid out like ModelParams.flat) and the update's scratch."""

    t: int = 0
    m_flat: np.ndarray | None = field(default=None, repr=False)
    v_flat: np.ndarray | None = field(default=None, repr=False)
    scratch: np.ndarray | None = field(default=None, repr=False)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState, base_lr: float) -> None:
    """One bias-corrected Adam update in place; encoder group uses the scaled rate."""
    if state.m_flat is None:
        state.m_flat, state.v_flat = np.zeros_like(params.flat), np.zeros_like(params.flat)
        state.scratch = np.empty((2, min(BLOCK, params.flat.size)))
    state.t += 1
    t = state.t
    p, g, m, v = params.flat, grads.flat, state.m_flat, state.v_flat
    c1, c2 = 1.0 - BETA1, 1.0 - BETA2
    bias1, bias2 = 1.0 - BETA1**t, 1.0 - BETA2**t
    enc_lr, n_enc = base_lr * ENCODER_LR_SCALE, params.segment("encoder").stop
    for s in range(0, p.size, BLOCK):
        e = min(s + BLOCK, p.size)
        gb, mb, vb = g[s:e], m[s:e], v[s:e]
        step, denom = state.scratch[0, : e - s], state.scratch[1, : e - s]
        mb *= BETA1
        np.multiply(gb, c1, out=step)
        mb += step
        vb *= BETA2
        np.multiply(gb, c2, out=step)
        step *= gb
        vb += step
        np.divide(mb, bias1, out=step)
        split = min(max(n_enc - s, 0), e - s)  # this block's encoder elements
        step[:split] *= enc_lr
        step[split:] *= base_lr
        np.divide(vb, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPS
        step /= denom
        p[s:e] -= step
