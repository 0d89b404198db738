"""Constructive zero-loss parameters for tabular MDPs.

For one-hot observations there is an exact witness: an identity encoder, a
two-layer ReLU net implementing the transition table, and a table-lookup
auxiliary head. Both training losses are exactly zero, which turns the
no-collapse theorem into an executable check without any training.
"""

from __future__ import annotations

import numpy as np

from bisimlab.mdp import DeterministicMDP
from bisimlab.nn import Linear, ModelConfig, ModelParams, Param


def perfect_fit_params(mdp: DeterministicMDP) -> ModelParams:
    n = mdp.num_observations
    na = mdp.num_actions
    d_p = mdp.aux_dim
    config = ModelConfig(
        obs_kind="onehot",
        obs_shape=(n,),
        num_actions=na,
        latent_dim=n,
        aux_dim=d_p,
        encoder_hidden=(),
        dynamics_hidden=n * na,
        aux_hidden=n,
        decoder_hidden=(),
    )
    encoder = [Linear(Param(np.eye(n)), Param(np.zeros(n)))]

    # hidden unit (k, a) fires iff z = e_k and action one-hot = e_a
    W0 = np.zeros((n + na, n * na))
    for k in range(n):
        for a in range(na):
            W0[k, k * na + a] = 1.0
            W0[n + a, k * na + a] = 1.0
    b0 = -np.ones(n * na)
    W1 = np.zeros((n * na, n))
    for k in range(n):
        for a in range(na):
            W1[k * na + a, mdp.transition[k, a]] = 1.0
    dynamics = [Linear(Param(W0), Param(b0)), Linear(Param(W1), Param(np.zeros(n)))]

    # two identity ReLU layers (one-hot latents are nonnegative), then table lookup
    eye = np.eye(n)
    aux_head = [
        Linear(Param(eye), Param(np.zeros(n))),
        Linear(Param(eye), Param(np.zeros(n))),
        Linear(Param(mdp.aux), Param(np.zeros(d_p))),
    ]
    decoder_probe = [Linear(Param(np.zeros((n, n))), Param(np.zeros(n)))]
    return ModelParams(
        config=config,
        encoder=encoder,
        dynamics=dynamics,
        aux_head=aux_head,
        decoder_probe=decoder_probe,
    )


def one_hot_observations(mdp: DeterministicMDP) -> np.ndarray:
    return np.eye(mdp.num_observations)
