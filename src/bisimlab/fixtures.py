"""Constructive zero-loss parameters for tabular MDPs.

For one-hot observations there is an exact witness: an identity encoder, a
two-layer ReLU net implementing the transition table, and a table-lookup
auxiliary head. Both training losses are exactly zero, which turns the
no-collapse theorem into an executable check without any training.
"""

from __future__ import annotations

import numpy as np

from bisimlab.mdp import DeterministicMDP
from bisimlab.nn import ModelConfig, ModelParams, param_shapes


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
    # hidden unit u = k * na + a fires iff z = e_k and the action one-hot is e_a
    units = np.arange(n * na)
    k, a = units // na, units % na
    W0 = np.zeros((n + na, n * na))
    W0[k, units] = 1.0
    W0[n + a, units] = 1.0
    W1 = np.zeros((n * na, n))
    W1[units, mdp.transition[k, a]] = 1.0
    eye = np.eye(n)
    # every bias and the decoder probe are zero, except the dynamics' first bias
    arrays = {name: np.zeros(shape) for name, shape in param_shapes(config).items()}
    arrays.update({
        "encoder.0.W": eye,
        "dynamics.0.W": W0,
        "dynamics.0.b": -np.ones(n * na),
        "dynamics.1.W": W1,
        # two identity ReLU layers (one-hot latents are nonnegative), then table lookup
        "aux_head.0.W": eye,
        "aux_head.1.W": eye,
        "aux_head.2.W": mdp.aux,
    })
    return ModelParams.from_arrays(config, arrays)


def one_hot_observations(mdp: DeterministicMDP) -> np.ndarray:
    return np.eye(mdp.num_observations)
