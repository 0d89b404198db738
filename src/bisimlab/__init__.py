"""bisimlab: finite-MDP bisimulations, latent-dynamics training, collapse diagnostics."""

import os

# BISIMLAB_THREADS caps BLAS threads. OpenBLAS and MKL read their variables once,
# when numpy loads, so they are set here, before any submodule imports numpy.
if os.environ.get("BISIMLAB_THREADS"):
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["BISIMLAB_THREADS"])

from bisimlab.mdp import DeterministicMDP, counting_abstract_mdp, random_mdp, validate_mdp
from bisimlab.relation import PairRelation, Partition
from bisimlab.bisim import (
    apply_F,
    distinguishing_oracle,
    empirical_apply_F,
    empirical_lfp,
    least_fixed_point,
    partition_refine,
    quotient,
)
from bisimlab.dataset import TransitionDataset

__all__ = [
    "DeterministicMDP",
    "PairRelation",
    "Partition",
    "TransitionDataset",
    "apply_F",
    "counting_abstract_mdp",
    "distinguishing_oracle",
    "empirical_apply_F",
    "empirical_lfp",
    "least_fixed_point",
    "partition_refine",
    "quotient",
    "random_mdp",
    "validate_mdp",
]

__version__ = "0.1.0"
