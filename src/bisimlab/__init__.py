"""bisimlab: finite-MDP bisimulations, latent-dynamics training, collapse diagnostics.

Importing the package runs none of its modules; each runs at its first attribute access.
"""

import importlib.util
import os
import sys

# BISIMLAB_THREADS caps BLAS threads. OpenBLAS and MKL read their variables once,
# when numpy loads, so they are set here, before any submodule imports numpy.
if os.environ.get("BISIMLAB_THREADS"):
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["BISIMLAB_THREADS"])

# Dependents first: bench/tracing.py runs the lazy modules in sys.modules order
# while it wraps functions, so a module that imports a name from another runs
# before that name is wrapped. cli is left eager, for `python -m bisimlab.cli`.
for _name in ("presets", "fixtures", "train", "optim", "nn", "analysis", "counting_env",
              "bisim", "dataset", "relation", "mdp"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module

__version__ = "0.1.0"
