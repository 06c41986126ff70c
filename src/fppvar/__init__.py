"""Variance inequalities on the Gaussian cube and first passage percolation
Monte Carlo at desk scale."""

import importlib

from . import (cube_averaging, edge_distributions, experiments, fpp, gaussian,
               phi, poincare)

__version__ = "0.1.0"

__all__ = [
    "cli",
    "cube_averaging",
    "edge_distributions",
    "experiments",
    "fpp",
    "gaussian",
    "phi",
    "poincare",
    "__version__",
]


def __getattr__(name):
    # cli is imported on first use: importing it with the package makes
    # ``python -m fppvar.cli`` warn that the module is already loaded.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
