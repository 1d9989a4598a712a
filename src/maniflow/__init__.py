"""Spin lattices, decoder-manifold flows, control, and planning toys.

Submodules load on first attribute access, so ``import maniflow.cli`` skips the ones the CLI never uses.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["control", "experiments", "infophase", "manifold", "planner", "spins", "workspace", "__version__"]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
