"""Exact classification engine for rational cuspidal plane curves.

Importing the package loads no stage: each exported name loads the
module that owns it when it is first used (PEP 562).
"""

__version__ = "0.1.0"

__all__ = [
    "CapRecipe",
    "CuspCombo",
    "CuspType",
    "Embedding",
    "LensSpace",
    "build_cap",
    "cap_for_combo",
    "classify_degree",
    "complement_form",
    "curve_resolution",
    "enumerate_embeddings",
    "family_cap",
    "run_pipeline",
    "unicuspidal_families",
    "__version__",
]

# the stage module that owns each exported name
_OWNERS = {
    "CuspCombo": "cusp",
    "CuspType": "cusp",
    "unicuspidal_families": "cusp",
    "Embedding": "lattice",
    "complement_form": "lattice",
    "enumerate_embeddings": "lattice",
    "LensSpace": "lens",
    "classify_degree": "obstruct",
    "run_pipeline": "obstruct",
    "CapRecipe": "plumbing",
    "build_cap": "plumbing",
    "cap_for_combo": "plumbing",
    "curve_resolution": "plumbing",
    "family_cap": "plumbing",
}


def __getattr__(name: str):
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_OWNERS[name]}", __name__), name)
