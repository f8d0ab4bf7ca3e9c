"""Exact classification engine for rational cuspidal plane curves."""

__version__ = "0.1.0"

from .cusp import CuspCombo, CuspType, enumerate_combos, unicuspidal_families
from .lattice import Embedding, complement_form, enumerate_embeddings
from .lens import LensSpace
from .obstruct import classify_degree, run_pipeline
from .plumbing import CapRecipe, build_cap, cap_for_combo, curve_resolution, family_cap

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
    "enumerate_combos",
    "enumerate_embeddings",
    "family_cap",
    "run_pipeline",
    "unicuspidal_families",
    "__version__",
]
