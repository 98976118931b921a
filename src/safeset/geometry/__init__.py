"""Shape construction and measurement for extracted state sets."""

from __future__ import annotations

import numpy as np

from .cluster import hierarchical_cluster
from .hullshape import ConvexHullShape
from .minball import circumballs, meb_radii
from .montecarlo import McVolume, mc_volume
from .search import AlphaSearchResult, search_optimal_alpha
from .simplicial import (
    DEFAULT_MAX_EXACT_DIM,
    AlphaShape,
    SimplicialComplex,
    alpha_complex,
    delaunay,
)
from .union import ShapeUnion, UnionMeasure


def check_exclusion(shape, excluded: np.ndarray) -> tuple[bool, np.ndarray]:
    """Verify that none of the excluded points lies inside the shape.

    Returns (ok, offender_mask). An empty exclusion set passes trivially.
    """
    excluded = np.asarray(excluded, dtype=float)
    if excluded.size == 0:
        return True, np.zeros(0, dtype=bool)
    inside = shape.contains_batch(excluded)
    return not bool(inside.any()), inside


__all__ = [
    "AlphaSearchResult",
    "AlphaShape",
    "ConvexHullShape",
    "DEFAULT_MAX_EXACT_DIM",
    "McVolume",
    "ShapeUnion",
    "SimplicialComplex",
    "UnionMeasure",
    "alpha_complex",
    "check_exclusion",
    "circumballs",
    "delaunay",
    "hierarchical_cluster",
    "mc_volume",
    "meb_radii",
    "search_optimal_alpha",
]
