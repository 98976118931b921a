"""Shape construction and measurement for extracted state sets."""

from __future__ import annotations

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
    "circumballs",
    "delaunay",
    "hierarchical_cluster",
    "mc_volume",
    "meb_radii",
    "search_optimal_alpha",
]
