"""Potentially-safe state extraction on the observed transition graph.

The vertices are the distinct state values of a :class:`oss.StateTable`;
segments without a collision contribute their gap-free consecutive pairs
as directed edges. Every state of every unsafe segment then seeds a
reachability query, and everything reached is pruned; the surviving
safe-segment vertices form the potentially-safe set.

Vertex identity is the exact state value vector, so two states match only
when their coordinates are equal as floats (0.0 equals -0.0). One
``np.unique`` over all states gives every state its vertex id.
``match_radius`` relaxes seeding: a seed grabs every safe-segment vertex
within that Chebyshev (max-norm) distance. Radius 0 is the exact match.

The graph is held in arrays: the distinct values as an (n, d) array whose
row index is the vertex id, and the safe transitions as an (n, n) CSR
adjacency matrix. Seeds for all distinct unsafe values come from one pair
of KD-tree nearest-neighbour queries, and the pruned set from one
breadth-first search out of a virtual source joined to every seed: over
the transposed matrix for ancestors, the matrix itself for descendants,
and the symmetrized matrix for undirected components. The result is a
pair of vertex masks, retained and removed, and a transition's label is
whether both of its ends are retained.

Removal is computed as one union of closures over the frozen graph rather
than sequentially. The two are equivalent: ancestor sets, descendant sets,
and undirected components are all transitively closed, so any vertex a
later query could reach through an earlier-removed vertex was already in
the earlier closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

from .errors import DimensionMismatch
from .oss import StateTable, transitions

REACH_MODES = ("undirected", "ancestors", "descendants")


@dataclass(frozen=True, eq=False)
class SafeGraph:
    """Safe-segment transitions over the distinct states of a table.

    ``vertices[i]`` holds the values of vertex i (every distinct state
    value, lexicographic order) and ``ids[k]`` is the vertex of state k.
    ``safe`` marks the vertices some safe segment visits; ``adjacency``
    stores entry (i, j) when a safe segment steps from i to j.
    """

    vertices: np.ndarray
    ids: np.ndarray
    safe: np.ndarray
    adjacency: sparse.csr_array

    def __len__(self) -> int:
        return self.vertices.shape[0]


def build_safe_graph(table: StateTable) -> SafeGraph:
    """Vertices are the distinct state values; edges the transitions of
    segments without a collision."""
    vertices, ids = table.distinct()
    in_safe = ~table.unsafe_segments()[table.segment_ids()]
    tail = transitions(table)
    tail = tail[in_safe[tail]]
    n = len(vertices)
    safe = np.zeros(n, dtype=bool)
    safe[ids[in_safe]] = True
    adjacency = sparse.csr_array(
        (np.ones(len(tail), dtype=bool), (ids[tail], ids[tail + 1])), shape=(n, n)
    )
    return SafeGraph(vertices, ids, safe, adjacency)


def _closure(g: SafeGraph, seeds: np.ndarray, mode: str) -> np.ndarray:
    """Mask of the vertices reachable from any seed id, seeds included."""
    n, k = len(g), len(seeds)
    tail, head = g.adjacency.nonzero()
    if mode == "ancestors":
        tail, head = head, tail
    # vertex n is a virtual source with an edge to every seed
    walk = sparse.csr_array(
        (np.ones(len(tail) + k), (np.r_[tail, np.full(k, n)], np.r_[head, seeds])),
        shape=(n + 1, n + 1),
    )
    order = csgraph.breadth_first_order(
        walk, n, directed=mode != "undirected", return_predecessors=False
    )
    reached = np.zeros(n + 1, dtype=bool)
    reached[order] = True
    return reached[:n]


def _check_query(mode: str, match_radius: float) -> None:
    if mode not in REACH_MODES:
        raise ValueError(f"unknown reachability mode {mode!r}; choose from {REACH_MODES}")
    if not (math.isfinite(match_radius) and match_radius >= 0.0):
        raise ValueError(f"match_radius must be finite and non-negative, got {match_radius!r}")


def _reach(
    g: SafeGraph, queries: np.ndarray, mode: str, match_radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Union of the closures seeded by the (m, d) ``queries``.

    Seeds are safe vertices within ``match_radius`` of a query. Returns the
    mask of reached vertices and, per query, whether it matched a safe
    vertex.
    """
    safe = np.flatnonzero(g.safe)
    if len(safe) == 0 or len(queries) == 0:
        return np.zeros(len(g), dtype=bool), np.zeros(len(queries), dtype=bool)
    points = g.vertices[safe]
    # nearest-neighbour distances in both directions: per safe vertex to
    # decide whether it is a seed, per query to tell whether it matched.
    # Both return one distance per point, where a ball query's index lists
    # grow with the number of (query, vertex) pairs within the radius.
    seeds = safe[cKDTree(queries).query(points, p=np.inf)[0] <= match_radius]
    matched = cKDTree(points).query(queries, p=np.inf)[0] <= match_radius
    return _closure(g, seeds, mode), matched


def reachable(
    values, g: SafeGraph, mode: str = "undirected", match_radius: float = 0.0
) -> np.ndarray:
    """Mask of the graph vertices in the closure of the safe vertices that
    match the state ``values``.

    mode selects edge traversal: ancestors walks edges backwards,
    descendants forwards, undirected both ways (connected component).
    A state matching no safe vertex yields the empty mask. An unknown mode
    or a negative or non-finite radius raises ValueError, and a state of
    another dimension than the graph raises DimensionMismatch.
    """
    _check_query(mode, match_radius)
    q = np.asarray(values, dtype=float).reshape(1, -1)
    if q.shape[1] != g.vertices.shape[1]:
        raise DimensionMismatch(
            f"state has dimension {q.shape[1]}, the safe graph {g.vertices.shape[1]}"
        )
    return _reach(g, q, mode, match_radius)[0]


@dataclass(frozen=True, eq=False)
class SafeExtraction:
    """Result of the pruning pass, as masks over the distinct states.

    ``vertices`` and ``ids`` are those of :class:`SafeGraph`. ``retained``
    marks the potentially-safe vertices, ``removed`` the safe-segment
    vertices pruned; every other vertex occurs only in unsafe segments.
    """

    vertices: np.ndarray
    ids: np.ndarray
    retained: np.ndarray
    removed: np.ndarray
    n_safe_segments: int
    n_unsafe_segments: int
    seeds_matched: int


def extract_safe_states(
    table: StateTable, mode: str = "undirected", match_radius: float = 0.0
) -> SafeExtraction:
    """Build the safe graph and prune everything reachable from any state
    of any unsafe segment.

    Removals are unioned over the frozen graph (see module docstring for
    why that equals sequential removal), making the result independent of
    unsafe-state order. ``seeds_matched`` counts the unsafe states, with
    multiplicity, that matched at least one safe vertex.
    """
    _check_query(mode, match_radius)
    g = build_safe_graph(table)
    unsafe = table.unsafe_segments()
    queries, weight = np.unique(
        g.ids[unsafe[table.segment_ids()]], return_counts=True
    )
    removed, matched = _reach(g, g.vertices[queries], mode, match_radius)
    return SafeExtraction(
        vertices=g.vertices,
        ids=g.ids,
        retained=g.safe & ~removed,
        removed=removed,
        n_safe_segments=int((~unsafe).sum()),
        n_unsafe_segments=int(unsafe.sum()),
        seeds_matched=int(weight[matched].sum()),
    )


def partition_transitions(
    tails: np.ndarray, ids: np.ndarray, retained: np.ndarray
) -> np.ndarray:
    """Per transition (tail rows from :func:`oss.transitions`): both
    endpoints are retained vertices.

    Its count is the safe count s, the rest the complement count c.
    """
    return retained[ids[tails]] & retained[ids[tails + 1]]
