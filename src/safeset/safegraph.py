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

One pass, :func:`extract_safe_states`, builds and prunes the graph: the
distinct values are an (n, d) array whose row index is the vertex id, and
the safe transitions are the tail rows of :func:`oss.transitions` that lie
in safe segments, read as vertex pairs. Seeds for all distinct unsafe
values come from one pair of KD-tree nearest-neighbour queries, and the
pruned set from one breadth-first search out of a virtual source joined to
every seed, over a walk built straight from those pairs: reversed for
ancestors, as recorded for descendants, and both ways for undirected
components. The result is a pair of vertex masks, retained and removed,
and a transition's label is whether both of its ends are retained.

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

from .oss import StateTable, transitions

REACH_MODES = ("undirected", "ancestors", "descendants")


@dataclass(frozen=True, eq=False)
class SafeExtraction:
    """Result of the pruning pass, as masks over the distinct states.

    ``vertices[i]`` holds the values of vertex i (every distinct state
    value, lexicographic order) and ``ids[k]`` is the vertex of state k.
    ``retained`` marks the potentially-safe vertices, ``removed`` the
    safe-segment vertices pruned; every other vertex occurs only in unsafe
    segments.
    """

    vertices: np.ndarray
    ids: np.ndarray
    retained: np.ndarray
    removed: np.ndarray
    n_safe_segments: int
    n_unsafe_segments: int
    seeds_matched: int


def _closure(
    n: int, tail: np.ndarray, head: np.ndarray, seeds: np.ndarray, mode: str
) -> np.ndarray:
    """Mask of the n vertices reachable from any seed id, seeds included,
    along the edges ``tail[i] -> head[i]``."""
    if mode == "ancestors":
        tail, head = head, tail
    k = len(seeds)
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


def extract_safe_states(
    table: StateTable, mode: str = "undirected", match_radius: float = 0.0
) -> SafeExtraction:
    """Prune from the safe-segment vertices everything reachable from any
    state of any unsafe segment.

    mode selects edge traversal: ancestors walks edges backwards,
    descendants forwards, undirected both ways (connected component).
    Seeds are the safe vertices within ``match_radius`` of an unsafe
    state. Removals are unioned over the frozen graph (see module
    docstring for why that equals sequential removal), making the result
    independent of unsafe-state order. ``seeds_matched`` counts the unsafe
    states, with multiplicity, that matched at least one safe vertex. An
    unknown mode or a negative or non-finite radius raises ValueError.
    """
    if mode not in REACH_MODES:
        raise ValueError(f"unknown reachability mode {mode!r}; choose from {REACH_MODES}")
    if not (math.isfinite(match_radius) and match_radius >= 0.0):
        raise ValueError(f"match_radius must be finite and non-negative, got {match_radius!r}")
    vertices, ids = table.distinct()
    unsafe = table.unsafe_segments()
    in_unsafe = unsafe[table.segment_ids()]
    tail = transitions(table)
    tail = tail[~in_unsafe[tail]]
    n = len(vertices)
    safe = np.zeros(n, dtype=bool)
    safe[ids[~in_unsafe]] = True
    queries, weight = np.unique(ids[in_unsafe], return_counts=True)
    removed = np.zeros(n, dtype=bool)
    matched = np.zeros(len(queries), dtype=bool)
    if safe.any() and len(queries):
        candidates = np.flatnonzero(safe)
        points, probes = vertices[candidates], vertices[queries]
        # nearest-neighbour distances in both directions: per safe vertex to
        # decide whether it is a seed, per query to tell whether it matched.
        # Both return one distance per point, where a ball query's index
        # lists grow with the number of (query, vertex) pairs within the
        # radius.
        seeds = candidates[cKDTree(probes).query(points, p=np.inf)[0] <= match_radius]
        matched = cKDTree(points).query(probes, p=np.inf)[0] <= match_radius
        removed = _closure(n, ids[tail], ids[tail + 1], seeds, mode)
    return SafeExtraction(
        vertices=vertices,
        ids=ids,
        retained=safe & ~removed,
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
