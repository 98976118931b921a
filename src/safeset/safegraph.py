"""Potentially-safe state extraction on the observed transition graph.

Safe trajectories contribute their states as vertices and their gap-free
consecutive pairs as directed edges. Every state of every unsafe trajectory
then seeds a reachability query, and everything reached is pruned; the
surviving vertices form the potentially-safe set.

Vertex identity is the exact state value vector, so two states match only
when their coordinates are equal as floats. ``match_radius`` relaxes
seeding: a seed grabs every vertex within that Chebyshev (max-norm)
distance. Radius 0 is the exact match.

The graph is held in arrays: the distinct state values as an (n, d) array
whose row index is the vertex id, and the transitions as an (n, n) CSR
adjacency matrix. Seeds for all unsafe states come from one pair of KD-tree
nearest-neighbour queries, and the pruned set from one breadth-first search
out of a virtual source joined to every seed: over the transposed matrix
for ancestors, the matrix itself for descendants, and the symmetrized
matrix for undirected components.

Removal is computed as one union of closures over the frozen graph rather
than sequentially. The two are equivalent: ancestor sets, descendant sets,
and undirected components are all transitively closed, so any vertex a
later query could reach through an earlier-removed vertex was already in
the earlier closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.spatial import cKDTree

from .errors import DimensionMismatch
from .oss import OssState, StateTrajectory, TransitionSet, classify_trajectories

REACH_MODES = ("undirected", "ancestors", "descendants")

Vertex = tuple[float, ...]


@dataclass(frozen=True, eq=False)
class SafeGraph:
    """Directed graph of safe-trajectory transitions over distinct states.

    ``vertices[i]`` holds the state values of vertex ``i``; ``adjacency``
    stores entry (i, j) when some safe trajectory steps from i to j.
    """

    vertices: np.ndarray
    adjacency: sparse.csr_array

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def edge_count(self) -> int:
        return self.adjacency.nnz

    def values(self, mask: np.ndarray | None = None) -> frozenset[Vertex]:
        """Value tuples of all vertices, or of those selected by ``mask``."""
        rows = self.vertices if mask is None else self.vertices[mask]
        return frozenset(map(tuple, rows.tolist()))

    def without(self, removed: np.ndarray) -> "SafeGraph":
        """Copy with the masked vertices (and their incident edges) deleted."""
        keep = ~np.asarray(removed, dtype=bool)
        return SafeGraph(self.vertices[keep], self.adjacency[keep][:, keep])


def _rows(values: Sequence[Vertex], dim: int) -> np.ndarray:
    """Stack value tuples into an (m, d) array, rejecting ragged input."""
    if not values:
        return np.empty((0, dim))
    try:
        return np.array(values, dtype=float).reshape(len(values), -1)
    except ValueError:
        raise DimensionMismatch("states have differing dimensions") from None


def build_safe_graph(safe: Sequence[StateTrajectory]) -> SafeGraph:
    """Vertices are deduplicated state values; edges are gap-free pairs."""
    states = [s.values for t in safe for s in t.states]
    # return_index selects a stable sort, so each vertex row is the first
    # occurrence of its value, as a dict keyed by value tuples would keep
    vertices, _, ids = np.unique(
        _rows(states, 0), axis=0, return_index=True, return_inverse=True
    )
    ids = ids.reshape(-1)
    tails, offset = [np.empty(0, dtype=np.intp)], 0
    for t in safe:
        tails.append(np.flatnonzero(t.gap_free()) + offset)
        offset += len(t.states)
    tail = np.concatenate(tails)
    n = len(vertices)
    adjacency = sparse.csr_array(
        (np.ones(len(tail), dtype=bool), (ids[tail], ids[tail + 1])), shape=(n, n)
    )
    return SafeGraph(vertices, adjacency)


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
    g: SafeGraph, queries: Sequence[Vertex], mode: str, match_radius: float
) -> tuple[np.ndarray, int]:
    """Union of the closures seeded by ``queries``.

    Returns the mask of reached vertices and the number of queries that
    matched at least one vertex.
    """
    dim = g.vertices.shape[1]
    q = _rows(queries, dim)
    if len(g) == 0 or len(q) == 0:
        return np.zeros(len(g), dtype=bool), 0
    if q.shape[1] != dim:
        raise DimensionMismatch(
            f"unsafe states have dimension {q.shape[1]}, the safe graph {dim}"
        )
    # nearest-neighbour distances in both directions: per vertex to decide
    # whether it is a seed, per query to count the queries that matched.
    # Both return one distance per point, where a ball query's index lists
    # grow with the number of (query, vertex) pairs within the radius.
    seeds = cKDTree(q).query(g.vertices, p=np.inf)[0] <= match_radius
    matched = cKDTree(g.vertices).query(q, p=np.inf)[0] <= match_radius
    return _closure(g, np.flatnonzero(seeds), mode), int(matched.sum())


def reachable(
    state: OssState | Vertex,
    g: SafeGraph,
    mode: str = "undirected",
    match_radius: float = 0.0,
) -> set[Vertex]:
    """Closure of the graph vertices matching ``state``.

    mode selects edge traversal: ancestors walks edges backwards,
    descendants forwards, undirected both ways (connected component).
    A state matching no vertex yields the empty set. An unknown mode or a
    negative or non-finite radius raises ValueError, and a state of
    another dimension than the graph raises DimensionMismatch.
    """
    _check_query(mode, match_radius)
    values = state.values if isinstance(state, OssState) else tuple(state)
    reached, _ = _reach(g, [values], mode, match_radius)
    return set(g.values(reached))


@dataclass(frozen=True)
class SafeExtraction:
    """Result of the pruning pass."""

    safe_values: frozenset[Vertex]
    graph: SafeGraph
    removed: frozenset[Vertex]
    safe_trajectories: tuple[StateTrajectory, ...]
    unsafe_trajectories: tuple[StateTrajectory, ...]
    seeds_matched: int


def extract_safe_states(
    trajs: Sequence[StateTrajectory],
    mode: str = "undirected",
    match_radius: float = 0.0,
) -> SafeExtraction:
    """Classify trajectories, build the safe graph, prune everything
    reachable from any state of any unsafe trajectory.

    Removals are unioned over the frozen graph (see module docstring for
    why that equals sequential removal), making the result independent of
    unsafe-state order. ``seeds_matched`` counts the unsafe states, with
    multiplicity, that matched at least one vertex.
    """
    _check_query(mode, match_radius)
    safe, unsafe = classify_trajectories(trajs)
    g = build_safe_graph(safe)
    removed, seeds_matched = _reach(
        g, [s.values for t in unsafe for s in t.states], mode, match_radius
    )
    return SafeExtraction(
        safe_values=g.values(~removed),
        graph=g.without(removed),
        removed=g.values(removed),
        safe_trajectories=tuple(safe),
        unsafe_trajectories=tuple(unsafe),
        seeds_matched=seeds_matched,
    )


def partition_transitions(
    td: TransitionSet, safe_values: Iterable[Vertex] | Mapping | frozenset
) -> tuple[TransitionSet, TransitionSet]:
    """Split transitions into (both endpoints retained, the rest).

    The first component's size is the safe count s, the second's the
    complement count c, with s + c = len(td).
    """
    keep = set(safe_values)
    ins, outs = [], []
    for a, b in td.pairs:
        if a.values in keep and b.values in keep:
            ins.append((a, b))
        else:
            outs.append((a, b))
    return TransitionSet(tuple(ins)), TransitionSet(tuple(outs))
