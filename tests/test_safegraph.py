"""Safe-transition graph, reachability pruning, transition partitioning."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safeset.errors import DimensionMismatch
from safeset.oss import OssState, StateTrajectory, transitions
from safeset.safegraph import (
    REACH_MODES,
    build_safe_graph,
    extract_safe_states,
    partition_transitions,
    reachable,
)

S1, S2, S3 = (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)


def traj(values, tid="t0", seg=0, collisions=(), start=0):
    states = tuple(
        OssState(tuple(map(float, v)), 0.1 * (start + i), tid, start + i)
        for i, v in enumerate(values)
    )
    return StateTrajectory(tid, seg, states, tuple(collisions))


def chain_graph():
    return build_safe_graph([traj([S1, S2, S3])])


def edge_set(g):
    rows = [tuple(v) for v in g.vertices.tolist()]
    tail, head = g.adjacency.nonzero()
    return {(rows[i], rows[j]) for i, j in zip(tail, head)}


def vertex_mask(g, values):
    return np.array([tuple(v) in values for v in g.vertices.tolist()])


class TestGraphBuild:
    def test_vertices_and_edges(self):
        g = chain_graph()
        assert g.values() == {S1, S2, S3}
        assert edge_set(g) == {(S1, S2), (S2, S3)}
        assert g.edge_count() == 2

    def test_single_transition_registers_both_vertices(self):
        g = build_safe_graph([traj([S1, S2])])
        assert g.values() == {S1, S2} and len(g) == 2
        assert edge_set(g) == {(S1, S2)}

    def test_duplicate_states_collapse(self):
        g = build_safe_graph([traj([S1, S2]), traj([S1, S2], tid="t1")])
        assert len(g) == 2 and g.edge_count() == 1

    def test_frame_gaps_break_edges(self):
        a = OssState(S1, 0.0, "t0", 0)
        b = OssState(S2, 0.5, "t0", 5)
        g = build_safe_graph([StateTrajectory("t0", 0, (a, b))])
        assert g.values() == {S1, S2}
        assert g.edge_count() == 0

    def test_without_removes_incident_edges(self):
        g = chain_graph()
        g = g.without(vertex_mask(g, {S2}))
        assert g.values() == {S1, S3}
        assert g.edge_count() == 0


class TestReachable:
    def test_modes_on_chain(self):
        g = chain_graph()
        assert reachable(S2, g, "ancestors") == {S1, S2}
        assert reachable(S2, g, "descendants") == {S2, S3}
        assert reachable(S2, g, "undirected") == {S1, S2, S3}

    def test_unmatched_query_is_empty(self):
        g = chain_graph()
        assert reachable((9.0, 9.0), g) == set()

    def test_accepts_state_objects(self):
        g = chain_graph()
        s = OssState(S2, 0.0, "x", 0)
        assert reachable(s, g, "ancestors") == {S1, S2}

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            reachable(S1, chain_graph(), "sideways")

    def test_match_radius_grabs_near_vertices(self):
        g = chain_graph()
        assert reachable((2.05, 0.0), g, "descendants", match_radius=0.1) == {S2, S3}
        assert reachable((2.05, 0.0), g, "descendants", match_radius=0.01) == set()

    def test_match_radius_is_chebyshev(self):
        g = chain_graph()
        # Euclidean distance ~0.113 > 0.1, max-norm distance 0.08 <= 0.1
        assert reachable((2.08, 0.08), g, "descendants", match_radius=0.1) == {S2, S3}

    def test_match_radius_can_seed_several(self):
        g = chain_graph()
        hit = reachable((2.5, 0.0), g, "descendants", match_radius=0.6)
        assert hit == {S2, S3}  # seeds S2 and S3 both


class TestExtraction:
    def test_no_unsafe_keeps_everything(self):
        ex = extract_safe_states([traj([S1, S2, S3])])
        assert ex.safe_values == frozenset({S1, S2, S3})
        assert ex.removed == frozenset()
        assert ex.seeds_matched == 0

    def test_undirected_prune_clears_component(self):
        trajs = [traj([S1, S2, S3]), traj([S2], tid="crash", collisions=(0,))]
        ex = extract_safe_states(trajs, mode="undirected")
        assert ex.safe_values == frozenset()
        assert ex.removed == frozenset({S1, S2, S3})
        assert ex.seeds_matched == 1

    def test_ancestors_prune_keeps_downstream(self):
        trajs = [traj([S1, S2, S3]), traj([S2], tid="crash", collisions=(0,))]
        ex = extract_safe_states(trajs, mode="ancestors")
        assert ex.safe_values == frozenset({S3})
        assert ex.removed == frozenset({S1, S2})

    def test_descendants_prune_keeps_upstream(self):
        trajs = [traj([S1, S2, S3]), traj([S2], tid="crash", collisions=(0,))]
        ex = extract_safe_states(trajs, mode="descendants")
        assert ex.safe_values == frozenset({S1})

    def test_unmatched_unsafe_state_prunes_nothing(self):
        trajs = [traj([S1, S2, S3]), traj([(9.0, 9.0)], tid="crash", collisions=(0,))]
        ex = extract_safe_states(trajs)
        assert ex.safe_values == frozenset({S1, S2, S3})
        assert ex.seeds_matched == 0

    def test_unsafe_flag_on_state_classifies_trajectory(self):
        flagged = StateTrajectory(
            "t1", 0, (OssState(S2, 0.0, "t1", 0, unsafe=True),)
        )
        ex = extract_safe_states([traj([S1, S2, S3]), flagged])
        assert ex.safe_values == frozenset()
        assert len(ex.unsafe_trajectories) == 1

    def test_separate_components_survive(self):
        far = ((10.0, 0.0), (11.0, 0.0))
        trajs = [
            traj([S1, S2, S3]),
            traj(far, tid="t1"),
            traj([S2], tid="crash", collisions=(0,)),
        ]
        ex = extract_safe_states(trajs, mode="undirected")
        assert ex.safe_values == frozenset(far)
        assert ex.graph.edge_count() == 1

    def test_match_radius_seeding(self):
        trajs = [
            traj([S1, S2, S3]),
            traj([(2.05, 0.0)], tid="crash", collisions=(0,)),
        ]
        assert extract_safe_states(trajs, match_radius=0.0).safe_values == frozenset(
            {S1, S2, S3}
        )
        assert extract_safe_states(trajs, match_radius=0.1).safe_values == frozenset()

    def test_order_independence(self):
        far = ((10.0, 0.0), (11.0, 0.0), (12.0, 0.0))
        safe = [traj([S1, S2, S3]), traj(far, tid="t1")]
        crashes = [
            traj([S2], tid="c0", collisions=(0,)),
            traj([far[2]], tid="c1", collisions=(0,)),
            traj([(99.0, 0.0)], tid="c2", collisions=(0,)),
        ]
        results = set()
        for perm in itertools.permutations(crashes):
            ex = extract_safe_states(safe + list(perm), mode="ancestors")
            results.add((ex.safe_values, ex.removed))
        assert len(results) == 1
        ((vals, removed),) = results
        assert vals == frozenset({S3})
        assert removed == frozenset({S1, S2, far[0], far[1], far[2]})

    def test_extraction_is_idempotent(self):
        trajs = [traj([S1, S2, S3]), traj([S2], tid="crash", collisions=(0,))]
        ex1 = extract_safe_states(trajs, mode="ancestors")
        survivors = [
            t for t in ex1.safe_trajectories
        ]  # rerun on safe trajectories alone
        ex2 = extract_safe_states(survivors, mode="ancestors")
        assert ex2.safe_values >= ex1.safe_values
        assert ex2.removed == frozenset()


class TestPartition:
    def test_split_counts(self):
        t = traj([S1, S2, S3])
        td = transitions([t])
        ins, outs = partition_transitions(td, {S1, S2})
        assert len(ins) == 1 and len(outs) == 1
        assert ins.pairs[0][0].values == S1
        assert len(ins) + len(outs) == len(td)

    def test_empty_safe_set_puts_all_in_rest(self):
        td = transitions([traj([S1, S2, S3])])
        ins, outs = partition_transitions(td, frozenset())
        assert len(ins) == 0 and len(outs) == 2

    def test_full_safe_set_keeps_all(self):
        td = transitions([traj([S1, S2, S3])])
        ins, outs = partition_transitions(td, {S1, S2, S3})
        assert len(ins) == 2 and len(outs) == 0

    def test_both_endpoints_required(self):
        td = transitions([traj([S1, S2])])
        for keep in ({S1}, {S2}):
            ins, outs = partition_transitions(td, keep)
            assert len(ins) == 0 and len(outs) == 1


class TestQueryValidation:
    def test_extraction_rejects_unknown_mode_without_unsafe_states(self):
        with pytest.raises(ValueError):
            extract_safe_states([traj([S1, S2, S3])], mode="sideways")

    @pytest.mark.parametrize("radius", [-0.5, math.nan, math.inf])
    def test_bad_radius_rejected(self, radius):
        trajs = [traj([S1, S2, S3]), traj([S2], tid="crash", collisions=(0,))]
        with pytest.raises(ValueError):
            extract_safe_states(trajs, match_radius=radius)
        with pytest.raises(ValueError):
            reachable(S2, chain_graph(), match_radius=radius)

    @pytest.mark.parametrize("radius", [0.0, 0.5])
    def test_unsafe_state_of_other_dimension(self, radius):
        trajs = [traj([S1, S2, S3]), traj([(2.0, 0.0, 0.0)], tid="crash", collisions=(0,))]
        with pytest.raises(DimensionMismatch):
            extract_safe_states(trajs, match_radius=radius)


# --------------------------------------------------------------------------
# oracle: dict-of-sets graph, one Chebyshev scan and one BFS per unsafe state
# --------------------------------------------------------------------------


def reference_extraction(trajs, mode, radius):
    succ, pred, unsafe = {}, {}, []
    for t in trajs:
        if t.collision_frames or any(s.unsafe for s in t.states):
            unsafe.extend(s.values for s in t.states)
            continue
        for s in t.states:
            succ.setdefault(s.values, set())
            pred.setdefault(s.values, set())
        for a, b in zip(t.states, t.states[1:]):
            if b.frame == a.frame + 1:
                succ[a.values].add(b.values)
                pred[b.values].add(a.values)
    removed, matched = set(), 0
    for q in unsafe:
        stack = [v for v in succ if max(abs(x - y) for x, y in zip(v, q)) <= radius]
        matched += bool(stack)
        seen = set(stack)
        while stack:
            v = stack.pop()
            if mode == "ancestors":
                nbrs = pred[v]
            elif mode == "descendants":
                nbrs = succ[v]
            else:
                nbrs = succ[v] | pred[v]
            for w in nbrs - seen:
                seen.add(w)
                stack.append(w)
        removed |= seen
    return frozenset(succ) - removed, frozenset(removed), matched


# half-integer coordinates and radii keep Chebyshev distances exact, so
# seeds at exactly distance r are common; tenths add distances that round
# to either side of r = 0.3
_coord = st.one_of(
    st.integers(-3, 3).map(lambda i: i / 2), st.integers(-10, 10).map(lambda i: i / 10)
)
_point = st.tuples(_coord, _coord)
_steps = st.lists(st.tuples(_point, st.integers(1, 2)), min_size=1, max_size=6)
_radius = st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.5])


def _random_trajs(safe_runs, unsafe_runs):
    out = []
    for i, (runs, collisions) in enumerate(
        [(r, ()) for r in safe_runs] + [(r, (0,)) for r in unsafe_runs]
    ):
        frames = np.cumsum([step for _, step in runs]).tolist()
        states = tuple(
            OssState(v, 0.1 * f, f"t{i}", f) for (v, _), f in zip(runs, frames)
        )
        out.append(StateTrajectory(f"t{i}", 0, states, collisions))
    return out


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        safe_runs=st.lists(_steps, min_size=0, max_size=5),
        unsafe_runs=st.lists(_steps, min_size=0, max_size=3),
        mode=st.sampled_from(REACH_MODES),
        radius=_radius,
    )
    @example(
        safe_runs=[[((1.0, 0.0), 1), ((2.0, 0.0), 1), ((3.0, 0.0), 1)]],
        unsafe_runs=[[((2.5, 0.5), 1)]],
        mode="descendants",
        radius=0.5,
    )
    def test_extraction_matches_reference(self, safe_runs, unsafe_runs, mode, radius):
        trajs = _random_trajs(safe_runs, unsafe_runs)
        ex = extract_safe_states(trajs, mode=mode, match_radius=radius)
        assert (ex.safe_values, ex.removed, ex.seeds_matched) == reference_extraction(
            trajs, mode, radius
        )
        assert ex.graph.values() == ex.safe_values

    @settings(max_examples=100, deadline=None)
    @given(
        safe_runs=st.lists(_steps, min_size=1, max_size=5),
        query=_point,
        mode=st.sampled_from(REACH_MODES),
        radius=_radius,
    )
    def test_reachable_matches_reference(self, safe_runs, query, mode, radius):
        trajs = _random_trajs(safe_runs, [])
        crash = _random_trajs([], [[(query, 1)]])
        _, expected, _ = reference_extraction(trajs + crash, mode, radius)
        assert reachable(query, build_safe_graph(trajs), mode, radius) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        safe_runs=st.lists(_steps, min_size=1, max_size=5),
        unsafe_runs=st.lists(_steps, min_size=1, max_size=3),
        mode=st.sampled_from(REACH_MODES),
        radius=_radius,
    )
    def test_union_of_closures_equals_sequential_removal(
        self, safe_runs, unsafe_runs, mode, radius
    ):
        trajs = _random_trajs(safe_runs, unsafe_runs)
        ex = extract_safe_states(trajs, mode=mode, match_radius=radius)
        g = build_safe_graph(ex.safe_trajectories)
        removed = set()
        for t in ex.unsafe_trajectories:
            for s in t.states:
                hit = reachable(s, g, mode, radius)
                removed |= hit
                g = g.without(vertex_mask(g, hit))
        assert removed == ex.removed
        assert g.values() == ex.safe_values
