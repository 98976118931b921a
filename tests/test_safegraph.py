"""Safe-transition graph, reachability pruning, transition partitioning."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import segment, table
from safeset.errors import DimensionMismatch
from safeset.metrics import certify
from safeset.oss import transitions
from safeset.safegraph import REACH_MODES, extract_safe_states, partition_transitions

S1, S2, S3 = (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)


def rows(vertices, mask=None):
    """Value tuples of the vertices, or of those selected by ``mask``."""
    picked = vertices if mask is None else vertices[mask]
    return {tuple(v) for v in picked.tolist()}


def crash(values, tid="crash"):
    return segment(values, tid=tid, collisions=(0,))


def chain():
    return segment([S1, S2, S3])


def vertex_mask(vertices, values):
    return np.array([tuple(v) in values for v in vertices.tolist()], dtype=bool)


def retained(ex):
    return rows(ex.vertices, ex.retained)


def removed(ex):
    return rows(ex.vertices, ex.removed)


def reach(query, safe, mode="undirected", match_radius=0.0):
    """What one crash state at ``query`` prunes from the table ``safe``."""
    return removed(extract_safe_states(table(safe, crash([query])), mode, match_radius))


class TestGraphBuild:
    # edges are observed through pruning: a crash state walks them
    def test_vertices_and_edges(self):
        ex = extract_safe_states(table(chain()))
        assert rows(ex.vertices) == {S1, S2, S3} and ex.retained.all()
        assert reach(S1, chain(), "descendants") == {S1, S2, S3}
        assert reach(S3, chain(), "ancestors") == {S1, S2, S3}
        assert reach(S1, chain(), "ancestors") == {S1}
        assert reach(S3, chain(), "descendants") == {S3}

    def test_single_transition_registers_both_vertices(self):
        ex = extract_safe_states(table(segment([S1, S2])))
        assert rows(ex.vertices) == {S1, S2} and len(ex.vertices) == 2
        assert reach(S1, segment([S1, S2]), "descendants") == {S1, S2}
        assert reach(S2, segment([S1, S2]), "descendants") == {S2}

    def test_duplicate_states_collapse(self):
        t = table(segment([S1, S2]), segment([S1, S2], tid="t1"))
        ex = extract_safe_states(t)
        assert len(ex.vertices) == 2
        assert ex.ids.tolist() == [0, 1, 0, 1]
        assert reach(S1, t, "descendants") == {S1, S2}
        assert reach(S2, t, "descendants") == {S2}

    def test_frame_gaps_break_edges(self):
        gapped = segment([S1, S2], frames=[0, 5])
        assert rows(extract_safe_states(table(gapped)).vertices) == {S1, S2}
        assert reach(S1, gapped, "descendants") == {S1}
        assert reach(S1, gapped, "undirected") == {S1}

    def test_unsafe_segments_add_vertices_but_no_edges(self):
        t = table(segment([S1, S2]), crash([S2, S3]))
        ex = extract_safe_states(t, mode="descendants")
        assert rows(ex.vertices) == {S1, S2, S3}
        # S3 is visited only by the crash, and its step S2 -> S3 is no edge
        assert removed(ex) == {S2} and retained(ex) == {S1}
        ex = extract_safe_states(t, mode="ancestors")
        assert removed(ex) == {S1, S2} and retained(ex) == set()


class TestReachable:
    def test_modes_on_chain(self):
        assert reach(S2, chain(), "ancestors") == {S1, S2}
        assert reach(S2, chain(), "descendants") == {S2, S3}
        assert reach(S2, chain(), "undirected") == {S1, S2, S3}

    def test_unmatched_query_is_empty(self):
        assert reach((9.0, 9.0), chain()) == set()

    def test_accepts_table_rows(self):
        t = chain()
        assert reach(t.values[1], t, "ancestors") == {S1, S2}

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            reach(S1, chain(), "sideways")

    def test_match_radius_grabs_near_vertices(self):
        assert reach((2.05, 0.0), chain(), "descendants", match_radius=0.1) == {S2, S3}
        assert reach((2.05, 0.0), chain(), "descendants", match_radius=0.01) == set()

    def test_match_radius_is_chebyshev(self):
        # Euclidean distance ~0.113 > 0.1, max-norm distance 0.08 <= 0.1
        assert reach((2.08, 0.08), chain(), "descendants", match_radius=0.1) == {S2, S3}

    def test_match_radius_can_seed_several(self):
        hit = reach((2.5, 0.0), chain(), "descendants", match_radius=0.6)
        assert hit == {S2, S3}  # seeds S2 and S3 both


class TestExtraction:
    def test_no_unsafe_keeps_everything(self):
        ex = extract_safe_states(table(segment([S1, S2, S3])))
        assert retained(ex) == {S1, S2, S3}
        assert removed(ex) == set()
        assert ex.seeds_matched == 0

    def test_undirected_prune_clears_component(self):
        t = table(segment([S1, S2, S3]), crash([S2]))
        ex = extract_safe_states(t, mode="undirected")
        assert retained(ex) == set()
        assert removed(ex) == {S1, S2, S3}
        assert ex.seeds_matched == 1

    def test_ancestors_prune_keeps_downstream(self):
        t = table(segment([S1, S2, S3]), crash([S2]))
        ex = extract_safe_states(t, mode="ancestors")
        assert retained(ex) == {S3}
        assert removed(ex) == {S1, S2}

    def test_descendants_prune_keeps_upstream(self):
        t = table(segment([S1, S2, S3]), crash([S2]))
        ex = extract_safe_states(t, mode="descendants")
        assert retained(ex) == {S1}

    def test_unmatched_unsafe_state_prunes_nothing(self):
        t = table(segment([S1, S2, S3]), crash([(9.0, 9.0)]))
        ex = extract_safe_states(t)
        assert retained(ex) == {S1, S2, S3}
        assert ex.seeds_matched == 0

    def test_unsafe_flag_on_state_classifies_trajectory(self):
        flagged = segment([S2], tid="t1", unsafe=[0])
        ex = extract_safe_states(table(segment([S1, S2, S3]), flagged))
        assert retained(ex) == set()
        assert ex.n_unsafe_segments == 1 and ex.n_safe_segments == 1

    def test_separate_components_survive(self):
        far = ((10.0, 0.0), (11.0, 0.0))
        t = table(segment([S1, S2, S3]), segment(far, tid="t1"), crash([S2]))
        ex = extract_safe_states(t, mode="undirected")
        assert retained(ex) == set(far)
        # transitions left among the retained vertices
        assert partition_transitions(transitions(t), ex.ids, ex.retained).sum() == 1

    def test_match_radius_seeding(self):
        t = table(segment([S1, S2, S3]), crash([(2.05, 0.0)]))
        assert retained(extract_safe_states(t, match_radius=0.0)) == {S1, S2, S3}
        assert retained(extract_safe_states(t, match_radius=0.1)) == set()

    def test_order_independence(self):
        far = ((10.0, 0.0), (11.0, 0.0), (12.0, 0.0))
        safe = [segment([S1, S2, S3]), segment(far, tid="t1")]
        crashes = [crash([S2], "c0"), crash([far[2]], "c1"), crash([(99.0, 0.0)], "c2")]
        results = set()
        for perm in itertools.permutations(crashes):
            ex = extract_safe_states(table(*safe, *perm), mode="ancestors")
            results.add((frozenset(retained(ex)), frozenset(removed(ex))))
        assert len(results) == 1
        ((vals, gone),) = results
        assert vals == frozenset({S3})
        assert gone == frozenset({S1, S2, far[0], far[1], far[2]})

    def test_extraction_is_idempotent(self):
        safe = segment([S1, S2, S3])
        ex1 = extract_safe_states(table(safe, crash([S2])), mode="ancestors")
        # rerun on the safe segments alone
        ex2 = extract_safe_states(table(safe), mode="ancestors")
        assert retained(ex2) >= retained(ex1)
        assert removed(ex2) == set()


class TestPartition:
    def split(self, values, keep):
        t = table(segment(values))
        td = transitions(t)
        vertices, ids = t.distinct()
        return t, td, partition_transitions(td, ids, vertex_mask(vertices, keep))

    def test_split_counts(self):
        t, td, ins = self.split([S1, S2, S3], {S1, S2})
        assert ins.sum() == 1 and (~ins).sum() == 1
        assert tuple(t.values[td[ins][0]]) == S1
        assert len(ins) == len(td)

    def test_empty_safe_set_puts_all_in_rest(self):
        _, _, ins = self.split([S1, S2, S3], set())
        assert ins.sum() == 0 and (~ins).sum() == 2

    def test_full_safe_set_keeps_all(self):
        _, _, ins = self.split([S1, S2, S3], {S1, S2, S3})
        assert ins.sum() == 2 and (~ins).sum() == 0

    def test_both_endpoints_required(self):
        for keep in ({S1}, {S2}):
            _, _, ins = self.split([S1, S2], keep)
            assert ins.sum() == 0 and (~ins).sum() == 1


class TestQueryValidation:
    def test_extraction_rejects_unknown_mode_without_unsafe_states(self):
        with pytest.raises(ValueError):
            extract_safe_states(table(segment([S1, S2, S3])), mode="sideways")

    @pytest.mark.parametrize("radius", [-0.5, math.nan, math.inf])
    def test_bad_radius_rejected(self, radius):
        t = table(segment([S1, S2, S3]), crash([S2]))
        with pytest.raises(ValueError):
            extract_safe_states(t, match_radius=radius)

    @pytest.mark.parametrize("radius", [0.0, 0.5])
    def test_unsafe_state_of_other_dimension(self, radius):
        # a table cannot mix dimensions
        with pytest.raises(DimensionMismatch):
            extract_safe_states(
                table(segment([S1, S2, S3]), crash([(2.0, 0.0, 0.0)])),
                match_radius=radius,
            )


# --------------------------------------------------------------------------
# oracle: value-keyed dicts and sets, one Chebyshev scan and one BFS per
# unsafe state, one replay of the transition pairs
# --------------------------------------------------------------------------


def reference_extraction(segs, mode, radius):
    """segs: (values, frames, unsafe flags, collision frames) per segment.

    Returns (retained, removed, seeds matched); values are compared as
    Python floats, so 0.0 and -0.0 are one state.
    """
    succ, pred, unsafe = {}, {}, []
    for values, frames, flags, collisions in segs:
        if collisions or any(flags):
            unsafe.extend(values)
            continue
        for v in values:
            succ.setdefault(v, set())
            pred.setdefault(v, set())
        for k in range(len(values) - 1):
            if frames[k + 1] == frames[k] + 1:
                succ[values[k]].add(values[k + 1])
                pred[values[k + 1]].add(values[k])
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


def reference_chain(segs, mode, radius):
    """Everything the certificate reads, from dicts, sets and one replay.

    Rows are reported as each value's first occurrence over all states,
    sorted, so their signs of zero can be compared.
    """
    first = {}
    for values, _, _, _ in segs:
        for v in values:
            first.setdefault(v, v)
    retained, removed, matched = reference_extraction(segs, mode, radius)
    labels = [
        values[k] in retained and values[k + 1] in retained
        for values, frames, _, _ in segs
        for k in range(len(values) - 1)
        if frames[k + 1] == frames[k] + 1
    ]
    n_trailing = 0
    for ok in labels:
        n_trailing = n_trailing + 1 if ok else 0
    return {
        "retained": sorted(first[v] for v in retained),
        "removed": sorted(first[v] for v in removed),
        "excluded": sorted(first[v] for v in set(first) - retained),
        "n_unique": len(first),
        "s": sum(labels),
        "c": len(labels) - sum(labels),
        "n_trailing": n_trailing,
        "matched": matched,
    }


def as_table(segs, dim=2):
    return table(
        *(
            segment(
                values,
                tid=f"t{i}",
                frames=frames,
                unsafe=np.flatnonzero(flags),
                collisions=collisions,
            )
            for i, (values, frames, flags, collisions) in enumerate(segs)
            if values
        ),
        dim=dim,
    )


# half-integer coordinates and radii keep Chebyshev distances exact, so
# seeds at exactly distance r are common; tenths add distances that round
# to either side of r = 0.3
_coord = st.one_of(
    st.integers(-3, 3).map(lambda i: i / 2), st.integers(-10, 10).map(lambda i: i / 10)
)
_point = st.tuples(_coord, _coord)
_steps = st.lists(st.tuples(_point, st.integers(1, 2)), min_size=1, max_size=6)
_radius = st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.5])


def _random_segments(safe_runs, unsafe_runs):
    out = []
    runs_of = [(r, ()) for r in safe_runs] + [(r, (0,)) for r in unsafe_runs]
    for runs, collisions in runs_of:
        frames = np.cumsum([step for _, step in runs]).tolist()
        out.append(([v for v, _ in runs], frames, [False] * len(runs), collisions))
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
        segs = _random_segments(safe_runs, unsafe_runs)
        ex = extract_safe_states(as_table(segs), mode=mode, match_radius=radius)
        assert (retained(ex), removed(ex), ex.seeds_matched) == reference_extraction(
            segs, mode, radius
        )

    @settings(max_examples=100, deadline=None)
    @given(
        safe_runs=st.lists(_steps, min_size=1, max_size=5),
        query=_point,
        mode=st.sampled_from(REACH_MODES),
        radius=_radius,
    )
    def test_reachable_matches_reference(self, safe_runs, query, mode, radius):
        segs = _random_segments(safe_runs, [])
        crash_seg = _random_segments([], [[(query, 1)]])
        _, expected, _ = reference_extraction(segs + crash_seg, mode, radius)
        assert reach(query, as_table(segs), mode, radius) == expected

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
        segs = _random_segments(safe_runs, unsafe_runs)
        ex = extract_safe_states(as_table(segs), mode=mode, match_radius=radius)
        safe_segs = _random_segments(safe_runs, [])
        gone = set()
        for values, _, _, _ in _random_segments([], unsafe_runs):
            for q in values:
                # deleting a vertex's states deletes its incident edges: the
                # frames left around the hole are no longer consecutive
                left = [
                    (
                        [v for v in vals if v not in gone],
                        [f for v, f in zip(vals, frames) if v not in gone],
                        [],
                        (),
                    )
                    for vals, frames, _, _ in safe_segs
                ]
                gone |= reach(q, as_table(left), mode, radius)
        assert gone == removed(ex)
        remaining = {v for vals, _, _, _ in safe_segs for v in vals} - gone
        assert remaining == retained(ex)


# signed zeros and half-integers, so equal values recur across segments and
# 0.0 / -0.0 meet as one state
_zcoord = st.one_of(
    st.sampled_from([0.0, -0.0]), st.integers(-4, 4).map(lambda i: i / 2)
)
_zpoint = st.tuples(_zcoord, _zcoord)
_zsegment = st.tuples(
    st.lists(st.tuples(_zpoint, st.integers(1, 3)), min_size=1, max_size=6),
    st.booleans(),  # a collision event attributed to the segment
    st.lists(st.integers(0, 5), max_size=2),  # positions flagged unsafe
)


class TestChainAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        segments=st.lists(_zsegment, min_size=0, max_size=6),
        shared=_zpoint,
        mode=st.sampled_from(REACH_MODES),
        radius=st.sampled_from([0.0, 0.0, 0.5, 1.0]),
    )
    # transitions with exactly one retained end: the step out of a pruned
    # seed (ancestors), and the step into one first seen as -0.0 in an
    # unsafe segment (descendants)
    @example(
        segments=[
            ([((9.0, 9.0), 1), ((1.0, 0.0), 1)], False, []),
            ([((9.0, 9.0), 1)], True, []),
        ],
        shared=(0.0, 0.0),
        mode="ancestors",
        radius=0.0,
    )
    @example(
        segments=[
            ([((5.0, 5.0), 1)], False, [0]),
            ([((1.0, 0.0), 1), ((9.0, 9.0), 1)], False, []),
        ],
        shared=(-0.0, 0.0),
        mode="descendants",
        radius=0.0,
    )
    def test_chain_matches_reference(self, segments, shared, mode, radius):
        segs = []
        for i, (steps, collided, flagged) in enumerate(segments):
            values = [v for v, _ in steps]
            # one value shared by every segment, safe and unsafe alike
            values[i % len(values)] = shared
            frames = np.cumsum([gap for _, gap in steps]).tolist()
            flags = [k in flagged for k in range(len(values))]
            segs.append((values, frames, flags, (frames[0],) if collided else ()))
        want = reference_chain(segs, mode, radius)

        t = as_table(segs)
        tails = transitions(t)
        ex = extract_safe_states(t, mode=mode, match_radius=radius)
        inside = partition_transitions(tails, ex.ids, ex.retained)
        eps = certify(inside, 0.001)
        got = {
            "retained": [tuple(v) for v in ex.vertices[ex.retained].tolist()],
            "removed": [tuple(v) for v in ex.vertices[ex.removed].tolist()],
            "excluded": [tuple(v) for v in ex.vertices[~ex.retained].tolist()],
            "n_unique": len(ex.vertices),
            "s": eps.s_count,
            "c": eps.c_count,
            "n_trailing": eps.n_trailing,
            "matched": ex.seeds_matched,
        }
        # repr tells -0.0 from 0.0, which == does not
        assert repr(got) == repr(want)
