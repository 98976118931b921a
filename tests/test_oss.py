"""State-space specs, projections into them, and transition extraction."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import (
    recordings,
    rigid_motion,
    sample,
    scene_dataset,
    segment,
    segment_frames,
    segment_values,
    table,
)
from safeset.errors import DimensionMismatch, SpecKindMismatch
from safeset.ingest import AGENT_TYPES, VEHICLE_TYPES, Dataset, label_collisions
from safeset.kinematics import SPEED_EPS, headings
from safeset.oss import (
    OSS_KINDS,
    PRESETS,
    SUBREGIONS,
    OssSpec,
    export_states_csv,
    extract_states,
    transitions,
)

def reference_names(spec):
    """The state names as a four-way branch over the kind."""
    multi = ("v0",) + tuple(n for sub in SUBREGIONS for n in (f"p_{sub}", f"v_{sub}"))
    ped = ("v0", "p_left", "q_left", "p_right", "q_right")
    return {
        "lead_following": ("v0", "v1", "p"),
        "multi_vehicle": multi,
        "vehicle_pedestrian": ped,
        "combined": multi + ped[1:],
    }[spec.kind]


def reference_bounds(spec):
    """The per-dimension intervals as a four-way branch over the kind."""
    v = (spec.v_min, spec.v_max)
    vehicles = [(spec.p_min, spec.p_max), v] * len(SUBREGIONS)
    ped = [(0.0, spec.ped_p_max), (0.0, spec.q_max)] * 2
    rows = [v] + {
        "lead_following": [v, (spec.p_min, spec.p_max)],
        "multi_vehicle": vehicles,
        "vehicle_pedestrian": ped,
        "combined": vehicles + ped,
    }[spec.kind]
    out = np.array(rows, dtype=float)
    if not (out[:, 1] > out[:, 0]).all():
        raise ValueError("every state-space interval must have positive width")
    return out


def reference_clearance(spec, v0):
    """The empty-slot states as a four-way branch over the kind."""
    v0 = np.asarray(v0, dtype=float)[..., None]
    front, rear, corner = [spec.p_max, v0], [spec.p_min, v0], [spec.ped_p_max, spec.q_max]
    slots = {
        "lead_following": [v0, spec.p_max],
        "multi_vehicle": front * 3 + rear * 3,
        "vehicle_pedestrian": corner * 2,
        "combined": front * 3 + rear * 3 + corner * 2,
    }[spec.kind]
    return np.concatenate(np.broadcast_arrays(v0, *slots), axis=-1)


def same_array(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and (
        got.tobytes() == want.tobytes()
    )


def assert_layout_matches_reference(spec):
    """names, bounds() and clearance() (scalar and array v0) equal the
    per-kind references bit for bit, a refused interval included."""
    assert spec.names == reference_names(spec)
    assert spec.dim == len(reference_names(spec))
    try:
        want = reference_bounds(spec)
    except ValueError:
        with pytest.raises(ValueError):
            spec.bounds()
    else:
        assert same_array(spec.bounds(), want)
    for v0 in (12.5, -0.0, np.array([[1.0, 2.5, -3.0], [0.0, 1e300, 7.0]])):
        assert same_array(spec.clearance(v0), reference_clearance(spec, v0))


@st.composite
def layout_specs(draw):
    """OssSpecs of every kind with float or integer fields, degenerate and
    inverted intervals included."""
    number = st.integers(-60, 60) | st.floats(-1e3, 1e3, allow_nan=False)
    v_min = draw(number)
    return OssSpec(
        draw(st.sampled_from(OSS_KINDS)),
        v_min=v_min,
        v_max=v_min + draw(st.integers(1, 40) | st.floats(1e-3, 1e3)),
        p_min=draw(number),
        p_max=draw(number),
        ped_p_max=draw(number),
        q_max=draw(number),
    )


LEAD = PRESETS["sumo-lead"]
MULTI = PRESETS["highd-multi"]
PED = OssSpec("vehicle_pedestrian", v_min=0.0, v_max=25.0, ped_p_max=50.0, q_max=10.0)
COMBINED = PRESETS["waymo-carla-17d"]


class TestOssSpec:
    def test_dims_and_names(self):
        assert LEAD.dim == 3 and LEAD.names == ("v0", "v1", "p")
        assert MULTI.dim == 13
        assert MULTI.names[:5] == ("v0", "p_fl", "v_fl", "p_fc", "v_fc")
        assert PED.dim == 5
        assert PED.names == ("v0", "p_left", "q_left", "p_right", "q_right")
        assert COMBINED.dim == 17
        assert COMBINED.names == MULTI.names + PED.names[1:]

    def test_bounds_layout(self):
        b = MULTI.bounds()
        assert b.shape == (13, 2)
        assert b[0].tolist() == [20.0, 30.0]
        assert b[1].tolist() == [-50.0, 50.0]
        assert b[2].tolist() == [20.0, 30.0]
        bc = COMBINED.bounds()
        assert bc.shape == (17, 2)
        assert bc[13].tolist() == [0.0, 50.0]
        assert bc[14].tolist() == [0.0, 10.0]

    def test_unknown_kind(self):
        with pytest.raises(SpecKindMismatch):
            OssSpec("overtaking", v_min=0.0, v_max=1.0)

    def test_inverted_speed_range(self):
        with pytest.raises(ValueError):
            OssSpec("lead_following", v_min=5.0, v_max=5.0)

    @pytest.mark.parametrize(
        "field, value",
        [("v_min", -math.inf), ("v_max", math.inf), ("p_min", math.nan), ("p_max", math.inf),
         ("ped_p_max", math.inf), ("q_max", math.nan), ("lane_width", math.nan),
         ("side_band", (1.0, math.inf))],
    )
    def test_non_finite_number_rejected(self, field, value):
        base = dict(v_min=0.0, v_max=25.0, p_max=40.0, ped_p_max=50.0, q_max=10.0)
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            OssSpec("combined", **{**base, field: value})

    def test_degenerate_interval_rejected_at_bounds(self):
        spec = OssSpec("lead_following", v_min=0.0, v_max=1.0, p_min=2.0, p_max=2.0)
        with pytest.raises(ValueError):
            spec.bounds()

    def test_normalize_maps_to_unit_box(self):
        vals = np.array([[0.0, 15.0, 50.0], [30.0, 30.0, 100.0]])
        n = LEAD.normalize(vals)
        assert n[0].tolist() == [0.0, 0.5, 0.5]
        assert n[1].tolist() == [1.0, 1.0, 1.0]

    def test_box_volume(self):
        assert LEAD.box_volume() == pytest.approx(30.0 * 30.0 * 100.0)

    def test_clearance_per_kind(self):
        assert LEAD.clearance(12.0).tolist() == [12.0, 12.0, 100.0]
        assert MULTI.clearance(25.0).tolist() == [25.0] + [50.0, 25.0] * 3 + [-50.0, 25.0] * 3
        assert PED.clearance(10.0).tolist() == [10.0, 50.0, 10.0, 50.0, 10.0]
        assert COMBINED.clearance(5.0).tolist() == (
            [5.0] + [50.0, 5.0] * 3 + [-50.0, 5.0] * 3 + [50.0, 10.0] * 2
        )
        v0 = np.array([[1.0, 2.0, 3.0]])
        for spec in (LEAD, MULTI, PED, COMBINED):
            states = spec.clearance(v0)
            assert states.shape == (1, 3, spec.dim)
            want = [spec.clearance(v).tolist() for v in (1.0, 2.0, 3.0)]
            assert states[0].tolist() == want

    @pytest.mark.parametrize(
        "spec, occupied",
        [(MULTI, [1, 2]), (PED, [1, 2]), (COMBINED, [1, 2, 13, 14])],
        ids=["highd-multi", "vehicle_pedestrian", "waymo-carla-17d"],
    )
    def test_extractors_write_the_clearance_into_empty_slots(self, spec, occupied):
        # a vehicle in the front-left subregion and a walker that only the
        # left bumper corner sees (the right corner's offset 10.5 > q_max)
        agents = {
            "ego": {"x0": 0.0, "vx": 22.0, "sv": True},
            "fl": {"x0": 15.0, "y0": 3.75, "vx": 21.0},
            "walker": {"x0": 10.0, "y0": 9.5, "agent_type": "pedestrian",
                       "length": 0.5, "width": 0.5},
        }
        t = extract_states(scene_dataset(agents, 3), spec)
        assert len(t) == 3
        fill = spec.clearance(t.values[:, 0])
        empty = np.setdiff1d(np.arange(1, spec.dim), occupied)
        assert np.array_equal(t.values[:, empty], fill[:, empty])
        assert (t.values[:, occupied] != fill[:, occupied]).all()

    def test_presets_wellformed(self):
        for name, spec in PRESETS.items():
            b = spec.bounds()
            assert (b[:, 1] > b[:, 0]).all(), name

    @pytest.mark.parametrize("spec", [*PRESETS.values(), PED], ids=[*PRESETS, "pedestrian"])
    def test_layout_matches_per_kind_reference_on_presets(self, spec):
        assert_layout_matches_reference(spec)

    @settings(max_examples=400, deadline=None)
    @given(spec=layout_specs())
    def test_layout_matches_per_kind_reference(self, spec):
        assert_layout_matches_reference(spec)


def two_car(gap_center=20.0, sv_v=10.0, lead_v=8.0, n=5, **lead_kw):
    agents = {
        "ego": {"x0": 0.0, "vx": sv_v, "sv": True},
        "lead": {"x0": gap_center, "vx": lead_v, **lead_kw},
    }
    return scene_dataset(agents, n)


def reference_headings(vx, vy):
    """Heading per sample of one track: the velocity direction, kept through
    slow samples, the first moving heading before the track first moves,
    +x for a track that never moves."""
    vx = np.asarray(vx, dtype=float)
    vy = np.asarray(vy, dtype=float)
    speed = np.hypot(vx, vy)
    moving = speed > SPEED_EPS
    theta = np.arctan2(vy, vx)
    if not moving.any():
        return np.zeros_like(theta)
    idx = np.arange(len(theta))
    last_moving = np.where(moving, idx, -1)
    np.maximum.accumulate(last_moving, out=last_moving)
    first = idx[moving][0]
    last_moving[last_moving < 0] = first
    return theta[last_moving]


def reference_candidates(d, traj, agent_types):
    """Built from RawSample rows: the SV samples of trajectory ``traj`` in
    track order, their speeds, and per SV frame a list of (dlong, dlat,
    speed, length, lane, width) candidates in track order, lane None where
    a sample has none."""
    tracks = {}
    for s in d.samples:
        tracks.setdefault((s.trajectory_id, s.agent_id), []).append(s)
    (sv,) = [rows for (t, _), rows in tracks.items() if t == traj and rows[0].sv_flag]
    theta = reference_headings([s.vx for s in sv], [s.vy for s in sv])
    cos, sin = np.cos(theta), np.sin(theta)
    speeds = np.hypot([s.vx for s in sv], [s.vy for s in sv])
    at = {s.frame: k for k, s in enumerate(sv)}
    by_frame = {s.frame: [] for s in sv}
    for (t, _), rows in tracks.items():
        if t != traj or rows is sv:
            continue
        for o in rows:
            k = at.get(o.frame)
            if k is None or o.agent_type not in agent_types:
                continue
            dx, dy = o.x - sv[k].x, o.y - sv[k].y
            by_frame[o.frame].append((
                float(cos[k] * dx + sin[k] * dy),
                float(-sin[k] * dx + cos[k] * dy),
                float(np.hypot(o.vx, o.vy)),
                o.length,
                o.lane_id,
                o.width,
            ))
    return sv, speeds, by_frame


def reference_lead_states(d, spec):
    """(trajectory, frame, state) per emitted row, the leader picked from a
    per-frame candidate list with min(), first candidate on equal gaps."""
    bounds = spec.bounds()
    out = []
    for traj in d.trajectory_ids:
        sv, speeds, by_frame = reference_candidates(d, traj, VEHICLE_TYPES)
        for s, v0 in zip(sv, speeds):

            def same_lane(c):
                if s.lane_id is not None and c[4] is not None:
                    return s.lane_id == c[4]
                return abs(c[1]) <= spec.lane_width / 2.0

            ahead = [c for c in by_frame[s.frame] if c[0] > 0 and same_lane(c)]
            if not ahead:
                continue
            lead = min(ahead, key=lambda c: c[0])
            state = (
                float(v0),
                lead[2],
                float(lead[0] - (s.length + lead[3]) / 2.0),
            )
            if all(lo <= v <= hi for v, (lo, hi) in zip(state, bounds)):
                out.append((traj, s.frame, state))
    return out


def reference_band(dlat, spec):
    lo, hi = spec.side_band
    if abs(dlat) <= spec.lane_width / 2.0:
        return "c"
    if lo <= dlat <= hi:
        return "l"
    if -hi <= dlat <= -lo:
        return "r"
    return None


def reference_multi_states(d, spec):
    """(trajectory, frame, state) per emitted row: per frame and subregion the
    nearest candidate of a candidate list, the first on equal distances,
    bounds checked after the pick."""
    v_bounds = (spec.v_min, spec.v_max)
    p_bounds = (spec.p_min, spec.p_max)
    out = []
    for traj in d.trajectory_ids:
        sv, speeds, by_frame = reference_candidates(d, traj, VEHICLE_TYPES)
        for s, v0 in zip(sv, speeds.tolist()):
            if not (v_bounds[0] <= v0 <= v_bounds[1]):
                continue
            best = {}
            for dlong, dlat, speed, length, *_ in by_frame[s.frame]:
                band = reference_band(dlat, spec)
                if band is None:
                    continue
                sub = ("f" if dlong >= 0 else "r") + band
                gap = abs(dlong) - (s.length + length) / 2.0
                p = float(np.sign(dlong) * gap) if gap > 0 else 0.0
                dist = float(np.hypot(dlong, dlat))
                if sub not in best or dist < best[sub][0]:
                    best[sub] = (dist, p, speed)
            values = [v0]
            occupied = 0
            for sub in SUBREGIONS:
                fill_p = spec.p_max if sub.startswith("f") else spec.p_min
                if sub in best:
                    _, p, v1 = best[sub]
                    if (
                        p_bounds[0] <= p <= p_bounds[1]
                        and v_bounds[0] <= v1 <= v_bounds[1]
                    ):
                        values.extend([p, v1])
                        occupied += 1
                        continue
                values.extend([fill_p, v0])
            if occupied:
                out.append((traj, s.frame, tuple(values)))
    return out


def reference_ped_states(d, spec):
    """(trajectory, frame, state) per emitted row: per frame and front corner
    the nearest pedestrian at or ahead of the bumper line, the first on equal
    distances, bounds checked after the pick."""
    out = []
    for traj in d.trajectory_ids:
        sv, speeds, by_frame = reference_candidates(d, traj, ("pedestrian",))
        for s, v0 in zip(sv, speeds.tolist()):
            if not (spec.v_min <= v0 <= spec.v_max):
                continue
            half_len = s.length / 2.0
            half_wid = s.width / 2.0
            values = [v0]
            occupied = 0
            for side_sign in (1.0, -1.0):
                best = None
                for dlong, dlat, *_ in by_frame[s.frame]:
                    along = dlong - half_len
                    if along < 0:
                        continue
                    lat = dlat - side_sign * half_wid
                    dist = float(np.hypot(along, lat))
                    if best is None or dist < best[0]:
                        best = (dist, float(along), float(abs(lat)))
                if best is not None and best[1] <= spec.ped_p_max and best[2] <= spec.q_max:
                    values.extend([best[1], best[2]])
                    occupied += 1
                else:
                    values.extend([spec.ped_p_max, spec.q_max])
            if occupied:
                out.append((traj, s.frame, tuple(values)))
    return out


def reference_combined_states(d, spec):
    """The reference 13-D and 5-D states joined on (trajectory, frame)."""
    ped = {(traj, f): v for traj, f, v in reference_ped_states(d, spec)}
    return [
        (traj, f, v + ped[traj, f][1:])
        for traj, f, v in reference_multi_states(d, spec)
        if (traj, f) in ped
    ]


REFERENCE_STATES = {
    "lead_following": reference_lead_states,
    "multi_vehicle": reference_multi_states,
    "vehicle_pedestrian": reference_ped_states,
    "combined": reference_combined_states,
}


def reference_segments(d, states):
    """(trajectory, segment index, frames, unsafe flags, collision frames) per
    segment of the reference ``states``: each trajectory's states split where
    frames stop being consecutive, a state unsafe when an event falls on its
    frame, and each event of the trajectory attached to the segment holding
    its frame, else the nearest preceding one, else the first."""
    events = set(d.collision_events)
    out = []
    for traj in dict.fromkeys(t for t, _, _ in states):
        segs = []
        for t, f, _ in states:
            if t != traj:
                continue
            if segs and f == segs[-1][-1] + 1:
                segs[-1].append(f)
            else:
                segs.append([f])
        attached = [[] for _ in segs]
        for e in sorted(f for t, f in events if t == traj):
            j = max([k for k, seg in enumerate(segs) if seg[0] <= e], default=0)
            attached[j].append(e)
        for k, seg in enumerate(segs):
            flags = [(traj, f) in events for f in seg]
            out.append((traj, k, seg, flags, tuple(attached[k])))
    return out


def reference_geometric_events(d):
    """Every (trajectory, frame) at which the SV box overlaps another agent's
    box in the SV frame, from the row-built candidate lists."""
    out = set()
    for traj in d.trajectory_ids:
        sv, _, by_frame = reference_candidates(d, traj, AGENT_TYPES)
        for s in sv:
            for dlong, dlat, _, length, _, width in by_frame[s.frame]:
                if abs(dlong) < (s.length + length) / 2.0 and abs(dlat) < (s.width + width) / 2.0:
                    out.add((traj, s.frame))
    return tuple(sorted(out))


def emitted(t):
    """(trajectory, frame, state) per row of a StateTable."""
    return [
        (t.trajectory_ids[s], int(f), tuple(v))
        for s, f, v in zip(t.segment_ids(), t.frame, t.values.tolist())
    ]


def described(t):
    """(trajectory, segment index, frames, unsafe flags, collision frames) per
    segment of a StateTable."""
    return [
        (t.trajectory_ids[j], int(t.segment_index[j]), t.frame[lo:hi].tolist(),
         t.unsafe[lo:hi].tolist(), t.collision_frames[j])
        for j, (lo, hi) in enumerate(zip(t.offsets[:-1], t.offsets[1:]))
    ]


def assert_matches_row_reference(d, spec):
    """extract_states against the row-built reference: states, segments,
    unsafe flags, attributed events and times."""
    t = extract_states(d, spec)
    want = REFERENCE_STATES[spec.kind](d, spec)
    assert repr(emitted(t)) == repr(want)
    assert described(t) == reference_segments(d, want)
    sv_time = {(s.trajectory_id, s.frame): s.time for s in d.samples if s.sv_flag}
    assert t.time.tolist() == [sv_time[traj, f] for traj, f, _ in want]


@st.composite
def lead_scenes(draw):
    """Small scenes with equal gaps, missing lane ids, lane changes, frame
    gaps, non-vehicle agents and a second trajectory."""
    lanes = st.sampled_from([None, 1, 2])
    samples = []
    for traj in ("t0", "t1")[: draw(st.integers(1, 2))]:
        n = draw(st.integers(1, 6))
        vy = draw(st.sampled_from([0.0, 0.5]))
        for k in range(n):
            samples.append(
                sample(trajectory_id=traj, frame=k, time=0.1 * k, agent_id="ego",
                       x=1.2 * k, vx=12.0, vy=vy, lane_id=draw(lanes), sv_flag=True)
            )
        for j in range(draw(st.integers(0, 5))):
            x0 = draw(st.sampled_from([-10.0, 0.0, 5.0, 12.0, 30.0]))
            y0 = draw(st.sampled_from([0.0, 1.0, 1.875, 2.5, -3.75]))
            vx = draw(st.sampled_from([10.0, 12.0]))
            kind = draw(st.sampled_from(["car", "truck", "pedestrian"]))
            length = draw(st.sampled_from([4.0, 5.0]))
            for k in draw(st.sets(st.integers(0, n - 1), min_size=1)):
                samples.append(
                    sample(trajectory_id=traj, frame=k, time=0.1 * k,
                           agent_id=f"a{j}", agent_type=kind, x=x0 + 0.1 * k * vx,
                           y=y0, vx=vx, length=length, lane_id=draw(lanes))
                )
    samples.sort(key=lambda r: (r.trajectory_id, r.agent_id, r.frame))
    return Dataset(samples, dt=0.1)


# longitudinal offsets: behind, overlapping (|dlong| < 4), on the bumper line
# (2), near, and just either side of p_max = 50 for short and long vehicles
NEIGHBOUR_DLONG = [-60.0, -10.0, -3.0, 0.0, 2.0, 3.0, 4.0, 10.0, 20.0, 53.5, 54.0]
# lateral offsets on the half-lane and side-band edges of both MULTI (1.875,
# 5.625) and COMBINED (2.5, 10), inside them, and beyond q_max = 10
NEIGHBOUR_DLAT = [0.0, 1.0, -1.0, 1.875, -1.875, 2.5, -2.5, 3.0,
                  5.625, -5.625, 10.0, -10.0, 12.0]

# pedestrian offsets from the 4 x 2 SV: on the bumper line, just behind it,
# near a front corner but beyond q_max = 10, beyond ped_p_max = 50, and
# in bounds nearer and farther ahead
PEDESTRIAN_OFFSETS = [(2.0, 3.0), (2.0, -1.0), (1.0, 0.0), (3.0, 12.0), (3.0, 10.0),
                      (3.0, -10.0), (54.0, 0.0), (5.0, 5.0), (10.0, 10.0), (20.0, 0.0)]


@st.composite
def neighbour_scenes(draw):
    """Small scenes for the multi-vehicle and pedestrian extractors: twin
    neighbours of one type at equal distances, offsets on band edges and on
    the bumper line, out-of-bounds speeds and gaps, SV speeds outside either
    speed range, SV frame gaps, a second trajectory and trajectories without
    vehicles or pedestrians."""
    samples = []
    for traj in ("t0", "t1")[: draw(st.integers(1, 2))]:
        frames = sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=5)))
        vy = draw(st.sampled_from([0.0, 0.0, 0.5]))
        for k in frames:
            samples.append(
                sample(trajectory_id=traj, frame=k, time=0.1 * k, agent_id="ego",
                       x=2.0 * k, vx=draw(st.sampled_from([22.0, 26.0, 10.0, 0.5])),
                       vy=vy, sv_flag=True)
            )
        offset = kind = None
        for j in range(draw(st.integers(0, 6))):
            if offset is not None and draw(st.booleans()):
                # a twin of the previous neighbour as far from the SV center
                # (same, mirrored or swapped offset) or from a front corner
                # of the 4 x 2 SV ((along, lat) swapped), or one farther
                # ahead on the SV's center line
                dlong, dlat = offset
                offset = draw(st.sampled_from([
                    (dlong, dlat), (dlong, -dlat), (dlat, dlong),
                    (dlat + 1.0, dlong - 1.0), (dlat + 3.0, 1.0 - dlong),
                    (dlong + 17.0, 0.0),
                ]))
            else:
                kind = draw(st.sampled_from(["car", "pedestrian", "truck", "pedestrian"]))
                if kind == "pedestrian":
                    offset = draw(st.sampled_from(PEDESTRIAN_OFFSETS))
                else:
                    offset = (draw(st.sampled_from(NEIGHBOUR_DLONG)),
                              draw(st.sampled_from(NEIGHBOUR_DLAT)))
            vx = draw(st.sampled_from([5.0, 22.0, 26.0, 35.0]))
            length = draw(st.sampled_from([2.0, 4.0, 12.0]))
            for k in draw(st.sets(st.sampled_from(frames), min_size=1)):
                samples.append(
                    sample(trajectory_id=traj, frame=k, time=0.1 * k,
                           agent_id=f"a{j}", agent_type=kind, x=2.0 * k + offset[0],
                           y=offset[1], vx=vx, length=length)
                )
    samples.sort(key=lambda r: (r.trajectory_id, r.agent_id, r.frame))
    # events on and between SV frames, before them, and of a trajectory
    # that is not in the scene
    events = draw(st.lists(st.tuples(st.sampled_from(["t0", "t1", "t9"]),
                                     st.integers(-1, 8)), max_size=4))
    return Dataset(samples, dt=0.1, collision_events=events)


class TestLeadFollowing:
    def test_hand_values(self):
        d = two_car()
        t = extract_states(d, LEAD)
        assert t.n_segments == 1
        # p = center distance minus the two half-lengths
        assert segment_values(t, 0)[0] == (10.0, 8.0, 16.0)
        assert t.values[1, 2] == pytest.approx(16.0 - 0.2)

    def test_nearest_ahead_is_leader(self):
        agents = {
            "ego": {"x0": 0.0, "vx": 10.0, "sv": True},
            "far": {"x0": 40.0, "vx": 9.0},
            "near": {"x0": 15.0, "vx": 7.0},
            "behind": {"x0": -10.0, "vx": 11.0},
        }
        d = scene_dataset(agents, 2)
        t = extract_states(d, LEAD)
        assert t.values[0, 1] == 7.0

    def test_gap_beyond_pmax_emits_nothing(self):
        spec = PRESETS["highd-lead"]  # p_max = 50
        d = two_car(gap_center=64.0, sv_v=25.0, lead_v=25.0)  # p = 60
        t = extract_states(d, spec)
        assert len(t) == 0 and t.n_segments == 0

    def test_lane_id_restricts_leader(self):
        agents = {
            "ego": {"x0": 0.0, "vx": 10.0, "sv": True, "lane_id": 1},
            "other_lane": {"x0": 10.0, "vx": 5.0, "lane_id": 2, "y0": 0.0},
            "same_lane": {"x0": 20.0, "vx": 6.0, "lane_id": 1, "y0": 0.0},
        }
        d = scene_dataset(agents, 2)
        t = extract_states(d, LEAD)
        assert t.values[0, 1] == 6.0

    def test_pedestrians_ignored(self):
        agents = {
            "ego": {"x0": 0.0, "vx": 10.0, "sv": True},
            "walker": {"x0": 10.0, "vx": 1.0, "agent_type": "pedestrian"},
            "lead": {"x0": 20.0, "vx": 6.0},
        }
        d = scene_dataset(agents, 2)
        t = extract_states(d, LEAD)
        assert t.values[0, 1] == 6.0

    def test_segment_split_and_transition_pairs(self):
        # leader present at frames 0-2 and 4-5 only: segments [0,1,2], [4,5]
        agents = {
            "ego": {"x0": 0.0, "vx": 10.0, "sv": True},
            "lead": {"x0": 20.0, "vx": 10.0, "frames": [0, 1, 2, 4, 5]},
        }
        d = scene_dataset(agents, 6)
        t = extract_states(d, LEAD)
        assert t.segment_index.tolist() == [0, 1]
        assert t.frame[t.offsets[:-1]].tolist() == [0, 4]
        td = transitions(t)
        assert len(td) == 3
        assert [(t.frame[k], t.frame[k + 1]) for k in td] == [(0, 1), (1, 2), (4, 5)]

    @settings(max_examples=30, deadline=None)
    @given(
        theta=st.floats(-np.pi, np.pi),
        tx=st.floats(-500.0, 500.0),
        ty=st.floats(-500.0, 500.0),
    )
    def test_rigid_motion_invariance(self, theta, tx, ty):
        d = two_car()
        moved = rigid_motion(d, theta, tx, ty)
        a = extract_states(d, LEAD)
        b = extract_states(moved, LEAD)
        assert a.n_segments == b.n_segments == 1
        assert np.allclose(a.values, b.values, atol=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(d=lead_scenes())
    def test_leader_matches_candidate_list_reference(self, d):
        got = emitted(extract_states(d, LEAD))
        assert repr(got) == repr(reference_lead_states(d, LEAD))

    def test_equal_gaps_keep_the_first_track(self):
        agents = {
            "ego": {"x0": 0.0, "vx": 10.0, "sv": True},
            "a": {"x0": 15.0, "vx": 7.0, "lane_id": 1},
            "b": {"x0": 15.0, "vx": 8.0},
        }
        t = extract_states(scene_dataset(agents, 2), LEAD)
        assert t.values[:, 1].tolist() == [7.0, 7.0]

    @settings(max_examples=30, deadline=None)
    @given(
        gap=st.floats(5.0, 200.0),
        sv_v=st.floats(0.5, 30.0),
        lead_v=st.floats(0.0, 30.0),
    )
    def test_states_always_in_bounds(self, gap, sv_v, lead_v):
        d = two_car(gap_center=gap, sv_v=sv_v, lead_v=lead_v, n=3)
        b = LEAD.bounds()
        for arr in extract_states(d, LEAD).values:
            assert (arr >= b[:, 0]).all() and (arr <= b[:, 1]).all()


def multi_scene(n=2, extra=None):
    agents = {
        "ego": {"x0": 0.0, "vx": 25.0, "sv": True},
        "fl": {"x0": 15.0, "y0": 3.75, "vx": 26.0},
        "fc": {"x0": 20.0, "y0": 0.0, "vx": 24.0},
        "rr": {"x0": -10.0, "y0": -3.75, "vx": 22.0},
    }
    if extra:
        agents.update(extra)
    return scene_dataset(agents, n)


class TestMultiVehicle:
    def test_hand_values_with_fills(self):
        v = segment_values(extract_states(multi_scene(), MULTI), 0)[0]
        assert v[0] == 25.0
        assert v[1:3] == (11.0, 26.0)     # fl: |15| - 4 bumper gap
        assert v[3:5] == (16.0, 24.0)     # fc
        assert v[5:7] == (50.0, 25.0)     # fr empty: front fill (p_max, v0)
        assert v[7:9] == (-50.0, 25.0)    # rl empty: rear fill (p_min, v0)
        assert v[9:11] == (-50.0, 25.0)   # rc empty
        assert v[11:13] == (-6.0, 22.0)   # rr: signed gap -(10-4)

    def test_nearest_per_subregion(self):
        d = multi_scene(extra={"fc2": {"x0": 30.0, "y0": 0.0, "vx": 20.0}})
        v = segment_values(extract_states(d, MULTI), 0)[0]
        assert v[3:5] == (16.0, 24.0)

    def test_longitudinal_overlap_gives_zero_gap(self):
        d = multi_scene(extra={"beside": {"x0": 2.0, "y0": 3.75, "vx": 25.0}})
        v = segment_values(extract_states(d, MULTI), 0)[0]
        # |2| - 4 < 0: vehicles overlap longitudinally, gap clamps to 0
        assert v[1:3] == (0.0, 25.0)

    def test_outside_side_band_ignored(self):
        d = multi_scene(extra={"farside": {"x0": 10.0, "y0": 7.0, "vx": 21.0}})
        v = segment_values(extract_states(d, MULTI), 0)[0]
        assert v[1:3] == (11.0, 26.0)  # fl neighbour unchanged

    def test_out_of_bounds_neighbour_becomes_fill(self):
        agents = {
            "ego": {"x0": 0.0, "vx": 25.0, "sv": True},
            "fc_far": {"x0": 80.0, "y0": 0.0, "vx": 24.0},  # gap 76 > p_max
            "fl": {"x0": 15.0, "y0": 3.75, "vx": 26.0},
        }
        d = scene_dataset(agents, 2)
        v = segment_values(extract_states(d, MULTI), 0)[0]
        assert v[3:5] == (50.0, 25.0)

    def test_all_empty_frame_dropped(self):
        agents = {"ego": {"x0": 0.0, "vx": 25.0, "sv": True}}
        d = scene_dataset(agents, 3)
        assert len(extract_states(d, MULTI)) == 0

    def test_v0_out_of_bounds_dropped(self):
        agents = {
            "ego": {"x0": 0.0, "vx": 10.0, "sv": True},  # below v_min = 20
            "fc": {"x0": 20.0, "y0": 0.0, "vx": 24.0},
        }
        d = scene_dataset(agents, 2)
        assert len(extract_states(d, MULTI)) == 0

    def test_equal_distances_keep_the_first_track(self):
        d = multi_scene(extra={"fc": {"x0": 20.0, "y0": 1.0, "vx": 23.0},
                               "fc2": {"x0": 20.0, "y0": -1.0, "vx": 27.0}})
        v = segment_values(extract_states(d, MULTI), 0)[0]
        assert v[3:5] == (16.0, 23.0)

    def test_center_band_wins_on_the_half_lane_edge(self):
        # |dlat| = lane_width / 2 = side_band[0]: center, not an adjacent lane
        agents = {
            "ego": {"x0": 0.0, "vx": 25.0, "sv": True},
            "left_edge": {"x0": 20.0, "y0": 1.875, "vx": 24.0},
            "right_edge": {"x0": -20.0, "y0": -1.875, "vx": 26.0},
            "outer_edge": {"x0": 30.0, "y0": -5.625, "vx": 23.0},
        }
        v = segment_values(extract_states(scene_dataset(agents, 2), MULTI), 0)[0]
        assert v[1:3] == (50.0, 25.0) and v[7:9] == (-50.0, 25.0)
        assert v[3:5] == (16.0, 24.0) and v[9:11] == (-16.0, 26.0)
        assert v[5:7] == (26.0, 23.0)

    def test_out_of_bounds_nearest_is_not_replaced_by_the_next(self):
        # the nearest center vehicle ahead is too fast; the next one is not
        d = multi_scene(extra={"fc": {"x0": 20.0, "y0": 0.0, "vx": 35.0},
                               "fc2": {"x0": 30.0, "y0": 0.0, "vx": 24.0}})
        v = segment_values(extract_states(d, MULTI), 0)[0]
        assert v[3:5] == (50.0, 25.0)

    @settings(max_examples=200, deadline=None)
    @given(d=neighbour_scenes(), spec=st.sampled_from([MULTI, COMBINED]))
    def test_matches_candidate_list_reference(self, d, spec):
        got = emitted(extract_states(d, replace(spec, kind="multi_vehicle")))
        assert repr(got) == repr(reference_multi_states(d, spec))

    @settings(max_examples=25, deadline=None)
    @given(
        theta=st.floats(-np.pi, np.pi),
        tx=st.floats(-300.0, 300.0),
        ty=st.floats(-300.0, 300.0),
    )
    def test_rigid_motion_invariance(self, theta, tx, ty):
        d = multi_scene()
        a = extract_states(d, MULTI)
        b = extract_states(rigid_motion(d, theta, tx, ty), MULTI)
        assert a.values.shape == b.values.shape
        assert np.allclose(a.values, b.values, atol=1e-6)


def ped_scene(extra=None):
    agents = {
        "ego": {"x0": 0.0, "vx": 10.0, "sv": True},
        "walker": {"x0": 10.0, "y0": 3.0, "vx": 0.0, "agent_type": "pedestrian",
                   "length": 0.5, "width": 0.5},
    }
    if extra:
        agents.update(extra)
    return scene_dataset(agents, 2)


class TestVehiclePedestrian:
    def test_hand_values(self):
        v = segment_values(extract_states(ped_scene(), PED), 0)[0]
        # along = 10 - half_len 2 = 8; left corner lat = 3 - 1, right = 3 + 1
        assert v == (10.0, 8.0, 2.0, 8.0, 4.0)

    def test_behind_bumper_ignored(self):
        d = ped_scene({"walker": {"x0": 1.0, "y0": 1.0, "agent_type": "pedestrian",
                                  "length": 0.5, "width": 0.5}})
        assert len(extract_states(d, PED)) == 0

    def test_far_lateral_becomes_fill(self):
        d = ped_scene(
            extra={
                "walker2": {"x0": 12.0, "y0": 15.0, "agent_type": "pedestrian",
                            "length": 0.5, "width": 0.5}
            }
        )
        v = segment_values(extract_states(d, PED), 0)[0]
        assert v == (10.0, 8.0, 2.0, 8.0, 4.0)  # far walker never wins a corner

    def test_vehicles_ignored(self):
        d = ped_scene(extra={"car2": {"x0": 12.0, "y0": 0.5, "vx": 5.0}})
        v = segment_values(extract_states(d, PED), 0)[0]
        assert v == (10.0, 8.0, 2.0, 8.0, 4.0)

    def test_bumper_line_counts_as_ahead(self):
        d = ped_scene({"walker": {"x0": 2.0, "y0": 3.0, "agent_type": "pedestrian",
                                  "length": 0.5, "width": 0.5}})
        v = segment_values(extract_states(d, PED), 0)[0]
        assert v == (10.0, 0.0, 2.0, 0.0, 4.0)

    def test_out_of_bounds_nearest_is_not_replaced_by_the_next(self):
        # the walker off to the left is nearest to both corners but beyond
        # q_max; the one ahead would be in bounds
        d = ped_scene({"walker": {"x0": 3.0, "y0": 12.0, "agent_type": "pedestrian",
                                  "length": 0.5, "width": 0.5},
                       "ahead": {"x0": 20.0, "y0": 0.5, "agent_type": "pedestrian",
                                 "length": 0.5, "width": 0.5}})
        assert len(extract_states(d, PED)) == 0

    def test_equal_distances_keep_the_first_track(self):
        # (along, lat) from the left corner: a (3, 4), b (4, 3), both 5 away
        walkers = {
            name: {"x0": x, "y0": y, "vx": 0.0, "agent_type": "pedestrian",
                   "length": 0.5, "width": 0.5}
            for name, x, y in (("a", 5.0, 5.0), ("b", 6.0, 4.0))
        }
        agents = {"ego": {"x0": 0.0, "vx": 10.0, "sv": True}, **walkers}
        v = segment_values(extract_states(scene_dataset(agents, 2), PED), 0)[0]
        assert v == (10.0, 3.0, 4.0, 4.0, 5.0)

    @settings(max_examples=200, deadline=None)
    @given(d=neighbour_scenes(), spec=st.sampled_from([PED, COMBINED]))
    def test_matches_candidate_list_reference(self, d, spec):
        got = emitted(extract_states(d, replace(spec, kind="vehicle_pedestrian")))
        assert repr(got) == repr(reference_ped_states(d, spec))


class TestCombined:
    def combined_scene(self, n=3):
        agents = {
            "ego": {"x0": 0.0, "vx": 20.0, "sv": True},
            "fc": {"x0": 20.0, "y0": 0.0, "vx": 19.0},
            "walker": {"x0": 15.0, "y0": 4.0, "vx": 0.0, "agent_type": "pedestrian",
                       "length": 0.5, "width": 0.5},
        }
        return scene_dataset(agents, n)

    def test_merged_layout(self):
        d = self.combined_scene()
        t = extract_states(d, COMBINED)
        assert t.n_segments == 1
        v = segment_values(t, 0)[0]
        assert len(v) == 17
        m = segment_values(extract_states(d, replace(COMBINED, kind="multi_vehicle")), 0)[0]
        p = segment_values(extract_states(d, replace(COMBINED, kind="vehicle_pedestrian")), 0)[0]
        assert v == m + p[1:]
        assert v[0] == m[0] == p[0]

    def test_misaligned_components_dropped_to_shared_frames(self):
        # vehicles visible only at frames 0-1; walker throughout
        agents = {
            "ego": {"x0": 0.0, "vx": 20.0, "sv": True},
            "fc": {"x0": 20.0, "y0": 0.0, "vx": 19.0, "frames": [0, 1]},
            "walker": {"x0": 30.0, "y0": 4.0, "vx": 0.0, "agent_type": "pedestrian",
                       "length": 0.5, "width": 0.5},
        }
        d = scene_dataset(agents, 4)
        assert extract_states(d, COMBINED).frame.tolist() == [0, 1]

    def test_gap_in_shared_frames_splits_and_attributes_events(self):
        # vehicle missing at frames 2-3, walker throughout; one event in the
        # gap, one inside the second shared run
        agents = {
            "ego": {"x0": 0.0, "vx": 20.0, "sv": True},
            "fc": {"x0": 20.0, "y0": 0.0, "vx": 19.0, "frames": [0, 1, 4, 5, 6]},
            "walker": {"x0": 30.0, "y0": 4.0, "vx": 0.0, "agent_type": "pedestrian",
                       "length": 0.5, "width": 0.5},
        }
        d = scene_dataset(agents, 7, events=[("t0", 2), ("t0", 5)])
        t = extract_states(d, COMBINED)
        assert t.segment_index.tolist() == [0, 1]
        assert [segment_frames(t, j) for j in range(2)] == [[0, 1], [4, 5, 6]]
        assert list(t.collision_frames) == [(2,), (5,)]
        unsafe = [t.unsafe[t.offsets[j] : t.offsets[j + 1]].tolist() for j in range(2)]
        assert unsafe == [[False, False], [False, True, False]]

    @settings(max_examples=200, deadline=None)
    @given(d=neighbour_scenes())
    def test_matches_candidate_list_reference(self, d):
        got = emitted(extract_states(d, COMBINED))
        assert repr(got) == repr(reference_combined_states(d, COMBINED))


class TestClassification:
    def test_collision_frames_make_unsafe(self):
        d = two_car(gap_center=20.0)
        t = extract_states(d, LEAD)
        assert t.unsafe_segments().tolist() == [False]

        d2 = scene_dataset(
            {
                "ego": {"x0": 0.0, "vx": 10.0, "sv": True},
                "lead": {"x0": 20.0, "vx": 8.0},
            },
            5,
            events=[("t0", 2)],
        )
        t2 = extract_states(d2, LEAD)
        assert t2.unsafe_segments().tolist() == [True]
        assert t2.collision_frames == ((2,),)
        assert t2.unsafe.tolist() == [
            False, False, True, False, False,
        ]

    def test_event_outside_segment_attaches_to_preceding(self):
        agents = {
            "ego": {"x0": 0.0, "vx": 10.0, "sv": True},
            "lead": {"x0": 20.0, "vx": 10.0, "frames": [0, 1, 4, 5]},
        }
        d = scene_dataset(agents, 6, events=[("t0", 2)])
        t = extract_states(d, LEAD)
        assert t.collision_frames == ((2,), ())


def reference_states_csv(table, spec, path):
    """What export_states_csv wrote before: one ``csv.writer`` row per
    state, floats by ``repr``."""
    segment_index = table.segment_index.tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trajectory_id", "segment", "frame", "time", "unsafe", *spec.names])
        for seg, frame, time, unsafe, values in zip(
            table.segment_ids().tolist(),
            table.frame.tolist(),
            table.time.tolist(),
            table.unsafe.tolist(),
            table.values.tolist(),
        ):
            writer.writerow(
                [table.trajectory_ids[seg], segment_index[seg], frame, repr(time),
                 int(unsafe), *map(repr, values)]
            )


class TestExport:
    def test_export_matches_row_wise_reference(self, tmp_path):
        awkward = [(-0.0, 0.0, math.nan), (1e16, 1e-5, 5e-324), (-0.0, -math.inf, 0.1 + 0.2)]
        cases = [
            extract_states(two_car(), LEAD),
            table(
                segment(awkward, tid='a,"b', unsafe=[1]),
                segment(awkward[::-1], tid="x\ny", index=1, frames=[-(2**63), 0, 2**63 - 1]),
                segment(awkward[:1], tid="", index=2),
            ),
            table(dim=3),
        ]
        for t in cases:
            export_states_csv(t, LEAD, tmp_path / "got.csv")
            reference_states_csv(t, LEAD, tmp_path / "want.csv")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_export_round_trip_floats(self, tmp_path):
        d = two_car()
        t = extract_states(d, LEAD)
        out = tmp_path / "states.csv"
        export_states_csv(t, LEAD, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trajectory_id,segment,frame,time,unsafe,v0,v1,p"
        assert len(lines) == 1 + len(t)
        first = lines[1].split(",")
        assert float(first[5]) == 10.0 and float(first[7]) == 16.0


class TestStateTable:
    def test_transitions_stay_inside_segments(self):
        # frames 0-2 in t0, then t1 starting at frame 3 (consecutive across
        # the boundary), then a gap inside t2's segment
        t = table(
            segment([(0.0,), (1.0,), (2.0,)]),
            segment([(3.0,), (4.0,)], tid="t1", frames=[3, 4]),
            segment([(5.0,), (6.0,), (7.0,)], tid="t2", frames=[0, 2, 3]),
        )
        assert transitions(t).tolist() == [0, 1, 3, 6]
        assert t.segment_ids().tolist() == [0, 0, 0, 1, 1, 2, 2, 2]

    def test_unsafe_segments(self):
        t = table(
            segment([(0.0,), (1.0,)]),
            segment([(1.0,)], tid="t1", collisions=(7,)),
            segment([(2.0,), (3.0,)], tid="t2", unsafe=[1]),
        )
        assert t.unsafe_segments().tolist() == [False, True, True]

    def test_distinct_keeps_first_occurrence(self):
        t = table(segment([(1.0, -0.0), (0.5, 2.0), (1.0, 0.0), (0.5, 2.0)]))
        vertices, ids = t.distinct()
        assert repr(vertices.tolist()) == repr([[0.5, 2.0], [1.0, -0.0]])
        assert ids.tolist() == [1, 0, 1, 0]

    def test_concat_refuses_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            table(segment([(1.0, 2.0)]), segment([(1.0, 2.0, 3.0)]))

    def test_empty_extraction_keeps_dimension(self):
        alone = scene_dataset({"ego": {"x0": 0.0, "vx": 25.0, "sv": True}}, 2)
        t = extract_states(alone, MULTI)
        assert t.values.shape == (0, 13) and t.n_segments == 0
        assert transitions(t).tolist() == []

    def test_events_attach_to_containing_preceding_or_first_segment(self):
        # segments span frames 2-3 and 6-7; events before, inside, between
        # and after them
        agents = {
            "ego": {"x0": 0.0, "vx": 10.0, "sv": True},
            "lead": {"x0": 20.0, "vx": 10.0, "frames": [2, 3, 6, 7]},
        }
        events = [("t0", 0), ("t0", 3), ("t0", 4), ("t0", 9)]
        d = scene_dataset(agents, 10, events=events)
        t = extract_states(d, LEAD)
        assert t.collision_frames == ((0, 3, 4), (9,))
        assert t.unsafe.tolist() == [False, True, False, False]

    def test_events_attach_within_their_own_trajectory(self):
        # t0 has states at frames 0-3, t1 at frames 2-3 and 6-7; an event
        # before t1's first segment goes to it, not to t0's last, and one of
        # a trajectory without states is dropped
        agents = {
            "ego": {"x0": 0.0, "vx": 10.0, "sv": True},
            "lead": {"x0": 20.0, "vx": 10.0, "frames": [2, 3, 6, 7]},
        }
        rows = list(scene_dataset(agents, 4).samples)
        rows += scene_dataset(agents, 10, trajectory_id="t1").samples
        rows += scene_dataset({"ego": agents["ego"]}, 3, trajectory_id="t2").samples
        events = [("t0", 9), ("t1", 0), ("t1", 5), ("t2", 1), ("t9", 1)]
        t = extract_states(Dataset(rows, dt=0.1, collision_events=events), LEAD)
        assert t.trajectory_ids == ("t0", "t1", "t1")
        assert t.segment_index.tolist() == [0, 0, 1]
        assert t.collision_frames == ((9,), (0, 5), ())


# slow speeds straddle SPEED_EPS = 0.01
HEADING_VELOCITIES = st.sampled_from(
    [0.0, -0.0, 0.005, -0.007, 0.01, 0.0100001, 1.0, -3.0, 12.0]
) | st.floats(-30.0, 30.0)


class TestSvJoin:
    @settings(max_examples=200, deadline=None)
    @given(runs=st.lists(
        st.lists(st.tuples(HEADING_VELOCITIES, HEADING_VELOCITIES), min_size=1, max_size=7),
        min_size=1, max_size=8,
    ))
    def test_run_wise_headings_match_per_run_rule(self, runs):
        vx = [v for run in runs for v, _ in run]
        vy = [v for run in runs for _, v in run]
        starts = np.cumsum([0] + [len(run) for run in runs[:-1]])
        want = np.concatenate([
            reference_headings([v for v, _ in run], [v for _, v in run]) for run in runs
        ])
        assert headings(vx, vy, starts).tobytes() == want.tobytes()

    def test_slow_samples_keep_their_run_heading(self):
        # run 0 turns left then stops; run 1 starts slow, then heads -y
        vx = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        vy = [0.0, 1.0, 0.001, 0.0, 0.001, -2.0]
        got = headings(vx, vy, [0, 3])
        half_pi = np.pi / 2
        assert got.tolist() == [0.0, half_pi, half_pi, -half_pi, -half_pi, -half_pi]
        assert headings([0.0, 0.001], [0.0, 0.0], [0, 1]).tolist() == [0.0, 0.0]

    @settings(max_examples=200, deadline=None)
    @given(d=neighbour_scenes(), spec=st.sampled_from([LEAD, MULTI, PED, COMBINED]))
    def test_states_match_row_reference_on_neighbour_scenes(self, d, spec):
        assert_matches_row_reference(d, spec)

    @settings(max_examples=150, deadline=None)
    @given(rec=recordings(), spec=st.sampled_from([LEAD, MULTI, PED, COMBINED]))
    def test_states_match_row_reference_on_recordings(self, rec, spec):
        samples, events = rec
        with np.errstate(all="ignore"):
            assert_matches_row_reference(Dataset(samples, collision_events=events), spec)

    @settings(max_examples=150, deadline=None)
    @given(d=neighbour_scenes())
    def test_geometric_labels_match_row_reference_on_neighbour_scenes(self, d):
        got = label_collisions(d, "geometric_overlap").collision_events
        assert got == reference_geometric_events(d)

    @settings(max_examples=150, deadline=None)
    @given(rec=recordings())
    def test_geometric_labels_match_row_reference_on_recordings(self, rec):
        samples, _ = rec
        d = Dataset(samples)
        with np.errstate(all="ignore"):
            assert label_collisions(d, "geometric_overlap").collision_events == (
                reference_geometric_events(d)
            )
