"""Projection of recordings into operational state spaces.

A recording is reduced, frame by frame, to a low-dimensional state vector
describing the subject vehicle (SV) and its immediate neighbourhood:

* lead_following (3-D): SV speed, leader speed, bumper gap (v0, v1, p).
* multi_vehicle (13-D): SV speed plus signed bumper gap and speed of the
  nearest vehicle in six subregions around the SV (front/rear x left/
  center/right). Empty subregions take clearance fills.
* vehicle_pedestrian (5-D): SV speed plus longitudinal/lateral offset of
  the nearest pedestrian ahead of each front bumper corner.
* combined (17-D): the two previous vectors merged on their shared SV speed.

Frames that fail the validity rules of a space (no relevant neighbour, or
any coordinate outside the configured box) are skipped; the surviving
frames form gap-free state trajectories, split wherever frames stop being
consecutive. Collision events are carried over so that downstream
classification can tell safe from unsafe trajectories.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import FrameMisalignment, SpecKindMismatch
from .ingest import Dataset, Track, VEHICLE_TYPES
from .kinematics import sv_frame_offsets

OSS_KINDS = ("lead_following", "multi_vehicle", "vehicle_pedestrian", "combined")

SUBREGIONS = ("fl", "fc", "fr", "rl", "rc", "rr")

MULTI_NAMES = ("v0",) + tuple(
    name for sub in SUBREGIONS for name in (f"p_{sub}", f"v_{sub}")
)
PED_NAMES = ("v0", "p_left", "q_left", "p_right", "q_right")
LEAD_NAMES = ("v0", "v1", "p")


@dataclass(frozen=True)
class OssSpec:
    """Geometry and bounds of one operational state space.

    ``p_min``/``p_max`` bound the (signed, for multi_vehicle) longitudinal
    bumper gap to other vehicles; ``ped_p_max``/``q_max`` bound the
    pedestrian block; ``lane_width`` sets the center band and ``side_band``
    the lateral-offset interval counted as the adjacent lane.
    """

    kind: str
    v_min: float
    v_max: float
    p_min: float = 0.0
    p_max: float = 0.0
    ped_p_max: float = 0.0
    q_max: float = 0.0
    lane_width: float = 3.75
    side_band: tuple[float, float] = (1.875, 5.625)

    def __post_init__(self):
        if self.kind not in OSS_KINDS:
            raise SpecKindMismatch(f"unknown state-space kind {self.kind!r}")
        if not self.v_max > self.v_min:
            raise ValueError("v_max must exceed v_min")

    @property
    def names(self) -> tuple[str, ...]:
        if self.kind == "lead_following":
            return LEAD_NAMES
        if self.kind == "multi_vehicle":
            return MULTI_NAMES
        if self.kind == "vehicle_pedestrian":
            return PED_NAMES
        return MULTI_NAMES + PED_NAMES[1:]

    @property
    def dim(self) -> int:
        return len(self.names)

    def bounds(self) -> np.ndarray:
        """Closed per-dimension intervals, shape (dim, 2)."""
        v = (self.v_min, self.v_max)
        if self.kind == "lead_following":
            rows = [v, v, (self.p_min, self.p_max)]
        elif self.kind == "multi_vehicle":
            rows = [v] + [(self.p_min, self.p_max), v] * len(SUBREGIONS)
        elif self.kind == "vehicle_pedestrian":
            ped = [(0.0, self.ped_p_max), (0.0, self.q_max)]
            rows = [v] + ped + ped
        else:
            ped = [(0.0, self.ped_p_max), (0.0, self.q_max)]
            rows = [v] + [(self.p_min, self.p_max), v] * len(SUBREGIONS) + ped + ped
        out = np.array(rows, dtype=float)
        if not (out[:, 1] > out[:, 0]).all():
            raise ValueError("every state-space interval must have positive width")
        return out

    def box_volume(self) -> float:
        b = self.bounds()
        return float(np.prod(b[:, 1] - b[:, 0]))

    def normalize(self, values: np.ndarray) -> np.ndarray:
        """Affine map of physical state vectors onto the unit box."""
        b = self.bounds()
        return (np.asarray(values, dtype=float) - b[:, 0]) / (b[:, 1] - b[:, 0])


PRESETS: dict[str, OssSpec] = {
    "highd-lead": OssSpec("lead_following", v_min=20.0, v_max=35.0, p_min=0.0, p_max=50.0),
    "sumo-lead": OssSpec("lead_following", v_min=0.0, v_max=30.0, p_min=0.0, p_max=100.0),
    "ncap-lead": OssSpec("lead_following", v_min=0.0, v_max=25.0, p_min=0.0, p_max=40.0),
    "highd-multi": OssSpec(
        "multi_vehicle",
        v_min=20.0,
        v_max=30.0,
        p_min=-50.0,
        p_max=50.0,
        lane_width=3.75,
        side_band=(1.875, 5.625),
    ),
    "waymo-carla-17d": OssSpec(
        "combined",
        v_min=1.0,
        v_max=25.0,
        p_min=-50.0,
        p_max=50.0,
        ped_p_max=50.0,
        q_max=10.0,
        lane_width=5.0,
        side_band=(2.5, 10.0),
    ),
}


@dataclass(frozen=True)
class OssState:
    """One projected state. Identity for graph purposes is ``values``."""

    values: tuple[float, ...]
    time: float
    trajectory_id: str
    frame: int
    unsafe: bool = False


@dataclass(frozen=True)
class StateTrajectory:
    """A maximal run of states with consecutive frames from one recording
    trajectory, plus the collision events attributed to it."""

    trajectory_id: str
    segment_index: int
    states: tuple[OssState, ...]
    collision_frames: tuple[int, ...] = ()

    @property
    def first_frame(self) -> int:
        return self.states[0].frame

    @property
    def last_frame(self) -> int:
        return self.states[-1].frame

    def gap_free(self) -> tuple[bool, ...]:
        """One flag per consecutive state pair: frames differ by exactly 1."""
        return tuple(
            b.frame == a.frame + 1 for a, b in zip(self.states, self.states[1:])
        )

    def pairs(self) -> list[tuple[OssState, OssState]]:
        flags = self.gap_free()
        return [
            (a, b)
            for (a, b), ok in zip(zip(self.states, self.states[1:]), flags)
            if ok
        ]


@dataclass(frozen=True)
class TransitionSet:
    """Ordered observed transitions (state, next state)."""

    pairs: tuple[tuple[OssState, OssState], ...]

    def __len__(self) -> int:
        return len(self.pairs)


def classify_trajectories(
    trajs: Sequence[StateTrajectory],
) -> tuple[list[StateTrajectory], list[StateTrajectory]]:
    """Split into (safe, unsafe). A trajectory is unsafe when any of its
    states carries a collision flag or a collision event was attributed to
    its frame span."""
    safe, unsafe = [], []
    for t in trajs:
        if t.collision_frames or any(s.unsafe for s in t.states):
            unsafe.append(t)
        else:
            safe.append(t)
    return safe, unsafe


def transitions(trajs: Sequence[StateTrajectory]) -> TransitionSet:
    """All gap-free consecutive state pairs, in trajectory order."""
    out: list[tuple[OssState, OssState]] = []
    for t in trajs:
        out.extend(t.pairs())
    return TransitionSet(tuple(out))


# ---------------------------------------------------------------------------
# shared extraction machinery
# ---------------------------------------------------------------------------


def _in_bounds(values: Sequence[float], bounds: np.ndarray) -> bool:
    arr = np.asarray(values, dtype=float)
    return bool((arr >= bounds[:, 0]).all() and (arr <= bounds[:, 1]).all())


@dataclass(eq=False)
class _Candidate:
    """Another agent seen from the SV at one frame, in the SV's local frame."""

    dlong: float
    dlat: float
    speed: float
    length: float
    lane_id: int | None


def _candidates_by_frame(
    d: Dataset, traj: str, agent_types: tuple[str, ...]
) -> tuple[Track, dict[int, list[_Candidate]]]:
    """Index every agent of the given types by frame, in SV-local coordinates."""
    sv = d.sv_track(traj)
    by_frame: dict[int, list[_Candidate]] = {int(f): [] for f in sv.frames}
    others = [
        t
        for t in d.trajectory_tracks(traj)
        if t.agent_id != sv.agent_id and t.agent_type in agent_types
    ]
    for other, common, _, ot_rows, dlong, dlat in sv_frame_offsets(sv, others):
        speed = np.hypot(other.vx[ot_rows], other.vy[ot_rows])
        for k, f in enumerate(common):
            by_frame[int(f)].append(
                _Candidate(
                    dlong=float(dlong[k]),
                    dlat=float(dlat[k]),
                    speed=float(speed[k]),
                    length=float(other.length[ot_rows[k]]),
                    lane_id=other.lane_id[ot_rows[k]],
                )
            )
    return sv, by_frame


def _assemble_segments(
    traj: str,
    entries: list[tuple[int, float, tuple[float, ...], bool]],
    event_frames: Iterable[int],
) -> list[StateTrajectory]:
    """Split (frame, time, values, unsafe) entries into consecutive-frame
    segments and attribute the trajectory's collision events to segments.

    An event lands in the segment whose frame span contains it; otherwise in
    the nearest preceding segment (the motion that led to the collision);
    otherwise in the first segment.
    """
    if not entries:
        return []
    runs: list[list[tuple[int, float, tuple[float, ...], bool]]] = [[entries[0]]]
    for prev, cur in zip(entries, entries[1:]):
        if cur[0] == prev[0] + 1:
            runs[-1].append(cur)
        else:
            runs.append([cur])

    spans = [(run[0][0], run[-1][0]) for run in runs]
    attached: list[list[int]] = [[] for _ in runs]
    for e in sorted(event_frames):
        target = None
        for i, (lo, hi) in enumerate(spans):
            if lo <= e <= hi:
                target = i
                break
        if target is None:
            preceding = [i for i, (lo, _) in enumerate(spans) if lo <= e]
            target = preceding[-1] if preceding else 0
        attached[target].append(e)

    return [
        StateTrajectory(
            trajectory_id=traj,
            segment_index=i,
            states=tuple(
                OssState(vals, t, traj, f, unsafe) for f, t, vals, unsafe in run
            ),
            collision_frames=tuple(attached[i]),
        )
        for i, run in enumerate(runs)
    ]


def _same_lane(sv_lane: int | None, cand: _Candidate, lane_width: float) -> bool:
    if sv_lane is not None and cand.lane_id is not None:
        return sv_lane == cand.lane_id
    return abs(cand.dlat) <= lane_width / 2.0


# ---------------------------------------------------------------------------
# extractors
# ---------------------------------------------------------------------------


def extract_lead_following(d: Dataset, spec: OssSpec) -> list[StateTrajectory]:
    """Project onto (v0, v1, p): SV speed, leader speed, bumper gap.

    The leader is the nearest vehicle ahead of the SV in its own lane. A
    frame without a leader, or with any coordinate outside the box, emits
    no state.
    """
    if spec.kind != "lead_following":
        raise SpecKindMismatch(f"expected lead_following spec, got {spec.kind!r}")
    bounds = spec.bounds()
    out: list[StateTrajectory] = []
    for traj in d.trajectory_ids:
        sv, by_frame = _candidates_by_frame(d, traj, VEHICLE_TYPES)
        sv_speed = sv.speeds()
        events = set(d.events_for(traj))
        entries = []
        for row, frame in enumerate(sv.frames):
            frame = int(frame)
            ahead = [
                c
                for c in by_frame[frame]
                if c.dlong > 0 and _same_lane(sv.lane_id[row], c, spec.lane_width)
            ]
            if not ahead:
                continue
            lead = min(ahead, key=lambda c: c.dlong)
            p = lead.dlong - (sv.length[row] + lead.length) / 2.0
            values = (float(sv_speed[row]), lead.speed, float(p))
            if _in_bounds(values, bounds):
                entries.append((frame, float(sv.times[row]), values, frame in events))
        out.extend(_assemble_segments(traj, entries, events))
    return out


def _band(dlat: float, spec: OssSpec) -> str | None:
    lo, hi = spec.side_band
    if abs(dlat) <= spec.lane_width / 2.0:
        return "c"
    if lo <= dlat <= hi:
        return "l"
    if -hi <= dlat <= -lo:
        return "r"
    return None


def extract_multi_vehicle(d: Dataset, spec: OssSpec) -> list[StateTrajectory]:
    """Project onto the 13-D neighbourhood vector.

    Each of the six subregions keeps its nearest vehicle (center distance),
    described by the signed bumper gap p (positive ahead, negative behind,
    zero on longitudinal overlap) and its speed. Unoccupied or out-of-bounds
    subregions take maximal-clearance fills: (p_max, v0) in front, (p_min,
    v0) behind. A frame is valid when at least one subregion holds a real
    vehicle and v0 is in bounds.
    """
    if spec.kind not in ("multi_vehicle", "combined"):
        raise SpecKindMismatch(f"expected multi_vehicle spec, got {spec.kind!r}")
    v_bounds = (spec.v_min, spec.v_max)
    p_bounds = (spec.p_min, spec.p_max)
    full_bounds = np.array([v_bounds] + [p_bounds, v_bounds] * len(SUBREGIONS))
    out: list[StateTrajectory] = []
    for traj in d.trajectory_ids:
        sv, by_frame = _candidates_by_frame(d, traj, VEHICLE_TYPES)
        sv_speed = sv.speeds()
        events = set(d.events_for(traj))
        entries = []
        for row, frame in enumerate(sv.frames):
            frame = int(frame)
            v0 = float(sv_speed[row])
            if not (v_bounds[0] <= v0 <= v_bounds[1]):
                continue
            best: dict[str, tuple[float, float, float]] = {}
            for c in by_frame[frame]:
                band = _band(c.dlat, spec)
                if band is None:
                    continue
                sub = ("f" if c.dlong >= 0 else "r") + band
                gap = abs(c.dlong) - (sv.length[row] + c.length) / 2.0
                p = float(np.sign(c.dlong) * gap) if gap > 0 else 0.0
                dist = float(np.hypot(c.dlong, c.dlat))
                if sub not in best or dist < best[sub][0]:
                    best[sub] = (dist, p, c.speed)
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
            if occupied == 0:
                continue
            vals = tuple(float(v) for v in values)
            if _in_bounds(vals, full_bounds):
                entries.append((frame, float(sv.times[row]), vals, frame in events))
        out.extend(_assemble_segments(traj, entries, events))
    return out


def extract_vehicle_pedestrian(d: Dataset, spec: OssSpec) -> list[StateTrajectory]:
    """Project onto (v0, p_left, q_left, p_right, q_right).

    For each front bumper corner, the nearest pedestrian at or ahead of the
    bumper line contributes its longitudinal advance p and absolute lateral
    offset q, both measured from the corner. Pedestrians strictly behind the
    bumper line are ignored; empty or out-of-bounds corners take the
    maximal-clearance fill (ped_p_max, q_max).
    """
    if spec.kind not in ("vehicle_pedestrian", "combined"):
        raise SpecKindMismatch(f"expected vehicle_pedestrian spec, got {spec.kind!r}")
    v_bounds = (spec.v_min, spec.v_max)
    out: list[StateTrajectory] = []
    for traj in d.trajectory_ids:
        sv, by_frame = _candidates_by_frame(d, traj, ("pedestrian",))
        sv_speed = sv.speeds()
        events = set(d.events_for(traj))
        entries = []
        for row, frame in enumerate(sv.frames):
            frame = int(frame)
            v0 = float(sv_speed[row])
            if not (v_bounds[0] <= v0 <= v_bounds[1]):
                continue
            half_len = sv.length[row] / 2.0
            half_wid = sv.width[row] / 2.0
            values = [v0]
            occupied = 0
            for side_sign in (1.0, -1.0):
                best: tuple[float, float, float] | None = None
                for c in by_frame[frame]:
                    along = c.dlong - half_len
                    if along < 0:
                        continue
                    lat = c.dlat - side_sign * half_wid
                    dist = float(np.hypot(along, lat))
                    if best is None or dist < best[0]:
                        best = (dist, float(along), float(abs(lat)))
                if best is not None and best[1] <= spec.ped_p_max and best[2] <= spec.q_max:
                    values.extend([best[1], best[2]])
                    occupied += 1
                else:
                    values.extend([spec.ped_p_max, spec.q_max])
            if occupied == 0:
                continue
            entries.append((frame, float(sv.times[row]), tuple(values), frame in events))
        out.extend(_assemble_segments(traj, entries, events))
    return out


def combine_domains(
    multi: Sequence[StateTrajectory], ped: Sequence[StateTrajectory]
) -> list[StateTrajectory]:
    """Merge 13-D and 5-D trajectories on their shared SV speed into 17-D.

    Only frames valid in both component spaces survive; the result is
    re-split into consecutive-frame segments. The two components must agree
    on v0 and time at every shared frame.
    """
    multi_by: dict[str, dict[int, OssState]] = {}
    ped_by: dict[str, dict[int, OssState]] = {}
    coll_by: dict[str, set[int]] = {}
    for trajs, by, n_values, which in (
        (multi, multi_by, len(MULTI_NAMES), "first argument must hold 13-D states"),
        (ped, ped_by, len(PED_NAMES), "second argument must hold 5-D states"),
    ):
        for t in trajs:
            if t.states and len(t.states[0].values) != n_values:
                raise SpecKindMismatch(which)
            coll_by.setdefault(t.trajectory_id, set()).update(t.collision_frames)
            for s in t.states:
                by.setdefault(s.trajectory_id, {})[s.frame] = s

    out: list[StateTrajectory] = []
    for traj, ped_frames in ped_by.items():
        multi_frames = multi_by.get(traj, {})
        entries = []
        for f in sorted(multi_frames.keys() & ped_frames.keys()):
            a, b = multi_frames[f], ped_frames[f]
            if a.values[0] != b.values[0] or a.time != b.time:
                raise FrameMisalignment(
                    f"components disagree at trajectory {traj!r} frame {f}"
                )
            entries.append((f, a.time, a.values + b.values[1:], a.unsafe or b.unsafe))
        out.extend(_assemble_segments(traj, entries, coll_by.get(traj, ())))
    return out


def extract_states(d: Dataset, spec: OssSpec) -> list[StateTrajectory]:
    """Dispatch to the extractor matching ``spec.kind``."""
    if spec.kind == "lead_following":
        return extract_lead_following(d, spec)
    if spec.kind == "multi_vehicle":
        return extract_multi_vehicle(d, spec)
    if spec.kind == "vehicle_pedestrian":
        return extract_vehicle_pedestrian(d, spec)
    return combine_domains(
        extract_multi_vehicle(d, spec), extract_vehicle_pedestrian(d, spec)
    )


def export_states_csv(
    trajs: Sequence[StateTrajectory], spec: OssSpec, path: str | Path
) -> None:
    """Write projected states as CSV, one row per state."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["trajectory_id", "segment", "frame", "time", "unsafe", *spec.names]
        )
        for t in trajs:
            for s in t.states:
                writer.writerow(
                    [
                        t.trajectory_id,
                        t.segment_index,
                        s.frame,
                        repr(float(s.time)),
                        int(s.unsafe),
                        *[repr(float(v)) for v in s.values],
                    ]
                )
