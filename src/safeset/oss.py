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

Each extractor picks neighbours with array operations, over every
trajectory at once, from the dataset's join to the subject vehicle
(:attr:`~safeset.ingest.Dataset.sv_join`): a row per (neighbour, frame
shared with the SV). Frames that fail the validity rules of a space (no
relevant neighbour, or any coordinate outside the configured box) are
skipped. The surviving states land in one :class:`StateTable`: an (n, d)
value array with frame, time and unsafe columns, cut into gap-free
segments wherever the trajectory changes or frames stop being
consecutive. Each segment records its trajectory, its index within it and
the collision events attributed to it, so downstream pruning can tell
safe from unsafe segments. Every later step works on row indices and
masks of this table; no per-state object is built.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import FrameMisalignment, SpecKindMismatch
from .ingest import Dataset, VEHICLE_TYPES
from .kinematics import frame_keys

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


@dataclass(frozen=True, eq=False)
class StateTable:
    """Projected states as columns, grouped into gap-free segments.

    Row k is one state: ``values[k]`` (an (n, d) float64 array), its
    ``frame``, ``time`` and whether a collision event falls on that frame
    (``unsafe``). Rows run in trajectory order. Segment j holds rows
    ``offsets[j]:offsets[j + 1]``; it is segment ``segment_index[j]`` of
    trajectory ``trajectory_ids[j]`` and carries the collision events
    ``collision_frames[j]`` attributed to it.
    """

    values: np.ndarray
    frame: np.ndarray
    time: np.ndarray
    unsafe: np.ndarray
    offsets: np.ndarray
    trajectory_ids: tuple[str, ...]
    segment_index: np.ndarray
    collision_frames: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.frame)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_segments(self) -> int:
        return len(self.trajectory_ids)

    def segment_ids(self) -> np.ndarray:
        """The segment of every state."""
        return np.repeat(np.arange(self.n_segments), np.diff(self.offsets))

    def unsafe_segments(self) -> np.ndarray:
        """Per segment: a collision event was attributed to it or one of its
        states is unsafe."""
        out = np.array([bool(c) for c in self.collision_frames], dtype=bool)
        out[self.segment_ids()[self.unsafe]] = True
        return out

    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct state values in lexicographic order, and each state's row
        among them. States match when their values are equal as floats
        (0.0 equals -0.0); each row is its value's first occurrence."""
        # return_index selects a stable sort, which keeps first occurrences
        vertices, _, ids = np.unique(
            self.values, axis=0, return_index=True, return_inverse=True
        )
        return vertices, ids.reshape(-1)


def transitions(table: StateTable) -> np.ndarray:
    """Tail rows of the observed transitions: state k steps to state k + 1
    when both lie in one segment at consecutive frames."""
    seg = table.segment_ids()
    return np.flatnonzero((np.diff(table.frame) == 1) & (seg[1:] == seg[:-1]))


# ---------------------------------------------------------------------------
# shared extraction machinery
# ---------------------------------------------------------------------------


def _candidates(d: Dataset, agent_types: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """The rows of the SV join (see :class:`~safeset.kinematics.SvJoin`)
    whose agent has one of the given types, in track order: SV index, the
    SV's and the neighbour's table rows, dlong and dlat (SV-local center
    offsets)."""
    join = d.sv_join
    wanted = np.array([t in agent_types for t in d.samples.labels["agent_type"]], dtype=bool)
    keep = wanted[d.samples.columns["agent_type"][join.rows]]
    sv = join.sv[keep]
    return sv, join.sv_rows[sv], join.rows[keep], join.dlong[keep], join.dlat[keep]


def _nearest(group: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Index of the smallest ``dist`` in each group of equal non-negative
    ``group`` keys, groups ascending. lexsort is stable, so of equally near
    candidates the first wins."""
    order = np.lexsort((dist, group))
    return order[np.diff(group[order], prepend=-1) != 0]


def _assemble_segments(
    names: Sequence[str],
    traj: np.ndarray,
    frame: np.ndarray,
    time: np.ndarray,
    values: np.ndarray,
    unsafe: np.ndarray | None,
    events: Iterable[tuple[str, int]],
) -> StateTable:
    """Split states ordered by (trajectory code ``traj``, frame) into
    segments, breaking wherever the trajectory changes or the frame step is
    not 1, and attribute the collision events to segments.

    ``names[c]`` names trajectory code c, and ``events`` are (name, frame)
    pairs. When ``unsafe`` is None, a state is unsafe when an event falls
    on its trajectory and frame. An event lands in the segment of its
    trajectory whose frame span contains it; otherwise in the nearest
    preceding one (the motion that led to the collision); otherwise in the
    first. Spans are disjoint and ascending, so both cases are the last
    segment starting at or before the event. Events of trajectories without
    a segment are dropped.
    """
    n = len(frame)
    breaks = np.flatnonzero((np.diff(frame) != 1) | (np.diff(traj) != 0)) + 1
    offsets = np.concatenate(([0], breaks, [n] if n else [])).astype(np.intp)
    first = offsets[:-1]
    seg_traj = traj[first]

    code = {name: c for c, name in enumerate(names)}
    pairs = sorted((code[t], f) for t, f in events if t in code)
    ev_traj, ev_frame = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    keys = frame_keys(np.concatenate([traj, ev_traj]), np.concatenate([frame, ev_frame]))
    if unsafe is None:
        unsafe = np.isin(keys[:n], keys[n:])
    seg = np.maximum(
        np.searchsorted(keys[first], keys[n:], side="right") - 1,
        np.searchsorted(seg_traj, ev_traj),
    )
    own = seg < len(first)
    own[own] = seg_traj[seg[own]] == ev_traj[own]
    attached: list[list[int]] = [[] for _ in first]
    for j, e in zip(seg[own].tolist(), ev_frame[own].tolist()):
        attached[j].append(e)
    return StateTable(
        values=values,
        frame=frame,
        time=time,
        unsafe=unsafe,
        offsets=offsets,
        trajectory_ids=tuple(names[c] for c in seg_traj.tolist()),
        segment_index=np.arange(len(first)) - np.searchsorted(seg_traj, seg_traj),
        collision_frames=tuple(map(tuple, attached)),
    )


def _sv_states(d: Dataset, idx: np.ndarray, values: np.ndarray) -> StateTable:
    """Segments of the states ``values`` found at the ascending SV indices
    ``idx``."""
    rows = d.sv_join.sv_rows[idx]
    cols = d.samples.columns
    return _assemble_segments(
        d.trajectory_ids,
        cols["trajectory_id"][rows],
        cols["frame"][rows],
        cols["time"][rows],
        values,
        None,
        d.collision_events,
    )


def _speeds(d: Dataset, rows: np.ndarray) -> np.ndarray:
    cols = d.samples.columns
    return np.hypot(cols["vx"][rows], cols["vy"][rows])


# ---------------------------------------------------------------------------
# extractors
# ---------------------------------------------------------------------------


def extract_lead_following(d: Dataset, spec: OssSpec) -> StateTable:
    """Project onto (v0, v1, p): SV speed, leader speed, bumper gap.

    The leader is the nearest vehicle ahead of the SV in its own lane: the
    same lane id when both carry one, else a lateral offset within half a
    lane width. Of equally near vehicles the first in track order leads. A
    frame without a leader, or with any coordinate outside the box, emits
    no state.
    """
    if spec.kind != "lead_following":
        raise SpecKindMismatch(f"expected lead_following spec, got {spec.kind!r}")
    bounds = spec.bounds()
    sv, at, row, dlong, dlat = _candidates(d, VEHICLE_TYPES)
    lane, has_lane = d.samples.columns["lane_id"], d.samples.has_lane
    same_lane = np.where(
        has_lane[at] & has_lane[row],
        lane[at] == lane[row],
        np.abs(dlat) <= spec.lane_width / 2.0,
    )
    ahead = np.flatnonzero((dlong > 0) & same_lane)
    lead = ahead[_nearest(sv[ahead], dlong[ahead])]
    idx = sv[lead]
    length = d.samples.columns["length"]
    p = dlong[lead] - (length[at[lead]] + length[row[lead]]) / 2.0
    vals = np.column_stack([_speeds(d, at[lead]), _speeds(d, row[lead]), p])
    ok = ((vals >= bounds[:, 0]) & (vals <= bounds[:, 1])).all(axis=1)
    return _sv_states(d, idx[ok], vals[ok])


def extract_multi_vehicle(d: Dataset, spec: OssSpec) -> StateTable:
    """Project onto the 13-D neighbourhood vector.

    Each of the six subregions keeps its nearest vehicle (center distance;
    the first in track order on equal distances), described by the signed
    bumper gap p (positive ahead, negative behind, zero on longitudinal
    overlap) and its speed. A vehicle within half a lane width laterally is
    in the center band, else in the left or right band when its lateral
    offset lies in ``side_band`` on that side. Unoccupied subregions, and
    those whose nearest vehicle is out of bounds, take maximal-clearance
    fills: (p_max, v0) in front, (p_min, v0) behind. A frame is valid when
    at least one subregion holds a real vehicle and v0 is in bounds; every
    coordinate is then inside the box.
    """
    if spec.kind not in ("multi_vehicle", "combined"):
        raise SpecKindMismatch(f"expected multi_vehicle spec, got {spec.kind!r}")
    lo, hi = spec.side_band
    dim = len(MULTI_NAMES)
    sv, at, row, dlong, dlat = _candidates(d, VEHICLE_TYPES)
    # bands index SUBREGIONS within front (fl, fc, fr) and rear (rl, rc, rr)
    band = np.select(
        [
            np.abs(dlat) <= spec.lane_width / 2.0,
            (lo <= dlat) & (dlat <= hi),
            (-hi <= dlat) & (dlat <= -lo),
        ],
        [1, 0, 2],
        -1,
    )
    sub = 3 * (dlong < 0) + band
    seen = np.flatnonzero(band >= 0)
    dist = np.hypot(dlong[seen], dlat[seen])
    near = seen[_nearest(len(SUBREGIONS) * sv[seen] + sub[seen], dist)]
    length = d.samples.columns["length"]
    gap = np.abs(dlong[near]) - (length[at[near]] + length[row[near]]) / 2.0
    p = np.where(gap > 0, np.sign(dlong[near]) * gap, 0.0)
    v1 = _speeds(d, row[near])
    ok = (spec.p_min <= p) & (p <= spec.p_max)
    ok &= (spec.v_min <= v1) & (v1 <= spec.v_max)
    idx, p_col = sv[near][ok], 1 + 2 * sub[near][ok]

    v0 = _speeds(d, d.sv_join.sv_rows)
    values = np.empty((len(v0), dim))
    values[:, 0] = v0
    values[:, 1::2] = np.repeat([spec.p_max, spec.p_min], 3)
    values[:, 2::2] = v0[:, None]
    values[idx, p_col] = p[ok]
    values[idx, p_col + 1] = v1[ok]
    occupied = np.bincount(idx, minlength=len(v0)) > 0
    keep = np.flatnonzero(occupied & (spec.v_min <= v0) & (v0 <= spec.v_max))
    return _sv_states(d, keep, values[keep])


def extract_vehicle_pedestrian(d: Dataset, spec: OssSpec) -> StateTable:
    """Project onto (v0, p_left, q_left, p_right, q_right).

    For each front bumper corner, the nearest pedestrian at or ahead of the
    bumper line (the first in track order on equal distances) contributes
    its longitudinal advance p and absolute lateral offset q, both measured
    from the corner. Pedestrians strictly behind the bumper line are
    ignored; empty corners, and those whose nearest pedestrian is out of
    bounds, take the maximal-clearance fill (ped_p_max, q_max). A frame is
    valid when a corner holds a real pedestrian and v0 is in bounds.
    """
    if spec.kind not in ("vehicle_pedestrian", "combined"):
        raise SpecKindMismatch(f"expected vehicle_pedestrian spec, got {spec.kind!r}")
    dim = len(PED_NAMES)
    sv, at, _, dlong, dlat = _candidates(d, ("pedestrian",))
    along = dlong - d.samples.columns["length"][at] / 2.0
    front = along >= 0
    sv, along, dlat = sv[front], along[front], dlat[front]
    half_width = d.samples.columns["width"][at[front]] / 2.0

    v0 = _speeds(d, d.sv_join.sv_rows)
    values = np.empty((len(v0), dim))
    values[:, 0] = v0
    values[:, 1::2] = spec.ped_p_max
    values[:, 2::2] = spec.q_max
    occupied = np.zeros(len(v0), dtype=bool)
    for col, side_sign in ((1, 1.0), (3, -1.0)):
        lat = dlat - side_sign * half_width
        near = _nearest(sv, np.hypot(along, lat))
        p, q = along[near], np.abs(lat[near])
        ok = (p <= spec.ped_p_max) & (q <= spec.q_max)
        idx = sv[near][ok]
        values[idx, col] = p[ok]
        values[idx, col + 1] = q[ok]
        occupied[idx] = True
    keep = np.flatnonzero(occupied & (spec.v_min <= v0) & (v0 <= spec.v_max))
    return _sv_states(d, keep, values[keep])


def combine_domains(multi: StateTable, ped: StateTable) -> StateTable:
    """Merge 13-D and 5-D tables on their shared SV speed into 17-D.

    States are joined on (trajectory, frame): only frames valid in both
    component spaces survive, trajectories in the order of ``ped``, and
    every trajectory is re-split into consecutive-frame segments carrying
    the collision events of both components. The two components must
    agree on v0 and time at every shared frame.
    """
    for table, n_values, which in (
        (multi, len(MULTI_NAMES), "first argument must hold 13-D states"),
        (ped, len(PED_NAMES), "second argument must hold 5-D states"),
    ):
        if table.dim != n_values:
            raise SpecKindMismatch(which)
    names = tuple(dict.fromkeys(ped.trajectory_ids))
    code = {name: c for c, name in enumerate(names)}
    # per state, the code of its trajectory; -1 for one that ped lacks
    traj = [
        np.repeat(
            np.array([code.get(t, -1) for t in table.trajectory_ids], dtype=np.intp),
            np.diff(table.offsets),
        )
        for table in (multi, ped)
    ]
    keys = frame_keys(np.concatenate(traj), np.concatenate([multi.frame, ped.frame]))
    _, a, b = np.intersect1d(keys[: len(multi)], keys[len(multi) :], return_indices=True)
    bad = (multi.values[a, 0] != ped.values[b, 0]) | (multi.time[a] != ped.time[b])
    if bad.any():
        k = int(np.argmax(bad))
        raise FrameMisalignment(
            f"components disagree at trajectory {names[traj[1][b[k]]]!r}"
            f" frame {multi.frame[a[k]]}"
        )
    events = {
        (t, f)
        for table in (multi, ped)
        for t, frames in zip(table.trajectory_ids, table.collision_frames)
        for f in frames
    }
    return _assemble_segments(
        names,
        traj[1][b],
        multi.frame[a],
        multi.time[a],
        np.hstack([multi.values[a], ped.values[b, 1:]]),
        multi.unsafe[a] | ped.unsafe[b],
        events,
    )


def extract_states(d: Dataset, spec: OssSpec) -> StateTable:
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


def export_states_csv(table: StateTable, spec: OssSpec, path: str | Path) -> None:
    """Write projected states as CSV, one row per state."""
    segment_index = table.segment_index.tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["trajectory_id", "segment", "frame", "time", "unsafe", *spec.names]
        )
        for seg, frame, time, unsafe, values in zip(
            table.segment_ids().tolist(),
            table.frame.tolist(),
            table.time.tolist(),
            table.unsafe.tolist(),
            table.values.tolist(),
        ):
            writer.writerow(
                [
                    table.trajectory_ids[seg],
                    segment_index[seg],
                    frame,
                    repr(time),
                    int(unsafe),
                    *map(repr, values),
                ]
            )
