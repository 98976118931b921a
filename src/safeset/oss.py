"""Projection of recordings into operational state spaces.

A recording is reduced, frame by frame, to a low-dimensional state vector
describing the subject vehicle (SV) and its immediate neighbourhood:

* lead_following (3-D): SV speed, leader speed, bumper gap (v0, v1, p).
* multi_vehicle (13-D): SV speed plus signed bumper gap and speed of the
  nearest vehicle in six subregions around the SV (front/rear x left/
  center/right). Empty subregions take clearance fills.
* vehicle_pedestrian (5-D): SV speed plus longitudinal/lateral offset of
  the nearest pedestrian ahead of each front bumper corner.
* combined (17-D): the vehicle subregions and the pedestrian corners of
  one SV sample, v0 once, for the SV samples valid in both.

Every space starts from :meth:`OssSpec.clearance`, each SV sample with
every neighbour slot empty, and each neighbour block of the space fills
its own columns with array operations over every trajectory at once (see
:func:`extract_states`). The surviving states land in one
:class:`StateTable`: an (n, d) value array with frame, time and unsafe
columns, cut into gap-free segments wherever the trajectory changes or
frames stop being consecutive. Each segment records its trajectory, its
index within it and the collision events attributed to it, so downstream
pruning can tell safe from unsafe segments. Every later step works on row
indices and masks of this table; no per-state object is built.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .celltext import label_cells, number_cells, write_rows
from .errors import SpecKindMismatch
from .ingest import Dataset, VEHICLE_TYPES
from .kinematics import frame_keys

OSS_KINDS = ("lead_following", "multi_vehicle", "vehicle_pedestrian", "combined")

SUBREGIONS = ("fl", "fc", "fr", "rl", "rc", "rr")


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
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if not np.isfinite(value).all():
                raise ValueError(f"{f.name} must be finite, got {value}")
        if np.shape(self.side_band) != (2,) or not self.side_band[0] < self.side_band[1]:
            raise ValueError(f"side_band must be two numbers lo < hi, got {self.side_band}")
        if not self.v_max > self.v_min:
            raise ValueError("v_max must exceed v_min")

    def _layout(self) -> list[tuple[str, tuple[float, float], float | None]]:
        """Per dimension: its name, its closed interval, and the value it
        holds when its neighbour slot is empty (see :meth:`clearance`), None
        standing for v0."""
        v, p = (self.v_min, self.v_max), (self.p_min, self.p_max)
        vehicles = [
            slot
            for sub in SUBREGIONS
            for slot in (
                (f"p_{sub}", p, self.p_max if sub[0] == "f" else self.p_min),
                (f"v_{sub}", v, None),
            )
        ]
        corners = [
            slot
            for side in ("left", "right")
            for slot in (
                (f"p_{side}", (0.0, self.ped_p_max), self.ped_p_max),
                (f"q_{side}", (0.0, self.q_max), self.q_max),
            )
        ]
        slots = {
            "lead_following": [("v1", v, None), ("p", p, self.p_max)],
            "multi_vehicle": vehicles,
            "vehicle_pedestrian": corners,
            "combined": vehicles + corners,
        }[self.kind]
        return [("v0", v, None), *slots]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self._layout())

    @property
    def dim(self) -> int:
        return len(self.names)

    def bounds(self) -> np.ndarray:
        """Closed per-dimension intervals, shape (dim, 2)."""
        out = np.array([interval for _, interval, _ in self._layout()], dtype=float)
        for name, (lo, hi) in zip(self.names, out):
            if not hi > lo:
                raise ValueError(
                    f"every state-space interval must have positive width; {name} has [{lo}, {hi}]"
                )
        return out

    def clearance(self, v0) -> np.ndarray:
        """The states at SV speeds ``v0`` (shape ``(*v0.shape, dim)``) with
        every neighbour slot empty: (p_max, v0) for a front vehicle
        subregion, (p_min, v0) for a rear one, (ped_p_max, q_max) for a
        pedestrian corner, and a leader at gap p_max driving at v0."""
        v0 = np.asarray(v0, dtype=float)[..., None]
        slots = [v0 if fill is None else fill for _, _, fill in self._layout()]
        return np.concatenate(np.broadcast_arrays(*slots), axis=-1)

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


def _sv_states(d: Dataset, valid: np.ndarray, values: np.ndarray) -> StateTable:
    """The states ``values`` of the SV samples where the mask ``valid`` over
    the SV indices is set, split into segments that break wherever the
    trajectory changes or the frame step is not 1, with the dataset's
    collision events attributed to the segments.

    A state is unsafe when an event falls on its trajectory and frame. An
    event lands in the segment of its trajectory whose frame span contains
    it; otherwise in the nearest preceding one (the motion that led to the
    collision); otherwise in the first. Spans are disjoint and ascending,
    so both cases are the last segment starting at or before the event.
    Events of trajectories without a segment are dropped.
    """
    rows = d.sv_join.sv_rows[valid]
    cols = d.samples.columns
    traj, frame = cols["trajectory_id"][rows], cols["frame"][rows]
    n = len(frame)
    breaks = np.flatnonzero((np.diff(frame) != 1) | (np.diff(traj) != 0)) + 1
    offsets = np.concatenate(([0], breaks, [n] if n else [])).astype(np.intp)
    first = offsets[:-1]
    seg_traj = traj[first]

    code = {name: c for c, name in enumerate(d.trajectory_ids)}
    pairs = sorted((code[t], f) for t, f in d.collision_events if t in code)
    ev_traj, ev_frame = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    keys = frame_keys(np.concatenate([traj, ev_traj]), np.concatenate([frame, ev_frame]))
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
        time=cols["time"][rows],
        unsafe=np.isin(keys[:n], keys[n:]),
        offsets=offsets,
        trajectory_ids=tuple(d.trajectory_ids[c] for c in seg_traj.tolist()),
        segment_index=np.arange(len(first)) - np.searchsorted(seg_traj, seg_traj),
        collision_frames=tuple(map(tuple, attached)),
    )


def _speeds(d: Dataset, rows: np.ndarray) -> np.ndarray:
    cols = d.samples.columns
    return np.hypot(cols["vx"][rows], cols["vy"][rows])


def _lead_block(d: Dataset, spec: OssSpec, values: np.ndarray, col: int) -> np.ndarray:
    """The leader's speed v1 and bumper gap p, at ``col`` and ``col + 1``.
    The leader is the nearest vehicle ahead in the SV's lane (the same lane
    id when both carry one, else within half a lane width laterally), the
    first in track order on equal gaps. Valid: a leader, every coordinate
    in the box."""
    sv, at, row, dlong, dlat = _candidates(d, VEHICLE_TYPES)
    lane, has_lane = d.samples.columns["lane_id"], d.samples.has_lane
    both = has_lane[at] & has_lane[row]
    same_lane = np.where(both, lane[at] == lane[row], np.abs(dlat) <= spec.lane_width / 2.0)
    ahead = np.flatnonzero((dlong > 0) & same_lane)
    lead = ahead[_nearest(sv[ahead], dlong[ahead])]
    idx, length = sv[lead], d.samples.columns["length"]
    values[idx, col] = _speeds(d, row[lead])
    values[idx, col + 1] = dlong[lead] - (length[at[lead]] + length[row[lead]]) / 2.0
    b = spec.bounds()
    ok = ((values[idx] >= b[:, 0]) & (values[idx] <= b[:, 1])).all(axis=1)
    return np.bincount(idx[ok], minlength=len(values)) > 0


def _vehicle_block(d: Dataset, spec: OssSpec, values: np.ndarray, col: int) -> np.ndarray:
    """The six subregions' (p, v) pairs, from ``col`` on in SUBREGIONS order.
    Each keeps its nearest vehicle by center distance (the first in track
    order on ties): signed bumper gap p (negative behind, 0 on overlap) and
    speed. Within half a lane width laterally is the center band, else the
    left or right band when the offset lies in ``side_band`` on that side.
    An out-of-bounds nearest vehicle leaves the clearance fill. Valid: a
    subregion holds a real vehicle."""
    lo, hi = spec.side_band
    sv, at, row, dlong, dlat = _candidates(d, VEHICLE_TYPES)
    center = np.abs(dlat) <= spec.lane_width / 2.0
    left, right = (lo <= dlat) & (dlat <= hi), (-hi <= dlat) & (dlat <= -lo)
    # bands index SUBREGIONS within front (fl, fc, fr) and rear (rl, rc, rr)
    band = np.select([center, left, right], [1, 0, 2], -1)
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
    idx, p_col = sv[near][ok], col + 2 * sub[near][ok]
    values[idx, p_col] = p[ok]
    values[idx, p_col + 1] = v1[ok]
    return np.bincount(idx, minlength=len(values)) > 0


def _pedestrian_block(d: Dataset, spec: OssSpec, values: np.ndarray, col: int) -> np.ndarray:
    """The left and right front bumper corners' (p, q) pairs, from ``col`` on.
    Each takes the nearest pedestrian at or ahead of the bumper line (the
    first in track order on ties): advance p and absolute lateral offset q
    from the corner. An out-of-bounds nearest pedestrian leaves the
    clearance fill. Valid: a corner holds a real pedestrian."""
    sv, at, _, dlong, dlat = _candidates(d, ("pedestrian",))
    along = dlong - d.samples.columns["length"][at] / 2.0
    front = along >= 0
    sv, along, dlat = sv[front], along[front], dlat[front]
    half_width = d.samples.columns["width"][at[front]] / 2.0
    occupied = np.zeros(len(values), dtype=bool)
    for c, side_sign in ((col, 1.0), (col + 2, -1.0)):
        lat = dlat - side_sign * half_width
        near = _nearest(sv, np.hypot(along, lat))
        p, q = along[near], np.abs(lat[near])
        ok = (p <= spec.ped_p_max) & (q <= spec.q_max)
        idx = sv[near][ok]
        values[idx, c] = p[ok]
        values[idx, c + 1] = q[ok]
        occupied[idx] = True
    return occupied


# each block with the name of its first column
_BLOCKS = (("v1", _lead_block), ("p_fl", _vehicle_block), ("p_left", _pedestrian_block))


def extract_states(d: Dataset, spec: OssSpec) -> StateTable:
    """Project every SV sample into the space of ``spec``: it starts as
    :meth:`OssSpec.clearance` at its speed v0, and each neighbour block
    whose columns the space names fills them from the dataset's join to the
    SV (:attr:`~safeset.ingest.Dataset.sv_join`). A sample emits a state
    when v0 is in bounds and every block finds it valid."""
    v0 = _speeds(d, d.sv_join.sv_rows)
    values = spec.clearance(v0)
    valid = (spec.v_min <= v0) & (v0 <= spec.v_max)
    for name, block in _BLOCKS:
        if name in spec.names:
            valid &= block(d, spec, values, spec.names.index(name))
    return _sv_states(d, valid, values[valid])


def export_states_csv(table: StateTable, spec: OssSpec, path: str | Path) -> None:
    """Write projected states as CSV, one row per state."""
    seg = table.segment_ids()
    columns = [
        label_cells(table.trajectory_ids, seg),
        number_cells(table.segment_index[seg]),
        number_cells(table.frame),
        number_cells(table.time),
        number_cells(table.unsafe),
        *map(number_cells, table.values.T),
    ]
    header = ["trajectory_id", "segment", "frame", "time", "unsafe", *spec.names]
    with open(path, "w", newline="") as fh:
        write_rows(fh, header, columns)
