"""Recording ingestion: CSV parsing, validation, and collision labelling.

The on-disk format is one row per (frame, agent): long/tidy trajectory CSV
with world-frame positions and velocities. Column names are remappable so
vendor exports can be read without rewriting files. A parsed recording is
held in an immutable :class:`Dataset` together with its inferred sample
period and a set of collision events.

Collision events are (trajectory_id, frame) pairs. They come from an
optional sidecar label file, from geometric box-overlap detection, or from
the union of both, selected by the labelling rule.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import MalformedRow, MissingColumn, NonMonotoneTime
from .kinematics import boxes_overlap, sv_frame_offsets

AGENT_TYPES = ("car", "truck", "pedestrian", "other")
VEHICLE_TYPES = ("car", "truck", "other")

CANONICAL_FIELDS = (
    "recording_id",
    "trajectory_id",
    "frame",
    "time",
    "agent_id",
    "agent_type",
    "x",
    "y",
    "vx",
    "vy",
    "length",
    "width",
    "lane_id",
    "sv_flag",
)

# recording_id defaults to "" and lane_id to None when absent from the header
REQUIRED_FIELDS = tuple(
    f for f in CANONICAL_FIELDS if f not in ("recording_id", "lane_id")
)

LABEL_RULES = ("labels_only", "geometric_overlap", "either")

_TRUE = {"1", "true", "t", "yes"}
_FALSE = {"0", "false", "f", "no"}

GAP_REL_TOL = 0.10
"""A frame gap is irregular when it deviates from dt by more than this."""

GAP_REJECT_FRACTION = 0.01
"""Tracks with more than this fraction of irregular gaps are dropped."""


@dataclass(frozen=True)
class RawSample:
    """One agent observed at one frame of one recording trajectory."""

    recording_id: str
    trajectory_id: str
    frame: int
    time: float
    agent_id: str
    agent_type: str
    x: float
    y: float
    vx: float
    vy: float
    length: float
    width: float
    lane_id: int | None
    sv_flag: bool


@dataclass(eq=False)
class Track:
    """Column-oriented view of one agent's samples within one trajectory."""

    trajectory_id: str
    agent_id: str
    agent_type: str
    sv_flag: bool
    frames: np.ndarray
    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    length: np.ndarray
    width: np.ndarray
    lane_id: tuple[int | None, ...]

    def speeds(self) -> np.ndarray:
        return np.hypot(self.vx, self.vy)

    def path_length_m(self) -> float:
        if len(self.x) < 2:
            return 0.0
        return float(np.hypot(np.diff(self.x), np.diff(self.y)).sum())


def _build_track(samples: Sequence[RawSample]) -> Track:
    first = samples[0]
    return Track(
        trajectory_id=first.trajectory_id,
        agent_id=first.agent_id,
        agent_type=first.agent_type,
        sv_flag=first.sv_flag,
        frames=np.array([s.frame for s in samples], dtype=np.int64),
        times=np.array([s.time for s in samples]),
        x=np.array([s.x for s in samples]),
        y=np.array([s.y for s in samples]),
        vx=np.array([s.vx for s in samples]),
        vy=np.array([s.vy for s in samples]),
        length=np.array([s.length for s in samples]),
        width=np.array([s.width for s in samples]),
        lane_id=tuple(s.lane_id for s in samples),
    )


class Dataset:
    """Immutable parsed recording: samples, sample period, collision events.

    Equality covers the samples, dt, and events, so a serialize/parse round
    trip can be checked for identity. Derived indexes (tracks, per-frame
    agent lists) are built once at construction and shared.
    """

    def __init__(
        self,
        samples: Iterable[RawSample],
        dt: float | None = None,
        collision_events: Iterable[tuple[str, int]] = (),
    ):
        self.samples: tuple[RawSample, ...] = tuple(samples)
        self.collision_events: tuple[tuple[str, int], ...] = tuple(
            sorted({(str(t), int(f)) for t, f in collision_events})
        )
        self.rejected_tracks: tuple[tuple[str, str], ...] = ()

        grouped: dict[tuple[str, str], list[RawSample]] = {}
        traj_order: dict[str, None] = {}
        for s in self.samples:
            grouped.setdefault((s.trajectory_id, s.agent_id), []).append(s)
            traj_order.setdefault(s.trajectory_id)
        self.trajectory_ids: tuple[str, ...] = tuple(traj_order)

        self.tracks: dict[tuple[str, str], Track] = {}
        for key, rows in grouped.items():
            frames = [r.frame for r in rows]
            times = [r.time for r in rows]
            if any(b <= a for a, b in zip(frames, frames[1:])) or any(
                b <= a for a, b in zip(times, times[1:])
            ):
                raise NonMonotoneTime(key[0], key[1])
            flags = {r.sv_flag for r in rows}
            if len(flags) != 1:
                raise MalformedRow(
                    None, f"track {key!r} mixes sv_flag values"
                )
            self.tracks[key] = _build_track(rows)

        self.sv_agent: dict[str, str] = {}
        for (traj, agent), track in self.tracks.items():
            if track.sv_flag:
                if traj in self.sv_agent:
                    raise MalformedRow(
                        None, f"trajectory {traj!r} has more than one subject agent"
                    )
                self.sv_agent[traj] = agent
        for traj in self.trajectory_ids:
            if traj not in self.sv_agent:
                raise MalformedRow(
                    None, f"trajectory {traj!r} has no subject agent (sv_flag)"
                )

        if dt is None:
            gaps = self._all_gaps()
            if gaps.size == 0:
                raise MalformedRow(
                    None, "cannot infer dt: no track has two consecutive samples"
                )
            dt = float(np.median(gaps))
        self.dt: float = float(dt)

        self._events_by_traj: dict[str, tuple[int, ...]] = {}
        for traj, frame in self.collision_events:
            self._events_by_traj.setdefault(traj, ())
            self._events_by_traj[traj] = self._events_by_traj[traj] + (frame,)

    def _all_gaps(self) -> np.ndarray:
        parts = [np.diff(t.times) for t in self.tracks.values() if len(t.times) > 1]
        if not parts:
            return np.empty(0)
        return np.concatenate(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.samples == other.samples
            and self.dt == other.dt
            and self.collision_events == other.collision_events
        )

    def __hash__(self):
        return hash((self.samples, self.dt, self.collision_events))

    def trajectory_tracks(self, trajectory_id: str) -> list[Track]:
        return [t for (traj, _), t in self.tracks.items() if traj == trajectory_id]

    def sv_track(self, trajectory_id: str) -> Track:
        return self.tracks[(trajectory_id, self.sv_agent[trajectory_id])]

    def events_for(self, trajectory_id: str) -> tuple[int, ...]:
        return self._events_by_traj.get(trajectory_id, ())

    def sv_distance_m(self) -> float:
        """Total path length driven by the subject vehicles, in meters."""
        return sum(self.sv_track(t).path_length_m() for t in self.trajectory_ids)


def _parse_bool(raw: str, line: int) -> bool:
    low = raw.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise MalformedRow(line, f"cannot interpret {raw!r} as a boolean flag")


def _parse_float(raw: str, name: str, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise MalformedRow(line, f"cannot parse {name}={raw!r} as a number") from None
    if not np.isfinite(value):
        raise MalformedRow(line, f"{name}={raw!r} is not finite")
    return value


def _parse_int(raw: str, name: str, line: int) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise MalformedRow(line, f"cannot parse {name}={raw!r} as an integer") from None


def parse_trajectory_csv(
    path: str | Path,
    schema_options: Mapping[str, str] | None = None,
    labels_path: str | Path | None = None,
) -> Dataset:
    """Parse a long-format trajectory CSV into a validated :class:`Dataset`.

    Parameters
    ----------
    path:
        CSV with one row per (frame, agent). Canonical column names can be
        remapped through ``schema_options`` (canonical name -> actual header),
        e.g. ``{"trajectory_id": "recordingId", "agent_id": "id"}``.
    labels_path:
        Optional collision sidecar CSV with trajectory_id and frame columns;
        its events are attached verbatim (see :func:`label_collisions` for
        geometric detection).

    The sample period dt is the median inter-frame time gap over all tracks.
    Tracks whose gaps deviate from dt by more than 10% in more than 1% of
    steps are rejected; if the rejected track is a subject vehicle the whole
    trajectory is dropped. Row order is preserved within each track.
    """
    remap = dict(schema_options or {})
    unknown = set(remap) - set(CANONICAL_FIELDS)
    if unknown:
        raise MissingColumn(sorted(unknown)[0])

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise MalformedRow(1, "file is empty (no header)")
        header = set(reader.fieldnames)
        col = {f: remap.get(f, f) for f in CANONICAL_FIELDS}
        for f in REQUIRED_FIELDS:
            if col[f] not in header:
                raise MissingColumn(col[f])
        has_recording = col["recording_id"] in header
        has_lane = col["lane_id"] in header

        samples: list[RawSample] = []
        for line, row in enumerate(reader, start=2):
            get = lambda f: row.get(col[f])
            if any(get(f) is None for f in REQUIRED_FIELDS):
                raise MalformedRow(line, "row is shorter than the header")
            agent_type = str(get("agent_type")).strip().lower()
            if agent_type not in AGENT_TYPES:
                raise MalformedRow(
                    line,
                    f"agent_type {get('agent_type')!r} not one of {AGENT_TYPES}",
                )
            length = _parse_float(get("length"), "length", line)
            width = _parse_float(get("width"), "width", line)
            if length < 0 or width < 0:
                raise MalformedRow(line, "length/width must be non-negative")
            lane_raw = row.get(col["lane_id"]) if has_lane else None
            lane_id = (
                None
                if lane_raw is None or str(lane_raw).strip() == ""
                else _parse_int(lane_raw, "lane_id", line)
            )
            samples.append(
                RawSample(
                    recording_id=str(row.get(col["recording_id"], "") or "")
                    if has_recording
                    else "",
                    trajectory_id=str(get("trajectory_id")).strip(),
                    frame=_parse_int(get("frame"), "frame", line),
                    time=_parse_float(get("time"), "time", line),
                    agent_id=str(get("agent_id")).strip(),
                    agent_type=agent_type,
                    x=_parse_float(get("x"), "x", line),
                    y=_parse_float(get("y"), "y", line),
                    vx=_parse_float(get("vx"), "vx", line),
                    vy=_parse_float(get("vy"), "vy", line),
                    length=length,
                    width=width,
                    lane_id=lane_id,
                    sv_flag=_parse_bool(get("sv_flag"), line),
                )
            )

    if not samples:
        raise MalformedRow(None, "file contains a header but no rows")

    events: list[tuple[str, int]] = []
    if labels_path is not None:
        events = read_collision_csv(labels_path)

    # first pass builds validated tracks and the global dt
    prelim = Dataset(samples, collision_events=events)
    kept, rejected = _filter_irregular_tracks(prelim)
    if not rejected:
        return prelim
    kept_keys = {(t.trajectory_id, t.agent_id) for t in kept}
    kept_trajs = {k[0] for k in kept_keys}
    filtered = [
        s for s in samples if (s.trajectory_id, s.agent_id) in kept_keys
    ]
    final = Dataset(
        filtered,
        dt=prelim.dt,
        collision_events=[(t, f) for t, f in prelim.collision_events if t in kept_trajs],
    )
    final.rejected_tracks = tuple(sorted(
        (t.trajectory_id, t.agent_id) for t in rejected
    ))
    return final


def _filter_irregular_tracks(d: Dataset) -> tuple[list[Track], list[Track]]:
    rejected: list[Track] = []
    for track in d.tracks.values():
        if len(track.times) < 2:
            continue
        gaps = np.diff(track.times)
        bad = np.abs(gaps - d.dt) > GAP_REL_TOL * d.dt
        if bad.mean() > GAP_REJECT_FRACTION:
            rejected.append(track)
    dropped_trajs = {t.trajectory_id for t in rejected if t.sv_flag}
    rejected_keys = {(t.trajectory_id, t.agent_id) for t in rejected}
    kept = [
        t
        for t in d.tracks.values()
        if (t.trajectory_id, t.agent_id) not in rejected_keys
        and t.trajectory_id not in dropped_trajs
    ]
    dropped = [t for t in d.tracks.values() if t not in kept]
    return kept, dropped


def read_collision_csv(path: str | Path) -> list[tuple[str, int]]:
    """Read a collision sidecar CSV (trajectory_id, frame columns)."""
    events: list[tuple[str, int]] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return []
        for field_name in ("trajectory_id", "frame"):
            if field_name not in reader.fieldnames:
                raise MissingColumn(field_name)
        for line, row in enumerate(reader, start=2):
            events.append(
                (str(row["trajectory_id"]).strip(), _parse_int(row["frame"], "frame", line))
            )
    return events


def _geometric_events(d: Dataset) -> set[tuple[str, int]]:
    """Detect SV box overlaps against every other agent, frame by frame.

    Boxes are axis-aligned in the SV heading frame (the other agent's own
    heading is ignored, a deliberate simplification for near-longitudinal
    traffic). An event is recorded at every frame with positive-area overlap
    so that labels stay monotone under box inflation.
    """
    found: set[tuple[str, int]] = set()
    for traj in d.trajectory_ids:
        sv = d.sv_track(traj)
        others = [t for t in d.trajectory_tracks(traj) if t.agent_id != sv.agent_id]
        for other, common, sv_rows, ot_rows, dlong, dlat in sv_frame_offsets(sv, others):
            hit = boxes_overlap(
                dlong,
                dlat,
                (sv.length[sv_rows] + other.length[ot_rows]) / 2.0,
                (sv.width[sv_rows] + other.width[ot_rows]) / 2.0,
            )
            for f in common[hit]:
                found.add((traj, int(f)))
    return found


def label_collisions(d: Dataset, rule: str = "either") -> Dataset:
    """Return a new Dataset with collision events set according to ``rule``.

    labels_only keeps the events already attached (sidecar labels),
    geometric_overlap replaces them with box-overlap detections, and either
    takes the union. All three rules are idempotent.
    """
    if rule not in LABEL_RULES:
        raise ValueError(f"unknown labelling rule {rule!r}; choose from {LABEL_RULES}")
    if rule == "labels_only":
        events: Iterable[tuple[str, int]] = d.collision_events
    elif rule == "geometric_overlap":
        events = _geometric_events(d)
    else:
        events = set(d.collision_events) | _geometric_events(d)
    return Dataset(d.samples, dt=d.dt, collision_events=events)


def _format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(float(v))
    if v is None:
        return ""
    return str(v)


def write_trajectory_csv(d: Dataset, path: str | Path) -> None:
    """Write the dataset in canonical column order; floats round-trip exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_FIELDS)
        for s in d.samples:
            writer.writerow([_format_value(getattr(s, f)) for f in CANONICAL_FIELDS])


def write_collision_csv(events, path: str | Path) -> None:
    """Write (trajectory_id, frame) collision events as a label sidecar."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trajectory_id", "frame"])
        for traj, frame in events:
            writer.writerow([traj, frame])
