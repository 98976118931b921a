"""Recording ingestion: CSV parsing, validation, and collision labelling.

The on-disk format is one row per (frame, agent): long/tidy trajectory CSV
with world-frame positions and velocities. Column names are remappable so
vendor exports can be read without rewriting files. A parsed recording is
held in an immutable :class:`Dataset` together with its inferred sample
period and a set of collision events.

Samples are held column by column in a :class:`SampleTable`: one array per
canonical field in file order, string fields as integer codes, and the
rows of each (trajectory, agent) track located through a stable
permutation and offsets. The parser reads ``csv.reader`` records in
batches of ``_CHUNK_ROWS`` and converts each batch column by column with
Python's own ``float`` and ``int``, so one batch's strings are alive at a
time and no per-row object is built. The cell rules are written once, in
``_CELLS``. A batch that holds a short row, or whose bulk conversion or
checks refuse a cell, is walked row by row through the same rules, which
name the first bad line and its first failing rule. In-memory rows meet
the same rules: their labels are normalized as cells are, and their
numbers are checked, refused without a line. Validation of tracks
(monotone frames and times, one ``sv_flag`` and one ``agent_type`` per
track, one subject per trajectory, dt, irregular gaps) runs as array
operations over the track offsets. The table is the only copy of the
samples; labelling and projection read it through one join to the
subject vehicle (:attr:`Dataset.sv_join`).
:func:`write_trajectory_csv` writes the table column by column through
:mod:`safeset.celltext`, each distinct number and label formatted once.

Collision events are (trajectory_id, frame) pairs. They come from an
optional sidecar label file, whose events must name trajectories of the
recording, from geometric box-overlap detection, or from the union of
both, selected by the labelling rule.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np

from .celltext import label_cells, number_cells, write_rows
from .errors import MalformedRow, MissingColumn, NonMonotoneTime, SafesetError
from .kinematics import SvJoin, boxes_overlap, sv_frame_offsets

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

STRING_FIELDS = ("recording_id", "trajectory_id", "agent_id", "agent_type")
FLOAT_FIELDS = ("time", "x", "y", "vx", "vy", "length", "width")

LABEL_RULES = ("labels_only", "geometric_overlap", "either")

_TRUE = {"1", "true", "t", "yes"}
_FALSE = {"0", "false", "f", "no"}

GAP_REL_TOL = 0.10
"""A frame gap is irregular when it deviates from dt by more than this."""

GAP_REJECT_FRACTION = 0.01
"""Tracks with more than this fraction of irregular gaps are dropped."""

_CHUNK_ROWS = 4096
"""CSV records parsed per batch."""


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


class _Factorizer:
    """Integer codes for one field's values, numbered by first appearance of
    the normalized value over every batch passed to :meth:`codes`.

    ``normalize`` maps a raw value to the stored one, or raises for a value
    it refuses; it runs once per distinct raw value.
    """

    def __init__(self, normalize: Callable | None = None):
        self.normalize = normalize
        self.labels: list = []
        self._code: dict = {}
        self._raw_code: dict = {}

    def codes(self, values: Sequence) -> np.ndarray:
        raw_code = self._raw_code
        for raw in dict.fromkeys(values):
            if raw not in raw_code:
                value = raw if self.normalize is None else self.normalize(raw)
                code = self._code.setdefault(value, len(self.labels))
                if code == len(self.labels):
                    self.labels.append(value)
                raw_code[raw] = code
        return np.fromiter(map(raw_code.__getitem__, values), np.intp, len(values))


def _first_appearance(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes numbering the distinct ``values`` by first appearance, and the
    distinct values in that order."""
    uniq, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty(len(uniq), dtype=np.intp)
    rank[by_first] = np.arange(len(uniq))
    return rank[inverse.reshape(-1)], uniq[by_first]


class SampleTable:
    """Every sample of a recording, one array per canonical field, in file order.

    ``columns[f]`` holds, per row: integer codes into ``labels[f]`` for the
    string fields (distinct values in first-appearance order, each used),
    int64 frames and lane ids, float64 numbers and a bool ``sv_flag``.
    ``has_lane`` is False where a row has no lane; its ``lane_id`` is then
    0, so "no lane" differs from every integer lane.

    Rows are grouped into (trajectory, agent) tracks numbered by first
    appearance: track k is rows ``order[offsets[k]:offsets[k + 1]]``, in
    file order.
    """

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        labels: Mapping[str, Sequence[str]],
        has_lane: np.ndarray,
    ):
        self.columns = dict(columns)
        self.labels = {f: tuple(labels[f]) for f in STRING_FIELDS}
        self.has_lane = has_lane
        traj, agent = self.columns["trajectory_id"], self.columns["agent_id"]
        n_agents = max(len(self.labels["agent_id"]), 1)
        self.track_id, _ = _first_appearance(traj.astype(np.int64) * n_agents + agent)
        self.order = np.argsort(self.track_id, kind="stable")
        counts = np.bincount(self.track_id)
        self.offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
        first_rows = self.order[self.offsets[:-1]]
        self.track_trajectory = traj[first_rows]
        self.track_agent = agent[first_rows]

    @classmethod
    def from_rows(cls, rows: Sequence[RawSample]) -> SampleTable:
        """The table of in-memory rows, held to the CSV's cell rules: string
        fields are normalized as cells are, and the first rule a number
        column fails is refused without a line."""
        n = len(rows)
        columns: dict[str, np.ndarray] = {}
        labels: dict[str, list] = {}
        for f in STRING_FIELDS:
            factor = _Factorizer(_NORMALIZE[f])
            columns[f] = factor.codes(list(map(attrgetter(f), rows)))
            labels[f] = factor.labels
        columns["frame"] = _int_column("frame", list(map(attrgetter("frame"), rows)))
        for f in FLOAT_FIELDS:
            columns[f] = np.fromiter(map(attrgetter(f), rows), float, n)
        lanes = list(map(attrgetter("lane_id"), rows))
        has_lane = np.fromiter((v is not None for v in lanes), bool, n)
        columns["lane_id"] = _int_column("lane_id", [v or 0 for v in lanes])
        columns["sv_flag"] = np.fromiter(map(attrgetter("sv_flag"), rows), bool, n)
        for rule in _CELLS:
            for check, message in rule.checks:
                bad = check(columns, rule.field)
                if bad.any():
                    raw = columns[rule.field][np.argmax(bad)].item()
                    raise MalformedRow(None, message.format(field=rule.field, raw=raw))
        return cls(columns, labels, has_lane)

    def take(self, mask: np.ndarray) -> SampleTable:
        """The rows where ``mask`` is True, in file order."""
        columns = {f: c[mask] for f, c in self.columns.items()}
        labels = {}
        for f in STRING_FIELDS:
            columns[f], used = _first_appearance(columns[f])
            labels[f] = [self.labels[f][c] for c in used]
        return SampleTable(columns, labels, self.has_lane[mask])

    @property
    def n_tracks(self) -> int:
        return len(self.offsets) - 1

    def track_key(self, k: int) -> tuple[str, str]:
        return (
            self.labels["trajectory_id"][self.track_trajectory[k]],
            self.labels["agent_id"][self.track_agent[k]],
        )

    def __len__(self) -> int:
        return len(self.has_lane)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampleTable):
            return NotImplemented
        return (
            self.labels == other.labels
            and np.array_equal(self.has_lane, other.has_lane)
            and all(np.array_equal(self.columns[f], other.columns[f]) for f in CANONICAL_FIELDS)
        )


def _inner_pairs(table: SampleTable) -> np.ndarray:
    """In track order, True at i where rows i and i + 1 share a track."""
    inner = np.ones(max(len(table) - 1, 0), dtype=bool)
    inner[table.offsets[1:-1] - 1] = False
    return inner


def _gaps(table: SampleTable) -> np.ndarray:
    """Time steps between consecutive samples of each track, in track order."""
    return np.diff(table.columns["time"][table.order])[_inner_pairs(table)]


def _validate(table: SampleTable) -> None:
    """Check every track and trajectory.

    Of several bad tracks the first in track order raises; frames and times
    are checked before the subject flag, and the flag before the agent type.
    """
    frame, time, flag, kind = (
        table.columns[f][table.order] for f in ("frame", "time", "sv_flag", "agent_type")
    )
    inner = _inner_pairs(table)
    pair_track = np.repeat(np.arange(table.n_tracks), np.diff(table.offsets))[:-1]

    def tracks_where(step: np.ndarray) -> np.ndarray:
        out = np.zeros(table.n_tracks, dtype=bool)
        out[pair_track[inner & step]] = True
        return out

    bad_order = tracks_where((frame[1:] <= frame[:-1]) | (time[1:] <= time[:-1]))
    bad_flag = tracks_where(flag[1:] != flag[:-1])
    bad_kind = tracks_where(kind[1:] != kind[:-1])
    bad = np.flatnonzero(bad_order | bad_flag | bad_kind)
    if bad.size:
        k = int(bad[0])
        if bad_order[k]:
            raise NonMonotoneTime(*table.track_key(k))
        field = "sv_flag" if bad_flag[k] else "agent_type"
        raise MalformedRow(None, f"track {table.track_key(k)!r} mixes {field} values")

    traj_labels = table.labels["trajectory_id"]
    sv_tracks = np.flatnonzero(flag[table.offsets[:-1]])
    sv_traj = table.track_trajectory[sv_tracks]
    _, first = np.unique(sv_traj, return_index=True)
    repeat = np.ones(len(sv_tracks), dtype=bool)
    repeat[first] = False
    if repeat.any():
        traj = traj_labels[sv_traj[np.argmax(repeat)]]
        raise MalformedRow(None, f"trajectory {traj!r} has more than one subject agent")
    has_sv = np.zeros(len(traj_labels), dtype=bool)
    has_sv[sv_traj] = True
    if not has_sv.all():
        traj = traj_labels[int(np.argmin(has_sv))]
        raise MalformedRow(None, f"trajectory {traj!r} has no subject agent (sv_flag)")


class Dataset:
    """Immutable parsed recording: samples, sample period, collision events,
    and the (trajectory, agent) keys of tracks the parser dropped.

    ``samples`` is the :class:`SampleTable`; a sequence of
    :class:`RawSample` rows passed in is converted to one under the CSV's
    cell rules, and event trajectory ids are stripped as the label sidecar
    strips them. Equality covers
    the samples (column by column), dt, and events, so a serialize/parse
    round trip can be checked for identity. The subject-vehicle join of the
    samples (:attr:`sv_join`) is built on first use and shared with every
    copy that :meth:`with_events` makes.
    """

    def __init__(
        self,
        samples: SampleTable | Iterable[RawSample],
        dt: float | None = None,
        collision_events: Iterable[tuple[str, int]] = (),
        rejected_tracks: Iterable[tuple[str, str]] = (),
    ):
        if not isinstance(samples, SampleTable):
            samples = SampleTable.from_rows(list(samples))
        self.samples: SampleTable = samples
        self.rejected_tracks: tuple[tuple[str, str], ...] = tuple(rejected_tracks)
        self.trajectory_ids: tuple[str, ...] = samples.labels["trajectory_id"]

        _validate(samples)
        if dt is None:
            gaps = _gaps(samples)
            if gaps.size == 0:
                raise MalformedRow(
                    None, "cannot infer dt: no track has two consecutive samples"
                )
            dt = float(np.median(gaps))
        self.dt: float = float(dt)
        if not 0.0 < self.dt < np.inf:
            raise MalformedRow(None, f"dt must be finite and positive, got {dt}")
        self._set_events(collision_events)

    def _set_events(self, collision_events: Iterable[tuple[str, int]]) -> None:
        self.collision_events: tuple[tuple[str, int], ...] = tuple(
            sorted({(str(t).strip(), int(f)) for t, f in collision_events})
        )

    def with_events(self, collision_events: Iterable[tuple[str, int]]) -> Dataset:
        """This dataset with other collision events; the samples, and the SV
        join once built, are shared."""
        out = copy.copy(self)
        out._set_events(collision_events)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.dt == other.dt
            and self.collision_events == other.collision_events
            and self.samples == other.samples
        )

    @cached_property
    def sv_join(self) -> SvJoin:
        """Every sample seen from the subject vehicle (see sv_frame_offsets)."""
        return sv_frame_offsets(self.samples)

    def sv_distance_m(self) -> float:
        """Total path length driven by the subject vehicles, in meters: each
        subject's step lengths summed, then added up in trajectory order."""
        cols, rows = self.samples.columns, self.sv_join.sv_rows
        cuts = np.flatnonzero(np.diff(cols["trajectory_id"][rows])) + 1
        x, y = np.split(cols["x"][rows], cuts), np.split(cols["y"][rows], cuts)
        return sum(float(np.hypot(np.diff(a), np.diff(b)).sum()) for a, b in zip(x, y))


def _agent_type(raw: str) -> str:
    value = raw.strip().lower()
    if value not in AGENT_TYPES:
        raise ValueError(raw)
    return value


def _flag(raw: str) -> bool:
    value = raw.strip().lower()
    if value not in _TRUE and value not in _FALSE:
        raise ValueError(raw)
    return value in _TRUE


def _lane(raw: str) -> int | None:
    return None if raw.strip() == "" else int(raw.strip())


class _Cell(NamedTuple):
    """One field's cell rule: ``convert`` (left to right) raises ValueError
    for a cell it refuses (``refusal``), ``dtype`` refuses a value it cannot
    hold (``_RANGE``), and each check maps converted columns, or one row's
    values, to the rows it refuses. Messages are formatted with the field
    and the raw cell."""

    field: str
    convert: tuple[Callable, ...]
    dtype: type | None
    refusal: str
    checks: tuple[tuple[Callable, str], ...] = ()


_NUMBER = "cannot parse {field}={raw!r} as a number"
_INTEGER = "cannot parse {field}={raw!r} as an integer"
_RANGE = "{field}={raw!r} is outside the int64 range"
_SHORT = "row is shorter than the header"
_FINITE = (lambda cols, f: ~np.isfinite(cols[f]), "{field}={raw!r} is not finite")
_SIZES = (
    lambda cols, f: (cols["length"] < 0) | (cols["width"] < 0),
    "length/width must be non-negative",
)


def _number(field: str, *checks) -> _Cell:
    return _Cell(field, (float,), np.float64, _NUMBER, (_FINITE, *checks))


# every cell rule, in the order a row is checked once it holds every
# required column: a bad row reports the first rule it fails
_CELLS = (
    _Cell("agent_type", (_agent_type,), None, f"agent_type {{raw!r}} not one of {AGENT_TYPES}"),
    _number("length"),
    _number("width", _SIZES),
    _Cell("lane_id", (_lane,), np.int64, _INTEGER),
    _Cell("frame", (str.strip, int), np.int64, _INTEGER),
    *map(_number, ("time", "x", "y", "vx", "vy")),
    _Cell("sv_flag", (_flag,), None, "cannot interpret {raw!r} as a boolean flag"),
)

_RULE = {rule.field: rule for rule in _CELLS}


def _chain(convert: Sequence[Callable], cells: Iterable):
    for fn in convert:
        cells = map(fn, cells)
    return cells


def _value(rule: _Cell, raw: str, line: int | None = None):
    """``raw`` converted by ``rule``; raises the MalformedRow refusing it."""
    try:
        (value,) = _chain(rule.convert, [raw])
        if rule.dtype is not None and value is not None:
            rule.dtype(value)
        return value
    except ValueError:
        message = rule.refusal
    except OverflowError:
        message = _RANGE
    raise MalformedRow(line, message.format(field=rule.field, raw=raw))


# how each factorized field stores a raw cell; the string fields' entries
# normalize in-memory rows too
_NORMALIZE = {
    "recording_id": None,
    "trajectory_id": str.strip,
    "agent_id": str.strip,
    **{f: partial(_value, _RULE[f]) for f in ("agent_type", "lane_id", "sv_flag")},
}


def _int_column(field: str, values: list) -> np.ndarray:
    """In-memory integers as their field's column; the first one outside
    the range of the field's cell rule is refused as in a CSV cell."""
    rule = _RULE[field]
    try:
        return np.fromiter(values, rule.dtype, len(values))
    except OverflowError:
        for value in values:
            # already converted: only the rule's range check is left
            _value(rule._replace(convert=()), value)
        raise


class _ColumnReader:
    """Converts batches of CSV records into columns, keeping the string
    codes consistent across batches."""

    def __init__(self, index: Mapping[str, int]):
        self.index = index
        self.required_width = 1 + max(index[f] for f in REQUIRED_FIELDS)
        self.width = 1 + max(index.values())
        self.factors = {f: _Factorizer(normalize) for f, normalize in _NORMALIZE.items()}
        self.parts: dict[str, list[np.ndarray]] = {f: [] for f in CANONICAL_FIELDS}

    def add(self, rows: list[list[str]], line: int) -> None:
        """Convert one batch whose first record is on ``line``, column by
        column in bulk. When a row is short, a conversion raises or a rule's
        check fires, :meth:`refuse` walks the batch to name the refusal."""
        n, shortest = len(rows), min(map(len, rows))
        if shortest < self.required_width:
            self.refuse(rows, line)
        if shortest < self.width:
            # missing optional cells read as empty
            rows = [r + [""] * (self.width - len(r)) for r in rows]

        def cells(f):
            return map(itemgetter(self.index[f]), rows) if f in self.index else repeat("", n)

        try:
            # number columns before label columns: that order measured faster
            out = {r.field: np.fromiter(_chain(r.convert, cells(r.field)), r.dtype, n)
                   for r in _CELLS if r.field not in self.factors}
            out |= {f: factor.codes(list(cells(f))) for f, factor in self.factors.items()}
        except (ValueError, OverflowError, MalformedRow):
            self.refuse(rows, line)
        if any(check(out, r.field).any() for r in _CELLS for check, _ in r.checks):
            self.refuse(rows, line)
        for f, col in out.items():
            self.parts[f].append(col)

    def refuse(self, rows: list[list[str]], line: int) -> NoReturn:
        """Raise the first refusal of a batch whose first record is on
        ``line``, read row by row: a row's length first, then each rule of
        ``_CELLS`` in order, its conversion before its checks."""
        for i, row in enumerate(rows):
            if len(row) < self.required_width:
                raise MalformedRow(line + i, _SHORT)
            row = row + [""] * (self.width - len(row))
            values = {}
            for rule in _CELLS:
                f = rule.field
                raw = row[self.index[f]] if f in self.index else ""
                values[f] = _value(rule, raw, line + i)
                for check, message in rule.checks:
                    if check(values, f):
                        raise MalformedRow(line + i, message.format(field=f, raw=raw))
        raise AssertionError("the batch holds no refused row")

    def table(self) -> SampleTable:
        # each column's batches are released as soon as they are joined
        columns = {f: np.concatenate(self.parts.pop(f)) for f in CANONICAL_FIELDS}
        labels = {f: self.factors[f].labels for f in STRING_FIELDS}
        lanes = self.factors["lane_id"].labels
        lane_codes = columns["lane_id"]
        has_lane = np.array([v is not None for v in lanes], dtype=bool)[lane_codes]
        columns["lane_id"] = np.array([v or 0 for v in lanes], dtype=np.int64)[lane_codes]
        columns["sv_flag"] = np.array(self.factors["sv_flag"].labels, dtype=bool)[
            columns["sv_flag"]
        ]
        return SampleTable(columns, labels, has_lane)


def check_field_names(columns: Mapping[str, str], where: str) -> None:
    """Refuse a field of the column map ``columns`` that is not a canonical
    field or that maps to an empty header, naming ``where`` the map came from."""
    unknown = sorted(set(columns) - set(CANONICAL_FIELDS))
    if unknown:
        raise SafesetError(
            f"{where}: unknown field {unknown[0]!r}; known fields: {', '.join(CANONICAL_FIELDS)}"
        )
    empty = sorted(f for f, header in columns.items() if not header)
    if empty:
        raise SafesetError(f"{where}: field {empty[0]!r} maps to an empty header")


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

    Columns resolve as ``csv.DictReader`` resolves them: of duplicate
    headers the last wins, blank records are skipped, and line numbers in
    errors count data records from 2. The sample period dt is the median
    inter-frame time gap over all tracks. Tracks whose gaps deviate from dt
    by more than 10% in more than 1% of steps are rejected; if the rejected
    track is a subject vehicle the whole trajectory is dropped. Row order
    is preserved within each track.
    """
    remap = dict(schema_options or {})
    check_field_names(remap, "column map")

    with open(path, newline="") as fh:
        records = csv.reader(fh)
        header = next(records, None)
        if header is None:
            raise MalformedRow(1, "file is empty (no header)")
        last = {name: i for i, name in enumerate(header)}
        col = {f: remap.get(f, f) for f in CANONICAL_FIELDS}
        for f in REQUIRED_FIELDS:
            if col[f] not in last:
                raise MissingColumn(col[f])
        index = {f: last[col[f]] for f in CANONICAL_FIELDS if col[f] in last}

        reader = _ColumnReader(index)
        line = 2
        while batch := list(islice(records, _CHUNK_ROWS)):
            rows = [r for r in batch if r]
            if rows:
                reader.add(rows, line)
                line += len(rows)

    if line == 2:
        raise MalformedRow(None, "file contains a header but no rows")

    table = reader.table()
    events: list[tuple[str, int]] = []
    if labels_path is not None:
        events = read_collision_csv(labels_path)
        known = set(table.labels["trajectory_id"])
        for line, (traj, _) in enumerate(events, start=2):
            if traj not in known:
                raise MalformedRow(
                    line, f"label sidecar names trajectory {traj!r}, which the recording lacks"
                )

    # first pass validates tracks and infers the global dt
    prelim = Dataset(table, collision_events=events)
    dropped = _filter_irregular_tracks(prelim)
    if not dropped.any():
        return prelim
    table = prelim.samples
    kept_trajs = {table.labels["trajectory_id"][t] for t in table.track_trajectory[~dropped]}
    return Dataset(
        table.take(~dropped[table.track_id]),
        dt=prelim.dt,
        collision_events=[(t, f) for t, f in prelim.collision_events if t in kept_trajs],
        rejected_tracks=sorted(table.track_key(k) for k in np.flatnonzero(dropped)),
    )


def _filter_irregular_tracks(d: Dataset) -> np.ndarray:
    """Per track, whether it is dropped: its gaps are irregular, or it
    belongs to a trajectory whose subject vehicle's gaps are."""
    table = d.samples
    n_gaps = np.diff(table.offsets) - 1
    gap_track = np.repeat(np.arange(table.n_tracks), n_gaps)
    bad = np.abs(_gaps(table) - d.dt) > GAP_REL_TOL * d.dt
    n_bad = np.bincount(gap_track, weights=bad, minlength=table.n_tracks)
    with np.errstate(invalid="ignore", divide="ignore"):
        rejected = (n_gaps > 0) & (n_bad / n_gaps > GAP_REJECT_FRACTION)
    is_sv = table.columns["sv_flag"][table.order[table.offsets[:-1]]]
    dropped_trajs = table.track_trajectory[rejected & is_sv]
    return rejected | np.isin(table.track_trajectory, dropped_trajs)


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
            traj, frame = row["trajectory_id"], row["frame"]
            if traj is None or frame is None:
                raise MalformedRow(line, _SHORT)
            events.append((traj.strip(), _value(_RULE["frame"], frame, line)))
    return events


def _geometric_events(d: Dataset) -> set[tuple[str, int]]:
    """Detect SV box overlaps against every other agent, frame by frame.

    Boxes are axis-aligned in the SV heading frame (the other agent's own
    heading is ignored, a deliberate simplification for near-longitudinal
    traffic). An event is recorded at every frame with positive-area overlap
    so that labels stay monotone under box inflation.
    """
    join, cols = d.sv_join, d.samples.columns
    sv = join.sv_rows[join.sv]
    hit = boxes_overlap(
        join.dlong,
        join.dlat,
        (cols["length"][sv] + cols["length"][join.rows]) / 2.0,
        (cols["width"][sv] + cols["width"][join.rows]) / 2.0,
    )
    rows = sv[hit]
    names = np.array(d.trajectory_ids, dtype=object)[cols["trajectory_id"][rows]]
    return set(zip(names.tolist(), cols["frame"][rows].tolist()))


def label_collisions(d: Dataset, rule: str = "either") -> Dataset:
    """Return the Dataset with collision events set according to ``rule``.

    labels_only keeps the events already attached (sidecar labels),
    geometric_overlap replaces them with box-overlap detections, and either
    takes the union. All three rules are idempotent. The result shares the
    samples, tracks and rejected tracks of ``d``.
    """
    if rule not in LABEL_RULES:
        raise ValueError(f"unknown labelling rule {rule!r}; choose from {LABEL_RULES}")
    if rule == "labels_only":
        events: Iterable[tuple[str, int]] = d.collision_events
    elif rule == "geometric_overlap":
        events = _geometric_events(d)
    else:
        events = set(d.collision_events) | _geometric_events(d)
    return d.with_events(events)


def write_trajectory_csv(d: Dataset, path: str | Path) -> None:
    """Write the dataset in canonical column order; floats round-trip exactly,
    flags read 1/0 and a row without a lane has an empty ``lane_id``."""
    table = d.samples
    columns = []
    for f in CANONICAL_FIELDS:
        if f in table.labels:
            columns.append(label_cells(table.labels[f], table.columns[f]))
        else:
            present = table.has_lane if f == "lane_id" else None
            columns.append(number_cells(table.columns[f], present))
    with open(path, "w", newline="") as fh:
        write_rows(fh, CANONICAL_FIELDS, columns)


def write_collision_csv(events, path: str | Path) -> None:
    """Write (trajectory_id, frame) collision events as a label sidecar."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trajectory_id", "frame"])
        writer.writerows(events)
