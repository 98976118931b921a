"""Parsing, validation, labelling, and round-trip behaviour of ingest."""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import safeset.ingest as ingest
from builders import recordings, sample_row, sample_rows, sample_values
from safeset.errors import MalformedRow, MissingColumn, NonMonotoneTime, SafesetError
from safeset.ingest import (
    AGENT_TYPES,
    CANONICAL_FIELDS,
    Dataset,
    RawSample,
    label_collisions,
    parse_trajectory_csv,
    read_collision_csv,
    write_collision_csv,
    write_trajectory_csv,
)


def make_row(**kw):
    base = {
        "recording_id": "rec0",
        "trajectory_id": "t0",
        "frame": 0,
        "time": 0.0,
        "agent_id": "ego",
        "agent_type": "car",
        "x": 0.0,
        "y": 0.0,
        "vx": 10.0,
        "vy": 0.0,
        "length": 4.0,
        "width": 2.0,
        "lane_id": 1,
        "sv_flag": 1,
    }
    base.update(kw)
    return base


def write_csv(path, rows, fields=CANONICAL_FIELDS):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fields))
        writer.writeheader()
        for r in rows:
            writer.writerow({k: r[k] for k in fields})


def two_car_rows(n_frames=6, dt=0.1, lead_x0=20.0, lead_vx=8.0):
    rows = []
    for k in range(n_frames):
        t = k * dt
        rows.append(make_row(frame=k, time=t, x=10.0 * t, sv_flag=1))
        rows.append(
            make_row(
                frame=k,
                time=t,
                agent_id="lead",
                x=lead_x0 + lead_vx * t,
                vx=lead_vx,
                sv_flag=0,
            )
        )
    return rows


def events_of(d, traj="t0"):
    """The collision frames of one trajectory, ascending."""
    return tuple(f for t, f in d.collision_events if t == traj)


def sample(**kw):
    base = dict(
        recording_id="rec0",
        trajectory_id="t0",
        frame=0,
        time=0.0,
        agent_id="ego",
        agent_type="car",
        x=0.0,
        y=0.0,
        vx=10.0,
        vy=0.0,
        length=4.0,
        width=2.0,
        lane_id=1,
        sv_flag=True,
    )
    base.update(kw)
    return RawSample(**base)


def csv_lines(rows, fields=CANONICAL_FIELDS, extra=None):
    """The lines of a trajectory CSV; ``extra`` = (header, value) appends one
    more column holding ``value`` on every row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(fields) + ([extra[0]] if extra else []))
    for r in rows:
        writer.writerow([r[k] for k in fields] + ([extra[1]] if extra else []))
    return buf.getvalue().splitlines(keepends=True)


BIG = "12345678901234567890"  # 20 digits: above the int64 range

# (patch to the row on line 4, the MalformedRow reason); when several fields
# are bad, the row-wise checks run in a fixed order and the first one reports
MALFORMED = [
    ({"x": "abc"}, "cannot parse x='abc' as a number"),
    ({"x": "inf"}, "x='inf' is not finite"),
    ({"vx": "nan"}, "vx='nan' is not finite"),
    (
        {"agent_type": "bicycle"},
        "agent_type 'bicycle' not one of ('car', 'truck', 'pedestrian', 'other')",
    ),
    ({"sv_flag": "maybe"}, "cannot interpret 'maybe' as a boolean flag"),
    ({"frame": "1.5"}, "cannot parse frame='1.5' as an integer"),
    ({"x": "infinity"}, "x='infinity' is not finite"),
    ({"x": "1e400"}, "x='1e400' is not finite"),
    ({"time": " abc "}, "cannot parse time=' abc ' as a number"),
    ({"width": "-2.0"}, "length/width must be non-negative"),
    ({"length": "-1e-300"}, "length/width must be non-negative"),
    ({"lane_id": "a"}, "cannot parse lane_id='a' as an integer"),
    ({"lane_id": "1.0"}, "cannot parse lane_id='1.0' as an integer"),
    ({"x": "abc", "width": "-1"}, "length/width must be non-negative"),
    ({"x": "abc", "agent_type": "bus"}, "agent_type 'bus' not one of ('car', 'truck', 'pedestrian', 'other')"),
    ({"time": "abc", "frame": "x"}, "cannot parse frame='x' as an integer"),
    ({"sv_flag": "2", "vy": "nan"}, "vy='nan' is not finite"),
    ({"frame": BIG}, f"frame='{BIG}' is outside the int64 range"),
    ({"lane_id": "-9223372036854775809"}, "lane_id='-9223372036854775809' is outside the int64 range"),
    ({"frame": BIG, "lane_id": "a"}, "cannot parse lane_id='a' as an integer"),
    ({"lane_id": BIG, "x": "abc"}, f"lane_id='{BIG}' is outside the int64 range"),
]

def shorten(lines, i, cells):
    """``lines`` with the last ``cells`` cells of line ``i`` removed."""
    return lines[:i] + [lines[i].rsplit(",", cells)[0] + "\n"] + lines[i + 1:]


_LINES = csv_lines(two_car_rows())
_BAD_X = csv_lines([make_row(frame=1, time=0.1, x="abc")])[1]
# name -> (file lines, reported line, reason). Lines count data records
# after the header, not physical lines: blank records are skipped
# uncounted and a quoted field may span lines.
LAYOUTS = {
    "short_row": (
        shorten(_LINES, 3, 3),
        4,
        "row is shorter than the header",
    ),
    "blank_record_before_bad_row": (
        _LINES[:3] + ["\n", "\n"] + [_BAD_X] + _LINES[4:],
        4,
        "cannot parse x='abc' as a number",
    ),
    "quoted_newline_before_bad_row": (
        [_LINES[0], '"rec\n0"' + _LINES[1][4:]] + _LINES[2:3] + [_BAD_X] + _LINES[4:],
        4,
        "cannot parse x='abc' as a number",
    ),
    "duplicate_header_last_copy_bad": (
        csv_lines(two_car_rows(), extra=("x", "abc")),
        2,
        "cannot parse x='abc' as a number",
    ),
    "short_row_hides_duplicate": (
        shorten(csv_lines(two_car_rows(), extra=("x", "1.0")), 3, 1),
        4,
        "row is shorter than the header",
    ),
}

# (patch to the row on line 4, RawSample field, parsed value): Python's own
# float() and int() decide what spells a number
ACCEPTED = [
    ({"x": " 2.5 "}, "x", 2.5),
    ({"x": "1_0"}, "x", 10.0),
    ({"x": "-0.0"}, "x", -0.0),
    ({"frame": " 1 "}, "frame", 1),
    ({"sv_flag": " True "}, "sv_flag", True),
    ({"agent_type": " Truck "}, "agent_type", "truck"),
    ({"lane_id": " "}, "lane_id", None),
    ({"lane_id": " -3 "}, "lane_id", -3),
    ({"trajectory_id": " t0 "}, "trajectory_id", "t0"),
    ({"agent_id": " ego "}, "agent_id", "ego"),
    ({"recording_id": " r "}, "recording_id", " r "),
    ({"lane_id": "-9223372036854775808"}, "lane_id", -2**63),
    ({"lane_id": "9223372036854775807"}, "lane_id", 2**63 - 1),
]


class TestParsing:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, two_car_rows())
        d = parse_trajectory_csv(path)
        assert len(d.samples) == 12
        assert d.trajectory_ids == ("t0",)
        assert d.dt == pytest.approx(0.1)
        sv = d.samples.columns["sv_flag"]
        assert d.samples.columns["frame"][sv].tolist() == [0, 1, 2, 3, 4, 5]

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "a.csv"
        fields = [f for f in CANONICAL_FIELDS if f != "vx"]
        write_csv(path, two_car_rows(), fields=fields)
        with pytest.raises(MissingColumn):
            parse_trajectory_csv(path)

    def test_optional_columns_default(self, tmp_path):
        path = tmp_path / "a.csv"
        fields = [f for f in CANONICAL_FIELDS if f not in ("recording_id", "lane_id")]
        write_csv(path, two_car_rows(), fields=fields)
        d = parse_trajectory_csv(path)
        assert sample_row(d.samples, 0).recording_id == ""
        assert sample_row(d.samples, 0).lane_id is None

    def test_remapped_headers(self, tmp_path):
        path = tmp_path / "a.csv"
        rows = two_car_rows()
        with open(path, "w", newline="") as fh:
            fields = ["runId" if f == "trajectory_id" else f for f in CANONICAL_FIELDS]
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for r in rows:
                out = dict(r)
                out["runId"] = out.pop("trajectory_id")
                writer.writerow(out)
        d = parse_trajectory_csv(path, schema_options={"trajectory_id": "runId"})
        assert d.trajectory_ids == ("t0",)

    def test_unknown_remap_key_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, two_car_rows())
        with pytest.raises(SafesetError, match="unknown field 'bogus'") as exc:
            parse_trajectory_csv(path, schema_options={"bogus": "x"})
        assert not isinstance(exc.value, MissingColumn)

    @pytest.mark.parametrize(
        "patch, reason",
        MALFORMED,
        ids=[f"patch{i}" for i in range(len(MALFORMED))],
    )
    def test_malformed_rows(self, tmp_path, patch, reason):
        path = tmp_path / "a.csv"
        rows = two_car_rows()
        bad = dict(make_row(frame=1, time=0.1))
        bad.update(patch)
        rows[2] = bad
        write_csv(path, rows)
        with pytest.raises(MalformedRow) as exc:
            parse_trajectory_csv(path)
        assert (exc.value.line, exc.value.reason) == (4, reason)

    def test_first_bad_line_wins(self, tmp_path):
        path = tmp_path / "a.csv"
        rows = two_car_rows()
        rows[2]["vy"] = "oops"
        rows[4]["x"] = "abc"
        write_csv(path, rows)
        with pytest.raises(MalformedRow) as exc:
            parse_trajectory_csv(path)
        assert (exc.value.line, exc.value.reason) == (
            4, "cannot parse vy='oops' as a number"
        )

    @pytest.mark.parametrize("case", sorted(LAYOUTS))
    def test_malformed_layouts(self, tmp_path, case):
        lines, line, reason = LAYOUTS[case]
        path = tmp_path / "a.csv"
        path.write_text("".join(lines))
        with pytest.raises(MalformedRow) as exc:
            parse_trajectory_csv(path)
        assert (exc.value.line, exc.value.reason) == (line, reason)

    @pytest.mark.parametrize("patch, field, value", ACCEPTED)
    def test_accepted_spellings(self, tmp_path, patch, field, value):
        path = tmp_path / "a.csv"
        rows = two_car_rows()
        # a track has one agent type, so that patch goes to every row of it
        for row in rows[::2] if field == "agent_type" else rows[2:3]:
            row.update(patch)
        write_csv(path, rows)
        got = getattr(sample_row(parse_trajectory_csv(path).samples, 2), field)
        assert got == value and type(got) is type(value)

    def test_duplicate_header_last_column_wins(self, tmp_path):
        rows = two_car_rows()
        rows[2]["x"] = "abc"
        lines = csv_lines(rows, extra=("x", "7.5"))
        path = tmp_path / "a.csv"
        path.write_text("".join(lines))
        d = parse_trajectory_csv(path)
        assert {s.x for s in sample_rows(d.samples)} == {7.5}

    def test_short_row_defaults_trailing_optional_column(self, tmp_path):
        fields = [f for f in CANONICAL_FIELDS if f != "lane_id"] + ["lane_id"]
        lines = shorten(csv_lines(two_car_rows(), fields=fields), 3, 1)
        path = tmp_path / "a.csv"
        path.write_text("".join(lines))
        d = parse_trajectory_csv(path)
        assert [s.lane_id for s in sample_rows(d.samples)][1:4] == [1, None, 1]

    def test_non_monotone_time(self, tmp_path):
        path = tmp_path / "a.csv"
        rows = two_car_rows()
        rows[4] = make_row(frame=2, time=0.05, x=1.0)
        write_csv(path, rows)
        with pytest.raises(NonMonotoneTime):
            parse_trajectory_csv(path)

    def test_two_subject_vehicles_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        rows = two_car_rows()
        for r in rows:
            r["sv_flag"] = 1
        write_csv(path, rows)
        with pytest.raises(MalformedRow):
            parse_trajectory_csv(path)

    def test_no_subject_vehicle_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        rows = two_car_rows()
        for r in rows:
            r["sv_flag"] = 0
        write_csv(path, rows)
        with pytest.raises(MalformedRow):
            parse_trajectory_csv(path)

    def test_dt_is_median_gap(self, tmp_path):
        rows = []
        times = [0.0, 0.1, 0.2, 0.3, 0.5]
        for k, t in enumerate(times):
            rows.append(make_row(frame=k, time=t, x=t))
            rows.append(
                make_row(frame=k, time=t, agent_id="lead", x=20 + t, sv_flag=0)
            )
        path = tmp_path / "a.csv"
        write_csv(path, rows)
        d = parse_trajectory_csv(path)
        assert d.dt == pytest.approx(0.1)


class TestTrackRejection:
    def test_irregular_companion_track_dropped(self, tmp_path):
        rows = []
        for k in range(8):
            rows.append(make_row(frame=k, time=0.1 * k, x=k))
        jittery = [0.0, 0.1, 0.25, 0.3, 0.45, 0.5, 0.65, 0.7]
        for k, t in enumerate(jittery):
            rows.append(
                make_row(frame=k, time=t, agent_id="other", x=30 + k, sv_flag=0)
            )
        path = tmp_path / "a.csv"
        write_csv(path, rows)
        d = parse_trajectory_csv(path)
        assert ("t0", "other") in d.rejected_tracks
        assert {s.agent_id for s in sample_rows(d.samples)} == {"ego"}

    def test_irregular_subject_vehicle_drops_trajectory(self, tmp_path):
        rows = []
        jittery = [0.0, 0.1, 0.25, 0.3, 0.45, 0.5, 0.65, 0.7]
        for k, t in enumerate(jittery):
            rows.append(make_row(frame=k, time=t, x=k))
        for k in range(8):
            rows.append(
                make_row(frame=k, time=0.1 * k, agent_id="lead", x=30 + k, sv_flag=0)
            )
        # second, clean trajectory keeps the dataset non-empty
        for k in range(4):
            rows.append(
                make_row(trajectory_id="t1", frame=k, time=0.1 * k, x=k, sv_flag=1)
            )
        path = tmp_path / "a.csv"
        write_csv(path, rows)
        d = parse_trajectory_csv(path)
        assert d.trajectory_ids == ("t1",)
        assert ("t0", "ego") in d.rejected_tracks

    def test_labelling_keeps_rejected_tracks_and_samples(self, tmp_path):
        self.test_irregular_companion_track_dropped(tmp_path)
        d = parse_trajectory_csv(tmp_path / "a.csv")
        labelled = label_collisions(d, "either")
        assert labelled.rejected_tracks == d.rejected_tracks == (("t0", "other"),)
        assert labelled.rejected_tracks is d.rejected_tracks
        assert labelled.samples is d.samples and labelled.sv_join is d.sv_join


class TestLabels:
    def make_overlapping(self, tmp_path, label_frames=(3,)):
        # lead parked 8 m ahead; ego closes in and geometrically overlaps
        # (center distance < 4 m) from frame 6 onward.
        rows = []
        for k in range(10):
            t = 0.1 * k
            rows.append(make_row(frame=k, time=t, x=0.7 * k, vx=7.0))
            rows.append(
                make_row(
                    frame=k, time=t, agent_id="lead", x=8.0, vx=0.0, sv_flag=0
                )
            )
        path = tmp_path / "a.csv"
        write_csv(path, rows)
        labels = tmp_path / "labels.csv"
        with open(labels, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trajectory_id", "frame"])
            for f in label_frames:
                writer.writerow(["t0", f])
        return path, labels

    def test_labels_only_keeps_sidecar(self, tmp_path):
        path, labels = self.make_overlapping(tmp_path)
        d = parse_trajectory_csv(path, labels_path=labels)
        d = label_collisions(d, "labels_only")
        assert events_of(d) == (3,)

    def test_geometric_overlap_replaces(self, tmp_path):
        path, labels = self.make_overlapping(tmp_path)
        d = parse_trajectory_csv(path, labels_path=labels)
        d = label_collisions(d, "geometric_overlap")
        events = events_of(d)
        assert 3 not in events
        assert events == (6, 7, 8, 9)

    def test_either_takes_union(self, tmp_path):
        path, labels = self.make_overlapping(tmp_path)
        d = parse_trajectory_csv(path, labels_path=labels)
        d = label_collisions(d, "either")
        events = events_of(d)
        assert 3 in events and 7 in events

    @pytest.mark.parametrize("rule", ["labels_only", "geometric_overlap", "either"])
    def test_rules_idempotent(self, tmp_path, rule):
        path, labels = self.make_overlapping(tmp_path)
        d = parse_trajectory_csv(path, labels_path=labels)
        once = label_collisions(d, rule)
        twice = label_collisions(once, rule)
        assert once == twice

    def test_unknown_rule(self, tmp_path):
        path, labels = self.make_overlapping(tmp_path)
        d = parse_trajectory_csv(path, labels_path=labels)
        with pytest.raises(ValueError):
            label_collisions(d, "sometimes")

    def test_sidecar_event_of_unknown_trajectory_refused(self, tmp_path):
        path, labels = self.make_overlapping(tmp_path)
        with open(labels, "a", newline="") as fh:
            csv.writer(fh).writerow(["no_such_run", 5])
        with pytest.raises(MalformedRow) as exc:
            parse_trajectory_csv(path, labels_path=labels)
        assert exc.value.line == 3 and "no_such_run" in exc.value.reason

    def test_sidecar_events_of_dropped_trajectories_filtered(self, tmp_path):
        rows = [make_row(frame=k, time=t, x=float(k))
                for k, t in enumerate([0.0, 0.1, 0.25, 0.3, 0.45, 0.5])]
        rows += [make_row(trajectory_id="t1", frame=k, time=0.1 * k, x=float(k))
                 for k in range(6)]
        write_csv(tmp_path / "a.csv", rows)
        write_collision_csv([("t0", 2), ("t1", 3)], tmp_path / "labels.csv")
        d = parse_trajectory_csv(tmp_path / "a.csv", labels_path=tmp_path / "labels.csv")
        assert d.trajectory_ids == ("t1",) and d.collision_events == (("t1", 3),)

    def test_read_collision_csv(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_collision_csv([("t0", 3), ("t1", 9)], path)
        assert read_collision_csv(path) == [("t0", 3), ("t1", 9)]

    @pytest.mark.parametrize("cells, reason", [
        (f"t0,{BIG}", f"frame='{BIG}' is outside the int64 range"),
        ("t0,-9223372036854775809", "frame='-9223372036854775809' is outside the int64 range"),
        ("t0,1.5", "cannot parse frame='1.5' as an integer"),
        ("t0", "row is shorter than the header"),
    ], ids=["above", "below", "fraction", "short"])
    def test_bad_sidecar_row_names_its_line(self, tmp_path, cells, reason):
        path = tmp_path / "labels.csv"
        path.write_text(f"trajectory_id,frame\nt0,-9223372036854775808\n{cells}\n")
        with pytest.raises(MalformedRow) as exc:
            read_collision_csv(path)
        assert (exc.value.line, exc.value.reason) == (3, reason)


class TestRoundTrip:
    def test_write_parse_identity(self, tmp_path):
        path, labels = TestLabels().make_overlapping(tmp_path, label_frames=(3, 5))
        d = parse_trajectory_csv(path, labels_path=labels)
        d = label_collisions(d, "either")
        out = tmp_path / "out.csv"
        out_labels = tmp_path / "out_labels.csv"
        write_trajectory_csv(d, out)
        write_collision_csv(d.collision_events, out_labels)
        d2 = parse_trajectory_csv(out, labels_path=out_labels)
        d2 = label_collisions(d2, "labels_only")
        assert d2 == d

    def test_awkward_floats_round_trip(self, tmp_path):
        rows = two_car_rows()
        rows[0]["x"] = repr(0.1 + 0.2)
        rows[0]["vx"] = repr(1.0 / 3.0)
        path = tmp_path / "a.csv"
        write_csv(path, rows)
        d = parse_trajectory_csv(path)
        out = tmp_path / "b.csv"
        write_trajectory_csv(d, out)
        assert parse_trajectory_csv(out) == d


def straight_line_dataset(gap, length, n=5, dt=0.1):
    samples = []
    for k in range(n):
        t = k * dt
        samples.append(sample(frame=k, time=t, x=1.0 * k, length=length))
        samples.append(
            sample(
                frame=k,
                time=t,
                agent_id="b",
                x=1.0 * k + gap,
                length=length,
                sv_flag=False,
            )
        )
    return Dataset(samples, dt=dt)


class TestGeometricDetection:
    def test_every_overlapping_frame_reported(self):
        d = straight_line_dataset(gap=3.0, length=4.0)
        d = label_collisions(d, "geometric_overlap")
        assert events_of(d) == (0, 1, 2, 3, 4)

    def test_touching_boxes_do_not_overlap(self):
        d = straight_line_dataset(gap=4.0, length=4.0)
        d = label_collisions(d, "geometric_overlap")
        assert events_of(d) == ()

    @settings(max_examples=40, deadline=None)
    @given(
        gap=st.floats(1.0, 12.0),
        length=st.floats(2.0, 6.0),
        inflation=st.floats(0.0, 4.0),
    )
    def test_inflation_monotone(self, gap, length, inflation):
        small = label_collisions(
            straight_line_dataset(gap, length), "geometric_overlap"
        )
        big = label_collisions(
            straight_line_dataset(gap, length + inflation), "geometric_overlap"
        )
        assert set(small.collision_events) <= set(big.collision_events)


class TestDatasetValidation:
    def test_requires_constant_sv_flag(self):
        samples = [
            sample(frame=0, time=0.0),
            sample(frame=1, time=0.1, sv_flag=False),
        ]
        with pytest.raises(MalformedRow):
            Dataset(samples, dt=0.1)

    def test_requires_constant_agent_type(self):
        samples = [
            sample(frame=0, time=0.0),
            sample(frame=1, time=0.1),
            sample(frame=0, time=0.0, agent_id="b"),
            sample(frame=1, time=0.1, agent_id="b", agent_type="truck"),
        ]
        with pytest.raises(MalformedRow, match=r"\('t0', 'b'\) mixes agent_type"):
            Dataset(samples, dt=0.1)

    def test_mixed_agent_type_in_csv_refused(self, tmp_path):
        rows = two_car_rows()
        rows[-1]["agent_type"] = "truck"
        write_csv(tmp_path / "a.csv", rows)
        with pytest.raises(MalformedRow, match="mixes agent_type"):
            parse_trajectory_csv(tmp_path / "a.csv")

    def test_non_monotone_frames(self):
        samples = [
            sample(frame=1, time=0.1),
            sample(frame=0, time=0.0),
            sample(frame=0, time=0.0, agent_id="b", sv_flag=False),
            sample(frame=1, time=0.1, agent_id="b", sv_flag=False),
        ]
        with pytest.raises(NonMonotoneTime):
            Dataset(samples, dt=0.1)

    def test_events_deduped_and_sorted(self):
        samples = [sample(frame=0, time=0.0), sample(frame=1, time=0.1, x=1.0)]
        d = Dataset(
            samples, dt=0.1, collision_events=[("t0", 1), ("t0", 0), ("t0", 1)]
        )
        assert d.collision_events == (("t0", 0), ("t0", 1))

    def test_rejected_tracks_given_at_construction(self):
        samples = [sample(frame=0, time=0.0), sample(frame=1, time=0.1, x=1.0)]
        assert Dataset(samples, dt=0.1).rejected_tracks == ()
        d = Dataset(samples, dt=0.1, rejected_tracks=[("t1", "ego"), ("t1", "b")])
        assert d.rejected_tracks == (("t1", "ego"), ("t1", "b"))
        assert d.with_events([("t0", 1)]).rejected_tracks is d.rejected_tracks

    def test_sv_distance(self):
        samples = [
            sample(frame=k, time=0.1 * k, x=2.0 * k, y=0.0) for k in range(4)
        ]
        d = Dataset(samples, dt=0.1)
        assert d.sv_distance_m() == pytest.approx(6.0)

    def test_dt_inference_from_samples(self):
        samples = [sample(frame=k, time=0.25 * k, x=1.0 * k) for k in range(3)]
        d = Dataset(samples)
        assert d.dt == pytest.approx(0.25)

    @pytest.mark.parametrize("dt", [-0.04, 0.0, np.nan, np.inf])
    def test_dt_must_be_finite_and_positive(self, dt):
        samples = [sample(frame=k, time=0.25 * k) for k in range(3)]
        with pytest.raises(MalformedRow, match="dt must be finite and positive"):
            Dataset(samples, dt=dt)

    def test_equality_compares_columns(self):
        def one(**kw):
            return Dataset([sample(frame=0, time=0.0, **kw)], dt=0.1)

        assert one(x=0.0) == one(x=-0.0)
        assert one(lane_id=None) != one(lane_id=0)
        assert one(lane_id=-1) != one(lane_id=1)
        assert one(recording_id="a") != one(recording_id="b")
        assert one(agent_type="car") != one(agent_type="truck")

    def test_single_sample_needs_explicit_dt(self):
        with pytest.raises(MalformedRow):
            Dataset([sample()])

    @pytest.mark.parametrize(
        "field,value", [("frame", 10**20), ("frame", -(2**63) - 1), ("lane_id", 10**20)]
    )
    def test_in_memory_integers_outside_int64_are_refused(self, field, value):
        # the CSV cell rule's range check, not a bare OverflowError
        rows = [sample(**{field: value}), sample(frame=1, time=0.1)]
        with pytest.raises(MalformedRow, match=rf"^input: {field}={value} is outside the int64 range$"):
            Dataset(rows, dt=0.1)

    def test_in_memory_int64_extremes_are_kept(self):
        rows = [
            sample(frame=2**63 - 2, time=0.0, lane_id=-(2**63)),
            sample(frame=2**63 - 1, time=0.1, lane_id=2**63 - 1),
        ]
        d = Dataset(rows, dt=0.1)
        assert d.samples.columns["frame"].tolist() == [2**63 - 2, 2**63 - 1]
        assert sample_values(d.samples, "lane_id") == [-(2**63), 2**63 - 1]


# --- columnar parser against a row-wise reference ---------------------------


def _ref_float(raw, name, line):
    try:
        value = float(raw)
    except ValueError:
        raise MalformedRow(line, f"cannot parse {name}={raw!r} as a number") from None
    if not np.isfinite(value):
        raise MalformedRow(line, f"{name}={raw!r} is not finite")
    return value


def _ref_int(raw, name, line):
    try:
        value = int(raw.strip())
    except ValueError:
        raise MalformedRow(line, f"cannot parse {name}={raw!r} as an integer") from None
    if not -2**63 <= value < 2**63:
        raise MalformedRow(line, f"{name}={raw!r} is outside the int64 range")
    return value


def _ref_bool(raw, line):
    low = raw.strip().lower()
    if low in ("1", "true", "t", "yes"):
        return True
    if low in ("0", "false", "f", "no"):
        return False
    raise MalformedRow(line, f"cannot interpret {raw!r} as a boolean flag")


def _ref_dataset(samples, dt=None, events=()):
    """Validate tracks one at a time, as a loop over grouped rows."""
    grouped = {}
    for s in samples:
        grouped.setdefault((s.trajectory_id, s.agent_id), []).append(s)
    for key, rows in grouped.items():
        frames = [r.frame for r in rows]
        times = [r.time for r in rows]
        if any(b <= a for a, b in zip(frames, frames[1:])) or any(
            b <= a for a, b in zip(times, times[1:])
        ):
            raise NonMonotoneTime(*key)
        if len({r.sv_flag for r in rows}) != 1:
            raise MalformedRow(None, f"track {key!r} mixes sv_flag values")
        if len({r.agent_type for r in rows}) != 1:
            raise MalformedRow(None, f"track {key!r} mixes agent_type values")
    sv = {}
    for (traj, agent), rows in grouped.items():
        if rows[0].sv_flag:
            if traj in sv:
                raise MalformedRow(None, f"trajectory {traj!r} has more than one subject agent")
            sv[traj] = agent
    for traj in dict.fromkeys(s.trajectory_id for s in samples):
        if traj not in sv:
            raise MalformedRow(None, f"trajectory {traj!r} has no subject agent (sv_flag)")
    gaps = [b.time - a.time for rows in grouped.values() for a, b in zip(rows, rows[1:])]
    if dt is None:
        if not gaps:
            raise MalformedRow(None, "cannot infer dt: no track has two consecutive samples")
        dt = float(np.median(gaps))
    return grouped, sv, dt


def reference_parse(path):
    """Row-wise parse: one DictReader row, one RawSample at a time."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise MalformedRow(1, "file is empty (no header)")
        for f in CANONICAL_FIELDS:
            if f not in ("recording_id", "lane_id") and f not in reader.fieldnames:
                raise MissingColumn(f)
        has_recording = "recording_id" in reader.fieldnames
        has_lane = "lane_id" in reader.fieldnames
        samples = []
        for line, row in enumerate(reader, start=2):
            get = row.get
            if any(get(f) is None for f in CANONICAL_FIELDS if f not in ("recording_id", "lane_id")):
                raise MalformedRow(line, "row is shorter than the header")
            agent_type = get("agent_type").strip().lower()
            if agent_type not in AGENT_TYPES:
                raise MalformedRow(line, f"agent_type {get('agent_type')!r} not one of {AGENT_TYPES}")
            length = _ref_float(get("length"), "length", line)
            width = _ref_float(get("width"), "width", line)
            if length < 0 or width < 0:
                raise MalformedRow(line, "length/width must be non-negative")
            lane = get("lane_id") if has_lane else None
            lane = None if lane is None or lane.strip() == "" else _ref_int(lane, "lane_id", line)
            samples.append(RawSample(
                recording_id=(get("recording_id") or "") if has_recording else "",
                trajectory_id=get("trajectory_id").strip(),
                frame=_ref_int(get("frame"), "frame", line),
                time=_ref_float(get("time"), "time", line),
                agent_id=get("agent_id").strip(),
                agent_type=agent_type,
                x=_ref_float(get("x"), "x", line),
                y=_ref_float(get("y"), "y", line),
                vx=_ref_float(get("vx"), "vx", line),
                vy=_ref_float(get("vy"), "vy", line),
                length=length,
                width=width,
                lane_id=lane,
                sv_flag=_ref_bool(get("sv_flag"), line),
            ))
    if not samples:
        raise MalformedRow(None, "file contains a header but no rows")
    grouped, sv, dt = _ref_dataset(samples)
    rejected = set()
    for key, rows in grouped.items():
        gaps = np.diff([r.time for r in rows])
        if gaps.size and (np.abs(gaps - dt) > 0.1 * dt).mean() > 0.01:
            rejected.add(key)
    dropped_trajs = {traj for traj, agent in rejected if sv[traj] == agent}
    dropped = {k for k in grouped if k in rejected or k[0] in dropped_trajs}
    kept = [s for s in samples if (s.trajectory_id, s.agent_id) not in dropped]
    return Dataset(kept, dt=dt, rejected_tracks=sorted(dropped))


def outcome(parse, path):
    try:
        d = parse(path)
    except SafesetError as exc:
        return type(exc), str(exc)
    return d, d.rejected_tracks


class TestColumnarParser:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rec=recordings(), chunk=st.sampled_from([1, 2, 5, 4096]))
    def test_write_parse_round_trip(self, tmp_path_factory, rec, chunk):
        samples, events = rec
        d = Dataset(samples, collision_events=events)
        assert sample_rows(d.samples) == samples
        assert sample_row(d.samples, -1) == samples[-1] and len(d.samples) == len(samples)
        root = tmp_path_factory.mktemp("rt")
        write_trajectory_csv(d, root / "a.csv")
        write_collision_csv(d.collision_events, root / "a_labels.csv")
        with mock.patch.object(ingest, "_CHUNK_ROWS", chunk):
            back = parse_trajectory_csv(root / "a.csv", labels_path=root / "a_labels.csv")
        assert back == d
        assert back.rejected_tracks == ()
        assert sample_rows(back.samples) == samples
        write_trajectory_csv(back, root / "b.csv")
        assert (root / "b.csv").read_bytes() == (root / "a.csv").read_bytes()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rec=recordings(), data=st.data(), chunk=st.sampled_from([1, 2, 3, 7, 4096]))
    def test_corrupted_csv_matches_row_wise_reference(self, tmp_path_factory, rec, data, chunk):
        samples, _ = rec
        root = tmp_path_factory.mktemp("fuzz")
        write_trajectory_csv(Dataset(samples, dt=0.1), root / "clean.csv")
        with open(root / "clean.csv", newline="") as fh:
            records = list(csv.reader(fh))
        tokens = st.sampled_from([
            "", " ", "abc", " 1 ", "1_0", "inf", "-inf", "nan", "infinity", "1e400",
            "-1", "-0.0", "0.5", "1.5", "3", "True", "no", "maybe", "CAR", " truck ",
            "bicycle", "\u0663", "0x10", "1e5", "+2", "0.2", BIG,
        ])
        for _ in range(data.draw(st.integers(1, 3))):
            r = data.draw(st.integers(1, len(records) - 1))
            edit = data.draw(st.sampled_from(["cell", "cut", "extend", "blank", "swap", "dup"]))
            if edit == "cell":
                c = data.draw(st.integers(0, len(records[r]) - 1)) if records[r] else 0
                if records[r]:
                    records[r][c] = data.draw(tokens)
            elif edit == "cut":
                records[r] = records[r][: data.draw(st.integers(1, 13))]
            elif edit == "extend":
                records[r] = records[r] + [data.draw(tokens)]
            elif edit == "blank":
                records.insert(r, [])
            elif edit == "swap":
                s = data.draw(st.integers(1, len(records) - 1))
                records[r], records[s] = records[s], records[r]
            else:
                c = data.draw(st.integers(0, len(records[0]) - 1))
                records = [records[0] + [records[0][c]]] + [
                    row + [data.draw(tokens) if i == r - 1 else (row[c] if c < len(row) else "")]
                    for i, row in enumerate(records[1:])
                ]
        path = root / "bad.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(records)
        with mock.patch.object(ingest, "_CHUNK_ROWS", chunk):
            got = outcome(parse_trajectory_csv, path)
        assert got == outcome(reference_parse, path)


def test_parse_and_label_build_no_row_objects(tmp_path, monkeypatch):
    rows = []
    for traj in ("t0", "t1", "t2"):
        for k in range(8):
            t = 0.1 * k
            rows.append(make_row(trajectory_id=traj, frame=k, time=t, x=k, sv_flag=1))
            rows.append(make_row(trajectory_id=traj, frame=k, time=t, agent_id="lead",
                                 x=30 + k, sv_flag=0))
    jittery = [0.0, 0.1, 0.25, 0.3, 0.45, 0.5, 0.65, 0.7]
    rows += [make_row(trajectory_id="t1", frame=k, time=t, agent_id="other", x=60 + k,
                      sv_flag=0) for k, t in enumerate(jittery)]
    write_csv(tmp_path / "a.csv", rows)
    built = []
    init = RawSample.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RawSample, "__init__", counting_init)
    d = label_collisions(parse_trajectory_csv(tmp_path / "a.csv"), "either")
    assert d.trajectory_ids == ("t0", "t1", "t2")
    assert d.rejected_tracks == (("t1", "other"),)
    assert len(built) == 0
    assert sample_row(d.samples, 0).agent_id == "ego" and len(built) == 1
