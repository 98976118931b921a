"""End-to-end analysis runs, report artifacts, and the command line."""

import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import safeset
import safeset.pipeline as pipeline
from builders import LANES, scene_dataset
from safeset import celltext
from safeset.cli import (
    EXIT_EXCLUSION,
    EXIT_INVALID,
    EXIT_OK,
    _build_config,
    _labels_sidecar,
    build_parser,
    main,
)
from safeset.errors import ExclusionViolated, InvalidBeta, SafesetError
from safeset.ingest import (
    CANONICAL_FIELDS,
    FLOAT_FIELDS,
    STRING_FIELDS,
    Dataset,
    SampleTable,
    label_collisions,
    parse_trajectory_csv,
    write_collision_csv,
    write_trajectory_csv,
)
from safeset.oss import OSS_KINDS, PRESETS, OssSpec, extract_states
from safeset.pipeline import (
    CLUSTER_MAX_HIGH_DIM,
    SCHEMA_VERSION,
    AnalysisConfig,
    run_analysis,
)
from safeset.geometry import AlphaShape, ConvexHullShape, ShapeUnion, alpha_complex, delaunay
from safeset.report import (
    REPORT_SCHEMA,
    _shape_document,
    _slice_filename,
    _write_ds_csv,
    _write_slice_csv,
    dump_json,
    emit_report,
    render_slice,
    slice_plans,
)
from safeset.simgen import IDM_0, IDM_1, ScenarioSpec, simulate_battery


def test_bench_tracer_finds_every_wrapped_name(monkeypatch):
    """Every callable the benchmark's tracer wraps is still defined where its
    caller looks it up; the tracer would read a missing one as a 0 metric."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import layers
    from spans import Tracer

    tracer = Tracer()
    try:
        layers.install(tracer)
        assert tracer.missing == []
    finally:
        tracer.unwrap_all()


SUMO_OSS = {"kind": "lead_following", "v_min": 0.0, "v_max": 30.0, "p_min": 0.0,
            "p_max": 100.0}


class TestAnalysisConfig:
    def test_defaults_validate_with_preset(self):
        cfg = AnalysisConfig(preset="sumo-lead")
        cfg.validate()
        assert cfg.beta == 0.001 and cfg.reach_mode == "undirected"

    def test_resolve_spec_from_oss_block(self):
        cfg = AnalysisConfig(
            oss={"kind": "lead_following", "v_min": 0.0, "v_max": 20.0,
                 "p_min": 0.0, "p_max": 60.0}
        )
        spec = cfg.resolve_spec()
        assert isinstance(spec, OssSpec)
        assert spec.v_max == 20.0 and spec.p_max == 60.0

    @pytest.mark.parametrize(
        "patch,exc",
        [
            ({"beta": 0.0}, InvalidBeta),
            ({"beta": 1.5}, InvalidBeta),
            ({"collision_rule": "sometimes"}, SafesetError),
            ({"reach_mode": "sideways"}, SafesetError),
            ({"alpha_lo": 5.0, "alpha_hi": 5.0}, SafesetError),
            ({"alpha_threshold": 0.0}, SafesetError),
            ({"match_radius": -1.0}, SafesetError),
            ({"match_radius": math.nan}, SafesetError),
            ({"match_radius": math.inf}, SafesetError),
            ({"alpha_lo": math.nan}, SafesetError),
            ({"alpha_hi": math.inf}, SafesetError),
            ({"alpha_hi": math.nan}, SafesetError),
            ({"alpha_threshold": math.nan}, SafesetError),
            ({"alpha_threshold": math.inf}, SafesetError),
            ({"mc_samples": 999}, SafesetError),
            ({"slice_cells": 1}, SafesetError),
            ({"preset": "nonexistent"}, SafesetError),
            ({"preset": None}, SafesetError),  # no preset and no oss block
            ({"seed": -1}, SafesetError),
            ({"seed": 1.5}, SafesetError),
            ({"seed": True}, SafesetError),
            ({"cluster_max": 1}, SafesetError),
            ({"cluster_max": 2.5}, SafesetError),
            ({"mc_samples": 20000.5}, SafesetError),
            ({"mc_samples": 20000.0}, SafesetError),
            ({"slice_cells": 50.5}, SafesetError),
            ({"preset": None, "oss": dict(SUMO_OSS, p_max=math.inf)}, SafesetError),
            ({"preset": None, "oss": dict(SUMO_OSS, v_max=math.inf)}, SafesetError),
            ({"preset": None, "oss": dict(SUMO_OSS, lane_width=math.nan)}, SafesetError),
            ({"preset": None, "oss": dict(SUMO_OSS, side_band=[1.0, 2.0, 3.0])}, SafesetError),
            ({"preset": None, "oss": dict(SUMO_OSS, side_band=[2.0])}, SafesetError),
            ({"preset": None, "oss": dict(SUMO_OSS, side_band=[5.0, 1.0])}, SafesetError),
            ({"preset": None, "oss": dict(SUMO_OSS, side_band=[1.0, 1.0])}, SafesetError),
            ({"oss": SUMO_OSS}, SafesetError),  # a preset and an oss block
            ({"columns": {"bogus": "x"}}, SafesetError),  # not a canonical field
            ({"columns": {"frame": ""}}, SafesetError),  # an empty header
            # a space of at most 3 dimensions is always wrapped in one shape
            ({"preset": "ncap-lead", "cluster_max": 500}, SafesetError),
            ({"preset": None, "oss": SUMO_OSS, "cluster_max": 500}, SafesetError),
        ],
    )
    def test_validation_rejects(self, patch, exc):
        cfg = AnalysisConfig(preset="sumo-lead")
        for k, v in patch.items():
            setattr(cfg, k, v)
        with pytest.raises(exc):
            cfg.validate()

    @pytest.mark.parametrize(
        "settings", [{"preset": "highd-multi"}, {"oss": dict(SUMO_OSS, kind="multi_vehicle")}]
    )
    def test_cluster_max_accepted_above_three_dimensions(self, settings):
        AnalysisConfig(**settings, cluster_max=500).validate()

    @pytest.mark.parametrize(
        "oss, named",
        [
            (dict(SUMO_OSS, p_min=40.0, p_max=0.0), "p"),
            ({"kind": "vehicle_pedestrian", "v_min": 0.0, "v_max": 25.0}, "p_left"),
            (dict(SUMO_OSS, kind="combined", q_max=2.0, ped_p_max=30.0, p_max=0.0), "p_fl"),
        ],
    )
    def test_empty_interval_refused_before_the_csv_is_read(self, monkeypatch, oss, named):
        # validate names the first dimension whose interval has no width,
        # and run_analysis stops there without parsing its input
        parsed = []
        monkeypatch.setattr(pipeline, "parse_trajectory_csv", lambda *a, **k: parsed.append(a))
        cfg = AnalysisConfig(oss=oss, input_csv="never-read.csv")
        with pytest.raises(SafesetError, match=f"; {named} has "):
            cfg.validate()
        with pytest.raises(SafesetError, match=f"; {named} has "):
            run_analysis(cfg)
        assert parsed == []

    def test_dict_round_trip(self):
        cfg = AnalysisConfig(preset="sumo-lead", beta=0.01, seed=3)
        again = AnalysisConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SafesetError):
            AnalysisConfig.from_dict({"preset": "sumo-lead", "betta": 0.1})

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"preset": "ncap-lead", "seed": 9}))
        cfg = AnalysisConfig.from_json(path)
        assert cfg.preset == "ncap-lead" and cfg.seed == 9


class _Clustered(Exception):
    pass


def test_wrap_points_never_clusters_up_to_three_dimensions(monkeypatch):
    # above 3 dimensions a set over cluster_max is clustered, with
    # CLUSTER_MAX_HIGH_DIM when none is set; at most 3 it is one alpha shape
    caps = []

    def clustering(points, cap, seed):
        caps.append(cap)
        raise _Clustered

    monkeypatch.setattr(pipeline.geometry, "hierarchical_cluster", clustering)
    rng = np.random.default_rng(0)
    shape, info = pipeline._wrap_points(rng.random((1200, 3)), AnalysisConfig(cluster_max=200), 3)
    assert isinstance(shape, AlphaShape) and info["kind"] == "alpha_shape"
    assert caps == []
    for cfg, cap in ((AnalysisConfig(), CLUSTER_MAX_HIGH_DIM), (AnalysisConfig(cluster_max=200), 200)):
        with pytest.raises(_Clustered):
            pipeline._wrap_points(rng.random((1200, 4)), cfg, 4)
        assert caps.pop() == cap


def small_battery(crash=False):
    """Three clearly-safe slower-lead cells, plus one doomed cell if asked."""
    specs = [
        ScenarioSpec(f"safe-v{v:02d}", sv_speed0=float(v), lead_speed0=0.5 * v,
                     initial_gap=60.0, duration_s=20.0)
        for v in (10, 12, 14)
    ]
    params = IDM_0
    if crash:
        specs.append(
            ScenarioSpec("doomed", sv_speed0=20.0, lead_speed0=20.0,
                         initial_gap=20.0, lead_decel=6.0, duration_s=20.0)
        )
        params = IDM_1
    return simulate_battery(params, specs)


@pytest.fixture(scope="module")
def safe_report():
    cfg = AnalysisConfig(preset="sumo-lead", seed=0)
    return run_analysis(cfg, dataset=small_battery(crash=False))


@pytest.fixture(scope="module")
def mixed_report():
    cfg = AnalysisConfig(preset="sumo-lead", seed=0)
    return run_analysis(cfg, dataset=small_battery(crash=True))


class TestRunAnalysis:
    def test_schema_valid(self, safe_report, mixed_report):
        jsonschema.Draft7Validator.check_schema(REPORT_SCHEMA)
        jsonschema.validate(safe_report.data, REPORT_SCHEMA)
        jsonschema.validate(mixed_report.data, REPORT_SCHEMA)
        assert safe_report.data["schema_version"] == SCHEMA_VERSION

    def test_schema_is_pinned(self):
        # the digest covers every field, bound and key order of the contract
        digest = hashlib.sha256(json.dumps(REPORT_SCHEMA).encode()).hexdigest()
        assert digest == "8f62e37edfce598019ff19f55b786e0178d435b52f4abd3c344aa8ad6bddbff1"
        props = REPORT_SCHEMA["properties"]
        assert props["schema_version"] == {"const": SCHEMA_VERSION}
        assert props["projection"]["properties"]["kind"] == {"enum": list(OSS_KINDS)}

    def test_safe_only_run(self, safe_report):
        d = safe_report.data
        assert d["dataset"]["collision_event_count"] == 0
        assert d["safe_set"]["unsafe_trajectories"] == 0
        assert d["safe_set"]["unique_count"] == d["projection"]["n_unique_states"]
        assert d["transitions"]["complement"] == 0
        assert d["transitions"]["safe"] == d["transitions"]["total"] > 0
        assert d["epsilon"]["n_trailing"] == d["transitions"]["total"]
        n = d["epsilon"]["n_trailing"]
        want = -math.expm1(math.log(0.001) / n)
        assert d["epsilon"]["epsilon_single"] == pytest.approx(want, rel=1e-12)
        assert d["baselines"]["fatality_rate_bound"] is not None
        assert d["baselines"]["ttc_mean"] is not None
        assert d["shape"]["kind"] == "alpha_shape"
        assert 0.0 < d["coverage"]["occupancy"] <= 1.0

    def test_mixed_run_excludes_crash_states(self, mixed_report):
        d = mixed_report.data
        assert d["dataset"]["collision_event_count"] == 1
        assert d["safe_set"]["unsafe_trajectories"] == 1
        assert d["safe_set"]["excluded_unique_count"] > 0
        assert d["safe_set"]["exclusion_ok"] is True
        assert (
            d["transitions"]["safe"] + d["transitions"]["complement"]
            == d["transitions"]["total"]
        )
        assert d["transitions"]["complement"] > 0
        assert d["baselines"]["fatality_rate_bound"] is None
        assert d["baselines"]["safe_distance_km"] is None
        eps = d["epsilon"]
        assert 0.0 < eps["epsilon_bar_exact"] <= 1.0
        assert 0.0 <= eps["epsilon_bar_paper"] <= 1.0

    def test_states_outside_set_break_trailing_run(self, mixed_report):
        d = mixed_report.data
        assert d["epsilon"]["n_trailing"] <= d["transitions"]["safe"]

    def test_all_unsafe_gives_empty_marker(self):
        agents = {
            "ego": {"x0": 0.0, "vx": 10.0, "sv": True},
            "lead": {"x0": 20.0, "vx": 8.0},
        }
        d = scene_dataset(agents, 6, events=[("t0", 3)])
        cfg = AnalysisConfig(preset="sumo-lead")
        report = run_analysis(cfg, dataset=d)
        data = report.data
        assert report.shape is None
        assert data["shape"]["kind"] == "empty"
        assert data["safe_set"]["unique_count"] == 0
        assert data["coverage"]["occupancy"] == 0.0
        assert data["coverage"]["density"] is None
        assert data["epsilon"]["epsilon_single"] == 1.0
        assert data["epsilon"]["n_trailing"] == 0
        jsonschema.validate(data, REPORT_SCHEMA)

    def test_no_input_and_no_dataset(self):
        with pytest.raises(SafesetError):
            run_analysis(AnalysisConfig(preset="sumo-lead"))

    def test_csv_ingestion_path(self, tmp_path):
        dataset = small_battery(crash=False)
        csv_path = tmp_path / "runs.csv"
        labels_path = tmp_path / "runs_labels.csv"
        write_trajectory_csv(dataset, csv_path)
        write_collision_csv(dataset.collision_events, labels_path)
        cfg = AnalysisConfig(
            preset="sumo-lead",
            input_csv=str(csv_path),
            labels_csv=str(labels_path),
        )
        report = run_analysis(cfg)
        direct = run_analysis(AnalysisConfig(preset="sumo-lead"), dataset=dataset)
        # identical except for the echoed config (which embeds the paths) and
        # the inferred dt (median of time diffs, so float-subtraction noise)
        a = {k: v for k, v in report.data.items() if k != "config"}
        b = {k: v for k, v in direct.data.items() if k != "config"}
        assert a["dataset"].pop("dt") == pytest.approx(b["dataset"].pop("dt"))
        assert a == b

    def test_csv_ingest_is_freed_before_the_geometry_layer(self, tmp_path, monkeypatch):
        # on the CSV path nothing holds the labelled dataset or the state
        # table once the shape is built, so neither sits beside qhull
        dataset = small_battery(crash=True)
        csv_path = tmp_path / "runs.csv"
        labels_path = tmp_path / "runs_labels.csv"
        write_trajectory_csv(dataset, csv_path)
        write_collision_csv(dataset.collision_events, labels_path)
        cfg = AnalysisConfig(
            preset="sumo-lead", input_csv=str(csv_path), labels_csv=str(labels_path)
        )
        refs, alive = {}, []

        def recording(name, fn):
            def spy(*args, **kwargs):
                out = fn(*args, **kwargs)
                refs[name] = weakref.ref(out)
                return out
            return spy

        def wrap_spy(*args, **kwargs):
            gc.collect()
            alive.append({name: ref() is not None for name, ref in refs.items()})
            return wrap_points(*args, **kwargs)

        wrap_points = pipeline._wrap_points
        monkeypatch.setattr(pipeline, "label_collisions",
                            recording("dataset", pipeline.label_collisions))
        monkeypatch.setattr(pipeline, "extract_states",
                            recording("table", pipeline.extract_states))
        monkeypatch.setattr(pipeline, "_wrap_points", wrap_spy)
        report = run_analysis(cfg)
        assert alive == [{"dataset": False, "table": False}]
        monkeypatch.undo()

        # the same analysis fed the parsed dataset in memory writes the
        # same JSON, config included
        parsed = label_collisions(
            parse_trajectory_csv(csv_path, labels_path=labels_path), cfg.collision_rule
        )
        assert report.data["dataset"]["collision_event_count"] > 0
        assert report.to_json() == run_analysis(cfg, dataset=parsed).to_json()

    def test_exclusion_violation_raises(self):
        dataset = exclusion_trap_dataset()
        cfg = trap_config()
        with pytest.raises(ExclusionViolated) as exc:
            run_analysis(cfg, dataset=dataset)
        # the only removed states are the trap run's, all inside the cloud;
        # the reported example is the smallest of them
        states = extract_states(dataset, cfg.resolve_spec())
        in_trap = np.array(states.trajectory_ids)[states.segment_ids()] == "trap"
        trap = sorted(tuple(v) for v in states.values[in_trap].tolist())
        assert exc.value.count == len(trap) == 4
        assert exc.value.example == trap[0]


def exclusion_trap_dataset():
    """A grid of safe constant-state runs around one unsafe run whose state
    sits strictly inside the cloud but matches no safe vertex exactly."""
    agents = {}
    datasets = []
    tid = 0
    for v0 in (8.0, 10.0, 12.0):
        for v1 in (6.0, 8.0, 10.0):
            for gap in (20.0, 30.0, 40.0):
                agents = {
                    "ego": {"x0": 0.0, "vx": v0, "sv": True},
                    "lead": {"x0": gap + 4.0, "vx": v1},
                }
                datasets.append(
                    scene_dataset(agents, 4, trajectory_id=f"t{tid:03d}")
                )
                tid += 1
    trap = scene_dataset(
        {
            "ego": {"x0": 0.0, "vx": 10.001, "sv": True},
            "lead": {"x0": 34.0, "vx": 8.001},
        },
        4,
        trajectory_id="trap",
        events=[("trap", 1)],
    )
    datasets.append(trap)
    samples = [s for d in datasets for s in d.samples]
    events = [e for d in datasets for e in d.collision_events]
    return Dataset(samples, dt=0.1, collision_events=events)


def trap_config():
    # near-hull alpha window so the wrap definitely swallows the interior
    return AnalysisConfig(preset="sumo-lead", alpha_lo=99.0, alpha_hi=100.0)


class TestDeterminism:
    def test_json_byte_identical(self):
        dataset = small_battery(crash=True)
        a = run_analysis(AnalysisConfig(preset="sumo-lead", seed=1), dataset=dataset)
        b = run_analysis(AnalysisConfig(preset="sumo-lead", seed=1), dataset=dataset)
        assert a.to_json() == b.to_json()

    def test_artifacts_byte_identical(self, tmp_path, safe_report):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        paths1 = emit_report(safe_report, out1)
        paths2 = emit_report(safe_report, out2)
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2 and len(files1) >= 7
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
        assert Path(paths1["report"]).name == "report.json"


class TestReportArtifacts:
    def test_emitted_files(self, tmp_path, safe_report):
        paths = emit_report(safe_report, tmp_path / "out")
        report_doc = json.loads(Path(paths["report"]).read_text())
        jsonschema.validate(report_doc, REPORT_SCHEMA)

        shape_doc = json.loads(Path(paths["shape"]).read_text())
        assert shape_doc["shape"]["kind"] == "alpha_shape"
        assert shape_doc["normalization"]["names"] == ["v0", "v1", "p"]

        ds_lines = Path(paths["ds"]).read_text().strip().splitlines()
        assert ds_lines[0] == "v0,v1,p"
        assert len(ds_lines) == 1 + safe_report.data["safe_set"]["unique_count"]
        first = [float(x) for x in ds_lines[1].split(",")]
        assert first == safe_report.ds_values[0].tolist()

        assert len(paths["slices"]) == 4
        for sp in paths["slices"]:
            lines = Path(sp).read_text().strip().splitlines()
            assert lines[0] == "x,y,probe_member,ds_count,member"
            cells = safe_report.config.slice_cells
            assert len(lines) == 1 + cells * cells

    def test_slice_plan_counts_per_kind(self):
        assert len(slice_plans(PRESETS["sumo-lead"])) == 4
        assert len(slice_plans(PRESETS["highd-multi"])) == 6
        assert len(slice_plans(PRESETS["waymo-carla-17d"])) == 8
        ped = OssSpec("vehicle_pedestrian", v_min=0.0, v_max=25.0,
                      ped_p_max=50.0, q_max=10.0)
        assert len(slice_plans(ped)) == 2

    def test_lead_bands_tile_speed_range(self):
        plans = slice_plans(PRESETS["sumo-lead"])
        assert [p.band for p in plans] == [
            (0.0, 7.5), (7.5, 15.0), (15.0, 22.5), (22.5, 30.0),
        ]
        for p in plans:
            assert (p.x_index, p.y_index) == (1, 2)
            assert p.fills[0] == pytest.approx(0.5 * (p.band[0] + p.band[1]))

    def test_slice_plans_pinned_per_kind(self):
        def pinned(spec):
            return [(p.x_index, p.y_index, p.band, p.fills) for p in slice_plans(spec)]

        ped = OssSpec("vehicle_pedestrian", v_min=0.0, v_max=25.0,
                      ped_p_max=50.0, q_max=10.0)
        # the central quarter of the ego-speed range; the fills hold every
        # neighbour slot empty at its centre speed
        multi = (25.0,) + (50.0, 25.0) * 3 + (-50.0, 25.0) * 3
        assert pinned(PRESETS["highd-multi"]) == [
            (x, x + 1, (23.75, 26.25), multi) for x in (1, 3, 5, 7, 9, 11)
        ]
        assert pinned(ped) == [
            (x, x + 1, (9.375, 15.625), (12.5, 50.0, 10.0, 50.0, 10.0)) for x in (1, 3)
        ]
        combined = (13.0,) + (50.0, 13.0) * 3 + (-50.0, 13.0) * 3 + (50.0, 10.0) * 2
        assert pinned(PRESETS["waymo-carla-17d"]) == [
            (x, x + 1, (10.0, 16.0), combined) for x in range(1, 17, 2)
        ]
        assert pinned(PRESETS["sumo-lead"]) == [
            (1, 2, (lo, lo + 7.5), (lo + 3.75, lo + 3.75, 100.0)) for lo in (0.0, 7.5, 15.0, 22.5)
        ]

    def test_slice_filenames_pinned_per_preset(self):
        def names(preset):
            spec = PRESETS[preset]
            return [_slice_filename(spec, p) for p in slice_plans(spec)]

        assert names("ncap-lead") == [
            f"slice_v1-p_{b}.csv" for b in ("0-6.25", "6.25-12.5", "12.5-18.75", "18.75-25")
        ]
        assert names("sumo-lead") == [
            f"slice_v1-p_{b}.csv" for b in ("0-7.5", "7.5-15", "15-22.5", "22.5-30")
        ]
        assert names("highd-lead") == [
            f"slice_v1-p_{b}.csv" for b in ("20-23.75", "23.75-27.5", "27.5-31.25", "31.25-35")
        ]
        neighbours = ("fl", "fc", "fr", "rl", "rc", "rr")
        assert names("highd-multi") == [
            f"slice_p_{n}-v_{n}_23.75-26.25.csv" for n in neighbours
        ]
        assert names("waymo-carla-17d") == [
            f"slice_p_{n}-v_{n}_10-16.csv" for n in neighbours
        ] + ["slice_p_left-q_left_10-16.csv", "slice_p_right-q_right_10-16.csv"]

    def test_slice_filenames_tell_close_bands_apart(self):
        # bands a fraction of a unit wide at a large speed share their
        # leading six digits, so a "%g" name would let one slice overwrite
        # another
        spec = OssSpec("lead_following", v_min=1e6, v_max=1e6 + 1, p_max=40.0)
        got = [_slice_filename(spec, p) for p in slice_plans(spec)]
        assert got == [
            f"slice_v1-p_{b}.csv"
            for b in ("1000000-1000000.25", "1000000.25-1000000.5",
                      "1000000.5-1000000.75", "1000000.75-1000001")
        ]

    def test_render_slice_semantics(self, safe_report):
        plan = slice_plans(safe_report.spec)[1]
        cells = 20
        raster = render_slice(safe_report, plan, cells)
        assert list(raster) == ["x", "y", "probe_member", "ds_count", "member"]
        assert all(len(col) == cells * cells for col in raster.values())
        b = safe_report.spec.bounds()
        assert ((b[1, 0] <= raster["x"]) & (raster["x"] <= b[1, 1])).all()
        assert ((b[2, 0] <= raster["y"]) & (raster["y"] <= b[2, 1])).all()
        assert np.array_equal(
            raster["member"], raster["probe_member"] | (raster["ds_count"] > 0)
        )
        ds = safe_report.ds_values
        in_band = (ds[:, 0] >= plan.band[0]) & (ds[:, 0] <= plan.band[1])
        assert raster["ds_count"].sum() == int(in_band.sum())

    def test_probe_membership_nonempty_for_native_band(self, safe_report):
        counts = []
        for plan in slice_plans(safe_report.spec):
            raster = render_slice(safe_report, plan, 25)
            counts.append(int(raster["probe_member"].sum()))
        assert any(c > 0 for c in counts)


def json_reference(doc):
    """What shape.json held before: the pure-Python indented encoder on lists."""
    return json.dumps(doc, sort_keys=True, indent=2, default=lambda a: a.tolist()) + "\n"


def dumped(doc):
    """What dump_json writes for doc."""
    buf = io.StringIO()
    dump_json(doc, buf)
    return buf.getvalue()


def reference_trajectory_csv(d, path):
    """What write_trajectory_csv wrote before: ``csv.writer`` over per-value
    text, floats by ``repr``, flags as 1/0 and an empty cell for no lane."""

    def text(field):
        values = d.samples.values(field)
        if field in FLOAT_FIELDS:
            return map(repr, values)
        if field == "sv_flag":
            return ["1" if v else "0" for v in values]
        return ["" if v is None else str(v) for v in values]

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_FIELDS)
        writer.writerows(zip(*(text(f) for f in CANONICAL_FIELDS)))


def reference_ds_csv(path, report):
    """What ds.csv held before: ``csv.writer`` over ``repr`` of each value."""
    columns = [map(repr, col.tolist()) for col in np.asarray(report.ds_values, float).T]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(report.spec.names)
        writer.writerows(zip(*columns))


def reference_slice_csv(path, raster):
    """What a slice CSV held before: floats by ``repr``, flags as 0/1."""
    columns = [
        map(repr, (col.astype(np.int64) if col.dtype == bool else col).tolist())
        for col in raster.values()
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(raster)
        writer.writerows(zip(*columns))


def awkward_cloud(n, dim, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, dim))
    pts[0, 0] = 0.1 + 0.2
    pts[1, :] = [1.0 / 3.0] + [-0.0] * (dim - 1)
    pts[2, 0] = 5e-324
    return pts


class TestShapeJson:
    def test_alpha_shape(self):
        shape = alpha_complex(delaunay(awkward_cloud(60, 3, 0)), 0.4)
        doc = {"normalization": {"names": ["a", "b", "c"]}, "shape": shape.to_dict()}
        assert doc["shape"]["included_top_simplices"].size > 0
        assert dumped(doc) == json_reference(doc)

    def test_convex_wrap_and_union(self):
        hull = ConvexHullShape(awkward_cloud(40, 4, 1))
        hull.estimate_measure(0, 2000)
        other = ConvexHullShape(awkward_cloud(30, 4, 2) + 3.0)
        other.estimate_measure(1, 2000)
        union = ShapeUnion([hull, other], provenance={"leaf_sizes": [40, 30]})
        union.compute_measure(seed=0, n_samples=2000)
        for shape in (hull, union):
            doc = {"shape": shape.to_dict()}
            assert dumped(doc) == json_reference(doc)

    def test_empty_shape_and_edge_arrays(self):
        doc = {
            "shape": {"kind": "empty"},
            "no_rows": np.zeros((0, 3)),
            "no_ints": np.zeros((0, 4), dtype=np.int64),
            "no_columns": np.zeros((2, 0)),
            "nested": [{"rows": np.array([[1, -2]], dtype=np.int32)}, np.array([[np.nan, 1.5]])],
            "flags": np.array([[True, False]]),
            "flat": np.array([0.25, -0.0]),
        }
        assert dumped(doc) == json_reference(doc)

    @pytest.mark.parametrize("rows", [4095, 4096, 4097, 9000])
    def test_arrays_straddling_a_chunk(self, rows):
        # chunks of celltext.CHUNK_ROWS rows: one short of a chunk, one
        # chunk, one row into the next, and two chunks and a part
        rng = np.random.default_rng(rows)
        doc = {
            "ints": rng.integers(-(2**40), 2**40, (rows, 4)),
            "tops": rng.integers(0, 2**31 - 1, (rows, 4), dtype=np.int32),
            "floats": [{"points": rng.standard_normal((rows, 3))}],
        }
        assert dumped(doc) == json_reference(doc)

    def test_arrays_through_json(self):
        # a 1-D array, a bool array and an array with NaN take the json path
        rng = np.random.default_rng(0)
        nan = rng.random((5000, 3))
        nan[4096, 1] = np.nan
        doc = {
            "flat": rng.random(5000),
            "flags": rng.random((5000, 2)) < 0.5,
            "nan": nan,
        }
        assert dumped(doc) == json_reference(doc)

    def test_every_slot_pasted_once(self):
        # a string that reads as an array slot would take an array's place
        doc = {"a": np.zeros((1, 1)), "b": "\x00ndarray:0"}
        with pytest.raises(AssertionError, match="pasted 2 of 1 arrays"):
            dumped(doc)

    def test_emitted_shape_json(self, tmp_path, safe_report):
        paths = emit_report(safe_report, tmp_path / "out")
        expected = json_reference(_shape_document(safe_report))
        assert Path(paths["shape"]).read_text() == expected


def bits_of(x):
    return int(np.array([x]).view(np.uint64)[0])


EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
    2.225073858507201e-308, 0.1 + 0.2, 1.7976931348623157e308,
    # where repr switches between fixed and exponent notation
    1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, math.inf),
    1e-4, np.nextafter(1e-4, 0.0), 1e-5, np.nextafter(1e-5, 1.0), -1e16, -1e-5,
]
NAN_BITS = [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF4000000000000]
# raw float64 bit patterns: every NaN payload stays as drawn
FLOAT_BITS = (
    st.sampled_from([bits_of(x) for x in EDGE_FLOATS] + NAN_BITS)
    | st.floats().map(bits_of)
    | st.integers(0, 2**64 - 1)
)
INT64 = st.sampled_from([-(2**63), 2**63 - 1, 0, -1]) | st.integers(-(2**63), 2**63 - 1)
# header names and labels that need CSV quoting
NAMES = st.text(alphabet='ab,"\n\r\' ;', max_size=3)


@st.composite
def columns_of(draw, kind, n):
    """A column of n values drawn from a few distinct ones, so values repeat."""
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    pool = draw(st.lists(FLOAT_BITS if kind == "float" else INT64, min_size=1, max_size=5))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if kind == "float":
        return np.array(values, dtype=np.uint64).view(np.float64)
    return np.array(values, dtype=np.int64)


@st.composite
def sample_tables(draw):
    n = draw(st.integers(0, 12))
    columns, labels = {}, {}
    for f in STRING_FIELDS:
        labels[f] = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
        codes = st.integers(0, len(labels[f]) - 1)
        columns[f] = np.array(draw(st.lists(codes, min_size=n, max_size=n)), dtype=np.intp)
    columns["frame"] = draw(columns_of("int", n))
    for f in FLOAT_FIELDS:
        columns[f] = draw(columns_of("float", n))
    lanes = draw(st.lists(LANES, min_size=n, max_size=n))
    columns["lane_id"] = np.array([v or 0 for v in lanes], dtype=np.int64)
    columns["sv_flag"] = draw(columns_of("bool", n))
    return SampleTable(columns, labels, np.array([v is not None for v in lanes], dtype=bool))


class TestCellText:
    """Each writer against the per-value writer it replaced, byte for byte."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=sample_tables())
    def test_trajectory_csv(self, tmp_path_factory, table):
        root = tmp_path_factory.mktemp("traj")
        d = SimpleNamespace(samples=table)
        write_trajectory_csv(d, root / "got.csv")
        reference_trajectory_csv(d, root / "want.csv")
        assert (root / "got.csv").read_bytes() == (root / "want.csv").read_bytes()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n=st.integers(0, 20), dim=st.integers(1, 4))
    def test_ds_csv(self, tmp_path_factory, data, n, dim):
        root = tmp_path_factory.mktemp("ds")
        columns = [data.draw(columns_of("float", n)) for _ in range(dim)]
        names = data.draw(st.lists(NAMES, min_size=dim, max_size=dim))
        report = SimpleNamespace(
            ds_values=np.stack(columns, axis=1), spec=SimpleNamespace(names=names)
        )
        _write_ds_csv(root / "got.csv", report)
        reference_ds_csv(root / "want.csv", report)
        assert (root / "got.csv").read_bytes() == (root / "want.csv").read_bytes()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n=st.integers(0, 20))
    def test_slice_csv(self, tmp_path_factory, data, n):
        root = tmp_path_factory.mktemp("slice")
        names = data.draw(st.lists(NAMES, min_size=5, max_size=5, unique=True))
        kinds = ("float", "float", "bool", "int", "bool")
        raster = {k: data.draw(columns_of(kind, n)) for k, kind in zip(names, kinds)}
        _write_slice_csv(root / "got.csv", raster)
        reference_slice_csv(root / "want.csv", raster)
        assert (root / "got.csv").read_bytes() == (root / "want.csv").read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 4), cols=st.integers(0, 4),
           kind=st.sampled_from(["float", "int"]))
    def test_array_json(self, data, rows, cols, kind):
        a = data.draw(columns_of(kind, rows * cols)).reshape(rows, cols)
        doc = {"a": a, "nested": [{"b": a.T}], "flat": a.ravel()}
        assert dumped(doc) == json_reference(doc)

    def test_emitted_csv_files(self, tmp_path, safe_report):
        paths = emit_report(safe_report, tmp_path / "out")
        reference_ds_csv(tmp_path / "ds.csv", safe_report)
        assert Path(paths["ds"]).read_bytes() == (tmp_path / "ds.csv").read_bytes()
        for plan, path in zip(slice_plans(safe_report.spec), paths["slices"]):
            raster = render_slice(safe_report, plan, safe_report.config.slice_cells)
            reference_slice_csv(tmp_path / "slice.csv", raster)
            assert Path(path).read_bytes() == (tmp_path / "slice.csv").read_bytes()

    def test_each_distinct_value_formatted_once(self, monkeypatch):
        formatted = []

        def spy(value):
            formatted.append(value)
            return repr(value)

        monkeypatch.setattr(celltext, "repr", spy, raising=False)
        col = np.resize([-0.0, 0.0, 2.5], 10_000)
        texts, index = celltext.number_cells(col)
        assert len(formatted) == 3
        assert texts[index].tolist() == list(map(repr, col.tolist()))


# config field -> (analyze flag, a value other than the default)
ANALYZE_FLAGS = {
    "preset": ("--preset", "highd-lead"),
    "input_csv": ("--input", "runs.csv"),
    "labels_csv": ("--labels", "runs_labels.csv"),
    "collision_rule": ("--rule", "labels_only"),
    "beta": ("--beta", 0.05),
    "reach_mode": ("--reach-mode", "ancestors"),
    "match_radius": ("--match-radius", 0.5),
    "alpha_lo": ("--alpha-lo", 0.02),
    "alpha_hi": ("--alpha-hi", 50.0),
    "alpha_threshold": ("--alpha-threshold", 0.2),
    "max_exact_dim": ("--max-exact-dim", 2),
    "cluster_max": ("--cluster-max", 7),
    "mc_samples": ("--mc-samples", 3000),
    "seed": ("--seed", 4),
    "slice_cells": ("--slice-cells", 9),
}


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def battery_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    dataset = small_battery(crash=True)
    csv_path = root / "runs.csv"
    write_trajectory_csv(dataset, csv_path)
    write_collision_csv(dataset.collision_events, root / "runs_labels.csv")
    return csv_path


class TestCli:
    def test_labels_sidecar_naming(self):
        assert _labels_sidecar(Path("a/b/runs.csv")) == Path("a/b/runs_labels.csv")

    def test_simulate_writes_csv_pair(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = run_cli("simulate", "--policy", "idm0", "--seed", "0", "--out", out)
        assert code == EXIT_OK
        assert out.exists() and (tmp_path / "sim_labels.csv").exists()
        assert "collision events" in capsys.readouterr().out

    def test_ingest_round_trip(self, tmp_path, battery_csv, capsys):
        out = tmp_path / "clean.csv"
        labels = battery_csv.with_name("runs_labels.csv")
        code = run_cli(
            "ingest", "--input", battery_csv, "--labels", labels, "--out", out
        )
        assert code == EXIT_OK
        assert out.exists() and (tmp_path / "clean_labels.csv").exists()

    def test_extract_writes_states(self, tmp_path, battery_csv):
        out = tmp_path / "states.csv"
        code = run_cli(
            "extract", "--input", battery_csv, "--preset", "sumo-lead",
            "--out", out,
        )
        assert code == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header == "trajectory_id,segment,frame,time,unsafe,v0,v1,p"

    def test_lead_analysis_never_loads_scipy_optimize(self, battery_csv):
        # only a full-rank convex wrap's fit needs scipy.optimize, so the
        # CLI and a lead-following analysis run without importing it
        code = (
            "import sys\n"
            "import safeset.cli\n"
            "from safeset.pipeline import AnalysisConfig, run_analysis\n"
            "cfg = AnalysisConfig(preset='sumo-lead', input_csv=sys.argv[1], seed=0)\n"
            "assert run_analysis(cfg).data['shape']['kind'] == 'alpha_shape'\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
        )
        src = Path(safeset.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", code, str(battery_csv)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("field", ["frame", "lane_id"])
    def test_out_of_range_integer_exits_2_naming_its_line(
        self, tmp_path, battery_csv, capsys, field
    ):
        with open(battery_csv, newline="") as fh:
            records = list(csv.reader(fh))
        records[3][records[0].index(field)] = "12345678901234567890"
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(records)
        code = run_cli("ingest", "--input", bad, "--out", tmp_path / "clean.csv")
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"line 4: {field}='12345678901234567890' is outside the int64 range" in err

    def test_out_of_range_label_frame_exits_2_naming_its_line(
        self, tmp_path, battery_csv, capsys
    ):
        labels = tmp_path / "labels.csv"
        write_collision_csv([("run", 3), ("run", "12345678901234567890")], labels)
        code = run_cli(
            "extract", "--input", battery_csv, "--labels", labels,
            "--preset", "sumo-lead", "--out", tmp_path / "states.csv",
        )
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "line 3: frame='12345678901234567890' is outside the int64 range" in err

    def test_analyze_end_to_end(self, tmp_path, battery_csv, capsys):
        labels = battery_csv.with_name("runs_labels.csv")
        out_dir = tmp_path / "out"
        code = run_cli(
            "analyze",
            "--input", battery_csv,
            "--labels", labels,
            "--preset", "sumo-lead",
            "--out-dir", out_dir,
        )
        assert code == EXIT_OK
        assert (out_dir / "report.json").exists()
        printed = capsys.readouterr().out
        assert "epsilon:" in printed and "report ->" in printed
        data = json.loads((out_dir / "report.json").read_text())
        assert data["config"]["preset"] == "sumo-lead"

    def test_analyze_merges_config_file_and_overrides(
        self, tmp_path, battery_csv
    ):
        labels = battery_csv.with_name("runs_labels.csv")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "preset": "sumo-lead",
                    "input_csv": str(battery_csv),
                    "labels_csv": str(labels),
                    "beta": 0.01,
                    "seed": 3,
                }
            )
        )
        out_dir = tmp_path / "out"
        code = run_cli(
            "analyze", "--config", cfg_path, "--beta", "0.05",
            "--out-dir", out_dir,
        )
        assert code == EXIT_OK
        data = json.loads((out_dir / "report.json").read_text())
        assert data["config"]["beta"] == 0.05  # flag wins over file
        assert data["config"]["seed"] == 3  # file value survives

    def test_invalid_configuration_exits_2(self, tmp_path, battery_csv):
        code = run_cli(
            "analyze", "--input", battery_csv, "--preset", "sumo-lead",
            "--beta", "2.0", "--out-dir", tmp_path / "x",
        )
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_unusable_seed_in_config_exits_2(self, tmp_path, battery_csv, seed):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"preset": "sumo-lead", "seed": seed}))
        code = run_cli(
            "analyze", "--config", cfg_path, "--input", battery_csv,
            "--out-dir", tmp_path / "x",
        )
        assert code == EXIT_INVALID
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "patch, named",
        [
            ({"beta": "0.1"}, "beta"),
            ({"alpha_lo": "0.1"}, "alpha_lo"),
            ({"alpha_hi": None}, "alpha_hi"),
            ({"match_radius": None}, "match_radius"),
            ({"match_radius": True}, "match_radius"),
            ({"max_exact_dim": "3"}, "max_exact_dim"),
            ({"max_exact_dim": 2.5}, "max_exact_dim"),
            ({"max_exact_dim": True}, "max_exact_dim"),
            ({"max_exact_dim": -1}, "max_exact_dim"),
            ({"preset": ["sumo-lead"]}, "preset"),
            ({"preset": None, "oss": [1, 2]}, "oss"),
            ({"preset": None, "oss": dict(SUMO_OSS, v_top=3.0)}, "v_top"),
            ({"preset": None, "oss": dict(SUMO_OSS, v_min="0")}, "v_min"),
            ({"preset": None, "oss": dict(SUMO_OSS, side_band=["a", 1.0])}, "side_band"),
            ({"preset": None, "oss": {"kind": "lead_following"}}, "v_min"),
            ({"input_csv": 0}, "input_csv"),
            ({"labels_csv": 7}, "labels_csv"),
            ({"columns": 5}, "columns"),
            ({"columns": ["frame"]}, "columns"),
            ({"columns": {"frame": ["a"]}}, "columns"),
            ({"columns": {"bogus": "x"}}, "bogus"),
            ({"preset": None, "oss": dict(SUMO_OSS, p_max=math.inf)}, "p_max"),
            ({"preset": None, "oss": dict(SUMO_OSS, side_band=[1.0, 2.0, 3.0])}, "side_band"),
            ({"oss": SUMO_OSS}, "oss"),
            ({"reach_mode": "sideways"}, "reach_mode"),
            ({"collision_rule": "x"}, "collision_rule"),
            ({"columns": {"bogus": "x"}}, "columns"),
            ({"columns": {"frame": ""}}, "frame"),
            ({"cluster_max": 500}, "cluster_max"),
            ({"preset": None, "oss": {"kind": "vehicle_pedestrian", "v_min": 0, "v_max": 25}},
             "p_left"),
        ],
    )
    def test_unusable_config_value_exits_2(self, tmp_path, battery_csv, capsys, patch, named):
        cfg = {"preset": "sumo-lead", "input_csv": str(battery_csv), **patch}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = run_cli("analyze", "--config", cfg_path, "--out-dir", tmp_path / "x")
        assert code == EXIT_INVALID
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("doc", ["[]", "null"])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, battery_csv, capsys, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(doc)
        code = run_cli(
            "analyze", "--config", cfg_path, "--input", battery_csv,
            "--out-dir", tmp_path / "x",
        )
        assert code == EXIT_INVALID
        assert "JSON object" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_alpha_hi_below_the_needed_alpha_exits_2(self, tmp_path, battery_csv, capsys):
        # the message names the alpha the retained states need, and the
        # analysis fails before any artifact is written
        code = run_cli(
            "analyze", "--input", battery_csv, "--preset", "sumo-lead",
            "--alpha-lo", "1e-5", "--alpha-hi", "1e-4", "--out-dir", tmp_path / "x",
        )
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "even at alpha=0.0001;" in err
        needed = float(err.split("needs alpha >= ")[1].split(";")[0])
        assert needed > 1e-4
        assert not (tmp_path / "x").exists()

    def test_every_config_field_has_an_analyze_flag(self):
        fields = {f.name: f for f in dataclasses.fields(AnalysisConfig)}
        assert set(ANALYZE_FLAGS) == set(fields) - {"oss", "columns"}
        argv = ["analyze", "--out-dir", "x"]
        for flag, value in ANALYZE_FLAGS.values():
            argv += [flag, str(value)]
        cfg = _build_config(build_parser().parse_args(argv))
        defaults = AnalysisConfig()
        for name, (_, value) in ANALYZE_FLAGS.items():
            assert getattr(defaults, name) != value, name
            assert getattr(cfg, name) == value, name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--out-dir", "x", "--reach-mode", "up"])

    def test_preset_flag_replaces_the_config_oss_block(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"oss": SUMO_OSS}))
        argv = ["analyze", "--config", str(cfg_path), "--preset", "sumo-lead", "--out-dir", "x"]
        cfg = _build_config(build_parser().parse_args(argv))
        assert cfg.oss is None and cfg.preset == "sumo-lead"
        cfg.validate()

    def test_missing_input_exits_2(self, tmp_path):
        code = run_cli(
            "analyze", "--input", tmp_path / "nope.csv",
            "--preset", "sumo-lead", "--out-dir", tmp_path / "x",
        )
        assert code == EXIT_INVALID

    def test_malformed_config_json_exits_2(self, tmp_path, battery_csv):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli(
            "analyze", "--config", bad, "--input", battery_csv,
            "--out-dir", tmp_path / "x",
        )
        assert code == EXIT_INVALID

    def test_bad_column_mapping_exits_2(self, tmp_path, battery_csv):
        code = run_cli(
            "ingest", "--input", battery_csv, "--col", "frame:Frame",
            "--out", tmp_path / "o.csv",
        )
        assert code == EXIT_INVALID

    def test_unknown_column_field_exits_2_naming_it(self, tmp_path, battery_csv, capsys):
        code = run_cli(
            "ingest", "--input", battery_csv, "--col", "foo=bar", "--out", tmp_path / "o.csv",
        )
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "unknown field 'foo'" in err and "required column" not in err
        assert not (tmp_path / "o.csv").exists()

    def test_empty_column_header_exits_2_naming_the_field(self, tmp_path, battery_csv, capsys):
        code = run_cli(
            "ingest", "--input", battery_csv, "--col", "frame=", "--out", tmp_path / "o.csv",
        )
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "--col: field 'frame' maps to an empty header" in err
        assert "required column" not in err
        assert not (tmp_path / "o.csv").exists()

    def test_cluster_max_for_a_3d_space_exits_2(self, tmp_path, battery_csv, capsys):
        code = run_cli(
            "analyze", "--input", battery_csv, "--preset", "ncap-lead",
            "--cluster-max", "500", "--out-dir", tmp_path / "x",
        )
        assert code == EXIT_INVALID
        assert "cluster_max" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_negative_simulate_seed_exits_2_naming_the_flag(self, tmp_path, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--policy", "idm0", "--seed", seed, "--out", tmp_path / "s.csv")
        assert exc.value.code == EXIT_INVALID
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_exclusion_violation_exits_3(self, tmp_path):
        dataset = exclusion_trap_dataset()
        csv_path = tmp_path / "trap.csv"
        labels_path = tmp_path / "trap_labels.csv"
        write_trajectory_csv(dataset, csv_path)
        write_collision_csv(dataset.collision_events, labels_path)
        cfg = trap_config()
        cfg.input_csv = str(csv_path)
        cfg.labels_csv = str(labels_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        code = run_cli(
            "analyze", "--config", cfg_path, "--out-dir", tmp_path / "out"
        )
        assert code == EXIT_EXCLUSION

    def test_report_summary_from_file(self, tmp_path, safe_report, capsys):
        paths = emit_report(safe_report, tmp_path / "out")
        capsys.readouterr()
        code = run_cli("report", "--report", paths["report"])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "projection: lead_following" in printed
        assert "coverage:" in printed

    def test_report_that_is_not_a_report_exits_2(self, tmp_path, safe_report, capsys):
        real = Path(emit_report(safe_report, tmp_path / "out")["report"]).read_text()
        no_epsilon, text_epsilon = json.loads(real), json.loads(real)
        del no_epsilon["epsilon"]
        text_epsilon["epsilon"]["epsilon_single"] = "x"
        cases = {"empty": {}, "list": [1], "no-epsilon": no_epsilon, "text-epsilon": text_epsilon}
        for name, doc in cases.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run_cli("report", "--report", path) == EXIT_INVALID
            assert str(path) in capsys.readouterr().err
