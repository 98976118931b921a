"""End-to-end analysis runs, report artifacts, and the command line."""

import dataclasses
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from builders import scene_dataset
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
from safeset.ingest import Dataset, write_collision_csv, write_trajectory_csv
from safeset.oss import PRESETS, OssSpec, extract_states
from safeset.pipeline import (
    CLUSTER_MAX_HIGH_DIM,
    CLUSTER_MAX_LOW_DIM,
    SCHEMA_VERSION,
    AnalysisConfig,
    run_analysis,
)
from safeset.geometry import ConvexHullShape, ShapeUnion, alpha_complex, delaunay
from safeset.report import (
    REPORT_SCHEMA,
    _shape_document,
    dumps_json,
    emit_report,
    render_slice,
    slice_plans,
)
from safeset.simgen import IDM_0, IDM_1, ScenarioSpec, simulate_battery


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
        ],
    )
    def test_validation_rejects(self, patch, exc):
        cfg = AnalysisConfig(preset="sumo-lead")
        for k, v in patch.items():
            setattr(cfg, k, v)
        with pytest.raises(exc):
            cfg.validate()

    def test_effective_cluster_max(self):
        cfg = AnalysisConfig(preset="sumo-lead")
        assert cfg.effective_cluster_max(3) == CLUSTER_MAX_LOW_DIM
        assert cfg.effective_cluster_max(13) == CLUSTER_MAX_HIGH_DIM
        cfg.cluster_max = 500
        assert cfg.effective_cluster_max(3) == 500

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
        assert dumps_json(doc) == json_reference(doc)

    def test_convex_wrap_and_union(self):
        hull = ConvexHullShape(awkward_cloud(40, 4, 1))
        hull.estimate_measure(0, 2000)
        other = ConvexHullShape(awkward_cloud(30, 4, 2) + 3.0)
        other.estimate_measure(1, 2000)
        union = ShapeUnion([hull, other], provenance={"leaf_sizes": [40, 30]})
        union.compute_measure(seed=0, n_samples=2000)
        for shape in (hull, union):
            doc = {"shape": shape.to_dict()}
            assert dumps_json(doc) == json_reference(doc)

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
        assert dumps_json(doc) == json_reference(doc)

    def test_emitted_shape_json(self, tmp_path, safe_report):
        paths = emit_report(safe_report, tmp_path / "out")
        expected = json_reference(_shape_document(safe_report))
        assert Path(paths["shape"]).read_text() == expected


SUMO_OSS = {"kind": "lead_following", "v_min": 0.0, "v_max": 30.0, "p_min": 0.0,
            "p_max": 100.0}

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
