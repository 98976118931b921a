"""End-to-end analysis: ingest, project, prune, wrap, certify, summarize.

``run_analysis`` drives the full chain on one dataset and returns an
:class:`AnalysisReport`: a JSON-ready summary plus the live shape object
for rendering. Given the same configuration, input files, and seed, the
summary serializes byte-identically; all randomness flows from the
config seed and no timestamps are recorded.

Geometry runs in box-normalized coordinates: every state dimension is
affinely mapped onto [0, 1] using the state-space bounds, which makes
alpha dimensionless, the space measure exactly 1, and shape measures
directly interpretable as occupancy.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path
import numpy as np

from . import geometry
from .errors import DegenerateInput, ExclusionViolated, InvalidBeta, SafesetError
from .geometry.montecarlo import MIN_SAMPLES
from .ingest import (
    LABEL_RULES,
    Dataset,
    check_field_names,
    label_collisions,
    parse_trajectory_csv,
)
from .metrics import (
    CoverageResult,
    EpsilonResult,
    TtcStats,
    certify,
    coverage,
    fatality_rate_bound,
    ttc_stats,
)
from .oss import PRESETS, OssSpec, extract_states, transitions
from .safegraph import REACH_MODES, extract_safe_states, partition_transitions

SCHEMA_VERSION = 1

CLUSTER_MAX_HIGH_DIM = 1_000


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass
class AnalysisConfig:
    """Everything one analysis run depends on, JSON round-trippable."""

    preset: str | None = None
    oss: dict | None = None
    input_csv: str | None = None
    labels_csv: str | None = None
    columns: dict = field(default_factory=dict)
    collision_rule: str = "either"
    beta: float = 0.001
    reach_mode: str = "undirected"
    match_radius: float = 0.0
    alpha_lo: float = 0.01
    alpha_hi: float = 100.0
    alpha_threshold: float = 0.1
    max_exact_dim: int = geometry.DEFAULT_MAX_EXACT_DIM
    cluster_max: int | None = None
    mc_samples: int = 20_000
    seed: int = 0
    slice_cells: int = 100

    def validate(self) -> None:
        for name in ("beta", "alpha_lo", "alpha_hi", "alpha_threshold", "match_radius"):
            if not _is_real(getattr(self, name)):
                raise SafesetError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not (0.0 < self.beta < 1.0):
            raise InvalidBeta(self.beta)
        if self.collision_rule not in LABEL_RULES:
            raise SafesetError(
                f"collision_rule must be one of {LABEL_RULES}, got {self.collision_rule!r}"
            )
        if self.reach_mode not in REACH_MODES:
            raise SafesetError(
                f"reach_mode must be one of {REACH_MODES}, got {self.reach_mode!r}"
            )
        alpha = (self.alpha_lo, self.alpha_hi, self.alpha_threshold)
        if not all(math.isfinite(x) for x in alpha):
            raise SafesetError("alpha_lo, alpha_hi and alpha_threshold must be finite")
        if not (0.0 < self.alpha_lo < self.alpha_hi):
            raise SafesetError("need 0 < alpha_lo < alpha_hi")
        if self.alpha_threshold <= 0.0:
            raise SafesetError("alpha_threshold must be positive")
        if not (math.isfinite(self.match_radius) and self.match_radius >= 0.0):
            raise SafesetError("match_radius must be finite and non-negative")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise SafesetError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.cluster_max is not None and not (
            _is_int(self.cluster_max) and self.cluster_max >= 2
        ):
            raise SafesetError("cluster_max must be an integer of at least 2")
        if not (_is_int(self.mc_samples) and self.mc_samples >= MIN_SAMPLES):
            raise SafesetError(f"mc_samples must be an integer of at least {MIN_SAMPLES}")
        if not (_is_int(self.slice_cells) and self.slice_cells >= 2):
            raise SafesetError("slice_cells must be an integer of at least 2")
        if not (_is_int(self.max_exact_dim) and self.max_exact_dim >= 0):
            raise SafesetError(
                f"max_exact_dim must be a non-negative integer, got {self.max_exact_dim!r}"
            )
        for name in ("preset", "input_csv", "labels_csv"):
            value = getattr(self, name)
            if not (value is None or isinstance(value, str)):
                raise SafesetError(f"{name} must be a string or null, got {value!r}")
        if not (
            isinstance(self.columns, dict)
            and all(isinstance(x, str) for pair in self.columns.items() for x in pair)
        ):
            raise SafesetError(
                f"columns must map field names to column headers, got {self.columns!r}"
            )
        check_field_names(self.columns, "columns")
        spec = self.resolve_spec()
        if self.cluster_max is not None and spec.dim <= 3:
            raise SafesetError(f"cluster_max must be null: a {spec.dim}-D space is one shape")

    def resolve_spec(self) -> OssSpec:
        if self.preset is not None and self.oss is not None:
            raise SafesetError("a config names either a preset or an oss block, not both")
        if self.preset is not None:
            if self.preset not in PRESETS:
                raise SafesetError(
                    f"unknown preset {self.preset!r}; available: {sorted(PRESETS)}"
                )
            return PRESETS[self.preset]
        if self.oss is None:
            raise SafesetError("config needs either a preset or an explicit oss block")
        if not isinstance(self.oss, dict):
            raise SafesetError(f"oss must be an object, got {self.oss!r}")
        for key, value in self.oss.items():
            parts = value if key == "side_band" and isinstance(value, (list, tuple)) else [value]
            if key != "kind" and not all(map(_is_real, parts)):
                raise SafesetError(f"oss key {key!r} has an unusable value {value!r}")
        try:
            spec = OssSpec(**self.oss)
            spec.bounds()
        except (TypeError, ValueError) as exc:
            raise SafesetError(f"invalid oss block: {exc}") from None
        return spec

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisConfig":
        if not isinstance(d, dict):
            raise SafesetError(f"a config must be a JSON object, got {d!r}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise SafesetError(f"unknown config keys: {sorted(extra)}")
        return cls(**d)

    @classmethod
    def from_json(cls, path: str | Path) -> "AnalysisConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class AnalysisReport:
    """JSON-ready summary plus live objects for rendering."""

    data: dict
    shape: object | None
    spec: OssSpec
    config: AnalysisConfig
    ds_values: np.ndarray

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2) + "\n"


def _seed_ints(seed: int, n: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(n)]


def _wrap_member(
    points: np.ndarray, cfg: AnalysisConfig, dim: int, seed: int, info: dict
):
    """Tuned alpha shape when the dimension allows one; otherwise, or when
    the points are degenerate, a convex wrap measured with ``seed``."""
    if dim <= cfg.max_exact_dim:
        try:
            result = geometry.search_optimal_alpha(
                points, cfg.alpha_lo, cfg.alpha_hi, cfg.alpha_threshold, cfg.max_exact_dim
            )
            info["kind"] = "alpha_shape"
            info["alpha"] = result.alpha
            info["search_probes"] = [[a, bool(ok)] for a, ok in result.probes]
            info["component_count"] = result.shape.component_count
            info["measure"] = result.shape.measure
            return result.shape
        except DegenerateInput:
            info["degenerate_fallback"] = True
    hull = geometry.ConvexHullShape(points)
    hull.estimate_measure(seed, cfg.mc_samples)
    info["kind"] = "convex_hull"
    info["measure"] = hull.measure
    return hull


def _wrap_points(
    points: np.ndarray, cfg: AnalysisConfig, dim: int
) -> tuple[object | None, dict]:
    """Build the working shape for the (normalized, unique) retained states:
    one shape up to 3 dimensions; above that, a union of per-leaf shapes for
    a set over ``cluster_max`` or a dimension over ``max_exact_dim``."""
    info: dict = {"kind": "empty", "n_points": int(len(points))}
    if len(points) == 0:
        return None, info
    cluster_max = cfg.cluster_max or CLUSTER_MAX_HIGH_DIM
    if dim <= 3 or (dim <= cfg.max_exact_dim and len(points) <= cluster_max):
        return _wrap_member(points, cfg, dim, _seed_ints(cfg.seed, 1)[0], info), info

    leaves = geometry.hierarchical_cluster(points, cluster_max, seed=cfg.seed)
    seeds = _seed_ints(cfg.seed, len(leaves) + 1)
    members = []
    member_info = []
    for i, idx in enumerate(leaves):
        detail: dict = {"n_points": int(len(idx))}
        members.append(_wrap_member(points[idx], cfg, dim, seeds[i], detail))
        member_info.append(detail)
    union = geometry.ShapeUnion(
        members,
        provenance={
            "max_cluster_size": cluster_max,
            "seed": cfg.seed,
            "leaf_sizes": [int(len(idx)) for idx in leaves],
        },
    )
    detail = union.compute_measure(seed=seeds[-1], n_samples=cfg.mc_samples)
    info["kind"] = "shape_union"
    info["n_members"] = len(members)
    info["members"] = member_info
    info["measure"] = detail.total
    info["overlap"] = detail.overlap
    return union, info


def run_analysis(cfg: AnalysisConfig, dataset: Dataset | None = None) -> AnalysisReport:
    """Run the full chain and assemble the report.

    If ``dataset`` is omitted it is parsed from ``cfg.input_csv`` (with the
    optional label sidecar) and labelled by ``cfg.collision_rule``; a
    dataset passed in is used as-is.

    Everything the report reads of the dataset and the state table is
    taken before the geometry layer, which runs with only the extraction's
    distinct states, masks and transition tails alive: a parsed CSV is
    freed before qhull runs. A dataset passed in stays its caller's.
    """
    cfg.validate()
    spec = cfg.resolve_spec()
    if dataset is None:
        if cfg.input_csv is None:
            raise SafesetError("config has no input_csv and no dataset was supplied")
        dataset = parse_trajectory_csv(
            cfg.input_csv,
            schema_options=cfg.columns or None,
            labels_path=cfg.labels_csv,
        )
        dataset = label_collisions(dataset, cfg.collision_rule)

    table = extract_states(dataset, spec)
    tails = transitions(table)
    extraction = extract_safe_states(
        table, mode=cfg.reach_mode, match_radius=cfg.match_radius
    )
    inside = partition_transitions(tails, extraction.ids, extraction.retained)

    # distinct values in lexicographic order, so the rows are deterministic
    ds_phys = extraction.vertices[extraction.retained]
    excluded = extraction.vertices[~extraction.retained]
    bounds = spec.bounds()
    ds_norm = spec.normalize(ds_phys) if len(ds_phys) else ds_phys

    collision_count = len(dataset.collision_events)
    distance_km = dataset.sv_distance_m() / 1000.0
    ttc: TtcStats | None = None
    if spec.kind == "lead_following":
        ttc = ttc_stats(table.values)
    warnings = [
        "Certified levels assume transitions sample a memoryless process;"
        " recorded traffic only approximates one.",
        "Order-averaged levels assume exchangeable transition order;"
        " strongly correlated replays weaken the interpretation.",
    ]
    if dataset.rejected_tracks:
        warnings.append(
            f"{len(dataset.rejected_tracks)} track(s) rejected for irregular sampling"
        )
    dataset_info = {
        "n_samples": len(dataset.samples),
        "n_trajectories": len(dataset.trajectory_ids),
        "dt": dataset.dt,
        "collision_event_count": collision_count,
        "rejected_tracks": [list(t) for t in dataset.rejected_tracks],
    }
    n_segments, n_states = table.n_segments, len(table)
    del dataset, table

    shape, shape_info = _wrap_points(ds_norm, cfg, spec.dim)

    if shape is not None and len(excluded):
        hit = shape.contains_batch(spec.normalize(excluded))
        if hit.any():
            first = int(np.flatnonzero(hit)[0])
            raise ExclusionViolated(int(hit.sum()), tuple(excluded[first].tolist()))

    # An excluded state inside the shape has raised above, and the shape is
    # None only when nothing was retained, so membership in the shape equals
    # membership in the retained set for every observed state.
    eps: EpsilonResult = certify(inside, cfg.beta)

    shape_measure = 0.0 if shape is None else float(shape_info.get("measure") or 0.0)
    cov: CoverageResult = coverage(len(ds_phys), shape_measure, 1.0)

    fatality = None
    if collision_count == 0 and distance_km > 0.0:
        fatality = fatality_rate_bound(distance_km, cfg.beta, collision_count)

    data = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "dataset": dataset_info,
        "projection": {
            "kind": spec.kind,
            "dim": spec.dim,
            "names": list(spec.names),
            "bounds": bounds.tolist(),
            "physical_box_volume": spec.box_volume(),
            "n_state_trajectories": n_segments,
            "n_states": n_states,
            "n_unique_states": len(extraction.vertices),
        },
        "transitions": {
            "total": len(tails),
            "safe": eps.s_count,
            "complement": eps.c_count,
        },
        "safe_set": {
            "unique_count": len(ds_phys),
            "removed_count": int(extraction.removed.sum()),
            "excluded_unique_count": len(excluded),
            "safe_trajectories": extraction.n_safe_segments,
            "unsafe_trajectories": extraction.n_unsafe_segments,
            "unsafe_seeds_matched": extraction.seeds_matched,
            "exclusion_ok": True,
        },
        "shape": shape_info,
        "epsilon": {
            "beta": eps.beta,
            "confidence": eps.confidence,
            "s": eps.s_count,
            "c": eps.c_count,
            "n_trailing": eps.n_trailing,
            "epsilon_single": eps.epsilon_single,
            "epsilon_bar_exact": eps.epsilon_bar_exact,
            "epsilon_bar_paper": eps.epsilon_bar_paper,
        },
        "coverage": asdict(cov),
        "baselines": {
            "collision_count": collision_count,
            "safe_distance_km": distance_km if collision_count == 0 else None,
            "fatality_rate_bound": fatality,
            "ttc_mean": None if ttc is None else ttc.mean,
            "ttc_std": None if ttc is None else ttc.std,
            "ttc_valid_rate": None if ttc is None else ttc.valid_rate,
            "ttc_n_valid": None if ttc is None else ttc.n_valid,
        },
        "warnings": warnings,
    }
    return AnalysisReport(
        data=data,
        shape=shape,
        spec=spec,
        config=cfg,
        ds_values=ds_phys,
    )
