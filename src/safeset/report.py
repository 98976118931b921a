"""Deterministic result files: report.json, shape.json, ds.csv, slice grids.

Every artifact is a pure function of the analysis report, so re-running
the same configuration on the same inputs reproduces each file byte for
byte. JSON is emitted with sorted keys and no timestamps; CSV floats use
``repr`` so values round-trip exactly.

Slice grids rasterize two chosen state dimensions over a band of ego
speed, holding every remaining dimension at its neutral fill (absent
neighbours pushed to the far range edge). Each cell records whether the
cell-center probe lies inside the retained-state shape, how many
retained states fall in the cell for that band, and the OR of the two.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .oss import SUBREGIONS, OssSpec
from .pipeline import AnalysisReport

FRONT_SUBREGIONS = ("fl", "fc", "fr")

REPORT_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": [
        "schema_version",
        "config",
        "dataset",
        "projection",
        "transitions",
        "safe_set",
        "shape",
        "epsilon",
        "coverage",
        "baselines",
        "warnings",
    ],
    "properties": {
        "schema_version": {"const": 1},
        "config": {"type": "object"},
        "dataset": {
            "type": "object",
            "required": [
                "n_samples",
                "n_trajectories",
                "dt",
                "collision_event_count",
                "rejected_tracks",
            ],
            "properties": {
                "n_samples": {"type": "integer", "minimum": 0},
                "n_trajectories": {"type": "integer", "minimum": 0},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "collision_event_count": {"type": "integer", "minimum": 0},
                "rejected_tracks": {"type": "array"},
            },
        },
        "projection": {
            "type": "object",
            "required": [
                "kind",
                "dim",
                "names",
                "bounds",
                "physical_box_volume",
                "n_state_trajectories",
                "n_states",
                "n_unique_states",
            ],
            "properties": {
                "kind": {
                    "enum": [
                        "lead_following",
                        "multi_vehicle",
                        "vehicle_pedestrian",
                        "combined",
                    ]
                },
                "dim": {"type": "integer", "minimum": 1},
                "names": {"type": "array", "items": {"type": "string"}},
                "bounds": {"type": "array"},
                "physical_box_volume": {"type": "number"},
                "n_state_trajectories": {"type": "integer", "minimum": 0},
                "n_states": {"type": "integer", "minimum": 0},
                "n_unique_states": {"type": "integer", "minimum": 0},
            },
        },
        "transitions": {
            "type": "object",
            "required": ["total", "safe", "complement"],
            "properties": {
                "total": {"type": "integer", "minimum": 0},
                "safe": {"type": "integer", "minimum": 0},
                "complement": {"type": "integer", "minimum": 0},
            },
        },
        "safe_set": {
            "type": "object",
            "required": [
                "unique_count",
                "removed_count",
                "excluded_unique_count",
                "safe_trajectories",
                "unsafe_trajectories",
                "unsafe_seeds_matched",
                "exclusion_ok",
            ],
            "properties": {
                "unique_count": {"type": "integer", "minimum": 0},
                "removed_count": {"type": "integer", "minimum": 0},
                "excluded_unique_count": {"type": "integer", "minimum": 0},
                "safe_trajectories": {"type": "integer", "minimum": 0},
                "unsafe_trajectories": {"type": "integer", "minimum": 0},
                "unsafe_seeds_matched": {"type": "integer", "minimum": 0},
                "exclusion_ok": {"type": "boolean"},
            },
        },
        "shape": {
            "type": "object",
            "required": ["kind", "n_points"],
            "properties": {
                "kind": {
                    "enum": ["empty", "alpha_shape", "convex_hull", "shape_union"]
                },
                "n_points": {"type": "integer", "minimum": 0},
            },
        },
        "epsilon": {
            "type": "object",
            "required": [
                "beta",
                "confidence",
                "s",
                "c",
                "n_trailing",
                "epsilon_single",
                "epsilon_bar_exact",
                "epsilon_bar_paper",
            ],
            "properties": {
                "beta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "confidence": {"type": "number"},
                "s": {"type": "integer", "minimum": 0},
                "c": {"type": "integer", "minimum": 0},
                "n_trailing": {"type": "integer", "minimum": 0},
                "epsilon_single": {"type": "number", "minimum": 0, "maximum": 1},
                "epsilon_bar_exact": {"type": "number", "minimum": 0, "maximum": 1},
                "epsilon_bar_paper": {"type": "number", "minimum": 0},
            },
        },
        "coverage": {
            "type": "object",
            "required": [
                "ds_count",
                "shape_measure",
                "space_measure",
                "density",
                "occupancy",
            ],
            "properties": {
                "ds_count": {"type": "integer", "minimum": 0},
                "shape_measure": {"type": "number", "minimum": 0},
                "space_measure": {"type": "number", "exclusiveMinimum": 0},
                "density": {"type": ["number", "null"]},
                "occupancy": {"type": "number", "minimum": 0},
            },
        },
        "baselines": {
            "type": "object",
            "required": [
                "collision_count",
                "safe_distance_km",
                "fatality_rate_bound",
                "ttc_mean",
                "ttc_std",
                "ttc_valid_rate",
                "ttc_n_valid",
            ],
            "properties": {
                "collision_count": {"type": "integer", "minimum": 0},
                "safe_distance_km": {"type": ["number", "null"]},
                "fatality_rate_bound": {"type": ["number", "null"]},
                "ttc_mean": {"type": ["number", "null"]},
                "ttc_std": {"type": ["number", "null"]},
                "ttc_valid_rate": {"type": ["number", "null"]},
                "ttc_n_valid": {"type": ["integer", "null"]},
            },
        },
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
}


@dataclass(frozen=True)
class SlicePlan:
    """One 2-D raster: dims (x, y) over an ego-speed band, rest filled."""

    x_index: int
    y_index: int
    band: tuple[float, float]
    fills: tuple[float, ...]


def _central_band(lo: float, hi: float) -> tuple[float, float]:
    mid = 0.5 * (lo + hi)
    half = (hi - lo) / 8.0
    return (mid - half, mid + half)


def slice_plans(spec: OssSpec) -> list[SlicePlan]:
    """Standard raster set for each state-space kind.

    Lead-following: gap vs other-vehicle speed across four equal ego-speed
    bands. Multi-vehicle: one (gap, speed) raster per surrounding slot at
    the central ego-speed band. Pedestrian: one (ahead, lateral) raster
    per road side at the central band. Combined: both groups.
    """
    b = spec.bounds()
    v_lo, v_hi = float(b[0, 0]), float(b[0, 1])
    plans: list[SlicePlan] = []
    if spec.kind == "lead_following":
        edges = np.linspace(v_lo, v_hi, 5)
        for k in range(4):
            band = (float(edges[k]), float(edges[k + 1]))
            center = 0.5 * (band[0] + band[1])
            plans.append(SlicePlan(1, 2, band, (center, 0.0, 0.0)))
        return plans

    band = _central_band(v_lo, v_hi)
    center = 0.5 * (band[0] + band[1])
    fills = np.zeros(spec.dim)
    fills[0] = center
    has_vehicles = spec.kind in ("multi_vehicle", "combined")
    has_peds = spec.kind in ("vehicle_pedestrian", "combined")
    ped_offset = 13 if spec.kind == "combined" else 1
    if has_vehicles:
        for si, sub in enumerate(SUBREGIONS):
            p_idx = 1 + 2 * si
            fills[p_idx] = spec.p_max if sub in FRONT_SUBREGIONS else spec.p_min
            fills[p_idx + 1] = center
    if has_peds:
        for side in range(2):
            fills[ped_offset + 2 * side] = spec.ped_p_max
            fills[ped_offset + 2 * side + 1] = spec.q_max
    template = tuple(float(v) for v in fills)
    if has_vehicles:
        for si in range(len(SUBREGIONS)):
            p_idx = 1 + 2 * si
            plans.append(SlicePlan(p_idx, p_idx + 1, band, template))
    if has_peds:
        for side in range(2):
            x = ped_offset + 2 * side
            plans.append(SlicePlan(x, x + 1, band, template))
    return plans


def _cell_centers(lo: float, hi: float, cells: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(lo, hi, cells + 1)
    return 0.5 * (edges[:-1] + edges[1:]), edges


def render_slice(report: AnalysisReport, plan: SlicePlan, cells: int) -> dict[str, np.ndarray]:
    """Raster one plan into columns x, y, probe_member, ds_count, member,
    one entry per cell with x varying slowest."""
    spec = report.spec
    b = spec.bounds()
    xc, xe = _cell_centers(float(b[plan.x_index, 0]), float(b[plan.x_index, 1]), cells)
    yc, ye = _cell_centers(float(b[plan.y_index, 0]), float(b[plan.y_index, 1]), cells)
    x, y = np.repeat(xc, cells), np.tile(yc, cells)
    probes = np.tile(np.array(plan.fills, dtype=float), (cells * cells, 1))
    probes[:, plan.x_index] = x
    probes[:, plan.y_index] = y
    if report.shape is None:
        inside = np.zeros(cells * cells, dtype=bool)
    else:
        inside = report.shape.contains_batch(spec.normalize(probes))

    ds = report.ds_values
    if len(ds):
        in_band = (ds[:, 0] >= plan.band[0]) & (ds[:, 0] <= plan.band[1])
        counts, _, _ = np.histogram2d(
            ds[in_band, plan.x_index], ds[in_band, plan.y_index], bins=[xe, ye]
        )
    else:
        counts = np.zeros((cells, cells))
    counts = counts.ravel().astype(np.int64)
    return {
        "x": x,
        "y": y,
        "probe_member": inside,
        "ds_count": counts,
        "member": inside | (counts > 0),
    }


def _slice_filename(spec: OssSpec, plan: SlicePlan) -> str:
    names = spec.names
    return (
        f"slice_{names[plan.x_index]}-{names[plan.y_index]}"
        f"_{plan.band[0]:g}-{plan.band[1]:g}.csv"
    )


def _write_slice_csv(path: Path, raster: dict[str, np.ndarray]) -> None:
    # floats as repr, flags as 0/1
    columns = [
        map(repr, (col.astype(np.int64) if col.dtype == bool else col).tolist())
        for col in raster.values()
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(raster)
        writer.writerows(zip(*columns))


def _write_ds_csv(path: Path, report: AnalysisReport) -> None:
    columns = [map(repr, col.tolist()) for col in np.asarray(report.ds_values, float).T]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(report.spec.names)
        writer.writerows(zip(*columns))


_ARRAY_MARK = "\x00ndarray:"
_ARRAY_SLOT = re.compile(r'(?m)^( *)(.*)"\\u0000ndarray:(\d+)"')


def _array_json(a: np.ndarray, indent: str) -> str:
    """``a`` as ``json.dumps(a.tolist(), indent=2)`` writes it on a line
    indented by ``indent``.

    A 2-D array of integers or finite floats is filled into one
    %-template (``%r`` is the ``repr`` json uses for floats); anything
    else goes through ``json``.
    """
    rows, cols = a.shape if a.ndim == 2 else (0, 0)
    fast = rows and cols and (
        a.dtype.kind in "iu" or (a.dtype.kind == "f" and np.isfinite(a).all())
    )
    if not fast:
        return json.dumps(a.tolist(), indent=2).replace("\n", "\n" + indent)
    outer, inner = "\n" + indent + "  ", "\n" + indent + "    "
    cell = "%r" if a.dtype.kind == "f" else "%d"
    row = "[" + inner + ("," + inner).join([cell] * cols) + outer + "]"
    template = "[" + outer + ("," + outer).join([row] * rows) + "\n" + indent + "]"
    return template % tuple(a.ravel().tolist())


def dumps_json(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, where ``doc`` may
    hold numpy arrays, written as their ``tolist()``.

    The arrays are cut out before ``json`` serializes the rest (its indented
    encoder runs in pure Python) and pasted back in by :func:`_array_json`.
    """
    arrays: list[np.ndarray] = []

    def cut(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
            return f"{_ARRAY_MARK}{len(arrays) - 1}"
        if isinstance(value, dict):
            return {k: cut(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [cut(v) for v in value]
        return value

    text = json.dumps(cut(doc), sort_keys=True, indent=2)
    text, pasted = _ARRAY_SLOT.subn(
        lambda m: m[1] + m[2] + _array_json(arrays[int(m[3])], m[1]), text
    )
    if pasted != len(arrays):
        raise AssertionError(f"pasted {pasted} of {len(arrays)} arrays")
    return text + "\n"


def _shape_document(report: AnalysisReport) -> dict:
    shape_part = {"kind": "empty"} if report.shape is None else report.shape.to_dict()
    return {
        "normalization": {
            "names": list(report.spec.names),
            "bounds": report.spec.bounds().tolist(),
        },
        "shape": shape_part,
    }


def emit_report(report: AnalysisReport, out_dir: str | Path) -> dict:
    """Write all artifacts under ``out_dir``; returns the written paths."""
    out = Path(out_dir)
    slices_dir = out / "slices"
    slices_dir.mkdir(parents=True, exist_ok=True)

    report_path = out / "report.json"
    report_path.write_text(report.to_json())

    shape_path = out / "shape.json"
    shape_path.write_text(dumps_json(_shape_document(report)))

    ds_path = out / "ds.csv"
    _write_ds_csv(ds_path, report)

    slice_paths = []
    for plan in slice_plans(report.spec):
        raster = render_slice(report, plan, report.config.slice_cells)
        path = slices_dir / _slice_filename(report.spec, plan)
        _write_slice_csv(path, raster)
        slice_paths.append(str(path))
    return {
        "report": str(report_path),
        "shape": str(shape_path),
        "ds": str(ds_path),
        "slices": slice_paths,
    }
