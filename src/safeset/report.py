"""Deterministic result files: report.json, shape.json, ds.csv, slice grids.

Every artifact is a pure function of the analysis report, so re-running
the same configuration on the same inputs reproduces each file byte for
byte. JSON is emitted with sorted keys and no timestamps; numbers are
written by ``repr`` so values round-trip exactly, each distinct value of a
CSV column or a ``shape.json`` array formatted once (:mod:`safeset.celltext`).

Slice grids rasterize a pair of state dimensions over a band of ego
speed, holding every remaining dimension at the state-space's clearance
state (:meth:`~safeset.oss.OssSpec.clearance`: every neighbour slot
empty), so the report does not know the state-vector layout. Each cell
records whether the cell-center probe lies inside the retained-state
shape, how many retained states fall in the cell for that band, and the
OR of the two.

``report.json`` follows ``REPORT_SCHEMA``, defined in this module; each of
its objects names its fields once, and every field it names is required.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .celltext import CHUNK_ROWS, number_cells, write_rows
from .oss import OSS_KINDS, OssSpec
from .pipeline import SCHEMA_VERSION, AnalysisReport


def _record(**properties) -> dict:
    """A JSON-schema object that requires exactly ``properties``, in order."""
    return {"type": "object", "required": list(properties), "properties": properties}


REPORT_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    **_record(
        schema_version={"const": SCHEMA_VERSION},
        config={"type": "object"},
        dataset=_record(
            n_samples={"type": "integer", "minimum": 0},
            n_trajectories={"type": "integer", "minimum": 0},
            dt={"type": "number", "exclusiveMinimum": 0},
            collision_event_count={"type": "integer", "minimum": 0},
            rejected_tracks={"type": "array"},
        ),
        projection=_record(
            kind={"enum": list(OSS_KINDS)},
            dim={"type": "integer", "minimum": 1},
            names={"type": "array", "items": {"type": "string"}},
            bounds={"type": "array"},
            physical_box_volume={"type": "number"},
            n_state_trajectories={"type": "integer", "minimum": 0},
            n_states={"type": "integer", "minimum": 0},
            n_unique_states={"type": "integer", "minimum": 0},
        ),
        transitions=_record(
            total={"type": "integer", "minimum": 0},
            safe={"type": "integer", "minimum": 0},
            complement={"type": "integer", "minimum": 0},
        ),
        safe_set=_record(
            unique_count={"type": "integer", "minimum": 0},
            removed_count={"type": "integer", "minimum": 0},
            excluded_unique_count={"type": "integer", "minimum": 0},
            safe_trajectories={"type": "integer", "minimum": 0},
            unsafe_trajectories={"type": "integer", "minimum": 0},
            unsafe_seeds_matched={"type": "integer", "minimum": 0},
            exclusion_ok={"type": "boolean"},
        ),
        shape=_record(
            kind={"enum": ["empty", "alpha_shape", "convex_hull", "shape_union"]},
            n_points={"type": "integer", "minimum": 0},
        ),
        epsilon=_record(
            beta={"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            confidence={"type": "number"},
            s={"type": "integer", "minimum": 0},
            c={"type": "integer", "minimum": 0},
            n_trailing={"type": "integer", "minimum": 0},
            epsilon_single={"type": "number", "minimum": 0, "maximum": 1},
            epsilon_bar_exact={"type": "number", "minimum": 0, "maximum": 1},
            epsilon_bar_paper={"type": "number", "minimum": 0},
        ),
        coverage=_record(
            ds_count={"type": "integer", "minimum": 0},
            shape_measure={"type": "number", "minimum": 0},
            space_measure={"type": "number", "exclusiveMinimum": 0},
            density={"type": ["number", "null"]},
            occupancy={"type": "number", "minimum": 0},
        ),
        baselines=_record(
            collision_count={"type": "integer", "minimum": 0},
            safe_distance_km={"type": ["number", "null"]},
            fatality_rate_bound={"type": ["number", "null"]},
            ttc_mean={"type": ["number", "null"]},
            ttc_std={"type": ["number", "null"]},
            ttc_valid_rate={"type": ["number", "null"]},
            ttc_n_valid={"type": ["integer", "null"]},
        ),
        warnings={"type": "array", "items": {"type": "string"}},
    ),
}


@dataclass(frozen=True)
class SlicePlan:
    """One 2-D raster: dims (x, y) over an ego-speed band, rest filled."""

    x_index: int
    y_index: int
    band: tuple[float, float]
    fills: tuple[float, ...]


def slice_plans(spec: OssSpec) -> list[SlicePlan]:
    """One raster per pair of state dimensions (x, x + 1), x = 1, 3, ...,
    per ego-speed band (four equal bands for lead following, else the
    central quarter of the range), the other dimensions held at
    :meth:`OssSpec.clearance` of the band's centre speed."""
    v_lo, v_hi = spec.bounds()[0].tolist()
    if spec.kind == "lead_following":
        edges = np.linspace(v_lo, v_hi, 5).tolist()
        bands = list(zip(edges[:-1], edges[1:]))
    else:
        mid, half = 0.5 * (v_lo + v_hi), (v_hi - v_lo) / 8.0
        bands = [(mid - half, mid + half)]
    return [
        SlicePlan(x, x + 1, band, tuple(spec.clearance(0.5 * (band[0] + band[1])).tolist()))
        for band in bands
        for x in range(1, spec.dim, 2)
    ]


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
    """One name per plan: band edges by the shortest round-trip ``repr``,
    which tells every two floats apart, a whole number without its ".0"."""
    names = spec.names
    lo, hi = (repr(float(x)).removesuffix(".0") for x in plan.band)
    return f"slice_{names[plan.x_index]}-{names[plan.y_index]}_{lo}-{hi}.csv"


def _write_slice_csv(path: Path, raster: dict[str, np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:
        write_rows(fh, list(raster), [number_cells(col) for col in raster.values()])


def _write_ds_csv(path: Path, report: AnalysisReport) -> None:
    columns = [number_cells(col) for col in np.asarray(report.ds_values, float).T]
    with open(path, "w", newline="") as fh:
        write_rows(fh, report.spec.names, columns)


_ARRAY_MARK = "\x00ndarray:"
_ARRAY_SLOT = re.compile(r'(?m)^( *)(.*)"\\u0000ndarray:(\d+)"')


def _write_array(fh: TextIO, a: np.ndarray, indent: str) -> None:
    """Write ``a`` as ``json.dumps(a.tolist(), indent=2)`` writes it on a
    line indented by ``indent``.

    A 2-D array of integers or finite floats is written CHUNK_ROWS rows at
    a time, each chunk one %-fill of its rows' cells from the array's
    :func:`~safeset.celltext.number_cells` (json writes numbers by
    ``repr`` too); anything else goes through ``json``.
    """
    rows, cols = a.shape if a.ndim == 2 else (0, 0)
    fast = rows and cols and (
        a.dtype.kind in "iu" or (a.dtype.kind == "f" and np.isfinite(a).all())
    )
    if not fast:
        fh.write(json.dumps(a.tolist(), indent=2).replace("\n", "\n" + indent))
        return
    outer, inner = "\n" + indent + "  ", "\n" + indent + "    "
    row = "[" + inner + ("," + inner).join(["%s"] * cols) + outer + "]"
    texts, index = number_cells(a.ravel())
    index = index.reshape(rows, cols)
    lead = "[" + outer
    for lo in range(0, rows, CHUNK_ROWS):
        chunk = index[lo : lo + CHUNK_ROWS]
        template = lead + ("," + outer).join([row] * len(chunk))
        fh.write(template % tuple(texts[chunk.ravel()].tolist()))
        lead = "," + outer
    fh.write("\n" + indent + "]")


def dump_json(doc, fh: TextIO) -> None:
    """Write ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` to ``fh``,
    where ``doc`` may hold numpy arrays, written as their ``tolist()``.

    The arrays are cut out before ``json`` serializes the rest (its indented
    encoder runs in pure Python); that text is written up to each array's
    slot, and the array straight after it by :func:`_write_array`, so the
    whole document is never held as one string.
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
    pos = pasted = 0
    for m in _ARRAY_SLOT.finditer(text):
        fh.write(text[pos : m.start()] + m[1] + m[2])
        _write_array(fh, arrays[int(m[3])], m[1])
        pos, pasted = m.end(), pasted + 1
    if pasted != len(arrays):
        raise AssertionError(f"pasted {pasted} of {len(arrays)} arrays")
    fh.write(text[pos:] + "\n")


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
    with open(shape_path, "w") as fh:
        dump_json(_shape_document(report), fh)

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
