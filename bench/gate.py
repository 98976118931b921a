"""Correctness gate run after every operation, outside the timed region.

An operation passes when its report validates against the published
schema, the exclusion check held, the order-averaged epsilon is strictly
inside (0, 1), (13-D only) every retained state lies inside the shape,
and its artifact digests equal those of the run's first operation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema

from safeset.report import REPORT_SCHEMA

_VALIDATOR = jsonschema.Draft7Validator(REPORT_SCHEMA)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_digests(report, out_dir: Path | None) -> dict[str, str]:
    """sha256 per artifact file; without artifacts, of the report JSON."""
    if out_dir is None:
        return {"report.json": hashlib.sha256(report.to_json().encode()).hexdigest()}
    return {
        str(p.relative_to(out_dir)): sha256_file(p)
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def check(report, out_dir: Path | None, check_members: bool) -> list[str]:
    """Problems found with one operation's output (empty when it passes)."""
    problems = []
    data = report.data
    if out_dir is not None:
        data = json.loads((out_dir / "report.json").read_text())
    errors = sorted(_VALIDATOR.iter_errors(data), key=lambda e: list(e.path))
    problems += [f"schema: {'/'.join(map(str, e.path))}: {e.message}" for e in errors[:3]]
    if data["safe_set"]["exclusion_ok"] is not True:
        problems.append("exclusion_ok is not true")
    eps = data["epsilon"]["epsilon_bar_exact"]
    if not (0.0 < eps < 1.0):
        problems.append(f"epsilon_bar_exact {eps!r} outside (0, 1)")
    if check_members:
        inside = report.shape.contains_batch(report.spec.normalize(report.ds_values))
        missing = int(len(inside) - inside.sum())
        if missing:
            problems.append(f"{missing} retained states lie outside the shape")
    return problems
