"""Union of per-cluster shapes, with overlap-corrected measure.

Large point sets are clustered and each cluster wrapped on its own; the
union of those wraps is the working shape. Membership is the disjunction
of member tests. The measure sums member measures and subtracts estimated
overlap: zero exactly when member bounding boxes are pairwise disjoint or
at most one member is full-dimensional, otherwise Monte-Carlo multiplicity
counting on the union bounding box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DimensionMismatch
from .montecarlo import sample_sums


@dataclass(frozen=True)
class UnionMeasure:
    total: float
    member_sum: float
    overlap: float
    overlap_half_width_95: float


class ShapeUnion:
    """Disjunction of member shapes (alpha shapes and/or convex wraps)."""

    def __init__(self, shapes: Sequence, provenance: dict | None = None):
        if not shapes:
            raise ValueError("a shape union needs at least one member")
        dims = {s.dim for s in shapes}
        if len(dims) != 1:
            raise DimensionMismatch(f"member dimensions differ: {sorted(dims)}")
        self.shapes = list(shapes)
        self.provenance = dict(provenance or {})
        self.measure_detail: UnionMeasure | None = None

    @property
    def dim(self) -> int:
        return self.shapes[0].dim

    @property
    def measure(self) -> float | None:
        return None if self.measure_detail is None else self.measure_detail.total

    def bbox(self) -> np.ndarray:
        boxes = [s.bbox() for s in self.shapes]
        lo = np.min([b[:, 0] for b in boxes], axis=0)
        hi = np.max([b[:, 1] for b in boxes], axis=0)
        return np.stack([lo, hi], axis=1)

    def _member_boxes_disjoint(self) -> bool:
        boxes = [s.bbox() for s in self.shapes]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                a, b = boxes[i], boxes[j]
                if ((a[:, 0] <= b[:, 1]) & (b[:, 0] <= a[:, 1])).all():
                    return False
        return True

    def contains(self, q) -> bool:
        q = np.asarray(q, dtype=float).ravel()
        return bool(self.contains_batch(q[None, :])[0])

    def contains_batch(self, qs: np.ndarray) -> np.ndarray:
        qs = np.asarray(qs, dtype=float)
        out = np.zeros(len(qs), dtype=bool)
        for s in self.shapes:
            todo = ~out
            if not todo.any():
                break
            out[todo] = s.contains_batch(qs[todo])
        return out

    def _multiplicity(self, qs: np.ndarray) -> np.ndarray:
        counts = np.zeros(len(qs), dtype=np.int64)
        for s in self.shapes:
            counts += s.contains_batch_fast(qs).astype(np.int64)
        return counts

    def compute_measure(self, seed: int = 0, n_samples: int = 20_000) -> UnionMeasure:
        """Member-measure sum minus estimated overlap excess.

        The union volume equals the member sum minus the integral of
        (multiplicity - 1) over the overlap region; that integrand is
        estimated on the union bounding box with spawned per-batch seeds.
        Every member must already carry a measure (alpha shapes always do;
        convex wraps after estimate_measure). The overlap is exactly zero,
        with no sampling, when member boxes are pairwise disjoint or fewer
        than two members have full affine rank (points covered twice then
        lie in some member's lower-dimensional affine hull); otherwise
        ``n_samples`` must be at least MIN_SAMPLES, as for mc_volume.
        """
        member_sum = 0.0
        for s in self.shapes:
            if s.measure is None:
                raise ValueError("estimate member measures before the union measure")
            member_sum += s.measure
        full_rank = sum(s.affine_rank == self.dim for s in self.shapes)
        if full_rank < 2 or self._member_boxes_disjoint():
            detail = UnionMeasure(member_sum, member_sum, 0.0, 0.0)
        else:
            box = self.bbox()
            widths = box[:, 1] - box[:, 0]
            overlap, half = self._excess_integral(box, widths, seed, n_samples)
            detail = UnionMeasure(
                max(member_sum - overlap, 0.0), member_sum, overlap, half
            )
        self.measure_detail = detail
        return detail

    def _excess_integral(
        self, box: np.ndarray, widths: np.ndarray, seed: int, n_samples: int
    ) -> tuple[float, float]:
        """Monte-Carlo integral of max(multiplicity - 1, 0) over the box."""

        def excess(pts: np.ndarray) -> tuple[float, float]:
            w = np.maximum(self._multiplicity(pts) - 1, 0).astype(float)
            return float(w.sum()), float((w * w).sum())

        total, total_sq = sample_sums(excess, box, n_samples, seed)
        box_volume = float(np.prod(widths))
        mean = total / n_samples
        var = max(total_sq / n_samples - mean * mean, 0.0)
        half = 1.96 * box_volume * float(np.sqrt(var / n_samples))
        return box_volume * mean, half

    def to_dict(self) -> dict:
        return {
            "kind": "shape_union",
            "dim": self.dim,
            "n_members": len(self.shapes),
            "provenance": self.provenance,
            "measure": self.measure,
            "measure_detail": None
            if self.measure_detail is None
            else {
                "member_sum": self.measure_detail.member_sum,
                "overlap": self.measure_detail.overlap,
                "overlap_half_width_95": self.measure_detail.overlap_half_width_95,
            },
            "members": [s.to_dict() for s in self.shapes],
        }
