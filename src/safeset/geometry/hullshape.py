"""Convex wrap for point clouds too high-dimensional to triangulate.

The shape is the convex hull of its points, kept implicit: membership asks
whether the query is a convex combination of the points. That costs no
exponential facet enumeration and works in any dimension.

Membership runs the cheapest rejections first. Each is a necessary
condition for acceptance, so the verdict is that of the exact test alone:

1. the bounding box, widened by the snap tolerance ``Shape.snap_tol``
   (non-finite queries fail here);
2. the normal residual: the query's largest offset from the affine hull
   of the points along its normal directions, which one SVD finds at
   construction;
3. acceptance within the snap tolerance of a hull point (KD-tree);
4. random support-direction cuts;
5. a non-negative least-squares fit, which answers the common case fast,
   and an exact LP feasibility check for everything the fit cannot
   certify.

A wrap whose affine rank is below its dimension has volume exactly 0,
reported without sampling; a full-rank wrap's volume is a Monte-Carlo
estimate.

Only step 5 needs ``scipy.optimize``, so the module-level ``nnls`` and
``linprog`` import it on their first call, and an analysis that never
fits a combination never loads it (nor spends its import time and
memory). They keep scipy's names because callers that count the fits,
such as a tracer that wraps module attributes by name, look them up here.
"""

from __future__ import annotations

import math

import numpy as np

from .montecarlo import McVolume, mc_volume
from .simplicial import Shape

RESIDUAL_TOL = 1e-8

RANK_TOL = 1e-10
"""Singular values of the centred points at most RANK_TOL x the largest
count as zero; their right singular vectors are the hull's normals."""

LP_FEASIBILITY_TOL = 1e-7
"""HiGHS's default primal feasibility tolerance."""

N_CUT_DIRECTIONS = 64
"""Random support directions for the outer-polytope prefilter."""

# The prefilter is a sound necessary condition for any direction set, so a
# hard-coded seed keeps direction choice reproducible everywhere.
_CUT_SEED = 727564


def nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """scipy.optimize.nnls, imported on the first call."""
    from scipy.optimize import nnls as solve

    return solve(a, b)


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


class ConvexHullShape(Shape):
    """Implicit convex hull with tolerance-based membership."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or len(points) == 0:
            raise ValueError("points must be a non-empty 2-D array")
        self.points = np.unique(points, axis=0)
        self.measure: float | None = None
        self.measure_half_width: float | None = None
        lo, hi = self.bbox().T
        self._scale = max(float((hi - lo).max()), 1.0)
        # The combination fits run on coordinates centred at the mean, so
        # their tolerances do not grow with the hull's distance from the
        # origin: [(P - mean)^T; scale] lambda = [q - mean; scale].
        self._mean = self.points.mean(axis=0)
        centred = self.points - self._mean
        self._system = np.vstack(
            [centred.T, np.full((1, len(self.points)), self._scale)]
        )
        # Outer-polytope prefilter: any member q satisfies, for every
        # direction u, min<P,u> <= <q,u> <= max<P,u>. Violating one cut
        # proves non-membership, so the exact combination fit only runs on
        # the few queries inside all cuts.
        rng = np.random.default_rng(np.random.SeedSequence(_CUT_SEED))
        dirs = rng.standard_normal((N_CUT_DIRECTIONS, self.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        self._cut_dirs = dirs
        proj = self.points @ dirs.T
        self._cut_lo = proj.min(axis=0)
        self._cut_hi = proj.max(axis=0)

        # Affine hull: every point lies within tau = RANK_TOL x sigma_max of
        # the mean along each normal. A constant column is flat, not the
        # mean's rounding error. The full right basis needs the square U
        # only when there are fewer points than dimensions.
        n, d = self.points.shape
        _, sigma, vt = np.linalg.svd(np.where(hi > lo, centred, 0.0), full_matrices=n < d)
        sigma = np.concatenate([sigma, np.zeros(d - len(sigma))])
        tau = RANK_TOL * float(sigma.max(initial=0.0))
        flat = sigma <= tau
        self.affine_rank = int(d - flat.sum())
        self._normals = vt[flat].T
        # the normal residual test's cushion is the hull margin band, added
        # to the worst-case slack of the accepting tests
        self._normal_bound = tau + self.hull_margin + self._acceptance_slack(tau)

    def _acceptance_slack(self, tau: float) -> float:
        """Bound on how far past tau along a normal the accepting tests
        reach, for queries inside the widened bounding box.

        A query within the KD-tree tolerance of a point is at most that far
        past it. An NNLS certificate with recomputed residual r has
        q - mean = (P - mean)^T x + e, ||e|| <= r, |sum(x) - 1| <= r / scale,
        so it reaches r (1 + tau / scale); r is largest at the box corner
        farthest from the mean. An LP solution accepted within F b per row,
        b >= 1 the largest |right-hand side| in the box (x >= -F), reaches
        F b ((2n + 1) tau + sqrt(d) scale).
        """
        n, d = self.points.shape
        lo, hi = self.bbox().T - self._mean
        corner = np.maximum(-lo, hi) + self.hull_margin
        q_norm = float(np.linalg.norm(corner))
        r = RESIDUAL_TOL * self._scale * math.hypot(q_norm, self._scale)
        b = max(1.0, float(corner.max()) / self._scale)
        lp_reach = (2 * n + 1) * tau + math.sqrt(d) * self._scale
        return max(
            self.snap_tol,
            r * (1.0 + tau / self._scale),
            LP_FEASIBILITY_TOL * b * lp_reach,
        )

    def contains_batch(self, qs: np.ndarray) -> np.ndarray:
        qs = self.queries(qs)
        out = np.zeros(len(qs), dtype=bool)
        lo, hi = self.bbox().T
        tol = self.snap_tol
        idx = np.flatnonzero(((qs >= lo - tol) & (qs <= hi + tol)).all(axis=1))
        if self._normals.shape[1] and len(idx):
            offset = np.abs((qs[idx] - self._mean) @ self._normals).max(axis=1)
            idx = idx[offset <= self._normal_bound]
        if not len(idx):
            return out
        sub = qs[idx]
        near = self.snapped(sub)
        out[idx[near]] = True
        rest = np.flatnonzero(~near)
        if len(rest):
            proj = sub[rest] @ self._cut_dirs.T
            in_cuts = (
                (proj >= self._cut_lo - tol) & (proj <= self._cut_hi + tol)
            ).all(axis=1)
            for i in idx[rest[in_cuts]]:
                out[i] = self._combination_exists(qs[i])
        return out

    def _combination_exists(self, q: np.ndarray) -> bool:
        """Decide whether q is a convex combination of the hull points.

        The NNLS fit runs first, but its reported residual is not trusted:
        the solver can return a suboptimal weight vector with a bogus
        residual, so the residual is recomputed from the weights. A small
        recomputed residual is a genuine membership certificate; a large
        one proves nothing (the fit may simply have been sloppy), so those
        queries get an exact LP feasibility verdict. HiGHS can report
        success with weights that miss the equality rows, so a solution
        counts only if it meets them within LP_FEASIBILITY_TOL x max(1, |b|).
        """
        q = q - self._mean
        rhs = np.concatenate([q, [self._scale]])
        x, _ = nnls(self._system, rhs)
        resid = float(np.linalg.norm(self._system @ x - rhs))
        if resid <= RESIDUAL_TOL * self._scale * max(1.0, float(np.linalg.norm(rhs))):
            return True
        # the LP runs on the fit system scaled to a unit last row
        a = self._system / self._scale
        b = np.concatenate([q / self._scale, [1.0]])
        res = linprog(
            np.zeros(len(self.points)), A_eq=a, b_eq=b, bounds=(0.0, None), method="highs"
        )
        if res.status != 0:
            return False
        miss = float(np.abs(a @ res.x - b).max())
        return miss <= LP_FEASIBILITY_TOL * max(1.0, float(np.abs(b).max()))

    # kept only because the benchmark's tracer wraps this name and checks
    # that every wrapped name exists; nothing in safeset calls it
    contains_batch_fast = contains_batch

    def estimate_measure(self, seed: int, n_samples: int) -> McVolume:
        """Monte-Carlo volume over the shape's own bounding box.

        A hull of affine rank below its dimension (a flat bounding box is
        one) has zero volume; that is reported exactly without sampling.
        """
        if self.affine_rank < self.dim:
            result = McVolume(0.0, 0.0, 0, 0, 0.0)
        else:
            result = mc_volume(
                self.contains_batch, self.bbox(), n_samples=n_samples, seed=seed
            )
        self.measure = result.estimate
        self.measure_half_width = result.half_width_95
        return result

    def to_dict(self) -> dict:
        return {
            "kind": "convex_hull",
            "dim": self.dim,
            "alpha": None,
            "measure": self.measure,
            "measure_half_width_95": self.measure_half_width,
            "n_points": len(self.points),
            "points": self.points,
        }
