"""Batched minimum enclosing balls for simplex vertex sets.

The filtration value of a simplex is the radius of the smallest ball
enclosing its vertices. That radius equals the circumradius when the
circumcenter falls inside the simplex and is otherwise determined by a
proper subset of the vertices, so the classic enumeration applies: try the
circumball of every vertex subset of size >= 2 and keep the smallest one
that covers all vertices. Everything is vectorized over a batch of
simplices of equal dimension.

Whether a subset's circumball covers the subset's own vertices depends on
the subset alone, so it is tested once, when the ball is solved: a ball
that misses one of its own points covers no superset either and is kept
with radius inf. A superset then tests only the vertices outside the
subset, so a simplex face shared by many cofacets is solved and
self-tested once.

Arithmetic runs on columns, one array of items per coordinate, with
elementwise operations only: an item's result never depends on the batch
it is solved in, so a face ball reused across blocks is the same ball.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

import numpy as np

COVER_REL_TOL = 1e-9

# a ball table: centers (n, m) as coordinate columns and radii (m,), inf
# where the ball misses one of the points it was solved for
Balls = tuple[np.ndarray, np.ndarray]


def columns(pts: np.ndarray) -> np.ndarray:
    """(m, j, n) items to (j, n, m) coordinate columns, contiguous."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(pts, dtype=float), 0, -1))


def _balls(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Circumballs of (j, n, m) columns: centers (n, m) and radii (m,).

    The center is p0 + sum_a x_a d_a with d_a = p_a - p0, where x solves
    the Gram system (d_a . d_b) x = |d_a|^2 / 2. The Gram matrix is
    symmetric positive semidefinite, so an unpivoted LDL^T factors it;
    its determinant is the product of the pivots D.
    """
    j, n, m = cols.shape
    p0 = cols[0]
    if j == 1:
        return p0.copy(), np.zeros(m)
    d = cols[1:] - p0
    k = j - 1
    gram = [[None] * k for _ in range(k)]  # G[a][b], a >= b
    scale = np.zeros(m)
    for a in range(k):
        for b in range(a + 1):
            g = d[a, 0] * d[b, 0]
            for c in range(1, n):
                g += d[a, c] * d[b, c]
            gram[a][b] = g
            np.maximum(scale, np.abs(g), out=scale)
    # Affinely dependent items (a repeated point, a collinear triple) have
    # a singular Gram system and no circumsphere within their affine
    # hull; they get infinite radius so they never win the minimum.
    lower = [[None] * k for _ in range(k)]  # L[a][b], a > b
    pivots = []
    solvable = np.ones(m, dtype=bool)
    det = np.ones(m)
    for a in range(k):
        scaled = []  # L[a][b] * D[b], b < a
        for b in range(a):
            w = gram[a][b]
            for c in range(b):
                w = w - scaled[c] * lower[b][c]
            scaled.append(w)
            lower[a][b] = w / pivots[b]
        piv = gram[a][a]
        for b in range(a):
            piv = piv - scaled[b] * lower[a][b]
        det *= piv
        solvable &= piv > 0.0
        # a non-positive pivot already marks its item unsolvable
        pivots.append(np.where(piv > 0.0, piv, 1.0))
    solvable &= np.abs(det) > 1e-12 * np.power(np.maximum(scale, 1e-300), k)
    # L y = |d|^2 / 2, then D L^T x = y
    y = []
    for a in range(k):
        v = 0.5 * gram[a][a]
        for b in range(a):
            v -= lower[a][b] * y[b]
        y.append(v)
    x = [None] * k
    for a in range(k - 1, -1, -1):
        v = y[a] / pivots[a]
        for b in range(a + 1, k):
            v -= lower[b][a] * x[b]
        x[a] = v
    offset = np.empty((n, m))
    for c in range(n):
        o = x[0] * d[0, c]
        for a in range(1, k):
            o += x[a] * d[a, c]
        offset[c] = np.where(solvable, o, 0.0)
    radii = np.sqrt(_square_sum(offset))
    radii[~solvable] = np.inf
    return p0 + offset, radii


def _square_sum(cols) -> np.ndarray:
    """Sum of squares over the leading axis, added left to right, which is
    how np.linalg.norm and .sum() add fewer than 8 terms."""
    total = cols[0] * cols[0]
    for col in cols[1:]:
        total += col * col
    return total


def _covers(cols, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Mask of the items whose ball holds all of its points, given as
    (n, m) coordinate columns, one per point.

    The largest vertex distance is the one np.linalg.norm(..., axis=2)
    .max(axis=1) gives, bit for bit: sqrt is correctly rounded, hence
    monotone, so it can be taken once after the max.
    """
    far = None
    for p in cols:
        sq = _square_sum(p - centers)
        far = sq if far is None else np.maximum(far, sq, out=far)
    if far is None:
        return np.ones(len(radii), dtype=bool)
    return np.sqrt(far) <= radii * (1.0 + COVER_REL_TOL) + 1e-12


def ball_table(cols: np.ndarray) -> Balls:
    """Circumballs of (j, n, m) columns, radius inf where a ball misses
    one of its own points."""
    centers, radii = _balls(cols)
    radii[~_covers(cols, centers, radii)] = np.inf
    return centers, radii


def circumballs(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest spheres through all given points, centers in their affine hull.

    pts has shape (m, j, n) with j >= 1 points per item. Returns centers
    (m, n) and radii (m,); an affinely dependent item has no such sphere
    and gets radius inf.
    """
    centers, radii = _balls(columns(pts))
    return centers.T, radii


def meb_radii(
    pts: np.ndarray,
    subset_ball: Callable[[tuple[int, ...]], tuple[np.ndarray, Balls]]
    | None = None,
) -> np.ndarray:
    """Minimum enclosing ball radius per simplex, pts shaped (m, j, n).

    ``subset_ball(idx)``, if given, supplies the circumballs of vertex
    subset ``idx`` in place of solving them here, so a face shared by
    many simplices can be solved once: it returns the row of each item's
    ball and the table those rows index, as ``ball_table`` builds it.
    """
    cols = columns(pts)
    j, _, m = cols.shape
    if j == 1:
        return np.zeros(m)

    def solve(idx: tuple[int, ...]) -> tuple[np.ndarray, Balls]:
        return np.arange(m), ball_table(cols[list(idx)])

    best = np.full(m, np.inf)
    for size in range(2, j + 1):
        for idx in combinations(range(j), size):
            ids, (centers, radii) = (subset_ball or solve)(idx)
            radii = radii[ids]
            # only a ball smaller than the best cover so far can win
            live = np.flatnonzero(radii < best)
            rest = [v for v in range(j) if v not in idx]
            outside = [cols[v][:, live] for v in rest]
            ok = _covers(outside, centers[:, ids[live]], radii[live])
            best[live[ok]] = radii[live[ok]]
    return best
