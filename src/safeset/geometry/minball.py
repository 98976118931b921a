"""Batched minimum enclosing balls for simplex vertex sets.

The filtration value of a simplex is the radius of the smallest ball
enclosing its vertices. That radius equals the circumradius when the
circumcenter falls inside the simplex and is otherwise determined by a
proper subset of the vertices, so the classic enumeration applies: try the
circumball of every vertex subset of size >= 2 and keep the smallest one
that covers all vertices. Everything is vectorized over a batch of
simplices of equal dimension.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

import numpy as np

COVER_REL_TOL = 1e-9


def circumballs(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest spheres through all given points, centers in their affine hull.

    pts has shape (m, j, n) with j >= 1 affinely independent points per item.
    Returns centers (m, n) and radii (m,).
    """
    pts = np.asarray(pts, dtype=float)
    m, j, n = pts.shape
    p0 = pts[:, 0, :]
    if j == 1:
        return p0.copy(), np.zeros(m)
    d = pts[:, 1:, :] - p0[:, None, :]
    k = j - 1
    gram = 2.0 * d @ d.transpose(0, 2, 1)
    rhs = np.einsum("mkn,mkn->mk", d, d)
    # Affinely dependent subsets (e.g. collinear triples) have a singular
    # Gram system and no circumsphere within their affine hull; give them
    # infinite radius so they can never win the minimum. Solving them in
    # the same batch would abort the whole batch, so mask first.
    scale = np.abs(gram).max(axis=(1, 2))
    det = np.linalg.det(gram)
    solvable = np.abs(det) > 1e-12 * np.power(np.maximum(scale, 1e-300), k)
    x = np.zeros((m, k))
    if solvable.any():
        try:
            x[solvable] = np.linalg.solve(gram[solvable], rhs[solvable][..., None])[
                ..., 0
            ]
        except np.linalg.LinAlgError:
            for i in np.nonzero(solvable)[0]:
                x[i] = np.linalg.lstsq(gram[i], rhs[i], rcond=None)[0]
    offset = np.einsum("mk,mkn->mn", x, d)
    centers = p0 + offset
    radii = np.linalg.norm(offset, axis=1)
    radii[~solvable] = np.inf
    return centers, radii


def meb_radii(
    pts: np.ndarray,
    subset_ball: Callable[[tuple[int, ...]], tuple[np.ndarray, np.ndarray]]
    | None = None,
) -> np.ndarray:
    """Minimum enclosing ball radius per simplex, pts shaped (m, j, n).

    ``subset_ball(idx)``, if given, supplies the circumballs of vertex
    subset ``idx`` for every item in place of solving them here, so a
    face shared by many simplices can be solved once.
    """
    pts = np.asarray(pts, dtype=float)
    m, j, _ = pts.shape
    if j == 1:
        return np.zeros(m)
    best = np.full(m, np.inf)
    for size in range(2, j + 1):
        for idx in combinations(range(j), size):
            if subset_ball is None:
                centers, radii = circumballs(pts[:, idx, :])
            else:
                centers, radii = subset_ball(idx)
            # only a ball smaller than the best cover so far can win
            live = np.flatnonzero(radii < best)
            # the largest vertex distance, as np.linalg.norm(..., axis=2)
            # .max(axis=1) gives it bit for bit: sqrt is correctly rounded,
            # hence monotone, so it can be taken once after the max
            sq = pts[live] - centers[live, None, :]
            sq *= sq
            dist = np.sqrt(sq.sum(axis=2).max(axis=1))
            ok = dist <= radii[live] * (1.0 + COVER_REL_TOL) + 1e-12
            best[live[ok]] = radii[live[ok]]
    return best
