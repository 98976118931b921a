"""Deterministic hierarchical bisection of large point sets.

Point sets too large for one triangulation are split by seeded 2-means,
recursively, until every leaf is at or below the size cap. All randomness
flows from one seed through spawned generator streams, so the partition is
reproducible regardless of platform threading. A zero-variance (or
otherwise unsplittable) node falls back to an equal index bipartition so
the recursion always terminates.
"""

from __future__ import annotations

import numpy as np

MAX_LLOYD_ITERS = 100


def _two_means(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Seeded Lloyd iteration with two centers; returns 0/1 labels."""
    n = len(points)
    first = int(rng.integers(n))
    c0 = points[first]
    dist0 = np.linalg.norm(points - c0, axis=1)
    c1 = points[int(np.argmax(dist0))]
    labels = np.zeros(n, dtype=np.int8)
    for _ in range(MAX_LLOYD_ITERS):
        d0 = ((points - c0) ** 2).sum(axis=1)
        d1 = ((points - c1) ** 2).sum(axis=1)
        new = (d1 < d0).astype(np.int8)
        for side in (0, 1):
            if not (new == side).any():
                # refill an emptied side with the point farthest from the other
                far = int(np.argmax(((points - (c1 if side == 0 else c0)) ** 2).sum(axis=1)))
                new[far] = side
        if (new == labels).all():
            break
        labels = new
        c0 = points[labels == 0].mean(axis=0)
        c1 = points[labels == 1].mean(axis=0)
    return labels


def hierarchical_cluster(
    points: np.ndarray, max_cluster_size: int, seed: int = 0
) -> list[np.ndarray]:
    """Partition row indices of ``points`` into leaves of bounded size.

    Returns index arrays (into the input rows) in a deterministic order.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("points must be a non-empty 2-D array")
    if max_cluster_size < 2:
        raise ValueError("max_cluster_size must be at least 2")
    root = np.random.SeedSequence(seed)
    queue: list[tuple[np.ndarray, np.random.SeedSequence]] = [
        (np.arange(len(points)), root)
    ]
    leaves: list[np.ndarray] = []
    while queue:
        idx, ss = queue.pop(0)
        if len(idx) <= max_cluster_size:
            leaves.append(idx)
            continue
        rng_seed, left_seed, right_seed = ss.spawn(3)
        labels = _two_means(points[idx], np.random.default_rng(rng_seed))
        left, right = idx[labels == 0], idx[labels == 1]
        if len(left) == 0 or len(right) == 0:
            half = len(idx) // 2
            left, right = idx[:half], idx[half:]
        queue.append((left, left_seed))
        queue.append((right, right_seed))
    return leaves
