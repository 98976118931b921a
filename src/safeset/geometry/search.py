"""Log-space bisection for the smallest workable alpha, decided in closed form.

An alpha is feasible when the filtered shape is a single connected piece
and every input point is a vertex of at least one included full-dimensional
simplex: when alpha reaches both the complex's largest spanning-tree
bottleneck and its cover radius. Each bisection probe, at the geometric
mean of the bracket, is that comparison; the search stops when the bracket
is narrower than the (linear) threshold and builds one shape, at the
smallest feasible alpha probed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InfeasibleAtHi
from .simplicial import AlphaShape, SimplicialComplex, alpha_complex, delaunay


@dataclass(frozen=True)
class AlphaSearchResult:
    alpha: float
    shape: AlphaShape
    probes: tuple[tuple[float, bool], ...]


def search_optimal_alpha(
    points_or_complex: np.ndarray | SimplicialComplex,
    lo: float = 0.01,
    hi: float = 100.0,
    threshold: float = 0.1,
    max_exact_dim: int | None = None,
) -> AlphaSearchResult:
    """Find the smallest alpha (within ``threshold``) whose shape is feasible.

    The upper end is probed first; if even that fails, InfeasibleAtHi is
    raised, naming the alpha the cloud needs. Each bisection step probes
    the geometric mean of the bracket, keeping hi on the feasible side, and
    the smallest feasible probe is returned together with its shape.
    """
    if not all(math.isfinite(x) for x in (lo, hi, threshold)):
        raise ValueError("lo, hi and threshold must be finite")
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    if isinstance(points_or_complex, SimplicialComplex):
        c = points_or_complex
    else:
        kwargs = {} if max_exact_dim is None else {"max_exact_dim": max_exact_dim}
        c = delaunay(np.asarray(points_or_complex, dtype=float), **kwargs)

    needed = max(float(c.bottlenecks[-1]), c.cover_radius)
    if hi < needed:
        raise InfeasibleAtHi(hi, needed)
    probes = [(hi, True)]
    cur_lo, cur_hi = lo, hi
    while cur_hi - cur_lo > threshold:
        mid = math.sqrt(cur_lo * cur_hi)
        ok = mid >= needed
        probes.append((mid, ok))
        if ok:
            cur_hi = mid
        else:
            cur_lo = mid
    return AlphaSearchResult(
        alpha=cur_hi, shape=alpha_complex(c, cur_hi), probes=tuple(probes)
    )
