"""Triangulated point clouds and their alpha-filtered subcomplexes.

``delaunay`` triangulates a full-dimensional point cloud, enumerates every
face of every dimension, and stamps each simplex with its filtration value:
the minimum-enclosing-ball radius of its vertex set. Keeping the simplices
whose filtration is at most alpha yields the alpha-filtered shape: tiny
alpha leaves isolated vertices, huge alpha the full convex hull.

Inclusion is face-closed because the enclosing-ball radius of a subset of
vertices never exceeds that of the superset (a residual floating-point
clamp enforces that bitwise). Two consequences used throughout:

* connectivity of the filtered complex equals connectivity of its edge
  skeleton, since every included simplex links its vertices via included
  edges, so component counting runs on (all vertices, included edges);
* a point belongs to the filtered shape iff its carrier, the unique
  minimal simplex of the triangulation containing it, is included, since
  any larger included simplex would force the carrier in as a face.

Membership has one path: a probe located in an excluded top is decided by
its carrier, whose id is read off faces_of by dropping the top's
unsupported vertex columns, so no face is searched for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import factorial

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull, Delaunay, QhullError, cKDTree

from ..errors import DegenerateInput, DimensionMismatch, DimensionTooHigh
from .minball import Balls, ball_table, columns, meb_radii

DEFAULT_MAX_EXACT_DIM = 6
REL_TOL = 1e-9
# Probes more than HULL_MARGIN x (bounding-box diagonal, at least 1)
# outside the convex hull are refused before point location. They are
# members on no path: find_simplex(tol=1e-12) accepts a point at most its
# broad barycentric tolerance sqrt(1e-12) = 1e-6 outside a simplex, which
# puts it within 1e-6 x diameter of the hull, and the vertex snap reaches
# REL_TOL x scale.
HULL_MARGIN = 1e-5
HULL_BLOCK = 1 << 20  # probe x facet products per half-space block
MEB_BLOCK = 32_768  # simplices per filtration block


def _dedupe_rows(points: np.ndarray) -> np.ndarray:
    """Stable keep-first removal of exactly repeated rows."""
    _, first = np.unique(points, axis=0, return_index=True)
    return points[np.sort(first)]


def _unique_rows(rows: np.ndarray, radix: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a non-negative int array with two or more columns,
    as np.unique(axis=0).

    Returns the lexicographically sorted distinct rows and the index of
    each input row among them. Columns pack into one int64 key in radix
    ``radix`` (above every entry) for as long as the key fits; only when
    the next column would overflow is the key replaced by its dense rank,
    which keeps the order and stays below len(rows). Equal keys are equal
    rows, so one sort of the final key ranks the rows. Vertex ids come
    from scipy's int32 triangulation, so radix < 2**31, and the keys fit
    int64 for fewer than 2**32 rows: a 3-D level packs into one key.
    """
    keys = rows[:, 0].astype(np.int64)
    bound = radix  # every key is below bound
    for col in rows.T[1:]:
        if bound * radix > 2**63:
            keys, first = _rank(keys)
            bound = len(first)
        keys = keys * radix + col
        bound *= radix
    inverse, first = _rank(keys)
    return rows[first], inverse


def _rank(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense rank of each int64 key, and one index per rank, in rank order."""
    # the result is allocated ahead of the temporaries, so the heap can
    # give their space back once they are freed
    ranks = np.empty(len(keys), dtype=np.int64)
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    ranks[order] = np.cumsum(new) - 1
    return ranks, order[new]


def _face_ids(faces_of: dict[int, np.ndarray], k: int, fid, keep) -> tuple[np.ndarray, int]:
    """Ids and level of the faces on sorted vertex columns ``keep`` of the
    k-simplices ``fid``. Dropping the other columns highest first, one
    face level at a time, keeps the remaining ones in place."""
    for col in range(k, -1, -1):
        if col not in keep:
            fid = faces_of[k][fid, col]
            k -= 1
    return fid, k


def _subset_ball(
    balls: dict[int, Balls],
    faces_of: dict[int, np.ndarray],
    k: int,
    rows: slice,
    cols: np.ndarray,
    idx: tuple[int, ...],
) -> tuple[np.ndarray, Balls]:
    """Circumballs of vertex subset ``idx`` of the k-simplices ``rows``.

    The full vertex set, given as (k + 1, n, m) coordinate columns, is
    solved here and stored in ``balls[k]`` for the level above. A proper
    subset is a face already solved at a lower level.
    """
    if len(idx) == k + 1:
        for table, solved in zip(balls[k], ball_table(cols)):
            table[..., rows] = solved
        return np.arange(rows.start, rows.start + cols.shape[2]), balls[k]
    fid, level = _face_ids(faces_of, k, rows, idx)
    return fid, balls[level]


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solutions x of a[i] x = b[i], each bitwise as a lone np.linalg.solve.
    A singular system fails the whole stack; the systems with a zero LU
    pivot (slogdet sign 0) are then solved by least squares, one by one."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.empty(b.shape)
        singular = np.linalg.slogdet(a)[0] == 0
        x[~singular] = np.linalg.solve(a[~singular], b[~singular][..., None])[..., 0]
        for i in np.flatnonzero(singular):
            x[i] = np.linalg.lstsq(a[i], b[i], rcond=None)[0]
        return x


def _filtration(
    points: np.ndarray, simplices: dict[int, np.ndarray], faces_of: dict[int, np.ndarray]
) -> dict[int, np.ndarray]:
    """Minimum-enclosing-ball radius of every simplex, level by level.

    Each simplex's circumball is solved and tested against its own
    vertices once, so meb_radii reads the balls of a simplex's proper
    faces by face id instead of solving them again for every cofacet.
    Levels run in blocks of MEB_BLOCK simplices, which bounds the
    temporaries.
    """
    dim = points.shape[1]
    filtration = {0: np.zeros(points.shape[0])}
    balls: dict[int, Balls] = {}
    for k in range(1, dim + 1):
        m = simplices[k].shape[0]
        balls[k] = (np.empty((dim, m)), np.empty(m))
        filtration[k] = np.empty(m)
        for lo in range(0, m, MEB_BLOCK):
            rows = slice(lo, lo + MEB_BLOCK)
            cols = columns(points[simplices[k][rows]])
            # an (m, j, n) view whose columns meb_radii takes without a copy
            filtration[k][rows] = meb_radii(
                cols.transpose(2, 0, 1),
                partial(_subset_ball, balls, faces_of, k, rows, cols),
            )
    return filtration


@dataclass(eq=False)
class SimplicialComplex:
    """Full Delaunay complex with per-simplex filtration values.

    simplices[k] is an (m_k, k+1) array of sorted vertex indices, its rows
    in lexicographic order for every k < dim; filtration[k] the matching
    radii; faces_of[k] maps each k-simplex to the ids of its (k-1)-faces.
    Top-simplex volumes are precomputed. Row i of simplices[dim] is row i
    of tri.simplices sorted, so a find_simplex result indexes the top
    level directly.
    """

    points: np.ndarray
    simplices: dict[int, np.ndarray]
    filtration: dict[int, np.ndarray]
    faces_of: dict[int, np.ndarray]
    top_volumes: np.ndarray
    tri: Delaunay = field(repr=False)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def scale(self) -> float:
        extent = self.points.max(axis=0) - self.points.min(axis=0)
        return float(extent.max())

    _kdtree: cKDTree | None = field(default=None, repr=False)

    def kdtree(self) -> cKDTree:
        if self._kdtree is None:
            self._kdtree = cKDTree(self.points)
        return self._kdtree

    _hull_equations: np.ndarray | None = field(default=None, repr=False)

    def near_hull(self, qs: np.ndarray) -> np.ndarray:
        """Mask of the probes within the HULL_MARGIN band of the convex hull.

        Probes outside it, and NaN or infinite probes, are members of no
        filtered shape. The hull is built once; if qhull refuses it, every
        finite probe is kept.
        """
        if self._hull_equations is None:
            try:
                self._hull_equations = ConvexHull(self.points).equations
            except QhullError:
                self._hull_equations = np.empty((0, self.dim + 1))
        eq = self._hull_equations
        keep = np.isfinite(qs).all(axis=1)
        if not len(eq):
            return keep
        extent = self.points.max(axis=0) - self.points.min(axis=0)
        margin = HULL_MARGIN * max(float(np.linalg.norm(extent)), 1.0)
        normals, offsets = eq[:, :-1].T, eq[:, -1]
        step = max(1, HULL_BLOCK // len(eq))
        finite = np.flatnonzero(keep)
        for lo in range(0, len(finite), step):
            rows = finite[lo : lo + step]
            height = qs[rows] @ normals
            height += offsets
            keep[rows] = height.max(axis=1) <= margin
        return keep


def delaunay(
    points: np.ndarray, max_exact_dim: int = DEFAULT_MAX_EXACT_DIM
) -> SimplicialComplex:
    """Triangulate and filter a point cloud.

    Requires at least n+1 affinely independent points in dimension
    n <= max_exact_dim; duplicated rows are dropped first. Points the
    triangulator would skip as coplanar trigger a joggled retry so every
    input point ends up as a vertex.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise DegenerateInput("points must be a 2-D array")
    points = _dedupe_rows(points)
    n_pts, dim = points.shape
    if dim > max_exact_dim:
        raise DimensionTooHigh(dim, max_exact_dim)
    if n_pts < dim + 1:
        raise DegenerateInput(
            f"need at least {dim + 1} distinct points in dimension {dim}, got {n_pts}"
        )
    centered = points - points[0]
    if np.linalg.matrix_rank(centered) < dim:
        raise DegenerateInput("points are affinely dependent (not full-dimensional)")

    # Exact degeneracies (many points on one hull facet, cospherical sets)
    # make unjoggled qhull spend minutes merging facets, while a joggled
    # run picks one valid triangulation in seconds. Joggling perturbs only
    # qhull's internal copy: simplices index back into the exact input
    # coordinates, so filtration values and volumes are unaffected by it.
    # Small inputs try the unjoggled triangulation first so hand-sized
    # fixtures keep their canonical combinatorics.
    tri = None
    if n_pts <= 512:
        try:
            tri = Delaunay(points)
            if len(tri.coplanar):
                tri = None
        except QhullError:
            tri = None
    if tri is None:
        try:
            tri = Delaunay(points, qhull_options="QJ")
        except QhullError as exc:
            raise DegenerateInput(f"triangulation failed: {exc}") from exc
    if len(tri.coplanar):
        raise DegenerateInput("triangulation skipped input points even after joggling")

    tops = np.sort(tri.simplices, axis=1).astype(np.int64)
    edge_vecs = points[tops[:, 1:]] - points[tops[:, :1]]
    top_volumes = np.abs(np.linalg.det(edge_vecs)) / factorial(dim)

    simplices: dict[int, np.ndarray] = {dim: tops}
    faces_of: dict[int, np.ndarray] = {}
    for k in range(dim, 0, -1):
        cur = simplices[k]
        m = cur.shape[0]
        # row i of each simplex's block: its face without vertex column i
        keep = [[c for c in range(k + 1) if c != i] for i in range(k + 1)]
        stacked = cur[:, keep].reshape(m * (k + 1), k)
        if k == 1:
            face_ids = stacked[:, 0]
            simplices[0] = np.arange(points.shape[0], dtype=np.int64)[:, None]
        else:
            simplices[k - 1], face_ids = _unique_rows(stacked, n_pts)
        faces_of[k] = face_ids.reshape(m, k + 1)

    filtration = _filtration(points, simplices, faces_of)
    # clamp any floating-point leak so faces never outrank their cofacets
    for k in range(dim, 1, -1):
        np.minimum.at(
            filtration[k - 1],
            faces_of[k].ravel(),
            np.repeat(filtration[k], k + 1),
        )

    return SimplicialComplex(
        points=points,
        simplices=simplices,
        filtration=filtration,
        faces_of=faces_of,
        top_volumes=top_volumes,
        tri=tri,
    )


@dataclass(eq=False)
class AlphaShape:
    """The subcomplex of simplices with filtration value at most alpha."""

    complex: SimplicialComplex
    alpha: float
    included: dict[int, np.ndarray]
    measure: float
    component_count: int
    covers_vertices: bool

    @property
    def dim(self) -> int:
        return self.complex.dim

    @property
    def points(self) -> np.ndarray:
        return self.complex.points

    @property
    def affine_rank(self) -> int:
        """Always the dimension: delaunay refuses affinely dependent points."""
        return self.complex.dim

    def bbox(self) -> np.ndarray:
        pts = self.complex.points
        return np.stack([pts.min(axis=0), pts.max(axis=0)], axis=1)

    def _tol(self) -> float:
        return REL_TOL * max(self.complex.scale(), 1.0)

    def contains(self, q) -> bool:
        """Closed-set membership of one point, with relative tolerance."""
        q = np.asarray(q, dtype=float).ravel()
        if q.shape[0] != self.dim:
            raise DimensionMismatch(
                f"query has dimension {q.shape[0]}, shape lives in {self.dim}"
            )
        return bool(self.contains_batch(q[None, :])[0])

    def contains_batch(self, qs: np.ndarray) -> np.ndarray:
        """Vectorized membership with exact handling of boundary carriers."""
        qs = np.asarray(qs, dtype=float)
        if qs.ndim != 2 or qs.shape[1] != self.dim:
            raise DimensionMismatch(
                f"queries must have shape (m, {self.dim}), got {qs.shape}"
            )
        c = self.complex
        out = np.zeros(len(qs), dtype=bool)
        near = np.flatnonzero(c.near_hull(qs))
        if not near.size:
            return out
        qs = qs[near]

        dist, _ = c.kdtree().query(qs)
        hit = dist <= self._tol()

        located = c.tri.find_simplex(qs, tol=1e-12)
        pending = np.flatnonzero(~hit & (located >= 0))
        strict = self.included[c.dim][located[pending]]
        hit[pending] = strict
        # an excluded landing simplex can still touch the point on an
        # included face; resolve those through the carrier
        carried = pending[~strict]
        hit[carried] = self._carrier_members(qs[carried], located[carried])
        out[near] = hit
        return out

    def _carrier_members(self, qs: np.ndarray, tops: np.ndarray) -> np.ndarray:
        """Whether each probe's carrier in its landing top is included: the
        face on the vertices whose barycentric coordinate exceeds 1e-9, none
        if one is below -1e-7. Probes with one support walk faces_of together."""
        c = self.complex
        verts = c.tri.simplices[tops]
        coords = c.points[verts]
        lam_rest = _solve(
            (coords[:, 1:] - coords[:, :1]).transpose(0, 2, 1), qs - coords[:, 0]
        )
        lam = np.column_stack([1.0 - lam_rest.sum(axis=1), lam_rest])
        inside = ~(lam < -1e-7).any(axis=1)
        # columns in sorted vertex order, as simplices[dim] holds the tops
        support = np.take_along_axis(lam > 1e-9, np.argsort(verts, axis=1), axis=1)
        out = np.zeros(len(tops), dtype=bool)
        for keep in np.unique(support[inside], axis=0):
            rows = inside & (support == keep).all(axis=1)
            fid, level = _face_ids(c.faces_of, c.dim, tops[rows], np.flatnonzero(keep))
            out[rows] = self.included[level][fid]
        return out

    def included_counts(self) -> dict[int, int]:
        return {k: int(mask.sum()) for k, mask in self.included.items()}

    def to_dict(self) -> dict:
        c = self.complex
        return {
            "kind": "alpha_shape",
            "dim": c.dim,
            "alpha": self.alpha,
            "measure": self.measure,
            "component_count": self.component_count,
            "covers_vertices": self.covers_vertices,
            "n_points": c.n_points,
            "points": c.points,
            "included_counts": {str(k): v for k, v in self.included_counts().items()},
            "included_top_simplices": c.simplices[c.dim][self.included[c.dim]],
        }


def alpha_complex(c: SimplicialComplex, alpha: float) -> AlphaShape:
    """Filter the complex at the given alpha and summarize it.

    Vertices are always included (filtration 0). The measure is the summed
    volume of included top simplices; components are counted on the edge
    skeleton over all vertices, so an all-vertices shape at alpha=0 has one
    component per point.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    included = {k: c.filtration[k] <= alpha for k in c.filtration}
    measure = float(c.top_volumes[included[c.dim]].sum())

    edges = c.simplices[1][included[1]]
    n = c.n_points
    if edges.size:
        graph = coo_matrix(
            (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)
        )
        n_comp, _ = connected_components(graph, directed=False)
    else:
        n_comp = n

    used = np.zeros(n, dtype=bool)
    used[c.simplices[c.dim][included[c.dim]]] = True
    covers = used.all()

    return AlphaShape(
        complex=c,
        alpha=float(alpha),
        included=included,
        measure=measure,
        component_count=int(n_comp),
        covers_vertices=bool(covers),
    )
