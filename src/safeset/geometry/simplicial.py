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
  edges, so the component count at every alpha is read off one minimum
  spanning tree of the edges;
* a point belongs to the filtered shape iff its carrier, the unique
  minimal simplex of the triangulation containing it, is included, since
  any larger included simplex would force the carrier in as a face.

Membership has one path: a probe located in an excluded top is decided by
its carrier, whose id is read off faces_of by dropping the top's
unsupported vertex columns, so no face is searched for.

The face lattice is built by one keyed routine for every level k >= 2
(the filtration over it is Edelsbrunner & Muecke's, "Three-dimensional
alpha shapes", 1994): each face's vertices pack into one int64 key
straight from its simplex's columns, so no face row is stacked, and one
argsort ranks the keys, the ranks written over them. The keys are
re-ranked only where packing another column would overflow, which a 3-D
level never reaches. Only the keys are int64: vertex ids keep scipy's
int32, and face ids are int32 unless a level has 2**31 faces or more.
The filtration runs in blocks of MEB_BLOCK simplices, which with the
int32 lattice keeps the traced peak of ``delaunay`` near 1.5 x the
lattice's entry count x 8 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import factorial

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import ConvexHull, Delaunay, QhullError, cKDTree

from ..errors import DegenerateInput, DimensionMismatch, DimensionTooHigh
from .minball import Balls, ball_table, columns, meb_radii

DEFAULT_MAX_EXACT_DIM = 6
REL_TOL = 1e-9
# Probes more than hull_margin outside the convex hull are refused before
# point location. They are members on no path: find_simplex(tol=1e-12)
# accepts a point at most its broad barycentric tolerance sqrt(1e-12) =
# 1e-6 outside a simplex, which puts it within 1e-6 x diameter of the hull,
# and the vertex snap reaches snap_tol.
HULL_MARGIN = 1e-5
# probe x facet products per half-space block: 512 KiB of float64 heights,
# held beside find_simplex's cached tri.transform while slices are probed
HULL_BLOCK = 1 << 16
MEB_BLOCK = 8_192  # simplices per filtration block


def hull_margin(lo: np.ndarray, hi: np.ndarray) -> float:
    """How far outside a convex hull a probe may lie and still be tested,
    for the alpha shape and the convex wrap alike: HULL_MARGIN x the
    diagonal of the bounding box [lo, hi], taken as at least 1."""
    return HULL_MARGIN * max(float(np.linalg.norm(hi - lo)), 1.0)


def snap_tol(lo: np.ndarray, hi: np.ndarray) -> float:
    """How near an input point a probe is a member without further test,
    for the alpha shape and the convex wrap alike: REL_TOL x the widest
    extent of the bounding box [lo, hi], taken as at least 1."""
    return REL_TOL * max(float((hi - lo).max()), 1.0)


class Shape:
    """Closed-set membership, one contract for every shape kind: each
    ``contains_batch`` begins with ``qs = self.queries(qs)``, and one point
    is asked as a batch of one."""

    def contains(self, q) -> bool:
        return bool(self.contains_batch(np.reshape(np.asarray(q, float), (1, -1)))[0])

    def queries(self, qs) -> np.ndarray:
        """The batch ``qs`` as an (m, dim) float array."""
        qs = np.asarray(qs, dtype=float)
        if qs.ndim != 2 or qs.shape[1] != self.dim:
            raise DimensionMismatch(f"queries must have shape (m, {self.dim}), got {qs.shape}")
        return qs


def _dedupe_rows(points: np.ndarray) -> np.ndarray:
    """Stable keep-first removal of exactly repeated rows."""
    _, first = np.unique(points, axis=0, return_index=True)
    return points[np.sort(first)]


def _rank(keys: np.ndarray) -> np.ndarray:
    """Replace each int64 key by its dense rank, in place, and return one
    index per rank, in rank order."""
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    # the running count of new keys takes the sorted keys' place; an int64
    # copy first, as a bool cumsum into it would cast through a temporary
    ordered[...] = new
    np.cumsum(ordered, out=ordered)
    ordered -= 1
    keys[order] = ordered
    del ordered
    return order[new]


def _id_dtype(count: int) -> type:
    """The type of the ids of a level of ``count`` faces: int32, or int64
    for a level of 2**31 faces or more."""
    return np.int32 if count < 2**31 else np.int64


def _faces(cur: np.ndarray, n_pts: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct faces of the sorted k-simplices ``cur`` (k >= 2), in
    lexicographic order, and each simplex's face ids: entry c is the face
    without vertex column c.

    Each face's key packs its vertices in radix ``n_pts`` straight from
    the simplex columns: at step t, column t goes to the faces that keep
    it and column t + 1 to those that dropped a column at or before t.
    Before a step would overflow int64, the keys are replaced by their
    dense rank, which keeps their order and stays below their count.
    Equal keys are equal faces, so one rank of the final keys numbers the
    faces, and each distinct face is gathered from one simplex holding it.
    Vertex ids come from scipy's int32 triangulation, so n_pts < 2**31: a
    3-D level packs into one key. The face rows keep ``cur``'s vertex type
    and the face ids take :func:`_id_dtype`; only the keys are int64.
    """
    m, width = cur.shape
    drops = np.arange(width)  # face c drops vertex column c
    keys = np.zeros((m, width), dtype=np.int64)
    bound = 1  # every key is below bound
    for t in range(width - 1):
        if bound * n_pts > 2**63:
            bound = len(_rank(keys.ravel()))
        keys *= n_pts
        keys += cur[:, t + (drops <= t)]
        bound *= n_pts
    first = _rank(keys.ravel())  # the keys are now the face ids
    ids = keys.astype(_id_dtype(len(first)))
    del keys  # before the gather, whose temporaries would otherwise set the peak
    # flat index i * width + c of face c of simplex i: gather its columns
    dropped = first % width
    first -= dropped
    faces = np.empty((len(first), width - 1), dtype=cur.dtype)
    for t in range(width - 1):
        np.take(cur, first + t + (dropped <= t), out=faces[:, t])
    return faces, ids


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
    solved here and, below the top level, stored in ``balls[k]`` for the
    level above; no simplex has a top as a face. A proper subset is a face
    already solved at a lower level.
    """
    if len(idx) == k + 1:
        solved = ball_table(cols)
        if k not in balls:
            return np.arange(cols.shape[2]), solved
        for table, block in zip(balls[k], solved):
            table[..., rows] = block
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
        if k < dim:
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


def _bottlenecks(n_pts: int, edges: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Sorted filtration values of a minimum spanning tree of the edges,
    whose edges at most alpha join what all edges at most alpha join (Hu,
    "The maximum capacity route problem", 1961). Each edge weighs its own
    rank in filtration order, from 1, as scipy reads a zero weight as no edge."""
    order = np.argsort(radii)
    rank = np.empty(len(order))
    rank[order] = np.arange(1, len(order) + 1)
    graph = coo_matrix((rank, (edges[:, 0], edges[:, 1])), shape=(n_pts, n_pts))
    tree = minimum_spanning_tree(graph).data.astype(np.intp)
    return radii[order[np.sort(tree) - 1]]


@dataclass(eq=False)
class SimplicialComplex:
    """Full Delaunay complex with per-simplex filtration values.

    simplices[k] is an (m_k, k+1) int32 array of sorted vertex indices, its
    rows in lexicographic order for every k < dim; filtration[k] the
    matching radii; faces_of[k] maps each k-simplex to the ids of its
    (k-1)-faces, of type :func:`_id_dtype`.
    Top-simplex volumes are precomputed, and so are the thresholds of alpha
    feasibility: bottlenecks, from :func:`_bottlenecks`, and cover_radius,
    the largest over vertices of their smallest top filtration. Row i of
    simplices[dim] is row i of tri.simplices sorted, so a find_simplex
    result indexes the top level directly.
    """

    points: np.ndarray
    simplices: dict[int, np.ndarray]
    filtration: dict[int, np.ndarray]
    faces_of: dict[int, np.ndarray]
    top_volumes: np.ndarray
    bottlenecks: np.ndarray
    cover_radius: float
    tri: Delaunay = field(repr=False)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    _kdtree: cKDTree | None = field(default=None, repr=False)

    def kdtree(self) -> cKDTree:
        if self._kdtree is None:
            self._kdtree = cKDTree(self.points)
        return self._kdtree

    _hull_equations: np.ndarray | None = field(default=None, repr=False)

    def near_hull(self, qs: np.ndarray) -> np.ndarray:
        """Mask of the probes within the :func:`hull_margin` band of the
        convex hull.

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
        margin = hull_margin(self.points.min(axis=0), self.points.max(axis=0))
        normals, offsets = np.ascontiguousarray(eq[:, :-1].T), eq[:, -1]
        step = max(1, HULL_BLOCK // len(eq))
        finite = np.flatnonzero(keep)
        buffer = np.empty((min(step, len(finite)), len(eq)))
        for lo in range(0, len(finite), step):
            rows = finite[lo : lo + step]
            # over contiguous normals, einsum adds each height's products in
            # coordinate order, so a probe's height does not depend on its
            # block; a BLAS product's rounding follows the block's shape
            height = np.einsum("ij,jk->ik", qs[rows], normals, out=buffer[: len(rows)])
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

    The lattice is read off the sorted tops alone, level by level: the
    faces of every level k >= 2 come from :func:`_faces` over the level
    above, the vertices are the input rows, and an edge's faces are its
    two vertices, column c's face being the other column.
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

    tops = np.sort(tri.simplices, axis=1)  # scipy's int32 vertex ids
    edge_vecs = points[tops[:, 1:]] - points[tops[:, :1]]
    top_volumes = np.abs(np.linalg.det(edge_vecs)) / factorial(dim)
    del edge_vecs

    simplices: dict[int, np.ndarray] = {dim: tops}
    faces_of: dict[int, np.ndarray] = {}
    for k in range(dim, 1, -1):
        simplices[k - 1], faces_of[k] = _faces(simplices[k], n_pts)
    simplices[0] = np.arange(n_pts, dtype=tops.dtype)[:, None]
    faces_of[1] = simplices[1][:, ::-1]

    filtration = _filtration(points, simplices, faces_of)
    # clamp any floating-point leak so faces never outrank their cofacets
    for k in range(dim, 1, -1):
        np.minimum.at(
            filtration[k - 1],
            faces_of[k].ravel(),
            np.repeat(filtration[k], k + 1),
        )
    cover = np.full(n_pts, np.inf)
    np.minimum.at(cover, tops, filtration[dim][:, None])

    return SimplicialComplex(
        points=points,
        simplices=simplices,
        filtration=filtration,
        faces_of=faces_of,
        top_volumes=top_volumes,
        bottlenecks=_bottlenecks(n_pts, simplices[1], filtration[1]),
        cover_radius=float(cover.max()),
        tri=tri,
    )


@dataclass(eq=False)
class AlphaShape(Shape):
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

    def contains_batch(self, qs: np.ndarray) -> np.ndarray:
        """Vectorized membership with exact handling of boundary carriers.
        Verdicts can depend on batch order: find_simplex starts each walk
        where the last one ended, and overlapping joggled tops can hand a
        probe another top and carrier. Callers keep each batch and its order."""
        qs = self.queries(qs)
        c = self.complex
        out = np.zeros(len(qs), dtype=bool)
        near = np.flatnonzero(c.near_hull(qs))
        if not near.size:
            return out
        qs = qs[near]

        dist, _ = c.kdtree().query(qs)
        hit = dist <= snap_tol(*self.bbox().T)

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
    volume of included top simplices. There are n_points components less
    one per spanning-tree bottleneck at most alpha, so an all-vertices shape
    at alpha=0 has one per point; every vertex is in an included top once
    alpha reaches the cover radius.
    """
    if not alpha >= 0:
        raise ValueError("alpha must be non-negative")
    included = {k: c.filtration[k] <= alpha for k in c.filtration}
    measure = float(c.top_volumes[included[c.dim]].sum())
    return AlphaShape(
        complex=c,
        alpha=float(alpha),
        included=included,
        measure=measure,
        component_count=c.n_points - int(np.searchsorted(c.bottlenecks, alpha, "right")),
        covers_vertices=bool(c.cover_radius <= alpha),
    )
