"""Triangulated point clouds and their alpha-filtered subcomplexes.

``delaunay`` triangulates a full-dimensional point cloud, enumerates every
face of every dimension, and stamps each simplex with its filtration value:
the minimum-enclosing-ball radius of its vertex set. That is the
Delaunay-Cech radius (Bauer & Edelsbrunner, 2017): the complexes it filters
match Edelsbrunner & Muecke's circumball alpha complexes (1994) only up to
homotopy, so component counts agree, included tops and measures do not.
Keeping the simplices whose filtration is at most alpha yields the
alpha-filtered shape: tiny alpha leaves isolated vertices, huge alpha the
full convex hull.

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

A pattern p names the face of a k-simplex on its sorted vertex columns
{c : p >> c & 1}, for 0 < p < 2**(k + 1). One walk, ``_subset_faces``,
reads every pattern's face ids from faces_of, one gather per pattern; the
filtration reads the balls of a simplex's faces through it, and the
carrier table its faces' inclusion.

Membership has one path: a probe located in an excluded top is decided by
its carrier, read as bit p of the top's row in the alpha shape's carrier
table, p the carrier's pattern. ``alpha_complex`` fills the table, so no
face is searched for and the lattice is freed with the complex once alpha
is chosen.

The face lattice is built by one keyed routine for every level k >= 2:
each face's vertices pack into one int64 key straight from its simplex's
columns, so no face row is stacked, and one argsort ranks the keys, the
ranks written over them. The keys are re-ranked only where packing
another column would overflow, which a 3-D level never reaches. Only the keys are int64: vertex ids keep scipy's
int32, and face ids are int32 unless a level has 2**31 faces or more.
The filtration runs in blocks of MEB_BLOCK simplices, which with the
int32 lattice keeps the traced peak of ``delaunay`` near 1.5 x the
lattice's entry count x 8 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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


class Shape:
    """Closed-set membership, one contract for every shape kind: each
    ``contains_batch`` begins with ``qs = self.queries(qs)``, and one point
    is asked as a batch of one.

    A kind backed by ``points`` derives here, once, what they determine:
    the dimension, the box, the tolerances read off it and a KD-tree.
    """

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def contains(self, q) -> bool:
        return bool(self.contains_batch(np.reshape(np.asarray(q, float), (1, -1)))[0])

    def queries(self, qs) -> np.ndarray:
        """The batch ``qs`` as an (m, dim) float array."""
        qs = np.asarray(qs, dtype=float)
        if qs.ndim != 2 or qs.shape[1] != self.dim:
            raise DimensionMismatch(f"queries must have shape (m, {self.dim}), got {qs.shape}")
        return qs

    @cached_property
    def _box(self) -> np.ndarray:
        box = np.stack([self.points.min(axis=0), self.points.max(axis=0)], axis=1)
        box.flags.writeable = False
        return box

    def bbox(self) -> np.ndarray:
        """The (dim, 2) box [lo, hi] of the points, read-only."""
        return self._box

    @cached_property
    def hull_margin(self) -> float:
        """How far outside the convex hull a probe may lie and still be
        tested: HULL_MARGIN x the box's diagonal, taken as at least 1."""
        lo, hi = self.bbox().T
        return HULL_MARGIN * max(float(np.linalg.norm(hi - lo)), 1.0)

    @cached_property
    def snap_tol(self) -> float:
        """How near an input point a probe is a member without further
        test: REL_TOL x the box's widest extent, taken as at least 1."""
        lo, hi = self.bbox().T
        return REL_TOL * max(float((hi - lo).max()), 1.0)

    @cached_property
    def _kdtree(self) -> cKDTree:
        return cKDTree(self.points)

    def snapped(self, qs: np.ndarray) -> np.ndarray:
        """Mask of the probes within ``snap_tol`` of an input point."""
        return self._kdtree.query(qs)[0] <= self.snap_tol


def _dedupe_rows(points: np.ndarray) -> np.ndarray:
    """Stable keep-first removal of exactly repeated rows."""
    _, first = np.unique(points, axis=0, return_index=True)
    return points[np.sort(first)]


def _rank(keys: np.ndarray) -> np.ndarray:
    """Replace each int64 key by its dense rank, in place, and return one
    index per rank, in rank order.

    The keys are read in sorted order 2**16 at a time, so no sorted copy
    of them all is held beside ``keys`` and the order. A block's ranks go
    over its own keys, none of which a later block reads."""
    order = np.argsort(keys)
    new = np.empty(len(keys), dtype=bool)
    count, last = 0, None
    for lo in range(0, len(keys), 1 << 16):
        rows = order[lo : lo + (1 << 16)]
        block = keys[rows]
        fresh = new[lo : lo + len(rows)]
        fresh[0] = last is None or block[0] != last
        np.not_equal(block[1:], block[:-1], out=fresh[1:])
        last = block[-1]
        np.cumsum(fresh, out=block)
        block += count - 1
        count = block[-1] + 1
        keys[rows] = block
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


def _subset_faces(
    faces_of: dict[int, np.ndarray], k: int, fid
) -> dict[int, tuple[int, np.ndarray]]:
    """The face of each of the k-simplices ``fid`` on every nonempty
    pattern of vertex columns, as {pattern: (level, ids)}.

    A pattern's face ids are one faces_of gather from those of its parent,
    the pattern with its highest missing column added. The parent misses
    only columns below that one, so the column sits at its own position
    less the k - level columns the parent misses.
    """
    full = 2 ** (k + 1) - 1
    faces = {full: (k, fid)}
    for pattern in range(full - 1, 0, -1):
        col = (~pattern & full).bit_length() - 1
        level, ids = faces[pattern | 1 << col]
        faces[pattern] = level - 1, faces_of[level][ids, col - k + level]
    return faces


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
    vertices once, where meb_radii asks for its full vertex set, and below
    the top level stored for the level above; the ball of a proper subset
    is read by face id from the level already solved, instead of solving
    it again for every cofacet. Levels run in blocks of MEB_BLOCK
    simplices, which bounds the temporaries.
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
            faces = _subset_faces(faces_of, k, rows)

            def subset_ball(idx: tuple[int, ...]) -> tuple[np.ndarray, Balls]:
                level, ids = faces[sum(1 << c for c in idx)]
                if level < k:
                    return ids, balls[level]
                solved = ball_table(cols)
                if k == dim:
                    return np.arange(cols.shape[2]), solved
                for table, block in zip(balls[k], solved):
                    table[..., rows] = block
                return np.arange(lo, lo + cols.shape[2]), balls[k]

            # an (m, j, n) view whose columns meb_radii takes without a copy
            filtration[k][rows] = meb_radii(cols.transpose(2, 0, 1), subset_ball)
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
    if np.linalg.matrix_rank(points - points[0]) < dim:
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
    """The subcomplex of simplices with filtration value at most alpha. It
    holds only what membership and ``to_dict`` read, its hull its own, so a
    complex no caller keeps is freed once alpha is chosen: ``carriers``
    from :func:`_carrier_table` and the included simplex count of every
    level."""

    points: np.ndarray
    tri: Delaunay = field(repr=False)
    alpha: float
    carriers: np.ndarray
    included_counts: dict[int, int]
    measure: float
    component_count: int
    covers_vertices: bool

    @property
    def affine_rank(self) -> int:
        """Always the dimension: delaunay refuses affinely dependent points."""
        return self.dim

    @cached_property
    def _hull_equations(self) -> np.ndarray:
        """The convex hull's facets, none if qhull refuses the hull."""
        try:
            return ConvexHull(self.points).equations
        except QhullError:
            return np.empty((0, self.dim + 1))

    def near_hull(self, qs: np.ndarray) -> np.ndarray:
        """Mask of the probes within the ``hull_margin`` band of the convex
        hull.

        Probes outside it, and NaN or infinite probes, are members of no
        filtered shape. The hull is built once; if qhull refuses it, every
        finite probe is kept.
        """
        eq = self._hull_equations
        keep = np.isfinite(qs).all(axis=1)
        if not len(eq):
            return keep
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
            keep[rows] = height.max(axis=1) <= self.hull_margin
        return keep

    def contains_batch(self, qs: np.ndarray) -> np.ndarray:
        """Vectorized membership with exact handling of boundary carriers.
        Verdicts can depend on batch order: find_simplex starts each walk
        where the last one ended, and overlapping joggled tops can hand a
        probe another top and carrier. Callers keep each batch and its order."""
        qs = self.queries(qs)
        out = np.zeros(len(qs), dtype=bool)
        near = np.flatnonzero(self.near_hull(qs))
        if not near.size:
            return out
        qs = qs[near]

        hit = self.snapped(qs)
        located = self.tri.find_simplex(qs, tol=1e-12)
        pending = np.flatnonzero(~hit & (located >= 0))
        strict = self._included(located[pending], 2 ** (self.dim + 1) - 1)
        hit[pending] = strict
        # an excluded landing simplex can still touch the point on an
        # included face; resolve those through the carrier
        carried = pending[~strict]
        hit[carried] = self._carrier_members(qs[carried], located[carried])
        out[near] = hit
        return out

    def _included(self, tops, patterns) -> np.ndarray:
        """Whether the face of each top on the vertex columns of its pattern
        is included: bit ``patterns`` of the tops' carrier rows."""
        return (self.carriers[tops, patterns >> 3] >> (patterns & 7) & 1).astype(bool)

    def _carrier_members(self, qs: np.ndarray, tops: np.ndarray) -> np.ndarray:
        """Whether each probe's carrier in its landing top is included: the
        face on the vertices whose barycentric coordinate exceeds 1e-9, none
        if one is below -1e-7."""
        verts = self.tri.simplices[tops]
        coords = self.points[verts]
        lam_rest = _solve(
            (coords[:, 1:] - coords[:, :1]).transpose(0, 2, 1), qs - coords[:, 0]
        )
        lam = np.column_stack([1.0 - lam_rest.sum(axis=1), lam_rest])
        inside = ~(lam < -1e-7).any(axis=1)
        # columns in sorted vertex order, as simplices[dim] holds the tops
        support = np.take_along_axis(lam > 1e-9, np.argsort(verts, axis=1), axis=1)
        return inside & self._included(tops, support @ (1 << np.arange(self.dim + 1)))

    def to_dict(self) -> dict:
        return {
            "kind": "alpha_shape",
            "dim": self.dim,
            "alpha": self.alpha,
            "measure": self.measure,
            "component_count": self.component_count,
            "covers_vertices": self.covers_vertices,
            "n_points": len(self.points),
            "points": self.points,
            "included_counts": {str(k): v for k, v in self.included_counts.items()},
            "included_top_simplices": np.sort(
                self.tri.simplices[self._included(slice(None), 2 ** (self.dim + 1) - 1)],
                axis=1,
            ),
        }


def _carrier_table(c: SimplicialComplex, included: dict[int, np.ndarray]) -> np.ndarray:
    """One uint8 row per top, bit p of which says whether the top's face
    on pattern p is ``included``; bit 0, the empty face, is unset.

    An included top has every face included, since inclusion is
    face-closed, so only the excluded tops' faces are read, from
    :func:`_subset_faces`.
    """
    dim = c.dim
    nonempty = np.packbits(np.arange(2 ** (dim + 1)) > 0, bitorder="little")
    table = included[dim][:, None] * nonempty
    tops = np.flatnonzero(~included[dim])
    for pattern, (level, fid) in _subset_faces(c.faces_of, dim, tops).items():
        table[tops, pattern >> 3] |= included[level][fid].view(np.uint8) << (pattern & 7)
    return table


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
    return AlphaShape(
        points=c.points,
        tri=c.tri,
        alpha=float(alpha),
        carriers=_carrier_table(c, included),
        included_counts={k: int(mask.sum()) for k, mask in included.items()},
        measure=float(c.top_volumes[included[c.dim]].sum()),
        component_count=c.n_points - int(np.searchsorted(c.bottlenecks, alpha, "right")),
        covers_vertices=bool(c.cover_radius <= alpha),
    )
