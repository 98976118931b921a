"""Filtered triangulations, wrap search, clustering, volumes, hull wraps."""

import gc
import hashlib
import math
import tracemalloc
import weakref
from dataclasses import fields
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull, Delaunay, cKDTree

import safeset.geometry.hullshape as hullshape
import safeset.geometry.search as search
import safeset.geometry.simplicial as simplicial
import safeset.pipeline as pipeline
from builders import face_ids
from safeset.errors import (
    DegenerateInput,
    DimensionMismatch,
    DimensionTooHigh,
    EmptySpace,
    InfeasibleAtHi,
)
from safeset.geometry import (
    AlphaShape,
    ConvexHullShape,
    ShapeUnion,
    alpha_complex,
    circumballs,
    delaunay,
    hierarchical_cluster,
    mc_volume,
    meb_radii,
    search_optimal_alpha,
)
from safeset.geometry.montecarlo import McVolume
from safeset.geometry.simplicial import (
    HULL_MARGIN,
    _faces,
    _id_dtype,
    _solve,
    _subset_faces,
    hull_margin,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


# --- independent 2-D oracles -------------------------------------------------

def cross_2d(u, v):
    return float(u[0] * v[1] - u[1] * v[0])


def circumcircle_2d(a, b, c):
    """Closed-form circumcenter of a non-degenerate planar triangle."""
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    ux = ((a @ a) * (b[1] - c[1]) + (b @ b) * (c[1] - a[1]) + (c @ c) * (a[1] - b[1])) / d
    uy = ((a @ a) * (c[0] - b[0]) + (b @ b) * (a[0] - c[0]) + (c @ c) * (b[0] - a[0])) / d
    center = np.array([ux, uy])
    return center, float(np.linalg.norm(a - center))


def brute_delaunay_triangles(pts):
    """Triples whose circumcircle contains no other point strictly inside."""
    out = set()
    for tri in combinations(range(len(pts)), 3):
        a, b, c = pts[tri[0]], pts[tri[1]], pts[tri[2]]
        if abs(cross_2d(b - a, c - a)) < 1e-12:
            continue
        center, r = circumcircle_2d(a, b, c)
        rest = [i for i in range(len(pts)) if i not in tri]
        dist = np.linalg.norm(pts[rest] - center, axis=1)
        if (dist >= r - 1e-9).all():
            out.add(tri)
    return out


def brute_meb_radius_2d(tri):
    """Minimum enclosing circle of three points, from scratch."""
    best = math.inf
    pts = [np.asarray(p, dtype=float) for p in tri]
    for i, j in combinations(range(3), 2):
        c = (pts[i] + pts[j]) / 2.0
        r = float(np.linalg.norm(pts[i] - c))
        if all(np.linalg.norm(p - c) <= r + 1e-9 for p in pts):
            best = min(best, r)
    if abs(cross_2d(pts[1] - pts[0], pts[2] - pts[0])) > 1e-12:
        _, r = circumcircle_2d(*pts)
        best = min(best, r)
    return best


def reference_meb(pts):
    """Enumerated minimum enclosing radii: every subset's circumball, with
    the cover test on np.linalg.norm distances."""
    m, j, _ = pts.shape
    best = np.full(m, np.inf) if j > 1 else np.zeros(m)
    for size in range(2, j + 1):
        for idx in combinations(range(j), size):
            centers, radii = circumballs(pts[:, idx, :])
            dist = np.linalg.norm(pts - centers[:, None, :], axis=2).max(axis=1)
            better = (dist <= radii * (1.0 + 1e-9) + 1e-12) & (radii < best)
            best[better] = radii[better]
    return best


def reference_circumball(item):
    """Center and radius of one item from its perpendicular-bisector
    equations 2 (p_a - p_0) . u = |p_a - p_0|^2, solved by lstsq: the
    minimum-norm u lies in the span of the p_a - p_0, so p_0 + u is the
    center within the affine hull."""
    d = item[1:] - item[0]
    u = np.linalg.lstsq(2.0 * d, (d * d).sum(axis=1), rcond=None)[0]
    return item[0] + u, float(np.linalg.norm(u))


def layered_cloud(seed, lines=1, per_line=1):
    """680 points on three parallel planes, each in collinear runs: the
    joggled triangulation of such a cloud is mostly flat tetrahedra, as
    on the battery, whose full circumballs do not exist. ``lines`` and
    ``per_line`` multiply the runs per plane and the points per run."""
    rng = np.random.default_rng(seed)
    runs = [(y, n * per_line) for y, k, n in ((0.0, 4, 80), (0.5, 2, 20), (1.0, 4, 80))
            for _ in range(k * lines)]
    return np.vstack([
        np.column_stack([np.sort(rng.random(n)), np.full(n, y), np.full(n, rng.random())])
        for y, n in runs
    ])


def reference_lattice(c):
    """Faces and face ids of c's triangulation as int64, built level by
    level with np.unique(axis=0)."""
    points, dim = c.points, c.dim
    simplices = {dim: np.sort(c.tri.simplices, axis=1).astype(np.int64)}
    faces_of = {}
    for k in range(dim, 0, -1):
        cur = simplices[k]
        stacked = np.stack([np.delete(cur, i, axis=1) for i in range(k + 1)], axis=1)
        stacked = stacked.reshape(-1, k)
        if k == 1:
            simplices[0] = np.arange(len(points), dtype=np.int64)[:, None]
            ids = stacked[:, 0]
        else:
            simplices[k - 1], ids = np.unique(stacked, axis=0, return_inverse=True)
        faces_of[k] = ids.reshape(len(cur), k + 1)
    return simplices, faces_of


def reference_complex(c):
    """Faces, face ids and filtration of c's triangulation, built level by
    level with np.unique(axis=0) and reference_meb."""
    points, dim = c.points, c.dim
    simplices, faces_of = reference_lattice(c)
    filtration = {0: np.zeros(len(points))}
    for k in range(1, dim + 1):
        filtration[k] = reference_meb(points[simplices[k]])
    for k in range(dim, 1, -1):
        np.minimum.at(
            filtration[k - 1], faces_of[k].ravel(), np.repeat(filtration[k], k + 1)
        )
    return simplices, faces_of, filtration


def assert_matches_reference(c):
    """c's faces, face ids and filtration equal reference_complex's, bit
    for bit."""
    simplices, faces_of, filtration = reference_complex(c)
    for k in range(c.dim + 1):
        assert np.array_equal(c.simplices[k], simplices[k])
        assert np.array_equal(c.filtration[k], filtration[k])
    for k in range(1, c.dim + 1):
        assert np.array_equal(c.faces_of[k], faces_of[k])


def reference_carrier_included(c, shape, q, top):
    """Membership of one probe through the minimal containing simplex of
    its landing top in complex c: its own solve, and the carrier looked up
    by value."""
    verts = c.tri.simplices[top]
    coords = c.points[verts]
    # barycentric coordinates of q in this simplex
    a = (coords[1:] - coords[0]).T
    try:
        lam_rest = np.linalg.solve(a, q - coords[0])
    except np.linalg.LinAlgError:
        lam_rest = np.linalg.lstsq(a, q - coords[0], rcond=None)[0]
    lam = np.concatenate([[1.0 - lam_rest.sum()], lam_rest])
    if (lam < -1e-7).any():
        return False
    support = lam > 1e-9
    if support.all():
        return bool(c.filtration[c.dim][top] <= shape.alpha)
    carrier = np.sort(verts[support])
    k = len(carrier) - 1
    (fid,) = np.flatnonzero((c.simplices[k] == carrier).all(axis=1))
    return bool(c.filtration[k][fid] <= shape.alpha)


def reference_membership(c, shape, qs):
    """Exact membership in c's shape with find_simplex and the carrier run
    per probe."""
    dist, _ = cKDTree(c.points).query(qs)
    extent = c.points.max(axis=0) - c.points.min(axis=0)
    exact = dist <= 1e-9 * max(float(extent.max()), 1.0)
    located = c.tri.find_simplex(qs, tol=1e-12)
    for i in np.flatnonzero(~exact & (located >= 0)):
        top = int(located[i])
        exact[i] = c.filtration[c.dim][top] <= shape.alpha or reference_carrier_included(
            c, shape, qs[i], top
        )
    return exact


def find(parent, a):
    """Root of a in the union-find forest ``parent``, halving the path."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def union_find_components(c, alpha):
    """Components of the simplices of filtration at most alpha, each joined
    vertex by vertex with union-find."""
    parent = list(range(c.n_points))
    for k in range(1, c.dim + 1):
        for row in c.simplices[k][c.filtration[k] <= alpha]:
            for u, v in zip(row, row[1:]):
                parent[find(parent, int(u))] = find(parent, int(v))
    return len({find(parent, i) for i in range(c.n_points)})


def covered_vertices(c, alpha):
    """Whether every vertex lies in a top simplex of filtration <= alpha."""
    used = np.zeros(c.n_points, dtype=bool)
    used[c.simplices[c.dim][c.filtration[c.dim] <= alpha]] = True
    return bool(used.all())


def kruskal_weights(c):
    """Sorted edge filtration values of a minimum spanning tree, grown by
    Kruskal's algorithm with union-find; every minimum spanning tree has
    the same sorted weights."""
    parent = list(range(c.n_points))
    out = []
    for i in np.argsort(c.filtration[1], kind="stable"):
        u, v = (find(parent, int(x)) for x in c.simplices[1][i])
        if u != v:
            parent[u] = v
            out.append(c.filtration[1][i])
    return np.array(out)


def reference_search(c, lo, hi, threshold):
    """The per-probe bisection: every probe filters c, counts its
    components with connected_components over the included edges and
    masks the vertices of included tops. Returns the smallest feasible
    alpha probed (None when hi is infeasible) and the probes."""
    probes = []

    def probe(a):
        edges = c.simplices[1][c.filtration[1] <= a]
        graph = coo_matrix(
            (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(c.n_points,) * 2
        )
        ok = connected_components(graph, directed=False)[0] == 1 and covered_vertices(c, a)
        probes.append((a, ok))
        return ok

    if not probe(hi):
        return None, probes
    best, cur_lo, cur_hi = hi, lo, hi
    while cur_hi - cur_lo > threshold:
        mid = math.sqrt(cur_lo * cur_hi)
        if probe(mid):
            best = cur_hi = mid
        else:
            cur_lo = mid
    return best, probes


def planes_cloud(rng, dim, n):
    """About n points on 2-4 parallel hyperplanes (last coordinate fixed),
    each in collinear runs along the first axis, like layered_cloud in
    any dimension."""
    levels = rng.random(rng.integers(2, 5))
    per_run = max(2, n // (len(levels) * (dim + 1)))
    blocks = []
    for level in levels:
        for _ in range(dim + 1):
            run = np.empty((per_run, dim))
            run[:, 0] = rng.random(per_run)
            run[:, 1:-1] = rng.random(dim - 2)
            run[:, -1] = level
            blocks.append(run)
    return np.vstack(blocks)


class TestCircumballs:
    def test_pair_is_diameter_ball(self):
        centers, radii = circumballs(np.array([[[0.0, 0.0], [2.0, 0.0]]]))
        assert centers[0].tolist() == [1.0, 0.0]
        assert radii[0] == pytest.approx(1.0)

    def test_three_on_unit_circle(self):
        tri = np.array([[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]])
        centers, radii = circumballs(tri)
        assert np.allclose(centers[0], [0.0, 0.0], atol=1e-12)
        assert radii[0] == pytest.approx(1.0)

    def test_collinear_triple_has_no_circumball(self):
        tri = np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
        _, radii = circumballs(tri)
        assert radii[0] == math.inf

    def test_singular_item_does_not_poison_batch(self):
        batch = np.array(
            [
                [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],   # collinear
                [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],  # on the unit circle
            ]
        )
        centers, radii = circumballs(batch)
        assert radii[0] == math.inf
        assert radii[1] == pytest.approx(1.0)
        assert np.allclose(centers[1], [0.0, 0.0], atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), j=st.integers(2, 7), data=st.data())
    def test_matches_bisector_reference(self, seed, j, data):
        n = data.draw(st.integers(max(j - 1, 1), 6), label="n")
        rng = np.random.default_rng(seed)
        # dyadic coordinates, so the dependent items below are exact
        batch = rng.integers(-64, 65, (16, j, n)) / 8.0
        dependent = [0]
        batch[0, -1] = batch[0, 0]  # a repeated point
        if j >= 3:
            batch[1, 2] = 2.0 * batch[1, 1] - batch[1, 0]  # a collinear triple
            dependent.append(1)
        if j >= 4 and n >= 3:
            batch[2, 3] = batch[2, 1] + batch[2, 2] - batch[2, 0]  # four coplanar
            dependent.append(2)
        centers, radii = circumballs(batch)
        for i, item in enumerate(batch):
            one_center, one_radius = circumballs(batch[i : i + 1])
            assert np.array_equal(one_center[0], centers[i])
            assert one_radius[0] == radii[i]
            if i in dependent:
                assert radii[i] == math.inf
                continue
            sv = np.linalg.svd(item[1:] - item[0], compute_uv=False)
            if sv[-1] <= 1e-3 * sv[0]:
                continue  # ill-conditioned: only the batch independence above
            want_center, want_radius = reference_circumball(item)
            scale = np.abs(item).max() + np.abs(want_center).max()
            assert np.abs(centers[i] - want_center).max() <= 1e-9 * scale
            assert radii[i] == pytest.approx(want_radius, rel=1e-9)
            spread = np.linalg.norm(item - centers[i], axis=1)
            assert np.allclose(spread, radii[i], rtol=1e-9, atol=0.0)


class TestMebRadii:
    def test_hand_values(self):
        right = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]])
        assert meb_radii(right)[0] == pytest.approx(math.sqrt(2) / 2)
        obtuse = np.array([[[0.0, 0.0], [1.0, 0.0], [0.5, 0.1]]])
        assert meb_radii(obtuse)[0] == pytest.approx(0.5)
        equilateral = np.array(
            [[[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]]
        )
        assert meb_radii(equilateral)[0] == pytest.approx(1 / math.sqrt(3))
        square = SQUARE[None, :, :]
        assert meb_radii(square)[0] == pytest.approx(math.sqrt(2) / 2)

    def test_collinear_triple_uses_diameter_subset(self):
        tri = np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
        assert meb_radii(tri)[0] == pytest.approx(1.0)

    def test_single_point_zero(self):
        assert meb_radii(np.zeros((3, 1, 2))).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("j,n", [(2, 3), (3, 2), (3, 3), (4, 3), (5, 4)])
    def test_matches_norm_reference_bit_for_bit(self, j, n):
        rng = np.random.default_rng(10 * j + n)
        pts = rng.random((400, j, n))
        pts[:40, -1] = pts[:40, 0] + 1e-7 * rng.random((40, n))  # near-degenerate
        assert np.array_equal(meb_radii(pts), reference_meb(pts))
        # far from the origin, a rounded center leaves some circumballs
        # missing their own points, so they must not cover a superset
        far = pts + 1e7
        assert np.array_equal(meb_radii(far), reference_meb(far))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_brute_force_on_random_triangles(self, seed):
        rng = np.random.default_rng(seed)
        tris = rng.random((8, 3, 2)) * 10.0
        got = meb_radii(tris)
        want = [brute_meb_radius_2d(t) for t in tris]
        assert np.allclose(got, want, atol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        theta=st.floats(-np.pi, np.pi),
        tx=st.floats(-100.0, 100.0),
        ty=st.floats(-100.0, 100.0),
    )
    def test_rigid_motion_invariance(self, seed, theta, tx, ty):
        rng = np.random.default_rng(seed)
        tris = rng.random((5, 3, 2)) * 4.0
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        moved = tris @ rot.T + np.array([tx, ty])
        assert np.allclose(meb_radii(tris), meb_radii(moved), atol=1e-8)


class TestDelaunay:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_matches_empty_circle_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((11, 2)) * 10.0
        c = delaunay(pts)
        got = {tuple(row) for row in c.simplices[2]}
        assert got == brute_delaunay_triangles(c.points)

    def test_volumes_tile_the_hull(self):
        rng = np.random.default_rng(3)
        pts = rng.random((40, 3))
        c = delaunay(pts)
        assert c.top_volumes.sum() == pytest.approx(ConvexHull(pts).volume, rel=1e-9)

    def test_face_filtration_never_exceeds_cofacet(self):
        rng = np.random.default_rng(5)
        c = delaunay(rng.random((30, 2)))
        for k in range(c.dim, 0, -1):
            faces = c.filtration[k - 1][c.faces_of[k]]
            assert (faces <= c.filtration[k][:, None]).all()

    @pytest.mark.parametrize("n", [40, 600])  # unjoggled and joggled qhull
    def test_top_rows_align_with_triangulation(self, n):
        # membership indexes included[dim] by the find_simplex row directly
        c = delaunay(np.random.default_rng(n).random((n, 3)))
        assert np.array_equal(c.simplices[c.dim], np.sort(c.tri.simplices, axis=1))

    @pytest.mark.parametrize(
        # 600 points and more take the joggled path
        "dim,n",
        [(2, 40), (3, 600), (4, 80), (3, "layered"), (3, "grid"), (5, 30), (6, 20), (3, "sphere")],
    )
    def test_faces_and_filtration_match_reference(self, dim, n):
        if n == "layered":
            c = delaunay(layered_cloud(0))
            assert c.n_points >= 600
            assert (c.top_volumes == 0).mean() > 0.5  # mostly flat tops
        elif n == "grid":
            # cospherical sets everywhere, split by qhull's triangulated
            # output on the unjoggled path
            c = delaunay(np.indices((6, 6, 6)).reshape(3, -1).T.astype(float))
            assert np.array_equal(c.tri.simplices, Delaunay(c.points).simplices)
        elif n == "sphere":
            # every point on the hull: many facets have no neighbour
            pts = np.random.default_rng(3).standard_normal((60, 3))
            c = delaunay(pts / np.linalg.norm(pts, axis=1, keepdims=True))
            assert (c.tri.neighbors < 0).sum() > len(c.simplices[dim - 1]) / 3
        else:
            c = delaunay(np.random.default_rng(dim * 1000 + n).random((n, dim)))
        assert_matches_reference(c)

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(2, 6),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        snap=st.sampled_from([None, 1.0, 0.25]),
    )
    def test_lattice_matches_reference_in_any_dimension(self, dim, data, seed, snap):
        # random clouds, or clouds snapped to a grid, whose repeated points,
        # coplanar runs and cospherical sets qhull must split or joggle
        n = data.draw(st.integers(dim + 2, {2: 60, 3: 50, 4: 30, 5: 20, 6: 14}[dim]), label="n")
        pts = np.random.default_rng(seed).random((n, dim)) * 4.0
        if snap:
            pts = np.round(pts / snap) * snap
        try:
            c = delaunay(pts)
        except DegenerateInput:
            assume(False)
        assert_matches_reference(c)

    def test_lattice_peak_memory(self):
        # the traced peak of delaunay() as a multiple of the lattice's entry
        # count x 8 bytes: int32 vertex and face ids, face keys packed
        # straight from the simplex columns, the edges' faces a view of
        # their columns, the top level's balls left unstored and filtration
        # blocks of 8,192 simplices keep it near 1.50 on this battery-like
        # cloud, where int64 ids in blocks of 32,768 took 2.27 and stacking
        # and sorting every face of every simplex 2.85
        pts = layered_cloud(0, lines=5, per_line=6)
        assert len(pts) == 20_400
        tracemalloc.start()
        try:
            c = delaunay(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = sum(
            a.size for level in (c.simplices, c.faces_of, c.filtration) for a in level.values()
        )
        assert (c.top_volumes == 0).mean() > 0.5
        assert peak < 1.75 * entries * 8

    def test_lattice_is_int32(self):
        # every vertex and face id of the battery-like cloud's lattice is
        # int32 and equals the int64 lattice built by np.unique
        c = delaunay(layered_cloud(0, lines=5, per_line=6))
        simplices, faces_of = reference_lattice(c)
        for got, want in ((c.simplices, simplices), (c.faces_of, faces_of)):
            assert got.keys() == want.keys()
            for k, ids in got.items():
                assert ids.dtype == np.int32 and want[k].dtype == np.int64
                assert np.array_equal(ids, want[k])

    def test_face_id_type_widens_at_2_31_faces(self):
        assert _id_dtype(0) == _id_dtype(2**31 - 1) == np.int32
        assert _id_dtype(2**31) == _id_dtype(2**40) == np.int64

    @pytest.mark.parametrize(
        "radix,width",
        [(7, 4), (31_847, 4), (2**21, 5), (2**21, 6), (2**31 - 1, 5), (2**31 - 1, 6)],
    )
    def test_faces_match_numpy(self, radix, width):
        # radix**3 below 2**63 packs a 3-D level's faces into one key; wider
        # faces over a large radix must be re-ranked, not overflow, a branch
        # the lattice oracles' clouds of at most 60 points never reach
        rng = np.random.default_rng(width)
        pool = np.sort(rng.integers(0, radix, (60, width)), axis=1)
        pool[:20, :-1] = pool[20:40, :-1]  # shared faces
        rows = np.sort(pool[rng.integers(0, 60, 3000)], axis=1)
        faces, ids = _faces(rows, radix)
        assert faces.dtype == rows.dtype and ids.dtype == np.int32
        stacked = np.stack([np.delete(rows, c, axis=1) for c in range(width)], axis=1)
        ref_faces, ref_ids = np.unique(
            stacked.reshape(-1, width - 1), axis=0, return_inverse=True
        )
        assert np.array_equal(faces, ref_faces)
        assert np.array_equal(ids, ref_ids.reshape(len(rows), width))

    @pytest.mark.parametrize("dim,n", [(2, 30), (3, 60), (4, 40), (3, "layered")])
    def test_faces_of_walk_finds_every_face(self, dim, n):
        if n == "layered":
            c = delaunay(layered_cloud(1))
        else:
            c = delaunay(np.random.default_rng(4).random((n, dim)))
        tops = c.simplices[dim]
        reached = {k: np.zeros(len(c.simplices[k]), dtype=bool) for k in range(dim + 1)}
        for size in range(1, dim + 2):
            for keep in combinations(range(dim + 1), size):
                fid, level = face_ids(c.faces_of, dim, np.arange(len(tops)), keep)
                assert level == size - 1
                assert np.array_equal(c.simplices[level][fid], tops[:, list(keep)])
                reached[level][fid] = True
        assert all(r.all() for r in reached.values())

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_subset_faces_match_the_top_down_walk(self, k):
        # one entry for each nonempty pattern of the k + 1 vertex columns,
        # holding the face the top-down oracle reaches on those columns, for
        # a slice of the k-simplices and an index array with repeats
        rng = np.random.default_rng(k)
        dim = max(k, 2)
        c = delaunay(rng.random(({2: 30, 3: 40, 4: 30, 5: 20, 6: 14}[dim], dim)))
        m = len(c.simplices[k])
        for fid in (slice(1, None, 2), rng.integers(0, m, 2 * m)):
            faces = _subset_faces(c.faces_of, k, fid)
            assert sorted(faces) == list(range(1, 2 ** (k + 1)))
            for pattern, (level, ids) in faces.items():
                keep = [col for col in range(k + 1) if pattern >> col & 1]
                want, want_level = face_ids(c.faces_of, k, fid, keep)
                assert level == want_level == len(keep) - 1
                rows = np.arange(len(c.simplices[level]))
                assert np.array_equal(rows[ids], rows[want])
                assert np.array_equal(c.simplices[level][ids], c.simplices[k][fid][:, keep])

    def test_delaunay_leaves_no_reference_cycle(self):
        # the filtration's face tables, balls and callbacks are freed by
        # reference counting when delaunay returns, and so is the lattice
        # when the complex goes, with no collection
        pts = np.random.default_rng(7).random((400, 3))
        gc.collect()
        gc.disable()
        try:
            c = delaunay(pts)
            refs = [weakref.ref(ids) for ids in c.faces_of.values()]
            del c
            assert all(ref() is None for ref in refs)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_duplicates_dropped(self):
        pts = np.vstack([SQUARE, SQUARE[:2]])
        c = delaunay(pts)
        assert c.n_points == 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(DegenerateInput):
            delaunay(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateInput):
            delaunay(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(DegenerateInput):
            delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
        with pytest.raises(DimensionTooHigh):
            delaunay(np.random.default_rng(0).random((20, 7)))

    def test_many_points_on_one_facet_still_triangulate(self):
        # a dense grid edge puts hundreds of points exactly on the hull
        rng = np.random.default_rng(1)
        bulk = rng.random((900, 2))
        edge = np.stack([np.linspace(0, 1, 300), np.zeros(300)], axis=1)
        c = delaunay(np.vstack([bulk, edge]))
        assert c.n_points == 1200
        shape = alpha_complex(c, 1e9)
        assert shape.component_count == 1 and shape.covers_vertices

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_near_hull_mask_does_not_depend_on_the_block(self, monkeypatch):
        # hull vertices, probes exactly hull_margin inside and outside each
        # facet along its normal, probes in and around the bounding box, far
        # outside and non-finite get the same verdict whether a block holds
        # one probe, a prime number of products (7 probes), the default
        # budget (2 blocks) or every probe; the probes on the band's edge
        # round either way, but the same way in every block
        c = delaunay(layered_cloud(0, lines=3))
        hull = ConvexHull(c.points)
        lo, hi = c.points.min(axis=0), c.points.max(axis=0)
        margin = hull_margin(lo, hi)
        corners, normals = c.points[hull.simplices[:, 0]], hull.equations[:, :-1]
        rng = np.random.default_rng(2)
        box = lo - 0.1 + rng.random((3_000, 3)) * (hi - lo + 0.2)
        far = c.points.mean(axis=0) + 10.0 * rng.standard_normal((50, 3))
        bad = np.array([[np.nan, 0.5, 0.5], [0.5, np.inf, 0.5], [-np.inf, 0.0, np.nan]])
        qs = np.vstack([
            c.points[hull.vertices], corners - margin * normals,
            corners + margin * normals, box, far, bad,
        ])
        assert len(normals) == 28
        masks = []
        for budget in (1, 211, simplicial.HULL_BLOCK, len(qs) * len(normals)):
            monkeypatch.setattr(simplicial, "HULL_BLOCK", budget)
            # each shape builds its own hull
            masks.append(alpha_complex(c, 0.0).near_hull(qs))
        assert all(np.array_equal(m, masks[0]) for m in masks[1:])
        n_vertices, n_facets = len(hull.vertices), len(normals)
        assert masks[0][: n_vertices + n_facets].all()
        assert not masks[0][-len(far) - len(bad) :].any()

    def test_near_hull_peak_memory(self):
        # one probe x facet block of HULL_BLOCK heights, 512 KiB, is all
        # near_hull holds beyond its masks: 10,000 probes against a hull
        # of 436 facets trace under 1 MiB, where blocks of 2**20 products,
        # each allocated while the last was still held, traced 16 MiB
        rng = np.random.default_rng(0)
        shell = rng.standard_normal((400, 3))
        shell *= (0.95 + 0.05 * rng.random((400, 1))) / np.linalg.norm(shell, axis=1)[:, None]
        shape = alpha_complex(delaunay(shell), 0.0)
        qs = rng.uniform(-1.2, 1.2, (10_000, 3))
        tracemalloc.start()
        try:
            mask = shape.near_hull(qs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(shape._hull_equations) == 436
        assert 0 < mask.sum() < len(qs)
        assert peak < 1 << 20


class TestStackedSolve:
    @staticmethod
    def _systems(dim, rng):
        """Ten regular systems and, between them, exactly singular ones: a
        zero column, a zero row and the zero matrix (an exact zero pivot)."""
        a = rng.standard_normal((13, dim, dim))
        a[3][:, 1] = 0.0
        a[7][dim - 1] = 0.0
        a[11] = 0.0
        # the transposed view carrier solves pass
        return a.transpose(0, 2, 1), rng.standard_normal((13, dim)), [3, 7, 11]

    @staticmethod
    def _lone(a, b):
        """One system as reference_carrier_included solves it."""
        try:
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(a, b, rcond=None)[0]

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_mixed_stack_matches_lone_solves(self, dim):
        a, b, singular = self._systems(dim, np.random.default_rng(dim))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, b[..., None])
        for i in singular:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(a[i], b[i])
        x = _solve(a, b)
        for i in range(len(a)):
            assert x[i].tobytes() == self._lone(a[i], b[i]).tobytes(), i

    @pytest.mark.parametrize("rows", [[0, 1, 2, 4], [3, 7, 11], []])
    def test_uniform_stacks(self, rows):
        """All regular (no fallback), all singular and empty stacks."""
        a, b, _ = self._systems(3, np.random.default_rng(0))
        x = _solve(a[rows], b[rows])
        assert x.shape == (len(rows), 3)
        for got, i in zip(x, rows):
            assert got.tobytes() == self._lone(a[i], b[i]).tobytes(), i


class TestAlphaComplex:
    def test_unit_square_levels(self):
        c = delaunay(SQUARE)
        at0 = alpha_complex(c, 0.0)
        assert at0.measure == 0.0
        assert at0.component_count == 4
        assert not at0.covers_vertices

        at04 = alpha_complex(c, 0.4)
        assert at04.measure == 0.0 and at04.component_count == 4

        at05 = alpha_complex(c, 0.5)  # boundary edges only
        assert at05.measure == 0.0
        assert at05.component_count == 1
        assert not at05.covers_vertices

        full = alpha_complex(c, 0.75)
        assert full.measure == pytest.approx(1.0, rel=1e-12)
        assert full.component_count == 1 and full.covers_vertices

    def test_huge_alpha_measure_matches_hull_volume(self):
        rng = np.random.default_rng(11)
        pts = rng.random((25, 3)) * np.array([2.0, 1.0, 3.0])
        shape = alpha_complex(delaunay(pts), 1e9)
        assert shape.measure == pytest.approx(ConvexHull(pts).volume, rel=1e-9)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            alpha_complex(delaunay(SQUARE), -0.1)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_filtration_monotone_in_alpha(self, seed):
        rng = np.random.default_rng(seed)
        c = delaunay(rng.random((14, 2)))
        alphas = sorted(rng.random(4) * 1.2)
        shapes = [alpha_complex(c, a) for a in alphas]
        for lo, hi in zip(shapes, shapes[1:]):
            for k in c.filtration:  # nested
                assert (c.filtration[k] <= hi.alpha)[c.filtration[k] <= lo.alpha].all()
            assert not (lo.carriers & ~hi.carriers).any()
            assert hi.measure >= lo.measure - 1e-15
            assert hi.component_count <= lo.component_count

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), frac=st.floats(0.05, 1.5))
    def test_input_points_always_members(self, seed, frac):
        rng = np.random.default_rng(seed)
        pts = rng.random((12, 2))
        c = delaunay(pts)
        shape = alpha_complex(c, frac * float(c.filtration[2].max()))
        assert shape.contains_batch(c.points).all()

    def test_boundary_carrier_membership(self):
        shape = alpha_complex(delaunay(SQUARE), 0.6)
        # triangles (radius ~0.707) excluded: interior points are outside
        assert not shape.contains([0.5, 0.25])
        assert not shape.contains([0.5, 0.5])  # diagonal also excluded
        # boundary edges (radius 0.5) included: their midpoints are members
        assert shape.contains([0.5, 0.0])
        assert shape.contains([0.0, 0.5])
        assert shape.contains([1.0, 0.5])
        # and the corners always are
        assert shape.contains_batch(SQUARE).all()

    @pytest.mark.parametrize(
        "dim,n", [(2, 60), (3, 50), (4, 30), (5, 20), (6, 14), (3, "layered"), (3, "grid")]
    )
    def test_carrier_table_matches_face_walk(self, dim, n):
        # bit p of a top's row is the inclusion of the face that face_ids
        # reaches on the top's sorted vertex columns {c : p >> c & 1}, for
        # every top and every nonempty pattern, at alphas from no edge to
        # every top; bit 0, the empty face, is unset
        if n == "layered":
            c = delaunay(layered_cloud(0))
        elif n == "grid":
            c = delaunay(np.indices((6, 6, 6)).reshape(3, -1).T.astype(float))
        else:
            c = delaunay(np.random.default_rng(dim * 100 + n).random((n, dim)))
        tops = np.arange(len(c.simplices[dim]))
        finite = c.filtration[dim][np.isfinite(c.filtration[dim])]
        alphas = [0.0, float(np.median(c.filtration[1])), *np.quantile(finite, [0.1, 0.5, 1.0])]
        for alpha in alphas:
            shape = alpha_complex(c, alpha)
            bits = np.unpackbits(shape.carriers, axis=1, bitorder="little").astype(bool)
            assert bits.shape == (len(tops), 2 ** (dim + 1)) and not bits[:, 0].any()
            for pattern in range(1, 2 ** (dim + 1)):
                keep = [col for col in range(dim + 1) if pattern >> col & 1]
                fid, level = face_ids(c.faces_of, dim, tops, keep)
                want = c.filtration[level][fid] <= alpha
                assert np.array_equal(bits[:, pattern], want), (alpha, pattern)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_shape_holds_carrier_table_not_lattice(self, dim, monkeypatch):
        # the shape keeps one row of carrier bits per top in place of the
        # face lattice and its inclusion masks, and membership walks no face
        rng = np.random.default_rng(dim)
        c = delaunay(rng.random(({2: 60, 3: 50, 4: 30, 5: 20, 6: 14}[dim], dim)))
        shape = alpha_complex(c, float(np.median(c.filtration[dim])))
        assert not {"faces_of", "included"} & {f.name for f in fields(shape)}
        assert not hasattr(shape, "faces_of") and not hasattr(shape, "included")
        m = len(c.simplices[dim])
        assert shape.carriers.dtype == np.uint8
        assert shape.carriers.nbytes == m * max(1, 2 ** (dim + 1) // 8)

        def walked(*args):
            raise AssertionError("membership walked faces_of")

        monkeypatch.setattr(simplicial, "_subset_faces", walked)
        qs = np.vstack([
            c.points[c.simplices[1]].mean(axis=1),
            c.points[c.simplices[2]].mean(axis=1),
            rng.random((200, dim)),
        ])
        assert np.array_equal(shape.contains_batch(qs), reference_membership(c, shape, qs))

    @pytest.mark.parametrize("cloud", ["random", "lattice", "layered"])
    def test_membership_matches_find_simplex_reference(self, cloud):
        rng = np.random.default_rng(600)
        if cloud == "random":
            pts = rng.random((600, 3))
        elif cloud == "layered":  # mostly flat tops, as on the battery
            pts = layered_cloud(0)
        else:  # 100 points on each hull facet: delaunay joggles, the hull not
            pts = np.stack(np.meshgrid(*[np.linspace(0, 1, 10)] * 3), -1).reshape(-1, 3)
        c = delaunay(pts)
        shape = alpha_complex(c, float(np.median(c.filtration[3])))
        margin = 1e-5 * float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
        hull = ConvexHull(c.points)
        centroids = c.points[hull.simplices].mean(axis=1)
        normals = hull.equations[:, :-1]
        pushed = [centroids + t * margin * normals for t in (0.0, 0.5, 2.0, 10.0)]
        box = rng.random((3000, 3)) * 1.4 - 0.2
        qs = np.vstack([box, c.points[:50] + 1e-3, *pushed])
        exact = reference_membership(c, shape, qs)
        assert exact.any() and not exact.all()
        assert np.array_equal(shape.contains_batch(qs), exact)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([2, 3, 5]),
        layered=st.booleans(),
    )
    def test_membership_matches_per_probe_carriers(self, seed, dim, layered):
        rng = np.random.default_rng(seed)
        n = 30 if dim == 5 else 60
        pts = planes_cloud(rng, dim, n) if layered else rng.random((n, dim))
        c = delaunay(pts)
        top = c.filtration[dim][np.isfinite(c.filtration[dim])]
        alphas = [float(np.median(c.filtration[1])), float(np.median(top)), float(top.max())]

        def some(rows, m=120):
            return rows[rng.permutation(len(rows))[:m]]

        qs = np.vstack([
            c.points,
            some(c.points[c.simplices[1]].mean(axis=1)),  # edge midpoints
            some(c.points[c.simplices[2]].mean(axis=1)),  # triangle centroids
            some(c.points[c.simplices[dim]].mean(axis=1)),  # top centroids
            rng.random((120, dim)) * 1.2 - 0.1,
        ])
        for alpha in alphas:
            shape = alpha_complex(c, alpha)
            assert np.array_equal(shape.contains_batch(qs), reference_membership(c, shape, qs))

    def test_component_count_matches_union_find_over_simplices(self):
        rng = np.random.default_rng(9)
        c = delaunay(rng.random((25, 2)))
        for alpha in [0.0, 0.1, 0.2, 0.35, 1.0]:
            shape = alpha_complex(c, alpha)
            assert shape.component_count == union_find_components(c, shape.alpha)

    def test_feasibility_on_tied_filtrations_matches_union_find(self):
        # on an integer grid many edges share a filtration value, so the
        # spanning tree's ties, the values themselves and the float just
        # below each decide the component count
        grid = np.stack(np.meshgrid(*[np.arange(6.0)] * 3), -1).reshape(-1, 3)
        c = delaunay(grid)
        assert c.n_points == 216
        values = np.unique(c.filtration[1])
        assert len(values) < len(c.filtration[1]) // 10
        assert np.array_equal(c.bottlenecks, kruskal_weights(c))
        below = np.nextafter(values, -np.inf)
        for alpha in [*values, *below, c.cover_radius, np.nextafter(c.cover_radius, 0.0)]:
            shape = alpha_complex(c, alpha)
            assert shape.component_count == union_find_components(c, shape.alpha), alpha
            assert shape.covers_vertices == covered_vertices(c, alpha), alpha

    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError):
            alpha_complex(delaunay(SQUARE), math.nan)

    def test_dimension_mismatch(self):
        shape = alpha_complex(delaunay(SQUARE), 1.0)
        with pytest.raises(DimensionMismatch):
            shape.contains([0.5, 0.5, 0.5])
        with pytest.raises(DimensionMismatch):
            shape.contains_batch(np.zeros((3, 5)))

    def test_serialization_round_fields(self):
        shape = alpha_complex(delaunay(SQUARE), 0.75)
        d = shape.to_dict()
        assert d["kind"] == "alpha_shape"
        assert d["dim"] == 2 and d["n_points"] == 4
        assert d["measure"] == pytest.approx(1.0)
        assert len(d["included_top_simplices"]) == 2

    @pytest.mark.parametrize("cloud", ["layered", "random"])
    def test_included_tops_sorted_from_triangulation(self, cloud):
        # the shape keeps no sorted copy of the tops: to_dict sorts the
        # included rows of tri.simplices, which line up with simplices[dim]
        if cloud == "layered":
            c = delaunay(layered_cloud(0))
        else:
            c = delaunay(np.random.default_rng(8).random((600, 3)))
        for alpha in np.quantile(c.filtration[c.dim], [0.25, 0.75]):
            shape = alpha_complex(c, alpha)
            assert not hasattr(shape, "tops")
            got = shape.to_dict()["included_top_simplices"]
            want = c.simplices[c.dim][c.filtration[c.dim] <= alpha]
            assert 0 < len(want) < len(c.simplices[c.dim])
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestAlphaSearch:
    def test_unit_square_trace(self):
        res = search_optimal_alpha(SQUARE, 0.01, 100.0, 0.1)
        assert res.alpha == pytest.approx(0.7498942093324559, abs=1e-12)
        assert res.shape.alpha == res.alpha
        assert res.shape.component_count == 1 and res.shape.covers_vertices
        flags = [ok for _, ok in res.probes]
        assert flags == [True, True, False, False, False, True, False, False]
        mids = [a for a, _ in res.probes]
        assert mids[0] == 100.0 and mids[1] == pytest.approx(1.0)
        assert mids[3] == pytest.approx(math.sqrt(0.1))

    def test_geometric_mean_bracketing(self):
        res = search_optimal_alpha(SQUARE, 0.01, 100.0, 0.1)
        for (a, ok), (b, _) in zip(res.probes[1:], res.probes[2:]):
            assert b != a
        feas = [a for a, ok in res.probes if ok]
        infeas = [a for a, ok in res.probes if not ok]
        assert max(infeas) < min(feas)
        assert res.alpha == min(feas)

    def test_threshold_controls_precision(self):
        coarse = search_optimal_alpha(SQUARE, 0.01, 100.0, 0.5)
        fine = search_optimal_alpha(SQUARE, 0.01, 100.0, 0.001)
        true_alpha = math.sqrt(2) / 2
        assert fine.alpha == pytest.approx(true_alpha, abs=0.001)
        assert coarse.alpha >= fine.alpha
        assert len(fine.probes) > len(coarse.probes)

    def test_accepts_prebuilt_complex(self):
        c = delaunay(SQUARE)
        res = search_optimal_alpha(c, 0.01, 100.0, 0.1)
        assert res.alpha == pytest.approx(0.7498942093324559, abs=1e-12)

    def test_two_far_clusters_infeasible(self):
        far = np.vstack([SQUARE, SQUARE + [300.0, 0.0]])
        with pytest.raises(InfeasibleAtHi, match="needs alpha >= 149.5;") as err:
            search_optimal_alpha(far, 0.01, 100.0, 0.1)
        # the gap between the squares, 299 wide, is the spanning tree's
        # bottleneck; every corner lies in a triangle of radius sqrt(2) / 2
        c = delaunay(far)
        cover = max(
            c.filtration[2][(c.simplices[2] == v).any(axis=1)].min() for v in range(8)
        )
        assert cover == pytest.approx(math.sqrt(2) / 2)
        assert err.value.needed == max(kruskal_weights(c)[-1], cover) == 149.5
        assert err.value.hi == 100.0
        with pytest.raises(InfeasibleAtHi):
            search_optimal_alpha(c, 0.01, np.nextafter(149.5, 0.0), 0.1)
        assert search_optimal_alpha(c, 0.01, 149.5, 0.1).probes[0] == (149.5, True)

    def test_one_shape_per_search(self, monkeypatch):
        built = []

        def counted(c, alpha):
            built.append(alpha)
            return alpha_complex(c, alpha)

        monkeypatch.setattr(search, "alpha_complex", counted)
        res = search_optimal_alpha(SQUARE, 0.01, 100.0, 0.1)
        assert len(res.probes) == 8 and built == [res.alpha]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cloud=st.sampled_from(["random", "snapped", "layered"]),
        dim=st.sampled_from([2, 3]),
        triples=st.lists(
            st.tuples(st.floats(-4.0, 0.0), st.floats(0.05, 4.0), st.floats(-6.0, 0.5)),
            min_size=3,
            max_size=3,
        ),
    )
    def test_matches_per_probe_bisection(self, seed, cloud, dim, triples):
        # (lo, hi, threshold) drawn in log10: lo from 1e-4 to 1, hi a factor
        # of 1.12 to 1e4 above it, threshold from 1e-6 to 3
        rng = np.random.default_rng(seed)
        if cloud == "layered":
            pts = layered_cloud(seed)
        else:
            pts = rng.random((rng.integers(dim + 2, 80), dim))
            if cloud == "snapped":
                pts = np.round(pts * 4.0) / 4.0
        try:
            c = delaunay(pts)
        except DegenerateInput:
            assume(False)
        assert np.array_equal(c.bottlenecks, kruskal_weights(c))
        for log_lo, log_span, log_threshold in triples:
            lo = 10.0**log_lo
            hi, threshold = lo * 10.0**log_span, 10.0**log_threshold
            alpha, probes = reference_search(c, lo, hi, threshold)
            if alpha is None:
                with pytest.raises(InfeasibleAtHi):
                    search_optimal_alpha(c, lo, hi, threshold)
                continue
            res = search_optimal_alpha(c, lo, hi, threshold)
            assert res.alpha.hex() == alpha.hex()
            assert res.probes == tuple(probes)
            assert res.shape.component_count == 1 and res.shape.covers_vertices
            assert res.shape.included_counts == {
                k: int((c.filtration[k] <= alpha).sum()) for k in c.filtration
            }
            tops = res.shape.to_dict()["included_top_simplices"]
            assert np.array_equal(tops, c.simplices[c.dim][c.filtration[c.dim] <= alpha])

    @staticmethod
    def _probes(points):
        """Vertices, 400 edge midpoints, probes hull_margin inside and
        outside each hull facet along its normal, far and non-finite points."""
        d = points.shape[1]
        non_finite = np.full((3, d), 0.5)
        non_finite[0, 0], non_finite[1, 1], non_finite[2, :3] = np.nan, np.inf, [-np.inf, 0.0, np.nan]
        c = delaunay(points)
        hull = ConvexHull(c.points)
        margin = hull_margin(c.points.min(axis=0), c.points.max(axis=0))
        corners, normals = c.points[hull.simplices[:, 0]], hull.equations[:, :-1]
        rng = np.random.default_rng(4)
        mids = c.points[c.simplices[1]].mean(axis=1)
        return np.vstack([
            c.points, mids[rng.permutation(len(mids))[:400]],
            corners - margin * normals, corners + margin * normals,
            c.points.mean(axis=0) + 10.0 * rng.standard_normal((20, d)),
            non_finite,
        ])

    @staticmethod
    def _recorded_complexes(monkeypatch):
        """Weak references to every complex a search triangulates."""
        refs = []

        def recording(*args, **kwargs):
            c = triangulate(*args, **kwargs)
            refs.append(weakref.ref(c))
            return c

        triangulate = search.delaunay
        monkeypatch.setattr(search, "delaunay", recording)
        return refs

    def test_searched_complex_is_freed_and_shape_answers(self, monkeypatch):
        # the shape keeps only what membership reads, so the complex a search
        # triangulates is gone once alpha is chosen, and the held shape
        # answers the same before and after a collection
        refs = self._recorded_complexes(monkeypatch)
        pts = layered_cloud(0)
        shape = search_optimal_alpha(pts).shape
        qs = self._probes(pts)
        before = shape.contains_batch(qs)
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None
        assert before.any() and not before.all()
        assert not before[-3:].any()
        assert np.array_equal(shape.contains_batch(qs), before)

    def test_union_members_free_their_complexes(self, monkeypatch):
        # every alpha-shape member of a union built by the pipeline lets its
        # complex go, and the union and each member answer as before
        refs = self._recorded_complexes(monkeypatch)
        pts = np.random.default_rng(5).random((800, 4))
        union, info = pipeline._wrap_points(pts, pipeline.AnalysisConfig(cluster_max=200), 4)
        assert info["kind"] == "shape_union" and len(union.shapes) >= 4
        assert all(isinstance(s, AlphaShape) for s in union.shapes)
        qs = self._probes(pts)
        before = [s.contains_batch(qs) for s in [union, *union.shapes]]
        gc.collect()
        assert len(refs) == len(union.shapes)
        assert all(ref() is None for ref in refs)
        assert before[0].any() and not before[0].all()
        for s, verdicts in zip([union, *union.shapes], before):
            assert np.array_equal(s.contains_batch(qs), verdicts)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            search_optimal_alpha(SQUARE, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            search_optimal_alpha(SQUARE, -1.0, 100.0, 0.1)
        with pytest.raises(ValueError):
            search_optimal_alpha(SQUARE, 0.01, 100.0, 0.0)

    @pytest.mark.parametrize("lo,threshold", [(math.nan, 0.1), (0.01, math.nan)])
    def test_non_finite_parameters_rejected(self, lo, threshold):
        with pytest.raises(ValueError):
            search_optimal_alpha(SQUARE, lo, 100.0, threshold)


class TestClustering:
    def test_partition_covers_and_respects_bound(self):
        rng = np.random.default_rng(0)
        pts = rng.random((137, 3))
        leaves = hierarchical_cluster(pts, 20, seed=4)
        sizes = [len(ix) for ix in leaves]
        assert all(s <= 20 for s in sizes)
        joined = np.sort(np.concatenate(leaves))
        assert joined.tolist() == list(range(137))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(0)
        pts = rng.random((200, 2))
        a = hierarchical_cluster(pts, 30, seed=7)
        b = hierarchical_cluster(pts, 30, seed=7)
        assert len(a) == len(b)
        assert all((x == y).all() for x, y in zip(a, b))

    def test_two_blobs_split_along_gap(self):
        rng = np.random.default_rng(1)
        blob_a = rng.random((40, 2))
        blob_b = rng.random((40, 2)) + [50.0, 0.0]
        pts = np.vstack([blob_a, blob_b])
        leaves = hierarchical_cluster(pts, 60, seed=0)
        assert len(leaves) == 2
        sides = [set(np.asarray(ix) < 40) for ix in leaves]
        assert all(len(s) == 1 for s in sides)  # no leaf mixes blobs

    def test_identical_points_terminate(self):
        pts = np.ones((10, 2))
        leaves = hierarchical_cluster(pts, 4, seed=0)
        assert sum(len(ix) for ix in leaves) == 10
        assert all(len(ix) <= 4 for ix in leaves)

    def test_small_input_single_leaf(self):
        leaves = hierarchical_cluster(SQUARE, 10, seed=0)
        assert len(leaves) == 1 and len(leaves[0]) == 4

    @pytest.mark.parametrize(
        "cloud,cap,seed,want",
        [
            ("rank9", 100, 3, "fe7950e54fab3d814d2342719d258c64ae92fada341e1b20c6f4aff50391bbe8"),
            ("ties", 16, 5, "8da99567061cc7286dd7a08fef1f231c801b3c32bd1e197a779032f056fae3b5"),
        ],
    )
    def test_partitions_are_pinned(self, cloud, cap, seed, want):
        """The exact leaves, hashed as their lengths and then their indices:
        the oracle a faster Lloyd step must reproduce. ``rank9`` is 2,000
        13-D rows of affine rank 9, like the bench's 13-D scene; ``ties``
        has repeated rows, coordinates rounded to 0.1 and a constant column."""
        rng = np.random.default_rng(0)
        if cloud == "rank9":
            pts = 10.0 * rng.standard_normal((2000, 9)) @ rng.standard_normal((9, 13))
            pts += rng.random(13)
        else:
            base = np.round(rng.random((300, 3)), 1)
            pts = np.vstack([base, base[:150], np.repeat(base[:1], 20, axis=0)])
            pts = np.column_stack([pts, np.full(len(pts), 7.0)])
        leaves = hierarchical_cluster(pts, cap, seed=seed)
        digest = hashlib.sha256(np.array([len(ix) for ix in leaves], dtype=np.int64))
        digest.update(np.concatenate(leaves).astype(np.int64))
        assert digest.hexdigest() == want

    @pytest.mark.parametrize("dim", [2, 3, 5, 13])
    @pytest.mark.parametrize("cloud", ["uniform", "walk"])
    def test_leaves_are_pairwise_separated_by_a_hyperplane(self, cloud, dim):
        """Each split assigns every point to the nearer of two centres, or
        moves one extreme point to an emptied side, so the hulls of two
        leaves meet at most on the hyperplane of their lowest common split:
        an LP finds w, b with A.w <= b <= B.w and (mean B - mean A).w = 1."""
        from scipy.optimize import linprog

        rng = np.random.default_rng(dim)
        if cloud == "uniform":
            pts = rng.random((1500, dim))
        else:
            pts = np.cumsum(rng.standard_normal((1500, dim)), axis=0)
        leaves = hierarchical_cluster(pts, 200, seed=dim)
        assert len(leaves) >= 8
        for ia, ib in combinations(leaves, 2):
            a, b = pts[ia], pts[ib]
            # variables (w, b): A.w - b <= 0 and b - B.w <= 0
            a_ub = np.vstack([
                np.column_stack([a, -np.ones(len(a))]),
                np.column_stack([-b, np.ones(len(b))]),
            ])
            a_eq = np.append(b.mean(axis=0) - a.mean(axis=0), 0.0)[None]
            res = linprog(
                np.zeros(dim + 1), A_ub=a_ub, b_ub=np.zeros(len(a_ub)),
                A_eq=a_eq, b_eq=[1.0], bounds=(None, None), method="highs",
            )
            assert res.status == 0
            w, offset = res.x[:-1], res.x[-1]
            tol = 1e-7 * max(1.0, np.abs(offset))
            assert (a @ w <= offset + tol).all() and (b @ w >= offset - tol).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            hierarchical_cluster(np.zeros((0, 2)), 10)
        with pytest.raises(ValueError):
            hierarchical_cluster(SQUARE, 1)


class TestMcVolume:
    def test_quarter_disc(self):
        bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
        res = mc_volume(
            lambda q: (q ** 2).sum(axis=1) <= 1.0, bounds, n_samples=200_000, seed=0
        )
        assert abs(res.estimate - math.pi / 4) <= max(3 * res.half_width_95, 1e-3)
        assert res.box_volume == 1.0
        assert res.hits == round(res.estimate * res.n_samples)

    def test_deterministic_and_thread_invariant(self):
        bounds = np.array([[0.0, 2.0], [0.0, 2.0]])
        member = lambda q: q[:, 0] + q[:, 1] <= 2.0
        a = mc_volume(member, bounds, n_samples=30_000, seed=5)
        b = mc_volume(member, bounds, n_samples=30_000, seed=5)
        assert a.estimate == b.estimate and a.hits == b.hits
        d = mc_volume(member, bounds, n_samples=30_000, seed=6)
        assert d.hits != a.hits

    def test_box_scaling(self):
        bounds = np.array([[0.0, 4.0], [0.0, 0.5]])
        res = mc_volume(lambda q: np.ones(len(q), bool), bounds, n_samples=1000)
        assert res.estimate == pytest.approx(2.0)
        assert res.half_width_95 == 0.0

    def test_validation(self):
        good = np.array([[0.0, 1.0]])
        member = lambda q: np.ones(len(q), bool)
        with pytest.raises(ValueError):
            mc_volume(member, good, n_samples=999)
        with pytest.raises(EmptySpace):
            mc_volume(member, np.array([[1.0, 1.0]]), n_samples=1000)
        with pytest.raises(ValueError):
            mc_volume(member, np.zeros((2, 3)), n_samples=1000)


class TestConvexHullShape:
    def test_square_membership(self):
        hull = ConvexHullShape(SQUARE)
        assert hull.contains([0.5, 0.5])
        assert hull.contains([1.0, 0.5])  # face point
        assert hull.contains([0.0, 0.0])  # vertex
        assert not hull.contains([1.5, 0.5])
        assert not hull.contains([0.5, -0.01])

    def test_measure_of_square_is_exact(self):
        hull = ConvexHullShape(SQUARE)
        res = hull.estimate_measure(seed=0, n_samples=2000)
        assert res.estimate == 1.0 and hull.measure == 1.0

    def test_flat_cloud_measures_zero_without_sampling(self):
        pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        hull = ConvexHullShape(pts)
        res = hull.estimate_measure(seed=0, n_samples=5000)
        assert res.estimate == 0.0 and res.n_samples == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_constant_column_is_flat_beside_narrow_columns(self, seed):
        # an exactly constant column centres to the mean's rounding error,
        # which beats RANK_TOL x sigma_max beside columns 1e-5 wide; read as
        # a spread, it would make the flat wrap full rank with a box of zero
        # width, which estimate_measure cannot sample
        rng = np.random.default_rng(seed)
        pts = np.column_stack(
            [0.3 + 1e-5 * rng.random(94), np.full(94, 0.304), 0.7 + 1e-5 * rng.random(94)]
        )
        hull = ConvexHullShape(pts)
        assert hull.affine_rank == 2
        assert hull.contains_batch(pts).all()
        res = hull.estimate_measure(seed=0, n_samples=2000)
        assert res.estimate == 0.0 and res.n_samples == 0

    def test_tilted_plane_measures_zero_without_sampling(self):
        hull = ConvexHullShape(tilted_plane())
        widths = np.ptp(hull.bbox(), axis=1)
        assert (widths > 0).all() and hull.affine_rank == 2
        res = hull.estimate_measure(seed=0, n_samples=5000)
        assert res == McVolume(0.0, 0.0, 0, 0, 0.0)
        assert hull.measure == 0.0 and hull.measure_half_width == 0.0

    def test_affine_rank(self):
        assert ConvexHullShape(SQUARE).affine_rank == 2
        assert ConvexHullShape(np.array([[1.0, 2.0, 3.0]])).affine_rank == 0
        assert ConvexHullShape(np.eye(3)).affine_rank == 2
        # fewer points than dimensions: the normal space is the complement
        hull = ConvexHullShape(np.eye(6)[:3])
        assert hull.affine_rank == 2
        assert hull.contains(np.eye(6)[:3].mean(axis=0))
        assert not hull.contains(np.eye(6)[:3].mean(axis=0) + 1e-3 * np.eye(6)[5])
        assert square_shape().affine_rank == 2

    def test_high_dim_membership(self):
        rng = np.random.default_rng(2)
        pts = rng.random((60, 9))
        hull = ConvexHullShape(pts)
        assert hull.contains_batch(pts).all()
        centroid = pts.mean(axis=0)
        assert hull.contains(centroid)
        mixes = pts[:10] * 0.3 + centroid * 0.7
        assert hull.contains_batch(mixes).all()
        outside = centroid + np.full(9, 2.0)
        assert not hull.contains(outside)
        pushed = centroid + (pts[:10] - centroid) * 1.2
        assert not hull.contains_batch(pushed).any()

    def test_matches_plain_lp_feasibility(self, monkeypatch):
        # the fits look nnls and linprog up on the module, where a tracer
        # wraps them by name to count them; scipy.optimize loads on the first
        calls = {"nnls": 0, "linprog": 0}
        for name in calls:
            def counted(*args, _name=name, _solve=getattr(hullshape, name), **kwargs):
                calls[_name] += 1
                return _solve(*args, **kwargs)

            monkeypatch.setattr(hullshape, name, counted)
        rng = np.random.default_rng(8)
        pts = rng.random((25, 4))
        hull = ConvexHullShape(pts)
        qs = rng.random((300, 4)) * 1.4 - 0.2
        assert (hull.contains_batch(qs) == plain_lp_membership(hull.points, qs)).all()
        assert calls["nnls"] > calls["linprog"] > 0

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 6),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        spread=st.floats(0.1, 10.0),
        shift=st.floats(-5.0, 5.0),
    )
    def test_low_rank_clouds_match_plain_lp(self, d, data, seed, spread, shift):
        k = data.draw(st.integers(1, d), label="k")
        pts, qs = low_rank_probes(d, k, seed, spread, shift)
        hull = ConvexHullShape(pts)
        assert hull.affine_rank == k
        assert np.array_equal(hull.contains_batch(qs), plain_lp_membership(pts, qs))

    def test_lp_weights_off_the_rows_certify_nothing(self, monkeypatch):
        # HiGHS can report success with weights that miss the equality
        # rows; only weights that meet them make a probe a member
        pts = np.random.default_rng(8).random((25, 4))
        hull = ConvexHullShape(pts)
        n = len(hull.points)
        monkeypatch.setattr(hullshape, "nnls", lambda a, b: (np.zeros(n), 0.0))
        for scale, member in ((1.0, True), (1.0 + 1e-4, False)):
            weights = np.full(n, scale / n)
            monkeypatch.setattr(
                hullshape, "linprog", lambda *a, _x=weights, **k: SimpleNamespace(status=0, x=_x)
            )
            assert hull.contains(hull.points.mean(axis=0)) == member

    def test_half_margin_off_plane_is_not_a_member(self):
        # a mix pushed half the margin off a flat cloud's plane, where HiGHS
        # on the unscaled rows once reported weights that miss it by 9e-6
        pts, qs = low_rank_probes(4, 3, 4, 0.25, -6.701900755015194e-10)
        q = qs[len(pts) + 90 + 10]
        assert not ConvexHullShape(pts).contains(q)
        assert not plain_lp_membership(pts, q[None, :])[0]

    def test_far_off_plane_rejected_without_a_fit(self, monkeypatch):
        pts = tilted_plane()
        hull = ConvexHullShape(pts)
        assert hull.affine_rank == 2
        normal = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)
        mixes = np.random.default_rng(3).dirichlet(np.ones(len(pts)), 50) @ pts
        margin = HULL_MARGIN * float(np.linalg.norm(np.ptp(pts, axis=0)))
        assert hull.contains_batch(mixes).all()

        def no_fit(self, q):
            raise AssertionError("combination fit ran")

        monkeypatch.setattr(ConvexHullShape, "_combination_exists", no_fit)
        for t in (2.0, -2.0, 10.0):
            assert not hull.contains_batch(mixes + t * margin * normal).any()

    @pytest.mark.parametrize("shift", [0.0, 1e4, -3e5])
    def test_normal_residual_test_changes_no_verdict(self, shift):
        # the same hull without normals leaves every off-plane probe to
        # the combination fit, whose verdicts the residual bound must keep
        pts = tilted_plane() + shift
        hull, reference = ConvexHullShape(pts), ConvexHullShape(pts)
        reference._normals = reference._normals[:, :0]
        normal = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)
        mixes = np.random.default_rng(3).dirichlet(np.ones(len(pts)), 20) @ pts
        offsets = [s * 10.0**e for e in range(-12, 2) for s in (1.0, -1.0)]
        qs = np.vstack([mixes + t * normal for t in offsets])
        want = reference.contains_batch(qs)
        assert want.any() and not want.all()
        assert np.array_equal(hull.contains_batch(qs), want)

    @pytest.mark.parametrize("shift", [1e4, -1e4])
    def test_verdicts_do_not_move_with_the_origin(self, shift):
        # probes inside the plane, and 0.01 or 1 off it: the fit must decide
        # them as it does at the origin, with or without the normal test
        pts = tilted_plane()
        normal = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)
        mixes = np.random.default_rng(5).dirichlet(np.ones(len(pts)), 20) @ pts
        qs = np.vstack([mixes + t * normal for t in (0.0, 0.01, -0.01, 1.0)])
        want = np.arange(len(qs)) < len(mixes)
        for p, q in ((pts, qs), (pts + shift, qs + shift)):
            hull, fit_only = ConvexHullShape(p), ConvexHullShape(p)
            fit_only._normals = fit_only._normals[:, :0]
            assert np.array_equal(hull.contains_batch(q), want)
            assert np.array_equal(fit_only.contains_batch(q), want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_queries_are_not_members(self):
        qs = np.array(
            [[0.5, 0.5], [np.nan, 0.5], [0.5, np.inf], [-np.inf, 0.0], [0.0, 0.0]]
        )
        want = [True, False, False, False, True]
        hull = ConvexHullShape(SQUARE)
        assert hull.contains_batch(qs).tolist() == want
        assert square_shape().contains_batch(qs).tolist() == want
        union = ShapeUnion([hull, square_shape(10.0)])
        assert union.contains_batch(qs).tolist() == want
        assert not hull.contains([np.nan, np.nan])

    def test_volume_matches_hull_limit_of_alpha_shape(self):
        rng = np.random.default_rng(4)
        pts = rng.random((30, 3))
        hull = ConvexHullShape(pts)
        hull.estimate_measure(seed=0, n_samples=60_000)
        exact = ConvexHull(pts).volume
        assert hull.measure == pytest.approx(exact, abs=4 * hull.measure_half_width)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvexHullShape(np.zeros((0, 3)))
        hull = ConvexHullShape(SQUARE)
        with pytest.raises(DimensionMismatch):
            hull.contains([0.1, 0.2, 0.3])


def square_shape(offset_x=0.0):
    return alpha_complex(delaunay(SQUARE + [offset_x, 0.0]), 0.75)


def tilted_plane(n=40, seed=1):
    """Points on the plane z = x + y over the unit square: rank 2 in 3-D,
    with a bounding box that is not flat."""
    xy = np.random.default_rng(seed).random((n, 2))
    return np.column_stack([xy, xy.sum(axis=1)])


def low_rank_probes(d, k, seed, spread, shift):
    """A rank-k cloud lifted into d-D by a random rotation and offset, and
    its probes: the points, 30 convex mixes, 60 box samples, and the first
    10 mixes pushed along a normal by 0, 0.5, 2 and 10 x the margin."""
    rng = np.random.default_rng(seed)
    flat = np.zeros((k + 3 + int(rng.integers(10)), d))
    flat[:, :k] = rng.standard_normal((len(flat), k))
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    offset = shift * rng.standard_normal(d)
    pts = spread * flat @ rotation.T + offset
    weights = rng.dirichlet(np.ones(len(pts)), size=30)
    mixes = weights @ pts
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    box = lo + rng.random((60, d)) * (hi - lo)
    margin = HULL_MARGIN * max(float(np.linalg.norm(hi - lo)), 1.0)
    normals = rotation[:, k:]
    pushed = [
        mixes[:10] + t * margin * normals[:, rng.integers(d - k)]
        for t in (0.0, 0.5, 2.0, 10.0)
        if k < d
    ]
    return pts, np.vstack([pts, mixes, box, *pushed])


def plain_lp_membership(points, qs):
    """Convex-combination feasibility by one unscaled LP per query.

    A reported solution counts only if it meets the equality rows within
    HiGHS's own feasibility tolerance, 1e-7 x max(1, |b|): HiGHS can
    report success with weights that miss a query off a flat cloud's
    plane by far more than that.
    """
    from scipy.optimize import linprog

    n = len(points)
    a_eq = np.vstack([np.asarray(points).T, np.ones((1, n))])
    want = np.zeros(len(qs), dtype=bool)
    for i, q in enumerate(qs):
        b = np.concatenate([q, [1.0]])
        res = linprog(np.zeros(n), A_eq=a_eq, b_eq=b, bounds=(0.0, None), method="highs")
        want[i] = res.status == 0 and (
            np.abs(a_eq @ res.x - b).max() <= 1e-7 * max(1.0, np.abs(b).max())
        )
    return want


class TestShapeUnion:
    def test_disjoint_measure_is_exact(self):
        union = ShapeUnion([square_shape(0.0), square_shape(10.0)])
        detail = union.compute_measure(seed=0, n_samples=5000)
        assert detail.total == pytest.approx(2.0, rel=1e-12)
        assert detail.overlap == 0.0 and detail.overlap_half_width_95 == 0.0
        assert union.measure == detail.total

    def test_single_member_short_circuit(self):
        union = ShapeUnion([square_shape()])
        detail = union.compute_measure(seed=0, n_samples=5000)
        assert detail.total == pytest.approx(1.0) and detail.overlap == 0.0

    def test_overlap_correction(self):
        union = ShapeUnion([square_shape(0.0), square_shape(0.5)])
        detail = union.compute_measure(seed=0, n_samples=80_000)
        assert detail.member_sum == pytest.approx(2.0)
        assert detail.overlap == pytest.approx(0.5, abs=0.03)
        assert detail.total == pytest.approx(1.5, abs=0.03)

    def test_overlap_matches_reference_scheme_bit_for_bit(self):
        # 8192-sample batches from SeedSequence(seed).spawn, uniform on the
        # union box, summing w and w*w with w = max(multiplicity - 1, 0)
        seed, n = 5, 20_000
        detail = ShapeUnion([square_shape(0.0), square_shape(0.5)]).compute_measure(
            seed=seed, n_samples=n
        )
        lo, widths = np.array([0.0, 0.0]), np.array([1.5, 1.0])
        counts = [8192, 8192, n - 2 * 8192]
        total = total_sq = 0.0
        for m, ss in zip(counts, np.random.SeedSequence(seed).spawn(len(counts))):
            pts = lo + np.random.default_rng(ss).random((m, 2)) * widths
            mult = sum(
                ((pts[:, 0] >= x0) & (pts[:, 0] <= x0 + 1.0)).astype(np.int64)
                for x0 in (0.0, 0.5)
            )
            w = np.maximum(mult - 1, 0).astype(float)
            total += float(w.sum())
            total_sq += float((w * w).sum())
        box_volume = 1.5
        mean = total / n
        var = max(total_sq / n - mean * mean, 0.0)
        assert detail.overlap == box_volume * mean
        assert detail.overlap_half_width_95 == 1.96 * box_volume * float(np.sqrt(var / n))
        assert detail.total == max(detail.member_sum - box_volume * mean, 0.0)

    def test_membership_is_disjunction(self):
        union = ShapeUnion([square_shape(0.0), square_shape(10.0)])
        assert union.contains([0.5, 0.5])
        assert union.contains([10.5, 0.5])
        assert not union.contains([5.0, 0.5])
        got = union.contains_batch(
            np.array([[0.5, 0.5], [10.5, 0.5], [5.0, 0.5]])
        )
        assert got.tolist() == [True, True, False]

    def test_union_bbox_covers_members(self):
        union = ShapeUnion([square_shape(0.0), square_shape(10.0)])
        box = union.bbox()
        assert box[:, 0].tolist() == [0.0, 0.0]
        assert box[:, 1].tolist() == [11.0, 1.0]

    def test_rank_deficient_members_overlap_zero_without_sampling(self):
        # the boxes overlap, but at most one member is full-dimensional;
        # n_samples below the minimum would raise if anything were sampled
        planes = [ConvexHullShape(tilted_plane(seed=s)) for s in (1, 2)]
        solids = [
            ConvexHullShape(np.vstack([tilted_plane(), [[0.5, 0.5, z]]]))
            for z in (0.0, 2.0)
        ]
        for hull in (*planes, *solids):
            hull.estimate_measure(seed=0, n_samples=2000)
        for members in (planes, [planes[0], solids[0]]):
            union = ShapeUnion(members)
            assert not union._member_boxes_disjoint()
            detail = union.compute_measure(seed=0, n_samples=10)
            assert detail.overlap == 0.0 and detail.overlap_half_width_95 == 0.0
            assert detail.total == detail.member_sum == sum(m.measure for m in members)
        with pytest.raises(ValueError, match="at least 1000"):
            ShapeUnion(solids).compute_measure(seed=0, n_samples=10)

    def test_member_measures_required(self):
        hull = ConvexHullShape(SQUARE)  # measure not estimated yet
        union = ShapeUnion([hull])
        with pytest.raises(ValueError):
            union.compute_measure()

    @pytest.mark.parametrize("n_samples", [10, 0])
    def test_sample_count_below_minimum_refused(self, n_samples):
        union = ShapeUnion([square_shape(0.0), square_shape(0.5)])
        with pytest.raises(ValueError, match="at least 1000"):
            union.compute_measure(seed=0, n_samples=n_samples)
        assert union.measure_detail is None
        disjoint = ShapeUnion([square_shape(0.0), square_shape(10.0)])
        assert disjoint.compute_measure(seed=0, n_samples=n_samples).overlap == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ShapeUnion([])
        with pytest.raises(DimensionMismatch):
            ShapeUnion([square_shape(), ConvexHullShape(np.eye(3))])

    def test_provenance_round_trip(self):
        union = ShapeUnion([square_shape()], provenance={"max_cluster_size": 9})
        d = union.to_dict()
        assert d["kind"] == "shape_union"
        assert d["provenance"] == {"max_cluster_size": 9}
        assert d["n_members"] == 1


SHAPE_KINDS = {
    "alpha_shape": lambda: alpha_complex(delaunay(SQUARE), 1.0),
    "convex_hull": lambda: ConvexHullShape(SQUARE),
    "shape_union": lambda: ShapeUnion([square_shape(0.0), square_shape(10.0)]),
}


@pytest.mark.parametrize("kind", sorted(SHAPE_KINDS))
class TestMembershipContract:
    """Every shape kind answers one point as a batch of one and refuses a
    batch of the wrong shape with one message."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_point_is_a_batch_of_one(self, kind):
        shape = SHAPE_KINDS[kind]()
        inside = [*SQUARE, [0.5, 0.0], [1.0, 0.3], [0.5, 0.5], [0.2, 0.7]]
        outside = [[-0.5, 0.5], [1.5, 2.0], [np.nan, 0.5], [0.5, np.inf], [-np.inf, 0.0]]
        for q, want in [(q, True) for q in inside] + [(q, False) for q in outside]:
            q = np.array(q, dtype=float)
            assert shape.contains(q) == shape.contains_batch(q[None])[0] == want, q

    def test_empty_batch_gives_empty_mask(self, kind):
        mask = SHAPE_KINDS[kind]().contains_batch(np.zeros((0, 2)))
        assert mask.dtype == bool and mask.shape == (0,)

    @pytest.mark.parametrize(
        "call,arg",
        [
            ("contains", [0.5, 0.5, 0.5]),
            ("contains_batch", np.array([0.5, 0.5])),
            ("contains_batch", np.zeros((0, 3))),
        ],
    )
    def test_wrong_shape_refused(self, kind, call, arg):
        shape = SHAPE_KINDS[kind]()
        with pytest.raises(DimensionMismatch, match=r"queries must have shape \(m, 2\), got"):
            getattr(shape, call)(arg)
