"""Conforming triangulations of convex polygons.

The generator samples each polygon facet at half the interior target
spacing (boundary-flux accuracy drives the downstream pipeline), fills the
interior with a hexagonal lattice anchored at the bounding-box corner,
relaxes the band of nodes near the boundary with a few Laplacian sweeps,
and Delaunay-triangulates the whole point set once.  The interior lattice
is already equilateral, so each sweep triangulates only the boundary band.
Anchoring the lattice at the bounding box makes meshing equivariant under
translations and dilations, which the homogeneity and gauge-invariance
checks rely on.

Every boundary edge is attributed to the polygon facet it lies on, so
boundary integrals can be assembled facet by facet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import InvariantViolation, MeshTooFine, PointOutside
from .support_geometry import Polygon, metrics

DEFAULT_NODE_CAP = 2_000_000
SMOOTH_SWEEPS = 4
MIN_ANGLE_DEG = 20.0  # smallest triangle angle check_mesh accepts


@dataclass
class TriMesh:
    """Triangulation of a convex polygon.

    ``triangles`` are positively oriented node index triples.  Boundary
    edge ``k`` joins ``boundary_edges[k]`` (a consecutive node pair along
    the boundary walk) and lies on polygon facet ``boundary_facets[k]``.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_facets: np.ndarray
    boundary_edge_lengths: np.ndarray
    target_h: float
    polygon: Polygon
    _tree: cKDTree | None = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def is_boundary(self) -> np.ndarray:
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.boundary_edges.ravel()] = True
        return mask

    @property
    def boundary_node_ids(self) -> np.ndarray:
        return np.unique(self.boundary_edges)

    def triangle_areas(self) -> np.ndarray:
        a, b, c = (self.nodes[self.triangles[:, k]] for k in range(3))
        return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                      - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))

    def locate(self, points, k: int = 16) -> np.ndarray:
        """Index of the triangle containing each query point (-1 outside).

        Candidate triangles come from a KD-tree over centroids; points the
        candidates miss fall back to a full scan.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self._tree is None:
            cent = self.nodes[self.triangles].mean(axis=1)
            self._tree = cKDTree(cent)
        k = min(k, self.n_triangles)
        _, cand = self._tree.query(pts, k=k)
        cand = np.atleast_2d(cand)
        if cand.shape[0] != len(pts):
            cand = cand.T
        out = np.full(len(pts), -1, dtype=int)
        remaining = np.arange(len(pts))
        for col in range(cand.shape[1]):
            if len(remaining) == 0:
                break
            tri_idx = cand[remaining, col]
            ok = self._inside_triangles(pts[remaining], tri_idx)
            out[remaining[ok]] = tri_idx[ok]
            remaining = remaining[~ok]
        for row in remaining:  # rare: scan everything
            hit = np.flatnonzero(self._inside_triangles(
                np.repeat(pts[row][None, :], self.n_triangles, axis=0),
                np.arange(self.n_triangles)))
            if len(hit):
                out[row] = hit[0]
        return out

    def _inside_triangles(self, pts: np.ndarray, tri_idx: np.ndarray) -> np.ndarray:
        tri = self.triangles[tri_idx]
        a, b, c = self.nodes[tri[:, 0]], self.nodes[tri[:, 1]], self.nodes[tri[:, 2]]
        tol = -1e-9 * np.abs(_cross(b - a, c - a))
        return ((_cross(b - a, pts - a) >= tol)
                & (_cross(c - b, pts - b) >= tol)
                & (_cross(a - c, pts - c) >= tol))

    def barycentric(self, points):
        """(triangle index, weights) for interior query points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tri_idx = self.locate(pts)
        if np.any(tri_idx < 0):
            raise PointOutside(f"{int((tri_idx < 0).sum())} query points outside the mesh")
        tri = self.triangles[tri_idx]
        a, b, c = self.nodes[tri[:, 0]], self.nodes[tri[:, 1]], self.nodes[tri[:, 2]]
        twice_area = _cross(b - a, c - a)
        w0 = _cross(b - pts, c - pts) / twice_area
        w1 = _cross(c - pts, a - pts) / twice_area
        w2 = 1.0 - w0 - w1
        return tri_idx, np.column_stack([w0, w1, w2])


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _boundary_samples(p: Polygon, spacing: float):
    """Per-facet equispaced boundary points, walked counterclockwise.

    Interior samples of each facet get a deterministic outward bulge of
    at most 1e-12 times the facet length.  Exactly collinear boundary
    points make qhull's hull-edge structure depend on rounding noise; the
    bulge keeps every sample a strict hull vertex while staying 3+ orders
    below every geometric tolerance in the pipeline (and 3+ orders above
    coordinate roundoff for any facet fine enough to carry samples).

    Returns the stacked points and, per consecutive pair, the facet index.
    """
    pts, facets = [], []
    for i in range(len(p)):
        a = p.vertices[i]
        b = p.vertices[(i + 1) % len(p)]
        length = p.facet_lengths[i]
        m = max(1, int(np.ceil(length / spacing - 1e-9)))
        t = np.arange(m) / m
        bulge = (4.0 * t * (1.0 - t) * 1e-12 * length)[:, None] * p.facet_normals[i]
        pts.append(a + t[:, None] * (b - a) + bulge)
        facets.append(np.full(m, i))
    return np.vstack(pts), np.concatenate(facets)


def _hex_lattice(p: Polygon, h: float, margin: float) -> np.ndarray:
    """Hexagonal lattice points strictly inside the polygon.

    Anchored at the bounding-box corner so the construction commutes with
    translations and dilations of the polygon.
    """
    xmin, ymin = p.vertices.min(axis=0)
    xmax, ymax = p.vertices.max(axis=0)
    dy = h * np.sqrt(3.0) / 2.0
    ny = int(np.floor((ymax - ymin) / dy)) + 1
    nx = int(np.floor((xmax - xmin) / h)) + 1
    iy, ix = np.mgrid[0:ny, 0:nx]
    x = xmin + ix * h + (iy % 2) * (h / 2.0)
    y = ymin + iy * dy
    pts = np.column_stack([x.ravel(), y.ravel()])
    keep = p.distance_to_boundary(pts) >= margin
    return pts[keep]


def _smooth(points: np.ndarray, n_fixed: int, h_lat: float, polygon: Polygon,
            min_margin: float) -> np.ndarray:
    """Laplacian sweeps over the boundary band, with the first n_fixed pinned.

    A lattice node with all six lattice neighbours sits at their mean, so
    only nodes within about 1.5 h_lat of the boundary start off balance,
    and each sweep spreads motion at most one ring (h_lat) deeper.  Nodes
    deeper than (sweeps + 1.5) h_lat thus never move, and each sweep
    triangulates only the band at depth <= (sweeps + 3) h_lat: the Delaunay
    neighbours of a movable node lie under 1.5 h_lat deeper than it, so its
    star lies in the band, stays Delaunay there and is its full star.  The
    long triangles the band's Delaunay puts across the hole touch only
    pinned nodes.
    """
    pts = points.copy()
    depth = polygon.distance_to_boundary(pts)
    band = np.flatnonzero(depth <= (SMOOTH_SWEEPS + 3) * h_lat)
    movable = (band >= n_fixed) & (depth[band] <= (SMOOTH_SWEEPS + 1.5) * h_lat)
    for _ in range(SMOOTH_SWEEPS):
        sub = pts[band]
        indptr, indices = Delaunay(sub).vertex_neighbor_vertices
        counts = np.maximum(np.diff(indptr), 1)
        means = np.add.reduceat(sub[indices], indptr[:-1], axis=0) / counts[:, None]
        upd = movable & (polygon.distance_to_boundary(means) >= min_margin)
        pts[band[upd]] = means[upd]
    return pts


def triangulate(p: Polygon, target_h: float, node_cap: int = DEFAULT_NODE_CAP) -> TriMesh:
    """Triangulate a convex polygon at the requested resolution.

    Parameters
    ----------
    p : Polygon
        Domain; must satisfy 0 < target_h < inradius.
    target_h : float
        Interior spacing target.  Boundary spacing is target_h / 2.
    node_cap : int
        Hard cap on the node count; exceeding it raises MeshTooFine.
    """
    if target_h <= 0:
        raise InvariantViolation("target_h must be positive")
    inradius = metrics(p).inradius
    if target_h >= inradius:
        raise InvariantViolation(
            f"target_h={target_h:g} must be below the inradius {inradius:g}")
    spacing = target_h / 2.0
    bpts, bfacets = _boundary_samples(p, spacing)
    h_lat = 0.85 * target_h
    interior = _hex_lattice(p, h_lat, margin=0.5 * h_lat)
    n_total = len(bpts) + len(interior)
    if n_total > node_cap:
        raise MeshTooFine(f"mesh would need {n_total} nodes (cap {node_cap})")
    points = _smooth(np.vstack([bpts, interior]), len(bpts), h_lat, p,
                     min_margin=0.4 * spacing)
    triangles = _orient(points, Delaunay(points).simplices)
    nb = len(bpts)
    edges = np.column_stack([np.arange(nb), (np.arange(nb) + 1) % nb])
    lengths = np.hypot(*(points[edges[:, 1]] - points[edges[:, 0]]).T)
    mesh = TriMesh(points, triangles, edges, bfacets, lengths, target_h, p)
    _assert_conforming(mesh)
    return mesh


def _orient(nodes: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    tris = simplices.copy()
    a, b, c = nodes[tris[:, 0]], nodes[tris[:, 1]], nodes[tris[:, 2]]
    flip = _cross(b - a, c - a) < 0
    tris[flip, 1], tris[flip, 2] = tris[flip, 2], tris[flip, 1]
    return tris


def _edge_key(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Integer key min*n + max of each undirected edge of an n-node mesh."""
    return np.minimum(i, j).astype(np.int64) * n + np.maximum(i, j)


def _edge_counts(mesh: TriMesh):
    """Sorted edge keys of the triangulation and each edge's triangle count."""
    t = mesh.triangles
    keys = _edge_key(t, np.roll(t, -1, axis=1), mesh.n_nodes)
    return np.unique(keys, return_counts=True)


def _assert_conforming(mesh: TriMesh) -> None:
    keys, counts = _edge_counts(mesh)
    if counts.max() > 2:
        raise InvariantViolation("non-manifold edge in triangulation")
    b = mesh.boundary_edges
    expected = np.sort(_edge_key(b[:, 0], b[:, 1], mesh.n_nodes))
    if not np.array_equal(keys[counts == 1], expected):
        raise InvariantViolation("triangulation boundary does not match the facet walk")


def refine(m: TriMesh, node_cap: int = DEFAULT_NODE_CAP) -> TriMesh:
    """Uniform refinement: each triangle splits into 4 via edge midpoints.

    Child triangles are similar to their parent, so angle quality is
    preserved exactly; boundary facet attribution is inherited.  The
    midpoint of the k-th edge in key order becomes node n_nodes + k.
    """
    keys, _ = _edge_counts(m)
    n = m.n_nodes
    if n + len(keys) > node_cap:
        raise MeshTooFine(f"refinement would need {n + len(keys)} nodes (cap {node_cap})")
    nodes = np.vstack([m.nodes, 0.5 * (m.nodes[keys // n] + m.nodes[keys % n])])

    def mid(i, j):
        return n + np.searchsorted(keys, _edge_key(i, j, n))

    a, b, c = m.triangles.T
    ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
    triangles = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    i, j = m.boundary_edges.T
    k = mid(i, j)
    b_edges = np.stack([i, k, k, j], axis=1).reshape(-1, 2)
    lengths = np.hypot(*(nodes[b_edges[:, 1]] - nodes[b_edges[:, 0]]).T)
    out = TriMesh(nodes, triangles, b_edges, np.repeat(m.boundary_facets, 2),
                  lengths, m.target_h / 2.0, m.polygon)
    _assert_conforming(out)
    return out


@dataclass(frozen=True)
class MeshCheckReport:
    conforming: bool
    oriented: bool
    boundary_partition_ok: bool
    facet_length_error: float
    min_angle_deg: float
    max_edge_over_h: float
    max_boundary_edge_over_h: float
    area_error: float
    ok: bool


def check_mesh(m: TriMesh) -> MeshCheckReport:
    """Run the full mesh invariant battery and report the worst offenders."""
    try:
        _assert_conforming(m)
        conforming = True
    except InvariantViolation:
        conforming = False
    areas = m.triangle_areas()
    oriented = bool(np.all(areas > 0))
    facet_sums = np.zeros(len(m.polygon))
    np.add.at(facet_sums, m.boundary_facets, m.boundary_edge_lengths)
    facet_err = float(np.max(np.abs(facet_sums - m.polygon.facet_lengths)
                             / np.maximum(1.0, m.polygon.facet_lengths)))
    boundary_ok = facet_err <= 1e-9

    a, b, c = (m.nodes[m.triangles[:, k]] for k in range(3))
    la, lb, lc = (np.hypot(*(v - u).T) for u, v in ((b, c), (c, a), (a, b)))
    angles = []
    for opp, e1, e2 in ((la, lb, lc), (lb, lc, la), (lc, la, lb)):
        cosv = np.clip((e1 ** 2 + e2 ** 2 - opp ** 2) / (2 * e1 * e2), -1, 1)
        angles.append(np.degrees(np.arccos(cosv)))
    min_angle = float(np.min(angles))

    max_edge = float(max(la.max(), lb.max(), lc.max()))
    area_err = float(abs(areas.sum() - m.polygon.area) / m.polygon.area)
    report = MeshCheckReport(
        conforming=conforming,
        oriented=oriented,
        boundary_partition_ok=boundary_ok,
        facet_length_error=facet_err,
        min_angle_deg=min_angle,
        max_edge_over_h=max_edge / m.target_h,
        max_boundary_edge_over_h=float(m.boundary_edge_lengths.max() / m.target_h),
        area_error=area_err,
        ok=(conforming and oriented and boundary_ok
            and min_angle >= MIN_ANGLE_DEG
            and max_edge <= 1.5 * m.target_h
            and m.boundary_edge_lengths.max() <= m.target_h
            and area_err <= 1e-10),
    )
    return report
