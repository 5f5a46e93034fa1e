"""Conforming triangulations of convex polygons.

The generator works in the polygon's lattice frame: the bounding-box
corner moved to the origin, and the coordinates divided by the power of
two nearest the extent (an exact division).  There it samples each
polygon facet at spacing target_h / 2, the mesh-size convention, and
fills the interior with a hexagonal lattice of spacing 0.85 target_h
anchored at the origin, keeping the lattice points at least 0.4 lattice
spacings deep.  On each lattice row these points form one span of
columns, and so do the points deeper than the boundary band; both spans
come from the row's chords of the polygon's inner parallel bodies,
computed from the facets, and depth is evaluated only at the chord ends
that roundoff could decide (see ``_row_spans``).  Nothing moves the
nodes afterwards, so they are closed-form in the polygon's vertices.
The mesh is their Delaunay triangulation, from one qhull call on the
boundary band (the nodes at most 1.5 lattice spacings deep), whose
triangles are kept by an emptiness test against the deeper nodes' spans,
and the elementary lattice triangles of the deeper nodes, emitted
straight from the spans (see ``_stitch``).  The nodes are
mapped back once, as ``corner + unit * points``.  Since the frame
removes the body's position and size, meshing commutes with translations
and dilations, which the homogeneity and gauge-invariance checks rely
on, and its roundoff does not grow with the distance from the origin.

Every boundary edge is attributed to the polygon facet it lies on, so
boundary integrals can be assembled facet by facet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import InvariantViolation, MeshTooFine, PointOutside
from .support_geometry import Polygon, _own, metrics

NODE_CAP = 2_000_000  # triangulate and refine raise MeshTooFine above this
REL_MESH_H = 0.02  # default spacing relative to a body's circumradius (solver, verify checks, CLI)
LATTICE_MARGIN = 0.4  # kept lattice points lie at least this many lattice spacings deep
# Band depth in lattice spacings: _hex_lattice marks the deeper nodes, and
# _stitch needs it > 2/sqrt(3) and >= 1 + LATTICE_MARGIN.
_BAND_RINGS = 1.5
_DEPTH_TIE = 1e-12  # lattice depths this close to a threshold are evaluated (see _row_spans)
MIN_ANGLE_DEG = 20.0  # smallest triangle angle check_mesh accepts
LOCATE_CANDIDATES = 16  # nearest triangle centroids tried before a full scan


@dataclass(frozen=True)
class TriMesh:
    """Triangulation of a convex polygon.

    ``triangles`` are positively oriented node index triples.  Boundary
    edge ``k`` joins ``boundary_edges[k]`` (a consecutive node pair along
    the boundary walk) and lies on polygon facet ``boundary_facets[k]``.

    The edge table: ``edges`` holds the sorted unique keys min*n + max
    of the undirected edges (see ``_edge_key``), and
    ``triangle_edges[t, k]`` is the index in ``edges`` of the edge of
    triangle t opposite its node k.  The conformity check, ``refine`` and
    the stiffness assembly read it.  Both constructors pass it:
    ``triangulate`` builds it from the triangles (``_edge_table``), and
    ``refine`` from the parent's table (``_child_edges``).

    Every array is a read-only copy of the constructor's argument, so
    nothing can move a node or a triangle under the edge table, the
    conformity check or a field solved on the mesh.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_facets: np.ndarray
    boundary_edge_lengths: np.ndarray
    target_h: float
    polygon: Polygon
    edges: np.ndarray = field(repr=False, compare=False)
    triangle_edges: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        _own(self, nodes=self.nodes, triangles=self.triangles, boundary_edges=self.boundary_edges,
             boundary_facets=self.boundary_facets, edges=self.edges,
             boundary_edge_lengths=self.boundary_edge_lengths, triangle_edges=self.triangle_edges)

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
        return 0.5 * _p1_basis(self.nodes, self.triangles)[0]

    def barycentric(self, points):
        """(triangle index, weights) of each query point.

        Candidate triangles come from a KD-tree over centroids, built per
        call; points the candidates miss fall back to a full scan.  Raises
        PointOutside, listing the indices of the points no triangle holds.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        tree = cKDTree(self.nodes[self.triangles].mean(axis=1))
        _, cand = tree.query(pts, k=range(1, min(LOCATE_CANDIDATES, self.n_triangles) + 1))
        out = np.full(len(pts), -1, dtype=int)
        weights = np.zeros((len(pts), 3))
        remaining = np.arange(len(pts))
        for col in range(cand.shape[1]):
            if len(remaining) == 0:
                break
            tri_idx = cand[remaining, col]
            ok, w = _barycentric(self.nodes, self.triangles[tri_idx], pts[remaining])
            out[remaining[ok]] = tri_idx[ok]
            weights[remaining[ok]] = w
            remaining = remaining[~ok]
        for row in remaining:  # rare: scan everything
            ok, w = _barycentric(self.nodes, self.triangles, pts[row][None, :])
            hit = np.flatnonzero(ok)
            if len(hit):
                out[row] = hit[0]
                weights[row] = w[0]
        missed = np.flatnonzero(out < 0)
        if len(missed):
            raise PointOutside(f"{len(missed)} query points outside the mesh: {missed.tolist()}")
        return out, weights


def _p1_basis(nodes: np.ndarray, triangles: np.ndarray):
    """P1 element geometry: (twice_area, gx, gy) per triangle.

    Row t of the (T, 3) arrays gx, gy holds the gradients of the three
    barycentric basis functions of triangle t, scaled by its twice-area,
    which is signed: positive for a counterclockwise node triple.
    """
    x, y = nodes[:, 0][triangles], nodes[:, 1][triangles]
    gx = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    gy = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    return gx[:, 1] * gy[:, 2] - gx[:, 2] * gy[:, 1], gx, gy


def _barycentric(nodes: np.ndarray, triangles: np.ndarray, pts: np.ndarray):
    """Which points lie in their row's triangle, and their weights there.

    Weight k vanishes on the edge opposite node k, which passes through
    node k+1.  A point is inside when no twice-area-scaled weight falls
    below -1e-9 times the twice-area.  Returns the inside mask and the
    weights of the inside rows.
    """
    twice_area, gx, gy = _p1_basis(nodes, triangles)
    d = pts[:, None, :] - nodes[np.roll(triangles, -1, axis=1)]
    scaled = gx * d[..., 0] + gy * d[..., 1]
    inside = np.all(scaled >= (-1e-9 * np.abs(twice_area))[:, None], axis=1)
    return inside, scaled[inside] / twice_area[inside, None]


def _boundary_samples(p: Polygon, spacing: float):
    """Per-facet equispaced boundary points, walked counterclockwise.

    Interior samples of each facet get a deterministic outward bulge of
    at most 1e-12 times the facet length.  Exactly collinear boundary
    points make qhull's hull-edge structure depend on rounding noise; the
    bulge keeps every sample a strict hull vertex while staying 3+ orders
    below every geometric tolerance in the pipeline.  ``triangulate``
    samples in the lattice frame, where coordinates are below 2 whatever
    the body's position and size, so their roundoff is below 2.2e-16.
    The bulge of an interior sample is at least 4e-12 boundary spacings,
    which stays above that while the boundary spacing is above 1e-4 of
    the body's extent.

    Returns the stacked points and, per consecutive pair, the facet index.
    The samples are counted before any is built: MeshTooFine is raised
    when there would be more than NODE_CAP of them; a spacing so small
    that the quotient overflows, or underflows to 0, counts as infinitely
    many.
    """
    with np.errstate(over="ignore", divide="ignore"):
        counts = np.maximum(1.0, np.ceil(p.facet_lengths / spacing - 1e-9))
    if counts.sum() > NODE_CAP:
        raise MeshTooFine(f"{counts.sum():.3g} boundary samples exceed the node cap {NODE_CAP}")
    counts = counts.astype(int)
    pts = []
    for i, m in enumerate(counts):
        a, b = p.vertices[i], p.vertices[(i + 1) % len(p)]
        t = np.arange(m) / m
        bulge = (4.0 * t * (1.0 - t) * 1e-12 * p.facet_lengths[i])[:, None] * p.facet_normals[i]
        pts.append(a + t[:, None] * (b - a) + bulge)
    return np.vstack(pts), np.repeat(np.arange(len(p)), counts)


def _lattice_xy(iy: np.ndarray, ix: np.ndarray, h: float):
    """Frame coordinates (x, y) of the lattice points (iy, ix) of spacing h.

    The point of row iy and column ix has doubled column j = 2 ix + iy % 2
    and sits at (j h / 2, iy h sqrt(3) / 2).
    """
    return (2 * ix + iy % 2) * (h / 2.0), iy * (h * np.sqrt(3.0) / 2.0)


def _spans(lo: np.ndarray, hi: np.ndarray):
    """Row and column of every entry of the per-row column ranges [lo, hi],
    row by row and in column order; a range with hi < lo is empty."""
    counts = np.maximum(hi - lo + 1, 0)
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(counts.sum()) + (lo - np.cumsum(counts) + counts)[rows]


def _row_spans(p: Polygon, h: float, n_rows: int, n_cols: int, level: float, passes):
    """Per lattice row, the first and last column whose point passes the
    depth test ``passes(p.distance_to_boundary(point), level)``.

    Along a row each facet's term ``offset - (nx x + ny y)`` of
    ``distance_to_boundary`` is monotone in the column, in floating point
    too (every rounding is monotone), so the points that pass form one
    interval of columns.  Its ends come from the row's chord of the parallel
    body at depth ``level``, in closed form from the facets in O(rows x
    facets) time and O(rows) memory: a point whose exact depth is more
    than _DEPTH_TIE above ``level`` passes, one more than _DEPTH_TIE below
    fails, far beyond the roundoff of frame coordinates below 2.  Only the
    points in between are evaluated, so every decision is the one
    ``passes`` makes on the point's computed depth.  A row that no point
    passes gets (n_cols, -1).
    """
    iy = np.arange(n_rows)
    y = iy * (h * np.sqrt(3.0) / 2.0)
    # row 0 of each array at depth level + _DEPTH_TIE (sure to pass), row 1
    # at level - _DEPTH_TIE
    levels = np.array([[level + _DEPTH_TIE], [level - _DEPTH_TIE]])
    x_lo, x_hi = np.full((2, n_rows), -np.inf), np.full((2, n_rows), np.inf)
    with np.errstate(over="ignore"):
        for (nx, ny), offset in zip(p.facet_normals, p.offsets):
            room = offset - ny * y - levels  # the facet's term passes where nx x <= room
            if nx < 0:
                np.maximum(x_lo, room / nx, out=x_lo)
            elif nx > 0:
                np.minimum(x_hi, room / nx, out=x_hi)
            else:
                x_hi[room < 0] = -np.inf
    sure_lo, lo = np.clip(np.ceil((x_lo / (h / 2.0) - iy % 2) / 2.0), 0, n_cols).astype(int)
    sure_hi, hi = np.clip(np.floor((x_hi / (h / 2.0) - iy % 2) / 2.0), -1, n_cols - 1).astype(int)
    none_sure = sure_lo > sure_hi
    unsure = [_spans(lo, np.where(none_sure, hi, sure_lo - 1)),
              _spans(np.where(none_sure, hi + 1, sure_hi + 1), hi)]
    rows, cols = (np.concatenate(a) for a in zip(*unsure))
    first = np.where(none_sure, n_cols, sure_lo)
    last = np.where(none_sure, -1, sure_hi)
    if len(rows):
        ok = passes(p.distance_to_boundary(np.column_stack(_lattice_xy(rows, cols, h))), level)
        np.minimum.at(first, rows[ok], cols[ok])
        np.maximum.at(last, rows[ok], cols[ok])
    return first, last


def _hex_lattice(p: Polygon, h: float, cap: int):
    """Hexagonal lattice points at depth >= LATTICE_MARGIN * h in a
    polygon whose bounding-box corner is the origin (see ``_lattice_xy``).

    The rows cover the bounding box.  Returns the kept points, row by row
    and in column order; whether each lies deeper than the boundary band
    (depth > _BAND_RINGS * h); and, as (first, last) column arrays per row,
    the kept points and the deeper ones (see ``_row_spans``).  The node
    count follows from the kept spans, so MeshTooFine is raised when it
    exceeds ``cap`` before any array of the lattice's size exists.
    """
    n_rows = int(np.floor(p.vertices[:, 1].max() / (h * np.sqrt(3.0) / 2.0))) + 1
    n_cols = int(np.floor(p.vertices[:, 0].max() / h)) + 1
    kept = _row_spans(p, h, n_rows, n_cols, LATTICE_MARGIN * h, np.greater_equal)
    count = int(np.maximum(kept[1] - kept[0] + 1, 0).sum())
    if count > cap:
        raise MeshTooFine(f"the lattice needs {count} nodes, above the {cap} "
                          f"that the node cap {NODE_CAP} leaves")
    deep = _row_spans(p, h, n_rows, n_cols, _BAND_RINGS * h, np.greater)
    rows, cols = _spans(*kept)
    outside = (cols >= deep[0][rows]) & (cols <= deep[1][rows])
    return np.column_stack(_lattice_xy(rows, cols, h)), outside, kept, deep


def _stitch(points: np.ndarray, outside: np.ndarray, h: float, kept, deep) -> np.ndarray:
    """Delaunay triangles of all points, counterclockwise, from one Delaunay
    of the boundary band and the lattice spans of the rest.

    The points start with the boundary samples, at depth <= 0, and end
    with the lattice nodes of spacing h that ``_hex_lattice`` kept, at
    depths >= LATTICE_MARGIN h, in the per-row column spans ``kept``.
    ``outside`` marks the lattice nodes deeper than B h, B = _BAND_RINGS,
    which lie in the spans ``deep``; the band holds the rest.  Take a node
    outside the band; depth is 1-Lipschitz.  Every point within 2 h /
    sqrt(3) of it (the circumdisks of its six elementary triangles) is
    deeper than (B - 2 / sqrt(3)) h > 0, so is a lattice node, and no
    lattice node lies inside the circumdisk of an elementary triangle.  Its
    six lattice neighbours are deeper than (B - 1) h >= LATTICE_MARGIN h,
    so the keep test kept them.  The Delaunay star of a node outside the
    band is thus its six elementary triangles (``_lattice_triangles``).
    B = 1.5 meets both bounds with slack, which is needed: beside a facet
    parallel to the lattice columns, lattice depths fall on multiples of
    h / 2, where both depth tests are decided by roundoff.

    The triangles with all three nodes in the band are those of the band's
    Delaunay whose circumdisk holds no node outside the band
    (``_disks_hold_deep_nodes``).  They come counterclockwise from qhull,
    as scipy documents for 2-D ``Delaunay.simplices``.
    """
    band = np.flatnonzero(~outside)
    tris = band[Delaunay(points[band]).simplices]
    centre, radius = _circumcircles(points, tris)
    tris = tris[~_disks_hold_deep_nodes(centre, radius, h, deep)]
    return np.vstack([tris, _lattice_triangles(kept, outside)])


def _circumcircles(points: np.ndarray, triangles: np.ndarray):
    """Circumcentre and circumradius of each triangle."""
    a = points[triangles[:, 0]]
    b = points[triangles[:, 1]] - a
    c = points[triangles[:, 2]] - a
    bb, cc = (b * b).sum(axis=1), (c * c).sum(axis=1)
    d = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    u = np.column_stack([c[:, 1] * bb - b[:, 1] * cc, b[:, 0] * cc - c[:, 0] * bb]) / d[:, None]
    return a + u, np.hypot(u[:, 0], u[:, 1])


def _disks_hold_deep_nodes(centre: np.ndarray, radius: np.ndarray, h: float, deep) -> np.ndarray:
    """Whether each disk holds a lattice node of the per-row column spans
    ``deep``: a node whose distance sqrt(dx^2 + dy^2) from the centre is
    below the radius.

    On each row the computed distance falls and then rises along the span,
    so its minimum is at one of the two nodes beside the centre's x (or at
    the span's end nearest it); the rows whose y is more than a row spacing
    beyond the disk cannot hold a node.  The two rows nearest the centre go
    first: they reject the large disks of the triangles that fill the band's
    hole, so that only the others sweep every row they cross.
    """
    row_gap = h * np.sqrt(3.0) / 2.0
    n_rows = len(deep[0])

    def probe(disks, row_lo, row_hi):
        k, iy = _spans(np.clip(row_lo, 0, n_rows).astype(int),
                       np.clip(row_hi, -1, n_rows - 1).astype(int))
        (cx, cy), r, lo, hi = centre[disks[k]].T, radius[disks[k]], deep[0][iy], deep[1][iy]
        left = np.floor((cx / (h / 2.0) - iy % 2) / 2.0)
        hit = np.zeros(len(k), dtype=bool)
        for col in (left, left + 1):
            x, y = _lattice_xy(iy, np.clip(col, lo, hi), h)
            dx, dy = x - cx, y - cy
            hit |= np.sqrt(dx * dx + dy * dy) < r
        held = np.zeros(len(disks), dtype=bool)
        held[k[hit & (lo <= hi)]] = True
        return held

    near = np.floor(centre[:, 1] / row_gap)
    held = probe(np.arange(len(radius)), near, near + 1)
    rest = np.flatnonzero(~held)
    held[rest] = probe(rest, np.floor((centre[rest, 1] - radius[rest]) / row_gap),
                       np.ceil((centre[rest, 1] + radius[rest]) / row_gap))
    return held


def _lattice_triangles(kept, outside: np.ndarray) -> np.ndarray:
    """Counterclockwise elementary triangles of a hexagonal lattice that
    have a node in ``outside``.

    ``kept`` holds the (first, last) columns of ``_hex_lattice``'s points
    per row; they are the last points that ``outside`` flags, numbered row
    by row.  Column ix of row iy neighbours ix + 1 on its row and
    ix + iy % 2 - 1, ix + iy % 2 on the row above.  The "up" triangles
    (ix, ix + 1 on the row, ix + iy % 2 above) come first, then the "down"
    ones (ix, then ix + iy % 2 and ix + iy % 2 - 1 above), each in the
    order of their first node.
    """
    lo, hi = kept
    counts = np.maximum(hi - lo + 1, 0)
    start = len(outside) - counts.sum() + np.cumsum(counts) - counts  # each row's first node
    shift = np.arange(len(lo) - 1) % 2

    def node(iy, ix):
        return start[iy] + ix - lo[iy]

    iy, ix = _spans(np.maximum(lo[:-1], lo[1:] - shift), np.minimum(hi[:-1] - 1, hi[1:] - shift))
    above = ix + shift[iy]
    up = np.column_stack([node(iy, ix), node(iy, ix + 1), node(iy + 1, above)])
    iy, ix = _spans(np.maximum(lo[:-1], lo[1:] - shift + 1), np.minimum(hi[:-1], hi[1:] - shift))
    above = ix + shift[iy]
    down = np.column_stack([node(iy, ix), node(iy + 1, above), node(iy + 1, above - 1)])
    tris = np.vstack([up, down])
    return tris[outside[tris].any(axis=1)]


def triangulate(p: Polygon, target_h: float) -> TriMesh:
    """Triangulate a convex polygon at the requested resolution.

    Parameters
    ----------
    p : Polygon
        Domain; must satisfy 0 < target_h < inradius.
    target_h : float
        Interior spacing target.  Boundary spacing is target_h / 2.
    """
    if not target_h > 0:  # NaN fails too
        raise InvariantViolation("target_h must be positive")
    inradius = metrics(p).inradius
    if not target_h < inradius:  # a NaN inradius fails too
        raise InvariantViolation(
            f"target_h={target_h:g} must be below the inradius {inradius:g}")
    corner = p.vertices.min(axis=0)
    unit = 2.0 ** np.round(np.log2(np.ptp(p.vertices, axis=0).max()))
    frame = Polygon((p.vertices - corner) / unit)
    bpts, bfacets = _boundary_samples(frame, target_h / (2.0 * unit))
    h_lat = 0.85 * target_h / unit
    nb = len(bpts)
    lattice, outside, kept, deep = _hex_lattice(frame, h_lat, NODE_CAP - nb)
    points = np.vstack([bpts, lattice])
    triangles = _stitch(points, np.concatenate([np.zeros(nb, dtype=bool), outside]), h_lat,
                        kept, deep)
    edges = np.column_stack([np.arange(nb), (np.arange(nb) + 1) % nb])
    lengths = unit * np.hypot(*(points[edges[:, 1]] - points[edges[:, 0]]).T)
    mesh = TriMesh(corner + unit * points, triangles, edges, bfacets, lengths, target_h, p,
                   *_edge_table(triangles, len(points)))
    _assert_conforming(mesh)
    return mesh


def _edge_key(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Integer key min*n + max of each undirected edge of an n-node mesh."""
    return np.minimum(i, j).astype(np.int64) * n + np.maximum(i, j)


def _edge_table(triangles: np.ndarray, n: int):
    """``(edges, triangle_edges)`` of an n-node mesh with these triangles
    (see ``TriMesh``)."""
    keys = _edge_key(np.roll(triangles, -1, axis=1), np.roll(triangles, -2, axis=1), n)
    # ravelled: the shape of the inverse of an n-d input differs across numpy 2.x
    edges, inverse = np.unique(keys.ravel(), return_inverse=True)
    return edges, inverse.reshape(triangles.shape)


def _assert_conforming(mesh: TriMesh) -> None:
    counts = np.bincount(mesh.triangle_edges.ravel())
    if counts.max() > 2:
        raise InvariantViolation("non-manifold edge in triangulation")
    b = mesh.boundary_edges
    expected = np.sort(_edge_key(b[:, 0], b[:, 1], mesh.n_nodes))
    if not np.array_equal(mesh.edges[counts == 1], expected):
        raise InvariantViolation("triangulation boundary does not match the facet walk")


def refine(m: TriMesh) -> TriMesh:
    """Uniform refinement: each triangle splits into 4 via edge midpoints.

    Child triangles are similar to their parent, so angle quality is
    preserved exactly; boundary facet attribution is inherited.  The
    midpoint of the k-th edge of the parent's edge table becomes node
    n_nodes + k.  The child's edge table follows from the parent's (see
    ``_child_edges``).
    """
    keys, n = m.edges, m.n_nodes
    if n + len(keys) > NODE_CAP:
        raise MeshTooFine(f"refinement would need {n + len(keys)} nodes (cap {NODE_CAP})")
    nodes = np.vstack([m.nodes, 0.5 * (m.nodes[keys // n] + m.nodes[keys % n])])
    a, b, c = m.triangles.T
    bc, ca, ab = (n + m.triangle_edges).T  # midpoints opposite a, b, c
    triangles = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    i, j = m.boundary_edges.T
    k = n + np.searchsorted(keys, _edge_key(i, j, n))
    b_edges = np.stack([i, k, k, j], axis=1).reshape(-1, 2)
    lengths = np.hypot(*(nodes[b_edges[:, 1]] - nodes[b_edges[:, 0]]).T)
    out = TriMesh(nodes, triangles, b_edges, np.repeat(m.boundary_facets, 2),
                  lengths, m.target_h / 2.0, m.polygon, *_child_edges(m))
    _assert_conforming(out)
    return out


def _child_edges(m: TriMesh):
    """``(edges, triangle_edges)`` of ``refine(m)``, from m's edge table.

    Parent edge e, joining lo < hi, gives the halves (lo, n + e) and
    (hi, n + e); each parent triangle gives the three edges joining its
    midpoints.  Every half has a parent node below n as its smaller end
    and every midpoint edge has none, so the sorted halves precede the
    sorted midpoint edges, and each group is sorted on its own.
    """
    keys, n = m.edges, m.n_nodes
    lo, hi = np.divmod(keys, n)
    size = n + len(keys)
    mid = n + np.arange(len(keys))
    halves = np.column_stack([lo * size + mid, hi * size + mid]).ravel()  # 2e: at lo, 2e + 1: at hi
    e_bc, e_ca, e_ab = m.triangle_edges.T  # parent edges opposite a, b, c
    bc, ca, ab = n + e_bc, n + e_ca, n + e_ab
    inner = np.column_stack([_edge_key(bc, ca, size), _edge_key(ca, ab, size),
                             _edge_key(ab, bc, size)])  # opposite ab, bc, ca in (ab, bc, ca)
    order = np.concatenate([np.argsort(halves), len(halves) + np.argsort(inner.ravel())])
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    a, b, c = m.triangles.T

    def half(e, node):  # index of the half of parent edge e that ends at node
        return rank[2 * e + (node == hi[e])]

    inner_rank = rank[len(halves):].reshape(-1, 3)
    triangle_edges = np.stack([
        inner_rank[:, 1], half(e_ca, a), half(e_ab, a),  # (a, ab, ca)
        half(e_bc, b), inner_rank[:, 2], half(e_ab, b),  # (ab, b, bc)
        half(e_bc, c), half(e_ca, c), inner_rank[:, 0],  # (ca, bc, c)
        inner_rank[:, 0], inner_rank[:, 1], inner_rank[:, 2],  # (ab, bc, ca)
    ], axis=1).reshape(-1, 3)
    return np.concatenate([halves, inner.ravel()])[order], triangle_edges


@dataclass(frozen=True)
class MeshCheckReport:
    conforming: bool
    oriented: bool
    boundary_partition_ok: bool
    facet_length_error: float
    min_angle_deg: float
    max_angle_deg: float  # governs the P1 error (Babuska & Aziz 1976); not gated
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
    twice_area, gx, gy = _p1_basis(m.nodes, m.triangles)
    oriented = bool(np.all(twice_area > 0))
    facet_sums = np.zeros(len(m.polygon))
    np.add.at(facet_sums, m.boundary_facets, m.boundary_edge_lengths)
    facet_err = float(np.max(np.abs(facet_sums / m.polygon.facet_lengths - 1.0)))
    boundary_ok = facet_err <= 1e-9

    # Column k of (gx, gy) is the edge opposite node k turned by 90 degrees;
    # the angle at node k lies between columns k+1 and k+2, one reversed.
    lengths = np.hypot(gx, gy)
    gx1, gy1, l1 = (np.roll(g, -1, axis=1) for g in (gx, gy, lengths))
    gx2, gy2, l2 = (np.roll(g, -2, axis=1) for g in (gx, gy, lengths))
    cosv = np.clip(-(gx1 * gx2 + gy1 * gy2) / (l1 * l2), -1, 1)
    angles = np.degrees(np.arccos(cosv))

    max_edge = float(lengths.max())
    area_err = float(abs(0.5 * twice_area.sum() - m.polygon.area) / m.polygon.area)
    report = MeshCheckReport(
        conforming=conforming,
        oriented=oriented,
        boundary_partition_ok=boundary_ok,
        facet_length_error=facet_err,
        min_angle_deg=float(angles.min()),
        max_angle_deg=float(angles.max()),
        max_edge_over_h=max_edge / m.target_h,
        max_boundary_edge_over_h=float(m.boundary_edge_lengths.max() / m.target_h),
        area_error=area_err,
        ok=(conforming and oriented and boundary_ok
            and angles.min() >= MIN_ANGLE_DEG
            and max_edge <= 1.5 * m.target_h
            and m.boundary_edge_lengths.max() <= m.target_h
            and area_err <= 1e-10),
    )
    return report
