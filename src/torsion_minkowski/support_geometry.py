"""Convex-polygon calculus over support numbers.

Directions are unit 2-vectors stored as rows of ``(N, 2)`` float arrays.
A body is described either by a :class:`SupportSpec` (fixed normals plus
support numbers) or by a :class:`Polygon` (counterclockwise vertex cycle
with per-edge outward normals).  ``build_polytope`` realizes the halfplane
intersection that turns the former into the latter; the remaining
operations are the usual support-function calculus: Minkowski sums,
dilations, translations, metric diagnostics and the Hausdorff distance.

All predicates are double precision with absolute tolerance ``CROSS_TOL``
on cross products; there is no exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import EmptyInterior, InvariantViolation, NegativeScale, UnboundedBody

# Geometric predicate tolerances (absolute, double precision).
CROSS_TOL = 1e-10
UNIT_TOL = 1e-12
MIN_ANGULAR_GAP = 1e-9


def angles_to_normals(angles) -> np.ndarray:
    """Stack unit vectors for a sequence of angles into an (N, 2) array."""
    a = np.asarray(angles, dtype=float)
    return np.column_stack([np.cos(a), np.sin(a)])


def normal_angles(normals: np.ndarray) -> np.ndarray:
    """Angles in (-pi, pi] of the rows of a direction array."""
    normals = np.asarray(normals, dtype=float)
    return np.arctan2(normals[:, 1], normals[:, 0])


def _check_directions(normals: np.ndarray) -> np.ndarray:
    normals = np.ascontiguousarray(normals, dtype=float)
    if normals.ndim != 2 or normals.shape[1] != 2 or len(normals) == 0:
        raise InvariantViolation("normals must be a nonempty (N, 2) array")
    norms = np.hypot(normals[:, 0], normals[:, 1])
    if np.any(np.abs(norms - 1.0) > UNIT_TOL):
        raise InvariantViolation("normals must be unit vectors (|x|^2+|y|^2 = 1 within 1e-12)")
    return normals


def _cyclic_gaps(angles: np.ndarray) -> np.ndarray:
    gaps = np.diff(angles)
    wrap = angles[0] + 2.0 * np.pi - angles[-1]
    return np.append(gaps, wrap)


@dataclass(frozen=True)
class SupportSpec:
    """Support numbers on a fixed, angularly sorted set of unit normals.

    The normals must be pairwise distinct (angular gap at least 1e-9 rad)
    and positively span the plane, so the halfplane intersection B[h] is
    bounded for every choice of values.  Values may have any sign.
    ``build_polytope`` keeps its result on the spec.
    """

    normals: np.ndarray
    values: np.ndarray
    _polygon: Polygon | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        normals = _check_directions(self.normals)
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != (len(normals),):
            raise InvariantViolation("values must have one entry per normal")
        ang = normal_angles(normals)
        if np.any(np.diff(ang) <= 0):
            raise InvariantViolation("normals must be strictly sorted by angle")
        gaps = _cyclic_gaps(ang)
        if gaps.min() < MIN_ANGULAR_GAP:
            raise InvariantViolation("near-parallel normals (angular gap < 1e-9 rad)")
        if gaps.max() >= np.pi - 1e-12:
            raise UnboundedBody("normals do not positively span the plane")
        normals.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def with_values(self, values) -> "SupportSpec":
        """Same normal fan, new support numbers."""
        return SupportSpec(self.normals, np.asarray(values, dtype=float))

    def translated(self, t) -> "SupportSpec":
        """Support numbers of the translated body B[h] + t."""
        t = np.asarray(t, dtype=float)
        return self.with_values(self.values + self.normals @ t)


@dataclass(frozen=True)
class Polygon:
    """Strictly convex counterclockwise vertex cycle.

    ``facet_normals[i]`` is the outward unit normal of the edge from
    ``vertices[i]`` to ``vertices[i+1]`` and ``facet_lengths[i]`` its
    length.  ``source_index[i]``, when present, is the index of the
    generating constraint in the SupportSpec the polygon was built from;
    it keeps measure vectors aligned with the optimizer's normal fan.
    ``metrics`` keeps its result on the polygon.
    """

    vertices: np.ndarray
    facet_normals: np.ndarray = field(default=None)
    facet_lengths: np.ndarray = field(default=None)
    source_index: np.ndarray | None = None
    _metrics: PolygonMetrics | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise InvariantViolation("a polygon needs at least 3 vertices")
        edges = np.roll(v, -1, axis=0) - v
        cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
        if np.any(cross <= CROSS_TOL):
            raise InvariantViolation("vertex cycle is not strictly convex counterclockwise")
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
        if self.facet_normals is not None:
            if not np.allclose(self.facet_normals, normals, atol=1e-10):
                raise InvariantViolation("facet normals inconsistent with edges")
        if 0.5 * np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]) <= 0:
            raise InvariantViolation("polygon area must be positive")
        src = self.source_index
        if src is not None:
            src = np.ascontiguousarray(src, dtype=int)
            if src.shape != (len(v),):
                raise InvariantViolation("source_index must map every facet")
            src.setflags(write=False)
        for arr in (v, normals, lengths):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "facet_normals", normals)
        object.__setattr__(self, "facet_lengths", lengths)
        object.__setattr__(self, "source_index", src)

    @classmethod
    def from_vertices(cls, vertices, source_index=None) -> "Polygon":
        """Build from a counterclockwise vertex list, merging duplicate
        consecutive vertices and canonicalizing the starting vertex."""
        v = np.asarray(vertices, dtype=float)
        src = None if source_index is None else np.asarray(source_index)
        tol = 1e-12 * max(1.0, float(np.abs(v).max()))
        # When v[i] duplicates v[i-1] the zero-length edge is the one
        # leaving v[i-1], so drop the earlier vertex to keep the
        # edge-leaving-vertex source alignment intact.
        while len(v) >= 3:
            gaps = np.hypot(*(v - np.roll(v, 1, axis=0)).T)
            short = np.flatnonzero(gaps <= tol)
            if len(short) == 0:
                break
            drop = (short[0] - 1) % len(v)
            v = np.delete(v, drop, axis=0)
            if src is not None:
                src = np.delete(src, drop)
        start = np.lexsort((v[:, 0], v[:, 1]))[0]
        v = np.roll(v, -start, axis=0)
        if src is not None:
            src = np.roll(src, -start)
        return cls(v, source_index=src)

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def area(self) -> float:
        v = self.vertices
        return 0.5 * float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))

    @property
    def offsets(self) -> np.ndarray:
        """Support numbers of the polygon on its own facet normals."""
        return np.einsum("ij,ij->i", self.facet_normals, self.vertices)

    def contains(self, points, tol: float = 1e-12) -> np.ndarray:
        """Vectorized membership test (boundary counts as inside)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        margin = self.offsets[None, :] - pts @ self.facet_normals.T
        return margin.min(axis=1) >= -tol

    def distance_to_boundary(self, points) -> np.ndarray:
        """Signed distance to the boundary (positive inside)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        margin = self.offsets[None, :] - pts @ self.facet_normals.T
        return margin.min(axis=1)


def regular_polygon(n: int, circumradius: float = 1.0, angle0: float = 0.0) -> Polygon:
    """Regular n-gon with vertices on the circle of the given radius."""
    theta = angle0 + 2.0 * np.pi * np.arange(n) / n
    return Polygon.from_vertices(circumradius * np.column_stack([np.cos(theta), np.sin(theta)]))


def build_polytope(spec: SupportSpec) -> Polygon:
    """Intersect the halfplanes {<x, X_i> <= h_i} of a support spec.

    Each constraint line is clipped against all the others; constraints
    whose clipped segment is empty are inactive and produce no facet.
    The returned polygon carries ``source_index`` mapping each facet back
    to its constraint, so downstream measure vectors stay index-aligned
    with the spec even when facets disappear.

    Raises
    ------
    EmptyInterior
        If the intersection has no interior.
    """
    if spec._polygon is not None:
        return spec._polygon
    normals, values = spec.normals, spec.values
    n = len(spec)
    scale = max(1.0, float(np.abs(values).max()))
    len_tol = 1e-10 * scale
    dirs = np.column_stack([-normals[:, 1], normals[:, 0]])  # CCW edge directions

    actives: list[int] = []
    los, his = [], []
    for i in range(n):
        base = values[i] * normals[i]
        a = normals @ dirs[i]
        b = values - (normals @ normals[i]) * values[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            upper = np.where(a > 1e-12, b / a, np.inf)
            lower = np.where(a < -1e-12, b / a, -np.inf)
        parallel = np.abs(a) <= 1e-12
        parallel[i] = False
        if np.any(b[parallel] < -len_tol):
            continue  # the line itself is infeasible
        t_hi, t_lo = upper.min(), lower.max()
        if t_hi - t_lo <= len_tol:
            continue  # inactive facet (zero length)
        actives.append(i)
        los.append(base + t_lo * dirs[i])
        his.append(base + t_hi * dirs[i])
    if len(actives) < 3:
        raise EmptyInterior("halfplane intersection has no interior")
    # Shared vertex between consecutive active facets: average the two
    # clipped endpoints (identical up to roundoff).
    his_arr, los_arr = np.array(his), np.array(los)
    verts = 0.5 * (his_arr + np.roll(los_arr, -1, axis=0))
    # Facet k runs from verts[k-1] to verts[k]; re-index so facet k starts at verts[k].
    verts = np.roll(verts, 1, axis=0)
    try:
        poly = Polygon.from_vertices(verts, source_index=np.array(actives))
    except InvariantViolation as exc:
        raise EmptyInterior(f"degenerate halfplane intersection: {exc}") from exc
    if poly.area <= (1e-10 * scale) * scale:
        raise EmptyInterior("halfplane intersection has zero area")
    object.__setattr__(spec, "_polygon", poly)
    return poly


def support_values(p: Polygon, directions) -> np.ndarray:
    """Vectorized support function over rows of a direction array."""
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    return (dirs @ p.vertices.T).max(axis=1)


def support_spec_of(p: Polygon) -> SupportSpec:
    """Support numbers of a polygon on its own facet normals, rolled so
    the normals are sorted by angle as SupportSpec requires."""
    ang = normal_angles(p.facet_normals)
    start = int(np.argmin(ang))
    normals = np.roll(p.facet_normals, -start, axis=0)
    values = np.roll(p.offsets, -start)
    return SupportSpec(normals, values)


def translate(p: Polygon, t) -> Polygon:
    t = np.asarray(t, dtype=float)
    return Polygon(p.vertices + t, source_index=p.source_index)


def scale(p: Polygon, s: float) -> Polygon:
    """Dilation about the origin by s >= 0."""
    if s < 0:
        raise NegativeScale(f"scale factor must be nonnegative, got {s}")
    if s * np.sqrt(abs(p.area)) <= 1e-10:
        raise EmptyInterior("scaling collapses the polygon to zero area")
    return Polygon(p.vertices * s, source_index=p.source_index)


def minkowski_sum(p: Polygon, q: Polygon) -> Polygon:
    """Edge-merge Minkowski sum of two convex polygons.

    Each vertex cycle is rolled so its edge direction angles increase
    from roughly 0; merging the two edge sequences by angle and
    accumulating from the sum of the two start vertices (both support
    points of the downward direction) yields the sum polygon.  Edges with
    equal angle fuse into one.
    """
    def edge_cycle(poly):
        v = poly.vertices
        edges = np.roll(v, -1, axis=0) - v
        ang = np.mod(np.arctan2(edges[:, 1], edges[:, 0]), 2.0 * np.pi)
        # fp noise can park a horizontal edge just below 2*pi; snap it to ~0
        ang = np.where(ang > 2.0 * np.pi - 1e-9, ang - 2.0 * np.pi, ang)
        k = int(np.argmin(ang))
        return v[k], np.roll(edges, -k, axis=0), np.roll(ang, -k)

    sp, ep, ap = edge_cycle(p)
    sq, eq, aq = edge_cycle(q)
    merged = []
    i = j = 0
    while i < len(ep) or j < len(eq):
        if i < len(ep) and j < len(eq) and abs(ap[i] - aq[j]) < 1e-12:
            merged.append(ep[i] + eq[j])
            i += 1
            j += 1
        elif j >= len(eq) or (i < len(ep) and ap[i] <= aq[j]):
            merged.append(ep[i])
            i += 1
        else:
            merged.append(eq[j])
            j += 1
    start = sp + sq
    verts = start + np.vstack([[0.0, 0.0], np.cumsum(merged, axis=0)[:-1]])
    return Polygon.from_vertices(verts)


@dataclass(frozen=True)
class PolygonMetrics:
    diameter: float
    inradius: float
    circumradius: float
    centroid: np.ndarray
    area: float
    incenter: np.ndarray


def metrics(p: Polygon) -> PolygonMetrics:
    """Diameter, inradius (Chebyshev LP over the facet constraints),
    circumradius about the area centroid, centroid and area.

    Computed once per polygon: the result is kept on ``p``.
    """
    if p._metrics is not None:
        return p._metrics
    v = p.vertices
    diffs = v[:, None, :] - v[None, :, :]
    diameter = float(np.sqrt((diffs ** 2).sum(axis=2).max()))
    cross = v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]
    area = p.area
    centroid = ((v + np.roll(v, -1, axis=0)) * cross[:, None]).sum(axis=0) / (6.0 * area)
    # Chebyshev center: maximize r subject to <n_i, x> + r <= h_i.
    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=np.column_stack([p.facet_normals, np.ones(len(p))]),
        b_ub=p.offsets,
        bounds=[(None, None), (None, None), (0, None)],
        method="highs",
    )
    if not res.success:
        raise InvariantViolation(f"inradius LP failed: {res.message}")
    incenter, inradius = res.x[:2], float(res.x[2])
    circumradius = float(np.sqrt(((v - centroid) ** 2).sum(axis=1).max()))
    centroid.setflags(write=False)
    incenter.setflags(write=False)
    object.__setattr__(p, "_metrics", PolygonMetrics(
        diameter, inradius, circumradius, centroid, area, incenter))
    return p._metrics


def hausdorff_distance(p: Polygon, q: Polygon) -> float:
    """Hausdorff distance via the support-function sup-norm.

    For convex bodies the distance equals sup over directions of
    |h_p - h_q|; the sup is attained either at a facet normal of one of
    the polygons or in the direction of a vertex difference, so the exact
    value is the max over that finite direction set.
    """
    diffs = (p.vertices[:, None, :] - q.vertices[None, :, :]).reshape(-1, 2)
    norms = np.hypot(diffs[:, 0], diffs[:, 1])
    good = norms > 1e-14
    dirs = np.vstack([
        p.facet_normals,
        q.facet_normals,
        diffs[good] / norms[good, None],
        -diffs[good] / norms[good, None],
    ])
    return float(np.abs(support_values(p, dirs) - support_values(q, dirs)).max())


def steiner_point(p: Polygon) -> np.ndarray:
    """Translation-equivariant center: (1/pi) * integral of h(d) d over
    the unit circle, evaluated in closed form arc-by-arc.

    Vertex k supports all directions in the arc between the normals of
    its two incident edges; on that arc h(theta) = <v_k, d(theta)>.
    """
    phi = normal_angles(p.facet_normals)
    out = np.zeros(2)
    for k in range(len(p)):
        a, b = phi[k - 1], phi[k]
        while b < a:
            b += 2.0 * np.pi
        vx, vy = p.vertices[k]
        i_cc = 0.5 * (b - a) + 0.25 * (np.sin(2 * b) - np.sin(2 * a))
        i_sc = 0.25 * (np.cos(2 * a) - np.cos(2 * b))
        i_ss = 0.5 * (b - a) - 0.25 * (np.sin(2 * b) - np.sin(2 * a))
        out[0] += vx * i_cc + vy * i_sc
        out[1] += vx * i_sc + vy * i_ss
    return out / np.pi


def polygon_to_dict(p: Polygon) -> dict:
    """JSON-ready form: {"vertices": [[x, y], ...]} counterclockwise."""
    return {"vertices": [[float(x), float(y)] for x, y in p.vertices]}


def polygon_from_dict(data: dict) -> Polygon:
    if "vertices" not in data:
        raise InvariantViolation("polygon object must have a 'vertices' field")
    return Polygon.from_vertices(np.asarray(data["vertices"], dtype=float))
