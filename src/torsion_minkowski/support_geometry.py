"""Convex-polygon calculus over support numbers.

Directions are unit 2-vectors stored as rows of ``(N, 2)`` float arrays.
A body is described either by a :class:`SupportSpec` (fixed normals plus
support numbers) or by a :class:`Polygon` (counterclockwise vertex cycle
with per-edge outward normals).  ``build_polytope`` realizes the halfplane
intersection that turns the former into the latter; the remaining
operations are the usual support-function calculus: Minkowski sums,
dilations, translations, metric diagnostics and the Hausdorff distance.

Degeneracy is decided here, scale-free: angles against ``MIN_ANGULAR_GAP``
and lengths against the body's own size.  So acceptance, active facets and
the inradius commute with dilations by 1e-8 to 1e8 and translations up to
1e3 circumradii (tested).  The inradius is the time at which the inward
offset collapses, the last event of the straight skeleton, found in closed
form on the centred body.  Double precision, no exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInterior, InvariantViolation, NegativeScale, UnboundedBody

UNIT_TOL = 1e-12
MIN_ANGULAR_GAP = 1e-9
# Half the gap is left to roundoff: corners turning, or lines crossing, by
# less than ANGLE_TOL are not resolved.
ANGLE_TOL = 0.5 * MIN_ANGULAR_GAP
# Vertex roundoff of eps L on a body of size L errs a corner's turn by 2 eps L / e
# between edges of length e, below ANGLE_TOL once e >= EDGE_TOL * L; a segment
# clipped at angles >= ANGLE_TOL errs by less than EDGE_TOL * L in length.
# Shorter edges and segments count as a vertex.
EDGE_TOL = 4.0 * np.finfo(float).eps / MIN_ANGULAR_GAP


def angles_to_normals(angles) -> np.ndarray:
    """Stack unit vectors for a sequence of angles into an (N, 2) array.

    A non-finite angle gives a NaN row, which ``SupportSpec`` rejects.
    """
    a = np.asarray(angles, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.column_stack([np.cos(a), np.sin(a)])


def normal_angles(normals: np.ndarray) -> np.ndarray:
    """Angles in (-pi, pi] of the rows of a direction array."""
    normals = np.asarray(normals, dtype=float)
    return np.arctan2(normals[:, 1], normals[:, 0])


def _check_directions(normals: np.ndarray) -> np.ndarray:
    normals = np.asarray(normals, dtype=float)
    if normals.ndim != 2 or normals.shape[1] != 2 or len(normals) == 0:
        raise InvariantViolation("normals must be a nonempty (N, 2) array")
    norms = np.hypot(normals[:, 0], normals[:, 1])
    if not np.all(np.abs(norms - 1.0) <= UNIT_TOL):  # NaN fails too
        raise InvariantViolation("normals must be unit vectors (|x|^2+|y|^2 = 1 within 1e-12)")
    return normals


def _check_fan(normals: np.ndarray) -> None:
    """Reject unit normals (as ``_check_directions`` returns them) that
    are not strictly sorted by angle, are near-parallel, or do not
    positively span the plane (UnboundedBody)."""
    ang = normal_angles(normals)
    if np.any(np.diff(ang) <= 0):
        raise InvariantViolation("normals must be strictly sorted by angle")
    gaps = _cyclic_gaps(ang)
    if gaps.min() < MIN_ANGULAR_GAP:
        raise InvariantViolation("near-parallel normals (angular gap < 1e-9 rad)")
    if gaps.max() >= np.pi - MIN_ANGULAR_GAP:
        raise UnboundedBody("normals do not positively span the plane")


def _cyclic_gaps(angles: np.ndarray) -> np.ndarray:
    gaps = np.diff(angles)
    wrap = angles[0] + 2.0 * np.pi - angles[-1]
    return np.append(gaps, wrap)


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, with a seed numpy rejects raised as InvariantViolation."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvariantViolation(f"bad random seed {seed!r}: {exc}") from exc


def _check_count(name: str, value, least: int) -> None:
    """Reject a count that is not an integer >= least (a bool is none)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise InvariantViolation(f"{name} must be an integer >= {least}, got {value!r}")


def _own(value, **arrays) -> None:
    """Set each named field of the frozen dataclass ``value`` to a
    read-only copy of its array (``None`` stays ``None``), so a value
    shares no buffer with its caller and cannot be edited through one."""
    for name, array in arrays.items():
        if array is not None:
            array = np.array(array, order="C")
            array.setflags(write=False)
        object.__setattr__(value, name, array)


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
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(normals),) or not np.all(np.isfinite(values)):
            raise InvariantViolation("values must be finite, one entry per normal")
        _check_fan(normals)
        _own(self, normals=normals, values=values)

    def __len__(self) -> int:
        return len(self.values)

    def with_values(self, values) -> "SupportSpec":
        """Same normal fan, new support numbers."""
        return SupportSpec(self.normals, values)

    def translated(self, t) -> "SupportSpec":
        """Support numbers of the translated body B[h] + t."""
        t = np.asarray(t, dtype=float)
        return self.with_values(self.values + self.normals @ t)


@dataclass(frozen=True)
class Polygon:
    """Strictly convex counterclockwise vertex cycle.

    ``facet_normals[i]`` is the outward unit normal of the edge from
    ``vertices[i]`` to ``vertices[i+1]``, ``facet_lengths[i]`` its length
    and ``offsets[i]`` its support number; these, ``area`` and the area
    ``centroid`` are set from the vertices at construction, and a cycle
    whose area or centroid overflows (an extent of order 1e103) is
    rejected.  ``source_index[i]``, when present, is the index of the
    generating constraint in the SupportSpec the polygon was built from;
    it keeps measure vectors aligned with the optimizer's normal fan.
    ``metrics`` keeps its result on the polygon.
    """

    vertices: np.ndarray
    facet_normals: np.ndarray = field(init=False)
    facet_lengths: np.ndarray = field(init=False)
    area: float = field(init=False)
    centroid: np.ndarray = field(init=False)
    offsets: np.ndarray = field(init=False)
    source_index: np.ndarray | None = None
    _metrics: PolygonMetrics | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise InvariantViolation("a polygon needs at least 3 vertices")
        if not np.all(np.isfinite(v)):
            raise InvariantViolation("vertices must be finite")
        edges = np.roll(v, -1, axis=0) - v
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero-length edge gives NaN
            normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
        nxt = np.roll(normals, -1, axis=0)
        turn = normals[:, 0] * nxt[:, 1] - normals[:, 1] * nxt[:, 0]  # sine of each corner's turn
        wraps = np.count_nonzero(normal_angles(nxt) < normal_angles(normals))  # 1: winds once
        if not (np.all(turn > ANGLE_TOL) and wraps == 1):  # NaN fails too; a star turns left too
            raise InvariantViolation("vertex cycle is not strictly convex counterclockwise")
        w = v - v[0]  # sums about v[0]: their roundoff does not grow under translation
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected below
            shoelace = w[:, 0] * np.roll(w[:, 1], -1) - np.roll(w[:, 0], -1) * w[:, 1]
            area = 0.5 * float(np.sum(shoelace))
            moment = ((w + np.roll(w, -1, axis=0)) * shoelace[:, None]).sum(axis=0)
            centroid = v[0] + moment / (6.0 * area)
        if not area > 0:
            raise InvariantViolation("polygon area must be positive")
        if not (np.isfinite(area) and np.all(np.isfinite(centroid))):
            raise InvariantViolation("polygon too large: its area or centroid overflows")
        offsets = np.einsum("ij,ij->i", normals, v)
        src = self.source_index
        if src is not None:
            src = np.asarray(src, dtype=int)
            if src.shape != (len(v),):
                raise InvariantViolation("source_index must map every facet")
        _own(self, vertices=v, facet_normals=normals, facet_lengths=lengths,
             centroid=centroid, offsets=offsets, source_index=src)
        object.__setattr__(self, "area", area)

    @classmethod
    def from_vertices(cls, vertices, source_index=None) -> "Polygon":
        """Build from a counterclockwise vertex list, merging duplicate
        consecutive vertices and canonicalizing the starting vertex."""
        v = np.asarray(vertices, dtype=float)
        src = None if source_index is None else np.asarray(source_index)
        if v.shape[1:] != (2,) or len(v) < 3 or not np.all(np.isfinite(v)):
            return cls(v, source_index=src)  # which rejects v
        # An edge shorter than EDGE_TOL times the extent joins duplicate
        # vertices: drop the vertex it leaves, with that edge's source index.
        keep = np.hypot(*(np.roll(v, -1, axis=0) - v).T) > EDGE_TOL * np.ptp(v, axis=0).max()
        if 3 <= keep.sum() < len(v):
            v, src = v[keep], None if src is None else src[keep]
        start = np.lexsort((v[:, 0], v[:, 1]))[0]
        v = np.roll(v, -start, axis=0)
        if src is not None:
            src = np.roll(src, -start)
        return cls(v, source_index=src)

    def __len__(self) -> int:
        return len(self.vertices)

    def distance_to_boundary(self, points) -> np.ndarray:
        """Signed distance to the boundary (positive inside)."""
        x, y = np.atleast_2d(np.asarray(points, dtype=float)).T.copy()
        depth = np.full(len(x), np.inf)
        for (nx, ny), offset in zip(self.facet_normals, self.offsets):
            np.minimum(depth, offset - (nx * x + ny * y), out=depth)
        return depth


def regular_polygon(n: int, circumradius: float = 1.0) -> Polygon:
    """Regular n-gon with vertices on the circle of the given radius, the
    first at angle 0."""
    theta = 2.0 * np.pi * np.arange(n) / n
    return Polygon.from_vertices(circumradius * np.column_stack([np.cos(theta), np.sin(theta)]))


def build_polytope(spec: SupportSpec) -> Polygon:
    """Intersect the halfplanes {<x, X_i> <= h_i} of a support spec.

    Each constraint line is clipped against all the others; constraints
    whose clipped segment is empty, or shorter than ``EDGE_TOL`` times the
    longest one, are inactive and produce no facet.
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
    dirs = np.column_stack([-normals[:, 1], normals[:, 0]])  # CCW edge directions
    # Row i clips line i: a[i, j] = <X_j, d_i>, b[i, j] = h_j - <X_j, X_i> h_i.
    a = np.array([normals @ d for d in dirs])
    b = np.array([values - (normals @ x) * h for x, h in zip(normals, values)])
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hi = np.where(a > ANGLE_TOL, b / a, np.inf).min(axis=1)
        t_lo = np.where(a < -ANGLE_TOL, b / a, -np.inf).max(axis=1)
    # Only an antiparallel line can be parallel (the fan's gaps exceed
    # 2 ANGLE_TOL); a line outside its halfplane is infeasible.
    parallel = (np.abs(a) <= ANGLE_TOL) & ~np.eye(len(spec), dtype=bool)
    t_hi[np.any(parallel & (b < 0), axis=1)] = -np.inf
    length = t_hi - t_lo
    actives = np.flatnonzero(length > EDGE_TOL * length.max(initial=0.0))
    if len(actives) < 3:
        raise EmptyInterior("halfplane intersection has no interior")
    base = values[actives, None] * normals[actives]
    his = base + t_hi[actives, None] * dirs[actives]
    los = base + t_lo[actives, None] * dirs[actives]
    # Facet k starts at verts[k]: its clipped start averaged with the
    # previous facet's clipped end (identical up to roundoff).
    verts = 0.5 * (np.roll(his, 1, axis=0) + los)
    try:
        poly = Polygon.from_vertices(verts, source_index=actives)
    except InvariantViolation as exc:
        raise EmptyInterior(f"degenerate halfplane intersection: {exc}") from exc
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
    """Dilation about the origin by s > 0."""
    if s < 0:
        raise NegativeScale(f"scale factor must be nonnegative, got {s}")
    if s == 0:
        raise EmptyInterior("scaling by 0 collapses the polygon to a point")
    return Polygon(p.vertices * s, source_index=p.source_index)


def minkowski_sum(p: Polygon, q: Polygon) -> Polygon:
    """Minkowski sum by adding support numbers: h_{p+q} = h_p + h_q.

    Every facet normal of the sum is a facet normal of p or of q.  The
    union of both fans is sorted by angle, and a normal whose cyclic
    successor lies within ``MIN_ANGULAR_GAP`` is fused into it (dropped),
    which moves the sum by about an edge length times that gap.
    ``build_polytope`` realizes the summed support numbers on the fused fan.
    """
    normals = np.vstack([p.facet_normals, q.facet_normals])
    ang = normal_angles(normals)
    order = np.argsort(ang)
    normals = normals[order][_cyclic_gaps(ang[order]) >= MIN_ANGULAR_GAP]
    values = support_values(p, normals) + support_values(q, normals)
    return build_polytope(SupportSpec(normals, values))


@dataclass(frozen=True)
class PolygonMetrics:
    diameter: float
    inradius: float
    circumradius: float


def metrics(p: Polygon) -> PolygonMetrics:
    """Diameter, inradius (the time at which the inward offset collapses,
    see ``_inradius``) and circumradius about the area centroid.  The area
    and the centroid are not among them: they are ``p.area`` and
    ``p.centroid``, set at construction.

    Computed once per polygon: the result is kept on ``p``.
    """
    if p._metrics is not None:
        return p._metrics
    v = p.vertices
    diffs = v[:, None, :] - v[None, :, :]
    diameter = float(np.sqrt((diffs ** 2).sum(axis=2).max()))
    circumradius = float(np.sqrt(((v - p.centroid) ** 2).sum(axis=1).max()))
    inradius = _inradius(p.facet_normals, p.offsets - p.facet_normals @ p.centroid)
    object.__setattr__(p, "_metrics", PolygonMetrics(diameter, inradius, circumradius))
    return p._metrics


def _inradius(normals: np.ndarray, offsets: np.ndarray) -> float:
    """Inradius of the polygon {<n_i, x> <= h_i}, facets in cyclic order.

    The inward offset by t moves every facet line in by t.  A facet
    vanishes when the lines of its two live neighbours meet it, at the t
    that solves <n, x> + t = h on the three lines (Cramer's rule).  The
    earliest facet goes and its two neighbours are timed again; the three
    left meet at the inradius, the straight skeleton's last event
    (Aichholzer, Alberts, Aurenhammer & Gaertner, J. UCS 1, 1995).  While
    more than three are live, a facet whose neighbours turn by more than pi
    never vanishes, nor does one with a nonpositive determinant (roundoff
    at near-collinear corners).  Parallel neighbours (a turn of exactly pi)
    do count: a rectangle's short sides vanish as it collapses.
    """
    n, h, m = normals.tolist(), offsets.tolist(), len(offsets)
    prev, nxt = [(i - 1) % m for i in range(m)], [(i + 1) % m for i in range(m)]

    def vanish(i, live):
        j, k = prev[i], nxt[i]
        (jx, jy), (ix, iy), (kx, ky) = n[j], n[i], n[k]
        turn = jx * ky - jy * kx  # sine of the turn from n_j to n_k
        det = (ix - jx) * (ky - jy) - (iy - jy) * (kx - jx)
        if (live > 3 and turn < 0) or det <= 0:
            return np.inf
        # n_j's row taken from the other two first: accurate on nearly equal normals
        return h[j] + ((h[k] - h[j]) * (jx * iy - jy * ix) - (h[i] - h[j]) * turn) / det

    t = [vanish(i, m) for i in range(m)]
    j = 0
    for live in range(m - 1, 2, -1):
        i = t.index(min(t))
        j, k = prev[i], nxt[i]
        nxt[j], prev[k], t[i] = k, j, np.inf
        t[j], t[k] = vanish(j, live), vanish(k, live)
    return t[j]


def hausdorff_distance(p: Polygon, q: Polygon) -> float:
    """Hausdorff distance via the support-function sup-norm.

    For convex bodies the distance equals sup over directions of
    |h_p - h_q|; the sup is attained either at a facet normal of one of
    the polygons or in the direction of a vertex difference, so the exact
    value is the max over that finite direction set.
    """
    diffs = (p.vertices[:, None, :] - q.vertices[None, :, :]).reshape(-1, 2)
    norms = np.hypot(diffs[:, 0], diffs[:, 1])
    good = norms > 0.0  # any unit direction bounds the sup from below
    dirs = np.vstack([
        p.facet_normals,
        q.facet_normals,
        diffs[good] / norms[good, None],
        -diffs[good] / norms[good, None],
    ])
    return float(np.abs(support_values(p, dirs) - support_values(q, dirs)).max())


def steiner_point(p: Polygon) -> np.ndarray:
    """Translation-equivariant center (1/pi) * integral of h(u) u over the
    unit circle, which for a polygon is the vertex mean weighted by the
    exterior angles: sum_k (theta_k / 2 pi) v_k, where theta_k turns from
    the normal of the edge entering v_k to that of the edge leaving it
    (Schneider, Convex Bodies, section 5.4).
    """
    phi = normal_angles(p.facet_normals)
    exterior = np.mod(phi - np.roll(phi, 1), 2.0 * np.pi)
    return exterior @ p.vertices / (2.0 * np.pi)


def polygon_to_dict(p: Polygon) -> dict:
    """JSON-ready form: {"vertices": [[x, y], ...]} counterclockwise."""
    return {"vertices": [[float(x), float(y)] for x, y in p.vertices]}
