import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import Delaunay, cKDTree

from torsion_minkowski import (
    InvariantViolation,
    MeshTooFine,
    PointOutside,
    SupportSpec,
    angles_to_normals,
    build_polytope,
    check_mesh,
    facet_measure,
    metrics,
    minkowski_sum,
    refine,
    regular_polygon,
    scale,
    solve_on_polygon,
    translate,
    triangulate,
)
from torsion_minkowski import mesh as mesh_module
from torsion_minkowski.support_geometry import Polygon
from torsion_minkowski.verify_suite import polygon_corpus


@pytest.fixture(scope="module")
def square_mesh(square):
    return triangulate(square, 0.5)


def test_square_coarse_mesh_invariants(square_mesh):
    assert square_mesh.n_triangles >= 32
    report = check_mesh(square_mesh)
    assert report.ok, report


def test_check_mesh_reports_angles_from_vertex_differences(square_mesh):
    report = check_mesh(square_mesh)
    tri = square_mesh.nodes[square_mesh.triangles]
    angles = []
    for k in range(3):
        u = tri[:, (k + 1) % 3] - tri[:, k]
        w = tri[:, (k + 2) % 3] - tri[:, k]
        cos = np.einsum("ij,ij->i", u, w) / (np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1))
        angles.append(np.degrees(np.arccos(cos)))
    angles = np.concatenate(angles)
    assert report.min_angle_deg == pytest.approx(angles.min(), abs=1e-9)
    assert report.max_angle_deg == pytest.approx(angles.max(), abs=1e-9)
    assert report.min_angle_deg < 60.0 < report.max_angle_deg < 180.0


def test_target_h_must_be_below_inradius():
    tri = regular_polygon(3, 1.0)
    bad = metrics(tri).inradius * 1.5
    with pytest.raises(InvariantViolation):
        triangulate(tri, bad)


def test_triangle_areas_partition_polygon(square, hexagon):
    for p in (square, hexagon):
        m = triangulate(p, 0.2)
        assert abs(m.triangle_areas().sum() - p.area) <= 1e-10 * p.area


def test_boundary_attribution_lengths(hexagon):
    m = triangulate(hexagon, 0.15)
    sums = np.zeros(len(hexagon))
    np.add.at(sums, m.boundary_facets, m.boundary_edge_lengths)
    assert np.allclose(sums, hexagon.facet_lengths, atol=1e-9)


def test_refine_quadruples_triangles(square_mesh):
    fine = refine(square_mesh)
    assert fine.n_triangles == 4 * square_mesh.n_triangles
    assert fine.target_h == square_mesh.target_h / 2
    assert abs(fine.triangle_areas().sum() - square_mesh.triangle_areas().sum()) < 1e-12
    assert check_mesh(fine).ok
    twice = refine(fine)
    assert twice.target_h == square_mesh.target_h / 4


def test_refine_inherits_facet_attribution(square_mesh):
    fine = refine(square_mesh)
    sums = np.zeros(len(square_mesh.polygon))
    np.add.at(sums, fine.boundary_facets, fine.boundary_edge_lengths)
    assert np.allclose(sums, square_mesh.polygon.facet_lengths, atol=1e-9)


def test_node_count_scaling(square):
    coarse = triangulate(square, 0.4)
    fine = refine(refine(coarse))
    ratio = fine.n_nodes / coarse.n_nodes
    assert 4.0 <= ratio <= 64.0  # O(h^-2) within a factor 4 of the nominal 16


def test_node_cap(square, monkeypatch):
    m = triangulate(square, 0.3)
    monkeypatch.setattr(mesh_module, "NODE_CAP", m.n_nodes + 1)
    with pytest.raises(MeshTooFine):
        triangulate(square, 0.05)
    with pytest.raises(MeshTooFine):
        refine(m)


def test_refused_mesh_memory_is_bounded_by_the_cap(square, monkeypatch):
    # the lattice is built in row blocks and refused as soon as the cap is
    # passed; building it whole first took 27 MB on this input (258k points)
    monkeypatch.setattr(mesh_module, "NODE_CAP", 4000)
    tracemalloc.start()
    try:
        with pytest.raises(MeshTooFine):
            triangulate(square, 0.005)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 250 * mesh_module.NODE_CAP


def test_boundary_samples_are_counted_before_they_are_built(unit_square, monkeypatch):
    # 80,000 samples at spacing 5e-5; building them first peaked at several MB
    monkeypatch.setattr(mesh_module, "NODE_CAP", 10_000)
    tracemalloc.start()
    try:
        with pytest.raises(MeshTooFine, match="boundary samples"):
            triangulate(unit_square, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_nonconforming_triangles_are_caught(hexagon):
    m = triangulate(hexagon, 0.2)
    for triangles, needle in [(m.triangles[1:], "boundary does not match"),
                              (np.vstack([m.triangles, m.triangles[:1]]), "non-manifold")]:
        bad = dataclasses.replace(m, triangles=triangles,
                                  **dict(zip(("edges", "triangle_edges"),
                                             mesh_module._edge_table(triangles, m.n_nodes))))
        with pytest.raises(InvariantViolation, match=needle):
            mesh_module._assert_conforming(bad)
        assert not check_mesh(bad).conforming


def test_corpus_meshes_pass_checker():
    for k, p in enumerate(polygon_corpus(seed=123, count=8)):
        h = 0.03 * metrics(p).circumradius
        report = check_mesh(triangulate(p, h))
        assert report.ok, (k, report)


def test_locate_and_outside(square_mesh):
    inside = np.array([[0.0, 0.0], [0.7, -0.3]])
    idx = square_mesh.locate(inside)
    assert np.all(idx >= 0)
    outside = np.array([[5.0, 0.0]])
    assert square_mesh.locate(outside)[0] == -1
    with pytest.raises(PointOutside):
        square_mesh.barycentric(outside)


def test_full_scan_finds_what_the_nearest_centroids_miss(monkeypatch):
    rng = np.random.default_rng(5)
    p = polygon_corpus(42, 1)[0]
    m = triangulate(p, 0.05 * metrics(p).circumradius)
    pick = rng.integers(m.n_triangles, size=300)
    pts = np.einsum("ij,ijk->ik", rng.dirichlet(np.ones(3), size=300),
                    m.nodes[m.triangles[pick]])
    idx, w = m.barycentric(pts)
    nearest = cKDTree(m.nodes[m.triangles].mean(axis=1)).query(pts)[1]
    assert np.any(nearest != idx)  # with one candidate these points need the full scan
    monkeypatch.setattr(mesh_module, "LOCATE_CANDIDATES", 1)
    scan_idx, scan_w = m.barycentric(pts)
    assert np.array_equal(scan_idx, idx) and np.array_equal(scan_w, w)


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _reference_inside(m, pts, tri_idx):
    """Edge-side test of each point against its triangle, tolerance
    1e-9 times the twice-area."""
    a, b, c = (m.nodes[m.triangles[tri_idx, k]] for k in range(3))
    tol = -1e-9 * np.abs(_cross(b - a, c - a))
    return ((_cross(b - a, pts - a) >= tol)
            & (_cross(c - b, pts - b) >= tol)
            & (_cross(a - c, pts - c) >= tol))


def _reference_weights(m, pts, tri_idx):
    a, b, c = (m.nodes[m.triangles[tri_idx, k]] for k in range(3))
    twice_area = _cross(b - a, c - a)
    w0 = _cross(b - pts, c - pts) / twice_area
    w1 = _cross(c - pts, a - pts) / twice_area
    return np.column_stack([w0, w1, 1.0 - w0 - w1])


def test_point_location_matches_reference(square_mesh):
    rng = np.random.default_rng(3)
    p = polygon_corpus(42, 1)[0]
    meshes = [square_mesh, refine(square_mesh),
              triangulate(p, 0.05 * metrics(p).circumradius)]
    for m in meshes:
        tri = m.nodes[m.triangles]
        pick = rng.integers(m.n_triangles, size=200)
        w = rng.dirichlet(np.ones(3), size=200)
        interior = np.einsum("ij,ijk->ik", w, tri[pick])
        t = rng.random((200, 1))
        edge = (1.0 - t) * tri[pick, 0] + t * tri[pick, 1]
        inside = np.vstack([interior, m.nodes, edge])
        idx = m.locate(inside)
        assert np.all(idx >= 0)
        assert np.all(_reference_inside(m, inside, idx))
        got_idx, got_w = m.barycentric(inside)
        assert np.array_equal(got_idx, idx)
        assert np.abs(got_w - _reference_weights(m, inside, idx)).max() <= 1e-13

        lo, hi = m.polygon.vertices.min(axis=0), m.polygon.vertices.max(axis=0)
        span = hi - lo
        cloud = lo - span + 3.0 * span * rng.random((400, 2))
        outside = cloud[m.polygon.distance_to_boundary(cloud) < -0.05 * m.target_h]
        assert len(outside) > 100
        assert np.all(m.locate(outside) == -1)


def _turned(p, angle):
    c, s = np.cos(angle), np.sin(angle)
    return Polygon.from_vertices(p.vertices @ np.array([[c, s], [-s, c]]))


def _lattice_frame(p):
    """Bounding-box corner and power-of-two unit of ``triangulate``'s frame."""
    return p.vertices.min(axis=0), 2.0 ** np.round(np.log2(np.ptp(p.vertices, axis=0).max()))


def _reference_points(p, target_h):
    """The boundary samples followed by the kept lattice nodes, as
    ``triangulate`` places them: built in the lattice frame, mapped back."""
    corner, unit = _lattice_frame(p)
    frame = Polygon((p.vertices - corner) / unit)
    bpts, _ = mesh_module._boundary_samples(frame, target_h / (2.0 * unit))
    lattice = mesh_module._hex_lattice(frame, 0.85 * target_h / unit, mesh_module.NODE_CAP)[0]
    return corner + unit * np.vstack([bpts, lattice])


def _triangle_set(triangles):
    return np.unique(np.sort(triangles, axis=1), axis=0)


def _sliver_sum():
    """Corpus members 2 and 3 summed at s = 0.005, as the hadamard check
    sums them: its mesh has a 3.16 degree triangle beside a short facet."""
    corpus = polygon_corpus(seed=42, count=4)
    return minkowski_sum(corpus[2], scale(corpus[3], 0.005))


@pytest.mark.parametrize("rel", [0.01, 0.02, 0.04])
def test_band_stitching_matches_full_delaunay(rel):
    rng = np.random.default_rng(3)
    bodies = [_turned(p, rng.uniform(0.0, 2.0 * np.pi))
              for p in polygon_corpus(seed=42, count=3)]
    bodies.append(Polygon.from_vertices(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                                  [0.0, 1.0]])))
    bodies.append(regular_polygon(64))
    # short facets leave 0.70-17 degree slivers that the emptiness test decides
    corpus = polygon_corpus(seed=123, count=50)
    bodies += [corpus[1], corpus[36]]
    if rel == 0.02:
        bodies.append(_sliver_sum())
    for p in bodies:
        h = rel * metrics(p).circumradius
        m = triangulate(p, h)
        ref = _reference_points(p, h)
        assert np.array_equal(m.nodes, ref)
        ref_tris = Delaunay(ref).simplices
        assert np.array_equal(_triangle_set(m.triangles), _triangle_set(ref_tris))


def test_triangulate_runs_no_full_delaunay(monkeypatch, square):
    calls, depth_calls = [], []
    depth = Polygon.distance_to_boundary

    def counting_delaunay(points):
        calls.append(points.copy())
        return Delaunay(points)

    def counting_depth(self, points):
        depth_calls.append(len(points))
        return depth(self, points)

    monkeypatch.setattr(mesh_module, "Delaunay", counting_delaunay)
    monkeypatch.setattr(Polygon, "distance_to_boundary", counting_depth)
    disk = regular_polygon(64)
    m = triangulate(disk, 0.02)
    assert len(calls) == 1
    assert len(depth_calls) == 1  # the lattice's depths; the band needs none
    assert len(calls[0]) < m.n_nodes
    # the band's final nodes, in the lattice frame
    corner, unit = _lattice_frame(disk)
    final = {tuple(x) for x in m.nodes}
    assert all(tuple(x) in final for x in corner + unit * calls[0])

    calls.clear()  # coarse: the band holds every node and is the whole mesh
    coarse = triangulate(square, 0.7)
    assert [len(pts) for pts in calls] == [coarse.n_nodes]
    assert check_mesh(coarse).ok


@pytest.mark.parametrize("rel, failing", [(0.02, set()), (0.04, {30, 35}), (0.01, set())])
def test_corpus_mesh_verdicts(rel, failing):
    # the failures at 0.04 are short-facet cases of ROADMAP item 4 (member
    # 30 has a facet of 0.0037 R), whose local grading should empty the set
    corpus = polygon_corpus(seed=42, count=50)
    bad = {k for k, p in enumerate(corpus)
           if not check_mesh(triangulate(p, rel * metrics(p).circumradius)).ok}
    assert bad == failing


def _symmetric_bodies():
    """The 6-gons with normals at 30 + 60k and at 60k degrees, the 12-gon
    with normals at 30k degrees and the axis square: their lattice and
    boundary samples meet in roundoff ties."""
    def body(n, offset_deg):
        degrees = offset_deg + 360.0 * np.arange(n) / n
        angles = np.radians(np.sort(180.0 - (180.0 - degrees) % 360.0))  # in (-180, 180]
        return build_polytope(SupportSpec(angles_to_normals(angles), np.ones(n)))

    return [body(6, 30.0), body(6, 0.0), body(12, 0.0), body(4, 0.0)]


@pytest.mark.parametrize("rel", [0.02, 0.04])
def test_nodes_commute_with_translation_and_dilation(rel):
    rng = np.random.default_rng(9)
    for p in _symmetric_bodies():
        h = rel * metrics(p).circumradius
        base = triangulate(p, h).nodes
        for t in rng.uniform(-1.0, 1.0, size=(20, 2)) * 2e-16 / np.sqrt(2.0):
            q = translate(p, t)
            nodes = triangulate(q, rel * metrics(q).circumradius).nodes
            assert nodes.shape == base.shape
            assert np.abs(nodes - (base + t)).max() <= 1e-12 * h
        for s in (0.01, 3.0, 100.0, 1e6):
            q = scale(p, s)
            nodes = triangulate(q, rel * metrics(q).circumradius).nodes
            assert nodes.shape == base.shape
            assert np.abs(nodes - s * base).max() <= 1e-12 * s * h


@pytest.mark.parametrize("distance", [1e3, 1e4])
def test_meshing_commutes_with_far_translation(distance):
    # the mesh is built in the lattice frame, so a translation by many
    # circumradii neither fails nor changes the triangles, tau or the measure
    for p in polygon_corpus(seed=42, count=8):
        base = solve_on_polygon(p, 0.02 * metrics(p).circumradius)
        weights = facet_measure(base).weights
        for direction in ([1.0, 0.0], [0.6, 0.8], [-0.8, 0.6]):
            q = translate(p, distance * metrics(p).circumradius * np.array(direction))
            f = solve_on_polygon(q, 0.02 * metrics(q).circumradius)
            assert np.array_equal(_triangle_set(f.mesh.triangles),
                                  _triangle_set(base.mesh.triangles))
            assert f.tau_energy == pytest.approx(base.tau_energy, rel=1e-10)
            assert np.abs(facet_measure(f).weights - weights).max() <= 1e-10 * weights.max()


def test_refine_matches_midpoint_dictionary(hexagon):
    m = triangulate(hexagon, 0.2)
    fine = refine(m)
    uniq = np.unique(np.sort(np.vstack([m.triangles[:, [0, 1]], m.triangles[:, [1, 2]],
                                        m.triangles[:, [2, 0]]]), axis=1), axis=0)
    mid = {(int(i), int(j)): m.n_nodes + k for k, (i, j) in enumerate(uniq)}

    def at(i, j):
        return mid[(min(i, j), max(i, j))]

    tris = []
    for a, b, c in m.triangles:
        ab, bc, ca = at(a, b), at(b, c), at(c, a)
        tris += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    assert np.array_equal(fine.triangles, np.array(tris))
    assert np.array_equal(fine.nodes[m.n_nodes:],
                          0.5 * (m.nodes[uniq[:, 0]] + m.nodes[uniq[:, 1]]))
    b_edges = []
    for i, j in m.boundary_edges:
        b_edges += [(i, at(i, j)), (at(i, j), j)]
    assert np.array_equal(fine.boundary_edges, np.array(b_edges))
    assert np.array_equal(fine.boundary_facets, np.repeat(m.boundary_facets, 2))


def test_refine_builds_the_edge_table_np_unique_builds(square, hexagon):
    # the child's table follows from the parent's; it must be the one that
    # _edge_table computes from the child's triangles, as triangulate does
    corpus = polygon_corpus(seed=42, count=2)
    meshes = ([triangulate(square, 0.2), triangulate(hexagon, 0.2)]
              + [triangulate(p, 0.04 * metrics(p).circumradius) for p in corpus])
    for m in meshes:
        for _ in range(2):
            m = refine(m)
            edges, triangle_edges = mesh_module._edge_table(m.triangles, m.n_nodes)
            assert np.array_equal(m.edges, edges)
            assert np.array_equal(m.triangle_edges, triangle_edges)
