import numpy as np
import pytest
from scipy.spatial import Delaunay

from torsion_minkowski import (
    InvariantViolation,
    MeshTooFine,
    PointOutside,
    check_mesh,
    metrics,
    refine,
    regular_polygon,
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


def test_node_cap(square):
    with pytest.raises(MeshTooFine):
        triangulate(square, 0.05, node_cap=100)
    m = triangulate(square, 0.3)
    with pytest.raises(MeshTooFine):
        refine(m, node_cap=m.n_nodes + 1)


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


def _turned(p, angle):
    c, s = np.cos(angle), np.sin(angle)
    return Polygon.from_vertices(p.vertices @ np.array([[c, s], [-s, c]]))


def _reference_nodes(p, target_h):
    """Node set of the full-Delaunay smoother that band smoothing replaced:
    every sweep re-triangulates all points and may move every free node."""
    spacing = target_h / 2.0
    h_lat = 0.85 * target_h
    bpts, _ = mesh_module._boundary_samples(p, spacing)
    pts = np.vstack([bpts, mesh_module._hex_lattice(p, h_lat, margin=0.5 * h_lat)])
    for _ in range(mesh_module.SMOOTH_SWEEPS):
        indptr, indices = Delaunay(pts).vertex_neighbor_vertices
        counts = np.maximum(np.diff(indptr), 1)
        means = np.add.reduceat(pts[indices], indptr[:-1], axis=0) / counts[:, None]
        upd = p.distance_to_boundary(means) >= 0.4 * spacing
        upd[:len(bpts)] = False
        pts = np.where(upd[:, None], means, pts)
    return pts


def _triangle_set(triangles):
    return np.unique(np.sort(triangles, axis=1), axis=0)


@pytest.mark.parametrize("rel", [0.01, 0.02, 0.04])
def test_band_smoothing_matches_full_delaunay_smoothing(rel):
    rng = np.random.default_rng(3)
    for p in polygon_corpus(seed=42, count=3):
        p = _turned(p, rng.uniform(0.0, 2.0 * np.pi))
        h = rel * metrics(p).circumradius
        m = triangulate(p, h)
        ref = _reference_nodes(p, h)
        assert np.abs(m.nodes - ref).max() <= 1e-12 * h
        ref_tris = Delaunay(ref).simplices
        assert np.array_equal(_triangle_set(m.triangles), _triangle_set(ref_tris))


def test_triangulate_runs_one_full_delaunay(monkeypatch):
    sizes = []

    def counting_delaunay(points):
        sizes.append(len(points))
        return Delaunay(points)

    monkeypatch.setattr(mesh_module, "Delaunay", counting_delaunay)
    m = triangulate(regular_polygon(64), 0.02)
    assert sizes.count(m.n_nodes) == 1
    assert len(sizes) == mesh_module.SMOOTH_SWEEPS + 1
    assert max(sizes[:-1]) < m.n_nodes


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
