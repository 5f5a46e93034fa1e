import dataclasses
import json

import numpy as np
import pytest

from torsion_minkowski import (
    FacetAttributionMissing,
    InvariantViolation,
    MaximumPrincipleViolation,
    SurfaceMeasure,
    boundary_flux,
    facet_measure,
    hadamard_fd_check,
    metrics,
    mixed_torsion,
    polygon_corpus,
    refine,
    representation_residual,
    scale,
    solve_on_polygon,
    solve_torsion,
    support_spec_of,
    torsion_measure,
    translate,
    triangulate,
)
from torsion_minkowski.cli import main
from conftest import SQUARE_COEFF, turned_octagon


# ------------------------------------------------------------------ flux


def test_disk_flux_matches_unit_density(disk_field):
    # |grad u| = |x| = 1 on the unit circle; on the 64-gon the flux dips at
    # the corners (it vanishes there in the continuum), so the pointwise
    # check applies away from them and aggregate checks take over globally.
    g = boundary_flux(disk_field)
    mesh = disk_field.mesh
    bidx = mesh.boundary_node_ids
    pts = mesh.nodes[bidx]
    corner_d = np.sqrt(
        ((pts[:, None, :] - mesh.polygon.vertices[None, :, :]) ** 2).sum(axis=2)
    ).min(axis=1)
    far = corner_d >= 0.3 * mesh.polygon.facet_lengths[0]
    assert np.abs(g[bidx][far] - 1.0).max() < 0.05
    # rms flux over the boundary and the median node value sit within 2%
    rms = np.sqrt(facet_measure(disk_field).total_mass / mesh.polygon.facet_lengths.sum())
    assert abs(rms - 1.0) < 0.02
    assert abs(np.median(g[bidx]) - 1.0) < 0.02


def test_square_flux_vanishes_at_corners(square_field):
    g = boundary_flux(square_field)
    mesh = square_field.mesh
    bidx = mesh.boundary_node_ids
    pts = mesh.nodes[bidx]
    corner_d = np.sqrt(
        ((pts[:, None, :] - mesh.polygon.vertices[None, :, :]) ** 2).sum(axis=2)
    ).min(axis=1)
    near = corner_d <= 1.5 * mesh.boundary_edge_lengths.max()
    assert g[bidx][near].max() < 0.2 * g.max()


def test_flux_scales_linearly(square, square_field):
    f2 = solve_on_polygon(scale(square, 2.0), 0.04)
    g1 = boundary_flux(square_field)[square_field.mesh.boundary_node_ids]
    g2 = boundary_flux(f2)[f2.mesh.boundary_node_ids]
    # scale-equivariant meshing maps boundary nodes 1:1
    assert len(g1) == len(g2)
    assert np.abs(g2 - 2.0 * g1).max() <= 0.03 * (2.0 * g1).max()


def test_boundary_reactions_are_negative_on_refined_corpus_meshes():
    # refine keeps no Delaunay property, so its stiffness has positive
    # off-diagonal entries; the boundary reactions stay negative all the same
    for p in polygon_corpus(42, 50):
        f = solve_torsion(refine(triangulate(p, 0.04 * metrics(p).circumradius)))
        assert np.all(f.reaction[f.mesh.boundary_node_ids] < 0.0)
        assert np.all(boundary_flux(f)[f.mesh.boundary_node_ids] > 0.0)


def test_nonnegative_boundary_reaction_raises(square_field):
    reaction = np.array(square_field.reaction)
    reaction[square_field.mesh.boundary_node_ids[3]] = 1e-12
    flipped = dataclasses.replace(square_field, reaction=reaction)
    with pytest.raises(MaximumPrincipleViolation, match="1 boundary node"):
        boundary_flux(flipped)
    with pytest.raises(MaximumPrincipleViolation):
        facet_measure(flipped)


def _flux_integral(f):
    """Trapezoidal integral of the recovered flux over the boundary."""
    g = boundary_flux(f)
    i, j = f.mesh.boundary_edges.T
    return float(f.mesh.boundary_edge_lengths @ (0.5 * (g[i] + g[j])))


def test_flux_satisfies_divergence_theorem(square_field, disk_field):
    # the integral of |du/dnu| over the boundary is 2 * area; the reaction
    # flux meets it to the linear-solver tolerance, and on the Delaunay
    # meshes triangulate builds every boundary reaction is negative
    corpus_fields = [solve_on_polygon(p, 0.02 * metrics(p).circumradius)
                     for p in polygon_corpus(42, 50)]
    for f in [square_field, disk_field, *corpus_fields]:
        two_area = 2.0 * f.mesh.polygon.area
        assert abs(_flux_integral(f) - two_area) <= 1e-9 * two_area
        assert np.all(f.reaction[f.mesh.boundary_node_ids] < 0)
    fine = solve_torsion(refine(square_field.mesh))
    two_area = 2.0 * fine.mesh.polygon.area
    assert abs(_flux_integral(fine) - two_area) <= 1e-9 * two_area


# --------------------------------------------------------------- measure


def test_disk_measure_total_mass(disk_field):
    mu = facet_measure(disk_field)
    assert abs(mu.total_mass - 2.0 * np.pi) / (2.0 * np.pi) < 0.02


def test_square_measure_per_side(square_field, axis_spec):
    mu = torsion_measure(square_field, axis_spec)
    expected = 2.0 * SQUARE_COEFF * 16.0 / 2.0  # 2 tau / side
    assert np.abs(mu.weights - expected).max() / expected < 0.02


def test_symmetric_closure_defect(square_field, disk_field):
    for f in (square_field, disk_field):
        assert facet_measure(f).closure_defect < 1e-3


def test_measure_translation_invariance(square, square_field):
    shifted = solve_on_polygon(translate(square, np.array([0.41, -1.13])), 0.02)
    mu0 = facet_measure(square_field).weights
    mu1 = facet_measure(shifted).weights
    assert np.abs(mu1 - mu0).max() <= 0.01 * mu0.max()


def test_measure_dilation_homogeneity(square, square_field):
    f2 = solve_on_polygon(scale(square, 2.0), 0.04)
    ratio = facet_measure(f2).weights / facet_measure(square_field).weights
    assert np.abs(ratio - 8.0).max() < 0.03 * 8.0


def test_attribution_requires_built_polygon(disk_field, axis_spec):
    # the regular polygon was built from vertices, not from the axis spec
    with pytest.raises(FacetAttributionMissing):
        torsion_measure(disk_field, axis_spec)


def test_surface_measure_validation():
    normals = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InvariantViolation, match="one weight per normal"):
        SurfaceMeasure(normals, np.ones(3))
    for bad in (-1.0, -1e-13, np.nan, np.inf):
        with pytest.raises(InvariantViolation, match="finite and nonnegative"):
            SurfaceMeasure(normals, np.array([bad, 1.0]))
    lopsided = SurfaceMeasure(normals, np.array([1.0, 1.0]))
    with pytest.raises(InvariantViolation):
        lopsided.validate()
    # a zero measure has no closure defect to test; reject it before dividing
    with pytest.raises(InvariantViolation, match="mass"):
        SurfaceMeasure(normals, np.zeros(2)).validate()


# --------------------------------------------------------- mixed rigidity


def test_mixed_torsion_first_argument_homogeneity(square, square_field, hexagon):
    f2 = solve_on_polygon(scale(square, 2.0), 0.04)
    t1 = mixed_torsion(facet_measure(square_field), hexagon)
    t2 = mixed_torsion(facet_measure(f2), hexagon)
    assert abs(t2 / t1 - 8.0) / 8.0 < 0.03


def test_mixed_torsion_linear_in_second_argument(square_field, hexagon):
    mu = facet_measure(square_field)
    assert mixed_torsion(mu, scale(hexagon, 2.0)) == pytest.approx(
        2.0 * mixed_torsion(mu, hexagon), rel=1e-12)


# --------------------------------------------------- representation (1/4)


def test_representation_residual_disk(disk_field, disk64):
    # facet_measure weights follow polygon facet order, as do the offsets
    mu = facet_measure(disk_field)
    res = abs(disk_field.tau_energy - 0.25 * float(
        np.sum(mu.weights * disk64.offsets))) / disk_field.tau_energy
    assert res < 0.01


def test_representation_residual_square(square_field, axis_spec):
    mu = torsion_measure(square_field, axis_spec)
    assert representation_residual(square_field, axis_spec, mu) < 0.01


def test_representation_improves_under_refinement(square, axis_spec):
    mesh = triangulate(square, 0.04)
    f1 = solve_torsion(mesh)
    f2 = solve_torsion(refine(mesh))
    r1 = representation_residual(f1, axis_spec, torsion_measure(f1, axis_spec))
    r2 = representation_residual(f2, axis_spec, torsion_measure(f2, axis_spec))
    assert r1 / r2 >= 1.5


# ------------------------------------------------------------- hadamard


def test_hadamard_self_pair_square(axis_spec):
    # d/ds tau((1+s) K) at 0 equals 4 tau, which is also tau_1(K, K)
    rep = hadamard_fd_check(axis_spec, axis_spec, [0.01], mesh_h=0.03)
    assert rep.predicted_slope == pytest.approx(4.0 * SQUARE_COEFF * 16.0, rel=0.01)
    assert rep.mismatches[0] < 0.03


def test_hadamard_square_octagon(axis_spec):
    oct_spec = support_spec_of(turned_octagon())
    rep = hadamard_fd_check(axis_spec, oct_spec, [0.02, 0.01, 0.005], mesh_h=0.03)
    assert rep.mismatches[-1] < 0.02
    assert rep.monotone_tail
    assert rep.extrapolated_mismatch < 0.01


def test_hadamard_validates_s_values(axis_spec, tmp_path, capsys):
    for bad in ([0.01, 0.02], [-0.01], [], 0.01, [np.nan]):
        with pytest.raises(InvariantViolation):
            hadamard_fd_check(axis_spec, axis_spec, bad, mesh_h=0.03)
    path = tmp_path / "pair.json"
    square = {"vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]}
    path.write_text(json.dumps({"body": square, "body_prime": square, "s_values": []}))
    assert main(["hadamard", "--input", str(path)]) == 1
    assert "InvariantViolation" in capsys.readouterr().err
