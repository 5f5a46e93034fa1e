import numpy as np
import pytest

from torsion_minkowski import (
    LinearSolveFailure,
    PointOutside,
    check_sqrt_concavity,
    gradient_at,
    metrics,
    refine,
    scale,
    solve_on_polygon,
    solve_torsion,
    translate,
    triangulate,
)
from torsion_minkowski import torsion_fem
from torsion_minkowski.verify_suite import polygon_corpus
from conftest import SQUARE_COEFF


def test_disk_oracle(disk_field):
    # analytic solution on the unit disk: u = (1 - |x|^2) / 2, tau = pi/2
    tau = disk_field.tau_energy
    assert abs(tau - np.pi / 2) / (np.pi / 2) < 0.01


def test_square_oracle(square_field):
    # Fourier-series value for the side-2 square: 0.140577 * 2^4
    expected = SQUARE_COEFF * 16.0
    assert SQUARE_COEFF == pytest.approx(0.140577, abs=5e-7)
    assert abs(square_field.tau_energy - expected) / expected < 0.005


def test_unit_square_oracle(unit_square_field):
    assert abs(unit_square_field.tau_energy - SQUARE_COEFF) / SQUARE_COEFF < 0.005


def test_scaling_fourth_power(square, square_field):
    doubled = solve_on_polygon(scale(square, 2.0), 0.04)
    ratio = doubled.tau_energy / square_field.tau_energy
    assert abs(ratio - 16.0) / 16.0 < 0.005


def test_estimator_gap_small(square_field, disk_field):
    # Galerkin makes the energy and mass estimators agree to solver precision
    for f in (square_field, disk_field):
        assert abs(f.tau_energy - f.tau_mass) <= 2.0 * f.estimator_gap * f.tau_energy + 1e-15
        assert f.estimator_gap < 1e-8


def _reference_tau_mass(f):
    # twice the area-weighted triangle means of u
    areas = f.mesh.triangle_areas()
    return float(2.0 * np.sum(areas * f.u[f.mesh.triangles].mean(axis=1)))


def _reference_gradients(f):
    # gradient of u on each triangle, written out vertex by vertex
    m = f.mesh
    a, b, c = (m.nodes[m.triangles[:, k]] for k in range(3))
    ua, ub, uc = (f.u[m.triangles[:, k]] for k in range(3))
    twice_area = ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    gx = (ua * (b[:, 1] - c[:, 1]) + ub * (c[:, 1] - a[:, 1])
          + uc * (a[:, 1] - b[:, 1])) / twice_area
    gy = (ua * (c[:, 0] - b[:, 0]) + ub * (a[:, 0] - c[:, 0])
          + uc * (b[:, 0] - a[:, 0])) / twice_area
    return np.column_stack([gx, gy])


def test_estimators_match_reference_formulas(square_field, disk_field):
    corpus = [solve_on_polygon(p, 0.03 * metrics(p).circumradius)
              for p in polygon_corpus(seed=42, count=2)]
    for f in [square_field, disk_field] + corpus:
        ref_mass = _reference_tau_mass(f)
        assert abs(f.tau_mass - ref_mass) <= 1e-13 * ref_mass
        ref_grads = _reference_gradients(f)
        err = np.abs(f.triangle_gradients() - ref_grads).max()
        assert err <= 1e-13 * np.abs(ref_grads).max()


def test_estimator_gap_stays_at_solver_floor(square):
    mesh = triangulate(square, 0.1)
    for _ in range(3):
        f = solve_torsion(mesh)
        assert f.estimator_gap < 1e-8
        mesh = refine(mesh)


def test_boundary_values_zero(square_field):
    assert np.all(square_field.u[square_field.mesh.boundary_node_ids] == 0.0)
    interior = ~square_field.mesh.is_boundary
    assert np.all(square_field.u[interior] > 0.0)


def test_gradient_at_disk(disk_field):
    assert np.hypot(*gradient_at(disk_field, np.array([0.0, 0.0]))) < 0.05
    g = gradient_at(disk_field, np.array([0.5, 0.0]))
    assert np.allclose(g, [-0.5, 0.0], atol=0.025)
    with pytest.raises(PointOutside):
        gradient_at(disk_field, np.array([2.0, 0.0]))


def test_gradient_bound(disk_field, square_field):
    for f in (disk_field, square_field):
        grads = f.triangle_gradients()
        gmax = np.hypot(grads[:, 0], grads[:, 1]).max()
        assert gmax <= 1.02 * metrics(f.mesh.polygon).diameter


def test_sqrt_concavity(disk_field, square_field):
    for f in (disk_field, square_field):
        report = check_sqrt_concavity(f, trials=2000, rng_seed=7)
        assert report.violations == 0
        assert report.worst_margin >= -report.epsilon


def test_monotonicity_under_inclusion():
    rng = np.random.default_rng(21)
    for p in polygon_corpus(seed=21, count=3):
        c = p.centroid
        inner = translate(scale(translate(p, -c), 0.7), c)
        h = 0.04 * metrics(p).circumradius
        assert solve_on_polygon(inner, h).tau_energy < solve_on_polygon(p, h).tau_energy


def test_cg_iteration_cap(square, monkeypatch):
    mesh = triangulate(square, 0.1)
    monkeypatch.setattr(torsion_fem, "MAX_CG_ITERS", 2)
    with pytest.raises(LinearSolveFailure):
        solve_torsion(mesh)
