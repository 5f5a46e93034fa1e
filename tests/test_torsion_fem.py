import numpy as np
import pytest

from torsion_minkowski import (
    InvariantViolation,
    LinearSolveFailure,
    PointOutside,
    SolverOptions,
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
        c = metrics(p).centroid
        inner = translate(scale(translate(p, -c), 0.7), c)
        h = 0.04 * metrics(p).circumradius
        assert solve_on_polygon(inner, h).tau_energy < solve_on_polygon(p, h).tau_energy


def test_cg_iteration_cap(square):
    mesh = triangulate(square, 0.1)
    with pytest.raises(LinearSolveFailure):
        solve_torsion(mesh, SolverOptions(max_cg_iters=2))


def test_solver_options_validation():
    with pytest.raises(InvariantViolation):
        SolverOptions(linear_tol=1e-3)
