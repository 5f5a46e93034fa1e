import gc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from torsion_minkowski import (
    LinearSolveFailure,
    MaximumPrincipleViolation,
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
from torsion_minkowski.mesh import _edge_key, _p1_basis
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
    # 598 and 3,886 interior unknowns: one and two levels above the coarsest
    meshes = [triangulate(square, h) for h in (0.1, 0.04)]
    assert torsion_fem.COARSE_SIZE < (~meshes[0].is_boundary).sum()
    monkeypatch.setattr(torsion_fem, "MAX_CG_ITERS", 2)
    for mesh in meshes:
        with pytest.raises(LinearSolveFailure):
            solve_torsion(mesh)


def test_small_system_is_solved_exactly_in_one_iteration(square, monkeypatch):
    # 143 interior unknowns: no level, so the preconditioner is the Cholesky solve
    mesh = triangulate(square, 0.2)
    assert (~mesh.is_boundary).sum() <= torsion_fem.COARSE_SIZE
    monkeypatch.setattr(torsion_fem, "MAX_CG_ITERS", 1)
    f = solve_torsion(mesh)
    assert f.cg_iterations == 1
    assert f.estimator_gap <= 1e-12


def test_singular_coarsest_level_raises(square, singular_interior):
    # 143 interior unknowns: the coarsest level is the whole system
    mesh = triangulate(square, 0.2)
    assert (~mesh.is_boundary).sum() <= torsion_fem.COARSE_SIZE
    with pytest.raises(LinearSolveFailure, match="not positive definite"):
        solve_torsion(mesh)


def test_non_finite_preconditioned_residual_raises(square, monkeypatch):
    mesh = triangulate(square, 0.1)
    monkeypatch.setattr(torsion_fem, "_vcycle", lambda levels, coarse, r: np.full_like(r, np.nan))
    with pytest.raises(LinearSolveFailure, match="non-finite"):
        solve_torsion(mesh)


def test_negative_interior_value_raises(square, sink_load):
    with pytest.raises(MaximumPrincipleViolation):
        solve_torsion(triangulate(square, 0.1))


def test_cg_iterations_stay_flat_under_refinement():
    p = polygon_corpus(seed=42, count=8)[7]
    R = metrics(p).circumradius
    fine = triangulate(p, 0.02 * R)
    for mesh in (triangulate(p, 0.04 * R), fine, refine(fine)):
        f = solve_torsion(mesh)
        assert f.cg_iterations <= 25
        assert f.levels >= 1 and 1.0 < f.operator_complexity <= 1.4
        K, b = torsion_fem.assemble(mesh)
        idx = np.flatnonzero(~mesh.is_boundary)
        assert len(idx) > torsion_fem.COARSE_SIZE
        direct = spsolve(K[idx][:, idx].tocsc(), b[idx])
        assert np.abs(f.u[idx] - direct).max() <= 1e-9 * np.abs(direct).max()


def test_preconditioner_leaks_no_reference_cycle(unit_square):
    # a cycle would keep every level and LU factor alive until the cyclic
    # collector runs
    mesh = triangulate(unit_square, 0.02)
    assert (~mesh.is_boundary).sum() > torsion_fem.COARSE_SIZE
    gc.collect()
    gc.disable()
    try:
        f = solve_torsion(mesh)
        del f
        assert gc.collect() == 0
    finally:
        gc.enable()


def _reference_assemble(mesh):
    # the nine-entry-per-triangle COO assembly, summed by the CSR conversion
    t = mesh.triangles
    twice_area, gx, gy = _p1_basis(mesh.nodes, t)
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(t[:, i])
            cols.append(t[:, j])
            vals.append((gx[:, i] * gx[:, j] + gy[:, i] * gy[:, j]) / (2.0 * twice_area))
    K = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()
    load = np.zeros(mesh.n_nodes)
    np.add.at(load, t.ravel(), np.repeat(twice_area / 3.0, 3))
    return K, load


@pytest.fixture(scope="module")
def assembly_meshes(square, disk64):
    corpus = polygon_corpus(seed=42, count=2)
    return ([triangulate(square, 0.1), triangulate(disk64, 0.05)]
            + [triangulate(p, 0.03 * metrics(p).circumradius) for p in corpus]
            + [refine(triangulate(corpus[0], 0.04 * metrics(corpus[0]).circumradius))])


def test_assemble_matches_nine_entry_reference(assembly_meshes):
    for mesh in assembly_meshes:
        K, load = torsion_fem.assemble(mesh)
        K_ref, load_ref = _reference_assemble(mesh)
        k_max = np.abs(K_ref).max()
        assert np.abs(K - K_ref).max() <= 1e-14 * k_max
        assert np.abs(load - load_ref).max() <= 1e-15 * np.abs(load_ref).max()
        assert np.abs(K @ np.ones(mesh.n_nodes)).max() <= 1e-12 * k_max


def test_edge_table(assembly_meshes):
    for mesh in assembly_meshes:
        t, n = mesh.triangles, mesh.n_nodes
        keys = np.stack([_edge_key(t[:, (k + 1) % 3], t[:, (k + 2) % 3], n) for k in range(3)],
                        axis=1)
        assert np.array_equal(mesh.edges, np.unique(keys))
        assert np.array_equal(mesh.edges[mesh.triangle_edges], keys)
        once = np.bincount(mesh.triangle_edges.ravel()) == 1
        i, j = mesh.boundary_edges.T
        assert np.array_equal(mesh.edges[once], np.sort(_edge_key(i, j, n)))
