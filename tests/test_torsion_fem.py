import dataclasses
import gc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from torsion_minkowski import (
    InvariantViolation,
    LinearSolveFailure,
    MaximumPrincipleViolation,
    check_sqrt_concavity,
    facet_measure,
    metrics,
    minkowski_sum,
    refine,
    regular_polygon,
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


def test_triangle_gradients_disk(disk_field):
    # on the unit disk u = (1 - |x|^2) / 2, so grad u = -x
    mesh = disk_field.mesh
    c = mesh.nodes[mesh.triangles].mean(axis=1)
    inner = np.hypot(*c.T) <= 0.9
    error = np.hypot(*(disk_field.triangle_gradients() + c)[inner].T)
    assert inner.sum() > 0.5 * mesh.n_triangles and error.max() <= 1e-3


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


def test_residual_above_tolerance_raises(square, monkeypatch):
    # a solution 0.1% off leaves a residual far above 10 LINEAR_TOL ||b||
    pcg = torsion_fem._pcg

    def spoiled(*args, **kwargs):
        x, iterations = pcg(*args, **kwargs)
        return 1.001 * x, iterations

    monkeypatch.setattr(torsion_fem, "_pcg", spoiled)
    with pytest.raises(LinearSolveFailure, match="above tolerance"):
        solve_torsion(triangulate(square, 0.1))


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
        Kii = K[idx][:, idx]
        direct = spsolve(Kii.tocsc(), b[idx])
        # the CG stop's contract: the squared energy error within the budget
        e = f.u[idx] - direct
        assert e @ (Kii @ e) <= torsion_fem.ENERGY_BUDGET * (direct @ b[idx])


def _aggregates_per_level(mesh, monkeypatch):
    # every level's aggregates, as _hierarchy computes them for the mesh
    aggregates, found = torsion_fem._aggregates, []

    def spy(xy, side):
        found.append(aggregates(xy, side))
        return found[-1]

    monkeypatch.setattr(torsion_fem, "_aggregates", spy)
    _, _, idx, Kii = torsion_fem._system(mesh)
    torsion_fem._hierarchy(Kii, mesh.nodes[idx], mesh.target_h)
    monkeypatch.undo()
    return found


def test_aggregates_commute_with_translation_and_dilation(monkeypatch):
    # the far translations of test_meshing_commutes_with_far_translation and
    # the dilations of the node and homogeneity tests, on every level; a
    # refined mesh adds the edge midpoints
    for p in polygon_corpus(seed=42, count=8):
        R = metrics(p).circumradius
        base = triangulate(p, 0.02 * R)
        expected = [_aggregates_per_level(m, monkeypatch) for m in (base, refine(base))]
        assert all(len(levels) >= 2 for levels in expected)  # coarser levels are covered
        moved = [translate(p, distance * R * np.array(direction))
                 for distance in (1e3, 1e4)
                 for direction in ([1.0, 0.0], [0.6, 0.8], [-0.8, 0.6])]
        moved += [scale(p, s) for s in (0.01, 0.5, 1.7, 2.0, 3.0, 100.0, 1e6)]
        for q in moved:
            mesh = triangulate(q, 0.02 * metrics(q).circumradius)
            assert np.array_equal(mesh.edges, base.edges)  # the same numbering of nodes and midpoints
            for m, levels in zip((mesh, refine(mesh)), expected):
                found = _aggregates_per_level(m, monkeypatch)
                assert len(found) == len(levels)
                for agg, agg_base in zip(found, levels):
                    assert np.array_equal(agg, agg_base)


def _direct_field(f):
    # f with the interior system solved by sparse LU instead of CG
    K, b, idx, Kii = torsion_fem._system(f.mesh)
    u = np.zeros(f.mesh.n_nodes)
    u[idx] = spsolve(Kii.tocsc(), b[idx])
    return dataclasses.replace(f, u=u, reaction=K @ u - b, tau_energy=float(u @ b))


def test_solver_contract_against_a_direct_solve():
    # the early CG stop moves the rigidity by at most 1e-10 and the facet
    # measure by at most 1e-6 of a direct solve, on plain, refined and
    # nested solves
    for p in polygon_corpus(seed=42, count=8):
        R = metrics(p).circumradius
        for rel in (0.04, 0.02):
            mesh = triangulate(p, rel * R)
            coarse = solve_torsion(mesh)
            for f in (coarse, solve_torsion(refine(mesh)), torsion_fem.solve_refined(coarse)):
                ref = _direct_field(f)
                assert abs(f.tau_energy - ref.tau_energy) <= 1e-10 * ref.tau_energy
                w, w_ref = facet_measure(f).weights, facet_measure(ref).weights
                assert np.abs(w - w_ref).max() <= 1e-6 * w_ref.max()
                assert f.cg_error_estimate <= torsion_fem.ENERGY_BUDGET


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


@pytest.fixture(scope="module")
def nested_meshes():
    # the square, the hexagon, corpus members 0 and 1, and the hadamard
    # workload's sliver sum (corpus 2 + 0.005 corpus 3), at 0.02 R
    corpus = polygon_corpus(seed=42, count=4)
    bodies = [regular_polygon(4), regular_polygon(6), corpus[0], corpus[1],
              minkowski_sum(corpus[2], scale(corpus[3], 0.005))]
    return [triangulate(p, 0.02 * metrics(p).circumradius) for p in bodies]


def test_nested_solve_matches_the_plain_refined_solve(nested_meshes):
    for mesh in nested_meshes:
        coarse = solve_torsion(mesh)
        fine = torsion_fem.solve_refined(coarse)
        plain = solve_torsion(refine(mesh))
        assert abs(fine.tau_energy - plain.tau_energy) <= 1e-10 * plain.tau_energy
        assert np.abs(fine.u - plain.u).max() <= 1e-8 * plain.u.max()
        assert fine.cg_iterations <= plain.cg_iterations
        assert fine.levels == coarse.levels + 1
        assert 1.0 < fine.operator_complexity <= 1.4
        assert fine.estimator_gap < 1e-8
        assert np.array_equal(fine.mesh.triangles, plain.mesh.triangles)
        alone = solve_torsion(mesh)
        assert np.array_equal(coarse.u, alone.u)
        assert coarse.cg_iterations == alone.cg_iterations


def test_prolongation_is_the_galerkin_coarse_system(nested_meshes):
    # for nested P1 spaces P^T K_fine P is the coarse interior system
    for mesh in nested_meshes[:3]:
        K, _, idx, Kii = torsion_fem._system(mesh)
        fine = refine(mesh)
        _, _, fine_idx, Aii = torsion_fem._system(fine)
        P = torsion_fem._prolongation(mesh, idx, fine_idx)
        assert np.abs(P.T @ Aii @ P - Kii).max() <= 1e-12 * np.abs(Kii).max()


def test_refined_cg_starts_from_the_interpolated_coarse_solution(square, monkeypatch):
    pcg, starts = torsion_fem._pcg, []

    def spy(A, b, precondition, x0=None):
        starts.append(x0)
        return pcg(A, b, precondition, x0)

    monkeypatch.setattr(torsion_fem, "_pcg", spy)
    mesh = triangulate(square, 0.1)
    coarse = solve_torsion(mesh)
    fine = torsion_fem.solve_refined(coarse)
    assert len(starts) == 2 and starts[0] is None
    start = np.zeros(fine.mesh.n_nodes)
    start[~fine.mesh.is_boundary] = starts[1]
    lo, hi = np.divmod(mesh.edges, mesh.n_nodes)
    interpolated = np.concatenate([coarse.u, 0.5 * (coarse.u[lo] + coarse.u[hi])])
    assert np.abs(start - interpolated).max() <= 1e-15 * coarse.u.max()
    # the stopping test is relative to ||b||: an exact start needs no iteration
    _, b, idx, A = torsion_fem._system(mesh)
    exact = spsolve(A.tocsc(), b[idx])
    x, iterations = pcg(A, b[idx], lambda r: r, x0=exact)
    assert iterations == 0 and np.array_equal(x, exact)


def test_a_refined_field_cannot_be_refined_again(square):
    # only a solve_torsion field keeps the hierarchy solve_refined reuses
    fine = torsion_fem.solve_refined(solve_torsion(triangulate(square, 0.2)))
    assert fine._multigrid is None
    with pytest.raises(InvariantViolation, match="refined field"):
        torsion_fem.solve_refined(fine)


@pytest.mark.parametrize("side", [0.2, 0.1])
def test_nested_solve_hits_its_iteration_cap(square, monkeypatch, side):
    # at 0.2 the coarse system is solved exactly in one iteration, so the
    # refined solve is the one that hits the cap
    monkeypatch.setattr(torsion_fem, "MAX_CG_ITERS", 1)
    with pytest.raises(LinearSolveFailure, match="cap"):
        torsion_fem.solve_refined(solve_torsion(triangulate(square, side)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", [0, 1])
def test_non_finite_load_raises(square, monkeypatch, bad, call):
    # call 0 spoils the coarse load, call 1 the refined one
    assemble, calls = torsion_fem.assemble, []

    def spoiled(mesh):
        K, load = assemble(mesh)
        if len(calls) == call:
            load[np.flatnonzero(~mesh.is_boundary)[0]] = bad
        calls.append(mesh)
        return K, load

    monkeypatch.setattr(torsion_fem, "assemble", spoiled)
    with pytest.raises(LinearSolveFailure, match="not finite"):
        torsion_fem.solve_refined(solve_torsion(triangulate(square, 0.1)))
    if call == 0:
        calls.clear()
        with pytest.raises(LinearSolveFailure, match="not finite"):
            solve_torsion(triangulate(square, 0.1))
