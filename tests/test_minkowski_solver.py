import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

from torsion_minkowski import (
    EmptyInterior,
    InvariantViolation,
    NoConvergence,
    Polygon,
    SolveOptions,
    SupportSpec,
    TargetMeasure,
    UnbalanceableMeasure,
    angles_to_normals,
    build_polytope,
    facet_measure,
    hausdorff_distance,
    metrics,
    objective,
    project_balance,
    scale,
    solve_minkowski,
    solve_on_polygon,
    steiner_point,
    support_spec_of,
    translate,
    uniqueness_probe,
)
import torsion_minkowski
from torsion_minkowski import minkowski_solver, support_geometry, torsion_fem
from torsion_minkowski.boundary_measure import HadamardReport, SurfaceMeasure, torsion_measure
from torsion_minkowski.mesh import TriMesh, refine, triangulate
from torsion_minkowski.minkowski_solver import ObjectiveEval
from torsion_minkowski.torsion_fem import TorsionField, solve_torsion
from torsion_minkowski.verify_suite import polygon_corpus
from conftest import SQUARE_COEFF, corpus_measure_target

AXIS_NORMALS = angles_to_normals(np.deg2rad([-90, 0, 90, 180]))
SQUARE_WEIGHT = 2.0 * SQUARE_COEFF  # measure weight per side of the unit square


@pytest.fixture(scope="module")
def square_target():
    return TargetMeasure(AXIS_NORMALS, np.full(4, SQUARE_WEIGHT))


@pytest.fixture(scope="module")
def square_solution(square_target):
    return solve_minkowski(square_target, SolveOptions())


# -------------------------------------------------------------- balance


def test_project_balance_keeps_balanced_data():
    tm = project_balance(np.ones(4), AXIS_NORMALS)
    assert np.allclose(tm.weights, 1.0, atol=1e-12)
    tripod = angles_to_normals(np.deg2rad([-120.0, 0.0, 120.0]))
    tm3 = project_balance(np.ones(3), tripod)
    assert np.allclose(tm3.weights, 1.0, atol=1e-12)
    # reversed normals come back sorted, their weights permuted along and balanced
    tm = project_balance(np.array([1.0, 1.01, 0.99, 1.0])[::-1], AXIS_NORMALS[::-1])
    assert np.array_equal(tm.normals, AXIS_NORMALS)
    assert np.allclose(tm.weights, [0.995, 1.005, 0.995, 1.005], atol=1e-12)


def test_project_balance_two_normals_rejected():
    with pytest.raises(UnbalanceableMeasure):
        project_balance(np.ones(2), angles_to_normals([0.0, np.pi / 2]))


def test_project_balance_budget():
    # moving 20% of the mass onto one side needs > 5% corrections
    with pytest.raises(UnbalanceableMeasure):
        project_balance(np.array([1.0, 1.5, 1.0, 1.0]), AXIS_NORMALS)


def test_target_measure_requires_balance():
    with pytest.raises(InvariantViolation):
        TargetMeasure(AXIS_NORMALS, np.array([1.0, 1.5, 1.0, 1.0]))
    with pytest.raises(InvariantViolation):
        TargetMeasure(AXIS_NORMALS, np.array([1.0, -1.0, 1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_rejected(bad):
    weights = np.array([1.0, bad, 1.0, 1.0])
    with pytest.raises(UnbalanceableMeasure):
        project_balance(weights, AXIS_NORMALS)
    with pytest.raises(InvariantViolation):
        TargetMeasure(AXIS_NORMALS, weights)


# ------------------------------------------------------------ objective


def test_objective_stationary_at_square_solution(square_target):
    h = SupportSpec(AXIS_NORMALS, np.full(4, 0.5))
    ev = objective(h, square_target, mesh_h=0.02 * metrics(build_polytope(h)).circumradius)
    assert np.linalg.norm(ev.grad_J) < 0.03 * np.linalg.norm(square_target.weights)


def test_objective_scale_invariance(square_target):
    h = SupportSpec(AXIS_NORMALS, np.full(4, 0.5))
    base = objective(h, square_target, mesh_h=0.012).J
    for s in (0.5, 2.0):
        js = objective(h.with_values(s * h.values), square_target, mesh_h=0.012 * s).J
        assert abs(js - base) / base < 0.005


def test_objective_translation_invariance(square_target):
    h = SupportSpec(AXIS_NORMALS, np.full(4, 0.5))
    t = np.array([0.123, -0.456])
    shifted = h.translated(t)
    j0 = objective(h, square_target, mesh_h=0.012).J
    j1 = objective(shifted, square_target, mesh_h=0.012).J
    assert abs(j1 - j0) / j0 < 1e-6


def test_objective_gradient_matches_finite_differences():
    # a target whose solution differs from the flat start, so the
    # gradient at h = 1 has honest magnitude; agreement is measured
    # against the norm of the probed finite-difference vector
    target, _ = corpus_measure_target(77)
    h = SupportSpec(target.normals, np.ones(len(target)))
    mesh_h = 0.012 * metrics(build_polytope(h)).circumradius
    ev = objective(h, target, mesh_h)
    eps = 1e-3
    fds = []
    for i in range(len(target)):
        up = h.values.copy(); up[i] += eps
        dn = h.values.copy(); dn[i] -= eps
        fds.append((objective(h.with_values(up), target, mesh_h).J
                    - objective(h.with_values(dn), target, mesh_h).J) / (2 * eps))
    fds = np.asarray(fds)
    assert np.abs(ev.grad_J - fds).max() <= 0.02 * np.linalg.norm(fds)


def test_objective_empty_interior():
    target = TargetMeasure(AXIS_NORMALS, np.ones(4))
    h = SupportSpec(AXIS_NORMALS, np.array([-2.0, 1.0, 1.0, 1.0]))
    with pytest.raises(EmptyInterior):
        objective(h, target, mesh_h=0.05)


# ---------------------------------------------------------------- solve


def test_solve_square_target(square_solution):
    rep = square_solution
    assert rep.converged
    assert rep.diagnostics["stop_reason"] == "residual"
    assert np.abs(rep.h_final.values - 0.5).max() < 0.005
    assert rep.residual_history[-1] < 0.02
    # multiplier of the constrained formulation: Phi / tau^(1/4) at the optimum
    expected_m = (4 * SQUARE_WEIGHT * 0.5) / (SQUARE_COEFF ** 0.25)
    assert rep.multiplier_m == pytest.approx(expected_m, rel=0.01)


def test_solve_monotone_objective(square_solution):
    J = square_solution.objective_history
    assert all(J[i + 1] <= J[i] + 1e-12 for i in range(len(J) - 2))


def test_solve_report_invariants(square_solution):
    r = square_solution.residual_history
    # nonincreasing over accepted steps, up to a small discretization floor
    assert all(r[i + 1] <= r[i] + 1e-4 for i in range(len(r) - 1))
    assert square_solution.converged
    assert r[-1] <= 0.02


def test_solve_regular_polygon_targets():
    for n in (6, 12):
        ang = -np.pi + (np.arange(n) + 0.5) * 2 * np.pi / n
        target = TargetMeasure(angles_to_normals(ang), np.full(n, 0.25))
        rep = solve_minkowski(target, SolveOptions())
        assert rep.converged
        h = rep.h_final.values
        assert (h.max() - h.min()) / h.mean() < 0.01


def test_solve_recovers_random_polygon():
    p = polygon_corpus(seed=11, count=1, max_facets=7)[0]
    m = metrics(p)
    f = solve_on_polygon(p, 0.02 * m.circumradius)
    mu = facet_measure(f)
    target = project_balance(mu.weights, p.facet_normals)
    rep = solve_minkowski(target, SolveOptions())
    assert rep.converged
    centered = translate(p, -steiner_point(p))
    assert hausdorff_distance(centered, rep.polygon) < 0.02 * m.circumradius


def test_solve_iterates_respect_apriori_bounds(square_solution):
    log = square_solution.diagnostics["iterations_log"]
    inr = [rec["inradius"] for rec in log]
    circ = [rec["circumradius"] for rec in log]
    assert min(inr) >= inr[0] / 50.0
    assert max(circ) <= circ[0] * 50.0


def test_log_rows_report_representation_residual_and_nodes(square_solution):
    # criterion 03 bounds the representation residual at 1%
    log = square_solution.diagnostics["iterations_log"]
    assert all(rec["rep_residual"] < 0.01 and rec["nodes"] > 0 for rec in log)
    assert all(0 < rec["cg_iterations"] <= 25 for rec in log)


def test_elongated_start_meshes_within_the_inradius(square_target):
    # a 1 x 40 start: a mesh sized from the circumradius alone would not fit
    rep = solve_minkowski(square_target, SolveOptions(init_values=[20.0, 0.5, 20.0, 0.5]))
    assert rep.converged


def test_solve_sixteen_normals_weight_ratio_five():
    rng = np.random.default_rng(63)
    ang = np.sort(rng.uniform(-np.pi, np.pi, 16))
    while np.min(np.diff(ang)) < 0.08:
        ang = np.sort(rng.uniform(-np.pi, np.pi, 16))
    X = angles_to_normals(ang)
    w = rng.uniform(0.2, 1.0, 16)
    # clip into a slightly tighter band than max/min = 5, re-balancing each
    # time, so the final exact projection stays inside the band
    for _ in range(10):
        w = np.clip(w, w.max() / 4.5, None)
        w = w - X @ np.linalg.solve(X.T @ X, w @ X)
    target = TargetMeasure(X, w)
    assert target.weights.max() / target.weights.min() <= 5.0
    rep = solve_minkowski(target, SolveOptions())
    assert rep.converged
    assert rep.residual_history[-1] <= 0.02
    assert rep.diagnostics["objective_calls"] <= 25  # steepest descent took 81


def test_corpus_target_converges_in_few_evaluations():
    # steepest descent took 21 objective calls here; the first line search
    # has no secant pair yet and follows the gradient, the later ones BFGS
    target, _ = corpus_measure_target(7)
    rep = solve_minkowski(target, SolveOptions())
    assert rep.converged
    assert rep.diagnostics["objective_calls"] <= 10
    searched = [row["direction"] for row in rep.diagnostics["iterations_log"]
                if row["direction"] is not None]
    assert searched[0] == "gradient" and set(searched[1:]) == {"bfgs"}


def test_non_descent_bfgs_direction_falls_back_to_the_gradient(monkeypatch):
    # a negative definite H makes -H g an ascent direction after every update
    monkeypatch.setattr(minkowski_solver, "_bfgs_update",
                        lambda H, s, y: -np.eye(len(s)))
    target, _ = corpus_measure_target(7)
    rep = solve_minkowski(target, SolveOptions())
    assert rep.converged
    searched = [row["direction"] for row in rep.diagnostics["iterations_log"]
                if row["direction"] is not None]
    assert len(searched) >= 2 and set(searched) == {"gradient"}


@pytest.mark.parametrize("y", [[-1.0, 0.5], [0.0, 1.0]])
def test_bfgs_update_skips_a_pair_without_positive_curvature(y):
    s, y, H = np.array([1.0, 0.0]), np.array(y), np.eye(2)
    assert minkowski_solver._bfgs_update(H, s, y) is H
    assert minkowski_solver._bfgs_update(None, s, y) is None


def stretched_measure_target(seed: int, max_facets: int, stretch: float) -> TargetMeasure:
    """The measure of the first member of ``polygon_corpus(seed, 20,
    max_facets)``, stretched in x, that the balance projection accepts.

    Built as ``conftest.corpus_measure_target`` builds its targets, but
    weak facets are kept: stretching makes the short facets weak.
    """
    for p in polygon_corpus(seed, 20, max_facets=max_facets):
        p = Polygon.from_vertices(p.vertices * [stretch, 1.0])
        mu = facet_measure(solve_on_polygon(p, 0.03 * metrics(p).circumradius))
        try:
            return project_balance(mu.weights, p.facet_normals)
        except UnbalanceableMeasure:
            continue
    raise RuntimeError(f"no usable stretched corpus target for seed {seed}")


@pytest.mark.parametrize("stretch", [3.0, 6.0])
@pytest.mark.parametrize("seed,max_facets", [(7, 8), (31, 16), (77, 32), (77, 8)])
def test_stretched_corpus_targets_converge(seed, max_facets, stretch):
    # R / r up to 6.4; steepest descent took 6-36 objective calls here.  The
    # residual is the solver's contract: (77, 8) stretched 6x is a 4-gon
    # whose shape error is 0.039 R at a converged residual of 0.0084.
    rep = solve_minkowski(stretched_measure_target(seed, max_facets, stretch), SolveOptions())
    assert rep.converged
    assert rep.residual_history[-1] <= SolveOptions().tol
    assert rep.diagnostics["objective_calls"] <= 12


def test_fine_stage_stops_on_the_l1_residual():
    # A stadium's measure sits mostly on its two long sides, so the
    # l2-relative gradient test passes (at 0.59 of its bar) while the l1
    # residual is still 0.021: stopping there used to end unconverged.
    th = np.linspace(-np.pi / 2, np.pi / 2, 5)
    cap = np.column_stack([1.5 + 0.5 * np.cos(th), 0.5 * np.sin(th)])
    p = Polygon.from_vertices(np.vstack([cap, -cap]))
    mu = facet_measure(solve_on_polygon(p, 0.02 * metrics(p).circumradius))
    target = project_balance(mu.weights, p.facet_normals)
    rep = solve_minkowski(target, SolveOptions(tol=0.02))
    assert rep.converged
    assert rep.residual_history[-1] <= 0.02


def test_coarse_stage_ends_on_the_l1_residual_alone(monkeypatch, square_target):
    # The first evaluation's residual is raised to 0.05, above the coarse
    # bar of 0.03, while |grad J| stays at 0.07 of the bar of the l2 test
    # that used to end the coarse stage too: a line search must still run.
    calls = {"n": 0}
    evaluate = minkowski_solver._eval

    def first_residual_raised(*args, **kwargs):
        calls["n"] += 1
        ev = evaluate(*args, **kwargs)
        return dataclasses.replace(ev, residual=0.05) if calls["n"] == 1 else ev

    monkeypatch.setattr(minkowski_solver, "_eval", first_residual_raised)
    rep = solve_minkowski(square_target, SolveOptions())
    assert rep.diagnostics["iterations_log"][0]["direction"] == "gradient"
    assert rep.converged
    assert rep.diagnostics["stop_reason"] == "residual"


def test_each_evaluation_computes_one_inradius(monkeypatch):
    # metrics is kept on each polygon and build_polytope on each spec, so
    # an objective evaluation computes the inradius once, not up to 3 times;
    # the first fine evaluation refines the last coarse one's field outside
    # _eval and computes none, and the reported body's metrics compute one more
    target, _ = corpus_measure_target(7)
    counts = {"inradius": 0, "evals": 0}
    inradius, evaluate = support_geometry._inradius, minkowski_solver._eval

    def counting_inradius(*args, **kwargs):
        counts["inradius"] += 1
        return inradius(*args, **kwargs)

    def counting_eval(*args, **kwargs):
        counts["evals"] += 1
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(support_geometry, "_inradius", counting_inradius)
    monkeypatch.setattr(minkowski_solver, "_eval", counting_eval)
    rep = solve_minkowski(target, SolveOptions())
    assert counts["evals"] > 0
    assert counts["inradius"] == counts["evals"] + 1
    assert rep.diagnostics["objective_calls"] == counts["evals"] + 1


def test_solve_reports_the_dilated_last_evaluation(monkeypatch, square_target):
    evals = _recording(monkeypatch, minkowski_solver, "_eval")
    refined = _recording(monkeypatch, minkowski_solver, "_refined")
    rep = solve_minkowski(square_target, SolveOptions())
    # the coarse evaluation of h = 1, and the switch's refinement of it
    ((_, coarse), _), = refined
    (_, first), = evals
    assert coarse is first
    before, last = rep.diagnostics["iterations_log"][-2:]
    assert last["residual"] == before["residual"] and last["J"] == before["J"]
    s = last["circumradius"] / before["circumradius"]
    assert last["tau"] == pytest.approx(s ** 4 * before["tau"], rel=1e-9)
    assert last["inradius"] == pytest.approx(s * before["inradius"], rel=1e-9)
    np.testing.assert_array_equal(rep.polygon.vertices, build_polytope(rep.h_final).vertices)
    # the reported residual is the one the loop accepted, also on a symmetric
    # target, whose meshes change with roundoff in the vertices
    hexagon = TargetMeasure(angles_to_normals(np.deg2rad(np.arange(-150, 180, 60))),
                            np.full(6, 0.28113))
    r = solve_minkowski(hexagon, SolveOptions()).residual_history
    assert r[-1] == r[-2]


def _recording(monkeypatch, module, name) -> list:
    """Patch ``module.name`` to record each call's (args, result)."""
    calls, original = [], getattr(module, name)

    def record(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, record)
    return calls


def _coarse_spacing(p: Polygon) -> float:
    """The spacing at which the solve meshes p, in either stage."""
    m = metrics(p)
    return min(2.0 * SolveOptions().mesh_h * m.circumradius, 0.5 * m.inradius)


def test_fine_stage_refines_the_coarse_stage_mesh(monkeypatch):
    # every mesh is built at the coarse spacing; each fine evaluation
    # refines the field of a coarse one, the first that of the last
    # coarse-stage evaluation
    target, _ = corpus_measure_target(7)
    fine = _recording(monkeypatch, minkowski_solver, "_refined")
    meshes = _recording(monkeypatch, minkowski_solver, "triangulate")
    refined = _recording(monkeypatch, torsion_fem, "refine")
    rep = solve_minkowski(target, SolveOptions())
    assert rep.converged
    assert len(meshes) == rep.diagnostics["objective_calls"] - 1
    assert all(spacing == _coarse_spacing(polygon) for (polygon, spacing), _ in meshes)
    assert len(refined) == len(fine) >= 2
    log = rep.diagnostics["iterations_log"]
    assert log[0]["measure_error_estimate"] is None
    assert log[-1]["measure_error_estimate"] is not None
    for row in log:
        if row["measure_error_estimate"] is None:
            continue
        (_, coarse), ev = next((args, ev) for args, ev in fine if ev.residual == row["residual"])
        body = build_polytope(coarse.h)
        assert ev.h is coarse.h
        assert row["nodes"] == ev.nodes == refine(triangulate(body, _coarse_spacing(body))).n_nodes


def test_switch_evaluation_matches_a_fresh_nested_evaluation(monkeypatch):
    # the switch refines the last coarse evaluation, of the iterate before
    # its recentring; meshing is deterministic, so a fine evaluation from
    # scratch at the same spec is bit-equal to it
    target, _ = corpus_measure_target(7)
    evaluate = minkowski_solver._eval
    evals = _recording(monkeypatch, minkowski_solver, "_eval")
    refined = _recording(monkeypatch, minkowski_solver, "_refined")
    solve_minkowski(target, SolveOptions())
    (scaled, coarse), switch = refined[0]
    assert any(ev is coarse and not fine for (_, _, _, fine), ev in evals)
    fresh = evaluate(coarse.h, scaled, SolveOptions(), True)
    assert switch.J == fresh.J and switch.tau == fresh.tau
    assert np.array_equal(switch.mu.weights, fresh.mu.weights)
    assert switch.measure_error_estimate == fresh.measure_error_estimate


def test_no_mesh_is_assembled_twice(monkeypatch, square_target):
    # each mesh is solved once: the switch refines the last coarse field
    # instead of solving its mesh again; the recorded calls hold every
    # mesh, so no id is recycled
    assembled = _recording(monkeypatch, torsion_fem, "assemble")
    solve_minkowski(corpus_measure_target(7)[0], SolveOptions())
    solve_minkowski(square_target, SolveOptions())
    ids = [id(mesh) for (mesh,), _ in assembled]
    assert len(ids) > 2 and len(set(ids)) == len(ids)


def test_fine_measure_error_estimate_matches_a_twice_refined_mesh():
    # for an O(h^2) measure, ||mu_f - mu_c|| / 3 estimates the fine error,
    # and the twice-refined mesh's measure carries about a quarter of it:
    # the ratio below should sit near 4/3
    target, _ = corpus_measure_target(7)
    h = SupportSpec(target.normals, np.ones(len(target)))
    ev = minkowski_solver._eval(h, target, SolveOptions(), True)
    mesh = triangulate(build_polytope(h), _coarse_spacing(build_polytope(h)))
    ref = torsion_measure(solve_torsion(refine(refine(mesh))), h, budget=np.inf)
    error = np.abs(ev.mu.weights - ref.weights).sum() / ref.total_mass
    assert 0.5 * error <= ev.measure_error_estimate <= 2.0 * error


def test_huge_target_weights_converge():
    # the descent's target is scaled near unit mass, so nothing overflows:
    # unscaled, these weights overflowed -H grad J and stalled
    target = TargetMeasure(AXIS_NORMALS, np.array([2e199, 6e199, 2e199, 6e199]))
    rep = solve_minkowski(target, SolveOptions())
    assert rep.converged
    assert np.isfinite(rep.multiplier_m) and rep.residual_history[-1] <= SolveOptions().tol


def test_power_of_two_target_factor_is_exact():
    target, _ = corpus_measure_target(7)
    big = TargetMeasure(target.normals, np.ldexp(target.weights, 40))
    rep, rep_big = solve_minkowski(target, SolveOptions()), solve_minkowski(big, SolveOptions())
    assert rep_big.residual_history == rep.residual_history
    assert rep_big.objective_history == [2.0 ** 40 * J for J in rep.objective_history]
    assert rep_big.multiplier_m == 2.0 ** 40 * rep.multiplier_m
    np.testing.assert_allclose(rep_big.h_final.values, 2.0 ** (40 / 3) * rep.h_final.values,
                               rtol=1e-13, atol=0.0)


def test_fine_stage_stall_is_named(square_target):
    # the discretization floor at spacing 0.08 lies above a 1e-4 residual
    rep = solve_minkowski(square_target, SolveOptions(tol=1e-4, mesh_h=0.08))
    assert not rep.converged
    assert rep.diagnostics["stop_reason"] == "line_search_stall"
    stalled, final = rep.diagnostics["iterations_log"][-2:]
    assert (stalled["backtracks"], stalled["empty_interior"]) == (25, 0)
    assert (final["backtracks"], final["empty_interior"]) == (0, 0)


def test_bounds_escape_is_named(monkeypatch):
    # with no slack, the first step from the square towards a rectangle
    # shrinks the inradius below the first iterate's
    monkeypatch.setattr(minkowski_solver, "BOUNDS_SLACK", 1.0)
    target = TargetMeasure(AXIS_NORMALS, np.array([0.2, 0.5, 0.2, 0.5]))
    with pytest.raises(NoConvergence) as info:
        solve_minkowski(target, SolveOptions())
    assert info.value.report.diagnostics["stop_reason"] == "bounds_escape"
    assert not info.value.report.converged


def test_partial_report_pairs_h_with_its_polygon():
    # the NoConvergence report's polygon is B[h_final], not the accepted
    # trial's body from before recentring
    target = TargetMeasure(AXIS_NORMALS, np.array([0.2, 0.5, 0.2, 0.5]))
    with pytest.raises(NoConvergence) as info:
        solve_minkowski(target, SolveOptions(max_iters=1, mesh_h=0.04))
    rep = info.value.report
    assert rep.diagnostics["stop_reason"] == "iteration_cap"
    np.testing.assert_array_equal(rep.polygon.vertices, build_polytope(rep.h_final).vertices)
    radius = metrics(rep.polygon).circumradius
    assert np.abs(steiner_point(rep.polygon)).max() <= 1e-12 * radius


def test_log_counts_line_search_halvings_and_empty_bodies(monkeypatch):
    # the first trial body has no interior: one swallowed error, one halving
    calls = {"n": 0}
    evaluate = minkowski_solver.objective

    def first_trial_empty(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise EmptyInterior("stub")
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(minkowski_solver, "objective", first_trial_empty)
    target = TargetMeasure(AXIS_NORMALS, np.array([0.2, 0.5, 0.2, 0.5]))
    with pytest.raises(NoConvergence) as info:
        solve_minkowski(target, SolveOptions(max_iters=1, mesh_h=0.04))
    (row,) = info.value.report.diagnostics["iterations_log"]
    assert row["empty_interior"] == 1
    assert row["backtracks"] == calls["n"] - 2  # every trial but the accepted one halved


def test_solve_scale_equivariance(square_target):
    s = 1.7
    rep1 = solve_minkowski(square_target, SolveOptions())
    rep2 = solve_minkowski(TargetMeasure(AXIS_NORMALS, s**3 * square_target.weights),
                           SolveOptions())
    d = hausdorff_distance(scale(rep1.polygon, s), rep2.polygon)
    assert d <= 0.02 * metrics(rep2.polygon).circumradius


def test_uniqueness_probe_single_seed_trivial(square_target):
    rep = uniqueness_probe(square_target, seeds=[5])
    assert rep.ok
    assert rep.pairwise_relative == []


def test_option_validation(square_target):
    with pytest.raises(InvariantViolation):
        SolveOptions(mesh_h=-0.01)
    with pytest.raises(InvariantViolation):
        SolveOptions(max_iters=0)
    with pytest.raises(InvariantViolation):
        SolveOptions(tol=float("nan"))
    with pytest.raises(InvariantViolation):
        SolveOptions(tol=float("inf"))
    with pytest.raises(InvariantViolation):
        SolveOptions(mesh_h=float("inf"))
    with pytest.raises(InvariantViolation):
        SolveOptions(max_iters=2.5)
    with pytest.raises(InvariantViolation):
        SolveOptions(max_iters=True)
    with pytest.raises(InvariantViolation):
        uniqueness_probe(square_target, seeds=[])
    with pytest.raises(InvariantViolation, match="seed"):
        uniqueness_probe(square_target, seeds=[-1])


def test_every_package_dataclass_is_frozen():
    # results are values: nothing the package returns or takes as options
    # can be changed after its constructor has checked it
    mutable = []
    for info in pkgutil.iter_modules(torsion_minkowski.__path__):
        module = importlib.import_module(f"torsion_minkowski.{info.name}")
        for name, obj in vars(module).items():
            if (dataclasses.is_dataclass(obj) and isinstance(obj, type)
                    and obj.__module__ == module.__name__
                    and not obj.__dataclass_params__.frozen):
                mutable.append(f"{info.name}.{name}")
    assert mutable == []


def _owned_mesh():
    m = triangulate(build_polytope(SupportSpec(AXIS_NORMALS, np.ones(4))), 0.5)
    arrays = [np.array(a) for a in (m.nodes, m.triangles, m.boundary_edges, m.boundary_facets,
                                    m.boundary_edge_lengths, m.edges, m.triangle_edges)]
    nodes, triangles, b_edges, b_facets, b_lengths, edges, triangle_edges = arrays
    return TriMesh(nodes, triangles, b_edges, b_facets, b_lengths, m.target_h, m.polygon,
                   edges, triangle_edges), arrays


def _owned_field():
    mesh = _owned_mesh()[0]
    u, reaction = np.ones(mesh.n_nodes), np.zeros(mesh.n_nodes)
    return TorsionField(mesh, u, 1.0, 1.0, 0.0, reaction, 1, 0, 1.0), [u, reaction]


def _owned_objective_eval():
    grad = np.ones(4)
    mu = SurfaceMeasure(AXIS_NORMALS, np.ones(4))
    h = SupportSpec(AXIS_NORMALS, np.ones(4))
    return ObjectiveEval(1.0, grad, 1.0, mu, h, 4.0, 0.0, 0.0, _owned_field()[0], None), [grad]


def _owned(build, *arrays):
    return lambda: (build(*arrays), list(arrays))


# each value class that holds arrays, built from writeable arrays its caller
# owns: a builder returning (instance, the caller's arrays)
OWNERSHIP_CASES = {
    SupportSpec: _owned(SupportSpec, AXIS_NORMALS.copy(), np.ones(4)),
    Polygon: _owned(Polygon, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                    np.arange(4)),
    SurfaceMeasure: _owned(SurfaceMeasure, AXIS_NORMALS.copy(), np.ones(4)),
    TargetMeasure: _owned(TargetMeasure, AXIS_NORMALS.copy(), np.ones(4)),
    SolveOptions: _owned(lambda start: SolveOptions(init_values=start), np.ones(4)),
    TriMesh: _owned_mesh,
    TorsionField: _owned_field,
    ObjectiveEval: _owned_objective_eval,
    HadamardReport: _owned(lambda s, q, m: HadamardReport(s, q, 1.0, m, 1.2, 0.01, (3, 3, 3)),
                           np.array([0.02, 0.01]), np.array([1.0, 1.1]), np.array([0.1, 0.05])),
}


@pytest.mark.parametrize("cls", OWNERSHIP_CASES, ids=lambda cls: cls.__name__)
def test_values_own_read_only_copies_of_their_arrays(cls):
    value, inputs = OWNERSHIP_CASES[cls]()
    assert type(value) is cls
    findings = []
    for f in dataclasses.fields(value):
        array = getattr(value, f.name)
        if not isinstance(array, np.ndarray):
            continue
        if array.flags.writeable:
            findings.append(f"{f.name} is writeable")
        if any(np.shares_memory(array, a) for a in inputs):
            findings.append(f"{f.name} shares a caller's buffer")
    findings += [f"input {k} was frozen" for k, a in enumerate(inputs) if not a.flags.writeable]
    assert findings == []


def test_every_array_holding_dataclass_has_an_ownership_case():
    # a new value class with an array field cannot skip the rule unseen
    missing = []
    for info in pkgutil.iter_modules(torsion_minkowski.__path__):
        module = importlib.import_module(f"torsion_minkowski.{info.name}")
        for name, obj in vars(module).items():
            if (dataclasses.is_dataclass(obj) and isinstance(obj, type)
                    and obj.__module__ == module.__name__ and obj not in OWNERSHIP_CASES
                    and any("np.ndarray" in str(f.type) for f in dataclasses.fields(obj))):
                missing.append(f"{info.name}.{name}")
    assert missing == []


def test_options_cannot_bypass_their_validation():
    opts = SolveOptions(max_iters=6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.tol = -1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.max_iters = 0
    assert (opts.tol, opts.max_iters) == (SolveOptions().tol, 6)


def test_uniqueness_probe_two_seeds(square_target):
    rep = uniqueness_probe(square_target, seeds=[1, 2])
    assert rep.ok
    assert rep.worst_relative <= 0.03
