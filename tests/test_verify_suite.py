import dataclasses

import numpy as np
import pytest

from torsion_minkowski import (
    InvariantViolation,
    brunn_minkowski_check,
    build_polytope,
    check_sqrt_concavity,
    continuity_check,
    homogeneity_check,
    is_homothetic,
    metrics,
    polygon_corpus,
    scale,
    translate,
)
from torsion_minkowski import verify_suite
from conftest import axis_support_spec


def test_homothety_detection(square, hexagon):
    assert is_homothetic(square, translate(square, np.array([3.0, 0.0])))
    assert is_homothetic(square, scale(square, 2.0))
    assert is_homothetic(square, translate(scale(square, 0.5), np.array([-1.0, 2.0])))
    assert not is_homothetic(square, hexagon)
    assert not is_homothetic(square, build_polytope(axis_support_spec([0.0, 1.0, 1.0 + 1e-6, 0.0])))


def test_bm_equality_for_translate_pair(square):
    rep = brunn_minkowski_check(square, translate(square, np.array([3.0, 0.0])), [0.5])
    assert rep.ok
    assert abs(rep.worst_margin) < 0.01


def test_bm_equality_for_dilate_pair(square):
    rep = brunn_minkowski_check(square, scale(square, 2.0), [0.3, 0.7])
    assert rep.ok
    assert abs(rep.worst_margin) < 0.01


def test_bm_strict_for_square_hexagon(square, hexagon):
    rep = brunn_minkowski_check(square, hexagon, [0.25, 0.5, 0.75])
    assert rep.ok
    assert all(d["margin"] > 0 for d in rep.details)


def test_bm_rejects_bad_t(square, hexagon):
    with pytest.raises(InvariantViolation):
        brunn_minkowski_check(square, hexagon, [0.0, 0.5])


def test_continuity_zero_perturbation(square):
    rep = continuity_check(square, 0.0, trials=1)
    assert rep.ok
    assert rep.worst_margin == 0.0


def test_continuity_small_perturbations(square):
    rep = continuity_check(square, 0.01, trials=3, rng_seed=3)
    assert rep.ok
    assert rep.worst_margin <= 1.0
    # first-order response: a 1% support perturbation moves the mixed
    # rigidity by well under 5%; total measure of the side-2 square is
    # 4 * tau by the representation identity with h = 1 on every facet
    base_mass = 4.0 * 0.140577 * 16.0
    for d in rep.details:
        assert d["delta_tau1"] / base_mass < 0.05


def test_continuity_linear_response(square):
    big = continuity_check(square, 0.02, trials=4, rng_seed=9)
    small = continuity_check(square, 0.01, trials=4, rng_seed=9)
    worst_big = max(d["delta_tau1"] for d in big.details)
    worst_small = max(d["delta_tau1"] for d in small.details)
    # halving the perturbation scale at least roughly halves the response
    assert worst_small <= 0.75 * worst_big


def test_continuity_rejects_large_scale(square):
    with pytest.raises(InvariantViolation):
        continuity_check(square, metrics(square).inradius, trials=1)


def test_negative_seed_rejected(square, square_field):
    with pytest.raises(InvariantViolation, match="seed"):
        continuity_check(square, 0.01, trials=1, rng_seed=-1)
    with pytest.raises(InvariantViolation, match="seed"):
        check_sqrt_concavity(square_field, rng_seed=-1)
    with pytest.raises(InvariantViolation, match="seed"):
        polygon_corpus(-1, 1)
    assert polygon_corpus(1, 0) == []
    for count, max_facets in ((-2, 10), (2.0, 10), (True, 10), (2, 3), (2, 4.0)):
        with pytest.raises(InvariantViolation, match="count|max_facets"):
            polygon_corpus(1, count, max_facets=max_facets)


def test_homogeneity_identity_scale(square):
    rep = homogeneity_check(square, [1.0])
    assert rep.ok
    assert rep.worst_margin < 1e-12


def test_homogeneity_square_and_hexagon(square, hexagon):
    assert homogeneity_check(square, [2.0]).ok
    assert homogeneity_check(hexagon, [0.5]).ok


@pytest.mark.parametrize("name, factor", [("tau_energy", 1.0 + 1e-9),
                                          ("reaction", 1.0 + 0.5e-9)])
def test_homogeneity_check_catches_a_1e_9_defect(square, monkeypatch, name, factor):
    # scaling the dilated body's rigidity by 1 + 1e-9, or its reaction (so
    # its measure, quadratic in the reaction) by 1 + 0.5e-9, is a defect of
    # 1e-9 in one ratio: above the roundoff budget
    solve, calls = verify_suite.solve_on_polygon, []

    def spoiled(p, target_h):
        f = solve(p, target_h)
        calls.append(p)
        return f if len(calls) == 1 else dataclasses.replace(f, **{name: getattr(f, name) * factor})

    monkeypatch.setattr(verify_suite, "solve_on_polygon", spoiled)
    rep = homogeneity_check(square, [2.0])
    assert len(calls) == 2 and rep.failures == 1 and not rep.ok
    assert rep.worst_margin == pytest.approx(1e-9, rel=1e-3)


def test_corpus_generator_deterministic():
    a = polygon_corpus(seed=5, count=4)
    b = polygon_corpus(seed=5, count=4)
    for p, q in zip(a, b):
        assert np.array_equal(p.vertices, q.vertices)
    for p in a:
        m = metrics(p)
        assert len(p) <= 10
        assert m.circumradius / m.inradius <= 10.0 / 3.0 + 1e-12


def test_corpus_battery_50_polygons():
    # the full seeded battery: all three checks green over 50 bodies
    from torsion_minkowski import run_verify_corpus

    reports = run_verify_corpus(seed=42, mesh_h=0.02)
    assert {r.name for r in reports} == {"brunn_minkowski", "continuity", "homogeneity"}
    for r in reports:
        assert r.ok, (r.name, r.failures, r.worst_margin)


@pytest.mark.parametrize("call", [
    lambda p, f: check_sqrt_concavity(f, trials=0),
    lambda p, f: check_sqrt_concavity(f, trials=-1),
    lambda p, f: check_sqrt_concavity(f, trials=2.5),
    lambda p, f: brunn_minkowski_check(p, scale(p, 2.0), []),
    lambda p, f: homogeneity_check(p, []),
    lambda p, f: continuity_check(p, 0.01, trials=0),
    lambda p, f: check_sqrt_concavity(f, trials=True),
    lambda p, f: continuity_check(p, 0.01, trials=True),
], ids=["concavity-0", "concavity-negative", "concavity-fractional",
        "bm-empty-grid", "homogeneity-empty-scales", "continuity-0",
        "concavity-bool", "continuity-bool"])
def test_empty_or_invalid_trial_counts_rejected(square, square_field, call):
    # a check over no trials would pass vacuously
    with pytest.raises(InvariantViolation):
        call(square, square_field)
