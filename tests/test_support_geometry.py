import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog

import torsion_minkowski
from torsion_minkowski import (
    EmptyInterior,
    InvariantViolation,
    NegativeScale,
    Polygon,
    SupportSpec,
    UnboundedBody,
    angles_to_normals,
    build_polytope,
    hausdorff_distance,
    metrics,
    minkowski_sum,
    polygon_to_dict,
    regular_polygon,
    scale,
    solve_on_polygon,
    steiner_point,
    support_spec_of,
    support_values,
    translate,
)
from torsion_minkowski.cli import parse_spec
from torsion_minkowski.verify_suite import polygon_corpus
from conftest import axis_support_spec, turned_octagon


@st.composite
def random_polygon_strategy(draw, max_facets=10):
    """Random convex polygon via a random spanning fan, as the solver sees them."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    while True:
        n = int(rng.integers(4, max_facets + 1))
        ang = np.sort(rng.uniform(-np.pi, np.pi, n))
        gaps = np.append(np.diff(ang), ang[0] + 2 * np.pi - ang[-1])
        if gaps.min() < 0.05 or gaps.max() >= 0.95 * np.pi:
            continue
        values = rng.uniform(0.5, 1.5, n)
        try:
            return build_polytope(SupportSpec(angles_to_normals(ang), values))
        except (EmptyInterior, InvariantViolation):
            continue


# ---------------------------------------------------------------- build


def test_build_axis_square(square):
    assert len(square) == 4
    expected = {(-1, -1), (1, -1), (1, 1), (-1, 1)}
    got = {tuple(np.round(v, 12)) for v in square.vertices}
    assert got == expected
    assert square.area == pytest.approx(4.0)


def test_build_rectangle_with_zero_offset():
    rect = build_polytope(axis_support_spec([0.0, 1.0, 1.0, 1.0]))
    assert rect.area == pytest.approx(2.0)
    assert rect.vertices[:, 1].min() == pytest.approx(0.0, abs=1e-12)
    assert rect.vertices[:, 1].max() == pytest.approx(1.0)
    assert abs(rect.vertices[:, 0]).max() == pytest.approx(1.0)


def test_quadrant_normals_unbounded():
    with pytest.raises(UnboundedBody):
        SupportSpec(angles_to_normals([0.0, np.pi / 2]), np.ones(2))


def test_empty_intersection():
    with pytest.raises(EmptyInterior):
        build_polytope(axis_support_spec([-2.0, 1.0, 1.0, 1.0]))


def test_near_parallel_normals_rejected():
    ang = np.array([0.0, 1e-10, np.pi / 2, np.pi, -np.pi / 2])
    with pytest.raises(InvariantViolation):
        SupportSpec(angles_to_normals(np.sort(ang)), np.ones(5))


@pytest.mark.parametrize("build,match", [
    (lambda: SupportSpec(np.eye(3), np.ones(3)), r"\(N, 2\)"),
    (lambda: SupportSpec(angles_to_normals(np.deg2rad([0, -90, 90, 180])), np.ones(4)),
     "sorted"),
    (lambda: Polygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]]), source_index=[0, 1, 2]),
     "every facet"),
])
def test_malformed_arrays_rejected(build, match):
    with pytest.raises(InvariantViolation, match=match):
        build()


def test_inactive_facet_absent_and_indexed():
    # the 45-degree halfplane at offset 10 is slack against the square
    ang = np.deg2rad([-90.0, 0.0, 45.0, 90.0, 180.0])
    spec = SupportSpec(angles_to_normals(ang), np.array([1.0, 1.0, 10.0, 1.0, 1.0]))
    p = build_polytope(spec)
    assert len(p) == 4
    assert 2 not in set(p.source_index)
    assert set(p.source_index) == {0, 1, 3, 4}
    h = support_values(p, spec.normals)
    assert np.all(h <= spec.values + 1e-9)


def test_rebuild_from_own_support_numbers(square, hexagon):
    for p in (square, hexagon):
        again = build_polytope(support_spec_of(p))
        assert hausdorff_distance(p, again) < 1e-9


# ------------------------------------------------------- support queries


def test_support_function_square(square):
    assert support_values(square, [1.0, 0.0])[0] == pytest.approx(1.0)
    d = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert support_values(square, d)[0] == pytest.approx(np.sqrt(2.0))


def test_support_translation_law(square):
    t = np.array([0.4, -2.3])
    q = translate(square, t)
    rng = np.random.default_rng(0)
    for d in angles_to_normals(rng.uniform(-np.pi, np.pi, 50)):
        assert support_values(q, d)[0] == pytest.approx(
            support_values(square, d)[0] + t @ d, abs=1e-12)


# --------------------------------------------------------- minkowski sum


def test_minkowski_square_plus_square(square):
    s = minkowski_sum(square, square)
    assert s.area == pytest.approx(16.0)
    assert abs(s.vertices).max() == pytest.approx(2.0)


def test_minkowski_sum_with_point_is_translation(square):
    # a point-like body: its edges stay above EDGE_TOL times the square's
    tiny = regular_polygon(3, 3e-5)
    t = np.array([2.0, -1.0])
    shifted = minkowski_sum(square, translate(tiny, t))
    assert hausdorff_distance(shifted, translate(square, t)) <= 3.1e-5


def test_minkowski_square_octagon_support_sum(square):
    octagon = turned_octagon()
    s = minkowski_sum(square, octagon)
    assert len(s) <= 8
    dirs = octagon.facet_normals
    lhs = support_values(s, dirs)
    rhs = support_values(square, dirs) + support_values(octagon, dirs)
    assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(random_polygon_strategy(), random_polygon_strategy(), st.integers(0, 2**31 - 1))
def test_support_additivity_random_directions(p, q, seed):
    s = minkowski_sum(p, q)
    dirs = angles_to_normals(np.random.default_rng(seed).uniform(-np.pi, np.pi, 1000))
    err = support_values(s, dirs) - support_values(p, dirs) - support_values(q, dirs)
    assert np.abs(err).max() < 1e-9


@pytest.mark.parametrize("theta", [1e-11, 1e-10])
@pytest.mark.parametrize("body", ["square", "hexagon"])
def test_minkowski_sum_near_parallel_edges(body, theta, request):
    # edges parallel to within 1e-12..1e-10 rad fuse (their normals are closer
    # than MIN_ANGULAR_GAP) instead of leaving a corner that turns by less than ANGLE_TOL
    p = request.getfixturevalue(body)
    c, s = np.cos(theta), np.sin(theta)
    q = Polygon.from_vertices(p.vertices @ np.array([[c, s], [-s, c]]))
    total = minkowski_sum(p, q)
    dirs = angles_to_normals(np.linspace(-np.pi, np.pi, 1000, endpoint=False))
    err = support_values(total, dirs) - support_values(p, dirs) - support_values(q, dirs)
    assert np.abs(err).max() < 1e-9


@pytest.mark.parametrize("copy_scale", [1.0, 0.01])
def test_minkowski_sum_with_a_slightly_turned_copy(copy_scale):
    # corpus bodies plus a copy turned by a log-uniform angle: whether the
    # normals fuse or stay, the sum is a valid polygon at either copy scale
    rng = np.random.default_rng(0)
    for lo, hi in ((-9, -8), (-8, -6), (-6, -4)):
        for p in polygon_corpus(11, 200):
            theta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(lo, hi)
            c, s = np.cos(theta), np.sin(theta)
            q = scale(Polygon.from_vertices(p.vertices @ np.array([[c, s], [-s, c]])), copy_scale)
            minkowski_sum(p, q)


# ------------------------------------------------------------- dilation


def test_scale_examples(square):
    big = scale(square, 2.0)
    assert big.area == pytest.approx(16.0)
    assert hausdorff_distance(scale(square, 1.0), square) == 0.0
    with pytest.raises(NegativeScale):
        scale(square, -0.5)
    with pytest.raises(EmptyInterior):
        scale(square, 0.0)


@pytest.mark.parametrize("s", [1e-8, 1e-6, 1e-5, 1e8])
def test_small_and_large_bodies_accepted(s):
    # angles and lengths are judged against the body's own size
    assert len(regular_polygon(6, s)) == 6
    unit = Polygon.from_vertices([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert scale(unit, s).area == pytest.approx(s * s)
    p = polygon_corpus(42, 3)[2]
    assert metrics(scale(p, s)).inradius == pytest.approx(s * metrics(p).inradius, rel=1e-12)


@pytest.mark.parametrize("shift", [1e6, 1e8])
def test_far_translated_spec_keeps_its_facets(shift):
    spec = support_spec_of(polygon_corpus(42, 50)[30])
    far = build_polytope(spec.translated([shift, 0.0]))
    np.testing.assert_array_equal(far.source_index, build_polytope(spec).source_index)


CORPUS = polygon_corpus(42, 50)
EPS = np.finfo(float).eps


def test_polygon_sums_survive_far_translation():
    # shoelace sums taken about the first vertex: 1e3 R of translation
    # costs the area and the circumradius (about the centroid) no accuracy
    for p in CORPUS:
        m = metrics(p)
        far = translate(p, 1e3 * m.circumradius * np.array([0.6, 0.8]))
        assert metrics(far).circumradius == pytest.approx(m.circumradius, rel=1e-12)
        assert far.area == pytest.approx(p.area, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(CORPUS) - 2), st.floats(-8.0, 8.0), st.floats(0.0, 1e3),
       st.floats(0.0, 2.0 * np.pi), st.floats(-np.pi, np.pi), st.sampled_from([-0.02, 0.0, 0.02]))
def test_acceptance_commutes_with_dilation_and_translation(k, e, rho, phi, extra_angle, depth):
    # s K + t with s log-uniform in [1e-8, 1e8] and |t| = rho s R <= 1e3 s R
    p, q = CORPUS[k], CORPUS[k + 1]
    m = metrics(p)
    s = 10.0 ** e
    t = rho * s * m.circumradius * np.array([np.cos(phi), np.sin(phi)])
    assert len(Polygon(s * p.vertices + t)) == len(p)
    assert len(Polygon.from_vertices(s * p.vertices + t)) == len(p)
    moved = translate(scale(p, s), t)
    assert len(moved) == len(p)
    # the inradius is computed on the centred body, so only the input's roundoff remains
    assert metrics(moved).inradius == pytest.approx(s * m.inradius, rel=64 * EPS * (1 + rho))
    # one extra constraint cuts a corner, touches a vertex or is slack
    # (depth -0.02, 0 or 0.02 circumradii), so the active set is tested
    spec = support_spec_of(p)
    ang = np.sort(np.append(np.arctan2(spec.normals[:, 1], spec.normals[:, 0]), extra_angle))
    assume(np.min(np.diff(ang)) > 1e-6)
    normals = angles_to_normals(ang)
    values = support_values(p, normals) + depth * m.circumradius * (ang == extra_angle)
    base = build_polytope(SupportSpec(normals, values))
    far = build_polytope(SupportSpec(normals, s * values + normals @ t))
    np.testing.assert_array_equal(far.source_index, base.source_index)
    far_total = minkowski_sum(moved, translate(scale(q, s), t))
    np.testing.assert_array_equal(far_total.source_index, minkowski_sum(p, q).source_index)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(CORPUS) - 1), st.floats(-8.0, 8.0))
def test_metrics_scale_with_dilation(k, e):
    p, s = CORPUS[k], 10.0 ** e
    m, ms = metrics(p), metrics(scale(p, s))
    for name in ("diameter", "inradius", "circumradius"):
        assert getattr(ms, name) == pytest.approx(s * getattr(m, name), rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, len(CORPUS) - 1), st.integers(-26, 26))
def test_torsion_commutes_with_power_of_two_dilation(k, e):
    # dilating by 2^e rounds nothing, so the mesh and the solve scale exactly
    p, s = CORPUS[k], 2.0 ** e
    h = 0.1 * metrics(p).circumradius
    tau = solve_on_polygon(p, h).tau_energy
    assert solve_on_polygon(scale(p, s), s * h).tau_energy / s ** 4 == tau


@settings(max_examples=25, deadline=None)
@given(random_polygon_strategy(), st.floats(0.1, 5.0))
def test_scale_homogeneity(p, s):
    q = scale(p, s)
    assert q.area == pytest.approx(s**2 * p.area, rel=1e-9)
    assert metrics(q).diameter == pytest.approx(s * metrics(p).diameter, rel=1e-9)


# -------------------------------------------------------------- metrics


def test_metrics_square(square):
    m = metrics(square)
    assert m.diameter == pytest.approx(2.0 * np.sqrt(2.0))
    assert m.inradius == pytest.approx(1.0, abs=1e-9)
    assert square.area == pytest.approx(4.0)
    assert np.allclose(square.centroid, 0.0, atol=1e-12)


def test_metrics_rectangle():
    rect = build_polytope(axis_support_spec([1.0, 2.0, 1.0, 2.0]))
    m = metrics(rect)
    assert m.inradius == pytest.approx(1.0, abs=1e-9)
    assert m.diameter == pytest.approx(2.0 * np.sqrt(5.0))


def test_polygon_and_metrics_kept_on_their_inputs():
    spec = axis_support_spec([0.5, 0.5, 0.5, 0.5])
    p = build_polytope(spec)
    assert build_polytope(spec) is p
    m = metrics(p)
    assert metrics(p) is m
    with pytest.raises(ValueError):
        p.centroid[0] = 1.0


def test_metrics_hexagon(hexagon):
    assert metrics(hexagon).inradius == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-9)


def _lp_inradius(p: Polygon) -> float:
    """Reference: the Chebyshev center LP, max r subject to <n_i, x> + r <= h_i,
    on the body centred and divided by R, since HiGHS's tolerances are absolute."""
    r = metrics(p).circumradius
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=np.column_stack([p.facet_normals, np.ones(len(p))]),
                  b_ub=(p.offsets - p.facet_normals @ p.centroid) / r,
                  bounds=[(None, None), (None, None), (0, None)], method="highs")
    assert res.success, res.message
    return r * float(res.x[2])


def test_inradius_matches_the_chebyshev_lp():
    # the corpora, each body also dilated by 1e-6 and 1e6 and translated far
    bodies = (polygon_corpus(42, 50) + polygon_corpus(7, 50, max_facets=32)
              + polygon_corpus(123, 50) + [regular_polygon(n) for n in range(3, 65)])
    worst = 0.0
    for p in bodies:
        r = metrics(p).circumradius
        for q in (p, scale(p, 1e-6), scale(p, 1e6),
                  translate(p, [1e3 * r, 0.0]), translate(p, [-3e3 * r, 7e2 * r])):
            worst = max(worst, abs(metrics(q).inradius / _lp_inradius(q) - 1.0))
    assert worst <= 1e-12


def _det3(rows) -> int:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _exact_inradius(p: Polygon) -> Fraction:
    """Brute-force reference in exact arithmetic on the polygon's own float
    data: the maximum, over all triples of facet lines, of the least line
    distance h_l - <n_l, x> at the triple's equidistant point x."""
    rows = np.column_stack([p.facet_normals, p.offsets])
    data = [[Fraction(float(v)) for v in row] for row in rows]
    # the largest denominator, a power of 2, makes every entry whole
    unit = max(v.denominator for row in data for v in row)
    lines = [[int(v * unit) for v in row] for row in data]  # <n, x> + unit r <= h, times unit
    best = None
    for triple in itertools.combinations(lines, 3):
        det = _det3([(nx, ny, unit) for nx, ny, _ in triple])
        if det == 0:
            continue
        x = _det3([(h, ny, unit) for _, ny, h in triple])
        y = _det3([(nx, h, unit) for nx, _, h in triple])
        if det < 0:
            det, x, y = -det, -x, -y
        least = Fraction(min(h * det - nx * x - ny * y for nx, ny, h in lines), unit * det)
        best = least if best is None else max(best, least)
    return best


def _arc_body(rng: np.random.Generator) -> Polygon:
    """3 or 4 arcs of 3 to 6 edges whose corners turn by 1e-8..1e-4 rad,
    closed by solving for two edge lengths, centred at the origin."""
    while True:
        base = np.sort(rng.uniform(0.0, 2.0 * np.pi, rng.integers(3, 5)))
        gaps = np.append(np.diff(base), base[0] + 2.0 * np.pi - base[-1])
        if gaps.max() > 0.9 * np.pi or gaps.min() < 0.3:
            continue
        ang = np.concatenate([b + 10.0 ** rng.uniform(-8, -4) * np.arange(rng.integers(3, 7))
                              for b in base])
        if len(ang) > 16:
            continue
        dirs = np.column_stack([-np.sin(ang), np.cos(ang)])  # edges with outward normals at ang
        lengths = rng.uniform(0.2, 1.0, len(ang))
        closing = -(lengths[1:-1, None] * dirs[1:-1]).sum(axis=0)
        lengths[[0, -1]] = np.linalg.solve(dirs[[0, -1]].T, closing)
        if lengths[0] > 0.05 and lengths[-1] > 0.05:
            p = Polygon.from_vertices(np.cumsum(lengths[:, None] * dirs, axis=0))
            return translate(p, -p.centroid)


def test_inradius_matches_exact_arithmetic_on_near_degenerate_bodies():
    rng = np.random.default_rng(2)
    bodies = [_arc_body(rng) for _ in range(25)]
    for p in polygon_corpus(5, 25, max_facets=8):
        theta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8, -3)
        c, s = np.cos(theta), np.sin(theta)
        q = minkowski_sum(p, Polygon.from_vertices(p.vertices @ np.array([[c, s], [-s, c]])))
        bodies.append(translate(q, -q.centroid))
    # parallel neighbours: the short sides vanish as the body collapses
    for w, h in ((3.0, 1.0), (1.0, 3.0)):
        bodies.append(Polygon.from_vertices([[-w, -h], [w, -h], [w, h], [-w, h]]))
    for p in bodies:
        assert len(p) <= 16
        exact = _exact_inradius(p)
        assert abs(Fraction(metrics(p).inradius) - exact) <= 1e-15 * exact


def _run_in_child(code: str) -> str:
    """Run ``code`` in a fresh interpreter that finds the package where
    this process did; returns its stdout."""
    path = [str(Path(torsion_minkowski.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120).stdout


def test_package_import_leaves_scipy_optimize_unloaded():
    probe = "import sys, torsion_minkowski; print('scipy.optimize' in sys.modules)"
    assert _run_in_child(probe).strip() == "False"


def test_readme_quick_start_runs():
    # the quick start is the documented public API: its imports and its printed values
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    tau, mass, h_final = _run_in_child(block.group(1)).splitlines()
    assert float(tau) == pytest.approx(np.pi / 2, rel=0.01)
    assert float(mass) == pytest.approx(2.0 * np.pi, rel=0.01)
    assert np.allclose(np.array(h_final.strip("[]").split(), dtype=float), 0.5, atol=1e-3)


# ------------------------------------------------------------ hausdorff


def test_hausdorff_identity(square):
    assert hausdorff_distance(square, square) == 0.0


def test_hausdorff_nested_squares_brute_force(square):
    big = scale(square, 2.0)
    computed = hausdorff_distance(square, big)

    # independent oracle: directed point-set distances on dense boundary samples
    def boundary_points(p, per_edge=400):
        pts = []
        for i in range(len(p)):
            a, b = p.vertices[i], p.vertices[(i + 1) % len(p)]
            t = np.linspace(0.0, 1.0, per_edge, endpoint=False)[:, None]
            pts.append(a + t * (b - a))
        return np.vstack(pts)

    bp, bq = boundary_points(square), boundary_points(big)
    d = np.sqrt(((bp[:, None, :] - bq[None, :, :]) ** 2).sum(axis=2))
    brute = max(d.min(axis=1).max(), d.min(axis=0).max())
    assert computed == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert computed == pytest.approx(brute, abs=5e-3)


def test_hausdorff_translation(square):
    t = np.array([0.3, -0.7])
    assert hausdorff_distance(square, translate(square, t)) == pytest.approx(
        np.hypot(*t), abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(random_polygon_strategy(), random_polygon_strategy(), random_polygon_strategy())
def test_hausdorff_triangle_inequality(p, q, r):
    dpq = hausdorff_distance(p, q)
    dqr = hausdorff_distance(q, r)
    dpr = hausdorff_distance(p, r)
    assert dpr <= dpq + dqr + 1e-9
    assert dpq >= 0.0
    assert dpq == pytest.approx(hausdorff_distance(q, p), abs=1e-12)


# --------------------------------------------------------- steiner point


def test_steiner_translation_equivariance(square, hexagon):
    t = np.array([1.3, -0.2])
    for p in (square, hexagon):
        assert np.allclose(steiner_point(translate(p, t)),
                           steiner_point(p) + t, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(random_polygon_strategy(), random_polygon_strategy())
def test_steiner_minkowski_additivity(p, q):
    lhs = steiner_point(minkowski_sum(p, q))
    rhs = steiner_point(p) + steiner_point(q)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_steiner_point_matches_quadrature():
    # (1/pi) * integral of h(u) u over the circle, midpoint rule on 1e5 angles
    n = 100_000
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    u = angles_to_normals(theta)
    for p in polygon_corpus(42, 5):
        p = translate(p, np.array([0.7, -1.9]))
        quad = (support_values(p, u) @ u) * (2.0 / n)
        assert np.allclose(steiner_point(p), quad, atol=1e-9)


# -------------------------------------------------------- serialization


def test_polygon_json_round_trip(hexagon, tmp_path):
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(polygon_to_dict(hexagon)))
    again = parse_spec(str(path))
    assert hausdorff_distance(hexagon, again) < 1e-12


def test_polygon_from_dict_requires_ccw():
    with pytest.raises(InvariantViolation):
        Polygon.from_vertices([[0, 0], [0, 1], [1, 1], [1, 0]])


def test_star_polygon_rejected():
    # every corner of a pentagram turns left, but its normals wind twice
    theta = 2.0 * np.pi * np.array([0, 2, 4, 1, 3]) / 5
    with pytest.raises(InvariantViolation, match="convex"):
        Polygon.from_vertices(angles_to_normals(theta))


def test_from_vertices_merges_duplicate_vertices():
    p = Polygon.from_vertices([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]],
                              source_index=[3, 4, 5, 6, 7])
    np.testing.assert_array_equal(p.vertices, [[0, 0], [1, 0], [1, 1], [0, 1]])
    np.testing.assert_array_equal(p.source_index, [3, 5, 6, 7])


def test_polygon_needs_three_vertices():
    with pytest.raises(InvariantViolation):
        Polygon.from_vertices([[0, 0], [1, 0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(bad):
    with pytest.raises(InvariantViolation, match="finite"):
        Polygon.from_vertices([[0, 0], [1, 0], [1, bad], [0, 1]])
    with pytest.raises(InvariantViolation):
        axis_support_spec([1.0, bad, 1.0, 1.0])
    normals = angles_to_normals(np.deg2rad([-90, 0, 90, 180]))
    normals[1, 0] = bad
    with pytest.raises(InvariantViolation):
        SupportSpec(normals, np.ones(4))
