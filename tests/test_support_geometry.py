import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    polygon_from_dict,
    polygon_to_dict,
    regular_polygon,
    scale,
    steiner_point,
    support_spec_of,
    support_values,
    translate,
)
from conftest import axis_support_spec


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
    # smallest point-like body the cross-product tolerance admits
    tiny = regular_polygon(3, 3e-5)
    t = np.array([2.0, -1.0])
    shifted = minkowski_sum(square, translate(tiny, t))
    assert hausdorff_distance(shifted, translate(square, t)) <= 3.1e-5


def test_minkowski_square_octagon_support_sum(square):
    octagon = regular_polygon(8, 1.0, np.pi / 8)
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


# ------------------------------------------------------------- dilation


def test_scale_examples(square):
    big = scale(square, 2.0)
    assert big.area == pytest.approx(16.0)
    assert hausdorff_distance(scale(square, 1.0), square) == 0.0
    with pytest.raises(NegativeScale):
        scale(square, -0.5)
    with pytest.raises(EmptyInterior):
        scale(square, 0.0)


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
    assert m.area == pytest.approx(4.0)
    assert np.allclose(m.centroid, 0.0, atol=1e-12)


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
    assert m.area == p.area
    with pytest.raises(ValueError):
        m.centroid[0] = 1.0


def test_metrics_hexagon(hexagon):
    assert metrics(hexagon).inradius == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-9)


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


# -------------------------------------------------------- serialization


def test_polygon_json_round_trip(hexagon):
    again = polygon_from_dict(polygon_to_dict(hexagon))
    assert hausdorff_distance(hexagon, again) < 1e-12


def test_polygon_from_dict_requires_ccw():
    with pytest.raises(InvariantViolation):
        polygon_from_dict({"vertices": [[0, 0], [0, 1], [1, 1], [1, 0]]})


def test_polygon_needs_three_vertices():
    with pytest.raises(InvariantViolation):
        Polygon.from_vertices([[0, 0], [1, 0]])
