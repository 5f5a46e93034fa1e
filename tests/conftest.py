import numpy as np
import pytest

from torsion_minkowski import (
    Polygon,
    SupportSpec,
    UnbalanceableMeasure,
    angles_to_normals,
    build_polytope,
    facet_measure,
    metrics,
    project_balance,
    regular_polygon,
    solve_on_polygon,
)
from torsion_minkowski import torsion_fem
from torsion_minkowski.verify_suite import polygon_corpus

AXIS_ANGLES_DEG = [-90, 0, 90, 180]


def axis_support_spec(values) -> SupportSpec:
    """Spec over the four axis normals, angle-sorted (-y, +x, +y, -x)."""
    return SupportSpec(angles_to_normals(np.deg2rad(AXIS_ANGLES_DEG)),
                       np.asarray(values, dtype=float))


def turned_octagon() -> Polygon:
    """Unit regular octagon with its first vertex at angle pi/8, so its
    facet normals include the four axis directions."""
    theta = np.pi / 8 + 2.0 * np.pi * np.arange(8) / 8
    return Polygon.from_vertices(angles_to_normals(theta))


def square_torsion_coefficient(n_terms: int = 400) -> float:
    """Independent Fourier-series value of tau(square) / side^4."""
    acc = sum(np.tanh(n * np.pi / 2.0) / n ** 5 for n in range(1, n_terms, 2))
    return 1.0 / 3.0 - (64.0 / np.pi ** 5) * acc


SQUARE_COEFF = square_torsion_coefficient()


def corpus_measure_target(seed: int, max_facets: int = 8):
    """A realistic balanced target: the measure of a random polygon.

    Polygons with weak facets (weights under a quarter of the mean) are
    skipped so the balance projection stays inside its 5% budget.
    """
    for p in polygon_corpus(seed, 20, max_facets=max_facets):
        f = solve_on_polygon(p, 0.03 * metrics(p).circumradius)
        mu = facet_measure(f)
        if mu.weights.min() < 0.25 * mu.weights.mean():
            continue
        try:
            return project_balance(mu.weights, p.facet_normals), p
        except UnbalanceableMeasure:
            continue
    raise RuntimeError(f"no usable corpus target for seed {seed}")


@pytest.fixture(scope="session")
def axis_spec():
    return axis_support_spec([1.0, 1.0, 1.0, 1.0])


@pytest.fixture(scope="session")
def square(axis_spec):
    """Square [-1, 1]^2, side 2."""
    return build_polytope(axis_spec)


@pytest.fixture(scope="session")
def unit_square():
    """Square [0, 1]^2."""
    return build_polytope(axis_support_spec([0.0, 1.0, 1.0, 0.0]))


@pytest.fixture(scope="session")
def disk64():
    """Regular 64-gon inscribed in the unit circle."""
    return regular_polygon(64, 1.0)


@pytest.fixture(scope="session")
def hexagon():
    return regular_polygon(6, 1.0)


@pytest.fixture(scope="session")
def square_field(square):
    return solve_on_polygon(square, 0.02)


@pytest.fixture(scope="session")
def unit_square_field(unit_square):
    return solve_on_polygon(unit_square, 0.01)


@pytest.fixture(scope="session")
def disk_field(disk64):
    return solve_on_polygon(disk64, 0.02)


@pytest.fixture()
def sink_load(monkeypatch):
    """Patch ``torsion_fem.assemble`` to load the first interior node with
    -10 times the total load, which drives u negative around it."""
    assemble = torsion_fem.assemble

    def with_sink(mesh):
        K, load = assemble(mesh)
        load[np.flatnonzero(~mesh.is_boundary)[0]] = -10.0 * load.sum()
        return K, load

    monkeypatch.setattr(torsion_fem, "assemble", with_sink)
