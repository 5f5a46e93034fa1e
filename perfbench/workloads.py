"""The benchmark's three workloads: inputs, item runners and correctness checks.

Every input comes from the workload seed.  Item runners call the program
through module attributes (``tm.triangulate``, ``cli.main``) so that the
traced pass sees its spans; checks use references bound at import time,
so they never add spans of their own.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import torsion_minkowski as tm
from torsion_minkowski import cli
from torsion_minkowski.errors import UnbalanceableMeasure
from torsion_minkowski.support_geometry import (
    Polygon,
    hausdorff_distance,
    steiner_point,
    translate,
)
from torsion_minkowski.support_geometry import metrics as untraced_metrics

FORWARD_SPACING = 0.01  # relative to the circumradius
HADAMARD_SPACING = 0.02
HADAMARD_STEPS = [0.01, 0.005]
SQUARE_ANSWER = 0.5  # support number of the axis-square target's solution

# Acceptance bars, from tests/test_acceptance.py and tests/test_cli.py.
TAU_BAR = 0.005  # criterion 02
MASS_BAR = 0.02  # facet weights of the unit square, test_measure_command
CLOSURE_BAR = 0.02  # criterion 06
REP_BAR = 0.01  # criterion 03
SUPPORT_BAR = 0.01  # criterion 09, square support numbers
SPREAD_BAR = 0.01  # criterion 09, regular N-gon support spread
RESIDUAL_BAR = 0.02  # criterion 09, final measure residual
SHAPE_BAR = 0.03  # criterion 10, Hausdorff distance over circumradius
HADAMARD_BAR = 0.02  # criterion 04

# Raw accuracy value -> (workload that measures it, margin metric, bar).
# The margin 1 - worst / bar is the share of the bar still unused; it is the
# end-to-end metric because a share-of-median bound on a raw error far
# below its bar would reject harmless changes of the discretization.
ACCURACY = {
    "tau_err": ("forward", "tau_margin", TAU_BAR),
    "mass_err": ("forward", "mass_margin", MASS_BAR),
    "rep_residual_max": ("forward", "rep_margin", REP_BAR),
    "shape_err_max": ("inverse", "shape_margin", SHAPE_BAR),
    "residual_max": ("inverse", "residual_margin", RESIDUAL_BAR),
    "hadamard_mismatch_max": ("hadamard", "hadamard_margin", HADAMARD_BAR),
}
NOT_MEASURED = 1.0  # margin of a bar the workload does not measure

# Corpus shapes are those of the acceptance suite.  The seed turns each
# forward corpus body, each hadamard pair and each symmetric inverse target
# by its own angle, which changes every mesh but neither the work per pass
# nor how close an item comes to its bars.  Freshly drawn shapes move
# wall_s by 20-30% and the worst errors by 35-45% from seed to seed.  The
# inverse corpus targets stay unturned: turning target 7 changes its
# iteration count and moves its time by up to 40%.
CORPUS_SEED = 42  # tests/test_acceptance.py
TARGET_SEEDS = (7, 31)  # criterion 11

# Corpus items per pass: full size, and the reduced size of the benchmark's tests.
SIZES = {
    "full": {"forward": 2, "inverse": 2, "hadamard": 4},
    "smoke": {"forward": 0, "inverse": 0, "hadamard": 1},
}


def square_torsion_coefficient(n_terms: int = 400) -> float:
    """Fourier-series value of tau(square) / side^4."""
    acc = sum(np.tanh(n * np.pi / 2.0) / n ** 5 for n in range(1, n_terms, 2))
    return 1.0 / 3.0 - (64.0 / np.pi ** 5) * acc


SQUARE_COEFF = square_torsion_coefficient()
UNIT_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def _polygon(vertices) -> Polygon:
    return Polygon.from_vertices(np.asarray(vertices, dtype=float))


def _turned(vertices, angle: float) -> list:
    c, s = np.cos(angle), np.sin(angle)
    return _polygon(np.asarray(vertices) @ np.array([[c, s], [-s, c]])).vertices.tolist()


def corpus_target(seed: int):
    """``tests/conftest.corpus_measure_target``: a balanced target built from
    the measure of the first usable random polygon with up to 8 facets."""
    for p in tm.polygon_corpus(seed, 20, max_facets=8):
        mu = tm.facet_measure(tm.solve_on_polygon(p, 0.03 * tm.metrics(p).circumradius))
        if mu.weights.min() < 0.25 * mu.weights.mean():
            continue
        try:
            return tm.project_balance(mu.weights, p.facet_normals), p
        except UnbalanceableMeasure:
            continue
    raise RuntimeError(f"no usable corpus target for seed {seed}")


def make_inputs(workload: str, seed: int, workdir: Path, size: str) -> dict:
    """Generate a workload's items from the seed; write any input files."""
    count = SIZES[size][workload]
    rng = np.random.default_rng(seed)

    def angle() -> float:
        return float(rng.uniform(0.0, 2.0 * np.pi))

    if workload == "forward":
        items = [{"id": "unit_square", "vertices": UNIT_SQUARE}]
        if size == "full":
            items.append({"id": "regular64",
                          "vertices": tm.regular_polygon(64).vertices.tolist()})
        for k, p in enumerate(tm.polygon_corpus(CORPUS_SEED, count)):
            a = angle()
            items.append({"id": f"corpus{k}", "angle": a, "vertices": _turned(p.vertices, a)})
        return {"items": items}
    if workload == "hadamard":
        corpus = tm.polygon_corpus(CORPUS_SEED, 2 * count)
        items = []
        for k in range(count):
            a = angle()
            items.append({"id": f"pair{k}", "angle": a,
                          "body": _turned(corpus[2 * k].vertices, a),
                          "body_prime": _turned(corpus[2 * k + 1].vertices, a)})
        return {"items": items}
    if workload != "inverse":
        raise ValueError(f"unknown workload {workload!r}")
    a = angle()
    specs = [("square", {"angles_deg": (np.arange(4) * 90.0 + np.degrees(a)).tolist(),
                         "weights": [0.28113] * 4},
              {"angle": a, "answer": _turned(np.array(UNIT_SQUARE) - 0.5, a)})]
    if size == "full":
        for n in (6, 12):
            a = angle()
            degrees = -180.0 + (np.arange(n) + 0.5) * 360.0 / n + np.degrees(a)
            specs.append((f"ngon{n}", {"angles_deg": degrees.tolist(), "weights": [0.25] * n},
                          {"angle": a, "regular": True}))
    for target_seed in TARGET_SEEDS[:count]:
        target, p = corpus_target(target_seed)
        specs.append((f"target{target_seed}", {"normals": target.normals.tolist(),
                                               "weights": target.weights.tolist()},
                      {"answer": p.vertices.tolist()}))
    items = []
    for item_id, spec, known in specs:
        path = workdir / f"{item_id}.target.json"
        path.write_text(json.dumps(spec))
        items.append({"id": item_id, "target": str(path), **known})
    return {"items": items}


def _within(errors: list, label: str, value: float, bar: float) -> float:
    if not value < bar:
        errors.append(f"{label} {value:.3e} not below {bar}")
    return value


class Forward:
    """metrics -> triangulate -> solve_torsion -> facet_measure per body."""

    def __init__(self, inputs: dict, workdir: Path, seed: int):
        self.items = [dict(item, polygon=_polygon(item["vertices"]))
                      for item in inputs["items"]]

    def run(self, item):
        p = item["polygon"]
        m = tm.metrics(p)
        field = tm.solve_torsion(tm.triangulate(p, FORWARD_SPACING * m.circumradius))
        return field, tm.facet_measure(field)

    def check(self, item, result):
        field, mu = result
        tau = field.tau_energy
        errors = []
        _within(errors, "closure defect", mu.closure_defect, CLOSURE_BAR)
        values = {"rep_residual_max": _within(
            errors, "representation residual",
            abs(tau - 0.25 * float(mu.weights @ item["polygon"].offsets)) / tau, REP_BAR)}
        if item["id"] == "unit_square":
            values["tau_err"] = _within(
                errors, "tau error", abs(tau - SQUARE_COEFF) / SQUARE_COEFF, TAU_BAR)
            values["mass_err"] = _within(
                errors, "facet weight error",
                float(np.abs(mu.weights / (2.0 * SQUARE_COEFF) - 1.0).max()), MASS_BAR)
        return errors, values


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(tm.__file__).resolve().parent.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Inverse:
    """``torsion-minkowski solve`` in-process on each target file.

    CSV logs must be byte-identical for every solve of a target with one
    seed: across the passes of a run, and across runs of the same program
    source, through a digest file kept beside the run directories.
    """

    def __init__(self, inputs: dict, workdir: Path, seed: int):
        self.items = inputs["items"]
        self.workdir = workdir
        self.store = workdir.parent / f"inverse-seed{seed}-logs.json"
        self.source = _source_digest()
        known = json.loads(self.store.read_text()) if self.store.exists() else {}
        self.digests = known.get("logs", {}) if known.get("source") == self.source else {}

    def run(self, item):
        report = self.workdir / f"{item['id']}.report.json"
        log = self.workdir / f"{item['id']}.log.csv"
        code = cli.main(["solve", "--input", item["target"],
                         "--output", str(report), "--log", str(log)])
        return code, report, log

    def check(self, item, result):
        code, report, log = result
        if code != 0:
            return [f"exit code {code}"], {}
        payload = json.loads(report.read_text())
        errors = [] if payload["converged"] else ["report says not converged"]
        values = {"residual_max": _within(errors, "final residual",
                                          payload["residual_history"][-1], RESIDUAL_BAR)}
        h = np.asarray(payload["support_numbers"])
        if item["id"] == "square":
            _within(errors, "square support error",
                    float(np.abs(h / SQUARE_ANSWER - 1.0).max()), SUPPORT_BAR)
        if item.get("regular"):
            _within(errors, "support spread", float((h.max() - h.min()) / h.mean()),
                    SPREAD_BAR)
        if "answer" in item:
            got = _polygon(payload["polygon"]["vertices"])
            want = _polygon(item["answer"])
            got = translate(got, -steiner_point(got))
            want = translate(want, -steiner_point(want))
            values["shape_err_max"] = _within(
                errors, "shape error",
                hausdorff_distance(got, want) / untraced_metrics(want).circumradius, SHAPE_BAR)
        digest = hashlib.sha256(log.read_bytes()).hexdigest()
        if digest != self.digests.setdefault(item["id"], digest):
            errors.append("CSV log differs from an earlier solve with this seed")
        self.store.write_text(json.dumps({"source": self.source, "logs": self.digests}))
        return errors, values


class Hadamard:
    """hadamard_fd_check on consecutive corpus pairs, as criterion 04 runs it."""

    def __init__(self, inputs: dict, workdir: Path, seed: int):
        self.items = [dict(item, body=_polygon(item["body"]),
                           body_prime=_polygon(item["body_prime"]))
                      for item in inputs["items"]]

    def run(self, item):
        p, q = item["body"], item["body_prime"]
        return tm.hadamard_fd_check(tm.support_spec_of(p), tm.support_spec_of(q),
                                    HADAMARD_STEPS,
                                    mesh_h=HADAMARD_SPACING * tm.metrics(p).circumradius)

    def check(self, item, report):
        errors = []
        values = {"hadamard_mismatch_max": _within(
            errors, f"mismatch at s={HADAMARD_STEPS[-1]}", float(report.mismatches[-1]),
            HADAMARD_BAR)}
        if not report.monotone_tail:
            errors.append("mismatch does not shrink with the step")
        return errors, values


WORKLOADS = {"forward": Forward, "inverse": Inverse, "hadamard": Hadamard}
