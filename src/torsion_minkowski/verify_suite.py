"""Batch property checks on randomized polygon families.

Three checks cover the inequality and limit statements the rest of the
package relies on: the fourth-root concavity of the rigidity along
Minkowski segments (with equality only for homothets), the continuity of
the mixed rigidity under support-number perturbations, and the dilation
homogeneities of the rigidity (degree 4) and the mixed rigidity
(degree 3 in the first argument, 1 in the second).

Mesh resolutions passed to these checks are relative to each body's
circumradius, matching the CLI convention.  The Brunn-Minkowski slack
and equality tolerance and the continuity modulus factor are module
constants sized for the default resolution ``mesh.REL_MESH_H``.

The homogeneity check holds to roundoff at any resolution.  The spacing
is relative to the circumradius and ``triangulate`` meshes in the
polygon's lattice frame, so the mesh of a dilated body is the dilated
mesh, node for node, and the discrete rigidity and measure scale exactly.
A dilation by a power of two leaves the frame coordinates bit-identical.
On ``polygon_corpus(42, 50)`` the defects are exactly 0 at s = 2 and
0.5 and at most 1.1e-13 at s = 1.7 and 2.9e-13 at s = 3.
``HOMOGENEITY_TOL`` is therefore a roundoff budget, not a discretization
one: a stage that stops commuting with dilations, such as an absolute
spacing, fails it, and so does a relative defect of 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary_measure import facet_measure, mixed_torsion
from .errors import EmptyInterior, InvariantViolation
from .mesh import REL_MESH_H
from .support_geometry import (
    Polygon,
    SupportSpec,
    _check_count,
    _cyclic_gaps,
    angles_to_normals,
    build_polytope,
    hausdorff_distance,
    metrics,
    minkowski_sum,
    regular_polygon,
    scale,
    seeded_rng,
    support_spec_of,
    translate,
)
from .torsion_fem import solve_on_polygon

BM_SLACK = 0.005  # relative concavity defect tolerated
BM_EQUALITY_TOL = 0.01  # relative defect allowed on translate/dilate pairs
MODULUS_FACTOR = 10.0  # continuity budget L = MODULUS_FACTOR * tau_1 / inradius
HOMOGENEITY_TOL = 1e-12  # relative defect of either ratio: a roundoff budget
MAX_ASPECT = 10.0 / 3.0  # corpus bodies have circumradius / inradius at most this
HOMOTHETIC_TOL = 1e-9  # Hausdorff misfit of the fitted similarity, over sqrt(area)
CORPUS_SIZE = 50  # bodies in the run_verify_corpus battery
CONTINUITY_NOTE = "budget modulus tied to the mesh resolution, not a proven modulus of continuity"


@dataclass(frozen=True)
class CheckReport:
    name: str
    trials: int
    failures: int
    worst_margin: float
    details: list = field(default_factory=list)
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "pass": self.ok,
            "details": self.details,
        }
        if self.note:
            out["note"] = self.note
        return out


def _random_polygon(rng: np.random.Generator, max_facets: int) -> Polygon:
    """Random convex polygon: random spanning fan, support numbers near 1.

    Degenerate fans and bodies more elongated than ``MAX_ASPECT`` are
    rejected and redrawn, which keeps the family inside the solver's
    operating envelope.
    """
    while True:
        n = int(rng.integers(4, max_facets + 1))
        ang = np.sort(rng.uniform(-np.pi, np.pi, n))
        gaps = _cyclic_gaps(ang)
        if gaps.min() < 0.15 or gaps.max() >= 0.95 * np.pi:
            continue
        values = rng.uniform(0.7, 1.3, n)
        try:
            p = build_polytope(SupportSpec(angles_to_normals(ang), values))
        except (EmptyInterior, InvariantViolation):
            continue
        m = metrics(p)
        if m.circumradius / m.inradius > MAX_ASPECT:
            continue
        return p


def polygon_corpus(seed: int, count: int, max_facets: int = 10) -> list[Polygon]:
    """``count`` random polygons of 4 to ``max_facets`` facets, drawn from ``seed``."""
    _check_count("count", count, 0)
    _check_count("max_facets", max_facets, 4)
    rng = seeded_rng(seed)
    return [_random_polygon(rng, max_facets) for _ in range(count)]


def _tau_quarter(p: Polygon, mesh_h_rel: float) -> float:
    h = mesh_h_rel * metrics(p).circumradius
    return solve_on_polygon(p, h).tau_energy ** 0.25


def is_homothetic(p: Polygon, q: Polygon) -> bool:
    """True when q is a translate and dilate of p.

    The only candidate is the similarity that matches areas and centroids,
    x -> s x + t with s = sqrt(area q / area p) and t = c_q - s c_p; the
    pair is homothetic when it carries p to within ``HOMOTHETIC_TOL *
    sqrt(area q)`` of q in Hausdorff distance.
    """
    s = np.sqrt(q.area / p.area)
    t = q.centroid - s * p.centroid
    misfit = hausdorff_distance(translate(scale(p, s), t), q)
    return bool(misfit <= HOMOTHETIC_TOL * np.sqrt(q.area))


def brunn_minkowski_check(p0: Polygon, p1: Polygon, t_grid,
                          mesh_h: float = REL_MESH_H) -> CheckReport:
    """Fourth-root concavity of the rigidity along a Minkowski segment.

    For each t the combination (1-t) p0 + t p1 must satisfy the concavity
    inequality with relative slack ``-BM_SLACK``; when the pair is a
    translate/dilate pair the equality defect must also stay below
    ``BM_EQUALITY_TOL``.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0 or not np.all((t_grid > 0) & (t_grid < 1)):
        raise InvariantViolation("t_grid must be a nonempty list strictly inside (0, 1)")
    q0, q1 = _tau_quarter(p0, mesh_h), _tau_quarter(p1, mesh_h)
    homothetic = is_homothetic(p0, p1)
    details = []
    failures = 0
    worst = np.inf
    for t in t_grid:
        comb = minkowski_sum(scale(p0, 1.0 - t), scale(p1, t))
        lhs = _tau_quarter(comb, mesh_h)
        rhs = (1.0 - t) * q0 + t * q1
        margin = (lhs - rhs) / rhs
        bad = margin < -BM_SLACK
        if homothetic:
            bad = bad or abs(margin) > BM_EQUALITY_TOL
        failures += int(bad)
        worst = min(worst, margin)
        details.append({"t": float(t), "margin": float(margin),
                        "homothetic": homothetic, "pass": not bad})
    return CheckReport("brunn_minkowski", len(t_grid), failures, float(worst), details)


def continuity_check(p: Polygon, perturbation_scale: float, trials: int,
                     mesh_h: float = REL_MESH_H, rng_seed: int = 42) -> CheckReport:
    """Response of the mixed rigidity to support-number perturbations.

    The comparison body is the unit disk (support function 1), so the
    mixed rigidity is the measure's total mass.  Changes must stay below
    L times the Hausdorff distance with L = MODULUS_FACTOR * tau_1 /
    inradius — an engineering budget standing in for the continuity
    statement, which provides no modulus.
    """
    _check_count("trials", trials, 1)
    m = metrics(p)
    if perturbation_scale >= 0.1 * m.inradius:
        raise InvariantViolation("perturbation_scale must stay below 0.1 * inradius")
    rng = seeded_rng(rng_seed)
    spec = support_spec_of(p)
    base_field = solve_on_polygon(p, mesh_h * m.circumradius)
    tau1_base = facet_measure(base_field).total_mass
    modulus = MODULUS_FACTOR * tau1_base / m.inradius

    details = []
    failures = 0
    worst = 0.0
    for k in range(trials):
        delta = rng.uniform(-perturbation_scale, perturbation_scale, len(spec))
        q = build_polytope(spec.with_values(spec.values + delta))
        d_h = hausdorff_distance(p, q)
        f_q = solve_on_polygon(q, mesh_h * metrics(q).circumradius)
        d_tau1 = abs(facet_measure(f_q).total_mass - tau1_base)
        if d_h < 1e-14 * m.circumradius:  # roundoff: the perturbation moved nothing
            ratio = 0.0
            bad = d_tau1 > 1e-8 * tau1_base
        else:
            ratio = d_tau1 / (modulus * d_h)
            bad = ratio > 1.0
        failures += int(bad)
        worst = max(worst, ratio)
        details.append({"trial": k, "hausdorff": float(d_h),
                        "delta_tau1": float(d_tau1), "ratio": float(ratio),
                        "pass": not bad})
    return CheckReport("continuity", trials, failures, float(worst), details,
                       note=CONTINUITY_NOTE)


def homogeneity_check(p: Polygon, scales, mesh_h: float = REL_MESH_H) -> CheckReport:
    """Dilation homogeneity: tau scales with the 4th power, the mixed
    rigidity against a fixed comparison octagon with the 3rd."""
    scales = np.asarray(scales, dtype=float)
    if scales.ndim != 1 or len(scales) == 0 or not np.all(scales > 0):
        raise InvariantViolation("scales must be a nonempty list of positive values")
    comparison = regular_polygon(8, 1.0)
    m = metrics(p)
    f0 = solve_on_polygon(p, mesh_h * m.circumradius)
    tau0 = f0.tau_energy
    tau1_0 = mixed_torsion(facet_measure(f0), comparison)
    details = []
    failures = 0
    worst = 0.0
    for s in scales:
        ps = scale(p, float(s))
        fs = solve_on_polygon(ps, mesh_h * s * m.circumradius)
        r_tau = abs(fs.tau_energy / (s ** 4 * tau0) - 1.0)
        tau1_s = mixed_torsion(facet_measure(fs), comparison)
        r_tau1 = abs(tau1_s / (s ** 3 * tau1_0) - 1.0)
        bad = r_tau > HOMOGENEITY_TOL or r_tau1 > HOMOGENEITY_TOL
        failures += int(bad)
        worst = max(worst, r_tau, r_tau1)
        details.append({"s": float(s), "tau_defect": float(r_tau),
                        "tau1_defect": float(r_tau1), "pass": not bad})
    return CheckReport("homogeneity", len(scales), failures, float(worst), details)


def run_verify_corpus(seed: int = 42, mesh_h: float = REL_MESH_H) -> list[CheckReport]:
    """Run all three checks over a seeded corpus of ``CORPUS_SIZE`` bodies
    and merge each check's reports into one.

    Brunn-Minkowski runs at t = 0.5 on consecutive corpus pairs;
    continuity perturbs each member once at 2% of its inradius;
    homogeneity dilates each member by 2.  A merged report sums the
    trials and failures, keeps the worst margin (the smallest for
    Brunn-Minkowski, the largest otherwise) and lists the details in
    corpus order, each tagged with its ``corpus_index``.
    """
    corpus = polygon_corpus(seed, CORPUS_SIZE)
    bm, cont, homo = [], [], []
    for k, p in enumerate(corpus):
        homo.append((k, homogeneity_check(p, [2.0], mesh_h)))
        cont.append((k, continuity_check(p, 0.02 * metrics(p).inradius, 1, mesh_h,
                                         rng_seed=seed + k)))
        if k % 2 == 1:
            bm.append((k, brunn_minkowski_check(corpus[k - 1], p, [0.5], mesh_h)))
    return [_merged("brunn_minkowski", bm, min),
            _merged("continuity", cont, max, CONTINUITY_NOTE),
            _merged("homogeneity", homo, max)]


def _merged(name: str, parts: list, worst, note: str = "") -> CheckReport:
    """One report from ``(corpus index, report)`` pairs; ``worst`` picks the
    worst margin."""
    reports = [r for _, r in parts]
    return CheckReport(name, sum(r.trials for r in reports), sum(r.failures for r in reports),
                       float(worst(r.worst_margin for r in reports)),
                       [{"corpus_index": k, **d} for k, r in parts for d in r.details], note)
