"""Inverse solver: recover the polygon whose torsion measure matches a
balanced target.

The target problem is solved by descent on the scale-invariant objective

    J(h) = (sum_i c_i h_i) / tau(B[h])^(1/4),

whose stationary points coincide (up to dilation) with those of the
constrained formulation "minimize sum c_i h_i subject to tau >= 1"; the
derivative of tau with respect to a support number is the corresponding
torsion-measure weight, which makes the exact gradient one measure
evaluation per iterate.  At a stationary point mu = (4 tau / Phi) c, so
dilating the optimizer output by (Phi / 4 tau)^(1/3) — the measure is
homogeneous of degree 3 under dilations — lands the measure on the
target.  The constrained problem's multiplier is the optimal value of J
and is reported alongside the solution.

Each accepted iterate is recentred so its Steiner point sits at the
origin, removing the translation null direction a balanced target
induces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .boundary_measure import SurfaceMeasure, torsion_measure
from .errors import (
    EmptyInterior,
    InvariantViolation,
    NoConvergence,
    UnbalanceableMeasure,
    UnboundedBody,
)
from .mesh import triangulate
from .support_geometry import (
    Polygon,
    SupportSpec,
    build_polytope,
    hausdorff_distance,
    metrics,
    polygon_to_dict,
    steiner_point,
)
from .torsion_fem import solve_torsion

BOUNDS_SLACK = 50.0  # iterates may drift this far from the first iterate's scale
COARSE_MESH_FACTOR = 2.0  # the coarse stage meshes at this multiple of mesh_h
UNIQUENESS_TOL = 0.03  # worst pairwise Hausdorff distance / circumradius allowed


@dataclass(frozen=True)
class TargetMeasure:
    """Minkowski-problem datum: positive weights on a spanning normal fan.

    The first moment must vanish to 1e-9 relative; use
    :func:`project_balance` to repair raw weights first.
    """

    normals: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        probe = SupportSpec(self.normals, np.ones(len(np.atleast_2d(self.normals))))
        weights = np.ascontiguousarray(self.weights, dtype=float)
        if weights.shape != (len(probe),):
            raise InvariantViolation("one weight per normal required")
        if np.any(weights <= 0):
            raise InvariantViolation("target weights must be strictly positive")
        moment = weights @ probe.normals
        if np.linalg.norm(moment) > 1e-9 * weights.sum():
            raise InvariantViolation(
                "target measure is not balanced; run project_balance first")
        weights.setflags(write=False)
        object.__setattr__(self, "normals", probe.normals)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.weights)


def project_balance(c_raw, normals) -> TargetMeasure:
    """Least-squares repair of the balance condition sum c_i X_i = 0.

    Normals may arrive in any cyclic order; they are sorted by angle with
    the weights permuted along.  The perturbation is the minimum-norm
    one; if it exceeds 5% of any weight, or positivity is lost, the
    datum is rejected.
    """
    c = np.asarray(c_raw, dtype=float)
    if np.any(c <= 0):
        raise UnbalanceableMeasure("weights must be strictly positive")
    normals = np.asarray(normals, dtype=float)
    order = np.argsort(np.arctan2(normals[:, 1], normals[:, 0]))
    normals, c = normals[order], c[order]
    try:
        probe = SupportSpec(normals, np.ones(len(c)))
    except UnboundedBody as exc:
        raise UnbalanceableMeasure(f"normals cannot support a balanced measure: {exc}") from exc
    X = probe.normals
    moment = c @ X
    gram = X.T @ (X)
    delta = -X @ np.linalg.solve(gram, moment)
    if np.any(np.abs(delta) > 0.05 * c):
        raise UnbalanceableMeasure(
            f"balancing needs a {np.max(np.abs(delta) / c):.1%} weight change (budget 5%)")
    c_new = c + delta
    if np.any(c_new <= 0):
        raise UnbalanceableMeasure("balancing drives a weight non-positive")
    # kill the residual roundoff moment exactly
    moment2 = c_new @ X
    c_new = c_new - X @ np.linalg.solve(gram, moment2)
    return TargetMeasure(X, c_new)


@dataclass(frozen=True)
class ObjectiveEval:
    """One evaluation of the descent objective at a support vector.

    ``residual`` is the l1 mismatch of the dilation-corrected measure to
    the target weights — the quantity the solve is judged by.
    """

    J: float
    grad_J: np.ndarray
    tau: float
    mu: SurfaceMeasure
    polygon: Polygon
    phi: float
    residual: float


def objective(h: SupportSpec, target: TargetMeasure, mesh_h: float,
              closure_budget: float = np.inf) -> ObjectiveEval:
    """Evaluate J, its exact gradient, tau and the measure at B[h].

    ``mesh_h`` is an absolute mesh spacing.  grad_J_i combines the weight
    c_i with the measure weight mu_i, which is d tau / d h_i.
    """
    c = target.weights
    polygon = build_polytope(h)
    mesh = triangulate(polygon, mesh_h)
    fld = solve_torsion(mesh)
    mu = torsion_measure(fld, h, budget=closure_budget)
    tau = fld.tau_energy
    phi = float(c @ h.values)
    J = phi * tau ** (-0.25)
    grad = c * tau ** (-0.25) - 0.25 * phi * tau ** (-1.25) * mu.weights
    scale_cubed = phi / (4.0 * tau)
    residual = float(np.abs(scale_cubed * mu.weights - c).sum() / c.sum())
    return ObjectiveEval(J, grad, tau, mu, polygon, phi, residual)


@dataclass
class SolveOptions:
    """Inverse-solver knobs.

    ``mesh_h`` is relative to the current iterate's circumradius, so the
    whole solve is equivariant under dilations of the target.
    """

    mesh_h: float = 0.02
    tol: float = 1e-2
    max_iters: int = 120
    init_values: np.ndarray | None = None

    def __post_init__(self):
        if not (self.mesh_h > 0 and self.tol > 0 and self.max_iters > 0):  # NaN fails too
            raise InvariantViolation("mesh_h, tol and max_iters must be positive")


@dataclass
class SolveReport:
    h_final: SupportSpec
    polygon: Polygon
    mu_final: SurfaceMeasure
    objective_history: list[float]
    residual_history: list[float]
    multiplier_m: float
    iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "normals": self.h_final.normals.tolist(),
            "support_numbers": self.h_final.values.tolist(),
            "polygon": polygon_to_dict(self.polygon),
            "measure": self.mu_final.to_dict(),
            "objective_history": self.objective_history,
            "residual_history": self.residual_history,
            "multiplier_m": self.multiplier_m,
            "iterations": self.iterations,
            "converged": self.converged,
            "diagnostics": self.diagnostics,
        }


def _recentred(h: SupportSpec, polygon: Polygon) -> SupportSpec:
    return h.translated(-steiner_point(polygon))


def solve_minkowski(target: TargetMeasure, opts: SolveOptions | None = None) -> SolveReport:
    """Descent with backtracking line search from h = 1 (or a supplied
    start), followed by the homogeneity rescale.

    Raises NoConvergence (with the partial report attached) when the
    iteration cap is hit or an iterate escapes the a-priori size bounds
    derived from the first iterate.
    """
    opts = opts or SolveOptions()
    c = target.weights
    h = SupportSpec(target.normals,
                    np.ones(len(target)) if opts.init_values is None
                    else np.asarray(opts.init_values, dtype=float))
    h = _recentred(h, build_polytope(h))

    stage_scale = COARSE_MESH_FACTOR
    coarse_gate = max(3.0 * opts.tol, 0.03)
    J_hist: list[float] = []
    r_hist: list[float] = []
    log: list[dict] = []
    bounds = None
    step = None
    converged = False
    iters = 0

    ev = _eval(h, target, opts, stage_scale)
    while iters < opts.max_iters:
        m = metrics(ev.polygon)
        if bounds is None:
            bounds = (m.inradius / BOUNDS_SLACK, m.circumradius * BOUNDS_SLACK)
        J_hist.append(ev.J)
        r_hist.append(ev.residual)
        log.append({
            "iter": iters, "J": ev.J, "residual": ev.residual, "tau": ev.tau,
            "inradius": m.inradius, "circumradius": m.circumradius,
            "step": 0.0 if step is None else step,
        })
        if not (bounds[0] <= m.inradius and m.circumradius <= bounds[1]):
            raise NoConvergence(
                f"iterate escaped a-priori bounds (inradius {m.inradius:.3g}, "
                f"circumradius {m.circumradius:.3g})",
                report=_report(h, ev, J_hist, r_hist, log, iters, False))
        gnorm = float(np.linalg.norm(ev.grad_J))
        gtol = opts.tol * ev.tau ** (-0.25) * float(np.linalg.norm(c))
        at_fine = stage_scale == 1.0
        # Stop on the l1 residual the report is judged by, not an l2 gradient test.
        if at_fine and ev.residual <= opts.tol:
            converged = True
            break
        if not at_fine and (ev.residual <= coarse_gate or gnorm <= 3.0 * gtol):
            stage_scale = 1.0
            ev = _eval(h, target, opts, stage_scale)
            iters += 1
            continue

        # Line-search cap from the perturbation bound: a step below
        # inradius / (2 max|direction|) keeps the trial body well inside
        # its support-number envelope, so EmptyInterior cannot occur.
        direction = -ev.grad_J
        cap = m.inradius / (2.0 * float(np.abs(direction).max()))
        step = cap if step is None else min(2.0 * step, cap)
        accepted = None
        for _ in range(25):
            trial = h.with_values(h.values + step * direction)
            try:
                trial_ev = _eval(trial, target, opts, stage_scale)
            except EmptyInterior:
                step *= 0.5
                continue
            if trial_ev.J <= ev.J - 5e-5 * step * gnorm ** 2:
                accepted = (trial, trial_ev)
                break
            step *= 0.5
        if accepted is None:
            if not at_fine:
                stage_scale = 1.0
                ev = _eval(h, target, opts, stage_scale)
                iters += 1
                continue
            break  # line search stalled at the discretization floor
        h, ev = accepted
        h = _recentred(h, ev.polygon)
        iters += 1
    else:
        raise NoConvergence(
            f"no convergence in {opts.max_iters} iterations "
            f"(residual {ev.residual:.3g})",
            report=_report(h, ev, J_hist, r_hist, log, iters, False))

    # Homogeneity rescale: mu scales with the cube of a dilation, so this
    # lands the stationary measure (4 tau / Phi) c on c itself.
    s = (ev.phi / (4.0 * ev.tau)) ** (1.0 / 3.0)
    h = h.with_values(s * h.values)
    final = _eval(h, target, opts, 1.0, closure_budget=0.02)
    h = _recentred(h, final.polygon)
    converged = converged and final.residual <= opts.tol
    J_hist.append(final.J)
    r_hist.append(final.residual)
    mfin = metrics(final.polygon)
    log.append({"iter": iters, "J": final.J, "residual": final.residual,
                "tau": final.tau, "inradius": mfin.inradius,
                "circumradius": mfin.circumradius, "step": 0.0})
    return _report(h, final, J_hist, r_hist, log, iters, converged)


def _eval(h: SupportSpec, target: TargetMeasure, opts: SolveOptions,
          stage_scale: float, closure_budget: float = np.inf) -> ObjectiveEval:
    mesh_h = opts.mesh_h * stage_scale * metrics(build_polytope(h)).circumradius
    return objective(h, target, mesh_h, closure_budget=closure_budget)


def _report(h, ev, J_hist, r_hist, log, iters, converged) -> SolveReport:
    m = metrics(ev.polygon)
    return SolveReport(
        h_final=h,
        polygon=ev.polygon,
        mu_final=ev.mu,
        objective_history=J_hist,
        residual_history=r_hist,
        multiplier_m=ev.J,
        iterations=iters,
        converged=converged,
        diagnostics={
            "iterations_log": log,
            "final_inradius": m.inradius,
            "final_circumradius": m.circumradius,
            "final_diameter": m.diameter,
            "final_tau": ev.tau,
        },
    )


@dataclass(frozen=True)
class UniquenessReport:
    polygons: list
    pairwise_relative: list
    worst_relative: float

    @property
    def ok(self) -> bool:
        return self.worst_relative <= UNIQUENESS_TOL


def uniqueness_probe(target: TargetMeasure, seeds,
                     opts: SolveOptions | None = None) -> UniquenessReport:
    """Solve from randomized starts and compare the recentred solutions.

    Initial support vectors are 1 + 0.3 * uniform(-1, 1) per seed.  All
    solutions have their Steiner point at the origin, so the pairwise
    Hausdorff distances (relative to the mean circumradius) measure shape
    disagreement only.
    """
    seeds = list(seeds)
    if not seeds:
        raise InvariantViolation("uniqueness_probe needs at least one seed")
    opts = opts or SolveOptions()
    polys = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        init = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, size=len(target))
        run = replace(opts, init_values=init)
        polys.append(solve_minkowski(target, run).polygon)
    radius = np.mean([metrics(p).circumradius for p in polys])
    pairs = []
    worst = 0.0
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            rel = hausdorff_distance(polys[i], polys[j]) / radius
            pairs.append((int(i), int(j), float(rel)))
            worst = max(worst, rel)
    return UniquenessReport(polys, pairs, worst)
