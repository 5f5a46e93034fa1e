"""Inverse solver: recover the polygon whose torsion measure matches a
balanced target.

The target problem is solved by quasi-Newton (BFGS) descent on the
scale-invariant objective

    J(h) = (sum_i c_i h_i) / tau(B[h])^(1/4),

whose stationary points coincide (up to dilation) with those of the
constrained formulation "minimize sum c_i h_i subject to tau >= 1"; the
derivative of tau with respect to a support number is the corresponding
torsion-measure weight, which makes the exact gradient one measure
evaluation per iterate.  At a stationary point mu = (4 tau / Phi) c, so
dilating the optimizer output by (Phi / 4 tau)^(1/3) — the measure is
homogeneous of degree 3 under dilations — lands the measure on the
target.  The discrete pipeline commutes with dilations too (the mesh
spacing is relative to the circumradius), so the report is the last
evaluation dilated in closed form, with no mesh of the dilated body:
tau scales by s^4, mu by s^3, Phi by s and grad J by 1/s, while J and
the residual are unchanged.  The constrained problem's multiplier is the
optimal value of J and is reported alongside the solution.

The descent direction is -H grad J, H being a dense BFGS approximation
of the inverse Hessian (Nocedal & Wright, Numerical Optimization, ch. 6;
N <= 32, so an N x N matrix is cheap).  H is built from the secant pairs
of accepted steps, scaled at the first pair by eq. 6.20, and kept from
the coarse mesh stage into the fine one.  Until the first pair, and
whenever -H grad J is not a descent direction, the step follows -grad J.
A pair without positive curvature (s . y <= 0) leaves H unchanged.

The descent runs in two stages.  Both mesh B[h] at the coarse spacing
min(2 mesh_h R, r / 2), R and r being its circumradius and inradius.  The
coarse stage evaluates on that mesh; the fine stage solves the mesh and
its uniform refinement as one nested pair (``solve_nested``) and
evaluates on the refined field, so its spacing is min(mesh_h R, r / 4)
and no fine-spacing mesh is ever built.  The pair's difference gives the
fine stage's measure error estimate at no extra solve.  Every stage ends
by one rule: the l1 residual falls to the stage's bar (max(3 tol, 0.03)
when coarse, tol when fine), or the line search stalls.  The coarse
stage hands its iterate and H to the fine one; the fine stage's end is
the solve's.

The descent runs on the target scaled by 2^-k, k = round(log2 sum c).  A
power-of-two scaling is exact in floating point, so targets that differ
by a power-of-two factor descend on the same scaled target: they take
the same steps and report the same residuals, and J, its gradient and
the secant pairs stay near unit size whatever the target's magnitude.
J, the objective history and the multiplier are scaled back by 2^k.

Each accepted iterate is recentred so its Steiner point sits at the
origin, removing the translation null direction a balanced target
induces.  A translation changes neither J nor its gradient, so the
secant pair is taken from the accepted step before recentring, and the
first fine evaluation reuses the last coarse one's mesh, of the iterate
before its recentring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .boundary_measure import SurfaceMeasure, representation_residual, torsion_measure
from .errors import (
    EmptyInterior,
    InvariantViolation,
    NoConvergence,
    UnbalanceableMeasure,
    UnboundedBody,
)
from .mesh import REL_MESH_H, TriMesh, triangulate
from .support_geometry import (
    Polygon,
    SupportSpec,
    _check_count,
    _check_directions,
    _check_fan,
    _own,
    build_polytope,
    hausdorff_distance,
    metrics,
    normal_angles,
    polygon_to_dict,
    seeded_rng,
    steiner_point,
)
from .torsion_fem import TorsionField, solve_nested, solve_torsion

BOUNDS_SLACK = 50.0  # iterates may drift this far from the first iterate's scale
UNIQUENESS_TOL = 0.03  # worst pairwise Hausdorff distance / circumradius allowed


@dataclass(frozen=True)
class TargetMeasure:
    """Minkowski-problem datum: positive weights on a spanning normal fan.

    The fan and the weight vector are checked as ``SupportSpec`` checks
    its normals and values; the weights must also be positive, and their
    first moment must vanish to 1e-9 relative (use
    :func:`project_balance` to repair raw weights first).  Both arrays
    are read-only copies of the constructor's arguments.
    """

    normals: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        spec = SupportSpec(self.normals, self.weights)
        if not np.all(spec.values > 0):
            raise InvariantViolation("target weights must be strictly positive")
        if np.hypot(*(spec.values @ spec.normals)) > 1e-9 * spec.values.sum():
            raise InvariantViolation(
                "target measure is not balanced; run project_balance first")
        _own(self, normals=spec.normals, weights=spec.values)

    def __len__(self) -> int:
        return len(self.weights)


def project_balance(c_raw, normals) -> TargetMeasure:
    """Least-squares repair of the balance condition sum c_i X_i = 0.

    Raw weights are checked here: one finite, strictly positive weight
    per normal.  Normals may arrive in any cyclic order; they are sorted
    by angle with the weights permuted along, and checked as
    ``SupportSpec`` checks them.  The perturbation is the minimum-norm
    one; if it exceeds 5% of any weight, the datum is rejected.
    """
    normals = _check_directions(normals)
    c = np.asarray(c_raw, dtype=float)
    if c.shape != (len(normals),) or not np.all(np.isfinite(c) & (c > 0)):
        raise UnbalanceableMeasure("weights must be finite and strictly positive, one per normal")
    order = np.argsort(normal_angles(normals))
    X, c = normals[order], c[order]
    try:
        _check_fan(X)
    except UnboundedBody as exc:
        raise UnbalanceableMeasure(f"normals cannot support a balanced measure: {exc}") from exc
    moment = c @ X
    gram = X.T @ (X)
    delta = -X @ np.linalg.solve(gram, moment)
    if np.any(np.abs(delta) > 0.05 * c):
        raise UnbalanceableMeasure(
            f"balancing needs a {np.max(np.abs(delta) / c):.1%} weight change (budget 5%)")
    c_new = c + delta
    # kill the residual roundoff moment exactly
    moment2 = c_new @ X
    c_new = c_new - X @ np.linalg.solve(gram, moment2)
    return TargetMeasure(X, c_new)


@dataclass(frozen=True)
class ObjectiveEval:
    """One evaluation of the descent objective at a support vector.

    ``residual`` is the l1 mismatch of the dilation-corrected measure to
    the target weights — the quantity the solve is judged by.
    ``rep_residual`` is the relative defect of tau = (1/4) sum h_i mu_i,
    which tracks the discretization error; ``nodes`` counts the nodes of
    ``mesh``, the mesh the torsion field was solved on.  Both are
    invariant under dilation.  ``cg_iterations`` counts the torsion
    solve's CG iterations.  ``measure_error_estimate``, set when the field
    is the refined field of a nested pair, is
    ||mu_f - mu_c||_1 / (3 ||mu_f||_1) over the pair's measures, and None
    otherwise.
    """

    J: float
    grad_J: np.ndarray
    tau: float
    mu: SurfaceMeasure
    polygon: Polygon
    phi: float
    residual: float
    rep_residual: float
    mesh: TriMesh = field(repr=False)
    cg_iterations: int
    measure_error_estimate: float | None

    def __post_init__(self):
        _own(self, grad_J=self.grad_J)

    @property
    def nodes(self) -> int:
        return self.mesh.n_nodes


def objective(h: SupportSpec, target: TargetMeasure, mesh_h: float) -> ObjectiveEval:
    """Evaluate J, its exact gradient, tau and the measure at B[h].

    ``mesh_h`` is an absolute mesh spacing.  grad_J_i combines the weight
    c_i with the measure weight mu_i, which is d tau / d h_i.  The
    measure's closure is not checked here: descent iterates may be
    coarse, and ``solve_minkowski`` checks its final measure.
    """
    return _objective_from_field(h, target,
                                 solve_torsion(triangulate(build_polytope(h), mesh_h)))


def _objective_from_field(h: SupportSpec, target: TargetMeasure, fld: TorsionField,
                          coarse: TorsionField | None = None) -> ObjectiveEval:
    """``objective``'s arithmetic on a torsion field of B[h]; ``coarse``,
    the mesh field of a nested pair whose refined field is ``fld``, adds
    the measure error estimate."""
    c = target.weights
    mu = torsion_measure(fld, h, budget=np.inf)
    tau = fld.tau_energy
    phi = float(c @ h.values)
    J = phi * tau ** (-0.25)
    grad = c * tau ** (-0.25) - 0.25 * phi * tau ** (-1.25) * mu.weights
    scale_cubed = phi / (4.0 * tau)
    residual = float(np.abs(scale_cubed * mu.weights - c).sum() / c.sum())
    estimate = None
    if coarse is not None:
        mu_c = torsion_measure(coarse, h, budget=np.inf)
        estimate = float(np.abs(mu.weights - mu_c.weights).sum() / (3.0 * mu.total_mass))
    return ObjectiveEval(J, grad, tau, mu, build_polytope(h), phi, residual,
                         representation_residual(fld, h, mu), fld.mesh, fld.cg_iterations,
                         estimate)


@dataclass(frozen=True)
class SolveOptions:
    """Inverse-solver knobs.

    ``mesh_h`` is relative to the current iterate's circumradius, so the
    whole solve is equivariant under dilations of the target.
    ``init_values``, when given, is a read-only copy of the start.
    """

    mesh_h: float = REL_MESH_H
    tol: float = 1e-2
    max_iters: int = 120
    init_values: np.ndarray | None = None

    def __post_init__(self):
        if not (0 < self.mesh_h < np.inf and 0 < self.tol < np.inf):  # NaN fails too
            raise InvariantViolation("mesh_h and tol must be finite and positive")
        _check_count("max_iters", self.max_iters, 1)
        _own(self, init_values=self.init_values)


@dataclass(frozen=True)
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


def solve_minkowski(target: TargetMeasure, opts: SolveOptions | None = None) -> SolveReport:
    """BFGS descent with a backtracking line search from h = 1 (or a
    supplied start), followed by the homogeneity rescale.

    Each line search runs along d = -H grad J, or along -grad J while H
    is unset or when d is not a descent direction.  Its first trial step
    is min(1, cap), where cap = inradius / (2 max|d|) keeps the trial
    body nonempty; it halves the step up to 25 times until the Armijo test
    J(h + step d) <= J(h) + 5e-5 step (d . grad J) holds.  The accepted
    step's secant pair updates H; a pair with s . y <= 0 is skipped.

    A line search runs from every iterate whose l1 residual is above its
    stage's bar (see the module docstring); a stage ends at an iterate at
    or below the bar, or when the search stalls.  The end of the coarse
    stage re-evaluates its iterate as a nested pair on the mesh of its
    last coarse evaluation.

    The report is the last fine-stage evaluation, dilated in closed form;
    only the loop decides ``converged``.  ``diagnostics["stop_reason"]``
    names how the loop ended: ``residual`` (converged: the fine residual
    at its bar), ``line_search_stall``, ``iteration_cap`` or
    ``bounds_escape``.  The last two raise NoConvergence with the partial
    report attached; an iterate escapes when it leaves the a-priori size
    bounds derived from the first iterate.  A log row counts the halvings
    (``backtracks``) and swallowed EmptyInterior errors
    (``empty_interior``) of its line search and names its ``direction``:
    ``"bfgs"``, or ``"gradient"`` for the -grad J fallback (``None`` on a
    row that ran no line search).  A fine-stage row carries the
    evaluation's ``measure_error_estimate``, a coarse-stage row None.
    ``diagnostics["objective_calls"]`` counts the objective evaluations.
    """
    opts = opts or SolveOptions()
    h = SupportSpec(target.normals,
                    np.ones(len(target)) if opts.init_values is None else opts.init_values)
    h = h.translated(-steiner_point(build_polytope(h)))
    # the descent's target, c 2^-k (see the module docstring)
    k = int(np.rint(np.logaddexp2.reduce(np.log2(target.weights))))
    target = TargetMeasure(target.normals, np.ldexp(target.weights, -k))

    fine = False  # the stage: coarse, then fine
    coarse_bar = max(3.0 * opts.tol, 0.03)
    log: list[dict] = []
    bounds = None
    H = None  # inverse-Hessian approximation, set at the first secant pair
    step = 0.0  # accepted step of the line search that reached the iterate
    failure = None  # message of a NoConvergence exit
    iters = 0

    ev_h = h  # the support vector ev was evaluated at: h before its recentring
    ev = _eval(h, target, opts, fine)
    calls = 1  # objective evaluations
    while iters < opts.max_iters:
        m = metrics(ev.polygon)
        log.append(_log_row(iters, ev, m, step, k))
        if bounds is None:
            bounds = (m.inradius / BOUNDS_SLACK, m.circumradius * BOUNDS_SLACK)
        if not (bounds[0] <= m.inradius and m.circumradius <= bounds[1]):
            stop = "bounds_escape"
            failure = (f"iterate escaped a-priori bounds (inradius {m.inradius:.3g}, "
                       f"circumradius {m.circumradius:.3g})")
            break
        g = ev.grad_J
        accepted = None
        if ev.residual > (opts.tol if fine else coarse_bar):
            direction = -g if H is None else -H @ g
            kind = "gradient" if H is None else "bfgs"
            if direction @ g >= 0:  # -H g is no descent direction
                direction, kind = -g, "gradient"
            slope = float(direction @ g)
            # Line-search cap from the perturbation bound: a step below
            # inradius / (2 max|direction|) keeps the trial body well inside
            # its support-number envelope, so EmptyInterior cannot occur.
            cap = m.inradius / (2.0 * float(np.abs(direction).max()))
            step = min(1.0, cap)
            backtracks = empty = 0
            for _ in range(25):
                trial = h.with_values(h.values + step * direction)
                calls += 1
                try:
                    trial_ev = _eval(trial, target, opts, fine)
                except EmptyInterior:
                    empty += 1
                else:
                    if trial_ev.J <= ev.J + 5e-5 * step * slope:
                        accepted = (trial, trial_ev)
                        break
                backtracks += 1
                step *= 0.5
            log[-1].update(backtracks=backtracks, empty_interior=empty, direction=kind)
        if accepted is not None:
            ev_h, ev = accepted
            H = _bfgs_update(H, step * direction, ev.grad_J - g)
            h = ev_h.translated(-steiner_point(ev.polygon))
        elif fine:  # residual at the bar, or a stall at the discretization floor
            stop = "residual" if ev.residual <= opts.tol else "line_search_stall"
            break
        else:  # coarse residual at its bar, or a coarse stall: go fine on ev's mesh
            fine = True
            calls += 1
            ev = _eval(ev_h, target, opts, fine, ev.mesh)
        iters += 1
    else:
        stop = "iteration_cap"
        failure = (f"no convergence in {opts.max_iters} iterations "
                   f"(residual {ev.residual:.3g})")
    if failure is not None:
        raise NoConvergence(failure, report=_report(h, ev, log, iters, stop, calls, k))

    # Homogeneity rescale: mu scales with the cube of a dilation, so this
    # lands the stationary measure (4 tau / Phi) c on c itself, Phi being
    # the unscaled target's.  The dilated body's values follow from ev in
    # closed form (see the module docstring).
    s = (math.ldexp(ev.phi, k) / (4.0 * ev.tau)) ** (1.0 / 3.0)
    try:
        tau = s ** 4 * ev.tau
    except OverflowError:  # a float power raises where a float product returns inf
        tau = np.inf
    if not tau < np.inf:
        raise InvariantViolation(
            f"target weights too large: the solution's rigidity overflows (dilation {s:.3g})")
    h = h.with_values(s * h.values)
    mu = SurfaceMeasure(ev.mu.normals, s ** 3 * ev.mu.weights).validate()
    final = replace(ev, grad_J=ev.grad_J / s, tau=tau, mu=mu,
                    polygon=build_polytope(h), phi=s * ev.phi)
    log.append(_log_row(iters, final, metrics(final.polygon), 0.0, k))
    return _report(h, final, log, iters, stop, calls, k)


def _bfgs_update(H, s: np.ndarray, y: np.ndarray):
    """BFGS update of the inverse Hessian H by the secant pair (s, y)
    (Nocedal & Wright eq. 6.17); ``H is None`` before the first pair,
    which then sets H0 = (s . y / y . y) I (eq. 6.20).  Without positive
    curvature, s . y <= 0, H is returned unchanged."""
    sy = float(s @ y)
    if sy <= 0:
        return H
    if H is None:
        H = (sy / float(y @ y)) * np.eye(len(s))
    V = np.eye(len(s)) - np.outer(s, y) / sy
    return V @ H @ V.T + np.outer(s, s) / sy


def _eval(h: SupportSpec, target: TargetMeasure, opts: SolveOptions, fine: bool,
          mesh: TriMesh | None = None) -> ObjectiveEval:
    """Evaluate the objective at B[h] in the coarse or the fine stage.

    Both stages mesh B[h] at the coarse spacing; the fine stage then
    evaluates on the refined field of ``solve_nested``.  ``mesh``, a
    coarse-stage mesh of B[h], is reused instead of meshing again.
    """
    if mesh is None:
        m = metrics(build_polytope(h))
        # triangulate needs a spacing below the inradius.  Capping it at half
        # the inradius binds where R / r exceeds 0.25 / mesh_h (12.5 at the
        # default mesh_h), in both stages; the refined spacing of the fine
        # stage is then r / 4, finer than a mesh at mesh_h R capped at r / 2.
        spacing = min(2.0 * opts.mesh_h * m.circumradius, 0.5 * m.inradius)
        if not fine:
            return objective(h, target, spacing)
        mesh = triangulate(build_polytope(h), spacing)
    coarse, refined = solve_nested(mesh)
    return _objective_from_field(h, target, refined, coarse)


def _log_row(iteration: int, ev: ObjectiveEval, m, step: float, k: int) -> dict:
    """The record of one iterate: a CSV log row, and the source of the
    report's objective and residual histories.  J is scaled back by 2^k
    to the unscaled target's."""
    return {"iter": iteration, "J": math.ldexp(ev.J, k), "residual": ev.residual,
            "tau": ev.tau, "inradius": m.inradius, "circumradius": m.circumradius,
            "step": step, "backtracks": 0, "empty_interior": 0, "direction": None,
            "rep_residual": ev.rep_residual, "nodes": ev.nodes,
            "cg_iterations": ev.cg_iterations,
            "measure_error_estimate": ev.measure_error_estimate}


def _report(h, ev, log, iters, stop, calls, k) -> SolveReport:
    polygon = build_polytope(h)  # ev.polygon may predate the recentring of h
    m = metrics(polygon)
    return SolveReport(
        h_final=h,
        polygon=polygon,
        mu_final=ev.mu,
        objective_history=[row["J"] for row in log],
        residual_history=[row["residual"] for row in log],
        multiplier_m=math.ldexp(ev.J, k),
        iterations=iters,
        converged=stop == "residual",
        diagnostics={
            "stop_reason": stop,
            "objective_calls": calls,
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


def uniqueness_probe(target: TargetMeasure, seeds) -> UniquenessReport:
    """Solve from randomized starts and compare the recentred solutions.

    Initial support vectors are 1 + 0.3 * uniform(-1, 1) per seed.  All
    solutions have their Steiner point at the origin, so the pairwise
    Hausdorff distances (relative to the mean circumradius) measure shape
    disagreement only.
    """
    seeds = list(seeds)
    if not seeds:
        raise InvariantViolation("uniqueness_probe needs at least one seed")
    polys = []
    for seed in seeds:
        rng = seeded_rng(seed)
        init = 1.0 + 0.3 * rng.uniform(-1.0, 1.0, size=len(target))
        polys.append(solve_minkowski(target, SolveOptions(init_values=init)).polygon)
    radius = np.mean([metrics(p).circumradius for p in polys])
    pairs = []
    worst = 0.0
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            rel = hausdorff_distance(polys[i], polys[j]) / radius
            pairs.append((int(i), int(j), float(rel)))
            worst = max(worst, rel)
    return UniquenessReport(polys, pairs, worst)
