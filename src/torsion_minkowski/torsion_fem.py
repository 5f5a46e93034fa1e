"""P1 finite-element solver for the torsion boundary-value problem.

Solves the Poisson problem with constant load 2 and zero boundary values
on a triangulated convex polygon.  The load vector b holds each node's
share of the integral of the constant 2.  The discrete rigidity is the
maximum of the torsion functional 2 u . b - u . K u over the P1 space,
and the field's ``tau_energy`` is that functional at the computed u, the
Ritz value: for any u it falls short of the maximum by exactly the
squared energy error ||u* - u||_K^2, so it is accurate to the square of
the linear solve's error whatever start CG took.  The mass estimator
u . b and its gap to the Ritz value stay on the field because the
benchmark reads the gap: CG from zero keeps u . (K u - b) = 0 up to
roundoff, and from ``solve_refined``'s start it is at most about the
relative energy error ||u* - u||_K / ||u||_K (1e-10 to 1e-9 measured),
so it checks nothing.  The field
also keeps the nodal reaction K u - b, which is zero at interior nodes
up to the solve's error and carries the boundary flux at boundary nodes.

The interior system is solved by preconditioned conjugate gradients
that stop on their own error estimate.  Step j takes alpha_j r_j . z_j
off the squared energy error, so the sum of these terms over the last
``ESTIMATE_DELAY`` steps estimates the squared error of the iterate
before them (Hestenes-Stiefel; Strakos & Tichy, ETNA 13, 2002; Arioli,
Numer. Math. 97, 2004).  CG stops once that sum is at most
``ENERGY_BUDGET`` u . b, a ratio without units, so the stop commutes
with translations and dilations.  The iterate returned is
``ESTIMATE_DELAY`` steps past the one estimated, and each step cuts the
error about 30-fold, so its relative squared error is near 1e-16 and its
Ritz value lies within 1e-13 of a direct solve's.  A residual at most
ENERGY_BUDGET ||b|| also stops CG, so an exact start takes no step and a
system the preconditioner solves exactly takes one.  ``_field`` checks
the result with one more V-cycle M: the interior residual r gives
``cg_error_estimate`` = r . M r / u . b, and above 10 ENERGY_BUDGET the
solve fails.  On the benchmark's 0.01 R forward meshes CG takes 10-11
iterations and on the refined Hadamard solves 7-9.

The preconditioner is one symmetric V-cycle of smoothed-aggregation
multigrid (Vanek, Mandel & Brezina, Computing 56, 1996), built from the
interior nodes' coordinates: the aggregates of the first level are the
cells of a square grid of side 2 target_h, and each coarser level's
cells are ``COARSEN`` times wider; the tentative piecewise-constant
prolongation P is smoothed by one damped-Jacobi step, coarse operators
are Galerkin products R A P with the restriction R = P^T kept per level,
and the coarsest level, of at most ``COARSE_SIZE`` unknowns, is
factorised by dense Cholesky.  A system that small gets no levels, so
the V-cycle is its exact solve and CG stops after one iteration.  The
iteration count stays flat as the mesh is refined.

Each level's grid starts at the lower-left corner of its points, moved
back by ``CELL_SHIFT`` of a cell side.  Interior lattice nodes sit at
multiples of 17/80 of a first-level side from the leftmost one (the
lattice's half-column step, 0.425 target_h, over 2 target_h), so an
unmoved grid puts every 80th column exactly on a cell face, and the
roundoff of a translated or dilated body decides their cells.  Once the
stop is early the preconditioner shapes the iterate, and such flips
raised the dilation defect of the rigidity from 1e-13 to 1e-8.  With the
shift, every interior lattice node lies at least 1/320 of a side from
every face.  The interior of a ``refine``d mesh also holds the midpoints
of edges that end on the boundary, which sit anywhere; over both
50-body test corpora at 0.04 and 0.02 R the nearest of them lies 1e-7
sides from a face, while a translation by 1e4 circumradii moves a node
by 5e-11 sides.  Coarser levels aggregate the centroids of the finer
aggregates, for which no such bound is known; the test suite checks that
far translations and dilations keep every level's aggregates on corpus
bodies and their refinements.

``solve_torsion`` keeps its interior system and multigrid hierarchy on
the field it returns, and ``solve_refined`` solves that field's mesh's
uniform refinement (the Hadamard check's Richardson pair, the inverse
solver's fine stage) without aggregating the refined mesh.  The refined
V-cycle's first level prolongs by the P1 interpolation of ``refine``'s
numbering (a parent node keeps its value, an edge midpoint takes the
mean of its ends), restricted to interior nodes; since the spaces are
nested, R K_fine P is the mesh's own interior system, so the mesh
solve's levels and Cholesky factor serve unchanged below it.  CG starts
from the prolonged mesh solution and stops by the same rule as from
zero.  A refined field keeps no hierarchy, so it cannot be refined
again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from .errors import InvariantViolation, LinearSolveFailure, MaximumPrincipleViolation
from .mesh import TriMesh, _p1_basis, refine, triangulate
from .support_geometry import Polygon, _check_count, _own, seeded_rng

ENERGY_BUDGET = 1e-12  # CG stops at this squared energy error, relative to u . b
ESTIMATE_DELAY = 2  # CG steps summed by the Hestenes-Stiefel error estimate
# The most iterations measured is 12, over 545 solves: 109 bodies (two
# 50-member corpora, 8 sliver sums, a 64-gon) meshed at 0.04, 0.02 and
# 0.01 R, plus the refinements of the first two; up to 50k unknowns.  The
# 218 solve_refined solves of the 0.04 and 0.02 R meshes take 6-9.
MAX_CG_ITERS = 200
COARSE_SIZE = 400  # coarsening stops at this many unknowns; the coarsest level is factorised
# Aggregate side ratio between levels above the first.  The first level's
# cells, of side 2 target_h, hold about 6.4 lattice nodes: a node and its
# neighbours.  Doubling the side again at coarser levels lets the smoothed
# stencils grow (13 -> 31 -> 66 -> 96 nonzeros per row on a 50k-unknown
# mesh); tripling keeps the operator complexity near 1.35.
COARSEN = 3.0
# Aggregation cells are moved by this fraction of their side, so that no
# lattice node or edge midpoint lies on a cell face (see the module docstring).
CELL_SHIFT = 1.0 / 320.0
PROLONG_OMEGA = 2.0 / 3.0  # damping of the Jacobi step that smooths the prolongation
SMOOTH_OMEGA = 0.6  # damping of the V-cycle's Jacobi sweeps
SMOOTH_SWEEPS = 2  # Jacobi sweeps before and after each coarse correction


@dataclass(frozen=True)
class TorsionField:
    """Mesh, nodal solution, nodal reaction K u - load, rigidity values,
    CG iteration count and error estimate, and multigrid shape of one
    torsion solve.

    ``tau_energy`` is the rigidity, the Ritz value 2 u . load - u . K u.
    ``tau_mass`` = u . load and their relative gap ``estimator_gap`` are
    kept for the benchmark only (see the module docstring).
    ``cg_error_estimate`` estimates the relative squared energy error
    ||u* - u||_K^2 / u . load of the solve; a field that no solve built
    holds None there.  ``levels`` counts the multigrid levels above the
    coarsest, and ``operator_complexity`` is the stored-entry count of
    all level operators, the coarsest included, over that of the
    interior system.  ``u`` and ``reaction`` are read-only copies of the
    constructor's arguments.  ``solve_torsion`` keeps the solve's
    interior system and multigrid hierarchy in ``_multigrid`` for
    ``solve_refined``; any other field holds None there.
    """

    mesh: TriMesh
    u: np.ndarray
    tau_energy: float
    tau_mass: float
    estimator_gap: float
    reaction: np.ndarray = field(repr=False)
    cg_iterations: int
    levels: int
    operator_complexity: float
    cg_error_estimate: float | None = None
    _multigrid: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _own(self, u=self.u, reaction=self.reaction)

    def triangle_gradients(self) -> np.ndarray:
        """Piecewise-constant gradient of u, one row per triangle."""
        twice_area, gx, gy = _p1_basis(self.mesh.nodes, self.mesh.triangles)
        ua, ub, uc = self.u[self.mesh.triangles].T
        return np.column_stack([
            (ua * gx[:, 0] + ub * gx[:, 1] + uc * gx[:, 2]) / twice_area,
            (ua * gy[:, 0] + ub * gy[:, 1] + uc * gy[:, 2]) / twice_area])


def assemble(mesh: TriMesh) -> tuple[sp.csr_matrix, np.ndarray]:
    """Stiffness matrix and load vector for the constant-load problem.

    Per-triangle exact stiffness for P1 elements, summed per edge of the
    mesh's edge table: the edge opposite node k of a triangle gets the
    weight (g_{k+1} . g_{k+2}) / (2 twice_area) of its node pair.  The
    strict upper triangle U comes straight from the sorted edge keys, and
    K = U + U^T + D, with D minus the row sums of U + U^T since the basis
    functions sum to one.  The load uses one-point quadrature, which is
    exact for the constant right-hand side 2.
    """
    t, n = mesh.triangles, mesh.n_nodes
    twice_area, gx, gy = _p1_basis(mesh.nodes, t)
    gx, gy = gx[:, [1, 2, 0, 1]], gy[:, [1, 2, 0, 1]]  # columns k and k + 1: g_{k+1}, g_{k+2}
    w = (gx[:, :3] * gx[:, 1:] + gy[:, :3] * gy[:, 1:]) / (2.0 * twice_area)[:, None]
    weight = np.bincount(mesh.triangle_edges.ravel(), weights=w.ravel())
    rows, cols = np.divmod(mesh.edges, n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    U = sp.csr_matrix((weight, cols, indptr), shape=(n, n))
    diag = -(np.bincount(rows, weights=weight, minlength=n)
             + np.bincount(cols, weights=weight, minlength=n))
    K = (U + U.T + sp.diags(diag)).tocsr()
    load = np.bincount(t.ravel(), weights=np.repeat(twice_area / 3.0, 3), minlength=n)
    return K, load


def _aggregates(xy: np.ndarray, side: float) -> np.ndarray:
    """Aggregate index of each point of ``xy``: the points of one cell of
    the square grid of this side share an aggregate, numbered in
    row-major cell order.  The grid starts at the points' lower-left
    corner, moved back by ``CELL_SHIFT`` sides."""
    cell = np.floor((xy - xy.min(axis=0)) / side + CELL_SHIFT).astype(np.int64)
    _, agg = np.unique(cell[:, 0] * (cell[:, 1].max() + 1) + cell[:, 1], return_inverse=True)
    return agg


def _hierarchy(A: sp.csr_matrix, xy: np.ndarray, h: float):
    """Smoothed-aggregation levels and the coarsest solve for A.

    The first level aggregates the nodes ``xy`` of A on square cells of
    side 2h, and each next level aggregates the previous level's
    aggregate centroids on cells ``COARSEN`` times wider, until at most
    ``COARSE_SIZE`` unknowns remain.  Returns ``(levels, coarse,
    operator_complexity)``: one ``(A, SMOOTH_OMEGA / diag A, P, R = P^T)``
    per level above the coarsest, finest first; the solve of the coarsest
    level's dense Cholesky factor; and the stored-entry count of every
    level's A, the coarsest included, over that of the first.  Raises
    LinearSolveFailure if the coarsest level is not positive definite.
    """
    levels, nnz, side = [], A.nnz, 2.0 * h
    while A.shape[0] > COARSE_SIZE:
        inv_diag = 1.0 / A.diagonal()
        agg = _aggregates(xy, side)
        n, n_coarse = len(agg), int(agg.max()) + 1
        tentative = sp.csr_matrix((np.ones(n), agg, np.arange(n + 1)), shape=(n, n_coarse))
        jacobi_step = A @ tentative  # scaled in place by PROLONG_OMEGA / diag A, row by row
        jacobi_step.data *= np.repeat(PROLONG_OMEGA * inv_diag, np.diff(jacobi_step.indptr))
        P = tentative - jacobi_step
        R = P.T.tocsr()
        levels.append((A, SMOOTH_OMEGA * inv_diag, P, R))
        A = R @ (A @ P)
        size = np.bincount(agg)
        xy = np.column_stack([np.bincount(agg, weights=c) / size for c in xy.T])
        side *= COARSEN
    try:
        factor = cho_factor(A.toarray())
    except np.linalg.LinAlgError as exc:
        raise LinearSolveFailure("coarsest level is not positive definite") from exc
    complexity = (sum(level[0].nnz for level in levels) + A.nnz) / nnz
    return levels, partial(cho_solve, factor), complexity


def _smooth(A, w, r, x=None):
    """SMOOTH_SWEEPS damped-Jacobi sweeps on A x = r from x (zero if
    None); ``w`` is SMOOTH_OMEGA / diag A."""
    for _ in range(SMOOTH_SWEEPS):
        x = w * r if x is None else x + w * (r - A @ x)
    return x


def _vcycle(levels, coarse, r):
    """One V-cycle on A e = r from e = 0: smooth and restrict down the
    levels, solve the coarsest, then prolong and smooth back up."""
    down = []
    for A, w, P, R in levels:
        x = _smooth(A, w, r)
        down.append((r, x))
        r = R @ (r - A @ x)
    e = coarse(r)
    for (A, w, P, R), (r, x) in zip(reversed(levels), reversed(down)):
        e = _smooth(A, w, r, x + P @ e)
    return e


def _pcg(A, b, precondition, x0=None):
    """Preconditioned conjugate gradients from x0 (zero if None); returns
    (x, iterations).

    Step j moves x by alpha_j p_j and takes exactly alpha_j r_j . z_j off
    the squared energy error ||x* - x||_A^2, so the sum of these terms
    over the last ``ESTIMATE_DELAY`` steps estimates the squared energy
    error of the iterate before them (Hestenes-Stiefel; Strakos & Tichy, ETNA 13,
    2002).  CG stops once that sum is at most ENERGY_BUDGET x . b, a
    ratio without units, or once the residual is at most ENERGY_BUDGET
    ||b||, the floor at which an exact start takes no step and an exact
    preconditioner one.  Raises LinearSolveFailure when ||b|| is not
    finite (it overflows on bodies of extent 1e100), when MAX_CG_ITERS
    iterations do not stop, or when the residual or preconditioned
    residual turns non-finite.
    """
    with np.errstate(over="ignore"):
        floor = ENERGY_BUDGET * np.linalg.norm(b)
    if not np.isfinite(floor):
        raise LinearSolveFailure("load vector norm is not finite")
    if x0 is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = x0.copy()
        r = b - A @ x
    p, rz, iterations, steps = None, 0.0, 0, []
    while not (np.linalg.norm(r) <= floor or (
            len(steps) >= ESTIMATE_DELAY
            and sum(steps[-ESTIMATE_DELAY:]) <= ENERGY_BUDGET * (x @ b))):
        if iterations == MAX_CG_ITERS:
            raise LinearSolveFailure(f"CG hit its cap of {MAX_CG_ITERS} iterations")
        z = precondition(r)
        rz, rz_old = r @ z, rz
        if not np.isfinite(rz):
            raise LinearSolveFailure(f"CG residual turned non-finite at iteration {iterations}")
        p = z if p is None else z + (rz / rz_old) * p
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        steps.append(alpha * rz)
        iterations += 1
    return x, iterations


def _system(mesh: TriMesh):
    """Stiffness K, load b, interior node indices idx and the interior
    matrix K[idx][:, idx] of a mesh."""
    K, b = assemble(mesh)
    idx = np.flatnonzero(~mesh.is_boundary)
    return K, b, idx, K[idx][:, idx]


def _field(mesh, K, b, idx, ui, iterations, precondition, levels, complexity) -> TorsionField:
    """Check an interior solution ui of K[idx][:, idx] u = b[idx] and
    complete it to a TorsionField.

    With r the interior residual of u and M the preconditioner,
    ``cg_error_estimate`` is r . M r / u . b.  Since M approximates the
    inverse of the interior system K, r . M r approximates r . K^-1 r =
    ||u* - u||_K^2, the squared energy error that the CG stop bounds.
    Raises LinearSolveFailure if the estimate is above 10 ENERGY_BUDGET
    and MaximumPrincipleViolation if any interior value is non-positive.
    """
    u = np.zeros(mesh.n_nodes)
    u[idx] = ui
    Ku = K @ u
    reaction = Ku - b
    r = reaction[idx]
    tau_mass = float(u @ b)
    error = float(r @ precondition(r))
    if not error <= 10.0 * ENERGY_BUDGET * tau_mass:
        raise LinearSolveFailure(f"CG energy error {error:.2e} above tolerance")
    if np.any(ui <= 0.0):
        raise MaximumPrincipleViolation(
            f"{int((ui <= 0).sum())} interior nodes with u <= 0")
    tau_energy = 2.0 * tau_mass - float(u @ Ku)
    gap = abs(tau_energy - tau_mass) / tau_energy
    return TorsionField(mesh, u, tau_energy, tau_mass, gap, reaction, iterations,
                        levels, complexity, error / tau_mass)


def solve_torsion(mesh: TriMesh) -> TorsionField:
    """Solve the torsion problem on a mesh.

    The symmetric positive-definite interior system is solved by
    conjugate gradients preconditioned by one smoothed-aggregation
    V-cycle (see the module docstring).  Raises LinearSolveFailure if the
    iteration cap is hit or the final error estimate is above tolerance, and
    MaximumPrincipleViolation if any interior value comes out
    non-positive (a symptom of a bad mesh).  The field keeps the interior
    system's ``(idx, Kii, levels, coarse)`` for ``solve_refined``.
    """
    K, b, idx, Kii = _system(mesh)
    levels, coarse, complexity = _hierarchy(Kii, mesh.nodes[idx], mesh.target_h)
    precondition = partial(_vcycle, levels, coarse)
    ui, iterations = _pcg(Kii, b[idx], precondition)
    field = _field(mesh, K, b, idx, ui, iterations, precondition, len(levels), complexity)
    object.__setattr__(field, "_multigrid", (idx, Kii, levels, coarse))
    return field


def _prolongation(mesh: TriMesh, idx: np.ndarray, fine_idx: np.ndarray) -> sp.csr_matrix:
    """P1 prolongation from the interior nodes ``idx`` of a mesh to the
    interior nodes ``fine_idx`` of ``refine(mesh)``.

    Fine node k < n_nodes is parent node k (weight 1); fine node
    n_nodes + e is the midpoint of parent edge e (weights 1/2 on its two
    ends).  Columns of boundary parents are dropped, since u vanishes
    there.
    """
    n = mesh.n_nodes
    col = np.full(n, -1)
    col[idx] = np.arange(len(idx))
    ends = np.concatenate([np.repeat(np.arange(n), 2),
                           np.column_stack(np.divmod(mesh.edges, n)).ravel()])
    cols = col[ends.reshape(-1, 2)[fine_idx]]
    is_parent = fine_idx < n
    cols[is_parent, 1] = -1
    keep = cols >= 0
    weight = np.broadcast_to(np.where(is_parent, 1.0, 0.5)[:, None], cols.shape)
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix((weight[keep], cols[keep], indptr), shape=(len(fine_idx), len(idx)))


def solve_refined(f: TorsionField) -> TorsionField:
    """Solve the torsion problem on the uniform refinement of a
    ``solve_torsion`` field's mesh.

    The solve builds no aggregation levels: its V-cycle's first level is
    the refined interior system with the geometric prolongation P of
    ``refine``'s numbering (``_prolongation``) and R = P^T, and below it
    run ``f``'s levels and coarsest factor unchanged.  For nested P1
    spaces R K_fine P is the coarse interior system, so this is a
    Galerkin hierarchy.  CG starts from the prolonged solution ``f.u``
    and stops by the same rule as from zero.  The
    refined field's ``levels`` is ``f``'s plus one, its
    ``operator_complexity`` counts the reused levels, and it keeps no
    hierarchy.  Raises InvariantViolation if ``f`` keeps none (it was
    not returned by ``solve_torsion``), and otherwise as
    ``solve_torsion`` does.
    """
    if f._multigrid is None:
        raise InvariantViolation("a refined field keeps no multigrid hierarchy to reuse")
    idx, Kii, levels, coarse = f._multigrid
    fine = refine(f.mesh)
    K, b, fine_idx, Aii = _system(fine)
    P = _prolongation(f.mesh, idx, fine_idx)
    nested = [(Aii, SMOOTH_OMEGA / Aii.diagonal(), P, P.T.tocsr())] + levels
    precondition = partial(_vcycle, nested, coarse)
    ui, iterations = _pcg(Aii, b[fine_idx], precondition, x0=P @ f.u[idx])
    complexity = 1.0 + f.operator_complexity * Kii.nnz / Aii.nnz
    return _field(fine, K, b, fine_idx, ui, iterations, precondition, len(nested), complexity)


def solve_on_polygon(p: Polygon, target_h: float) -> TorsionField:
    """Convenience wrapper: mesh the polygon at spacing target_h, then solve."""
    return solve_torsion(triangulate(p, target_h))


@dataclass(frozen=True)
class ConcavityReport:
    trials: int
    violations: int
    worst_margin: float
    epsilon: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


def check_sqrt_concavity(f: TorsionField, trials: int = 1000,
                         rng_seed: int = 42) -> ConcavityReport:
    """Midpoint-concavity probe of sqrt(u) on random interior segments.

    Draws segment endpoints uniformly in the polygon (triangle-area
    weighted), and checks sqrt(u) at the midpoint against the endpoint
    average with slack 0.02 * max sqrt(u).  u at an endpoint is
    interpolated in the triangle it was drawn from, and each midpoint is
    located by ``TriMesh.barycentric``.  Violations are reported, not
    raised.
    """
    _check_count("trials", trials, 1)
    rng = seeded_rng(rng_seed)
    mesh = f.mesh
    areas = mesh.triangle_areas()
    prob = areas / areas.sum()

    def value(tri, w):  # the P1 interpolant of u at weights w in triangles tri
        return np.einsum("ij,ij->i", f.u[mesh.triangles[tri]], w)

    def sample(n):
        tri = rng.choice(mesh.n_triangles, size=n, p=prob)
        r1, r2 = rng.random(n), rng.random(n)
        s = np.sqrt(r1)
        w = np.column_stack([1.0 - s, s * (1.0 - r2), s * r2])
        return np.einsum("ijk,ij->ik", mesh.nodes[mesh.triangles[tri]], w), value(tri, w)

    (a, ua), (b, ub) = sample(trials), sample(trials)
    um = value(*mesh.barycentric(0.5 * (a + b)))
    wa, wb, wm = np.sqrt(np.clip([ua, ub, um], 0.0, None))
    margin = wm - 0.5 * (wa + wb)
    eps = 0.02 * float(np.sqrt(f.u.max()))
    violations = int(np.sum(margin < -eps))
    return ConcavityReport(trials, violations, float(margin.min()), eps)
