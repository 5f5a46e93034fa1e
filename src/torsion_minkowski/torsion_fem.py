"""P1 finite-element solver for the torsion boundary-value problem.

Solves the Poisson problem with constant load 2 and zero boundary values
on a triangulated convex polygon, and evaluates the torsional rigidity
two ways: as the Dirichlet energy u . K u of the discrete solution and as
twice its integral, the mass estimator u . load (the load vector holds
each node's share of the integral of the constant 2).  Their gap is no
check on the linear algebra: CG started from zero keeps
u . (K u - load) = 0 up to roundoff, since each iterate lies in the
Krylov space its residual is orthogonal to, so the gap stays near 1e-15
however far the residual is from the tolerance (from ``solve_nested``'s
nonzero start it is a weak proxy at best).  The check is the residual
test every solve ends with (``_field``); the mass estimator and the gap
stay on the field because the benchmark reads the gap.  The field also
keeps the nodal reaction K u - load, which is zero at interior nodes up
to the solver tolerance and carries the boundary flux at boundary nodes.

The interior system is solved by preconditioned conjugate gradients with
the fixed settings ``LINEAR_TOL`` and ``MAX_CG_ITERS``.  The preconditioner
is one symmetric V-cycle of smoothed-aggregation multigrid (Vanek, Mandel
& Brezina, Computing 56, 1996), built from the interior nodes' coordinates:
the aggregates of the first level are the cells of a square grid of side
2 target_h, and each coarser level's cells are ``COARSEN`` times wider; the
tentative piecewise-constant prolongation P is smoothed by one
damped-Jacobi step, coarse operators are Galerkin products R A P with the
restriction R = P^T kept per level, and the coarsest level, of at most
``COARSE_SIZE`` unknowns, is factorised by dense Cholesky.  A system that
small gets no levels, so the V-cycle is its exact solve and CG stops after
one iteration.  The iteration count stays flat as the mesh is refined.

``solve_nested`` solves a mesh and then its uniform refinement (the
Hadamard check's Richardson pair) without aggregating the refined mesh.
The refined V-cycle's first level prolongs by the P1 interpolation of
``refine``'s numbering (a parent node keeps its value, an edge midpoint
takes the mean of its ends), restricted to interior nodes; since the
spaces are nested, R K_fine P is the mesh's own interior system, so the
mesh solve's levels and Cholesky factor serve unchanged below it.  CG
starts from the prolonged mesh solution and stops at the same residual
LINEAR_TOL ||b|| as from zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from .errors import LinearSolveFailure, MaximumPrincipleViolation
from .mesh import TriMesh, _p1_basis, refine, triangulate
from .support_geometry import Polygon, _check_count, _own, seeded_rng

LINEAR_TOL = 1e-10  # relative CG residual tolerance
# The most iterations measured is 16, over 545 solves: 109 bodies (two
# 50-member corpora, 8 sliver sums, a 64-gon) meshed at 0.04, 0.02 and
# 0.01 R, plus the refinements of the first two; up to 50k unknowns.
MAX_CG_ITERS = 200
COARSE_SIZE = 400  # coarsening stops at this many unknowns; the coarsest level is factorised
# Aggregate side ratio between levels above the first.  The first level's
# cells, of side 2 target_h, hold about 6.4 lattice nodes: a node and its
# neighbours.  Doubling the side again at coarser levels lets the smoothed
# stencils grow (13 -> 31 -> 66 -> 96 nonzeros per row on a 50k-unknown
# mesh); tripling keeps the operator complexity near 1.35.
COARSEN = 3.0
PROLONG_OMEGA = 2.0 / 3.0  # damping of the Jacobi step that smooths the prolongation
SMOOTH_OMEGA = 0.6  # damping of the V-cycle's Jacobi sweeps
SMOOTH_SWEEPS = 2  # Jacobi sweeps before and after each coarse correction


@dataclass(frozen=True)
class TorsionField:
    """Mesh, nodal solution, nodal reaction K u - load, rigidity values,
    CG iteration count and multigrid shape of one torsion solve.

    ``tau_energy`` is the rigidity.  ``tau_mass`` and their relative gap
    ``estimator_gap`` are kept for the benchmark only: the gap is
    roundoff whatever the CG residual (see the module docstring).
    ``levels`` counts the multigrid levels above the coarsest, and
    ``operator_complexity`` is the stored-entry count of all level
    operators, the coarsest included, over that of the interior system.
    ``u`` and ``reaction`` are read-only copies of the constructor's
    arguments.
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

    def __post_init__(self):
        _own(self, u=self.u, reaction=self.reaction)

    def triangle_gradients(self) -> np.ndarray:
        """Piecewise-constant gradient of u, one row per triangle."""
        twice_area, gx, gy = _p1_basis(self.mesh.nodes, self.mesh.triangles)
        ua, ub, uc = self.u[self.mesh.triangles].T
        return np.column_stack([
            (ua * gx[:, 0] + ub * gx[:, 1] + uc * gx[:, 2]) / twice_area,
            (ua * gy[:, 0] + ub * gy[:, 1] + uc * gy[:, 2]) / twice_area])

    def interpolate(self, points) -> np.ndarray:
        """P1 interpolation of u at interior query points."""
        tri_idx, w = self.mesh.barycentric(points)
        return np.einsum("ij,ij->i", self.u[self.mesh.triangles[tri_idx]], w)


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
    levels, nnz = [], A.nnz
    origin, side = xy.min(axis=0), 2.0 * h
    while A.shape[0] > COARSE_SIZE:
        inv_diag = 1.0 / A.diagonal()
        cell = np.floor((xy - origin) / side).astype(np.int64)
        _, agg = np.unique(cell[:, 0] * (cell[:, 1].max() + 1) + cell[:, 1],
                           return_inverse=True)
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
    """Preconditioned conjugate gradients from x0 (zero if None) to the
    residual LINEAR_TOL ||b||; returns (x, iterations).  Raises
    LinearSolveFailure when b is not finite, when MAX_CG_ITERS iterations
    do not reach the tolerance, or when the residual or preconditioned
    residual turns non-finite."""
    stop = LINEAR_TOL * np.linalg.norm(b)
    if not np.isfinite(stop):
        raise LinearSolveFailure("load vector is not finite")
    if x0 is None:
        x, r = np.zeros_like(b), b.copy()
    else:
        x = x0.copy()
        r = b - A @ x
    p, rz, iterations = None, 0.0, 0
    while not np.linalg.norm(r) <= stop:
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
        iterations += 1
    return x, iterations


def _system(mesh: TriMesh):
    """Stiffness K, load b, interior node indices idx and the interior
    matrix K[idx][:, idx] of a mesh."""
    K, b = assemble(mesh)
    idx = np.flatnonzero(~mesh.is_boundary)
    return K, b, idx, K[idx][:, idx]


def _field(mesh, K, b, idx, Kii, ui, iterations, levels, complexity) -> TorsionField:
    """Check an interior solution ui of Kii u = b[idx] and complete it to
    a TorsionField.  Raises LinearSolveFailure if the residual is above
    10 LINEAR_TOL ||b[idx]|| and MaximumPrincipleViolation if any interior
    value is non-positive."""
    bi = b[idx]
    resid = np.linalg.norm(Kii @ ui - bi)
    if not resid <= 10.0 * LINEAR_TOL * np.linalg.norm(bi):
        raise LinearSolveFailure(f"CG residual {resid:.2e} above tolerance")
    if np.any(ui <= 0.0):
        raise MaximumPrincipleViolation(
            f"{int((ui <= 0).sum())} interior nodes with u <= 0")
    u = np.zeros(mesh.n_nodes)
    u[idx] = ui

    Ku = K @ u
    tau_energy = float(u @ Ku)
    tau_mass = float(u @ b)
    gap = abs(tau_energy - tau_mass) / tau_energy
    return TorsionField(mesh, u, tau_energy, tau_mass, gap, Ku - b, iterations,
                        levels, complexity)


def solve_torsion(mesh: TriMesh) -> TorsionField:
    """Solve the torsion problem on a mesh.

    The symmetric positive-definite interior system is solved by
    conjugate gradients preconditioned by one smoothed-aggregation
    V-cycle (see the module docstring).  Raises LinearSolveFailure if the
    iteration cap is hit or the final residual is above tolerance, and
    MaximumPrincipleViolation if any interior value comes out
    non-positive (a symptom of a bad mesh).
    """
    return _solve(mesh)[0]


def _solve(mesh: TriMesh):
    """``solve_torsion``'s solve; returns the field and the interior
    system's ``(idx, Kii, levels, coarse)``."""
    K, b, idx, Kii = _system(mesh)
    levels, coarse, complexity = _hierarchy(Kii, mesh.nodes[idx], mesh.target_h)
    ui, iterations = _pcg(Kii, b[idx], lambda r: _vcycle(levels, coarse, r))
    field = _field(mesh, K, b, idx, Kii, ui, iterations, len(levels), complexity)
    return field, (idx, Kii, levels, coarse)


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


def solve_nested(mesh: TriMesh) -> tuple[TorsionField, TorsionField]:
    """Solve the torsion problem on a mesh and on its uniform refinement.

    The first solve is ``solve_torsion(mesh)``.  The second builds no
    aggregation levels: its V-cycle's first level is the refined
    interior system with the geometric prolongation P of ``refine``'s
    numbering (``_prolongation``) and R = P^T, and below it run the
    first solve's levels and coarsest factor unchanged.  For nested P1
    spaces R K_fine P is the coarse interior system, so this is a
    Galerkin hierarchy.  CG starts from the prolonged coarse solution
    and stops at the same residual LINEAR_TOL ||b|| as from zero.
    Returns (coarse field, fine field); the fine field's ``levels`` is
    the coarse field's plus one, and its ``operator_complexity`` counts
    the reused levels.  Raises as ``solve_torsion`` does.
    """
    first, (idx, Kii, levels, coarse) = _solve(mesh)
    fine = refine(mesh)
    K, b, fine_idx, Aii = _system(fine)
    P = _prolongation(mesh, idx, fine_idx)
    nested = [(Aii, SMOOTH_OMEGA / Aii.diagonal(), P, P.T.tocsr())] + levels
    ui, iterations = _pcg(Aii, b[fine_idx], lambda r: _vcycle(nested, coarse, r),
                          x0=P @ first.u[idx])
    complexity = 1.0 + first.operator_complexity * Kii.nnz / Aii.nnz
    second = _field(fine, K, b, fine_idx, Aii, ui, iterations, len(nested), complexity)
    return first, second


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
    average with slack 0.02 * max sqrt(u).  Violations are reported, not
    raised.
    """
    _check_count("trials", trials, 1)
    rng = seeded_rng(rng_seed)
    mesh = f.mesh
    areas = mesh.triangle_areas()
    prob = areas / areas.sum()

    def sample(n):
        tri = rng.choice(mesh.n_triangles, size=n, p=prob)
        r1, r2 = rng.random(n), rng.random(n)
        s = np.sqrt(r1)
        w = np.column_stack([1.0 - s, s * (1.0 - r2), s * r2])
        pts = np.einsum("ijk,ij->ik", mesh.nodes[mesh.triangles[tri]], w)
        return pts

    a, b = sample(trials), sample(trials)
    w = np.sqrt(np.clip(f.interpolate(np.vstack([a, b, 0.5 * (a + b)])), 0.0, None))
    wa, wb, wm = w.reshape(3, trials)
    margin = wm - 0.5 * (wa + wb)
    eps = 0.02 * float(np.sqrt(f.u.max()))
    violations = int(np.sum(margin < -eps))
    return ConcavityReport(trials, violations, float(margin.min()), eps)
