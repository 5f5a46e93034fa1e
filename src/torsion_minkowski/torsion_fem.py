"""P1 finite-element solver for the torsion boundary-value problem.

Solves the Poisson problem with constant load 2 and zero boundary values
on a triangulated convex polygon, and evaluates the torsional rigidity
two ways: as the Dirichlet energy u . K u of the discrete solution and as
twice its integral, the mass estimator u . load (the load vector holds
each node's share of the integral of the constant 2).  The two agree up
to the linear-solver tolerance (they are algebraically identical for a
Galerkin solution), so their gap is an a-posteriori check on the linear
algebra, reported on the field.  The field also keeps the nodal reaction
K u - load, which is zero at interior nodes up to the solver tolerance and
carries the boundary flux at boundary nodes.

The interior system is solved by preconditioned conjugate gradients with
the fixed settings ``LINEAR_TOL`` and ``MAX_CG_ITERS``.  The preconditioner
is one symmetric V-cycle of smoothed-aggregation multigrid (Vanek, Mandel
& Brezina, Computing 56, 1996), built from the interior nodes' coordinates:
the aggregates of level k are the cells of a square grid of side
2^k target_h, the tentative piecewise-constant prolongation is smoothed by
one damped-Jacobi step, coarse operators are Galerkin products P^T A P, and
the coarsest level, of at most ``COARSE_SIZE`` unknowns, is factorised.
A system that small gets no levels, so the V-cycle is its exact solve and
CG stops after one iteration.  The iteration count stays flat as the mesh
is refined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import LinearSolveFailure, MaximumPrincipleViolation, PointOutside
from .mesh import TriMesh, _p1_basis, triangulate
from .support_geometry import Polygon, _check_trials, seeded_rng

LINEAR_TOL = 1e-10  # relative CG residual tolerance
MAX_CG_ITERS = 50_000
COARSE_SIZE = 400  # coarsening stops at this many unknowns; the coarsest level is factorised
PROLONG_OMEGA = 2.0 / 3.0  # damping of the Jacobi step that smooths the prolongation
SMOOTH_OMEGA = 0.6  # damping of the V-cycle's Jacobi sweeps
SMOOTH_SWEEPS = 2  # Jacobi sweeps before and after each coarse correction


@dataclass
class TorsionField:
    """Mesh, nodal solution, nodal reaction K u - load, rigidity values and
    CG iteration count of one torsion solve."""

    mesh: TriMesh
    u: np.ndarray
    tau_energy: float
    tau_mass: float
    estimator_gap: float
    reaction: np.ndarray = field(repr=False)
    cg_iterations: int
    _tri_grads: np.ndarray | None = field(default=None, init=False, repr=False)

    def triangle_gradients(self) -> np.ndarray:
        """Piecewise-constant gradient of u, one row per triangle."""
        if self._tri_grads is None:
            twice_area, gx, gy = _p1_basis(self.mesh.nodes, self.mesh.triangles)
            ua, ub, uc = self.u[self.mesh.triangles].T
            self._tri_grads = np.column_stack([
                (ua * gx[:, 0] + ub * gx[:, 1] + uc * gx[:, 2]) / twice_area,
                (ua * gy[:, 0] + ub * gy[:, 1] + uc * gy[:, 2]) / twice_area])
        return self._tri_grads

    def interpolate(self, points) -> np.ndarray:
        """P1 interpolation of u at interior query points."""
        tri_idx, w = self.mesh.barycentric(points)
        return np.einsum("ij,ij->i", self.u[self.mesh.triangles[tri_idx]], w)


def assemble(mesh: TriMesh) -> tuple[sp.csr_matrix, np.ndarray]:
    """Stiffness matrix and load vector for the constant-load problem.

    Per-triangle exact stiffness for P1 elements; the load uses one-point
    quadrature, which is exact for the constant right-hand side 2.
    """
    t = mesh.triangles
    twice_area, gx, gy = _p1_basis(mesh.nodes, t)
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(t[:, i])
            cols.append(t[:, j])
            vals.append((gx[:, i] * gx[:, j] + gy[:, i] * gy[:, j]) / (2.0 * twice_area))
    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_nodes, mesh.n_nodes),
    ).tocsr()
    load = np.zeros(mesh.n_nodes)
    np.add.at(load, t.ravel(), np.repeat(twice_area / 3.0, 3))
    return K, load


def _hierarchy(A: sp.csr_matrix, xy: np.ndarray, h: float):
    """Smoothed-aggregation levels and the coarsest solve for A.

    Returns ``(levels, coarse)``: one ``(A, SMOOTH_OMEGA / diag A, P)`` per level
    above the coarsest, finest first, and the solve of the coarsest level's
    LU factor.
    """
    levels = []
    origin, side = xy.min(axis=0), h
    while A.shape[0] > COARSE_SIZE:
        inv_diag = 1.0 / A.diagonal()
        side *= 2.0
        cell = np.floor((xy - origin) / side).astype(np.int64)
        _, agg = np.unique(cell[:, 0] * (cell[:, 1].max() + 1) + cell[:, 1],
                           return_inverse=True)
        n, n_coarse = len(agg), int(agg.max()) + 1
        tentative = sp.csr_matrix((np.ones(n), agg, np.arange(n + 1)), shape=(n, n_coarse))
        jacobi_step = A @ tentative  # scaled in place by PROLONG_OMEGA / diag A, row by row
        jacobi_step.data *= np.repeat(PROLONG_OMEGA * inv_diag, np.diff(jacobi_step.indptr))
        P = tentative - jacobi_step
        levels.append((A, SMOOTH_OMEGA * inv_diag, P))
        A = P.T.tocsr() @ (A @ P)
        size = np.bincount(agg)
        xy = np.column_stack([np.bincount(agg, weights=c) / size for c in xy.T])
    return levels, splu(A.tocsc()).solve


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
    for A, w, P in levels:
        x = _smooth(A, w, r)
        down.append((r, x))
        r = P.T @ (r - A @ x)
    e = coarse(r)
    for (A, w, P), (r, x) in zip(reversed(levels), reversed(down)):
        e = _smooth(A, w, r, x + P @ e)
    return e


def _pcg(A, b, precondition):
    """Preconditioned conjugate gradients from x = 0 to the relative
    residual LINEAR_TOL; returns (x, iterations).  Raises
    LinearSolveFailure when MAX_CG_ITERS iterations do not reach it or
    the residual or preconditioned residual turns non-finite."""
    x = np.zeros_like(b)
    r = b.copy()
    p, rz, iterations = None, 0.0, 0
    stop = LINEAR_TOL * np.linalg.norm(b)
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


def solve_torsion(mesh: TriMesh) -> TorsionField:
    """Solve the torsion problem on a mesh.

    The symmetric positive-definite interior system is solved by
    conjugate gradients preconditioned by one smoothed-aggregation
    V-cycle (see the module docstring).  Raises LinearSolveFailure if the
    iteration cap is hit or the final residual is above tolerance, and
    MaximumPrincipleViolation if any interior value comes out
    non-positive (a symptom of a bad mesh).
    """
    K, b = assemble(mesh)
    idx = np.flatnonzero(~mesh.is_boundary)
    Kii = K[idx][:, idx]
    bi = b[idx]
    levels, coarse = _hierarchy(Kii, mesh.nodes[idx], mesh.target_h)
    ui, iterations = _pcg(Kii, bi, lambda r: _vcycle(levels, coarse, r))
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
    return TorsionField(mesh, u, tau_energy, tau_mass, gap, Ku - b, iterations)


def solve_on_polygon(p: Polygon, target_h: float) -> TorsionField:
    """Convenience wrapper: mesh the polygon at spacing target_h, then solve."""
    return solve_torsion(triangulate(p, target_h))


def gradient_at(f: TorsionField, x) -> np.ndarray:
    """Piecewise-constant gradient of the containing triangle."""
    x = np.asarray(x, dtype=float)
    tri_idx = f.mesh.locate(x[None, :])[0]
    if tri_idx < 0:
        raise PointOutside(f"point {x.tolist()} is outside the meshed polygon")
    return f.triangle_gradients()[tri_idx]


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
    _check_trials(trials)
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
    mid = 0.5 * (a + b)
    wa = np.sqrt(np.clip(f.interpolate(a), 0.0, None))
    wb = np.sqrt(np.clip(f.interpolate(b), 0.0, None))
    wm = np.sqrt(np.clip(f.interpolate(mid), 0.0, None))
    margin = wm - 0.5 * (wa + wb)
    eps = 0.02 * float(np.sqrt(f.u.max()))
    violations = int(np.sum(margin < -eps))
    return ConcavityReport(trials, violations, float(margin.min()), eps)
