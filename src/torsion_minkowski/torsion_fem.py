"""P1 finite-element solver for the torsion boundary-value problem.

Solves the Poisson problem with constant load 2 and zero boundary values
on a triangulated convex polygon, and evaluates the torsional rigidity
two ways: as the Dirichlet energy u . K u of the discrete solution and as
twice its integral, the mass estimator u . load (the load vector holds
each node's share of the integral of the constant 2).  The two agree up
to the linear-solver tolerance (they are algebraically identical for a
Galerkin solution), so their gap is an a-posteriori check on the linear
algebra, reported on the field.

The interior system is solved by Jacobi-preconditioned conjugate
gradients with the fixed settings ``LINEAR_TOL`` and ``MAX_CG_ITERS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg

from .errors import LinearSolveFailure, MaximumPrincipleViolation, PointOutside
from .mesh import TriMesh, _p1_basis, triangulate
from .support_geometry import Polygon, seeded_rng

LINEAR_TOL = 1e-10  # relative CG residual tolerance
MAX_CG_ITERS = 50_000


@dataclass
class TorsionField:
    """Mesh, nodal solution and rigidity values of one torsion solve."""

    mesh: TriMesh
    u: np.ndarray
    tau_energy: float
    tau_mass: float
    estimator_gap: float
    stiffness: sp.csr_matrix = field(repr=False)
    load: np.ndarray = field(repr=False)
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


def solve_torsion(mesh: TriMesh) -> TorsionField:
    """Solve the torsion problem on a mesh.

    The symmetric positive-definite interior system is solved by
    conjugate gradients with diagonal preconditioning.  Raises
    LinearSolveFailure if the iteration cap is hit and
    MaximumPrincipleViolation if any interior value comes out
    non-positive (a symptom of a bad mesh).
    """
    K, b = assemble(mesh)
    interior = ~mesh.is_boundary
    idx = np.flatnonzero(interior)
    Kii = K[idx][:, idx]
    bi = b[idx]
    diag = Kii.diagonal()
    M = sp.diags(1.0 / diag)
    ui, info = cg(Kii, bi, rtol=LINEAR_TOL, atol=0.0, maxiter=MAX_CG_ITERS, M=M)
    if info != 0:
        raise LinearSolveFailure(f"CG returned info={info} after cap {MAX_CG_ITERS}")
    resid = np.linalg.norm(Kii @ ui - bi)
    if resid > 10.0 * LINEAR_TOL * np.linalg.norm(bi):
        raise LinearSolveFailure(f"CG residual {resid:.2e} above tolerance")
    if np.any(ui <= 0.0):
        raise MaximumPrincipleViolation(
            f"{int((ui <= 0).sum())} interior nodes with u <= 0")
    u = np.zeros(mesh.n_nodes)
    u[idx] = ui

    tau_energy = float(u @ (K @ u))
    tau_mass = float(u @ b)
    gap = abs(tau_energy - tau_mass) / tau_energy
    return TorsionField(mesh, u, tau_energy, tau_mass, gap, K, b)


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
