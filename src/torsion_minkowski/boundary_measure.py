"""Boundary flux recovery and the torsion measure.

The normal derivative of the torsion function is recovered at each
boundary node as the node's reaction K u - load over its lumped boundary
mass, half the length of each adjacent boundary edge.  A boundary node's
reaction is the sum of K_ij u_j over its interior neighbours j, minus
its positive load share.  On the Delaunay meshes ``triangulate`` builds,
every off-diagonal stiffness entry is nonpositive and u > 0 inside, so
every boundary reaction is negative.  ``refine`` does not keep the
Delaunay property: the two children that share a midpoint edge inside a
parent with an obtuse angle both face it with that angle, and their
stiffness entry is positive.  So the sign is an invariant that
``boundary_flux`` checks rather than one it assumes: a reaction >= 0
raises MaximumPrincipleViolation.  Since K 1 = 0 and the load sums to
twice the area, the trapezoidal boundary integral of the flux is twice
the area plus the sum of the interior reactions, which is the divergence
theorem up to the CG error (at most 1e-8 relative on the test corpus).

The squared flux integrated facet by facet (trapezoidal in g^2) gives
the per-normal weights of the torsion measure; corner nodes contribute
half an edge to each adjacent facet, which is what the trapezoidal rule
does on its own.

On top of the measure sit the mixed rigidity pairing, the residual of
the representation identity tau = (1/4) * sum h_i mu_i, and a
finite-difference probe of the Hadamard derivative formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FacetAttributionMissing, InvariantViolation, MaximumPrincipleViolation
from .mesh import triangulate
from .support_geometry import (
    Polygon,
    SupportSpec,
    _own,
    build_polytope,
    minkowski_sum,
    scale,
    support_values,
)
from .torsion_fem import TorsionField, solve_refined, solve_torsion

CLOSURE_BUDGET = 0.02  # relative first-moment defect allowed for a measure


@dataclass(frozen=True)
class SurfaceMeasure:
    """Per-normal weights approximating the torsion measure.

    ``normals`` are unit directions, index-aligned with the generating
    support spec when one is supplied; weights are nonnegative and carry
    length-cubed units in the plane.  Both arrays are read-only copies of
    the constructor's arguments.
    """

    normals: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        normals = np.asarray(self.normals, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (len(normals),):
            raise InvariantViolation("one weight per normal required")
        if not np.all(np.isfinite(weights) & (weights >= 0.0)):  # NaN fails too
            raise InvariantViolation("measure weights must be finite and nonnegative")
        _own(self, normals=normals, weights=weights)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def closure_defect(self) -> float:
        """|sum mu_i X_i| relative to the total mass."""
        return float(np.hypot(*(self.weights @ self.normals)) / self.total_mass)

    def validate(self, budget: float = CLOSURE_BUDGET) -> "SurfaceMeasure":
        if not self.total_mass > 0.0:
            raise InvariantViolation("measure total mass must be positive")
        if self.closure_defect > budget:
            raise InvariantViolation(
                f"measure closure defect {self.closure_defect:.3%} exceeds {budget:.1%}")
        return self

    def to_dict(self) -> dict:
        return {"normals": self.normals.tolist(), "weights": self.weights.tolist()}


def boundary_flux(f: TorsionField) -> np.ndarray:
    """Magnitude of the boundary normal derivative, per mesh node.

    Each boundary node's reaction K u - load is divided by its lumped
    boundary mass, half the length of each adjacent boundary edge; the
    reaction approximates the integral of du/dnu < 0 over that share.
    The returned array stores the magnitude (zero at interior nodes).
    Raises MaximumPrincipleViolation if any boundary reaction is >= 0
    (see the module docstring).
    """
    mesh = f.mesh
    share = np.bincount(mesh.boundary_edges.ravel(), minlength=mesh.n_nodes,
                        weights=np.repeat(0.5 * mesh.boundary_edge_lengths, 2))
    out = np.zeros(mesh.n_nodes)
    bidx = mesh.boundary_node_ids
    reaction = f.reaction[bidx]
    if not np.all(reaction < 0.0):  # NaN fails too
        raise MaximumPrincipleViolation(
            f"{int((~(reaction < 0.0)).sum())} boundary nodes with reaction K u - load >= 0")
    out[bidx] = -reaction / share[bidx]
    return out


def _facet_weights(f: TorsionField) -> np.ndarray:
    """Trapezoidal integral of flux^2 along each polygon facet."""
    mesh = f.mesh
    g2 = boundary_flux(f) ** 2
    contrib = 0.5 * mesh.boundary_edge_lengths * (
        g2[mesh.boundary_edges[:, 0]] + g2[mesh.boundary_edges[:, 1]])
    weights = np.zeros(len(mesh.polygon))
    np.add.at(weights, mesh.boundary_facets, contrib)
    return weights


def facet_measure(f: TorsionField) -> SurfaceMeasure:
    """Torsion measure on the mesh polygon's own facet normals."""
    weights = _facet_weights(f)
    return SurfaceMeasure(f.mesh.polygon.facet_normals, weights).validate()


def torsion_measure(f: TorsionField, spec: SupportSpec,
                    budget: float = CLOSURE_BUDGET) -> SurfaceMeasure:
    """Torsion measure with weights aligned to the spec's normal fan.

    The mesh polygon must have been produced by ``build_polytope(spec)``
    so its facets carry source indices; inactive constraints get weight
    zero, keeping the vector dimension fixed for the optimizer.
    """
    src = f.mesh.polygon.source_index
    if src is None:
        raise FacetAttributionMissing(
            "mesh polygon carries no constraint indices; build it via build_polytope")
    per_facet = _facet_weights(f)
    weights = np.zeros(len(spec))
    np.add.at(weights, src, per_facet)
    return SurfaceMeasure(spec.normals, weights).validate(budget)


def mixed_torsion(mu: SurfaceMeasure, h_prime: Polygon) -> float:
    """Mixed rigidity pairing: sum of h'(X_i) * mu_i, with h' the exact
    support function of the polygon ``h_prime``."""
    return float(support_values(h_prime, mu.normals) @ mu.weights)


def representation_residual(f: TorsionField, spec: SupportSpec,
                            mu: SurfaceMeasure) -> float:
    """Relative defect of tau = (1/4) sum h_i mu_i on a consistent triple."""
    rep = 0.25 * float(spec.values @ mu.weights)
    return abs(f.tau_energy - rep) / f.tau_energy


def _tau_refined(p: Polygon, target_h: float):
    """Richardson-extrapolated rigidity from one uniform refinement.

    Returns (tau_extrapolated, fine field).  The energy
    converges as O(h^2) on the nested pair, so the extrapolation knocks
    the error down by roughly two more orders; the finite-difference
    Hadamard probe needs that accuracy because it divides tau
    differences by small step sizes.  ``solve_refined`` solves the
    refinement on the mesh solve's field: its multigrid has the mesh
    itself as its first coarse level, reusing the mesh solve's levels
    below it, and its CG starts from the mesh solution interpolated at
    the edge midpoints.
    """
    coarse = solve_torsion(triangulate(p, target_h))
    fine = solve_refined(coarse)
    tau = (4.0 * fine.tau_energy - coarse.tau_energy) / 3.0
    return tau, fine


@dataclass(frozen=True)
class HadamardReport:
    s_values: np.ndarray
    fd_quotients: np.ndarray
    predicted_slope: float
    mismatches: np.ndarray
    extrapolated_quotient: float
    extrapolated_mismatch: float
    cg_iterations: tuple[int, ...]  # refined solves: the body, then each s
    cg_error_estimate: tuple[float, ...] = ()  # the same solves' TorsionField.cg_error_estimate

    def __post_init__(self):
        _own(self, s_values=self.s_values, fd_quotients=self.fd_quotients,
             mismatches=self.mismatches)

    @property
    def monotone_tail(self) -> bool:
        """Mismatch shrinks between the two smallest step sizes."""
        if len(self.mismatches) < 2:
            return True
        return bool(self.mismatches[-1] <= self.mismatches[-2])


def hadamard_fd_check(spec: SupportSpec, spec_prime: SupportSpec,
                      s_values, mesh_h: float) -> HadamardReport:
    """Finite-difference probe of the Hadamard derivative formula.

    Compares quotients (tau(body + s * body') - tau(body)) / s against
    the predicted slope sum h'(X_i) mu_i, using Richardson-extrapolated
    rigidities and a measure computed on a refined mesh.  ``mesh_h`` is
    an absolute mesh spacing, and ``s_values`` a nonempty, positive,
    decreasing 1-D sequence.  The two smallest steps also give a linear
    extrapolation of the quotient to s = 0.
    """
    s_values = np.asarray(s_values, dtype=float)
    if (s_values.ndim != 1 or len(s_values) == 0 or not np.all(s_values > 0)
            or not np.all(np.diff(s_values) < 0)):
        raise InvariantViolation("s_values must be a nonempty, positive, decreasing list")
    body = build_polytope(spec)
    body_prime = build_polytope(spec_prime)
    tau0, fine = _tau_refined(body, mesh_h)
    mu = facet_measure(fine)
    predicted = mixed_torsion(mu, body_prime)
    quotients, fines = [], [fine]
    for s in s_values:
        summed = minkowski_sum(body, scale(body_prime, float(s)))
        tau_s, fine_s = _tau_refined(summed, mesh_h)
        quotients.append((tau_s - tau0) / s)
        fines.append(fine_s)
    quotients = np.asarray(quotients)
    mismatches = np.abs(quotients - predicted) / abs(predicted)
    if len(s_values) >= 2:
        s1, s2 = s_values[-2], s_values[-1]
        q1, q2 = quotients[-2], quotients[-1]
        q0 = (s1 * q2 - s2 * q1) / (s1 - s2)
    else:
        q0 = quotients[-1]
    return HadamardReport(
        s_values=s_values,
        fd_quotients=quotients,
        predicted_slope=predicted,
        mismatches=mismatches,
        extrapolated_quotient=q0,
        extrapolated_mismatch=abs(q0 - predicted) / abs(predicted),
        cg_iterations=tuple(f.cg_iterations for f in fines),
        cg_error_estimate=tuple(f.cg_error_estimate for f in fines),
    )
