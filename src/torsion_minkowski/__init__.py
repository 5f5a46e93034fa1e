"""Planar Minkowski problem for torsional rigidity.

Support-function calculus over convex polygons, a P1 solver for the
torsion boundary-value problem, boundary recovery of the torsion
measure, an inverse solver matching a prescribed balanced measure, and a
verification suite for the identities tying them together.
"""

from .boundary_measure import (
    HadamardReport,
    SurfaceMeasure,
    boundary_flux,
    facet_measure,
    hadamard_fd_check,
    mixed_torsion,
    representation_residual,
    torsion_measure,
)
from .errors import (
    EmptyInterior,
    FacetAttributionMissing,
    InvariantViolation,
    LinearSolveFailure,
    MaximumPrincipleViolation,
    MeshTooFine,
    NegativeScale,
    NoConvergence,
    ParseError,
    PointOutside,
    TorsionMinkowskiError,
    UnbalanceableMeasure,
    UnboundedBody,
)
from .mesh import TriMesh, check_mesh, refine, triangulate
from .minkowski_solver import (
    ObjectiveEval,
    SolveOptions,
    SolveReport,
    TargetMeasure,
    UniquenessReport,
    objective,
    project_balance,
    solve_minkowski,
    uniqueness_probe,
)
from .support_geometry import (
    Polygon,
    PolygonMetrics,
    SupportSpec,
    angles_to_normals,
    build_polytope,
    hausdorff_distance,
    metrics,
    minkowski_sum,
    polygon_to_dict,
    regular_polygon,
    scale,
    steiner_point,
    support_spec_of,
    support_values,
    translate,
)
from .torsion_fem import (
    ConcavityReport,
    TorsionField,
    check_sqrt_concavity,
    solve_on_polygon,
    solve_torsion,
)
from .verify_suite import (
    CheckReport,
    brunn_minkowski_check,
    continuity_check,
    homogeneity_check,
    is_homothetic,
    polygon_corpus,
    run_verify_corpus,
)
