"""Exception hierarchy for the torsion-minkowski package.

The CLI maps these onto exit statuses: validation problems exit 1,
numerical failures exit 2, non-convergence exits 3.  The only linear
solve is the conjugate-gradient torsion solve (LinearSolveFailure); the
boundary flux is read off that solve's nodal reactions, and its one
failure is a reaction of the wrong sign (MaximumPrincipleViolation).
"""


class TorsionMinkowskiError(Exception):
    """Base class for all package errors."""


class InvariantViolation(TorsionMinkowskiError):
    """An input object violates a documented invariant."""


class UnboundedBody(InvariantViolation):
    """Normals do not positively span the plane, so the halfplane
    intersection would be unbounded."""


class EmptyInterior(TorsionMinkowskiError):
    """The halfplane intersection has no interior (zero area)."""


class NegativeScale(InvariantViolation):
    """A dilation factor was negative."""


class MeshTooFine(InvariantViolation):
    """Requested resolution would exceed the mesh node cap."""


class LinearSolveFailure(TorsionMinkowskiError):
    """The conjugate-gradient solve did not reach the requested tolerance,
    or its coarsest multigrid level is not positive definite."""


class MaximumPrincipleViolation(TorsionMinkowskiError):
    """An interior nodal value of the torsion function is non-positive, or
    a boundary node's reaction K u - load is nonnegative; either signals
    a bad mesh."""


class PointOutside(TorsionMinkowskiError):
    """A query point lies outside the meshed polygon."""


class FacetAttributionMissing(TorsionMinkowskiError):
    """The mesh polygon does not carry the facet-to-normal index map
    needed to assemble a measure aligned with a support spec."""


class UnbalanceableMeasure(InvariantViolation):
    """Target weights cannot be balanced within the projection budget."""


class NoConvergence(TorsionMinkowskiError):
    """The inverse solver hit its iteration cap.

    The partial solve report is attached as the ``report`` attribute.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(TorsionMinkowskiError):
    """A problem-spec file is malformed."""
