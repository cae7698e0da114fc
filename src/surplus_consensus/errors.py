"""Exception types shared across the package, and the parameter check they share."""

import math


class ConsensusError(Exception):
    """Base class for all package errors."""


class GraphFormatError(ConsensusError):
    """Malformed graph file (bad header, field, or index)."""


class InvalidEdge(ConsensusError):
    """Edge endpoint out of range."""


class SelfLoopRejected(ConsensusError):
    """Self-loops are excluded by the graph model."""


class InvalidParameter(ConsensusError):
    """Parameter outside its admissible domain (e.g. negative epsilon)."""


class PreconditionViolated(ConsensusError):
    """Operation called on an input that fails its stated precondition."""


class NotStronglyConnected(PreconditionViolated):
    """The graph is not strongly connected, the precondition of the analysis."""


class NumericalFailure(ConsensusError):
    """Iteration or eigensolver did not converge to the required residual."""


class NoAdmissibleEpsilon(ConsensusError):
    """No grid point yields a stable augmented system."""


class InvalidConfig(ConsensusError):
    """Simulation configuration violates its invariants."""


def require_non_negative(name, values):
    """Raise InvalidParameter naming the first negative or non-finite entry of values."""
    for v in values:
        if v < 0:
            raise InvalidParameter("%s must be non-negative, got %r" % (name, float(v)))
        if not math.isfinite(v):
            raise InvalidParameter("%s must be finite, got %r" % (name, float(v)))
