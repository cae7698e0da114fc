"""Exception types shared across the package, and the parameter check they share."""

import math


class ConsensusError(Exception):
    """Base class for all package errors."""


class GraphFormatError(ConsensusError):
    """Graph file that is malformed (bad header, field, or index) or cannot be opened."""


class InvalidParameter(ConsensusError):
    """A value outside its admissible domain: a negative epsilon, a delay that is
    not positive, a simulation setting that breaks SimConfig's invariants, a
    self-loop, an edge endpoint outside 1..n or a node count below 1 or above
    graph.MAX_NODES."""


class PreconditionViolated(ConsensusError):
    """Operation called on an input that fails its stated precondition."""


class NotStronglyConnected(PreconditionViolated):
    """The graph is not strongly connected, the precondition of the analysis."""


class NumericalFailure(ConsensusError):
    """Iteration or eigensolver did not converge to the required residual."""


class NoAdmissibleEpsilon(ConsensusError):
    """No grid point yields a stable augmented system."""


def require_non_negative(name, values):
    """Raise InvalidParameter naming the first negative or non-finite entry of values."""
    for v in values:
        if v < 0:
            raise InvalidParameter("%s must be non-negative, got %r" % (name, float(v)))
        if not math.isfinite(v):
            raise InvalidParameter("%s must be finite, got %r" % (name, float(v)))


def require_positive(name, value):
    """Raise InvalidParameter unless value is finite and positive."""
    if not math.isfinite(value):
        raise InvalidParameter("%s must be finite, got %r" % (name, float(value)))
    if value <= 0:
        raise InvalidParameter("%s must be positive, got %r" % (name, float(value)))
