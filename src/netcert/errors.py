"""Exception types shared across the package."""


class NetcertError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(NetcertError):
    """Operands or inputs disagree on the qudit dimension d, or d < 2."""


class RangeError(NetcertError):
    """A numeric argument lies outside its documented domain."""


class StructureError(NetcertError):
    """A graph or network violates a structural precondition."""


class WrongFamily(NetcertError):
    """An operation was applied to an input outside its family (e.g. a
    constant-multiplicity routine on a mixed-multiplicity graph)."""


class DegenerateMultiplicity(NetcertError):
    """An effective multiplicity vanishes mod d, so no incompatible power exists."""


class EnumerationOverflow(NetcertError):
    """An enumeration or search exceeded its budget.

    Carries partial progress so callers can report how far the run got.
    """

    def __init__(self, message, examined=0, yielded=0):
        super().__init__(message)
        self.examined = examined
        self.yielded = yielded


class ResourceError(NetcertError):
    """A dense computation would exceed the configured size cap."""


class PropertyViolation(NetcertError):
    """A randomized lemma check found a counterexample.

    Carries the offending instance for reproduction.
    """

    def __init__(self, message, instance=None):
        super().__init__(message)
        self.instance = instance


class Unconverged(NetcertError):
    """An iterative numeric routine failed to reach its tolerance."""
