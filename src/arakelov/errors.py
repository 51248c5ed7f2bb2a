"""Domain error types with stable codes for the CLI error mapping."""

from __future__ import annotations


class ArakelovError(Exception):
    """Base class; ``code`` is the stable machine-readable identifier."""

    code = "DomainError"


class ZeroInput(ArakelovError):
    code = "ZeroInput"


class AllZero(ArakelovError):
    code = "AllZero"


class TooFewValues(ArakelovError):
    code = "TooFewValues"


class ChartMismatch(ArakelovError):
    code = "ChartMismatch"


class Type1Endpoint(ArakelovError):
    code = "Type1Endpoint"


class PlaceMismatch(ArakelovError):
    code = "PlaceMismatch"


class BadRadii(ArakelovError):
    code = "BadRadii"


class NotAbuttable(ArakelovError):
    code = "NotAbuttable"


class BadBoundParameters(ArakelovError):
    code = "BadBoundParameters"


class ResidueCharTwo(ArakelovError):
    code = "ResidueCharTwo"


class BranchPointCenter(ArakelovError):
    code = "BranchPointCenter"


class DegenerateQuadruple(ArakelovError):
    code = "DegenerateQuadruple"


class DegenerateConfig(ArakelovError):
    code = "DegenerateConfig"


class LevelTooLarge(ArakelovError):
    code = "LevelTooLarge"


class EmptyF(ArakelovError):
    code = "EmptyF"


class SingularPair(ArakelovError):
    code = "SingularPair"


class NonConvergentRoots(ArakelovError):
    code = "NonConvergentRoots"


class CoincidentAtoms(ArakelovError):
    code = "CoincidentAtoms"


class FactorizationTooLarge(ArakelovError):
    """An integer has a cofactor that trial division cannot decide."""

    code = "FactorizationTooLarge"


class NonFiniteResult(ArakelovError):
    """A result holds an infinite or NaN float, which JSON cannot carry, or an
    input lies beyond float range where a computation needs it as a float."""

    code = "NonFiniteResult"


ERROR_CODES = {
    cls.code: cls
    for cls in list(globals().values())
    if isinstance(cls, type) and issubclass(cls, ArakelovError)
}
