"""Exception hierarchy shared across the package."""


class PairingLabError(Exception):
    """Base class for all pairinglab errors."""


class ValidationError(PairingLabError):
    """A matrix failed density-matrix validation (Hermiticity, PSD, trace)."""


class NoConvergence(PairingLabError):
    pass


class DimensionMismatch(PairingLabError):
    pass


class NegativeEigenvalue(PairingLabError):
    pass


class OutOfRange(PairingLabError):
    pass


class ConditionViolated(PairingLabError):
    pass


class NotQubit(PairingLabError):
    pass


class NotCanonicalPairing(PairingLabError):
    pass


class NoTransposition(PairingLabError):
    pass


class InvalidPartition(PairingLabError):
    pass


class LabelCollision(PairingLabError):
    pass


class InvalidCoeffs(PairingLabError):
    pass


class SupportOverlap(PairingLabError):
    pass


class WeightMismatch(PairingLabError):
    pass


class PhaseNotRoot(PairingLabError):
    pass


class DimensionCapExceeded(PairingLabError):
    pass


class UnknownName(PairingLabError):
    pass


class InvalidRank(PairingLabError):
    pass


class Infeasible(PairingLabError):
    pass


class ParseError(PairingLabError):
    """A state file failed to parse; carries a human-readable location."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location
