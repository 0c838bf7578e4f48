"""Exception hierarchy.

ValidationError covers bad or unrealizable input (CLI exit code 1),
ConsistencyError covers violated internal certificates (exit code 2).
"""


class TorusFibreError(Exception):
    pass


class ValidationError(TorusFibreError):
    pass


class ConsistencyError(TorusFibreError):
    pass


class InvalidBranch(ValidationError):
    def __init__(self, check, index, message):
        self.check = check
        self.index = index
        super().__init__(f"branch check {check!r} failed at index {index}: {message}")


class NonIntegralGenus(ValidationError):
    pass


class GenusTooSmall(ValidationError):
    pass


class GcdViolation(ValidationError):
    pass


class DegenerateTerm(ConsistencyError):
    pass


class NonIntegralMultiplicity(ConsistencyError):
    pass


class InvariantViolation(ConsistencyError):
    """A cross-module sum rule (trace sum, rank sum, euler number) failed."""


class IncompatibleClass(ValidationError):
    pass


class NonIntegralRank(ConsistencyError):
    pass


class UnsupportedOrbitStructure(ValidationError):
    pass


class NotZeroDimensional(ValidationError):
    pass


class OracleDegreeOverflow(ValidationError):
    pass


class MissingChernData(ValidationError):
    pass


class SymbolicPhaseInNumericContext(ValidationError):
    pass


class IllConditioned(ConsistencyError):
    pass
