"""Exception types raised by the toolkit.

ConfigError subclasses map to CLI exit code 2, ComputationError subclasses
to exit code 3.
"""


class EquidegError(Exception):
    pass


class ConfigError(EquidegError):
    pass


class ComputationError(EquidegError):
    pass


# -- finite group layer ------------------------------------------------------

class NonPermutationInput(ConfigError):
    pass


class ClosureCapExceeded(ComputationError):
    pass


class NotASubgroup(ConfigError):
    pass


class NonIntegralMultiplicity(ComputationError):
    pass


class NonIntegralTrace(ComputationError):
    pass


class NonIntegralWeyl(ComputationError):
    pass


# -- orbit types / Burnside ring ---------------------------------------------

class InfiniteWeyl(ComputationError):
    pass


class StabilizationFailure(ComputationError):
    pass


class NonIntegralCoefficient(ComputationError):
    pass


class CrossCheckMismatch(ComputationError):
    pass


# -- spectrum ------------------------------------------------------------------

class ConvergenceFailure(ComputationError):
    pass


class InsufficientHorizon(ComputationError):
    def __init__(self, message, required_m_max=None, required_n_max=None):
        super().__init__(message)
        self.required_m_max = required_m_max
        self.required_n_max = required_n_max


class AlphaIsCritical(ConfigError):
    pass


class NotIsolated(ComputationError):
    pass


# -- model / configuration -----------------------------------------------------

class SchemaError(ConfigError):
    pass


class EquivarianceViolation(ConfigError):
    pass


class NonScalarIsotypicBlock(ConfigError):
    pass


class NonMonotoneCurve(ConfigError):
    pass
