"""Exception types shared across the package."""


class TelefockError(Exception):
    """Base class for all package errors."""


class StateValidationError(TelefockError, ValueError):
    """A state or operator failed its structural invariants."""


class UnsupportedRegimeError(TelefockError, ValueError):
    """Parameters fall outside the regime the implementation supports."""


class HypothesisViolationError(TelefockError, ValueError):
    """Inputs violate the hypotheses of an asymptotic statement."""


class NumericalError(TelefockError, RuntimeError):
    """A numerical backend (eigensolver, ODE integrator) failed."""


class ConfigError(TelefockError, ValueError):
    """An experiment configuration file is malformed or inconsistent."""
