"""Numerical simulator for quantum teleportation of two-mode bosonic states
with a conserved particle number: protocol, performance functionals,
resource-state constructors, continuum asymptotics, and noise robustness.
"""

from .errors import (
    ConfigError,
    HypothesisViolationError,
    NumericalError,
    StateValidationError,
    TelefockError,
    UnsupportedRegimeError,
)
from .fock import (
    PureTwoModeState,
    ResourceState,
    TwoModeDensityMatrix,
    is_product_pure,
    negativity,
    negativity_partial_transpose,
    sample_haar,
)
from .protocol import (
    MeasurementBasis,
    PerformanceReport,
    TeleportOutcome,
    average_teleported,
    avg_entanglement_closed,
    bob_isometry,
    build_basis,
    fidelity_closed,
    performance_report,
    separable_fidelity,
    success_probability_perfect,
    teleport_outcome,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "HypothesisViolationError",
    "NumericalError",
    "StateValidationError",
    "TelefockError",
    "UnsupportedRegimeError",
    "PureTwoModeState",
    "ResourceState",
    "TwoModeDensityMatrix",
    "is_product_pure",
    "negativity",
    "negativity_partial_transpose",
    "sample_haar",
    "MeasurementBasis",
    "PerformanceReport",
    "TeleportOutcome",
    "average_teleported",
    "avg_entanglement_closed",
    "bob_isometry",
    "build_basis",
    "fidelity_closed",
    "performance_report",
    "separable_fidelity",
    "success_probability_perfect",
    "teleport_outcome",
    "__version__",
]
