"""Exception hierarchy shared by all symcrit modules.

Every error the library raises deliberately derives from SymcritError so
callers (and the CLI) can separate our diagnostics from genuine bugs.
"""


class SymcritError(Exception):
    """Base class for all deliberate symcrit failures."""


class ParameterError(SymcritError, ValueError):
    """A numeric parameter is outside its admissible range (bad p, q, m, ...)."""


class ConfigurationError(SymcritError, ValueError):
    """A domain/run configuration is malformed or inconsistent."""


class DomainMismatchError(SymcritError, ValueError):
    """Operands built on different domains were combined."""


class SymmetryCompatibilityError(SymcritError, ValueError):
    """The requested group action cannot be realized exactly on this grid."""


class UnsupportedDomainError(SymcritError, ValueError):
    """The requested rearrangement is not defined on this domain."""


class GeometryError(SymcritError, RuntimeError):
    """Mountain-pass geometry could not be certified (no valid endpoints)."""


class NumericalFailureError(SymcritError, RuntimeError):
    """A computation produced NaN/Inf; carries the last good state when known."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state
