"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside the range an operation accepts."""


class DomainError(ValueError):
    """A point or cube lies outside the domain where a potential is defined."""


class IntegrationError(RuntimeError):
    """ODE integration failed; carries the last time reached."""

    def __init__(self, message: str, last_t: float | None = None):
        super().__init__(message)
        self.last_t = last_t


class ConvergenceError(RuntimeError):
    """Domain-doubling (or similar) iteration did not converge; carries the trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


class ConfigError(ValueError):
    """A run configuration is malformed; message names the offending key."""
