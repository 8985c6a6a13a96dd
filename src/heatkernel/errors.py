"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside the range an operation accepts."""


class DomainError(ValueError):
    """A point or cube lies outside the domain where a potential is defined."""


class IntegrationError(RuntimeError):
    """ODE integration failed."""


class ConfigError(ValueError):
    """A run configuration is malformed; message names the offending key."""
