"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside the range an operation accepts."""


class DomainError(ValueError):
    """V fails where a run needs it: a point outside its domain, or a cube mass not finite (or 0, for doubling)."""


class IntegrationError(RuntimeError):
    """ODE integration failed."""


class ConfigError(ValueError):
    """A run configuration is malformed; message names the offending key."""
