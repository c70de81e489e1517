"""Exception types shared across the package."""


class LulaLabError(Exception):
    """Base class for all package errors."""


class ModelFormatError(LulaLabError):
    """Raised when a model file is malformed, truncated, or has an unknown version."""


class ConfigError(LulaLabError):
    """Raised for invalid experiment configuration (unknown keys, bad values)."""


class DivergenceError(LulaLabError):
    """Raised when an optimization produces a non-finite loss."""
