"""Exception hierarchy shared by all srnglab modules."""

from __future__ import annotations

__all__ = [
    "CapExceeded",
    "ConfigError",
    "DimensionMismatch",
    "InvalidModel",
    "NoConvergence",
    "OutOfRange",
    "SrnglabError",
    "ZeroMassOutcome",
]


class SrnglabError(Exception):
    """Base class for every error raised by this package."""


class CapExceeded(SrnglabError):
    """An enumeration or outcome space is larger than the configured cap."""


class InvalidModel(SrnglabError):
    """A source model violates a probability invariant."""


class ZeroMassOutcome(SrnglabError):
    """Self-information was requested for an outcome of probability zero."""


class DimensionMismatch(SrnglabError):
    """Two objects do not live over the same outcome space."""


class OutOfRange(SrnglabError):
    """A scalar parameter lies outside its documented domain."""


class NoConvergence(SrnglabError):
    """An iterative solver hit its iteration cap before converging."""


class ConfigError(SrnglabError):
    """A run configuration file failed validation."""
