"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvariantError(ValueError):
    """A constructor or derived-identity invariant is violated."""


class BracketingError(RuntimeError):
    """A root bracket does not enclose a sign change."""


class ConfigError(ValueError):
    """A configuration document is malformed or references unknown entities."""
