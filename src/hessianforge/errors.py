"""The package's error hierarchy: one ValidationError and its refinements."""


class ValidationError(ValueError):
    """An argument violates a documented precondition: shape, order or range."""


class ConeDomainError(ValidationError):
    """A point left the cone; carries the first violated inequality."""


class GridError(ValidationError):
    """Invalid grid geometry or resolution layout."""


class PositivityError(ValidationError):
    """A metric lost positivity somewhere; carries the node location."""
