"""The package's shared error type."""


class ValidationError(ValueError):
    """An argument violates a documented precondition: shape, order or range."""
