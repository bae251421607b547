"""The package's error hierarchy: one ValidationError and its refinements,
and ``_first_bad``, the one search for the node an error names."""

import numpy as np


class ValidationError(ValueError):
    """An argument violates a documented precondition: shape, order or range."""


class ConeDomainError(ValidationError):
    """A point left the cone; carries the first violated inequality."""


class GridError(ValidationError):
    """Invalid grid geometry or resolution layout."""


class PositivityError(ValidationError):
    """A metric lost positivity somewhere; carries the node location."""


def _first_bad(ok):
    """(node, flat index) of the first False entry of the boolean array
    ``ok`` in C order, the node a tuple of ints in ``ok``'s shape.  ``ok``
    must hold a False entry."""
    first = int(np.argmin(ok))
    return tuple(int(v) for v in np.unravel_index(first, np.shape(ok))), first
