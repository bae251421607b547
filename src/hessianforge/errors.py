"""The package's error hierarchy, one ValidationError and its refinements,
and the private helpers its modules share: ``_integer``, the one integer
check; ``_first_bad``, the one search for the node an error names; and
``_ROW_BLOCK``, the block size of the batched passes."""

import numbers

import numpy as np


# Rows per block of the lemma battery (``hermitian.lemma_trial_batch``) and of
# the deleted-coordinate recurrence (``cones._deleted_table``).  A block's
# largest transient stays near 1 MiB at n = 6: 4096 bordered 6 x 6 matrices,
# or 4096 x 6 deleted vectors of length 5, in doubles.
_ROW_BLOCK = 4096


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


def _integer(value, name, error=ValidationError, least=None):
    """value as an int: an integer or an integral float, not a bool, and not
    below ``least`` where one is given; otherwise ``error`` naming ``name``.
    The package's one integer check: ``grid`` checks n and each resolution
    with it, ``cones`` each dimension, order and direction, and
    ``hermitian`` the battery's n, trials and seed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not float(value).is_integer():
        raise error(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise error(f"{name} must be at least {least}, got {value}")
    return value
