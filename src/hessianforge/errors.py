"""The package's error hierarchy, one ValidationError and its refinements,
and the private helpers its modules share: ``_integer``, the one integer
check; ``_real``, the one check of a real scalar; ``_first_bad``, the one
search for the node an error names; and ``_ROW_BLOCK``, the block size of
the batched passes."""

import math
import numbers

import numpy as np


# Rows per block of the batched passes: the deleted-coordinate recurrence
# (``cones._deleted_table``) and the per-node eigensolve (``grid._eigh``)
# run one block at a time on the calling thread.  A block's largest
# transient stays near 1 MiB: 4096 x 6 deleted vectors of length 5 in
# doubles, or the temporaries of the closed-form 2 x 2 eigensolve; those
# of the 3 x 3 one stay near 2.5 MiB.  The lemma batteries and the
# stability scan (``hermitian._on_two_lanes``) run ranges of a quarter
# block, two at once on the calling thread and one helper thread, so two
# ranges of 1024 bordered 6 x 6 matrices, about 0.6 MiB, are in flight.
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


def _real(value, name, error=ValidationError, positive=False):
    """value as a float: a finite real number, not a bool, a string or None,
    and > 0 where ``positive`` is set; otherwise ``error`` naming ``name``.
    The package's one real check: ``grid`` checks the periods, the strip
    bounds and the conformal metric's eps with it, ``hermitian`` eps,
    radius, aa and aa_factor, and ``cones`` the ray test's c and the
    margin's psi."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or (positive and value <= 0.0):
        raise error(f"{name} must be finite{' and positive' if positive else ''}, got {value!r}")
    return value
