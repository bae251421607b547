"""The package's error hierarchy, one ValidationError and its refinements,
and the private helpers its modules share: ``_integer``, the one integer
check; ``_real``, the one check of a real scalar; ``_first_bad``, the one
search for the node an error names; ``_ROW_BLOCK``, the block size of the
batched passes; and ``_on_two_lanes``, the one scheduler that runs a
batched pass on two threads.

``_on_two_lanes`` runs consecutive row ranges of a length its caller
passes on two lanes, the calling thread and one helper thread, so that
numpy's and LAPACK's loops, which release the interpreter lock, run two at
once.  Its callers are the lemma batteries and the stability scan
(``hermitian``; ranges of ``_ROW_BLOCK // 4`` = 1024 rows), the concavity
probe (``cones.concavity_probe``; ranges of ``2 * _ROW_BLOCK`` = 8192
points), the cone functions' ``value``, ``grad`` and ``value_grad``
(``cones.ConeFunction._outputs``; ranges of ``16 * _ROW_BLOCK`` = 65,536
points, each writing its own slice of the outputs), the per-node eigensolve with its metric reduction and
back-transform (``grid._eigh``; slabs of whole rows of the leading grid
axes, at most ``4 * _ROW_BLOCK`` = 16,384 nodes) and the tensor assembly
(``grid._assemble`` and ``grid.hat_transform``; ranges of whole rows of
grid axis 0, at least ``16 * _ROW_BLOCK`` = 65,536 nodes).  At most two
ranges are in flight, one per lane, and each caller says what one range
holds.  A process that may use one CPU alone runs every range on the
calling thread, and a call made from inside a lane runs every range on
that lane.  Everything else in the package runs on the calling thread
alone."""

import contextvars
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np


# Rows per block of the batched passes: the deleted-coordinate recurrence
# (``cones._deleted_table``) runs one block at a time on the thread that
# calls it, and its largest transient stays near 1 MiB: 4096 x 6 deleted
# vectors of length 5 in doubles.  Five callers run ranges of it on two
# lanes (``_on_two_lanes``), read at call time.  The lemma batteries and
# the stability scan run ranges of a quarter block, so two ranges of 1024
# bordered 6 x 6 matrices, about 0.6 MiB, are in flight.  The concavity
# probe runs ranges of two blocks, 8192 points, so two ranges' cone
# evaluations are in flight.  At n = 6 a range's peak is under 3 MiB (2.4
# to 2.8 MiB traced for the families with a sigma table), most of it one
# block's deleted vectors and their table; its gradient and lam - mu are
# 0.4 MiB each.  The cone functions' ``value``, ``grad`` and ``value_grad``
# run ranges of sixteen blocks, 65,536 points, the tensor assembly's
# length: each range writes its own slice of outputs allocated once, and
# its scratch is its share of the planes one pass forms, 0.5 MiB a plane:
# traced, at most 0.5 MiB for log-ma, 1.5 MiB for log-p and 2 to 6.8 MiB
# for a family's sigma table and deleted planes at n = 2 to 6.  The
# per-node eigensolve (``grid._eigh``) runs slabs of whole rows of the
# leading grid axes that hold at most four blocks, 16,384 nodes: shorter
# ones hand the interpreter lock from lane to lane at every numpy call and
# ran slower on two lanes than on one, and longer ones outgrow the scratch
# bound.  A slab's closed-form temporaries are about 2
# MiB at n = 2 and 5 MiB at n = 3, plus, on a metric that is not flat, its
# 1 or 2.25 MiB reduced matrix, on every such metric; its eigenvectors are
# back-transformed in place.  The tensor assembly (``grid._assemble``) and
# ``grid.hat_transform`` run ranges of the fewest whole rows of grid axis 0
# that hold sixteen blocks, 65,536 nodes: two rows of the 8^6 grid, four of
# the 32 x 32 x 32 x 16 one.  A range allocates no full-size array; its
# scratch is its own rows of the result's lower planes and a few
# range-sized planes, about 0.5 MiB each.
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


def _new_helper_lane():
    """Make the helper lane of ``_on_two_lanes``.  Its one thread starts at
    the first submission, so importing the package starts none.  A forked
    child makes its own: the parent's thread does not exist there, and
    work submitted to the parent's executor would never run."""
    global _helper_lane
    _helper_lane = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hessianforge-lane")


_new_helper_lane()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_helper_lane)


# Whether the running code is a task of ``_on_two_lanes``, on either lane:
# a call made there runs on that lane alone, as the helper lane, busy with
# the outer call, would never take a range of the inner one.
_in_lane = contextvars.ContextVar("hessianforge_in_lane", default=False)


def _one_cpu():
    """Whether this process may run on one CPU alone, read at each call;
    False where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return affinity is not None and len(affinity(0)) == 1


def _on_two_lanes(rows, step, task):
    """``[task(lo, hi), ...]`` over consecutive ranges of ``max(1, step)``
    of ``rows`` rows, in range order; the one scheduler of the batched
    callers, which pass the range length ``step``.

    Two lanes, the calling thread and the helper lane, each take the next
    range not yet taken until none is left, so at most two tasks are in
    flight; a call of one range or none, and every call of a process that
    may use one CPU alone (``os.sched_getaffinity``, where the platform has
    it), runs on the calling thread alone, as two lanes on one CPU only
    take turns.  So does a call that a task makes, on whichever lane runs
    that task: the helper lane is busy with the outer call, and a range
    handed to it would wait behind the task that waits for it.
    An exception of either lane stops both from taking more ranges and
    reaches the caller unchanged once the other lane is idle: no task of a
    call runs after the call returns or raises.  The helper runs its ranges
    in a copy of the caller's context, so numpy's floating-point error
    state (``np.errstate``, a context variable) holds on both lanes.
    """
    step = max(1, step)
    untaken = list(range(0, rows, step))[::-1]  # range starts, popped from the end
    results = [None] * len(untaken)
    lock = threading.Lock()

    def lane():
        inside = _in_lane.set(True)
        try:
            while True:
                with lock:
                    if not untaken:
                        return
                    lo = untaken.pop()
                try:
                    results[lo // step] = task(lo, min(lo + step, rows))
                except BaseException:
                    with lock:
                        untaken.clear()
                    raise
        finally:
            _in_lane.reset(inside)

    if len(results) <= 1 or _one_cpu() or _in_lane.get():
        lane()
        return results
    helper = _helper_lane.submit(contextvars.copy_context().run, lane)
    try:
        lane()
    finally:
        wait([helper])
    helper.result()
    return results
