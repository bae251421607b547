"""Symmetric cone functions and their Garding cones.

Implements the operator families driving the nonlinear equations: the
log-determinant, elementary-symmetric-root, log-sigma, quotient-root and
log-of-deleted-sums families, each paired with the open symmetric convex
cone on which it is elliptic (positive partial derivatives) and concave.

A family is declared once, as a :class:`ConeFunction` subclass: its
``family`` name, the integer ``orders`` it takes in constructor order (the
factory and ``describe`` read them), its ``_value`` and ``_grad``, its
``_plane`` only where its cone check is not read off the sigma table, and
a ``_build_cone`` only where its cone is not the Garding cone Gamma_k, with
k the order ``k`` where the family takes one and n otherwise.  Each check
has one place: a dimension, an order or a direction is taken as an int, or
refused, by ``errors._integer``; a real scalar (the ray test's c, the
margin's psi) as a float by ``errors._real``; a cone's kind and order by
``Cone``; a point is turned into a float array by ``_floats``, which
refuses input that is not an array of numbers (a string, a ragged
sequence, a None) by name, and its length is checked by ``Cone._point``;
and its cone membership by ``ConeFunction._check``.

The deleted sums mu_i = sum_{j != i} lam_j, the image of lam under the
symmetric matrix Q with zero diagonal and unit off-diagonal entries, are
tabled in one place, ``q_inverse``; log-p forms each one, S - lam_i with
S = sum lam, a column at a time instead.  Limits along coordinate rays
lam + t e_i are closed forms:
sigma_j(lam + t e_i) = sigma_j(lam) + t sigma_{j-1}(lam without i), and on
Gamma_k every slope sigma_{j-1}(lam without i), j <= k, is positive, so only
the quotient family has a finite limit, the ratio of two slopes.  Along
the diagonal ray every family is 1-homogeneous or logarithmic, so the
level c with f(c, ..., c) = sigma is a closed form too.

Everything here is pure and accepts batched input along leading axes.
Two kinds of call cut a batch, in flat order, into ranges that run on two
lanes, the calling thread and one helper thread (``errors._on_two_lanes``),
at most two ranges in flight: ``value``, ``grad`` and ``value_grad``
(``ConeFunction._outputs``), in ranges of ``16 * _ROW_BLOCK`` points
(65,536), each range writing its own slice of outputs allocated once; and
``concavity_probe``, in ranges of ``2 * _ROW_BLOCK`` points (8192).  Both
run a batch that a range refuses again as one range on the calling thread
(``_ran_in_ranges``), so that its error is the one pass's.  Everything else
runs on the calling thread.
Layout rule: sigma tables are computed order-first, each order one
contiguous plane over the batch, and reductions over a short last axis (a
min over orders or deleted sums, a sum over coordinates) fold column by
column in index order, one whole-plane operation per column (``_fold``).
A function of each entry that only the reduction reads, such as the logs
that log-ma and log-p sum, is applied inside the fold one column at a
time, so no table of it is formed.

There is one cone check, ``ConeFunction._check``, for every family.  It
reads the family's own acceptance plane over the batch and accepts a point
only where that plane is > 0 and finite, so that NaN, an infinite
coordinate and an overflow are refused by name, with no RuntimeWarning.
The plane is the family's rule: the smallest of sigma_1..sigma_k, NaN
where one overflowed, by default; min lam, NaN where a coordinate is not
finite, for log-ma, with no sigma table; and S - max lam, two column folds
with no deleted-sum table, for log-p.  A refused node is named off the
same plane, and the violated inequality is read off that point alone.  A
point inside the cone can still overflow an output (1/lam_1 at
lam_1 = 5e-324, a deleted sum past 1.8e308), so ``value``, ``grad`` and
``value_grad`` form their outputs with overflow warnings off and fold each
into one sum; an output that is not finite everywhere is refused by name,
at its first such node.  log-p's ``grad`` alone, which an overflowed
deleted sum would enter as 1/inf = 0, is refused wherever its value is.
"""

import math
import numbers
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import _ROW_BLOCK, ConeDomainError, ValidationError, _first_bad, _integer, _on_two_lanes, _real

__all__ = [
    "ConeDomainError",
    "ValidationError",
    "Cone",
    "ConeFunction",
    "cone_function",
    "FAMILIES",
    "sigma_k",
    "sigma_deleted",
    "q_inverse",
    "MarginReport",
    "c_subsolution_margin",
    "concavity_probe",
    "gamma_infinity_member",
    "gamma_r1_member",
    "c_sigma",
]


# ---------------------------------------------------------------------------
# elementary symmetric polynomials

def _sigma_table(lam, top):
    """Elementary symmetric polynomials e_0..e_top of the last axis of a
    float array, by the incremental product recurrence (multiply in one root
    at a time, updating coefficients in place from the top), the stable way
    that forms no power sums.  Each order reads only lower ones, so e_0..e_top
    do not depend on ``top``, and no unread order above it can overflow.

    The table is held order-first, each order one contiguous plane over the
    batch, so every step of the recurrence is a whole-plane operation; it is
    returned as a view with the order on the last axis, and readers reduce
    over that axis with ``_fold``, column by column in index order."""
    e = np.zeros((top + 1,) + lam.shape[:-1])
    e[0] = 1.0
    for i in range(lam.shape[-1]):
        x = lam[..., i]
        for j in range(min(i + 1, top), 0, -1):
            e[j] += x * e[j - 1]
    return np.moveaxis(e, 0, -1)


def _fold(ufunc, table, out=None, each=None, scratch=None):
    """ufunc folded over the short last axis, one column at a time in index
    order: whole-plane operations where a reduction along the last axis
    would run numpy's slow short-axis loop.  A min is exact; a sum adds in
    index order (numpy's own sum does too below 8 terms).  The result goes
    into ``out``, a float array of the batch shape, where one is given, and
    is otherwise a new array, never a view of the table; a single vector
    gives a float64 scalar.  ``each(column, out=...)``, a unary ufunc or a
    function of that form, is applied to one column at a time before it is
    folded in, writing the first column's into ``out``, which must then be
    given, and each later one's into ``scratch``, a plane of out's shape
    (a new one where None), so no table of its values is formed."""
    n = table.shape[-1]
    if each is not None:
        each(table[..., 0], out=out)
        for j in range(1, n):
            scratch = np.empty_like(out) if scratch is None else scratch
            ufunc(out, each(table[..., j], out=scratch), out=out)
        return out[()]
    # the table's first two columns fold into out, so neither is copied
    first = ufunc(table[..., 0], table[..., 1], out=out) if n > 1 else np.positive(table[..., 0], out=out)
    out = np.asarray(first)
    for j in range(2, n):
        ufunc(out, table[..., j], out=out)
    return out[()]


def _finite_min(table, out=None):
    """The smallest entry of the last axis, NaN where the largest is not
    finite, so that an entry that overflowed is refused with those that are
    not > 0; formed in ``out`` where given, as ``_fold`` does.  The largest
    is folded only where the table holds an entry that is not finite; 0
    times it is NaN there and 0 elsewhere.  Run under the caller's
    errstate: 0 times inf is the point."""
    low = _fold(np.minimum, table, out)
    if not np.max(table, initial=0.0) < math.inf:
        return low + 0.0 * _fold(np.maximum, table)
    return low


def _refused(ok, lam):
    """(node, where) of the first False entry of ``ok`` over the batch of
    the points lam: the node, () for one point, and the text that names it
    in an error, " at node (...), flat index k" for batched input and empty
    for one point."""
    node, first = _first_bad(ok)
    return node, f" at node {node}, flat index {first}" if lam.ndim > 1 else ""


def _like(x):
    """A new float array of x's shape, in the layout numpy gives the output
    of a function of x's entries (a ufunc's, in order K)."""
    return np.nditer([x, None], ["zerosize_ok"], [["readonly"], ["writeonly", "allocate"]]).operands[1]


def _as_rows(x, batch):
    """x with its first ``batch`` axes, a batch of points, flattened into
    one, as a view; None where that takes a copy, as numpy's reshape would
    make for a read-only broadcast or a Fortran-order batch of two axes."""
    axes = [(size, stride) for size, stride in zip(x.shape[:batch], x.strides[:batch]) if size != 1]
    if any(stride != size * inner for (_, stride), (size, inner) in zip(axes, axes[1:])):
        return None
    return x.reshape((-1,) + x.shape[batch:])


def _ran_in_ranges(points, step, task):
    """Whether ``task(lo, hi)`` ran on every range of ``step`` of the
    ``points`` on two lanes (``errors._on_two_lanes``): the rule of the cone
    evaluations that run in ranges.  False, with no task run, for a batch
    of one range or less; and False when a range raised
    :class:`ConeDomainError`.  The caller then runs the whole batch as one
    range on the calling thread, so that the error names the node, flat
    index and inequality of one pass."""
    if points <= step:
        return False
    try:
        _on_two_lanes(points, step, task)
    except ConeDomainError:
        return False
    return True


def _floats(lam, name):
    """lam as a float array, the same array when it is one: the one
    conversion of points.  Input that is not an array of numbers (a string,
    a ragged sequence, a sequence holding None) is refused with
    :class:`ValidationError` naming ``name`` and the input."""
    try:
        arr = np.asarray(lam)
        if arr.dtype == object and all(isinstance(x, numbers.Real) for x in arr.flat):
            arr = arr.astype(float)  # such as ints beyond int64
        if arr.dtype.kind in "biufc":
            return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):  # a ragged sequence, say
        pass
    raise ValidationError(f"{name} needs an array of numbers, got {reprlib.repr(lam)}")


def _points(lam, name):
    """lam as a float array of points along its last axis (``_floats``); a
    0-d input is refused with :class:`ValidationError` naming the function
    ``name``."""
    lam = _floats(lam, name)
    if lam.ndim == 0:
        raise ValidationError(f"{name} needs points along a last axis, got shape ()")
    return lam


def sigma_k(lam, k):
    """k-th elementary symmetric polynomial of the last axis.

    ``k`` may also be a range of orders, read as a view of one recurrence
    run to the highest order read.  A single vector and an integer ``k``
    give a float64 scalar, as ``_fold`` does.  The cone functions read every
    sigma of lam through here (see ``Cone._table``).
    """
    lam = _points(lam, "sigma_k")
    n = lam.shape[-1]
    index = slice(k.start, k.stop, k.step) if isinstance(k, range) else _integer(k, "order k")
    orders = k if isinstance(k, range) else range(index, index + 1)
    if not orders or min(orders) < 1 or max(orders) > n:
        raise ValidationError(f"order k={k} out of range 1..{n}")
    return _sigma_table(lam, max(orders))[..., index][()]


def _deleted_table(lam, orders, out=None):
    """sigma_j of float lam with each coordinate deleted in turn, for each
    order j in ``orders`` (each 0..n-1).

    One plane of lam's shape per order read, its last axis indexing the
    deleted coordinate: a new array of shape ``(len(orders),) + lam.shape``,
    or ``out``, a sequence of such planes, written in place, where given
    (a family writes its gradient's own plane so).  One pass of the
    recurrence over the stacked deleted vectors, run to the highest order
    read, so no unstable downdate is needed.  The pass runs on
    ``_ROW_BLOCK`` points at a time and writes each block's planes into the
    output: the stacked (points, n, n-1) vectors and the table of orders
    are O(block), and only the output is O(points).
    """
    if out is not None and any(_as_rows(plane, lam.ndim - 1) is None for plane in out):
        for plane, new in zip(out, _deleted_table(lam, orders)):  # planes whose rows are no view
            np.copyto(plane, new)
        return out
    n = lam.shape[-1]
    m = np.arange(n - 1)
    deleted = m + (m >= np.arange(n)[:, None])
    rows = lam.reshape(-1, n)
    out = np.empty((len(orders),) + lam.shape) if out is None else out
    planes = [plane.reshape(rows.shape) for plane in out]
    for lo in range(0, rows.shape[0], _ROW_BLOCK):
        table = _sigma_table(rows[lo:lo + _ROW_BLOCK, deleted], max(orders))
        for plane, j in zip(planes, orders):
            plane[lo:lo + _ROW_BLOCK] = table[..., j]
        del table  # so the next block's vectors and table form without it
    return out


def sigma_deleted(lam, k):
    """sigma_k with one coordinate deleted, for every coordinate.

    Returns an array whose last axis indexes the deleted coordinate; order
    ``k`` runs over 0..n-1 (0 gives ones).
    """
    lam = _points(lam, "sigma_deleted")
    n = lam.shape[-1]
    k = _integer(k, "order k")
    if not 0 <= k < n:
        raise ValidationError(f"order k={k} out of range 0..{n - 1}")
    return _deleted_table(lam, (k,))[0]


# ---------------------------------------------------------------------------
# cones

@dataclass(frozen=True)
class Cone:
    """An open symmetric convex cone, either a Garding cone or the
    deleted-sum cone.

    kind "gamma" with order k is the set where sigma_1..sigma_k are all
    positive; kind "deleted-sum" is the set where every sum of all but one
    coordinate is positive.  Construction checks the kind, and the order k
    (1..n) of a Garding cone or the dimension n (>= 2) of the deleted-sum
    cone, with :class:`ValidationError`: the one check of both.
    """

    kind: str
    n: int
    k: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n"))
        object.__setattr__(self, "k", _integer(self.k, "order k"))
        if self.kind == "gamma":
            if not 1 <= self.k <= self.n:
                raise ValidationError(f"Garding cone order k={self.k} out of range 1..{self.n}")
        elif self.kind != "deleted-sum":
            raise ValidationError(f"unknown cone kind {self.kind!r}; choose 'gamma' or 'deleted-sum'")
        elif self.n < 2:
            raise ValidationError(f"deleted-sum cone needs n >= 2, got {self.n}")

    gamma = staticmethod(lambda k, n: Cone("gamma", n, k))
    deleted_sum = staticmethod(lambda n: Cone("deleted-sum", n))

    def _point(self, lam):
        """lam as a float array of points of length n along its last axis.

        The one place a point is converted (``_floats``) and its length
        checked: a point that is not an array of numbers, whose last axis is
        not n long, or that has no axis, is refused with
        :class:`ValidationError`.
        """
        lam = _floats(lam, f"a point of {self.ray_description()}")
        if lam.shape[-1:] != (self.n,):
            raise ValidationError(
                f"dimension mismatch: {self.ray_description()} has n={self.n}, "
                f"point has {lam.shape[-1] if lam.ndim else 'shape ()'}"
            )
        return lam

    def _table(self, lam):
        """The slacks of the float points lam (batched): sigma_1..sigma_k of
        a Garding cone (column j - 1 holds sigma_j), the deleted sums of the
        deleted-sum cone.  Callers run it under an errstate that lets a
        slack overflow or turn NaN silently: such a slack is refused or
        reported by value, not warned about."""
        if self.kind == "gamma":
            return sigma_k(lam, range(1, self.k + 1))
        return q_inverse(lam)

    def margin(self, lam):
        """Smallest slack among the defining inequalities (batched); NaN
        where a slack is NaN."""
        with np.errstate(over="ignore", invalid="ignore"):
            return _fold(np.minimum, self._table(self._point(lam)))

    def contains(self, lam):
        return self.margin(lam) > 0.0

    def violated_inequality(self, lam):
        """Human-readable description of the first failed inequality: the
        first sigma_j, or the smallest deleted sum, that is not > 0 (its
        least value over a batch), and only where none is, the first slack
        that is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            table = self._table(self._point(lam))
        rows = table.reshape(-1, table.shape[-1])
        low, high = np.min(rows, axis=0), np.max(rows, axis=0)
        name = "sigma_{}" if self.kind == "gamma" else "deleted sum {}"
        first = range(len(low)) if self.kind == "gamma" else [int(np.argmin(low))]
        failed = [f"{name.format(j + 1)} = {low[j]:.6g}, not > 0" for j in first if not low[j] > 0]
        failed += [f"{name.format(j + 1)} = {v:.6g}, not finite" for j, v in enumerate(high) if not v < math.inf]
        return (failed + ["no violated inequality"])[0]

    def ray_description(self):
        if self.kind == "gamma":
            return f"Gamma_{self.k}"
        return f"P_{self.n - 1}"


# ---------------------------------------------------------------------------
# cone function families

class ConeFunction:
    """A symmetric function f with its cone: evaluation, gradient, limits.

    A subclass declares a family: ``family``, its name for the factory;
    ``orders``, the names of the integer orders it takes, in constructor
    order, each stored as an int attribute of that name (n and every order
    go through ``_integer``); ``_plane``, which forms the family's
    acceptance plane over the batch in the plane it is given and returns it
    with the data its other hooks read; ``_value`` and ``_grad``, which run
    on points known to lie in the cone, receive that data beside lam and
    write their output into the array ``out`` they are given; and
    ``_build_cone`` only where the cone is not Gamma_k, with k the order
    ``k`` and n where the family takes none.  ``describe`` and the factory
    read ``family`` and ``orders``.

    The one cone check, ``_check``, asks ``_plane`` for the plane and
    accepts a point only where its entry is > 0 and finite: a NaN or an
    overflow is refused like a point outside.  Public entry points raise
    :class:`ConeDomainError` carrying the violated inequality and, for
    batched input, the node (the index in lam's batch shape, a grid node for
    an eigenvalue field) and flat index of the first refused point, read off
    the same plane; the inequality is read off that point alone, by
    ``Cone.violated_inequality``.  Overflow and NaN inside the check raise
    no warning.  A value or gradient that is not finite at a point the
    check accepts is refused with :class:`ConeDomainError` too, naming the
    output and, for batched input, its first such node (``_outputs``).  An
    empty batch has no point outside: every entry point returns empty arrays
    of its shape.
    """

    family = None
    orders = ()
    # m with f(c 1) = f(1) + m log c along the diagonal ray for a log family;
    # None for a root family, where f(c 1) = c f(1).
    _log_degree = None

    def __init__(self, n, *orders):
        self.n = _integer(n, "n")
        if self.n < 2:
            raise ValidationError("complex dimension n >= 2 required")
        for name, value in zip(self.orders, orders, strict=True):
            setattr(self, name, _integer(value, f"order {name}"))
        self.cone = self._build_cone(self.n)

    # -- subclass hooks
    def _build_cone(self, n):
        return Cone.gamma(getattr(self, "k", n), n)

    def _plane(self, lam, out):
        """(plane, table): the smallest of sigma_1..sigma_k, NaN where one
        overflowed, formed in ``out`` (a new array where None), and the sigma
        table, which ``_value`` and ``_grad`` read."""
        table = self.cone._table(lam)
        return _finite_min(table, out), table

    def _value(self, lam, table, out, scratch):
        """Write the value into ``out``; ``scratch``, a plane of out's shape
        or None, is free for a family that folds a function of each column
        (``_fold``)."""
        raise NotImplementedError

    def _grad(self, lam, table, out):
        raise NotImplementedError

    def _ray_limit(self, lam, i):
        """(valid, limit) for t -> inf of f(lam + t e_i), lam a single vector
        in the cone.

        Every sigma_j, j <= k, grows without bound along the ray (its slope
        sigma_{j-1}(lam without i) is positive on Gamma_k), and so do all
        but one deleted sum, so every family but the quotient tends to +inf.
        """
        return True, math.inf

    # -- public surface
    def _check(self, lam, plane=None):
        """The data of ``_plane`` that ``_value`` and ``_grad`` read, once the
        float points lam (``Cone._point``) are known to lie in the cone; the
        acceptance plane is formed in ``plane`` where one is given."""
        with np.errstate(over="ignore", invalid="ignore"):
            plane, data = self._plane(lam, plane)
            # NaN fails; an empty batch passes
            if np.min(plane, initial=math.inf) > 0.0 and np.max(plane, initial=0.0) < math.inf:
                return data
            node, where = _refused((plane > 0.0) & (plane < math.inf), lam)
            raise ConeDomainError(f"point outside {self.cone.ray_description()}{where}: "
                                  + self.cone.violated_inequality(lam[node]))

    def _outputs(self, lam, names):
        """The outputs ``names`` ("value", "grad") at the points lam.

        The points are converted and their length checked first
        (``Cone._point``), and each output is allocated once, in the layout
        that numpy gives a function of lam's entries.  The batch is then cut,
        in flat order, into ranges of ``16 * _ROW_BLOCK`` points (65,536,
        read at call time), and each range runs ``_evaluate`` on whichever of
        two lanes, the calling thread and one helper thread
        (``errors._on_two_lanes``), is free, writing straight into its own
        slice of the outputs: no full-size temporary and no copy of an
        output is formed, and the outputs are the same bits as one pass.  A
        batch of one range or less, a single point, and a batch whose points
        (or outputs) cannot be viewed as rows without a copy (a read-only
        broadcast, say) run as one range on the calling thread.  If a range
        is refused, the whole batch runs again as one range on the calling
        thread, so the :class:`ConeDomainError` names the same node, flat
        index and inequality as one pass does (``_ran_in_ranges``)."""
        lam = self.cone._point(lam)
        outputs = [_like(lam[..., 0] if name == "value" else lam) for name in names]
        rows = [_as_rows(x, lam.ndim - 1) for x in [lam] + outputs]

        def task(lo, hi):
            self._evaluate(rows[0][lo:hi], names, [x[lo:hi] for x in rows[1:]])

        if any(x is None for x in rows) or not _ran_in_ranges(len(rows[0]), 16 * _ROW_BLOCK, task):
            self._evaluate(lam, names, outputs)
        return tuple(x[()] for x in outputs)

    def _evaluate(self, lam, names, outputs):
        """Write the outputs ``names`` at the float points lam into
        ``outputs``, arrays of lam's batch shape for "value" and of lam's
        shape for "grad", after the one cone check, whose plane is formed in
        the value, or in the gradient's first column, before they are.  The
        value is formed before the gradient, in whose first column a family
        that folds a function of each column of lam finds its scratch.  The
        outputs are formed with overflow, division by zero and invalid
        values silenced, and each is then folded into one sum, which a NaN
        or infinite entry makes non-finite: an output that is not finite
        everywhere is refused with :class:`ConeDomainError` naming it and
        its first such node, as a point inside the cone can still overflow
        one (1/lam_1 at lam_1 = 5e-324, a deleted sum past 1.8e308).  A sum
        that overflows from finite entries alone is let through by an
        entrywise test."""
        out = dict(zip(names, outputs))
        column = out["grad"][..., 0] if "grad" in out else None
        data = self._check(lam, out["value"] if "value" in out else column)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if "value" in out:
                self._value(lam, data, out["value"], column)
            if "grad" in out:
                self._grad(lam, data, out["grad"])
            for name, x in out.items():
                if math.isfinite(np.sum(x)):
                    continue
                ok = np.isfinite(x)
                if name == "grad":  # one row per point
                    ok = ok.all(axis=-1)
                if ok.all():
                    continue
                node, where = _refused(ok, lam)
                raise ConeDomainError(f"{self.describe()} {'gradient' if name == 'grad' else name}{where} "
                                      f"is not finite: {x[node]}")

    def value(self, lam):
        return self._outputs(lam, ("value",))[0]

    def grad(self, lam):
        return self._outputs(lam, ("grad",))[0]

    def value_grad(self, lam):
        return self._outputs(lam, ("value", "grad"))

    def margin(self, lam):
        return self.cone.margin(lam)

    def describe(self):
        orders = "".join(f", {name}={getattr(self, name)}" for name in self.orders)
        return f"{self.family}(n={self.n}{orders})"


class LogMA(ConeFunction):
    """Sum of eigenvalue logarithms on the positive cone Gamma_n.

    Gamma_n is the positive orthant: sigma_1..sigma_n are all positive
    exactly when every lam_i is (Caffarelli-Nirenberg-Spruck, Acta Math.
    155, 1985).  The acceptance plane reads that off the coordinates, as
    min lam with a point that has a non-finite coordinate refused, and forms
    no sigma table; the one check builds one, for the refused point alone,
    only to name its inequality.  Value and gradient read lam alone and
    receive no data.  A point whose sigma_n underflows to 0, such as
    (1e-200, 1e-200), is inside the cone and accepted, while ``margin``,
    read from the sigma table, gives 0.0 for it.
    """

    family = "log-ma"
    _log_degree = property(lambda self: self.n)

    def _plane(self, lam, out):
        return _finite_min(lam, out), None

    def _value(self, lam, table, out, scratch):
        _fold(np.add, lam, out, np.log, scratch)

    def _grad(self, lam, table, out):
        np.divide(1.0, lam, out=out)


class SigmaKRoot(ConeFunction):
    """k-th root of the k-th elementary symmetric polynomial on Gamma_k."""

    family = "sigma-k-root"
    orders = ("k",)

    def _value(self, lam, table, out, scratch):
        np.copyto(out, table[..., self.k - 1])
        out **= 1.0 / self.k  # the operator's power, as x ** p forms it

    def _grad(self, lam, table, out):
        ek = table[..., self.k - 1, None]
        _deleted_table(lam, (self.k - 1,), [out])
        np.multiply((1.0 / self.k) * ek ** (1.0 / self.k - 1.0), out, out=out)


class LogSigmaK(SigmaKRoot):
    """Logarithm of the k-th elementary symmetric polynomial on Gamma_k."""

    family = "log-sigma-k"
    _log_degree = property(lambda self: self.k)

    def _value(self, lam, table, out, scratch):
        np.log(table[..., self.k - 1], out=out)

    def _grad(self, lam, table, out):
        _deleted_table(lam, (self.k - 1,), [out])
        np.divide(out, table[..., self.k - 1, None], out=out)


class QuotientRoot(ConeFunction):
    """(sigma_k / sigma_l)^(1/(k-l)) on Gamma_k, k > l >= 1.

    The only built-in family with finite limits along coordinate rays,
    which is what makes its subsolution margins nontrivial.
    """

    family = "quotient-root"
    orders = ("k", "l")

    def __init__(self, n, k, l):
        super().__init__(n, k, l)
        if not 1 <= self.l < self.k <= self.n:
            raise ValidationError(f"need 1 <= l < k <= n, got k={self.k}, l={self.l}")

    def _value(self, lam, table, out, scratch):
        np.divide(table[..., self.k - 1], table[..., self.l - 1], out=out)
        out **= 1.0 / (self.k - self.l)  # the operator's power, as x ** p forms it

    def _grad(self, lam, table, out):
        ek = table[..., self.k - 1, None]
        el = table[..., self.l - 1, None]
        _, dl = _deleted_table(lam, (self.k - 1, self.l - 1), [out, np.empty_like(out)])
        val = (ek / el) ** (1.0 / (self.k - self.l))
        # val / (k - l) * (dk / ek - dl / el), with dk formed in out and the
        # difference in place there: one (points, n) array besides out
        np.divide(out, ek, out=out)
        out -= np.divide(dl, el, out=dl)
        out *= val / (self.k - self.l)

    def _ray_limit(self, lam, i):
        # The ratio of the slopes of sigma_k and sigma_l along the ray.
        dk, dl = _deleted_table(lam, (self.k - 1, self.l - 1))[:, i]
        if not (dk > 0.0 and dl > 0.0):  # rounding at the cone's boundary
            return False, -math.inf
        return True, (dk / dl) ** (1.0 / (self.k - self.l))


class LogDeletedSums(ConeFunction):
    """Sum of logarithms of the deleted sums, on the deleted-sum cone.

    The operator of the Monge-Ampere equation for functions whose deleted
    eigenvalue sums are positive.  With S = sum lam, every deleted sum
    S - lam_i is positive exactly when S - max lam is.  That holds in
    floating point too: fl(S - x) is monotone in x, so the smallest rounded
    deleted sum is fl(S - max lam), bit for bit, and a NaN or infinite
    coordinate makes both fail.  The acceptance plane is therefore
    S - max lam, two column folds (a sum and a max) and no table; a sum S
    that overflows makes it infinite, and the one check refuses it.  That
    check forms the deleted-sum table for the refused point alone, to name
    its inequality.  Value and gradient receive S and form each deleted sum
    S - lam_j one column at a time, with the same bits as the table.
    """

    family = "log-p"
    _log_degree = property(lambda self: self.n)

    def _build_cone(self, n):
        return Cone.deleted_sum(n)

    def _plane(self, lam, out):
        total = _fold(np.add, lam)
        return np.subtract(total, _fold(np.maximum, lam, out), out=out), total

    def _value(self, lam, total, out, scratch):
        _fold(np.add, lam, out, lambda column, out: np.log(np.subtract(total, column, out=out), out=out), scratch)

    def _evaluate(self, lam, names, outputs):
        """As every family, and the gradient alone refused where ``value``
        is: a deleted sum past 1.8e308 overflows to inf and makes the value
        infinite, but would enter the gradient as 1/inf = 0, finite and
        wrong.  The largest deleted sum, S - min lam, is checked here, on
        the range's own points, after the gradient; ``value_grad`` refuses
        such a point through its value."""
        super()._evaluate(lam, names, outputs)
        if "value" in names:
            return
        with np.errstate(over="ignore"):
            ok = _fold(np.add, lam) - _fold(np.minimum, lam) < math.inf
        if not np.all(ok):
            node, where = _refused(ok, lam)
            raise ConeDomainError(f"{self.describe()} gradient{where} is not finite: "
                                  f"deleted sum {int(np.argmin(lam[node])) + 1} = inf")

    def _grad(self, lam, total, out):
        # the reciprocal deleted sums r_j = 1 / (S - lam_j) in the gradient's
        # own columns, then their deleted sums, sum r - r_j, in place
        for j in range(self.n):
            column = out[..., j]
            np.subtract(total, lam[..., j], out=column)
            np.divide(1.0, column, out=column)
        np.subtract(_fold(np.add, out)[..., None], out, out=out)


FAMILIES = {f.family: f for f in (LogMA, SigmaKRoot, LogSigmaK, QuotientRoot, LogDeletedSums)}


def cone_function(family, n, k=None, l=None):
    """Factory for the built-in families.

    family : one of "log-ma", "sigma-k-root", "log-sigma-k",
        "quotient-root", "log-p"
    n : dimension; k, l : integer orders where the family needs them.  An
        order the family does not take is refused, not ignored.
    """
    if family not in FAMILIES:
        raise ValidationError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        )
    takes = FAMILIES[family].orders
    given = {"k": k, "l": l}
    missing = [name for name in takes if given[name] is None]
    if missing:
        raise ValidationError(f"family {family!r} needs order {' and '.join(missing)}")
    extra = [name for name, value in given.items() if value is not None and name not in takes]
    if extra:
        raise ValidationError(f"family {family!r} takes no order {' or '.join(extra)}")
    return FAMILIES[family](n, *(given[name] for name in takes))


# ---------------------------------------------------------------------------
# deleted sums

def q_inverse(lam):
    """Map a vector to its deleted sums: mu = lam Q, mu_i = sum_{j != i} lam_j.

    The one place the deleted sums are formed; batched along leading axes.
    """
    lam = _points(lam, "q_inverse")
    return _fold(np.add, lam)[..., None] - lam


# ---------------------------------------------------------------------------
# structural probes

@dataclass
class MarginReport:
    """Directional limit of f against a target level.

    ``valid`` is False when a slope of the ray rounds to zero or below,
    which only happens at the cone's boundary.  ``margin`` is
    ``limit - psi`` (may be +inf); positive margin certifies the relaxed
    subsolution condition in that direction.
    """

    direction: int
    valid: bool
    limit: float
    psi: float

    @property
    def margin(self):
        if not self.valid:
            return -math.inf
        return self.limit - self.psi


def c_subsolution_margin(f, lam, psi, i):
    """Margin of the relaxed (asymptotic) subsolution condition in direction i.

    Evaluates ``lim_t f(lam + t e_i) - psi`` with the family's closed-form
    limit.  ``lam`` must be a single vector in the cone, and ``psi`` a
    finite real.
    """
    lam = f.cone._point(lam)
    f._check(lam)
    if lam.shape != (f.n,):
        raise ValidationError(f"expected a single vector of length {f.n}, got shape {lam.shape}")
    i = _integer(i, "direction index i")
    if not 0 <= i < f.n:
        raise ValidationError(f"direction index {i} out of range 0..{f.n - 1}")
    valid, limit = f._ray_limit(lam, i)
    return MarginReport(direction=i, valid=valid, limit=limit, psi=_real(psi, "psi"))


def _slack(f, lam, mu):
    """The probe's slack on one batch: ``value_grad(lam)``, ``value(mu)``
    and the fold.  g (lam - mu) is formed in place in the difference, the
    same bits with one (points, n) temporary: numpy reuses the difference
    of ``g * (lam - mu)`` only from 256 KiB up, so a smaller range, such
    as a ragged tail, formed two."""
    flam, g = f.value_grad(lam)
    fmu = f.value(mu)
    diff = np.subtract(lam, mu, dtype=float)
    diff *= g
    return flam - fmu - _fold(np.add, diff)


def concavity_probe(f, lam, mu):
    """Slack of the supporting-hyperplane inequality at lam against mu.

    Returns ``f(lam) - f(mu) - sum_i f_i(lam)(lam_i - mu_i)``, which
    concavity keeps nonnegative up to rounding (>= -1e-9 is the tested
    bound; a linear family gives exactly zero).

    A batch of lam and mu of one shape is cut, in flat order, into ranges of
    ``2 * _ROW_BLOCK`` points (8192, read at call time), and each range's
    ``value_grad(lam)``, ``value(mu)`` and fold run on whichever of two
    lanes, the calling thread and one helper thread
    (``errors._on_two_lanes``), is free; numpy's loops release the
    interpreter lock, so two ranges run at once.  A range is shorter than
    the cone functions' own, so each of its evaluations is one range on its
    lane.  Each range writes its
    slacks into one preallocated result, so the result is the same bits as
    one pass over the batch.  Two ranges' evaluations are in flight, under
    3 MiB each at n = 6 for the families with a sigma table, besides the
    result and a copy of a batch that cannot be viewed as rows (a Fortran
    or plane-first one).  A batch of one range or less, or lam and mu of
    different shapes, run on the calling thread in one pass.  If a range is
    refused, the whole batch is run again on the calling thread
    (``_ran_in_ranges``), so the :class:`ConeDomainError` names the same
    node, flat index and inequality as one pass does: lam's first refused
    point, and mu's only where lam has none.
    """
    name = f"a point of {f.cone.ray_description()}"
    lam, mu = _floats(lam, name), _floats(mu, name)
    step = 2 * _ROW_BLOCK
    if lam.ndim < 2 or lam.shape != mu.shape or lam.shape[-1] != f.n or lam.size <= step * f.n:
        return _slack(f, lam, mu)
    lam_rows, mu_rows = lam.reshape(-1, f.n), mu.reshape(-1, f.n)
    out = np.empty(len(lam_rows))

    def task(lo, hi):
        out[lo:hi] = _slack(f, lam_rows[lo:hi], mu_rows[lo:hi])

    return out.reshape(lam.shape[:-1]) if _ran_in_ranges(len(out), step, task) else _slack(f, lam, mu)


def gamma_infinity_member(lam_prime, cone):
    """Membership of lam' in the projection of the cone along its last axis.

    Exact, from closed forms: the projection of Gamma_k is Gamma_{k-1} in
    n-1 variables (Gamma_1 projects onto all of R^(n-1)), and the
    deleted-sum cone projects onto {sum lam' > 0}.  lam' must be finite.
    """
    lam_prime = np.asarray(lam_prime, dtype=float)
    if lam_prime.shape != (cone.n - 1,):
        raise ValidationError(
            f"projection test expects length {cone.n - 1}, got {lam_prime.shape}"
        )
    if not np.all(np.isfinite(lam_prime)):
        raise ValidationError(f"projection test needs a finite point, got {lam_prime}")
    if cone.kind != "gamma":
        return bool(np.sum(lam_prime) > 0)
    return cone.k == 1 or bool(Cone.gamma(cone.k - 1, cone.n - 1).contains(lam_prime))


def gamma_r1_member(c, cone):
    """Membership of the scalar c in {c : (t,...,t,c) in cone for some t>0}.

    Exact: the set is (0, inf) when the cone is the positive orthant (Gamma_n,
    or the deleted-sum cone at n = 2) and all of R otherwise.  c must be a
    finite real.
    """
    c = _real(c, "c")
    orthant = cone.k == cone.n if cone.kind == "gamma" else cone.n == 2
    return bool(c > 0) if orthant else True


def c_sigma(f, sigma):
    """The scalar c > 0 with f(c, c, ..., c) = sigma, in closed form.

    The diagonal ray enters every built-in cone for c > 0.  Along it a root
    family has f(c 1) = c f(1) and a log family of degree m has
    f(c 1) = f(1) + m log c, so c is sigma / f(1) or exp((sigma - f(1)) / m).
    Levels that no c > 0 reaches in floating point (NaN, infinite, or not
    positive for a root family) raise :class:`ConeDomainError`.
    """
    sigma = float(sigma)
    base = f.value(np.ones(f.n))
    m = f._log_degree
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        c = sigma / base if m is None else np.exp((sigma - base) / m)
    if not 0.0 < c < math.inf:
        raise ConeDomainError(f"level {sigma} unattainable on the diagonal ray of {f.describe()}")
    return float(c)
