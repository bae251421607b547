"""Symmetric cone functions and their Garding cones.

Implements the operator families driving the nonlinear equations: the
log-determinant, elementary-symmetric-root, log-sigma, quotient-root and
log-of-deleted-sums families, each paired with the open symmetric convex
cone on which it is elliptic (positive partial derivatives) and concave.

A family is declared once, as a :class:`ConeFunction` subclass: its
``family`` name, the integer ``orders`` it takes in constructor order (the
factory and ``describe`` read them), its ``_value`` and ``_grad``, and a
``_build_cone`` only where its cone is not the Garding cone Gamma_k, with k
the order ``k`` where the family takes one and n otherwise.  Each check has
one place: a dimension, an order or a direction is taken as an int, or
refused, by ``errors._integer``; a real scalar (the ray test's c, the
margin's psi) as a float by ``errors._real``; a cone's kind and order by
``Cone``; and a point is turned into a float array, and its length
checked, by ``Cone._point``.

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
Layout rule: sigma tables are computed order-first, each order one
contiguous plane over the batch, and reductions over a short last axis (a
min over orders or deleted sums, a sum over coordinates) fold column by
column in index order, one whole-plane operation per column (``_fold``).
A function of each entry that only the reduction reads, such as the logs
that log-ma and log-p sum, is applied inside the fold one column at a
time, so no table of it is formed.  log-ma's cone check is a column fold
of lam itself (a min), with no sigma table unless it refuses a point, and
log-p's reads S and max lam, two column folds, with no deleted-sum table
unless it refuses a point.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import _ROW_BLOCK, ConeDomainError, ValidationError, _first_bad, _integer, _real

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


def _fold(ufunc, table, each=None):
    """ufunc folded over the short last axis, one column at a time in index
    order: whole-plane operations where a reduction along the last axis
    would run numpy's slow short-axis loop.  A min is exact; a sum adds in
    index order (numpy's own sum does too below 8 terms).  ``each``, a unary
    function, is applied to one column at a time before it is folded in, so
    no table of its values is formed.  A single vector gives a float64
    scalar."""
    first = table[..., 0]
    out = first.copy() if each is None else np.asarray(each(first))
    for j in range(1, table.shape[-1]):
        column = table[..., j]
        ufunc(out, column if each is None else each(column), out=out)
    return out[()]


def _points(lam, name):
    """lam as a float array of points along its last axis; a 0-d input is
    refused with :class:`ValidationError` naming the function ``name``."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0:
        raise ValidationError(f"{name} needs points along a last axis, got shape ()")
    return lam


def sigma_k(lam, k):
    """k-th elementary symmetric polynomial of the last axis.

    ``k`` may also be a range of orders, read as a view of one recurrence
    run to the highest order read.  A single vector and an integer ``k``
    give a float64 scalar, as ``_fold`` does.  The cone functions read every
    sigma of lam through here (see ``Cone._margin_table``).
    """
    lam = _points(lam, "sigma_k")
    n = lam.shape[-1]
    index = slice(k.start, k.stop, k.step) if isinstance(k, range) else _integer(k, "order k")
    orders = k if isinstance(k, range) else range(index, index + 1)
    if not orders or min(orders) < 1 or max(orders) > n:
        raise ValidationError(f"order k={k} out of range 1..{n}")
    return _sigma_table(lam, max(orders))[..., index][()]


def _deleted_table(lam, orders):
    """sigma_j of float lam with each coordinate deleted in turn, for each
    order j in ``orders`` (each 0..n-1).

    Shape ``(len(orders),) + lam.shape``: one plane per order read, its last
    axis indexing the deleted coordinate.  One pass of the recurrence over
    the stacked deleted vectors, run to the highest order read, so no
    unstable downdate is needed.  The pass runs on ``_ROW_BLOCK`` points at
    a time and writes each block's planes into the output: the stacked
    (points, n, n-1) vectors and the table of orders are O(block), and only
    the output is O(points).
    """
    n = lam.shape[-1]
    m = np.arange(n - 1)
    deleted = m + (m >= np.arange(n)[:, None])
    rows = lam.reshape(-1, n)
    out = np.empty((len(orders),) + rows.shape)
    for lo in range(0, rows.shape[0], _ROW_BLOCK):
        table = _sigma_table(rows[lo:lo + _ROW_BLOCK, deleted], max(orders))
        for plane, j in zip(out, orders):
            plane[lo:lo + _ROW_BLOCK] = table[..., j]
    return out.reshape((len(orders),) + lam.shape)


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

        The one place a point is converted and its length checked: a point
        whose last axis is not n long, or that has no axis, is refused with
        :class:`ValidationError`.
        """
        lam = np.asarray(lam, dtype=float)
        if lam.shape[-1:] != (self.n,):
            raise ValidationError(
                f"dimension mismatch: {self.ray_description()} has n={self.n}, "
                f"point has {lam.shape[-1] if lam.ndim else 'shape ()'}"
            )
        return lam

    def _margin_table(self, lam):
        """(lam, margin, table): the point as a float array (``_point``), its
        smallest slack, and the table the slack is read from (batched).

        The table is sigma_1..sigma_k of lam for a Garding cone (column
        j - 1 holds sigma_j) and the deleted sums for the deleted-sum cone.
        """
        lam = self._point(lam)
        if self.kind == "gamma":
            table = sigma_k(lam, range(1, self.k + 1))
        else:
            table = q_inverse(lam)
        return lam, _fold(np.minimum, table), table

    def margin(self, lam):
        """Smallest slack among the defining inequalities (batched)."""
        return self._margin_table(lam)[1]

    def contains(self, lam):
        return self.margin(lam) > 0.0

    def violated_inequality(self, lam):
        """Human-readable description of the first failed inequality."""
        table = self._margin_table(lam)[2]
        if self.kind == "gamma":
            for j in range(1, self.k + 1):
                if not table[..., j - 1].min() > 0:
                    return f"sigma_{j} = {float(np.min(table[..., j - 1])):.6g}, not > 0"
        else:
            i = int(np.argmin(np.min(table.reshape(-1, self.n), axis=0)))
            return f"deleted sum {i + 1} = {float(table.min()):.6g}, not > 0"
        return "no violated inequality"

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
    go through ``_integer``); ``_value`` and ``_grad``, which run on points
    known to lie in the cone and receive what the family's ``_check``
    returns beside lam: the sigma table of ``Cone._margin_table`` by
    default, None for log-ma, whose check reads lam alone, and S = sum lam
    for log-p; and ``_build_cone`` only where the cone is not Gamma_k, with
    k the order ``k`` and n where the family takes none.  ``describe`` and
    the factory read ``family`` and ``orders``.

    Public entry points validate cone membership and raise
    :class:`ConeDomainError` carrying the violated inequality and, for
    batched input, the node (the index in lam's batch shape, a grid node for
    an eigenvalue field) and flat index of the first point outside.  An
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

    def _value(self, lam, table):
        raise NotImplementedError

    def _grad(self, lam, table):
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
    def _check(self, lam):
        """(lam, table): lam as a float array inside the cone, and its table."""
        lam, margin, table = self.cone._margin_table(lam)
        if not np.min(margin, initial=math.inf) > 0.0:  # NaN fails; an empty batch passes
            where, point = "", lam
            if lam.ndim > 1:
                node, first = _first_bad(margin > 0.0)
                where, point = f" at node {node}, flat index {first}", lam[node]
            raise ConeDomainError(
                f"point outside {self.cone.ray_description()}{where}: "
                + self.cone.violated_inequality(point)
            )
        return lam, table

    def value(self, lam):
        return self._value(*self._check(lam))

    def grad(self, lam):
        return self._grad(*self._check(lam))

    def value_grad(self, lam):
        lam, table = self._check(lam)
        return self._value(lam, table), self._grad(lam, table)

    def margin(self, lam):
        return self.cone.margin(lam)

    def describe(self):
        orders = "".join(f", {name}={getattr(self, name)}" for name in self.orders)
        return f"{self.family}(n={self.n}{orders})"


class LogMA(ConeFunction):
    """Sum of eigenvalue logarithms on the positive cone Gamma_n.

    Gamma_n is the positive orthant: sigma_1..sigma_n are all positive
    exactly when every lam_i is (Caffarelli-Nirenberg-Spruck, Acta Math.
    155, 1985).  The check reads that off the coordinates, one whole-plane
    min per coordinate, and builds the sigma table only to name the
    inequality of a point it refuses; value and gradient read lam alone and
    receive no table.  A point whose sigma_n underflows to 0, such as
    (1e-200, 1e-200), is inside the cone and accepted, while ``margin``,
    read from the sigma table, gives 0.0 for it.
    """

    family = "log-ma"
    _log_degree = property(lambda self: self.n)

    def _check(self, lam):
        lam = self.cone._point(lam)
        if np.min(_fold(np.minimum, lam), initial=math.inf) > 0.0:  # NaN fails; an empty batch passes
            return lam, None
        return super()._check(lam)[0], None

    def _value(self, lam, table):
        return _fold(np.add, lam, np.log)

    def _grad(self, lam, table):
        return 1.0 / lam


class SigmaKRoot(ConeFunction):
    """k-th root of the k-th elementary symmetric polynomial on Gamma_k."""

    family = "sigma-k-root"
    orders = ("k",)

    def _value(self, lam, table):
        return table[..., self.k - 1] ** (1.0 / self.k)

    def _grad(self, lam, table):
        ek = table[..., self.k - 1, None]
        dk = sigma_deleted(lam, self.k - 1)
        return (1.0 / self.k) * ek ** (1.0 / self.k - 1.0) * dk


class LogSigmaK(SigmaKRoot):
    """Logarithm of the k-th elementary symmetric polynomial on Gamma_k."""

    family = "log-sigma-k"
    _log_degree = property(lambda self: self.k)

    def _value(self, lam, table):
        return np.log(table[..., self.k - 1])

    def _grad(self, lam, table):
        return sigma_deleted(lam, self.k - 1) / table[..., self.k - 1, None]


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

    def _value(self, lam, table):
        r = table[..., self.k - 1] / table[..., self.l - 1]
        return r ** (1.0 / (self.k - self.l))

    def _grad(self, lam, table):
        ek = table[..., self.k - 1, None]
        el = table[..., self.l - 1, None]
        dk, dl = _deleted_table(lam, (self.k - 1, self.l - 1))
        val = (ek / el) ** (1.0 / (self.k - self.l))
        # val / (k - l) * (dk / ek - dl / el), with the difference formed in
        # place: one (points, n) array besides the deleted planes
        grad = np.divide(dk, ek)
        grad -= np.divide(dl, el, out=dl)
        grad *= val / (self.k - self.l)
        return grad

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
    coordinate makes both fail.  The check therefore folds two columns (a
    sum and a max) and forms no table; only a refused point is handed to
    the deleted-sum table, to name its node and inequality.  Value and
    gradient receive S and form each deleted sum S - lam_j one column at a
    time, with the same bits as the table.
    """

    family = "log-p"
    _log_degree = property(lambda self: self.n)

    def _build_cone(self, n):
        return Cone.deleted_sum(n)

    def _check(self, lam):
        lam = self.cone._point(lam)
        total = _fold(np.add, lam)
        if np.min(total - _fold(np.maximum, lam), initial=math.inf) > 0.0:  # NaN fails; an empty batch passes
            return lam, total
        return super()._check(lam)[0], total

    def _value(self, lam, total):
        return _fold(np.add, lam, lambda column: np.log(total - column))

    def _grad(self, lam, total):
        # the reciprocal deleted sums r_j = 1 / (S - lam_j) in the gradient's
        # own columns, then their deleted sums, sum r - r_j, in place
        grad = np.empty_like(lam)
        for j in range(self.n):
            column = grad[..., j]
            np.subtract(total, lam[..., j], out=column)
            np.divide(1.0, column, out=column)
        return np.subtract(_fold(np.add, grad)[..., None], grad, out=grad)


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
    lam, _ = f._check(lam)
    if lam.shape != (f.n,):
        raise ValidationError(f"expected a single vector of length {f.n}, got shape {lam.shape}")
    i = _integer(i, "direction index i")
    if not 0 <= i < f.n:
        raise ValidationError(f"direction index {i} out of range 0..{f.n - 1}")
    valid, limit = f._ray_limit(lam, i)
    return MarginReport(direction=i, valid=valid, limit=limit, psi=_real(psi, "psi"))


def concavity_probe(f, lam, mu):
    """Slack of the supporting-hyperplane inequality at lam against mu.

    Returns ``f(lam) - f(mu) - sum_i f_i(lam)(lam_i - mu_i)``, which
    concavity keeps nonnegative up to rounding (>= -1e-9 is the tested
    bound; a linear family gives exactly zero).
    """
    flam, g = f.value_grad(lam)
    fmu = f.value(mu)
    return flam - fmu - _fold(np.add, g * np.subtract(lam, mu, dtype=float))


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
