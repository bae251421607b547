"""Symmetric cone functions and their Garding cones.

Implements the operator families driving the nonlinear equations: the
log-determinant, elementary-symmetric-root, log-sigma, quotient-root and
log-of-deleted-sums families, each paired with the open symmetric convex
cone on which it is elliptic (positive partial derivatives) and concave.

Also houses the deleted-sum linear algebra: the symmetric matrix Q with
zero diagonal and unit off-diagonal entries maps eigenvalue vectors to
their deleted sums, and the star-power map sends eigenvalues to deleted
products.  Directional limits of every family along coordinate rays are
evaluated in closed form through an exact ray polynomial, never by
numerical extrapolation.

Everything here is pure and accepts batched input along leading axes.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError

__all__ = [
    "ConeDomainError",
    "ValidationError",
    "Cone",
    "ConeFunction",
    "cone_function",
    "FAMILIES",
    "sigma_k",
    "sigma_all",
    "sigma_deleted",
    "q_matrix",
    "q_inverse_matrix",
    "q_det_exact",
    "q_transform",
    "q_inverse",
    "star_power_eigs",
    "MarginReport",
    "c_subsolution_margin",
    "addistruc_probe",
    "concavity_probe",
    "LadderResult",
    "gamma_infinity_member",
    "gamma_r1_member",
    "c_sigma",
    "sample_cone",
    "sample_pairs",
]


class ConeDomainError(ValueError):
    """A point left the cone; carries the first violated inequality."""


# ---------------------------------------------------------------------------
# elementary symmetric polynomials

def sigma_all(lam):
    """All elementary symmetric polynomials e_0..e_n of the last axis.

    Uses the incremental product recurrence (multiply in one root at a
    time, updating coefficients in place from the top), the numerically
    stable way to evaluate these without forming the power sums.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    e = np.zeros(lam.shape[:-1] + (n + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        x = lam[..., i]
        for j in range(min(i + 1, n), 0, -1):
            e[..., j] += x * e[..., j - 1]
    return e


def sigma_k(lam, k):
    """k-th elementary symmetric polynomial of the last axis."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 1 <= k <= n:
        raise ValidationError(f"order k={k} out of range 1..{n}")
    return sigma_all(lam)[..., k]


def sigma_deleted(lam, k):
    """sigma_k with one coordinate deleted, for every coordinate.

    Returns an array whose last axis indexes the deleted coordinate; order
    ``k`` may be 0 (returns ones).  Each deleted polynomial is recomputed
    from scratch, avoiding the unstable downdate recurrence.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.empty(lam.shape)
    for i in range(n):
        rest = np.delete(lam, i, axis=-1)
        if k == 0:
            out[..., i] = 1.0
        else:
            out[..., i] = sigma_all(rest)[..., k]
    return out


def _sigma_ray_poly(lam, v, k):
    """Coefficients (ascending in t) of sigma_k(lam + t*v) as a polynomial in t.

    Exact double-precision dynamic programming over the product
    prod_i (1 + x(lam_i + t v_i)); the x^k coefficient is returned as a
    t-polynomial of degree at most k.
    """
    lam = np.asarray(lam, dtype=float)
    v = np.asarray(v, dtype=float)
    n = lam.size
    # p[j][m] = coefficient of x^j t^m
    p = np.zeros((n + 1, n + 1))
    p[0, 0] = 1.0
    for i in range(n):
        q = p.copy()
        q[1:, :] += lam[i] * p[:-1, :]
        q[1:, 1:] += v[i] * p[:-1, :-1]
        p = q
    coeffs = p[k]
    deg = n
    while deg > 0 and coeffs[deg] == 0.0:
        deg -= 1
    return coeffs[: deg + 1]


def _ray_enters(polys):
    """Whether every polynomial in the list is eventually positive."""
    return all(c[-1] > 0.0 for c in polys)


# ---------------------------------------------------------------------------
# cones

@dataclass(frozen=True)
class Cone:
    """An open symmetric convex cone, either a Garding cone or the
    deleted-sum cone.

    kind "gamma" with order k is the set where sigma_1..sigma_k are all
    positive; kind "deleted-sum" is the set where every sum of all but one
    coordinate is positive.
    """

    kind: str
    n: int
    k: int = 0

    @staticmethod
    def gamma(k, n):
        if not 1 <= k <= n:
            raise ValidationError(f"Garding cone order k={k} out of range 1..{n}")
        return Cone("gamma", n, k)

    @staticmethod
    def deleted_sum(n):
        return Cone("deleted-sum", n)

    def margin(self, lam):
        """Smallest slack among the defining inequalities (batched)."""
        lam = np.asarray(lam, dtype=float)
        if lam.shape[-1] != self.n:
            raise ValidationError(
                f"dimension mismatch: cone has n={self.n}, point has {lam.shape[-1]}"
            )
        if self.kind == "gamma":
            e = sigma_all(lam)
            return np.min(e[..., 1 : self.k + 1], axis=-1)
        mu = np.sum(lam, axis=-1, keepdims=True) - lam
        return np.min(mu, axis=-1)

    def contains(self, lam, margin=0.0):
        return self.margin(lam) > margin

    def violated_inequality(self, lam):
        """Human-readable description of the first failed inequality."""
        lam = np.asarray(lam, dtype=float)
        if self.kind == "gamma":
            e = sigma_all(lam)
            for j in range(1, self.k + 1):
                if e[..., j].min() <= 0:
                    return f"sigma_{j} = {float(np.min(e[..., j])):.6g} <= 0"
        else:
            mu = np.sum(lam, axis=-1, keepdims=True) - lam
            i = int(np.argmin(np.min(mu.reshape(-1, self.n), axis=0)))
            return f"deleted sum {i + 1} = {float(mu.min()):.6g} <= 0"
        return "no violated inequality"

    def ray_description(self):
        if self.kind == "gamma":
            return f"Gamma_{self.k}"
        return f"P_{self.n - 1}"


# ---------------------------------------------------------------------------
# cone function families

class ConeFunction:
    """A symmetric function f with its cone: evaluation, gradient, limits.

    Subclasses fill in ``_value``/``_grad`` on points known to lie in the
    cone, the ray-limit rule and the boundary supremum.  Public entry
    points validate cone membership and raise :class:`ConeDomainError`
    carrying the violated inequality.
    """

    family = None
    sup_boundary = None  # sup of f over the cone boundary
    sup_value = math.inf  # sup of f over the cone

    def __init__(self, n):
        if n < 2:
            raise ValidationError("complex dimension n >= 2 required")
        self.n = n
        self.cone = self._build_cone(n)

    # -- subclass hooks
    def _build_cone(self, n):
        raise NotImplementedError

    def _value(self, lam):
        raise NotImplementedError

    def _grad(self, lam):
        raise NotImplementedError

    def _ray_limit(self, lam, v):
        """(valid, limit) for t -> inf of f(lam + t v), v >= 0 nonzero."""
        raise NotImplementedError

    # -- public surface
    def _check(self, lam):
        lam = np.asarray(lam, dtype=float)
        if lam.shape[-1] != self.n:
            raise ValidationError(
                f"{self.describe()} expects vectors of length {self.n}, "
                f"got {lam.shape[-1]}"
            )
        margin = self.cone.margin(lam)
        if np.min(margin) <= 0.0:
            where, point = "", lam
            if lam.ndim > 1:
                first = int(np.flatnonzero(margin.reshape(-1) <= 0.0)[0])
                where, point = f" at flat index {first}", lam.reshape(-1, self.n)[first]
            raise ConeDomainError(
                f"point outside {self.cone.ray_description()}{where}: "
                + self.cone.violated_inequality(point)
            )
        return lam

    def value(self, lam):
        return self._value(self._check(lam))

    def grad(self, lam):
        return self._grad(self._check(lam))

    def value_grad(self, lam):
        lam = self._check(lam)
        return self._value(lam), self._grad(lam)

    def margin(self, lam):
        return self.cone.margin(np.asarray(lam, dtype=float))

    def ray_limit(self, lam, v):
        """Limit of f along ``lam + t v`` as t grows without bound.

        Closed-form per family through the exact ray polynomial.  Returns
        ``(valid, limit)``; ``valid`` is False when the ray never enters the
        cone (the limit is then meaningless and reported as ``-inf``).
        """
        lam = np.asarray(lam, dtype=float)
        v = np.asarray(v, dtype=float)
        if lam.shape != (self.n,) or v.shape != (self.n,):
            raise ValidationError("ray_limit expects single vectors of length n")
        if np.any(v < 0) or not np.any(v > 0):
            raise ValidationError("ray direction must be nonnegative and nonzero")
        return self._ray_limit(lam, v)

    def describe(self):
        return f"{self.family}(n={self.n})"


class LogMA(ConeFunction):
    """Sum of eigenvalue logarithms on the positive cone."""

    family = "log-ma"
    sup_boundary = -math.inf

    def _build_cone(self, n):
        return Cone.gamma(n, n)

    def _value(self, lam):
        return np.sum(np.log(lam), axis=-1)

    def _grad(self, lam):
        return 1.0 / lam

    def _ray_limit(self, lam, v):
        fixed = lam[v == 0]
        if np.any(fixed <= 0):
            return False, -math.inf
        return True, math.inf


class SigmaKRoot(ConeFunction):
    """k-th root of the k-th elementary symmetric polynomial on Gamma_k."""

    family = "sigma-k-root"
    sup_boundary = 0.0

    def __init__(self, n, k):
        self.k = int(k)
        super().__init__(n)
        if not 1 <= self.k <= n:
            raise ValidationError(f"order k={k} out of range 1..{n}")

    def _build_cone(self, n):
        return Cone.gamma(self.k, n)

    def _value(self, lam):
        return sigma_k(lam, self.k) ** (1.0 / self.k)

    def _grad(self, lam):
        ek = sigma_k(lam, self.k)[..., None]
        dk = sigma_deleted(lam, self.k - 1)
        return (1.0 / self.k) * ek ** (1.0 / self.k - 1.0) * dk

    def _ray_limit(self, lam, v):
        polys = [_sigma_ray_poly(lam, v, j) for j in range(1, self.k + 1)]
        if not _ray_enters(polys):
            return False, -math.inf
        top = polys[-1]
        if len(top) == 1:  # sigma_k independent of t
            return True, top[0] ** (1.0 / self.k)
        return True, math.inf

    def describe(self):
        return f"{self.family}(n={self.n}, k={self.k})"


class LogSigmaK(SigmaKRoot):
    """Logarithm of the k-th elementary symmetric polynomial on Gamma_k."""

    family = "log-sigma-k"
    sup_boundary = -math.inf

    def _value(self, lam):
        return np.log(sigma_k(lam, self.k))

    def _grad(self, lam):
        return sigma_deleted(lam, self.k - 1) / sigma_k(lam, self.k)[..., None]

    def _ray_limit(self, lam, v):
        valid, lim = SigmaKRoot._ray_limit(self, lam, v)
        if not valid:
            return False, -math.inf
        return True, math.inf if math.isinf(lim) else self.k * math.log(lim)


class QuotientRoot(ConeFunction):
    """(sigma_k / sigma_l)^(1/(k-l)) on Gamma_k, k > l >= 1.

    The only built-in family with finite limits along coordinate rays,
    which is what makes its subsolution margins nontrivial.
    """

    family = "quotient-root"
    sup_boundary = 0.0

    def __init__(self, n, k, l):
        self.k = int(k)
        self.l = int(l)
        super().__init__(n)
        if not 1 <= self.l < self.k <= n:
            raise ValidationError(f"need 1 <= l < k <= n, got k={k}, l={l}")

    def _build_cone(self, n):
        return Cone.gamma(self.k, n)

    def _value(self, lam):
        r = sigma_k(lam, self.k) / sigma_k(lam, self.l)
        return r ** (1.0 / (self.k - self.l))

    def _grad(self, lam):
        ek = sigma_k(lam, self.k)[..., None]
        el = sigma_k(lam, self.l)[..., None]
        dk = sigma_deleted(lam, self.k - 1)
        dl = sigma_deleted(lam, self.l - 1)
        val = (ek / el) ** (1.0 / (self.k - self.l))
        return val / (self.k - self.l) * (dk / ek - dl / el)

    def _ray_limit(self, lam, v):
        polys = [_sigma_ray_poly(lam, v, j) for j in range(1, self.k + 1)]
        if not _ray_enters(polys):
            return False, -math.inf
        pk, pl = polys[self.k - 1], polys[self.l - 1]
        dk, dl = len(pk) - 1, len(pl) - 1
        if dk > dl:
            return True, math.inf
        if dk < dl:
            return True, 0.0
        return True, (pk[-1] / pl[-1]) ** (1.0 / (self.k - self.l))

    def describe(self):
        return f"{self.family}(n={self.n}, k={self.k}, l={self.l})"


class LogDeletedSums(ConeFunction):
    """Sum of logarithms of the deleted sums, on the deleted-sum cone.

    The operator of the Monge-Ampere equation for functions whose deleted
    eigenvalue sums are positive.
    """

    family = "log-p"
    sup_boundary = -math.inf

    def _build_cone(self, n):
        return Cone.deleted_sum(n)

    def _value(self, lam):
        mu = np.sum(lam, axis=-1, keepdims=True) - lam
        return np.sum(np.log(mu), axis=-1)

    def _grad(self, lam):
        mu = np.sum(lam, axis=-1, keepdims=True) - lam
        inv = 1.0 / mu
        return np.sum(inv, axis=-1, keepdims=True) - inv

    def _ray_limit(self, lam, v):
        slopes = np.sum(v) - v
        mu = np.sum(lam) - lam
        frozen = slopes == 0
        if np.any(mu[frozen] <= 0):
            return False, -math.inf
        return True, math.inf


FAMILIES = {
    "log-ma": LogMA,
    "sigma-k-root": SigmaKRoot,
    "log-sigma-k": LogSigmaK,
    "quotient-root": QuotientRoot,
    "log-p": LogDeletedSums,
}


def cone_function(family, n, k=None, l=None):
    """Factory for the built-in families.

    family : one of "log-ma", "sigma-k-root", "log-sigma-k",
        "quotient-root", "log-p"
    n : dimension; k, l : integer orders where the family needs them.
    """
    if family not in FAMILIES:
        raise ValidationError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        )
    cls = FAMILIES[family]
    if family in ("sigma-k-root", "log-sigma-k"):
        if k is None:
            raise ValidationError(f"family {family!r} needs an order k")
        return cls(n, k)
    if family == "quotient-root":
        if k is None or l is None:
            raise ValidationError("family 'quotient-root' needs orders k and l")
        return cls(n, k, l)
    return cls(n)


# ---------------------------------------------------------------------------
# deleted-sum transforms

def q_matrix(n):
    """The symmetric integer matrix with zero diagonal, ones elsewhere."""
    if n < 2:
        raise ValidationError("Q is only defined for n >= 2")
    return np.ones((n, n), dtype=int) - np.eye(n, dtype=int)


def q_inverse_matrix(n):
    """Exact inverse of Q as a Fraction matrix: (1/(n-1)) J - I."""
    if n < 2:
        raise ValidationError("Q is only defined for n >= 2")
    r = Fraction(1, n - 1)
    return [[r - (1 if i == j else 0) for j in range(n)] for i in range(n)]


def q_det_exact(n):
    """det Q as an exact integer, via fraction-free (Bareiss) elimination."""
    m = [[int(x) for x in row] for row in q_matrix(n)]
    prev = 1
    sign = 1
    size = len(m)
    for p in range(size - 1):
        if m[p][p] == 0:
            swap = next((r for r in range(p + 1, size) if m[r][p] != 0), None)
            if swap is None:
                return 0
            m[p], m[swap] = m[swap], m[p]
            sign = -sign
        for r in range(p + 1, size):
            for c in range(p + 1, size):
                m[r][c] = (m[r][c] * m[p][p] - m[r][p] * m[p][c]) // prev
            m[r][p] = 0
        prev = m[p][p]
    return sign * m[-1][-1]


def _is_exact(vec):
    return all(isinstance(x, (int, Fraction)) for x in vec)


def q_transform(mu):
    """Map deleted sums back to the underlying vector: lam = mu Q^{-1}.

    Componentwise ``lam_i = sum(mu)/(n-1) - mu_i``.  Integer or Fraction
    input is processed in exact rational arithmetic so the round trip with
    :func:`q_inverse` is exact; float input stays float.
    """
    if isinstance(mu, (list, tuple)) and _is_exact(mu):
        n = len(mu)
        if n < 2:
            raise ValidationError("Q is only defined for n >= 2")
        s = Fraction(sum(Fraction(x) for x in mu), n - 1)
        return [s - Fraction(x) for x in mu]
    mu = np.asarray(mu, dtype=float)
    n = mu.shape[-1]
    if n < 2:
        raise ValidationError("Q is only defined for n >= 2")
    return np.sum(mu, axis=-1, keepdims=True) / (n - 1) - mu


def q_inverse(lam):
    """Map a vector to its deleted sums: mu = lam Q, mu_i = sum_{j != i} lam_j."""
    if isinstance(lam, (list, tuple)) and _is_exact(lam):
        n = len(lam)
        if n < 2:
            raise ValidationError("Q is only defined for n >= 2")
        s = sum(Fraction(x) for x in lam)
        return [s - Fraction(x) for x in lam]
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if n < 2:
        raise ValidationError("Q is only defined for n >= 2")
    return np.sum(lam, axis=-1, keepdims=True) - lam


def star_power_eigs(lam):
    """Deleted products: mu_i = prod_{j != i} lam_j (batched, zeros allowed).

    On strictly positive input this is the exponential of the deleted-sum
    map applied to the logarithms.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.empty(lam.shape)
    for i in range(n):
        out[..., i] = np.prod(np.delete(lam, i, axis=-1), axis=-1)
    return out


# ---------------------------------------------------------------------------
# structural probes

@dataclass
class MarginReport:
    """Directional limit of f against a target level.

    ``valid`` is False when the ray never enters the cone.  ``margin`` is
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

    @property
    def is_subsolution_direction(self):
        return self.valid and self.margin > 0


def c_subsolution_margin(f, lam, psi, i):
    """Margin of the relaxed (asymptotic) subsolution condition in direction i.

    Evaluates ``lim_t f(lam + t e_i) - psi`` with the family's closed-form
    limit.  ``lam`` must lie in the cone.
    """
    lam = np.asarray(lam, dtype=float)
    f._check(lam)
    if not 0 <= i < f.n:
        raise ValidationError(f"direction index {i} out of range 0..{f.n - 1}")
    v = np.zeros(f.n)
    v[i] = 1.0
    valid, limit = f.ray_limit(lam, v)
    return MarginReport(direction=i, valid=valid, limit=limit, psi=float(psi))


def addistruc_probe(f, lam, mu):
    """Sampled certificate sum_i f_i(lam) mu_i > 0 for cone points lam, mu."""
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    f._check(mu)
    g = f.grad(lam)
    return bool(np.all(np.sum(g * mu, axis=-1) > 0.0))


def concavity_probe(f, lam, mu):
    """Slack of the supporting-hyperplane inequality at lam against mu.

    Returns ``f(lam) - f(mu) - sum_i f_i(lam)(lam_i - mu_i)``, which
    concavity keeps nonnegative up to rounding (>= -1e-9 is the tested
    bound; a linear family gives exactly zero).
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    flam, g = f.value_grad(lam)
    fmu = f.value(mu)
    return flam - fmu - np.sum(g * (lam - mu), axis=-1)


@dataclass
class LadderResult:
    member: bool
    conclusive: bool
    r_entry: float = math.nan


def gamma_infinity_member(lam_prime, cone, r_max=2.0**40):
    """Membership of lam' in the projection of the cone along its last axis.

    Searches the geometric ladder R = 1, 2, 4, ... for an R with
    ``(lam', R)`` inside the cone.  A miss up to ``r_max`` is reported as
    non-membership with ``conclusive=False``.
    """
    lam_prime = np.asarray(lam_prime, dtype=float)
    if lam_prime.shape != (cone.n - 1,):
        raise ValidationError(
            f"projection test expects length {cone.n - 1}, got {lam_prime.shape}"
        )
    r = 1.0
    while r <= r_max:
        if cone.margin(np.append(lam_prime, r)) > 0:
            return LadderResult(True, True, r)
        r *= 2.0
    return LadderResult(False, False)


def gamma_r1_member(c, cone, t_max=2.0**40):
    """Membership of the scalar c in {c : (t,...,t,c) in cone for some t>0}."""
    t = 1.0
    while t <= t_max:
        point = np.full(cone.n, t)
        point[-1] = c
        if cone.margin(point) > 0:
            return LadderResult(True, True, t)
        t *= 2.0
    return LadderResult(False, False)


def c_sigma(f, sigma, tol=1e-10):
    """The scalar c with f(c, c, ..., c) = sigma, by monotone bisection.

    The diagonal ray enters every built-in cone for c > 0 and f is strictly
    increasing along it, so a bracket is found by doubling/halving and then
    bisected until the residual drops below ``tol``.  Levels outside the
    range attained on the ray raise :class:`ConeDomainError`.
    """
    sigma = float(sigma)

    def val(c):
        return float(f.value(np.full(f.n, c)))

    lo = hi = 1.0
    for _ in range(600):
        if val(hi) >= sigma:
            break
        hi *= 2.0
    else:
        raise ConeDomainError(f"level {sigma} unattainable on the diagonal ray")
    for _ in range(600):
        if val(lo) <= sigma:
            break
        lo /= 2.0
    else:
        raise ConeDomainError(f"level {sigma} unattainable on the diagonal ray")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        r = val(mid) - sigma
        if abs(r) < tol:
            return mid
        if r < 0:
            lo = mid
        else:
            hi = mid
    raise ConeDomainError(f"bisection failed to reach residual {tol}")


# ---------------------------------------------------------------------------
# sampling (tests, probes, CLI)

def sample_cone(cone, count, rng, box=3.0):
    """Draw cone points: positive-orthant draws mixed with box rejection.

    The positive draws guarantee progress for thin cones; the rejection
    draws cover the part of the cone outside the positive orthant.
    """
    want_pos = count // 2
    pos = np.exp(rng.uniform(-1.5, 1.2, size=(want_pos, cone.n)))
    keep = [pos[cone.margin(pos) > 0]]
    got = len(keep[0])
    while got < count:
        cand = rng.uniform(-box, box, size=(4 * count, cone.n))
        good = cand[cone.margin(cand) > 0]
        keep.append(good)
        got += len(good)
    return np.concatenate(keep)[:count]


def sample_pairs(cone, count, rng, box=3.0):
    lam = sample_cone(cone, count, rng, box)
    mu = sample_cone(cone, count, rng, box)
    return lam, mu
