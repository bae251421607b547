"""Independent reference computations for the benchmark's output checks.

Nothing here imports the package under test.  Every reference is computed
another way than the package computes it: scipy's generalized ``eigh``
for eigenvalues relative to a metric, the analytic complex Hessian of the
manufactured ``u``, ``slogdet`` for log-determinants, scalar index loops
over point stencils for the Z tensor and the Gauduchon forms, Vieta's
formulas (``np.poly``) for elementary symmetric polynomials and central
differences for gradients.
"""

import math

import numpy as np
import scipy.linalg


class Checker:
    """Counts oracle checks attempted and failed; keeps the first failures."""

    MAX_MESSAGES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(what)

    def close(self, what, got, want, tol):
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        self.check(err <= tol, f"{what}: error {err:.3e} > tolerance {tol:.3e}")

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# point stencils on the torus x strip grid, one node at a time

class PointStencils:
    """Second-order stencils evaluated at single nodes by explicit indexing.

    Axes are periodic except ``strip_axis``, which uses one-sided
    second-order closures on its two boundary slices: the same
    discretization the grid module applies to whole arrays, written
    independently.
    """

    def __init__(self, shape, spacing, strip_axis):
        self.shape = tuple(shape)
        self.spacing = tuple(spacing)
        self.strip_axis = strip_axis

    def _weights(self, axis, i, order):
        size, h = self.shape[axis], self.spacing[axis]
        central = {1: ((-1, -0.5), (1, 0.5)), 2: ((-1, 1.0), (0, -2.0), (1, 1.0))}
        if axis != self.strip_axis:
            return [((i + o) % size, w / h**order) for o, w in central[order]]
        if 0 < i < size - 1:
            return [(i + o, w / h**order) for o, w in central[order]]
        if order == 1:
            taps = ((0, -1.5), (1, 2.0), (2, -0.5))
            sign = 1.0 if i == 0 else -1.0
        else:
            taps = ((0, 2.0), (1, -5.0), (2, 4.0), (3, -1.0))
            sign = 1.0
        if i == 0:
            return [(o, sign * w / h**order) for o, w in taps]
        return [(size - 1 - o, sign * w / h**order) for o, w in taps]

    def deriv(self, value_at, idx, axis, order):
        """Derivative of a node function ``value_at(idx)`` along ``axis``."""
        total = 0.0
        for j, w in self._weights(axis, idx[axis], order):
            moved = list(idx)
            moved[axis] = j
            total = total + w * value_at(tuple(moved))
        return total

    def mixed(self, value_at, idx, a, b):
        return self.deriv(lambda j: self.deriv(value_at, j, b, 1), idx, a, 1)

    def d_dz(self, field, idx, i):
        """(d/dx_i - sqrt(-1) d/dy_i)/2 of an array field at one node."""
        at = field.__getitem__
        return 0.5 * (self.deriv(at, idx, 2 * i, 1) - 1j * self.deriv(at, idx, 2 * i + 1, 1))

    def complex_hessian(self, u, idx, n):
        at = u.__getitem__
        h = np.zeros((n, n), dtype=complex)
        for i in range(n):
            xi, yi = 2 * i, 2 * i + 1
            h[i, i] = 0.25 * (self.deriv(at, idx, xi, 2) + self.deriv(at, idx, yi, 2))
            for j in range(n):
                if j == i:
                    continue
                xj, yj = 2 * j, 2 * j + 1
                h[i, j] = 0.25 * (
                    self.mixed(at, idx, xi, xj)
                    + self.mixed(at, idx, yi, yj)
                    + 1j * self.mixed(at, idx, xi, yj)
                    - 1j * self.mixed(at, idx, yi, xj)
                )
        return h


def torsion_at(stencils, g, idx, n):
    """T[k, i, j] = g^{k lbar} (d_i g_{j lbar} - d_j g_{i lbar}) by index loops."""
    dg = [stencils.d_dz(g, idx, i) for i in range(n)]  # dg[i][j, l]
    ginv = np.linalg.inv(g[idx])
    t = np.zeros((n, n, n), dtype=complex)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                t[k, i, j] = sum(
                    ginv[l, k] * (dg[i][j, l] - dg[j][i, l]) for l in range(n)
                )
    return t


def z_at(t, g, uz, n):
    """The six-term gradient tensor Z at one node, by index loops."""
    ginv = np.linalg.inv(g)

    def up(i, j):  # g^{i jbar}
        return ginv[j, i]

    ub = np.conj(uz)
    c = 1.0 / (2.0 * (n - 1))
    z = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for p in range(n):
                for q in range(n):
                    for l in range(n):
                        acc += c * up(p, q) * np.conj(t[l, q, l]) * g[i, j] * uz[p]
                        acc += c * up(p, q) * t[l, p, l] * g[i, j] * ub[q]
            for k in range(n):
                for l in range(n):
                    for q in range(n):
                        acc -= c * up(k, l) * g[i, q] * np.conj(t[q, l, j]) * uz[k]
                        acc -= c * up(k, l) * g[q, j] * t[q, k, i] * ub[l]
            for l in range(n):
                acc -= c * np.conj(t[l, j, l]) * uz[i]
                acc -= c * t[l, i, l] * ub[j]
            z[i, j] = acc
    return z


def gauduchon_at(stencils, u, g, chi, rho, idx, n):
    """Reference (U, g-form) pair at one node from point stencils and loops."""
    gm = g[idx]
    ginv = np.linalg.inv(gm)

    def trace(h):  # sum_{i,j} g^{i jbar} h_{i jbar}
        return sum(ginv[j, i] * h[i, j] for i in range(n) for j in range(n)).real

    hess = stencils.complex_hessian(u, idx, n)
    uz = np.array([stencils.d_dz(u, idx, p) for p in range(n)])
    z = z_at(torsion_at(stencils, g, idx, n), gm, uz, n)
    w = trace(z) * gm - (n - 1) * z
    c = chi[idx]
    u_form = c + trace(hess) * gm - hess + rho * z
    g_form = hess + trace(c) / (n - 1) * gm - c + rho * w / (n - 1)
    return u_form, g_form


# ---------------------------------------------------------------------------
# eigenvalues relative to a metric

def check_eig(checker, where, h, g, lam, vec):
    """Eigenvalues against scipy's generalized eigh; vectors by residual."""
    ref = scipy.linalg.eigh(h, g, eigvals_only=True)
    scale = max(1.0, float(np.max(np.abs(ref))))
    checker.close(f"eigenvalues at {where}", lam, ref, 1e-10 * scale)
    if vec is not None:
        n = h.shape[0]
        ortho = np.conj(vec.T) @ g @ vec - np.eye(n)
        resid = h @ vec - g @ vec * lam[None, :]
        checker.close(f"eigenvector orthonormality at {where}", ortho, 0.0, 1e-9)
        checker.close(f"eigenvector residual at {where}", resid, 0.0, 1e-9 * scale)


# ---------------------------------------------------------------------------
# cone families

def vieta_sigma(lam, k):
    """sigma_k(lam) from the characteristic polynomial's coefficients."""
    return (-1) ** k * float(np.real(np.poly(lam)[k]))


def sigma_grad(lam, k, delta=1.0):
    """Gradient of sigma_k by central differences of the Vieta value.

    sigma_k is affine in each coordinate, so the central difference is
    exact up to rounding for any step.
    """
    out = np.empty(len(lam))
    for i in range(len(lam)):
        e = np.zeros(len(lam))
        e[i] = delta
        out[i] = (vieta_sigma(lam + e, k) - vieta_sigma(lam - e, k)) / (2 * delta)
    return out


def family_reference(family, lam, k=None, l=None):
    """(value, gradient) of a Garding-cone family by Vieta and differences."""
    lam = np.asarray(lam, dtype=float)
    sk, gk = vieta_sigma(lam, k), sigma_grad(lam, k)
    if family == "sigma-k-root":
        return sk ** (1.0 / k), (1.0 / k) * sk ** (1.0 / k - 1.0) * gk
    if family == "log-sigma-k":
        return math.log(sk), gk / sk
    if family == "quotient-root":
        sl, gl = vieta_sigma(lam, l), sigma_grad(lam, l)
        val = (sk / sl) ** (1.0 / (k - l))
        return val, val / (k - l) * (gk / sk - gl / sl)
    raise ValueError(f"no Vieta reference for family {family!r}")


def log_ma(lam):
    return float(np.sum(np.log(lam)))


def log_p(lam):
    return float(np.sum(np.log(np.sum(lam) - lam)))


def central_grad(fun, lam, delta=1e-6):
    out = np.empty(len(lam))
    for i in range(len(lam)):
        e = np.zeros(len(lam))
        e[i] = delta
        out[i] = (fun(lam + e) - fun(lam - e)) / (2 * delta)
    return out


# ---------------------------------------------------------------------------
# bordered matrices

def growth_threshold_main(eps, d, a):
    n = len(d) + 1
    return (
        (2 * n - 3) / eps * float(np.sum(np.abs(a) ** 2))
        + (n - 1) * float(np.sum(np.abs(d)))
        + (n - 2) * eps / (2 * n - 3)
    )


def bordered_counts(d, a, aa, eps):
    """Eigenvalue counts per connected component of the union of open
    intervals (d_i - r, d_i + r), r = eps/(2n-3), for one bordered matrix."""
    m = len(d)
    n = m + 1
    mat = np.zeros((n, n), dtype=complex)
    mat[:m, :m] = np.diag(d)
    mat[:m, m] = a
    mat[m, :m] = np.conj(a)
    mat[m, m] = aa
    eigs = scipy.linalg.eigvalsh(mat)
    r = eps / (2 * n - 3)
    comps = []
    for x in sorted(d):
        if comps and x - r < comps[-1][1]:
            comps[-1][1] = x + r
        else:
            comps.append([x - r, x + r])
    return [int(np.sum((eigs > lo) & (eigs < hi))) for lo, hi in comps]
