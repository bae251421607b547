"""The discretized product manifold and its complex tensor calculus.

The model space is a complex torus of dimension n-1 times a periodic strip
{s0 <= Re w <= s1} (an annulus in its universal strip chart, with one global
holomorphic coordinate).  The boundary consists of the two slices
Re w = s0 and Re w = s1, which are holomorphically flat by construction.

A scalar or tensor field is a plain numpy array over the grid shape; real
coordinates are ordered (x_1, y_1, ..., x_n, y_n) with z_k = x_k + i y_k,
so there are 2n axes.  Every axis is periodic except Re w.  An axis of
resolution 1 represents a direction the problem data does not vary along
(all derivatives vanish identically there); resolved axes need at least 8
points.

Derivative stencils are second-order centered, with one-sided second-order
closures on the two boundary slices of the Re w axis.

The per-node eigenproblems of :func:`eig_wrt_metric` are solved in closed
form at n = 2 and by LAPACK's ``eigh`` for every other n.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, PositivityError, ValidationError

__all__ = [
    "GridError",
    "PositivityError",
    "ProductGrid",
    "d1",
    "d2",
    "d1d1",
    "d_dz",
    "d_dzbar",
    "complex_hessian",
    "Metric",
    "metric_flat",
    "metric_conformal",
    "metric_product",
    "gfield",
    "torsion",
    "torsion_trace",
    "z_coefficients",
    "z_tensor",
    "w_from_z",
    "check_hermitian_field",
    "gauduchon_fields",
    "hat_transform",
    "eig_wrt_metric",
    "laplacian",
    "trace_wrt_metric",
]

MIN_RESOLUTION = 8
_EIG2_BLOCK = 4096  # nodes per pass of the closed-form 2x2 eigensolve


@dataclass(frozen=True)
class ProductGrid:
    """Uniform grid on (torus)^(n-1) x strip.

    Parameters
    ----------
    n : complex dimension (>= 2)
    torus_periods : tuple of (Lx, Ly) pairs, one per torus factor
    strip_bounds : (s0, s1) with s0 < s1, the range of Re w
    resolutions : 2n ints; each is 1 (frozen direction) or >= 8, the
        Re w axis always >= 8
    strip_imag_period : period of Im w (default 2 pi)
    """

    n: int
    torus_periods: tuple
    strip_bounds: tuple
    resolutions: tuple
    strip_imag_period: float = 2.0 * math.pi

    def __post_init__(self):
        if self.n < 2:
            raise GridError("complex dimension n >= 2 required")
        if len(self.torus_periods) != self.n - 1:
            raise GridError(f"need {self.n - 1} torus period pairs")
        object.__setattr__(
            self, "torus_periods",
            tuple((float(a), float(b)) for a, b in self.torus_periods),
        )
        s0, s1 = (float(v) for v in self.strip_bounds)
        if not s0 < s1:
            raise GridError("strip bounds must satisfy s0 < s1")
        object.__setattr__(self, "strip_bounds", (s0, s1))
        res = tuple(int(r) for r in self.resolutions)
        if len(res) != 2 * self.n:
            raise GridError(f"need {2 * self.n} resolutions, got {len(res)}")
        for a, r in enumerate(res):
            if r != 1 and r < MIN_RESOLUTION:
                raise GridError(
                    f"axis {a}: resolution {r} invalid (frozen axes use 1, "
                    f"resolved axes need >= {MIN_RESOLUTION})"
                )
        if res[2 * self.n - 2] < MIN_RESOLUTION:
            raise GridError("the Re w axis carries the boundary and must be resolved")
        object.__setattr__(self, "resolutions", res)

    # -- layout ------------------------------------------------------------
    @property
    def shape(self):
        return self.resolutions

    @property
    def num_nodes(self):
        return int(np.prod(self.resolutions))

    @property
    def strip_axis(self):
        return 2 * self.n - 2

    @property
    def strip_imag_axis(self):
        return 2 * self.n - 1

    def is_periodic(self, axis):
        return axis != self.strip_axis

    def period(self, axis):
        if axis == self.strip_axis:
            raise GridError("Re w is not periodic")
        if axis == self.strip_imag_axis:
            return self.strip_imag_period
        return self.torus_periods[axis // 2][axis % 2]

    def spacing(self, axis):
        r = self.resolutions[axis]
        if axis == self.strip_axis:
            return (self.strip_bounds[1] - self.strip_bounds[0]) / (r - 1)
        if r == 1:
            return self.period(axis)
        return self.period(axis) / r

    def coord(self, axis):
        r = self.resolutions[axis]
        if axis == self.strip_axis:
            return np.linspace(*self.strip_bounds, r)
        return np.arange(r) * self.spacing(axis)

    def coord_field(self, axis):
        """Coordinate values of one axis, broadcastable to the grid shape."""
        shape = [1] * (2 * self.n)
        shape[axis] = self.resolutions[axis]
        return self.coord(axis).reshape(shape)

    def sigma_hat(self):
        """Normalized strip coordinate (Re w - s0)/(s1 - s0), broadcastable."""
        s0, s1 = self.strip_bounds
        return (self.coord_field(self.strip_axis) - s0) / (s1 - s0)

    # -- boundary bookkeeping ------------------------------------------------
    def boundary_mask(self):
        m = np.zeros(self.shape, dtype=bool)
        idx_lo = [slice(None)] * (2 * self.n)
        idx_lo[self.strip_axis] = 0
        idx_hi = list(idx_lo)
        idx_hi[self.strip_axis] = self.resolutions[self.strip_axis] - 1
        m[tuple(idx_lo)] = True
        m[tuple(idx_hi)] = True
        return m

    def interior_slicer(self):
        idx = [slice(None)] * (2 * self.n)
        idx[self.strip_axis] = slice(1, self.resolutions[self.strip_axis] - 1)
        return tuple(idx)

    def node_location(self, flat_index):
        return tuple(int(v) for v in np.unravel_index(flat_index, self.shape))

    def zeros(self, dtype=float):
        return np.zeros(self.shape, dtype=dtype)


# ---------------------------------------------------------------------------
# real-coordinate derivative stencils

def _d1_periodic(u, axis, h):
    if u.shape[axis] == 1:
        return np.zeros_like(u)
    return (np.roll(u, -1, axis) - np.roll(u, 1, axis)) / (2 * h)


def _d2_periodic(u, axis, h):
    if u.shape[axis] == 1:
        return np.zeros_like(u)
    return (np.roll(u, -1, axis) - 2 * u + np.roll(u, 1, axis)) / (h * h)


def _take(u, axis, i):
    return np.take(u, i, axis=axis)


def _d1_strip(u, axis, h):
    out = np.empty_like(u)
    sl = [slice(None)] * u.ndim
    sl[axis] = slice(1, -1)
    out[tuple(sl)] = (
        np.take(u, range(2, u.shape[axis]), axis) - np.take(u, range(u.shape[axis] - 2), axis)
    ) / (2 * h)
    lo = [slice(None)] * u.ndim
    lo[axis] = 0
    out[tuple(lo)] = (
        -3 * _take(u, axis, 0) + 4 * _take(u, axis, 1) - _take(u, axis, 2)
    ) / (2 * h)
    hi = [slice(None)] * u.ndim
    hi[axis] = u.shape[axis] - 1
    out[tuple(hi)] = (
        3 * _take(u, axis, -1) - 4 * _take(u, axis, -2) + _take(u, axis, -3)
    ) / (2 * h)
    return out


def _d2_strip(u, axis, h):
    out = np.empty_like(u)
    sl = [slice(None)] * u.ndim
    sl[axis] = slice(1, -1)
    out[tuple(sl)] = (
        np.take(u, range(2, u.shape[axis]), axis)
        - 2 * np.take(u, range(1, u.shape[axis] - 1), axis)
        + np.take(u, range(u.shape[axis] - 2), axis)
    ) / (h * h)
    lo = [slice(None)] * u.ndim
    lo[axis] = 0
    out[tuple(lo)] = (
        2 * _take(u, axis, 0) - 5 * _take(u, axis, 1)
        + 4 * _take(u, axis, 2) - _take(u, axis, 3)
    ) / (h * h)
    hi = [slice(None)] * u.ndim
    hi[axis] = u.shape[axis] - 1
    out[tuple(hi)] = (
        2 * _take(u, axis, -1) - 5 * _take(u, axis, -2)
        + 4 * _take(u, axis, -3) - _take(u, axis, -4)
    ) / (h * h)
    return out


def d1(grid, u, axis):
    """First derivative along a real coordinate axis."""
    u = np.asarray(u)
    h = grid.spacing(axis)
    if grid.is_periodic(axis):
        return _d1_periodic(u, axis, h)
    return _d1_strip(u, axis, h)


def d2(grid, u, axis):
    """Second derivative along a real coordinate axis."""
    u = np.asarray(u)
    h = grid.spacing(axis)
    if grid.is_periodic(axis):
        return _d2_periodic(u, axis, h)
    return _d2_strip(u, axis, h)


def d1d1(grid, u, axis_a, axis_b):
    """Mixed second derivative along two distinct axes (operators commute)."""
    return d1(grid, d1(grid, u, axis_b), axis_a)


# ---------------------------------------------------------------------------
# complex derivatives and the complex Hessian

def d_dz(grid, u, i):
    """Holomorphic derivative along z_i: (d/dx_i - i d/dy_i)/2."""
    return 0.5 * (d1(grid, u, 2 * i) - 1j * d1(grid, u, 2 * i + 1))


def d_dzbar(grid, u, i):
    """Antiholomorphic derivative along z_i: (d/dx_i + i d/dy_i)/2."""
    return 0.5 * (d1(grid, u, 2 * i) + 1j * d1(grid, u, 2 * i + 1))


def grad_z(grid, u):
    """All holomorphic derivatives, stacked on a trailing axis."""
    return np.stack([d_dz(grid, u, i) for i in range(grid.n)], axis=-1)


def complex_hessian(grid, u):
    """Mixed complex Hessian u_{i jbar}, Hermitian by construction.

    Diagonal entries are quarter-Laplacians in each complex coordinate; the
    off-diagonal entries combine the four real cross stencils and the lower
    triangle mirrors the upper conjugate, which is exact because stencils
    along distinct axes commute.
    """
    u = np.asarray(u)
    n = grid.n
    h = np.zeros(u.shape + (n, n), dtype=complex)
    for i in range(n):
        h[..., i, i] = 0.25 * (d2(grid, u, 2 * i) + d2(grid, u, 2 * i + 1))
        for j in range(i + 1, n):
            val = 0.25 * (
                d1d1(grid, u, 2 * i, 2 * j)
                + d1d1(grid, u, 2 * i + 1, 2 * j + 1)
                + 1j * d1d1(grid, u, 2 * i, 2 * j + 1)
                - 1j * d1d1(grid, u, 2 * i + 1, 2 * j)
            )
            h[..., i, j] = val
            h[..., j, i] = np.conj(val)
    return h


# ---------------------------------------------------------------------------
# metrics

@dataclass(frozen=True, eq=False)
class Metric:
    """Hermitian metric on the grid; ``g=None`` is the flat identity metric.

    A metric cannot be changed after construction, so its caches never go
    stale: the dataclass is frozen, and ``g`` is kept as a read-only copy,
    so writing into it raises and writing into the array it was built from
    does not reach it.  Everything that depends on the metric alone is
    computed once, on first use, and returned read-only:

    - the inverse (:meth:`inverse`),
    - the inverse Cholesky factor that reduces the generalized eigenproblem
      (:meth:`inv_cholesky`),
    - the Z coefficient tensor (:meth:`z_coefficients`); the torsion it is
      built from is not kept,
    - a passed positivity check (:meth:`validate_positive`).

    Two metrics are equal only when they are the same object, which also
    makes a metric hashable.  ``name`` records the preset for run ledgers.
    """

    grid: ProductGrid
    g: np.ndarray = None
    name: str = "flat"
    _inv: np.ndarray = field(default=None, init=False, repr=False)
    _linv: np.ndarray = field(default=None, init=False, repr=False)
    _za: np.ndarray = field(default=None, init=False, repr=False)
    _positive: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        if self.g is not None:
            self._keep("g", np.array(self.g))

    def _keep(self, name, value):
        """Store a read-only array on the frozen metric."""
        value.flags.writeable = False
        object.__setattr__(self, name, value)

    @property
    def is_flat(self):
        return self.g is None

    def matrix(self):
        if self.is_flat:
            return np.broadcast_to(
                np.eye(self.grid.n, dtype=complex),
                self.grid.shape + (self.grid.n, self.grid.n),
            )
        return self.g

    def inverse(self):
        if self.is_flat:
            return self.matrix()
        if self._inv is None:
            self._keep("_inv", np.linalg.inv(self.g))
        return self._inv

    def inv_cholesky(self):
        """Inverse of the per-node Cholesky factor of g (lower triangular)."""
        if self.is_flat:
            return self.matrix()
        if self._linv is None:
            lo = np.linalg.cholesky(self.g)
            self._keep("_linv", np.linalg.inv(lo))
        return self._linv

    def z_coefficients(self):
        """The :func:`z_coefficients` tensor of this metric, computed once."""
        if self._za is None:
            self._keep("_za", z_coefficients(self.grid, self))
        return self._za

    def validate_positive(self):
        """Raise :class:`PositivityError` at the first node where g is not
        positive definite; once the check has passed it returns at once."""
        if self.is_flat or self._positive:
            return
        eigs = np.linalg.eigvalsh(self.g)
        bad = eigs[..., 0] <= 0
        if np.any(bad):
            where = int(np.flatnonzero(bad.reshape(-1))[0])
            raise PositivityError(
                f"metric not positive definite at node {self.grid.node_location(where)}"
                f" (min eigenvalue {float(eigs[..., 0].min()):.3e})"
            )
        object.__setattr__(self, "_positive", True)


def metric_flat(grid):
    return Metric(grid, None, name="flat")


def metric_conformal(grid, eps):
    """Conformal metric exp(eps * cos(2 pi x_1 / L)) times the identity."""
    lx = grid.torus_periods[0][0]
    rho = eps * np.cos(2 * math.pi * grid.coord_field(0) / lx)
    factor = np.broadcast_to(np.exp(rho), grid.shape).astype(complex)
    g = np.zeros(grid.shape + (grid.n, grid.n), dtype=complex)
    for i in range(grid.n):
        g[..., i, i] = factor
    m = Metric(grid, g, name=f"conformal({eps})")
    m.validate_positive()
    return m


def metric_product(grid, profile):
    """Product metric diag(1, ..., 1, g_S(sigma_hat)); g_S must be positive."""
    gs = np.broadcast_to(profile(grid.sigma_hat()), grid.shape).astype(complex)
    g = np.zeros(grid.shape + (grid.n, grid.n), dtype=complex)
    for i in range(grid.n - 1):
        g[..., i, i] = 1.0
    g[..., grid.n - 1, grid.n - 1] = gs
    m = Metric(grid, g, name="product")
    m.validate_positive()
    return m


# ---------------------------------------------------------------------------
# tensor assembly

def check_hermitian_field(h, tol=1e-10):
    """Largest deviation from Hermiticity over all nodes."""
    dev = np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2))))
    if dev > tol:
        raise ValidationError(f"field is not Hermitian: deviation {dev:.3e}")
    return dev


def gfield(grid, u, chi, eta=None):
    """The deformed form chi + complex Hessian + gradient coupling.

    ``eta`` is a constant or per-node complex vector of length n; the
    coupling adds u_i conj(eta_j) + eta_i conj(u_j) to each node matrix.
    """
    g = complex_hessian(grid, u) + chi
    if eta is not None:
        eta = np.asarray(eta, dtype=complex)
        uz = grad_z(grid, u)
        g = g + uz[..., :, None] * np.conj(eta)[..., None, :]
        g = g + eta[..., :, None] * np.conj(uz)[..., None, :]
    return g


def torsion(grid, metric):
    """Chern torsion T^k_{ij} of the metric, antisymmetric in (i, j).

    Indices are stored as T[..., k, i, j].  The flat metric returns zeros
    without touching any stencil.
    """
    n = grid.n
    if metric.is_flat:
        return np.zeros(grid.shape + (n, n, n), dtype=complex)
    g = metric.g
    dg = np.stack(
        [d_dz(grid, g, i) for i in range(n)], axis=-3
    )  # dg[..., i, j, l] = partial_i g_{j lbar}
    ginv = metric.inverse()
    # g^{k lbar} = inverse matrix entry [l, k]
    anti = dg - np.swapaxes(dg, -3, -2)  # partial_i g_{j l} - partial_j g_{i l}
    return np.einsum("...lk,...ijl->...kij", ginv, anti)


def torsion_trace(t):
    """tau_i = sum_k T^k_{ik}."""
    return np.einsum("...kik->...i", t)


def z_coefficients(grid, metric, t=None):
    """Coefficient tensors ZA[..., p, i, j] with Z = sum_p ZA[p] u_p + h.c.

    Encodes the six-term torsion contraction of the gradient tensor in the
    deformed-form equation; Z vanishes identically for torsion-free metrics
    and is linear in the holomorphic gradient of u.  Computed afresh on
    every call; :meth:`Metric.z_coefficients` keeps one copy per metric.
    """
    n = grid.n
    if t is None:
        t = torsion(grid, metric)
    tau = torsion_trace(t)
    g = metric.matrix()
    ginv = metric.inverse()
    # w_p = sum_q g^{p qbar} conj(tau_q)
    w = np.einsum("...qp,...q->...p", ginv, np.conj(tau))
    # b[p, i, j] = sum_{l, q} g^{k=p, lbar} g_{i qbar} conj(T^q_{l j})
    b = np.einsum("...lp,...iq,...qlj->...pij", ginv, g, np.conj(t))
    eye = np.eye(n)
    za = (
        w[..., :, None, None] * g[..., None, :, :]
        - b
        - eye[:, :, None] * np.conj(tau)[..., None, None, :]
    ) / (2.0 * (n - 1))
    return za


def z_tensor(grid, metric, u, za=None):
    """Gradient tensor Z(partial u) as a Hermitian field.

    ``za`` defaults to the coefficients cached on the metric.
    """
    if za is None:
        if metric.is_flat:
            return np.zeros(grid.shape + (grid.n, grid.n), dtype=complex)
        za = metric.z_coefficients()
    uz = grad_z(grid, u)
    z = np.einsum("...pij,...p->...ij", za, uz)
    return z + np.conj(np.swapaxes(z, -1, -2))


def w_from_z(metric, z):
    """W = (trace of Z wrt the metric) g - (n-1) Z."""
    n = z.shape[-1]
    tr = trace_wrt_metric(metric, z)
    return tr[..., None, None] * metric.matrix() - (n - 1) * z


def trace_wrt_metric(metric, h):
    """tr_omega H = sum g^{i jbar} H_{i jbar} (real for Hermitian H)."""
    if metric.is_flat:
        return np.einsum("...ii->...", h).real
    return np.einsum("...ji,...ij->...", metric.inverse(), h).real


def laplacian(grid, u, metric):
    """Complex Laplacian of a scalar with respect to the metric."""
    return trace_wrt_metric(metric, complex_hessian(grid, u))


def hat_transform(metric, h):
    """(tr_omega H) g - H; exchanges the two forms of the deleted-sum equation."""
    tr = trace_wrt_metric(metric, h)
    return tr[..., None, None] * metric.matrix() - h


def gauduchon_fields(grid, u, chi, rho, metric):
    """Assemble the star-transformed form U and its companion g-form.

    U = chi + (lap u) omega - dd u + rho Z, and the companion
    g = dd u + chihat + rho W/(n-1) with chihat = (tr chi/(n-1)) omega - chi.
    The two satisfy U = (tr g) omega - g identically on the grid, so their
    eigenvalue vectors are deleted-sum transforms of one another.
    """
    if grid.n < 2:
        raise GridError("deleted-sum assembly needs n >= 2")
    n = grid.n
    hess = complex_hessian(grid, u)
    lap = trace_wrt_metric(metric, hess)
    g = metric.matrix()
    z = z_tensor(grid, metric, u)
    u_form = chi + lap[..., None, None] * g - hess + rho[..., None, None] * z
    trchi = trace_wrt_metric(metric, chi)
    chihat = trchi[..., None, None] * g / (n - 1) - chi
    wz = w_from_z(metric, z)
    g_form = hess + chihat + rho[..., None, None] * wz / (n - 1)
    return u_form, g_form


def _eigh2(h, vectors):
    """Ascending eigenvalues (and unit eigenvectors) of a stack of 2x2
    Hermitian matrices, in closed form.

    Only the lower triangle is read, as LAPACK's ``eigh`` does by default.
    With a = Re h00, d = Re h11, c = h10, hd = (a - d)/2 and
    r = hypot(hd, |c|), the eigenvalues are (a + d)/2 -+ r.  The first
    eigenvector is read from the row of h - lam_0 that avoids cancellation
    and divided by s = |hd| + r, the modulus of its largest entry:
    (conj c/s, -1) when hd > 0, else (1, -c/s).  A scalar matrix (s = 0)
    gets the identity.  The second eigenvector is (-conj y, conj x) for a
    first one (x, y).

    The node axis is processed in blocks of ``_EIG2_BLOCK``, so the
    temporaries stay under 1 MB whatever the size of the stack.
    """
    batch = h.shape[:-2]
    flat = h.reshape(-1, 2, 2)
    lam = np.empty((flat.shape[0], 2))
    if vectors:
        vec = np.empty((flat.shape[0], 2, 2), dtype=complex)
        vec_r, vec_i = vec.real, vec.imag
    for lo in range(0, flat.shape[0], _EIG2_BLOCK):
        rows = slice(lo, lo + _EIG2_BLOCK)
        blk = flat[rows]
        a2 = 0.5 * blk[:, 0, 0].real
        d2 = 0.5 * blk[:, 1, 1].real
        hd = a2 - d2
        r = np.hypot(hd, np.abs(blk[:, 1, 0]))
        mean = a2 + d2
        np.subtract(mean, r, out=lam[rows, 0])
        np.add(mean, r, out=lam[rows, 1])
        if not vectors:
            continue
        s = np.abs(hd) + r
        s[s == 0.0] = 1.0  # there c = 0, and the vectors are the identity
        pr = blk[:, 1, 0].real / s
        pi = -blk[:, 1, 0].imag / s
        q = 1.0 / np.sqrt(1.0 + pr * pr + pi * pi)
        pr *= q
        pi *= q
        # V = [[w, z], [-conj z, conj w]], where p = conj(c/s) q and
        # (w, z) = (p, q) when hd > 0 (the vector read from row 0),
        # (q, p) otherwise (read from row 1)
        row0 = hd > 0.0
        wr, zr = np.where(row0, pr, q), np.where(row0, q, pr)
        wi, zi = np.where(row0, pi, 0.0), np.where(row0, 0.0, pi)
        out_r, out_i = vec_r[rows], vec_i[rows]
        out_r[:, 0, 0], out_i[:, 0, 0] = wr, wi
        out_r[:, 0, 1], out_i[:, 0, 1] = zr, zi
        out_r[:, 1, 0], out_i[:, 1, 0] = -zr, zi
        out_r[:, 1, 1], out_i[:, 1, 1] = wr, -wi
    lam = lam.reshape(batch + (2,))
    if vectors:
        return lam, vec.reshape(batch + (2, 2))
    return lam


def _eigh(h, vectors):
    """Batched Hermitian eigensolve: the closed form at n = 2, LAPACK else."""
    if h.shape[-1] == 2:
        return _eigh2(h, vectors)
    return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)


def eig_wrt_metric(h, metric, vectors=False):
    """Eigenvalues (ascending) of a Hermitian field relative to the metric.

    For a non-flat metric the generalized problem is reduced through the
    per-node Cholesky factor; returned eigenvectors are metric-orthonormal.
    At n = 2 the per-node eigenpairs come from a closed form (see
    :func:`_eigh2`), flat metric or not; other n use LAPACK's ``eigh``.
    """
    h = np.asarray(h)
    if metric.is_flat:
        return _eigh(h, vectors)
    metric.validate_positive()
    linv = metric.inv_cholesky()
    reduced = linv @ h @ np.conj(np.swapaxes(linv, -1, -2))
    reduced = 0.5 * (reduced + np.conj(np.swapaxes(reduced, -1, -2)))
    if vectors:
        lam, v = _eigh(reduced, True)
        return lam, np.conj(np.swapaxes(linv, -1, -2)) @ v
    return _eigh(reduced, False)

