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

A field may also be stored at any shape that broadcasts to the grid's: a
length-1 axis means it is constant along that axis, where its derivatives
vanish.  :class:`Metric` keeps g at such a natural shape, and the quantities
computed from the metric alone inherit it.

Derivative stencils are second-order centered, with one-sided second-order
closures on the two boundary slices of the Re w axis.

The per-node eigenproblems of :func:`eig_wrt_metric` are solved in closed
form at n = 2 and by LAPACK's ``eigh`` for every other n.  A diagonal metric
(flat, conformal and product metrics all are) reduces them elementwise.
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
        periods = tuple((float(a), float(b)) for a, b in self.torus_periods)
        every = [self.strip_imag_period] + [p for pair in periods for p in pair]
        if not all(math.isfinite(p) and p > 0 for p in every):
            raise GridError(f"periods must be finite and positive, got {periods} and "
                            f"strip_imag_period={self.strip_imag_period}")
        object.__setattr__(self, "torus_periods", periods)
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

    def zeros(self, dtype=float):
        return np.zeros(self.shape, dtype=dtype)


# ---------------------------------------------------------------------------
# real-coordinate derivative stencils

def _d1_periodic(u, axis, h):
    return (np.roll(u, -1, axis) - np.roll(u, 1, axis)) / (2 * h)


def _d2_periodic(u, axis, h):
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
    """First derivative along a real coordinate axis (zero on length 1)."""
    u = np.asarray(u)
    if u.shape[axis] == 1:
        return np.zeros_like(u)
    h = grid.spacing(axis)
    if grid.is_periodic(axis):
        return _d1_periodic(u, axis, h)
    return _d1_strip(u, axis, h)


def d2(grid, u, axis):
    """Second derivative along a real coordinate axis (zero on length 1)."""
    u = np.asarray(u)
    if u.shape[axis] == 1:
        return np.zeros_like(u)
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
    """Hermitian metric on the grid, stored at its natural broadcast shape.

    ``g`` has shape ``s + (n, n)``, where ``s`` broadcasts to ``grid.shape``
    and has length 1 along every axis the metric does not vary on: flat is
    ``(1,) * 2n + (n, n)``, :func:`metric_conformal` ``(R, 1, ..., 1, n, n)``.
    Missing leading axes are padded with 1s; any other shape raises
    :class:`GridError`.  :meth:`matrix` is a read-only full-shape view.

    A metric cannot be changed after construction, so its caches never go
    stale: the dataclass is frozen, and ``g`` is kept as a read-only complex
    copy, so writing into it raises and writing into the array it was built
    from does not reach it.  Everything that depends on the metric alone is
    computed once, on first use, at the broadcast shape of ``g``, and
    returned read-only:

    - the inverse (:meth:`inverse`),
    - the inverse Cholesky factor that reduces the generalized eigenproblem
      (:meth:`inv_cholesky`),
    - the Z coefficient tensor (:meth:`z_coefficients`); the torsion it is
      built from is not kept,
    - a passed positivity check (:meth:`validate_positive`).

    ``g`` must be Hermitian to the tolerance of
    :func:`check_hermitian_field`, or construction raises
    :class:`ValidationError`.  Two properties are found once, from the data,
    and read by :func:`eig_wrt_metric`: ``is_flat`` (g is exactly the
    identity) skips the reduction, and ``is_diagonal`` (every off-diagonal
    entry is exactly 0) reduces elementwise instead of by matrix products.

    Two metrics are equal only when they are the same object, which also
    makes a metric hashable.  ``name`` records the preset for run ledgers.
    """

    grid: ProductGrid
    g: np.ndarray
    name: str = "custom"
    is_flat: bool = field(default=False, init=False)
    is_diagonal: bool = field(default=False, init=False)
    _inv: np.ndarray = field(default=None, init=False, repr=False)
    _linv: np.ndarray = field(default=None, init=False, repr=False)
    _za: np.ndarray = field(default=None, init=False, repr=False)
    _positive: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        n = self.grid.n
        full = self.grid.shape + (n, n)
        g = np.array(self.g, dtype=complex)
        g = g.reshape((1,) * (len(full) - g.ndim) + g.shape)
        if (g.shape[-2:] != (n, n) or g.ndim != len(full)
                or any(a not in (1, b) for a, b in zip(g.shape, full))):
            raise GridError(f"metric of shape {np.shape(self.g)} does not broadcast to {full}")
        check_hermitian_field(g)
        self._keep("g", g)
        object.__setattr__(self, "is_flat", bool(np.all(g == np.eye(n))))
        object.__setattr__(self, "is_diagonal", bool(np.all((g == 0) | np.eye(n, dtype=bool))))

    def _keep(self, name, value):
        """Store a read-only array on the frozen metric."""
        value.flags.writeable = False
        object.__setattr__(self, name, value)

    def matrix(self):
        """Read-only view of g at the full grid shape ``grid.shape + (n, n)``."""
        return np.broadcast_to(self.g, self.grid.shape + self.g.shape[-2:])

    def inverse(self):
        if self._inv is None:
            self._keep("_inv", np.linalg.inv(self.g))
        return self._inv

    def inv_cholesky(self):
        """Inverse of the per-node Cholesky factor of g (lower triangular)."""
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
        positive definite; once the check has passed it returns at once.
        The node is read in the shape of ``g``, where it is a grid node; a
        node with a NaN or infinite entry fails, with eigenvalue NaN."""
        if self._positive:
            return
        finite = np.all(np.isfinite(self.g), axis=(-2, -1))
        low = np.full(finite.shape, np.nan)
        low[finite] = np.linalg.eigvalsh(self.g[finite])[:, 0]  # LAPACK may fail on NaN
        bad = ~(low > 0)
        if np.any(bad):
            node = tuple(int(v) for v in np.unravel_index(np.argmax(bad), bad.shape))
            raise PositivityError(
                f"metric not positive definite at node {node}"
                f" (min eigenvalue there {float(low[node]):.3e})"
            )
        object.__setattr__(self, "_positive", True)


def metric_flat(grid):
    return Metric(grid, np.eye(grid.n), name="flat")


def metric_conformal(grid, eps):
    """Conformal metric exp(eps * cos(2 pi x_1 / L)) times the identity."""
    lx = grid.torus_periods[0][0]
    rho = eps * np.cos(2 * math.pi * grid.coord_field(0) / lx)
    m = Metric(grid, np.exp(rho)[..., None, None] * np.eye(grid.n), name=f"conformal({eps})")
    m.validate_positive()
    return m


def metric_product(grid, profile):
    """Product metric diag(1, ..., 1, g_S(sigma_hat)); g_S must be positive."""
    sigma = grid.sigma_hat()
    diag = np.ones(sigma.shape + (grid.n,), dtype=complex)
    diag[..., -1] = profile(sigma)
    m = Metric(grid, diag[..., None] * np.eye(grid.n), name="product")
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

    Indices are stored as T[..., k, i, j], at the broadcast shape of the
    metric's ``g``: zero along every axis the metric does not vary on.
    """
    n = grid.n
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
    The result has the broadcast shape of the metric's ``g``.
    """
    n = grid.n
    if t is None:
        t = torsion(grid, metric)
    tau = torsion_trace(t)
    g = metric.g
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

    ``za`` defaults to the coefficients cached on the metric.  When ZA has
    no nonzero entry (a torsion-free metric) the zero field is returned
    without differentiating u.
    """
    if za is None:
        za = metric.z_coefficients()
    if not np.any(za):
        shape = np.broadcast_shapes(za.shape[:-3], np.shape(u))
        return np.zeros(shape + za.shape[-2:], dtype=complex)
    uz = grad_z(grid, u)
    z = np.einsum("...pij,...p->...ij", za, uz)
    return z + np.conj(np.swapaxes(z, -1, -2))


def trace_wrt_metric(metric, h):
    """tr_omega H = sum g^{i jbar} H_{i jbar} (real for Hermitian H)."""
    return np.einsum("...ji,...ij->...", metric.inverse(), h).real


def laplacian(grid, u, metric):
    """Complex Laplacian of a scalar with respect to the metric."""
    return trace_wrt_metric(metric, complex_hessian(grid, u))


def hat_transform(metric, h):
    """(tr_omega H) g - H; exchanges the two forms of the deleted-sum equation."""
    tr = trace_wrt_metric(metric, h)
    return tr[..., None, None] * metric.g - h


def gauduchon_fields(grid, u, chi, rho, metric):
    """Assemble the star-transformed form U and its companion g-form.

    U = chi + (lap u) omega - dd u + rho Z, and the companion
    g = dd u + chihat + rho W/(n-1) with chihat = (tr chi/(n-1)) omega - chi
    and W = (tr Z) omega - (n-1) Z, all traces taken with respect to the
    metric.  The two satisfy U = (tr g) omega - g, so their eigenvalue
    vectors are deleted-sum transforms of one another.

    Both are assembled in one pass: the g-form is written out as
    dd u - chi - rho Z + ((tr chi + rho tr Z)/(n-1)) omega, and U is its
    :func:`hat_transform`.
    """
    rz = z_tensor(grid, metric, u)
    rz *= rho[..., None, None]
    g_form = complex_hessian(grid, u)
    g_form -= chi
    g_form -= rz
    shift = (trace_wrt_metric(metric, chi) + trace_wrt_metric(metric, rz)) / (grid.n - 1)
    g_form += shift[..., None, None] * metric.g
    return hat_transform(metric, g_form), g_form


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

    Unless the metric is exactly the identity, the generalized problem is
    reduced through the per-node inverse Cholesky factor L^-1, which
    broadcasts from the metric's shape: h becomes L^-1 h L^-H, and an
    eigenvector v of that becomes L^-H v, so returned eigenvectors are
    metric-orthonormal.  For a diagonal metric L^-1 is the diagonal d of
    1/sqrt(g_ii), and both steps are elementwise: h_ij d_i d_j and d_i v_i.
    The real weight keeps h Hermitian, so no symmetrization follows.
    At n = 2 the per-node eigenpairs come from a closed form (see
    :func:`_eigh2`), flat metric or not; other n use LAPACK's ``eigh``.
    Both read only the lower triangle of the reduced matrix.
    """
    h = np.asarray(h)
    if metric.is_flat:
        return _eigh(h, vectors)
    metric.validate_positive()
    linv = metric.inv_cholesky()
    if metric.is_diagonal:
        d = np.diagonal(linv, axis1=-2, axis2=-1).real[..., :, None]
        reduced = h * (d * np.swapaxes(d, -1, -2))
    else:
        reduced = linv @ h @ np.conj(np.swapaxes(linv, -1, -2))
        reduced = 0.5 * (reduced + np.conj(np.swapaxes(reduced, -1, -2)))
    if not vectors:
        return _eigh(reduced, False)
    lam, v = _eigh(reduced, True)
    if metric.is_diagonal:
        v *= d
        return lam, v
    return lam, np.conj(np.swapaxes(linv, -1, -2)) @ v

