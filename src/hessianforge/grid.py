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
closures on the two boundary slices of the Re w axis.  Each is formed from
shifted slices of the field, written into one output of float or complex
dtype; a field whose length along the axis is neither 1 nor the grid's
resolution is refused with :class:`GridError`.

The tensor fields (:func:`complex_hessian`, :func:`z_tensor`,
:func:`gfield` and :func:`gauduchon_fields`) come from one assembler,
:func:`_assemble`.  It forms each real first derivative of u once and shares
it between the mixed Hessian stencils and the first-order terms, and writes
each real and imaginary plane of the (..., n, n) result once.  A first-order
term, such as the torsion term Z(du) or the eta coupling of :func:`gfield`,
enters as real coefficient fields on those derivatives, one list per plane,
with identically zero fields dropped.  The torsion term's planes depend on
the metric alone, and :class:`Metric` builds them once.  On a diagonal metric
the traces and the multiples of omega are elementwise.

The per-node eigenproblems of :func:`eig_wrt_metric` all go through one
blocked driver, :func:`_eigh`: closed forms at n = 2 and n = 3, and LAPACK's
``eigh`` at every other n and at the n = 3 nodes whose eigenvalues nearly
coincide, where the closed form would miss a 1e-12 relative target.  On
every n and metric, a node with a NaN or infinite entry gets NaN eigenpairs
without a warning.  A diagonal metric (flat, conformal and product metrics
all are) reduces them elementwise.
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
    "d_dz",
    "complex_hessian",
    "Metric",
    "metric_flat",
    "metric_conformal",
    "metric_product",
    "gfield",
    "torsion",
    "z_coefficients",
    "z_tensor",
    "check_hermitian_field",
    "gauduchon_fields",
    "hat_transform",
    "eig_wrt_metric",
    "trace_wrt_metric",
]

MIN_RESOLUTION = 8
HERMITIAN_RTOL = 1e-10  # check_hermitian_field, relative to max(1, max |h|)
_EIG_BLOCK = 4096  # nodes per pass of the eigensolve driver _eigh
# The 3x3 closed form loses accuracy as two eigenvalues meet: its errors in
# the eigenvalues, residuals and orthonormality, relative to the largest
# entry modulus, grow like C eps / gap, with gap the smallest eigenvalue gap
# in the same units and eps = 2.2e-16.  Swept over spectra with gaps from
# 1e-1 to 1e-14 and shifts up to 1e6, C stayed under 4.3.  A 1e-12 target
# thus needs gap >= C eps / 1e-12; the guard takes C = 10 (gap >= 2.2e-3),
# and LAPACK solves the nodes below it.
_EIG3_GUARD = 10 * np.finfo(float).eps / 1e-12


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


# ---------------------------------------------------------------------------
# real-coordinate derivative stencils

def _axis_first(grid, u, axis):
    """A fresh output of float or complex dtype, and u and that output viewed
    with ``axis`` first; on a length-1 axis the output is 0 and no view is
    taken.  u needs every grid axis; only the length along ``axis`` is
    checked, so u may carry trailing (n, n) axes."""
    u = np.asarray(u)
    if u.ndim < len(grid.shape):
        raise GridError(f"field of shape {u.shape} has fewer axes than the grid {grid.shape}")
    length, res = u.shape[axis], grid.resolutions[axis]
    if length not in (1, res):
        raise GridError(f"axis {axis}: field has length {length} where the grid has {res}")
    out = np.zeros(u.shape, np.result_type(u.dtype, 1.0))
    if length == 1:
        return out, None, None
    return out, np.moveaxis(u, axis, 0), np.moveaxis(out, axis, 0)


def d1(grid, u, axis):
    """First derivative along a real coordinate axis (zero on length 1).

    Formed from shifted slices of u into one output of float or complex
    dtype: centered inside, wrapped around at the ends of a periodic axis,
    and closed one-sided, to second order, on Re w.  A length along ``axis``
    other than 1 or the grid's resolution raises :class:`GridError`.
    """
    out, v, w = _axis_first(grid, u, axis)
    if v is not None:
        np.subtract(v[2:], v[:-2], out=w[1:-1])
        if grid.is_periodic(axis):
            np.subtract(v[1], v[-1], out=w[0])
            np.subtract(v[0], v[-2], out=w[-1])
        else:
            w[0] = -3 * v[0] + 4 * v[1] - v[2]
            w[-1] = 3 * v[-1] - 4 * v[-2] + v[-3]
        w /= 2 * grid.spacing(axis)
    return out


def d2(grid, u, axis):
    """Second derivative along a real coordinate axis (zero on length 1),
    formed, closed and checked as in :func:`d1`."""
    out, v, w = _axis_first(grid, u, axis)
    if v is not None:
        np.subtract(v[2:], 2 * v[1:-1], out=w[1:-1])
        w[1:-1] += v[:-2]
        if grid.is_periodic(axis):
            w[0] = v[1] - 2 * v[0] + v[-1]
            w[-1] = v[0] - 2 * v[-1] + v[-2]
        else:
            w[0] = 2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]
            w[-1] = 2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]
        h = grid.spacing(axis)
        w /= h * h
    return out


# ---------------------------------------------------------------------------
# complex derivatives and the complex Hessian

def d_dz(grid, u, i):
    """Holomorphic derivative along z_i: (d/dx_i - i d/dy_i)/2."""
    return 0.5 * (d1(grid, u, 2 * i) - 1j * d1(grid, u, 2 * i + 1))


def _planes(a):
    """Real coefficient planes of a first-order term sum_p A_p u_p + h.c.

    ``a`` holds A[..., p, i, j], the coefficients of the holomorphic
    derivatives u_p = (d_a u - i d_b u)/2, where d_a and d_b are the real
    first derivatives along x_p (a = 2p) and y_p (b = 2p + 1).  The term is
    the Hermitian field sum_a C_a d_a u, with C_2p = (A_p + A_p^H)/2 and
    C_2p+1 = -i (A_p - A_p^H)/2.  Returned as ((i, j, part), fields) pairs
    for the real (part 0) and, off the diagonal, imaginary (part 1) plane of
    each upper-triangle entry; ``fields`` holds the (axis, coefficient)
    pairs, real and read-only, at the broadcast shape of ``a``.  Fields that
    vanish identically are left out, and so are planes without a field.
    """
    n = a.shape[-1]
    ah = np.conj(np.swapaxes(a, -1, -2))
    c = np.empty(a.shape[:-3] + (2 * n, n, n), dtype=complex)
    c[..., 0::2, :, :] = 0.5 * (a + ah)
    c[..., 1::2, :, :] = -0.5j * (a - ah)
    planes = []
    for i in range(n):
        for j in range(i, n):
            for part, values in enumerate((c.real, c.imag)[: 1 + (i < j)]):
                fields = []
                for axis in range(2 * n):
                    coef = values[..., axis, i, j]
                    if np.any(coef):
                        coef = coef.copy()
                        coef.flags.writeable = False
                        fields.append((axis, coef))
                if fields:
                    planes.append(((i, j, part), tuple(fields)))
    return tuple(planes)


def _torsion_planes(metric, za):
    """The torsion term of a metric as real coefficient planes (see
    :func:`_planes`): the pair (Z planes, W planes).

    ``za`` holds the Z coefficients ZA_p of :func:`z_coefficients`.  The Z
    planes are those of Z(du), and the W planes those of the g-form's term
    W/(n-1) = (tr Z) omega/(n-1) - Z, whose coefficients are
    (tr_omega ZA_p) g/(n-1) - ZA_p, since tr_omega of a matrix and of its
    adjoint are conjugate.  A torsion-free metric and every metric at n = 2
    have no planes, and the conformal metric at n = 3 has 7 fields in each
    set.
    """
    tr = np.einsum("...ji,...pij->...p", metric.inverse, za)
    wa = tr[..., :, None, None] * metric.g[..., None, :, :] / (metric.grid.n - 1) - za
    return _planes(za), _planes(wa)


def _assemble(grid, u, planes=(), weight=None, hessian=True):
    """The complex Hessian of u (unless ``hessian`` is False) plus the
    first-order term given by ``planes`` (see :func:`_planes`), times
    ``weight`` when one is given: the one assembler of the tensor fields.

    Each first derivative d_a u is formed once, on first use, and shared by
    the mixed Hessian stencils and the coefficient planes.  Each real and
    imaginary plane of the upper triangle is summed in its own buffer and
    written once; the lower triangle mirrors it, which is exact because
    stencils along distinct axes commute.  Diagonal entries are
    quarter-Laplacians in each complex coordinate, with zero imaginary part.
    """
    u = np.asarray(u)
    n = grid.n
    terms = dict(planes)
    derivs = {}

    def first(axis):
        if axis not in derivs:
            derivs[axis] = d1(grid, u, axis)
        return derivs[axis]

    shapes = [np.shape(c) for fields in terms.values() for _, c in fields]
    if terms and weight is not None:
        shapes.append(np.shape(weight))
    out = np.empty(np.broadcast_shapes(u.shape, *shapes) + (n, n), dtype=complex)
    # the diagonal first, before the first derivatives the mixed terms share
    entries = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in entries:
        xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
        if i == j:
            out.imag[..., i, i] = 0.0
        for part, dst in enumerate((out.real, out.imag)[: 1 + (i < j)]):
            val = 0.0
            if hessian and i == j:
                val = 0.25 * (d2(grid, u, xi) + d2(grid, u, yi))
            elif hessian and part == 0:
                val = 0.25 * (d1(grid, first(xj), xi) + d1(grid, first(yj), yi))
            elif hessian:
                val = 0.25 * (d1(grid, first(yj), xi) - d1(grid, first(xj), yi))
            fields = terms.get((i, j, part))
            if fields:
                (axis, c), *rest = fields
                term = c * first(axis)
                for axis, c in rest:
                    term += c * first(axis)
                val = val + (term if weight is None else weight * term)
            dst[..., i, j] = val
            if i < j and part:
                np.negative(val, out=dst[..., j, i])
            elif i < j:
                dst[..., j, i] = val
    return out


def complex_hessian(grid, u):
    """Mixed complex Hessian u_{i jbar}, Hermitian by construction.

    Diagonal entries are quarter-Laplacians in each complex coordinate; the
    off-diagonal entries combine the four real cross stencils, built on the
    shared first derivatives, and the lower triangle mirrors the upper
    conjugate, which is exact because stencils along distinct axes commute.
    """
    return _assemble(grid, u)


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

    Construction checks g, then computes all that depends on the metric
    alone, so every metric is valid and complete.  g must be finite, or
    :class:`PositivityError` names the first node with a NaN or infinite
    entry; Hermitian to the tolerance of :func:`check_hermitian_field`, or
    :class:`ValidationError`; and positive definite, or
    :meth:`validate_positive` names the first node that is not.  Kept
    read-only, at the broadcast shape of ``g``:

    - ``inverse``, the per-node inverse of g;
    - ``inv_cholesky``, the inverse lower Cholesky factor that reduces the
      generalized eigenproblem of :func:`eig_wrt_metric`;
    - ``torsion_planes``, the torsion term as real coefficient planes (see
      :func:`_torsion_planes`): the Z planes, read by :func:`z_tensor`,
      and the W/(n-1) planes, read by :func:`gauduchon_fields`;
    - ``is_flat`` (g is exactly the identity), which lets
      :func:`eig_wrt_metric` skip the reduction, and ``is_diagonal`` (every
      off-diagonal entry is exactly 0), which makes that reduction,
      :func:`trace_wrt_metric` and :func:`hat_transform` elementwise.

    Nothing can change afterwards: the dataclass is frozen, and ``g`` is a
    read-only complex copy, so writing into it raises and writing into the
    array it was built from does not reach it.  Two metrics are equal only
    when they are the same object, which also makes a metric hashable.
    """

    grid: ProductGrid
    g: np.ndarray
    is_flat: bool = field(init=False)
    is_diagonal: bool = field(init=False)
    inverse: np.ndarray = field(init=False, repr=False)
    inv_cholesky: np.ndarray = field(init=False, repr=False)
    torsion_planes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        n = self.grid.n
        full = self.grid.shape + (n, n)
        g = np.array(self.g, dtype=complex)
        g = g.reshape((1,) * (len(full) - g.ndim) + g.shape)
        if (g.shape[-2:] != (n, n) or g.ndim != len(full)
                or any(a not in (1, b) for a, b in zip(g.shape, full))):
            raise GridError(f"metric of shape {np.shape(self.g)} does not broadcast to {full}")
        finite = np.all(np.isfinite(g), axis=(-2, -1))
        if not finite.all():
            node = tuple(int(v) for v in np.unravel_index(np.argmin(finite), finite.shape))
            raise PositivityError(f"metric has a NaN or infinite entry at node {node}")
        check_hermitian_field(g)
        self._keep("g", g)
        self.validate_positive()
        object.__setattr__(self, "is_flat", bool(np.all(g == np.eye(n))))
        object.__setattr__(self, "is_diagonal", bool(np.all((g == 0) | np.eye(n, dtype=bool))))
        self._keep("inverse", np.linalg.inv(g))
        self._keep("inv_cholesky", np.linalg.inv(np.linalg.cholesky(g)))
        planes = _torsion_planes(self, z_coefficients(self.grid, self))
        object.__setattr__(self, "torsion_planes", planes)

    def _keep(self, name, value):
        """Store a read-only array on the frozen metric."""
        value.flags.writeable = False
        object.__setattr__(self, name, value)

    def matrix(self):
        """Read-only view of g at the full grid shape ``grid.shape + (n, n)``."""
        return np.broadcast_to(self.g, self.grid.shape + self.g.shape[-2:])

    def validate_positive(self):
        """Raise :class:`PositivityError` at the first node where g is not
        positive definite, read in the shape of ``g``, where it is a grid
        node.  Construction runs this check; each call runs it again."""
        low = np.linalg.eigvalsh(self.g)[..., 0]
        bad = low <= 0
        if np.any(bad):
            node = tuple(int(v) for v in np.unravel_index(np.argmax(bad), bad.shape))
            raise PositivityError(
                f"metric not positive definite at node {node}"
                f" (min eigenvalue there {float(low[node]):.3e})"
            )


def metric_flat(grid):
    return Metric(grid, np.eye(grid.n))


def metric_conformal(grid, eps):
    """Conformal metric exp(eps * cos(2 pi x_1 / L)) times the identity."""
    lx = grid.torus_periods[0][0]
    rho = eps * np.cos(2 * math.pi * grid.coord_field(0) / lx)
    return Metric(grid, np.exp(rho)[..., None, None] * np.eye(grid.n))


def metric_product(grid, profile):
    """Product metric diag(1, ..., 1, g_S(sigma_hat)); g_S must be positive."""
    sigma = grid.sigma_hat()
    diag = np.ones(sigma.shape + (grid.n,), dtype=complex)
    diag[..., -1] = profile(sigma)
    return Metric(grid, diag[..., None] * np.eye(grid.n))


# ---------------------------------------------------------------------------
# tensor assembly

def check_hermitian_field(h):
    """Largest deviation from Hermiticity over all nodes.

    Raises :class:`ValidationError` unless every entry is finite and the
    deviation is at most ``HERMITIAN_RTOL`` times max(1, max |h|).  The
    bound scales because rounding in a field with large entries leaves a
    deviation in proportion to them.
    """
    h = np.asarray(h)
    if not np.all(np.isfinite(h)):
        raise ValidationError("field is not Hermitian: it has a NaN or infinite entry")
    dev = np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2))))
    bound = HERMITIAN_RTOL * max(1.0, float(np.max(np.abs(h))))
    if not dev <= bound:
        raise ValidationError(f"field is not Hermitian: deviation {dev:.3e} exceeds {bound:.3e}")
    return dev


def gfield(grid, u, chi, eta=None):
    """The deformed form chi + complex Hessian + gradient coupling.

    ``eta`` is a constant or per-node complex vector of length n; the
    coupling adds u_i conj(eta_j) + eta_i conj(u_j) to each node matrix.  It
    is the first-order term with coefficients A_p[i, j] = delta_pi
    conj(eta_j), assembled as coefficient planes on the Hessian's first
    derivatives.  ``chi`` must end in (n, n), or :class:`GridError` names
    both shapes: a scalar would be added to every entry, not to the
    diagonal.
    """
    _check_field(chi, grid.n, "grid's")
    planes = ()
    if eta is not None:
        eta = np.asarray(eta, dtype=complex)
        planes = _planes(np.eye(grid.n)[:, :, None] * np.conj(eta)[..., None, None, :])
    return _assemble(grid, u, planes) + chi


def _check_grid(grid, metric):
    """Refuse a grid other than the metric's with :class:`GridError`."""
    if grid != metric.grid:
        raise GridError(f"grid {grid} is not the metric's grid {metric.grid}")


def torsion(grid, metric):
    """Chern torsion T^k_{ij} of the metric, antisymmetric in (i, j).

    Indices are stored as T[..., k, i, j], at the broadcast shape of the
    metric's ``g``: zero along every axis the metric does not vary on.  This
    function, :func:`z_coefficients`, :func:`z_tensor` and
    :func:`gauduchon_fields` refuse a grid other than ``metric.grid``.
    """
    _check_grid(grid, metric)
    n = grid.n
    g = metric.g
    dg = np.stack(
        [d_dz(grid, g, i) for i in range(n)], axis=-3
    )  # dg[..., i, j, l] = partial_i g_{j lbar}
    ginv = metric.inverse
    # g^{k lbar} = inverse matrix entry [l, k]
    anti = dg - np.swapaxes(dg, -3, -2)  # partial_i g_{j l} - partial_j g_{i l}
    return np.einsum("...lk,...ijl->...kij", ginv, anti)


def z_coefficients(grid, metric, t=None):
    """Coefficient tensors ZA[..., p, i, j] with Z = sum_p ZA[p] u_p + h.c.

    Encodes the six-term torsion contraction of the gradient tensor in the
    deformed-form equation; Z vanishes identically for torsion-free metrics
    and is linear in the holomorphic gradient of u.  Computed afresh on
    every call; a :class:`Metric` keeps the real coefficient planes built
    from it as ``torsion_planes``.  The result has the broadcast shape of
    the metric's ``g``.  At n = 2, where T^k_ij has only the components
    T^k_01 = -T^k_10, the terms cancel identically, and the result is
    exactly zero rather than rounding residue.
    """
    _check_grid(grid, metric)
    n = grid.n
    if n == 2:
        lead = np.broadcast_shapes(metric.g.shape[:-2], () if t is None else t.shape[:-3])
        return np.zeros(lead + (2, 2, 2), dtype=complex)
    if t is None:
        t = torsion(grid, metric)
    tau = np.einsum("...kik->...i", t)  # tau_i = sum_k T^k_{ik}
    g = metric.g
    ginv = metric.inverse
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

    Assembled from real coefficient planes on the first derivatives of u:
    the Z planes of ``metric.torsion_planes``, or planes built from ``za``
    when it is given.  A torsion-free metric has no planes, and the zero
    field is returned without differentiating u.
    """
    _check_grid(grid, metric)
    planes = metric.torsion_planes[0] if za is None else _planes(za)
    return _assemble(grid, u, planes, hessian=False)


def _add_metric_multiple(h, s, metric):
    """h += s g in place; on a diagonal metric only the real diagonal."""
    if metric.is_diagonal:
        for i in range(metric.grid.n):
            h.real[..., i, i] += s * metric.g[..., i, i].real
    else:
        h += s[..., None, None] * metric.g


def _check_field(h, n, owner="metric's"):
    """Refuse a field that does not end in (n, n) with :class:`GridError`
    naming both shapes, the second as the ``owner``'s."""
    if np.shape(h)[-2:] != (n, n):
        raise GridError(f"field of shape {np.shape(h)} does not end in the {owner} ({n}, {n})")


def trace_wrt_metric(metric, h):
    """tr_omega H = sum g^{i jbar} H_{i jbar} (real for Hermitian H).

    On a diagonal metric it is the elementwise sum of g^{i ibar} Re H_{i ibar}.
    h must end in the metric's (n, n), or :class:`GridError` names both
    shapes.
    """
    _check_field(h, metric.grid.n)
    ginv = metric.inverse
    if not metric.is_diagonal:
        return np.einsum("...ji,...ij->...", ginv, h).real
    tr = ginv[..., 0, 0].real * h[..., 0, 0].real
    for i in range(1, metric.grid.n):
        tr += ginv[..., i, i].real * h[..., i, i].real
    return tr


def hat_transform(metric, h):
    """(tr_omega H) g - H; exchanges the two forms of the deleted-sum equation.

    On a diagonal metric it is -H with (tr_omega H) g_ii added to the
    diagonal.  h must end in the metric's (n, n), as for
    :func:`trace_wrt_metric`.
    """
    tr = trace_wrt_metric(metric, h)
    out = np.empty(np.broadcast_shapes(np.shape(h), metric.g.shape), dtype=complex)
    np.negative(h, out=out)
    _add_metric_multiple(out, tr, metric)
    return out


def gauduchon_fields(grid, u, chi, rho, metric):
    """Assemble the star-transformed form U and its companion g-form.

    U = chi + (lap u) omega - dd u + rho Z, and the companion
    g = dd u + chihat + rho W/(n-1) with chihat = (tr chi/(n-1)) omega - chi
    and W = (tr Z) omega - (n-1) Z, all traces taken with respect to the
    metric.  The two satisfy U = (tr g) omega - g, so their eigenvalue
    vectors are deleted-sum transforms of one another.

    Both are assembled in one pass.  The g-form's Hessian and torsion term
    rho W/(n-1) come from one :func:`_assemble` call: the first derivatives
    of u are formed once and shared, and W/(n-1) enters through the W
    planes of ``metric.torsion_planes``, weighted by rho.  chihat is added
    after, and U is the :func:`hat_transform` of the g-form.  On a diagonal
    metric the traces and the multiples of omega are elementwise.
    """
    _check_grid(grid, metric)
    g_form = _assemble(grid, u, metric.torsion_planes[1], weight=rho)
    g_form -= chi
    _add_metric_multiple(g_form, trace_wrt_metric(metric, chi) / (grid.n - 1), metric)
    return hat_transform(metric, g_form), g_form


def _non_finite(h):
    """Nodes of an (m, n, n) stack with a NaN or infinite entry in the lower
    triangle or real diagonal, each tested through a strided view."""
    ok = np.isfinite(h[:, 0, 0].real)
    for i in range(1, h.shape[-1]):
        ok &= np.isfinite(h[:, i, i].real)
        for j in range(i):
            ok &= np.isfinite(h[:, i, j])
    return ~ok


def _eigh2(h, lam, vec):
    """Ascending eigenvalues (and unit eigenvectors) of a block of 2x2
    Hermitian matrices, in closed form, written into ``lam`` and, unless it
    is None, ``vec``; returns None, as no node is left to LAPACK.

    Only the lower triangle is read, as LAPACK's ``eigh`` does by default.
    With a = Re h00, d = Re h11, c = h10, hd = (a - d)/2 and
    r = hypot(hd, |c|), the eigenvalues are (a + d)/2 -+ r.  The first
    eigenvector is read from the row of h - lam_0 that avoids cancellation
    and divided by s = |hd| + r, the modulus of its largest entry:
    (conj c/s, -1) when hd > 0, else (1, -c/s).  A scalar matrix (s = 0)
    gets the identity.  The second eigenvector is (-conj y, conj x) for a
    first one (x, y).  Temporaries stay under 1 MB per ``_EIG_BLOCK`` nodes.
    """
    a2 = 0.5 * h[:, 0, 0].real
    d2 = 0.5 * h[:, 1, 1].real
    hd = a2 - d2
    r = np.hypot(hd, np.abs(h[:, 1, 0]))
    mean = a2 + d2
    np.subtract(mean, r, out=lam[:, 0])
    np.add(mean, r, out=lam[:, 1])
    if vec is None:
        return
    s = np.abs(hd) + r
    s[s == 0.0] = 1.0  # there c = 0, and the vectors are the identity
    pr = h[:, 1, 0].real / s
    pi = -h[:, 1, 0].imag / s
    q = 1.0 / np.sqrt(1.0 + pr * pr + pi * pi)
    pr *= q
    pi *= q
    # V = [[w, z], [-conj z, conj w]], where p = conj(c/s) q and
    # (w, z) = (p, q) when hd > 0 (the vector read from row 0),
    # (q, p) otherwise (read from row 1)
    row0 = hd > 0.0
    wr, zr = np.where(row0, pr, q), np.where(row0, q, pr)
    wi, zi = np.where(row0, pi, 0.0), np.where(row0, 0.0, pi)
    out_r, out_i = vec.real, vec.imag
    out_r[:, 0, 0], out_i[:, 0, 0] = wr, wi
    out_r[:, 0, 1], out_i[:, 0, 1] = zr, zi
    out_r[:, 1, 0], out_i[:, 1, 0] = -zr, zi
    out_r[:, 1, 1], out_i[:, 1, 1] = wr, -wi


def _eigh3(h, lam, vec):
    """Ascending eigenvalues (and unit eigenvectors) of a block of 3x3
    Hermitian matrices, in closed form, written into ``lam`` and, unless it
    is None, ``vec``; returns the mask of near-degenerate nodes, which
    LAPACK must solve instead.

    Only the lower triangle is read, as LAPACK's ``eigh`` does by default.
    Each matrix A is first divided by its largest entry modulus s, so
    entries of 1e+-150 neither overflow nor underflow.  The eigenvalues
    come from the trigonometric Cardano formula on the shifted matrix
    B = A - (tr A/3) I (Kopp, Int. J. Mod. Phys. C 19, 2008): with
    p^2 = |B|_F^2 / 6 and r = det(B) / (2 p^3) clipped to [-1, 1], the
    outer two are tr A/3 + 2p cos(arccos(r)/3 + {2 pi/3, 0}), and the
    middle one is tr A minus the outer two.

    The eigenvector of an outer eigenvalue lam is the cross product of two
    rows of A - lam I.  The three such products are the columns of the
    adjugate of A - lam I, a rank-one matrix c v v^H, so the longest is the
    column k with the largest diagonal entry |c| |v_k|^2; only that column
    is formed, and normalised.  The middle eigenvector is conj(v_lo x v_hi),
    orthogonal to both by construction.

    A node is returned for LAPACK when its smallest eigenvalue gap is at
    most ``_EIG3_GUARD`` s, or when its longest adjugate column, in units
    where p = 1, is shorter than ``_EIG3_GUARD``, which the gap bound
    implies but rounding might not.  Temporaries stay near 2.5 MB per
    ``_EIG_BLOCK`` nodes.
    """
    diag = [h[:, i, i].real for i in range(3)]
    off = [h[:, 1, 0], h[:, 2, 0], h[:, 2, 1]]
    scale = np.abs(diag[0])
    for x in diag[1:] + off:
        np.maximum(scale, np.abs(x), out=scale)
    # a zero or subnormal node keeps entries below 1e-307 here, so
    # p < _EIG3_GUARD below and the node is left to LAPACK
    scale[scale < np.finfo(float).tiny] = 1.0
    inv = 1.0 / scale
    a0, a1, a2 = (x * inv for x in diag)
    e10, e20, e21 = (x * inv for x in off)
    tr = a0 + a1 + a2
    mean = tr / 3.0
    b0, b1, b2 = a0 - mean, a1 - mean, a2 - mean
    n10, n20, n21 = (np.square(x.real) + np.square(x.imag) for x in (e10, e20, e21))
    p = np.sqrt((b0 * b0 + b1 * b1 + b2 * b2) / 6.0 + (n10 + n20 + n21) / 3.0)
    # B / p has eigenvalues 2 cos(phi + 2 pi j/3).  With p < _EIG3_GUARD
    # they span at most 2 sqrt(3) p, so some gap is under the guard's
    # reach and the node is redone; the floor only keeps quotients finite.
    redo = p < _EIG3_GUARD
    ip = 1.0 / np.maximum(p, _EIG3_GUARD)
    for x in (b0, b1, b2, e10, e20, e21):
        x *= ip
    ip *= ip
    for x in (n10, n20, n21):
        x *= ip
    q = e10 * e21
    det = b0 * (b1 * b2 - n21) - b1 * n20 - b2 * n10
    det += 2.0 * (q.real * e20.real + q.imag * e20.imag)
    phi = np.arccos(np.clip(0.5 * det, -1.0, 1.0)) / 3.0
    beta_lo = 2.0 * np.cos(phi + 2.0 * math.pi / 3.0)
    beta_hi = 2.0 * np.cos(phi)
    lam_lo = mean + p * beta_lo
    lam_hi = mean + p * beta_hi
    lam_mid = np.clip(tr - lam_lo - lam_hi, lam_lo, lam_hi)
    redo |= np.minimum(lam_mid - lam_lo, lam_hi - lam_mid) <= _EIG3_GUARD
    for j, x in enumerate((lam_lo, lam_mid, lam_hi)):
        np.multiply(x, scale, out=lam[:, j])
    if vec is None:
        return redo
    ends = []
    for beta in (beta_lo, beta_hi):
        d0, d1, d2 = b0 - beta, b1 - beta, b2 - beta
        # the adjugate J of B/p - beta I, from its diagonal and lower
        # triangle; column k is (J00, J10, J20), (conj J10, J11, J21)
        # or (conj J20, conj J21, J22)
        j00, j11, j22 = d1 * d2 - n21, d0 * d2 - n20, d0 * d1 - n10
        j10 = e20 * np.conj(e21) - d2 * e10
        j20 = q - d1 * e20
        j21 = np.conj(e10) * e20 - d0 * e21
        w0, w1, w2 = np.abs(j00), np.abs(j11), np.abs(j22)
        k0 = (w0 >= w1) & (w0 >= w2)
        k1 = ~k0 & (w1 >= w2)
        col = (np.where(k0, j00, np.where(k1, np.conj(j10), np.conj(j20))),
               np.where(k0, j10, np.where(k1, j11, np.conj(j21))),
               np.where(k0, j20, np.where(k1, j21, j22)))
        norm2 = sum(np.square(c.real) + np.square(c.imag) for c in col)
        redo |= norm2 < _EIG3_GUARD * _EIG3_GUARD
        unit = 1.0 / np.sqrt(np.maximum(norm2, np.finfo(float).tiny))
        ends.append([c * unit for c in col])
    (u0, u1, u2), (v0, v1, v2) = ends
    vec[:, 0, 0], vec[:, 1, 0], vec[:, 2, 0] = u0, u1, u2
    vec[:, 0, 2], vec[:, 1, 2], vec[:, 2, 2] = v0, v1, v2
    np.conj(u1 * v2 - u2 * v1, out=vec[:, 0, 1])
    np.conj(u2 * v0 - u0 * v2, out=vec[:, 1, 1])
    np.conj(u0 * v1 - u1 * v0, out=vec[:, 2, 1])
    return redo


def _eigh(h, vectors, overwrite=False):
    """Batched Hermitian eigensolve: the one driver, for every n.

    Solves the flattened stack ``_EIG_BLOCK`` nodes at a time, so the
    temporaries stay flat.  The closed forms :func:`_eigh2` and
    :func:`_eigh3` write into the output slices they are handed and return
    the nodes they leave to LAPACK's ``eigh``, which solves whole blocks at
    every other n.  A node with a NaN or infinite entry in the lower
    triangle or real diagonal, the entries all of them read, gets NaN
    eigenpairs without a warning: its kernel sees zeros in its place, and
    LAPACK never sees it.

    ``overwrite`` writes the eigenvectors over h, a complex array the caller
    gives up; each block is then copied first, so no kernel's input aliases
    its output.
    """
    n = h.shape[-1]
    batch = h.shape[:-2]
    flat = h.reshape(-1, n, n)
    lam = np.empty(flat.shape[:-1])
    vec = (flat if overwrite else np.empty(flat.shape, dtype=complex)) if vectors else None
    kernel = {2: _eigh2, 3: _eigh3}.get(n)
    for lo in range(0, flat.shape[0], _EIG_BLOCK):
        rows = slice(lo, lo + _EIG_BLOCK)
        blk, lam_b = flat[rows], lam[rows]
        vec_b = None if vec is None else vec[rows]
        bad = _non_finite(blk)
        skip = bad.any()
        if skip or vec is flat:
            blk = blk.copy()
            blk[bad] = 0.0
        lapack = ~bad if kernel is None else kernel(blk, lam_b, vec_b)
        if lapack is not None:
            lapack &= ~bad
            if lapack.any():
                if vectors:
                    lam_b[lapack], vec_b[lapack] = np.linalg.eigh(blk[lapack])
                else:
                    lam_b[lapack] = np.linalg.eigvalsh(blk[lapack])
        if skip:
            lam_b[bad] = np.nan
            if vectors:
                vec_b[bad] = np.nan
    lam = lam.reshape(batch + (n,))
    return (lam, vec.reshape(batch + (n, n))) if vectors else lam


def eig_wrt_metric(h, metric, vectors=False):
    """Eigenvalues (ascending) of a Hermitian field relative to the metric.

    h must end in the metric's (n, n), or :class:`GridError` names both
    shapes; with a flat metric its leading axes may be any stack.  Unless
    the metric is exactly the identity, the generalized problem is reduced
    through ``metric.inv_cholesky``, the per-node L^-1 the metric holds
    from construction: h becomes L^-1 h L^-H, symmetrized, and an
    eigenvector v of that becomes L^-H v, so returned eigenvectors are
    metric-orthonormal.  For a diagonal metric L^-1 is the diagonal d of
    1/sqrt(g_ii), and both steps are elementwise: h_ij d_i d_j and d_i v_i;
    the real weight keeps h Hermitian, so no symmetrization follows.

    Every eigenpair comes from :func:`_eigh`, the one driver, flat metric
    or not: closed forms at n = 2 and n = 3, and LAPACK's ``eigh`` at
    near-degenerate n = 3 nodes and at every other n.  All read only the
    lower triangle and real diagonal of the reduced matrix, a private copy
    that the eigenvectors overwrite.

    Non-finite policy: a node with a NaN or infinite entry among those read
    gets NaN eigenvalues and eigenvectors, the others are solved as if it
    were absent, and no warning or ``LinAlgError`` escapes.  The reduction
    turns an infinite entry into NaN (inf times 0), so it runs with
    invalid-value warnings off.  :meth:`cones.ConeFunction.value_grad`
    names the node.
    """
    h = np.asarray(h)
    _check_field(h, metric.grid.n)
    if metric.is_flat:
        return _eigh(h, vectors)
    linv = metric.inv_cholesky
    with np.errstate(invalid="ignore"):
        if metric.is_diagonal:
            d = np.diagonal(linv, axis1=-2, axis2=-1).real[..., :, None]
            reduced = np.multiply(h, d * np.swapaxes(d, -1, -2), dtype=complex)
        else:
            reduced = linv @ h @ np.conj(np.swapaxes(linv, -1, -2))
            reduced = 0.5 * (reduced + np.conj(np.swapaxes(reduced, -1, -2)))
    if not vectors:
        return _eigh(reduced, False)
    lam, v = _eigh(reduced, True, overwrite=True)
    if metric.is_diagonal:
        v *= d
        return lam, v
    return lam, np.conj(np.swapaxes(linv, -1, -2)) @ v
