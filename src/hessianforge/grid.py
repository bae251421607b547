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
computed from the metric alone inherit it.  Every such field the module
takes (g, chi, eta, rho, za, and the h of the metric functions) is checked
in one place, ``_check_field``, against the grid's shape followed by the
field's own trailing shape, on every metric, the flat one included; one
that does not broadcast is refused with :class:`GridError` naming the
field and both shapes.

Derivative stencils are second-order centered, with one-sided second-order
closures on the two boundary slices of the Re w axis.  One kernel,
``_diff``, forms every stencil as an unscaled difference, in float or
complex dtype: the interior as one shifted subtraction over the C-contiguous
flattened field, shifted by the axis stride, then the two end planes,
wrapped around or closed.  :func:`d1` and :func:`d2` divide it by 2h or
h^2.  A field whose length along the axis is neither 1 nor the grid's
resolution, and an axis outside 0..2n-1, are refused with
:class:`GridError`.

The tensor fields (:func:`complex_hessian`, :func:`z_tensor`,
:func:`gfield` and :func:`gauduchon_fields`) come from one assembler,
:func:`_assemble`.  It keeps the first differences of u unscaled, forms each
once and shares it between the mixed Hessian stencils and the first-order
terms.  The scales 1/(2h), 1/h^2 and the Hessian's 1/4 are folded into one
coefficient per product: a float per Hessian stencil, and each coefficient
field of a first-order term divided by 2h at its natural shape.  Each real
and imaginary plane of the upper triangle is combined in two scratch buffers
and written once into the (..., n, n) result; the lower triangle is one
conjugate of it.  A first-order term, such as the torsion term Z(du) or the
eta coupling of :func:`gfield`, enters as real coefficient fields on the
first derivatives, one list per plane, with identically zero fields
dropped.  The torsion term's planes depend on the metric alone, and
:class:`Metric` builds them once.  On a diagonal metric the traces and the
multiples of omega are elementwise.

The assembler runs on two lanes, the calling thread and one helper thread
(``errors._on_two_lanes``), over ranges of whole rows of grid axis 0, which
is always periodic, of at least ``16 * _ROW_BLOCK`` = 65,536 nodes: one pass
fills the first differences, and a second assembles each range's rows of
every plane and runs the caller's per-node tail on them (``+= chi`` in
:func:`gfield`, chihat in :func:`gauduchon_fields`).  :func:`hat_transform`
runs the same ranges.  No range allocates a full-size array: its scratch is
its own rows of the result's lower planes.

The per-node eigenproblems of :func:`eig_wrt_metric` all go through one
driver, :func:`_eigh`: closed forms at n = 2 and n = 3, and LAPACK's
``eigh`` at every other n and at the n = 3 nodes whose eigenvalues nearly
coincide, where the closed form would miss a 1e-12 relative target.  On
every n and metric, a node with a NaN or infinite entry gets NaN eigenpairs
without a warning.  A diagonal metric (flat, conformal and product metrics
all are) reduces them elementwise.  The driver cuts the node stack into
ranges of ``4 * _ROW_BLOCK`` = 16,384 nodes, which the two lanes solve,
each into its own slice of the outputs.  Every lane pass here writes only
its own rows or nodes, so its results are the bits of one pass.  The
metric reduction, the back-transform and everything else here run on the
calling thread.

Layout rule: every Hermitian field and every eigen output this module
allocates (the assembled tensor fields, :func:`hat_transform`, the reduced
matrix and the eigenvalues and eigenvectors of :func:`eig_wrt_metric`) is
stored entry-plane-first, (n, n) + batch in memory, by one allocator,
``_plane_first``, and handed out as the usual (..., n, n) view, or
(..., n) for eigenvalues.  Each entry is then one contiguous plane over
the grid, so the assembler, the metric reduction, the closed-form kernels
and the cone layer read and write whole planes.  Readers index by shape and
never rely on C order; an input of any layout is accepted, and values do
not depend on it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (_ROW_BLOCK, GridError, PositivityError, ValidationError, _first_bad, _integer, _on_two_lanes,
                     _real)

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
# The 3x3 closed form loses accuracy as two eigenvalues meet: its errors in
# the eigenvalues, residuals and orthonormality, relative to the largest
# entry modulus, grow like C eps / gap, with gap the smallest eigenvalue gap
# in the same units and eps = 2.2e-16.  Swept over spectra with gaps from
# 1e-1 to 1e-14 and shifts up to 1e6, C stayed under 4.3.  A 1e-12 target
# thus needs gap >= C eps / 1e-12; the guard takes C = 10 (gap >= 2.2e-3),
# and LAPACK solves the nodes below it.
_EIG3_GUARD = 10 * np.finfo(float).eps / 1e-12


def _entries(value, length, name):
    """value as a tuple of ``length`` entries, or :class:`GridError` naming
    the field ``name``: the one length check of ``ProductGrid``'s fields."""
    try:
        items = tuple(value)
    except TypeError:
        items = None
    if items is None or len(items) != length:
        raise GridError(f"{name} must be a sequence of length {length}, got {value!r}")
    return items


@dataclass(frozen=True)
class ProductGrid:
    """Uniform grid on (torus)^(n-1) x strip.

    Parameters
    ----------
    n : complex dimension (>= 2)
    torus_periods : tuple of (Lx, Ly) pairs, one per torus factor
    strip_bounds : (s0, s1), finite with s0 < s1, the range of Re w
    resolutions : 2n ints; each is 1 (frozen direction) or >= 8, the
        Re w axis always >= 8.  n and each resolution may be an integral
        float or a numpy integer; a bool or a fraction is refused, naming it.
    strip_imag_period : period of Im w (default 2 pi)

    A field, or a period pair, that is not a sequence of the length given
    above is refused with :class:`GridError` naming it, and so is a period
    or strip bound that is not a finite real (``errors._real``), or a
    period that is not positive.  Periods and bounds are stored as floats.
    """

    n: int
    torus_periods: tuple
    strip_bounds: tuple
    resolutions: tuple
    strip_imag_period: float = 2.0 * math.pi

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n", GridError))
        if self.n < 2:
            raise GridError("complex dimension n >= 2 required")
        pairs = _entries(self.torus_periods, self.n - 1, "torus_periods")
        periods = tuple(tuple(_real(p, f"torus_periods[{i}][{j}]", GridError, positive=True)
                              for j, p in enumerate(_entries(pair, 2, f"torus_periods[{i}]")))
                        for i, pair in enumerate(pairs))
        object.__setattr__(self, "torus_periods", periods)
        object.__setattr__(self, "strip_imag_period",
                           _real(self.strip_imag_period, "strip_imag_period", GridError, positive=True))
        s0, s1 = (_real(v, f"strip_bounds[{i}]", GridError)
                  for i, v in enumerate(_entries(self.strip_bounds, 2, "strip_bounds")))
        if not s0 < s1:
            raise GridError(f"strip_bounds must satisfy s0 < s1, got {(s0, s1)}")
        object.__setattr__(self, "strip_bounds", (s0, s1))
        res = tuple(_integer(r, f"axis {a}: resolution", GridError)
                    for a, r in enumerate(_entries(self.resolutions, 2 * self.n, "resolutions")))
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

def _field(grid, u):
    """u as a C-contiguous array of float or complex dtype, copied only when
    it is neither; a field with fewer axes than the grid raises
    :class:`GridError`."""
    u = np.asarray(u)
    if u.ndim < len(grid.shape):
        raise GridError(f"field of shape {u.shape} has fewer axes than the grid {grid.shape}")
    return np.ascontiguousarray(u, np.result_type(u.dtype, 1.0))


def _diff(grid, u, axis, order, out=None, lo=0, hi=None):
    """The unscaled first (``order`` 1) or second (2) difference of u along
    ``axis`` on the rows [lo, hi) of axis 0 (all of them by default),
    written into ``out`` (an array of those rows' shape and u's dtype) or a
    fresh one, and returned: the one stencil kernel.

    Along an axis of stride s in the C-contiguous flattened field, the
    interior is one shifted subtraction, u[k + s] - u[k - s] or
    u[k + s] - 2 u[k] + u[k - s].  Where that shift crosses an end plane,
    the value is wrong, and the two end planes are then rewritten: wrapped
    around on a periodic axis, closed one-sided to second order on Re w.
    Along every axis but 0 this runs on the rows' slab u[lo:hi], itself
    C-contiguous.  Along axis 0, which is periodic (Re w is axis 2n-2 >= 2),
    the rows inside the slab are one shifted subtraction that reads the
    neighbouring rows, and rows 0 and R-1 wrap around where the range holds
    them.  The order of operations is that of the roll stencils, so d1 and
    d2, this difference divided by 2h or h^2, match them bit for bit, and
    so do the rows of any range.  Zero on a length-1 axis; a length other
    than 1 or the grid's resolution, and an axis outside 0..2n-1, raise
    :class:`GridError`.  u may carry trailing (n, n) axes.
    """
    if axis not in range(2 * grid.n):
        raise GridError(f"axis {axis} out of range 0..{2 * grid.n - 1}")
    u = _field(grid, u)
    length, res = u.shape[axis], grid.resolutions[axis]
    if length not in (1, res):
        raise GridError(f"axis {axis}: field has length {length} where the grid has {res}")
    hi = u.shape[0] if hi is None else hi
    if out is None:
        out = np.empty((hi - lo,) + u.shape[1:], u.dtype)
    if length == 1:
        out[...] = 0
        return out
    if axis == 0:
        a, b = max(lo, 1), min(hi, length - 1)  # the rows whose neighbours do not wrap
        rows = [(slice(a - lo, b - lo), slice(a + 1, b + 1), slice(a, b), slice(a - 1, b - 1))] if a < b else []
        rows += [(k - lo, (k + 1) % length, k, k - 1) for k in (0, length - 1) if lo <= k < hi]
        for dst, nxt, at, prv in rows:
            if order == 1:
                np.subtract(u[nxt], u[prv], out=out[dst])
            else:
                inner = out[dst]
                np.multiply(u[at], 2, out=inner)
                np.subtract(u[nxt], inner, out=inner)
                inner += u[prv]
        return out
    u = u[lo:hi]
    s = math.prod(u.shape[axis + 1:])
    f, o = u.reshape(-1), out.reshape(-1)
    v, w = np.moveaxis(u, axis, 0), np.moveaxis(out, axis, 0)
    periodic = grid.is_periodic(axis)
    if order == 1:
        np.subtract(f[2 * s:], f[:-2 * s], out=o[s:-s])
        if periodic:
            np.subtract(v[1], v[-1], out=w[0])
            np.subtract(v[0], v[-2], out=w[-1])
        else:
            w[0] = -3 * v[0] + 4 * v[1] - v[2]
            w[-1] = 3 * v[-1] - 4 * v[-2] + v[-3]
    else:
        inner = o[s:-s]
        np.multiply(f[s:-s], 2, out=inner)
        np.subtract(f[2 * s:], inner, out=inner)
        inner += f[:-2 * s]
        if periodic:
            w[0] = v[1] - 2 * v[0] + v[-1]
            w[-1] = v[0] - 2 * v[-1] + v[-2]
        else:
            w[0] = 2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]
            w[-1] = 2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]
    return out


def d1(grid, u, axis):
    """First derivative along a real coordinate axis (zero on length 1).

    The difference of :func:`_diff`, divided by 2h: centered inside,
    wrapped around at the ends of a periodic axis, and closed one-sided, to
    second order, on Re w, in float or complex dtype.  A length along
    ``axis`` other than 1 or the grid's resolution, and an ``axis`` outside
    0..2n-1, raise :class:`GridError`.
    """
    out = _diff(grid, u, axis, 1)
    out /= 2 * grid.spacing(axis)
    return out


def d2(grid, u, axis):
    """Second derivative along a real coordinate axis (zero on length 1):
    the difference of :func:`_diff` divided by h^2, closed and checked as in
    :func:`d1`."""
    out = _diff(grid, u, axis, 2)
    h = grid.spacing(axis)
    out /= h * h
    return out


# ---------------------------------------------------------------------------
# complex derivatives and the complex Hessian

def d_dz(grid, u, i):
    """Holomorphic derivative along z_i: (d/dx_i - i d/dy_i)/2."""
    return 0.5 * (d1(grid, u, 2 * i) - 1j * d1(grid, u, 2 * i + 1))


def _plane_first(batch, entries, dtype=complex):
    """An empty array of shape ``batch + entries``, stored entry-plane-first:
    in memory the order is ``entries + batch``, so each entry of every node
    (each (i, j) of a field, each i of an eigenvalue stack) is one
    contiguous plane over the batch.  The one allocator of the module's
    Hermitian fields and eigen outputs."""
    k = len(entries)
    return np.moveaxis(np.empty(entries + batch, dtype), tuple(range(k)), tuple(range(-k, 0)))


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


def _range_rows(batch):
    """Whole rows of axis 0 per range of the lane passes over a batch of
    shape ``batch``: the fewest that hold ``16 * _ROW_BLOCK`` = 65,536
    nodes, read at call time."""
    return -(-16 * _ROW_BLOCK // max(1, math.prod(batch[1:])))


def _rows(x, lo, hi, ndim):
    """The rows [lo, hi) along the grid's axis 0 of a field x that has all
    ``ndim`` axes and varies along axis 0; otherwise x itself, which
    broadcasts along that axis."""
    return x[lo:hi] if np.ndim(x) == ndim and np.shape(x)[0] > 1 else x


def _assemble(grid, u, planes=(), weight=None, hessian=True, lead=(), tail=None):
    """The complex Hessian of u (unless ``hessian`` is False) plus the
    first-order term given by ``planes`` (see :func:`_planes`), times
    ``weight`` when one is given: the one assembler of the tensor fields.
    The result is allocated entry-plane-first, at the broadcast shape of u,
    the term's fields and ``lead``, the leading shape of a field the caller
    adds afterwards.  A complex u raises :class:`ValidationError`, and a u
    with more axes than the grid :class:`GridError`.

    Every stencil is an unscaled difference from :func:`_diff`, and the
    scales are folded into one coefficient per product: 1/h^2 and the
    Hessian's 1/4 into one float per second difference; 1/(2h) twice and
    1/4 into one float per stencil pair of a mixed term; and 1/(2h) into
    each coefficient field of the first-order term, at its natural shape.
    Each first difference of u is formed once and shared by the mixed
    stencils and the coefficient fields.

    The work runs in two passes on two lanes, the calling thread and one
    helper thread (``errors._on_two_lanes``), over ranges of whole rows of
    axis 0 that hold at least ``16 * _ROW_BLOCK`` = 65,536 nodes (read at
    call time); a batch of one such range, such as one whose axis 0 has
    length 1, runs on the calling thread alone.  The first pass fills the
    first differences, allocated once on the calling thread, range by
    range; the second assembles each range's rows of every plane and then
    runs ``tail(lo, hi, rows)``, the caller's per-node work on those rows
    of the result, if one is given.  Each range writes only its own rows,
    and a stencil along axis 0 reads its neighbours from whole fields, so
    the result is the bits of one pass, whichever lane took a range.

    Each real and imaginary plane of the upper triangle is combined with
    ``out=`` in two scratch buffers, the two halves of the range's rows of
    the lower plane (j, i), and a stencil is written straight into the
    buffer it is scaled in: a range allocates no full-size array, and on a
    large grid every fresh page costs a fault.  The plane is then written
    once; a diagonal entry, a quarter-Laplacian in one complex coordinate,
    as one complex plane with zero imaginary part.  The lower plane is then
    one conjugate of the upper, which is exact because stencils along
    distinct axes commute.  An axis along which u has length 1 is never
    differentiated, since all it would add is zero.
    """
    n = grid.n
    u = _field(grid, u)
    if u.ndim > 2 * n:
        raise GridError(f"field of shape {u.shape} has more axes than the grid {grid.shape}")
    if np.iscomplexobj(u):
        raise ValidationError(f"u must be real, got dtype {u.dtype}")
    live = [length > 1 for length in u.shape[: 2 * n]]
    h = [grid.spacing(axis) for axis in range(2 * n)]
    terms = {key: [(axis, c / (2 * h[axis])) for axis, c in fields if live[axis]]
             for key, fields in planes}
    shapes = [np.shape(c) for _, fields in planes for _, c in fields]
    if planes and weight is not None:
        shapes.append(np.shape(weight))
    batch = np.broadcast_shapes(u.shape, lead, *shapes)
    out = _plane_first(batch, (n, n))
    step = _range_rows(batch)
    entries = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]

    def stencils(i, j, part):
        """(first, axis, order, coefficient) of each stencil of the
        Hessian's plane: the unscaled difference along axis of u, where
        ``first`` is None, or of u's first difference along ``first``."""
        if not hessian:
            return []
        xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
        if i == j:
            return [(None, axis, 2, 0.25 / (h[axis] * h[axis])) for axis in (xi, yi) if live[axis]]
        pairs = ((xi, xj, 1), (yi, yj, 1)) if part == 0 else ((xi, yj, 1), (yi, xj, -1))
        return [(inner, outer, 1, sign * 0.0625 / (h[outer] * h[inner]))
                for outer, inner, sign in pairs if live[outer] and live[inner]]

    used = {first for i, j in entries for part in range(1 + (i < j)) for first, *_ in stencils(i, j, part)}
    used |= {axis for fields in terms.values() for axis, _ in fields}
    firsts = {axis: np.empty_like(u) for axis in sorted(used - {None})}

    def difference(lo, hi):
        for axis, first in firsts.items():
            _diff(grid, u, axis, 1, first[lo:hi], lo, hi)

    def combine(products, acc, tmp, started, lo, hi):
        """Add the products into ``acc``, which holds a partial sum only
        when ``started``; returns whether it now does.  A stencil is
        written straight into the buffer it is scaled in when the shapes
        and dtypes agree."""
        for x, axis, order, c in products:
            dst = tmp if started else acc
            if axis is None:
                x = _rows(x, lo, hi, len(batch))
            else:
                # the range's rows, or x's one row where x is constant along axis 0
                a, b = (lo, hi) if x.shape[0] > 1 else (0, 1)
                direct = (b - a,) + x.shape[1:] == dst.shape and x.dtype == dst.dtype
                x = _diff(grid, x, axis, order, dst if direct else None, a, b)
            np.multiply(x, _rows(c, lo, hi, len(batch)), out=dst)
            if started:
                np.add(acc, tmp, out=acc)
            started = True
        return started

    # the scratch of entry (i, j) is the range's rows of the lower plane
    # (j, i), free until the conjugate fills them; the diagonal, done
    # first, borrows (1, 0)
    lower = np.moveaxis(out, (-2, -1), (0, 1))

    def assemble(lo, hi):
        rows = out[lo:hi]
        for i, j in entries:
            memory = lower[(j, i) if i < j else (1, 0)][lo:hi].reshape(-1).view(float)
            acc, tmp = memory.reshape((2, hi - lo) + batch[1:])
            for part in range(1 + (i < j)):
                fields = [(firsts[axis], None, 1, c) for axis, c in terms.get((i, j, part), ())]
                started = False
                if weight is not None and fields:
                    started = combine(fields, acc, tmp, started, lo, hi)
                    np.multiply(acc, _rows(weight, lo, hi, len(batch)), out=acc)
                    fields = []
                products = [(u if first is None else firsts[first], axis, order, c)
                            for first, axis, order, c in stencils(i, j, part)]
                started = combine(products + fields, acc, tmp, started, lo, hi)
                plane = acc if started else 0.0
                if i == j:
                    rows[..., i, i] = plane
                else:
                    (rows.real, rows.imag)[part][..., i, j] = plane
            if i < j:
                np.conjugate(rows[..., i, j], out=rows[..., j, i])
        if tail is not None:
            tail(lo, hi, rows)

    if firsts:
        _on_two_lanes(u.shape[0], step, difference)
    _on_two_lanes(batch[0], step, assemble)
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
        _check_field(self.grid, self.g, "metric", (n, n))
        g = np.array(self.g, dtype=complex)
        g = g.reshape((1,) * (2 * n + 2 - g.ndim) + g.shape)
        finite = np.all(np.isfinite(g), axis=(-2, -1))
        if not finite.all():
            raise PositivityError(f"metric has a NaN or infinite entry at node {_first_bad(finite)[0]}")
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
        positive = low > 0
        if not positive.all():
            node = _first_bad(positive)[0]
            raise PositivityError(
                f"metric not positive definite at node {node}"
                f" (min eigenvalue there {float(low[node]):.3e})"
            )


def metric_flat(grid):
    return Metric(grid, np.eye(grid.n))


def metric_conformal(grid, eps):
    """Conformal metric exp(eps * cos(2 pi x_1 / L)) times the identity;
    ``eps`` must be a finite real (``errors._real``)."""
    lx = grid.torus_periods[0][0]
    rho = _real(eps, "eps") * np.cos(2 * math.pi * grid.coord_field(0) / lx)
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
    derivatives.  ``chi`` must broadcast to ``grid.shape + (n, n)``, or
    :class:`GridError` names both shapes: a scalar would be added to every
    entry, not to the diagonal.  ``eta`` is checked the same way, against
    ``grid.shape + (n,)``.
    """
    _check_field(grid, chi, "chi", (grid.n, grid.n))
    planes = ()
    if eta is not None:
        _check_field(grid, eta, "eta", (grid.n,))
        eta = np.asarray(eta, dtype=complex)
        planes = _planes(np.eye(grid.n)[:, :, None] * np.conj(eta)[..., None, None, :])
    chi = np.asarray(chi)

    def add_chi(lo, hi, rows):
        part = _rows(chi, lo, hi, 2 * grid.n + 2)
        for i in range(grid.n):
            for j in range(grid.n):
                np.add(rows[..., i, j], part[..., i, j], out=rows[..., i, j])

    return _assemble(grid, u, planes, lead=chi.shape[:-2], tail=add_chi)


def _check_field(grid, h, name, tail):
    """Refuse a field h that does not broadcast to ``grid.shape + tail``
    with :class:`GridError` naming the field ``name`` and both shapes: the
    one check of a field's shape, for g in :class:`Metric`, for chi, eta,
    rho and za in the tensor assemblers, and for h in the metric functions,
    on every metric.  A field that does not end in ``tail`` is named first:
    a scalar chi would be added to every entry, not to the diagonal."""
    shape, full = np.shape(h), grid.shape + tail
    if shape[len(shape) - len(tail):] != tail:
        raise GridError(f"{name} of shape {shape} does not end in {tail}")
    if len(shape) > len(full) or any(a not in (1, b) for a, b in zip(shape[::-1], full[::-1])):
        raise GridError(f"{name} of shape {shape} does not broadcast to the grid's {full}")


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
    when it is given, which must broadcast to ``grid.shape + (n, n, n)``,
    or :class:`GridError` names both shapes.  A torsion-free metric has no
    planes, and the zero field is returned without differentiating u.
    """
    _check_grid(grid, metric)
    if za is not None:
        _check_field(grid, za, "za", (grid.n,) * 3)
    planes = metric.torsion_planes[0] if za is None else _planes(za)
    return _assemble(grid, u, planes, hessian=False)


def _trace(ginv, h, diagonal):
    """sum g^{i jbar} H_{i jbar}, real, from the inverse metric ``ginv``;
    on a diagonal metric the elementwise sum of g^{i ibar} Re H_{i ibar}."""
    if not diagonal:
        return np.einsum("...ji,...ij->...", ginv, h).real
    tr = ginv[..., 0, 0].real * h[..., 0, 0].real
    for i in range(1, h.shape[-1]):
        tr += ginv[..., i, i].real * h[..., i, i].real
    return tr


def _hat(metric, h, out, lo, hi, per=1, add=False):
    """The rows [lo, hi) of (tr_omega H / per) g - H, along the grid's axis
    0, written into ``out``, which holds those rows, or with ``add`` added
    to it: the one hat/trace helper, which :func:`hat_transform` and the
    chihat of :func:`gauduchon_fields` run range by range.  Each entry
    plane is done on its own, -H written (or subtracted) first and the
    multiple of g added after; on a diagonal metric only to the real
    diagonal.  A plane-first ``out`` then takes each step as one contiguous
    run, where a step over all n^2 planes of a range at once would go
    through numpy's iteration buffers."""
    ndim = 2 * metric.grid.n + 2
    h, ginv, g = (_rows(x, lo, hi, ndim) for x in (h, metric.inverse, metric.g))
    tr = _trace(ginv, h, metric.is_diagonal)
    if per != 1:
        tr = tr / per
    for i in range(metric.grid.n):
        for j in range(metric.grid.n):
            entry = out[..., i, j]
            if add:
                np.subtract(entry, h[..., i, j], out=entry)
            else:
                np.negative(h[..., i, j], out=entry)
            if not metric.is_diagonal:
                np.add(entry, tr * g[..., i, j], out=entry)
            elif i == j:
                np.add(entry.real, tr * g[..., i, i].real, out=entry.real)


def trace_wrt_metric(metric, h):
    """tr_omega H = sum g^{i jbar} H_{i jbar} (real for Hermitian H).

    On a diagonal metric it is the elementwise sum of g^{i ibar} Re H_{i ibar}.
    h must end in the metric's (n, n) and broadcast to
    ``grid.shape + (n, n)``, or :class:`GridError` names both shapes.
    """
    _check_field(metric.grid, h, "field", (metric.grid.n,) * 2)
    return _trace(metric.inverse, h, metric.is_diagonal)


def hat_transform(metric, h):
    """(tr_omega H) g - H; exchanges the two forms of the deleted-sum equation.

    On a diagonal metric it is -H with (tr_omega H) g_ii added to the
    diagonal.  h is checked as for :func:`trace_wrt_metric`.  The result is
    allocated plane-first, and its ranges of whole rows of axis 0, at least
    ``16 * _ROW_BLOCK`` nodes each, run on two lanes
    (``errors._on_two_lanes``), each into its own rows; a range allocates
    no full-size array, and the result is the bits of one pass.
    """
    _check_field(metric.grid, h, "field", (metric.grid.n,) * 2)
    h = np.asarray(h)
    n = metric.grid.n
    out = _plane_first(np.broadcast_shapes(h.shape[:-2], metric.g.shape[:-2]), (n, n))
    _on_two_lanes(out.shape[0], _range_rows(out.shape[:-2]), lambda lo, hi: _hat(metric, h, out[lo:hi], lo, hi))
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
    in each range of that call, as its tail, and U is the
    :func:`hat_transform` of the g-form; both run on two lanes in ranges of
    whole rows of axis 0, at least ``16 * _ROW_BLOCK`` nodes each, through
    the one hat/trace helper, and no range allocates a full-size array.
    Both forms have the broadcast shape of u, chi, rho, the W planes and
    the metric.  On a diagonal metric the traces and the multiples of omega
    are elementwise.  ``chi`` is checked as in :func:`gfield`, and ``rho``,
    a scalar field, must broadcast to ``grid.shape``.
    """
    _check_grid(grid, metric)
    _check_field(grid, chi, "chi", (grid.n, grid.n))
    _check_field(grid, rho, "rho", ())
    chi = np.asarray(chi)

    def chihat(lo, hi, rows):
        _hat(metric, chi, rows, lo, hi, per=grid.n - 1, add=True)

    lead = np.broadcast_shapes(chi.shape[:-2], metric.g.shape[:-2])
    g_form = _assemble(grid, u, metric.torsion_planes[1], weight=rho, lead=lead, tail=chihat)
    return hat_transform(metric, g_form), g_form


def _non_finite(h):
    """Nodes of an (m, n, n) stack with a NaN or infinite entry in the lower
    triangle or real diagonal, each entry tested as one plane of the stack
    (contiguous when the stack is stored plane-first)."""
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
    first one (x, y).  Temporaries stay near 2 MiB on a range of
    ``4 * _ROW_BLOCK`` nodes, the stack :func:`_eigh` hands it.
    """
    a2 = 0.5 * h[:, 0, 0].real
    d2 = 0.5 * h[:, 1, 1].real
    hd = a2 - d2
    # r as the modulus of hd + i|c|: numpy's complex abs is several times
    # faster than its hypot, and as safe from overflow and underflow
    z = np.empty(hd.shape, complex)
    z.real, z.imag = hd, np.abs(h[:, 1, 0])
    r = np.abs(z)
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
    implies but rounding might not.

    Temporaries stay near 5 MiB on a range of ``4 * _ROW_BLOCK`` nodes, the
    stack :func:`_eigh` hands it: each intermediate is dropped after its
    last read.
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
    del inv
    tr = a0 + a1 + a2
    mean = tr / 3.0
    b0, b1, b2 = a0 - mean, a1 - mean, a2 - mean
    del a0, a1, a2
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
    del ip
    q = e10 * e21
    det = b0 * (b1 * b2 - n21) - b1 * n20 - b2 * n10
    det += 2.0 * (q.real * e20.real + q.imag * e20.imag)
    phi = np.arccos(np.clip(0.5 * det, -1.0, 1.0)) / 3.0
    del det
    beta_lo = 2.0 * np.cos(phi + 2.0 * math.pi / 3.0)
    beta_hi = 2.0 * np.cos(phi)
    del phi
    lam_lo = mean + p * beta_lo
    lam_hi = mean + p * beta_hi
    del mean, p
    lam_mid = np.clip(tr - lam_lo - lam_hi, lam_lo, lam_hi)
    del tr
    redo |= np.minimum(lam_mid - lam_lo, lam_hi - lam_mid) <= _EIG3_GUARD
    for j, x in enumerate((lam_lo, lam_mid, lam_hi)):
        np.multiply(x, scale, out=lam[:, j])
    del scale, lam_lo, lam_mid, lam_hi
    if vec is None:
        return redo
    ends = []
    for beta in (beta_lo, beta_hi):
        d0, d1, d2 = b0 - beta, b1 - beta, b2 - beta
        # the adjugate J of B/p - beta I, from its diagonal and lower
        # triangle; column k is (J00, J10, J20), (conj J10, J11, J21)
        # or (conj J20, conj J21, J22)
        j00, j11, j22 = d1 * d2 - n21, d0 * d2 - n20, d0 * d1 - n10
        # an explicit multiply: from 256 KiB (16,384 complex nodes) numpy
        # may reuse an operator's temporary operand as its output, with the
        # operands swapped, which changes the bits of a complex product
        j10 = np.multiply(e20, np.conj(e21)) - d2 * e10
        j20 = q - d1 * e20
        j21 = np.conj(e10) * e20 - d0 * e21
        del d0, d1, d2
        w0, w1, w2 = np.abs(j00), np.abs(j11), np.abs(j22)
        k0 = (w0 >= w1) & (w0 >= w2)
        k1 = ~k0 & (w1 >= w2)
        del w0, w1, w2
        col = (np.where(k0, j00, np.where(k1, np.conj(j10), np.conj(j20))),
               np.where(k0, j10, np.where(k1, j11, np.conj(j21))),
               np.where(k0, j20, np.where(k1, j21, j22)))
        del j00, j11, j22, j10, j20, j21, k0, k1
        norm2 = sum(np.square(c.real) + np.square(c.imag) for c in col)
        redo |= norm2 < _EIG3_GUARD * _EIG3_GUARD
        unit = 1.0 / np.sqrt(np.maximum(norm2, np.finfo(float).tiny))
        del norm2
        for c in col:
            c *= unit
        ends.append(col)
    (u0, u1, u2), (v0, v1, v2) = ends
    vec[:, 0, 0], vec[:, 1, 0], vec[:, 2, 0] = u0, u1, u2
    vec[:, 0, 2], vec[:, 1, 2], vec[:, 2, 2] = v0, v1, v2
    np.conj(u1 * v2 - u2 * v1, out=vec[:, 0, 1])
    np.conj(u2 * v0 - u0 * v2, out=vec[:, 1, 1])
    np.conj(u0 * v1 - u1 * v0, out=vec[:, 2, 1])
    return redo


def _eigh(h, vectors, overwrite=False):
    """Batched Hermitian eigensolve: the one driver, for every n.

    Cuts the stack, on (-1, n[, n]) reshapes of h and of the outputs, into
    ranges of ``4 * _ROW_BLOCK`` = 16,384 nodes (read at call time) and
    solves them on two lanes, the calling thread and one helper thread
    (``errors._on_two_lanes``).  Each range writes only its own slice of
    the preallocated outputs, so the results are the bits of one pass over
    ``_ROW_BLOCK``-node blocks, whichever lane took a range.  Two ranges'
    temporaries are in flight, about 2 MiB each at n = 2 and 5 MiB at
    n = 3, plus each range's copy under ``overwrite``; shorter ranges ran
    slower on two lanes than on one, as each numpy call handed the
    interpreter lock to the other lane.

    The eigenvalues (and eigenvectors) are allocated plane-first, so their
    reshapes are views and they are returned as they are, with no final
    copy; h's reshape is a view too when its batch axes merge, as those of
    a plane-first or C-ordered field do.  The closed forms :func:`_eigh2`
    and :func:`_eigh3` write into the output slices they are handed and
    return the nodes they leave to LAPACK's ``eigh``, which solves whole
    ranges at every other n.  A node with a NaN or infinite entry in the
    lower triangle or real diagonal, the entries all of them read, gets NaN
    eigenpairs without a warning: its kernel sees zeros in its place, and
    LAPACK never sees it.

    ``overwrite`` (with ``vectors``) writes the eigenvectors over h, a
    complex array the caller gives up, whose batch axes must merge into a
    view; they are returned as h itself.  Each range is then copied before
    it is solved, in its own memory order, so no kernel's input aliases its
    output and the kernels still read contiguous planes.
    """
    n = h.shape[-1]
    batch = h.shape[:-2]
    flat = h.reshape(-1, n, n)
    lam = _plane_first(batch, (n,), float)
    vec = (h if overwrite else _plane_first(batch, (n, n))) if vectors else None
    lam_f = lam.reshape(-1, n)
    vec_f = None if vec is None else vec.reshape(-1, n, n)
    kernel = {2: _eigh2, 3: _eigh3}.get(n)

    def solve(lo, hi):
        blk, lam_b = flat[lo:hi], lam_f[lo:hi]
        vec_b = None if vec_f is None else vec_f[lo:hi]
        bad = _non_finite(blk)
        skip = bad.any()
        if skip or overwrite:
            blk = blk.copy(order="K")
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

    _on_two_lanes(flat.shape[0], 4 * _ROW_BLOCK, solve)
    return (lam, vec) if vectors else lam


def eig_wrt_metric(h, metric, vectors=False):
    """Eigenvalues (ascending) of a Hermitian field relative to the metric.

    h must end in the metric's (n, n) and broadcast to
    ``grid.shape + (n, n)``, or :class:`GridError` names both shapes, on
    every metric.  Unless the metric is exactly the identity, the
    generalized problem is reduced through ``metric.inv_cholesky``, the
    per-node L^-1 the metric holds from construction: h becomes L^-1 h L^-H, symmetrized, and an
    eigenvector v of that becomes L^-H v, so returned eigenvectors are
    metric-orthonormal.  For a diagonal metric L^-1 is the diagonal d of
    1/sqrt(g_ii), and both steps are elementwise: h_ij d_i d_j and d_i v_i;
    the real weight keeps h Hermitian, so no symmetrization follows.

    Every eigenpair comes from :func:`_eigh`, the one driver, flat metric
    or not: closed forms at n = 2 and n = 3, and LAPACK's ``eigh`` at
    near-degenerate n = 3 nodes and at every other n.  All read only the
    lower triangle and real diagonal of the reduced matrix, a private
    plane-first array that the eigenvectors overwrite, one copied range at
    a time; h itself is never written.  The eigenvalues and eigenvectors
    are returned plane-first on every metric (see the module docstring):
    the diagonal back-transform scales the eigenvectors in place, and the
    general one writes its matmul into a plane-first output.  Only the
    eigensolve runs on two lanes, in ranges of ``4 * _ROW_BLOCK`` nodes;
    the reduction and the back-transform run on the calling thread, and
    the scratch beyond the outputs is two ranges' (see :func:`_eigh`).

    Non-finite policy: a node with a NaN or infinite entry among those read
    gets NaN eigenvalues and eigenvectors, the others are solved as if it
    were absent, and no warning or ``LinAlgError`` escapes.  The reduction
    turns an infinite entry into NaN (inf times 0), so it runs with
    invalid-value warnings off.  :meth:`cones.ConeFunction.value_grad`
    names the node.
    """
    h = np.asarray(h)
    n = metric.grid.n
    _check_field(metric.grid, h, "field", (n, n))
    if metric.is_flat:
        return _eigh(h, vectors)
    linv = metric.inv_cholesky
    reduced = _plane_first(np.broadcast_shapes(h.shape[:-2], linv.shape[:-2]), (n, n))
    with np.errstate(invalid="ignore"):
        if metric.is_diagonal:
            d = np.diagonal(linv, axis1=-2, axis2=-1).real[..., :, None]
            np.multiply(h, d * np.swapaxes(d, -1, -2), out=reduced, dtype=complex)
        else:
            linv_h = np.conj(np.swapaxes(linv, -1, -2))
            full = linv @ h @ linv_h
            np.add(full, np.conj(np.swapaxes(full, -1, -2)), out=reduced)
            reduced *= 0.5
    if not vectors:
        return _eigh(reduced, False)
    lam, v = _eigh(reduced, True, overwrite=True)
    if metric.is_diagonal:
        v *= d
        return lam, v
    return lam, np.matmul(linv_h, v, out=_plane_first(v.shape[:-2], (n, n)))
