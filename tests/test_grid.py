"""Discretized product manifold: stencils, tensors, metric eigenproblems."""
import math
import os
import re
import signal
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from test_hermitian import InlineLane, NoHelper, two_cpus  # noqa: F401 (a fixture)

from hessianforge import cones as cn
from hessianforge import errors as er
from hessianforge import grid as gr
from hessianforge.errors import ValidationError

TAU = 2 * math.pi


def make_grid(n=2, res=None, strip=(0.0, 1.0)):
    if res is None:
        res = (32, 1, 32, 1) if n == 2 else (16, 1, 16, 1, 16, 1)
    periods = tuple((TAU, TAU) for _ in range(n - 1))
    return gr.ProductGrid(n, periods, strip, res)


class TestGridLayout:
    def test_validation(self):
        with pytest.raises(gr.GridError):
            make_grid(n=1)
        with pytest.raises(gr.GridError, match="resolution"):
            gr.ProductGrid(2, ((TAU, TAU),), (0, 1), (4, 1, 32, 1))
        with pytest.raises(gr.GridError, match="Re w"):
            gr.ProductGrid(2, ((TAU, TAU),), (0, 1), (8, 1, 1, 8))
        with pytest.raises(gr.GridError, match="s0 < s1"):
            gr.ProductGrid(2, ((TAU, TAU),), (1, 0), (8, 1, 8, 1))

    @pytest.mark.parametrize("bounds, text", [
        ((0.0, math.inf), "strip_bounds[1] must be finite, got inf"),
        ((-math.inf, 1.0), "strip_bounds[0] must be finite, got -inf"),
        ((-math.inf, math.inf), "strip_bounds[0] must be finite, got -inf"),
    ])
    def test_rejects_non_finite_strip_bounds(self, bounds, text):
        # an infinite bound gives an infinite spacing and NaN coordinates
        with pytest.raises(gr.GridError, match=re.escape(text)):
            gr.ProductGrid(2, ((TAU, TAU),), bounds, (8, 1, 8, 1))

    @pytest.mark.parametrize("res, text", [
        ((8.9, 1, 8, 1), "axis 0: resolution must be an integer, got 8.9"),  # int() truncated it to 8
        ((8, True, 8, 1), "axis 1: resolution must be an integer, got True"),
        ((8, 1, 8, 1.5), "axis 3: resolution must be an integer, got 1.5"),
    ])
    def test_rejects_non_integral_resolutions(self, res, text):
        with pytest.raises(gr.GridError, match=re.escape(text)):
            gr.ProductGrid(2, ((TAU, TAU),), (0, 1), res)

    @pytest.mark.parametrize("periods, bounds, res, text", [
        (((TAU, TAU, TAU),), (0, 1), (8, 1, 8, 1),
         f"torus_periods[0] must be a sequence of length 2, got {(TAU, TAU, TAU)!r}"),
        ((TAU,), (0, 1), (8, 1, 8, 1), f"torus_periods[0] must be a sequence of length 2, got {TAU!r}"),
        (((TAU, TAU),), (0, 1, 2), (8, 1, 8, 1), "strip_bounds must be a sequence of length 2, got (0, 1, 2)"),
        (((TAU, TAU),), (0, 1), 8, "resolutions must be a sequence of length 4, got 8"),
    ], ids=["pair-of-three", "period-not-a-pair", "three-bounds", "resolutions-not-a-sequence"])
    def test_rejects_fields_of_the_wrong_length(self, periods, bounds, res, text):
        with pytest.raises(gr.GridError, match=re.escape(text)):
            gr.ProductGrid(2, periods, bounds, res)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_rejects_non_integral_dimension(self, n):
        with pytest.raises(gr.GridError, match=re.escape(f"n must be an integer, got {n!r}")):
            gr.ProductGrid(n, ((TAU, TAU),), (0, 1), (8, 1, 8, 1))

    def test_integral_floats_and_numpy_integers_are_ints(self):
        g = gr.ProductGrid(2.0, ((TAU, TAU),), (0, 1), (8.0, np.int64(1), np.int32(8), 1))
        assert g.n == 2 and type(g.n) is int
        assert g.resolutions == (8, 1, 8, 1) and all(type(r) is int for r in g.resolutions)

    def test_periods_and_bounds_are_floats(self):
        g = gr.ProductGrid(2, ((6, np.float32(0.5)),), (np.int64(0), 1), (8, 1, 8, 1), strip_imag_period=3)
        assert g.torus_periods == ((6.0, 0.5),) and g.strip_bounds == (0.0, 1.0) and g.strip_imag_period == 3.0
        assert all(type(v) is float for v in (*g.torus_periods[0], *g.strip_bounds, g.strip_imag_period))

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_periods(self, period):
        with pytest.raises(gr.GridError, match="periods"):
            gr.ProductGrid(2, ((period, TAU),), (0, 1), (8,) * 4)
        with pytest.raises(gr.GridError, match="periods"):
            gr.ProductGrid(2, ((TAU, period),), (0, 1), (8,) * 4)
        with pytest.raises(gr.GridError, match="strip_imag_period"):
            gr.ProductGrid(2, ((TAU, TAU),), (0, 1), (8,) * 4, strip_imag_period=period)

    def test_coords_and_spacing(self):
        g = make_grid(res=(8, 1, 9, 1))
        assert g.spacing(0) == pytest.approx(TAU / 8)
        assert g.spacing(2) == pytest.approx(1.0 / 8)
        np.testing.assert_allclose(g.coord(2)[[0, -1]], [0.0, 1.0])
        assert g.num_nodes == 72

    def test_boundary_mask(self):
        g = make_grid(res=(8, 1, 10, 1))
        m = g.boundary_mask()
        assert m.sum() == 2 * 8
        assert not m[g.interior_slicer()].any()


def roll_stencil(grid, u, axis, order):
    """Reference first (order 1) and second (order 2) derivative stencils,
    built from whole-field ``np.roll`` copies on periodic axes and
    ``np.take`` planes on Re w, in the order of operations that
    :func:`gr.d1` and :func:`gr.d2` must reproduce bit for bit."""
    u = np.asarray(u)
    if u.shape[axis] == 1:
        return np.zeros_like(u)
    h = grid.spacing(axis)
    if grid.is_periodic(axis):
        up, um = np.roll(u, -1, axis), np.roll(u, 1, axis)
        return (up - um) / (2 * h) if order == 1 else (up - 2 * u + um) / (h * h)

    def take(i):
        return np.take(u, i, axis)

    k = np.arange(1, u.shape[axis] - 1)
    if order == 1:
        parts = ((-3 * take([0]) + 4 * take([1]) - take([2])) / (2 * h),
                 (take(k + 1) - take(k - 1)) / (2 * h),
                 (3 * take([-1]) - 4 * take([-2]) + take([-3])) / (2 * h))
    else:
        parts = ((2 * take([0]) - 5 * take([1]) + 4 * take([2]) - take([3])) / (h * h),
                 (take(k + 1) - 2 * take(k) + take(k - 1)) / (h * h),
                 (2 * take([-1]) - 5 * take([-2]) + 4 * take([-3]) - take([-4])) / (h * h))
    return np.concatenate(parts, axis)


class TestDerivatives:
    def test_linear_strip_field_exact(self):
        g = make_grid()
        u = np.broadcast_to(g.coord_field(2), g.shape).copy()
        np.testing.assert_allclose(gr.d_dz(g, u, 1), 0.5, atol=1e-12)

    @pytest.mark.parametrize("kind", ["float", "complex", "broadcast", "fortran", "matrix",
                                      "natural", "integer"])
    def test_matches_the_roll_stencils_bit_for_bit(self, kind):
        g = make_grid(res=(8, 1, 9, 8))  # periodic, frozen, Re w, periodic
        rng = np.random.default_rng(60)
        u = {
            "float": lambda: rng.normal(size=g.shape),
            "complex": lambda: rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape),
            "broadcast": lambda: np.broadcast_to(rng.normal(size=(8, 1, 9, 1)), g.shape),
            "fortran": lambda: np.asfortranarray(rng.normal(size=g.shape)),
            "matrix": lambda: random_hermitian(rng, g.shape, 2),
            # the shape of a metric's g: length 1 on the resolved axis 3
            "natural": lambda: random_hermitian(rng, (8, 1, 9, 1), 2),
            "integer": lambda: rng.integers(-50, 51, size=g.shape),
        }[kind]()
        # the roll stencils keep an integer dtype on the frozen axis
        for axis in [2] if kind == "integer" else range(4):
            for order, derivative in ((1, gr.d1), (2, gr.d2)):
                got, ref = derivative(g, u, axis), roll_stencil(g, u, axis, order)
                assert got.shape == ref.shape and got.dtype == ref.dtype
                np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("make", [lambda g: gr.metric_conformal(g, 0.3),
                                      lambda g: TestGeneralMetric.metric(g)],
                             ids=["conformal", "general"])
    def test_torsion_matches_the_roll_stencils_bit_for_bit(self, make, monkeypatch):
        # torsion differentiates the natural-shape g, with its (n, n) tail,
        # through d_dz and d1
        g = make_grid(n=3, res=(8, 1, 8, 1, 9, 8))
        metric = make(g)
        got = gr.torsion(g, metric)
        monkeypatch.setattr(gr, "d1", lambda grid, u, axis: roll_stencil(grid, u, axis, 1))
        ref = gr.torsion(g, metric)
        assert np.any(ref) and got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)

    def test_integer_field_is_differentiated_in_floating_point(self):
        g = make_grid(res=(8, 1, 8, 1))
        u = np.random.default_rng(61).integers(-3, 4, size=g.shape)
        for axis in range(4):
            for derivative in (gr.d1, gr.d2):
                got = derivative(g, u, axis)
                assert got.dtype == np.float64
                np.testing.assert_array_equal(got, derivative(g, u.astype(float), axis))
        # 1 at Re w index 1: the centered difference at index 2 is -1/(2h), h = 1/7
        spike = np.zeros(g.shape, dtype=int)
        spike[:, :, 1] = 1
        np.testing.assert_array_equal(gr.d1(g, spike, 2)[0, 0, :3, 0], [14.0, 0.0, -3.5])

    def test_mismatched_axis_length_is_refused(self):
        g = make_grid(res=(8, 1, 8, 1))
        with pytest.raises(gr.GridError, match="axis 0: field has length 16 where the grid has 8"):
            gr.d1(g, np.ones((16, 1, 8, 1)), 0)
        with pytest.raises(gr.GridError, match="axis 1: field has length 8 where the grid has 1"):
            gr.d2(g, np.ones((8, 8, 8, 1)), 1)
        with pytest.raises(gr.GridError, match=re.escape("u of shape (8, 1, 9, 1) does not broadcast")):
            gr.complex_hessian(g, np.ones((8, 1, 9, 1)))
        for short in ((8, 1, 8), (8,)):
            with pytest.raises(gr.GridError, match=r"fewer axes than the grid \(8, 1, 8, 1\)"):
                gr.complex_hessian(g, np.ones(short))
        # only the differentiated axis is checked, so (n, n) tails pass
        assert gr.d1(g, np.ones((8, 1, 8, 1, 2, 2)), 0).shape == (8, 1, 8, 1, 2, 2)

    @pytest.mark.parametrize("axis", [-1, -2, -4, 4, 5])
    @pytest.mark.parametrize("derivative", [gr.d1, gr.d2], ids=["d1", "d2"])
    def test_axis_outside_the_grid_is_refused(self, derivative, axis):
        # a negative axis would index the field from the end but the grid
        # from the start: d1 along -2 is Re w's stencil, wrapped around with
        # a torus spacing; axis 4 of an n = 2 grid does not exist
        g = make_grid(res=(8, 8, 8, 8))
        u = np.random.default_rng(5).normal(size=g.shape)
        with pytest.raises(gr.GridError, match=re.escape(f"axis {axis} out of range 0..3")):
            derivative(g, u, axis)

    def test_constant_field(self):
        g = make_grid()
        z = gr.d1(g, np.ones(g.shape), 0)
        np.testing.assert_array_equal(z, 0.0)

    def test_periodic_sine(self):
        g = make_grid(res=(256, 1, 8, 1))
        x1 = np.broadcast_to(g.coord_field(0), g.shape)
        u = np.sin(2 * TAU * x1 / TAU)  # sin(2 x1), two full periods
        dz = gr.d_dz(g, u, 0)
        np.testing.assert_allclose(dz, np.cos(2 * x1), atol=2e-3)

    def test_frozen_axis_derivative_is_zero(self):
        g = make_grid()
        u = np.broadcast_to(np.sin(g.coord_field(0)), g.shape)
        np.testing.assert_array_equal(gr.d1(g, u, 1), 0.0)

    @pytest.mark.parametrize("axis", [0, 2])
    def test_length_one_axis_is_constant(self, axis):
        # a field stored at a broadcast shape, on a resolved periodic axis
        # and on the strip axis, whose one-sided closures need 4 points
        g = make_grid(res=(8, 1, 8, 1))
        u = np.ones((1, 1, 1, 1))
        np.testing.assert_array_equal(gr.d1(g, u, axis), np.zeros_like(u))
        np.testing.assert_array_equal(gr.d2(g, u, axis), np.zeros_like(u))

    @pytest.mark.parametrize("axis", [0, 2])
    def test_second_order_convergence(self, axis):
        # strip resolutions 17/33 halve the spacing exactly; the phase shift
        # keeps the boundary truncation term of the one-sided stencil alive
        errs = []
        sizes = (16, 32) if axis == 0 else (65, 129)
        for m in sizes:
            res = [1, 1, 8, 1]
            res[axis] = m
            g = make_grid(res=tuple(res))
            t = np.broadcast_to(g.coord_field(axis), g.shape)
            if axis == 0:
                u = np.sin(t)
                exact = -np.sin(t)
            else:
                u = np.sin(math.pi * t + 0.3)
                exact = -math.pi**2 * np.sin(math.pi * t + 0.3)
            errs.append(np.abs(gr.d2(g, u, axis) - exact).max())
        ratio = errs[0] / errs[1]
        assert 3.2 < ratio < 4.8


class TestComplexHessian:
    def test_strip_modulus_squared(self):
        # |z_n|^2 in the strip chart; y_n wrap seam excluded (field not periodic)
        g = make_grid(res=(8, 1, 16, 16))
        xn = np.broadcast_to(g.coord_field(2), g.shape)
        yn = np.broadcast_to(g.coord_field(3), g.shape)
        u = xn**2 + yn**2
        h = gr.complex_hessian(g, u)
        inner = (slice(None),) * 3 + (slice(2, -2),)
        np.testing.assert_allclose(h[inner][..., 1, 1], 1.0, atol=1e-10)
        np.testing.assert_allclose(h[inner][..., 0, 0], 0.0, atol=1e-10)
        np.testing.assert_allclose(h[inner][..., 0, 1], 0.0, atol=1e-10)

    def test_pluriharmonic(self):
        # Re(z_n^2) has vanishing mixed complex Hessian
        g = make_grid(res=(8, 1, 16, 16))
        xn = np.broadcast_to(g.coord_field(2), g.shape)
        yn = np.broadcast_to(g.coord_field(3), g.shape)
        u = xn**2 - yn**2
        h = gr.complex_hessian(g, u)
        inner = (slice(None),) * 3 + (slice(2, -2),)
        np.testing.assert_allclose(h[inner], 0.0, atol=1e-10)

    def test_cross_term_second_order(self):
        # smooth periodic-twist field against its analytic mixed Hessian
        errs = []
        for m in (16, 32):
            g = make_grid(n=3, res=(m, 1, m, 1, 8, 1))
            x1 = np.broadcast_to(g.coord_field(0), g.shape)
            x2 = np.broadcast_to(g.coord_field(2), g.shape)
            u = np.cos(x1) * np.cos(x2)
            h = gr.complex_hessian(g, u)
            exact01 = 0.25 * np.sin(x1) * np.sin(x2)
            errs.append(np.abs(h[..., 0, 1] - exact01).max())
        assert 3.2 < errs[0] / errs[1] < 4.8

    def test_hermitian_by_construction(self):
        g = make_grid(res=(16, 8, 16, 8))
        rng = np.random.default_rng(0)
        u = rng.normal(size=g.shape)
        h = gr.complex_hessian(g, u)
        assert gr.check_hermitian_field(h) < 1e-12

    @pytest.mark.filterwarnings("error")
    def test_non_hermitian_field_is_a_validation_error(self):
        for h in ([[0.0, 1.0], [0.0, 0.0]], [[np.nan, 1.0], [1.0, 1.0]],
                  [[0.0, np.inf], [0.0, 0.0]], [[np.inf, 0.0], [0.0, 0.0]]):
            with pytest.raises(ValidationError, match="not Hermitian") as caught:
                gr.check_hermitian_field(np.array(h, dtype=complex))
            assert caught.type is ValidationError


class TestGField:
    def test_constant_chi_zero_u(self):
        g = make_grid()
        chi = 3.0 * np.eye(2)
        out = gr.gfield(g, np.zeros(g.shape), chi)
        np.testing.assert_allclose(out, np.broadcast_to(chi, g.shape + (2, 2)))

    def test_eta_coupling_hand_value(self):
        # u = Re(w): u_n = 1/2, so the (n,n) entry gains 1/2 + 1/2 = 1
        g = make_grid()
        u = np.broadcast_to(g.coord_field(2), g.shape).copy()
        chi = np.eye(2)
        eta = np.array([0.0, 1.0], dtype=complex)
        out = gr.gfield(g, u, chi, eta)
        np.testing.assert_allclose(out[..., 1, 1].real, 2.0, atol=1e-11)
        np.testing.assert_allclose(out[..., 0, 0].real, 1.0, atol=1e-13)
        assert gr.check_hermitian_field(out) < 1e-12

    def test_eta_reduction(self):
        g = make_grid()
        rng = np.random.default_rng(1)
        u = rng.normal(size=g.shape)
        chi = np.eye(2)
        np.testing.assert_allclose(
            gr.gfield(g, u, chi, None),
            chi + gr.complex_hessian(g, u),
        )

    @pytest.mark.parametrize("per_node", [False, True], ids=["constant", "per-node"])
    def test_complex_eta_coupling_matches_the_formula(self, per_node):
        # u_i conj(eta_j) + eta_i conj(u_j), with u_i the holomorphic derivatives
        g = make_grid(n=3, res=(8, 1, 8, 8, 8, 1))
        rng = np.random.default_rng(9)
        u = rng.normal(size=g.shape)
        shape = g.shape + (3,) if per_node else (3,)
        eta = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        chi = 2.0 * np.eye(3)
        uz = np.stack([gr.d_dz(g, u, p) for p in range(3)], axis=-1)
        ref = (chi + gr.complex_hessian(g, u) + uz[..., :, None] * np.conj(eta)[..., None, :]
               + eta[..., :, None] * np.conj(uz)[..., None, :])
        TestNaturalShape.assert_close(gr.gfield(g, u, chi, eta), ref)

    @pytest.mark.parametrize("chi, shape", [
        (2.0, "()"), (np.ones(2), "(2,)"), (np.eye(3), "(3, 3)"), (np.ones((8, 1, 8, 1, 2)), "(8, 1, 8, 1, 2)"),
    ], ids=["scalar", "vector", "3x3", "field-of-vectors"])
    def test_chi_must_end_in_n_by_n(self, chi, shape):
        # a scalar would be added to every entry: a rank-one form, not 2 I
        g = make_grid(res=(8, 1, 8, 1))
        with pytest.raises(gr.GridError, match=re.escape(f"chi of shape {shape} does not end in (2, 2)")):
            gr.gfield(g, np.zeros(g.shape), chi)

    @pytest.mark.parametrize("eta, message", [
        (np.ones(3), "eta of shape (3,) does not end in (2,)"),
        (np.ones((3, 2)), "eta of shape (3, 2) does not broadcast to the grid's (8, 1, 8, 1, 2)"),
        (np.ones((8, 1, 8, 1, 1)), "eta of shape (8, 1, 8, 1, 1) does not end in (2,)"),
    ], ids=["length-3", "stack", "length-1"])
    def test_eta_must_broadcast_to_the_grid(self, eta, message):
        g = make_grid(res=(8, 1, 8, 1))
        with pytest.raises(gr.GridError, match=re.escape(message)):
            gr.gfield(g, np.zeros(g.shape), np.eye(2), eta)

    @pytest.mark.parametrize("shape", [(8, 1, 0, 1), (0, 1, 8, 1), (8, 0, 8, 1)])
    def test_u_with_a_zero_length_axis_is_refused(self, shape):
        # an empty field would come back, as such an axis is never
        # differentiated
        g = make_grid(res=(8, 1, 8, 1))
        message = f"u of shape {shape} does not broadcast to the grid's (8, 1, 8, 1)"
        for call in (lambda u: gr.complex_hessian(g, u), lambda u: gr.gfield(g, u, np.eye(2)),
                     lambda u: gr.z_tensor(g, gr.metric_flat(g), u, np.zeros((2, 2, 2)))):
            with pytest.raises(gr.GridError, match=re.escape(message)):
                call(np.zeros(shape))

    def test_u_with_more_axes_than_the_grid_is_refused(self):
        # a trailing axis would be read as a stack, and the result would be
        # a (..., 3, 2, 2) stack of fields
        g = make_grid(res=(8, 1, 8, 1))
        message = "u of shape (8, 1, 8, 1, 3) does not broadcast to the grid's (8, 1, 8, 1)"
        for call in (lambda u: gr.complex_hessian(g, u), lambda u: gr.gfield(g, u, np.eye(2)),
                     lambda u: gr.z_tensor(g, gr.metric_flat(g), u, np.zeros((2, 2, 2)))):
            with pytest.raises(gr.GridError, match=re.escape(message)):
                call(np.zeros(g.shape + (3,)))

    @pytest.mark.parametrize("shape", [(3, 2, 2), (8, 1, 8, 2, 2, 2), (2, 8, 1, 8, 1, 2, 2)],
                             ids=["stack", "wrong-axis", "extra-axis"])
    @pytest.mark.parametrize("call", ["gfield", "gauduchon_fields"])
    def test_chi_must_broadcast_to_the_grid(self, call, shape):
        # a stack of chi would add batch axes to the field, or fail deep in
        # numpy; both functions name the two shapes instead
        g = make_grid(res=(8, 1, 8, 1))
        u, chi = np.zeros(g.shape), np.broadcast_to(np.eye(2), shape)
        run = {
            "gfield": lambda: gr.gfield(g, u, chi),
            "gauduchon_fields": lambda: gr.gauduchon_fields(g, u, chi, np.zeros(g.shape), gr.metric_flat(g)),
        }[call]
        with pytest.raises(gr.GridError, match=re.escape(f"chi of shape {shape} does not broadcast to the grid's (8, 1, 8, 1, 2, 2)")):
            run()

    def test_chi_wider_than_u(self):
        # u constant along x_1 and chi varying along it: both functions
        # return the field at the broadcast shape
        g = make_grid(res=(8, 1, 8, 1))
        chi = np.eye(2) * (2.0 + g.coord_field(0))[..., None, None] + 0j
        u = np.zeros((1, 1, 8, 1))
        np.testing.assert_array_equal(gr.gfield(g, u, chi), np.broadcast_to(chi, g.shape + (2, 2)))
        metric = gr.metric_flat(g)
        u_form, g_form = gr.gauduchon_fields(g, u, chi, np.zeros(g.shape), metric)
        np.testing.assert_array_equal(g_form, np.broadcast_to(chi, g.shape + (2, 2)))
        np.testing.assert_array_equal(u_form, gr.hat_transform(metric, g_form))


def conformal_setup(m=48, eps=0.3):
    g = make_grid(res=(m, 1, 16, 1))
    metric = gr.metric_conformal(g, eps)
    return g, metric, eps


class TestTorsion:
    def test_flat_zero(self):
        g = make_grid()
        t = gr.torsion(g, gr.metric_flat(g))
        np.testing.assert_array_equal(t, 0.0)

    def test_product_metric_zero(self):
        g = make_grid()
        metric = gr.metric_product(g, lambda s: 1.0 + 0.5 * np.sin(math.pi * s))
        t = gr.torsion(g, metric)
        np.testing.assert_allclose(t, 0.0, atol=1e-11)

    def test_conformal_matches_analytic(self):
        # T^k_{ij} = delta_jk rho_i - delta_ik rho_j for g = exp(rho) I
        errs = []
        for m in (24, 48):
            g, metric, eps = conformal_setup(m)
            t = gr.torsion(g, metric)
            x1 = np.broadcast_to(g.coord_field(0), g.shape)
            rho_1 = -0.5 * eps * np.sin(x1)  # d/dz_1 of eps cos(x_1)
            exact = np.zeros(g.shape + (2, 2, 2), dtype=complex)
            exact[..., 1, 0, 1] = rho_1
            exact[..., 1, 1, 0] = -rho_1
            errs.append(np.abs(t - exact).max())
        assert errs[1] < errs[0] / 3.2

    def test_antisymmetry(self):
        g, metric, _ = conformal_setup(16)
        t = gr.torsion(g, metric)
        np.testing.assert_allclose(t, -np.swapaxes(t, -1, -2), atol=1e-14)


def z_tensor_loops(grid, metric, u):
    """Index-loop reference for the six-term gradient tensor."""
    n = grid.n
    t = gr.torsion(grid, metric)
    g = metric.matrix()
    ginv_mat = metric.inverse

    def up(i, j):  # g^{i jbar}
        return ginv_mat[..., j, i]

    uz = np.stack([gr.d_dz(grid, u, p) for p in range(n)], axis=-1)
    ub = np.conj(uz)
    z = np.zeros(grid.shape + (n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = np.zeros(grid.shape, dtype=complex)
            for p in range(n):
                for q in range(n):
                    for l in range(n):
                        acc += up(p, q) * np.conj(t[..., l, q, l]) * g[..., i, j] * uz[..., p] / (n - 1) / 2
                        acc += up(p, q) * t[..., l, p, l] * g[..., i, j] * ub[..., q] / (n - 1) / 2
            for k in range(n):
                for l in range(n):
                    for q in range(n):
                        acc -= up(k, l) * g[..., i, q] * np.conj(t[..., q, l, j]) * uz[..., k] / (n - 1) / 2
                        acc -= up(k, l) * g[..., q, j] * t[..., q, k, i] * ub[..., l] / (n - 1) / 2
            for l in range(n):
                acc -= np.conj(t[..., l, j, l]) * uz[..., i] / (n - 1) / 2
                acc -= t[..., l, i, l] * ub[..., j] / (n - 1) / 2
            z[..., i, j] = acc
    return z


class TestZTensor:
    @pytest.mark.parametrize("shape, message", [
        ((3, 3, 3, 2), "za of shape (3, 3, 3, 2) does not end in (2, 2, 2)"),
        ((3, 2, 2, 2), "za of shape (3, 2, 2, 2) does not broadcast to the grid's (8, 1, 8, 1, 2, 2, 2)"),
    ], ids=["wrong-tail", "stack"])
    def test_za_must_broadcast_to_the_grid(self, shape, message):
        g = make_grid(res=(8, 1, 8, 1))
        with pytest.raises(gr.GridError, match=re.escape(message)):
            gr.z_tensor(g, gr.metric_flat(g), np.zeros(g.shape), np.ones(shape, dtype=complex))

    def test_flat_zero_any_u(self):
        g = make_grid()
        rng = np.random.default_rng(2)
        u = rng.normal(size=g.shape)
        z = gr.z_tensor(g, gr.metric_flat(g), u)
        np.testing.assert_array_equal(z, 0.0)

    def test_constant_u_zero(self):
        g, metric, _ = conformal_setup(16)
        z = gr.z_tensor(g, metric, np.full(g.shape, 2.5))
        np.testing.assert_allclose(z, 0.0, atol=1e-14)

    def test_vanishes_identically_for_n2(self):
        # with a single torus factor there is nothing for the torsion trace
        # to couple to: the gradient tensor is identically zero at n = 2
        g, metric, _ = conformal_setup(16)
        x1 = np.broadcast_to(g.coord_field(0), g.shape)
        u = np.cos(x1) * np.asarray(g.sigma_hat() ** 2)
        np.testing.assert_allclose(gr.z_tensor(g, metric, u), 0.0, atol=1e-14)

    def test_matches_index_loop_oracle(self):
        g = make_grid(n=3, res=(16, 1, 8, 1, 8, 1))
        metric = gr.metric_conformal(g, 0.3)
        x1 = np.broadcast_to(g.coord_field(0), g.shape)
        u = np.cos(x1) * np.asarray(g.sigma_hat() ** 2)
        z = gr.z_tensor(g, metric, u)
        z_ref = z_tensor_loops(g, metric, u)
        np.testing.assert_allclose(z, z_ref, atol=1e-12)
        assert np.abs(z).max() > 1e-4  # the comparison is not vacuous

    def test_linear_in_u(self):
        g, metric, _ = conformal_setup(16)
        rng = np.random.default_rng(3)
        u, v = rng.normal(size=(2,) + g.shape)
        zu = gr.z_tensor(g, metric, u)
        zv = gr.z_tensor(g, metric, v)
        zuv = gr.z_tensor(g, metric, u + v)
        np.testing.assert_allclose(zuv, zu + zv, atol=1e-12)

    def test_hermitian(self):
        g, metric, _ = conformal_setup(16)
        rng = np.random.default_rng(4)
        z = gr.z_tensor(g, metric, rng.normal(size=g.shape))
        assert gr.check_hermitian_field(z) < 1e-12


class TestEigWrtMetric:
    def test_flat_plain(self):
        g = make_grid(res=(8, 1, 8, 1))
        h = np.zeros(g.shape + (2, 2), dtype=complex)
        h[..., 0, 0], h[..., 1, 1] = 3.0, 1.0
        lam = gr.eig_wrt_metric(h, gr.metric_flat(g))
        np.testing.assert_allclose(lam[..., 0], 1.0)
        np.testing.assert_allclose(lam[..., 1], 3.0)

    def test_scaled_identity(self):
        g = make_grid(res=(8, 1, 8, 1))
        two = np.zeros(g.shape + (2, 2), dtype=complex)
        two[..., 0, 0] = two[..., 1, 1] = 2.0
        metric = gr.Metric(g, two)
        h = np.broadcast_to(np.eye(2, dtype=complex), g.shape + (2, 2))
        lam = gr.eig_wrt_metric(h, metric)
        np.testing.assert_allclose(lam, 0.5)

    def test_random_spd_against_scipy(self):
        g = make_grid(res=(8, 1, 8, 1))
        rng = np.random.default_rng(5)
        n = 2

        def rand_herm(pos):
            a = rng.normal(size=g.shape + (n, n)) + 1j * rng.normal(size=g.shape + (n, n))
            h = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))
            if pos:
                h = h @ np.conj(np.swapaxes(h, -1, -2)) + 0.3 * np.eye(n)
            return h

        gm = rand_herm(True)
        h = rand_herm(False)
        metric = gr.Metric(g, gm)
        lam = gr.eig_wrt_metric(h, metric)
        flat_h = h.reshape(-1, n, n)
        flat_g = gm.reshape(-1, n, n)
        for idx in rng.choice(flat_h.shape[0], 20, replace=False):
            ref = scipy.linalg.eigh(flat_h[idx], flat_g[idx], eigvals_only=True)
            np.testing.assert_allclose(lam.reshape(-1, n)[idx], ref, atol=1e-10)

    def test_metric_orthonormal_vectors(self):
        g = make_grid(res=(8, 1, 8, 1))
        gm = np.zeros(g.shape + (2, 2), dtype=complex)
        gm[..., 0, 0], gm[..., 1, 1] = 2.0, 1.0
        gm[..., 0, 1] = gm[..., 1, 0] = 0.3
        metric = gr.Metric(g, gm)
        h = np.broadcast_to(np.diag([1.0, -1.0]).astype(complex), g.shape + (2, 2))
        lam, v = gr.eig_wrt_metric(h, metric, vectors=True)
        gram = np.conj(np.swapaxes(v, -1, -2)) @ gm @ v
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(2), gram.shape), atol=1e-12)

    def test_nonpositive_metric_reports_node(self):
        g = make_grid(res=(8, 1, 8, 1))
        gm = np.zeros(g.shape + (2, 2), dtype=complex)
        gm[..., 0, 0], gm[..., 1, 1] = 1.0, 1.0
        gm[3, 0, 4, 0] = [[-1.0, 0.0], [0.0, 1.0]]
        # refused at construction, so no metric that is not positive exists
        with pytest.raises(gr.PositivityError, match=re.escape("node (3, 0, 4, 0)")):
            gr.Metric(g, gm)

    @pytest.mark.parametrize("make", [gr.metric_flat, lambda g: gr.metric_conformal(g, 0.3)],
                             ids=["flat", "conformal"])
    def test_field_of_another_dimension_refused(self, make):
        metric = make(make_grid(res=(8, 1, 8, 1)))
        h = np.broadcast_to(np.eye(3, dtype=complex), metric.grid.shape + (3, 3))
        with pytest.raises(gr.GridError, match=re.escape("field of shape (8, 1, 8, 1, 3, 3) does not end in (2, 2)")):
            gr.eig_wrt_metric(h, metric)

    @pytest.mark.parametrize("fn", [gr.trace_wrt_metric, gr.hat_transform], ids=["trace", "hat"])
    @pytest.mark.parametrize("make", [gr.metric_flat, lambda g: gr.metric_conformal(g, 0.3)],
                             ids=["flat", "conformal"])
    def test_trace_and_hat_refuse_a_field_of_another_dimension(self, make, fn):
        metric = make(make_grid(res=(8, 1, 8, 1)))
        h = np.broadcast_to(np.eye(3, dtype=complex), metric.grid.shape + (3, 3))
        with pytest.raises(gr.GridError, match=re.escape("field of shape (8, 1, 8, 1, 3, 3) does not end in (2, 2)")):
            fn(metric, h)

    @pytest.mark.parametrize("call", [
        lambda metric, h: gr.eig_wrt_metric(h, metric),
        gr.trace_wrt_metric,
        gr.hat_transform,
    ], ids=["eig", "trace", "hat"])
    @pytest.mark.parametrize("shape", [(3, 2, 2), (7, 2, 2, 2)])
    @pytest.mark.parametrize("make", [gr.metric_flat, lambda g: gr.metric_conformal(g, 0.3)],
                             ids=["flat", "conformal"])
    def test_field_off_the_grid_refused_on_every_metric(self, make, call, shape):
        g = make_grid(res=(16, 1, 16, 1))
        h = np.broadcast_to(np.eye(2, dtype=complex), shape)
        message = f"field of shape {shape} does not broadcast to the grid's (16, 1, 16, 1, 2, 2)"
        with pytest.raises(gr.GridError, match=re.escape(message)):
            call(make(g), h)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("vectors", [True, False], ids=["vectors", "values"])
    @pytest.mark.parametrize("metric_name", ["flat", "conformal"])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_non_finite_node_is_nan_and_named_by_the_cone_check(self, n, entry, metric_name, vectors,
                                                                 monkeypatch):
        g = make_grid(n=n, res=(8, 1) + (1, 1) * (n - 2) + (8, 1))
        metric = gr.metric_flat(g) if metric_name == "flat" else gr.metric_conformal(g, 0.3)
        # reduced to diag(1, ..., n) at every node: no eigenvalue gap is small
        h = np.array(metric.matrix() * np.arange(1.0, n + 1.0))
        node = (5,) + (0,) * (2 * n - 3) + (3, 0)
        index = np.ravel_multi_index(node, g.shape)
        clean = gr.eig_wrt_metric(h, metric, vectors=vectors)
        h[node][n - 1, 0] = entry
        lapack = LapackRows(monkeypatch)
        out = gr.eig_wrt_metric(h, metric, vectors=vectors)
        # LAPACK solves every other node at n = 4, none at n = 2 and 3
        seen = lapack.rows()
        assert len(seen) == (g.num_nodes - 1 if n == 4 else 0) and np.isfinite(seen).all()
        for got, ref in zip(out, clean) if vectors else [(out, clean)]:
            assert np.isnan(got[node]).all()
            others = [np.delete(x.reshape(g.num_nodes, -1), index, axis=0) for x in (got, ref)]
            np.testing.assert_array_equal(*others)
        lam = out[0] if vectors else out
        others = np.delete(lam.reshape(-1, n), index, axis=0)
        np.testing.assert_allclose(others, np.broadcast_to(np.arange(1.0, n + 1.0), others.shape), rtol=1e-12)
        with pytest.raises(cn.ConeDomainError, match=re.escape(f"at node {node}, flat index {index}:")):
            cn.cone_function("log-ma", n).value_grad(lam)


def random_hermitian(rng, shape, n):
    a = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    return a + np.conj(np.swapaxes(a, -1, -2))


def hermitian_from_lower(h):
    """The Hermitian matrix LAPACK's default eigh sees: lower triangle, real diagonal."""
    full = np.tril(h, -1)
    full = full + np.conj(np.swapaxes(full, -1, -2))
    i = np.arange(h.shape[-1])
    full[..., i, i] = h[..., i, i].real
    return full


def assert_unit_eigenpairs(h, lam, v):
    """Eigenvalues against LAPACK's eigvalsh, and residuals, to 1e-12 times
    max |h| per node; orthonormality of the vectors to 1e-12."""
    scale = np.abs(h).max(axis=(-1, -2))[..., None]
    ref = np.linalg.eigvalsh(h)
    assert np.all(np.abs(lam - ref) <= 1e-12 * scale)
    full = hermitian_from_lower(h)
    resid = np.abs(full @ v - v * lam[..., None, :]).max(axis=-2)
    assert np.all(resid <= 1e-12 * scale)
    gram = np.conj(np.swapaxes(v, -1, -2)) @ v
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(h.shape[-1]), gram.shape), rtol=0, atol=1e-12)


def adversarial_batches():
    """Named stacks of 2x2 Hermitian matrices that stress the closed form."""
    rng = np.random.default_rng(21)
    m = 4000

    def herm(a, d, c):
        h = np.empty(np.shape(a) + (2, 2), dtype=complex)
        h[..., 0, 0], h[..., 1, 1] = a, d
        h[..., 1, 0], h[..., 0, 1] = c, np.conj(c)
        return h

    def normal():
        return rng.normal(size=m)

    def phase():
        return np.exp(2j * np.pi * rng.random(m))

    base = normal()
    ratio = np.exp(rng.normal(size=m))
    random = herm(normal(), normal(), normal() + 1j * normal())
    return {
        "random": random,
        "repeated": herm(base, base, np.zeros(m)),
        "cluster": herm(base + 1e-13 * normal(), base, 1e-13 * (normal() + 1j * normal())),
        "tiny_offdiagonal": herm(base, np.where(np.arange(m) % 2, base, normal()), 1e-300 * phase()),
        "scaled_up": 1e150 * random,
        "scaled_down": 1e-150 * random,
        "zero": np.zeros((m, 2, 2), dtype=complex),
        "near_singular": herm(ratio, 1.0 / ratio + 1e-15 * normal(), phase()),
    }


FLAT = gr.metric_flat(make_grid(res=(8, 1, 8, 1)))


@pytest.mark.filterwarnings("error")
class TestClosedFormEigh2:
    """The n = 2 closed form against LAPACK, on adversarial and odd-shaped input."""

    @pytest.mark.parametrize("name", list(adversarial_batches()))
    def test_adversarial_batches_against_lapack(self, name):
        h = adversarial_batches()[name]
        lam, v = gr._eigh(h, True)
        assert_unit_eigenpairs(h, lam, v)
        np.testing.assert_array_equal(gr._eigh(h, False), lam)

    def test_scalar_matrices_get_the_identity(self):
        h = np.broadcast_to(np.diag([3.0, 3.0]).astype(complex), (5, 2, 2))
        lam, v = gr._eigh(h, True)
        np.testing.assert_array_equal(lam, np.full((5, 2), 3.0))
        np.testing.assert_array_equal(v, np.broadcast_to(np.eye(2), v.shape))

    def test_single_matrix(self):
        h = np.array([[2.0, 1.0 - 0.5j], [1.0 + 0.5j, -1.0]])
        lam, v = gr.eig_wrt_metric(h, FLAT, vectors=True)
        assert lam.shape == (2,) and v.shape == (2, 2)
        np.testing.assert_allclose(lam, np.linalg.eigh(h)[0], rtol=0, atol=1e-14)
        assert_unit_eigenpairs(h, lam, v)

    def test_read_only_broadcast_input(self):
        h = np.broadcast_to(np.array([[1.0, 2j], [-2j, 0.5]]), (3, 4, 2, 2))
        assert not h.flags.writeable
        lam, v = gr._eigh(h, True)
        assert lam.shape == (3, 4, 2) and v.shape == (3, 4, 2, 2)
        np.testing.assert_allclose(lam, np.linalg.eigh(h)[0], rtol=0, atol=1e-14)
        assert_unit_eigenpairs(h, lam, v)

    def test_node_count_not_a_multiple_of_the_block(self):
        # two 4-block ranges and a tail of 17 nodes
        h = adversarial_batches()["random"]
        h = np.concatenate([h] * 9)[: 8 * gr._ROW_BLOCK + 17]
        lam, v = gr._eigh(h, True)
        assert lam.shape == (8 * gr._ROW_BLOCK + 17, 2)
        np.testing.assert_allclose(lam, np.linalg.eigh(h)[0], rtol=0, atol=1e-12 * np.abs(h).max())
        assert_unit_eigenpairs(h, lam, v)

    def test_reads_the_lower_triangle_only(self):
        rng = np.random.default_rng(22)
        h = adversarial_batches()["random"].copy()
        h[..., 0, 1] = 1e3 * (rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0]))
        h[..., 0, 0] += 5j
        lam, v = gr._eigh(h, True)
        np.testing.assert_allclose(lam, np.linalg.eigh(h)[0], rtol=0, atol=1e-12 * np.abs(h).max())
        assert_unit_eigenpairs(h, lam, v)

    def test_non_flat_metric_against_scipy(self):
        g = make_grid(res=(8, 1, 8, 1))
        rng = np.random.default_rng(23)
        a = rng.normal(size=g.shape + (2, 2)) + 1j * rng.normal(size=g.shape + (2, 2))
        gm = a @ np.conj(np.swapaxes(a, -1, -2)) + 0.3 * np.eye(2)
        h = a + np.conj(np.swapaxes(a, -1, -2))
        lam, v = gr.eig_wrt_metric(h, gr.Metric(g, gm), vectors=True)
        for idx in np.ndindex(g.shape):
            ref = scipy.linalg.eigh(h[idx], gm[idx], eigvals_only=True)
            np.testing.assert_allclose(lam[idx], ref, rtol=0, atol=1e-10)
            np.testing.assert_allclose(h[idx] @ v[idx], gm[idx] @ v[idx] * lam[idx], rtol=0, atol=1e-10)
            gram = np.conj(v[idx].T) @ gm[idx] @ v[idx]
            np.testing.assert_allclose(gram, np.eye(2), rtol=0, atol=1e-12)

    def test_no_lapack_call_at_n2(self, monkeypatch):
        # the metrics are built first: construction checks positivity with LAPACK
        metric = gr.metric_conformal(make_grid(res=(8, 1, 8, 1)), 0.3)
        flat = gr.metric_flat(metric.grid)
        h = np.broadcast_to(np.diag([2.0, 1.0]).astype(complex), metric.g.shape)

        def lapack(*args, **kwargs):
            raise AssertionError("LAPACK called at n = 2")

        monkeypatch.setattr(np.linalg, "eigh", lapack)
        monkeypatch.setattr(np.linalg, "eigvalsh", lapack)
        gr.eig_wrt_metric(h, metric, vectors=True)
        gr.eig_wrt_metric(h, metric)
        gr.eig_wrt_metric(h, flat, vectors=True)
        gr.eig_wrt_metric(h, flat)

    def test_scratch_memory_stays_flat(self):
        # The driver allocates its outputs plus two 16,384-node ranges'
        # temporaries in flight, about 2 MiB each; one copy of h is 16 MiB
        # on these 262,144 nodes, and a kernel vectorised over all of them
        # at once needs about 32 MiB.
        g = make_grid(res=(32, 16, 32, 16))
        a = np.random.default_rng(24).normal(size=g.shape + (2, 2)) + 0j
        h = a + np.swapaxes(a, -1, -2)
        metric = gr.metric_flat(g)
        tracemalloc.start()
        try:
            out = gr.eig_wrt_metric(h, metric, vectors=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(o.nbytes for o in out) < 2 * 3 * 2**20


def adversarial_batches3():
    """Named stacks of 3x3 Hermitian matrices that stress the closed form."""
    rng = np.random.default_rng(31)
    m = 3000

    def with_spectrum(lam):
        a = rng.normal(size=(m, 3, 3)) + 1j * rng.normal(size=(m, 3, 3))
        u = np.linalg.qr(a)[0]
        return (u * lam[:, None, :]) @ np.conj(np.swapaxes(u, -1, -2))

    def diagonal(lam):
        h = np.zeros((m, 3, 3), dtype=complex)
        h[:, [0, 1, 2], [0, 1, 2]] = lam
        return h

    base = rng.normal(size=(m, 1))
    step = np.exp(rng.normal(size=(m, 1)))
    random = random_hermitian(rng, (m,), 3)
    # gaps of 1.2 to 3 times the guard, relative to the spectral radius,
    # which bounds the largest entry modulus: the closed form at its worst;
    # the second spectrum is shifted by 50 times its width
    near = gr._EIG3_GUARD * rng.uniform(1.2, 3.0, size=(m, 1))

    def near_spectrum(shift):
        ones = np.ones((m, 1))
        return shift + np.concatenate([-ones, (1.0 + shift) * near - 1.0, ones], axis=1)
    return {
        "random": random,
        "diagonal": diagonal(rng.normal(size=(m, 3))),
        "diagonal_repeated": diagonal(np.concatenate([base, base, base + step], axis=1)),
        "triple": with_spectrum(np.repeat(base, 3, axis=1)),
        "double_low": with_spectrum(np.concatenate([base, base, base + step], axis=1)),
        "double_high": with_spectrum(np.concatenate([base - step, base, base], axis=1)),
        "cluster": base[..., None] * np.eye(3) + 1e-13 * random,
        "near_guard": with_spectrum(near_spectrum(0.0)),
        "near_guard_shifted": with_spectrum(near_spectrum(100.0)),
        "scaled_up": 1e150 * random,
        "scaled_down": 1e-150 * random,
        "zero": np.zeros((m, 3, 3), dtype=complex),
    }


FLAT3 = gr.metric_flat(make_grid(n=3, res=(8, 1, 8, 1, 8, 1)))


class LapackRows:
    """Stand-ins for LAPACK's eigh and eigvalsh that record the matrices
    they are given."""

    def __init__(self, monkeypatch):
        self.seen = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, self.recording(real))

    def recording(self, real):
        def call(a, *args, **kwargs):
            self.seen.append(np.array(a))
            return real(a, *args, **kwargs)
        return call

    def rows(self):
        return np.concatenate(self.seen) if self.seen else np.zeros((0, 3, 3), dtype=complex)


@pytest.mark.filterwarnings("error")
class TestLapackEigh:
    """n = 4, where LAPACK solves every block the driver hands it."""

    def test_node_count_not_a_multiple_of_the_block(self):
        # two 4-block ranges and a tail of 17 nodes
        h = random_hermitian(np.random.default_rng(41), (8 * gr._ROW_BLOCK + 17,), 4)
        lam, v = gr._eigh(h, True)
        ref_lam, ref_v = np.linalg.eigh(h)
        np.testing.assert_array_equal(lam, ref_lam)
        np.testing.assert_array_equal(v, ref_v)
        np.testing.assert_array_equal(gr._eigh(h, False), np.linalg.eigvalsh(h))


@pytest.mark.filterwarnings("error")
class TestClosedFormEigh3:
    """The guarded n = 3 closed form against LAPACK, on adversarial and
    odd-shaped input."""

    @pytest.mark.parametrize("name", list(adversarial_batches3()))
    def test_adversarial_batches_against_lapack(self, name):
        h = adversarial_batches3()[name]
        lam, v = gr._eigh(h, True)
        assert_unit_eigenpairs(h, lam, v)
        scale = np.abs(h).max(axis=(-1, -2))[..., None]
        assert np.all(np.abs(gr._eigh(h, False) - lam) <= 1e-12 * scale)

    def test_well_separated_nodes_stay_closed_form(self, monkeypatch):
        batches = adversarial_batches3()
        h = np.concatenate([batches["near_guard"], batches["near_guard_shifted"]])
        gap = np.diff(np.linalg.eigvalsh(h), axis=-1).min(axis=-1)
        assert np.all(gap > gr._EIG3_GUARD * np.abs(h).max(axis=(-1, -2)))
        lapack = LapackRows(monkeypatch)
        for scale in (1.0, 1e150, 1e-150):
            gr._eigh(scale * h, True)
            gr._eigh(scale * h, False)
        assert len(lapack.rows()) == 0

    def test_lapack_sees_exactly_the_guarded_nodes(self, monkeypatch):
        batches = adversarial_batches3()
        well = batches["near_guard"][:500]
        degenerate = batches["double_low"][:7]
        h = np.concatenate([well[:200], degenerate[:3], well[200:], degenerate[3:]])
        for vectors in (True, False):
            lapack = LapackRows(monkeypatch)
            gr._eigh(h, vectors)
            np.testing.assert_array_equal(lapack.rows(), degenerate)

    def test_non_finite_nodes_get_nan_without_lapack(self, monkeypatch):
        h = np.broadcast_to(np.diag([1.0, 2.0, 3.0]).astype(complex), (9, 3, 3)).copy()
        h[2, 1, 0] = np.nan
        h[4, 2, 2] = np.inf
        h[6, 2, 1] = complex(-np.inf, np.nan)
        lapack = LapackRows(monkeypatch)
        lam, v = gr._eigh(h, True)
        assert len(lapack.rows()) == 0
        bad = [2, 4, 6]
        assert np.isnan(lam[bad]).all() and np.isnan(v[bad]).all()
        good = [0, 1, 3, 5, 7, 8]
        np.testing.assert_allclose(lam[good], np.broadcast_to([1.0, 2.0, 3.0], (6, 3)), rtol=1e-15)
        np.testing.assert_array_equal(gr._eigh(h, False), lam)

    def test_single_matrix(self):
        h = np.array([[2.0, 1.0 - 0.5j, 0.3j], [1.0 + 0.5j, -1.0, 0.2], [-0.3j, 0.2, 0.5]])
        lam, v = gr.eig_wrt_metric(h, FLAT3, vectors=True)
        assert lam.shape == (3,) and v.shape == (3, 3)
        assert_unit_eigenpairs(h, lam, v)

    def test_read_only_broadcast_input(self):
        h = np.broadcast_to(np.array([[1.0, 2j, 0.5], [-2j, 0.5, 1.0 - 1j], [0.5, 1.0 + 1j, -2.0]]),
                            (3, 4, 3, 3))
        assert not h.flags.writeable
        lam, v = gr._eigh(h, True)
        assert lam.shape == (3, 4, 3) and v.shape == (3, 4, 3, 3)
        assert_unit_eigenpairs(h, lam, v)

    def test_node_count_not_a_multiple_of_the_block(self):
        # two 4-block ranges and a tail of 17 nodes
        h = adversarial_batches3()["random"]
        h = np.concatenate([h] * 11)[: 8 * gr._ROW_BLOCK + 17]
        lam, v = gr._eigh(h, True)
        assert lam.shape == (8 * gr._ROW_BLOCK + 17, 3)
        assert_unit_eigenpairs(h, lam, v)

    def test_reads_the_lower_triangle_only(self):
        rng = np.random.default_rng(32)
        h = adversarial_batches3()["random"].copy()
        for i, j in ((0, 1), (0, 2), (1, 2)):
            h[..., i, j] = 1e3 * (rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0]))
        h[..., [0, 1, 2], [0, 1, 2]] += 5j
        lam, v = gr._eigh(h, True)
        assert_unit_eigenpairs(h, lam, v)

    @pytest.mark.parametrize("make", [
        lambda g: gr.metric_conformal(g, 0.3),
        lambda g: gr.metric_product(g, product_profile),
    ], ids=["conformal", "product"])
    def test_diagonal_metrics_against_scipy(self, make):
        g = TestDiagonalMetric.grid3()
        metric = make(g)
        u = np.random.default_rng(33).normal(size=g.shape)
        rho = np.broadcast_to(0.5 * g.sigma_hat(), g.shape)
        _, h = gr.gauduchon_fields(g, u, 3.0 * metric.matrix(), rho, metric)
        kept = h.copy()
        lam, v = gr.eig_wrt_metric(h, metric, vectors=True)
        np.testing.assert_array_equal(h, kept)  # only the reduced copy is overwritten
        TestDiagonalMetric.assert_generalized_eigenpairs(h, metric.matrix(), lam, v)

    @staticmethod
    def scratch_bytes(h, metric, vectors=True):
        tracemalloc.start()
        try:
            out = gr.eig_wrt_metric(h, metric, vectors=vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(o.nbytes for o in (out if vectors else (out,)))

    def test_scratch_memory_stays_flat(self):
        # The driver allocates its outputs plus two 16,384-node slabs'
        # temporaries in flight, about 5 MiB each, and with a metric each
        # slab's 2.25 MiB reduced matrix; one copy of h is 36 MiB on these
        # 262,144 nodes, and a kernel vectorised over all of them at once
        # needs about 140 MiB.  On every metric the back-transform writes
        # L^-H v in place in the slab's own eigenvectors, so the dense
        # metric takes no second slab-sized array.
        g = make_grid(n=3, res=(8, 8, 8, 8, 8, 8))
        h = random_hermitian(np.random.default_rng(34), g.shape, 3)
        for make in TestPlaneFirstLayout.METRICS.values():
            assert self.scratch_bytes(h, make(g)) <= 16 * 2**20

    @pytest.mark.parametrize("metric_name", ["conformal", "general"])
    def test_values_alone_keep_two_slabs_of_scratch(self, metric_name):
        # Each 16,384-node slab reduces its own nodes into a 2.25 MiB
        # scratch, one plane at a time on every metric, which its kernel's
        # 5 MiB of temporaries then read: two slabs in flight stay under 16 MiB, where the whole
        # reduced matrix alone is 36 MiB on these 262,144 nodes.
        g = make_grid(n=3, res=(8, 8, 8, 8, 8, 8))
        h = random_hermitian(np.random.default_rng(35), g.shape, 3)
        metric = TestPlaneFirstLayout.METRICS[metric_name](g)
        assert self.scratch_bytes(h, metric, vectors=False) <= 16 * 2**20


class TestGauduchonFields:
    @pytest.mark.parametrize("shape", [(5,), (8, 1, 8, 2), (2, 8, 1, 8, 1)], ids=["vector", "wrong-axis", "extra-axis"])
    def test_rho_must_broadcast_to_the_grid(self, shape):
        g = make_grid(res=(8, 1, 8, 1))
        message = f"rho of shape {shape} does not broadcast to the grid's (8, 1, 8, 1)"
        with pytest.raises(gr.GridError, match=re.escape(message)):
            gr.gauduchon_fields(g, np.zeros(g.shape), np.eye(2), np.ones(shape), gr.metric_conformal(g, 0.3))

    def test_metric_wider_than_u_chi_and_rho(self):
        # at n = 2 the conformal metric has no W planes, so only the metric
        # varies along x_1: both forms take its shape
        g = make_grid(res=(8, 1, 8, 1))
        metric = gr.metric_conformal(g, 0.3)
        u = np.random.default_rng(8).normal(size=(1, 1, 8, 1))
        u_form, g_form = gr.gauduchon_fields(g, u, np.eye(2), 0.5, metric)
        assert u_form.shape == g_form.shape == g.shape + (2, 2)
        dense_u = np.broadcast_to(u, g.shape)
        want = gr.gauduchon_fields(g, dense_u, np.broadcast_to(np.eye(2), g.shape + (2, 2)), 0.5, metric)
        np.testing.assert_array_equal(u_form, want[0])
        np.testing.assert_array_equal(g_form, want[1])

    def test_flat_identity_case(self):
        # u = 0, rho = 0, chi = I: U = I and the companion form is I/(n-1)
        g = make_grid(n=3, res=(8, 1, 8, 1, 8, 1))
        chi = np.broadcast_to(np.eye(3, dtype=complex), g.shape + (3, 3))
        rho = np.zeros(g.shape)
        u = np.zeros(g.shape)
        uform, gform = gr.gauduchon_fields(g, u, chi, rho, gr.metric_flat(g))
        np.testing.assert_allclose(uform, chi, atol=1e-13)
        np.testing.assert_allclose(gform, chi / 2.0, atol=1e-13)

    def test_trace_identity(self):
        # flat, rho = 0: tr U = (n-1) lap u + tr chi
        g = make_grid(n=2, res=(16, 1, 16, 1))
        rng = np.random.default_rng(6)
        u = rng.normal(size=g.shape)
        chi = np.broadcast_to(np.diag([1.5, 0.7]).astype(complex), g.shape + (2, 2))
        metric = gr.metric_flat(g)
        uform, _ = gr.gauduchon_fields(g, u, chi, np.zeros(g.shape), metric)
        tr_u = np.einsum("...ii->...", uform).real
        lap = gr.trace_wrt_metric(metric, gr.complex_hessian(g, u))
        np.testing.assert_allclose(tr_u, (2 - 1) * lap + 2.2, atol=1e-10)

    def test_hat_transform_identity(self):
        # U = (tr g) omega - g holds exactly on the grid, metric flat or not
        g, metric, _ = conformal_setup(16)
        rng = np.random.default_rng(7)
        u = rng.normal(size=g.shape)
        chi = np.broadcast_to(1.3 * np.eye(2, dtype=complex), g.shape + (2, 2))
        rho = np.full(g.shape, 0.8)
        uform, gform = gr.gauduchon_fields(g, u, chi, rho, metric)
        np.testing.assert_allclose(uform, gr.hat_transform(metric, gform), atol=1e-11)

    def test_deleted_sum_eigenvalues_diagonal_case(self):
        # diagonal Hessian, flat metric, chi = 0: spectrum of U is the
        # deleted-sum image of the spectrum of the Hessian
        g = make_grid(n=3, res=(12, 1, 12, 1, 12, 1))
        x1 = np.broadcast_to(g.coord_field(0), g.shape)
        x2 = np.broadcast_to(g.coord_field(2), g.shape)
        u = 0.3 * np.cos(x1) + 0.2 * np.sin(x2)
        chi = np.zeros(g.shape + (3, 3), dtype=complex)
        metric = gr.metric_flat(g)
        uform, gform = gr.gauduchon_fields(g, u, chi, np.zeros(g.shape), metric)
        lam = np.sort(gr.eig_wrt_metric(gform, metric), axis=-1)
        mu = np.sort(gr.eig_wrt_metric(uform, metric), axis=-1)
        expect = np.sort(lam.sum(axis=-1, keepdims=True) - lam, axis=-1)
        np.testing.assert_allclose(mu, expect, atol=1e-10)

    def test_g_form_at_zero_chi_is_linear_in_u(self):
        # the Newton step's linear part: chi = 0 as an (n, n) zero, rho != 0
        g = make_grid(n=3, res=(8, 1, 8, 1, 8, 8))
        metric = gr.metric_conformal(g, 0.3)
        assert metric.torsion_planes[1]
        rng = np.random.default_rng(12)
        rho = 0.5 + rng.uniform(size=g.shape)
        u, v = rng.normal(size=g.shape), rng.normal(size=g.shape)
        zero = np.zeros((3, 3))

        def linear_part(w):
            return gr.gauduchon_fields(g, w, zero, rho, metric)[1]

        got = linear_part(2.0 * u - 3.0 * v)
        ref = 2.0 * linear_part(u) - 3.0 * linear_part(v)
        scale = np.max(np.abs(ref))
        assert scale > 0 and np.max(np.abs(got - ref)) <= 1e-12 * scale
        assert not np.any(linear_part(np.zeros(g.shape)))


class TestMetricCaches:
    @staticmethod
    def inputs():
        g = make_grid(n=3, res=(16, 1, 8, 1, 8, 1))
        metric = gr.metric_conformal(g, 0.3)
        u = np.random.default_rng(8).normal(size=g.shape)
        return g, metric, u, 3.0 * metric.matrix(), np.broadcast_to(0.5 * g.sigma_hat(), g.shape)

    def test_cached_z_matches_fresh_coefficients_bit_for_bit(self):
        g, metric, u, chi, rho = self.inputs()
        first = gr.gauduchon_fields(g, u, chi, rho, metric)
        uform, gform = gr.gauduchon_fields(g, u, chi, rho, metric)
        np.testing.assert_array_equal(uform, first[0])
        np.testing.assert_array_equal(gform, first[1])
        # the cache holds exactly the planes built from fresh coefficients
        fresh = gr._torsion_planes(metric, gr.z_coefficients(g, metric))
        cached = metric.torsion_planes
        assert len(cached) == len(fresh) == 2
        for planes, fresh_planes in zip(cached, fresh):
            assert [key for key, _ in planes] == [key for key, _ in fresh_planes]
            for (_, fields), (_, fresh_fields) in zip(planes, fresh_planes):
                assert [a for a, _ in fields] == [a for a, _ in fresh_fields]
                for (_, c), (_, fresh_c) in zip(fields, fresh_fields):
                    np.testing.assert_array_equal(c, fresh_c)
        z = gr.z_tensor(g, metric, u, za=gr.z_coefficients(g, metric))
        assert np.abs(z).max() > 1e-4  # the comparison is not vacuous
        gm = metric.matrix()
        rz = rho[..., None, None] * z
        # g-form = dd u + chihat + rho W/(n-1) with W = (tr Z) g - (n-1) Z,
        # summed as dd u - chi - rho Z + ((tr chi + rho tr Z)/(n-1)) g; the
        # forms sum the same terms in another order, so they agree to
        # rounding: 4 eps relative to the largest entry
        shift = (gr.trace_wrt_metric(metric, chi) + gr.trace_wrt_metric(metric, rz)) / 2
        ref_g = gr.complex_hessian(g, u) - chi - rz + shift[..., None, None] * gm
        ref_u = gr.trace_wrt_metric(metric, ref_g)[..., None, None] * gm - ref_g
        for form, ref in ((gform, ref_g), (uform, ref_u)):
            atol = 4 * np.finfo(float).eps * max(1.0, float(np.abs(ref).max()))
            np.testing.assert_allclose(form, ref, rtol=0, atol=atol)

    def test_torsion_computed_once_per_metric(self, monkeypatch):
        calls = []
        fresh = gr.torsion
        monkeypatch.setattr(gr, "torsion", lambda grid, m: calls.append(m) or fresh(grid, m))
        g, metric, u, chi, rho = self.inputs()
        assert calls == [metric]  # at construction
        for _ in range(2):
            gr.gauduchon_fields(g, u, chi, rho, metric)
        assert calls == [metric]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("call", [
        lambda g, m, u: gr.torsion(g, m),
        lambda g, m, u: gr.z_coefficients(g, m),
        lambda g, m, u: gr.z_tensor(g, m, u),
        lambda g, m, u: gr.gauduchon_fields(g, u, 3.0 * m.matrix(), 0.5, m),
    ], ids=["torsion", "z_coefficients", "z_tensor", "gauduchon_fields"])
    def test_another_grid_refused(self, n, call):
        res = (8, 1, 8, 1) if n == 2 else (8, 1, 1, 1, 8, 1)
        metric = gr.metric_conformal(make_grid(n=n, res=res), 0.3)
        other = gr.ProductGrid(n, ((2 * TAU, TAU),) * (n - 1), (0.0, 1.0), res)  # other periods
        with pytest.raises(gr.GridError, match="is not the metric's grid"):
            call(other, metric, np.zeros(other.shape))

    def test_metric_cannot_be_changed(self):
        g, metric, *_ = self.inputs()
        with pytest.raises(ValueError, match="read-only"):
            metric.g[0, 0, 0, 0, 0, 0] = 2.0
        with pytest.raises(AttributeError):
            metric.g = 2.0 * metric.g
        source = np.array(metric.g)
        copied = gr.Metric(g, source)
        source[...] = 0.0
        np.testing.assert_array_equal(copied.g, metric.g)
        _, fields = metric.torsion_planes[0][0]  # the first cached Z plane
        with pytest.raises(ValueError, match="read-only"):
            fields[0][1][...] = 0.0
        for name in ("inverse", "inv_cholesky", "torsion_planes"):
            with pytest.raises(AttributeError):
                setattr(metric, name, None)
        for value in (metric.inverse, metric.inv_cholesky):
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0.0


    def test_flat_inv_cholesky_is_identity(self):
        g = make_grid(res=(8, 1, 8, 1))
        linv = np.broadcast_to(gr.metric_flat(g).inv_cholesky, g.shape + (2, 2))
        np.testing.assert_array_equal(linv, np.broadcast_to(np.eye(2), linv.shape))

    def test_equality_and_hash_by_identity(self):
        g, metric, *_ = self.inputs()
        twin = gr.metric_conformal(g, 0.3)
        assert metric == metric and metric != twin
        assert len({metric, twin, metric}) == 2
        flat = gr.metric_flat(g)
        assert flat != gr.metric_flat(g) and hash(flat) == hash(flat)


def product_profile(s):
    return 1.0 + 0.5 * np.sin(math.pi * s)


class TestNaturalShape:
    """Metrics stored at their natural broadcast shape, against dense twins."""

    @staticmethod
    def grid3():
        return make_grid(n=3, res=(16, 1, 8, 1, 9, 8))

    def test_shapes(self):
        g = self.grid3()
        assert gr.metric_flat(g).g.shape == (1,) * 6 + (3, 3)
        assert gr.metric_conformal(g, 0.3).g.shape == (16,) + (1,) * 5 + (3, 3)
        assert gr.metric_product(g, product_profile).g.shape == (1, 1, 1, 1, 9, 1, 3, 3)
        for metric in (gr.metric_flat(g), gr.metric_conformal(g, 0.3)):
            full = metric.matrix()
            assert full.shape == g.shape + (3, 3) and not full.flags.writeable
            np.testing.assert_array_equal(full, np.broadcast_to(metric.g, full.shape))
        assert gr.metric_flat(g).inverse.shape == (1,) * 6 + (3, 3)
        assert gr.z_coefficients(g, gr.metric_conformal(g, 0.3)).shape == (16,) + (1,) * 5 + (3, 3, 3)

    @staticmethod
    def assert_close(a, b):
        """Agreement to 1e-13 relative to the largest entry; a broadcasts to b."""
        scale = max(1.0, float(np.abs(b).max()))
        np.testing.assert_allclose(np.broadcast_to(a, b.shape), b, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("make", [
        lambda g: gr.metric_conformal(g, 0.3),
        lambda g: gr.metric_product(g, product_profile),
    ], ids=["conformal", "product"])
    def test_agrees_with_dense_twin(self, make):
        g = self.grid3()
        metric = make(g)
        dense = gr.Metric(g, metric.matrix().copy())
        assert dense.g.shape == g.shape + (3, 3)
        u = np.random.default_rng(30).normal(size=g.shape)
        chi = 3.0 * metric.matrix()
        rho = np.broadcast_to(0.5 * g.sigma_hat(), g.shape)
        self.assert_close(gr.torsion(g, metric), gr.torsion(g, dense))
        self.assert_close(gr.z_coefficients(g, metric), gr.z_coefficients(g, dense))
        forms = gr.gauduchon_fields(g, u, chi, rho, metric)
        dense_forms = gr.gauduchon_fields(g, u, chi, rho, dense)
        for form, dense_form in zip(forms, dense_forms):
            self.assert_close(form, dense_form)
        lam, v = gr.eig_wrt_metric(forms[1], metric, vectors=True)
        dense_lam, dense_v = gr.eig_wrt_metric(forms[1], dense, vectors=True)
        self.assert_close(lam, dense_lam)
        self.assert_close(v, dense_v)

    def test_nonpositive_slice_names_a_grid_node(self):
        g = self.grid3()
        bad = g.sigma_hat().flat[5]

        def profile(s):
            return np.where(s == bad, -0.5, 1.0)

        # the failing index of the (1, 1, 1, 1, 9, 1) array is a grid node
        with pytest.raises(gr.PositivityError, match=re.escape("node (0, 0, 0, 0, 5, 0)")):
            gr.metric_product(g, profile)

    def test_dense_identity_skips_the_reduction(self, monkeypatch):
        g = make_grid(res=(8, 1, 8, 1))
        dense = gr.Metric(g, np.broadcast_to(np.eye(2), g.shape + (2, 2)))
        h = gr.complex_hessian(g, np.random.default_rng(31).normal(size=g.shape)) + np.eye(2)

        # the kernel's one slab of the 64 nodes is read from the caller's
        # own array on both flat metrics, and from a reduced copy otherwise
        solved = []
        kernel = gr._eigh2
        monkeypatch.setattr(gr, "_eigh2", lambda blk, *args: solved.append(blk) or kernel(blk, *args))
        for metric in (dense, gr.metric_flat(g)):
            assert metric.is_flat
            solved.clear()
            lam, v = gr.eig_wrt_metric(h, metric, vectors=True)
            assert len(solved) == 1 and np.shares_memory(solved[0], h)  # a view of h, not reduced
            np.testing.assert_allclose(h @ v, v * lam[..., None, :], rtol=0, atol=1e-12)
        solved.clear()
        gr.eig_wrt_metric(h, gr.metric_conformal(g, 0.3))
        assert len(solved) == 1 and not np.shares_memory(solved[0], h)

    @pytest.mark.parametrize("shape", [
        (3, 3), (1, 1), (2,), (), (4, 1, 1, 1, 2, 2), (8, 1, 8, 2, 2, 2), (2, 8, 1, 8, 1, 2, 2),
    ])
    def test_wrong_shape_rejected(self, shape):
        g = make_grid(res=(8, 1, 8, 1))
        with pytest.raises(gr.GridError, match=re.escape(f"metric of shape {shape} does not ")):
            gr.Metric(g, np.ones(shape))


class TestDiagonalMetric:
    """The elementwise reduction of diagonal metrics, and the checks on g."""

    @staticmethod
    def grid3():
        """512 nodes, small enough to compare with scipy node by node."""
        return make_grid(n=3, res=(8, 1, 1, 1, 8, 8))

    @staticmethod
    def assert_generalized_eigenpairs(h, gm, lam, v):
        """Values against scipy's eigh(h, g) to 1e-12 relative; g-orthonormal
        vectors with residuals under 1e-12 relative, at every node."""
        n = h.shape[-1]
        for idx in np.ndindex(h.shape[:-2]):
            ref = scipy.linalg.eigh(h[idx], gm[idx], eigvals_only=True)
            scale = max(1.0, float(np.abs(ref).max()))
            np.testing.assert_allclose(lam[idx], ref, rtol=0, atol=1e-12 * scale)
            resid = h[idx] @ v[idx] - gm[idx] @ v[idx] * lam[idx]
            assert np.abs(resid).max() <= 1e-12 * scale
            gram = np.conj(v[idx].T) @ gm[idx] @ v[idx]
            np.testing.assert_allclose(gram, np.eye(n), rtol=0, atol=1e-12)

    def test_detection(self):
        g = self.grid3()
        for metric in (gr.metric_flat(g), gr.metric_conformal(g, 0.3),
                       gr.metric_product(g, product_profile)):
            assert metric.entries == ((0, 0), (1, 1), (2, 2))
        rng = np.random.default_rng(40)
        a = rng.normal(size=g.shape + (3, 3)) + 1j * rng.normal(size=g.shape + (3, 3))
        spd = gr.Metric(g, a @ np.conj(np.swapaxes(a, -1, -2)) + 0.3 * np.eye(3))
        assert spd.entries == tuple(np.ndindex(3, 3)) and not spd.is_flat

    @pytest.mark.parametrize("n, make", [
        (2, lambda g: gr.metric_conformal(g, 0.3)),
        (3, lambda g: gr.metric_conformal(g, 0.3)),
        (3, lambda g: gr.metric_product(g, product_profile)),
    ], ids=["conformal-n2", "conformal-n3", "product-n3"])
    def test_against_scipy(self, n, make):
        g = make_grid(res=(16, 1, 8, 1)) if n == 2 else self.grid3()
        metric = make(g)
        h = random_hermitian(np.random.default_rng(41), g.shape, n)
        lam, v = gr.eig_wrt_metric(h, metric, vectors=True)
        self.assert_generalized_eigenpairs(h, metric.matrix(), lam, v)
        values = gr.eig_wrt_metric(h, metric)  # LAPACK's eigvalsh, or the same closed form
        np.testing.assert_allclose(values, lam, rtol=0, atol=1e-12 * max(1.0, np.abs(lam).max()))

    @pytest.mark.parametrize("make", [
        lambda g: gr.metric_conformal(g, 0.3),
        lambda g: gr.metric_product(g, product_profile),
    ], ids=["conformal", "product"])
    def test_diagonal_bits_are_the_elementwise_formula(self, make):
        # on a diagonal metric the one reduction is h_ij d_i d_j, the
        # back-transform d_i v_ij and the trace sum g^{i ibar} Re h_ii, with
        # d the real diagonal of L^-1, bit for bit
        g = self.grid3()
        metric = make(g)
        h = random_hermitian(np.random.default_rng(47), g.shape, 3)
        d = np.diagonal(metric.inv_cholesky, axis1=-2, axis2=-1).real
        lam, v = gr._eigh(h * (d[..., :, None] * d[..., None, :]), True)
        got = gr.eig_wrt_metric(h, metric, vectors=True)
        np.testing.assert_array_equal(got[0], lam)
        np.testing.assert_array_equal(got[1], d[..., :, None] * v)
        ginv = metric.inverse
        trace = ginv[..., 0, 0].real * h[..., 0, 0].real
        for i in (1, 2):
            trace = trace + ginv[..., i, i].real * h[..., i, i].real
        np.testing.assert_array_equal(gr.trace_wrt_metric(metric, h), trace)

    def test_one_off_diagonal_entry_adds_its_pair_to_the_entries_in_use(self):
        g = self.grid3()
        gm = gr.metric_conformal(g, 0.3).matrix().copy()
        gm[3, 0, 0, 0, 4, 5, 0, 2] = 0.2 + 0.1j
        gm[3, 0, 0, 0, 4, 5, 2, 0] = 0.2 - 0.1j
        metric = gr.Metric(g, gm)
        assert metric.entries == ((0, 0), (0, 2), (1, 1), (2, 0), (2, 2))
        h = random_hermitian(np.random.default_rng(42), g.shape, 3)
        lam, v = gr.eig_wrt_metric(h, metric, vectors=True)
        self.assert_generalized_eigenpairs(h, gm, lam, v)

    @pytest.mark.parametrize("make", [
        lambda g: gr.metric_conformal(g, 0.3),
        lambda g: gr.metric_product(g, product_profile),
    ], ids=["conformal", "product"])
    def test_one_pass_assembly_matches_the_two_form_assembly(self, make):
        g = self.grid3()
        metric = make(g)
        u = np.random.default_rng(43).normal(size=g.shape)
        chi = 3.0 * metric.matrix() + random_hermitian(np.random.default_rng(44), g.shape, 3)
        rho = np.broadcast_to(0.5 + g.sigma_hat(), g.shape)
        uform, gform = gr.gauduchon_fields(g, u, chi, rho, metric)
        # the reference assembles U and the g-form separately, with
        # chihat = (tr chi/(n-1)) g - chi and W = (tr Z) g - (n-1) Z
        hess = gr.complex_hessian(g, u)
        gm = metric.matrix()
        z = gr.z_tensor(g, metric, u)
        lap = gr.trace_wrt_metric(metric, hess)
        ref_u = chi + lap[..., None, None] * gm - hess + rho[..., None, None] * z
        chihat = gr.trace_wrt_metric(metric, chi)[..., None, None] * gm / 2 - chi
        w = gr.trace_wrt_metric(metric, z)[..., None, None] * gm - 2 * z
        ref_g = hess + chihat + rho[..., None, None] * w / 2
        TestNaturalShape.assert_close(uform, ref_u)
        TestNaturalShape.assert_close(gform, ref_g)

    def test_non_hermitian_metric_rejected(self):
        g = make_grid(res=(8, 1, 8, 1))
        for gm in ([[2, 5], [0, 1]], [[2, 1j], [1j, 1]], np.diag([2.0 + 1e-3j, 1.0])):
            with pytest.raises(ValidationError, match="not Hermitian"):
                gr.Metric(g, gm)
        g = self.grid3()
        a = random_hermitian(np.random.default_rng(45), g.shape, 3) + 1j
        rounded = a @ np.conj(np.swapaxes(a, -1, -2)) + 0.3 * np.eye(3)
        assert np.abs(rounded - np.conj(np.swapaxes(rounded, -1, -2))).max() > 0
        gr.Metric(g, rounded).validate_positive()  # Hermitian to rounding is accepted

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 3])
    def test_non_finite_metric_refused_at_construction(self, n):
        g = make_grid(n=n)
        for gm in (np.full((n, n), np.nan), np.diag([np.inf] + [1.0] * (n - 1))):
            with pytest.raises(gr.PositivityError, match=re.escape(f"infinite entry at node {(0,) * 2 * n}")):
                gr.Metric(g, gm)

    def test_hermitian_tolerance_scales_with_the_entries(self):
        g = self.grid3()
        a = random_hermitian(np.random.default_rng(45), g.shape, 3) + 1j
        big = 1e6 * (a @ np.conj(np.swapaxes(a, -1, -2)) + 0.3 * np.eye(3))
        assert np.abs(big - np.conj(np.swapaxes(big, -1, -2))).max() > 1e-9  # rounding only
        gr.Metric(g, big).validate_positive()
        skew = big.copy()
        skew[..., 1, 0] += 1e-8 * np.abs(big).max()
        with pytest.raises(ValidationError, match="not Hermitian"):
            gr.Metric(g, skew)

    def test_nan_node_named_among_positive_ones(self):
        g = make_grid(n=3, res=(8, 1, 8, 1, 8, 1))
        gm = np.array(gr.metric_conformal(g, 0.3).matrix())
        gm[2, 0, 5, 0, 1, 0, 1, 1] = np.nan
        with pytest.raises(gr.PositivityError, match=re.escape("node (2, 0, 5, 0, 1, 0)")):
            gr.Metric(g, gm).validate_positive()

    # torsion-free metrics, and at n = 2, where Z cancels identically, metrics
    # with torsion: a diagonal one and the non-diagonal one of TestGeneralMetric
    @pytest.mark.parametrize("n, make", [
        (3, gr.metric_flat),
        (3, lambda g: gr.metric_product(g, product_profile)),
        (2, lambda g: gr.metric_conformal(g, 0.3)),
        (2, lambda g: TestGeneralMetric.metric(g)),
    ], ids=["flat", "product", "conformal-n2", "general-n2"])
    def test_torsion_free_z_skips_the_gradient(self, n, make, monkeypatch):
        g = self.grid3() if n == 3 else make_grid(res=(8, 1, 8, 8))
        metric = make(g)
        u = np.random.default_rng(46).normal(size=g.shape)
        chi = 3.0 * metric.matrix()
        rho = np.broadcast_to(0.5 * g.sigma_hat(), g.shape)
        za = gr.z_coefficients(g, metric)
        assert not np.any(za)
        uz = np.stack([gr.d_dz(g, u, p) for p in range(n)], axis=-1)
        full = np.einsum("...pij,...p->...ij", za, uz)
        full = full + np.conj(np.swapaxes(full, -1, -2))
        rz = rho[..., None, None] * full
        shift = (gr.trace_wrt_metric(metric, chi) + gr.trace_wrt_metric(metric, rz)) / (n - 1)
        ref_g = gr.complex_hessian(g, u) - chi - rz + shift[..., None, None] * metric.g
        ref_u = gr.hat_transform(metric, ref_g)
        assert metric.torsion_planes == ((), ())

        def diff(grid, field, axis, order, out=None):
            raise AssertionError("u differentiated for a zero Z tensor")

        with monkeypatch.context() as patch:
            patch.setattr(gr, "_diff", diff)  # the one stencil kernel
            z = gr.z_tensor(g, metric, u)
        assert z.shape == full.shape and z.dtype == full.dtype
        np.testing.assert_array_equal(z, full)
        uform, gform = gr.gauduchon_fields(g, u, chi, rho, metric)
        np.testing.assert_array_equal(uform, ref_u)
        np.testing.assert_array_equal(gform, ref_g)


class TestGeneralMetric:
    """A metric that is neither diagonal nor constant: e^phi I plus a constant
    Hermitian off-diagonal part.  It has torsion and dense Z planes, and
    every one of its n^2 entries is in use, so the traces and the multiples
    of omega take the off-diagonal terms that no diagonal metric reaches."""

    OFF = np.array([[0.0, 0.2 + 0.1j, -0.1j], [0.2 - 0.1j, 0.0, 0.15], [0.1j, 0.15, 0.0]])

    @classmethod
    def metric(cls, g):
        phi = 0.3 * np.cos(g.coord_field(0)) + 0.2 * g.sigma_hat()
        if g.n > 2:
            phi = phi + 0.2 * np.sin(g.coord_field(2))
        return gr.Metric(g, np.exp(phi)[..., None, None] * np.eye(g.n) + cls.OFF[: g.n, : g.n])

    @staticmethod
    def trace(metric, h):
        """Index-loop tr_omega h = sum_{i,j} g^{i jbar} h_{i jbar}."""
        ginv = metric.inverse
        n = h.shape[-1]
        return sum(ginv[..., j, i] * h[..., i, j] for i in range(n) for j in range(n)).real

    @pytest.mark.parametrize("n, res", [
        (2, (8, 8, 8, 8)), (3, (8, 8, 8, 1, 8, 1)), (3, (8, 1, 1, 1, 8, 8)),
    ], ids=["n2-resolved", "n3-two-frozen", "n3-four-frozen"])
    def test_against_the_index_loops(self, n, res):
        g = make_grid(n=n, res=res)
        metric = self.metric(g)
        metric.validate_positive()
        assert metric.entries == tuple(np.ndindex(n, n))
        rng = np.random.default_rng(50)
        u = rng.normal(size=g.shape)
        chi = 3.0 * metric.matrix() + 0.3 * random_hermitian(rng, g.shape, n)
        rho = np.broadcast_to(0.5 + g.sigma_hat(), g.shape)
        z_ref = z_tensor_loops(g, metric, u)
        if n > 2:  # at n = 2 the gradient tensor vanishes identically
            assert np.abs(z_ref).max() > 1e-2
            # the Z planes are dense: every real and imaginary plane has a field
            assert len(metric.torsion_planes[0]) == n * n
        TestNaturalShape.assert_close(gr.z_tensor(g, metric, u), z_ref)
        # U = chi + (lap u) g - dd u + rho Z and g = dd u + chihat + rho W/(n-1),
        # with chihat = (tr chi/(n-1)) g - chi and W = (tr Z) g - (n-1) Z
        hess = gr.complex_hessian(g, u)
        gm = metric.matrix()
        rz = rho[..., None, None] * z_ref
        ref_u = chi + self.trace(metric, hess)[..., None, None] * gm - hess + rz
        chihat = self.trace(metric, chi)[..., None, None] * gm / (n - 1) - chi
        w = self.trace(metric, z_ref)[..., None, None] * gm - (n - 1) * z_ref
        ref_g = hess + chihat + rho[..., None, None] * w / (n - 1)
        forms = gr.gauduchon_fields(g, u, chi, rho, metric)
        TestNaturalShape.assert_close(forms[0], ref_u)
        TestNaturalShape.assert_close(forms[1], ref_g)
        again = gr.gauduchon_fields(g, u, chi, rho, metric)
        for form, repeat in zip(forms, again):
            np.testing.assert_array_equal(repeat, form)


class TestAssembler:
    """The one assembler against a reference composed from the public
    stencils, and the number of stencils it forms."""

    @staticmethod
    def hessian(g, u):
        """The complex Hessian as quarter sums of the public stencils:
        0.25 (d1(d1(u, x_j), x_i) + d1(d1(u, y_j), y_i)) and so on, every
        entry formed on its own."""
        n = g.n
        out = np.zeros(g.shape + (n, n), dtype=complex)
        for i in range(n):
            xi, yi = 2 * i, 2 * i + 1
            out[..., i, i] = 0.25 * (gr.d2(g, u, xi) + gr.d2(g, u, yi))
            for j in range(n):
                if j != i:
                    xj, yj = 2 * j, 2 * j + 1
                    re = 0.25 * (gr.d1(g, gr.d1(g, u, xj), xi) + gr.d1(g, gr.d1(g, u, yj), yi))
                    im = 0.25 * (gr.d1(g, gr.d1(g, u, yj), xi) - gr.d1(g, gr.d1(g, u, xj), yi))
                    out[..., i, j] = re + 1j * im
        return out

    @staticmethod
    def gradient(g, u):
        """The holomorphic gradient u_p = d_dz(u, p), stacked last."""
        return np.stack([gr.d_dz(g, u, p) for p in range(g.n)], axis=-1)

    @staticmethod
    def z_tensor(metric, uz):
        """Z = sum_p ZA_p u_p + h.c., from the Z coefficients."""
        z = np.einsum("...pij,...p->...ij", gr.z_coefficients(metric.grid, metric), uz)
        return z + np.conj(np.swapaxes(z, -1, -2))

    @staticmethod
    def assert_close(got, ref):
        scale = max(1.0, float(np.abs(ref).max()))
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * scale)

    CASES = {
        # grid, metric, axis along which the broadcast u is constant
        "flat-n2-frozen": (lambda: make_grid(res=(8, 1, 9, 8)), gr.metric_flat, 3),
        "conformal-n3": (lambda: make_grid(n=3, res=(8, 1, 8, 8, 9, 1)),
                         lambda g: gr.metric_conformal(g, 0.3), 3),
        "general-n3": (lambda: make_grid(n=3, res=(8, 8, 8, 1, 9, 1)),
                       lambda g: TestGeneralMetric.metric(g), 1),
    }

    @pytest.mark.parametrize("layout", ["C", "Fortran", "broadcast"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_fields_agree_with_the_public_stencils(self, case, layout):
        make, make_metric, const_axis = self.CASES[case]
        g = make()
        metric = make_metric(g)
        n = g.n
        rng = np.random.default_rng(80)
        u = rng.normal(size=g.shape)
        if layout == "Fortran":
            u = np.asfortranarray(u)
        elif layout == "broadcast":
            u = np.broadcast_to(u.take([0], axis=const_axis), g.shape)
        hess = self.hessian(g, u)
        uz = self.gradient(g, u)
        self.assert_close(gr.complex_hessian(g, u), hess)
        # gfield: chi + dd u + u_i conj(eta_j) + eta_i conj(u_j)
        eta = rng.normal(size=n) + 1j * rng.normal(size=n)
        chi = 3.0 * metric.matrix()
        coupling = uz[..., :, None] * np.conj(eta) + eta[:, None] * np.conj(uz)[..., None, :]
        self.assert_close(gr.gfield(g, u, chi, eta=eta), chi + hess + coupling)
        z = self.z_tensor(metric, uz)
        if case != "flat-n2-frozen":
            assert np.abs(z).max() > 1e-2
        self.assert_close(gr.z_tensor(g, metric, u), z)
        # U = chi + (tr dd u) g - dd u + rho Z and g = dd u + chihat + rho W/(n-1)
        rho = np.broadcast_to(0.5 + g.sigma_hat(), g.shape)
        gm = metric.matrix()

        def tr(h):
            return gr.trace_wrt_metric(metric, h)[..., None, None]

        chihat = tr(chi) * gm / (n - 1) - chi
        w = tr(z) * gm - (n - 1) * z
        uform, gform = gr.gauduchon_fields(g, u, chi, rho, metric)
        self.assert_close(uform, chi + tr(hess) * gm - hess + rho[..., None, None] * z)
        self.assert_close(gform, hess + chihat + rho[..., None, None] * w / (n - 1))

    def test_complex_u_is_refused(self):
        g = make_grid(n=3, res=(8, 1, 8, 1, 8, 1))
        metric = gr.metric_conformal(g, 0.3)
        u = np.random.default_rng(83).normal(size=g.shape) * (1 + 1j)
        chi = 3.0 * metric.matrix()
        for call in (lambda: gr.complex_hessian(g, u), lambda: gr.gfield(g, u, chi),
                     lambda: gr.z_tensor(g, metric, u),
                     lambda: gr.gauduchon_fields(g, u, chi, 0.5, metric)):
            with pytest.raises(ValidationError, match="u must be real, got dtype complex128"):
                call()

    @staticmethod
    def count_stencils(monkeypatch, u):
        """Record (order, whether the field is u itself, axis) of every call
        of the stencil kernel."""
        calls = []
        kernel = gr._diff

        def diff(grid, field, axis, order, *out_and_rows):
            calls.append((order, field is u, axis))
            return kernel(grid, field, axis, order, *out_and_rows)

        monkeypatch.setattr(gr, "_diff", diff)
        return calls

    def test_complex_hessian_forms_ten_stencils_at_n2(self, monkeypatch):
        g = make_grid(res=(8, 8, 9, 8))
        u = np.random.default_rng(81).normal(size=g.shape)
        calls = self.count_stencils(monkeypatch, u)
        gr.complex_hessian(g, u)
        # 4 second differences of u, 2 shared first differences of u (along
        # x_1 and y_1), and 4 first differences of those along x_0 and y_0
        assert sorted(calls) == sorted([(2, True, a) for a in range(4)]
                                       + [(1, True, 2), (1, True, 3)]
                                       + [(1, False, a) for a in (0, 0, 1, 1)])

    def test_gauduchon_fields_form_each_first_difference_once(self, monkeypatch):
        g = make_grid(n=3, res=(8, 1, 8, 8, 9, 1))
        metric = gr.metric_conformal(g, 0.3)
        u = np.random.default_rng(82).normal(size=g.shape)
        rho = np.broadcast_to(0.5 * g.sigma_hat(), g.shape)
        assert metric.torsion_planes[1]
        calls = self.count_stencils(monkeypatch, u)
        gr.gauduchon_fields(g, u, 3.0 * metric.matrix(), rho, metric)
        firsts = [axis for order, of_u, axis in calls if order == 1 and of_u]
        # the Hessian's shared differences along x_1, y_1, x_2 and the
        # torsion term's along x_0: each formed once, none on a frozen axis
        assert sorted(firsts) == [0, 2, 3, 4]


def is_plane_first(x, k=2):
    """x is stored entry-plane-first: with its last k axes moved to the
    front, it is C-contiguous."""
    return np.moveaxis(x, tuple(range(-k, 0)), tuple(range(k))).flags.c_contiguous


def as_plane_first(h):
    """A copy of the field h, stored entry-plane-first."""
    return np.moveaxis(np.moveaxis(h, (-2, -1), (0, 1)).copy(), (0, 1), (-2, -1))


class TestPlaneFirstLayout:
    """Every Hermitian field and eigen output the module allocates is stored
    entry-plane-first, and the values never depend on the input's layout."""

    METRICS = {
        "flat": gr.metric_flat,
        "conformal": lambda g: gr.metric_conformal(g, 0.3),
        "general": TestGeneralMetric.metric,
    }

    @staticmethod
    def grid3():
        return make_grid(n=3, res=(8, 1, 8, 1, 8, 1))

    def test_assembled_fields(self):
        g = self.grid3()
        metric = gr.metric_conformal(g, 0.3)
        rng = np.random.default_rng(70)
        u = rng.normal(size=g.shape)
        chi = 3.0 * metric.matrix()
        assert metric.torsion_planes[0]  # the conformal n = 3 metric has Z planes
        fields = {
            "complex_hessian": gr.complex_hessian(g, u),
            "gfield": gr.gfield(g, u, np.eye(3), eta=rng.normal(size=3) + 0j),
            "z_tensor": gr.z_tensor(g, metric, u),
            "hat_transform": gr.hat_transform(metric, random_hermitian(rng, g.shape, 3)),
        }
        fields["U form"], fields["g form"] = gr.gauduchon_fields(g, u, chi, np.full(g.shape, 0.5), metric)
        for name, h in fields.items():
            assert h.shape == g.shape + (3, 3), name
            assert is_plane_first(h), name

    @pytest.mark.parametrize("vectors", [False, True])
    @pytest.mark.parametrize("metric_name", list(METRICS))
    def test_eigen_outputs(self, metric_name, vectors):
        g = self.grid3()
        metric = self.METRICS[metric_name](g)
        h = random_hermitian(np.random.default_rng(71), g.shape, 3)  # C-ordered
        out = gr.eig_wrt_metric(h, metric, vectors=vectors)
        lam, vec = out if vectors else (out, None)
        assert lam.shape == g.shape + (3,) and is_plane_first(lam, 1)
        if vectors:
            assert vec.shape == g.shape + (3, 3) and is_plane_first(vec)

    @staticmethod
    def layouts(n):
        """One field with a NaN node on the (16, 8, 16, 1) grid for n = 2 or
        the (8, 8, 8, 1, 8, 1) grid for n = 3, constant along axis 1, in
        five memory layouts: plane-first, C, Fortran, a read-only broadcast
        and a strided view."""
        res = (16, 8, 16, 1) if n == 2 else (8, 8, 8, 1, 8, 1)
        base = random_hermitian(np.random.default_rng(72), (res[0], 1) + res[2:], n)
        base[(3, 0, 5) + (0,) * (len(res) - 3)] = np.nan
        shape = res + (n, n)
        field = np.broadcast_to(base, shape)
        big = np.zeros(shape[:-3] + (2, n, n), dtype=complex)
        big[..., ::2, :, :] = field
        return make_grid(n=n, res=res), {
            "plane-first": as_plane_first(field),
            "C": np.ascontiguousarray(field),
            "Fortran": np.asfortranarray(field),
            "broadcast": field,
            "strided": big[..., ::2, :, :],
        }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("vectors", [False, True])
    @pytest.mark.parametrize("metric_name", list(METRICS))
    @pytest.mark.parametrize("n", [2, 3])
    def test_values_do_not_depend_on_the_input_layout(self, n, metric_name, vectors):
        g, fields = self.layouts(n)
        metric = self.METRICS[metric_name](g)
        assert not fields["broadcast"].flags.writeable
        ref = gr.eig_wrt_metric(fields.pop("plane-first"), metric, vectors=vectors)
        assert np.isnan(ref[0] if vectors else ref).any()
        for name, h in fields.items():
            out = gr.eig_wrt_metric(h, metric, vectors=vectors)
            for got, want in zip(out, ref) if vectors else [(out, ref)]:
                np.testing.assert_array_equal(got, want, err_msg=name)

    @pytest.mark.parametrize("metric_name", list(METRICS))
    @pytest.mark.parametrize("layout", ["plane-first", "C"])
    def test_the_input_is_left_untouched(self, metric_name, layout):
        g, fields = self.layouts(3)
        metric = self.METRICS[metric_name](g)
        h = fields[layout]
        kept = h.copy()
        gr.eig_wrt_metric(h, metric, vectors=True)
        np.testing.assert_array_equal(h, kept)

    @pytest.mark.parametrize("metric_name", ["flat", "conformal"])
    def test_no_full_size_copy(self, metric_name):
        # A plane-first field reshapes to the driver's (-1, n, n) stack as a
        # view: the scratch beyond the outputs is two slabs in flight, each
        # a few slab-sized stacks of matrices (its reduced matrix on the
        # conformal metric and its kernel's temporaries), where one copy of
        # h would be 16 MiB.
        g = make_grid(res=(32, 16, 32, 16))
        metric = self.METRICS[metric_name](g)
        h = gr.complex_hessian(g, np.random.default_rng(73).normal(size=g.shape))
        assert is_plane_first(h) and h.nbytes == 16 * 2**20
        tracemalloc.start()
        try:
            out = gr.eig_wrt_metric(h, metric, vectors=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = 4 * gr._ROW_BLOCK * 2 * 2 * 16  # bytes of one range of 2x2 complex matrices
        assert peak - sum(o.nbytes for o in out) < 2 * 4 * stack


def _block_loop(rows, step, task):
    """A stand-in for ``errors._on_two_lanes`` that runs its rows on the
    calling thread, ``_ROW_BLOCK`` at a time, whatever the range length it
    is given: one pass over the rows of axis 0 for the assembly, and every
    slab of ``_eigh``, one at a time in order."""
    return [task(lo, min(lo + gr._ROW_BLOCK, rows)) for lo in range(0, rows, gr._ROW_BLOCK)]


@pytest.mark.filterwarnings("error")
@pytest.mark.usefixtures("two_cpus")
class TestEighLanes:
    """``_eigh`` cuts the node batch into slabs of whole rows of its leading
    axes, at most ``4 * _ROW_BLOCK`` nodes each, taken by the calling thread
    and one helper thread, and each slab reduces, solves and back-transforms
    its own nodes; its eigenpairs, NaN nodes and threads are those of one
    slab at a time on the calling thread."""

    METRICS = dict(TestPlaneFirstLayout.METRICS, product=lambda g: gr.metric_product(g, product_profile))
    NON_FINITE = {5: np.nan, 40_000: np.inf, 40_001: -np.inf}  # slabs 0 and 2
    DEGENERATE = [20_000, 20_001, 50_620, 50_624]  # slab 1 and the short last one
    # LAPACK solves every node at n = 4, so its runs are few
    CASES = [(n, metric_name, vectors) for n in (2, 3) for metric_name in ("flat", "conformal", "product", "general")
             for vectors in (True, False)]
    CASES += [(4, "flat", True), (4, "conformal", False)]

    @classmethod
    def case(cls, n, metric_name):
        """A grid of 15 ** 4 = 50,625 nodes, four slabs of four rows of
        axis 0 (13,500 nodes), the last of three, its metric, and a random
        field on it that is the metric times 2 at the nodes of
        ``DEGENERATE`` and has an entry of ``NON_FINITE`` in its lower
        triangle at each of those nodes."""
        g = make_grid(n=n, res=(15, 15) + (1, 1) * (n - 2) + (15, 15))
        step = 4 * gr._ROW_BLOCK
        assert g.num_nodes > 3 * step and g.num_nodes % gr._ROW_BLOCK
        metric = cls.METRICS[metric_name](g)
        h = random_hermitian(np.random.default_rng([n, len(metric_name)]), g.shape, n)
        flat = h.reshape(-1, n, n)
        flat[cls.DEGENERATE] = 2.0 * metric.matrix().reshape(-1, n, n)[cls.DEGENERATE]
        for node, entry in cls.NON_FINITE.items():
            flat[node, n - 1, 0] = entry
        return g, metric, h

    @staticmethod
    def runs(h, metric, vectors, monkeypatch):
        """The outputs of two lanes, of a helper lane that takes every range,
        and of the block loop."""
        out = {"two lanes": gr.eig_wrt_metric(h, metric, vectors)}
        with monkeypatch.context() as patch:
            patch.setattr(er, "_helper_lane", InlineLane())
            out["helper first"] = gr.eig_wrt_metric(h, metric, vectors)
        with monkeypatch.context() as patch:
            patch.setattr(gr, "_on_two_lanes", _block_loop)
            out["blocks"] = gr.eig_wrt_metric(h, metric, vectors)
        return {name: x if vectors else (x,) for name, x in out.items()}

    @pytest.mark.parametrize("n, metric_name, vectors", CASES,
                             ids=[f"n{n}-{m}-{'vectors' if v else 'values'}" for n, m, v in CASES])
    def test_outputs_do_not_depend_on_the_lane_or_the_range(self, n, metric_name, vectors, monkeypatch):
        g, metric, h = self.case(n, metric_name)
        lapack = LapackRows(monkeypatch)
        out = self.runs(h, metric, vectors, monkeypatch)
        # LAPACK solves the near-degenerate n = 3 nodes, in range 1 and the
        # tail, and every finite node at n = 4, once per run
        solved = {2: 0, 3: len(self.DEGENERATE), 4: g.num_nodes - len(self.NON_FINITE)}[n]
        assert len(lapack.rows()) == 3 * solved
        ref = out.pop("blocks")
        for name, got in out.items():
            for x, want in zip(got, ref):
                assert is_plane_first(x, x.ndim - len(g.shape))
                np.testing.assert_array_equal(x, want, err_msg=name)
        bad = np.zeros(g.num_nodes, bool)
        bad[list(self.NON_FINITE)] = True
        for x in ref:
            x = x.reshape(g.num_nodes, -1)
            assert np.isnan(x[bad]).all() and np.isfinite(x[~bad]).all()
        lam = ref[0].reshape(-1, n)
        np.testing.assert_allclose(lam[self.DEGENERATE], 2.0, rtol=1e-12)
        self.assert_scipy(h, metric, ref[0], range(0, g.num_nodes, 997))

    @staticmethod
    def assert_scipy(h, metric, lam, nodes):
        """Eigenvalues at the flat indices ``nodes`` against scipy's
        generalized eigh, to 1e-12 relative."""
        n = h.shape[-1]
        shape = metric.grid.shape
        hs = np.broadcast_to(h, shape + (n, n)).reshape(-1, n, n)
        gs, lam = metric.matrix().reshape(-1, n, n), lam.reshape(-1, n)
        for node in nodes:
            ref = scipy.linalg.eigh(hs[node], gs[node], eigvals_only=True)
            np.testing.assert_allclose(lam[node], ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))

    @pytest.mark.parametrize("n, vectors", [(2, True), (3, True), (3, False)])
    def test_a_field_constant_along_axis_0(self, n, vectors, monkeypatch):
        # the conformal metric varies along axis 0, where each slab reads
        # the field's one row
        g = make_grid(n=n, res=(15, 15) + (1, 1) * (n - 2) + (15, 15))
        metric = self.METRICS["conformal"](g)
        h = random_hermitian(np.random.default_rng([n, 15]), (1,) + g.shape[1:], n)
        out = self.runs(h, metric, vectors, monkeypatch)
        ref = out.pop("blocks")
        for name, got in out.items():
            for x, want in zip(got, ref):
                assert x.shape[: len(g.shape)] == g.shape
                np.testing.assert_array_equal(x, want, err_msg=name)
        self.assert_scipy(h, metric, ref[0], range(0, g.num_nodes, 997))

    def test_ranges_cover_the_stack_once(self, monkeypatch):
        g, metric, h = self.case(3, "conformal")
        sizes, kernel = [], gr._eigh3
        monkeypatch.setattr(gr, "_eigh3", lambda blk, lam, vec: sizes.append(len(blk)) or kernel(blk, lam, vec))
        gr.eig_wrt_metric(h, metric, vectors=True)
        # whole rows of axis 0, 3,375 nodes each, as many as fit in a slab
        row = g.num_nodes // g.shape[0]
        rows = 4 * gr._ROW_BLOCK // row
        assert sorted(sizes) == [g.shape[0] % rows * row] + [rows * row] * (g.shape[0] // rows)

    @pytest.mark.parametrize("batch, cut, rows", [
        ((32, 32, 32, 16), 0, 1), ((8,) * 6, 1, 4), ((15, 15, 15, 15), 0, 4), ((3, 5), 0, 3), ((), None, None),
        ((16_385,), 0, 16_384), ((2, 16_385), 1, 16_384),
    ])
    def test_the_slab_rule(self, batch, cut, rows):
        # cut along the first axis whose trailing rows hold at most 16,384
        # nodes, as many of its rows as fit; each slab keeps every axis
        slabs = gr._slabs(batch)
        if cut is None:
            assert slabs == [()]
            return
        covered = np.zeros(batch, int)
        for slab in slabs:
            assert len(slab) == cut + 1 and all(s.stop - s.start == 1 for s in slab[:cut])
            start, stop = slab[cut].start, slab[cut].stop
            assert stop - start == min(rows, batch[cut] - start) and covered[slab].ndim == len(batch)
            assert covered[slab].size <= 4 * gr._ROW_BLOCK
            covered[slab] += 1
        assert (covered == 1).all()

    def test_one_helper_thread_at_most(self):
        before = threading.active_count()
        for n in (2, 3):
            g, metric, h = self.case(n, "flat")
            gr.eig_wrt_metric(h, metric, vectors=True)
            gr.eig_wrt_metric(h, metric)
        assert threading.active_count() <= before + 1

    def test_concurrent_callers_share_the_helper(self, monkeypatch):
        # more caller threads than cores, switching often, on many small
        # ranges: a range lost, taken twice or written into another
        # caller's outputs changes a result
        monkeypatch.setattr(gr, "_ROW_BLOCK", 16)  # 64-node ranges
        g = make_grid(n=3, res=(8, 1, 8, 1, 8, 8))
        metric = gr.metric_conformal(g, 0.3)
        fields = [random_hermitian(np.random.default_rng(80 + k), g.shape, 3) for k in range(4)]
        ref = [gr.eig_wrt_metric(h, metric, vectors=True) for h in fields]
        got = [None] * 4

        def caller(k):
            got[k] = gr.eig_wrt_metric(fields[k], metric, vectors=True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for out, want in zip(got, ref):
            for x, y in zip(out, want):
                np.testing.assert_array_equal(x, y)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_a_forked_child_runs_eig_wrt_metric(self):
        # the parent's helper thread is running; in the child it does not exist
        g, metric, h = self.case(3, "conformal")
        ref = gr.eig_wrt_metric(h, metric, vectors=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # a fork with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(30)  # a child whose ranges never run ends here
                out = gr.eig_wrt_metric(h, metric, vectors=True)
                code = 0 if all(np.array_equal(x, y, equal_nan=True) for x, y in zip(out, ref)) else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.usefixtures("two_cpus")
class TestAssembleLanes:
    """``_assemble``, the tails of :func:`gfield` and
    :func:`gauduchon_fields`, and :func:`hat_transform` run ranges of whole
    rows of axis 0, at least ``16 * _ROW_BLOCK`` nodes each, on the calling
    thread and one helper thread; their fields, memory and threads are those
    of one pass."""

    # _ROW_BLOCK 32 makes ranges of one row of 512 or 576 nodes; 48 makes
    # ranges of two rows and a tail of row 8, whose neighbours wrap
    BLOCKS = [32, 48]
    METRICS = {**TestPlaneFirstLayout.METRICS, "product": lambda g: gr.metric_product(g, product_profile)}

    @staticmethod
    def grid(n):
        """Nine rows along axis 0, of 576 nodes at n = 2 and 512 at n = 3."""
        return make_grid(n=n, res=(9, 8, 9, 8) if n == 2 else (9, 8, 8, 1, 8, 1))

    @classmethod
    def fields(cls, case):
        """The outputs of one case on a random u, constant along axis 0 in
        the cases whose name says so, while chi, eta or rho vary there."""
        n = 2 if case in ("complex_hessian", "gfield-eta", "gfield-u-const") else 3
        g = cls.grid(n)
        rng = np.random.default_rng([n, len(case)])
        const = case.endswith("u-const")
        u = rng.normal(size=((1,) if const else (9,)) + g.shape[1:])
        x0 = np.cos(g.coord_field(0))
        if case == "complex_hessian":
            return (gr.complex_hessian(g, u),)
        if case.startswith("gfield"):
            chi = (2.0 + x0)[..., None, None] * np.eye(n) + 0j
            eta = (1.0 + 0.2 * x0)[..., None] * (rng.normal(size=n) + 1j * rng.normal(size=n))
            return (gr.gfield(g, u, chi, eta=eta),)
        metric = cls.METRICS[case.split("-")[1]](g)
        if case.startswith("z_tensor"):
            return (gr.z_tensor(g, metric, u, za=gr.z_coefficients(g, metric)),)
        chi = 3.0 * metric.matrix() if case != "gauduchon-flat-u-const" else (2.0 + x0)[..., None, None] * np.eye(3)
        rho = 0.5 + g.sigma_hat() + 0.1 * x0
        u_form, g_form = gr.gauduchon_fields(g, u, chi, rho, metric)
        return u_form, g_form, gr.hat_transform(metric, random_hermitian(rng, g.shape, 3))

    CASES = ["complex_hessian", "gfield-eta", "gfield-u-const", "z_tensor-conformal", "gauduchon-flat",
             "gauduchon-conformal", "gauduchon-product", "gauduchon-general", "gauduchon-flat-u-const",
             "gauduchon-conformal-u-const"]

    @pytest.mark.parametrize("case", CASES)
    def test_fields_do_not_depend_on_the_lane_or_the_range(self, case, monkeypatch):
        one_pass = self.fields(case)
        for block in self.BLOCKS:
            monkeypatch.setattr(gr, "_ROW_BLOCK", block)
            runs = {"two lanes": self.fields(case)}
            with monkeypatch.context() as patch:
                patch.setattr(er, "_helper_lane", InlineLane())
                runs["helper first"] = self.fields(case)
            with monkeypatch.context() as patch:
                patch.setattr(gr, "_on_two_lanes", _block_loop)
                runs["blocks"] = self.fields(case)
            for name, got in runs.items():
                for x, want in zip(got, one_pass, strict=True):
                    assert x.shape == want.shape and is_plane_first(x), f"{name}, block {block}"
                    np.testing.assert_array_equal(x, want, err_msg=f"{name}, block {block}")

    def test_ranges_cover_the_rows_once(self, monkeypatch):
        # every pass of the conformal gauduchon_fields: the first
        # differences, the assembly with its chihat tail, and the hat
        monkeypatch.setattr(gr, "_ROW_BLOCK", 48)
        scheduler, passes = gr._on_two_lanes, []

        def recording(rows, step, task):
            seen = []
            passes.append(seen)
            return scheduler(rows, step, lambda lo, hi: seen.append((lo, hi)) or task(lo, hi))

        monkeypatch.setattr(gr, "_on_two_lanes", recording)
        self.fields("gauduchon-conformal")
        ranges = [(0, 2), (2, 4), (4, 6), (6, 8), (8, 9)]
        # the last pass is the random field's hat_transform
        assert [sorted(seen) for seen in passes] == [ranges] * 4

    def test_one_cpu_runs_on_the_caller_alone(self, monkeypatch):
        monkeypatch.setattr(gr, "_ROW_BLOCK", 32)
        two_lanes = [self.fields(case) for case in ("complex_hessian", "gauduchon-general")]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(er, "_helper_lane", NoHelper())
        one_cpu = [self.fields(case) for case in ("complex_hessian", "gauduchon-general")]
        for got, want in zip(one_cpu, two_lanes):
            for x, y in zip(got, want, strict=True):
                np.testing.assert_array_equal(x, y)

    # the first differences each call keeps at its peak: along x_1 and y_1
    # for the Hessian at n = 2; gauduchon_fields peaks in its
    # hat_transform, once they are freed
    FIRSTS = {"complex_hessian": 2, "gauduchon_fields": 0}

    @pytest.mark.parametrize("call", list(FIRSTS))
    def test_no_full_size_scratch(self, call, monkeypatch):
        # ranges of one row, 2,048 nodes, where one full-size float plane
        # is 256 KiB: the scratch beyond the outputs and the first
        # differences is a few range-sized planes per lane
        monkeypatch.setattr(gr, "_ROW_BLOCK", 128)
        n = 3 if call == "gauduchon_fields" else 2
        g = make_grid(n=n, res=(16, 8, 32, 8) if n == 2 else (16, 8, 8, 1, 32, 1))
        metric = gr.metric_conformal(g, 0.3)
        u = np.random.default_rng(90).normal(size=g.shape)
        chi, rho = 3.0 * metric.matrix(), 0.5 * g.sigma_hat()
        run = {"complex_hessian": lambda: (gr.complex_hessian(g, u),),
               "gauduchon_fields": lambda: gr.gauduchon_fields(g, u, chi, rho, metric)}[call]
        run()
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        plane = 2048 * 8  # bytes of one range's float plane
        assert peak - sum(x.nbytes for x in out) - self.FIRSTS[call] * u.nbytes < 8 * plane

    def test_one_helper_thread_at_most(self, monkeypatch):
        monkeypatch.setattr(gr, "_ROW_BLOCK", 32)
        before = threading.active_count()
        for case in ("complex_hessian", "gauduchon-conformal"):
            self.fields(case)
        assert threading.active_count() <= before + 1
