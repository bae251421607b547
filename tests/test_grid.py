"""Discretized product manifold: stencils, tensors, metric eigenproblems."""
import math

import numpy as np
import pytest
import scipy.linalg

from hessianforge import grid as gr

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


class TestDerivatives:
    def test_linear_strip_field_exact(self):
        g = make_grid()
        u = np.broadcast_to(g.coord_field(2), g.shape).copy()
        np.testing.assert_allclose(gr.d_dz(g, u, 1), 0.5, atol=1e-12)
        np.testing.assert_allclose(gr.d_dzbar(g, u, 1), 0.5, atol=1e-12)

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

    def test_fourth_order_beats_second(self):
        g = make_grid(res=(32, 1, 8, 1))
        x1 = np.broadcast_to(g.coord_field(0), g.shape)
        u = np.sin(x1)
        e2 = np.abs(gr.d1(g, u, 0, order=2) - np.cos(x1)).max()
        e4 = np.abs(gr.d1(g, u, 0, order=4) - np.cos(x1)).max()
        assert e4 < e2 / 50


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
        assert gr.check_hermitian_field(h, tol=1e-12) < 1e-12


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
        assert gr.check_hermitian_field(out, 1e-12) < 1e-12

    def test_eta_reduction(self):
        g = make_grid()
        rng = np.random.default_rng(1)
        u = rng.normal(size=g.shape)
        chi = np.eye(2)
        np.testing.assert_allclose(
            gr.gfield(g, u, chi, None),
            chi + gr.complex_hessian(g, u),
        )


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
    ginv_mat = metric.inverse()

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
        assert gr.check_hermitian_field(z, 1e-12) < 1e-12


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
        metric = gr.Metric(g, two, name="2I")
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
        metric = gr.Metric(g, gm, name="random")
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
        metric = gr.Metric(g, gm, name="t")
        h = np.broadcast_to(np.diag([1.0, -1.0]).astype(complex), g.shape + (2, 2))
        lam, v = gr.eig_wrt_metric(h, metric, vectors=True)
        gram = np.conj(np.swapaxes(v, -1, -2)) @ gm @ v
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(2), gram.shape), atol=1e-12)

    def test_nonpositive_metric_reports_node(self):
        g = make_grid(res=(8, 1, 8, 1))
        gm = np.zeros(g.shape + (2, 2), dtype=complex)
        gm[..., 0, 0], gm[..., 1, 1] = 1.0, 1.0
        gm[3, 0, 4, 0] = [[-1.0, 0.0], [0.0, 1.0]]
        metric = gr.Metric(g, gm, name="bad")
        for _ in range(2):  # a failed check is not remembered as a pass
            with pytest.raises(gr.PositivityError, match="node"):
                gr.eig_wrt_metric(np.broadcast_to(np.eye(2, dtype=complex), gm.shape), metric)


class TestGauduchonFields:
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
        lap = gr.laplacian(g, u, metric)
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


class TestMetricCaches:
    @staticmethod
    def inputs():
        g = make_grid(n=3, res=(16, 1, 8, 1, 8, 1))
        metric = gr.metric_conformal(g, 0.3)
        u = np.random.default_rng(8).normal(size=g.shape)
        return g, metric, u, 3.0 * metric.matrix(), np.broadcast_to(0.5 * g.sigma_hat(), g.shape)

    def test_cached_z_matches_fresh_coefficients_bit_for_bit(self):
        g, metric, u, chi, rho = self.inputs()
        gr.gauduchon_fields(g, u, chi, rho, metric)
        uform, gform = gr.gauduchon_fields(g, u, chi, rho, metric)
        z = gr.z_tensor(g, metric, u, za=gr.z_coefficients(g, metric))
        assert np.abs(z).max() > 1e-4  # the comparison is not vacuous
        hess = gr.complex_hessian(g, u)
        lap = gr.trace_wrt_metric(metric, hess)
        gm = metric.matrix()
        chihat = gr.trace_wrt_metric(metric, chi)[..., None, None] * gm / 2 - chi
        np.testing.assert_array_equal(
            uform, chi + lap[..., None, None] * gm - hess + rho[..., None, None] * z)
        np.testing.assert_array_equal(
            gform, hess + chihat + rho[..., None, None] * gr.w_from_z(metric, z) / 2)

    def test_torsion_computed_once_per_metric(self, monkeypatch):
        g, metric, u, chi, rho = self.inputs()
        calls = []
        fresh = gr.torsion
        monkeypatch.setattr(gr, "torsion", lambda grid, m: calls.append(m) or fresh(grid, m))
        for _ in range(2):
            gr.gauduchon_fields(g, u, chi, rho, metric)
        assert calls == [metric]

    def test_metric_cannot_be_changed(self):
        g, metric, *_ = self.inputs()
        with pytest.raises(ValueError, match="read-only"):
            metric.g[0, 0, 0, 0, 0, 0] = 2.0
        with pytest.raises(AttributeError):
            metric.g = 2.0 * metric.g
        source = np.array(metric.g)
        copied = gr.Metric(g, source, name="copy")
        source[...] = 0.0
        np.testing.assert_array_equal(copied.g, metric.g)
        with pytest.raises(ValueError, match="read-only"):
            metric.z_coefficients()[...] = 0.0


class TestCurvature:
    def test_flat_zero(self):
        g = make_grid()
        np.testing.assert_array_equal(gr.curvature(g, gr.metric_flat(g)), 0.0)

    def test_hermitian_pair_symmetry(self):
        # R_{i jbar k lbar} = conj(R_{j ibar l kbar})
        g, metric, _ = conformal_setup(16)
        r = gr.curvature(g, metric)
        rt = np.conj(np.swapaxes(np.swapaxes(r, -4, -3), -2, -1))
        np.testing.assert_allclose(r, rt, atol=1e-11)
