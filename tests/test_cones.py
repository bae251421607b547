"""Cone functions, Garding cones and deleted-sum transforms."""
import math
from fractions import Fraction

import numpy as np
import pytest

from hessianforge import cones as cn
from hessianforge import hermitian as hm

ALL_FAMILIES = [
    ("log-ma", dict()),
    ("sigma-k-root", dict(k=2)),
    ("log-sigma-k", dict(k=2)),
    ("quotient-root", dict(k=3, l=1)),
    ("log-p", dict()),
]


def make(family, n, **kw):
    return cn.cone_function(family, n, **kw)


def fd_grad(f, lam, h=1e-5):
    g = np.empty_like(lam)
    for i in range(lam.size):
        e = np.zeros_like(lam)
        e[i] = h
        g[i] = (f.value(lam + e) - f.value(lam - e)) / (2 * h)
    return g


class TestSigmaK:
    def test_hand_expansion(self):
        assert cn.sigma_k([1.0, 2.0, 3.0], 2) == pytest.approx(11.0)
        assert cn.sigma_k([1.0, 2.0, 3.0], 3) == pytest.approx(6.0)

    def test_sigma1_is_sum(self):
        rng = np.random.default_rng(0)
        lam = rng.normal(size=(40, 5))
        np.testing.assert_allclose(cn.sigma_k(lam, 1), lam.sum(axis=-1), rtol=1e-13)

    def test_out_of_range(self):
        with pytest.raises(cn.ValidationError):
            cn.sigma_k([1.0, 2.0], 3)
        with pytest.raises(cn.ValidationError):
            cn.sigma_k([1.0, 2.0], 0)

    def test_matches_polynomial_roots(self):
        # Vieta oracle: coefficients of prod (x - lam_i)
        rng = np.random.default_rng(1)
        lam = rng.uniform(-2, 2, 6)
        coeffs = np.poly(lam)  # x^6 - e1 x^5 + e2 x^4 - ...
        e = cn.sigma_all(lam)
        for k in range(7):
            assert e[k] == pytest.approx((-1) ** k * coeffs[k], rel=1e-10, abs=1e-10)

    def test_deleted(self):
        lam = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(cn.sigma_deleted(lam, 1), [5, 4, 3])
        np.testing.assert_allclose(cn.sigma_deleted(lam, 2), [6, 3, 2])
        np.testing.assert_allclose(cn.sigma_deleted(lam, 0), [1, 1, 1])


class TestConeMembership:
    def test_deleted_sum_cone(self):
        cone = cn.Cone.deleted_sum(3)
        assert cone.contains(np.array([-1.0, 2.0, 2.0]))
        assert cone.margin(np.array([-1.0, 2.0, 2.0])) == pytest.approx(1.0)

    def test_gamma_n_rejects(self):
        cone = cn.Cone.gamma(3, 3)
        assert not cone.contains(np.array([1.0, 1.0, -1.0]))

    def test_gamma_n_margin(self):
        cone = cn.Cone.gamma(3, 3)
        assert cone.margin(np.array([1.0, 1.0, 1.0])) == pytest.approx(1.0)

    def test_nested_cones(self):
        rng = np.random.default_rng(2)
        n = 5
        inner = cn.Cone.gamma(n, n)
        pts = cn.sample_cone(inner, 300, rng)
        for k in range(1, n + 1):
            assert np.all(cn.Cone.gamma(k, n).margin(pts) > 0)

    def test_membership_monotone_in_k(self):
        rng = np.random.default_rng(3)
        n = 4
        pts = rng.uniform(-3, 3, size=(3000, n))
        member = np.stack(
            [cn.Cone.gamma(k, n).margin(pts) > 0 for k in range(1, n + 1)]
        )
        # membership in Gamma_{k+1} implies membership in Gamma_k
        for k in range(n - 1):
            assert not np.any(member[k + 1] & ~member[k])


class TestValuesAndGradients:
    def test_log_ma_point(self):
        f = make("log-ma", 3)
        lam = np.array([1.0, 2.0, 3.0])
        assert f.value(lam) == pytest.approx(math.log(6))
        np.testing.assert_allclose(f.grad(lam), [1, 0.5, 1 / 3])

    def test_log_p_points(self):
        f = make("log-p", 3)
        assert f.value(np.ones(3)) == pytest.approx(3 * math.log(2))
        assert f.value(np.array([1.0, 2.0, 3.0])) == pytest.approx(math.log(60))

    def test_outside_cone_raises_with_inequality(self):
        f = make("log-ma", 3)
        with pytest.raises(cn.ConeDomainError, match="sigma_"):
            f.value(np.array([1.0, 1.0, -1.0]))
        g = make("log-p", 3)
        with pytest.raises(cn.ConeDomainError, match="deleted sum"):
            g.value(np.array([-3.0, 1.0, 1.0]))

    def test_batched_point_outside_names_flat_index(self):
        lam = np.ones((2, 3, 3))
        lam[1, 2] = [1.0, 1.0, -1.0]
        with pytest.raises(cn.ConeDomainError, match="at flat index 5: sigma_2 = -1"):
            make("log-ma", 3).value_grad(lam)

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_gradient_matches_central_differences(self, family, kw):
        f = make(family, 4, **kw)
        rng = np.random.default_rng(4)
        pts = cn.sample_cone(f.cone, 40, rng)
        checked = 0
        for lam in pts:
            if f.margin(lam) < 0.2:  # stencil accuracy degrades near the boundary
                continue
            g = f.grad(lam)
            np.testing.assert_allclose(fd_grad(f, lam), g, rtol=1e-6, atol=1e-8)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_gradient_positive_and_symmetric(self, family, kw):
        f = make(family, 4, **kw)
        rng = np.random.default_rng(5)
        pts = cn.sample_cone(f.cone, 2000, rng)
        g = f.grad(pts)
        assert np.all(g > 0)
        perm = rng.permutation(4)
        np.testing.assert_allclose(f.value(pts[:, perm]), f.value(pts), rtol=1e-11)
        np.testing.assert_allclose(f.grad(pts[:, perm]), g[:, perm], rtol=1e-9,
                                   atol=1e-12)

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_concavity_slack_nonnegative(self, family, kw):
        f = make(family, 4, **kw)
        rng = np.random.default_rng(6)
        lam, mu = cn.sample_pairs(f.cone, 2000, rng)
        slack = cn.concavity_probe(f, lam, mu)
        assert np.min(slack) >= -1e-9

    def test_concavity_examples(self):
        f = make("log-ma", 2)
        lam = np.array([1.0, 1.0])
        assert cn.concavity_probe(f, lam, lam) == pytest.approx(0.0, abs=1e-14)
        # f(1,1)-f(2,2) - <grad, (1,1)-(2,2)> = -2 log 2 + 2 > 0
        assert cn.concavity_probe(f, lam, np.array([2.0, 2.0])) == pytest.approx(
            2 - 2 * math.log(2)
        )

    def test_linear_family_zero_slack(self):
        f = make("sigma-k-root", 3, k=1)
        rng = np.random.default_rng(7)
        lam, mu = cn.sample_pairs(f.cone, 500, rng)
        np.testing.assert_allclose(cn.concavity_probe(f, lam, mu), 0.0, atol=1e-12)


class TestQTransform:
    def test_symmetric_point(self):
        np.testing.assert_allclose(cn.q_inverse([1.0, 1.0, 1.0]), [2, 2, 2])
        np.testing.assert_allclose(cn.q_transform([2.0, 2.0, 2.0]), [1, 1, 1])

    def test_row_sums_and_back(self):
        mu = cn.q_inverse([1.0, 2.0, 3.0])
        np.testing.assert_allclose(mu, [5, 4, 3])
        np.testing.assert_allclose(cn.q_transform(mu), [1, 2, 3])

    def test_exact_round_trip(self):
        lam = [1, -7, 22, 5]
        mu = cn.q_inverse(lam)
        back = cn.q_transform(mu)
        assert back == [Fraction(x) for x in lam]

    def test_qinv_matrix_identity(self):
        for n in range(2, 8):
            q = cn.q_matrix(n)
            qinv = cn.q_inverse_matrix(n)
            prod = [
                [sum(Fraction(int(q[i][m])) * qinv[m][j] for m in range(n))
                 for j in range(n)]
                for i in range(n)
            ]
            for i in range(n):
                for j in range(n):
                    assert prod[i][j] == (1 if i == j else 0)

    def test_det_exact(self):
        for n in range(2, 11):
            assert cn.q_det_exact(n) == (-1) ** (n - 1) * (n - 1)

    def test_n1_rejected(self):
        with pytest.raises(cn.ValidationError):
            cn.q_transform([1.0])
        with pytest.raises(cn.ValidationError):
            cn.q_matrix(1)


class TestStarPower:
    def test_deleted_products(self):
        np.testing.assert_allclose(cn.star_power_eigs([1.0, 2.0, 3.0]), [6, 3, 2])
        np.testing.assert_allclose(cn.star_power_eigs([1.0, 1.0, 1.0]), [1, 1, 1])

    def test_zero_propagation(self):
        np.testing.assert_allclose(cn.star_power_eigs([0.0, 2.0, 3.0]), [6, 0, 0])

    def test_exp_log_consistency(self):
        rng = np.random.default_rng(8)
        y = rng.uniform(-1, 1, size=(200, 4))
        lhs = cn.star_power_eigs(np.exp(y))
        rhs = np.exp(cn.q_inverse(y))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestSubsolutionMargin:
    def test_log_ma_always_infinite(self):
        f = make("log-ma", 3)
        rep = cn.c_subsolution_margin(f, np.array([1.0, 2.0, 3.0]), 100.0, 1)
        assert rep.valid and math.isinf(rep.limit) and rep.margin == math.inf

    def test_quotient_finite_limit(self):
        # sigma_2/sigma_1 at n=2: limit along e_0 is the other coordinate
        f = make("quotient-root", 2, k=2, l=1)
        rep = cn.c_subsolution_margin(f, np.array([1.0, 1.0]), 0.5, 0)
        assert rep.valid
        assert rep.limit == pytest.approx(1.0)
        assert rep.margin == pytest.approx(0.5)

    def test_log_p_infinite(self):
        f = make("log-p", 3)
        rep = cn.c_subsolution_margin(f, np.ones(3), 0.0, 0)
        assert rep.valid and math.isinf(rep.limit)

    def test_off_cone_raises(self):
        f = make("log-ma", 2)
        with pytest.raises(cn.ConeDomainError):
            cn.c_subsolution_margin(f, np.array([-1.0, 1.0]), 0.0, 0)

    def test_limit_against_numeric_ladder(self):
        # closed-form limits cross-checked by direct evaluation far out the ray
        f = make("quotient-root", 3, k=3, l=1)
        lam = np.array([1.0, 2.0, 3.0])
        rep = cn.c_subsolution_margin(f, lam, 0.0, 2)
        t = 1e8
        probe = lam.copy()
        probe[2] += t
        assert f.value(probe) == pytest.approx(rep.limit, rel=1e-6)


class TestAddistruc:
    def test_log_ma_diagonal(self):
        f = make("log-ma", 3)
        lam = np.array([1.0, 2.0, 3.0])
        assert np.sum(f.grad(lam) * lam) == pytest.approx(3.0)
        assert cn.addistruc_probe(f, lam, lam)

    def test_log_p_mixed_signs(self):
        f = make("log-p", 3)
        assert cn.addistruc_probe(f, np.array([-1.0, 2.0, 2.0]), np.ones(3))

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_all_sampled_pairs_positive(self, family, kw):
        f = make(family, 3, **kw)
        rng = np.random.default_rng(9)
        lam, mu = cn.sample_pairs(f.cone, 2000, rng)
        g = f.grad(lam)
        assert np.all(np.sum(g * mu, axis=-1) > 0)
        assert np.all(np.sum(g * lam, axis=-1) > 0)


class TestProjectionMembership:
    def test_half_space_cone_accepts_everything(self):
        cone = cn.Cone.gamma(1, 3)
        for lp in ([0.0, 0.0], [-50.0, -50.0], [3.0, -7.0]):
            res = cn.gamma_infinity_member(np.array(lp), cone)
            assert res.member and res.conclusive

    def test_gamma_n_negative_coordinate(self):
        cone = cn.Cone.gamma(3, 3)
        res = cn.gamma_infinity_member(np.array([-1.0, 1.0]), cone)
        assert not res.member and not res.conclusive

    def test_gamma_n_positive(self):
        cone = cn.Cone.gamma(3, 3)
        res = cn.gamma_infinity_member(np.array([1.0, 1.0]), cone)
        assert res.member and res.r_entry == 1.0

    def test_scalar_ray_membership(self):
        cone = cn.Cone.gamma(2, 3)
        assert cn.gamma_r1_member(-1.0, cone).member  # Gamma_2 allows c < 0
        assert not cn.gamma_r1_member(-1.0, cn.Cone.gamma(3, 3)).member


class TestCSigma:
    def test_log_ma(self):
        f = make("log-ma", 3)
        assert cn.c_sigma(f, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert cn.c_sigma(f, 3 * math.log(2)) == pytest.approx(2.0, abs=1e-9)

    def test_log_p(self):
        f = make("log-p", 3)
        assert cn.c_sigma(f, 3 * math.log(4)) == pytest.approx(2.0, abs=1e-9)

    def test_residual(self):
        f = make("sigma-k-root", 4, k=2)
        c = cn.c_sigma(f, 1.7)
        assert abs(f.value(np.full(4, c)) - 1.7) < 1e-10

    def test_unattainable(self):
        f = make("sigma-k-root", 3, k=2)
        with pytest.raises(cn.ConeDomainError):
            cn.c_sigma(f, -1.0)


class TestFactory:
    def test_unknown_family(self):
        with pytest.raises(cn.ValidationError, match="unknown family"):
            cn.cone_function("special-lagrangian", 3)

    def test_missing_orders(self):
        with pytest.raises(cn.ValidationError):
            cn.cone_function("sigma-k-root", 3)
        with pytest.raises(cn.ValidationError):
            cn.cone_function("quotient-root", 3, k=2)

    def test_bad_orders(self):
        with pytest.raises(cn.ValidationError):
            cn.cone_function("quotient-root", 3, k=2, l=2)
        with pytest.raises(cn.ValidationError):
            cn.cone_function("sigma-k-root", 3, k=4)

    def test_one_validation_error_across_modules(self):
        assert hm.ValidationError is cn.ValidationError

    def test_n1_rejected(self):
        with pytest.raises(cn.ValidationError):
            cn.cone_function("log-ma", 1)
