"""Cone functions, Garding cones, deleted sums and diagonal levels."""
import math
import os
import re
import signal
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from test_hermitian import InlineLane, NoHelper, two_cpus  # noqa: F401 (a fixture)

from hessianforge import cones as cn
from hessianforge import errors as er
from hessianforge import grid as gr
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


def sample_cone(cone, count, rng):
    """Draw cone points: positive-orthant draws mixed with box rejection.

    The positive draws guarantee progress for thin cones; the rejection
    draws cover the part of the cone outside the positive orthant.
    """
    want_pos = count // 2
    pos = np.exp(rng.uniform(-1.5, 1.2, size=(want_pos, cone.n)))
    keep = [pos[cone.margin(pos) > 0]]
    got = len(keep[0])
    while got < count:
        cand = rng.uniform(-3.0, 3.0, size=(4 * count, cone.n))
        good = cand[cone.margin(cand) > 0]
        keep.append(good)
        got += len(good)
    return np.concatenate(keep)[:count]


def sample_pairs(cone, count, rng):
    return sample_cone(cone, count, rng), sample_cone(cone, count, rng)


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

    def test_single_vector_gives_a_scalar(self):
        # the same type as value and margin, through [()] as in _fold
        got = cn.sigma_k(np.ones(3), 2)
        assert type(got) is np.float64 and got == 3.0
        assert cn.sigma_k(np.ones((4, 3)), 2).shape == (4,)
        assert cn.sigma_k(np.ones(3), range(1, 3)).shape == (2,)

    def test_out_of_range(self):
        with pytest.raises(cn.ValidationError):
            cn.sigma_k([1.0, 2.0], 3)
        with pytest.raises(cn.ValidationError):
            cn.sigma_k([1.0, 2.0], 0)

    @pytest.mark.parametrize("k", [True, 2.5, math.nan, "2"], ids=["bool", "2.5", "nan", "str"])
    @pytest.mark.parametrize("call", [cn.sigma_k, cn.sigma_deleted], ids=["sigma_k", "sigma_deleted"])
    def test_non_integral_order_refused(self, call, k):
        # a bool would index a new axis, and a fraction fail deep in numpy
        with pytest.raises(cn.ValidationError, match=re.escape(f"order k must be an integer, got {k!r}")) as caught:
            call(np.ones(3), k)
        assert caught.type is cn.ValidationError

    def test_integral_orders_of_any_type(self):
        lam = np.random.default_rng(4).normal(size=(6, 4))
        for k in (np.int64(2), 2.0, np.float64(2.0)):
            np.testing.assert_array_equal(cn.sigma_k(lam, k), cn.sigma_k(lam, 2))
            np.testing.assert_array_equal(cn.sigma_deleted(lam, k), cn.sigma_deleted(lam, 2))

    def test_range_of_orders(self):
        lam = np.random.default_rng(8).normal(size=(30, 4))
        np.testing.assert_array_equal(
            cn.sigma_k(lam, range(1, 4)), np.stack([cn.sigma_k(lam, j) for j in (1, 2, 3)], axis=-1)
        )
        for orders in (range(1, 6), range(0, 2), range(2, 2)):
            with pytest.raises(cn.ValidationError):
                cn.sigma_k(lam, orders)

    def test_families_read_sigma_through_sigma_k(self, monkeypatch):
        # A defect in sigma_k must reach the family values.
        f = make("sigma-k-root", 4, k=2)
        lam = sample_cone(f.cone, 20, np.random.default_rng(9))
        exact, value = cn.sigma_k, f.value(lam)
        monkeypatch.setattr(cn, "sigma_k", lambda lam, k: 4.0 * exact(lam, k))
        np.testing.assert_allclose(f.value(lam), 2.0 * value, rtol=1e-14)

    def test_matches_polynomial_roots(self):
        # Vieta oracle: coefficients of prod (x - lam_i)
        rng = np.random.default_rng(1)
        lam = rng.uniform(-2, 2, 6)
        coeffs = np.poly(lam)  # x^6 - e1 x^5 + e2 x^4 - ...
        e = cn._sigma_table(lam, lam.size)
        for k in range(7):
            assert e[k] == pytest.approx((-1) ** k * coeffs[k], rel=1e-10, abs=1e-10)

    def test_deleted(self):
        lam = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(cn.sigma_deleted(lam, 1), [5, 4, 3])
        np.testing.assert_allclose(cn.sigma_deleted(lam, 2), [6, 3, 2])
        np.testing.assert_allclose(cn.sigma_deleted(lam, 0), [1, 1, 1])
        # the deleted products, with zeros allowed
        np.testing.assert_allclose(cn.sigma_deleted([1.0, 1.0, 1.0], 2), [1, 1, 1])
        np.testing.assert_allclose(cn.sigma_deleted([0.0, 2.0, 3.0], 2), [6, 0, 0])

    def test_deleted_out_of_range(self):
        for k in (-1, 3):
            with pytest.raises(cn.ValidationError):
                cn.sigma_deleted([1.0, 2.0, 3.0], k)

    def test_value_grad_runs_the_recurrence_at_most_twice(self, monkeypatch):
        calls = []

        def counting(lam, top):
            calls.append((np.shape(lam), top))
            return table(lam, top)

        f = make("quotient-root", 6, k=3, l=1)
        lam = sample_cone(f.cone, 50, np.random.default_rng(5))
        table = cn._sigma_table
        monkeypatch.setattr(cn, "_sigma_table", counting)
        f.value_grad(lam)
        assert 1 <= len(calls) <= 2
        # each run stops at the highest order its reader needs: sigma_1..sigma_3
        # for the cone, and the deleted sigma_0..sigma_2 for the gradient
        assert calls == [((50, 6), 3), ((50, 6, 5), 2)]

    @pytest.mark.filterwarnings("error")
    def test_orders_above_the_read_ones_are_not_formed(self):
        # sigma_8 of (1e50, ..., 1e50) overflows; sigma_1 = 8e50 does not
        lam = np.full(8, 1e50)
        f = make("sigma-k-root", 8, k=1)
        assert f.value(lam) == cn.Cone.gamma(1, 8).margin(lam) == pytest.approx(8e50, rel=1e-15)
        np.testing.assert_array_equal(f.grad(lam), np.ones(8))
        np.testing.assert_allclose(cn.sigma_deleted(lam, 1), np.full(8, 7e50), rtol=1e-15)
        np.testing.assert_allclose(cn.sigma_k(lam, range(1, 3)), [8e50, 28e100], rtol=1e-15)


class TestRowBlocks:
    """The deleted-coordinate recurrence runs on ``_ROW_BLOCK`` points at a
    time; its readers give the same bits for any block."""

    @staticmethod
    def results(lam, mu):
        quotient = make("quotient-root", 6, k=3, l=1)
        log_sigma = make("log-sigma-k", 6, k=3)
        return ([cn.sigma_deleted(lam, k) for k in range(6)]
                + list(quotient.value_grad(lam))
                + [cn.concavity_probe(quotient, lam, mu), cn.concavity_probe(log_sigma, lam, mu)])

    def test_results_do_not_depend_on_the_block(self, monkeypatch):
        rng = np.random.default_rng(41)
        cone = cn.Cone.gamma(3, 6)
        # 60 points in a (4, 15) batch: one block by default, and eight
        # blocks of 7 and one of 4 below
        lam, mu = (sample_cone(cone, 60, rng).reshape(4, 15, 6) for _ in range(2))
        assert cn._ROW_BLOCK >= 60
        whole = self.results(lam, mu)
        monkeypatch.setattr(cn, "_ROW_BLOCK", 7)
        for got, want in zip(self.results(lam, mu), whole, strict=True):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_log_sigma_k_probe_memory_stays_flat(self):
        # 20,000 points at n = 6.  The probe's own arrays are a few planes of
        # 20,000 x 6 doubles (0.96 MB each), under 6 MiB in all; stacking every
        # deleted vector at once forms 20,000 x 6 x 5 doubles (4.8 MB) and the
        # four orders of their table on top, about 10 MiB.
        f = make("log-sigma-k", 6, k=4)
        rng = np.random.default_rng(42)
        lam, mu = (rng.uniform(1.0, 2.0, (20_000, 6)) for _ in range(2))
        tracemalloc.start()
        try:
            cn.concavity_probe(f, lam, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_quotient_root_gradient_forms_one_array(self, monkeypatch):
        # 20,000 points at n = 6, with a block small enough that the deleted
        # pass's own transient stays under 0.5 MiB.  value_grad then holds
        # the sigma table (four planes of 20,000 doubles), the value, the
        # two deleted planes and the gradient (three of 20,000 x 6): 3.5 MiB.
        # Forming dk / ek and dl / el as two new arrays adds a fourth.
        monkeypatch.setattr(cn, "_ROW_BLOCK", 1024)
        f = make("quotient-root", 6, k=3, l=1)
        n, points = 6, 20_000
        lam = np.random.default_rng(42).uniform(1.0, 2.0, (points, n))
        held = 8 * (4 * points + points + 3 * points * n)
        tracemalloc.start()
        try:
            f.value_grad(lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < held + 2**19


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
        pts = sample_cone(inner, 300, rng)
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
        with pytest.raises(cn.ConeDomainError, match=re.escape("at node (1, 2), flat index 5: sigma_2 = -1")):
            make("log-ma", 3).value_grad(lam)
        lam = np.ones((3, 4, 2))
        lam[1, 2] = [1.0, -2.0]  # flat index 6 in the batch shape (3, 4)
        with pytest.raises(cn.ConeDomainError, match=re.escape("at node (1, 2), flat index 6:")):
            make("log-ma", 2).value_grad(lam)

    def test_nan_point_rejected(self):
        with pytest.raises(cn.ConeDomainError, match="sigma_1 = nan"):
            make("log-ma", 2).value([np.nan, 1.0])

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_batched_nan_names_flat_index(self, family, kw):
        lam = np.full((2, 3, 3), 2.0)
        lam[1, 0, 1] = np.nan
        with pytest.raises(cn.ConeDomainError, match=re.escape("at node (1, 0), flat index 3:")):
            make(family, 3, **kw).value_grad(lam)

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_gradient_matches_central_differences(self, family, kw):
        f = make(family, 4, **kw)
        rng = np.random.default_rng(4)
        pts = sample_cone(f.cone, 40, rng)
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
        pts = sample_cone(f.cone, 2000, rng)
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
        lam, mu = sample_pairs(f.cone, 2000, rng)
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
        lam, mu = sample_pairs(f.cone, 500, rng)
        np.testing.assert_allclose(cn.concavity_probe(f, lam, mu), 0.0, atol=1e-12)


class TestQTransform:
    def test_symmetric_point(self):
        np.testing.assert_allclose(cn.q_inverse([1.0, 1.0, 1.0]), [2, 2, 2])

    def test_row_sums(self):
        np.testing.assert_allclose(cn.q_inverse([1.0, 2.0, 3.0]), [5, 4, 3])
        lam = np.random.default_rng(10).normal(size=(50, 5))
        q = np.ones((5, 5)) - np.eye(5)
        np.testing.assert_allclose(cn.q_inverse(lam), lam @ q, rtol=1e-13, atol=1e-14)
        # Q^{-1} = J/(n-1) - I maps the deleted sums back
        mu = cn.q_inverse(lam)
        np.testing.assert_allclose(mu.sum(-1, keepdims=True) / 4 - mu, lam, atol=1e-13)

    def test_deleted_products_are_exp_of_deleted_log_sums(self):
        rng = np.random.default_rng(8)
        y = rng.uniform(-1, 1, size=(200, 4))
        lhs = cn.sigma_deleted(np.exp(y), 3)
        rhs = np.exp(cn.q_inverse(y))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_n1_rejected(self):
        with pytest.raises(cn.ValidationError):
            cn.Cone.deleted_sum(1)


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

    def test_nan_point_raises(self):
        f = make("quotient-root", 2, k=2, l=1)
        with pytest.raises(cn.ConeDomainError):
            cn.c_subsolution_margin(f, np.array([np.nan, 1.0]), 0.0, 0)

    def test_limit_against_numeric_ladder(self):
        # closed-form limits cross-checked by direct evaluation far out the ray
        f = make("quotient-root", 3, k=3, l=1)
        lam = np.array([1.0, 2.0, 3.0])
        rep = cn.c_subsolution_margin(f, lam, 0.0, 2)
        t = 1e8
        probe = lam.copy()
        probe[2] += t
        assert f.value(probe) == pytest.approx(rep.limit, rel=1e-6)


def ray_poly_table(lam, v):
    """Reference: p[j, m], the coefficient of x^j t^m in prod_i (1 + x (lam_i + t v_i))."""
    n = lam.size
    p = np.zeros((n + 1, n + 1))
    p[0, 0] = 1.0
    for i in range(n):
        q = p.copy()
        q[1:, :] += lam[i] * p[:-1, :]
        q[1:, 1:] += v[i] * p[:-1, :-1]
        p = q
    return p


def ray_limit_reference(f, lam, i):
    """Reference (valid, limit) of f along lam + t e_i, read off the ray polynomials."""
    v = np.zeros(f.n)
    v[i] = 1.0
    if f.family == "log-ma":
        return (False, -math.inf) if np.any(lam[v == 0] <= 0) else (True, math.inf)
    if f.family == "log-p":
        frozen = np.sum(v) - v == 0
        return (False, -math.inf) if np.any((np.sum(lam) - lam)[frozen] <= 0) else (True, math.inf)
    p = ray_poly_table(lam, v)
    polys = []
    for j in range(1, f.k + 1):
        deg = f.n
        while deg > 0 and p[j, deg] == 0.0:
            deg -= 1
        polys.append(p[j, : deg + 1])
    if not all(c[-1] > 0.0 for c in polys):
        return False, -math.inf
    top = polys[-1]
    if f.family == "quotient-root":
        pl = polys[f.l - 1]
        if len(top) != len(pl):
            return True, math.inf if len(top) > len(pl) else 0.0
        return True, (top[-1] / pl[-1]) ** (1.0 / (f.k - f.l))
    if len(top) > 1:
        return True, math.inf
    lim = top[0] ** (1.0 / f.k)
    return True, f.k * math.log(lim) if f.family == "log-sigma-k" else lim


class TestCoordinateRayLimits:
    def test_match_ray_polynomial_reference(self):
        rng = np.random.default_rng(12)
        for n in range(2, 7):
            fams = [make("log-ma", n), make("log-p", n)]
            fams += [make(fam, n, k=k) for fam in ("sigma-k-root", "log-sigma-k") for k in range(1, n + 1)]
            fams += [make("quotient-root", n, k=k, l=l) for k in range(2, n + 1) for l in range(1, k)]
            integers = rng.integers(-2, 4, size=(400, n)).astype(float)
            for f in fams:
                inside = integers[f.margin(integers) > 0][:6]
                for lam in np.concatenate([sample_cone(f.cone, 6, rng), inside]):
                    for i in range(n):
                        rep = cn.c_subsolution_margin(f, lam, 0.0, i)
                        assert (rep.valid, rep.limit) == ray_limit_reference(f, lam, i), (f.describe(), lam, i)

    def test_batched_point_rejected(self):
        f = make("quotient-root", 3, k=2, l=1)
        with pytest.raises(cn.ValidationError) as caught:
            cn.c_subsolution_margin(f, np.ones((2, 3)), 0.0, 0)
        assert caught.type is cn.ValidationError

    @pytest.mark.parametrize("i", [True, 1.5, "1", None])
    def test_non_integral_direction_rejected(self, i):
        # True and 1.5 used to reach the deleted table and raise a bare IndexError
        f = make("quotient-root", 3, k=3, l=1)
        with pytest.raises(cn.ValidationError, match=re.escape(f"direction index i must be an integer, got {i!r}")):
            cn.c_subsolution_margin(f, np.ones(3), 0.0, i)

    def test_integral_float_and_numpy_directions(self):
        f = make("quotient-root", 3, k=3, l=1)
        lam = np.array([1.0, 2.0, 3.0])
        want = cn.c_subsolution_margin(f, lam, 0.0, 2)
        for i in (2.0, np.int64(2)):
            rep = cn.c_subsolution_margin(f, lam, 0.0, i)
            assert rep == want and type(rep.direction) is int


class TestAddistruc:
    """sum_i f_i(lam) mu_i > 0 for lam and mu in the cone."""

    def test_log_ma_diagonal(self):
        f = make("log-ma", 3)
        lam = np.array([1.0, 2.0, 3.0])
        assert np.sum(f.grad(lam) * lam) == pytest.approx(3.0)

    def test_log_p_mixed_signs(self):
        f = make("log-p", 3)
        lam, mu = np.array([-1.0, 2.0, 2.0]), np.ones(3)
        assert f.cone.contains(mu)
        assert np.sum(f.grad(lam) * mu) > 0

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_all_sampled_pairs_positive(self, family, kw):
        f = make(family, 3, **kw)
        rng = np.random.default_rng(9)
        lam, mu = sample_pairs(f.cone, 2000, rng)
        g = f.grad(lam)
        assert np.all(np.sum(g * mu, axis=-1) > 0)
        assert np.all(np.sum(g * lam, axis=-1) > 0)


LADDER = 2.0 ** np.arange(41)


def ladder_projection(lam_prime, cone):
    """Reference: some R on the ladder 1, 2, 4, ..., 2**40 puts (lam', R) in the cone."""
    points = np.column_stack([np.broadcast_to(lam_prime, (LADDER.size, cone.n - 1)), LADDER])
    return bool(np.any(cone.margin(points) > 0))


def ladder_r1(c, cone):
    """Reference: some t on the ladder 1, 2, 4, ..., 2**40 puts (t, ..., t, c) in the cone."""
    points = np.column_stack([np.repeat(LADDER[:, None], cone.n - 1, axis=1), np.full(LADDER.size, c)])
    return bool(np.any(cone.margin(points) > 0))


class TestProjectionMembership:
    def test_half_space_cone_accepts_everything(self):
        cone = cn.Cone.gamma(1, 3)
        for lp in ([0.0, 0.0], [-50.0, -50.0], [3.0, -7.0]):
            assert cn.gamma_infinity_member(np.array(lp), cone) is True

    def test_gamma_n_negative_coordinate(self):
        # exact: Gamma_3(3) projects onto the open positive quadrant
        cone = cn.Cone.gamma(3, 3)
        assert cn.gamma_infinity_member(np.array([-1.0, 1.0]), cone) is False

    def test_gamma_n_positive(self):
        cone = cn.Cone.gamma(3, 3)
        assert cn.gamma_infinity_member(np.array([1.0, 1.0]), cone) is True

    def test_scalar_ray_membership(self):
        cone = cn.Cone.gamma(2, 3)
        assert cn.gamma_r1_member(-1.0, cone) is True  # Gamma_2 allows c < 0
        assert cn.gamma_r1_member(-1.0, cn.Cone.gamma(3, 3)) is False

    def test_deleted_sum_projections(self):
        cone = cn.Cone.deleted_sum(3)
        assert cn.gamma_infinity_member(np.array([2.0, -1.0]), cone) is True
        assert cn.gamma_infinity_member(np.array([1.0, -1.0]), cone) is False
        assert cn.gamma_r1_member(-5.0, cone) is True
        # at n = 2 the deleted-sum cone is the positive quadrant
        assert cn.gamma_r1_member(-5.0, cn.Cone.deleted_sum(2)) is False
        assert cn.gamma_r1_member(0.5, cn.Cone.deleted_sum(2)) is True

    @pytest.mark.parametrize("cone", [cn.Cone.gamma(1, 3), cn.Cone.gamma(3, 3), cn.Cone.deleted_sum(3)],
                             ids=["gamma1", "gamma3", "deleted-sum"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_refused(self, cone, bad):
        with pytest.raises(cn.ValidationError, match="finite"):
            cn.gamma_r1_member(bad, cone)
        with pytest.raises(cn.ValidationError, match="finite"):
            cn.gamma_infinity_member(np.array([bad, 1.0]), cone)

    def test_closed_forms_agree_with_ladder(self):
        rng = np.random.default_rng(2024)
        certified = 0
        for case in range(1000):
            n = 3 + case % 3
            k = int(rng.integers(0, n + 1))  # k = 0 picks the deleted-sum cone
            cone = cn.Cone.gamma(k, n) if k else cn.Cone.deleted_sum(n)
            lam_prime = rng.uniform(-3.0, 3.0, n - 1)
            c = float(rng.uniform(-3.0, 3.0))
            proj = cn.gamma_infinity_member(lam_prime, cone)
            r1 = cn.gamma_r1_member(c, cone)
            assert isinstance(proj, bool) and isinstance(r1, bool)
            # a ladder hit is a membership certificate; a miss proves nothing
            if ladder_projection(lam_prime, cone):
                assert proj, (cone, lam_prime)
                certified += 1
            if ladder_r1(c, cone):
                assert r1, (cone, c)
                certified += 1
            # a closed-form member has a witness R, which the ladder must find
            if proj:
                assert ladder_projection(lam_prime, cone), (cone, lam_prime)
            if r1:
                assert ladder_r1(c, cone), (cone, c)
        assert certified > 1000


class TestCSigma:
    def test_log_ma(self):
        f = make("log-ma", 3)
        assert cn.c_sigma(f, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert cn.c_sigma(f, 3 * math.log(2)) == pytest.approx(2.0, abs=1e-9)

    def test_log_p(self):
        f = make("log-p", 3)
        assert cn.c_sigma(f, 3 * math.log(4)) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("sigma", [1e-3, 0.3, 1.7, 12.0, 250.0])
    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_residual(self, family, kw, sigma):
        f = make(family, 4, **kw)
        c = cn.c_sigma(f, sigma)
        assert abs(f.value(np.full(4, c)) - sigma) <= 1e-13 * max(1.0, abs(sigma))

    @pytest.mark.parametrize("sigma", [-40.0, -1.0, 0.0])
    @pytest.mark.parametrize("family", ["log-ma", "log-sigma-k", "log-p"])
    def test_log_families_reach_levels_below_zero(self, family, sigma):
        f = make(family, 4, k=3) if family == "log-sigma-k" else make(family, 4)
        c = cn.c_sigma(f, sigma)
        assert c > 0
        assert abs(f.value(np.full(4, c)) - sigma) <= 1e-13 * max(1.0, abs(sigma))

    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_unattainable(self, family, kw):
        f = make(family, 3, **kw)
        levels = [math.nan, math.inf, -math.inf]
        levels += [1e6] if f.family.startswith("log") else [0.0, -0.0, -1.0]
        for sigma in levels:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(cn.ConeDomainError, match="unattainable on the diagonal ray"):
                    cn.c_sigma(f, sigma)


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
        grid = gr.ProductGrid(2, ((1.0, 1.0),), (0.0, 1.0), (8, 1, 8, 1))
        negative = -np.broadcast_to(np.eye(2), grid.shape + (2, 2))
        raisers = [
            (cn.ValidationError, lambda: hm.BorderedSpec([1.0], [1.0], 0.0, -0.1)),
            (cn.ConeDomainError, lambda: make("log-ma", 2).value([1.0, -1.0])),
            (gr.GridError, lambda: gr.ProductGrid(2, ((1.0, 1.0),), (1.0, 0.0), (8, 1, 8, 1))),
            (gr.PositivityError, lambda: gr.Metric(grid, negative)),
        ]
        for kind, raiser in raisers:
            with pytest.raises(cn.ValidationError) as caught:
                raiser()
            assert caught.type is kind

    @pytest.mark.parametrize("family, k, l, order", [
        ("log-ma", 5, None, "k"), ("log-p", None, 2, "l"), ("log-p", 2, 1, "k or l"),
        ("sigma-k-root", 2, 1, "l"), ("log-sigma-k", 2, 1, "l"),
    ])
    def test_order_the_family_does_not_take(self, family, k, l, order):
        # an ignored order would build another operator with no error
        with pytest.raises(cn.ValidationError, match=rf"family '{family}' takes no order {order}$"):
            cn.cone_function(family, 3, k=k, l=l)

    def test_n1_rejected(self):
        with pytest.raises(cn.ValidationError):
            cn.cone_function("log-ma", 1)

    @pytest.mark.parametrize("family, kw, text", [
        ("log-ma", dict(), "log-ma(n=3)"),
        ("sigma-k-root", dict(k=2), "sigma-k-root(n=3, k=2)"),
        ("log-sigma-k", dict(k=2), "log-sigma-k(n=3, k=2)"),
        ("quotient-root", dict(k=3, l=1), "quotient-root(n=3, k=3, l=1)"),
        ("log-p", dict(), "log-p(n=3)"),
    ])
    def test_describe(self, family, kw, text):
        assert make(family, 3, **kw).describe() == text

    def test_families_are_keyed_by_their_own_name(self):
        assert sorted(cn.FAMILIES) == sorted(name for name, _ in ALL_FAMILIES)
        for name, cls in cn.FAMILIES.items():
            assert cls.family == name

    def test_orders_are_stored_as_ints(self):
        f = make("quotient-root", 4, k=np.int64(3), l=2.0)
        assert (type(f.k), type(f.l)) == (int, int) and f.cone == cn.Cone.gamma(3, 4)

    @pytest.mark.parametrize("family, n, kw, message", [
        ("sigma-k-root", 3, dict(k=2.5), "order k must be an integer, got 2.5"),
        ("quotient-root", 3, dict(k=3.9, l=1.2), "order k must be an integer, got 3.9"),
        ("quotient-root", 3, dict(k=3, l=1.2), "order l must be an integer, got 1.2"),
        ("log-sigma-k", 3, dict(k=True), "order k must be an integer, got True"),
        ("log-ma", 3.5, dict(), "n must be an integer, got 3.5"),
        ("log-p", True, dict(), "n must be an integer, got True"),
        ("log-ma", np.float64(math.nan), dict(), "n must be an integer, got "),
    ], ids=["k=2.5", "k=3.9", "l=1.2", "k=True", "n=3.5", "n=True", "n=nan"])
    def test_non_integral_orders_are_refused(self, family, n, kw, message):
        # truncating would build another operator with no error
        with pytest.raises(cn.ValidationError, match=re.escape(message)):
            cn.cone_function(family, n, **kw)

    @pytest.mark.parametrize("kind, n, k, message", [
        ("foo", 3, 0, "unknown cone kind 'foo'"),
        ("gamma", 3, 4, "Garding cone order k=4 out of range 1..3"),
        ("gamma", 3, 0, "Garding cone order k=0 out of range 1..3"),
        ("deleted-sum", 1, 0, "deleted-sum cone needs n >= 2, got 1"),
        ("gamma", 3, 1.5, "order k must be an integer, got 1.5"),
    ])
    def test_cone_checks_kind_and_order_at_construction(self, kind, n, k, message):
        # the constructor and the two named constructors share one check
        with pytest.raises(cn.ValidationError, match=re.escape(message)):
            cn.Cone(kind, n, k)


class TestPointLength:
    """Every entry point refuses a point of the wrong length, or with no
    axis at all, with ValidationError naming the cone."""

    ENTRY_POINTS = {
        "value": lambda f, lam: f.value(lam),
        "grad": lambda f, lam: f.grad(lam),
        "value_grad": lambda f, lam: f.value_grad(lam),
        "margin": lambda f, lam: f.margin(lam),
        "Cone.margin": lambda f, lam: f.cone.margin(lam),
        "Cone.contains": lambda f, lam: f.cone.contains(lam),
        "concavity_probe": lambda f, lam: cn.concavity_probe(f, lam, lam),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    @pytest.mark.parametrize("lam, has", [
        (np.ones(4), "4"), (np.ones((2, 4)), "4"), (np.float64(1.0), "shape ()"), (1.0, "shape ()"),
    ], ids=["n+1", "batched-n+1", "0-d", "scalar"])
    def test_refused(self, family, kw, entry, lam, has):
        f = make(family, 3, **kw)
        cone = f.cone.ray_description()
        with pytest.raises(cn.ValidationError, match=re.escape(f"dimension mismatch: {cone} has n=3, point has {has}")) as caught:
            self.ENTRY_POINTS[entry](f, lam)
        assert caught.type is cn.ValidationError


    @pytest.mark.parametrize("name, call", [
        ("sigma_k", lambda x: cn.sigma_k(x, 1)),
        ("sigma_deleted", lambda x: cn.sigma_deleted(x, 0)),
        ("q_inverse", lambda x: cn.q_inverse(x)),
    ])
    @pytest.mark.parametrize("point", [1.0, 2.0, np.float64(1.0), np.array(1.0)], ids=["one", "two", "float64", "0-d"])
    def test_polynomials_refuse_a_0d_point(self, name, call, point):
        # a 0-d point has no last axis to read coordinates from
        with pytest.raises(cn.ValidationError, match=re.escape(f"{name} needs points along a last axis, got shape ()")) as caught:
            call(point)
        assert caught.type is cn.ValidationError


class TestPointNumbers:
    """Every entry point refuses a point that is not an array of numbers
    with ValidationError naming the cone and the input, not with numpy's
    error or as a cone violation; a float array is read as it is."""

    def refused(self, entry, lam, name):
        with pytest.raises(cn.ValidationError, match=re.escape(f"{name} needs an array of numbers, got ")) as caught:
            entry(lam)
        assert caught.type is cn.ValidationError
        return str(caught.value)

    @pytest.mark.parametrize("entry", TestPointLength.ENTRY_POINTS)
    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_a_string_is_refused(self, family, kw, entry):
        f = make(family, 3, **kw)
        message = self.refused(lambda lam: TestPointLength.ENTRY_POINTS[entry](f, lam), "abc",
                               f"a point of {f.cone.ray_description()}")
        assert message.endswith("got 'abc'")

    @pytest.mark.parametrize("entry", TestPointLength.ENTRY_POINTS)
    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_a_ragged_sequence_is_refused(self, family, kw, entry):
        f = make(family, 3, **kw)
        message = self.refused(lambda lam: TestPointLength.ENTRY_POINTS[entry](f, lam), [[1.0, 2.0, 3.0], [3.0]],
                               f"a point of {f.cone.ray_description()}")
        assert message.endswith("got [[1.0, 2.0, 3.0], [3.0]]")

    @pytest.mark.parametrize("entry", TestPointLength.ENTRY_POINTS)
    @pytest.mark.parametrize("family,kw", ALL_FAMILIES)
    def test_none_is_refused_as_input_not_as_a_cone_violation(self, family, kw, entry):
        f = make(family, 3, **kw)
        message = self.refused(lambda lam: TestPointLength.ENTRY_POINTS[entry](f, lam), [1.0, None, 2.0],
                               f"a point of {f.cone.ray_description()}")
        assert message.endswith("got [1.0, None, 2.0]")

    @pytest.mark.parametrize("name, call", [
        ("sigma_k", lambda x: cn.sigma_k(x, 1)),
        ("sigma_deleted", lambda x: cn.sigma_deleted(x, 0)),
        ("q_inverse", lambda x: cn.q_inverse(x)),
    ])
    @pytest.mark.parametrize("lam", ["abc", [[1.0, 2.0], [3.0]], [1.0, None]], ids=["string", "ragged", "None"])
    def test_the_polynomials_refuse_them_too(self, name, call, lam):
        self.refused(call, lam, name)

    def test_a_float_array_is_not_copied_and_numbers_are_converted(self):
        cone = cn.Cone.gamma(2, 3)
        lam = np.ones((4, 3))
        assert cone._point(lam) is lam
        for point in ([1, 2, 3], [True, 2.0, 3], np.array([1, 2, 3], dtype=object), [10**30, 1, 2]):
            got = cone._point(point)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, np.asarray(point, dtype=float))


# ---------------------------------------------------------------------------
# whole-plane layout: return types, empty batches, and the formulas it replaced

def families_at(n):
    """Every family at dimension n, with orders that exist there."""
    return {
        "log-ma": dict(),
        "sigma-k-root": dict(k=min(3, n)),
        "log-sigma-k": dict(k=max(2, n - 2)),
        "quotient-root": dict(k=min(3, n), l=1),
        "log-p": dict(),
    }


FAMILY_NAMES = list(families_at(2))


def last_axis_table(lam, top):
    """The sigma recurrence with the order on the last axis of the table."""
    e = np.zeros(lam.shape[:-1] + (top + 1,))
    e[..., 0] = 1.0
    for i in range(lam.shape[-1]):
        x = lam[..., i]
        for j in range(min(i + 1, top), 0, -1):
            e[..., j] += x * e[..., j - 1]
    return e


def last_axis_deleted(lam, top):
    n = lam.shape[-1]
    m = np.arange(n - 1)
    return last_axis_table(lam[..., m + (m >= np.arange(n)[:, None])], top)


def summed_q_inverse(lam):
    return np.sum(lam, axis=-1, keepdims=True) - lam


def reference_margin(cone, lam):
    if cone.kind == "gamma":
        return np.min(last_axis_table(lam, cone.k)[..., 1:], axis=-1)
    return np.min(summed_q_inverse(lam), axis=-1)


def reference_value_grad(f, lam):
    """Each family's value and gradient from last-axis tables and numpy sums."""
    if f.family == "log-ma":
        return np.sum(np.log(lam), axis=-1), 1.0 / lam
    if f.family == "log-p":
        mu = summed_q_inverse(lam)
        return np.sum(np.log(mu), axis=-1), summed_q_inverse(1.0 / mu)
    k = f.k
    table = last_axis_table(lam, k)  # column j holds sigma_j
    deleted = last_axis_deleted(lam, k - 1)
    ek, dk = table[..., k, None], deleted[..., k - 1]
    if f.family == "sigma-k-root":
        return ek[..., 0] ** (1.0 / k), (1.0 / k) * ek ** (1.0 / k - 1.0) * dk
    if f.family == "log-sigma-k":
        return np.log(ek[..., 0]), dk / ek
    el, dl = table[..., f.l, None], deleted[..., f.l - 1]
    val = (ek / el) ** (1.0 / (k - f.l))
    return val[..., 0], val / (k - f.l) * (dk / ek - dl / el)


def reference_probe(f, lam, mu):
    flam, g = reference_value_grad(f, lam)
    return flam - reference_value_grad(f, mu)[0] - np.sum(g * (lam - mu), axis=-1)


def layouts(lam, n):
    """lam in the memory layouts a caller can hand over, all of equal values.

    C and Fortran order, a read-only broadcast, a strided view, and an
    eigenvalue field as ``eig_wrt_metric`` returns it on a flat metric (its
    batch is the grid shape, and its values are positive, so inside every
    cone).
    """
    wide = np.zeros((2 * len(lam), n + 1))
    wide[::2, :n] = lam
    broadcast = np.broadcast_to(lam[:, None, :], (len(lam), 2, n))
    assert not broadcast.flags.writeable
    g = gr.ProductGrid(n, ((2 * math.pi, 2 * math.pi),) * (n - 1), (0.0, 1.0),
                       (8, 1) + (1, 1) * (n - 2) + (8, 1))
    rng = np.random.default_rng(n)
    a = rng.normal(size=g.shape + (n, n)) + 1j * rng.normal(size=g.shape + (n, n))
    h = a @ np.conj(np.swapaxes(a, -1, -2)) + np.eye(n)
    eig, _ = gr.eig_wrt_metric(h, gr.metric_flat(g), vectors=True)
    return {
        "C": np.ascontiguousarray(lam),
        "F": np.asfortranarray(lam),
        "broadcast": broadcast,
        "strided": wide[::2, :n],
        "eig_wrt_metric": eig,
    }


class TestReturnTypes:
    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_single_vector_gives_float64(self, family, n):
        f = make(family, n, **families_at(n)[family])
        lam = 1.0 + np.arange(n) / n
        outs = [f.value(lam), f.margin(lam), f.value_grad(lam)[0], f.cone.margin(lam),
                cn.concavity_probe(f, lam, lam[::-1])]
        for out in outs:
            assert type(out) is np.float64, type(out)
        assert f.grad(lam).shape == (n,)

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_batched_shapes_unchanged(self, family, n):
        f = make(family, n, **families_at(n)[family])
        lam = np.broadcast_to(1.0 + np.arange(n) / n, (4, 3, n))
        value, grad = f.value_grad(lam)
        assert value.shape == f.value(lam).shape == f.margin(lam).shape == (4, 3)
        assert grad.shape == f.grad(lam).shape == (4, 3, n)
        assert f.cone.margin(lam).shape == cn.concavity_probe(f, lam, lam[..., ::-1]).shape == (4, 3)
        assert cn.q_inverse(lam).shape == (4, 3, n)


class TestEmptyBatch:
    @pytest.mark.parametrize("batch", [(0,), (3, 0)])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_every_entry_point_returns_empty_arrays(self, family, batch):
        f = make(family, 3, **families_at(3)[family])
        lam = np.empty(batch + (3,))
        value, grad = f.value_grad(lam)
        assert value.shape == f.value(lam).shape == f.margin(lam).shape == batch
        assert grad.shape == f.grad(lam).shape == batch + (3,)
        assert cn.concavity_probe(f, lam, lam).shape == f.cone.margin(lam).shape == batch
        assert not f.cone.contains(lam).any()

    def test_tables_of_an_empty_batch(self):
        lam = np.empty((0, 3))
        assert cn._sigma_table(lam, 3).shape == (0, 4)
        assert cn.sigma_k(lam, 2).shape == (0,)
        assert cn.sigma_k(lam, range(1, 3)).shape == (0, 2)
        assert cn.sigma_deleted(lam, 1).shape == cn.q_inverse(lam).shape == (0, 3)

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_nan_still_refused(self, family):
        f = make(family, 3, **families_at(3)[family])
        with pytest.raises(cn.ConeDomainError, match=re.escape("at node (0,), flat index 0:")):
            f.value_grad(np.full((1, 3), np.nan))


class TestAgainstLastAxisFormulas:
    """Whole-plane tables and column folds give the last-axis formulas' bits.

    numpy sums fewer than 8 terms in index order, as the fold does, so below
    n = 8 every output is bit-identical whatever the input's layout.
    """

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_tables_bit_identical(self, n):
        lam = sample_cone(cn.Cone.gamma(1, n), 60, np.random.default_rng(n))
        for name, x in layouts(lam, n).items():
            ref = last_axis_table(x, n)
            np.testing.assert_array_equal(cn._sigma_table(x, n), ref, err_msg=name)
            np.testing.assert_array_equal(cn.sigma_k(x, range(1, n + 1)), ref[..., 1:], err_msg=name)
            np.testing.assert_array_equal(cn.sigma_k(x, range(2, n + 1, 2)), ref[..., 2::2], err_msg=name)
            for k in range(1, n + 1):
                np.testing.assert_array_equal(cn.sigma_k(x, k), ref[..., k], err_msg=name)
            for k in range(n):
                np.testing.assert_array_equal(cn.sigma_deleted(x, k), last_axis_deleted(x, k)[..., k],
                                              err_msg=name)
            np.testing.assert_array_equal(cn.q_inverse(x), summed_q_inverse(x), err_msg=name)

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_families_bit_identical(self, family, n):
        f = make(family, n, **families_at(n)[family])
        rng = np.random.default_rng(10 * n)
        lam, mu = sample_pairs(f.cone, 60, rng)
        mus = layouts(mu, n)
        for name, x in layouts(lam, n).items():
            y = mus[name][..., ::-1]  # reversed coordinates: a second point per node
            value, grad = reference_value_grad(f, x)
            got_value, got_grad = f.value_grad(x)
            np.testing.assert_array_equal(got_value, value, err_msg=name)
            np.testing.assert_array_equal(got_grad, grad, err_msg=name)
            np.testing.assert_array_equal(f.value(x), value, err_msg=name)
            np.testing.assert_array_equal(f.grad(x), grad, err_msg=name)
            np.testing.assert_array_equal(f.margin(x), reference_margin(f.cone, x), err_msg=name)
            np.testing.assert_array_equal(cn.concavity_probe(f, x, y), reference_probe(f, x, y),
                                          err_msg=name)

    def test_sums_of_eight_within_rounding(self):
        # numpy sums 8 or more terms pairwise, the fold in index order: the
        # two agree to n eps relative to the sum of magnitudes
        n, eps = 8, np.finfo(float).eps
        rng = np.random.default_rng(8)
        lam = np.exp(rng.uniform(-2.0, 2.0, size=(500, n)))
        for x in (lam, np.asfortranarray(lam)):
            scale = np.sum(np.abs(x), axis=-1, keepdims=True)
            assert np.all(np.abs(cn.q_inverse(x) - summed_q_inverse(x)) <= n * eps * scale)
            logs = np.sum(np.abs(np.log(x)), axis=-1)
            got = make("log-ma", n).value(x)
            assert np.all(np.abs(got - np.sum(np.log(x), axis=-1)) <= n * eps * logs)
            logs = np.log(cn.q_inverse(x))
            got = make("log-p", n).value(x)
            assert np.all(np.abs(got - np.sum(logs, axis=-1)) <= n * eps * np.sum(np.abs(logs), axis=-1))
            np.testing.assert_array_equal(make("log-ma", n).margin(x), reference_margin(cn.Cone.gamma(n, n), x))


class TestLogMAOrthant:
    """log-ma checks Gamma_n, the positive orthant, on the coordinates."""

    @staticmethod
    def folded_logs(lam):
        out = np.log(lam[..., 0])
        for j in range(1, lam.shape[-1]):
            out = out + np.log(lam[..., j])
        return out

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_value_grad_bit_identical(self, n):
        lam = sample_cone(cn.Cone.gamma(n, n), 60, np.random.default_rng(n))
        given = {name: x for name, x in layouts(lam, n).items() if name in ("C", "F", "eig_wrt_metric")}
        assert given["eig_wrt_metric"].strides[-1] > given["eig_wrt_metric"].strides[0]  # plane-first
        given.update(single=lam[0], empty=np.empty((0, 4, n)))
        for name, x in given.items():
            value, grad = make("log-ma", n).value_grad(x)
            np.testing.assert_array_equal(value, self.folded_logs(x), err_msg=name)
            np.testing.assert_array_equal(grad, 1.0 / x, err_msg=name)
            assert value.shape == x.shape[:-1] and grad.shape == x.shape, name

    def test_no_sigma_recurrence_inside_the_cone(self, monkeypatch):
        calls = []
        table = cn._sigma_table
        monkeypatch.setattr(cn, "_sigma_table", lambda *args: calls.append(args) or table(*args))
        f = make("log-ma", 3)
        lam = np.exp(np.random.default_rng(1).normal(size=(50, 3)))
        f.value_grad(lam)
        f.value(lam)
        f.grad(lam)
        assert calls == []
        lam[7, 1] = -1.0
        with pytest.raises(cn.ConeDomainError, match=re.escape("at node (7,), flat index 7: sigma_2 = ")):
            f.value_grad(lam)
        assert calls  # the table names the inequality of a refused point

    def test_sigma_n_underflow_is_inside(self):
        # sigma_2 = 1e-400 rounds to 0, so the sigma table reads no slack,
        # but both coordinates are positive: the point lies in Gamma_2
        f = make("log-ma", 2)
        lam = np.array([1e-200, 1e-200])
        value, grad = f.value_grad(lam)
        assert value == 2 * np.log(1e-200)
        np.testing.assert_array_equal(grad, [1e200, 1e200])
        assert f.margin(lam) == 0.0
        assert not f.cone.contains(lam)
        value, grad = f.value_grad(np.stack([lam, np.ones(2)]))
        np.testing.assert_array_equal(value, [2 * np.log(1e-200), 0.0])

    @pytest.mark.parametrize("point, text", [
        ([0.0, 1.0], "sigma_2 = 0, not > 0"),
        ([-0.0, 1.0], "sigma_2 = 0, not > 0"),
        ([math.inf, -1.0], "sigma_2 = -inf, not > 0"),
        ([1.0, math.nan], "sigma_1 = nan, not > 0"),
    ])
    def test_boundary_points_refused(self, point, text):
        with pytest.raises(cn.ConeDomainError, match=re.escape(f"point outside Gamma_2: {text}")):
            make("log-ma", 2).value_grad(point)

    def test_memory_is_the_outputs(self):
        # 2**16 plane-first points at n = 2: the value and gradient are
        # 1.5 MiB.  A sigma table (three planes) and its margin on top
        # reach 2 MiB.
        n, points = 2, 2**16
        lam = np.moveaxis(np.exp(np.random.default_rng(3).normal(size=(n, points))), 0, -1)
        outputs = 8 * (points + points * n)
        tracemalloc.start()
        try:
            make("log-ma", n).value_grad(lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < outputs + 2**18


class TestLogPColumnLogs:
    """log-p folds the logs of its deleted sums column by column; its bits
    are pinned by ``TestAgainstLastAxisFormulas``."""

    def test_value_forms_no_table_of_logs(self):
        # 2**16 plane-first points at n = 3: S = sum lam and the value are
        # 0.5 MiB each, and one column's deleted sum and its log 0.5 MiB
        # each.  A table of deleted sums (1.5 MiB) on top reaches 2.5 MiB,
        # and a table of logs more.
        n, points = 3, 2**16
        lam = np.moveaxis(np.exp(np.random.default_rng(3).normal(size=(n, points))), 0, -1)
        held = 8 * (points + points + 2 * points)
        tracemalloc.start()
        try:
            make("log-p", n).value(lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < held + 2**18


class TestLogPDeletedSums:
    """log-p checks the deleted-sum cone on S = sum lam and max lam, and
    forms each deleted sum S - lam_j one column at a time."""

    @staticmethod
    def reference(x):
        # the same formulas read off the whole deleted-sum table
        mu = cn.q_inverse(x)
        value = np.log(mu[..., 0])
        for j in range(1, x.shape[-1]):
            value = value + np.log(mu[..., j])
        return value, cn.q_inverse(1.0 / mu)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_value_grad_bit_identical(self, n):
        lam = sample_cone(cn.Cone.deleted_sum(n), 60, np.random.default_rng(n))
        assert n == 2 or np.any(lam < 0.0)  # P_1 is the orthant; P_{n-1} reaches beyond it
        given = {name: x for name, x in layouts(lam, n).items() if name in ("C", "F", "eig_wrt_metric")}
        assert given["eig_wrt_metric"].strides[-1] > given["eig_wrt_metric"].strides[0]  # plane-first
        given.update(single=lam[0], empty=np.empty((0, 4, n)))
        f = make("log-p", n)
        for name, x in given.items():
            value, grad = self.reference(x)
            got_value, got_grad = f.value_grad(x)
            np.testing.assert_array_equal(got_value, value, err_msg=name)
            np.testing.assert_array_equal(got_grad, grad, err_msg=name)
            np.testing.assert_array_equal(f.value(x), value, err_msg=name)
            np.testing.assert_array_equal(f.grad(x), grad, err_msg=name)
            assert got_value.shape == x.shape[:-1] and got_grad.shape == x.shape, name

    def test_no_deleted_sum_table_inside_the_cone(self, monkeypatch):
        f = make("log-p", 3)
        lam = sample_cone(f.cone, 50, np.random.default_rng(1))
        calls = []
        table = cn.q_inverse
        monkeypatch.setattr(cn, "q_inverse", lambda lam: calls.append(lam) or table(lam))
        f.value_grad(lam)
        f.value(lam)
        f.grad(lam)
        assert calls == []
        lam[7] = [1.0, 2.0, -3.0]
        with pytest.raises(cn.ConeDomainError,
                           match=re.escape("at node (7,), flat index 7: deleted sum 2 = -2, not > 0")):
            f.value_grad(lam)
        assert calls  # the table names the inequality of a refused point

    @pytest.mark.parametrize("point, text", [
        ([0.0, 1.0], "deleted sum 2 = 0, not > 0"),
        ([-0.0, 1.0], "deleted sum 2 = 0, not > 0"),
        ([math.inf, 1.0], "deleted sum 1 = nan, not > 0"),
        ([-math.inf, 1.0], "deleted sum 1 = nan, not > 0"),
        ([1.0, math.nan], "deleted sum 1 = nan, not > 0"),
    ])
    def test_boundary_points_refused(self, point, text):
        for entry in ("value", "grad", "value_grad"):
            with pytest.raises(cn.ConeDomainError, match=re.escape(f"point outside P_1: {text}")):
                getattr(make("log-p", 2), entry)(point)

    def test_batched_refusal_names_node(self):
        lam = np.ones((4, 5, 3))
        lam[2, 3] = [1.0, 1.0, -2.0]
        lam[3, 1] = np.nan
        with pytest.raises(cn.ConeDomainError, match=re.escape(
                "point outside P_2 at node (2, 3), flat index 13: deleted sum 1 = -1, not > 0")):
            make("log-p", 3).value_grad(lam)

    def test_memory_is_the_outputs_and_two_planes(self):
        # 2**16 plane-first points at n = 3: the value and gradient are
        # 2 MiB, and S and the fold of the reciprocals 0.5 MiB each.  A
        # deleted-sum table (1.5 MiB) on top reaches 3.5 MiB.
        n, points = 3, 2**16
        lam = np.moveaxis(np.exp(np.random.default_rng(3).normal(size=(n, points))), 0, -1)
        outputs = 8 * (points + points * n)
        tracemalloc.start()
        try:
            make("log-p", n).value_grad(lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < outputs + 8 * 2 * points + 2**18


class TestOneConeCheck:
    """``ConeFunction._check`` is the one cone check of every family.  It
    accepts a point only where the family's acceptance plane is > 0 and
    finite, names the first refused node off that plane, and reads the
    violated inequality off that point alone, with no RuntimeWarning."""

    POINTS = {
        "+inf": [1.0, math.inf, 1.0],
        "-inf": [1.0, -math.inf, 1.0],
        "nan": [1.0, 1.0, math.nan],
        # sigma_2 and sigma_3 overflow; sum lam does not
        "products overflow": [1e200, 1e200, 1e200],
        # sum lam overflows, and so does sigma_1
        "sum overflows": [1e308, 1e308, 1.0],
    }
    REFUSED = [
        ("log-ma", "+inf", "Gamma_3: sigma_1 = inf, not finite"),
        ("log-ma", "-inf", "Gamma_3: sigma_1 = -inf, not > 0"),
        ("log-ma", "nan", "Gamma_3: sigma_1 = nan, not > 0"),
        ("sigma-k-root", "+inf", "Gamma_3: sigma_1 = inf, not finite"),
        ("sigma-k-root", "-inf", "Gamma_3: sigma_1 = -inf, not > 0"),
        ("sigma-k-root", "nan", "Gamma_3: sigma_1 = nan, not > 0"),
        ("sigma-k-root", "products overflow", "Gamma_3: sigma_2 = inf, not finite"),
        ("log-sigma-k", "+inf", "Gamma_2: sigma_1 = inf, not finite"),
        ("log-sigma-k", "-inf", "Gamma_2: sigma_1 = -inf, not > 0"),
        ("log-sigma-k", "nan", "Gamma_2: sigma_1 = nan, not > 0"),
        ("log-sigma-k", "products overflow", "Gamma_2: sigma_2 = inf, not finite"),
        ("quotient-root", "+inf", "Gamma_3: sigma_1 = inf, not finite"),
        ("quotient-root", "-inf", "Gamma_3: sigma_1 = -inf, not > 0"),
        ("quotient-root", "nan", "Gamma_3: sigma_1 = nan, not > 0"),
        ("quotient-root", "products overflow", "Gamma_3: sigma_2 = inf, not finite"),
        ("log-p", "+inf", "P_2: deleted sum 2 = nan, not > 0"),
        ("log-p", "-inf", "P_2: deleted sum 2 = nan, not > 0"),
        ("log-p", "nan", "P_2: deleted sum 1 = nan, not > 0"),
        ("log-p", "sum overflows", "P_2: deleted sum 1 = inf, not finite"),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    @pytest.mark.parametrize("entry", ["value", "grad", "value_grad"])
    @pytest.mark.parametrize("family, point, text", REFUSED)
    def test_refused_by_name(self, family, point, text, entry, batched):
        f = make(family, 3, **families_at(3)[family])
        lam = np.array(self.POINTS[point])
        cone, inequality = text.split(": ")
        message = f"point outside {cone}: {inequality}"
        if batched:
            batch = np.ones((2, 4, 3))
            batch[1, 2] = lam
            lam, message = batch, f"point outside {cone} at node (1, 2), flat index 6: {inequality}"
        with pytest.raises(cn.ConeDomainError, match="^" + re.escape(message) + "$"):
            getattr(f, entry)(lam)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family, point", [("log-ma", "products overflow"), ("log-ma", "sum overflows"),
                                               ("log-p", "products overflow")])
    def test_own_rule_has_nothing_to_overflow(self, family, point):
        # log-ma reads lam alone, and log-p reads sum lam: a sigma table
        # that overflows is no part of their rules
        f, lam = make(family, 3), np.array(self.POINTS[point])
        value, grad = f.value_grad(lam)
        assert np.isfinite(value) and np.isfinite(grad).all()
        np.testing.assert_array_equal(f.value(np.stack([np.ones(3), lam])), [f.value(np.ones(3)), value])

    def test_refused_node_is_the_familys_own(self):
        # node 2's sigma_2 underflows to 0, but both coordinates are
        # positive: log-ma accepts it and refuses node 5
        lam = np.ones((6, 2))
        lam[2] = 1e-200
        lam[5] = (1.0, -1.0)
        message = "point outside Gamma_2 at node (5,), flat index 5: sigma_1 = 0, not > 0"
        for entry in ("value", "grad", "value_grad"):
            with pytest.raises(cn.ConeDomainError, match="^" + re.escape(message) + "$"):
                getattr(make("log-ma", 2), entry)(lam)

    @pytest.mark.filterwarnings("error")
    def test_margin_keeps_its_values_without_warning(self):
        assert np.isnan(cn.Cone.deleted_sum(2).margin([math.inf, 1.0]))
        np.testing.assert_array_equal(cn.Cone.deleted_sum(3).margin([[math.inf, 1.0, 1.0], [1.0, 2.0, 3.0]]),
                                      [np.nan, 3.0])
        # sigma_2 overflows, but the margin is still the smallest slack,
        # sigma_1, and the point lies in the cone; the function refuses it
        f = make("sigma-k-root", 3, k=3)
        assert f.margin(self.POINTS["products overflow"]) == 3e200
        assert f.cone.contains(self.POINTS["products overflow"])

    def test_no_family_has_a_check_of_its_own(self):
        assert [name for name, family in cn.FAMILIES.items() if "_check" in vars(family)] == []


class TestFiniteOutputs:
    """A point inside the cone can still overflow an output: ``value``,
    ``grad`` and ``value_grad`` refuse an output that is not finite with
    :class:`ConeDomainError` naming it and its node, with no RuntimeWarning,
    and return every finite one."""

    # points the one cone check accepts, and the output each entry point
    # refuses there
    GRADIENT = {"grad": "gradient", "value_grad": "gradient"}
    CASES = [
        ("log-ma", {}, [5e-324, 1.0, 1.0], GRADIENT),  # 1/lam_1
        ("log-sigma-k", {"k": 3}, [5e-324, 1.0, 1.0], GRADIENT),  # sigma_2(1, 1)/sigma_3
        # the deleted sum S - lam_1, whose reciprocal would enter the
        # gradient as 0: the gradient alone is refused too
        ("log-p", {}, [-1.4e308, 1.5e308, 1.5e308], {"value": "value", "grad": "gradient", "value_grad": "value"}),
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    @pytest.mark.parametrize("entry", ["value", "grad", "value_grad"])
    @pytest.mark.parametrize("family, kw, point, refused", CASES, ids=[case[0] for case in CASES])
    def test_refused_by_name(self, family, kw, point, refused, entry, batched):
        f = make(family, 3, **kw)
        lam, where = np.array(point), ""
        if batched:
            lam = np.ones((2, 4, 3))
            lam[1, 2] = point
            where = " at node (1, 2), flat index 6"
        if entry in refused:
            message = f"{f.describe()} {refused[entry]}{where} is not finite: "
            with pytest.raises(cn.ConeDomainError, match="^" + re.escape(message)):
                getattr(f, entry)(lam)
        else:
            assert np.isfinite(getattr(f, entry)(lam)).all()

    @pytest.mark.filterwarnings("error")
    def test_a_sum_that_overflows_from_finite_entries_is_accepted(self):
        # each gradient entry is 1e308; their sum overflows, the entries do not
        value, grad = make("log-ma", 2).value_grad(np.full((2, 2), 1e-308))
        np.testing.assert_array_equal(grad, np.full((2, 2), 1e308))
        assert np.isfinite(value).all()


@pytest.mark.usefixtures("two_cpus")
class TestProbeLanes:
    """``concavity_probe`` cuts its flattened batch into ranges of
    ``2 * _ROW_BLOCK`` points, taken by the calling thread and one helper
    thread; its slacks, errors and threads are those of one pass."""

    BLOCK = 8  # ranges of 16 points: 60 points are three ranges and a tail of 12

    @staticmethod
    def pairs(f, n, count=60):
        lam, mu = sample_pairs(f.cone, count, np.random.default_rng(100 + n))
        mus = layouts(mu, n)
        return {name: (x, mus[name][..., ::-1]) for name, x in layouts(lam, n).items()}

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_slacks_do_not_depend_on_the_lane_or_the_range(self, family, n, monkeypatch):
        f = make(family, n, **families_at(n)[family])
        for name, (lam, mu) in self.pairs(f, n).items():
            assert lam.size >= 3 * 2 * self.BLOCK * n + n, name
            monkeypatch.setattr(cn, "_ROW_BLOCK", 10**9)  # one range, on the caller alone
            one_pass = cn.concavity_probe(f, lam, mu)
            monkeypatch.setattr(cn, "_ROW_BLOCK", self.BLOCK)
            two_lanes = cn.concavity_probe(f, lam, mu)
            with monkeypatch.context() as patch:
                patch.setattr(er, "_helper_lane", InlineLane())
                helper_first = cn.concavity_probe(f, lam, mu)
            for got in (one_pass, two_lanes, helper_first):
                assert got.shape == lam.shape[:-1], name
                np.testing.assert_array_equal(got, reference_probe(f, lam, mu), err_msg=name)

    def test_ranges_cover_the_batch_once(self, monkeypatch):
        f = make("quotient-root", 6, k=3, l=1)
        lam, mu = self.pairs(f, 6)["C"]
        sizes, slack = [], cn._slack
        monkeypatch.setattr(cn, "_slack", lambda f, lam, mu: sizes.append(len(lam)) or slack(f, lam, mu))
        monkeypatch.setattr(cn, "_ROW_BLOCK", self.BLOCK)
        cn.concavity_probe(f, lam, mu)
        assert sorted(sizes) == [12, 16, 16, 16]

    @pytest.mark.parametrize("refused", [("lam", 50), ("mu", 50), ("lam", 50, "mu", 5)],
                             ids=["lam", "mu", "lam-after-mu"])
    @pytest.mark.parametrize("helper", ["inline", "thread"])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_a_refused_range_raises_the_one_pass_message(self, family, helper, refused, monkeypatch):
        # the inline helper takes every range; the thread takes some.  A
        # point refused in lam names lam's node even where mu has an
        # earlier refused point, in a range a lane took first
        f = make(family, 3, **families_at(3)[family])
        points = dict(zip(("lam", "mu"), (x.copy() for x in self.pairs(f, 3)["C"])))
        for which, node in zip(refused[::2], refused[1::2]):
            points[which][node] = -1.0
        lam, mu = points["lam"], points["mu"]
        with pytest.raises(cn.ConeDomainError) as one_pass:
            f.value_grad(lam) if refused[0] == "lam" else f.value(mu)
        monkeypatch.setattr(cn, "_ROW_BLOCK", self.BLOCK)
        if helper == "inline":
            monkeypatch.setattr(er, "_helper_lane", InlineLane())
        with pytest.raises(cn.ConeDomainError) as lanes:
            cn.concavity_probe(f, lam, mu)
        assert str(lanes.value) == str(one_pass.value)
        assert f"at node ({refused[1]},), flat index {refused[1]}: " in str(lanes.value)

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_single_vector_and_empty_batch(self, family, monkeypatch):
        monkeypatch.setattr(cn, "_ROW_BLOCK", 1)
        f = make(family, 3, **families_at(3)[family])
        lam = 1.0 + np.arange(3) / 3
        assert type(cn.concavity_probe(f, lam, lam[::-1])) is np.float64
        for batch in [(0,), (3, 0)]:
            empty = np.empty(batch + (3,))
            assert cn.concavity_probe(f, empty, empty).shape == batch

    def test_probe_memory_stays_within_two_ranges(self):
        # 100,000 points at n = 6.  One pass held each family's full-size
        # planes, 13.8 to 19.1 MiB; with ranges, the result (0.8 MB) and two
        # ranges' evaluations, under 3 MiB each, are in flight.
        rng = np.random.default_rng(43)
        lam, mu = (rng.uniform(1.0, 2.0, (100_000, 6)) for _ in range(2))
        for f in (make("sigma-k-root", 6, k=3), make("quotient-root", 6, k=3, l=1), make("log-sigma-k", 6, k=4)):
            tracemalloc.start()
            try:
                slack = cn.concavity_probe(f, lam, mu)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < slack.nbytes + 6 * 2**20, f.describe()

    def test_one_helper_thread_at_most(self, monkeypatch):
        monkeypatch.setattr(cn, "_ROW_BLOCK", self.BLOCK)
        before = threading.active_count()
        for family in FAMILY_NAMES:
            f = make(family, 3, **families_at(3)[family])
            for lam, mu in self.pairs(f, 3).values():
                cn.concavity_probe(f, lam, mu)
        assert threading.active_count() <= before + 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_a_forked_child_runs_a_probe(self, monkeypatch):
        # the parent's helper thread is running; in the child it does not exist
        monkeypatch.setattr(cn, "_ROW_BLOCK", self.BLOCK)
        f = make("log-sigma-k", 6, k=4)
        lam, mu = self.pairs(f, 6)["C"]
        ref = cn.concavity_probe(f, lam, mu)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # a fork with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(30)  # a child whose ranges never run ends here
                code = 0 if np.array_equal(cn.concavity_probe(f, lam, mu), ref) else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


def outcome(call, lam):
    """("raised", message) of a call refused with ConeDomainError, or
    ("returned", outputs) with each output's bits and shape."""
    try:
        got = call(lam)
    except cn.ConeDomainError as exc:
        return "raised", str(exc)
    return "returned", [(np.asarray(x).tobytes(), np.shape(x)) for x in (got if type(got) is tuple else (got,))]


@pytest.mark.usefixtures("two_cpus")
class TestConeLanes:
    """``value``, ``grad`` and ``value_grad`` cut their flattened batch into
    ranges of ``16 * _ROW_BLOCK`` points, taken by the calling thread and one
    helper thread, each range writing its own slice of the outputs; their
    outputs, errors and threads are those of one pass."""

    BLOCK = 1  # ranges of 16 points: 60 points are three ranges and a tail of 12
    ENTRIES = ("value", "grad", "value_grad")
    # points inside each family's cone at n = 3 where an output overflows
    OVERFLOW = {
        "log-ma": [5e-324, 1.0, 1.0],  # 1 / lam_1
        "sigma-k-root": [1e-320, 1e150, 1e150],  # sigma_3^(-2/3) sigma_2(lam_2, lam_3)
        "log-sigma-k": [1.0, 1e-310, 1e-310],  # sigma_1(lam_1, lam_3) / sigma_2
        "quotient-root": [1e-320, 1e150, 1e150],  # sigma_2(lam_2, lam_3) / sigma_3
        "log-p": [-1.4e308, 1.5e308, 1.5e308],  # the deleted sum S - lam_1
    }

    @staticmethod
    def outputs(f, lam):
        return [f.value(lam), f.grad(lam), *f.value_grad(lam)]

    @staticmethod
    def spy_ranges(monkeypatch):
        """The batch shapes that ``_evaluate`` runs on, with the thread of each."""
        ranges, evaluate = [], cn.ConeFunction._evaluate

        def spy(self, lam, names, outputs):
            ranges.append((lam.shape[:-1], threading.get_ident()))
            return evaluate(self, lam, names, outputs)

        monkeypatch.setattr(cn.ConeFunction, "_evaluate", spy)
        return ranges

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_outputs_do_not_depend_on_the_lane_or_the_range(self, family, n, monkeypatch):
        f = make(family, n, **families_at(n)[family])
        lam = sample_cone(f.cone, 60, np.random.default_rng(200 + n))
        # a Fortran-order batch of two axes: neither lam nor the gradient
        # can be viewed as rows, and a deleted plane is written through a copy
        given = layouts(lam, n) | {"F-batch": np.asfortranarray(lam.reshape(4, 15, n))}
        for name, x in given.items():
            monkeypatch.setattr(cn, "_ROW_BLOCK", 10**9)  # one range, on the caller alone
            one_pass = self.outputs(f, x)
            value, grad = reference_value_grad(f, x)
            for got, want in zip(one_pass, [value, grad, value, grad]):
                np.testing.assert_array_equal(got, want, err_msg=name)
            monkeypatch.setattr(cn, "_ROW_BLOCK", self.BLOCK)
            two_lanes = self.outputs(f, x)
            with monkeypatch.context() as patch:
                patch.setattr(er, "_helper_lane", InlineLane())
                helper_first = self.outputs(f, x)
            for got in (two_lanes, helper_first):
                for a, b in zip(got, one_pass, strict=True):
                    assert a.shape == b.shape, name
                    np.testing.assert_array_equal(a, b, err_msg=name)
                    if family in ("log-ma", "log-p"):
                        assert a.strides == b.strides, name

    def test_ranges_cover_the_batch_once(self, monkeypatch):
        f = make("quotient-root", 6, k=3, l=1)
        lam = sample_cone(f.cone, 60, np.random.default_rng(206))
        monkeypatch.setattr(cn, "_ROW_BLOCK", self.BLOCK)
        ranges = self.spy_ranges(monkeypatch)
        cuts = {"C": [(12,), (16,), (16,), (16,)], "F": [(12,), (16,), (16,), (16,)],
                "strided": [(12,), (16,), (16,), (16,)], "eig_wrt_metric": [(16,)] * 4,
                "broadcast": [(60, 2)], "F-batch": [(4, 15)]}  # no view as rows: one range
        for name, x in (layouts(lam, 6) | {"F-batch": np.asfortranarray(lam.reshape(4, 15, 6))}).items():
            for entry in self.ENTRIES:
                ranges.clear()
                getattr(f, entry)(x)
                assert sorted(shape for shape, _ in ranges) == cuts[name], (name, entry)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("helper", ["inline", "thread"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "outside", "overflow"])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_a_refusal_in_the_last_range_raises_the_one_pass_message(self, family, bad, helper, monkeypatch):
        # node (3, 10), flat index 55, lies in the tail range, points 48..59
        f = make(family, 3, **families_at(3)[family])
        lam = sample_cone(f.cone, 60, np.random.default_rng(7)).reshape(4, 15, 3)
        lam[3, 10] = {"nan": [1.0, math.nan, 1.0], "inf": [1.0, math.inf, 1.0], "outside": [-1.0, -1.0, -1.0],
                      "overflow": self.OVERFLOW[family]}[bad]
        raised = 0
        for entry in self.ENTRIES:
            monkeypatch.setattr(cn, "_ROW_BLOCK", 10**9)
            one_pass = outcome(getattr(f, entry), lam)
            monkeypatch.setattr(cn, "_ROW_BLOCK", self.BLOCK)
            with monkeypatch.context() as patch:
                if helper == "inline":
                    patch.setattr(er, "_helper_lane", InlineLane())
                assert outcome(getattr(f, entry), lam) == one_pass, entry
            if one_pass[0] == "raised":
                raised += 1
                assert " at node (3, 10), flat index 55" in one_pass[1]
        assert raised == 3 if bad != "overflow" else raised >= 1

    def test_one_cpu_runs_every_range_on_the_caller(self, monkeypatch):
        f = make("log-p", 3)
        lam = sample_cone(f.cone, 60, np.random.default_rng(8))
        monkeypatch.setattr(cn, "_ROW_BLOCK", self.BLOCK)
        two_lanes = self.outputs(f, lam)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(er, "_helper_lane", NoHelper())
        ranges = self.spy_ranges(monkeypatch)
        for got, want in zip(self.outputs(f, lam), two_lanes, strict=True):
            np.testing.assert_array_equal(got, want)
        assert len(ranges) == 3 * 4 and {thread for _, thread in ranges} == {threading.get_ident()}

    def test_a_call_from_inside_a_lane_hands_no_range_to_the_helper(self, monkeypatch):
        f = make("log-ma", 2)
        lam = sample_cone(f.cone, 60, np.random.default_rng(9))
        monkeypatch.setattr(cn, "_ROW_BLOCK", self.BLOCK)
        want = f.value_grad(lam)
        monkeypatch.setattr(er, "_helper_lane", NoHelper())
        ranges = self.spy_ranges(monkeypatch)
        # one range of the outer call runs on the caller, inside a lane
        got = er._on_two_lanes(1, 1, lambda lo, hi: f.value_grad(lam))[0]
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)
        assert len(ranges) == 4 and {thread for _, thread in ranges} == {threading.get_ident()}

    def test_one_helper_thread_at_most(self, monkeypatch):
        monkeypatch.setattr(cn, "_ROW_BLOCK", self.BLOCK)
        before = threading.active_count()
        for family in FAMILY_NAMES:
            f = make(family, 3, **families_at(3)[family])
            for x in layouts(sample_cone(f.cone, 60, np.random.default_rng(10)), 3).values():
                self.outputs(f, x)
        assert threading.active_count() <= before + 1

    @staticmethod
    def scratch(f, entry, lam):
        """Traced peak of one call beyond the outputs it returns."""
        tracemalloc.start()
        try:
            got = getattr(f, entry)(lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(x.nbytes for x in (got if type(got) is tuple else (got,)))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_scratch_stays_within_two_ranges(self, n, monkeypatch):
        # ranges of 4096 points and a batch of three and a half: one range
        # holds its share of the planes a pass forms, and at most two ranges
        # are in flight.  One pass formed them full size, 2.2 to 3.5 times a
        # range's scratch wherever it had any.
        monkeypatch.setattr(cn, "_ROW_BLOCK", 256)
        step = 16 * 256
        lam = np.exp(np.random.default_rng(n).uniform(0.0, 1.0, (7 * step // 2, n)))
        for family, kw in families_at(n).items():
            f = make(family, n, **kw)
            for entry in self.ENTRIES:
                one = self.scratch(f, entry, lam[:step])
                assert self.scratch(f, entry, lam) < 2 * one + 2**15, (family, entry)
