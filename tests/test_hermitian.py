"""Bordered-matrix eigenvalue concentration: oracles, lemmas, properties."""
import math

import numpy as np
import pytest

from hessianforge import hermitian as hm


def rand_spec(rng, n, eps, aa=None):
    d = rng.uniform(-2, 2, n - 1)
    a = rng.uniform(-2, 2, n - 1) + 1j * rng.uniform(-2, 2, n - 1)
    if aa is None:
        aa = hm.growth_threshold_main(eps, d, a)
    return hm.BorderedSpec(d, a, aa, eps)


class TestEigh:
    """Spectra of bordered matrices, read with LAPACK's eigvalsh."""

    def test_quadratic_oracle(self):
        # roots of lam^2 - 12 lam + 10, frozen from the characteristic polynomial
        lo, hi = 6 - math.sqrt(26), 6 + math.sqrt(26)
        got = np.linalg.eigvalsh(hm.bordered(hm.BorderedSpec([1.0], [1.0], 11.0, 0.1)))
        np.testing.assert_allclose(got, [lo, hi], atol=1e-12)
        np.testing.assert_allclose(got, [0.90098, 11.09902], atol=1e-5)

    def test_zero_border_is_exact(self):
        spec = hm.BorderedSpec([1.0, 2.0], [0.0, 0.0], 5.0, 0.1)
        np.testing.assert_allclose(np.linalg.eigvalsh(hm.bordered(spec)), [1, 2, 5], atol=1e-14)

    def test_trace_identity(self):
        rng = np.random.default_rng(0)
        for n in (2, 4, 7):
            spec = rand_spec(rng, n, 0.1)
            m = hm.bordered(spec)
            eigs = np.linalg.eigvalsh(m)
            assert abs(eigs.sum() - np.trace(m).real) <= 1e-10 * np.linalg.norm(m)


class TestBordered:
    def test_direct_assembly_2x2(self):
        spec = hm.BorderedSpec([1.0], [1.0], 11.0, 0.1)
        np.testing.assert_array_equal(hm.bordered(spec), [[1, 1], [1, 11]])

    def test_zero_matrix(self):
        spec = hm.BorderedSpec([0.0, 0.0], [0.0, 0.0], 0.0, 1.0)
        np.testing.assert_array_equal(hm.bordered(spec), np.zeros((3, 3)))

    def test_complex_border(self):
        spec = hm.BorderedSpec([1.0, -1.0], [1.0, 1j], 24.1, 0.3)
        m = hm.bordered(spec)
        assert m[0, 2] == 1.0 and m[1, 2] == 1j
        assert m[2, 0] == 1.0 and m[2, 1] == -1j
        np.testing.assert_allclose(m, m.conj().T)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        d = rng.normal(size=(5, 3))
        a = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        aa = rng.normal(size=5)
        batch = hm.bordered_batch(d, a, aa)
        for t in range(5):
            single = hm.bordered(hm.BorderedSpec(d[t], a[t], aa[t], 1.0))
            np.testing.assert_array_equal(batch[t], single)

    @pytest.mark.parametrize("eps", [-0.1, 0.0, math.nan, math.inf])
    def test_validation(self, eps):
        with pytest.raises(hm.ValidationError, match="eps must be finite and positive"):
            hm.BorderedSpec([1.0], [1.0], 0.0, eps)
        with pytest.raises(hm.ValidationError):
            hm.BorderedSpec([], [], 0.0, 0.1)


class TestThresholds:
    def test_main_n2(self):
        assert hm.growth_threshold_main(0.1, [1.0], [1.0]) == pytest.approx(11.0)

    def test_main_n3(self):
        got = hm.growth_threshold_main(0.3, [1.0, -1.0], [1.0, 1j])
        assert got == pytest.approx(3 / 0.3 * 2 + 2 * 2 + 0.3 / 3)
        assert got == pytest.approx(24.1)

    def test_main_vanishing_data(self):
        for n in (2, 3, 5):
            eps = 0.7
            got = hm.growth_threshold_main(eps, np.zeros(n - 1), np.zeros(n - 1))
            assert got == pytest.approx((n - 2) * eps / (2 * n - 3))

    def test_refined_n3(self):
        got = hm.growth_threshold_refined(0.3, [1.0, -1.0], [1.0, 1j])
        assert got == pytest.approx(2 / 0.3 + 2 + 0.3)

    def test_refined_n2(self):
        assert hm.growth_threshold_refined(0.1, [1.0], [1.0]) == pytest.approx(11.0)

    def test_refined_vanishing_data(self):
        for n in (2, 4):
            eps = 0.2
            got = hm.growth_threshold_refined(eps, np.zeros(n - 1), np.zeros(n - 1))
            assert got == pytest.approx((n - 2) * eps)

    def test_monotone_decreasing_in_eps(self):
        d, a = [1.0, 2.0], [2.0, 1j]
        vals = [hm.growth_threshold_main(e, d, a) for e in (0.05, 0.1, 0.2, 0.4)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("threshold", [hm.growth_threshold_main, hm.growth_threshold_refined])
    def test_stacked_rows_match_row_by_row(self, threshold):
        # n comes from the row length, not from the size of the whole stack
        rng = np.random.default_rng(17)
        d = rng.uniform(-2.0, 2.0, (40, 4))
        a = rng.uniform(-1.0, 1.0, (40, 4)) + 1j * rng.uniform(-1.0, 1.0, (40, 4))
        stacked = threshold(0.3, d, a)
        assert stacked.shape == (40,)
        np.testing.assert_array_equal(stacked, [threshold(0.3, d[t], a[t]) for t in range(40)])

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_eps(self, eps):
        for threshold in (hm.growth_threshold_main, hm.growth_threshold_refined):
            with pytest.raises(hm.ValidationError, match="eps must be finite and positive"):
                threshold(eps, [1.0], [1.0])
        with pytest.raises(hm.ValidationError, match="eps must be finite and positive"):
            hm.lemma_trial_batch(3, eps, 10, 1)


class TestConcentrationReport:
    def test_n2_oracle(self):
        # eigenvalues 6 +- sqrt(26); deviation and corner excess coincide (trace)
        spec = hm.BorderedSpec([1.0], [1.0], 11.0, 0.1)
        rep = hm.concentration_report(spec)
        dev = 1.0 - (6 - math.sqrt(26))
        np.testing.assert_allclose(rep.deviations, [dev], atol=1e-12)
        assert rep.corner_excess == pytest.approx(dev, abs=1e-12)
        assert rep.passed_main and rep.passed_refined

    def test_n2_trace_identity(self):
        # d1 - lambda_1 equals lambda_2 - aa exactly, by the trace
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = rand_spec(rng, 2, 0.05)
            eigs = np.linalg.eigvalsh(hm.bordered(spec))
            assert spec.d[0] - eigs[0] == pytest.approx(eigs[1] - spec.aa, abs=1e-10)

    def test_exact_diagonal(self):
        spec = hm.BorderedSpec([1.0, 2.0], [0.0, 0.0], 30.0, 0.1)
        rep = hm.concentration_report(spec)
        np.testing.assert_allclose(rep.deviations, 0.0, atol=1e-13)
        assert rep.corner_excess == pytest.approx(0.0, abs=1e-13)
        assert rep.component_counts.sum() == 2

    def test_largest_eigenvalue_dominates_corner_always(self):
        # holds threshold or not: diagonal entries never exceed the top eigenvalue
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(2, 7)
            spec = rand_spec(rng, n, 0.1, aa=float(rng.uniform(-5, 5)))
            rep = hm.concentration_report(spec)
            assert rep.corner_excess >= -1e-12


class TestIntervalComponents:
    def test_disjoint(self):
        comps = hm.interval_components([0.0, 5.0], 0.5)
        assert comps == [(-0.5, 0.5), (4.5, 5.5)]

    def test_merged(self):
        comps = hm.interval_components([1.0, 1.01], 0.5)
        assert len(comps) == 1

    def test_touching_intervals_stay_separate(self):
        comps = hm.interval_components([0.0, 1.0], 0.5)
        assert len(comps) == 2

    @pytest.mark.parametrize("d, radius", [
        ([], 0.1), ([0.0, math.nan], 0.1), ([0.0, math.inf], 0.1),
        ([0.0, 1.0], -1.0), ([0.0, 1.0], 0.0), ([0.0, 1.0], math.nan), ([0.0, 1.0], math.inf),
    ], ids=["empty", "nan-centre", "inf-centre", "negative-radius", "zero-radius", "nan-radius", "inf-radius"])
    def test_refuses_bad_input(self, d, radius):
        with pytest.raises(hm.ValidationError):
            hm.interval_components(d, radius)


class TestCountStability:
    def test_separated_counts(self):
        spec = hm.BorderedSpec([0.0, 5.0], [1.0, 1.0], 0.0, 0.5)
        thr = hm.growth_threshold_main(0.5, spec.d, spec.a)
        rows = hm.count_stability_scan(spec, [thr, 2 * thr, 10 * thr])
        assert rows.shape == (3, 2)
        for row in rows:
            np.testing.assert_array_equal(row, [1, 1])

    def test_single_point_grid(self):
        spec = hm.BorderedSpec([0.0, 5.0], [1.0, 1.0], 0.0, 0.5)
        thr = hm.growth_threshold_main(0.5, spec.d, spec.a)
        rows = hm.count_stability_scan(spec, thr)
        assert rows.shape == (1, 2)

    def test_merged_component(self):
        spec = hm.BorderedSpec([1.0, 1.01], [1.0, 1.0], 0.0, 0.5)
        thr = hm.growth_threshold_main(0.5, spec.d, spec.a)
        rows = hm.count_stability_scan(spec, thr * np.array([1.0, 2.0, 4.0]))
        assert rows.shape[1] == 1
        for row in rows:
            np.testing.assert_array_equal(row, [2])

    @pytest.mark.parametrize("corner", [1.0, math.nan, math.inf, -math.inf])
    def test_refuses_below_threshold(self, corner):
        spec = hm.BorderedSpec([0.0, 5.0], [1.0, 1.0], 0.0, 0.5)
        thr = hm.growth_threshold_main(0.5, spec.d, spec.a)
        with pytest.raises(hm.ValidationError, match=rf"corner values \[{corner}\] .*threshold"):
            hm.count_stability_scan(spec, [thr, corner])

    def test_counts_constant_along_rays(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            spec = rand_spec(rng, n, 0.2)
            thr = hm.growth_threshold_main(0.2, spec.d, spec.a)
            rows = hm.count_stability_scan(spec, thr * 2.0 ** np.arange(8))
            assert (rows == rows[0]).all()

    def test_matches_per_corner_reports(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 6):
            spec = rand_spec(rng, n, 0.2)
            aa_grid = spec.aa * rng.uniform(1.0, 10.0, 16)
            rows = hm.count_stability_scan(spec, aa_grid)
            ref = [
                hm.concentration_report(hm.BorderedSpec(spec.d, spec.a, aa, spec.eps)).component_counts
                for aa in aa_grid
            ]
            np.testing.assert_array_equal(rows, ref)


class TestLemmaProperties:
    """Randomized batteries for the two concentration lemmas."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("eps", [0.5, 0.01])
    def test_main_lemma_zero_violations(self, n, eps):
        out = hm.lemma_trial_batch(n, eps, trials=2000, seed=42)
        assert out["violations"] == 0
        assert out["worst_deviation"] < eps
        assert 0 <= out["worst_corner_excess"] < (n - 1) * eps

    @pytest.mark.parametrize("factor", [1.0, 2.0, 10.0])
    def test_main_lemma_any_larger_corner(self, factor):
        out = hm.lemma_trial_batch(4, 0.1, trials=1500, seed=5, aa_factor=factor)
        assert out["violations"] == 0

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_empty_battery(self, trials):
        with pytest.raises(hm.ValidationError, match="trials"):
            hm.lemma_trial_batch(3, 0.1, trials=trials, seed=1)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("eps", [0.5, 0.01])
    def test_refined_lemma_zero_violations(self, n, eps):
        out = hm.lemma_trial_batch(n, eps, trials=2000, seed=9, refined=True)
        assert out["violations"] == 0

    def test_report_agrees_with_batch(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            spec = rand_spec(rng, n, 0.1)
            rep = hm.concentration_report(spec)
            assert rep.passed_main and rep.passed_refined
