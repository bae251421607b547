"""Bordered-matrix eigenvalue concentration: oracles, lemmas, properties."""
import math
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

from hessianforge import errors as er
from hessianforge import hermitian as hm


def rand_spec(rng, n, eps, aa=None):
    d = rng.uniform(-2, 2, n - 1)
    a = rng.uniform(-2, 2, n - 1) + 1j * rng.uniform(-2, 2, n - 1)
    if aa is None:
        aa = hm.growth_threshold_main(eps, d, a)
    return hm.BorderedSpec(d, a, aa, eps)


def matrix(spec):
    """The bordered matrix of one spec, as a row of the batched assembly."""
    return hm.bordered_batch(spec.d[None], spec.a[None], [spec.aa])[0]


def conclusions(spec):
    """(eigenvalues, main deviations, corner excess, main passed, refined
    passed) of one spec, read from its real arrowhead spectrum."""
    eigs = hm._spectra(spec.d[None], spec.a[None], [spec.aa])[0]
    ds = np.sort(spec.d)
    small, corner = eigs[:-1], eigs[-1] - spec.aa
    dev, main = hm._main_conclusion(spec.eps, ds, small, corner)
    refined = hm._refined_conclusion(spec.eps, ds, small, corner)[2]
    return eigs, dev, corner, bool(main), bool(refined)


def component_counts(spec, eigs):
    """Eigenvalues in each component of the intervals (d_i +- eps/(2n-3))."""
    return hm._component_counts(eigs, hm.interval_components(spec.d, spec.eps / (2 * spec.n - 3)))


class TestEigh:
    """Spectra of bordered matrices, read with LAPACK's eigvalsh."""

    def test_quadratic_oracle(self):
        # roots of lam^2 - 12 lam + 10, frozen from the characteristic polynomial
        lo, hi = 6 - math.sqrt(26), 6 + math.sqrt(26)
        got = np.linalg.eigvalsh(matrix(hm.BorderedSpec([1.0], [1.0], 11.0, 0.1)))
        np.testing.assert_allclose(got, [lo, hi], atol=1e-12)
        np.testing.assert_allclose(got, [0.90098, 11.09902], atol=1e-5)

    def test_zero_border_is_exact(self):
        spec = hm.BorderedSpec([1.0, 2.0], [0.0, 0.0], 5.0, 0.1)
        np.testing.assert_allclose(np.linalg.eigvalsh(matrix(spec)), [1, 2, 5], atol=1e-14)

    def test_trace_identity(self):
        rng = np.random.default_rng(0)
        for n in (2, 4, 7):
            spec = rand_spec(rng, n, 0.1)
            m = matrix(spec)
            eigs = np.linalg.eigvalsh(m)
            assert abs(eigs.sum() - np.trace(m).real) <= 1e-10 * np.linalg.norm(m)


class TestBordered:
    def test_direct_assembly_2x2(self):
        spec = hm.BorderedSpec([1.0], [1.0], 11.0, 0.1)
        np.testing.assert_array_equal(matrix(spec), [[1, 1], [1, 11]])

    def test_zero_matrix(self):
        spec = hm.BorderedSpec([0.0, 0.0], [0.0, 0.0], 0.0, 1.0)
        np.testing.assert_array_equal(matrix(spec), np.zeros((3, 3)))

    def test_complex_border(self):
        spec = hm.BorderedSpec([1.0, -1.0], [1.0, 1j], 24.1, 0.3)
        m = matrix(spec)
        assert m[0, 2] == 1.0 and m[1, 2] == 1j
        assert m[2, 0] == 1.0 and m[2, 1] == -1j
        np.testing.assert_allclose(m, m.conj().T)

    def test_dtype_follows_the_border(self):
        d, aa = np.ones((4, 2)), np.zeros(4)
        assert hm.bordered_batch(d, np.ones((4, 2)), aa).dtype == np.float64
        assert hm.bordered_batch(d, np.ones((4, 2), dtype=int), aa).dtype == np.float64
        assert hm.bordered_batch(d, np.ones((4, 2), dtype=complex), aa).dtype == np.complex128
        assert matrix(hm.BorderedSpec([1.0], [1.0], 11.0, 0.1)).dtype == np.complex128

    @pytest.mark.parametrize("field, d, a, aa", [
        ("d", [1.0, math.nan], [1.0, 1.0], 0.0),
        ("d", [1.0, -math.inf], [1.0, 1.0], 0.0),
        ("a", [1.0, 2.0], [1.0, math.inf], 0.0),
        ("a", [1.0, 2.0], [1.0, complex(0.0, math.nan)], 0.0),
        ("aa", [1.0, 2.0], [1.0, 1.0], math.nan),
        ("aa", [1.0, 2.0], [1.0, 1.0], math.inf),
    ])
    def test_refuses_non_finite_fields(self, field, d, a, aa):
        # refused at construction, naming the field, before any spectrum
        with pytest.raises(hm.ValidationError, match=rf"^{field} must be finite"):
            hm.BorderedSpec(d, a, aa, 0.1)

    @pytest.mark.parametrize("eps", [-0.1, 0.0, math.nan, math.inf])
    def test_validation(self, eps):
        with pytest.raises(hm.ValidationError, match="eps must be finite and positive"):
            hm.BorderedSpec([1.0], [1.0], 0.0, eps)
        with pytest.raises(hm.ValidationError):
            hm.BorderedSpec([], [], 0.0, 0.1)

    @pytest.mark.parametrize("field, d, a, aa", [
        ("d", [1.0, 2.0], [1.0, 1.0], [3.0]),
        ("d", np.ones((2, 2, 1)), np.ones((2, 2, 1)), [0.0, 0.0]),
        ("a", np.ones((2, 2)), np.ones((2, 3)), [0.0, 0.0]),
        ("a", np.ones((2, 2)), np.ones(2), [0.0, 0.0]),
        ("aa", np.ones((2, 2)), np.ones((2, 2)), [0.0]),
        ("aa", np.ones((2, 2)), np.ones((2, 2)), 0.0),
        ("aa", np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 1))),
    ])
    def test_batch_refuses_shapes(self, field, d, a, aa):
        with pytest.raises(hm.ValidationError, match=rf"^{field} must "):
            hm.bordered_batch(d, a, aa)


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

    @pytest.mark.parametrize("threshold", [hm.growth_threshold_main, hm.growth_threshold_refined])
    @pytest.mark.parametrize("field, d, a", [
        ("d", [math.nan], [1.0]),
        ("d", [[1.0, 2.0], [-math.inf, 0.0]], [[1.0, 1.0], [1.0, 1.0]]),
        ("a", [1.0], [math.inf]),
        ("a", [1.0, 2.0], [1.0, complex(0.0, math.nan)]),
    ])
    def test_rejects_non_finite_rows(self, threshold, field, d, a):
        with pytest.raises(hm.ValidationError, match=rf"^{field} must be finite"):
            threshold(0.1, d, a)

    @pytest.mark.parametrize("threshold", [hm.growth_threshold_main, hm.growth_threshold_refined])
    def test_rejects_rows_of_unequal_shape_or_length_zero(self, threshold):
        with pytest.raises(hm.ValidationError, match="d and a must have equal shapes"):
            threshold(0.1, [1.0, 2.0], [1.0])
        with pytest.raises(hm.ValidationError, match="n >= 2"):
            threshold(0.1, [], [])


class TestConclusions:
    """Both lemmas' conclusions on single specs."""

    def test_n2_oracle(self):
        # eigenvalues 6 +- sqrt(26); deviation and corner excess coincide (trace)
        spec = hm.BorderedSpec([1.0], [1.0], 11.0, 0.1)
        _, dev, corner, main, refined = conclusions(spec)
        expected = 1.0 - (6 - math.sqrt(26))
        np.testing.assert_allclose(dev, [expected], atol=1e-12)
        assert corner == pytest.approx(expected, abs=1e-12)
        assert main and refined

    def test_n2_trace_identity(self):
        # d1 - lambda_1 equals lambda_2 - aa exactly, by the trace
        rng = np.random.default_rng(7)
        for _ in range(50):
            spec = rand_spec(rng, 2, 0.05)
            eigs = np.linalg.eigvalsh(matrix(spec))
            assert spec.d[0] - eigs[0] == pytest.approx(eigs[1] - spec.aa, abs=1e-10)

    def test_exact_diagonal(self):
        spec = hm.BorderedSpec([1.0, 2.0], [0.0, 0.0], 30.0, 0.1)
        eigs, dev, corner, _, _ = conclusions(spec)
        np.testing.assert_allclose(dev, 0.0, atol=1e-13)
        assert corner == pytest.approx(0.0, abs=1e-13)
        assert component_counts(spec, eigs).sum() == 2

    def test_largest_eigenvalue_dominates_corner_always(self):
        # holds threshold or not: diagonal entries never exceed the top eigenvalue
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(2, 7)
            spec = rand_spec(rng, n, 0.1, aa=float(rng.uniform(-5, 5)))
            assert conclusions(spec)[2] >= -1e-12


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

    @pytest.mark.parametrize("shape", [(3, 4), (2000, 2)])
    def test_refuses_a_grid_of_more_axes(self, shape):
        spec = hm.BorderedSpec([0.0, 5.0], [1.0, 1.0], 0.0, 0.5)
        thr = hm.growth_threshold_main(0.5, spec.d, spec.a)
        with pytest.raises(hm.ValidationError, match=re.escape(f"aa_grid must be a scalar or 1-d, got shape {shape}")):
            hm.count_stability_scan(spec, np.full(shape, 2 * thr))

    def test_counts_constant_along_rays(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            spec = rand_spec(rng, n, 0.2)
            thr = hm.growth_threshold_main(0.2, spec.d, spec.a)
            rows = hm.count_stability_scan(spec, thr * 2.0 ** np.arange(8))
            assert (rows == rows[0]).all()

    def test_matches_per_corner_counts(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 6):
            spec = rand_spec(rng, n, 0.2)
            aa_grid = spec.aa * rng.uniform(1.0, 10.0, 16)
            rows = hm.count_stability_scan(spec, aa_grid)
            ref = [component_counts(spec, conclusions(hm.BorderedSpec(spec.d, spec.a, aa, spec.eps))[0])
                   for aa in aa_grid]
            np.testing.assert_array_equal(rows, ref)

    def test_refusal_message_stays_bounded(self):
        # 100,000 refused corners: the message names the threshold, the
        # first five and their count, not every one
        spec = hm.BorderedSpec([0.0, 5.0], [1.0, 1.0], 0.0, 0.5)
        thr = hm.growth_threshold_main(0.5, spec.d, spec.a)
        corners = np.concatenate([[thr, -1.5], np.arange(100_000.0) - 1e6])
        with pytest.raises(hm.ValidationError) as info:
            hm.count_stability_scan(spec, corners)
        message = str(info.value)
        assert len(message) < 1_000
        assert message.startswith("corner values [-1.5, -1000000.0, -999999.0, -999998.0, -999997.0] "
                                  "(the first 5 of 100001) ")
        assert f"threshold {thr:.6g}" in message

    def test_long_scan_memory_stays_flat(self):
        # 100,000 corners solved at once would form 27 MiB of bordered 6 x 6
        # matrices; the counts are written range by range into the result
        spec = rand_spec(np.random.default_rng(5), 6, 0.2)
        aa_grid = spec.aa * np.linspace(1.0, 50.0, 100_000)
        tracemalloc.start()
        try:
            rows = hm.count_stability_scan(spec, aa_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + 3 * 2**20
        assert rows.shape == (100_000, len(hm.interval_components(spec.d, 0.2 / 9)))
        assert (rows == rows[0]).all()
        for j in (0, 1023, 1024, 2047, 2048, 50_000, 99_999):
            ref = component_counts(spec, conclusions(hm.BorderedSpec(spec.d, spec.a, aa_grid[j], spec.eps))[0])
            np.testing.assert_array_equal(rows[j], ref)


class TestRowBlocks:
    """The battery runs on ``_ROW_BLOCK`` trials at a time; its results are
    the same bits for any block."""

    def test_results_do_not_depend_on_the_block(self, monkeypatch):
        def results():
            # a corner at 3 % of the threshold makes violations in most blocks
            return [hm.lemma_trial_batch(6, 0.1, 100, seed=7, refined=refined, aa_factor=factor)
                    for refined in (False, True) for factor in (1.0, 0.03)]

        assert hm._ROW_BLOCK >= 100
        batteries = results()
        assert [out["violations"] for out in batteries] == [0, 97, 0, 100]
        monkeypatch.setattr(hm, "_ROW_BLOCK", 7)  # 14 full blocks and one of 2
        assert results() == batteries

    def test_refined_battery_memory_stays_flat(self):
        # 20,000 trials at n = 6: the draws are 2.4 MB (120 B a trial) and a
        # block adds about 2.4 MB more; the 20,000 bordered matrices, their
        # spectra and the refined matching formed at once take about 12 MiB.
        tracemalloc.start()
        try:
            hm.lemma_trial_batch(6, 0.1, 20_000, seed=3, refined=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000 * 120 + 3 * 2**20


class InlineLane:
    """A stand-in for the helper lane's executor (``errors._helper_lane``)
    that runs each task at submission, so the helper lane takes every range
    before the caller."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:
            future.set_exception(exc)
        return future


class NoHelper:
    """A stand-in for the helper lane's executor that refuses every task."""

    def submit(self, fn, *args):
        raise AssertionError("a range was handed to the helper lane")


@pytest.fixture
def two_cpus(monkeypatch):
    """The process may use two CPUs, so that ``errors._on_two_lanes`` runs
    its helper lane even when the tests are pinned to one
    (``taskset -c 0``), where it would run every range on the caller."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.mark.usefixtures("two_cpus")
class TestTwoLanes:
    """Row ranges are taken by the calling thread and one helper thread;
    results, errors and threads are those of one lane."""

    @staticmethod
    def results(spec):
        return (
            hm.lemma_trial_batch(6, 0.1, 5_000, seed=7),
            hm.lemma_trial_batch(6, 0.1, 5_000, seed=7, aa_factor=0.03),
            hm.lemma_trial_batch(6, 0.1, 5_000, seed=8, refined=True),
            hm.lemma_trial_batch(6, 0.1, 5_000, seed=8, refined=True, aa_factor=0.03),
            hm.count_stability_scan(spec, spec.aa * np.linspace(1.0, 9.0, 3_000)).tolist(),
        )

    def test_results_do_not_depend_on_the_lane(self, monkeypatch):
        spec = rand_spec(np.random.default_rng(4), 6, 0.2)
        two_lanes = self.results(spec)
        assert two_lanes[1]["violations"] > 0 and two_lanes[3]["violations"] > 0
        monkeypatch.setattr(er, "_helper_lane", InlineLane())
        assert self.results(spec) == two_lanes
        monkeypatch.setattr(hm, "_ROW_BLOCK", 10**9)  # one range, on the caller alone
        assert self.results(spec) == two_lanes

    def test_one_cpu_runs_every_range_on_the_caller(self, monkeypatch):
        spec = rand_spec(np.random.default_rng(4), 6, 0.2)
        two_lanes = self.results(spec)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(er, "_helper_lane", NoHelper())
        assert self.results(spec) == two_lanes
        threads = set()
        er._on_two_lanes(8, 1, lambda lo, hi: threads.add(threading.get_ident()))
        assert threads == {threading.get_ident()}

    @pytest.mark.parametrize("lane", ["helper", "caller"])
    def test_an_error_reaches_the_caller_after_both_lanes_stop(self, lane, monkeypatch):
        # the first task of ``lane`` raises once the other lane has started a
        # task, which sleeps before it finishes
        ref = hm.lemma_trial_batch(6, 0.1, 5_000, seed=3, refined=True)
        spectra, caller = hm._spectra, threading.get_ident()
        err = RuntimeError(f"{lane} lane failed")
        started, raised, running, lock = threading.Event(), threading.Event(), [0], threading.Lock()

        def spy(d, a, aa):
            with lock:
                running[0] += 1
            try:
                if (threading.get_ident() == caller) == (lane == "caller"):
                    if not raised.is_set():
                        raised.set()
                        assert started.wait(10)
                        raise err
                else:
                    started.set()
                    time.sleep(0.05)
                return spectra(d, a, aa)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(hm, "_spectra", spy)
        with pytest.raises(RuntimeError) as info:
            hm.lemma_trial_batch(6, 0.1, 5_000, seed=3, refined=True)
        assert info.value is err
        assert running[0] == 0  # no task of the call still in _spectra
        monkeypatch.undo()
        assert hm.lemma_trial_batch(6, 0.1, 5_000, seed=3, refined=True) == ref

    def test_the_helper_keeps_the_callers_errstate(self):
        # the caller holds its range until the helper has run one
        caller, ran, seen = threading.get_ident(), threading.Event(), []

        def task(lo, hi):
            if threading.get_ident() == caller:
                assert ran.wait(10)
            else:
                seen.append(np.geterr()["over"])
                ran.set()

        with np.errstate(over="ignore"):
            er._on_two_lanes(2, 1, task)
        assert seen == ["ignore"]

    def test_a_call_from_inside_a_lane_runs_on_that_lane(self):
        # the inner call of the helper's task would otherwise queue behind
        # that task on the helper lane and wait for ever
        before = threading.active_count()

        def task(lo, hi):
            return threading.get_ident(), er._on_two_lanes(3, 1, lambda lo, hi: (threading.get_ident(), lo))

        got = []
        outer = threading.Thread(target=lambda: got.append(er._on_two_lanes(4, 1, task)), daemon=True)
        outer.start()
        outer.join(timeout=10)
        assert not outer.is_alive()
        assert len(got[0]) == 4
        for thread, inner in got[0]:
            assert inner == [(thread, 0), (thread, 1), (thread, 2)]
        assert threading.active_count() <= before + 1

    def test_one_helper_thread_at_most(self):
        before = threading.active_count()
        spec = rand_spec(np.random.default_rng(6), 6, 0.2)
        for _ in range(4):
            self.results(spec)
        assert threading.active_count() <= before + 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_a_forked_child_has_its_own_helper(self):
        # the parent's helper thread is running; in the child it does not exist
        ref = hm.lemma_trial_batch(6, 0.1, 5_000, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # a fork with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(30)  # a child whose ranges never run ends here
                code = 0 if hm.lemma_trial_batch(6, 0.1, 5_000, seed=3) == ref else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_concurrent_callers_share_the_helper(self, monkeypatch):
        # more caller threads than cores, switching often, on many small
        # ranges: a range lost or taken twice changes a result
        monkeypatch.setattr(hm, "_ROW_BLOCK", 64)
        ref = [hm.lemma_trial_batch(6, 0.1, 3_000, seed, aa_factor=0.03) for seed in range(4)]
        got = [None] * 4

        def caller(seed):
            got[seed] = hm.lemma_trial_batch(6, 0.1, 3_000, seed, aa_factor=0.03)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == ref


class TestRealArrowhead:
    """diag(a_i/|a_i|, 1) carries the Hermitian bordered matrix to the real
    arrowhead matrix with border |a|; its spectrum is read from the latter."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("factor", [0.5, 1.0, 3.0, 10.0])
    def test_matches_complex_eigvalsh(self, n, factor):
        rng = np.random.default_rng([n, int(10 * factor)])
        shape = (400, n - 1)
        d = rng.uniform(-2.0, 2.0, shape)
        a = rng.uniform(-2.0, 2.0, shape) + 1j * rng.uniform(-2.0, 2.0, shape)
        a[rng.random(shape) < 0.2] = 0.0
        aa = factor * hm.growth_threshold_main(0.1, d, a)
        ref = np.linalg.eigvalsh(hm.bordered_batch(d, a, aa))
        got = hm._spectra(d, a, aa)
        scaled = np.abs(got - ref) / np.maximum(1.0, np.abs(aa))[:, None]
        assert scaled.max() < 1e-13

    def test_only_real_matrices_are_solved(self, monkeypatch):
        dtypes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(m):
            dtypes.append(np.asarray(m).dtype)
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        spec = rand_spec(np.random.default_rng(2), 4, 0.2)
        hm.lemma_trial_batch(4, 0.1, 50, seed=1)
        hm.lemma_trial_batch(4, 0.1, 50, seed=1, refined=True)
        hm.count_stability_scan(spec, spec.aa * np.array([1.0, 2.0]))
        hm._spectra(spec.d[None], spec.a[None], [spec.aa])
        assert dtypes == [np.float64] * 4


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

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_aa_factor(self, factor):
        with pytest.raises(hm.ValidationError, match="aa_factor must be finite and positive"):
            hm.lemma_trial_batch(3, 0.1, trials=10, seed=1, aa_factor=factor)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, True])
    def test_rejects_bad_eps_before_drawing(self, eps):
        # 10**7 trials at n = 6 would draw 1.2 GB before the first threshold
        tracemalloc.start()
        try:
            with pytest.raises(hm.ValidationError, match="eps must be"):
                hm.lemma_trial_batch(6, eps, trials=10**7, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("field, n, trials", [
        ("n", 2.5, 10), ("n", "3", 10), ("trials", 3, True),
    ])
    def test_rejects_non_integer_counts(self, field, n, trials):
        with pytest.raises(hm.ValidationError, match=f"{field} must be an integer"):
            hm.lemma_trial_batch(n, 0.1, trials=trials, seed=1)

    @pytest.mark.parametrize("n, trials, seed", [(3.0, 10, 1), (3, 10.0, 1), (3, 10, 1.0)])
    def test_integral_float_counts(self, n, trials, seed):
        # the one integer check of every dimension, as for grids and cones
        out = hm.lemma_trial_batch(n, 0.1, trials=trials, seed=seed)
        assert out == hm.lemma_trial_batch(3, 0.1, trials=10, seed=1)
        assert type(out["trials"]) is int

    def test_numpy_integer_counts(self):
        out = hm.lemma_trial_batch(np.int64(3), 0.1, trials=np.int32(10), seed=1)
        assert out["trials"] == 10 and type(out["trials"]) is int

    @pytest.mark.parametrize("seed, text", [(-1, "seed must be at least 0"), (1.5, "seed must be an integer"),
                                            (None, "seed must be an integer")])
    def test_rejects_bad_seed(self, seed, text):
        with pytest.raises(hm.ValidationError, match=text):
            hm.lemma_trial_batch(3, 0.1, trials=10, seed=seed)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("eps", [0.5, 0.01])
    def test_refined_lemma_zero_violations(self, n, eps):
        out = hm.lemma_trial_batch(n, eps, trials=2000, seed=9, refined=True)
        assert out["violations"] == 0

    def test_both_conclusions_hold_at_the_threshold(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            spec = rand_spec(rng, n, 0.1)
            assert conclusions(spec)[3:] == (True, True)
