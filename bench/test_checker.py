"""The benchmark's own checker: clean outputs pass, perturbed ones fail.

    python3 -m pytest -q bench/test_checker.py
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from hessianforge import cones  # noqa: E402

import oracles as orc  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def checked(wl, state, out):
    checker = orc.Checker()
    wl.check(state, out, checker, np.random.default_rng(0))
    return checker


def evaluated(name, seed=5):
    wl = WORKLOADS[name]
    state = wl.build(seed)
    return wl, state, wl.evaluate(state, Tracer(False))


@pytest.fixture(scope="module")
def flat():
    return evaluated("flat2-logma")


@pytest.fixture(scope="module")
def conformal():
    return evaluated("conformal3-logp")


@pytest.fixture(scope="module")
def battery():
    return evaluated("battery-n6")


@pytest.mark.parametrize("name", ["flat", "conformal", "battery"])
def test_clean_outputs_pass(name, request):
    c = checked(*request.getfixturevalue(name))
    assert c.attempted > 0
    assert c.failed == 0, c.messages


def test_perturbed_eigenvalue_caught(flat):
    wl, state, out = flat
    c = checked(wl, state, dict(out, lam=out["lam"] * (1.0 + 1e-6)))
    assert c.fail_frac > 0
    assert any(m.startswith("eigenvalues at") for m in c.messages)


def test_perturbed_hessian_caught(flat):
    wl, state, out = flat
    bump = np.array([[0.0, 0.2], [0.2, 0.0]])
    c = checked(wl, state, dict(out, h=out["h"] + bump))
    assert c.fail_frac > 0
    assert any(m.startswith("complex Hessian at") for m in c.messages)


def test_perturbed_gauduchon_form_caught(conformal):
    wl, state, out = conformal
    c = checked(wl, state, dict(out, u_form=out["u_form"] * (1.0 + 1e-6)))
    assert c.fail_frac > 0
    assert any(m.startswith("U form") for m in c.messages)


def test_perturbed_sigma_caught(battery, monkeypatch):
    wl, state, out = battery
    exact = cones.sigma_k
    monkeypatch.setattr(cones, "sigma_k", lambda lam, k: exact(lam, k) * (1.0 + 1e-6))
    c = checked(wl, state, out)
    assert c.fail_frac > 0
    assert any("(Vieta)" in m for m in c.messages)


def test_self_times_sum_to_root_duration():
    tracer = Tracer(True)
    with tracer.span("root"):
        with tracer.span("a"):
            time.sleep(0.002)
            with tracer.span("a.inner"):
                time.sleep(0.001)
        with tracer.span("b"):
            time.sleep(0.001)
    assert tracer.tree_self_sum(0) == pytest.approx(tracer.durations("root")[0], abs=1e-12)
    assert all(t >= 0 for t in tracer.self_times())
