"""The public surface: every name a module exports exists, and every real
scalar input is refused, by name, unless it is a finite real."""
import importlib
import math
import pkgutil
import re

import pytest

import hessianforge
from hessianforge import cones as cn
from hessianforge import grid as gr
from hessianforge import hermitian as hm
from hessianforge.errors import GridError, ValidationError

MODULES = sorted(m.name for m in pkgutil.iter_modules(hessianforge.__path__))


def test_the_documented_modules_export_names():
    exporting = [m for m in MODULES if hasattr(importlib.import_module(f"hessianforge.{m}"), "__all__")]
    assert {"cones", "grid", "hermitian"} <= set(exporting)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"hessianforge.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"hessianforge.{name}.__all__ names missing attributes: {missing}"


# Every real-scalar input of the package, each checked by ``errors._real``:
# (id, field named in the message, error raised, must it be positive, a
# call that passes the value as that field).
TAU = 2 * math.pi
GRID = gr.ProductGrid(2, ((TAU, TAU),), (0, 1), (8, 1, 8, 1))
REAL_INPUTS = [
    ("periods-x", "torus_periods[0][0]", GridError, True,
     lambda v: gr.ProductGrid(2, ((v, TAU),), (0, 1), (8, 1, 8, 1))),
    ("periods-y", "torus_periods[0][1]", GridError, True,
     lambda v: gr.ProductGrid(2, ((TAU, v),), (0, 1), (8, 1, 8, 1))),
    ("strip-imag-period", "strip_imag_period", GridError, True,
     lambda v: gr.ProductGrid(2, ((TAU, TAU),), (0, 1), (8, 1, 8, 1), strip_imag_period=v)),
    ("strip-s0", "strip_bounds[0]", GridError, False,
     lambda v: gr.ProductGrid(2, ((TAU, TAU),), (v, 1), (8, 1, 8, 1))),
    ("strip-s1", "strip_bounds[1]", GridError, False,
     lambda v: gr.ProductGrid(2, ((TAU, TAU),), (0, v), (8, 1, 8, 1))),
    ("conformal-eps", "eps", ValidationError, False, lambda v: gr.metric_conformal(GRID, v)),
    ("spec-aa", "aa", ValidationError, False, lambda v: hm.BorderedSpec([1.0], [1.0], v, 0.1)),
    ("spec-eps", "eps", ValidationError, True, lambda v: hm.BorderedSpec([1.0], [1.0], 0.0, v)),
    ("main-eps", "eps", ValidationError, True, lambda v: hm.growth_threshold_main(v, [1.0], [1.0])),
    ("refined-eps", "eps", ValidationError, True, lambda v: hm.growth_threshold_refined(v, [1.0], [1.0])),
    ("battery-eps", "eps", ValidationError, True, lambda v: hm.lemma_trial_batch(3, v, 10, 1)),
    ("battery-aa-factor", "aa_factor", ValidationError, True,
     lambda v: hm.lemma_trial_batch(3, 0.1, 10, 1, aa_factor=v)),
    ("radius", "radius", ValidationError, True, lambda v: hm.interval_components([0.0, 1.0], v)),
    ("ray-c", "c", ValidationError, False, lambda v: cn.gamma_r1_member(v, cn.Cone.gamma(2, 3))),
    ("margin-psi", "psi", ValidationError, False,
     lambda v: cn.c_subsolution_margin(cn.cone_function("log-ma", 2), [1.0, 2.0], v, 0)),
]
BAD_REALS = [("none", None), ("str", "x"), ("bool", True),
             ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)]
NOT_POSITIVE = [("zero", 0.0), ("negative", -1.0)]
REAL_CASES = [pytest.param(field, error, call, value, id=f"{name}-{label}")
              for name, field, error, positive, call in REAL_INPUTS
              for label, value in BAD_REALS + (NOT_POSITIVE if positive else [])]


@pytest.mark.parametrize("field, error, call, value", REAL_CASES)
def test_real_inputs_refused_by_name(field, error, call, value):
    with pytest.raises(error, match=f"^{re.escape(field)} must be "):
        call(value)
