#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload flat2-logma --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off.  ``--trace 1`` is the separate traced run: it alternates
untraced and traced evaluations of the named workload for ``--seconds``,
then makes one traced evaluation of every other workload and the
standalone layer calls, and reports every per-layer metric.  Both modes
check the program's outputs against the oracles in ``oracles.py`` after
each evaluation, outside every timed interval.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(sample counts, oracle failures, and the spans of a traced run) is written
under ``.bench_out/`` in the checkout.
"""

import os

# One process, BLAS pinned to one thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
MIN_EVALS = 3  # timed evaluations per run, however long each takes
GAP_FLOOR_S = 1e-4  # self-time gap allowed when the measured overhead is ~0


def record_path(workload, seed, trace):
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def load_package():
    """Put the checkout's own source first on the path, or stop."""
    init = SRC / "hessianforge" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))


def timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


class Run:
    """State shared by both modes: the oracle checker and its timings."""

    def __init__(self, seed):
        self.checker = Checker()
        self.rng = np.random.default_rng([seed, 7])
        self.oracle_s = []
        self.violations = 0

    def check(self, wl, state, out):
        t0 = time.perf_counter()
        wl.check(state, out, self.checker, self.rng)
        self.oracle_s.append(time.perf_counter() - t0)
        self.violations += out.get("violations", 0)


def end_to_end(run, wl, seed, seconds):
    """Set-ups and timed evaluations, interleaved so both sample the whole run.

    Each set-up builds fresh inputs and makes the first, cold evaluation;
    an equal share of the timed phase follows it on those inputs.  The
    calibration kernel runs between consecutive timed intervals; each
    interval is converted to reference seconds with the mean of the kernel
    times on either side of it.  Gated times are in reference seconds; the
    wall-clock figures are printed and recorded beside them.
    """
    off = Tracer(False)
    cal = Calibration()
    cal.wall()  # warm the kernel's code paths before its first timed pass
    setup, evals = [], []  # (wall s, reference s)
    kernel = [cal.wall()]

    def timed_between_cal(fn):
        result, dt = timed(fn)
        kernel.append(cal.wall())
        return result, (dt, reference_s(dt, 0.5 * (kernel[-2] + kernel[-1])))

    def set_up():
        s = wl.build(seed)
        return s, wl.evaluate(s, off)

    for rep in range(SETUP_REPEATS):
        state = None  # release the previous set-up before timing the next
        (state, out), t = timed_between_cal(set_up)
        setup.append(t)
        run.check(wl, state, out)
        del out
        share = seconds * (rep + 1) / SETUP_REPEATS
        while sum(w for w, _ in evals) < share or len(evals) < MIN_EVALS * (rep + 1) // SETUP_REPEATS:
            out, t = timed_between_cal(lambda: wl.evaluate(state, off))
            evals.append(t)
            run.check(wl, state, out)
            del out
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall, ref = zip(*evals)
    n = len(evals)
    return {
        "units_per_s": (wl.units * n / sum(ref), "units/s", n),
        "eval_s_p50": (statistics.median(ref), "s", n),
        "setup_s": (statistics.median(r for _, r in setup), "s", len(setup)),
        "peak_rss_mb": (peak_mb, "MB", 1),
        "wall.units_per_s": (wl.units * n / sum(wall), "units/s", n),
        "wall.eval_s_p50": (statistics.median(wall), "s", n),
        "wall.setup_s": (statistics.median(w for w, _ in setup), "s", len(setup)),
        "wall.calibration_s": (statistics.median(kernel), "s", len(kernel)),
    }


def per_layer(run, named, seed, seconds):
    tracer, off = Tracer(True), Tracer(False)
    plain, traced, gaps = [], [], []
    others = [w for w in WORKLOADS.values() if w is not named]
    for wl in [named] + others:
        state = wl.build(seed)
        out = wl.evaluate(state, off)  # cold: caches fill before anything is traced
        run.check(wl, state, out)
        del out
        while True:
            if wl is named:
                out, dt = timed(lambda: wl.evaluate(state, off))
                plain.append(dt)
                run.check(wl, state, out)
                del out
            root = len(tracer.spans)
            gc.collect()
            t0 = time.perf_counter()
            with tracer.span(f"bench.eval.{wl.name}"):
                out = wl.evaluate(state, tracer)
            wall = time.perf_counter() - t0
            run.check(wl, state, out)
            del out
            if wl is not named:
                break
            traced.append(wall)
            gaps.append(wall - tracer.tree_self_sum(root))
            if len(traced) >= MIN_EVALS and sum(plain) + sum(traced) >= seconds:
                break
        wl.standalone(state, tracer)
        del state

    overhead = statistics.median(traced) - statistics.median(plain)
    for i, gap in enumerate(gaps):
        run.checker.check(
            abs(gap) <= max(abs(overhead), GAP_FLOOR_S),
            f"evaluation {i}: self times miss the traced wall time by {gap:.3e} s",
        )
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{named.name}-seed{seed}.json")
    return layer_metrics(tracer, run, named, overhead, gaps, len(traced))


def layer_metrics(tracer, run, named, overhead, gaps, count):
    flat, conf, bat = (WORKLOADS[n] for n in ("flat2-logma", "conformal3-logp", "battery-n6"))

    def med(name):
        return statistics.median(tracer.durations(name))

    def samples(name):
        return len(tracer.durations(name))

    m = {}
    for name in (
        "grid.complex_hessian", "grid.gauduchon_fields", "grid.torsion",
        "grid.z_coefficients", "grid.validate_positive", "grid.z_tensor",
        "grid.eig_wrt_metric.flat", "grid.eig_wrt_metric.conformal",
        "cones.value_grad.log-ma", "cones.value_grad.log-p",
        "cones.value_grad.sigma-k-root", "cones.value_grad.quotient-root",
        "cones.value_grad.log-sigma-k", "cones.concavity_probe",
        "hermitian.lemma_trial_batch.main", "hermitian.lemma_trial_batch.refined",
        "hermitian.count_stability_scan",
    ):
        m[f"{name}.s"] = (med(name), "s", samples(name))
    for kind, wl in (("flat", flat), ("conformal", conf)):
        name = f"grid.eig_wrt_metric.{kind}"
        m[f"{name}.nodes_per_s"] = (wl.units / med(name), "nodes/s", samples(name))
    metric_only = med("grid.torsion") + med("grid.z_coefficients") + med("grid.validate_positive")
    m["grid.metric_only_share"] = (
        metric_only / med(f"bench.eval.{conf.name}"), "ratio", samples(f"bench.eval.{conf.name}"),
    )
    m["cones.points_per_s"] = (bat.POINTS / med("cones.concavity_probe"), "points/s",
                               samples("cones.concavity_probe"))
    battery_s = (med("hermitian.lemma_trial_batch.main") + med("hermitian.lemma_trial_batch.refined")
                 + med("hermitian.count_stability_scan"))
    m["hermitian.trials_per_s"] = ((2 * bat.TRIALS + bat.SCAN) / battery_s, "trials/s",
                                   samples("hermitian.count_stability_scan"))
    m["hermitian.violations"] = (run.violations, "count", 1)
    m["bench.oracle.s"] = (statistics.median(run.oracle_s), "s", len(run.oracle_s))
    root = f"bench.eval.{named.name}"
    own = [o for o, span in zip(tracer.self_times(), tracer.spans) if span[0] == root]
    m["bench.eval.self_s"] = (statistics.median(own), "s", len(own))
    m["bench.trace_overhead.s"] = (overhead, "s", count)
    m["bench.self_time_gap.s"] = (max(gaps), "s", count)
    return m


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    run = Run(args.seed)
    if args.trace:
        metrics = per_layer(run, wl, args.seed, args.seconds)
    else:
        metrics = end_to_end(run, wl, args.seed, args.seconds)
    want = expected_metrics(args.trace)
    got = {name: unit for name, (_, unit, _) in metrics.items() if name in want}
    if got != want:
        sys.exit(f"error: metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}")

    c = run.checker
    for name, (value, unit, count) in metrics.items():
        print(f"{args.workload:16s} {name:44s} {value:14.6g} {unit:9s} n={count}")
    print(f"{args.workload:16s} {'fail_frac':44s} {c.fail_frac:14.6g} {'ratio':9s} n={c.attempted}")
    for msg in c.messages:
        print(f"oracle failure: {msg}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": c.attempted, "failed": c.failed,
        "fail_frac": c.fail_frac, "failures": c.messages,
        "metrics": {n: {"value": v, "unit": u, "samples": k} for n, (v, u, k) in metrics.items()},
    }
    record_path(args.workload, args.seed, args.trace).write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": c.failed == 0 and run.violations == 0,
        "attempted": c.attempted,
        "failed": c.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items() if n in want},
    }))


if __name__ == "__main__":
    load_package()
    import numpy as np

    from calibration import Calibration, reference_s
    from oracles import Checker
    from spans import Tracer
    from workloads import WORKLOADS

    main()
