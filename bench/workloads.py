"""The benchmark's three workloads, driven through public functions only.

flat2-logma
    n=2, flat metric, resolutions (32, 32, 32, 16) = 524,288 nodes,
    chi = 2 I, manufactured u drawn from the seed.  One evaluation is
    complex_hessian + chi -> eig_wrt_metric(flat, vectors) -> log-ma
    value_grad.  The small-n eigensolve is about three quarters of it and
    the flat metric returns before any metric geometry, so it exposes
    ROADMAP item 4a (closed-form n=2 eigen kernel) and bypasses item 3
    (metric caching).  Unit: grid nodes.
conformal3-logp
    n=3, metric_conformal(eps=0.3), 8^6 = 262,144 nodes, chi = 3 g,
    rho = 0.5 sigma_hat, one Metric reused across evaluations as a Newton
    loop would.  One evaluation is gauduchon_fields -> eig_wrt_metric
    (g-form, vectors) -> log-p value_grad.  More than half of it is
    metric-only work (torsion, z_coefficients, validate_positive) redone
    per call, so it exposes ROADMAP item 3.  Unit: grid nodes.
battery-n6
    No grid.  One pass is lemma_trial_batch at n=6 (main and refined,
    1e5 trials each), count_stability_scan over 2,000 corner values at or
    above the main threshold, and concavity_probe on 1e5 sampled pairs for
    sigma-k-root k=3, quotient-root k=3 l=1 and log-sigma-k k=4.  Dense
    bordered n=6 eigenvalues and the sigma recurrences: it exposes ROADMAP
    items 4b and 5, which the grid workloads bypass.  Unit: trials plus
    corner values plus points checked.

The seed drives the manufactured u, every random draw and the nodes the
oracles sample; the package only ever sees the generated inputs.
"""

import math
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from hessianforge import cones as cn
from hessianforge import grid as gr
from hessianforge import hermitian as hm

import oracles as orc

TAU = 2.0 * math.pi
NODES_CHECKED = 6  # oracle sample nodes (or points) per evaluation


class Layout:
    """Grid parameters, with node coordinates computed by the benchmark."""

    def __init__(self, n, resolutions, strip=(0.0, 1.0)):
        self.n = n
        self.resolutions = tuple(resolutions)
        self.strip = strip
        self.strip_axis = 2 * n - 2
        self.spacing = tuple(
            (strip[1] - strip[0]) / (r - 1) if a == self.strip_axis else TAU / r
            for a, r in enumerate(self.resolutions)
        )
        self.num_nodes = int(np.prod(self.resolutions))

    def product_grid(self):
        return gr.ProductGrid(self.n, ((TAU, TAU),) * (self.n - 1), self.strip, self.resolutions)

    def coords(self, axis):
        i = np.arange(self.resolutions[axis])
        if axis == self.strip_axis:
            return self.strip[0] + i * self.spacing[axis]
        return i * self.spacing[axis]

    def coord_fields(self):
        return np.meshgrid(*(self.coords(a) for a in range(2 * self.n)), indexing="ij", sparse=True)

    def node_coords(self, idx):
        return np.array([self.coords(a)[i] for a, i in enumerate(idx)])

    def sigma_hat(self):
        s = self.coord_fields()[self.strip_axis]
        return np.broadcast_to((s - self.strip[0]) / (self.strip[1] - self.strip[0]), self.resolutions)

    def sample_nodes(self, rng, count):
        """Random nodes; every other one on a boundary slice of the strip."""
        nodes = []
        for c in range(count):
            idx = [int(rng.integers(r)) for r in self.resolutions]
            if c % 2 == 0:
                idx[self.strip_axis] = int(rng.choice([0, self.resolutions[self.strip_axis] - 1]))
            nodes.append(tuple(idx))
        return nodes

    def stencils(self):
        return orc.PointStencils(self.resolutions, self.spacing, self.strip_axis)


class Manufactured:
    """u = q (Re w - c)^2 + sum_t A_t cos(k_t . x + phi_t), drawn from a seed.

    Wavenumbers are whole on the periodic axes (every period is 2 pi) and
    real along Re w.  Each cosine term contributes the rank-one complex
    Hessian -A_t cos(theta_t)/4 w w*, w_i = k_{x_i} - sqrt(-1) k_{y_i}, of
    norm A_t |k_t|^2 / 4; amplitudes keep the sum of those norms at or below
    1/2, so chi + dd u stays in the positive cone for chi >= 1.5 I.
    """

    TERMS = 3

    def __init__(self, layout, rng):
        self.layout = layout
        self.q = rng.uniform(0.5, 1.5)
        self.centre = rng.uniform(*layout.strip)
        self.terms = []
        for _ in range(self.TERMS):
            while True:
                k = np.array([
                    rng.uniform(-0.5 * math.pi, 0.5 * math.pi) if a == layout.strip_axis
                    else float(rng.integers(-max(1, r // 16), max(1, r // 16) + 1))
                    for a, r in enumerate(layout.resolutions)
                ])
                if k @ k >= 1.0:
                    break
            amp = 2.0 / (self.TERMS * (k @ k)) * rng.uniform(0.5, 1.0)
            self.terms.append((amp, k, rng.uniform(0.0, TAU)))

    def field(self):
        x = self.layout.coord_fields()
        u = self.q * (x[self.layout.strip_axis] - self.centre) ** 2
        for amp, k, phase in self.terms:
            u = u + amp * np.cos(sum(k[a] * x[a] for a in range(len(x))) + phase)
        return np.broadcast_to(u, self.layout.resolutions).copy()

    def complex_hessian(self, x):
        n = self.layout.n
        h = np.zeros((n, n), dtype=complex)
        h[n - 1, n - 1] = 0.5 * self.q
        for amp, k, phase in self.terms:
            w = k[0::2] - 1j * k[1::2]
            h += -0.25 * amp * math.cos(k @ x + phase) * np.outer(w, np.conj(w))
        return h

    def hessian_tolerance(self):
        """Stated O(h^2) bound on |discrete - analytic| complex Hessian.

        Second-order stencils err by a fixed multiple of A |k|^2 (k_a h_a)^2
        per cosine term, boundary closures included; the quadratic term is
        differentiated exactly.  The bound is a quarter of that sum, about
        ten times the largest error seen over every node of several seeds.
        """
        h = np.array(self.layout.spacing)
        return 0.25 * sum(amp * (k @ k) * float(np.max((k * h) ** 2)) for amp, k, _ in self.terms)


class FlatLogMA:
    name = "flat2-logma"

    def __init__(self):
        self.layout = Layout(2, (32, 32, 32, 16))
        self.units = self.layout.num_nodes

    def build(self, seed):
        rng = np.random.default_rng([seed, 1])
        grid = self.layout.product_grid()
        mu = Manufactured(self.layout, rng)
        return SimpleNamespace(
            grid=grid, metric=gr.metric_flat(grid), mu=mu, u=mu.field(),
            chi=2.0 * np.eye(2, dtype=complex), f=cn.cone_function("log-ma", 2),
        )

    def evaluate(self, s, tracer):
        with tracer.span("grid.complex_hessian"):
            hess = gr.complex_hessian(s.grid, s.u)
        h = hess + s.chi
        with tracer.span("grid.eig_wrt_metric.flat"):
            lam, vec = gr.eig_wrt_metric(h, s.metric, vectors=True)
        with tracer.span("cones.value_grad.log-ma"):
            value, grad = s.f.value_grad(lam)
        return {"h": h, "lam": lam, "vec": vec, "value": value, "grad": grad}

    def standalone(self, s, tracer):
        pass

    def check(self, s, out, checker, rng):
        tol = s.mu.hessian_tolerance()
        stencils = self.layout.stencils()
        eye = np.eye(2)
        for idx in self.layout.sample_nodes(rng, NODES_CHECKED):
            h, lam = out["h"][idx], out["lam"][idx]
            exact = s.mu.complex_hessian(self.layout.node_coords(idx))
            checker.close(f"complex Hessian at {idx}", h - s.chi, exact, tol)
            discrete = stencils.complex_hessian(s.u, idx, 2)
            checker.close(f"complex Hessian (point stencils) at {idx}", h - s.chi, discrete,
                          1e-10 * max(1.0, float(np.max(np.abs(discrete)))))
            orc.check_eig(checker, idx, h, eye, lam, out["vec"][idx])
            sign, logdet = np.linalg.slogdet(h)
            checker.check(sign.real > 0, f"log-ma: det <= 0 at {idx}")
            checker.close(f"log-ma value at {idx}", out["value"][idx], logdet, 1e-10 * max(1.0, abs(logdet)))
            checker.close(f"log-ma gradient at {idx}", out["grad"][idx], orc.central_grad(orc.log_ma, lam), 1e-6)


class ConformalLogP:
    name = "conformal3-logp"
    EPS = 0.3

    def __init__(self):
        self.layout = Layout(3, (8,) * 6)
        self.units = self.layout.num_nodes

    def build(self, seed):
        rng = np.random.default_rng([seed, 2])
        grid = self.layout.product_grid()
        metric = gr.metric_conformal(grid, self.EPS)
        mu = Manufactured(self.layout, rng)
        return SimpleNamespace(
            grid=grid, metric=metric, u=mu.field(), chi=3.0 * metric.matrix(),
            rho=0.5 * self.layout.sigma_hat(), f=cn.cone_function("log-p", 3),
        )

    def evaluate(self, s, tracer):
        with tracer.span("grid.gauduchon_fields"):
            u_form, g_form = gr.gauduchon_fields(s.grid, s.u, s.chi, s.rho, s.metric)
        with tracer.span("grid.eig_wrt_metric.conformal"):
            lam, vec = gr.eig_wrt_metric(g_form, s.metric, vectors=True)
        with tracer.span("cones.value_grad.log-p"):
            value, grad = s.f.value_grad(lam)
        return {"u_form": u_form, "g_form": g_form, "lam": lam, "vec": vec, "value": value, "grad": grad}

    def standalone(self, s, tracer):
        """Metric-only layers a Newton step repeats today, one call each."""
        with tracer.span("grid.torsion"):
            t = gr.torsion(s.grid, s.metric)
        with tracer.span("grid.z_coefficients"):
            za = gr.z_coefficients(s.grid, s.metric, t)
        with tracer.span("grid.validate_positive"):
            s.metric.validate_positive()
        with tracer.span("grid.z_tensor"):
            gr.z_tensor(s.grid, s.metric, s.u, za=za)

    def check(self, s, out, checker, rng):
        n = 3
        stencils = self.layout.stencils()
        g = s.metric.matrix()
        for idx in self.layout.sample_nodes(rng, NODES_CHECKED):
            u_ref, g_ref = orc.gauduchon_at(stencils, s.u, g, s.chi, s.rho[idx], idx, n)
            scale = max(1.0, float(np.max(np.abs(u_ref))))
            checker.close(f"U form (index-loop Z) at {idx}", out["u_form"][idx], u_ref, 1e-10 * scale)
            checker.close(f"g form (index-loop Z) at {idx}", out["g_form"][idx], g_ref, 1e-10 * scale)
            lam = out["lam"][idx]
            orc.check_eig(checker, idx, out["g_form"][idx], g[idx], lam, out["vec"][idx])
            u_eigs = scipy.linalg.eigh(out["u_form"][idx], g[idx], eigvals_only=True)
            ref = float(np.sum(np.log(u_eigs)))
            checker.close(f"log-p value vs U-form pencil at {idx}", out["value"][idx], ref, 1e-10 * max(1.0, abs(ref)))
            checker.close(f"log-p gradient at {idx}", out["grad"][idx], orc.central_grad(orc.log_p, lam), 1e-6)


def in_garding(x, k):
    """Membership in Gamma_k: sigma_1..sigma_k all positive (own recurrence)."""
    e = np.zeros(x.shape[:-1] + (k + 1,))
    e[..., 0] = 1.0
    for i in range(x.shape[-1]):
        for j in range(min(i + 1, k), 0, -1):
            e[..., j] += x[..., i] * e[..., j - 1]
    return np.all(e[..., 1:] > 0, axis=-1)


def sample_garding(rng, n, k, count):
    """Half positive-orthant draws, half box draws kept if inside Gamma_k."""
    parts = [np.exp(rng.uniform(-1.5, 1.2, size=(count // 2, n)))]
    need = count - count // 2
    while need > 0:
        cand = rng.uniform(-3.0, 3.0, size=(4 * count, n))
        keep = cand[in_garding(cand, k)][:need]
        parts.append(keep)
        need -= len(keep)
    return np.concatenate(parts)


class Battery:
    name = "battery-n6"
    N = 6
    EPS = 0.1
    TRIALS = 100_000
    SCAN = 2_000
    POINTS = 100_000
    FAMILIES = (("sigma-k-root", 3, None), ("quotient-root", 3, 1), ("log-sigma-k", 4, None))

    def __init__(self):
        self.units = 2 * self.TRIALS + self.SCAN + len(self.FAMILIES) * self.POINTS

    def build(self, seed):
        rng = np.random.default_rng([seed, 3])
        m = self.N - 1
        d = rng.uniform(-2.0, 2.0, m)
        a = rng.uniform(-1.0, 1.0, m) + 1j * rng.uniform(-1.0, 1.0, m)
        thr = orc.growth_threshold_main(self.EPS, d, a)
        probes = []
        for family, k, l in self.FAMILIES:
            f = cn.cone_function(family, self.N, k=k, l=l)
            lam = sample_garding(rng, self.N, k, self.POINTS)
            mu = sample_garding(rng, self.N, k, self.POINTS)
            probes.append(SimpleNamespace(f=f, k=k, l=l, lam=lam, mu=mu))
        return SimpleNamespace(
            seeds=[int(v) for v in rng.integers(2**31, size=2)],
            spec=hm.BorderedSpec(d, a, 0.0, self.EPS),
            aa_grid=np.sort(thr * rng.uniform(1.0, 10.0, self.SCAN)),
            probes=probes,
        )

    def evaluate(self, s, tracer):
        with tracer.span("hermitian.lemma_trial_batch.main"):
            main = hm.lemma_trial_batch(self.N, self.EPS, self.TRIALS, s.seeds[0])
        with tracer.span("hermitian.lemma_trial_batch.refined"):
            refined = hm.lemma_trial_batch(self.N, self.EPS, self.TRIALS, s.seeds[1], refined=True)
        with tracer.span("hermitian.count_stability_scan"):
            rows = hm.count_stability_scan(s.spec, s.aa_grid)
        slacks = []
        for p in s.probes:
            with tracer.span("cones.concavity_probe"):
                slacks.append(cn.concavity_probe(p.f, p.lam, p.mu))
        return {
            "main": main, "refined": refined, "rows": rows, "slacks": slacks,
            "violations": main["violations"] + refined["violations"],
        }

    def standalone(self, s, tracer):
        for p in s.probes:
            with tracer.span(f"cones.value_grad.{p.f.family}"):
                p.f.value_grad(p.lam)

    def check(self, s, out, checker, rng):
        n, eps = self.N, self.EPS
        main, refined = out["main"], out["refined"]
        for name, res in (("main", main), ("refined", refined)):
            checker.check(res["trials"] == self.TRIALS, f"{name} battery ran {res['trials']} trials")
            checker.check(res["violations"] == 0, f"{name} battery: {res['violations']} violations")
            checker.check(res["worst_deviation"] < eps, f"{name} battery: deviation {res['worst_deviation']}")
        checker.check(
            0.0 <= main["worst_corner_excess"] < (n - 1) * eps,
            f"main battery: corner excess {main['worst_corner_excess']}",
        )
        rows = out["rows"]
        checker.check(rows.shape[0] == self.SCAN and bool(np.all(rows == rows[0])),
                      "stability scan: counts change along the corner ray")
        for j in rng.choice(self.SCAN, NODES_CHECKED, replace=False):
            ref = orc.bordered_counts(s.spec.d, s.spec.a, s.aa_grid[j], eps)
            checker.check(rows[j].tolist() == ref, f"stability scan row {j}: {rows[j].tolist()} != {ref}")
        for p, slack in zip(s.probes, out["slacks"]):
            fam = p.f.family
            checker.check(float(np.min(slack)) >= -1e-9, f"{fam}: concavity slack {np.min(slack):.3e}")
            for i in rng.choice(self.POINTS, NODES_CHECKED, replace=False):
                lam, mu = p.lam[i], p.mu[i]
                val, grad = p.f.value_grad(lam)
                ref_val, ref_grad = orc.family_reference(fam, lam, p.k, p.l)
                ref_mu, _ = orc.family_reference(fam, mu, p.k, p.l)
                checker.close(f"{fam} value (Vieta) at point {i}", val, ref_val, 1e-10 * max(1.0, abs(ref_val)))
                checker.close(f"{fam} gradient at point {i}", grad, ref_grad,
                              1e-10 * max(1.0, float(np.max(np.abs(ref_grad)))))
                ref_slack = ref_val - ref_mu - float(ref_grad @ (lam - mu))
                scale = 1.0 + abs(ref_val) + abs(ref_mu) + float(np.abs(ref_grad) @ np.abs(lam - mu))
                checker.close(f"{fam} concavity slack at pair {i}", slack[i], ref_slack, 1e-10 * scale)


WORKLOADS = {w.name: w for w in (FlatLogMA(), ConformalLogP(), Battery())}
