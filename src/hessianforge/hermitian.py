"""Dense Hermitian eigen-computations for bordered matrix families.

The central object is the bordered Hermitian matrix: a fixed real diagonal
block ``d``, a fixed border column ``a``, and a variable real corner entry
``aa``.  Once the corner exceeds a quadratic growth threshold, the spectrum
concentrates: one eigenvalue tracks the corner from above while the others
pin themselves near the diagonal entries.  This module builds such matrices,
evaluates the two growth thresholds (the main one and its refinement), and
reports how tightly the spectrum concentrates, including the per-interval
eigenvalue counts that certify the concentration is stable along rays of
increasing corner values.

All functions are pure and accept batched input where noted.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "ValidationError",
    "BorderedSpec",
    "ConcentrationReport",
    "bordered",
    "growth_threshold_main",
    "growth_threshold_refined",
    "concentration_report",
    "interval_components",
    "count_stability_scan",
    "lemma_trial_batch",
]

_TRIAL_AMPLITUDE = 2.0


@dataclass
class BorderedSpec:
    """A bordered Hermitian family: diag block ``d``, border ``a``, corner ``aa``.

    ``d`` is real of length n-1, ``a`` is complex of length n-1, ``aa`` is the
    real corner parameter and ``eps`` the concentration tolerance used by the
    threshold formulas and the report.
    """

    d: np.ndarray
    a: np.ndarray
    aa: float
    eps: float

    def __post_init__(self):
        self.d = np.atleast_1d(np.asarray(self.d, dtype=float))
        self.a = np.atleast_1d(np.asarray(self.a, dtype=complex))
        self.aa = float(self.aa)
        self.eps = _finite_positive(self.eps, "eps")
        if self.d.shape != self.a.shape or self.d.ndim != 1:
            raise ValidationError("d and a must be 1-d arrays of equal length")
        if self.n < 2:
            raise ValidationError("bordered matrices need dimension n >= 2")

    @property
    def n(self):
        return self.d.size + 1


@dataclass
class ConcentrationReport:
    """How the spectrum of a bordered matrix sits relative to its diagonal.

    ``deviations[i]`` is ``|d_(i) - lambda_(i)|`` after sorting both the
    diagonal block and the first n-1 eigenvalues ascending.  ``corner_excess``
    is ``lambda_n - aa`` (always >= 0: a Hermitian matrix dominates each of
    its diagonal entries by its largest eigenvalue).  ``component_counts``
    counts eigenvalues inside each connected component of the union of
    intervals ``(d_i - eps/(2n-3), d_i + eps/(2n-3))``.
    """

    deviations: np.ndarray
    corner_excess: float
    passed_main: bool
    passed_refined: bool
    component_counts: np.ndarray
    matched_indices: np.ndarray
    eigenvalues: np.ndarray


def _finite_positive(value, name):
    """value as a float, refused, as ``name``, unless finite and positive."""
    value = float(value)
    if not 0.0 < value < np.inf:  # NaN fails both comparisons
        raise ValidationError(f"{name} must be finite and positive, got {value}")
    return value


def bordered(spec):
    """Assemble the n x n bordered Hermitian matrix of a :class:`BorderedSpec`."""
    return bordered_batch(spec.d[None], spec.a[None], [spec.aa])[0]


def bordered_batch(d, a, aa):
    """Bordered matrices for stacks of (d, a, aa) rows; the only assembly."""
    d = np.asarray(d, dtype=float)
    a = np.asarray(a, dtype=complex)
    aa = np.asarray(aa, dtype=float)
    t, m = d.shape
    out = np.zeros((t, m + 1, m + 1), dtype=complex)
    idx = np.arange(m)
    out[:, idx, idx] = d
    out[:, :m, m] = a
    out[:, m, :m] = np.conj(a)
    out[:, m, m] = aa
    return out


def _threshold_inputs(eps, d, a):
    eps = _finite_positive(eps, "eps")
    d = np.atleast_1d(np.asarray(d, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    if d.shape != a.shape:
        raise ValidationError("d and a must have equal length")
    return eps, d, a, d.shape[-1] + 1


def growth_threshold_main(eps, d, a):
    """Corner threshold after which the spectrum concentrates within ``eps``.

    Value: ``(2n-3)/eps * sum|a_i|^2 + (n-1) * sum|d_i| + (n-2) eps/(2n-3)``.
    Above this corner value every sorted eigenvalue sits within ``eps`` of the
    sorted diagonal block and the top eigenvalue exceeds the corner by less
    than ``(n-1) eps``.  Stacked ``(..., n-1)`` rows give one threshold each.
    """
    eps, d, a, n = _threshold_inputs(eps, d, a)
    return (
        (2 * n - 3) / eps * np.sum(np.abs(a) ** 2, axis=-1)
        + (n - 1) * np.sum(np.abs(d), axis=-1)
        + (n - 2) * eps / (2 * n - 3)
    )


def growth_threshold_refined(eps, d, a):
    """Refined corner threshold; weaker conclusion, smaller constant.

    Value: ``1/eps * sum|a_i|^2 + sum(d_i + (n-2)|d_i|) + (n-2) eps``.  Above
    it, every small eigenvalue lies within ``eps`` of *some* diagonal entry
    (not necessarily its own after sorting).  Stacked ``(..., n-1)`` rows give
    one threshold each.
    """
    eps, d, a, n = _threshold_inputs(eps, d, a)
    return (
        np.sum(np.abs(a) ** 2, axis=-1) / eps
        + np.sum(d + (n - 2) * np.abs(d), axis=-1)
        + (n - 2) * eps
    )


def _main_conclusion(eps, ds, small, corner):
    """The main lemma's conclusion, batched over leading axes.

    ``ds`` is the sorted diagonal block, ``small`` the n-1 smallest
    eigenvalues and ``corner`` the excess of the top eigenvalue over the
    corner.  Returns ``(deviations, passed)``: every sorted eigenvalue within
    ``eps`` of its own diagonal entry, and ``0 <= corner < (n-1) eps``.
    """
    n = ds.shape[-1] + 1
    dev = np.abs(ds - small)
    passed = np.all(dev < eps, axis=-1) & (corner >= 0.0) & (corner < (n - 1) * eps)
    return dev, passed


def _refined_conclusion(eps, ds, small, corner):
    """The refined lemma's conclusion, batched over leading axes.

    Each small eigenvalue is matched to its nearest diagonal entry, and the
    corner excess bound is corrected by the matching defect
    ``|sum_i (d_(i) - d_matched(i))|``.  Returns ``(deviations, matched,
    passed)`` with the distances to the matched entries.
    """
    n = ds.shape[-1] + 1
    gap = np.abs(small[..., :, None] - ds[..., None, :])
    matched = np.argmin(gap, axis=-1)
    dev = np.take_along_axis(gap, matched[..., None], axis=-1)[..., 0]
    defect = np.abs(
        np.sum(ds, axis=-1) - np.take_along_axis(ds, matched, axis=-1).sum(axis=-1)
    )
    passed = (
        np.all(dev < eps, axis=-1) & (corner >= 0.0) & (corner < (n - 1) * eps + defect)
    )
    return dev, matched, passed


def interval_components(d, radius):
    """Connected components of the union of open intervals ``(d_i +- radius)``.

    Returns a list of ``(lo, hi)`` tuples in increasing order.  Intervals
    that merely touch at an endpoint stay separate (the union of two open
    intervals sharing only an endpoint is disconnected).  ``d`` must be
    finite and not empty, and ``radius`` finite and positive.
    """
    radius = _finite_positive(radius, "radius")
    ds = np.sort(np.asarray(d, dtype=float))
    if ds.size == 0 or not np.all(np.isfinite(ds)):
        raise ValidationError(f"interval centres must be finite and not empty, got {ds}")
    comps = []
    lo, hi = ds[0] - radius, ds[0] + radius
    for x in ds[1:]:
        if x - radius < hi:
            hi = x + radius
        else:
            comps.append((lo, hi))
            lo, hi = x - radius, x + radius
    comps.append((lo, hi))
    return comps


def _components(spec):
    """Components of the intervals ``(d_i +- eps/(2n-3))`` of a spec."""
    return interval_components(spec.d, spec.eps / (2 * spec.n - 3))


def _component_counts(eigs, comps):
    """Eigenvalues inside each component, counted along the last axis."""
    lo, hi = np.array(comps).T
    e = eigs[..., :, None]
    return np.count_nonzero((e > lo) & (e < hi), axis=-2)


def concentration_report(spec):
    """Measure eigenvalue concentration for one bordered matrix.

    Both conclusions are evaluated unconditionally; whether ``spec.aa``
    actually meets a growth threshold is the caller's concern.
    """
    eigs = np.linalg.eigvalsh(bordered(spec))
    ds = np.sort(spec.d)
    small, corner = eigs[:-1], eigs[-1] - spec.aa
    deviations, passed_main = _main_conclusion(spec.eps, ds, small, corner)
    _, matched, passed_refined = _refined_conclusion(spec.eps, ds, small, corner)
    comps = _components(spec)
    return ConcentrationReport(
        deviations=deviations,
        corner_excess=float(corner),
        passed_main=bool(passed_main),
        passed_refined=bool(passed_refined),
        component_counts=_component_counts(eigs, comps),
        matched_indices=matched,
        eigenvalues=eigs,
    )


def count_stability_scan(spec, aa_grid):
    """Per-component eigenvalue counts for each corner value in ``aa_grid``.

    Every grid entry must be finite and at or above the main growth
    threshold; the scan refuses the others, naming them.  Rows of the returned
    integer matrix are the component counts for successive corner values; the
    concentration property makes them identical.
    """
    aa_grid = np.atleast_1d(np.asarray(aa_grid, dtype=float))
    thr = growth_threshold_main(spec.eps, spec.d, spec.a)
    bad = aa_grid[~(np.isfinite(aa_grid) & (aa_grid >= thr))]
    if bad.size:
        raise ValidationError(
            f"corner values {bad.tolist()} are not finite or lie below the growth threshold "
            f"{thr:.6g}; counts are only stable above it"
        )
    comps = _components(spec)
    shape = (aa_grid.size, spec.d.size)
    mats = bordered_batch(np.broadcast_to(spec.d, shape), np.broadcast_to(spec.a, shape), aa_grid)
    return _component_counts(np.linalg.eigvalsh(mats), comps)


def lemma_trial_batch(n, eps, trials, seed, refined=False, aa_factor=1.0):
    """Random battery for the concentration lemmas, fully vectorized.

    Draws ``trials`` random ``(d, a)`` pairs with entries (real and imaginary
    parts) uniform in ``[-2, 2]``, sets the corner to ``aa_factor`` times the
    relevant growth threshold and checks the corresponding conclusion on
    every draw.

    Returns
    -------
    dict with keys ``trials``, ``violations``, ``worst_deviation``,
    ``worst_corner_excess``.
    """
    if n < 2:
        raise ValidationError("n must be at least 2")
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    shape = (trials, n - 1)
    d = rng.uniform(-_TRIAL_AMPLITUDE, _TRIAL_AMPLITUDE, shape)
    a = rng.uniform(-_TRIAL_AMPLITUDE, _TRIAL_AMPLITUDE, shape) + 1j * rng.uniform(
        -_TRIAL_AMPLITUDE, _TRIAL_AMPLITUDE, shape
    )
    threshold = growth_threshold_refined if refined else growth_threshold_main
    aa = aa_factor * threshold(eps, d, a)
    eigs = np.linalg.eigvalsh(bordered_batch(d, a, aa))
    ds = np.sort(d, axis=1)
    small, corner = eigs[:, :-1], eigs[:, -1] - aa
    if refined:
        dev, _, ok = _refined_conclusion(eps, ds, small, corner)
    else:
        dev, ok = _main_conclusion(eps, ds, small, corner)
    return {
        "trials": int(trials),
        "violations": int(np.count_nonzero(~ok)),
        "worst_deviation": float(dev.max()),
        "worst_corner_excess": float(corner.max()),
    }
