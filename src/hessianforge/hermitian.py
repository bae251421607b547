"""Dense Hermitian eigen-computations for bordered matrix families.

The central object is the bordered Hermitian matrix: a fixed real diagonal
block ``d``, a fixed border column ``a``, and a variable real corner entry
``aa``.  Once the corner exceeds a quadratic growth threshold, the spectrum
concentrates: one eigenvalue tracks the corner from above while the others
pin themselves near the diagonal entries.  This module builds such matrices,
evaluates the two growth thresholds (the main one and its refinement),
checks both lemmas' conclusions on random batteries, and scans the
per-interval eigenvalue counts that certify the concentration is stable
along rays of increasing corner values.

Every spectrum is read from the real symmetric arrowhead matrix with border
``|a|``, which has the same eigenvalues as the Hermitian one (see
``_spectra``), so the batteries run LAPACK's real solver on half the bytes.

The battery and the stability scan run on consecutive row ranges of
``_ROW_BLOCK // 4`` rows (1024, read at call time), each taken by
whichever of two lanes, the calling thread and one helper thread, is free
(``errors._on_two_lanes``): LAPACK releases the interpreter lock, so two
ranges' eigensolves run at once.  Nothing else here runs on the helper.
Each range's thresholds, matrices, spectra and conclusions (or counts)
are formed, reduced and dropped before its lane takes the next one, so at
most two ranges, half a ``_ROW_BLOCK`` of rows, are in flight whatever
the batch.  What stays O(trials) is the battery's up-front draws
(24 (n-1) bytes per trial, 120 B at n = 6) and the scan's integer result.
Results are folded in range order and do not depend on the block or on
which lane ran a range.

All functions are pure and accept batched input where noted.
"""

from dataclasses import dataclass

import numpy as np

from .errors import _ROW_BLOCK, ValidationError, _integer, _on_two_lanes, _real

__all__ = [
    "ValidationError",
    "BorderedSpec",
    "growth_threshold_main",
    "growth_threshold_refined",
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
    threshold formulas and the count scan.  Each must be finite, and eps
    positive; a field that is not is refused by name (``d``, ``a`` and
    ``eps`` by ``_rows``, ``aa`` by ``errors._real``).
    """

    d: np.ndarray
    a: np.ndarray
    aa: float
    eps: float

    def __post_init__(self):
        self.eps, self.d, self.a, _ = _rows(self.eps, self.d, self.a)
        if self.d.ndim != 1:
            raise ValidationError(f"d and a must be 1-d, got shape {self.d.shape}")
        self.aa = _real(self.aa, "aa")

    @property
    def n(self):
        return self.d.size + 1


def bordered_batch(d, a, aa):
    """Bordered matrices for stacks of (d, a, aa) rows; the only assembly.

    ``d`` is 2-d ``(rows, n-1)``, ``a`` has its shape and ``aa`` holds one
    corner per row; other shapes are refused, naming the field.  The dtype
    follows the border: float64 for a real ``a``, complex128 for a complex
    one.
    """
    d = np.asarray(d, dtype=float)
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, float), copy=False)
    aa = np.asarray(aa, dtype=float)
    if d.ndim != 2:
        raise ValidationError(f"d must be 2-d (rows, n-1), got shape {d.shape}")
    if a.shape != d.shape:
        raise ValidationError(f"a must have d's shape {d.shape}, got {a.shape}")
    t, m = d.shape
    if aa.shape != (t,):
        raise ValidationError(f"aa must hold one corner for each of {t} rows, got shape {aa.shape}")
    out = np.zeros((t, m + 1, m + 1), dtype=a.dtype)
    idx = np.arange(m)
    out[:, idx, idx] = d
    out[:, :m, m] = a
    out[:, m, :m] = np.conj(a)
    out[:, m, m] = aa
    return out


def _spectra(d, a, aa):
    """Ascending eigenvalues of the bordered matrices of stacked (d, a, aa).

    The one eigensolve of this module.  With ``U = diag(a_i/|a_i|, 1)`` (a
    zero ``a_i`` takes phase 1), ``U* M U`` is the real symmetric arrowhead
    matrix with diagonal ``d``, border ``|a|`` and corner ``aa``: the phases
    cancel on the diagonal and rotate each border entry onto the positive
    axis.  A unitary similarity keeps the spectrum, so the real matrix is
    solved instead of the Hermitian one.
    """
    return np.linalg.eigvalsh(bordered_batch(d, np.abs(a), aa))


def _rows(eps, d, a):
    """(eps, d, a, n): the one check of bordered rows, for a spec and for
    the growth thresholds.

    ``d`` becomes a real and ``a`` a complex array, at least 1-d, each row
    along the last axis, and n is the row length plus one.  Refused, each by
    name with :class:`ValidationError`: ``eps`` that is not a finite
    positive real (``errors._real``), ``d`` and ``a`` of different shapes,
    n < 2, and a NaN or infinite entry of ``d`` or ``a``.
    """
    eps = _real(eps, "eps", positive=True)
    d = np.atleast_1d(np.asarray(d, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    if d.shape != a.shape:
        raise ValidationError(f"d and a must have equal shapes, got {d.shape} and {a.shape}")
    n = d.shape[-1] + 1
    if n < 2:
        raise ValidationError("bordered matrices need dimension n >= 2")
    for name, value in (("d", d), ("a", a)):
        if not np.isfinite(value).all():
            raise ValidationError(f"{name} must be finite, got {value}")
    return eps, d, a, n


def growth_threshold_main(eps, d, a):
    """Corner threshold after which the spectrum concentrates within ``eps``.

    Value: ``(2n-3)/eps * sum|a_i|^2 + (n-1) * sum|d_i| + (n-2) eps/(2n-3)``.
    Above this corner value every sorted eigenvalue sits within ``eps`` of the
    sorted diagonal block and the top eigenvalue exceeds the corner by less
    than ``(n-1) eps``.  Stacked ``(..., n-1)`` rows give one threshold each.
    """
    eps, d, a, n = _rows(eps, d, a)
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
    eps, d, a, n = _rows(eps, d, a)
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
    radius = _real(radius, "radius", positive=True)
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


def _component_counts(eigs, comps):
    """Eigenvalues inside each component, counted along the last axis."""
    lo, hi = np.array(comps).T
    e = eigs[..., :, None]
    return np.count_nonzero((e > lo) & (e < hi), axis=-2)


def count_stability_scan(spec, aa_grid):
    """Per-component eigenvalue counts for each corner value in ``aa_grid``.

    ``aa_grid`` is a corner value or a 1-d array of them; each must be
    finite and at or above the main growth threshold.  The scan refuses the
    others with one bounded message: the threshold, the first five refused
    corners and, where there are more, how many.  Rows of the returned integer matrix are the
    component counts for successive corner values; the concentration
    property makes them identical.  Each spectrum comes from the real
    arrowhead matrix with border ``|spec.a|`` (``_spectra``).

    The corners are solved ``_ROW_BLOCK // 4`` at a time, two ranges at
    once on the calling thread and the helper lane
    (``errors._on_two_lanes``), and each range's counts are written into
    the preallocated result.  Beyond that result (8 bytes per corner and
    component), two ranges' matrices and spectra are the memory in flight.
    """
    aa_grid = np.atleast_1d(np.asarray(aa_grid, dtype=float))
    if aa_grid.ndim != 1:
        raise ValidationError(f"aa_grid must be a scalar or 1-d, got shape {aa_grid.shape}")
    thr = growth_threshold_main(spec.eps, spec.d, spec.a)
    bad = aa_grid[~(np.isfinite(aa_grid) & (aa_grid >= thr))]
    if bad.size:
        shown = f"{bad[:5].tolist()}" + (f" (the first 5 of {bad.size})" if bad.size > 5 else "")
        raise ValidationError(
            f"corner values {shown} are not finite or lie below the growth threshold "
            f"{thr:.6g}; counts are only stable above it"
        )
    comps = interval_components(spec.d, spec.eps / (2 * spec.n - 3))
    counts = np.empty((aa_grid.size, len(comps)), dtype=np.intp)

    def block(lo, hi):
        shape = (hi - lo, spec.d.size)
        eigs = _spectra(np.broadcast_to(spec.d, shape), np.broadcast_to(spec.a, shape), aa_grid[lo:hi])
        counts[lo:hi] = _component_counts(eigs, comps)

    _on_two_lanes(aa_grid.size, _ROW_BLOCK // 4, block)
    return counts


def lemma_trial_batch(n, eps, trials, seed, refined=False, aa_factor=1.0):
    """Random battery for the concentration lemmas, fully vectorized.

    Draws ``trials`` random ``(d, a)`` pairs with entries (real and imaginary
    parts) uniform in ``[-2, 2]``, sets the corner to ``aa_factor`` times the
    relevant growth threshold and checks the corresponding conclusion on
    every draw.  The spectra come from the real arrowhead matrices with
    border ``|a|`` (``_spectra``), so no complex matrix is formed.  ``n``
    (>= 2), ``trials`` (>= 1) and ``seed`` (>= 0) must be integers, checked
    by ``errors._integer`` (an integral float counts, a bool does not), and
    ``eps`` and ``aa_factor`` finite positive reals, checked by
    ``errors._real``; all are checked before anything is drawn.

    All draws are made up front, so the random stream does not depend on
    the block.  They are the only O(trials) memory: 24 (n-1) bytes per
    trial, and 8 (n-1) more while a part of ``a`` is drawn.
    Threshold, spectra, sorted diagonal and conclusion then run on ranges
    of ``_ROW_BLOCK // 4`` trials, two at once on the calling thread and
    the helper lane (``errors._on_two_lanes``), so two ranges' temporaries
    are the memory in flight; the violations and the two worst values are
    folded in range order.

    Returns
    -------
    dict with keys ``trials``, ``violations``, ``worst_deviation``,
    ``worst_corner_excess``.
    """
    n = _integer(n, "n", least=2)
    eps = _real(eps, "eps", positive=True)
    trials = _integer(trials, "trials", least=1)
    aa_factor = _real(aa_factor, "aa_factor", positive=True)
    rng = np.random.default_rng(_integer(seed, "seed", least=0))
    shape = (trials, n - 1)
    d = rng.uniform(-_TRIAL_AMPLITUDE, _TRIAL_AMPLITUDE, shape)
    a = np.empty(shape, dtype=complex)
    a.real = rng.uniform(-_TRIAL_AMPLITUDE, _TRIAL_AMPLITUDE, shape)
    a.imag = rng.uniform(-_TRIAL_AMPLITUDE, _TRIAL_AMPLITUDE, shape)
    threshold = growth_threshold_refined if refined else growth_threshold_main

    def block(lo, hi):
        d_blk, a_blk = d[lo:hi], a[lo:hi]
        aa = aa_factor * threshold(eps, d_blk, a_blk)
        eigs = _spectra(d_blk, a_blk, aa)
        ds = np.sort(d_blk, axis=1)
        small, corner = eigs[:, :-1], eigs[:, -1] - aa
        if refined:
            dev, _, ok = _refined_conclusion(eps, ds, small, corner)
        else:
            dev, ok = _main_conclusion(eps, ds, small, corner)
        return int(np.count_nonzero(~ok)), dev.max(), corner.max()

    violations, worst_dev, worst_corner = zip(*_on_two_lanes(trials, _ROW_BLOCK // 4, block))
    return {
        "trials": int(trials),
        "violations": sum(violations),
        "worst_deviation": float(np.max(worst_dev)),
        "worst_corner_excess": float(np.max(worst_corner)),
    }
