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
    "eigh",
    "bordered",
    "growth_threshold_main",
    "growth_threshold_refined",
    "concentration_report",
    "interval_components",
    "count_stability_scan",
    "lemma_trial_batch",
]

HERMITICITY_RTOL = 1e-12


def _as_matrix(a):
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return a


def eigh(a, check=True):
    """Eigenvalues of a Hermitian matrix, sorted ascending.

    The input is validated (relative asymmetry above ``1e-12`` is rejected)
    and symmetrized to ``(A + A*)/2`` before the eigensolve, so roundoff in
    the caller's assembly cannot leak into the spectrum.

    Parameters
    ----------
    a : (n, n) array_like
        Hermitian matrix.
    check : bool
        Validate Hermiticity first.  Disable only for matrices that are
        Hermitian by construction.

    Returns
    -------
    (n,) ndarray of float, ascending.
    """
    a = _as_matrix(a)
    if check:
        scale = np.linalg.norm(a)
        asym = np.linalg.norm(a - a.conj().T)
        if asym > HERMITICITY_RTOL * max(scale, 1e-300):
            raise ValidationError(
                f"matrix is not Hermitian: asymmetry {asym:.3e} exceeds "
                f"{HERMITICITY_RTOL:.0e} * norm ({scale:.3e})"
            )
    return np.linalg.eigvalsh(0.5 * (a + a.conj().T))


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
        self.eps = float(self.eps)
        if self.d.shape != self.a.shape or self.d.ndim != 1:
            raise ValidationError("d and a must be 1-d arrays of equal length")
        if self.n < 2:
            raise ValidationError("bordered matrices need dimension n >= 2")
        if self.eps <= 0:
            raise ValidationError("eps must be positive")

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


def bordered(spec):
    """Assemble the n x n bordered Hermitian matrix of a :class:`BorderedSpec`."""
    m = spec.d.size
    out = np.zeros((m + 1, m + 1), dtype=complex)
    out[np.arange(m), np.arange(m)] = spec.d
    out[:m, m] = spec.a
    out[m, :m] = np.conj(spec.a)
    out[m, m] = spec.aa
    return out


def bordered_batch(d, a, aa):
    """Vectorized :func:`bordered` for stacks of (d, a, aa) rows."""
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
    eps = float(eps)
    if eps <= 0:
        raise ValidationError("eps must be positive")
    d = np.atleast_1d(np.asarray(d, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    if d.shape != a.shape:
        raise ValidationError("d and a must have equal length")
    return eps, d, a, d.size + 1


def growth_threshold_main(eps, d, a):
    """Corner threshold after which the spectrum concentrates within ``eps``.

    Value: ``(2n-3)/eps * sum|a_i|^2 + (n-1) * sum|d_i| + (n-2) eps/(2n-3)``.
    Above this corner value every sorted eigenvalue sits within ``eps`` of the
    sorted diagonal block and the top eigenvalue exceeds the corner by less
    than ``(n-1) eps``.
    """
    eps, d, a, n = _threshold_inputs(eps, d, a)
    return (
        (2 * n - 3) / eps * float(np.sum(np.abs(a) ** 2))
        + (n - 1) * float(np.sum(np.abs(d)))
        + (n - 2) * eps / (2 * n - 3)
    )


def growth_threshold_refined(eps, d, a):
    """Refined corner threshold; weaker conclusion, smaller constant.

    Value: ``1/eps * sum|a_i|^2 + sum(d_i + (n-2)|d_i|) + (n-2) eps``.  Above
    it, every small eigenvalue lies within ``eps`` of *some* diagonal entry
    (not necessarily its own after sorting).
    """
    eps, d, a, n = _threshold_inputs(eps, d, a)
    return (
        float(np.sum(np.abs(a) ** 2)) / eps
        + float(np.sum(d + (n - 2) * np.abs(d)))
        + (n - 2) * eps
    )


def interval_components(d, radius):
    """Connected components of the union of open intervals ``(d_i +- radius)``.

    Returns a list of ``(lo, hi)`` tuples in increasing order.  Intervals
    that merely touch at an endpoint stay separate (the union of two open
    intervals sharing only an endpoint is disconnected).
    """
    ds = np.sort(np.asarray(d, dtype=float))
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


def concentration_report(spec):
    """Measure eigenvalue concentration for one bordered matrix.

    Both conclusions are evaluated unconditionally; whether ``spec.aa``
    actually meets a growth threshold is the caller's concern.
    """
    n = spec.n
    eps = spec.eps
    eigs = eigh(bordered(spec), check=False)
    ds = np.sort(spec.d)
    small = eigs[: n - 1]
    deviations = np.abs(ds - small)
    corner_excess = float(eigs[-1] - spec.aa)

    passed_main = bool(
        np.all(deviations < eps) and 0.0 <= corner_excess < (n - 1) * eps
    )

    # refinement conclusion: each small eigenvalue near *some* diagonal entry,
    # with the corner excess bound corrected by the matching defect
    matched = np.argmin(np.abs(small[:, None] - ds[None, :]), axis=1)
    near_any = np.abs(small - ds[matched]) < eps
    defect = abs(float(np.sum(ds - ds[matched])))
    passed_refined = bool(
        np.all(near_any) and 0.0 <= corner_excess < (n - 1) * eps + defect
    )

    comps = interval_components(ds, eps / (2 * n - 3))
    counts = _component_counts(eigs, comps)

    return ConcentrationReport(
        deviations=deviations,
        corner_excess=corner_excess,
        passed_main=passed_main,
        passed_refined=passed_refined,
        component_counts=counts,
        matched_indices=matched,
        eigenvalues=eigs,
    )


def count_stability_scan(spec, aa_grid):
    """Per-component eigenvalue counts for each corner value in ``aa_grid``.

    Every grid entry must sit at or above the main growth threshold; the scan
    refuses otherwise, naming the offending entries.  Rows of the returned
    integer matrix are the component counts for successive corner values; the
    concentration property makes them identical.
    """
    aa_grid = np.atleast_1d(np.asarray(aa_grid, dtype=float))
    thr = growth_threshold_main(spec.eps, spec.d, spec.a)
    bad = aa_grid[aa_grid < thr]
    if bad.size:
        raise ValidationError(
            f"corner values {bad.tolist()} lie below the growth threshold "
            f"{thr:.6g}; counts are only stable above it"
        )
    comps = interval_components(np.sort(spec.d), spec.eps / (2 * spec.n - 3))
    shape = (aa_grid.size, spec.d.size)
    mats = bordered_batch(np.broadcast_to(spec.d, shape), np.broadcast_to(spec.a, shape), aa_grid)
    return _component_counts(np.linalg.eigvalsh(mats), comps)


def lemma_trial_batch(n, eps, trials, seed, refined=False, aa_factor=1.0,
                      amplitude=2.0):
    """Random battery for the concentration lemmas, fully vectorized.

    Draws ``trials`` random ``(d, a)`` pairs, sets the corner to ``aa_factor``
    times the relevant growth threshold and checks the corresponding
    conclusion on every draw.

    Returns
    -------
    dict with keys ``trials``, ``violations``, ``worst_deviation``,
    ``worst_corner_excess``.
    """
    if n < 2:
        raise ValidationError("n must be at least 2")
    rng = np.random.default_rng(seed)
    m = n - 1
    d = rng.uniform(-amplitude, amplitude, size=(trials, m))
    a = rng.uniform(-amplitude, amplitude, size=(trials, m)) + 1j * rng.uniform(
        -amplitude, amplitude, size=(trials, m)
    )
    sq = np.sum(np.abs(a) ** 2, axis=1)
    if refined:
        thr = sq / eps + np.sum(d + (n - 2) * np.abs(d), axis=1) + (n - 2) * eps
    else:
        thr = (
            (2 * n - 3) / eps * sq
            + (n - 1) * np.sum(np.abs(d), axis=1)
            + (n - 2) * eps / (2 * n - 3)
        )
    aa = aa_factor * thr
    eigs = np.linalg.eigvalsh(bordered_batch(d, a, aa))
    ds = np.sort(d, axis=1)
    small = eigs[:, :m]
    corner = eigs[:, -1] - aa

    if refined:
        dev = np.min(np.abs(small[:, :, None] - ds[:, None, :]), axis=2)
        matched = np.argmin(np.abs(small[:, :, None] - ds[:, None, :]), axis=2)
        defect = np.abs(
            np.sum(ds, axis=1) - np.take_along_axis(ds, matched, axis=1).sum(axis=1)
        )
        ok = (
            np.all(dev < eps, axis=1)
            & (corner >= 0.0)
            & (corner < (n - 1) * eps + defect)
        )
    else:
        dev = np.abs(ds - small)
        ok = np.all(dev < eps, axis=1) & (corner >= 0.0) & (corner < (n - 1) * eps)

    return {
        "trials": int(trials),
        "violations": int(np.count_nonzero(~ok)),
        "worst_deviation": float(dev.max()),
        "worst_corner_excess": float(corner.max()),
    }
