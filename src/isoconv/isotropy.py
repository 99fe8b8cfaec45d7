"""Moment estimation, whitening, and the isotropic constant.

The covariance here is the second-moment matrix about the sample mean with
divisor N (the measure-theoretic definition; the 1/N vs 1/(N-1) difference is
far below Monte Carlo noise at the sample sizes used).  The isotropic
constant of a log-concave probability measure is

    L = (sup f)^{1/n} * det(Cov)^{1/(2n)},

an affine invariant; for the uniform measure on a unit-volume body, sup f = 1
and L is just the covariance determinant root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .bodies import ConvexBody, UnsupportedOracleError
from .measures import LogConcaveMeasure, SampleSet, draw_samples
from .seeds import child_seed


class DegenerateCovarianceError(ValueError):
    pass


@dataclass(frozen=True)
class MomentSummary:
    """Empirical barycenter and covariance with its spectral data.

    eigenvalues are the covariance eigenvalues (variances, lambda_i^2 in the
    usual convention where lambda_i is the singular value of the body's
    position), sorted descending.  det_root = det(C)^{1/(2n)}.
    """

    dim: int
    barycenter: np.ndarray
    covariance: np.ndarray
    eigenvalues: np.ndarray  # descending
    det_root: float
    n_used: int
    seed: int
    degenerate: bool = False


def estimate_moments(samples: SampleSet) -> MomentSummary:
    """Sample barycenter and covariance (divisor N) with eigendecomposition.

    Eigenvalues more negative than -1e-10 * lambda_max are an error (the
    covariance of finitely many finite points is PSD up to round-off); small
    negative round-off is clipped to zero and flagged degenerate.
    """
    n, dim = samples.count, samples.dim
    if n < dim + 1:
        raise ValueError(f"need at least dim+1 = {dim + 1} samples, got {n}")
    pts = samples.points
    b = pts.mean(axis=0)
    centered = pts - b
    cov = centered.T @ centered / n
    cov = 0.5 * (cov + cov.T)  # enforce exact symmetry before eigensolve
    evals = np.linalg.eigvalsh(cov)[::-1].copy()
    top = evals[0]
    if top <= 0:
        raise DegenerateCovarianceError("all sample points coincide")
    if evals[-1] < -1e-10 * top:
        raise DegenerateCovarianceError(
            f"covariance eigenvalue {evals[-1]:g} is negative beyond round-off"
        )
    degenerate = bool(evals[-1] <= 1e-10 * top)
    clipped = np.clip(evals, 0.0, None)
    with np.errstate(divide="ignore"):
        log_evs = np.log(clipped)
    det_root = (
        0.0 if degenerate and clipped[-1] == 0.0 else math.exp(log_evs.sum() / (2 * dim))
    )
    return MomentSummary(
        dim=dim,
        barycenter=b,
        covariance=cov,
        eigenvalues=clipped,
        det_root=det_root,
        n_used=n,
        seed=samples.seed,
        degenerate=degenerate,
    )


def whitening_map(summary: MomentSummary) -> Tuple[np.ndarray, np.ndarray]:
    """T = C^{-1/2} (symmetric) and shift -b; x -> T(x + shift) is isotropic.

    Applying the map to the generating samples makes the empirical barycenter
    exactly 0 and covariance exactly I (up to round-off): this is algebra on
    the empirical measure, not a new estimate.
    """
    evals = summary.eigenvalues
    if evals[-1] <= 1e-10 * evals[0]:
        raise DegenerateCovarianceError(
            f"covariance is degenerate: smallest eigenvalue {evals[-1]:g} "
            f"vs largest {evals[0]:g}"
        )
    w, V = np.linalg.eigh(summary.covariance)
    T = (V * (1.0 / np.sqrt(w))) @ V.T
    return T, -summary.barycenter


def apply_whitening(samples: SampleSet, T: np.ndarray, shift: np.ndarray) -> SampleSet:
    pts = (samples.points + shift) @ T.T
    return SampleSet(
        dim=samples.dim,
        count=samples.count,
        points=pts,
        seed=samples.seed,
        provenance=f"whitened({samples.provenance})",
    )


def isotropic_constant(summary: MomentSummary, density_sup: Optional[float]) -> float:
    """L = density_sup^{1/n} * det_root.  Needs an exact density sup."""
    if density_sup is None or density_sup <= 0:
        raise UnsupportedOracleError(
            "isotropic constant needs an exact density sup; sample-based "
            "estimates of ||f||_inf are not supported"
        )
    return density_sup ** (1.0 / summary.dim) * summary.det_root


def isotropic_constant_estimate(
    measure: LogConcaveMeasure, n_samples: int, seed: int, batches: int = 8
) -> Tuple[float, float]:
    """(L_hat, std_error) by batch means: independent sub-draws, one L each."""
    if measure.density_sup is None:
        raise UnsupportedOracleError(
            f"measure {measure.label!r} has no exact density sup"
        )
    if batches < 2:
        raise ValueError("need at least 2 batches for a standard error")
    per = max(measure.dim + 1, n_samples // batches)
    vals = np.empty(batches)
    for i in range(batches):
        s = draw_samples(measure, per, child_seed(seed, i))
        vals[i] = isotropic_constant(estimate_moments(s), measure.density_sup)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(batches))


# exact isotropic constants used as oracles across the test suite
def exact_isotropic_constant(body: ConvexBody) -> float:
    val = body.analytic.get("isotropic_constant")
    if val is None:
        raise UnsupportedOracleError(
            f"no analytic isotropic constant for family {body.family!r}"
        )
    return float(val)
