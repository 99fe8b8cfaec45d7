"""Moment estimation and the isotropic constant.

The covariance here is the second-moment matrix about the sample mean with
divisor N (the measure-theoretic definition; the 1/N vs 1/(N-1) difference is
far below Monte Carlo noise at the sample sizes used).  The isotropic
constant of a log-concave probability measure is

    L = (sup f)^{1/n} * det(Cov)^{1/(2n)},

an affine invariant, computed as exp(log sup f / n) * det(Cov)^{1/(2n)}; for
the uniform measure on a unit-volume body, sup f = 1 and L is just the
covariance determinant root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bodies import ConvexBody, UnsupportedOracleError
from .measures import SampleSet


class DegenerateCovarianceError(ValueError):
    pass


@dataclass(frozen=True)
class MomentSummary:
    """Empirical barycenter and covariance with its spectral data.

    eigenvalues are the covariance eigenvalues (variances, lambda_i^2 in the
    usual convention where lambda_i is the singular value of the body's
    position), sorted descending.  det_root = det(C)^{1/(2n)}.
    """

    barycenter: np.ndarray
    covariance: np.ndarray
    eigenvalues: np.ndarray  # descending
    det_root: float

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]


def estimate_moments(samples: SampleSet) -> MomentSummary:
    """Sample barycenter and covariance (divisor N) with eigendecomposition.

    Eigenvalues more negative than -1e-10 * lambda_max are an error (the
    covariance of finitely many finite points is PSD up to round-off); small
    negative round-off is clipped to zero, and a zero eigenvalue makes det_root 0.
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
    clipped = np.clip(evals, 0.0, None)
    with np.errstate(divide="ignore"):  # a zero eigenvalue: log -inf, det_root 0
        det_root = math.exp(np.log(clipped).sum() / (2 * dim))
    return MomentSummary(barycenter=b, covariance=cov, eigenvalues=clipped, det_root=det_root)


def isotropic_constant(summary: MomentSummary, log_density_sup: Optional[float]) -> float:
    """L = exp(log_density_sup / n) * det_root.  Needs an exact density sup.

    The sup enters as its log, so L stays finite where sup f itself over- or
    underflows.
    """
    if log_density_sup is None:
        raise UnsupportedOracleError(
            "isotropic constant needs an exact density sup; sample-based "
            "estimates of ||f||_inf are not supported"
        )
    return math.exp(log_density_sup / summary.dim) * summary.det_root


# exact isotropic constants used as oracles across the test suite
def exact_isotropic_constant(body: ConvexBody) -> float:
    val = body.analytic.get("isotropic_constant")
    if val is None:
        raise UnsupportedOracleError("no analytic isotropic constant for this body")
    return float(val)
