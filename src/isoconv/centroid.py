"""Empirical L_p-centroid bodies.

For a SampleSet X = {x_1..x_N} and p >= 1, the body Z_p(X) has support

    h(theta) = ( (1/N) sum_i |<x_i, theta>|^p )^{1/p},

a norm in theta, so Z_p is always an origin-symmetric convex body.  All the
classical inclusion/projection identities hold EXACTLY at the empirical level
(power-mean inequality, <x, theta> = <P_F x, theta> for theta in F), which is
what the deterministic checks below exploit: no tolerance debates, just
floating-point round-off.

Every p shares one kernel: each block of |<x_i, theta>| is divided by its
column max M before the p-th power, so h = M (mean (|<x,theta>|/M)^p)^{1/p}
can only underflow, never overflow, up to the p cap.  At p = 2 the exact
identity h_{Z_2}(theta)^2 = theta^T Sigma theta with Sigma = X^T X / N skips
the (N, m) product altogether.
"""

from __future__ import annotations

import numpy as np

from .bodies import ConvexBody
from .measures import SampleSet, project_samples
from .seeds import sphere_directions

P_CAP = float(2**20)
_DOT_BLOCK = 1 << 21  # doubles (16 MB) held by all (N, b) temporaries of one block


def _blocks(n_points: int, n_dirs: int, temporaries: int):
    """Direction slices whose `temporaries` (N, b) arrays fit in _DOT_BLOCK."""
    step = max(1, _DOT_BLOCK // (n_points * temporaries))
    for start in range(0, n_dirs, step):
        yield slice(start, start + step)


def zp_support(samples: SampleSet, p: float, directions: np.ndarray) -> np.ndarray:
    """h_{Z_p}(theta) for one direction (dim,) or a batch (m, dim).

    p = 1 is the mean of |X theta|; p = 2 is sqrt(theta^T Sigma theta); any
    other p is a power mean scaled by each column's max (overflow-safe up to
    the p cap).  A direction orthogonal to every sample gives 0, at p = 2 up
    to round-off: the quadratic form carries an error of order
    eps * ||Sigma||, so there a direction of tiny spread is resolved only to
    about sqrt(eps) times the largest sample spread.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p > P_CAP:
        raise ValueError(f"p = {p:g} exceeds the cap {P_CAP:g}")
    theta = np.asarray(directions, dtype=float)
    single = theta.ndim == 1
    if single:
        theta = theta[None, :]
    if theta.shape[1] != samples.dim:
        raise ValueError(
            f"directions have dim {theta.shape[1]}, samples have dim {samples.dim}"
        )
    pts = samples.points
    n = samples.count
    if p == 2.0:
        sigma = pts.T @ pts / n
        quad = ((theta @ sigma) * theta).sum(axis=1)
        out = np.sqrt(np.maximum(quad, 0.0))
        return out[0] if single else out
    out = np.empty(theta.shape[0])
    for cols in _blocks(n, theta.shape[0], 1):
        dots = pts @ theta[cols].T  # (N, b)
        np.abs(dots, out=dots)
        if p == 1.0:
            out[cols] = dots.mean(axis=0)
        else:
            scale = dots.max(axis=0)
            scale[scale == 0.0] = 1.0  # an all-zero column stays 0
            dots /= scale
            np.power(dots, p, out=dots)
            out[cols] = scale * dots.mean(axis=0) ** (1.0 / p)
        del dots  # free the block before the next product is formed
    return out[0] if single else out


def zp_touching_points(samples: SampleSet, p: float, directions: np.ndarray) -> np.ndarray:
    """Boundary point of Z_p touching the supporting hyperplane of each direction.

    For a differentiable support function the touching point is grad h; here
    grad h_{Z_p}(theta) = h^{1-p} (1/N) sum |<x,theta>|^{p-1} sign(<x,theta>) x,
    which normalizes to (h/M) X^T w / sum|u|^p with u = dots/M, M = max|dots|,
    so powers only ever underflow.  Convex hulls of these points are inner
    approximations of Z_p (the dual of the support-hull outer estimate).
    """
    if p < 1 or p > P_CAP:
        raise ValueError(f"p must be in [1, {P_CAP:g}], got {p}")
    theta = np.asarray(directions, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != samples.dim:
        raise ValueError("directions must be (m, dim)")
    pts = samples.points
    n = samples.count
    out = np.empty_like(theta)
    for cols in _blocks(n, theta.shape[0], 3):
        dots = pts @ theta[cols].T  # (N, b)
        sign = np.sign(dots)
        np.abs(dots, out=dots)
        scale = dots.max(axis=0)
        if np.any(scale == 0):
            raise ValueError("a direction is orthogonal to every sample")
        dots /= scale  # |u|
        w = np.power(dots, p - 1.0)  # |u|^{p-1}
        dots *= w  # |u|^p
        wp_sum = dots.sum(axis=0)
        h = scale * (wp_sum / n) ** (1.0 / p)
        w *= sign
        touch = (pts.T @ w) / wp_sum * (h / scale)  # (dim, b)
        out[cols] = touch.T
        del dots, sign, w  # free the block before the next product is formed
    return out


def centroid_body(samples: SampleSet, p: float) -> ConvexBody:
    """Z_p of the empirical measure, as a support-oracle body."""
    if p < 1 or p > P_CAP:
        raise ValueError(f"p must be in [1, {P_CAP:g}], got {p}")

    def sup(theta):
        return zp_support(samples, p, theta)

    return ConvexBody(
        dim=samples.dim,
        support=sup,
        membership=None,
        family=f"zp(p={p:g}, N={samples.count})",
        symmetric=True,
    )


def zp_monotonicity_check(
    samples: SampleSet, p: float, q: float, directions: np.ndarray
) -> float:
    """Max violation of h_{Z_p} <= h_{Z_q} over the directions; p <= q.

    The power-mean inequality is exact on the empirical measure, so the
    return value is round-off, < 1e-12 relative.  Positive return = violation.
    """
    if not 1 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got p={p}, q={q}")
    h_p = zp_support(samples, p, directions)
    h_q = zp_support(samples, q, directions)
    scale = np.maximum(h_q, 1e-300)
    return float(((h_p - h_q) / scale).max())


def projection_identity_check(
    samples: SampleSet, p: float, subspace, directions: np.ndarray
) -> float:
    """Max relative deviation of h_{Z_p(S)}(theta) vs h_{Z_p(pi_F S)}(u).

    directions may be given in subspace coordinates (m, k) -- lifted to
    theta = B u -- or as ambient vectors (m, n) that must already lie in F.
    The identity <x, B u> = <B^T x, u> is exact, so deviation is round-off.
    """
    basis = np.asarray(subspace.basis if hasattr(subspace, "basis") else subspace, float)
    ambient, k = basis.shape
    theta = np.asarray(directions, dtype=float)
    if theta.ndim == 1:
        theta = theta[None, :]
    if theta.shape[1] == ambient:
        u = theta @ basis
        lifted = u @ basis.T
        off = np.abs(theta - lifted).max()
        if off > 1e-10:
            raise ValueError(
                f"a direction lies outside the subspace (component {off:g} off F)"
            )
        ambient_dirs = theta
    elif theta.shape[1] == k:
        u = theta
        ambient_dirs = u @ basis.T
    else:
        raise ValueError(
            f"directions have dim {theta.shape[1]}; expected {k} (in-F coords) or {ambient}"
        )
    h_full = zp_support(samples, p, ambient_dirs)
    h_proj = zp_support(project_samples(samples, basis), p, u)
    scale = np.maximum(np.maximum(h_full, h_proj), 1e-300)
    return float((np.abs(h_full - h_proj) / scale).max())


def z2_deviation_from_ball(samples: SampleSet, n_directions: int, seed: int) -> float:
    """max over unit directions of |h_{Z_2}(theta) - 1|.

    For a whitened SampleSet this is round-off: h_{Z_2}^2 is the quadratic
    form of the second-moment matrix, which whitening makes exactly I.
    """
    dirs = sphere_directions(samples.dim, n_directions, seed)
    return float(np.abs(zp_support(samples, 2.0, dirs) - 1.0).max())
