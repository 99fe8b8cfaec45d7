"""Convex bodies as immutable oracle bundles.

A body is its support function h_K(theta) = sup{<x, theta> : x in K}, plus an
optional membership oracle and whatever analytic facts (log-volume, isotropic
constant, inradius, mean width) are known for the family.  This module alone
knows which families have an exact mean width: balls and l1 balls state it
as a fact, and scaling carries it along.  The standard families and their
constructions are oracles over closed forms, so dimensions up to ~128 stay
cheap.  A projected cube or cross-polytope is an oracle with facts too: it
states its exact volume as its log_volume (grassmann.project_body).

Oracles take batches only: support maps an (m, dim) array of directions to
an (m,) float array, and membership an (m, dim) array of points to an (m,)
bool array.  A single direction is passed as a (1, dim) batch.
Exact uniform samplers, where a family admits one, ride along on the body so
measure construction can reuse them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .seeds import rng_from


class BodyConstructionError(ValueError):
    """Invalid parameters for a body family."""


class UnsupportedOracleError(ValueError):
    """Operation needs an oracle (membership, sampler) the body lacks."""


def ball_volume(dim: int) -> float:
    """Volume of B_2^dim, exact closed form."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def volume_radius(volume: float, dim: int) -> float:
    """(volume / Vol B_2^dim)^{1/dim}, the radius of the ball of that volume."""
    return (volume / ball_volume(dim)) ** (1.0 / dim)


def lp_ball_log_volume(dim: int, p: float) -> float:
    """log vol B_p^dim = n log(2 Gamma(1+1/p)) - log Gamma(1+n/p), finite at any n."""
    return dim * (math.log(2.0) + math.lgamma(1.0 + 1.0 / p)) - math.lgamma(
        1.0 + dim / p
    )


@dataclass(frozen=True)
class ConvexBody:
    """Immutable oracle bundle for a convex body K in R^dim.

    A body holds its dimension, its oracles and its exact facts, and nothing
    else: it carries no name.

    support: (m, dim) directions theta -> (m,) float array h_K(theta),
        positively homogeneous and subadditive.
    membership: optional (m, dim) points x -> (m,) bool array, x in K.
    analytic: known exact quantities keyed by name (log_volume, inradius,
        mean_width, ball_radius, cube_half_side, cross_radius,
        isotropic_constant).  The volume is carried only as its log, which
        stays finite where the volume itself over- or underflows, and it is
        the one fact a volume is read from (grassmann.volume_radius_lowdim).
        mean_width, the exact M*(K), is stated by balls r*B_2 and l1 balls
        r*B_1 only.  ball_radius, cube_half_side and cross_radius name the
        family r*B_2, [-a, a]^dim and r*B_1, so that projections can keep an
        exact description.
    sample_exact: optional (count, seed) -> (count, dim) exact uniform sampler.
    """

    dim: int
    support: Callable[[np.ndarray], np.ndarray]
    membership: Optional[Callable[[np.ndarray], np.ndarray]] = None
    analytic: Mapping[str, float] = field(default_factory=dict)
    sample_exact: Optional[Callable[[int, int], np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise BodyConstructionError(f"dim must be >= 1, got {self.dim}")


def interval_length(body: ConvexBody) -> float:
    """Length h(1) + h(-1) of a body in R^1, the interval [-h(-1), h(1)]; exact."""
    return float(body.support(np.array([[1.0], [-1.0]])).sum())


def _check_dim(dim) -> int:
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise BodyConstructionError(f"dim must be a positive integer, got {dim!r}")
    return int(dim)


def _check_square_matrix(T: np.ndarray, name: str) -> np.ndarray:
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise BodyConstructionError(f"{name} must be a square matrix, got shape {T.shape}")
    if not np.all(np.isfinite(T)):
        raise BodyConstructionError(f"{name} has non-finite entries")
    return T


# ---------------------------------------------------------------------------
# standard families
# ---------------------------------------------------------------------------


def ball(dim: int, radius: float = 1.0) -> ConvexBody:
    """radius * B_2^dim; h(theta) = radius*|theta|."""
    return lp_ball(dim, 2.0, radius)


def cube(dim: int, side: float = 2.0) -> ConvexBody:
    """Axis cube [-side/2, side/2]^dim; h(theta) = (side/2)*||theta||_1."""
    dim = _check_dim(dim)
    if not 0 < side < math.inf:
        raise BodyConstructionError(f"side must be positive and finite, got {side}")
    half = side / 2.0

    def sampler(count, seed):
        return rng_from(seed).uniform(-half, half, size=(count, dim))

    return ConvexBody(
        dim=dim,
        support=lambda t: half * np.abs(t).sum(axis=1),
        membership=lambda x: np.abs(x).max(axis=1) <= half * (1 + 1e-12),
        analytic={
            "log_volume": dim * math.log(side),
            "inradius": half,
            "cube_half_side": half,
            # side^2/12 per coordinate; L_K is scale invariant
            "isotropic_constant": math.sqrt(1.0 / 12.0),
        },
        sample_exact=sampler,
    )


def cross_polytope(dim: int) -> ConvexBody:
    """B_1^dim; h(theta) = ||theta||_inf."""
    return lp_ball(dim, 1.0)


# E||g||_inf: composite Gauss-Legendre, _GL_PANELS_PER_UNIT panels per unit
# of t, each with the 16-point rule mapped from [-1, 1] to [0, 1]
_GL_PANELS_PER_UNIT = 4
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS
# the integrand is below n exp(-t^2/2) = e^-_GL_TAIL < 1e-18 past t^2 = 2 (ln n + _GL_TAIL)
_GL_TAIL = 42.0


def _gaussian_max_abs_mean(n: int) -> float:
    """E||g||_inf for g standard Gaussian in R^n.

    E||g||_inf = int_0^inf 1 - (1 - erfc(t/sqrt 2))^n dt, the integrand
    evaluated as -expm1(n log1p(-erfc(t/sqrt 2))) so that it keeps full
    relative precision at every n, and integrated by the fixed composite rule
    above on [0, sqrt(2 (ln n + _GL_TAIL))].
    """
    top = math.sqrt(2.0 * (math.log(n) + _GL_TAIL))
    panels = math.ceil(_GL_PANELS_PER_UNIT * top)
    width = top / panels
    t = (np.arange(panels)[:, None] + _GL_NODES) * width
    tail = np.array([math.erfc(x / math.sqrt(2.0)) for x in t.ravel()])
    integrand = -np.expm1(n * np.log1p(-tail))
    return width * float((integrand.reshape(panels, -1) @ _GL_WEIGHTS).sum())


def _gaussian_norm_mean(n: int) -> float:
    """E|g| = sqrt(2) Gamma((n+1)/2) / Gamma(n/2) for g standard Gaussian in R^n."""
    return math.sqrt(2.0) * math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))


def lp_ball(dim: int, p: float, radius: float = 1.0) -> ConvexBody:
    """radius * B_p^dim for p >= 1; support is the dual-norm radius*||theta||_q.

    Two exponents state their exact mean width.  A ball r B_2^n has M* = r.
    An l1 ball r B_1^n has M* = r E||theta||_inf = r E||g||_inf / E|g|, by
    the polar decomposition g = |g| theta with |g| and theta independent;
    E||g||_inf is a fixed one-dimensional quadrature (_gaussian_max_abs_mean)
    and E|g| a ratio of Gamma functions.  Against mpmath at 30 digits its
    relative error is at most 1e-14 + 2^-50 |lgamma((n+1)/2)|, four ulps of
    the log-Gamma values, whose difference sets it past n ~ 10^3: measured
    <= 1.7e-14 up to n = 160, 9.4e-12 at n = 10^4 and 5.5e-10 at n = 10^6.
    """
    dim = _check_dim(dim)
    if not p >= 1:
        raise BodyConstructionError(f"p must be >= 1, got {p}")
    if not 0 < radius < math.inf:
        raise BodyConstructionError(f"radius must be positive and finite, got {radius}")
    r = float(radius)
    if p == 1.0:
        sup = lambda t: r * np.abs(t).max(axis=1)
    elif math.isinf(p):
        raise BodyConstructionError("use cube() for the p=inf ball")
    else:
        q = p / (p - 1.0)
        sup = lambda t: r * np.linalg.norm(t, ord=q, axis=1)
    analytic = {
        "log_volume": lp_ball_log_volume(dim, p) + dim * math.log(r),
        "inradius": r * min(1.0, dim ** (0.5 - 1.0 / p)),
    }
    if p == 1.0:
        analytic["cross_radius"] = r
        analytic["mean_width"] = r * (_gaussian_max_abs_mean(dim) / _gaussian_norm_mean(dim))
        # unit-volume copy has radius r1 = (n!/2^n)^{1/n}; E x1^2 = 2 r^2/((n+1)(n+2))
        r1 = math.exp((math.lgamma(dim + 1) - dim * math.log(2.0)) / dim)
        analytic["isotropic_constant"] = r1 * math.sqrt(
            2.0 / ((dim + 1) * (dim + 2))
        )
    elif p == 2.0:
        analytic["ball_radius"] = r
        analytic["mean_width"] = r
        # unit-volume radius exp(-log vol B_2^n / n); E x1^2 = r^2/(n+2)
        analytic["isotropic_constant"] = math.exp(
            -lp_ball_log_volume(dim, 2.0) / dim
        ) / math.sqrt(dim + 2)

    def member(x):
        # sum |x_i / r|^p <= 1: the radius is divided out before the power, so
        # neither side under- or overflows at large p when r != 1
        with np.errstate(over="ignore"):
            return np.power(np.abs(x / r), p).sum(axis=1) <= 1 + 1e-12

    return ConvexBody(
        dim=dim,
        support=sup,
        membership=member,
        analytic=analytic,
        sample_exact=_lp_ball_sampler(dim, p, r),
    )


def _lp_ball_sampler(dim: int, p: float, radius: float):
    """Exact uniform sampler on radius*B_p^dim.

    Coordinates sign_i * G_i^{1/p} with G_i ~ Gamma(1/p, 1) have the
    p-generalized density ~ exp(-|t|^p); normalizing by the p-norm and
    multiplying by U^{1/n} gives the uniform law on the ball.

    At p = 1 the magnitudes are the Gamma(1) draws themselves (the powers
    1/p and p are identities) and the norm is their row sum.  At p != 1,
    Gamma(1/p) underflows to 0 for large p, so the magnitudes come from the
    exact boost G_a = G_{a+1} V^{1/a} (V uniform on (0, 1], independent):
    G_{1/p}^{1/p} = G_{1+1/p}^{1/p} V, which is positive and of order one
    at every p.  The p-norm is taken after dividing each row by its largest
    entry, so its sum of p-th powers lies in [1, dim] and can neither
    underflow nor overflow.  Signs and scales are applied in place to the
    one (count, dim) array the sampler returns; at p != 1 the uniform draw
    V doubles as the scratch array for the norm.
    """

    def sampler(count, seed):
        rng = rng_from(seed)
        if p == 1.0:
            w = rng.gamma(1.0, 1.0, size=(count, dim))
            norms = w.sum(axis=1)
        else:
            w = rng.gamma(1.0 + 1.0 / p, 1.0, size=(count, dim))
            np.power(w, 1.0 / p, out=w)
            v = rng.random((count, dim))
            np.subtract(1.0, v, out=v)
            w *= v
            peak = w.max(axis=1)
            np.divide(w, peak[:, None], out=v)
            np.power(v, p, out=v)
            norms = v.sum(axis=1) ** (1.0 / p) * peak
        signs = rng.integers(0, 2, size=(count, dim))
        signs *= 2
        signs -= 1
        w *= signs
        radial = rng.uniform(0.0, 1.0, size=count) ** (1.0 / dim)
        w *= (radius * radial)[:, None]
        w /= norms[:, None]
        return w

    return sampler


def ellipsoid(matrix: np.ndarray) -> ConvexBody:
    """Image A*B_2^n of the unit ball; h(theta) = |A^T theta|."""
    A = _check_square_matrix(matrix, "matrix")
    n = A.shape[0]
    sign, logdet = np.linalg.slogdet(A)
    if sign == 0 or not np.isfinite(logdet):
        raise BodyConstructionError("matrix must be non-singular (positive-definite image)")
    A_inv = np.linalg.inv(A)
    return ConvexBody(
        dim=n,
        support=lambda t: np.linalg.norm(t @ A, axis=1),
        membership=lambda x: np.linalg.norm(x @ A_inv.T, axis=1) <= 1 + 1e-12,
        analytic={
            "log_volume": lp_ball_log_volume(n, 2.0) + logdet,
            "inradius": float(np.linalg.svd(A, compute_uv=False).min()),
        },
        sample_exact=_ellipsoid_sampler(n, A),
    )


def _ellipsoid_sampler(dim, A):
    inner = _lp_ball_sampler(dim, 2.0, 1.0)

    def sampler(count, seed):
        return inner(count, seed) @ A.T

    return sampler


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def scale_body(body: ConvexBody, t: float) -> ConvexBody:
    """t*K for t > 0: h_{tK}(theta) = t*h_K(theta)."""
    if not 0 < t < math.inf:
        raise BodyConstructionError(f"scale factor must be positive and finite, got {t}")
    t = float(t)
    inner_sup, inner_mem, inner_samp = body.support, body.membership, body.sample_exact
    analytic = dict(body.analytic)
    for key in ("inradius", "mean_width", "ball_radius", "cube_half_side", "cross_radius"):
        if key in analytic:
            analytic[key] = analytic[key] * t
    if "log_volume" in analytic:
        analytic["log_volume"] += body.dim * math.log(t)
    # isotropic_constant is scale invariant

    def sampler(count, seed):
        x = inner_samp(count, seed)  # a fresh array, scaled in place
        x *= t
        return x

    return ConvexBody(
        dim=body.dim,
        support=lambda theta: t * inner_sup(theta),
        membership=(lambda x: inner_mem(x / t)) if inner_mem else None,
        analytic=analytic,
        sample_exact=sampler if inner_samp else None,
    )


def unit_volume_copy(body: ConvexBody) -> ConvexBody:
    """Homothetic copy of volume one; requires analytic volume."""
    log_vol = body.analytic.get("log_volume")
    if log_vol is None:
        raise UnsupportedOracleError("unit_volume_copy needs an analytic volume")
    return scale_body(body, math.exp(-log_vol / body.dim))


def product_body(K: ConvexBody, L: ConvexBody) -> ConvexBody:
    """K x L in R^{dimK+dimL}.

    Support decouples exactly: sup over (x,y) of <x,a>+<y,b> = h_K(a)+h_L(b).
    Membership is the conjunction of the factors'.
    """
    a, b = K.dim, L.dim
    k_sup, l_sup = K.support, L.support
    k_mem, l_mem = K.membership, L.membership
    k_samp, l_samp = K.sample_exact, L.sample_exact

    membership = None
    if k_mem is not None and l_mem is not None:
        def membership(x):
            return np.logical_and(k_mem(x[:, :a]), l_mem(x[:, a:]))

    sampler = None
    if k_samp is not None and l_samp is not None:

        def sampler(count, seed):
            from .seeds import child_seed

            left = k_samp(count, child_seed(seed, 0))
            right = l_samp(count, child_seed(seed, 1))
            return np.hstack([left, right])

    analytic = {}
    if "log_volume" in K.analytic and "log_volume" in L.analytic:
        analytic["log_volume"] = K.analytic["log_volume"] + L.analytic["log_volume"]
    if "inradius" in K.analytic and "inradius" in L.analytic:
        analytic["inradius"] = min(K.analytic["inradius"], L.analytic["inradius"])
    return ConvexBody(
        dim=a + b,
        support=lambda t: k_sup(t[:, :a]) + l_sup(t[:, a:]),
        membership=membership,
        analytic=analytic,
        sample_exact=sampler,
    )


# ---------------------------------------------------------------------------
# descriptor parsing (CLI surface: family:dim:params)
# ---------------------------------------------------------------------------


def _ellipsoid_from_file(dim: int, token: str) -> ConvexBody:
    """`@file` loads a CSV: one value per row = diagonal, full rows = matrix."""
    if not token.startswith("@"):
        raise BodyConstructionError("ellipsoid needs @file with diagonal or matrix")
    A = np.loadtxt(token[1:], delimiter=",", ndmin=2)
    if A.shape[1] == 1:
        A = np.diag(A[:, 0])
    if A.shape[0] != dim:
        raise BodyConstructionError(
            f"ellipsoid file gives dim {A.shape[0]}, descriptor says {dim}"
        )
    return ellipsoid(A)


# family -> (the field counts it takes after the dim, builder(dim, *fields));
# an alias is one more key for the same record
_CROSS = ((0,), cross_polytope)
_UNIT_CROSS = ((0,), lambda dim: unit_volume_copy(cross_polytope(dim)))
_FAMILIES = {
    "ball": ((0,), ball),
    "cube": ((0, 1), lambda dim, *side: cube(dim, *map(float, side))),
    "cross": _CROSS, "crosspoly": _CROSS, "cross-polytope": _CROSS,
    "lpball": ((1,), lambda dim, p: lp_ball(dim, float(p))),
    "ellipsoid": ((1,), _ellipsoid_from_file),
    "unitball": ((0,), lambda dim: unit_volume_copy(ball(dim))),
    "unitcube": ((0,), lambda dim: cube(dim, side=1.0)),
    "unitcross": _UNIT_CROSS, "b1tilde": _UNIT_CROSS,
    "unitlpball": ((1,), lambda dim, p: unit_volume_copy(lp_ball(dim, float(p)))),
}


def parse_body(descriptor: str) -> ConvexBody:
    """Build a body from a `family:dim[:params]` string.

    Families: ball, cube (side 2), cube:<dim>:<side>, cross, lpball:<dim>:<p>,
    ellipsoid:<dim>:@file.  Prefix `unit` variants (unitball, unitcube,
    unitcross, b1tilde, unitlpball:<dim>:<p>) are the unit-volume homothets.
    Each family is one _FAMILIES record, an alias one more key for it.  A
    family given any other number of fields is an error, raised before
    anything is built, and so is a field that does not parse, such as a side
    or p that is not a number; either error names the descriptor.  The ball
    and l1 ball families (lpball at p = 1, 2 too) carry their exact mean
    width, as their constructors state it.
    """
    parts = descriptor.strip().split(":")
    if len(parts) < 2:
        raise BodyConstructionError(
            f"body descriptor {descriptor!r} must look like family:dim[:params]"
        )
    family = parts[0].lower()
    try:
        dim = int(parts[1])
    except ValueError as exc:
        raise BodyConstructionError(f"bad dim in body descriptor {descriptor!r}") from exc
    params = parts[2:]
    if family not in _FAMILIES:
        raise BodyConstructionError(f"unknown body family {family!r} in {descriptor!r}")
    field_counts, build = _FAMILIES[family]
    if len(params) not in field_counts:
        counts = " or ".join(map(str, field_counts))
        noun = "field" if counts == "1" else "fields"
        raise BodyConstructionError(f"body family {family!r} takes {counts} {noun} after "
                                    f"the dim, got {len(params)} in {descriptor!r}")
    try:
        return build(dim, *params)
    except BodyConstructionError:
        raise
    except ValueError as exc:
        raise BodyConstructionError(f"bad field in body descriptor {descriptor!r}: {exc}") from exc
