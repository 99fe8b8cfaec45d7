"""Convex bodies as immutable oracle bundles.

A body is its support function h_K(theta) = sup{<x, theta> : x in K}, plus an
optional membership oracle and whatever analytic facts (volume, isotropic
constant, inradius) are known for the family.  All constructions wrap oracles;
nothing materializes geometry, so dimensions up to ~128 stay cheap.

Oracles are vectorized: support accepts a single direction of shape (dim,) or
a batch (m, dim); membership likewise accepts a point or a batch of points.
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


def ball_volume(dim: int, radius: float = 1.0) -> float:
    """Volume of radius*B_2^dim, exact closed form."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0) * radius**dim


def lp_ball_volume(dim: int, p: float, radius: float = 1.0) -> float:
    """Volume of radius*B_p^dim: (2 Gamma(1+1/p))^n / Gamma(1+n/p)."""
    log_v = dim * (math.log(2.0) + math.lgamma(1.0 + 1.0 / p)) - math.lgamma(
        1.0 + dim / p
    )
    return math.exp(log_v) * radius**dim


@dataclass(frozen=True)
class ConvexBody:
    """Immutable oracle bundle for a convex body K in R^dim.

    support: theta -> h_K(theta), positively homogeneous and subadditive.
    membership: x -> bool, optional.
    analytic: known exact quantities keyed by name (volume, inradius,
        ball_radius, isotropic_constant).
    sample_exact: optional (count, seed) -> (count, dim) exact uniform sampler.
    """

    dim: int
    support: Callable[[np.ndarray], np.ndarray]
    family: str
    membership: Optional[Callable[[np.ndarray], np.ndarray]] = None
    analytic: Mapping[str, float] = field(default_factory=dict)
    sample_exact: Optional[Callable[[int, int], np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise BodyConstructionError(f"dim must be >= 1, got {self.dim}")


def _vectorize_rows(fn):
    """Lift a batch oracle on (m, dim) arrays to also accept a single (dim,)."""

    def wrapped(x):
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 1:
            return fn(arr[None, :])[0]
        return fn(arr)

    return wrapped


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
    dim = _check_dim(dim)
    if radius <= 0:
        raise BodyConstructionError(f"radius must be positive, got {radius}")
    r = float(radius)
    vol = ball_volume(dim, r)
    unit_r = vol ** (-1.0 / dim) * r  # radius of the unit-volume homothet
    return ConvexBody(
        dim=dim,
        support=_vectorize_rows(lambda t: r * np.linalg.norm(t, axis=1)),
        membership=_vectorize_rows(lambda x: np.linalg.norm(x, axis=1) <= r * (1 + 1e-12)),
        family=f"ball({r:g})" if r != 1.0 else "ball",
        analytic={
            "volume": vol,
            "inradius": r,
            "ball_radius": r,
            "isotropic_constant": unit_r / math.sqrt(dim + 2),
        },
        sample_exact=_lp_ball_sampler(dim, 2.0, r),
    )


def cube(dim: int, side: float = 2.0) -> ConvexBody:
    """Axis cube [-side/2, side/2]^dim; h(theta) = (side/2)*||theta||_1."""
    dim = _check_dim(dim)
    if side <= 0:
        raise BodyConstructionError(f"side must be positive, got {side}")
    half = side / 2.0

    def sampler(count, seed):
        return rng_from(seed).uniform(-half, half, size=(count, dim))

    return ConvexBody(
        dim=dim,
        support=_vectorize_rows(lambda t: half * np.abs(t).sum(axis=1)),
        membership=_vectorize_rows(
            lambda x: np.abs(x).max(axis=1) <= half * (1 + 1e-12)
        ),
        family=f"cube({side:g})",
        analytic={
            "volume": side**dim,
            "inradius": half,
            # side^2/12 per coordinate; L_K is scale invariant
            "isotropic_constant": math.sqrt(1.0 / 12.0),
        },
        sample_exact=sampler,
    )


def cross_polytope(dim: int, radius: float = 1.0) -> ConvexBody:
    """radius * B_1^dim; h(theta) = radius*||theta||_inf."""
    return lp_ball(dim, 1.0, radius)


def lp_ball(dim: int, p: float, radius: float = 1.0) -> ConvexBody:
    """radius * B_p^dim for p >= 1; support is the dual-norm radius*||theta||_q."""
    dim = _check_dim(dim)
    if p < 1:
        raise BodyConstructionError(f"p must be >= 1, got {p}")
    if radius <= 0:
        raise BodyConstructionError(f"radius must be positive, got {radius}")
    r = float(radius)
    if p == 1.0:
        sup = _vectorize_rows(lambda t: r * np.abs(t).max(axis=1))
    elif math.isinf(p):
        raise BodyConstructionError("use cube() for the p=inf ball")
    else:
        q = p / (p - 1.0)
        sup = _vectorize_rows(
            lambda t: r * np.linalg.norm(t, ord=q, axis=1)
        )
    vol = lp_ball_volume(dim, p, r)
    analytic = {
        "volume": vol,
        "inradius": r * min(1.0, dim ** (0.5 - 1.0 / p)),
    }
    if p == 1.0:
        # unit-volume copy has radius r1 = (n!/2^n)^{1/n}; E x1^2 = 2 r^2/((n+1)(n+2))
        r1 = math.exp((math.lgamma(dim + 1) - dim * math.log(2.0)) / dim)
        analytic["isotropic_constant"] = r1 * math.sqrt(
            2.0 / ((dim + 1) * (dim + 2))
        )
    elif p == 2.0:
        analytic["ball_radius"] = r
        r2 = ball_volume(dim) ** (-1.0 / dim)
        analytic["isotropic_constant"] = r2 / math.sqrt(dim + 2)
    family = {1.0: "cross-polytope", 2.0: "ball"}.get(p, f"lp-ball({p:g})")
    if r != 1.0:
        family += f"*{r:g}"
    return ConvexBody(
        dim=dim,
        support=sup,
        membership=_vectorize_rows(
            lambda x: np.power(np.abs(x), p).sum(axis=1) <= r**p * (1 + 1e-12)
        )
        if p != 1.0
        else _vectorize_rows(lambda x: np.abs(x).sum(axis=1) <= r * (1 + 1e-12)),
        family=family,
        analytic=analytic,
        sample_exact=_lp_ball_sampler(dim, p, r),
    )


def _lp_ball_sampler(dim: int, p: float, radius: float):
    """Exact uniform sampler on radius*B_p^dim.

    Coordinates sign_i * G_i^{1/p} with G_i ~ Gamma(1/p, 1) have the
    p-generalized density ~ exp(-|t|^p); normalizing by the p-norm and
    multiplying by U^{1/n} gives the uniform law on the ball.
    """

    def sampler(count, seed):
        rng = rng_from(seed)
        g = rng.gamma(1.0 / p, 1.0, size=(count, dim)) ** (1.0 / p)
        signs = rng.integers(0, 2, size=(count, dim)) * 2.0 - 1.0
        w = g * signs
        norms = np.power(np.abs(w), p).sum(axis=1) ** (1.0 / p)
        radial = rng.uniform(0.0, 1.0, size=count) ** (1.0 / dim)
        return radius * radial[:, None] * w / norms[:, None]

    return sampler


def ellipsoid(matrix: np.ndarray) -> ConvexBody:
    """Image A*B_2^n of the unit ball; h(theta) = |A^T theta|."""
    A = _check_square_matrix(matrix, "matrix")
    n = A.shape[0]
    sign, logdet = np.linalg.slogdet(A)
    if sign == 0 or not np.isfinite(logdet):
        raise BodyConstructionError("matrix must be non-singular (positive-definite image)")
    A_inv = np.linalg.inv(A)
    vol = ball_volume(n) * abs(math.exp(logdet))
    return ConvexBody(
        dim=n,
        support=_vectorize_rows(lambda t: np.linalg.norm(t @ A, axis=1)),
        membership=_vectorize_rows(
            lambda x: np.linalg.norm(x @ A_inv.T, axis=1) <= 1 + 1e-12
        ),
        family="ellipsoid",
        analytic={
            "volume": vol,
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
    if t <= 0:
        raise BodyConstructionError(f"scale factor must be positive, got {t}")
    t = float(t)
    inner_sup, inner_mem, inner_samp = body.support, body.membership, body.sample_exact
    analytic = dict(body.analytic)
    for key, power in (
        ("volume", body.dim),
        ("inradius", 1),
        ("ball_radius", 1),
    ):
        if key in analytic:
            analytic[key] = analytic[key] * t**power
    # isotropic_constant is scale invariant
    return ConvexBody(
        dim=body.dim,
        support=lambda theta: t * inner_sup(theta),
        membership=(lambda x: inner_mem(np.asarray(x, dtype=float) / t))
        if inner_mem
        else None,
        family=f"scaled({body.family})",
        analytic=analytic,
        sample_exact=(lambda count, seed: t * inner_samp(count, seed))
        if inner_samp
        else None,
    )


def unit_volume_copy(body: ConvexBody) -> ConvexBody:
    """Homothetic copy of volume one; requires analytic volume."""
    vol = body.analytic.get("volume")
    if vol is None:
        raise UnsupportedOracleError(
            f"unit_volume_copy needs an analytic volume for family {body.family!r}"
        )
    return scale_body(body, vol ** (-1.0 / body.dim))


def product_body(K: ConvexBody, L: ConvexBody) -> ConvexBody:
    """K x L in R^{dimK+dimL}.

    Support decouples exactly: sup over (x,y) of <x,a>+<y,b> = h_K(a)+h_L(b).
    Membership is the conjunction of the factors'.
    """
    a, b = K.dim, L.dim
    k_sup, l_sup = K.support, L.support
    k_mem, l_mem = K.membership, L.membership
    k_samp, l_samp = K.sample_exact, L.sample_exact

    def sup(theta):
        arr = np.asarray(theta, dtype=float)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        out = k_sup(arr[:, :a]) + l_sup(arr[:, a:])
        return out[0] if single else out

    membership = None
    if k_mem is not None and l_mem is not None:

        def membership(x):
            arr = np.asarray(x, dtype=float)
            single = arr.ndim == 1
            if single:
                arr = arr[None, :]
            out = np.logical_and(k_mem(arr[:, :a]), l_mem(arr[:, a:]))
            return out[0] if single else out

    sampler = None
    if k_samp is not None and l_samp is not None:

        def sampler(count, seed):
            from .seeds import child_seed

            left = k_samp(count, child_seed(seed, 0))
            right = l_samp(count, child_seed(seed, 1))
            return np.hstack([left, right])

    analytic = {}
    if "volume" in K.analytic and "volume" in L.analytic:
        analytic["volume"] = K.analytic["volume"] * L.analytic["volume"]
    if "inradius" in K.analytic and "inradius" in L.analytic:
        analytic["inradius"] = min(K.analytic["inradius"], L.analytic["inradius"])
    return ConvexBody(
        dim=a + b,
        support=sup,
        membership=membership,
        family=f"product({K.family},{L.family})",
        analytic=analytic,
        sample_exact=sampler,
    )


# ---------------------------------------------------------------------------
# descriptor parsing (CLI surface: family:dim:params)
# ---------------------------------------------------------------------------


def _load_matrix_param(token: str) -> np.ndarray:
    """`@file` loads a CSV: one value per row = diagonal, full rows = matrix."""
    data = np.loadtxt(token[1:], delimiter=",", ndmin=2)
    if data.shape[1] == 1:
        return np.diag(data[:, 0])
    return data


def parse_body(descriptor: str) -> ConvexBody:
    """Build a body from a `family:dim[:params]` string.

    Families: ball, cube (side 2), cross, lpball:<dim>:<p>, ellipsoid:<dim>:@file.
    Prefix `unit` variants (unitball, unitcube, unitcross, b1tilde) are the
    unit-volume homothets.
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

    if family == "ball":
        return ball(dim)
    if family == "cube":
        side = float(params[0]) if params else 2.0
        return cube(dim, side)
    if family in ("cross", "crosspoly", "cross-polytope"):
        return cross_polytope(dim)
    if family == "lpball":
        if not params:
            raise BodyConstructionError("lpball needs a p parameter, e.g. lpball:32:1")
        return lp_ball(dim, float(params[0]))
    if family == "ellipsoid":
        if not params or not params[0].startswith("@"):
            raise BodyConstructionError("ellipsoid needs @file with diagonal or matrix")
        A = _load_matrix_param(params[0])
        if A.shape[0] != dim:
            raise BodyConstructionError(
                f"ellipsoid file gives dim {A.shape[0]}, descriptor says {dim}"
            )
        return ellipsoid(A)
    if family == "unitball":
        return unit_volume_copy(ball(dim))
    if family == "unitcube":
        return cube(dim, side=1.0)
    if family in ("unitcross", "b1tilde"):
        return unit_volume_copy(cross_polytope(dim))
    if family == "unitlpball":
        if not params:
            raise BodyConstructionError("unitlpball needs a p parameter")
        return unit_volume_copy(lp_ball(dim, float(params[0])))
    raise BodyConstructionError(f"unknown body family {family!r} in {descriptor!r}")
