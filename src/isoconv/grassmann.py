"""Random subspaces, projected bodies, and low-dimensional volume radii.

Projection of a body is exact at the support level: for an orthonormal basis
B of F, h_{P_F K}(u) = h_K(B u).  Volume radii are only computed in dimension
k <= 6 (hull volume is exponential in k); the sup/inf functionals over the
Grassmannian are sampled over Haar subspaces and therefore only ever one-sided
-- results are tagged accordingly and the tags are load-bearing downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bodies
from .bodies import ConvexBody, UnsupportedOracleError, ball_volume
from .estimates import Estimate
from .seeds import child_seed, rng_from, sphere_directions

VOLUME_DIM_CAP = 6
DEFAULT_HULL_DIRECTIONS = 2000


@dataclass(frozen=True)
class Subspace:
    """k-dimensional subspace of R^ambient with an explicit orthonormal basis."""

    ambient: int
    k: int
    basis: np.ndarray  # (ambient, k), B^T B = I_k
    seed: int

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=float).view()  # freeze a view, not the caller's array
        if B.shape != (self.ambient, self.k):
            raise ValueError(f"basis shape {B.shape} != ({self.ambient}, {self.k})")
        gram = B.T @ B
        if np.abs(gram - np.eye(self.k)).max() > 1e-12:
            raise ValueError("basis columns are not orthonormal to 1e-12")
        B.setflags(write=False)
        object.__setattr__(self, "basis", B)


def random_subspace(n: int, k: int, seed: int) -> Subspace:
    """Haar-distributed F in G_{n,k}: QR of a Gaussian matrix.

    R's diagonal signs are fixed positive so the factorization is unique and
    the column distribution is exactly Haar.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    g = rng_from(seed).standard_normal((n, k))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))[None, :]
    return Subspace(ambient=n, k=k, basis=q, seed=seed)


def project_body(body: ConvexBody, F: Subspace) -> ConvexBody:
    """P_F K as a body in R^k via h_{P_F K}(u) = h_K(B u).

    Balls project to balls of the same radius and keep their exact analytic
    data; everything else becomes a bare support oracle.
    """
    if F.ambient != body.dim:
        raise ValueError(f"subspace ambient {F.ambient} != body dim {body.dim}")
    if "ball_radius" in body.analytic:
        return bodies.ball(F.k, body.analytic["ball_radius"])
    B = F.basis
    inner = body.support

    def sup(u):
        arr = np.asarray(u, dtype=float)
        return inner(arr @ B.T)  # rows u^T B^T = (B u)^T

    return ConvexBody(dim=F.k, support=sup, family=f"proj[{F.k}]({body.family})")


# ---------------------------------------------------------------------------
# volume radius
# ---------------------------------------------------------------------------


def _interval_volume(body: ConvexBody) -> float:
    # a 1-D convex body is [-h(-1), h(+1)]; its length is exact
    e = np.ones(1)
    return float(body.support(e) + body.support(-e))


def _support_hull_volume(body: ConvexBody, n_directions: int, seed: int) -> float:
    """Volume of the outer polytope cut by n_directions tangent halfspaces.

    Outer approximation: contains the body, so the value is an upper bound
    that tightens as directions grow.  Needs the origin interior (h > 0 in
    every sampled direction).
    """
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    k = body.dim
    dirs = sphere_directions(k, n_directions, seed)
    h = np.asarray(body.support(dirs), dtype=float)
    if np.any(h <= 0):
        raise ValueError(
            "support-hull method needs the origin in the interior (h > 0); "
            f"family {body.family!r} has a nonpositive support value"
        )
    halfspaces = np.hstack([dirs, -h[:, None]])  # rows: theta.x - h <= 0
    hs = HalfspaceIntersection(halfspaces, np.zeros(k))
    return float(ConvexHull(hs.intersections).volume)


def _membership_mc_volume(body: ConvexBody, n_points: int, seed: int):
    """(volume, SE) by rejection over the support bounding box."""
    if body.membership is None:
        raise UnsupportedOracleError(
            f"membership-mc needs a membership oracle; family {body.family!r} has none"
        )
    k = body.dim
    eye = np.eye(k)
    hi = np.asarray(body.support(eye), dtype=float)
    lo = -np.asarray(body.support(-eye), dtype=float)
    box_vol = float(np.prod(hi - lo))
    rng = rng_from(seed)
    pts = rng.uniform(0.0, 1.0, size=(n_points, k)) * (hi - lo) + lo
    frac = float(np.asarray(body.membership(pts), dtype=float).mean())
    vol = box_vol * frac
    se = box_vol * math.sqrt(max(frac * (1.0 - frac), 0.0) / n_points)
    return vol, se


def volume_radius_lowdim(
    body: ConvexBody,
    method: str = "auto",
    n_directions: int = DEFAULT_HULL_DIRECTIONS,
    n_points: int = 200_000,
    seed: int = 0,
) -> Estimate:
    """volrad(K) = (Vol K / Vol B_2^k)^{1/k} for k <= 6.

    methods: `analytic` (exact stored log-volume), `support-hull` (outer polytope
    from sampled tangent halfspaces -> upper bound), `membership-mc`
    (rejection sampling -> value +- SE).  `auto` prefers exact, then hull.
    Dimension 1 is always exact (interval length from two support values).
    """
    k = body.dim

    def to_volrad(vol):
        return (vol / ball_volume(k)) ** (1.0 / k)

    if method == "auto":
        method = "analytic" if "log_volume" in body.analytic else "support-hull"
    if method != "analytic" and k > VOLUME_DIM_CAP and k > 1:
        # closed-form volumes are fine at any dimension; hull/MC are not
        raise ValueError(
            f"volume method {method!r} capped at dim {VOLUME_DIM_CAP}, got {k}"
        )

    if method == "analytic":
        log_vol = body.analytic.get("log_volume")
        if log_vol is None:
            raise UnsupportedOracleError(
                f"no analytic volume for family {body.family!r}"
            )
        # in logs, so the volume radius stays finite at any k
        vr = math.exp((log_vol - bodies.lp_ball_log_volume(k, 2.0)) / k)
        return Estimate(vr, 0.0, 0, seed, "exact")
    if method == "support-hull":
        if k == 1:
            return Estimate(to_volrad(_interval_volume(body)), 0.0, 2, seed, "exact")
        vol = _support_hull_volume(body, n_directions, seed)
        return Estimate(to_volrad(vol), 0.0, n_directions, seed, "upper")
    if method == "membership-mc":
        if k == 1:
            return Estimate(to_volrad(_interval_volume(body)), 0.0, 2, seed, "exact")
        vol, se_vol = _membership_mc_volume(body, n_points, seed)
        if vol <= 0:
            raise ValueError("membership-mc saw no interior points; box too large?")
        vr = to_volrad(vol)
        return Estimate(vr, vr * se_vol / (k * vol), n_points, seed, "mc")
    raise ValueError(f"unknown volume method {method!r}")


# ---------------------------------------------------------------------------
# Grassmannian functionals (sampled, one-sided)
# ---------------------------------------------------------------------------


def vk_estimate(body: ConvexBody, k: int, trials: int, seed: int) -> Estimate:
    """Sampled sup of volrad(P_F K) over Haar F in G_{n,k}.

    The true v_k is a supremum, so finitely many trials of exact volume radii
    can only undershoot it: the result is labelled `lower` when every trial
    is `exact` (balls, k = 1).  Otherwise it is `mc`: a sup of outer
    support-hull volume radii bounds v_k from neither side.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not 1 <= k <= body.dim:
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={body.dim}")
    if k == body.dim:
        # every F is a rotation, which preserves volume: v_n(K) = volrad(K)
        return volume_radius_lowdim(body, seed=child_seed(seed, 0))
    best = -math.inf
    best_se = 0.0
    exact = True
    for i in range(trials):
        F = random_subspace(body.dim, k, child_seed(seed, i))
        est = volume_radius_lowdim(project_body(body, F), seed=child_seed(seed, trials + i))
        exact = exact and est.direction == "exact"
        if est.value > best:
            best, best_se = est.value, est.std_error
    return Estimate(best, best_se, trials, seed, "lower" if exact else "mc")
