"""Mean width, entropy numbers, and the bound expressions under test.

Conventions that hold throughout: every unnamed constant in a bound
expression is taken as 1, so bound values are shape profiles, not certified
majorants -- the harness fits effective constants by ratio and checks that
the fit transfers.  The Rademacher-projection norm of a body is not
computable from oracles; RadModel supplies the standard surrogates (1,
log(1+min(k,p)), sqrt(log(1+k)), a constant) and results record which one
was used.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bodies import ConvexBody, UnsupportedOracleError, interval_length
from .estimates import Estimate
from .seeds import rng_from, sphere_direction_blocks

DEFAULT_SPHERE_SAMPLES = 10_000

_RAD_KINDS = ("unit", "log-min", "sqrt-log", "constant")


@dataclass(frozen=True)
class RadModel:
    """Surrogate for the Rademacher-projection norm; nonnegative, nondecreasing in k."""

    kind: str
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in _RAD_KINDS:
            raise ValueError(f"RadModel kind must be one of {_RAD_KINDS}, got {self.kind!r}")
        if self.kind == "constant" and not self.c > 0:
            raise ValueError(f"constant RadModel needs c > 0, got {self.c}")

    def value(self, k: int, p=None) -> float:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self.kind == "unit":
            return 1.0
        if self.kind == "log-min":
            m = k if p is None else min(k, p)
            return math.log(1.0 + m)
        if self.kind == "sqrt-log":
            return math.sqrt(math.log(1.0 + k))
        return self.c


def parse_rad_model(text: str) -> RadModel:
    """`unit`, `log-min`, `sqrt-log`, or `constant:<c>`."""
    parts = text.strip().split(":")
    kind = parts[0].lower()
    if kind == "constant":
        if len(parts) != 2:
            raise ValueError("constant RadModel needs a value, e.g. constant:2.5")
        return RadModel("constant", float(parts[1]))
    if len(parts) != 1:
        raise ValueError(f"unexpected parameter for RadModel {kind!r}")
    return RadModel(kind)


# ---------------------------------------------------------------------------
# mean width
# ---------------------------------------------------------------------------


def mean_width(
    body: ConvexBody, sphere_samples: int = DEFAULT_SPHERE_SAMPLES, seed: int = 0
) -> Estimate:
    """(Half) mean width M*(K): average of h_K over the uniform sphere.

    A body that states its exact mean width (analytic mean_width: cubes,
    balls and l1 balls, see bodies) gets it, after the sphere_samples >= 100
    check.

    Everything else is Monte Carlo over seeded directions, value +- SE.
    Linearity M*(tK) = t M*(K) is exact on matched seeds since the direction
    set is identical.  The directions are drawn and evaluated in blocks of at
    most DIRECTION_BLOCK, so memory does not grow with sphere_samples beyond
    the (sphere_samples,) support values.
    """
    if sphere_samples < 100:
        raise ValueError(f"need sphere_samples >= 100, got {sphere_samples}")
    if "mean_width" in body.analytic:
        return Estimate(float(body.analytic["mean_width"]), 0.0, 0, "exact")
    h = np.empty(sphere_samples)
    start = 0
    for dirs in sphere_direction_blocks(body.dim, sphere_samples, seed):
        h[start:start + len(dirs)] = body.support(dirs)
        start += len(dirs)
        del dirs  # before the next block is drawn
    value = float(h.mean())
    se = float(h.std(ddof=1) / math.sqrt(sphere_samples))
    return Estimate(value, se, sphere_samples, "mc")


# ---------------------------------------------------------------------------
# entropy numbers (low-dimensional, upper estimates)
# ---------------------------------------------------------------------------

ENTROPY_DIM_CAP = 4


def _body_grid_cloud(body: ConvexBody, step: float):
    """Grid points of spacing `step` inside the body, plus a covering slack.

    Any x in K has a cloud point within slack = (step*sqrt(k)/2)(1 + R/r):
    shrink x toward the origin by step*sqrt(k)/(2r) so a full grid cell fits
    inside K around it (r = inradius, R = circumradius, origin interior);
    only cubes and l_p balls carry the membership oracle and inradius this
    reads.  The cloud is an (M, k) view of a (k, M) array, so each of its
    columns is contiguous.
    """
    if body.membership is None:
        raise UnsupportedOracleError("greedy covering needs a membership oracle, which only "
                                     "cubes and l_p balls (balls, cross-polytopes) carry")
    r_in = body.analytic.get("inradius")
    if r_in is None or r_in <= 0:
        raise ValueError("greedy covering needs a positive analytic inradius")
    k = body.dim
    eye = np.eye(k)
    hi = body.support(eye)
    lo = -body.support(-eye)
    axes = [np.arange(lo[j], hi[j] + step, step) for j in range(k)]
    mesh = np.meshgrid(*axes, indexing="ij")
    # (k, M): one contiguous row per coordinate, so the membership oracle's
    # reductions over the k coordinates run along long rows
    cols = np.stack([m.ravel() for m in mesh])
    del mesh
    cols = cols[:, body.membership(cols.T)]
    if cols.shape[1] == 0:
        raise ValueError("grid too coarse: no points landed inside the body")
    norm2 = cols[0] * cols[0]
    for i in range(1, k):
        norm2 += cols[i] * cols[i]
    r_circ = math.sqrt(float(norm2.max()))
    slack = 0.5 * step * math.sqrt(k) * (1.0 + r_circ / r_in)
    return cols.T, slack


_BRICK_POINTS = 2**11
_CHUNK_POINTS = 2**15


def _greedy_covering_radii(cloud: np.ndarray, n_centers: int, seed: int) -> np.ndarray:
    """Farthest-point greedy: radii[j] = cloud covering radius with j+1 centers.

    The cloud may come in any order.  Set-up bins it into bricks of about
    2^11 points on a grid over its bounding box, stable-sorts the points by
    brick, so that inside a brick they keep the caller's order, and copies
    them to coordinate-major (k, m) rows.  Each brick keeps the bounding box
    of its points and the running maximum of d^2 over them.

    Each centre c costs a few in-place passes over the points of the bricks
    it can reach: (x_0 - c_0)^2, then + (x_i - c_i)^2 for i = 1..k-1, folded
    into the squared distances with a minimum.  That is the order in which
    ((cloud - c)**2).sum(axis=1) adds its k terms, so every distance, and
    with it every tie and radius, is bit-identical to the direct formula.

    Brick pruning: a brick's box distance^2 is |q - c|^2 for q, the point of
    the box nearest to c, computed in that same order.  For x in the box,
    |x_i - c_i| >= |q_i - c_i| exactly, and IEEE rounding is symmetric about
    0 and monotone in each operand, so the computed |x - c|^2 is at least the
    computed |q - c|^2.  When that is >= the brick's max d^2, the minimum
    would keep every d^2(x) in the brick as it is, so the brick is skipped:
    the skip is exact and needs no margin.  The other bricks are updated in
    runs of consecutive bricks, 2^15 points at a time, and their maxima
    refreshed.

    The next centre is the point with the largest d^2 and, among ties, the
    smallest index in the caller's order, as `argmax` over the cloud picks
    it: each brick holding the global maximum offers its first maximum, and
    the smallest caller index among those wins.

    Radii past the m-th centre are 0.
    """
    m, k = cloud.shape
    per_axis = max(1, round((m / _BRICK_POINTS) ** (1.0 / k)))
    key = np.zeros(m, dtype=np.intp)
    scaled = np.empty(m)
    for i in range(k):
        lo, hi = cloud[:, i].min(), cloud[:, i].max()
        key *= per_axis
        if hi > lo:
            np.subtract(cloud[:, i], lo, out=scaled)
            np.divide(scaled, hi - lo, out=scaled)
            np.multiply(scaled, per_axis, out=scaled)
            np.minimum(scaled, per_axis - 1, out=scaled)
            # scaled >= 0, so the cast to intp floors it to the bin index
            np.add(key, scaled, out=key, casting="unsafe")
    del scaled
    sizes = np.bincount(key)
    order = np.argsort(key, kind="stable")
    del key
    sizes = sizes[sizes > 0]
    starts = np.cumsum(sizes) - sizes
    cols = np.empty((k, m))
    for i in range(k):
        np.take(cloud[:, i], order, out=cols[i])
    box_lo = np.minimum.reduceat(cols, starts, axis=1)
    box_hi = np.maximum.reduceat(cols, starts, axis=1)
    spans = list(zip(starts.tolist(), (starts + sizes).tolist()))
    brick_max = np.full(len(spans), np.inf)
    gap = np.empty_like(box_lo)
    # padded with False at both ends, so each run of hit bricks has a rising
    # and a falling edge
    hit = np.zeros(len(spans) + 2, dtype=bool)
    hit_in, hit_next, hit_prev = hit[1:-1], hit[1:], hit[:-1]
    d2 = np.full(m, np.inf)
    dist = np.empty(min(m, _CHUNK_POINTS))
    part = np.empty_like(dist)
    radii = np.zeros(n_centers)
    c = cloud[int(rng_from(seed).integers(0, m))]
    for j in range(min(n_centers, m)):
        at_c = c[:, None]
        np.maximum(box_lo, at_c, out=gap)
        np.minimum(gap, box_hi, out=gap)
        np.subtract(gap, at_c, out=gap)
        np.multiply(gap, gap, out=gap)
        box_d2 = gap[0]
        for i in range(1, k):
            np.add(box_d2, gap[i], out=box_d2)
        np.less(box_d2, brick_max, out=hit_in)
        edges = np.not_equal(hit_next, hit_prev).nonzero()[0].tolist()
        c = c.tolist()
        for b0, b1 in zip(edges[::2], edges[1::2]):
            run_lo, run_hi = spans[b0][0], spans[b1 - 1][1]
            for lo in range(run_lo, run_hi, _CHUNK_POINTS):
                hi = min(lo + _CHUNK_POINTS, run_hi)
                out, tmp = dist[: hi - lo], part[: hi - lo]
                np.subtract(cols[0, lo:hi], c[0], out=out)
                np.multiply(out, out, out=out)
                for i in range(1, k):
                    np.subtract(cols[i, lo:hi], c[i], out=tmp)
                    np.multiply(tmp, tmp, out=tmp)
                    np.add(out, tmp, out=out)
                np.minimum(d2[lo:hi], out, out=d2[lo:hi])
            np.maximum.reduceat(d2[:run_hi], starts[b0:b1], out=brick_max[b0:b1])
        top = brick_max.max()
        best = m
        for b in (brick_max == top).nonzero()[0].tolist():
            lo, hi = spans[b]
            at = lo + int(d2[lo:hi].argmax())
            if order[at] < best:
                best, pos = int(order[at]), at
        c = cols[:, pos]
        radii[j] = math.sqrt(float(top))
    return radii


def entropy_numbers(
    body: ConvexBody,
    j_max: int,
    step: float = 0.05,
    seed: int = 0,
):
    """Upper estimates of e_j(K) for j = 1..j_max, dim <= 4.

    Greedy farthest-point covering of a grid cloud with 2^j centers, plus
    the grid fill slack; `seed` picks the greedy start.  Above dim 1 any body
    but a cube or an l_p ball raises UnsupportedOracleError.  The covering prunes
    by bricks of the cloud: a centre updates only the bricks its ball can
    reach, a brick being skipped only when the minimum would leave it as it
    is, and ties go to the first point in grid order, so the radii are
    bit-identical to the whole-cloud greedy.  Dimension 1 is exact: an
    interval of length L has e_j = L / 2^{j+1}.
    Returns a list of Estimates, entry j - 1 for e_j.
    """
    k = body.dim
    if k > ENTROPY_DIM_CAP:
        raise ValueError(f"entropy numbers capped at dim {ENTROPY_DIM_CAP}, got {k}")
    if j_max < 1:
        raise ValueError(f"need j_max >= 1, got {j_max}")
    js = range(1, j_max + 1)
    if k == 1:
        length = interval_length(body)
        return [Estimate(length / 2 ** (j + 1), 0.0, 0, "exact") for j in js]
    cloud, slack = _body_grid_cloud(body, step)
    radii = _greedy_covering_radii(cloud, 2**j_max, seed)
    return [Estimate(float(radii[2**j - 1]) + slack, 0.0, cloud.shape[0], "upper")
            for j in js]


# ---------------------------------------------------------------------------
# bound expressions (all constants = 1)
# ---------------------------------------------------------------------------


def _count(name: str, v) -> int:
    if not (float(v).is_integer() and v >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {v}")
    return int(v)


def _at_least_one(name: str, v) -> float:
    v = float(v)
    if not 1 <= v < math.inf:
        raise ValueError(f"{name} must be >= 1 and finite, got {v}")
    return v


def _positive(name: str, v) -> float:
    v = float(v)
    if not 0 < v < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {v}")
    return v


def _entries(name: str, v, positive: bool = False) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise ValueError(f"{name} must be a non-empty list of numbers")
    ok = ((a > 0) if positive else (a >= 0)) & (a < math.inf)
    if not ok.all():
        rule = "positive" if positive else ">= 0"
        raise ValueError(f"{name} entries must be {rule} and finite, got {a[~ok][0]}")
    return a


def _spectrum(name: str, v) -> np.ndarray:
    lam = _entries(name, v, positive=True)
    if np.any(np.diff(lam) > 1e-12 * lam[0]):
        raise ValueError(f"{name} must be sorted in descending order")
    return lam


# how _take converts and checks each bound_rhs parameter, by name; every range
# check is written so that NaN fails it too
_PARAMS = {"n": _count, "k": _count, "p": _at_least_one, "t": _positive, "mstar": _positive,
           "l_k": _positive, "rad_value": _positive, "spectrum": _spectrum,
           "vk_values": _entries, "ek_values": _entries,
           "rad": lambda name, v: v}  # a RadModel checks itself when it is built


def _warn_range(kind: str, t: float, lo: float, hi: float):
    if not lo <= t <= hi:
        warnings.warn(
            f"{kind}: t = {t} outside the stated range [{lo}, {hi}]; "
            "evaluating anyway",
            stacklevel=3,
        )


def _take(kind: str, params: dict, *names, **optional) -> list:
    """Take a bound kind's parameters out of params, each converted and checked
    by its _PARAMS entry: `names` are required, `optional` maps a name to its
    default, taken as it is.  A missing required parameter, one left over that
    the kind does not read, or one out of its range is a ValueError."""
    for name in names:
        if name not in params:
            raise ValueError(f"bound kind {kind!r} is missing parameter {name!r}")
    given = {name: params.pop(name) for name in (*names, *optional) if name in params}
    if params:
        raise ValueError(f"bound kind {kind!r} does not read {', '.join(map(repr, params))}")
    return [_PARAMS[name](name, given[name]) if name in given else optional[name]
            for name in (*names, *optional)]


def bound_rhs(kind: str, **params) -> float:
    """Evaluate a named bound expression with every constant set to 1.

    Spectral kinds take `spectrum` = (lambda_1 >= ... >= lambda_n > 0), the
    square roots of the covariance eigenvalues.  Kinds:

    thm-main-product  rad * (1/sqrt(n)) * sum_k max(sqrt(p/k), p/k) * gmean(lam_1..lam_k)
    thm-main-arith    same with the arithmetic mean (1/k) sum_{i<=k} lam_i;
                      dominates the product form term-by-term (AM-GM), and is
                      nondecreasing in p like every thm-main variant
    prop31            sqrt(p/k) * max(sqrt(p), sqrt(k)) * gmean(lam_1..lam_k)
    mp-sum            sum_k rad(k, p) * v_k / sqrt(k)   (vk_values supplied)
    dudley-sum        sum_k e_k / sqrt(k)               (ek_values supplied)
    summary-piecewise four-regime M*(Z_p) profile in (n, p)
    sudakov           n * (mstar / t)^2            [log covering count]
    hartzoulaki       n * l_k / t                  [log count, t*sqrt(n) balls]
    gpv               n/t^2 + sqrt(n)*sqrt(p)/t    [log count, t*sqrt(p) balls]
    gpv-piecewise     three-regime refinement of gpv in t
    thm14             n * (rad_value*l_k/t)^2 * log^2(1 + t^2/(rad_value*l_k)^2)

    Each parameter must lie in its range (_PARAMS): n and k integers >= 1, p
    finite and >= 1, t, mstar, l_k and rad_value finite and positive, spectrum
    entries finite, positive and descending, vk_values and ek_values entries
    finite and >= 0.  A t outside a kind's stated band warns and still
    evaluates; an out-of-range parameter raises, and so does a missing
    parameter or one the kind does not read.
    """
    if kind in ("thm-main-product", "thm-main-arith"):
        lam, p, rad = _take(kind, params, "spectrum", "p", rad=RadModel("unit"))
        n = lam.size
        k = np.arange(1, n + 1, dtype=float)
        weights = np.maximum(np.sqrt(p / k), p / k)
        if kind == "thm-main-product":
            means = np.exp(np.cumsum(np.log(lam)) / k)  # geometric means
        else:
            means = np.cumsum(lam) / k
        return rad.value(n, p) / math.sqrt(n) * float((weights * means).sum())
    if kind == "prop31":
        lam, p, k = _take(kind, params, "spectrum", "p", "k")
        if k > lam.size:
            raise ValueError(f"k must be in [1, {lam.size}], got {k}")
        gmean = float(np.exp(np.log(lam[:k]).mean()))
        return math.sqrt(p / k) * max(math.sqrt(p), math.sqrt(k)) * gmean
    if kind == "mp-sum":
        vk, rad, p = _take(kind, params, "vk_values", rad=RadModel("unit"), p=None)
        ks = np.arange(1, vk.size + 1)
        rv = np.array([rad.value(int(k), p) for k in ks])
        return float((rv * vk / np.sqrt(ks)).sum())
    if kind == "dudley-sum":
        (ek,) = _take(kind, params, "ek_values")
        ks = np.arange(1, ek.size + 1, dtype=float)
        return float((ek / np.sqrt(ks)).sum())
    if kind == "summary-piecewise":
        n, p = _take(kind, params, "n", "p")
        if p > n:
            warnings.warn(
                f"summary-piecewise: p = {p} beyond the stated range [1, n={n}]",
                stacklevel=2,
            )
        log2n = math.log(1.0 + n) ** 2
        if p <= math.sqrt(n):
            return math.sqrt(p)
        if p <= math.sqrt(n) * log2n:
            return p / n**0.25
        if p <= n / log2n:
            return math.sqrt(p) * math.log(1.0 + n)
        return p / math.sqrt(n) * log2n
    if kind == "sudakov":
        n, mstar, t = _take(kind, params, "n", "mstar", "t")
        return n * (mstar / t) ** 2
    if kind == "hartzoulaki":
        n, l_k, t = _take(kind, params, "n", "l_k", "t")
        return n * l_k / t
    if kind == "gpv":
        n, p, t = _take(kind, params, "n", "p", "t")
        _warn_range("gpv", t, 1.0, math.sqrt(p))
        return n / t**2 + math.sqrt(n) * math.sqrt(p) / t
    if kind == "gpv-piecewise":
        n, p, t = _take(kind, params, "n", "p", "t")
        log2n = math.log(1.0 + n) ** 2
        if p > n / log2n:
            warnings.warn(
                f"gpv-piecewise: p = {p} beyond the stated range "
                f"[1, n/log^2(1+n) = {n / log2n}]",
                stacklevel=2,
            )
        _warn_range("gpv-piecewise", t, 1.0, math.sqrt(p))
        t_mid = math.sqrt(n / p)
        if t <= t_mid:
            return n / t**2
        if t <= t_mid * log2n:
            return math.sqrt(n) * math.sqrt(p) / t
        return n * log2n / t**2
    if kind == "thm14":
        n, rad_value, l_k, t = _take(kind, params, "n", "rad_value", "l_k", "t")
        _warn_range("thm14", t, rad_value * l_k, math.sqrt(n) * l_k)
        base = rad_value * l_k / t
        return n * base**2 * math.log(1.0 + 1.0 / base**2) ** 2
    raise ValueError(f"unknown bound kind {kind!r}")
