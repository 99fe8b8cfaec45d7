"""L_p-centroid bodies: empirical ones, and exact ones for Gaussian and product laws.

A Gaussian law T gamma_n has Z_p = c_p T B_2^n in closed form, where
c_p = (E|g|^p)^{1/p} = sqrt(2) (Gamma((p+1)/2) / sqrt(pi))^{1/p}, since
h(theta) = (E|<g, T^T theta>|^p)^{1/p} = c_p |T^T theta|.  A law whose
coordinates are i.i.d. and symmetric, with even moments m_2j (for the uniform
cube [-a, a]^n, m_2j = a^{2j} / (2j + 1)), has at even p

    E <X, theta>^p = p! [t^{p/2}] prod_i sum_j m_2j theta_i^{2j} t^j / (2j)!,

a truncated product of series with positive coefficients, so no term
cancels.  It costs n (p/2)^2 multiply-adds per direction, and exact_zp sums
it while that stays within ZP_SERIES_BUDGET; at p = 2 the body is the ball
of radius sqrt(m_2).  exact_zp returns None for any other measure, for odd
or fractional p on a product law, and above the budget; that Z_p is then
taken from samples.

For a SampleSet X = {x_1..x_N} and p >= 1, the body Z_p(X) has support

    h(theta) = ( (1/N) sum_i |<x_i, theta>|^p )^{1/p},

a norm in theta, so Z_p is always an origin-symmetric convex body.  All the
classical inclusion/projection identities hold EXACTLY at the empirical level
(power-mean inequality, <x, theta> = <P_F x, theta> for theta in F, and
Z_2 = B_2 for whitened samples), so acceptance criterion 1 checks them on
zp_support itself, to floating-point round-off.

Every p takes one pass shape: fixed blocks of 32 directions (_run_blocks).  At
p = 2, where h_{Z_2}(theta)^2 = theta^T Sigma theta with Sigma = X^T X / N, a
block is one (32, dim) product with Sigma.  Any other p runs on tiles of 32
directions by 4096 samples, formed direction-major as theta_b x_c^T, so the
abs, max, scaling, power and sum of each direction run along contiguous rows
of a 1 MB temporary that stays in L2.  Each tile row is scaled by its max
before the p-th power, and each direction carries a running max M and scaled
sum S across its tiles (see _carry), so h = M (S/N)^{1/p} can only underflow,
never overflow, up to the p cap; at p = 1 the state is a plain sum.  Integer p
is formed by in-place squarings plus a multiply per set bit of p; only
fractional p goes through np.power, with the entries whose power would be
subnormal zeroed first.  The touching points grad h(theta) also give the
support values, by Euler's identity h(theta) = <theta, grad h(theta)> for the
1-homogeneous h, so one pass yields both.

This module owns the kernels and their tiles; isoconv.pool owns the threads
that run the direction blocks and their count WORKERS.  The tile geometry
comes from two constants alone, so no value depends on the direction count,
the worker count or the core count, and a call's tile temporaries hold at
most WORKERS * t MB (t <= 3 per lane) whatever N and m.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from . import pool
from .bodies import ConvexBody, ball, ellipsoid
from .measures import LogConcaveMeasure, SampleSet

P_CAP = float(2**20)
# a tile's temporary is 32 x 4096 doubles (1 MB), so a pass stays in a 2 MB
# L2; 32 rows is the fewest that keep n = 32 as fast as whole rows
_TILE_ROWS = 32
_TILE_COLS = 4096
#: exact_zp sums the even-p series of a product law in R^n only while its cost
#: n (p/2)^2 <= ZP_SERIES_BUDGET.  Within it the scaled series of
#: _series_support stays within e^{+-300}: its k-th coefficient lies in
#: [n^-k, n^k], and no other term exceeds about n^k e^{2k/e}.  At n = 1 it
#: allows p/2 <= 256 = measures.MOMENT_ORDERS.
ZP_SERIES_BUDGET = 1 << 16
_SERIES_BLOCK = 1 << 17  # doubles (1 MB) held by one direction block of the series


def _check_p(p: float) -> None:
    """Reject p outside [1, P_CAP]; written so that NaN fails too."""
    if not (1.0 <= p <= P_CAP):
        raise ValueError(f"p must be in [1, {P_CAP}], got {p}")


def _run_blocks(theta: np.ndarray, pts: np.ndarray, temporaries: int, work,
                out: np.ndarray) -> None:
    """out[i] <- work's value for direction theta[i], on isoconv's pool.

    The directions are cut into blocks of exactly _TILE_ROWS; the last is
    padded by repeating its last real direction (a zero row would trip the
    orthogonality error), and the padded values are dropped.
    work(block, buffers) returns one value (or row) per row of its block, at
    p = 2 from one product and else tile by tile (_tiles).  BLAS may round a
    row differently in a product of another shape, so the geometry comes
    from the tile constants alone.  Block j goes to lane j mod WORKERS; each
    lane runs its blocks on one worker with `temporaries` buffers of its own, of
    _TILE_ROWS * min(N, _TILE_COLS) doubles each, allocated here, once per
    call and in the calling thread.  The lanes are pool.run_tasks tasks:
    every lane finishes before the first error, if any, reaches the caller,
    and a call from inside a pool task is a RuntimeError instead of a wait
    that never ends.
    """
    m = len(theta)
    n_blocks = -(-m // _TILE_ROWS)
    padded = theta[np.minimum(np.arange(n_blocks * _TILE_ROWS), m - 1)]
    lanes = min(pool.WORKERS, n_blocks)
    size = _TILE_ROWS * min(len(pts), _TILE_COLS)
    buffers = [[np.empty(size) for _ in range(temporaries)] for _ in range(lanes)]

    def lane(k):
        for j in range(k, n_blocks, lanes):
            start, stop = j * _TILE_ROWS, min((j + 1) * _TILE_ROWS, m)
            out[start:stop] = work(padded[start:start + _TILE_ROWS], buffers[k])[:stop - start]

    pool.run_tasks([functools.partial(lane, k) for k in range(lanes)])


def _tiles(pts: np.ndarray, buffers):
    """(x, views) for each tile of samples: x the next _TILE_COLS rows of pts
    (fewer in the last tile), views one contiguous (_TILE_ROWS, len(x)) view
    into each buffer."""
    for start in range(0, len(pts), _TILE_COLS):
        x = pts[start:start + _TILE_COLS]
        yield x, [buf[:_TILE_ROWS * len(x)].reshape(_TILE_ROWS, len(x)) for buf in buffers]


def _carry(top: np.ndarray, tile_top: np.ndarray):
    """The running row max M' = max(M, m) after a tile of row max m, and the
    ratios M / M' and m / M' (0 while a row is all zero), which carry a
    scaled sum over as S <- S (M / M')^p + s (m / M')^p.  The ratios are at
    most 1, so nothing overflows; one underflows only when its tile adds
    less than 4096 * 2^-1074 of a sum that is at least 1.
    """
    new = np.maximum(top, tile_top)
    safe = np.where(new > 0.0, new, 1.0)
    return new, top / safe, tile_top / safe


def _power(base: np.ndarray, p: float, out: np.ndarray) -> None:
    """out <- base**p for base >= 0 and p >= 0, p != 1 (p = 1 and 2 skip it).

    Integer p is left-to-right binary powering: one squaring per bit after
    the leading one, the first written into `out`, and a multiply by `base`
    for each set bit, so `out` may be `base` itself when p is a power of
    two.  Only fractional p goes through np.power, which costs several
    times as much, and `out` may be `base` there too.  It first zeroes the
    entries below 2^(-1022/p), whose powers would fall below the smallest
    normal double, where np.power is many times slower still; the callers'
    rows each hold a 1.0, so those entries cannot move a row's sum.  One
    mask covers the whole tile.
    """
    if p != int(p):
        np.multiply(base, base >= 2.0 ** (-1022.0 / p), out=out)
        np.power(out, p, out=out)
        return
    k = int(p)
    if k == 0:
        np.sign(base, out=out)  # 0^0 = 0, as d|t|/dt at t = 0 is taken to be
    acc = base
    for bit in bin(k)[3:]:
        np.multiply(acc, acc, out=out)
        acc = out
        if bit == "1":
            out *= base


def _directions(samples: SampleSet, directions: np.ndarray) -> np.ndarray:
    """The (m, dim) batch of directions as floats; any other shape is a ValueError."""
    theta = np.asarray(directions, dtype=float)
    if theta.ndim != 2 or theta.shape[1] != samples.dim:
        raise ValueError(f"directions must be (m, {samples.dim}), got shape {theta.shape}")
    return theta


def _z2_form(pts: np.ndarray, theta: np.ndarray):
    """(Sigma theta, h_{Z_2}(theta)) for each row theta, Sigma = X^T X / N.

    h^2 = theta^T Sigma theta, clipped at 0 against round-off; Sigma theta
    is formed on the blocks of _run_blocks, with no (m, N) product.
    """
    sigma = pts.T @ pts / len(pts)
    grad = np.empty_like(theta)
    _run_blocks(theta, pts, 0, lambda rows, buffers: rows @ sigma, grad)
    return grad, np.sqrt(np.maximum((grad * theta).sum(axis=1), 0.0))


def zp_support(samples: SampleSet, p: float, directions: np.ndarray) -> np.ndarray:
    """h_{Z_p}(theta), an (m,) array, for each row of a batch (m, dim).

    p = 1 is the mean of |X theta|; p = 2 is sqrt(theta^T Sigma theta).  Any
    other p is a power mean over each direction's contiguous rows of the
    tiles u = |theta_b x_c^T|, each scaled by its max and carried over to the
    running max (overflow-safe up to the p cap).  Integer p is formed by
    squarings, in place when p is a power of two and in a second buffer
    otherwise: an even p as the self-dot of each row of u^{p/2}, an odd p as
    the dot of u with u^{p-1}.
    Only fractional p goes through np.power, in place, after the entries
    whose power would be subnormal are zeroed.  A direction
    orthogonal to every sample gives 0, at p = 2 up to round-off: the
    quadratic form carries an error of order eps * ||Sigma||, so there a
    direction of tiny spread is resolved only to about sqrt(eps) times the
    largest sample spread.
    """
    _check_p(p)
    theta = _directions(samples, directions)
    pts = samples.points
    n = samples.count
    if p == 2.0:
        return _z2_form(pts, theta)[1]
    integer = p == int(p)
    # a power of two is squared in place; any other integer p needs a second
    # buffer for its power
    in_place = not integer or bin(int(p)).count("1") == 1
    out = np.empty(theta.shape[0])

    def block(rows, buffers):
        top = total = np.zeros(_TILE_ROWS)
        for x, (u, *w) in _tiles(pts, buffers):
            np.matmul(rows, x.T, out=u)  # one contiguous row per direction
            np.abs(u, out=u)
            if p == 1.0:
                total = total + u.sum(axis=1)
                continue
            tile_top = u.max(axis=1)
            # an all-zero row stays 0
            u *= (1.0 / np.where(tile_top > 0.0, tile_top, 1.0))[:, None]
            if not integer:
                _power(u, p, u)
                sums = u.sum(axis=1)
            elif p % 2 == 0:
                v = w[0] if w else u
                _power(u, p // 2, v)
                sums = np.vecdot(v, v)
            else:
                _power(u, p - 1, w[0])
                sums = np.vecdot(u, w[0])
            top, kept, fresh = _carry(top, tile_top)
            total = total * kept**p + sums * fresh**p
        if p == 1.0:
            return total / n
        return top * (total / n) ** (1.0 / p)

    _run_blocks(theta, pts, 1 if in_place else 2, block, out)
    return out


def zp_touching_points(samples: SampleSet, p: float, directions: np.ndarray) -> np.ndarray:
    """Boundary point of Z_p touching the supporting hyperplane of each direction.

    For a differentiable support function the touching point is grad h; here
    grad h_{Z_p}(theta) = h^{1-p} (1/N) sum |<x,theta>|^{p-1} sign(<x,theta>) x,
    which normalizes to (h/M) w X / sum|u|^p with u = |X theta|/M, M its row
    max and w = sign(X theta) u^{p-1}, so powers only ever underflow.
    Tiles are direction-major as in zp_support, and u^{p-1} comes from the
    same squarings for integer p and from np.power otherwise.  Each row
    carries the running gradient sum w X across its tiles as zp_support
    carries sum u^p, with the exponent p - 1 in place of p.  At p = 2 the
    gradient is Sigma theta / h in closed form, on the same blocks; there a
    direction is taken as orthogonal to every sample when h is exactly 0.
    Since h is 1-homogeneous, <theta, grad h(theta)> = h(theta) (Euler), so
    the points also give the support values, to round-off.
    Convex hulls of these points are inner approximations of Z_p (the dual
    of the support-hull outer estimate).
    """
    _check_p(p)
    theta = _directions(samples, directions)
    pts = samples.points
    if p == 2.0:
        grad, h = _z2_form(pts, theta)
        if np.any(h == 0):
            raise ValueError("a direction is orthogonal to every sample")
        return grad / h[:, None]
    n = samples.count
    out = np.empty_like(theta)

    def block(rows, buffers):
        top = total = np.zeros(_TILE_ROWS)
        grad = np.zeros_like(rows)
        for x, (dots, u, w) in _tiles(pts, buffers):
            np.matmul(rows, x.T, out=dots)
            np.abs(dots, out=u)
            tile_top = u.max(axis=1)
            u *= (1.0 / np.where(tile_top > 0.0, tile_top, 1.0))[:, None]
            _power(u, p - 1.0, w)  # u^{p-1}
            sums = np.vecdot(u, w)  # sum u^p
            np.copysign(w, dots, out=w)
            top, kept, fresh = _carry(top, tile_top)
            total = total * kept**p + sums * fresh**p
            grad = grad * (kept ** (p - 1.0))[:, None] + (w @ x) * (fresh ** (p - 1.0))[:, None]
        if np.any(top == 0):
            raise ValueError("a direction is orthogonal to every sample")
        h = top * (total / n) ** (1.0 / p)
        return grad * (h / (top * total))[:, None]  # (rows, dim)

    _run_blocks(theta, pts, 3, block, out)
    return out


def centroid_body(samples: SampleSet, p: float) -> ConvexBody:
    """Z_p of the empirical measure, as a support-oracle body."""
    _check_p(p)

    def sup(theta):
        return zp_support(samples, p, theta)

    return ConvexBody(dim=samples.dim, support=sup)


def _series_support(log_moments: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """h_{Z_p}(theta), p = 2k with k = len(log_moments) - 1, of the product law
    whose coordinate moments are exp(log_moments), for each row of (m, n) theta.

    Each direction is scaled by its largest |theta_i|, so that u = theta / M
    has v_i = u_i^2 in [0, 1], one of them 1, and h(theta) = M h(u).  Then
    m_p <= E<X, u>^p <= n^p m_p (the first from the coordinate with v_i = 1,
    the second by Minkowski), and t is rescaled by tau with
    tau^k = (2k)! / (m_p n^k): the series' k-th coefficient is then
    F = E<X, u>^p / (n^k m_p) in [n^-k, n^k], and h(u) = sqrt(n) (m_p F)^{1/p}.
    Each factor's coefficients are g_j v_i^j with g_j = m_2j tau^j / (2j)!.
    The coefficients are laid out coefficient-major, (k + 1, b) for a block
    of b directions, so each degree is one contiguous row, and the product
    absorbs one coordinate at a time, highest degree first, in place.  The
    blocks hold _SERIES_BLOCK doubles, so memory does not grow with m.
    """
    k = len(log_moments) - 1
    theta = np.asarray(theta, dtype=float)
    m, n = theta.shape
    log_tau = (math.lgamma(2 * k + 1) - log_moments[k]) / k - math.log(n)
    j = np.arange(1, k + 1)
    log_g = log_moments[1:] - np.array([math.lgamma(2 * i + 1) for i in j]) + j * log_tau
    ratios = np.exp(np.diff(log_g, prepend=0.0))  # g_j / g_{j-1}, with g_0 = 1
    factor = math.sqrt(n) * math.exp(log_moments[k] / (2 * k))
    out = np.empty(m)
    height = max(1, _SERIES_BLOCK // (2 * k + 1 + n))
    for start in range(0, m, height):
        block = theta[start:start + height]
        scale = np.abs(block).max(axis=1)
        scale[scale == 0.0] = 1.0  # the zero direction gives h = 0
        v = np.square(block / scale[:, None]).T.copy()  # (n, b), a contiguous row per coordinate
        prod = np.zeros((k + 1, len(block)))
        prod[0] = 1.0
        w = np.empty((k, len(block)))
        for v_i in v:
            # w[j - 1] = g_j v_i^j
            np.cumprod(np.multiply.outer(ratios, v_i, out=w), axis=0, out=w)
            for d in range(k, 0, -1):  # prod[:d] still holds the old product
                prod[d] += np.einsum("jb,jb->b", w[:d], prod[d - 1::-1])
        out[start:start + height] = scale * factor * prod[k] ** (1.0 / (2 * k))
    return out


def exact_zp(measure: LogConcaveMeasure, p: float) -> Optional[ConvexBody]:
    """Exact Z_p of a Gaussian law, or of a product law at even p; else None.

    A Gaussian law T gamma_n has the ellipsoid c_p T B_2^n, with
    c_p = (E|g|^p)^{1/p} for a standard normal g.  When T is a multiple t I
    of the identity the body is the ball of radius c_p |t|, whose mean width
    is exact.  A measure that carries coordinate moments (the uniform cube)
    has at p = 2 the ball of radius sqrt(m_2), at any n, and at any other
    even p a body whose support is the series of _series_support, while
    n (p/2)^2 stays within ZP_SERIES_BUDGET.  At odd or fractional p (p = 1 among them),
    above the budget, and for any other measure the result is None, and the
    caller takes Z_p from samples.
    """
    _check_p(p)
    T = measure.gaussian_map
    if T is not None:
        log_abs_moment = math.lgamma((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)
        c_p = math.sqrt(2.0) * math.exp(log_abs_moment / p)
        t = T[0, 0]
        if np.array_equal(T, t * np.eye(measure.dim)):
            return ball(measure.dim, c_p * abs(float(t)))
        return ellipsoid(c_p * T)
    log_moments = measure.coordinate_log_moments
    if log_moments is None or p % 2 != 0:
        return None
    k = int(p) // 2
    if k == 1:
        return ball(measure.dim, math.exp(0.5 * log_moments[1]))
    if k >= len(log_moments) or measure.dim * k * k > ZP_SERIES_BUDGET:
        return None
    return ConvexBody(dim=measure.dim,
                      support=functools.partial(_series_support, log_moments[:k + 1]))
