"""Log-concave probability measures as seeded samplers.

A measure is a deterministic oracle (count, seed) -> points, tagged with the
log of the sup of its density when that is exactly known.  The log stays
finite where the sup itself over- or underflows (the gaussian's (2 pi)^{-n/2}
rounds to 0 from n = 811 on).  A Gaussian law T gamma_n also carries its map
T, from which centroid.exact_zp reads its Z_p in closed form.  A law with
i.i.d. coordinates, such as the uniform measure on a cube, carries the logs
of its coordinate law's even moments, from which centroid.exact_zp sums its
Z_p at even p; a linear image of such a law is no longer a product law and
carries none.  Exact samplers exist for the gaussian, coordinate products
and the bodies that carry one; a body without an exact sampler is rejected.  A draw is a
SampleSet, which holds its points and nothing else.

Determinism contract: same (measure, N, seed) gives bit-identical output
within a build.  Chunked draws derive chunk seeds via the frozen splitting
rule in seeds.py, so a draw's points depend on nothing but its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import bodies
from .bodies import ConvexBody, UnsupportedOracleError
from .seeds import child_seed, rng_from

#: draws are made in chunks of this many points, each with its own sub-seed
DEFAULT_CHUNK = 1 << 16
#: a product law carries its coordinate moments E X_1^{2j} for j = 0..MOMENT_ORDERS
MOMENT_ORDERS = 256


@dataclass(frozen=True)
class SampleSet:
    """Immutable batch of finite points, a read-only (count, dim) array.

    count and dim are read from the array's shape; the seed that drew the
    points is the caller's and is not stored.
    """

    points: np.ndarray  # (count, dim)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).view()  # freeze a view, not the caller's array
        if pts.ndim != 2:
            raise ValueError(f"SampleSet points must be (count, dim), got shape {pts.shape}")
        if len(pts) < 1:
            raise ValueError(f"SampleSet needs count >= 1, got {len(pts)}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("SampleSet points contain non-finite values")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class LogConcaveMeasure:
    """Sampler oracle (count, seed) -> (count, dim) points on R^dim, plus
    log_density_sup, the log of sup f_mu when exactly known and None otherwise,
    gaussian_map, the read-only (dim, dim) map T when the measure is the
    Gaussian law T gamma_dim and None otherwise, and coordinate_log_moments,
    the read-only array of log E X_1^{2j} for j = 0, 1, ... when the
    coordinates are i.i.d. and symmetric, and None otherwise.  The moments
    are carried as logs, which stay finite where the moments over- or
    underflow.
    """

    dim: int
    sampler: Callable[[int, int], np.ndarray]
    log_density_sup: Optional[float] = None
    gaussian_map: Optional[np.ndarray] = None
    coordinate_log_moments: Optional[np.ndarray] = None

    def __post_init__(self):
        T = self.gaussian_map
        if T is not None:
            T = np.asarray(T, dtype=float).view()  # freeze a view only
            if T.shape != (self.dim, self.dim):
                raise ValueError(f"gaussian_map must be {self.dim}x{self.dim}, got {T.shape}")
            T.setflags(write=False)
            object.__setattr__(self, "gaussian_map", T)
        moments = self.coordinate_log_moments
        if moments is not None:
            moments = np.asarray(moments, dtype=float).view()
            if moments.ndim != 1 or len(moments) < 2 or moments[0] != 0.0:
                raise ValueError("coordinate_log_moments must be 1-d, from log E X^0 = 0 on")
            moments.setflags(write=False)
            object.__setattr__(self, "coordinate_log_moments", moments)


def draw_samples(measure: LogConcaveMeasure, count: int, seed: int) -> SampleSet:
    """Deterministic draw of `count` points.

    Chunk i of size <= DEFAULT_CHUNK uses child_seed(seed, i), so the same
    (measure, count, seed) replays bit-identically.  The chunks are drawn in
    turn, in the calling thread, into one (count, dim) array, so a draw peaks
    at its output plus one chunk.
    Each chunk must come back from the sampler with shape (size, dim).
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    for index, done in enumerate(range(0, count, DEFAULT_CHUNK)):
        take = min(DEFAULT_CHUNK, count - done)
        block = measure.sampler(take, child_seed(seed, index))
        if np.shape(block) != (take, measure.dim):
            raise ValueError(
                f"sampler returned shape {np.shape(block)}, expected ({take}, {measure.dim})"
            )
        if take == count:
            return SampleSet(block)  # one chunk: the sampler's array, uncopied
        if index == 0:
            pts = np.empty((count, measure.dim), dtype=block.dtype)
        pts[done:done + take] = block
        del block  # before the next chunk is drawn
    return SampleSet(pts)


# ---------------------------------------------------------------------------
# exact families
# ---------------------------------------------------------------------------


def gaussian_measure(dim: int) -> LogConcaveMeasure:
    """Standard gaussian on R^dim."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")

    def sampler(count, seed):
        return rng_from(seed).standard_normal((count, dim))

    return LogConcaveMeasure(
        dim=dim,
        sampler=sampler,
        log_density_sup=-0.5 * dim * math.log(2.0 * math.pi),
        gaussian_map=np.eye(dim),
    )


def exponential_product_measure(dim: int) -> LogConcaveMeasure:
    """Product of symmetric exponentials, density 2^{-n} exp(-sum |x_i|)."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")

    def sampler(count, seed):
        return rng_from(seed).laplace(0.0, 1.0, size=(count, dim))

    return LogConcaveMeasure(
        dim=dim,
        sampler=sampler,
        log_density_sup=-dim * math.log(2.0),
    )


def uniform_body_measure(body: ConvexBody) -> LogConcaveMeasure:
    """Uniform probability measure on a body with an exact sampler.

    On a cube [-a, a]^n the coordinates are i.i.d. uniform on [-a, a], with
    even moments m_2j = a^{2j} / (2j + 1), carried as their logs.
    """
    if body.sample_exact is None:
        raise UnsupportedOracleError("uniform measure needs a body with an exact sampler")
    log_vol = body.analytic.get("log_volume")
    half = body.analytic.get("cube_half_side")
    moments = None
    if half is not None:
        j = np.arange(MOMENT_ORDERS + 1)
        moments = 2.0 * j * math.log(half) - np.log(2.0 * j + 1.0)
    return LogConcaveMeasure(
        dim=body.dim,
        sampler=body.sample_exact,
        log_density_sup=None if log_vol is None else -log_vol,
        coordinate_log_moments=moments,
    )


def pushforward_measure(base: LogConcaveMeasure, T: np.ndarray) -> LogConcaveMeasure:
    """Linear pushforward x -> T x; the density sup divides by |det T|.

    The pushforward of a Gaussian law S gamma_n is the Gaussian law
    (T S) gamma_n; of any other measure, no Gaussian law.  A linear image of
    a product law is not a product law, so no coordinate moments are kept.
    """
    T = np.asarray(T, dtype=float)
    if T.shape != (base.dim, base.dim):
        raise ValueError(f"T must be {base.dim}x{base.dim}, got {T.shape}")
    sign, logabsdet = np.linalg.slogdet(T)
    if sign == 0:
        raise ValueError("pushforward map is singular")
    inner = base.sampler

    def sampler(count, seed):
        x = inner(count, seed)  # a fresh array, overwritten with its image
        x @= T.T
        return x

    return LogConcaveMeasure(
        dim=base.dim,
        sampler=sampler,
        log_density_sup=None
        if base.log_density_sup is None
        else base.log_density_sup - logabsdet,
        gaussian_map=None if base.gaussian_map is None else T @ base.gaussian_map,
    )


# ---------------------------------------------------------------------------
# descriptor parsing (CLI surface)
# ---------------------------------------------------------------------------


def parse_measure(descriptor: str) -> LogConcaveMeasure:
    """Build a measure from a descriptor string.

    Grammar: `gaussian:<n>`, `exponential:<n>`, or `uniform:<body-descriptor>`
    with the body grammar from bodies.parse_body.  One measure-side default
    differs: a bare `uniform:cube:<n>` is the unit cube [-1/2,1/2]^n (a
    probability-measure context wants unit volume); pass an explicit side for
    anything else.
    """
    parts = descriptor.strip().split(":")
    head = parts[0].lower()
    if head in ("gaussian", "exponential"):
        if len(parts) != 2:
            raise ValueError(f"descriptor {descriptor!r} must be {head}:<dim>")
        make = gaussian_measure if head == "gaussian" else exponential_product_measure
        try:
            dim = int(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad dim in measure descriptor {descriptor!r}") from exc
        return make(dim)
    if head == "uniform":
        if len(parts) < 3:
            raise ValueError(
                f"descriptor {descriptor!r} must be uniform:<family>:<dim>[:params]"
            )
        rest = parts[1:]
        if rest[0].lower() == "cube" and len(rest) == 2:
            rest = rest + ["1"]  # unit cube in measure context
        return uniform_body_measure(bodies.parse_body(":".join(rest)))
    raise ValueError(f"unknown measure descriptor {descriptor!r}")
