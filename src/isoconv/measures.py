"""Log-concave probability measures as seeded samplers.

A measure is a deterministic oracle (count, seed) -> points, tagged with
whatever analytic facts survive the construction (sup of the density, exact
covariance).  Exact samplers exist for the gaussian, coordinate products and
the bodies that carry one; a body without an exact sampler is rejected.

Determinism contract: same (measure, N, seed) gives bit-identical output
within a build.  Chunked draws derive chunk seeds via the frozen splitting
rule in seeds.py, so parallel workers replay exactly.
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


@dataclass(frozen=True)
class SampleSet:
    """Immutable batch of points with its generating seed and provenance."""

    dim: int
    count: int
    points: np.ndarray  # (count, dim)
    seed: int
    provenance: str

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"SampleSet needs count >= 1, got {self.count}")
        pts = np.asarray(self.points, dtype=float).view()  # freeze a view, not the caller's array
        if pts.shape != (self.count, self.dim):
            raise ValueError(
                f"points shape {pts.shape} != (count, dim) = ({self.count}, {self.dim})"
            )
        if not np.all(np.isfinite(pts)):
            raise ValueError("SampleSet points contain non-finite values")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class LogConcaveMeasure:
    """Sampler oracle plus analytic side information.

    family is one of uniform-body | gaussian | exponential-product |
    pushforward; label carries the human-readable construction.
    density_sup is sup f_mu when exactly known (None otherwise), analytic_cov
    the exact covariance matrix when known.
    """

    dim: int
    sampler: Callable[[int, int], np.ndarray]
    family: str
    label: str
    density_sup: Optional[float] = None
    analytic_cov: Optional[np.ndarray] = None


def draw_samples(
    measure: LogConcaveMeasure, count: int, seed: int, chunk: int = DEFAULT_CHUNK
) -> SampleSet:
    """Deterministic draw of `count` points.

    Chunk i of size <= chunk uses child_seed(seed, i), so the same (measure,
    count, seed) replays bit-identically and workers can split chunks.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    if chunk < 1:
        raise ValueError(f"need chunk >= 1, got {chunk}")
    blocks = []
    done = 0
    index = 0
    while done < count:
        take = min(chunk, count - done)
        blocks.append(measure.sampler(take, child_seed(seed, index)))
        done += take
        index += 1
    pts = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
    return SampleSet(dim=measure.dim, count=count, points=pts, seed=seed,
                     provenance=measure.label)


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
        family="gaussian",
        label=f"gaussian({dim})",
        density_sup=(2.0 * math.pi) ** (-dim / 2.0),
        analytic_cov=np.eye(dim),
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
        family="exponential-product",
        label=f"exponential-product({dim})",
        density_sup=0.5**dim,
        analytic_cov=2.0 * np.eye(dim),
    )


def _analytic_body_cov(body: ConvexBody) -> Optional[np.ndarray]:
    """Exact covariance of the uniform measure, for families where we know it."""
    fam = body.family
    if fam.startswith("cube("):
        side = 2.0 * body.analytic["inradius"]
        return (side**2 / 12.0) * np.eye(body.dim)
    if "ball_radius" in body.analytic:
        r = body.analytic["ball_radius"]
        return (r**2 / (body.dim + 2)) * np.eye(body.dim)
    if fam.startswith("cross-polytope") or fam.startswith("scaled(cross-polytope"):
        r = body.analytic["circumradius"]
        n = body.dim
        return (2.0 * r**2 / ((n + 1) * (n + 2))) * np.eye(n)
    return None


def uniform_body_measure(body: ConvexBody) -> LogConcaveMeasure:
    """Uniform probability measure on a body with an exact sampler."""
    if body.sample_exact is None:
        raise UnsupportedOracleError(f"no exact sampler for family {body.family!r}")
    vol = body.analytic.get("volume")
    return LogConcaveMeasure(
        dim=body.dim,
        sampler=body.sample_exact,
        family="uniform-body",
        label=f"uniform-body({body.family})",
        density_sup=None if vol is None else 1.0 / vol,
        analytic_cov=_analytic_body_cov(body),
    )


def pushforward_measure(
    base: LogConcaveMeasure, T: np.ndarray, shift: Optional[np.ndarray] = None
) -> LogConcaveMeasure:
    """Affine pushforward x -> T x + shift.

    density_sup divides by |det T|; the analytic covariance conjugates when
    the base has one and the shift is recentering-free (cov is shift-free
    only when the base is centered, which all built-in families are).
    """
    T = np.asarray(T, dtype=float)
    if T.shape != (base.dim, base.dim):
        raise ValueError(f"T must be {base.dim}x{base.dim}, got {T.shape}")
    sign, logabsdet = np.linalg.slogdet(T)
    if sign == 0:
        raise ValueError("pushforward map is singular")
    b = np.zeros(base.dim) if shift is None else np.asarray(shift, dtype=float)
    inner = base.sampler

    def sampler(count, seed):
        return inner(count, seed) @ T.T + b

    cov = None
    if base.analytic_cov is not None:
        cov = T @ base.analytic_cov @ T.T
    return LogConcaveMeasure(
        dim=base.dim,
        sampler=sampler,
        family="pushforward",
        label=f"pushforward({base.label})",
        density_sup=None
        if base.density_sup is None
        else base.density_sup / math.exp(logabsdet),
        analytic_cov=cov,
    )


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def project_samples(samples: SampleSet, subspace) -> SampleSet:
    """Push a SampleSet forward to coordinates in a subspace's basis.

    Accepts anything with an (ambient, k) orthonormal `basis` attribute, or a
    raw basis matrix.  The result represents the projected measure in R^k.
    """
    basis = getattr(subspace, "basis", subspace)
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != samples.dim:
        raise ValueError(
            f"basis shape {basis.shape} incompatible with ambient dim {samples.dim}"
        )
    pts = samples.points @ basis
    return SampleSet(
        dim=basis.shape[1],
        count=samples.count,
        points=pts,
        seed=samples.seed,
        provenance=f"project[{basis.shape[1]}]({samples.provenance})",
    )


# ---------------------------------------------------------------------------
# descriptor parsing (CLI surface)
# ---------------------------------------------------------------------------


def make_measure(family: str, dim: int, params=()) -> LogConcaveMeasure:
    """Build a measure by family name; see parse_measure for the grammar."""
    if family == "gaussian":
        return gaussian_measure(dim)
    if family == "exponential":
        return exponential_product_measure(dim)
    if family == "uniform":
        body_desc = ":".join(str(p) for p in params)
        return uniform_body_measure(bodies.parse_body(body_desc))
    raise ValueError(f"unknown measure family {family!r}")


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
        return make_measure(head, int(parts[1]))
    if head == "uniform":
        if len(parts) < 3:
            raise ValueError(
                f"descriptor {descriptor!r} must be uniform:<family>:<dim>[:params]"
            )
        rest = parts[1:]
        if rest[0].lower() == "cube" and len(rest) == 2:
            rest = rest + ["1"]  # unit cube in measure context
        return make_measure("uniform", int(rest[1]), rest)
    raise ValueError(f"unknown measure descriptor {descriptor!r}")
