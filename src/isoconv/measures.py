"""Log-concave probability measures as seeded samplers.

A measure is a deterministic oracle (count, seed) -> points, tagged with
whatever analytic facts survive the construction (sup of the density, exact
covariance).  Exact samplers exist for the gaussian, coordinate products and
the lp-ball families; everything else goes through hit-and-run, which is
never substituted silently -- callers must ask for it.

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
    approximate: bool = False  # True for MCMC-backed samplers


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
    tag = measure.label + (" [approximate]" if measure.approximate else "")
    return SampleSet(dim=measure.dim, count=count, points=pts, seed=seed, provenance=tag)


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


def uniform_body_measure(body: ConvexBody, mcmc: bool = False) -> LogConcaveMeasure:
    """Uniform probability measure on a body.

    Uses the body's exact sampler when it has one.  A body without one is
    rejected unless mcmc=True, in which case hit-and-run (marked approximate)
    is used with default burn-in/thinning.
    """
    vol = body.analytic.get("volume")
    density_sup = None if vol is None else 1.0 / vol
    label = f"uniform-body({body.family})"
    if body.sample_exact is not None:
        return LogConcaveMeasure(
            dim=body.dim,
            sampler=body.sample_exact,
            family="uniform-body",
            label=label,
            density_sup=density_sup,
            analytic_cov=_analytic_body_cov(body),
        )
    if not mcmc:
        raise UnsupportedOracleError(
            f"no exact sampler for family {body.family!r}; pass mcmc=True to "
            "authorize the hit-and-run fallback"
        )
    if body.membership is None:
        raise UnsupportedOracleError(
            f"hit-and-run needs a membership oracle; family {body.family!r} has none"
        )

    def sampler(count, seed):
        return hit_and_run(body, count, seed).points

    return LogConcaveMeasure(
        dim=body.dim,
        sampler=sampler,
        family="uniform-body",
        label=label + " via hit-and-run",
        density_sup=density_sup,
        analytic_cov=None,
        approximate=True,
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
        approximate=base.approximate,
    )


# ---------------------------------------------------------------------------
# hit-and-run
# ---------------------------------------------------------------------------

_CHAINS = 256  # parallel chains; membership is evaluated batched across them
_BISECT_STEPS = 46  # 2^-46 relative chord resolution


def hit_and_run(
    body: ConvexBody,
    count: int,
    seed: int,
    burn_in: Optional[int] = None,
    thin: Optional[int] = None,
    start: Optional[np.ndarray] = None,
) -> SampleSet:
    """Approximately uniform samples from a bounded body with membership.

    Runs parallel chains (membership calls are batched across chains); each
    step picks a uniform direction, brackets the chord through the current
    point by doubling + bisection, and jumps to a uniform point on it.
    Defaults: burn_in = 10*dim^2, thin = dim.  Output provenance is marked
    approximate by the measure wrapper; this function returns raw samples.
    """
    if body.membership is None:
        raise UnsupportedOracleError(
            f"hit-and-run needs a membership oracle; family {body.family!r} has none"
        )
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    n = body.dim
    if burn_in is None:
        burn_in = 10 * n * n
    if thin is None:
        thin = n
    if burn_in < 1 or thin < 1:
        raise ValueError("burn_in and thin must be >= 1")
    x0 = np.zeros(n) if start is None else np.asarray(start, dtype=float)
    if not bool(body.membership(x0)):
        raise ValueError("hit-and-run starting point is not inside the body")

    chains = min(count, _CHAINS)
    per_chain = -(-count // chains)  # ceil
    rng = rng_from(seed)
    x = np.tile(x0, (chains, 1))
    # chord half-length never exceeds 2*circumradius; fall back to doubling
    r_cap = body.analytic.get("circumradius")

    def chord_extent(pts, dirs, sgn):
        """Per-chain sup{t>0 : pts + sgn*t*dirs in body}, by doubling + bisection."""
        lo = np.zeros(chains)
        hi = np.full(chains, 1e-3 if r_cap is None else 2.0 * r_cap * (1 + 1e-6))
        if r_cap is None:
            inside = body.membership(pts + sgn * hi[:, None] * dirs)
            for _ in range(80):
                if not inside.any():
                    break
                hi[inside] *= 2.0
                inside = body.membership(pts + sgn * hi[:, None] * dirs)
            if inside.any():
                raise ValueError("hit-and-run chord unbounded; body must be bounded")
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            inside = body.membership(pts + sgn * mid[:, None] * dirs)
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        return lo

    kept = []
    steps_total = burn_in + thin * per_chain
    for step in range(steps_total):
        dirs = rng.standard_normal((chains, n))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        t_plus = chord_extent(x, dirs, +1.0)
        t_minus = chord_extent(x, dirs, -1.0)
        u = rng.uniform(0.0, 1.0, size=chains)
        t = -t_minus + u * (t_plus + t_minus)
        x = x + t[:, None] * dirs
        if step >= burn_in and (step - burn_in) % thin == thin - 1:
            kept.append(x.copy())
    pts = np.concatenate(kept, axis=0)[:count]
    return SampleSet(
        dim=n,
        count=count,
        points=pts,
        seed=seed,
        provenance=f"hit-and-run({body.family}, burn_in={burn_in}, thin={thin})",
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


def make_measure(family: str, dim: int, params=(), mcmc: bool = False) -> LogConcaveMeasure:
    """Build a measure by family name; see parse_measure for the grammar."""
    if family == "gaussian":
        return gaussian_measure(dim)
    if family == "exponential":
        return exponential_product_measure(dim)
    if family == "uniform":
        body_desc = ":".join(str(p) for p in params)
        return uniform_body_measure(bodies.parse_body(body_desc), mcmc=mcmc)
    raise ValueError(f"unknown measure family {family!r}")


def parse_measure(descriptor: str, mcmc: bool = False) -> LogConcaveMeasure:
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
        return make_measure("uniform", int(rest[1]), rest, mcmc=mcmc)
    raise ValueError(f"unknown measure descriptor {descriptor!r}")
