"""Random subspaces, projected bodies and samples, and low-dimensional volume radii.

Projection of a body is exact at the support level: for an orthonormal basis
B of F, h_{P_F K}(u) = h_K(B u).  Cubes and cross-polytopes also project to
polytopes of known shape: P_F [-a, a]^n is the zonotope with generators
a B^T e_i, and P_F (r B_1^n) is the hull of the points +-r B^T e_i.  The
projection states their exact volume as its log_volume, the zonotope's by a
Cauchy-Binet sum over k-subsets of generators at any k (within a subset
budget), the hull's by qhull; a volume radius then reads that one fact.
Only the qhull paths are capped at k <= 6: a tangent polytope's volume takes
one qhull pass over its polar points and then a signed sum over flags with
k!/2 determinants per dual facet, so its cost grows like k! times the facet
count.  The sup/inf functionals over the Grassmannian are sampled over Haar
subspaces and therefore only ever one-sided -- results are tagged
accordingly and the tags are load-bearing downstream.

A Subspace holds its orthonormal basis and nothing else; ambient and k are
read from the basis's shape.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bodies
from .bodies import ConvexBody, interval_length, volume_radius
from .estimates import Estimate
from .measures import SampleSet
from .seeds import child_seed, rng_from, sphere_directions

VOLUME_DIM_CAP = 6
DEFAULT_HULL_DIRECTIONS = 2000
# Largest C(m, k) summed exactly for a zonotope with m generators in R^k, about
# 1 s at about 1 us per 6 x 6 determinant; above k = 6 it shrinks by (k/6)^3,
# the growth of one determinant's cost.  Subsets go through np.linalg.det in
# chunks of at most DET_CHUNK_ENTRIES matrix entries (1 MB), so memory does
# not grow with C(m, k); the tangent hull's flag determinants go through
# _cofactor_det in chunks of the same size.
SUBSET_BUDGET = 2**20
DET_CHUNK_ENTRIES = 2**17
# Doubles in one block of lifted directions u B^T (8 MB): a projected body's
# support oracle lifts its directions to R^n a block at a time, so its memory
# does not grow with n times the number of directions.
LIFT_BLOCK = 2**20


@dataclass(frozen=True)
class Subspace:
    """k-dimensional subspace F of R^ambient, held as its orthonormal basis.

    The basis is a read-only (ambient, k) array B with B^T B = I_k, and
    ambient and k are read from its shape.
    """

    basis: np.ndarray  # (ambient, k), B^T B = I_k

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=float).view()  # freeze a view, not the caller's array
        if B.ndim != 2 or not 1 <= B.shape[1] <= B.shape[0]:
            raise ValueError(f"basis must be (ambient, k) with 1 <= k <= ambient, got {B.shape}")
        gram = B.T @ B
        if np.abs(gram - np.eye(B.shape[1])).max() > 1e-12:
            raise ValueError("basis columns are not orthonormal to 1e-12")
        B.setflags(write=False)
        object.__setattr__(self, "basis", B)

    @property
    def ambient(self) -> int:
        return self.basis.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]


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
    return Subspace(q)


def project_body(body: ConvexBody, F: Subspace) -> ConvexBody:
    """P_F K as a body in R^k via h_{P_F K}(u) = h_K(B u).

    Balls project to balls of the same radius and keep their exact analytic
    data.  Cubes and cross-polytopes project to polytopes whose exact volume
    the projection states as its log_volume:
      - [-a, a]^n becomes the zonotope with the n generators a B^T e_i (the
        rows of a B), whose volume is the Cauchy-Binet sum
        2^k sum_S |det (a B)_S| at any k, while C(n, k) is within
        SUBSET_BUDGET (scaled by (6/k)^3 above k = 6);
      - r B_1^n becomes the hull of the 2n points +-r B^T e_i, whose volume
        is that of their convex hull for 1 < k <= VOLUME_DIM_CAP.
    Everything else, and a polytope outside those ranges, becomes a bare
    support oracle.  The oracle lifts a batch of directions to R^n in blocks
    of at most LIFT_BLOCK doubles.
    """
    if F.ambient != body.dim:
        raise ValueError(f"subspace ambient {F.ambient} != body dim {body.dim}")
    if "ball_radius" in body.analytic:
        return bodies.ball(F.k, body.analytic["ball_radius"])
    B, k = F.basis, F.k
    inner = body.support
    analytic = {}
    if ("cube_half_side" in body.analytic
            and math.comb(len(B), k) * max(k, 6) ** 3 <= SUBSET_BUDGET * 6**3):
        analytic["log_volume"] = _zonotope_log_volume(body.analytic["cube_half_side"] * B)
    if "cross_radius" in body.analytic and 1 < k <= VOLUME_DIM_CAP:
        from scipy.spatial import ConvexHull

        rows = body.analytic["cross_radius"] * B
        analytic["log_volume"] = math.log(ConvexHull(np.vstack([rows, -rows])).volume)

    step = max(1, LIFT_BLOCK // len(B))

    def sup(u):
        if len(u) <= step:
            return inner(u @ B.T)  # rows u^T B^T = (B u)^T
        return np.concatenate([inner(u[i:i + step] @ B.T)
                               for i in range(0, len(u), step)])

    return ConvexBody(dim=k, support=sup, analytic=analytic)


def project_samples(samples: SampleSet, subspace: Subspace) -> SampleSet:
    """Push a SampleSet forward to coordinates in a Subspace's (ambient, k) basis."""
    basis = subspace.basis
    if basis.shape[0] != samples.dim:
        raise ValueError(
            f"basis shape {basis.shape} incompatible with ambient dim {samples.dim}"
        )
    return SampleSet(samples.points @ basis)


# ---------------------------------------------------------------------------
# volume radius
# ---------------------------------------------------------------------------


def _perm_sign(perm) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def _facet_orientation(simplices: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """A coherent orientation (+-1 per facet) of a closed triangulated sphere.

    Facet g, its vertices in the (sorted) order of `simplices`, and its
    neighbour n across the ridge R = g - {a} = n - {b} induce opposite
    orientations on R iff s_g s_n = -(-1)^(pos_g(a) + pos_n(b)).  The signs
    spread from facet 0 along a breadth-first tree, multiplied up to the
    root by pointer jumping.  Combinatorial, so it also orients the zero-volume
    simplices that qhull's triangulation of a non-simplicial facet leaves,
    where sign(det Y_G) is 0 or noise.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order

    f, k = simplices.shape
    graph = csr_array((np.ones(f * k), (np.repeat(np.arange(f), k), neighbors.ravel())),
                      shape=(f, f))
    _, up = breadth_first_order(graph, 0, directed=False, return_predecessors=True)
    up[0] = 0
    parent = simplices[up]
    pos_a = np.argmin((simplices[:, :, None] == parent[:, None, :]).any(axis=2), axis=1)
    pos_b = np.argmin((parent[:, :, None] == simplices[:, None, :]).any(axis=2), axis=1)
    sign = np.where((pos_a + pos_b) % 2 == 0, -1.0, 1.0)
    sign[0] = 1.0
    while np.any(up != 0):
        sign *= sign[up]
        up = up[up]
    return sign


def _support_hull_volume(dirs: np.ndarray, h: np.ndarray) -> float:
    """Volume of P = {x : <theta_i, x> <= h_i} from one hull of its polar.

    Needs every h_i > 0, so the origin is interior and P is the polar of
    Q = conv{y_i}, y_i = theta_i / h_i.  Each triangulated facet G of Q, with
    equation <a_G, y> + b_G = 0, is dual to the vertex v_G = -a_G / b_G of P.
    A face S of the triangulation maps to c_S, the mean of v_G' over the
    facets G' containing S; c_S lies on the face of P where <y_i, x> = 1 for
    all i in S.  The flags S_1 < ... < S_{k-1} < G of each facet (one per
    ordering sigma of its vertices) thus map the barycentric subdivision of
    the boundary of Q onto the boundary of P with degree one, and

        vol P = |sum_G o_G sum_sigma sign(sigma)
                 det(c_{S_1}, ..., c_{S_{k-1}}, v_G)| / k!

    where o_G = +-1 orients the triangulation coherently (up to one global
    sign it is sign(det Y_G) wherever that is nonzero).
    No vertex hull of P is built.  Simplices of one facet of Q that qhull
    splits into coplanar pieces share one v_G, and their signed terms cancel
    exactly, so redundant halfspaces need no merging.  The orderings that
    differ only in their last two vertices are paired by linearity, so each
    facet takes k!/2 determinants.  The flag matrices of all facets are
    gathered as one (k, k, F) stack per ordering, and their determinants
    taken by _cofactor_det.
    """
    from scipy.spatial import ConvexHull

    k = dirs.shape[1]
    hull = ConvexHull(dirs / h[:, None])
    simplices = np.sort(hull.simplices, axis=1)
    offsets = hull.equations[:, k]
    if np.any(offsets >= 0):
        raise ValueError("the tangent halfspaces do not bound a polytope")
    verts = hull.equations[:, :k] / -offsets[:, None]  # v_G, one per facet
    orient = _facet_orientation(simplices, hull.neighbors)

    # The c-th j-subset S of facet g's sorted vertices has the dense key
    # rank[j][g, c], and centre[j][:, key] = c_S.  A j-subset's integer key is
    # built from the key of its first j - 1 vertices and its last vertex.
    combos = {j: list(itertools.combinations(range(k), j)) for j in range(1, k)}
    pos = {c: i for j in combos for i, c in enumerate(combos[j])}
    rank, centre = {}, {}
    keys = simplices
    for j in range(1, k):
        if j > 1:
            prefix = rank[j - 1][:, [pos[c[:-1]] for c in combos[j]]]
            keys = prefix * len(dirs) + simplices[:, [c[-1] for c in combos[j]]]
        uniq, inverse = np.unique(keys, return_inverse=True)
        rank[j] = inverse.reshape(keys.shape)
        flat = rank[j].ravel()
        sums = np.stack([
            np.bincount(flat, np.repeat(verts[:, d], len(combos[j])), len(uniq))
            for d in range(k)
        ])
        centre[j] = sums / np.bincount(flat, minlength=len(uniq))  # (k, U)

    # mats[i, j] is entry (i, j) of every facet's matrix, one contiguous row
    mats = np.empty((k, k, len(verts)))
    mats[-1] = verts.T
    total = np.zeros(len(verts))
    for perm in itertools.permutations(range(k)):
        if perm[-2] > perm[-1]:
            continue  # taken with its swap through the difference row below
        for j in range(1, k - 1):
            np.take(centre[j], rank[j][:, pos[tuple(sorted(perm[:j]))]], axis=1,
                    out=mats[j - 1])
        a, b = (rank[k - 1][:, pos[tuple(sorted(perm[:-2] + (i,)))]] for i in perm[-2:])
        np.subtract(centre[k - 1][:, a], centre[k - 1][:, b], out=mats[-2])
        total += _perm_sign(perm) * _cofactor_det(mats)
    return float(abs(orient @ total)) / math.factorial(k)


def _cofactor_det(mats: np.ndarray) -> np.ndarray:
    """det of each mats[:, :, f], for mats of shape (k, k, F).

    Laplace expansion from the bottom row up: the minors of the last r rows,
    one array per r-subset of the columns, are expanded along row k - r from
    the minors of the last r - 1 rows.  That is sum_r r C(k, r) products, 28
    at k = 4 and 186 at k = 6, each a contiguous pass over one entry of the
    matrices.  The matrices go in chunks of at most DET_CHUNK_ENTRIES entries,
    so that a chunk's minors stay in cache.
    """
    k, _, f = mats.shape
    out = np.empty(f)
    step = max(1, DET_CHUNK_ENTRIES // k**2)
    term = np.empty(min(f, step))
    for start in range(0, f, step):
        chunk = mats[:, :, start:start + step]
        t = term[:chunk.shape[2]]
        minors = {(c,): chunk[-1, c] for c in range(k)}
        for r in range(2, k + 1):
            row = chunk[k - r]
            expanded = {}
            for cols in itertools.combinations(range(k), r):
                acc = row[cols[0]] * minors[cols[1:]]
                for i in range(1, r):
                    np.multiply(row[cols[i]], minors[cols[:i] + cols[i + 1:]], out=t)
                    if i % 2:
                        acc -= t
                    else:
                        acc += t
                expanded[cols] = acc
            minors = expanded
        out[start:start + step] = minors[tuple(range(k))]
    return out


def _zonotope_log_volume(generators: np.ndarray) -> float:
    """log vol sum_i [-g_i, g_i] = log(2^k sum_{|S|=k} |det G_S|), G of shape (m, k).

    The zonotope tiles into parallelotopes, one per k-subset S of generators
    (Shephard 1974; McMullen, *Volumes of projections of unit cubes*, 1984).
    Subsets are taken in lexicographic chunks; G is divided by its largest
    entry s first, and s^k is put back in the log, so large k neither over-
    nor underflows.
    """
    m, k = generators.shape
    scale = float(np.abs(generators).max())
    unit = generators / scale
    subsets = itertools.combinations(range(m), k)
    row, size = np.dtype((np.intp, k)), max(1, DET_CHUNK_ENTRIES // k**2)
    total = 0.0
    while len(chunk := np.fromiter(itertools.islice(subsets, size), dtype=row)):
        total += float(np.abs(np.linalg.det(unit[chunk])).sum())
    return k * math.log(2.0 * scale) + math.log(total)


def check_hull_dim(k: int) -> None:
    """Reject a hull volume in dimension k > VOLUME_DIM_CAP.

    Closed-form volumes are fine at any dimension; hulls are not.
    """
    if k > VOLUME_DIM_CAP:
        raise ValueError(f"hull volumes are capped at dim {VOLUME_DIM_CAP}, got {k}; only bodies "
                         "that state their volume (balls, and cubes within the subset budget) "
                         "go beyond it")


def support_hull_volrad(dirs: np.ndarray, h: np.ndarray) -> Estimate:
    """Outer volume radius from the tangent halfspaces <theta_i, x> <= h_i.

    dirs (m, k) are unit normals and h the body's support values there.  The
    polytope they bound contains the body, so the estimate is `upper`; its
    volume is _support_hull_volume's, for 2 <= k <= VOLUME_DIM_CAP.  Every
    h_i must be positive (the origin interior).
    """
    k = dirs.shape[1]
    check_hull_dim(k)
    if np.any(h <= 0):
        raise ValueError(
            "support-hull method needs the origin in the interior (h > 0); "
            "the body has a nonpositive support value"
        )
    return Estimate(volume_radius(_support_hull_volume(dirs, h), k), 0.0, len(dirs), "upper")


def volume_radius_lowdim(
    body: ConvexBody,
    method: str = "auto",
    n_directions: int = DEFAULT_HULL_DIRECTIONS,
    seed: int = 0,
) -> Estimate:
    """volrad(K) = (Vol K / Vol B_2^k)^{1/k}; the hulls are capped at k <= 6.

    methods: `support-hull` (outer polytope from `n_directions` tangent
    halfspaces at seeded directions -> upper bound), and `auto`, which reads
    the body's log_volume, an `exact` estimate at any k, and takes the
    support hull when the body states none.  A projected cube or
    cross-polytope states its volume (see project_body).  The support hull
    in dimension 1 is exact (interval length from two support values).
    """
    if method == "auto":
        if "log_volume" in body.analytic:
            # in logs, so the volume radius stays finite at any k
            k = body.dim
            vr = math.exp((body.analytic["log_volume"] - bodies.lp_ball_log_volume(k, 2.0)) / k)
            return Estimate(vr, 0.0, 0, "exact")
    elif method != "support-hull":
        raise ValueError(f"unknown volume method {method!r}")
    return support_hull_task(body, n_directions, seed)()


def support_hull_task(body: ConvexBody, n_directions: int, seed: int):
    """volume_radius_lowdim(body, "support-hull", n_directions, seed), in two steps.

    The support values at the seeded directions are taken now, in the
    calling thread; the hull volume is left to the zero-argument callable
    returned, which calls no support oracle and may run as a pool.run_tasks
    task.  In dimension 1 the interval length is exact and taken now.
    """
    k = body.dim
    if k == 1:
        est = Estimate(volume_radius(interval_length(body), 1), 0.0, 2, "exact")
        return lambda: est
    check_hull_dim(k)  # before the support pass that the cap would waste
    dirs = sphere_directions(k, n_directions, seed)
    h = body.support(dirs)
    return functools.partial(support_hull_volrad, dirs, h)


# ---------------------------------------------------------------------------
# Grassmannian functionals (sampled, one-sided)
# ---------------------------------------------------------------------------


def vk_estimate(body: ConvexBody, k: int, trials: int, seed: int) -> Estimate:
    """Sampled sup of volrad(P_F K) over Haar F in G_{n,k}.

    The true v_k is a supremum, so finitely many trials of exact volume radii
    can only undershoot it: the result is labelled `lower`, with SE 0, when
    every trial is `exact`.  Trials are exact for balls, cubes (within
    SUBSET_BUDGET) and cross-polytopes (1 < k <= VOLUME_DIM_CAP), whose
    projections state their log_volume (project_body), and at k = 1
    (interval).  Otherwise the result is `mc`: a sup of outer support-hull
    volume radii bounds v_k from neither side.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not 1 <= k <= body.dim:
        raise ValueError(f"need 1 <= k <= dim, got k={k}, dim={body.dim}")
    if k == body.dim:
        # every F is a rotation, which preserves volume: v_n(K) = volrad(K)
        return volume_radius_lowdim(body, seed=child_seed(seed, 0))
    best = -math.inf
    exact = True
    for i in range(trials):
        F = random_subspace(body.dim, k, child_seed(seed, i))
        est = volume_radius_lowdim(project_body(body, F), seed=child_seed(seed, trials + i))
        exact = exact and est.direction == "exact"
        best = max(best, est.value)
    return Estimate(best, 0.0, trials, "lower" if exact else "mc")
