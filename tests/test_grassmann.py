import itertools
import math

import numpy as np
import pytest

from isoconv.bodies import (
    ConvexBody,
    ball,
    ball_volume,
    cross_polytope,
    cube,
    lp_ball,
    lp_ball_log_volume,
    scale_body,
    unit_volume_copy,
)
from isoconv.centroid import zp_support
from isoconv import grassmann
from isoconv.grassmann import (
    LIFT_BLOCK,
    VOLUME_DIM_CAP,
    Subspace,
    _cofactor_det,
    _support_hull_volume,
    _zonotope_log_volume,
    project_body,
    random_subspace,
    support_hull_volrad,
    vk_estimate,
    volume_radius_lowdim,
)
from isoconv.measures import draw_samples, gaussian_measure, project_samples
from isoconv.seeds import child_seed, sphere_directions


def test_random_subspace_orthonormal():
    for k in (1, 3, 5):
        F = random_subspace(8, k, seed=k)
        G = F.basis.T @ F.basis
        assert np.allclose(G, np.eye(k), atol=1e-12)


def test_random_subspace_deterministic():
    a = random_subspace(6, 2, seed=9)
    b = random_subspace(6, 2, seed=9)
    assert np.array_equal(a.basis, b.basis)


def test_random_subspace_full_space_is_orthogonal_matrix():
    F = random_subspace(4, 4, seed=1)
    assert np.allclose(F.basis @ F.basis.T, np.eye(4), atol=1e-12)


def test_random_subspace_validates_k():
    with pytest.raises(ValueError):
        random_subspace(3, 0, seed=1)
    with pytest.raises(ValueError):
        random_subspace(3, 4, seed=1)


def test_haar_invariance_first_column_uniform():
    # columns of a Haar frame are uniform on the sphere: check second moments
    cols = np.stack([random_subspace(3, 1, seed=s).basis[:, 0] for s in range(4000)])
    assert np.abs(cols.mean(axis=0)).max() < 0.05
    assert np.abs((cols**2).mean(axis=0) - 1.0 / 3.0).max() < 0.03


def test_project_ball_is_ball():
    F = random_subspace(7, 3, seed=2)
    P = project_body(ball(7, radius=2.0), F)
    assert P.dim == 3
    assert P.analytic["log_volume"] == pytest.approx(math.log(2.0**3 * ball_volume(3)), abs=1e-12)
    u = sphere_directions(3, 16, seed=3)
    assert np.allclose(P.support(u), 2.0, atol=1e-12)


def test_project_body_support_closure():
    # h_{P_F K}(u) = h_K(B u)
    K = cube(5, side=2.0)
    F = random_subspace(5, 2, seed=4)
    P = project_body(K, F)
    u = sphere_directions(2, 64, seed=5)
    assert np.allclose(P.support(u), K.support(u @ F.basis.T), rtol=1e-12)


def test_project_cube_onto_diagonal():
    # [-1,1]^2 onto span{(1,1)/sqrt2} = segment of half-length sqrt(2)
    B = np.array([[1.0], [1.0]]) / math.sqrt(2.0)
    F = Subspace(B)
    P = project_body(cube(2, side=2.0), F)
    assert P.support(np.array([[1.0], [-1.0]])) == pytest.approx([math.sqrt(2.0)] * 2, rel=1e-12)
    assert volume_radius_lowdim(P).value == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_subspace_leaves_callers_array_writeable():
    B = np.eye(3)[:, :2]
    F = Subspace(B)
    assert (F.ambient, F.k) == (3, 2)
    assert B.flags.writeable
    assert not F.basis.flags.writeable
    assert np.shares_memory(F.basis, B)  # frozen without a copy


@pytest.mark.parametrize("basis", [np.ones(3) / math.sqrt(3.0), np.eye(3, 4), np.zeros((3, 0))])
def test_subspace_rejects_a_basis_of_the_wrong_shape(basis):
    # a 1-D array, k > ambient and k = 0 are no (ambient, k) basis
    with pytest.raises(ValueError, match=r"basis must be \(ambient, k\)") as info:
        Subspace(basis)
    assert "\n" not in str(info.value)


def test_projection_composition_consistency():
    # projecting samples then bodies commutes through supports
    K = cube(4, side=1.0)
    F = random_subspace(4, 2, seed=6)
    s = draw_samples(gaussian_measure(4), 500, seed=7)
    ps = project_samples(s, F)
    u = sphere_directions(2, 8, seed=8)
    # support of projected body dominates dots of projected samples scaled in
    hP = project_body(K, F).support(u)
    assert hP.shape == (8,)


def test_volume_radius_interval_exact():
    # [-0.5, 1.5] as a bare 1-D support oracle: h(t) = max(-0.5 t, 1.5 t)
    seg = ConvexBody(dim=1, support=lambda t: np.maximum(-0.5 * t, 1.5 * t)[..., 0])
    est = volume_radius_lowdim(seg)
    assert est.value == pytest.approx(1.0, rel=1e-12)  # length 2 / ball length 2
    assert est.direction == "exact"
    assert est.std_error == 0.0


def test_volume_radius_analytic_ball_any_dim():
    # the log-volume route has no dimension cap
    est = volume_radius_lowdim(ball(12))
    assert est.value == pytest.approx(1.0, rel=1e-12)
    assert est.direction == "exact"


def test_volume_radius_square_all_methods():
    K = cube(2, side=2.0)
    truth = (4.0 / math.pi) ** 0.5
    exact = volume_radius_lowdim(K)
    assert exact.direction == "exact"
    assert exact.value == pytest.approx(truth, rel=1e-12)
    hull = volume_radius_lowdim(K, method="support-hull", n_directions=4000, seed=1)
    assert hull.direction == "upper"
    assert truth <= hull.value <= truth * 1.01


def test_volume_radius_cross_polytope_3d():
    truth = (1.0 / math.pi) ** (1.0 / 3.0)  # vol B_1^3 = 4/3, ball 4pi/3
    K = cross_polytope(3)
    exact = volume_radius_lowdim(K)
    assert exact.direction == "exact"
    assert exact.value == pytest.approx(truth, rel=1e-12)
    hull = volume_radius_lowdim(K, method="support-hull", n_directions=4000, seed=3)
    assert truth - 1e-9 <= hull.value <= truth * 1.05


def test_volume_radius_dim_cap_applies_to_hulls_only():
    K = cube(VOLUME_DIM_CAP + 1, side=1.0)
    with pytest.raises(ValueError):
        volume_radius_lowdim(K, method="support-hull", seed=1)
    # the log-volume route is fine above the cap
    exact = volume_radius_lowdim(K)
    assert exact.direction == "exact"
    assert exact.value > 0


def test_vk_estimate_ball_is_one():
    est = vk_estimate(ball(6), 3, trials=4, seed=6)
    assert est.value == pytest.approx(1.0, rel=1e-12)
    assert est.direction == "lower"


def test_vk_estimate_full_dim_is_volrad():
    K = cube(3, side=2.0)
    est = vk_estimate(K, 3, trials=2, seed=7)
    truth = (8.0 / ball_volume(3)) ** (1.0 / 3.0)
    assert est.value == pytest.approx(truth, rel=0.02)


def test_vk_estimate_k1_square_diagonal():
    # best 1-d shadow of [-1,1]^2 has half-length sqrt 2; with many trials the
    # max should approach it from below
    est = vk_estimate(cube(2, side=2.0), 1, trials=64, seed=8)
    assert est.value <= math.sqrt(2.0) + 1e-9
    assert est.value > 1.2
    assert est.direction == "lower"  # every 1-D shadow's length is exact


def test_vk_monotone_in_trials():
    # sup over a larger trial set can only grow (same seed prefix property
    # not guaranteed, so compare via explicit max)
    a = vk_estimate(cube(3, side=2.0), 2, trials=4, seed=9).value
    b = vk_estimate(cube(3, side=2.0), 2, trials=32, seed=9).value
    assert b >= a * 0.98


# ---------------------------------------------------------------------------
# tangent-polytope volume from one dual hull
# ---------------------------------------------------------------------------


def test_tangent_polygon_of_unit_disc_closed_form():
    # the polygon tangent to the unit circle at angles phi_i has area
    # sum_i tan(gap_i / 2) over the angular gaps between consecutive normals
    dirs = sphere_directions(2, 40, seed=11)
    phi = np.sort(np.arctan2(dirs[:, 1], dirs[:, 0]))
    gaps = np.diff(np.append(phi, phi[0] + 2.0 * math.pi))
    assert gaps.max() < math.pi
    area = _support_hull_volume(dirs, np.ones(len(dirs)))
    assert area == pytest.approx(np.tan(gaps / 2.0).sum(), rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_redundant_halfspaces_of_cube_leave_the_cube(k):
    # random tangent halfspaces of [-1,1]^k plus its own facets: P is the cube,
    # and every redundant halfspace is a dual point inside a facet of the hull
    eye = np.eye(k)
    dirs = np.vstack([sphere_directions(k, 300, seed=k), eye, -eye])
    vol = _support_hull_volume(dirs, np.abs(dirs).sum(axis=1))
    assert vol == pytest.approx(2.0**k, rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_cross_polytope_from_its_facet_normals(k):
    # the dual hull is the cube; from k = 4 on qhull splits its facets into
    # simplices some of which have zero volume, so their orientation must
    # come from the triangulation, not from sign(det)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=k)))
    dirs = signs / math.sqrt(k)
    vol = _support_hull_volume(dirs, np.full(len(dirs), 1.0 / math.sqrt(k)))
    assert vol == pytest.approx(2.0**k / math.factorial(k), rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_cofactor_det_matches_linalg_det(k):
    # well-conditioned matrices near the identity, over several chunks
    rng = np.random.default_rng(k)
    mats = np.eye(k) + 0.3 * rng.standard_normal((40_000, k, k)) / math.sqrt(k)
    expected = np.linalg.det(mats)
    assert np.abs(expected).min() > 1e-3
    det = _cofactor_det(np.ascontiguousarray(mats.transpose(1, 2, 0)))
    np.testing.assert_allclose(det, expected, rtol=1e-12, atol=0.0)


def test_support_hull_volrad_is_the_support_hull_method():
    samples = draw_samples(gaussian_measure(3), 2000, seed=5)
    dirs = sphere_directions(3, 500, seed=6)
    est = support_hull_volrad(dirs, zp_support(samples, 3.0, dirs))
    body = ConvexBody(dim=3, support=lambda t: zp_support(samples, 3.0, t))
    assert est == volume_radius_lowdim(body, method="support-hull", n_directions=500, seed=6)
    assert est.direction == "upper" and est.n_samples == 500
    with pytest.raises(ValueError, match=r"h > 0.*nonpositive support value"):
        support_hull_volrad(dirs, -np.ones(len(dirs)))
    with pytest.raises(ValueError, match=f"capped at dim {VOLUME_DIM_CAP}"):
        k = VOLUME_DIM_CAP + 1
        support_hull_volrad(sphere_directions(k, 50, seed=7), np.ones(50))


def test_projected_support_lifts_directions_in_blocks():
    # C(4000, 2) is past the subset budget, so the projected cube takes the
    # tangent hull: 2000 directions lifted to R^4000 would be 64 MB at once,
    # and 64 MB more for their absolute values
    import tracemalloc

    tracemalloc.start()
    try:
        est = vk_estimate(cube(4000), 2, trials=1, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.direction == "mc"
    assert peak < 3 * 8 * LIFT_BLOCK, peak
    # a batch within one block takes the single product, as before
    F = random_subspace(4000, 2, seed=8)
    u = sphere_directions(2, 1 + 2 * LIFT_BLOCK // 4000, seed=9)
    P = project_body(cube(4000), F)  # h = ||B u||_1
    np.testing.assert_allclose(P.support(u), np.abs(u @ F.basis.T).sum(axis=1), rtol=1e-12)
    small = u[: LIFT_BLOCK // 4000]
    assert np.array_equal(P.support(small), np.abs(small @ F.basis.T).sum(axis=1))


def _halfspace_intersection_volume(dirs, h):
    # the two-pass qhull pipeline: vertices of P, then their hull
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    hs = HalfspaceIntersection(np.hstack([dirs, -h[:, None]]), np.zeros(dirs.shape[1]))
    return ConvexHull(hs.intersections).volume


@pytest.mark.parametrize("k", [3, 4])
def test_dual_hull_volume_matches_vertex_hull(k):
    dirs = sphere_directions(k, 1000, seed=20 + k)
    samples = draw_samples(gaussian_measure(k), 2000, seed=30 + k)
    cases = [zp_support(samples, p, dirs) for p in (2.0, 3.0)]
    F = random_subspace(8, k, seed=40 + k)
    for body in (cube(8), cross_polytope(8)):
        cases.append(np.asarray(project_body(body, F).support(dirs), dtype=float))
    for h in cases:
        assert _support_hull_volume(dirs, h) == pytest.approx(
            _halfspace_intersection_volume(dirs, h), rel=1e-12
        )


def _cauchy_binet_volume(G):
    # one determinant per k-subset of generator rows, summed in a Python loop
    m, k = G.shape
    return 2.0**k * sum(
        abs(np.linalg.det(G[list(S)])) for S in itertools.combinations(range(m), k)
    )


def test_projected_cube_k5_has_a_finite_outer_volume():
    # trial 1 of `vk --body cube:8 --k 5 --trials 4 --seed 1`, where a second
    # (vertex) qhull pass raised QhullError.  vol P_F([-1,1]^8) is the zonotope
    # volume 2^5 sum_{|S|=5} |det B_S| (Shephard; McMullen 1984), and the
    # outer tangent polytope contains P_F K.
    F = random_subspace(8, 5, child_seed(1, 1))
    P = project_body(cube(8), F)
    est = volume_radius_lowdim(P, method="support-hull", seed=child_seed(1, 5))
    exact_volrad = (_cauchy_binet_volume(F.basis) / ball_volume(5)) ** 0.2
    assert est.direction == "upper"
    assert math.isfinite(est.value)
    assert exact_volrad <= est.value <= 1.2 * exact_volrad
    auto = volume_radius_lowdim(P, seed=child_seed(1, 5))
    assert auto.direction == "exact"
    assert auto.value == pytest.approx(exact_volrad, rel=1e-12)


# ---------------------------------------------------------------------------
# exact volumes of projected cubes and cross-polytopes
# ---------------------------------------------------------------------------


def test_projected_cube_states_its_zonotope_log_volume():
    # the generators of P_F([-1.5, 1.5]^6) are the rows of 1.5 B
    F = random_subspace(6, 3, seed=12)
    P = project_body(scale_body(cube(6, side=1.0), 3.0), F)  # half-side 1.5
    assert P.analytic == {"log_volume": _zonotope_log_volume(1.5 * F.basis)}
    assert math.exp(P.analytic["log_volume"]) == pytest.approx(
        _cauchy_binet_volume(1.5 * F.basis), rel=1e-12
    )


@pytest.mark.parametrize("m,k", [(3, 3), (5, 2), (8, 4), (9, 6)])
def test_zonotope_volume_is_the_cauchy_binet_sum(m, k):
    G = np.random.default_rng(m + k).standard_normal((m, k))
    vol = math.exp(_zonotope_log_volume(G))
    assert vol == pytest.approx(_cauchy_binet_volume(G), rel=1e-12)
    if m == k:
        # a parallelotope: 2^k |det G|
        assert vol == pytest.approx(2.0**k * abs(np.linalg.det(G)), rel=1e-12)


def test_projected_cube_volume_past_float_range():
    # the shadow of [-1e-3, 1e-3]^121 on its first 120 coordinates has volume
    # (2e-3)^120 = 1e-324, at the bottom of the float range; C(121, 120) = 121
    # subsets of 120 x 120 determinants are within the budget
    F = Subspace(np.eye(121)[:, :120])
    est = volume_radius_lowdim(project_body(cube(121, side=2e-3), F))
    assert est.direction == "exact"
    truth = math.exp((120 * math.log(2e-3) - lp_ball_log_volume(120, 2.0)) / 120)
    assert est.value == pytest.approx(truth, rel=1e-12)


def test_zonotope_volume_memory_does_not_grow_with_the_subset_count(monkeypatch):
    # C(12, 4) = 495 and C(20, 6) = 38,760 subsets, both many chunks of
    # 2304 entries; taken at once, the (38760, 6, 6) stack alone would be 11 MB
    import tracemalloc

    monkeypatch.setattr(grassmann, "DET_CHUNK_ENTRIES", 64 * 36)
    peaks = []
    for m, k in ((12, 4), (20, 6)):
        G = random_subspace(m, k, seed=m).basis
        tracemalloc.start()
        try:
            _zonotope_log_volume(G)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**16, peaks


@pytest.mark.parametrize("budget,direction", [(70, "exact"), (69, "upper")])
def test_subset_budget_decides_the_cube_volume_label(monkeypatch, budget, direction):
    # C(8, 4) = 70 subsets: within the budget the Cauchy-Binet sum runs, past
    # it the tangent hull does
    monkeypatch.setattr(grassmann, "SUBSET_BUDGET", budget)
    F = random_subspace(8, 4, seed=13)
    est = volume_radius_lowdim(project_body(cube(8), F), seed=14)
    exact_volrad = (_cauchy_binet_volume(F.basis) / ball_volume(4)) ** 0.25
    assert est.direction == direction
    if direction == "exact":
        assert est.value == pytest.approx(exact_volrad, rel=1e-12)
    else:
        assert exact_volrad < est.value <= 1.1 * exact_volrad


def test_projected_cube_is_exact_above_the_hull_cap():
    # only hulls are capped: the zonotope volume needs no qhull at k = 7
    k = VOLUME_DIM_CAP + 1
    F = random_subspace(9, k, seed=15)
    est = volume_radius_lowdim(project_body(cube(9), F))
    assert est.direction == "exact"
    assert est.value == pytest.approx(
        (_cauchy_binet_volume(F.basis) / ball_volume(k)) ** (1.0 / k), rel=1e-12
    )


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_projected_cross_polytope_volume_is_exact(k):
    # n = k: P_F is a rotation, so vol = vol(r B_1^k) = (2r)^k / k!
    r = 1.5
    F = random_subspace(k, k, seed=16 + k)
    P = project_body(lp_ball(k, 1.0, r), F)
    log_truth = k * math.log(2.0 * r) - math.lgamma(k + 1)
    assert P.analytic.keys() == {"log_volume"}
    assert P.analytic["log_volume"] == pytest.approx(log_truth, abs=1e-12)
    est = volume_radius_lowdim(P)
    assert est.direction == "exact"
    truth = ((2.0 * r) ** k / math.factorial(k) / ball_volume(k)) ** (1.0 / k)
    assert est.value == pytest.approx(truth, rel=1e-12)
    # n = 8: the tangent polytope at the hull's own facet normals is P itself
    from scipy.spatial import ConvexHull

    F = random_subspace(8, k, seed=20 + k)
    P = project_body(lp_ball(8, 1.0, r), F)
    vertices = r * np.vstack([F.basis, -F.basis])  # +-r B^T e_i
    normals = ConvexHull(vertices).equations[:, :k]
    vol = _support_hull_volume(normals, P.support(normals))
    assert math.exp(P.analytic["log_volume"]) == pytest.approx(vol, rel=1e-12)
    est = volume_radius_lowdim(P)
    assert est.direction == "exact"
    assert est.value == pytest.approx((vol / ball_volume(k)) ** (1.0 / k), rel=1e-12)


def test_vk_of_cross_polytope_is_a_lower_bound():
    est = vk_estimate(unit_volume_copy(cross_polytope(6)), 3, trials=4, seed=17)
    assert est.direction == "lower"
    assert est.std_error == 0.0


def test_support_hull_rejects_nonpositive_support():
    # unit disc centred at (3, 0): the origin is outside, h < 0 when theta_1 < -1/3
    off = ConvexBody(dim=2, support=lambda t: 3.0 * t[..., 0] + np.linalg.norm(t, axis=-1))
    with pytest.raises(ValueError, match=r"h > 0.*nonpositive support value") as info:
        volume_radius_lowdim(off, method="support-hull", seed=1)
    assert "\n" not in str(info.value)


def test_support_hull_rejects_unbounded_halfspaces():
    dirs = sphere_directions(2, 50, seed=2)
    dirs = dirs[dirs[:, 1] > 0]  # all normals in the upper half-plane
    with pytest.raises(ValueError, match="do not bound"):
        _support_hull_volume(dirs, np.ones(len(dirs)))


def test_support_hull_k1_takes_the_exact_interval():
    # [0.5, 1.5]: h(-1) < 0, yet dimension 1 never samples directions
    seg = ConvexBody(dim=1, support=lambda t: np.maximum(0.5 * t, 1.5 * t)[..., 0])
    est = volume_radius_lowdim(seg, method="support-hull", seed=3)
    assert est.value == pytest.approx(0.5, rel=1e-12)  # length 1 / ball length 2
    assert est.direction == "exact"
