import math

import numpy as np
import pytest

from isoconv.bodies import (
    ConvexBody,
    UnsupportedOracleError,
    ball,
    ball_volume,
    cross_polytope,
    cube,
)
from isoconv.grassmann import (
    VOLUME_DIM_CAP,
    Subspace,
    project_body,
    random_subspace,
    vk_estimate,
    volume_radius_lowdim,
)
from isoconv.measures import draw_samples, gaussian_measure, project_samples
from isoconv.seeds import sphere_directions


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
    assert P.analytic["volume"] == pytest.approx(ball_volume(3, 2.0), rel=1e-12)
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
    F = Subspace(ambient=2, k=1, basis=B, seed=0)
    P = project_body(cube(2, side=2.0), F)
    assert P.support(np.array([1.0])) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert volume_radius_lowdim(P).value == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_subspace_leaves_callers_array_writeable():
    B = np.eye(3)[:, :2]
    F = Subspace(ambient=3, k=2, basis=B, seed=0)
    assert B.flags.writeable
    assert not F.basis.flags.writeable
    assert np.shares_memory(F.basis, B)  # frozen without a copy


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
    seg = ConvexBody(dim=1, support=lambda t: np.maximum(-0.5 * t, 1.5 * t)[..., 0],
                     family="segment")
    est = volume_radius_lowdim(seg)
    assert est.value == pytest.approx(1.0, rel=1e-12)  # length 2 / ball length 2
    assert est.direction == "exact"
    assert est.std_error == 0.0


def test_volume_radius_analytic_ball_any_dim():
    # analytic route has no dimension cap
    est = volume_radius_lowdim(ball(12), method="analytic")
    assert est.value == pytest.approx(1.0, rel=1e-12)
    assert est.direction == "exact"


def test_volume_radius_square_all_methods():
    K = cube(2, side=2.0)
    truth = (4.0 / math.pi) ** 0.5
    exact = volume_radius_lowdim(K, method="analytic")
    assert exact.value == pytest.approx(truth, rel=1e-12)
    hull = volume_radius_lowdim(K, method="support-hull", n_directions=4000, seed=1)
    assert hull.direction == "upper"
    assert truth <= hull.value <= truth * 1.01
    mc = volume_radius_lowdim(K, method="membership-mc", n_points=200_000, seed=2)
    assert mc.direction == "mc"
    assert abs(mc.value - truth) < 3.0 * mc.std_error + 1e-3


def test_volume_radius_cross_polytope_3d():
    truth = (1.0 / math.pi) ** (1.0 / 3.0)  # vol B_1^3 = 4/3, ball 4pi/3
    K = cross_polytope(3)
    assert volume_radius_lowdim(K, method="analytic").value == pytest.approx(truth, rel=1e-12)
    hull = volume_radius_lowdim(K, method="support-hull", n_directions=4000, seed=3)
    assert truth - 1e-9 <= hull.value <= truth * 1.05
    mc = volume_radius_lowdim(K, method="membership-mc", n_points=200_000, seed=4)
    assert abs(mc.value - truth) < 3.0 * mc.std_error + 2e-3


def test_volume_radius_dim_cap_applies_to_hulls_only():
    K = cube(VOLUME_DIM_CAP + 1, side=1.0)
    with pytest.raises(ValueError):
        volume_radius_lowdim(K, method="support-hull", seed=1)
    # analytic is fine above the cap
    assert volume_radius_lowdim(K, method="analytic").value > 0


def test_volume_radius_membership_requires_oracle():
    free = project_body(cube(4, side=1.0), random_subspace(4, 3, seed=5))
    with pytest.raises(UnsupportedOracleError):
        volume_radius_lowdim(free, method="membership-mc", seed=1)


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
