import math

import numpy as np
import pytest

from isoconv import bodies
from isoconv.bodies import (
    BodyConstructionError,
    UnsupportedOracleError,
    ball,
    ball_volume,
    cross_polytope,
    cube,
    ellipsoid,
    lp_ball,
    lp_ball_volume,
    parse_body,
    product_body,
    scale_body,
    unit_volume_copy,
)
from isoconv.seeds import sphere_directions


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------


def test_ball_volume_known_values():
    assert ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    assert ball_volume(2, radius=3.0) == pytest.approx(9.0 * math.pi, rel=1e-14)


def test_lp_ball_volume_matches_special_cases():
    # p=2 ball, p=1 cross-polytope (2^n/n!), p->inf not supported here but
    # large p approaches the cube volume 2^n
    assert lp_ball_volume(3, 2.0) == pytest.approx(ball_volume(3), rel=1e-12)
    assert lp_ball_volume(4, 1.0) == pytest.approx(2.0**4 / math.factorial(4), rel=1e-12)
    assert lp_ball_volume(3, 200.0) == pytest.approx(8.0, rel=1e-2)
    assert lp_ball_volume(2, 1.0, radius=2.0) == pytest.approx(8.0, rel=1e-12)


# ---------------------------------------------------------------------------
# support functions against closed forms
# ---------------------------------------------------------------------------


def test_ball_support_is_radius_times_norm():
    B = ball(5, radius=2.5)
    theta = np.array([3.0, 0.0, 4.0, 0.0, 0.0])
    assert B.support(theta) == pytest.approx(2.5 * 5.0, rel=1e-14)
    batch = sphere_directions(5, 64, seed=1)
    assert np.allclose(B.support(batch), 2.5, atol=1e-12)


def test_cube_support_is_half_side_l1():
    K = cube(3, side=2.0)
    assert K.support(np.array([1.0, -2.0, 3.0])) == pytest.approx(6.0, rel=1e-14)
    K1 = cube(3, side=1.0)
    assert K1.support(np.array([1.0, 1.0, 1.0])) == pytest.approx(1.5, rel=1e-14)


def test_cross_polytope_support_is_max_norm():
    K = cross_polytope(4)
    assert K.support(np.array([1.0, -7.0, 2.0, 0.5])) == pytest.approx(7.0, rel=1e-14)


def test_lp_ball_support_is_dual_norm():
    # h_{B_p}(theta) = ||theta||_q with 1/p + 1/q = 1
    p = 3.0
    q = p / (p - 1.0)
    K = lp_ball(3, p)
    theta = np.array([1.0, 2.0, -2.0])
    expected = (np.abs(theta) ** q).sum() ** (1.0 / q)
    assert K.support(theta) == pytest.approx(expected, rel=1e-12)


def test_ellipsoid_support_closed_form():
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    E = ellipsoid(A)
    theta = np.array([0.3, -1.2])
    assert E.support(theta) == pytest.approx(np.linalg.norm(A.T @ theta), rel=1e-12)
    assert E.analytic["volume"] == pytest.approx(abs(np.linalg.det(A)) * math.pi, rel=1e-12)


def test_support_positive_homogeneity():
    K = lp_ball(4, 1.5)
    dirs = sphere_directions(4, 32, seed=2)
    h = K.support(dirs)
    assert np.allclose(K.support(3.0 * dirs), 3.0 * h, rtol=1e-12)


def test_support_subadditive_spot_check():
    K = ellipsoid(np.array([[1.0, 0.2, 0.0], [-0.3, 1.0, 0.5], [0.0, -1.0, 2.0]]))
    rng = np.random.default_rng(0)
    u = rng.standard_normal((50, 3))
    v = rng.standard_normal((50, 3))
    assert np.all(K.support(u + v) <= K.support(u) + K.support(v) + 1e-12)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_scale_body_scales_support_and_volume():
    K = cube(3, side=2.0)
    K2 = scale_body(K, 0.5)
    theta = np.array([1.0, 2.0, -1.0])
    assert K2.support(theta) == pytest.approx(0.5 * K.support(theta), rel=1e-14)
    assert K2.analytic["volume"] == pytest.approx(1.0, rel=1e-12)


def test_unit_volume_copy():
    K = unit_volume_copy(ball(3, radius=2.0))
    assert K.analytic["volume"] == pytest.approx(1.0, rel=1e-12)
    # radius must be (3/(4 pi))^(1/3)
    r = (1.0 / ball_volume(3)) ** (1.0 / 3.0) * 2.0 / 2.0
    assert K.support(np.array([1.0, 0.0, 0.0])) == pytest.approx(r, rel=1e-12)


def test_unit_volume_copy_requires_volume():
    free = bodies.ConvexBody(dim=2, support=lambda t: np.linalg.norm(t, axis=-1),
                             family="custom")
    with pytest.raises(UnsupportedOracleError):
        unit_volume_copy(free)


def test_product_body_support_is_sum():
    # support of K x L splits as h_K(u) + h_L(v)
    K = cube(2, side=2.0)
    L = ball(3)
    P = product_body(K, L)
    assert P.dim == 5
    dirs = sphere_directions(5, 64, seed=9)
    expected = K.support(dirs[:, :2]) + L.support(dirs[:, 2:])
    assert np.allclose(P.support(dirs), expected, rtol=1e-12)
    assert P.analytic["volume"] == pytest.approx(4.0 * ball_volume(3), rel=1e-12)


def test_product_body_membership():
    P = product_body(cube(1, side=2.0), ball(2))
    assert P.membership(np.array([0.9, 0.3, 0.3]))
    assert not P.membership(np.array([1.1, 0.0, 0.0]))
    assert not P.membership(np.array([0.0, 1.0, 0.5]))


# ---------------------------------------------------------------------------
# descriptor grammar
# ---------------------------------------------------------------------------


def test_parse_body_families():
    assert parse_body("ball:8").dim == 8
    assert parse_body("ball:8").support(np.eye(8)[0]) == pytest.approx(1.0)
    assert parse_body("cube:4:1").support(np.ones(4)) == pytest.approx(2.0)
    assert parse_body("cross:3").support(np.array([0.0, 2.0, 0.0])) == pytest.approx(2.0)
    assert parse_body("lpball:3:1.5").dim == 3
    K = parse_body("unitcube:5")
    assert K.analytic["volume"] == pytest.approx(1.0, rel=1e-12)


def test_parse_body_b1tilde_is_unit_volume_cross():
    K = parse_body("b1tilde:4")
    assert K.analytic["volume"] == pytest.approx(1.0, rel=1e-10)
    r = (math.factorial(4) / 2.0**4) ** (1.0 / 4.0)
    assert K.support(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(r, rel=1e-12)


def test_parse_body_rejects_garbage():
    for bad in ("", "ball", "ball:0", "ball:-3", "nosuch:4", "cube:2:0",
                "lpball:3:0.5", "ball:2.5"):
        with pytest.raises((BodyConstructionError, ValueError)):
            parse_body(bad)


def test_parse_body_ellipsoid_from_file(tmp_path):
    f = tmp_path / "diag.csv"
    f.write_text("2.0\n1.0\n0.5\n")
    E = parse_body(f"ellipsoid:3:@{f}")
    assert E.support(np.array([1.0, 0.0, 0.0])) == pytest.approx(2.0, rel=1e-12)
    assert E.analytic["volume"] == pytest.approx(ball_volume(3), rel=1e-12)


# ---------------------------------------------------------------------------
# construction errors
# ---------------------------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(BodyConstructionError):
        ball(0)
    with pytest.raises(BodyConstructionError):
        ball(3, radius=-1.0)
    with pytest.raises(BodyConstructionError):
        cube(2, side=0.0)
    with pytest.raises(BodyConstructionError):
        lp_ball(2, 0.5)
    with pytest.raises(BodyConstructionError):
        ellipsoid(np.array([[1.0, 0.0], [1.0, 0.0]]))  # singular

