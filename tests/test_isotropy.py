import math

import numpy as np
import pytest

from isoconv.bodies import ball, cross_polytope, cube
from isoconv.isotropy import estimate_moments, exact_isotropic_constant, isotropic_constant
from isoconv.measures import SampleSet, draw_samples, gaussian_measure, uniform_body_measure


def test_estimate_moments_four_point_exact():
    # points at (+-a, 0), (0, +-b): barycenter 0, cov = diag(a^2/2, b^2/2)
    a, b = 2.0, 1.0
    s = SampleSet([[a, 0.0], [-a, 0.0], [0.0, b], [0.0, -b]])
    m = estimate_moments(s)
    assert np.allclose(m.barycenter, 0.0, atol=1e-15)
    assert np.allclose(m.covariance, np.diag([a * a / 2.0, b * b / 2.0]), atol=1e-14)
    assert m.eigenvalues[0] == pytest.approx(a * a / 2.0, rel=1e-12)
    assert m.eigenvalues[1] == pytest.approx(b * b / 2.0, rel=1e-12)
    assert m.det_root == pytest.approx((a * a * b * b / 4.0) ** 0.25, rel=1e-12)


def test_estimate_moments_centers_before_covariance():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((1000, 3)) + np.array([5.0, -2.0, 0.5])
    m = estimate_moments(SampleSet(pts))
    assert np.abs(m.barycenter - np.array([5.0, -2.0, 0.5])).max() < 0.15
    assert np.abs(np.diag(m.covariance) - 1.0).max() < 0.2


def test_estimate_moments_requires_enough_points():
    with pytest.raises(ValueError):
        estimate_moments(SampleSet(np.eye(3)))  # 3 points in dim 3


def test_estimate_moments_degenerate_covariance():
    # all mass on a line in R^2: the zero eigenvalue is clipped to 0, and det_root is 0
    t = np.linspace(-1, 1, 50)[:, None]
    s = SampleSet(np.hstack([t, 2.0 * t]))
    m = estimate_moments(s)
    assert m.eigenvalues[-1] == 0.0
    assert m.det_root == 0.0


def test_isotropic_constant_formula():
    s = draw_samples(uniform_body_measure(cube(4, side=1.0)), 100_000, seed=7)
    m = estimate_moments(s)
    L = isotropic_constant(m, log_density_sup=0.0)
    assert L == pytest.approx(math.sqrt(1.0 / 12.0), rel=0.01)
    # the density sup enters as sup^(1/n) = exp(log sup / n)
    L2 = isotropic_constant(m, log_density_sup=4 * math.log(2.0))
    assert L2 == pytest.approx(2.0 * L, rel=1e-12)


def test_isotropic_constant_requires_density():
    s = draw_samples(gaussian_measure(2), 1000, seed=8)
    with pytest.raises(ValueError):
        isotropic_constant(estimate_moments(s), None)


def test_exact_isotropic_constants():
    assert exact_isotropic_constant(cube(3)) == pytest.approx(math.sqrt(1.0 / 12.0), rel=1e-12)
    # ball: unit-volume radius / sqrt(n+2)
    n = 3
    r = (3.0 / (4.0 * math.pi)) ** (1.0 / 3.0)
    assert exact_isotropic_constant(ball(n)) == pytest.approx(r / math.sqrt(n + 2), rel=1e-12)
    # L is affine invariant: any radius gives the same value
    assert exact_isotropic_constant(ball(n, radius=5.0)) == pytest.approx(
        exact_isotropic_constant(ball(n)), rel=1e-12)


def test_isotropic_constant_lower_bound_ball_is_min():
    # the ball minimizes L among convex bodies; its value is the usual floor
    vals = [exact_isotropic_constant(K) for K in (cube(4), cross_polytope(4), ball(4))]
    L_ball = exact_isotropic_constant(ball(4))
    assert all(v >= L_ball - 1e-12 for v in vals)
    assert 0.2 < L_ball < 0.3
