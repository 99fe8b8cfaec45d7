import math

import numpy as np
import pytest

from isoconv import measures
from isoconv.bodies import UnsupportedOracleError, ball, cross_polytope, cube, lp_ball
from isoconv.grassmann import project_body, random_subspace
from isoconv.measures import (
    draw_samples,
    exponential_product_measure,
    gaussian_measure,
    parse_measure,
    project_samples,
    pushforward_measure,
    uniform_body_measure,
)


def test_draw_samples_deterministic():
    mu = gaussian_measure(3)
    a = draw_samples(mu, 1000, seed=5)
    b = draw_samples(mu, 1000, seed=5)
    assert np.array_equal(a.points, b.points)
    c = draw_samples(mu, 1000, seed=6)
    assert not np.array_equal(a.points, c.points)


def test_draw_samples_chunking_reproducible_per_chunk_size():
    # replayable per (seed, chunk size); different chunking may reorder the
    # stream but must stay deterministic and distribution-identical
    mu = gaussian_measure(2)
    a = draw_samples(mu, 5000, seed=1, chunk=512)
    a2 = draw_samples(mu, 5000, seed=1, chunk=512)
    b = draw_samples(mu, 5000, seed=1, chunk=4096)
    assert np.array_equal(a.points, a2.points)
    assert a.points.shape == b.points.shape
    # first chunk of 512 is shared: both start from the same child seed
    assert np.array_equal(a.points[:512], b.points[:512])


def test_draw_samples_validates_count():
    with pytest.raises(ValueError):
        draw_samples(gaussian_measure(2), 0, seed=1)


def test_gaussian_moments():
    s = draw_samples(gaussian_measure(4), 200_000, seed=2)
    cov = (s.points.T @ s.points) / s.count
    assert np.abs(s.points.mean(axis=0)).max() < 0.01
    assert np.abs(cov - np.eye(4)).max() < 0.02


def test_exponential_product_measure_moments():
    mu = exponential_product_measure(3)
    assert mu.density_sup == pytest.approx(2.0**-3)
    s = draw_samples(mu, 200_000, seed=3)
    cov = (s.points.T @ s.points) / s.count
    # symmetrized exponential has variance 2
    assert np.abs(np.diag(cov) - 2.0).max() < 0.05
    assert np.abs(cov - np.diag(np.diag(cov))).max() < 0.05


def test_uniform_cube_exact_sampler():
    K = cube(3, side=1.0)
    mu = uniform_body_measure(K)
    assert mu.density_sup == pytest.approx(1.0)
    s = draw_samples(mu, 100_000, seed=4)
    assert np.abs(s.points).max() <= 0.5
    var = s.points.var(axis=0)
    assert np.abs(var - 1.0 / 12.0).max() < 0.005


def test_uniform_ball_sampler_inside():
    s = draw_samples(uniform_body_measure(ball(5)), 50_000, seed=7)
    r = np.linalg.norm(s.points, axis=1)
    assert r.max() <= 1.0 + 1e-12
    # P(r <= t) = t^5: median at 2^(-1/5)
    assert np.median(r) == pytest.approx(2.0 ** (-1.0 / 5.0), abs=0.01)


def test_uniform_cross_polytope_moments():
    # B_1^n: E x_i^2 = 2 r^2 / ((n+1)(n+2))
    n = 4
    s = draw_samples(uniform_body_measure(cross_polytope(n)), 200_000, seed=8)
    assert np.abs(s.points).sum(axis=1).max() <= 1.0 + 1e-12
    expected = 2.0 / ((n + 1) * (n + 2))
    assert np.abs((s.points**2).mean(axis=0) - expected).max() < 0.002


def test_uniform_lp_ball_sampler_inside():
    p = 3.0
    s = draw_samples(uniform_body_measure(lp_ball(3, p)), 50_000, seed=9)
    norms = (np.abs(s.points) ** p).sum(axis=1) ** (1.0 / p)
    assert norms.max() <= 1.0 + 1e-12
    assert np.median(norms) == pytest.approx(2.0 ** (-1.0 / 3.0), abs=0.01)


def test_uniform_requires_exact_sampler():
    # a projected body is a bare support oracle, with no sampler
    P = project_body(cube(3), random_subspace(3, 2, seed=10))
    with pytest.raises(UnsupportedOracleError):
        uniform_body_measure(P)


def test_pushforward_measure_covariance():
    T = np.array([[2.0, 0.0], [1.0, 1.0]])
    mu = pushforward_measure(gaussian_measure(2), T)
    s = draw_samples(mu, 200_000, seed=11)
    cov = (s.points.T @ s.points) / s.count
    assert np.abs(cov - T @ T.T).max() < 0.05


def test_pushforward_density_sup_scales_by_det():
    K = cube(2, side=1.0)
    T = np.diag([2.0, 0.5])
    mu = pushforward_measure(uniform_body_measure(K), T)
    assert mu.density_sup == pytest.approx(1.0, rel=1e-12)  # det T = 1
    mu2 = pushforward_measure(uniform_body_measure(K), np.diag([2.0, 2.0]))
    assert mu2.density_sup == pytest.approx(0.25, rel=1e-12)


def test_project_samples_identity():
    s = draw_samples(gaussian_measure(5), 1000, seed=12)
    F = random_subspace(5, 2, seed=13)
    proj = project_samples(s, F)
    assert proj.dim == 2
    assert np.allclose(proj.points, s.points @ F.basis, atol=1e-12)


def test_parse_measure_grammar():
    assert parse_measure("gaussian:4").dim == 4
    assert parse_measure("exponential:3").dim == 3
    mu = parse_measure("uniform:ball:5")
    assert mu.dim == 5
    # bare uniform:cube:<n> is the unit-volume cube
    mu = parse_measure("uniform:cube:3")
    s = draw_samples(mu, 1000, seed=1)
    assert np.abs(s.points).max() <= 0.5
    mu = parse_measure("uniform:cube:3:2")
    s = draw_samples(mu, 1000, seed=1)
    assert np.abs(s.points).max() > 0.5


def test_parse_measure_rejects_garbage():
    for bad in ("", "gaussian", "nosuch:3", "uniform:nosuch:3", "gaussian:0"):
        with pytest.raises(ValueError):
            parse_measure(bad)


def test_sample_set_rejects_nonfinite():
    with pytest.raises(ValueError):
        measures.SampleSet(dim=2, count=1, points=np.array([[np.nan, 0.0]]),
                           seed=0, provenance="test")


def test_sample_set_leaves_callers_array_writeable():
    pts = np.zeros((3, 2))
    s = measures.SampleSet(dim=2, count=3, points=pts, seed=0, provenance="test")
    assert pts.flags.writeable
    assert not s.points.flags.writeable
    assert np.shares_memory(s.points, pts)  # frozen without a copy
