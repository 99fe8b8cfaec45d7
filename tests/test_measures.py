import math
import tracemalloc

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
from isoconv.seeds import child_seed


def test_draw_samples_deterministic():
    mu = gaussian_measure(3)
    a = draw_samples(mu, 1000, seed=5)
    b = draw_samples(mu, 1000, seed=5)
    assert np.array_equal(a.points, b.points)
    c = draw_samples(mu, 1000, seed=6)
    assert not np.array_equal(a.points, c.points)


def test_draw_samples_multi_chunk_replays():
    # a draw past one chunk replays bit-identically, and chunk i is the
    # sampler's own draw from child_seed(seed, i)
    mu = gaussian_measure(2)
    count = measures.DEFAULT_CHUNK + 1000
    a = draw_samples(mu, count, seed=1)
    a2 = draw_samples(mu, count, seed=1)
    assert np.array_equal(a.points, a2.points)
    head = draw_samples(mu, measures.DEFAULT_CHUNK, seed=1)
    assert np.array_equal(a.points[: measures.DEFAULT_CHUNK], head.points)
    tail = mu.sampler(1000, child_seed(1, 1))
    assert np.array_equal(a.points[measures.DEFAULT_CHUNK :], tail)


def test_a_multi_chunk_draw_fills_one_array():
    # three chunks, each the sampler's own draw from child_seed(seed, i), are
    # written into one (count, dim) array: the draw peaks near its output plus
    # one chunk, where stacking a list of chunks peaks at twice its output
    mu = gaussian_measure(4)
    count = 3 * measures.DEFAULT_CHUNK - 1000
    tracemalloc.start()
    try:
        s = draw_samples(mu, count, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunks = [mu.sampler(min(measures.DEFAULT_CHUNK, count - lo), child_seed(3, i))
              for i, lo in enumerate(range(0, count, measures.DEFAULT_CHUNK))]
    assert len(chunks) == 3 and np.array_equal(s.points, np.vstack(chunks))
    assert peak < 1.6 * s.points.nbytes, peak / s.points.nbytes


def test_a_single_chunk_draw_is_the_samplers_array_uncopied():
    drawn = []

    def sampler(count, seed):
        drawn.append(gaussian_measure(3).sampler(count, seed))
        return drawn[-1]

    s = draw_samples(measures.LogConcaveMeasure(3, sampler), measures.DEFAULT_CHUNK, seed=4)
    assert len(drawn) == 1 and np.shares_memory(s.points, drawn[0])


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
    assert mu.log_density_sup == pytest.approx(-3 * math.log(2.0), abs=1e-12)
    s = draw_samples(mu, 200_000, seed=3)
    cov = (s.points.T @ s.points) / s.count
    # symmetrized exponential has variance 2
    assert np.abs(np.diag(cov) - 2.0).max() < 0.05
    assert np.abs(cov - np.diag(np.diag(cov))).max() < 0.05


def test_uniform_cube_exact_sampler():
    K = cube(3, side=1.0)
    mu = uniform_body_measure(K)
    assert mu.log_density_sup == pytest.approx(0.0, abs=1e-12)
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


def test_pushforward_composes_the_gaussian_map():
    S = np.array([[2.0, 0.0], [1.0, 1.0]])
    T = np.array([[0.0, 1.0], [-3.0, 0.5]])
    mu = pushforward_measure(pushforward_measure(gaussian_measure(2), S), T)
    assert np.array_equal(gaussian_measure(2).gaussian_map, np.eye(2))
    assert np.array_equal(mu.gaussian_map, T @ S)
    assert not mu.gaussian_map.flags.writeable


def test_uniform_cube_carries_its_coordinate_moments():
    # [-a, a]: m_2j = a^{2j} / (2j + 1); a linear image is no product law
    mu = uniform_body_measure(cube(3, side=3.0))
    assert len(mu.coordinate_log_moments) == measures.MOMENT_ORDERS + 1
    j = np.arange(20)
    moments = np.exp(mu.coordinate_log_moments[:20])
    assert np.allclose(moments, 1.5 ** (2 * j) / (2 * j + 1), rtol=1e-13, atol=0.0)
    assert not mu.coordinate_log_moments.flags.writeable
    assert pushforward_measure(mu, np.diag([1.0, 2.0, 3.0])).coordinate_log_moments is None
    for other in (uniform_body_measure(ball(3)), gaussian_measure(3),
                  exponential_product_measure(3)):
        assert other.coordinate_log_moments is None


def test_pushforward_density_sup_scales_by_det():
    K = cube(2, side=1.0)
    T = np.diag([2.0, 0.5])
    mu = pushforward_measure(uniform_body_measure(K), T)
    assert mu.log_density_sup == pytest.approx(0.0, abs=1e-12)  # det T = 1
    mu2 = pushforward_measure(uniform_body_measure(K), np.diag([2.0, 2.0]))
    assert mu2.log_density_sup == pytest.approx(math.log(0.25), abs=1e-12)


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


def test_draw_samples_rejects_a_sampler_of_the_wrong_shape():
    # the sampler drops a coordinate: (count, dim - 1) instead of (count, dim)
    mu = measures.LogConcaveMeasure(
        dim=3, sampler=lambda count, seed: np.zeros((count, 2)))
    with pytest.raises(ValueError, match=r"sampler returned shape \(5, 2\), "
                       r"expected \(5, 3\)") as info:
        draw_samples(mu, 5, seed=1)
    assert "\n" not in str(info.value)


def test_sample_set_rejects_nonfinite():
    with pytest.raises(ValueError):
        measures.SampleSet(np.array([[np.nan, 0.0]]))


def test_sample_set_leaves_callers_array_writeable():
    pts = np.zeros((3, 2))
    s = measures.SampleSet(pts)
    assert pts.flags.writeable
    assert not s.points.flags.writeable
    assert np.shares_memory(s.points, pts)  # frozen without a copy


def test_sample_set_takes_count_and_dim_from_its_points():
    s = measures.SampleSet(np.zeros((4, 3)))
    assert (s.count, s.dim) == (4, 3)
    for bad in (np.zeros(3), np.zeros((0, 3))):
        with pytest.raises(ValueError):
            measures.SampleSet(bad)
