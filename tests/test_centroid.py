import functools
import itertools
import math
from fractions import Fraction
import multiprocessing
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from isoconv import pool as isoconv_pool
from isoconv.bodies import cube
from isoconv.centroid import (P_CAP, ZP_SERIES_BUDGET, centroid_body, exact_zp, zp_support,
                              zp_touching_points)
from isoconv.grassmann import project_samples, random_subspace
from isoconv.isotropy import estimate_moments
from isoconv.measures import (
    SampleSet,
    draw_samples,
    exponential_product_measure,
    gaussian_measure,
    pushforward_measure,
    uniform_body_measure,
)
from isoconv.seeds import sphere_directions


# gaussian h_{Z_p}(theta) = (E|g|^p)^{1/p} for unit theta
GAUSS_CP = {
    1.0: math.sqrt(2.0 / math.pi),
    2.0: 1.0,
    4.0: 3.0**0.25,
}


def test_zp_support_two_point_example():
    # S = {(1,0), (-1,0)}: h_{Z_p}(e1) = 1, h(e2) = 0, h((1,1)/sqrt2) = 1/sqrt2
    s = SampleSet([[1.0, 0.0], [-1.0, 0.0]])
    e1, e2, diag = np.array([[1.0, 0.0], [0.0, 1.0], [1.0 / math.sqrt(2.0)] * 2])
    for p in (1.0, 2.0, 5.0, 64.0):
        assert zp_support(s, p, e1[None]) == pytest.approx([1.0], rel=1e-12)
        assert zp_support(s, p, e2[None]) == pytest.approx([0.0], abs=1e-300)
        assert zp_support(s, p, diag[None]) == pytest.approx([1.0 / math.sqrt(2.0)], rel=1e-12)


def test_zp_support_mixed_mass_example():
    # S = {(1,0), (0,0)}: |<x,e1>|^p averages to 1/2
    s = SampleSet([[1.0, 0.0], [0.0, 0.0]])
    e1 = np.array([[1.0, 0.0]])
    assert zp_support(s, 1.0, e1) == pytest.approx([0.5], rel=1e-12)
    assert zp_support(s, 2.0, e1) == pytest.approx([math.sqrt(0.5)], rel=1e-12)
    # the max-scaled power mean keeps the 1/N mass of the zero dot product
    assert zp_support(s, 64.0, e1) == pytest.approx([0.5 ** (1.0 / 64.0)], rel=1e-12)


def test_zp_support_agrees_with_direct_power_mean():
    # samples fill [-1, 1]^2 x {0} and the directions lie in that plane, so
    # max |<x, theta>| is in [1, sqrt 2] (up to sampling): the direct p-th
    # powers up to p = 512.5 neither overflow nor lose their leading terms.
    # e3 is orthogonal to every sample.
    square = draw_samples(uniform_body_measure(cube(2, side=2.0)), 5000, seed=1)
    s = SampleSet(np.hstack([square.points, np.zeros((square.count, 1))]))
    dirs = np.hstack([sphere_directions(2, 200, seed=2), np.zeros((200, 1))])
    orth = np.array([[0.0, 0.0, 1.0]])
    for p in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 32.0, 33.0, 64.0, 512.0,
              512.5):
        direct = (np.abs(s.points @ dirs.T) ** p).mean(axis=0) ** (1.0 / p)
        np.testing.assert_allclose(zp_support(s, p, dirs), direct, rtol=1e-12, atol=0.0)
        assert zp_support(s, p, orth).tolist() == [0.0]
        assert zp_support(s, p, np.vstack([dirs[:3], orth]))[3] == 0.0


def test_z2_touching_points_are_the_direct_gradient():
    # at p = 2 the touching points come from the second-moment matrix alone;
    # the direct gradient is h^{1-p} mean(|t|^{p-1} sign(t) x) with t = <x, theta>
    square = draw_samples(uniform_body_measure(cube(2, side=2.0)), 5000, seed=1)
    s = SampleSet(np.hstack([square.points, np.zeros((square.count, 1))]))
    dirs = np.vstack([np.hstack([sphere_directions(2, 200, seed=2), np.zeros((200, 1))]),
                      sphere_directions(3, 200, seed=3)])
    t = s.points @ dirs.T  # (N, m)
    h = np.sqrt((t**2).mean(axis=0))
    direct = (t.T @ s.points) / s.count / h[:, None]
    np.testing.assert_allclose(zp_touching_points(s, 2.0, dirs), direct, rtol=1e-12,
                               atol=0.0)
    # e3 is orthogonal to every sample: no touching point, at p = 2 as at p = 3
    orth = np.vstack([dirs[:3], [0.0, 0.0, 1.0]])
    for p in (2.0, 3.0):
        with pytest.raises(ValueError, match="orthogonal to every sample"):
            zp_touching_points(s, p, orth)


@pytest.mark.parametrize("m", [800, 8000])
def test_zp_kernels_memory_does_not_grow_with_directions(m):
    s = draw_samples(gaussian_measure(8), 20_000, seed=30)
    dirs = sphere_directions(8, m, seed=31)
    for kernel in (zp_support, zp_touching_points):
        tracemalloc.start()
        try:
            kernel(s, 3.0, dirs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, (kernel.__name__, peak)


@contextmanager
def kernel_workers(count, cores):
    """Run the Z_p kernels on `count` workers, on a machine of `cores` cores."""
    with pytest.MonkeyPatch.context() as mp, ThreadPoolExecutor(count) as pool:
        mp.setattr(isoconv_pool, "_CORES", cores)
        mp.setattr(isoconv_pool, "WORKERS", count)
        mp.setattr(isoconv_pool, "_POOL", pool)
        yield


def test_zp_kernels_blocks_fit_the_dot_budget():
    # each worker holds t tile temporaries of 32 x 4096 doubles (1 MB): t = 1
    # at p = 1, fractional p and powers of two, 2 at any other integer p, 3
    # for touching points, none at p = 2.  400 directions give each of two
    # lanes several blocks, and 1.5e6 samples, drawn before tracing, check
    # that the bound does not grow with N
    s = draw_samples(gaussian_measure(8), 20_000, seed=30)
    dirs = sphere_directions(8, 400, seed=31)
    wide = draw_samples(gaussian_measure(2), 1_500_000, seed=38)
    plane = sphere_directions(2, 64, seed=39)
    cases = [(zp_support, s, dirs, p, t) for p, t in ((1.0, 1), (1.5, 1), (3.0, 2), (8.0, 1))]
    cases += [(zp_touching_points, s, dirs, p, t) for p, t in ((2.0, 0), (3.0, 3), (4.5, 3))]
    cases += [(zp_support, wide, plane, 3.0, 2), (zp_touching_points, wide, plane, 3.0, 3)]
    for workers in (1, 2):
        with kernel_workers(workers, cores=2):
            for kernel, samples, d, p, t in cases:
                tracemalloc.start()
                try:
                    kernel(samples, p, d)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= (t * workers + 2) * 2**20, (workers, kernel.__name__,
                                                          samples.count, p, peak)


def test_zp_kernels_do_not_depend_on_the_worker_or_core_count():
    # BLAS rounds a row differently in products of other shapes, so the tiles
    # follow neither count, nor the direction count: a prefix of the
    # directions, ending at several offsets within a 32-row block, gives the
    # prefix of the kernels' values, p = 2's quadratic form among them.  5
    # workers is more than there are cores, and the short switch interval
    # interleaves them as often as it can
    s = draw_samples(gaussian_measure(8), 20_000, seed=32)
    dirs = sphere_directions(8, 701, seed=33)

    def kernels(d):
        return ([zp_support(s, p, d) for p in (1.0, 1.5, 2.0, 3.0, 8.0, 64.0, P_CAP)]
                + [zp_touching_points(s, p, d) for p in (1.5, 2.0, 3.0, 4.5, 8.0)])

    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers, cores in itertools.product((1, 2, 5), (1, 2, 5)):
            with kernel_workers(workers, cores):
                runs.append(kernels(dirs))
        with kernel_workers(2, 2):
            for k in (1, 5, 31, 33, 64, 100, 250, 500, 700):
                runs.append(kernels(dirs[:k]))
    finally:
        sys.setswitchinterval(interval)
    for other in runs[1:]:
        for a, b in zip(runs[0], other):
            np.testing.assert_array_equal(a[:len(b)], b)


def test_orthogonal_direction_error_reaches_the_caller_from_a_worker():
    plane = draw_samples(gaussian_measure(2), 20_000, seed=34).points
    s = SampleSet(np.hstack([plane, np.zeros((len(plane), 1))]))
    dirs = np.hstack([sphere_directions(2, 300, seed=35), np.zeros((300, 1))])
    dirs[-1] = [0.0, 0.0, 1.0]  # in the last block, which the second worker runs
    with kernel_workers(2, cores=2):
        with pytest.raises(ValueError, match="orthogonal to every sample") as info:
            zp_touching_points(s, 3.0, dirs)
        assert any(entry.name == "lane" for entry in info.traceback)
        assert np.all(np.isfinite(zp_touching_points(s, 3.0, dirs[:-1])))


def _zp_in_child(samples, dirs, queue):
    tasks = [functools.partial(abs, -i) for i in range(4)]
    queue.put((zp_support(samples, 3.0, dirs), isoconv_pool.run_tasks(tasks)))


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
def test_zp_kernels_run_in_a_forked_child():
    # a forked child has none of its parent's pool threads; it gets a pool of
    # its own, where the parent's would take the blocks, or the tasks, and
    # never run them
    s = draw_samples(gaussian_measure(4), 20_000, seed=36)
    dirs = sphere_directions(4, 200, seed=37)
    h = zp_support(s, 3.0, dirs)  # the parent's pool threads are running now
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_zp_in_child, args=(s, dirs, queue))
    child.start()
    try:
        got = queue.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert not child.is_alive() and child.exitcode == 0
    np.testing.assert_array_equal(got[0], h)
    assert got[1] == [0, 1, 2, 3]


def test_zp_support_huge_p_no_overflow():
    s = draw_samples(gaussian_measure(2), 1000, seed=3)
    dirs = sphere_directions(2, 16, seed=4)
    h = zp_support(s, 2.0**20, dirs)
    sup = np.abs(s.points @ dirs.T).max(axis=0)
    assert np.all(np.isfinite(h))
    # Z_p -> conv(S u -S) as p -> inf
    assert np.allclose(h, sup, rtol=1e-4)


def test_zp_kernels_combine_sample_tiles_exactly():
    # 2 * 4096 + 7 samples in R^2 make three tiles: the first lies on the
    # x-axis, so it is all zero for e2, the second reaches farther, and the
    # largest |<x, theta>| of every direction, 4 (|theta_1| + |theta_2|), is in
    # the short last tile, so the running max rises from tile to tile
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(60)
    pts = np.vstack([np.column_stack([rng.uniform(-1.0, 1.0, 4096), np.zeros(4096)]),
                     rng.uniform(-2.0, 2.0, (4096, 2)),
                     rng.uniform(-2.0, 2.0, (5, 2)), [[4.0, 4.0], [4.0, -4.0]]])
    s = SampleSet(pts)
    dirs = np.vstack([[1.0, 0.0], [0.0, 1.0], sphere_directions(2, 1, seed=61)])
    with mpmath.workdps(30):
        xs = [(mpmath.mpf(a), mpmath.mpf(b)) for a, b in pts]
        for p in (1.0, 3.0, 4.5, 64.0):
            h, grad = zp_support(s, p, dirs), zp_touching_points(s, p, dirs)
            for theta, h_got, grad_got in zip(dirs, h, grad):
                t = [a * theta[0] + b * theta[1] for a, b in xs]
                w = [abs(ti) ** (p - 1) * mpmath.sign(ti) for ti in t]  # |t|^{p-1} sign(t)
                h_ref = (mpmath.fsum(wi * ti for wi, ti in zip(w, t)) / len(t)) ** (1 / p)
                assert h_got == pytest.approx(float(h_ref), rel=1e-12, abs=0.0), (p, theta)
                # relative to the point's length: at e1 the (4, +-4) terms of
                # its second coordinate cancel exactly, leaving ~1e-19
                g = [float(mpmath.fsum(wi * x[j] for wi, x in zip(w, xs)) / len(t)
                           / h_ref ** (p - 1)) for j in range(2)]
                assert np.linalg.norm(grad_got - g) <= 1e-12 * np.linalg.norm(g), (p, theta)
    # Z_p -> conv(S u -S) as p -> inf: h is the largest |<x, theta>|, and the
    # touching point the mean of sign(<x, theta>) x over the samples that reach it
    t = pts @ dirs.T
    top = np.abs(t).max(axis=0)
    np.testing.assert_allclose(zp_support(s, P_CAP, dirs), top, rtol=1e-4)
    for grad_got, t_j, top_j in zip(zp_touching_points(s, P_CAP, dirs), t.T, top):
        reach = np.abs(t_j) == top_j
        corner = (np.sign(t_j[reach])[:, None] * pts[reach]).mean(axis=0)
        np.testing.assert_allclose(grad_got, corner, rtol=1e-4, atol=1e-4 * top_j)


def test_zp_support_p_out_of_range():
    s = SampleSet([[1.0], [-1.0]])
    with pytest.raises(ValueError):
        zp_support(s, 0.5, np.array([[1.0]]))
    with pytest.raises(ValueError):
        zp_support(s, 2.0 * P_CAP, np.array([[1.0]]))
    with pytest.raises(ValueError, match="got nan"):
        zp_support(s, math.nan, np.array([[1.0]]))
    with pytest.raises(ValueError, match="got nan"):
        zp_touching_points(s, math.nan, np.array([[1.0]]))
    with pytest.raises(ValueError, match="got nan"):
        centroid_body(s, math.nan)


def test_gaussian_cp_oracle_values():
    s = draw_samples(gaussian_measure(4), 200_000, seed=5)
    dirs = sphere_directions(4, 32, seed=6)
    for p, cp in GAUSS_CP.items():
        h = zp_support(s, p, dirs)
        se = cp / math.sqrt(s.count)  # crude scale for the tolerance
        assert np.abs(h - cp).max() < 6.0 * se + 0.01 * cp


def test_centroid_body_support_matches_zp():
    s = draw_samples(gaussian_measure(3), 2000, seed=7)
    Z = centroid_body(s, 3.0)
    dirs = sphere_directions(3, 50, seed=8)
    assert np.allclose(Z.support(dirs), zp_support(s, 3.0, dirs), rtol=1e-14)


def test_monotonicity_is_exact():
    # the power-mean inequality h_{Z_p} <= h_{Z_q} (p <= q) holds exactly on
    # the empirical measure: any violation is round-off
    s = draw_samples(gaussian_measure(4), 3000, seed=9)
    dirs = sphere_directions(4, 500, seed=10)
    for p, q in ((1.0, 2.0), (2.0, 7.5), (3.0, 64.0), (1.0, 1024.0)):
        h_p, h_q = zp_support(s, p, dirs), zp_support(s, q, dirs)
        assert ((h_p - h_q) / h_q).max() < 1e-12


def test_projection_identity_exact_both_coordinate_styles():
    # h_{Z_p(S)}(B u) = h_{Z_p(P_F S)}(u): ambient directions B u against
    # directions u in the coordinates of the subspace's basis B
    s = draw_samples(gaussian_measure(5), 2000, seed=15)
    F = random_subspace(5, 2, seed=16)
    u = sphere_directions(2, 64, seed=17)
    h_full = zp_support(s, 3.0, u @ F.basis.T)
    h_proj = zp_support(project_samples(s, F), 3.0, u)
    assert (np.abs(h_full - h_proj) / np.maximum(h_full, h_proj)).max() < 1e-12


def test_z2_of_whitened_samples_is_unit_ball():
    # x -> C^{-1/2} (x - b) makes the second-moment matrix exactly I, and
    # h_{Z_2}^2 is its quadratic form
    s = draw_samples(gaussian_measure(4), 5000, seed=21)
    m = estimate_moments(s)
    w, V = np.linalg.eigh(m.covariance)
    pts = (s.points - m.barycenter) @ ((V * (1.0 / np.sqrt(w))) @ V.T).T
    h = zp_support(SampleSet(pts), 2.0, sphere_directions(4, 1000, seed=22))
    assert np.abs(h - 1.0).max() < 1e-8


def test_touching_points_euler_relation():
    s = draw_samples(gaussian_measure(3), 2000, seed=23)
    dirs = sphere_directions(3, 100, seed=24)
    for p in (1.0, 2.0, 3.0, 4.0, 4.5, 8.0, 512.5):
        T = zp_touching_points(s, p, dirs)
        h = zp_support(s, p, dirs)
        assert np.abs((T * dirs).sum(axis=1) - h).max() < 1e-12
        # touching points lie on the boundary, so inside Z_p: h(theta') >= <T, theta'>
        probe = sphere_directions(3, 50, seed=25)
        hp = zp_support(s, p, probe)
        assert np.all(T @ probe.T <= hp[None, :] + 1e-10)


def test_exact_zp_of_the_standard_gaussian_is_the_ball_of_radius_cp():
    for p, cp in GAUSS_CP.items():
        body = exact_zp(gaussian_measure(5), p)
        assert body.analytic["ball_radius"] == pytest.approx(cp, rel=1e-12, abs=0.0)


def test_exact_zp_support_agrees_with_the_sampled_pushforward():
    # h_{Z_p}(T gamma)(theta) = c_p |T^T theta|; the empirical h is a power
    # mean of N values y = |<x, theta>|^p, with SE h sd(y) / (p mean(y) sqrt N)
    T = np.array([[1.5, 0.4, 0.0], [-0.3, 0.8, 0.2], [0.1, 0.0, 0.5]])
    mu = pushforward_measure(gaussian_measure(3), T)
    s = draw_samples(mu, 200_000, seed=40)
    dirs = sphere_directions(3, 12, seed=41)
    for p in (2.0, 3.0, 8.0):
        exact = exact_zp(mu, p).support(dirs)
        assert not np.allclose(exact, exact[0])  # an ellipsoid, not a ball
        y = np.abs(s.points @ dirs.T) ** p  # (N, m)
        h = zp_support(s, p, dirs)
        se = h * y.std(axis=0, ddof=1) / (p * y.mean(axis=0) * math.sqrt(s.count))
        assert np.all(np.abs(h - exact) <= 3.0 * se), (p, (h - exact) / se)


def test_exact_zp_is_none_without_an_exact_law():
    laplace = exponential_product_measure(3)
    cube_law = uniform_body_measure(cube(3))
    stretch = np.diag([1.0, 2.0, 3.0])
    for p in (2.0, 4.0):
        assert exact_zp(laplace, p) is None
        assert exact_zp(pushforward_measure(laplace, stretch), p) is None
        assert exact_zp(pushforward_measure(cube_law, stretch), p) is None
    for p in (1.0, 3.0, 4.5, 7.0, 2.000001):
        assert exact_zp(cube_law, p) is None
    # the budget on n (p/2)^2: at n = 32 the largest even p is 90
    wide = uniform_body_measure(cube(32, side=1.0))
    assert 32 * 45**2 <= ZP_SERIES_BUDGET < 32 * 46**2
    assert exact_zp(wide, 90.0) is not None and exact_zp(wide, 92.0) is None
    assert exact_zp(wide, 128.0) is None


def _cube_moment(theta, a, p):
    """E <X, theta>^p for X uniform on [-a, a]^n, even p, in exact rationals."""
    k = p // 2
    m = [Fraction(a) ** (2 * j) / (2 * j + 1) for j in range(k + 1)]
    poly = [Fraction(1)] + [Fraction(0)] * k
    for th in map(Fraction, theta):
        f = [m[j] * th ** (2 * j) / math.factorial(2 * j) for j in range(k + 1)]
        poly = [sum(poly[d - j] * f[j] for j in range(d + 1)) for d in range(k + 1)]
    return poly[k] * math.factorial(2 * k)


def test_exact_cube_zp_matches_rational_arithmetic():
    rng = np.random.default_rng(50)
    for n, side in ((1, 1.0), (2, 3.0), (3, 1.0), (5, 0.25), (8, 1.0)):
        mu = uniform_body_measure(cube(n, side=side))
        dirs = np.vstack([rng.standard_normal((3, n)), np.eye(n)[:1], np.ones((1, n))])
        for p in (2, 4, 6, 8, 12, 32, 64):
            h = exact_zp(mu, float(p)).support(dirs)
            ref = [float(_cube_moment(t, side / 2, p)) ** (1.0 / p) for t in dirs]
            assert h == pytest.approx(ref, rel=1e-12, abs=0.0), (n, p)


def test_exact_cube_z4_is_the_closed_form():
    # h^4 = m_4 sum theta_i^4 + 3 m_2^2 (|theta|^4 - sum theta_i^4)
    a = 0.5
    m2, m4 = a**2 / 3.0, a**4 / 5.0
    dirs = np.random.default_rng(51).standard_normal((20, 6))
    s4 = (dirs**4).sum(axis=1)
    ref = (m4 * s4 + 3.0 * m2**2 * ((dirs**2).sum(axis=1) ** 2 - s4)) ** 0.25
    h = exact_zp(uniform_body_measure(cube(6, side=2 * a)), 4.0).support(dirs)
    assert h == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_exact_cube_z2_is_the_ball_of_radius_a_over_sqrt3():
    # a ball costs no series, so the budget does not bound n at p = 2
    for n, side in ((4, 1.0), (4, 2.0), (4, 7.5), (ZP_SERIES_BUDGET + 1, 1.0)):
        body = exact_zp(uniform_body_measure(cube(n, side=side)), 2.0)
        assert body.analytic["ball_radius"] == pytest.approx(side / 2 / math.sqrt(3.0),
                                                             rel=1e-15, abs=0.0)


def test_exact_cube_zp_grows_with_p():
    mu = uniform_body_measure(cube(8, side=1.0))
    dirs = np.vstack([sphere_directions(8, 50, seed=52), np.eye(8)[:1]])
    h = [exact_zp(mu, float(p)).support(dirs) for p in range(2, 66, 2)]
    for lo, hi in zip(h, h[1:]):
        assert np.all(lo < hi)


def test_exact_cube_zp_agrees_with_the_sampled_kernel():
    # the empirical h is a power mean of N values y = <x, theta>^p; its SD,
    # h sd(y) / (p E y sqrt N), comes from the exact moments at p and 2p
    mu = uniform_body_measure(cube(5, side=1.0))
    s = draw_samples(mu, 200_000, seed=53)
    dirs = sphere_directions(5, 12, seed=54)
    for p in (4.0, 8.0):
        h = exact_zp(mu, p).support(dirs)
        h2p = exact_zp(mu, 2 * p).support(dirs)
        sd = h * np.sqrt((h2p / h) ** (2 * p) - 1.0) / (p * math.sqrt(s.count))
        assert np.all(np.abs(zp_support(s, p, dirs) - h) <= 4.0 * sd), p


def test_exact_cube_zp_at_the_budget_corners_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        _check_budget_corners(mpmath)


def _check_budget_corners(mpmath):
    a = mpmath.mpf(1) / 2

    def moment(j):
        return a ** (2 * j) / (2 * j + 1)

    # the largest p at n = 2: E <X, t>^p = sum_j C(p, 2j) m_2j m_{p-2j} t_1^{2j} t_2^{p-2j}
    k = math.isqrt(ZP_SERIES_BUDGET // 2)
    p = 2 * k
    mu = uniform_body_measure(cube(2, side=1.0))
    assert exact_zp(mu, p + 2.0) is None
    dirs = np.array([[1.0, 0.0], [1.0, 1.0], [0.3, -0.9], [1e-200, 3e-201], [2e200, -1e200]])
    h = exact_zp(mu, float(p)).support(dirs)
    for t, got in zip(dirs, h):
        t1, t2 = mpmath.mpf(t[0]), mpmath.mpf(t[1])
        ref = mpmath.fsum(mpmath.binomial(p, 2 * j) * moment(j) * moment(k - j)
                          * t1 ** (2 * j) * t2 ** (p - 2 * j) for j in range(k + 1))
        assert got == pytest.approx(float(ref ** (mpmath.mpf(1) / p)), rel=1e-12, abs=0.0)
    # the largest n at p = 4, against the closed form
    n = ZP_SERIES_BUDGET // 4
    mu = uniform_body_measure(cube(n, side=1.0))
    assert exact_zp(uniform_body_measure(cube(n + 1, side=1.0)), 4.0) is None
    rng = np.random.default_rng(55)
    e1 = np.zeros(n)
    e1[0] = 1.0
    dirs = np.vstack([e1, np.ones(n), rng.standard_normal(n), 1e-150 * rng.standard_normal(n),
                      1e150 * rng.standard_normal(n)])
    h = exact_zp(mu, 4.0).support(dirs)
    for t, got in zip(dirs, h):
        t2 = mpmath.fsum(mpmath.mpf(x) ** 2 for x in t)
        t4 = mpmath.fsum(mpmath.mpf(x) ** 4 for x in t)
        ref = moment(2) * t4 + 3 * moment(1) ** 2 * (t2**2 - t4)
        assert got == pytest.approx(float(ref ** (mpmath.mpf(1) / 4)), rel=1e-12, abs=0.0)


def test_exact_zp_rejects_p_outside_the_range():
    mu = gaussian_measure(3)
    with pytest.raises(ValueError, match="got nan"):
        exact_zp(mu, math.nan)
    with pytest.raises(ValueError, match=r"p must be in \[1, "):
        exact_zp(mu, 0.5)
