import math
import tracemalloc

import numpy as np
import pytest

from isoconv.bodies import cube
from isoconv.centroid import (
    P_CAP,
    centroid_body,
    projection_identity_check,
    z2_deviation_from_ball,
    zp_monotonicity_check,
    zp_support,
    zp_touching_points,
)
from isoconv.grassmann import random_subspace
from isoconv.isotropy import apply_whitening, estimate_moments, whitening_map
from isoconv.measures import SampleSet, draw_samples, gaussian_measure, uniform_body_measure
from isoconv.seeds import sphere_directions


def _sample_set(points):
    points = np.asarray(points, dtype=float)
    return SampleSet(dim=points.shape[1], count=points.shape[0], points=points,
                     seed=0, provenance="fixture")


# gaussian h_{Z_p}(theta) = (E|g|^p)^{1/p} for unit theta
GAUSS_CP = {
    1.0: math.sqrt(2.0 / math.pi),
    2.0: 1.0,
    4.0: 3.0**0.25,
}


def test_zp_support_two_point_example():
    # S = {(1,0), (-1,0)}: h_{Z_p}(e1) = 1, h(e2) = 0, h((1,1)/sqrt2) = 1/sqrt2
    s = _sample_set([[1.0, 0.0], [-1.0, 0.0]])
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    diag = np.array([1.0, 1.0]) / math.sqrt(2.0)
    for p in (1.0, 2.0, 5.0, 64.0):
        assert zp_support(s, p, e1) == pytest.approx(1.0, rel=1e-12)
        assert zp_support(s, p, e2) == pytest.approx(0.0, abs=1e-300)
        assert zp_support(s, p, diag) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_zp_support_mixed_mass_example():
    # S = {(1,0), (0,0)}: |<x,e1>|^p averages to 1/2
    s = _sample_set([[1.0, 0.0], [0.0, 0.0]])
    e1 = np.array([1.0, 0.0])
    assert zp_support(s, 1.0, e1) == pytest.approx(0.5, rel=1e-12)
    assert zp_support(s, 2.0, e1) == pytest.approx(math.sqrt(0.5), rel=1e-12)
    # the max-scaled power mean keeps the 1/N mass of the zero dot product
    assert zp_support(s, 64.0, e1) == pytest.approx(0.5 ** (1.0 / 64.0), rel=1e-12)


def test_zp_support_agrees_with_direct_power_mean():
    # samples fill [-1, 1]^2 x {0} and the directions lie in that plane, so
    # max |<x, theta>| is in [1, sqrt 2] (up to sampling): the direct p-th
    # powers up to p = 512 neither overflow nor lose their leading terms.
    # e3 is orthogonal to every sample.
    square = draw_samples(uniform_body_measure(cube(2, side=2.0)), 5000, seed=1)
    s = _sample_set(np.hstack([square.points, np.zeros((square.count, 1))]))
    dirs = np.hstack([sphere_directions(2, 200, seed=2), np.zeros((200, 1))])
    orth = np.array([0.0, 0.0, 1.0])
    for p in (1.0, 1.5, 2.0, 3.0, 8.0, 32.0, 33.0, 64.0, 512.0):
        direct = (np.abs(s.points @ dirs.T) ** p).mean(axis=0) ** (1.0 / p)
        np.testing.assert_allclose(zp_support(s, p, dirs), direct, rtol=1e-12, atol=0.0)
        single = zp_support(s, p, dirs[0])
        assert np.ndim(single) == 0
        assert single == pytest.approx(direct[0], rel=1e-12)
        assert zp_support(s, p, orth) == 0.0
        assert zp_support(s, p, np.vstack([dirs[:3], orth]))[3] == 0.0


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


def test_zp_support_huge_p_no_overflow():
    s = draw_samples(gaussian_measure(2), 1000, seed=3)
    dirs = sphere_directions(2, 16, seed=4)
    h = zp_support(s, 2.0**20, dirs)
    sup = np.abs(s.points @ dirs.T).max(axis=0)
    assert np.all(np.isfinite(h))
    # Z_p -> conv(S u -S) as p -> inf
    assert np.allclose(h, sup, rtol=1e-4)


def test_zp_support_p_out_of_range():
    s = _sample_set([[1.0], [-1.0]])
    with pytest.raises(ValueError):
        zp_support(s, 0.5, np.array([1.0]))
    with pytest.raises(ValueError):
        zp_support(s, 2.0 * P_CAP, np.array([1.0]))


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
    s = draw_samples(gaussian_measure(4), 3000, seed=9)
    dirs = sphere_directions(4, 500, seed=10)
    for p, q in ((1.0, 2.0), (2.0, 7.5), (3.0, 64.0), (1.0, 1024.0)):
        assert zp_monotonicity_check(s, p, q, dirs) < 1e-12


def test_monotonicity_rejects_bad_order():
    s = draw_samples(gaussian_measure(2), 100, seed=11)
    with pytest.raises(ValueError):
        zp_monotonicity_check(s, 3.0, 2.0, sphere_directions(2, 4, 12))


def test_projection_identity_exact_both_coordinate_styles():
    s = draw_samples(gaussian_measure(5), 2000, seed=15)
    F = random_subspace(5, 2, seed=16)
    u = sphere_directions(2, 64, seed=17)
    assert projection_identity_check(s, 3.0, F, u) < 1e-12
    ambient = u @ F.basis.T
    assert projection_identity_check(s, 3.0, F, ambient) < 1e-12


def test_projection_identity_rejects_off_subspace_directions():
    s = draw_samples(gaussian_measure(4), 100, seed=18)
    F = random_subspace(4, 2, seed=19)
    bad = sphere_directions(4, 3, seed=20)  # generic: not in F
    with pytest.raises(ValueError):
        projection_identity_check(s, 2.0, F, bad)


def test_z2_of_whitened_samples_is_unit_ball():
    s = draw_samples(gaussian_measure(4), 5000, seed=21)
    m = estimate_moments(s)
    w = apply_whitening(s, *whitening_map(m))
    assert z2_deviation_from_ball(w, 1000, seed=22) < 1e-8


def test_touching_points_euler_relation():
    s = draw_samples(gaussian_measure(3), 2000, seed=23)
    dirs = sphere_directions(3, 100, seed=24)
    for p in (1.0, 2.0, 4.5):
        T = zp_touching_points(s, p, dirs)
        h = zp_support(s, p, dirs)
        assert np.abs((T * dirs).sum(axis=1) - h).max() < 1e-12
        # touching points lie on the boundary, so inside Z_p: h(theta') >= <T, theta'>
        probe = sphere_directions(3, 50, seed=25)
        hp = zp_support(s, p, probe)
        assert np.all(T @ probe.T <= hp[None, :] + 1e-10)
