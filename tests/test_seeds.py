import numpy as np

from isoconv import seeds


def test_child_seed_deterministic():
    a = seeds.child_seed(42, 0)
    b = seeds.child_seed(42, 0)
    assert a == b
    assert seeds.child_seed(42, 1) != a
    assert seeds.child_seed(43, 0) != a


def test_child_seed_nonnegative_int():
    for master in (0, 1, 2**62, -5):
        for idx in (0, 1, 999):
            s = seeds.child_seed(master, idx)
            assert isinstance(s, int)
            assert 0 <= s < 2**63


def test_rng_from_reproducible():
    x = seeds.rng_from(7).standard_normal(5)
    y = seeds.rng_from(7).standard_normal(5)
    assert np.array_equal(x, y)


def test_generate_seed_in_range():
    vals = {seeds.generate_seed() for _ in range(8)}
    assert all(0 <= v < 2**63 for v in vals)
    # astronomically unlikely to collide
    assert len(vals) > 1


def test_sphere_directions_unit_norm():
    d = seeds.sphere_directions(6, 500, seed=3)
    assert d.shape == (500, 6)
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)


def test_sphere_directions_deterministic():
    a = seeds.sphere_directions(4, 100, seed=11)
    b = seeds.sphere_directions(4, 100, seed=11)
    assert np.array_equal(a, b)
    c = seeds.sphere_directions(4, 100, seed=12)
    assert not np.array_equal(a, c)


def test_sphere_directions_match_the_normalised_gaussians():
    # in-place normalisation gives the bits of g / |g| on the same stream
    g = seeds.rng_from(13).standard_normal((300, 5))
    expected = g / np.linalg.norm(g, axis=1)[:, None]
    assert np.array_equal(seeds.sphere_directions(5, 300, seed=13), expected)


def test_sphere_directions_roughly_isotropic():
    d = seeds.sphere_directions(3, 200_000, seed=5)
    # mean ~ 0 and second moment ~ 1/n per coordinate
    assert np.abs(d.mean(axis=0)).max() < 0.01
    assert np.abs((d**2).mean(axis=0) - 1.0 / 3.0).max() < 0.01
