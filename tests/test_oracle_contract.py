"""Every oracle takes an (m, dim) batch and returns an (m,) array.

Support values are floats and membership answers are bools, for every body
construction the library builds; a single direction is a (1, dim) batch.
The callers in isoconv rely on this and coerce nothing.  Every support
function is positively homogeneous, subadditive and, for these symmetric
constructions, even; h_{Z_p} is nondecreasing in p.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoconv.bodies import (ball, cross_polytope, cube, ellipsoid, lp_ball, product_body,
                            scale_body, unit_volume_copy)
from isoconv.centroid import centroid_body, zp_support, zp_touching_points
from isoconv.experiments import qm_body
from isoconv.grassmann import project_body, random_subspace
from isoconv.measures import SampleSet, draw_samples, gaussian_measure
from isoconv.seeds import rng_from

CONSTRUCTIONS = {
    "cube": lambda: cube(3),
    "cross_polytope": lambda: cross_polytope(3),
    "lp_ball-p3": lambda: lp_ball(3, 3.0),
    "ball": lambda: ball(3),
    "ellipsoid": lambda: ellipsoid(np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 3.0]])),
    "scale_body": lambda: scale_body(cube(3), 0.5),
    "unit_volume_copy": lambda: unit_volume_copy(cross_polytope(3)),
    "product_body": lambda: product_body(cube(1), ball(2)),
    "qm_body": lambda: qm_body(cube(2, side=1.0), 3),
    "projected-cube": lambda: project_body(cube(5), random_subspace(5, 3, seed=1)),
    "projected-cross": lambda: project_body(cross_polytope(5), random_subspace(5, 3, seed=2)),
    "projected-generic": lambda: project_body(lp_ball(5, 3.0), random_subspace(5, 3, seed=3)),
    "centroid_body": lambda: centroid_body(draw_samples(gaussian_measure(3), 500, seed=4), 3.0),
}


@pytest.mark.parametrize("m", [1, 7])
@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_oracles_map_an_m_by_dim_batch_to_an_m_array(name, m):
    body = CONSTRUCTIONS[name]()
    batch = rng_from(5).standard_normal((m, body.dim))
    h = body.support(batch)
    assert isinstance(h, np.ndarray) and h.dtype == np.float64 and h.shape == (m,)
    if body.membership is not None:
        inside = body.membership(0.2 * batch)
        assert isinstance(inside, np.ndarray) and inside.dtype == np.bool_
        assert inside.shape == (m,)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("kernel", [zp_support, zp_touching_points])
def test_zp_kernels_reject_anything_but_an_m_by_dim_batch(kernel, p):
    samples = SampleSet(rng_from(6).standard_normal((50, 3)))
    for bad in (np.ones(3), np.ones((2, 4))):
        with pytest.raises(ValueError, match=r"^directions must be \(m, 3\), got shape "):
            kernel(samples, p, bad)


# Property tests: derandomized and with no example database, so every rerun draws the
# same examples and none is saved.
_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)
_BODIES = {name: make() for name, make in CONSTRUCTIONS.items()}


def _direction(dim):
    coords = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    return st.lists(coords, min_size=dim, max_size=dim).map(np.array).filter(
        lambda v: np.linalg.norm(v) > 1e-3)


def _h(body, theta):
    return float(body.support(theta[None, :])[0])


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
@_PROPERTY
@given(data=st.data())
def test_support_is_positively_homogeneous_subadditive_and_even(name, data):
    body = _BODIES[name]
    theta = data.draw(_direction(body.dim), label="theta")
    phi = data.draw(_direction(body.dim), label="phi")
    t = data.draw(st.floats(1e-3, 1e3), label="t")
    h = _h(body, theta)
    assert _h(body, t * theta) == pytest.approx(t * h, rel=1e-12)
    assert _h(body, theta + phi) <= (h + _h(body, phi)) * (1 + 1e-12)
    assert _h(body, -theta) == pytest.approx(h, rel=1e-12)  # every construction is symmetric


_ZP_SAMPLES = draw_samples(gaussian_measure(3), 500, seed=7)


@_PROPERTY
@given(p=st.floats(1.0, 512.0), q=st.floats(1.0, 512.0), theta=_direction(3))
def test_zp_support_is_nondecreasing_in_p(p, q, theta):
    p, q = min(p, q), max(p, q)
    h_p, h_q = (zp_support(_ZP_SAMPLES, r, theta[None, :])[0] for r in (p, q))
    assert h_p <= h_q * (1 + 1e-12)
