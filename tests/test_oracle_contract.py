"""Every oracle takes an (m, dim) batch and returns an (m,) array.

Support values are floats and membership answers are bools, for every body
construction the library builds; a single direction is a (1, dim) batch.
The callers in isoconv rely on this and coerce nothing.
"""

import numpy as np
import pytest

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
