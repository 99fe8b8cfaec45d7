import math
import tracemalloc
import warnings

import numpy as np
import pytest

from isoconv.bodies import (ConvexBody, UnsupportedOracleError, ball, cross_polytope, cube,
                            ellipsoid, lp_ball, product_body, scale_body, unit_volume_copy)
from isoconv.functionals import (
    ENTROPY_DIM_CAP,
    RadModel,
    _body_grid_cloud,
    _greedy_covering_radii,
    bound_rhs,
    entropy_numbers,
    mean_width,
    parse_rad_model,
)
from isoconv.grassmann import project_body, random_subspace, vk_estimate
from isoconv.seeds import DIRECTION_BLOCK, rng_from, sphere_directions


# ---------------------------------------------------------------------------
# mean width
# ---------------------------------------------------------------------------


def test_mean_width_ball_exact():
    est = mean_width(ball(8))
    assert est.value == 1.0
    assert est.std_error == 0.0
    assert est.direction == "exact"
    assert mean_width(ball(3, radius=2.5)).value == pytest.approx(2.5)


def test_mean_width_square_oracle():
    # E(|t1| + |t2|) on S^1 = 4/pi; the product of two segments has the
    # square's support and states no M*, so it is sampled
    est = mean_width(product_body(cube(1, 2.0), cube(1, 2.0)), sphere_samples=200_000, seed=1)
    assert est.direction == "mc"
    assert abs(est.value - 4.0 / math.pi) < 3.0 * est.std_error + 1e-4
    assert est.std_error < 0.002


def test_mean_width_linearity_matched_seeds():
    K = lp_ball(3, 3.0, 2.0)
    a = mean_width(K, sphere_samples=5000, seed=2)
    b = mean_width(scale_body(K, 3.0), sphere_samples=5000, seed=2)
    assert b.value == pytest.approx(3.0 * a.value, rel=1e-12)


def test_mean_width_cross_polytope_3d_oracle():
    # E ||theta||_inf over S^2 = 0.83118963596935798, by two independent 30-digit
    # mpmath derivations: E||g||_inf / E|g| at n = 3, and the area of the part
    # of the octant where |z| is the largest coordinate
    est = mean_width(cross_polytope(3))
    assert (est.std_error, est.n_samples, est.direction) == (0.0, 0, "exact")
    assert est.value == pytest.approx(0.83118963596935798, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 128, 10**3, 10**4, 10**6])
def test_mean_width_cube_matches_mpmath(n):
    # the error bound cube's docstring states: M* = (side/2) n E|theta_1|
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        half_n = mpmath.mpf(n) / 2
        ref = 1.5 * n * mpmath.gamma(half_n) / (
            mpmath.sqrt(mpmath.pi) * mpmath.gamma(half_n + mpmath.mpf(1) / 2))
        err = abs(mean_width(cube(n, side=3.0)).value / ref - 1)
    assert err <= 1e-14 + 2.0**-50 * abs(math.lgamma((n + 1) / 2)), err


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 32, 64, 128])
def test_unit_cube_mean_width_is_the_benchmarks_reference_bit_for_bit(n):
    # perfbench/checks.py compares theorem1's exact mstar-cube rows with its
    # cube_mean_width inside a window of zero width
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    est = mean_width(cube(n, side=1.0))
    assert (est.value, est.std_error, est.n_samples, est.direction) == (
        checks.cube_mean_width(n), 0.0, 0, "exact")


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 160, 10**3, 10**4, 10**6])
def test_mean_width_cross_polytope_matches_mpmath(n):
    # the error bound lp_ball's docstring states
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        edge = mpmath.sqrt(2 * mpmath.log(n)) if n > 1 else mpmath.mpf(1)
        top = mpmath.sqrt(2 * (mpmath.log(n) + 50))
        max_abs = mpmath.quad(lambda t: 1 - (1 - mpmath.erfc(t / mpmath.sqrt(2))) ** n,
                              [0, edge / 2, edge, edge + 1, edge + 2, top])
        norm = mpmath.sqrt(2) * mpmath.gamma(mpmath.mpf(n + 1) / 2) / mpmath.gamma(
            mpmath.mpf(n) / 2)
        ref = max_abs / norm
        err = abs(mean_width(cross_polytope(n)).value / ref - 1)
    assert err <= 1e-14 + 2.0**-50 * abs(math.lgamma((n + 1) / 2)), err


@pytest.mark.parametrize("n", [3, 40, 160])
def test_exact_cross_polytope_mean_width_agrees_with_its_sampled_support(n):
    K = unit_volume_copy(cross_polytope(n))
    exact = mean_width(K)
    sampled = mean_width(ConvexBody(n, support=K.support), 200_000, seed=n)
    assert (exact.direction, sampled.direction) == ("exact", "mc")
    assert abs(sampled.value - exact.value) <= 4.0 * sampled.std_error


@pytest.mark.parametrize("n", [3, 40, 160])
def test_exact_cube_mean_width_agrees_with_its_sampled_support(n):
    K = cube(n, side=1.0)
    exact = mean_width(K)
    sampled = mean_width(ConvexBody(n, support=K.support), 200_000, seed=n)
    assert (exact.direction, sampled.direction) == ("exact", "mc")
    assert abs(sampled.value - exact.value) <= 4.0 * sampled.std_error


def test_mean_width_of_a_one_dimensional_cross_polytope_is_its_radius():
    assert mean_width(lp_ball(1, 1.0, 2.5)).value == pytest.approx(2.5, rel=1e-14)


@pytest.mark.parametrize("t", [1e-3, 0.7, 3.0, 1e5])
def test_exact_cross_polytope_mean_width_is_linear(t):
    K = lp_ball(17, 1.0, 1.3)
    assert mean_width(scale_body(K, t)).value == pytest.approx(t * mean_width(K).value,
                                                               rel=1e-15, abs=0.0)


@pytest.mark.parametrize("K", [ball(6, 1.7), lp_ball(6, 1.0, 1.7), cube(6, 1.7)],
                         ids=["ball", "l1", "cube"])
def test_exact_mean_width_survives_scaling_and_unit_volume_copies(K):
    stated = K.analytic["mean_width"]
    t = math.exp(-K.analytic["log_volume"] / 6)
    for body, factor in ((scale_body(K, 0.3), 0.3), (unit_volume_copy(K), t)):
        est = mean_width(body)
        assert (est.value, est.std_error, est.n_samples, est.direction) == (
            stated * factor, 0.0, 0, "exact")


def test_exact_mean_width_survives_the_projection_of_a_ball():
    est = mean_width(project_body(ball(6, 1.7), random_subspace(6, 2, seed=1)))
    assert (est.value, est.direction) == (1.7, "exact")


def test_bodies_that_state_no_mean_width_are_sampled():
    for K in (product_body(ball(2), lp_ball(3, 1.0)),
              product_body(cube(1), cube(2)),
              project_body(cross_polytope(5), random_subspace(5, 3, seed=2)),
              project_body(cube(5), random_subspace(5, 3, seed=2))):
        assert "mean_width" not in K.analytic
        est = mean_width(K, 500, seed=4)
        assert est.direction == "mc" and est.n_samples == 500 and est.std_error > 0


def test_mean_width_reads_the_stated_fact_not_the_family_key():
    # a ball_radius alone names the family for projections; it states no M*
    K = ConvexBody(4, support=lp_ball(4, 3.0).support, analytic={"ball_radius": 1.0})
    est = mean_width(K, 500, seed=5)
    assert est.direction == "mc" and est.value == mean_width(lp_ball(4, 3.0), 500, seed=5).value


def test_mean_width_validates_samples():
    with pytest.raises(ValueError):
        mean_width(cube(2), sphere_samples=10, seed=1)
    with pytest.raises(ValueError, match="sphere_samples >= 100"):
        mean_width(ball(3), sphere_samples=5, seed=1)  # before the exact ball value
    with pytest.raises(ValueError, match="sphere_samples >= 100"):
        mean_width(cross_polytope(3), sphere_samples=99, seed=1)  # and the exact l1 value


# ---------------------------------------------------------------------------
# entropy numbers
# ---------------------------------------------------------------------------


def test_entropy_interval_exact():
    seg = cube(1, side=2.0)  # [-1, 1]
    out = entropy_numbers(seg, j_max=5)
    for j, upper in enumerate(out, start=1):
        assert upper.value == pytest.approx(2.0 ** (-j), rel=1e-12)
        assert upper.direction == "exact"


def test_entropy_brackets_square():
    out = entropy_numbers(cube(2, side=2.0), j_max=6, step=0.02, seed=5)
    assert all(u.direction == "upper" for u in out)
    uppers = [u.value for u in out]
    assert all(a >= b - 1e-12 for a, b in zip(uppers, uppers[1:]))  # nonincreasing
    # any covering radius is at most the diameter, whatever the greedy start
    assert uppers[0] <= 2.0 * math.sqrt(2.0) + 0.1
    # with 2^6 = 64 centers the square is covered tightly
    assert uppers[-1] < 0.45


def test_entropy_dim_cap():
    with pytest.raises(ValueError):
        entropy_numbers(cube(ENTROPY_DIM_CAP + 1, side=1.0), j_max=2)


def test_entropy_numbers_of_an_ellipsoid_need_a_membership_oracle():
    # only the bodies cube and lp_ball build carry membership; the error names them
    with pytest.raises(UnsupportedOracleError, match="cubes and l_p balls"):
        entropy_numbers(ellipsoid(np.diag([2.0, 0.5])), 2)


def _direct_covering_radii(cloud, n_centers, seed):
    # farthest-point greedy from the whole-row distance formula
    m = cloud.shape[0]
    first = int(rng_from(seed).integers(0, m))
    d2 = ((cloud - cloud[first]) ** 2).sum(axis=1)
    radii = np.empty(min(n_centers, m))
    radii[0] = math.sqrt(float(d2.max()))
    for j in range(1, len(radii)):
        nxt = int(np.argmax(d2))
        d2 = np.minimum(d2, ((cloud - cloud[nxt]) ** 2).sum(axis=1))
        radii[j] = math.sqrt(float(d2.max()))
    if len(radii) < n_centers:
        radii = np.concatenate([radii, np.zeros(n_centers - len(radii))])
    return radii


@pytest.mark.parametrize("k", [2, 3, 4])
def test_greedy_covering_is_bit_identical_to_the_direct_formula(k):
    # integer and body grids put many points at equal distances, so every
    # argmax tie-break is exercised; the cross-polytope grid has slices of
    # different sizes, the permuted grid is shuffled within each slice of
    # equal first coordinate, and a constant first coordinate leaves one
    # axis of the bricks undivided
    side = {2: 40, 3: 12, 4: 6}[k]
    step = {2: 0.05, 3: 0.1, 4: 0.2}[k]
    integer_grid = np.indices((side,) * k).reshape(k, -1).T.astype(float)
    body_grid, _ = _body_grid_cloud(cube(k, side=1.0), step)
    cross_grid, _ = _body_grid_cloud(cross_polytope(k), step)
    permuted_grid = body_grid[rng_from(k).permutation(body_grid.shape[0])]
    permuted_grid = permuted_grid[np.argsort(permuted_grid[:, 0], kind="stable")]
    flat = np.indices((side,) * (k - 1)).reshape(k - 1, -1).T.astype(float)
    flat = np.hstack([np.full((flat.shape[0], 1), 0.25), flat])
    for cloud in (integer_grid, body_grid, cross_grid, permuted_grid, flat):
        for seed in (0, 1):
            assert np.array_equal(
                _greedy_covering_radii(cloud, 64, seed),
                _direct_covering_radii(cloud, 64, seed),
            )


def test_greedy_covering_pads_past_the_cloud_with_zeros():
    cloud = np.array([[0.0, 0.0], [0.0, 2.0], [0.5, 1.0], [1.0, 0.0], [1.0, 2.0]])
    radii = _greedy_covering_radii(cloud, 16, 3)
    assert np.array_equal(radii, _direct_covering_radii(cloud, 16, 3))
    assert radii.shape == (16,)
    assert np.all(radii[cloud.shape[0] - 1:] == 0.0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_greedy_covering_takes_a_shuffled_cloud(k):
    # the bricks are built from any point order, and ties still go to the
    # smallest index in the caller's order
    step = {2: 0.05, 3: 0.1, 4: 0.2}[k]
    body_grid, _ = _body_grid_cloud(cube(k, side=1.0), step)
    cross_grid, _ = _body_grid_cloud(cross_polytope(k), step)
    for grid in (body_grid, cross_grid):
        for seed in (0, 1):
            cloud = grid[rng_from(seed).permutation(grid.shape[0])]
            assert np.array_equal(
                _greedy_covering_radii(cloud, 64, seed),
                _direct_covering_radii(cloud, 64, seed),
            )


@pytest.mark.parametrize("cloud", [
    np.array([[0.5, -1.0, 2.0]]),
    np.repeat(np.indices((4, 4)).reshape(2, -1).T.astype(float), 3, axis=0),
    rng_from(9).standard_normal((300, 3)),
], ids=["one-point", "duplicates", "one-brick"])
def test_greedy_covering_edge_clouds(cloud):
    # duplicated points tie at distance 0 once a copy is a centre
    for seed in (0, 1, 2):
        assert np.array_equal(
            _greedy_covering_radii(cloud, 64, seed),
            _direct_covering_radii(cloud, 64, seed),
        )


def test_greedy_covering_memory_does_not_grow_with_centers():
    # the coordinate-major copy, the squared distances and the brick order,
    # buffers of one chunk, and nothing per centre
    cloud, _ = _body_grid_cloud(cube(3, side=1.0), 0.031)
    m, k = cloud.shape
    assert 30_000 <= m <= 40_000
    _greedy_covering_radii(cloud[:8], 2, 5)  # the first call imports numpy.random
    peaks = []
    for n_centers in (16, 256):
        tracemalloc.start()
        try:
            _greedy_covering_radii(cloud, n_centers, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 2**20, peaks
    assert max(peaks) <= (k + 3) * m * 8 + 2**20, peaks


def test_mean_width_memory_does_not_grow_with_the_directions():
    # the directions come DIRECTION_BLOCK rows at a time: past the first
    # block only the (m,) support values grow, not the (m, n) directions
    n = 8
    K = lp_ball(n, 3.0)
    peaks = []
    for m in (DIRECTION_BLOCK, 4 * DIRECTION_BLOCK + 5):
        tracemalloc.start()
        try:
            est = mean_width(K, m, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 8 * (3 * DIRECTION_BLOCK + 5) + 2**20, peaks
    # the streamed value and SE are those of one (m, n) draw
    h = K.support(sphere_directions(n, m, seed=3))
    assert est.value == float(h.mean())
    assert est.std_error == float(h.std(ddof=1) / math.sqrt(m))


def test_vk_below_twice_entropy_upper():
    # v_k(K) <= 2 e_k(K): compare sampled v_k against the greedy upper bound
    K = cube(2, side=2.0)
    ent = entropy_numbers(K, j_max=2, step=0.02, seed=7)
    for k, upper in enumerate(ent, start=1):
        vk = vk_estimate(K, k, trials=32, seed=8)
        assert vk.value <= 2.0 * upper.value + 1e-9


# ---------------------------------------------------------------------------
# RadModel
# ---------------------------------------------------------------------------


def test_rad_model_values():
    assert RadModel("unit").value(5, 3.0) == 1.0
    assert RadModel("log-min").value(5, 3.0) == pytest.approx(math.log(4.0))
    assert RadModel("log-min").value(2, 3.0) == pytest.approx(math.log(3.0))
    assert RadModel("log-min").value(5) == pytest.approx(math.log(6.0))
    assert RadModel("sqrt-log").value(3) == pytest.approx(math.sqrt(math.log(4.0)))
    assert RadModel("constant", 2.5).value(9) == 2.5


def test_rad_model_nondecreasing_in_k():
    for kind in ("unit", "log-min", "sqrt-log"):
        m = RadModel(kind)
        vals = [m.value(k) for k in range(1, 20)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_parse_rad_model():
    assert parse_rad_model("unit").kind == "unit"
    assert parse_rad_model("log-min").kind == "log-min"
    assert parse_rad_model("constant:2.5") == RadModel("constant", 2.5)
    for bad in ("nosuch", "constant", "constant:x", "unit:3"):
        with pytest.raises(ValueError):
            parse_rad_model(bad)


# ---------------------------------------------------------------------------
# bound expressions
# ---------------------------------------------------------------------------


def test_thm_main_product_flat_spectrum_example():
    val = bound_rhs("thm-main-product", spectrum=[1.0, 1.0, 1.0, 1.0], p=4.0)
    assert val == pytest.approx(25.0 / 6.0, rel=1e-12)


def test_thm_main_arith_dominates_product():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        lam = np.sort(rng.uniform(0.1, 3.0, size=n))[::-1]
        p = float(rng.uniform(1.0, 50.0))
        a = bound_rhs("thm-main-arith", spectrum=lam, p=p)
        g = bound_rhs("thm-main-product", spectrum=lam, p=p)
        assert a >= g - 1e-12 * a


def test_thm_main_nondecreasing_in_p():
    lam = [2.0, 1.0, 0.5]
    vals = [bound_rhs("thm-main-product", spectrum=lam, p=p) for p in (1, 2, 4, 8, 16)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_prop31_example():
    # flat spectrum, k = p: sqrt(p/k)*max(sqrt p, sqrt k) = sqrt(p)
    assert bound_rhs("prop31", spectrum=[1.0] * 8, p=4.0, k=4) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        bound_rhs("prop31", spectrum=[1.0] * 4, p=2.0, k=9)


def test_mp_sum_and_dudley_sum():
    vk = np.ones(16)
    expected = sum(1.0 / math.sqrt(k) for k in range(1, 17))
    assert bound_rhs("mp-sum", vk_values=vk) == pytest.approx(expected, rel=1e-12)
    assert bound_rhs("dudley-sum", ek_values=vk) == pytest.approx(expected, rel=1e-12)
    # rad model multiplies per-k
    v2 = bound_rhs("mp-sum", vk_values=[1.0, 1.0], rad=RadModel("constant", 2.0))
    assert v2 == pytest.approx(2.0 * (1.0 + 1.0 / math.sqrt(2.0)), rel=1e-12)


def test_summary_piecewise_first_regime():
    assert bound_rhs("summary-piecewise", n=16, p=4.0) == pytest.approx(2.0, rel=1e-12)
    assert bound_rhs("summary-piecewise", n=100, p=9.0) == pytest.approx(3.0, rel=1e-12)


def test_summary_piecewise_continuous_at_sqrt_n():
    for n in (16, 64, 1024):
        p = math.sqrt(n)
        below = bound_rhs("summary-piecewise", n=n, p=p - 1e-9)
        above = bound_rhs("summary-piecewise", n=n, p=p + 1e-9)
        assert below == pytest.approx(above, rel=1e-6)


def test_summary_piecewise_warns_beyond_n():
    with pytest.warns(UserWarning):
        bound_rhs("summary-piecewise", n=16, p=32.0)


def test_sudakov_hartzoulaki():
    assert bound_rhs("sudakov", n=9, mstar=2.0, t=3.0) == pytest.approx(4.0)
    assert bound_rhs("hartzoulaki", n=8, l_k=0.5, t=2.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        bound_rhs("sudakov", n=4, mstar=1.0, t=0.0)


def test_gpv_value_and_range_warning():
    val = bound_rhs("gpv", n=16, p=4.0, t=2.0)
    assert val == pytest.approx(16.0 / 4.0 + 4.0 * 2.0 / 2.0, rel=1e-12)
    with pytest.warns(UserWarning):
        bound_rhs("gpv", n=16, p=4.0, t=100.0)


def test_gpv_piecewise_continuous_at_tmid():
    n, p = 64, 4.0
    t_mid = math.sqrt(n / p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        below = bound_rhs("gpv-piecewise", n=n, p=p, t=t_mid * (1 - 1e-9))
        above = bound_rhs("gpv-piecewise", n=n, p=p, t=t_mid * (1 + 1e-9))
    assert below == pytest.approx(above, rel=1e-6)


def test_thm14_warns_outside_band():
    with pytest.warns(UserWarning):
        bound_rhs("thm14", n=16, rad_value=1.0, l_k=0.3, t=0.01)
    # inside the band no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound_rhs("thm14", n=16, rad_value=1.0, l_k=0.3, t=0.5)


def test_bound_rhs_validation():
    with pytest.raises(ValueError):
        bound_rhs("nosuch", n=4)
    with pytest.raises(ValueError):
        bound_rhs("thm-main-product", spectrum=[1.0, 2.0], p=2.0)  # ascending
    with pytest.raises(ValueError):
        bound_rhs("thm-main-product", spectrum=[1.0, -1.0], p=2.0)
    with pytest.raises(ValueError):
        bound_rhs("thm-main-product", spectrum=[1.0], p=0.5)
    with pytest.raises(ValueError, match="bound kind 'sudakov' is missing parameter 'mstar'"):
        bound_rhs("sudakov", n=4, t=1.0)
    with pytest.raises(ValueError, match="bound kind 'sudakov' does not read 'p'"):
        bound_rhs("sudakov", n=4, mstar=1.0, t=1.0, p=3.0)
    with pytest.raises(ValueError, match="'k', 'rad'"):
        bound_rhs("summary-piecewise", n=16, p=4.0, k=2, rad=RadModel("unit"))
