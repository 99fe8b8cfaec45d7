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
    lp_ball_log_volume,
    parse_body,
    product_body,
    scale_body,
    unit_volume_copy,
)
from isoconv.grassmann import volume_radius_lowdim
from isoconv.seeds import rng_from, sphere_directions


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------


def test_ball_volume_known_values():
    assert ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_lp_ball_volume_matches_special_cases():
    # p=2 ball, p=1 cross-polytope (2^n/n!), p->inf not supported here but
    # large p approaches the cube volume 2^n.  Logs to abs 1e-12 are volumes
    # to rel 1e-12.
    assert lp_ball_log_volume(3, 2.0) == pytest.approx(math.log(ball_volume(3)), abs=1e-12)
    assert lp_ball_log_volume(4, 1.0) == pytest.approx(
        math.log(2.0**4 / math.factorial(4)), abs=1e-12
    )
    assert lp_ball_log_volume(3, 200.0) == pytest.approx(math.log(8.0), abs=1e-2)
    assert lp_ball(2, 1.0, radius=2.0).analytic["log_volume"] == pytest.approx(
        math.log(8.0), abs=1e-12
    )


# ---------------------------------------------------------------------------
# support functions against closed forms
# ---------------------------------------------------------------------------


def test_ball_support_is_radius_times_norm():
    B = ball(5, radius=2.5)
    theta = np.array([[3.0, 0.0, 4.0, 0.0, 0.0]])
    assert B.support(theta) == pytest.approx([2.5 * 5.0], rel=1e-14)
    batch = sphere_directions(5, 64, seed=1)
    assert np.allclose(B.support(batch), 2.5, atol=1e-12)


def test_cube_support_is_half_side_l1():
    K = cube(3, side=2.0)
    assert K.support(np.array([[1.0, -2.0, 3.0]])) == pytest.approx([6.0], rel=1e-14)
    K1 = cube(3, side=1.0)
    assert K1.support(np.array([[1.0, 1.0, 1.0]])) == pytest.approx([1.5], rel=1e-14)


def test_cross_polytope_support_is_max_norm():
    K = cross_polytope(4)
    assert K.support(np.array([[1.0, -7.0, 2.0, 0.5]])) == pytest.approx([7.0], rel=1e-14)


def test_lp_ball_support_is_dual_norm():
    # h_{B_p}(theta) = ||theta||_q with 1/p + 1/q = 1
    p = 3.0
    q = p / (p - 1.0)
    K = lp_ball(3, p)
    theta = np.array([[1.0, 2.0, -2.0]])
    expected = (np.abs(theta) ** q).sum(axis=1) ** (1.0 / q)
    assert K.support(theta) == pytest.approx(expected, rel=1e-12)


def test_ellipsoid_support_closed_form():
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    E = ellipsoid(A)
    theta = np.array([[0.3, -1.2]])
    assert E.support(theta) == pytest.approx([np.linalg.norm(A.T @ theta[0])], rel=1e-12)
    assert E.analytic["log_volume"] == pytest.approx(
        math.log(abs(np.linalg.det(A)) * math.pi), abs=1e-12
    )


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
    theta = np.array([[1.0, 2.0, -1.0]])
    assert K2.support(theta) == pytest.approx(0.5 * K.support(theta), rel=1e-14)
    assert K2.analytic["log_volume"] == pytest.approx(0.0, abs=1e-12)
    assert K2.analytic["cube_half_side"] == 0.5
    assert scale_body(lp_ball(3, 1.0, 2.0), 0.25).analytic["cross_radius"] == 0.5


def test_unit_volume_copy():
    K = unit_volume_copy(ball(3, radius=2.0))
    assert K.analytic["log_volume"] == pytest.approx(0.0, abs=1e-12)
    # radius must be (3/(4 pi))^(1/3)
    r = (1.0 / ball_volume(3)) ** (1.0 / 3.0) * 2.0 / 2.0
    assert K.support(np.array([[1.0, 0.0, 0.0]])) == pytest.approx([r], rel=1e-12)


@pytest.mark.parametrize("n", [197, 256, 1000])
def test_unit_volume_copy_of_cross_polytope_past_float_range(n):
    # vol B_1^n = 2^n/n! leaves the float range, so the scale comes from its log
    K = unit_volume_copy(cross_polytope(n))
    scale = math.exp((math.lgamma(n + 1) - n * math.log(2.0)) / n)
    e1 = np.zeros((1, n))
    e1[0, 0] = 1.0
    assert K.support(e1) == pytest.approx([scale], rel=1e-12)
    assert K.analytic["log_volume"] == pytest.approx(0.0, abs=1e-12)


def test_ball_past_gamma_overflow_takes_its_facts_from_logs():
    # Gamma(n/2 + 1) overflows from n = 342 on; log vol B_2^n does not
    n = 1000
    K = ball(n)
    expected = math.exp(-bodies.lp_ball_log_volume(n, 2.0) / n) / math.sqrt(n + 2)
    assert K.analytic["isotropic_constant"] == pytest.approx(expected, rel=1e-12)
    assert lp_ball(n, 2.0).analytic["isotropic_constant"] == pytest.approx(
        expected, rel=1e-12
    )
    assert K.analytic["log_volume"] == bodies.lp_ball_log_volume(n, 2.0)


def test_ellipsoid_past_gamma_overflow_takes_its_volume_from_logs():
    n = 400
    E = ellipsoid(np.eye(n))
    expected = bodies.lp_ball_log_volume(n, 2.0)
    assert E.analytic["log_volume"] == pytest.approx(expected, rel=1e-12)
    # the volume radius is read from the log, so it is exact where vol B_2^n is not
    assert volume_radius_lowdim(E).value == pytest.approx(1.0, rel=1e-12)


def test_unit_volume_copy_requires_volume():
    free = bodies.ConvexBody(dim=2, support=lambda t: np.linalg.norm(t, axis=-1))
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
    assert P.analytic["log_volume"] == pytest.approx(math.log(4.0 * ball_volume(3)), abs=1e-12)


def test_product_body_membership():
    P = product_body(cube(1, side=2.0), ball(2))
    points = np.array([[0.9, 0.3, 0.3], [1.1, 0.0, 0.0], [0.0, 1.0, 0.5]])
    assert P.membership(points).tolist() == [True, False, False]


# ---------------------------------------------------------------------------
# descriptor grammar
# ---------------------------------------------------------------------------


def test_parse_body_families():
    assert parse_body("ball:8").dim == 8
    assert parse_body("ball:8").support(np.eye(8)[:1]) == pytest.approx([1.0])
    assert parse_body("cube:4:1").support(np.ones((1, 4))) == pytest.approx([2.0])
    assert parse_body("cross:3").support(np.array([[0.0, 2.0, 0.0]])) == pytest.approx([2.0])
    assert parse_body("lpball:3:1.5").dim == 3
    K = parse_body("unitcube:5")
    assert K.analytic["log_volume"] == pytest.approx(0.0, abs=1e-12)


def test_parse_body_b1tilde_is_unit_volume_cross():
    K = parse_body("b1tilde:4")
    assert K.analytic["log_volume"] == pytest.approx(0.0, abs=1e-10)
    r = (math.factorial(4) / 2.0**4) ** (1.0 / 4.0)
    assert K.support(np.array([[1.0, 0.0, 0.0, 0.0]])) == pytest.approx([r], rel=1e-12)


def test_parse_body_rejects_garbage():
    for bad in ("", "ball", "ball:0", "ball:-3", "nosuch:4", "cube:2:0",
                "lpball:3:0.5", "ball:2.5"):
        with pytest.raises((BodyConstructionError, ValueError)):
            parse_body(bad)


def test_parse_body_ellipsoid_from_file(tmp_path):
    f = tmp_path / "diag.csv"
    f.write_text("2.0\n1.0\n0.5\n")
    E = parse_body(f"ellipsoid:3:@{f}")
    assert E.support(np.array([[1.0, 0.0, 0.0]])) == pytest.approx([2.0], rel=1e-12)
    assert E.analytic["log_volume"] == pytest.approx(math.log(ball_volume(3)), abs=1e-12)


def _family_descriptors(tmp_path, dim):
    # one descriptor per family and field count it takes; a family that takes
    # a field needs a valid one here
    f = tmp_path / "diag.csv"
    f.write_text("\n".join(["1.5"] * dim))
    field = {"cube": "1.5", "lpball": "3", "unitlpball": "3", "ellipsoid": f"@{f}"}
    for family, (counts, _) in bodies._FAMILIES.items():
        for count in counts:
            yield ":".join([family, str(dim), *[field.get(family)] * count])


@pytest.mark.parametrize("dim", [1, 4])
def test_every_family_in_the_table_builds_a_body_of_its_dim(tmp_path, dim):
    assert set(bodies._FAMILIES) == {
        "ball", "cube", "cross", "crosspoly", "cross-polytope", "lpball", "ellipsoid",
        "unitball", "unitcube", "unitcross", "b1tilde", "unitlpball"}
    descriptors = list(_family_descriptors(tmp_path, dim))
    assert len(descriptors) == 13
    for descriptor in descriptors:
        assert parse_body(descriptor).dim == dim, descriptor


def test_each_alias_is_its_family_bit_for_bit():
    records = {}
    for family, record in bodies._FAMILIES.items():
        records.setdefault(id(record), []).append(family)
    groups = sorted(names for names in records.values() if len(names) > 1)
    assert groups == [["cross", "crosspoly", "cross-polytope"], ["unitcross", "b1tilde"]]
    dirs = sphere_directions(5, 200, seed=9)
    for canonical, *aliases in groups:
        K = parse_body(f"{canonical}:5")
        for alias in aliases:
            L = parse_body(f"{alias}:5")
            assert np.array_equal(L.support(dirs), K.support(dirs)), alias
            assert L.analytic == K.analytic, alias


# the field counts each family takes, as its error message states them
_TAKES = {"ball": "0 fields", "cube": "0 or 1 fields", "cross": "0 fields",
          "crosspoly": "0 fields", "cross-polytope": "0 fields", "lpball": "1 field",
          "ellipsoid": "1 field", "unitball": "0 fields", "unitcube": "0 fields",
          "unitcross": "0 fields", "b1tilde": "0 fields", "unitlpball": "1 field"}


def test_every_family_rejects_a_wrong_field_count_with_its_message():
    assert set(_TAKES) == set(bodies._FAMILIES)
    for family, takes in _TAKES.items():
        accepted = {int(word) for word in takes.split() if word.isdigit()}
        for count in sorted(set(range(4)) - accepted):
            descriptor = ":".join([family, "3", *["2"] * count])
            with pytest.raises(BodyConstructionError) as exc:
                parse_body(descriptor)
            assert str(exc.value) == (f"body family {family!r} takes {takes} after the dim, "
                                      f"got {count} in {descriptor!r}")


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------


def _direct_cross_polytope_sample(dim, radius, count, seed):
    # reference: sign_i G_i^{1/p} / ||G||_p * radius * U^{1/n} at p = 1,
    # identity powers and fresh temporaries included
    rng = rng_from(seed)
    g = rng.gamma(1.0, 1.0, size=(count, dim)) ** 1.0
    signs = rng.integers(0, 2, size=(count, dim)) * 2.0 - 1.0
    w = g * signs
    norms = np.power(np.abs(w), 1.0).sum(axis=1) ** 1.0
    radial = rng.uniform(0.0, 1.0, size=count) ** (1.0 / dim)
    return radius * radial[:, None] * w / norms[:, None]


@pytest.mark.parametrize("n", [1, 3, 128])
def test_cross_polytope_sampler_is_bit_identical_to_the_direct_formula(n):
    for radius in (1.0, 2.5):
        K = lp_ball(n, 1.0, radius)
        t = math.exp(-K.analytic["log_volume"] / n)
        for seed in (4, 5):
            direct = _direct_cross_polytope_sample(n, radius, 2000, seed)
            assert np.array_equal(K.sample_exact(2000, seed), direct)
            assert np.array_equal(
                unit_volume_copy(K).sample_exact(2000, seed), t * direct
            )


def test_lp_ball_sampler_at_large_p_is_finite_and_uniform():
    # Gamma(1/p) underflows to 0 at large p; the boosted draw must not
    n, p, count = 3, 400.0, 40_000
    x = lp_ball(n, p).sample_exact(count, 6)
    assert np.all(np.isfinite(x))
    assert np.all(x != 0.0)
    # P(||x||_p <= 1/2) = 2^-n for the uniform law on B_p^n; the norm is
    # max-scaled, so that |x_i|^p cannot underflow
    a = np.abs(x)
    peak = a.max(axis=1)
    norm = peak * ((a / peak[:, None]) ** p).sum(axis=1) ** (1.0 / p)
    inside = (norm <= 0.5).mean()
    q = 2.0**-n
    assert abs(inside - q) <= 6.0 * math.sqrt(q * (1.0 - q) / count)
    # E x_1^2 = n/(n+2) * Gamma(3/p) Gamma(n/p) / (Gamma(1/p) Gamma((n+2)/p))
    second = n / (n + 2.0) * math.exp(
        math.lgamma(3.0 / p) + math.lgamma(n / p)
        - math.lgamma(1.0 / p) - math.lgamma((n + 2.0) / p)
    )
    sq = x**2
    se = sq.std(axis=0, ddof=1) / math.sqrt(count)
    assert np.all(np.abs(sq.mean(axis=0) - second) <= 6.0 * se)


def test_lp_ball_membership_at_large_p_and_radius_not_one():
    # sum |x_i|^p against r^p: both sides underflow to 0 at r = 0.5, p = 2000,
    # and r^p overflows at r = 4, p = 600
    small = lp_ball(3, 2000.0, 0.5).membership(np.array([[0.6, 0.0, 0.0], [0.49, 0.49, 0.0]]))
    assert small.tolist() == [False, True]
    large = lp_ball(3, 600.0, 4.0).membership(np.array([[10.0, 0.0, 0.0], [3.9, -3.9, 3.9]]))
    assert large.tolist() == [False, True]


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
    # every range check is written so that NaN fails it too
    for build in (lambda v: cube(2, side=v), lambda v: lp_ball(2, 3.0, radius=v),
                  lambda v: scale_body(cube(2), v)):
        for value in (math.nan, math.inf):
            with pytest.raises(BodyConstructionError, match="positive and finite"):
                build(value)
    with pytest.raises(BodyConstructionError, match="got nan"):
        lp_ball(2, math.nan)


