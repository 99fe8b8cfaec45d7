import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from isoconv.bodies import cube, cross_polytope, unit_volume_copy
from isoconv.functionals import RadModel
from isoconv.experiments import (
    SUITE_NAMES,
    SUITES,
    Row,
    SuiteConfig,
    emit_report,
    fit_scaling_slope,
    qm_body,
    rows_to_records,
    run_suite,
)
from isoconv.measures import draw_samples, uniform_body_measure
from isoconv.seeds import sphere_directions


# ---------------------------------------------------------------------------
# slope fitting
# ---------------------------------------------------------------------------


def test_fit_scaling_slope_exact_half():
    pairs = [(n, math.sqrt(n)) for n in (4, 8, 16, 32, 64)]
    slope, intercept, half = fit_scaling_slope(pairs)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert half == pytest.approx(0.0, abs=1e-12)


def test_fit_scaling_slope_linear():
    slope, _, _ = fit_scaling_slope([(n, 3.0 * n) for n in (2, 4, 8, 16)])
    assert slope == pytest.approx(1.0, abs=1e-12)


def test_fit_scaling_slope_validation():
    with pytest.raises(ValueError):
        fit_scaling_slope([(4, 2.0), (8, 3.0), (16, 4.0)])  # too few
    with pytest.raises(ValueError):
        fit_scaling_slope([(4, 1.0), (8, -1.0), (16, 1.0), (32, 1.0)])
    with pytest.raises(ValueError):
        fit_scaling_slope([(4, 1.0)] * 5)  # all n equal


# ---------------------------------------------------------------------------
# Q_m construction
# ---------------------------------------------------------------------------


def test_qm_from_unit_square_is_unit_cube():
    # L of the unit-volume 1-d ball equals L of the cube, so both scale
    # factors collapse to 1 and Q_3 = [-1/2, 1/2]^3 exactly
    Q = qm_body(cube(2, side=1.0), 3)
    ref = cube(3, side=1.0)
    dirs = sphere_directions(3, 256, seed=1)
    assert np.allclose(Q.support(dirs), ref.support(dirs), rtol=1e-12)


def test_qm_body_unit_volume():
    for K, m in ((cube(2, side=1.0), 6), (unit_volume_copy(cross_polytope(2)), 5)):
        Q = qm_body(K, m)
        assert Q.dim == m
        assert Q.analytic["log_volume"] == pytest.approx(0.0, abs=1e-10)


def test_qm_body_isotropic_covariance():
    # empirical covariance of uniform(Q_m) is a multiple of the identity
    Q = qm_body(cube(2, side=1.0), 4)
    s = draw_samples(uniform_body_measure(Q), 200_000, seed=2)
    cov = (s.points.T @ s.points) / s.count
    diag = np.diag(cov)
    assert np.abs(diag - diag.mean()).max() / diag.mean() < 0.05
    off = cov - np.diag(diag)
    assert np.abs(off).max() / diag.mean() < 0.05


def test_qm_body_requires_m_above_n():
    with pytest.raises(ValueError):
        qm_body(cube(3, side=1.0), 3)


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

FAST = SuiteConfig(seed=5, samples=4000, sphere_samples=2000, trials=4,
                   hull_directions=800)


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("nosuch", [4], FAST)
    with pytest.raises(ValueError):
        run_suite("paouris", [], FAST)


def test_run_suite_rows_reproducible():
    a = run_suite("paouris", [4], FAST)
    b = run_suite("paouris", [4], FAST)
    assert a.rows == b.rows
    assert a.assertions == b.assertions
    c = run_suite("paouris", [4], SuiteConfig(seed=6, samples=4000,
                                              sphere_samples=2000, trials=4,
                                              hull_directions=800))
    assert a.rows != c.rows


def test_every_suite_runs_small():
    dims_for = {
        "theorem1": [3, 4],
        "paouris": [4],
        "thm-main-aniso": [4],
        "b1-scaling": [4, 6, 8, 12],
        "qm-isotropy": [3],
        "kubota": [4],
        "zn-volrad": [3],
        "covering-regularity": [2],
    }
    assert set(dims_for) == set(SUITE_NAMES)
    for name, dims in dims_for.items():
        result = run_suite(name, dims, FAST)
        assert result.suite == name
        assert result.rows, name
        assert result.assertions, name
        for row in result.rows:
            assert row.suite == name
            assert math.isfinite(row.value)


# a second value for every SuiteConfig field but seed, which every suite reads
_OTHER = {"samples": 3000, "sphere_samples": 1500, "trials": 3, "hull_directions": 600,
          "rad": RadModel("log-min"), "p_values": (1.0, 3.0)}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_a_suite_reads_exactly_its_reads(name):
    fields = {f.name for f in dataclasses.fields(SuiteConfig)} - {"seed"}
    assert set(_OTHER) == fields
    suite = SUITES[name]
    base = run_suite(name, suite.dims, FAST).rows
    unread = {f: v for f, v in _OTHER.items() if f not in suite.reads}
    assert run_suite(name, suite.dims, dataclasses.replace(FAST, **unread)).rows == base
    for field in suite.reads:
        cfg = dataclasses.replace(FAST, **{field: _OTHER[field]})
        assert run_suite(name, suite.dims, cfg).rows != base, field


def test_paouris_flatness_is_exact_when_every_mstar_is():
    rows = {r.quantity: r for r in run_suite("paouris", [4], FAST).rows}
    assert rows["flatness-gaussian"].direction == "exact"
    assert rows["flatness-cube"].direction == "mc"


def test_b1_scaling_rows_are_exact_and_read_no_sphere_samples():
    rows = run_suite("b1-scaling", [4, 6, 8, 12], FAST).rows
    assert {(r.direction, r.std_error) for r in rows} == {("exact", 0.0)}
    assert [r.samples for r in rows] == [0, 0, 0, 0, 4]
    # an unread field is not checked either: mean_width would reject 1 direction
    assert run_suite("b1-scaling", [4, 6, 8, 12],
                     dataclasses.replace(FAST, sphere_samples=1)).rows == rows


def test_theorem1_bound_is_twice_the_ratio_at_the_smallest_n():
    # the dims are not sorted: n = 4 is the reference, not the first listed
    result = run_suite("theorem1", [8, 4], SuiteConfig(seed=1, samples=2000,
                                                       sphere_samples=500))
    assert len(result.assertions) == 2
    for fam in ("cube", "cross"):
        (ratio,) = [r.value for r in result.rows
                    if r.quantity == f"thm1-ratio-{fam}" and r.n == 4]
        (a,) = [a for a in result.assertions if a.name == f"theorem1-ratio-bounded-{fam}"]
        assert a.detail.endswith(f"2x smallest-n ratio {2.0 * ratio:.4f}")


def test_theorem1_draws_no_samples(monkeypatch):
    # L_K is the body's exact isotropic constant; only M* is random
    from isoconv import experiments

    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("draw_samples", "estimate_moments"):
        monkeypatch.setattr(experiments, name, counting(getattr(experiments, name)))
    run_suite("theorem1", [4, 8], SuiteConfig(seed=2, sphere_samples=200))
    assert calls == []


def test_theorem1_builds_one_cross_polytope_per_n(monkeypatch):
    # each cross-polytope build runs its E||g||_inf quadrature, so the cube
    # family's rows build none
    from isoconv import bodies

    builds = []
    lp_ball = bodies.lp_ball

    def counting(dim, p, radius=1.0):
        builds.append((dim, p))
        return lp_ball(dim, p, radius)

    monkeypatch.setattr(bodies, "lp_ball", counting)
    run_suite("theorem1", [4, 8], SuiteConfig(seed=2, sphere_samples=200))
    assert [dim for dim, p in builds if p == 1.0] == [4, 8]


def test_theorem1_l_rows_are_exact_and_ratios_carry_the_mstar_se():
    from isoconv.isotropy import exact_isotropic_constant

    rows = {(r.quantity, r.n): r for r in
            run_suite("theorem1", [4, 8], SuiteConfig(seed=3, sphere_samples=300)).rows}
    for n in (4, 8):
        for fam, K in (("cube", cube(n, side=1.0)),
                       ("cross", unit_volume_copy(cross_polytope(n)))):
            l_k = rows[(f"l-{fam}", n)]
            assert (l_k.value, l_k.std_error, l_k.direction, l_k.samples) == (
                exact_isotropic_constant(K), 0.0, "exact", 0)
            mstar, ratio = rows[(f"mstar-{fam}", n)], rows[(f"thm1-ratio-{fam}", n)]
            den = math.sqrt(n) * math.log1p(n) ** 2 * l_k.value
            # the cube's M* is sampled, the cross-polytope's exact
            label, samples = {"cube": ("mc", 300), "cross": ("exact", 0)}[fam]
            assert mstar.direction == ratio.direction == label
            assert mstar.samples == samples and (mstar.std_error == 0.0) == (label == "exact")
            assert ratio.value == pytest.approx(mstar.value / den, rel=1e-12)
            assert ratio.std_error == pytest.approx(mstar.std_error / den, rel=1e-12)


def test_one_dimensional_rows_take_their_estimates_exact_label():
    # in R^1 the greedy covering radii are e_j = L / 2^{j+1} and a Z_n hull is
    # its interval, both exact; from n = 2 on both are upper bounds.  The
    # zn-ratio rows divide by a sampled det_root, so they are mc at every n
    cover = run_suite("covering-regularity", [1, 2], FAST)
    radii = {(r.n, r.quantity): r for r in cover.rows if r.quantity.startswith("cover-radius")}
    for j in range(1, 9):
        assert radii[1, f"cover-radius-j{j}"].direction == "exact"
        assert radii[1, f"cover-radius-j{j}"].value == 0.5 ** (j + 1)
        assert radii[2, f"cover-radius-j{j}"].direction == "upper"
    zn = run_suite("zn-volrad", [1, 3], FAST)
    labels = {(r.n, r.quantity): r.direction for r in zn.rows}
    for fam in ("cube", "cross"):
        assert labels[1, f"volrad-zn-{fam}"] == "exact"
        assert labels[3, f"volrad-zn-{fam}"] == "upper"
        assert labels[1, f"zn-ratio-{fam}"] == labels[3, f"zn-ratio-{fam}"] == "mc"


def test_suite_seed_recorded_in_rows():
    r = run_suite("zn-volrad", [3], FAST)
    assert all(isinstance(row.seed, int) for row in r.rows)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _tiny_result():
    return run_suite("zn-volrad", [3], FAST)


def test_rows_to_records_formats():
    rows = [Row("s", 3, None, "q", 1.5, 0.0, "mc", 7, 10),
            Row("s", 3, 2.0, "q2", 0.1, 0.01, "upper", 7, 10)]
    recs = rows_to_records(rows)
    assert recs[0]["p"] == ""
    assert recs[1]["p"] == "2.0"
    assert recs[0]["value"] == "1.5"
    assert float(recs[1]["std_error"]) == 0.01


def test_emit_csv_roundtrip(tmp_path):
    result = _tiny_result()
    path = tmp_path / "out.csv"
    emit_report(result, {}, "csv", str(path))
    with open(path, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert len(got) == len(result.rows)
    for rec, row in zip(got, result.rows):
        assert rec["suite"] == row.suite
        assert int(rec["n"]) == row.n
        # repr round-trips the float exactly
        assert float(rec["value"]) == row.value
        assert int(rec["seed"]) == row.seed


def test_emit_csv_header_order(tmp_path):
    path = tmp_path / "o.csv"
    emit_report(_tiny_result(), {}, "csv", str(path))
    header = open(path).readline().strip()
    assert header == "suite,n,p,quantity,value,std_error,direction,seed,samples"


def test_emit_json_roundtrip(tmp_path):
    result = _tiny_result()
    path = tmp_path / "out.json"
    config = {"dims": [3], "samples": FAST.samples, "seed": FAST.seed}
    emit_report(result, config, "json", str(path))
    payload = json.loads(open(path).read())
    assert payload["meta"]["suite"] == "zn-volrad"
    assert payload["meta"]["passed"] == result.passed
    assert payload["meta"]["config"] == config
    assert len(payload["rows"]) == len(result.rows)
    # re-serialization is stable
    again = json.dumps(payload, indent=2)
    assert json.loads(again) == payload


def test_emit_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_report(_tiny_result(), {}, "yaml", str(tmp_path / "x"))


# Frozen at SuiteConfig(seed=7, samples=20000, sphere_samples=4000,
# trials=8, hull_directions=1500).  The two-sided constants in the volume
# bound for Z_n are not pinned down, so the suite only records the ratios;
# these pins are what makes that meaningful as a regression check.
_ZN_PINNED = {
    (3, "volrad-zn-cube"): 0.3260162814481217,
    (3, "zn-ratio-cube"): 0.18770712206823773,
    (4, "volrad-zn-cube"): 0.3616835851500588,
    (4, "zn-ratio-cube"): 0.18055085357691456,
    (3, "volrad-zn-cross"): 0.32358456379655676,
    (3, "zn-ratio-cross"): 0.18680083479852513,
    (4, "volrad-zn-cross"): 0.3575689676448609,
    (4, "zn-ratio-cross"): 0.1786372770525511,
}


def test_zn_volrad_regression_pins():
    cfg = SuiteConfig(seed=7, samples=20000, sphere_samples=4000, trials=8,
                      hull_directions=1500)
    result = run_suite("zn-volrad", [3, 4], cfg)
    got = {(r.n, r.quantity): r.value for r in result.rows}
    assert set(got) == set(_ZN_PINNED)
    for key, pinned in _ZN_PINNED.items():
        assert got[key] == pytest.approx(pinned, rel=1e-9), key


@pytest.mark.parametrize("suite,draws,p_values", [
    pytest.param("thm-main-aniso", 0, None, id="thm-main-aniso-0"),
    pytest.param("paouris", 1, None, id="paouris-1"),
    pytest.param("paouris", 0, (2.0, 4.0, 8.0), id="paouris-even-p-0"),
])
def test_gaussian_sources_draw_no_samples(suite, draws, p_values, monkeypatch):
    # every Gaussian Z_p is exact, and so is the cube's at even p; paouris's
    # default grid starts at p = 1, where the cube source is sampled
    from isoconv import experiments

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return draw_samples(*args, **kwargs)

    monkeypatch.setattr(experiments, "draw_samples", counting)
    run_suite(suite, [8], SuiteConfig(seed=2, samples=2000, sphere_samples=200,
                                      p_values=p_values))
    assert len(calls) == draws


def test_gaussian_mstar_rows_are_exact_and_ratios_carry_their_se():
    # an exact ball's M* is exact; the cube's exact Z_8 has an mc M* over the
    # 200 sphere directions, and only its sampled Z_1 counts the 2000 samples.
    # thm-main-aniso's M* rows state sqrt(n) M*(Z_p) and its ratios
    # M*(Z_p)/bound, so there the M* row is divided by sqrt(n) too, which
    # rounds differently from the suite's own quotient
    cfg = SuiteConfig(seed=4, samples=2000, sphere_samples=200, p_values=(1.0, 2.0, 8.0))
    for suite, mstar, ratio, scale, exact_rows in (
        ("thm-main-aniso", "sqrtn-mstar-zp", "ratio", math.sqrt(8), {"flat": (1.0, 2.0, 8.0)}),
        ("paouris", "mstar-zp", "paouris-ratio", 1.0,
         {"gaussian": (1.0, 2.0, 8.0), "cube": (2.0,)}),
    ):
        rel = 0.0 if scale == 1.0 else 1e-15
        rows = run_suite(suite, [8], cfg).rows
        bounds = {(r.quantity, r.p): r.value for r in rows if r.quantity.startswith("bound-")}
        by_key = {(r.quantity, r.p): r for r in rows}
        for r in rows:
            if not r.quantity.startswith(mstar + "-"):
                continue
            kind = r.quantity.removeprefix(mstar + "-")
            if r.p in exact_rows.get(kind, ()):
                assert (r.direction, r.std_error, r.samples) == ("exact", 0.0, 200), r
            else:
                assert r.direction == "mc" and r.std_error > 0, r
                assert r.samples == (2000 if (kind, r.p) == ("cube", 1.0) else 200), r
            den = scale * bounds.get((f"bound-arith-{kind}", r.p), math.sqrt(r.p))
            q = by_key[(f"{ratio}-{kind}", r.p)]
            assert q.direction == r.direction
            assert q.value == pytest.approx(r.value / den, rel=rel, abs=0.0)
            assert q.std_error == pytest.approx(r.std_error / den, rel=rel, abs=0.0)


def test_kubota_makes_one_full_dimensional_zp_pass_per_p(monkeypatch):
    # the touching points give the inner hull, and by Euler's identity the
    # outer hull's support values; only the projections pass over samples
    # again, and those are the samples projected to R^2 and R^3
    from isoconv import centroid

    passes = []

    def counting(kernel):
        def wrapped(samples, p, directions):
            if samples.dim == 4:
                passes.append((kernel.__name__, p))
            return kernel(samples, p, directions)
        return wrapped

    for name in ("zp_support", "zp_touching_points"):
        monkeypatch.setattr(centroid, name, counting(getattr(centroid, name)))
    cfg = SuiteConfig(seed=3, samples=1000, trials=2, hull_directions=300)
    result = run_suite("kubota", [4], cfg)
    assert [r.quantity for r in result.rows].count("volrad-zp-outer") == 2
    assert passes == [("zp_touching_points", 2.0), ("zp_touching_points", 3.0)]
