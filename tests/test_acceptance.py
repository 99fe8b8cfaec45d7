"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Statistical criteria run at the sample sizes stated in their docstrings with
fixed seeds, so every run evaluates the same numbers.  Tolerances are 3 SE
for Monte Carlo quantities and 1e-12 relative for exact identities.
"""

import math

import numpy as np

from isoconv.bodies import ball, cross_polytope, cube, product_body, unit_volume_copy
from isoconv.centroid import zp_support
from isoconv.experiments import SuiteConfig, qm_body, rows_to_records, run_suite
from isoconv.functionals import bound_rhs, entropy_numbers, mean_width
from isoconv.grassmann import project_samples, random_subspace, vk_estimate, volume_radius_lowdim
from isoconv.isotropy import estimate_moments, isotropic_constant
from isoconv.measures import (
    SampleSet,
    draw_samples,
    exponential_product_measure,
    gaussian_measure,
    uniform_body_measure,
)
from isoconv.seeds import child_seed, rng_from, sphere_directions


def _report(capsys, criterion: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


def _subset(samples: SampleSet, lo: int, hi: int) -> SampleSet:
    return SampleSet(samples.points[lo:hi].copy())


# ---------------------------------------------------------------------------
# 1. exact empirical identities
# ---------------------------------------------------------------------------


def test_criterion_1_exact_identities(capsys):
    """Deterministic identities at 1e-12 relative (whitened Z_2 at 1e-8)."""
    dirs = sphere_directions(4, 1000, seed=101)
    sample_sets = [
        draw_samples(gaussian_measure(4), 3000, seed=102),
        draw_samples(uniform_body_measure(cube(4, side=1.0)), 3000, seed=103),
        draw_samples(exponential_product_measure(4), 3000, seed=104),
    ]
    # power-mean inequality h_{Z_p} <= h_{Z_q} for p <= q: relative violation
    worst_mono = 0.0
    for s in sample_sets:
        for p, q in ((1.0, 2.0), (2.0, 8.0), (8.0, 64.0), (1.0, 512.0)):
            h_p, h_q = zp_support(s, p, dirs), zp_support(s, q, dirs)
            worst_mono = max(worst_mono,
                             float(((h_p - h_q) / np.maximum(h_q, 1e-300)).max()))

    rng = rng_from(105)
    s5 = draw_samples(gaussian_measure(5), 2000, seed=106)
    worst_proj = 0.0
    for i in range(100):
        k = int(rng.integers(1, 5))
        p = float(rng.uniform(1.0, 16.0))
        F = random_subspace(5, k, child_seed(107, i))
        theta = sphere_directions(k, 1, child_seed(108, i))
        # h_{Z_p(S)}(B u) = h_{Z_p(P_F S)}(u), since <x, B u> = <B^T x, u>
        h_full = zp_support(s5, p, theta @ F.basis.T)
        h_proj = zp_support(project_samples(s5, F), p, theta)
        scale = np.maximum(np.maximum(h_full, h_proj), 1e-300)
        worst_proj = max(worst_proj, float((np.abs(h_full - h_proj) / scale).max()))

    # whitened by the symmetric C^{-1/2}, the samples have Z_2 = B_2
    m = estimate_moments(s5)
    w, V = np.linalg.eigh(m.covariance)
    T = (V * (1.0 / np.sqrt(w))) @ V.T
    white = SampleSet((s5.points - m.barycenter) @ T.T)
    z2_dev = float(np.abs(zp_support(white, 2.0, sphere_directions(5, 500, 109)) - 1.0).max())

    worst_amgm = 0.0
    for i in range(1000):
        n = int(rng.integers(2, 24))
        lam = np.sort(rng.uniform(0.05, 4.0, size=n))[::-1]
        p = float(rng.uniform(1.0, 64.0))
        a = bound_rhs("thm-main-arith", spectrum=lam, p=p)
        g = bound_rhs("thm-main-product", spectrum=lam, p=p)
        worst_amgm = max(worst_amgm, (g - a) / a)

    ok = worst_mono < 1e-12 and worst_proj < 1e-12 and z2_dev < 1e-8 and worst_amgm < 1e-12
    _report(capsys, "criterion-1 exact-identities", ok,
            f"mono {worst_mono:.1e}, proj {worst_proj:.1e}, Z2 {z2_dev:.1e}, "
            f"AM-GM {worst_amgm:.1e}")


# ---------------------------------------------------------------------------
# 2. oracle values at N = 2e5, 3 SE
# ---------------------------------------------------------------------------


def test_criterion_2_oracle_values(capsys):
    """Gaussian c_p, sampled and stated M*(square) and L values vs closed forms."""
    N = 200_000
    failures = []

    s = draw_samples(gaussian_measure(4), N, seed=201)
    dirs = sphere_directions(4, 64, seed=202)
    batches = 10
    for p, cp in ((1.0, math.sqrt(2.0 / math.pi)), (2.0, 1.0), (4.0, 3.0**0.25)):
        stats = [zp_support(_subset(s, i * N // batches, (i + 1) * N // batches),
                            p, dirs).mean() for i in range(batches)]
        value = zp_support(s, p, dirs).mean()
        se = float(np.std(stats, ddof=1)) / math.sqrt(batches)
        if abs(value - cp) > 3.0 * se:
            failures.append(f"c_{p:g}: {value:.5f} vs {cp:.5f} (3SE {3 * se:.5f})")

    # the Monte Carlo estimator on the square [-1, 1]^2 as a product of two
    # segments, which states no M*; the cube itself states 4/pi
    square = product_body(cube(1, side=2.0), cube(1, side=2.0))
    mw = mean_width(square, sphere_samples=N, seed=203)
    if mw.direction != "mc" or abs(mw.value - 4.0 / math.pi) > 3.0 * mw.std_error:
        failures.append(f"M*(square): {mw.value:.5f} vs {4 / math.pi:.5f}")
    stated = mean_width(cube(2, side=2.0)).value
    if abs(stated - 4.0 / math.pi) > 1e-15:
        failures.append(f"stated M*(square): {stated!r} vs {4 / math.pi!r}")

    target_l = math.sqrt(1.0 / 12.0)
    batches = 8
    for name, K in (("cube", cube(2, side=1.0)),
                    ("cross", unit_volume_copy(cross_polytope(2)))):
        mu = uniform_body_measure(K)
        stats = []
        for i in range(batches):
            s = draw_samples(mu, N // batches, child_seed(204, i))
            stats.append(isotropic_constant(estimate_moments(s), mu.log_density_sup))
        est = float(np.mean(stats))
        se = float(np.std(stats, ddof=1)) / math.sqrt(batches)
        if abs(est - target_l) > 3.0 * se:
            failures.append(f"L({name}): {est:.5f} vs {target_l:.5f} (3SE {3 * se:.5f})")

    _report(capsys, "criterion-2 oracle-values", not failures,
            "all oracles within 3 SE at N=2e5" if not failures else "; ".join(failures))


# ---------------------------------------------------------------------------
# 3. Urysohn
# ---------------------------------------------------------------------------


def test_criterion_3_urysohn(capsys):
    failures = []
    ball_gap = 0.0
    for n in range(2, 7):
        for name, K in (("ball", ball(n)), ("cube", cube(n, side=2.0)),
                        ("cross", cross_polytope(n))):
            mstar = mean_width(K, sphere_samples=20_000, seed=child_seed(300 + n, 0))
            vr = volume_radius_lowdim(K, seed=child_seed(300 + n, 1))
            if mstar.value + 3.0 * (mstar.std_error + vr.std_error) < vr.value:
                failures.append(f"{name} dim {n}")
            if "ball_radius" in K.analytic:
                ball_gap = max(ball_gap, abs(mstar.value - vr.value))
    ok = not failures and ball_gap < 1e-8
    _report(capsys, "criterion-3 urysohn", ok,
            f"M* + 3SE >= volrad on dims 2-6; ball equality gap {ball_gap:.1e}"
            if ok else f"failed: {failures}, ball gap {ball_gap:.1e}")


# ---------------------------------------------------------------------------
# 4. Z_p flatness
# ---------------------------------------------------------------------------


def test_criterion_4_zp_flatness(capsys):
    """The paouris suite at n = 16, 64: max/min of M*(Z_p)/sqrt(p) <= 2."""
    cfg = SuiteConfig(seed=400, samples=50_000, sphere_samples=2000)
    result = run_suite("paouris", [16, 64], cfg)
    detail = [f"{r.quantity.removeprefix('flatness-')} n={r.n}: {r.value:.3f}"
              for r in result.rows if r.quantity.startswith("flatness-")]
    _report(capsys, "criterion-4 zp-flatness", result.passed,
            "max/min of M*(Z_p)/sqrt(p) over p in [1, sqrt(n)]: "
            + ", ".join(detail) + " (limit 2)")


# ---------------------------------------------------------------------------
# 5. spectral-shape transfer
# ---------------------------------------------------------------------------


def test_criterion_5_spectral_transfer(capsys):
    """The thm-main-aniso suite at n = 32, p in {2, 8, 32}: limit 1.5."""
    cfg = SuiteConfig(seed=500, samples=50_000, sphere_samples=2000)
    result = run_suite("thm-main-aniso", [32], cfg)
    _report(capsys, "criterion-5 spectral-transfer", result.passed,
            "; ".join(f"{a.name}: {a.detail}" for a in result.assertions))


# ---------------------------------------------------------------------------
# 6. tilde B_1^n scaling
# ---------------------------------------------------------------------------


def test_criterion_6_b1_scaling(capsys):
    """The b1-scaling suite at n = 8..128: slope of log M* in [0.50, 0.65]."""
    cfg = SuiteConfig(seed=600, sphere_samples=200_000)
    result = run_suite("b1-scaling", [8, 16, 32, 64, 128], cfg)
    _report(capsys, "criterion-6 b1-scaling", result.passed,
            f"slope {result.fitted['slope']:.4f} +- {result.fitted['half_width']:.4f} "
            "in [0.50, 0.65]")


# ---------------------------------------------------------------------------
# 7. Q_m isotropy
# ---------------------------------------------------------------------------


def test_criterion_7_qm_isotropy(capsys):
    N = 100_000
    tol = 5.0 / math.sqrt(N)
    worst = 0.0
    cases = []
    for name, K in (("cube", cube(4, side=1.0)), ("cross", unit_volume_copy(cross_polytope(2)))):
        for extra in (1, 4):
            m = K.dim + extra
            Q = qm_body(K, m)
            s = draw_samples(uniform_body_measure(Q), N, seed=700 + m)
            cov = (s.points.T @ s.points) / s.count
            diag = np.diag(cov)
            scale = float(diag.mean())
            off = float(np.abs(cov - np.diag(diag)).max()) / scale
            spread = float(np.abs(diag - scale).max()) / scale
            worst = max(worst, off, spread)
            cases.append(f"{name}->R^{m}: off {off:.4f}, spread {spread:.4f}")
    _report(capsys, "criterion-7 qm-isotropy", worst <= tol,
            f"{'; '.join(cases)} (limit {tol:.4f})")


# ---------------------------------------------------------------------------
# 8. covering chain
# ---------------------------------------------------------------------------


def test_criterion_8_covering_chain(capsys):
    # v_1([-1,1]) = 1 = 2 e_1, exactly
    seg = cube(1, side=2.0)
    v1 = vk_estimate(seg, 1, trials=1, seed=800).value
    e1 = entropy_numbers(seg, j_max=1)[0].value
    exact_ok = abs(v1 - 1.0) < 1e-12 and abs(2.0 * e1 - 1.0) < 1e-12

    # v_k <= 2 e_k^greedy for cube and ball in dims 2-3 (k <= min(n, 8):
    # v_k needs k-dimensional projections)
    chain_ok = True
    for K, step in ((cube(2, side=2.0), 0.02), (ball(2), 0.02),
                    (cube(3, side=2.0), 0.05), (ball(3), 0.05)):
        ent = entropy_numbers(K, j_max=min(K.dim, 8), step=step, seed=801)
        for k, upper in enumerate(ent, start=1):
            vk = vk_estimate(K, k, trials=16, seed=802 + k)
            if vk.value > 2.0 * upper.value + 1e-9:
                chain_ok = False

    # Kubota/Alexandrov within the suite's t-quantile gate for k = p in {2, 3}
    cfg = SuiteConfig(seed=803, samples=20_000, trials=8, hull_directions=2000)
    kubota = run_suite("kubota", [4], cfg)
    ok = exact_ok and chain_ok and kubota.passed
    _report(capsys, "criterion-8 covering-chain", ok,
            f"v1 = {v1:.12f}, 2e1 = {2 * e1:.12f}; v_k <= 2e_k "
            f"{'held' if chain_ok else 'FAILED'}; kubota "
            f"{'passed' if kubota.passed else 'failed'}")


# ---------------------------------------------------------------------------
# 9. reproducibility
# ---------------------------------------------------------------------------


def test_criterion_9_reproducibility(capsys):
    cfg = SuiteConfig(seed=901, samples=4000, sphere_samples=2000, trials=4,
                      hull_directions=800)
    ok = True
    for name, dims in (("paouris", [4]), ("zn-volrad", [3]), ("b1-scaling", [4, 6, 8, 12])):
        a = run_suite(name, dims, cfg)
        b = run_suite(name, dims, cfg)
        if rows_to_records(a.rows) != rows_to_records(b.rows):
            ok = False
    _report(capsys, "criterion-9 reproducibility", ok,
            "suite reruns emit bit-identical rows"
            if ok else "rerun produced different rows")
