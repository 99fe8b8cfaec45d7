"""Named verification suites.

Each suite reproduces one piece of the theory at desk scale and reduces it to
assertions that are actually decidable: exact identities get zero-tolerance
checks, oracle values get 3-SE windows, and asymptotic statements with
unknowable constants become slope bands or constant-transfer tests.  Suites
are deterministic given (dims, config): every row's seed descends from the
master seed through the frozen splitting rule, so reruns are bit-identical
within a build.

Row schema matches the CSV contract: suite, n, p, quantity, value,
std_error, direction, seed, samples.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .bodies import (ConvexBody, ball, cross_polytope, cube, parse_body, product_body, scale_body,
                     unit_volume_copy)
from . import pool
from .centroid import centroid_body, exact_zp
from .estimates import Estimate
from .functionals import (DEFAULT_SPHERE_SAMPLES, RadModel, bound_rhs, entropy_numbers,
                          mean_width)
from .grassmann import (DEFAULT_HULL_DIRECTIONS, VOLUME_DIM_CAP, project_samples,
                        random_subspace, support_hull_task, support_hull_volrad)
from .isotropy import estimate_moments, exact_isotropic_constant
from .measures import draw_samples, gaussian_measure, pushforward_measure, uniform_body_measure
from .seeds import child_seed, sphere_directions

@dataclass(frozen=True)
class Row:
    suite: str
    n: int
    p: Optional[float]
    quantity: str
    value: float
    std_error: float
    direction: str
    seed: int
    samples: int


@dataclass(frozen=True)
class Assertion:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by every suite; each reads seed and the fields in its SUITES `reads`."""

    seed: int = 0
    samples: int = 50_000
    sphere_samples: int = 10_000
    trials: int = 16
    hull_directions: int = DEFAULT_HULL_DIRECTIONS
    rad: RadModel = field(default_factory=lambda: RadModel("unit"))
    p_values: Optional[Sequence[float]] = None


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    rows: tuple
    assertions: tuple
    fitted: dict

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


def check_slope_dims(dims) -> None:
    """ValueError unless a slope fit over these n is defined: >= 4 of them, two distinct.

    fit_scaling_slope applies this rule, so a caller can check its dims
    with it before doing any work.
    """
    if len(dims) < 4:
        raise ValueError(f"need >= 4 points for a slope fit, got {len(dims)}")
    if len(set(dims)) < 2:
        raise ValueError("all n equal: slope is undefined")


def fit_scaling_slope(pairs) -> tuple:
    """OLS slope of log(value) on log(n); returns (slope, intercept, half_width).

    half_width is twice the slope's standard error.  Needs positive n and
    values, and n that check_slope_dims accepts.
    """
    pts = [(float(n), float(v)) for n, v in pairs]
    check_slope_dims([n for n, _ in pts])
    if any(v <= 0 or n <= 0 for n, v in pts):
        raise ValueError("slope fit needs positive n and values")
    x = np.log([n for n, _ in pts])
    y = np.log([v for _, v in pts])
    xc = x - x.mean()
    slope = float((xc * y).sum() / (xc * xc).sum())
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = len(pts) - 2
    se = math.sqrt(float((resid**2).sum()) / dof / float((xc * xc).sum())) if dof else 0.0
    return slope, intercept, 2.0 * se


def mean_width_scaling(template: str, dims, sphere_samples: int, seed: int) -> tuple:
    """M* at each n in dims of the body parse_body makes of `template`, n put for {n}.

    Returns (estimates, slope, intercept, half_width), the fit of
    fit_scaling_slope, with the slope as an Estimate over len(dims) points:
    `exact` with SE 0 when every M* is exact, else `mc` with SE half_width/2.
    Every body is built, and must be n-dimensional, before any mean width is
    taken; the j-th M* takes seed child_seed(seed, j).
    """
    check_slope_dims(dims)
    descriptors = [template.replace("{n}", str(n)) for n in dims]
    bodies = [parse_body(d) for d in descriptors]
    for d, K, n in zip(descriptors, bodies, dims):
        if K.dim != n:
            raise ValueError(f"body {d!r} has dim {K.dim}, not n = {n}")
    estimates = [mean_width(K, sphere_samples, child_seed(seed, j)) for j, K in enumerate(bodies)]
    slope, intercept, half = fit_scaling_slope(zip(dims, (est.value for est in estimates)))
    if all(est.direction == "exact" for est in estimates):
        slope_est = Estimate(slope, 0.0, len(estimates), "exact")
    else:
        slope_est = Estimate(slope, half / 2.0, len(estimates), "mc")
    return estimates, slope_est, intercept, half


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _p_grid(cfg: SuiteConfig, default) -> list:
    """The suite's p values: cfg.p_values, or `default` when that is None.

    An empty cfg.p_values is a ValueError; the suites that read a p grid
    call this before they draw a sample.
    """
    ps = default if cfg.p_values is None else cfg.p_values
    if not len(ps):
        raise ValueError("--p-values is empty; give at least one p")
    return [float(p) for p in ps]


def _powers_of_two_to_sqrt(n: int) -> list:
    ps, p = [], 1.0
    while p <= math.sqrt(n) + 1e-9:
        ps.append(p)
        p *= 2.0
    return ps


def qm_body(K: ConvexBody, m: int) -> ConvexBody:
    """The product body Q_m in R^m built from an isotropic K in R^n.

    Q_m = (L_D/L_K)^{(m-n)/m} K  x  (L_K/L_D)^{n/m} D, with D the unit-volume
    ball in R^{m-n}.  Unit volume by construction, and isotropic: both blocks
    end up with per-coordinate variance (a L_K)^2 = (b L_D)^2.
    """
    n = K.dim
    if m <= n:
        raise ValueError(f"need m > n = {n}, got m = {m}")
    delta = m - n
    D = unit_volume_copy(ball(delta))
    l_k = exact_isotropic_constant(K)
    l_d = exact_isotropic_constant(D)
    a = (l_d / l_k) ** (delta / m)
    b = (l_k / l_d) ** (n / m)
    return product_body(scale_body(K, a), scale_body(D, b))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_theorem1(dims, cfg: SuiteConfig):
    """M*(K) against sqrt(n) log^2(1+n) L_K for the two exact unit-volume families.

    L_K is exact (exact_isotropic_constant), and so is M* of both the cube and
    the cross-polytope (their bodies state it), so the suite reads no
    SuiteConfig field but seed and draws nothing: every row is `exact`, with
    SE 0 and 0 samples.  Each family's ratio may not exceed twice its value
    at the smallest tested n.
    """
    rows, assertions = [], []
    for fam_idx, fam in enumerate(("cube", "cross")):
        ratios = []
        for j, n in enumerate(dims):
            K = parse_body(f"unit{fam}:{n}")
            seed = child_seed(cfg.seed, 100 * fam_idx + j)
            mstar = mean_width(K, DEFAULT_SPHERE_SAMPLES, child_seed(seed, 0))
            l_k = exact_isotropic_constant(K)
            denom = math.sqrt(n) * math.log(1 + n) ** 2 * l_k
            ratio = mstar.value / denom
            ratios.append((n, ratio))
            rows += [
                Row("theorem1", n, None, f"mstar-{fam}", mstar.value, mstar.std_error,
                    mstar.direction, seed, mstar.n_samples),
                Row("theorem1", n, None, f"l-{fam}", l_k, 0.0, "exact", seed, 0),
                Row("theorem1", n, None, f"thm1-ratio-{fam}", ratio, mstar.std_error / denom,
                    mstar.direction, seed, 0),
            ]
        bound = 2.0 * min(ratios)[1]  # the ratio at the smallest n
        worst = max(r for _, r in ratios)
        assertions.append(Assertion(
            f"theorem1-ratio-bounded-{fam}",
            worst <= bound,
            f"max ratio {worst:.4f} vs 2x smallest-n ratio {bound:.4f}",
        ))
    return rows, assertions, {}


def _suite_paouris(dims, cfg: SuiteConfig):
    """Flatness of M*(Z_p)/sqrt(p) over p in [1, sqrt(n)] for isotropic sources.

    The Gaussian's Z_p is exact at every p, and the cube's at even p
    (centroid.exact_zp): at p = 2 a ball, whose M* is exact, and above it,
    within centroid.ZP_SERIES_BUDGET, a series whose M* carries only the
    sphere directions' SE.  Only the cube's odd or fractional p (p = 1 among them)
    and its even p above the budget draw samples, once per n.  An M* row
    counts the samples behind its Z_p, or the sphere directions when that
    Z_p is exact; a ratio row carries its M* row's SE over sqrt(p) and its
    label.  The flatness row is exact when every M* behind it is.
    """
    rows, assertions = [], []
    for j, n in enumerate(dims):
        ps = _p_grid(cfg, _powers_of_two_to_sqrt(n))
        sources = (
            ("gaussian", gaussian_measure(n)),
            ("cube", uniform_body_measure(cube(n, side=1.0))),
        )
        for s_idx, (tag, mu) in enumerate(sources):
            seed = child_seed(cfg.seed, 100 * j + s_idx)
            samples = None  # drawn at the first p without an exact Z_p
            vals, labels = [], set()
            for i, p in enumerate(ps):
                zp, count = exact_zp(mu, p), cfg.sphere_samples
                if zp is None:
                    if samples is None:
                        samples = draw_samples(mu, cfg.samples, child_seed(seed, 0))
                    zp, count = centroid_body(samples, p), cfg.samples
                mstar = mean_width(zp, cfg.sphere_samples, child_seed(seed, 1 + i))
                ratio = mstar.value / math.sqrt(p)
                vals.append(ratio)
                labels.add(mstar.direction)
                rows += [
                    Row("paouris", n, p, f"mstar-zp-{tag}", mstar.value,
                        mstar.std_error, mstar.direction, seed, count),
                    Row("paouris", n, p, f"paouris-ratio-{tag}", ratio,
                        mstar.std_error / math.sqrt(p), mstar.direction, seed, 0),
                ]
            flat = max(vals) / min(vals)
            label = "exact" if labels == {"exact"} else "mc"
            rows.append(Row("paouris", n, None, f"flatness-{tag}", flat, 0.0, label, seed, 0))
            assertions.append(Assertion(
                f"paouris-flatness-{tag}-n{n}",
                flat <= 2.0,
                f"max/min of M*(Z_p)/sqrt(p) = {flat:.4f} (limit 2)",
            ))
    return rows, assertions, {}


_ANISO_SPECTRA = ("flat", "geometric", "spike")


def _aniso_lam(kind: str, n: int) -> np.ndarray:
    if kind == "flat":
        return np.ones(n)
    if kind == "geometric":
        return 0.8 ** np.arange(n)
    if kind == "spike":
        lam = np.ones(n)
        lam[0] = math.sqrt(n)
        return lam
    raise ValueError(f"unknown spectrum {kind!r}")


def _suite_thm_main_aniso(dims, cfg: SuiteConfig):
    """Spectral-shape transfer: one constant, fitted on the flat spectrum, must
    cover the decaying and spiked spectra within factor 1.5.

    Every source is a Gaussian law, whose Z_p is exact (centroid.exact_zp),
    so the suite draws no samples: the sphere directions of M* are all its
    randomness, and the flat spectrum's M* of a ball is exact.  A ratio row is
    M*(Z_p) over the exact bound, with SE(M*) over the bound, and its M*
    row's label; C_flat is the largest flat ratio.  The sqrtn-mstar-zp rows
    state sqrt(n) M*(Z_p), as the benchmark's checks read them.
    """
    (n,) = dims
    ps = _p_grid(cfg, (2.0, 8.0, float(n)))
    rows = []
    measured = {}
    for s_idx, kind in enumerate(_ANISO_SPECTRA):
        lam = _aniso_lam(kind, n)
        mu = pushforward_measure(gaussian_measure(n), np.diag(lam))
        seed = child_seed(cfg.seed, s_idx)
        for i, p in enumerate(ps):
            mstar = mean_width(exact_zp(mu, p), cfg.sphere_samples, child_seed(seed, 1 + i))
            rhs = bound_rhs("thm-main-arith", spectrum=lam, p=p, rad=cfg.rad)
            measured[(kind, p)] = mstar.value / rhs
            rows += [
                Row("thm-main-aniso", n, p, f"sqrtn-mstar-zp-{kind}",
                    math.sqrt(n) * mstar.value, math.sqrt(n) * mstar.std_error,
                    mstar.direction, seed, cfg.sphere_samples),
                Row("thm-main-aniso", n, p, f"bound-arith-{kind}", rhs, 0.0,
                    "exact", seed, 0),
                Row("thm-main-aniso", n, p, f"ratio-{kind}", mstar.value / rhs,
                    mstar.std_error / rhs, mstar.direction, seed, 0),
            ]
    c_fit = max(measured[("flat", p)] for p in ps)
    assertions = []
    for kind in _ANISO_SPECTRA[1:]:
        worst = max(measured[(kind, p)] / c_fit for p in ps)
        assertions.append(Assertion(
            f"aniso-transfer-{kind}",
            worst <= 1.5,
            f"max measured/(C_flat * bound) = {worst:.4f} (limit 1.5, C_flat = {c_fit:.4f})",
        ))
    return rows, assertions, {"c_flat": c_fit}


def _suite_b1_scaling(dims, cfg: SuiteConfig):
    """Growth exponent of M* for the unit-volume l1 ball across n.

    Every M* is exact (mean_width of an l1 ball), so the suite reads no
    SuiteConfig field but seed, and its rows, the slope row among them, are
    `exact`.
    """
    estimates, slope, intercept, half = mean_width_scaling(
        "b1tilde:{n}", dims, DEFAULT_SPHERE_SAMPLES, cfg.seed)
    rows = [Row("b1-scaling", n, None, "mstar-b1tilde", est.value, est.std_error,
                est.direction, child_seed(cfg.seed, j), est.n_samples)
            for j, (n, est) in enumerate(zip(dims, estimates))]
    rows.append(Row("b1-scaling", 0, None, "slope", slope.value, slope.std_error,
                    slope.direction, cfg.seed, slope.n_samples))
    ok = 0.50 <= slope.value <= 0.65
    assertion = Assertion(
        "b1-scaling-slope",
        ok,
        f"slope {slope.value:.4f} +- {half:.4f} (band [0.50, 0.65]: sqrt(n) growth "
        "with the log factor absorbed)",
    )
    return rows, [assertion], {"slope": slope.value, "intercept": intercept, "half_width": half}


def _suite_qm_isotropy(dims, cfg: SuiteConfig):
    """Q_m construction: empirical covariance must be a multiple of identity."""
    cases = [("cube", cube(n, side=1.0)) for n in dims]
    cases.append(("cross", unit_volume_copy(cross_polytope(2))))
    rows, assertions = [], []
    for c_idx, (tag, K) in enumerate(cases):
        for d_idx, delta in enumerate((1, 4)):
            n = K.dim
            m = n + delta
            Q = qm_body(K, m)
            seed = child_seed(cfg.seed, 10 * c_idx + d_idx)
            samples = draw_samples(uniform_body_measure(Q), cfg.samples, seed)
            C = estimate_moments(samples).covariance
            diag = np.diag(C)
            mean_diag = float(diag.mean())
            off = C - np.diag(diag)
            off_max = float(np.abs(off).max()) / mean_diag
            spread = float(diag.max() - diag.min()) / mean_diag
            tol = 5.0 / math.sqrt(cfg.samples)
            rows += [
                Row("qm-isotropy", m, None, f"qm-offdiag-{tag}-d{delta}", off_max,
                    0.0, "mc", seed, cfg.samples),
                Row("qm-isotropy", m, None, f"qm-diag-spread-{tag}-d{delta}", spread,
                    0.0, "mc", seed, cfg.samples),
                Row("qm-isotropy", m, None, f"qm-variance-{tag}-d{delta}", mean_diag,
                    0.0, "mc", seed, cfg.samples),
            ]
            assertions.append(Assertion(
                f"qm-isotropic-{tag}-n{n}-m{m}",
                off_max <= tol and spread <= tol,
                f"offdiag {off_max:.5f}, diag spread {spread:.5f} vs 5/sqrt(N) = {tol:.5f}",
            ))
    return rows, assertions, {}


def _suite_kubota(dims, cfg: SuiteConfig):
    """volrad(Z_p) against the p-mean of projection volume radii (k = p).

    The inequality is an equality for round Z_p, so the left side must not be
    estimated with any upward bias: the outer support hull in dim n >= 4
    overshoots by more than the noise band.  We therefore certify the sandwich
    inner hull <= volrad(Z_p) <= outer hull (the inner one is the convex hull
    of exact touching points) and assert the inner value against the p-mean;
    both lhs brackets go into the report.  Each p makes one Z_p pass over the
    hull directions: the touching points grad h(theta) span the inner hull,
    and Euler's identity h(theta) = <theta, grad h(theta)> gives the outer
    hull's support values from them.  P_F Z_p(mu) = Z_p(P_F mu) holds exactly
    for samples, so each projection is a Z_p pass over projected samples.  The
    support values of every hull are taken first; then the outer, inner and
    projection hulls of one p, which are independent, run together on the
    pool.  The p-mean's SE comes from `trials` projections, so the gate's
    multiplier is the Student-t quantile with trials - 1 degrees of freedom
    at the one-sided rate Phi(-3) of a 3-SE normal gate.
    """
    from scipy.spatial import ConvexHull
    from scipy.special import ndtr, stdtrit

    from .bodies import volume_radius
    from .centroid import zp_touching_points

    (n,) = dims
    if cfg.trials < 2:
        raise ValueError(f"kubota needs trials >= 2 for a standard error, got {cfg.trials}")
    if cfg.samples < n:  # fewer points than dimensions span no full-dimensional hull
        raise ValueError(f"kubota needs samples >= n = {n}, got {cfg.samples}")
    t_gate = float(stdtrit(cfg.trials - 1, 1.0 - ndtr(-3.0)))
    rows, assertions = [], []
    for i, p in enumerate((2, 3)):
        seed = child_seed(cfg.seed, i)
        samples = draw_samples(gaussian_measure(n), cfg.samples, child_seed(seed, 0))
        dirs = sphere_directions(n, cfg.hull_directions, child_seed(seed, 1))
        touching = zp_touching_points(samples, float(p), dirs)
        h = np.vecdot(dirs, touching)  # Euler's identity h(theta) = <theta, grad h(theta)>
        projections = []
        for t in range(cfg.trials):
            F = random_subspace(n, p, child_seed(seed, 100 + 2 * t))
            zp_f = centroid_body(project_samples(samples, F), float(p))
            projections.append(support_hull_task(zp_f, cfg.hull_directions,
                                                 child_seed(seed, 101 + 2 * t)))
        lhs_outer, inner_vol, *projected = pool.run_tasks(
            [functools.partial(support_hull_volrad, dirs, h),
             lambda: ConvexHull(touching).volume, *projections])
        lhs_inner = volume_radius(inner_vol, n)
        vr_p = np.array([est.value**p for est in projected])
        mean_p = float(vr_p.mean())
        rhs = mean_p ** (1.0 / p)
        se_mean = float(vr_p.std(ddof=1)) / math.sqrt(cfg.trials)
        rhs_se = rhs * se_mean / (p * mean_p)  # delta method through ^(1/p)
        ok = lhs_inner <= rhs + t_gate * rhs_se
        rows += [
            Row("kubota", n, float(p), "volrad-zp-inner", lhs_inner, 0.0,
                "lower", seed, cfg.samples),
            Row("kubota", n, float(p), "volrad-zp-outer", lhs_outer.value, 0.0,
                "upper", seed, cfg.samples),
            Row("kubota", n, float(p), "kubota-pmean", rhs, rhs_se, "mc",
                seed, cfg.trials),
        ]
        assertions.append(Assertion(
            f"kubota-k{p}",
            ok,
            f"volrad(Z_{p}) in [{lhs_inner:.4f}, {lhs_outer.value:.4f}]; "
            f"inner <= projection p-mean {rhs:.4f} + {t_gate:.2f}*{rhs_se:.4f}",
        ))
    return rows, assertions, {}


def _suite_zn_volrad(dims, cfg: SuiteConfig):
    """volrad(Z_n) * L_K / (sqrt(n) det_root): recorded, regression-checked in tests.

    The support values of each (family, n) are taken in turn; then all the
    hulls, which are independent, run together on the pool.
    """
    cases, hulls = [], []
    for f_idx, fam in enumerate(("cube", "cross")):
        for j, n in enumerate(dims):
            K = parse_body(f"unit{fam}:{n}")
            seed = child_seed(cfg.seed, 100 * f_idx + j)
            samples = draw_samples(uniform_body_measure(K), cfg.samples,
                                   child_seed(seed, 0))
            zn = centroid_body(samples, float(n))
            hulls.append(support_hull_task(zn, cfg.hull_directions, child_seed(seed, 1)))
            det_root = estimate_moments(samples).det_root
            cases.append((fam, n, seed, exact_isotropic_constant(K), det_root))
    rows, assertions = [], []
    for (fam, n, seed, l_k, det_root), vr in zip(cases, pool.run_tasks(hulls)):
        ratio = vr.value * l_k / (math.sqrt(n) * det_root)
        rows += [
            Row("zn-volrad", n, float(n), f"volrad-zn-{fam}", vr.value, 0.0,
                vr.direction, seed, cfg.samples),
            Row("zn-volrad", n, float(n), f"zn-ratio-{fam}", ratio, 0.0,
                "mc", seed, cfg.samples),
        ]
        assertions.append(Assertion(
            f"zn-ratio-finite-{fam}-n{n}",
            math.isfinite(ratio) and ratio > 0,
            f"ratio {ratio:.5f} recorded (two-sided constants unspecified; "
            "stability is regression-checked)",
        ))
    return rows, assertions, {}


def _suite_covering_regularity(dims, cfg: SuiteConfig):
    """Greedy covering log-counts against the three covering profiles.

    Certified counts: 2^j greedy centers at covering radius r_j give
    log N(K, r_j B_2) <= j log 2.  Profiles valid at every scale (the 1/t and
    1/t^2 laws) get a shape test: constant fitted on the first half of the
    j-range, second half must stay below 1.25x the fitted curve.  The
    log-corrected profile is only stated on a narrow t-band that the radii
    barely enter, so its constant is fitted over in-band radii and recorded
    without a held-out assertion.  The Sudakov profile reads the cube's exact
    M* (its body states it), so the greedy covering's start is the suite's
    only randomness and it reads no SuiteConfig field but seed.
    """
    j_max = 8
    rows, assertions = [], []
    for d_idx, n in enumerate(dims):
        K = cube(n, side=1.0)
        l_k = exact_isotropic_constant(K)
        seed = child_seed(cfg.seed, d_idx)
        mstar = mean_width(K, DEFAULT_SPHERE_SAMPLES, child_seed(seed, 0))
        uppers = entropy_numbers(K, j_max, step=0.01 if n < 3 else 0.012,
                                 seed=child_seed(seed, 1))
        cover_r = np.array([u.value for u in uppers])
        log_counts = np.arange(1, j_max + 1) * math.log(2.0)
        for j, u in enumerate(uppers, start=1):
            rows.append(Row("covering-regularity", n, None, f"cover-radius-j{j}",
                            u.value, 0.0, u.direction, seed, u.n_samples))

        def ratios_for(kind):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # radii stray below stated t ranges
                if kind == "hartzoulaki":
                    vals = [bound_rhs("hartzoulaki", n=n, l_k=l_k, t=r / math.sqrt(n))
                            for r in cover_r]
                elif kind == "sudakov":
                    vals = [bound_rhs("sudakov", n=n, mstar=mstar.value, t=r)
                            for r in cover_r]
                else:
                    vals = [bound_rhs("thm14", n=n, rad_value=1.0, l_k=l_k,
                                      t=r / math.sqrt(n)) for r in cover_r]
            return log_counts / np.asarray(vals)

        half = j_max // 2
        for kind in ("hartzoulaki", "sudakov"):
            ratios = ratios_for(kind)
            c_fit = float(ratios[:half].max())
            worst = float(ratios[half:].max())
            rows.append(Row("covering-regularity", n, None, f"cover-c-{kind}",
                            c_fit, 0.0, "upper", seed, j_max))
            assertions.append(Assertion(
                f"covering-{kind}-n{n}",
                worst <= 1.25 * c_fit,
                f"held-out max log-count/profile = {worst:.4f} vs 1.25*C_fit = "
                f"{1.25 * c_fit:.4f}",
            ))
        in_band = cover_r / math.sqrt(n) >= l_k  # stated validity: t >= rad*L_K
        if not in_band.any():
            assertions.append(Assertion(
                f"covering-thm14-n{n}", True,
                "no covering radius in the band t >= L_K: no constant to fit, row omitted",
            ))
            continue
        c14 = float(ratios_for("thm14")[in_band].max())
        rows.append(Row("covering-regularity", n, None, "cover-c-thm14",
                        c14, 0.0, "upper", seed, int(in_band.sum())))
        assertions.append(Assertion(
            f"covering-thm14-n{n}",
            math.isfinite(c14),
            f"constant fitted over {int(in_band.sum())} in-band radii: {c14:.4f} "
            "(recorded; band too narrow for a held-out shape test)",
        ))
    return rows, assertions, {}


@dataclass(frozen=True)
class Suite:
    """A verify suite as data: its function, the SuiteConfig fields it reads besides
    seed, its default dims and its dims rule, which run_suite checks: every n in
    [lo, hi] (hi None: no cap), and `shape` "any" or "one" (a single n).
    """

    run: Callable
    reads: tuple
    dims: tuple
    lo: int = 1
    hi: Optional[int] = None
    shape: str = "any"


SUITES = {
    "theorem1": Suite(_suite_theorem1, (), (4, 8)),
    "paouris": Suite(_suite_paouris, ("samples", "sphere_samples", "p_values"), (16,)),
    "thm-main-aniso": Suite(_suite_thm_main_aniso, ("sphere_samples", "rad", "p_values"),
                            (16,), shape="one"),
    "b1-scaling": Suite(_suite_b1_scaling, (), (8, 16, 32, 64)),
    "qm-isotropy": Suite(_suite_qm_isotropy, ("samples",), (3,)),
    "kubota": Suite(_suite_kubota, ("samples", "trials", "hull_directions"), (4,),
                    lo=3, hi=VOLUME_DIM_CAP, shape="one"),  # projects to k = 2 and 3
    "zn-volrad": Suite(_suite_zn_volrad, ("samples", "hull_directions"), (3, 4),
                       hi=VOLUME_DIM_CAP),
    "covering-regularity": Suite(_suite_covering_regularity, (), (2, 3), hi=3),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, dims: Sequence[int], config: SuiteConfig) -> SuiteResult:
    """Run suite `name` at dims, after checking them against its dims rule."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    suite = SUITES[name]
    if not dims:
        raise ValueError(f"{name} needs at least one dimension")
    if suite.shape == "one" and len(dims) != 1:
        raise ValueError(f"{name} runs at one dimension, got dims {list(dims)}")
    for n in dims:
        if n < suite.lo or (suite.hi is not None and n > suite.hi):
            span = f"n >= {suite.lo}" if suite.hi is None else f"{suite.lo} <= n <= {suite.hi}"
            raise ValueError(f"{name} needs {span}, got n={n}")
    rows, assertions, fitted = suite.run(list(dims), config)
    return SuiteResult(
        suite=name, rows=tuple(rows), assertions=tuple(assertions), fitted=fitted
    )


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("suite", "n", "p", "quantity", "value", "std_error",
               "direction", "seed", "samples")


def rows_to_records(rows) -> list:
    recs = []
    for r in rows:
        d = asdict(r)
        d["p"] = "" if r.p is None else repr(float(r.p))
        d["value"] = repr(float(r.value))
        d["std_error"] = repr(float(r.std_error))
        recs.append(d)
    return recs


def emit_report(result: SuiteResult, config: dict, fmt: str, path: Optional[str]) -> None:
    """Write a SuiteResult, the report of every command.

    csv holds the rows under the CSV_COLUMNS header, each line ended by a bare
    line feed; json is {meta: {version, suite, config, fitted, passed, threads},
    assertions, rows}, where config is the command's echo of its inputs and
    threads the pool's worker count.  JSON has no NaN or infinity, so a
    non-finite value in a json report is a ValueError, raised before anything
    is written.  The report goes to `path`, or to stdout when path is None.
    """
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        w.writeheader()
        w.writerows(rows_to_records(result.rows))
        text = buf.getvalue()
    elif fmt == "json":
        payload = {
            "meta": {
                "version": _version(),
                "suite": result.suite,
                "config": config,
                "fitted": result.fitted,
                "passed": result.passed,
                "threads": pool.WORKERS,
            },
            "assertions": [asdict(a) for a in result.assertions],
            "rows": [asdict(r) for r in result.rows],
        }
        try:
            text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            raise ValueError(f"{result.suite} report has a non-finite value, "
                             "which JSON cannot hold") from exc
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _version() -> str:
    from . import __version__

    return __version__
