"""Output checks for the benchmark's operations.

Every check compares a report row with a value computed here, from the
standard library alone, or with a property the method must have. None of
them compares with a stored copy of an earlier report.

Statistical windows are Z standard errors wide. Each SE is derived from the
operation's own sample count N, direction count or trial count, so one
comparison raises a false alarm with probability 2*Phi(-Z), about 2e-9. The
benchmark makes a few hundred comparisons per run, so a run on correct code
fails a check with probability below 1e-6.

Each check function takes a parsed JSON report and the parameters the
benchmark passed to the program. It returns a list of failures, each
"<check-name>: <detail>"; an empty list means the report passed.
"""

from __future__ import annotations

import math

Z = 6.0
ROUNDOFF = 1e-9  # relative slack for properties that hold exactly
HULL_DIRECTIONS = 2000  # tangent directions of every support-hull volume the CLI computes

ANISO_SPECTRA = ("flat", "geometric", "spike")


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------


def ball_volume(n: int) -> float:
    return math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0))


def unit_volume_volrad(n: int) -> float:
    """Volume radius of any body of volume 1: omega_n^{-1/n}."""
    return ball_volume(n) ** (-1.0 / n)


def abs_gaussian_moment(q: float) -> float:
    """E|g|^q for a standard normal g."""
    return 2.0 ** (q / 2.0) * math.exp(math.lgamma((q + 1.0) / 2.0)) / math.sqrt(math.pi)


def gaussian_zp_radius(p: float) -> float:
    """gamma_p = (E|g|^p)^{1/p}: Z_p of the standard Gaussian is gamma_p B_2^n."""
    return abs_gaussian_moment(p) ** (1.0 / p)


def cube_mean_width(n: int) -> float:
    """M*([-1/2, 1/2]^n) = (n/2) E|theta_1| = (n/2) Gamma(n/2) / (sqrt(pi) Gamma((n+1)/2))."""
    return 0.5 * n * math.exp(math.lgamma(n / 2.0) - math.lgamma((n + 1) / 2.0)) / math.sqrt(math.pi)


def aniso_spectrum(kind: str, n: int) -> list:
    if kind == "flat":
        return [1.0] * n
    if kind == "geometric":
        return [0.8**i for i in range(n)]
    if kind == "spike":
        return [math.sqrt(n)] + [1.0] * (n - 1)
    raise ValueError(kind)


def arith_bound(lam: list, p: float) -> float:
    """(1/sqrt(n)) sum_k max(sqrt(p/k), p/k) * (lam_1 + ... + lam_k)/k, all constants 1."""
    terms, prefix = [], []
    for k in range(1, len(lam) + 1):
        prefix.append(lam[k - 1])
        terms.append(max(math.sqrt(p / k), p / k) * math.fsum(prefix) / k)
    return math.fsum(terms) / math.sqrt(len(lam))


def ols_slope(pairs) -> float:
    xs = [math.log(n) for n, _ in pairs]
    ys = [math.log(v) for _, v in pairs]
    mx = math.fsum(xs) / len(xs)
    num = math.fsum((x - mx) * y for x, y in zip(xs, ys))
    den = math.fsum((x - mx) ** 2 for x in xs)
    return num / den


def max_gap_angle(m: int, alpha: float = 2.0e-9) -> float:
    """Angle g that no gap between m uniform directions on the circle exceeds.

    P(some gap > g) <= m (1 - g/2pi)^(m-1); g solves that bound = alpha.
    """
    return 2.0 * math.pi * (1.0 - (alpha / m) ** (1.0 / (m - 1)))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


class _Failures(list):
    def expect(self, name: str, ok: bool, detail: str) -> None:
        if not ok:
            self.append(f"{name}: {detail}")


def _rows(report: dict, quantity: str) -> dict:
    """Rows of one quantity, keyed by p (or by n when p is absent)."""
    return {
        (r["p"] if r["p"] is not None else r["n"]): r
        for r in report.get("rows", ())
        if r["quantity"] == quantity
    }


def _common(report: dict, expected: dict) -> _Failures:
    """Suite passed, every expected row present, every value finite.

    `expected` maps a quantity to the keys (p or n) it must have rows for.
    """
    f = _Failures()
    f.expect("suite-passed", report.get("meta", {}).get("passed", True) is True,
             "the report says an assertion failed")
    for quantity, keys in expected.items():
        have = _rows(report, quantity)
        missing = [k for k in keys if k not in have]
        f.expect("rows-present", not missing, f"{quantity} lacks rows for {missing}")
    bad = [r["quantity"] for r in report.get("rows", ())
           if not (isinstance(r["value"], (int, float)) and math.isfinite(r["value"]))]
    f.expect("rows-finite", not bad, f"non-finite values in {bad}")
    return f


def _within(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol


def _monotone_in_p(f: _Failures, rows: dict, scale: float, label: str) -> None:
    """Sampled M*(Z_p) may dip between neighbouring p only by Z combined SEs.

    Z_p of one sample set grows with p exactly (power-mean inequality); the
    rows differ only through their independent direction draws.
    """
    ps = sorted(rows)
    for a, b in zip(ps, ps[1:]):
        va, vb = rows[a]["value"] / scale, rows[b]["value"] / scale
        se = math.hypot(rows[a]["std_error"], rows[b]["std_error"]) / scale
        f.expect("monotone-p", vb >= va - Z * se,
                 f"{label}: M*(Z_{b:g}) = {vb:.6g} < M*(Z_{a:g}) = {va:.6g} - {Z:g}*{se:.3g}")


def _gaussian_zp_window(p: float, n_samples: int) -> tuple:
    """(relative SD, relative bias bound) of one empirical Gaussian h_{Z_p}(theta).

    h^p is a mean of N copies of |g|^p, so by the delta method h has relative
    SD sqrt(m_2p/m_p^2 - 1)/(p sqrt N) and a downward Jensen bias of
    (p-1)/(2p^2) (m_2p/m_p^2 - 1)/N. An average over directions of the same
    samples has an SD no larger than one direction's.
    """
    excess = abs_gaussian_moment(2 * p) / abs_gaussian_moment(p) ** 2 - 1.0
    return (math.sqrt(excess) / (p * math.sqrt(n_samples)),
            (p - 1.0) / (2.0 * p * p) * excess / n_samples)


def _gaussian_zp(f: _Failures, rows: dict, scale: float, n_samples: int, label: str) -> None:
    for p, row in rows.items():
        if p > 8:
            continue
        ref = gaussian_zp_radius(p)
        rel_sd, rel_bias = _gaussian_zp_window(p, n_samples)
        tol = Z * (rel_sd * ref + row["std_error"] / scale) + rel_bias * ref
        value = row["value"] / scale
        f.expect("gaussian-zp", _within(value, ref, tol),
                 f"{label} p={p:g}: {value:.6g} vs gamma_p = {ref:.6g} +- {tol:.3g}")


# ---------------------------------------------------------------------------
# zp-profile
# ---------------------------------------------------------------------------


def check_thm_main_aniso(report: dict, n: int, ps, n_samples: int) -> list:
    f = _common(report, {f"{q}-{k}": ps for q in ("sqrtn-mstar-zp", "bound-arith")
                         for k in ANISO_SPECTRA})
    for kind in ANISO_SPECTRA:
        lam = aniso_spectrum(kind, n)
        for p, row in _rows(report, f"bound-arith-{kind}").items():
            ref = arith_bound(lam, p)
            f.expect("bound-arith", _within(row["value"], ref, 1e-12 * ref),
                     f"{kind} p={p:g}: {row['value']!r} vs {ref!r}")
        _monotone_in_p(f, _rows(report, f"sqrtn-mstar-zp-{kind}"), math.sqrt(n), kind)
    # the flat spectrum is the standard Gaussian itself
    _gaussian_zp(f, _rows(report, "sqrtn-mstar-zp-flat"), math.sqrt(n), n_samples, "flat")
    return f


def check_paouris(report: dict, n: int, ps, n_samples: int) -> list:
    f = _common(report, {f"mstar-zp-{t}": ps for t in ("gaussian", "cube")})
    _gaussian_zp(f, _rows(report, "mstar-zp-gaussian"), 1.0, n_samples, "gaussian")
    # uniform on [-1/2, 1/2]^n is isotropic with variance 1/12, so Z_2 = B_2/sqrt(12).
    # <x, theta>^2 has kurtosis below 3, so h_{Z_2} has relative SD < sqrt(2)/(2 sqrt N).
    row = _rows(report, "mstar-zp-cube").get(2.0)
    if row is not None:
        ref = 1.0 / math.sqrt(12.0)
        tol = Z * (ref * math.sqrt(2.0) / (2.0 * math.sqrt(n_samples)) + row["std_error"])
        f.expect("cube-z2", _within(row["value"], ref, tol),
                 f"M*(Z_2) = {row['value']:.6g} vs 1/sqrt(12) = {ref:.6g} +- {tol:.3g}")
    for tag in ("gaussian", "cube"):
        _monotone_in_p(f, _rows(report, f"mstar-zp-{tag}"), 1.0, tag)
    return f


# ---------------------------------------------------------------------------
# kubota-proj
# ---------------------------------------------------------------------------


def check_kubota(report: dict, n: int, n_samples: int) -> list:
    ps = (2.0, 3.0)
    f = _common(report, {q: ps for q in ("volrad-zp-inner", "volrad-zp-outer", "kubota-pmean")})
    inner = _rows(report, "volrad-zp-inner")
    outer = _rows(report, "volrad-zp-outer")
    for p in sorted(set(inner) & set(outer)):
        lo, hi = inner[p]["value"], outer[p]["value"]
        f.expect("inner-le-outer", lo <= hi * (1.0 + ROUNDOFF),
                 f"p={p:g}: inner {lo:.6g} > outer {hi:.6g}")
    # Z_2 of the empirical Gaussian is the ellipsoid of its second-moment
    # matrix S (Wishart/N): ln volrad = ln det S / 2n has SD 1/sqrt(2nN) and
    # bias -(n+1)/(4N). Its true volume radius is therefore 1 up to that window.
    tol = Z / math.sqrt(2.0 * n * n_samples) + (n + 1.0) / (4.0 * n_samples)
    if 2.0 in inner and 2.0 in outer:
        f.expect("z2-contains-1",
                 inner[2.0]["value"] <= 1.0 + tol and outer[2.0]["value"] >= 1.0 - tol,
                 f"[{inner[2.0]['value']:.6g}, {outer[2.0]['value']:.6g}] misses 1 +- {tol:.3g}")
    # Each 2-D projection of Z_2 is an ellipse of volume radius 1 within
    # 1/sqrt(4N) SD. A polygon tangent to a near-disc at normals with gaps
    # <= g lies within the disc scaled by sec(g/2).
    row = _rows(report, "kubota-pmean").get(2.0)
    if row is not None:
        k = 2
        overshoot = 1.0 / math.cos(max_gap_angle(HULL_DIRECTIONS) / 2.0) - 1.0
        tol = (Z * (row["std_error"] + 1.0 / math.sqrt(2.0 * k * n_samples))
               + (k + 1.0) / (4.0 * n_samples) + overshoot)
        f.expect("kubota-pmean-1", _within(row["value"], 1.0, tol),
                 f"p-mean {row['value']:.6g} vs 1 +- {tol:.3g}")
    return f


def check_zn_volrad(report: dict, dims) -> list:
    fams = ("cube", "cross")
    f = _common(report, {f"volrad-zn-{fam}": [float(n) for n in dims] for fam in fams})
    for fam in fams:
        for row in _rows(report, f"volrad-zn-{fam}").values():
            n = int(row["n"])
            # the empirical Z_n lies in the hull of the samples, inside the unit-volume K
            ceiling = unit_volume_volrad(n)
            f.expect("zn-inside-k", 0.0 < row["value"] <= ceiling,
                     f"{fam} n={n}: volrad(Z_n) {row['value']:.6g} vs volrad(K) {ceiling:.6g}")
    return f


# ---------------------------------------------------------------------------
# polytope-cover
# ---------------------------------------------------------------------------


def check_vk(report: dict, n: int, k: int) -> list:
    f = _common(report, {f"vk-k{k}": [n]})
    row = _rows(report, f"vk-k{k}").get(n)
    if row is not None:
        # Cauchy-Binet: a k-projection of the unit cube has volume
        # sum_S |det B_S| with sum_S det(B_S)^2 = 1, so 1 <= vol <= sqrt(C(n,k)).
        # Each trial's tangent-polytope volume lies above the exact one, so
        # the floor holds for the sampled sup as it stands.
        floor = unit_volume_volrad(k)
        f.expect("vk-cauchy-binet", row["value"] >= floor * (1.0 - ROUNDOFF),
                 f"v_{k} = {row['value']:.6g} below {floor:.6g}")
        if k == 2:
            # The tangent polygon adds to the zonogon at most one triangle per
            # edge, of area <= l^2 tan(g/2)/4 for a normal gap g. Each edge
            # P e_j appears twice and sum_j |P e_j|^2 = 2, so sum l^2 <= 8
            # even when parallel edges merge; the area is >= 1. For k >= 3 no
            # such bound is at hand: there the tangent polytope overshoots by
            # several per cent, enough to pass the ceiling at small n.
            inflation = math.sqrt(1.0 + 2.0 * math.tan(max_gap_angle(HULL_DIRECTIONS) / 2.0))
            ceiling = math.comb(n, k) ** (1.0 / (2 * k)) * floor * inflation
            f.expect("vk-cauchy-binet", row["value"] <= ceiling,
                     f"v_2 = {row['value']:.6g} above {ceiling:.6g}")
    return f


def check_covering(report: dict, dims, j_max: int = 8) -> list:
    js = list(range(1, j_max + 1))
    f = _common(report, {f"cover-radius-j{j}": list(dims) for j in js})
    for n in dims:
        radii = [_rows(report, f"cover-radius-j{j}").get(n) for j in js]
        if any(r is None for r in radii):
            continue
        radii = [r["value"] for r in radii]
        # farthest-point greedy: adding a centre never raises the covering radius
        f.expect("cover-monotone",
                 all(b <= a * (1.0 + ROUNDOFF) for a, b in zip(radii, radii[1:])),
                 f"n={n}: radii {radii} increase in j")
        # 2^j balls of radius r cover a unit-volume body only if 2^j omega_n r^n >= 1
        for j, r in zip(js, radii):
            floor = (2.0**j * ball_volume(n)) ** (-1.0 / n)
            f.expect("cover-volumetric", r >= floor * (1.0 - ROUNDOFF),
                     f"n={n} j={j}: radius {r:.6g} below volumetric floor {floor:.6g}")
    return f


def check_theorem1(report: dict, dims, n_samples: int) -> list:
    f = _common(report, {f"{q}-{fam}": list(dims) for q in ("mstar", "l", "thm1-ratio")
                         for fam in ("cube", "cross")})
    for n, row in _rows(report, "mstar-cube").items():
        ref = cube_mean_width(n)
        tol = Z * row["std_error"]
        f.expect("mstar-cube", _within(row["value"], ref, tol),
                 f"n={n}: {row['value']:.6g} vs {ref:.6g} +- {tol:.3g}")
    # det_root of the sample covariance of uniform [-1/2,1/2]^n: ln det has SD
    # sqrt(n (kappa-1)/N) (kappa = 9/5, the uniform kurtosis) and first-order
    # bias -(n + kappa) n/(2N); the lower edge doubles that bias to cover higher orders.
    kappa = 1.8
    for n, row in _rows(report, "l-cube").items():
        x = math.log(row["value"] * math.sqrt(12.0))
        sd = math.sqrt((kappa - 1.0) / (n * n_samples)) / 2.0
        bias = (n + kappa) / (4.0 * n_samples)
        f.expect("l-cube", -2.0 * bias - Z * sd <= x <= Z * sd,
                 f"n={n}: ln(L sqrt 12) = {x:.3g} outside [{-2 * bias - Z * sd:.3g}, {Z * sd:.3g}]")
    for fam in ("cube", "cross"):
        mstar, l_k = _rows(report, f"mstar-{fam}"), _rows(report, f"l-{fam}")
        for n, row in _rows(report, f"thm1-ratio-{fam}").items():
            if n in mstar and n in l_k:
                ref = mstar[n]["value"] / (math.sqrt(n) * math.log1p(n) ** 2 * l_k[n]["value"])
                f.expect("thm1-ratio", _within(row["value"], ref, 1e-12 * ref),
                         f"{fam} n={n}: {row['value']!r} vs {ref!r}")
    return f


def check_b1_scaling(report: dict, dims) -> list:
    f = _common(report, {"mstar-b1tilde": list(dims), "slope": [0]})
    mstar = _rows(report, "mstar-b1tilde")
    slope = _rows(report, "slope").get(0)
    if slope is not None and len(mstar) == len(dims):
        ref = ols_slope([(n, mstar[n]["value"]) for n in dims])
        f.expect("b1-slope", _within(slope["value"], ref, 1e-9 * abs(ref)),
                 f"slope {slope['value']!r} vs OLS of the rows {ref!r}")
    return f
