"""Command-line front end.

Heavy imports happen inside the command handlers so that ISOCONV_THREADS can
cap the BLAS pool before numpy loads, and so --help stays instant.

Exit codes: 0 success, 1 verify-suite assertion failure, 2 usage or any other
error (one line on stderr, no traceback).
Every run is replayable: a missing --seed is generated, announced on stderr,
and embedded in all emitted artifacts.  Every command reports through
experiments.emit_report, so all reports share one csv and one json shape; a
report sent to stdout gets stdout to itself, human-readable lines go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional


def _apply_thread_cap():
    cap = os.environ.get("ISOCONV_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def _resolve_out(out: Optional[str], fmt: Optional[str]):
    """--out takes a path, or the literal words csv/json meaning stdout."""
    if out in ("csv", "json"):
        if fmt not in (None, out):
            raise ValueError(f"--out {out} contradicts --format {fmt}")
        return None, out
    if out is not None and fmt is None:
        fmt = "json" if out.endswith(".json") else "csv"
    return out, fmt


def _log(args):
    """Stream for a command's human-readable lines.

    stderr when the report goes to stdout, so that stdout stays parseable;
    stdout otherwise.  Resolving --out here rejects a bad one before any work.
    """
    path, fmt = _resolve_out(args.out, args.format)
    return sys.stderr if fmt is not None and path is None else sys.stdout


def _report(args, seed: int, rows, fitted=None) -> None:
    """Emit a command's rows as a SuiteResult named after the command.

    Its config echo is the command's parsed arguments with the resolved seed.
    """
    path, fmt = _resolve_out(args.out, args.format)
    if fmt is None:
        return
    from .experiments import SuiteResult, emit_report

    config = {k: v for k, v in vars(args).items()
              if k not in ("command", "fn", "out", "format")}
    config["seed"] = seed
    emit_report(SuiteResult(suite=args.command, rows=tuple(rows), assertions=(),
                            fitted=fitted or {}, config=config), fmt, path)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    from .seeds import generate_seed

    seed = generate_seed()
    print(f"seed: {seed} (generated)", file=sys.stderr)
    return seed


def _parse_values(text: str):
    """Comma-separated numbers, or @file with one value per line."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return [float(line) for line in fh.read().split()]
    return [float(tok) for tok in text.split(",") if tok]


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_meanwidth(args) -> int:
    from .bodies import parse_body
    from .experiments import Row
    from .functionals import mean_width

    log = _log(args)
    seed = _resolve_seed(args)
    body = parse_body(args.body)
    est = mean_width(body, args.sphere_samples, seed)
    print(f"{est.value:.10g}", file=log)
    _report(args, seed, [Row("meanwidth", body.dim, None, "mstar", est.value,
                             est.std_error, est.direction, seed, est.n_samples)])
    return 0


def _cmd_zp(args) -> int:
    from .centroid import zp_support
    from .experiments import Row
    from .measures import draw_samples, parse_measure
    from .seeds import child_seed, sphere_directions

    log = _log(args)
    seed = _resolve_seed(args)
    mu = parse_measure(args.measure)
    samples = draw_samples(mu, args.samples, child_seed(seed, 0))
    dirs = sphere_directions(mu.dim, args.directions, child_seed(seed, 1))
    h = zp_support(samples, args.p, dirs)
    print(f"{h.mean():.10g}", file=log)
    _report(args, seed, [Row("zp", mu.dim, args.p, f"h-zp-dir{i}", float(v), 0.0, "mc",
                             seed, args.samples) for i, v in enumerate(h)])
    return 0


def _cmd_isotropy(args) -> int:
    from .experiments import Row
    from .isotropy import estimate_moments, isotropic_constant
    from .measures import draw_samples, parse_measure

    log = _log(args)
    seed = _resolve_seed(args)
    mu = parse_measure(args.measure)
    samples = draw_samples(mu, args.samples, seed)
    summary = estimate_moments(samples)
    facts = [(f"barycenter-{i}", v) for i, v in enumerate(summary.barycenter)]
    facts += [(f"eigenvalue-{i}", v) for i, v in enumerate(summary.eigenvalues)]
    facts.append(("det-root", summary.det_root))
    print(f"det_root: {summary.det_root:.10g}", file=log)
    if mu.density_sup is None:
        print("L: unavailable (no density sup)", file=log)
    else:
        l_value = isotropic_constant(summary, mu.density_sup)
        print(f"L: {l_value:.10g}", file=log)
        facts.append(("l-mu", l_value))
    _report(args, seed, [Row("isotropy", mu.dim, None, q, float(v), 0.0, "mc", seed,
                             args.samples) for q, v in facts])
    return 0


def _cmd_vk(args) -> int:
    from .bodies import parse_body
    from .experiments import Row
    from .grassmann import vk_estimate

    log = _log(args)
    seed = _resolve_seed(args)
    body = parse_body(args.body)
    est = vk_estimate(body, args.k, args.trials, seed)
    print(f"{est.value:.10g}", file=log)
    _report(args, seed, [Row("vk", body.dim, None, f"vk-k{args.k}", est.value,
                             est.std_error, est.direction, seed, args.trials)])
    return 0


def _cmd_bound(args) -> int:
    from .functionals import bound_rhs, parse_rad_model

    params = {}
    if args.spectrum is not None:
        params["spectrum"] = _parse_values(args.spectrum)
    if args.vk_values is not None:
        params["vk_values"] = _parse_values(args.vk_values)
    if args.ek_values is not None:
        params["ek_values"] = _parse_values(args.ek_values)
    for name in ("p", "n", "t", "k", "mstar", "l_k", "rad_value"):
        val = getattr(args, name)
        if val is not None:
            params[name] = val
    if args.rad is not None:
        params["rad"] = parse_rad_model(args.rad)
    try:
        value = bound_rhs(args.kind, **params)
    except KeyError as exc:
        print(f"bound kind {args.kind!r} is missing parameter {exc}", file=sys.stderr)
        return 2
    print(f"{value:.10g}")
    return 0


def _cmd_verify(args) -> int:
    from .experiments import SuiteConfig, emit_report, run_suite
    from .functionals import parse_rad_model

    log = _log(args)
    seed = _resolve_seed(args)
    cfg = SuiteConfig(
        seed=seed,
        n_samples=args.samples,
        sphere_samples=args.sphere_samples,
        trials=args.trials,
        rad=parse_rad_model(args.rad),
        p_values=tuple(_parse_values(args.p_values)) if args.p_values else None,
    )
    result = run_suite(args.suite, args.dims, cfg)
    for a in result.assertions:
        print(f"{'PASS' if a.passed else 'FAIL'} {a.name}: {a.detail}", file=log)
    path, fmt = _resolve_out(args.out, args.format)
    if fmt is not None:
        emit_report(result, fmt, path)
    return 0 if result.passed else 1


def _cmd_scaling(args) -> int:
    """Mean-width scaling fit across dims for a body-descriptor template."""
    from .bodies import parse_body
    from .experiments import Row, fit_scaling_slope
    from .functionals import mean_width
    from .seeds import child_seed

    log = _log(args)
    seed = _resolve_seed(args)
    rows, pairs = [], []
    for j, n in enumerate(args.dims):
        body = parse_body(args.body.replace("{n}", str(n)))
        est = mean_width(body, args.sphere_samples, child_seed(seed, j))
        pairs.append((n, est.value))
        rows.append(Row("scaling", n, None, "mstar", est.value, est.std_error,
                        est.direction, seed, est.n_samples))
    slope, intercept, half = fit_scaling_slope(pairs)
    print(f"slope: {slope:.6f} +- {half:.6f}", file=log)
    rows.append(Row("scaling", 0, None, "slope", slope, half / 2.0, "mc", seed,
                    len(pairs)))
    _report(args, seed, rows, fitted={"intercept": intercept})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _dims_list(text: str):
    return [int(tok) for tok in text.split(",") if tok]


def build_parser() -> argparse.ArgumentParser:
    from .experiments import SUITE_NAMES

    top = argparse.ArgumentParser(
        prog="isoconv",
        description="Numerical toolkit for mean-width, centroid bodies and "
        "isotropic position, with a seeded verification harness.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True, out=True):
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="master seed (generated and announced if omitted)")
        if out:
            p.add_argument("--out", default=None, help="write results to this path")
            p.add_argument("--format", choices=("csv", "json"), default=None,
                           help="output format (default: guessed from --out suffix)")

    p = sub.add_parser("meanwidth", help="Monte Carlo mean width of a body")
    p.add_argument("--body", required=True, help="body descriptor, e.g. ball:8 or cube:4:2")
    p.add_argument("--sphere-samples", type=int, default=10_000)
    add_common(p)
    p.set_defaults(fn=_cmd_meanwidth)

    p = sub.add_parser("zp", help="support values of an empirical Z_p body")
    p.add_argument("--measure", required=True, help="e.g. gaussian:16 or uniform:cube:8")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--samples", type=int, default=50_000)
    p.add_argument("--directions", type=int, default=1000)
    add_common(p)
    p.set_defaults(fn=_cmd_zp)

    p = sub.add_parser("isotropy", help="moments, whitening data and L of a measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--samples", type=int, default=100_000)
    add_common(p)
    p.set_defaults(fn=_cmd_isotropy)

    p = sub.add_parser("vk", help="sampled sup of projection volume radii "
                       "(lower bound only when every trial is exact)")
    p.add_argument("--body", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    add_common(p)
    p.set_defaults(fn=_cmd_vk)

    p = sub.add_parser("bound", help="evaluate a named bound expression (constants = 1)")
    p.add_argument("--kind", required=True)
    p.add_argument("--spectrum", default=None, help="comma list or @file, descending")
    p.add_argument("--vk-values", default=None, help="comma list or @file")
    p.add_argument("--ek-values", default=None, help="comma list or @file")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--mstar", type=float, default=None)
    p.add_argument("--l-k", dest="l_k", type=float, default=None)
    p.add_argument("--rad-value", dest="rad_value", type=float, default=None)
    p.add_argument("--rad", default=None, help="unit | log-min | sqrt-log | constant:<c>")
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--dims", type=_dims_list, required=True, help="comma list, e.g. 4,8,16")
    p.add_argument("--samples", type=int, default=50_000)
    p.add_argument("--sphere-samples", type=int, default=10_000)
    p.add_argument("--trials", type=int, default=16)
    p.add_argument("--rad", default="unit")
    p.add_argument("--p-values", default=None, help="override the suite's p grid")
    add_common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("scaling", help="slope fit of mean width across dimensions")
    p.add_argument("--body", required=True,
                   help="descriptor template with {n}, e.g. b1tilde:{n}")
    p.add_argument("--dims", type=_dims_list, required=True)
    p.add_argument("--sphere-samples", type=int, default=50_000)
    add_common(p)
    p.set_defaults(fn=_cmd_scaling)

    return top


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.dims == []:
        parser.error("--dims must name at least one dimension")
    try:
        return args.fn(args)
    except Exception as exc:
        # exit 1 is reserved for suite failures; any error is one line and exit 2.
        # Bad input (ValueError, OSError) speaks for itself, the rest names its type.
        lines = str(exc).strip().splitlines() or [""]
        kind = "" if isinstance(exc, (ValueError, OSError)) else f"{type(exc).__name__}: "
        print(f"error: {kind}{lines[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
