"""Command-line front end.

The other isoconv modules are imported in build_parser, main and the command
handlers, after main's try is entered, and not at the top of this module:
isoconv.pool reads ISOCONV_THREADS when it is first imported (build_parser
imports it, through experiments), so a bad value is one error line with exit
2, like any other bad input, and not a traceback.

main owns a command's lifecycle; a handler only computes.  main parses the
arguments, resolves --out and the stream for human-readable lines, draws a
seed when --seed is missing, calls the handler, writes the SuiteResult it
returns through experiments.emit_report (every command's one report shape and
one config echo), announces a generated seed as its last stderr line, and
returns the exit code.  A report sent to stdout gets stdout to itself, and the
human-readable lines go to stderr.  A warning raised while the handler runs,
such as a bound evaluated outside its stated range, is one `warning:` line on
stderr.

Exit codes: 0 success, 1 verify-suite assertion failure, 2 usage or any other
error: one `error:` line on stderr, with no traceback, which names the seed
when it was generated.  Every finished run is replayable from the seed in its
`seed:` line and in the report's config.  A run killed before it ends shows
no generated seed.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import fields
from typing import Optional


def _resolve_out(out: Optional[str]):
    """(path, format) of a report: --out csv|json means that format on stdout;
    any other value is a path, JSON when it ends in .json and CSV otherwise."""
    if out is None or out in ("csv", "json"):
        return None, out
    return out, "json" if out.endswith(".json") else "csv"


def _parse_values(text: str):
    """Comma-separated numbers, or @file with one value per line."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return [float(line) for line in fh.read().split()]
    return [float(tok) for tok in text.split(",") if tok]


# ---------------------------------------------------------------------------
# command handlers: (args, log) -> the command's SuiteResult, where log is the
# stream for human-readable lines and args.seed is set
# ---------------------------------------------------------------------------


def _cmd_meanwidth(args, log):
    from .bodies import parse_body
    from .experiments import Row, SuiteResult
    from .functionals import mean_width

    body = parse_body(args.body)
    est = mean_width(body, args.sphere_samples, args.seed)
    print(f"{est.value:.10g}", file=log)
    row = Row("meanwidth", body.dim, None, "mstar", est.value, est.std_error, est.direction,
              args.seed, est.n_samples)
    return SuiteResult("meanwidth", (row,), (), {})


def _cmd_zp(args, log):
    from .centroid import zp_support
    from .experiments import Row, SuiteResult
    from .measures import draw_samples, parse_measure
    from .seeds import child_seed, sphere_directions

    seed = args.seed
    mu = parse_measure(args.measure)
    samples = draw_samples(mu, args.samples, child_seed(seed, 0))
    dirs = sphere_directions(mu.dim, args.directions, child_seed(seed, 1))
    h = zp_support(samples, args.p, dirs)
    print(f"{h.mean():.10g}", file=log)
    rows = tuple(Row("zp", mu.dim, args.p, f"h-zp-dir{i}", float(v), 0.0, "mc", seed,
                     args.samples) for i, v in enumerate(h))
    return SuiteResult("zp", rows, (), {})


def _cmd_isotropy(args, log):
    from .experiments import Row, SuiteResult
    from .isotropy import estimate_moments, isotropic_constant
    from .measures import draw_samples, parse_measure

    mu = parse_measure(args.measure)
    samples = draw_samples(mu, args.samples, args.seed)
    summary = estimate_moments(samples)
    facts = [(f"barycenter-{i}", v) for i, v in enumerate(summary.barycenter)]
    facts += [(f"eigenvalue-{i}", v) for i, v in enumerate(summary.eigenvalues)]
    facts.append(("det-root", summary.det_root))
    print(f"det_root: {summary.det_root:.10g}", file=log)
    if mu.log_density_sup is None:
        print("L: unavailable (no density sup)", file=log)
    else:
        l_value = isotropic_constant(summary, mu.log_density_sup)
        print(f"L: {l_value:.10g}", file=log)
        facts.append(("l-mu", l_value))
    rows = tuple(Row("isotropy", mu.dim, None, q, float(v), 0.0, "mc", args.seed,
                     args.samples) for q, v in facts)
    return SuiteResult("isotropy", rows, (), {})


def _cmd_vk(args, log):
    from .bodies import parse_body
    from .experiments import Row, SuiteResult
    from .grassmann import vk_estimate

    body = parse_body(args.body)
    est = vk_estimate(body, args.k, args.trials, args.seed)
    print(f"{est.value:.10g}", file=log)
    row = Row("vk", body.dim, None, f"vk-k{args.k}", est.value, est.std_error, est.direction,
              args.seed, args.trials)
    return SuiteResult("vk", (row,), (), {})


def _cmd_bound(args, log) -> None:
    """Print one bound value; bound writes no report and takes no seed."""
    from .functionals import bound_rhs, parse_rad_model

    # every flag given goes to bound_rhs, which rejects those its kind does not read
    parsers = {"spectrum": _parse_values, "vk_values": _parse_values,
               "ek_values": _parse_values, "rad": parse_rad_model}
    params = {name: parsers.get(name, lambda v: v)(value)
              for name, value in vars(args).items()
              if value is not None and name not in ("command", "fn", "kind")}
    print(f"{bound_rhs(args.kind, **params):.10g}", file=log)


def _cmd_verify(args, log):
    from .experiments import SUITES, SuiteConfig, run_suite
    from .functionals import parse_rad_model

    suite = SUITES[args.suite]
    if args.dims is None:
        args.dims = list(suite.dims)
    # every SuiteConfig field but hull_directions is set by the flag of its name
    names = [f.name for f in fields(SuiteConfig) if f.name in vars(args)]
    parse = {"rad": parse_rad_model,
             "p_values": lambda v: None if v is None else tuple(_parse_values(v))}
    cfg = SuiteConfig(**{name: parse.get(name, lambda v: v)(getattr(args, name))
                         for name in names})
    # the config echo holds only the flags the suite reads
    for name in set(names) - {"seed", *suite.reads}:
        delattr(args, name)
    result = run_suite(args.suite, args.dims, cfg)
    for a in result.assertions:
        print(f"{'PASS' if a.passed else 'FAIL'} {a.name}: {a.detail}", file=log)
    return result


def _cmd_scaling(args, log):
    """Mean-width scaling fit across dims for a body-descriptor template."""
    from .experiments import Row, SuiteResult, mean_width_scaling

    estimates, slope, intercept, half = mean_width_scaling(
        args.body, args.dims, args.sphere_samples, args.seed)
    rows = [Row("scaling", n, None, "mstar", est.value, est.std_error, est.direction, args.seed,
                est.n_samples) for n, est in zip(args.dims, estimates)]
    print(f"slope: {slope.value:.6f} +- {half:.6f}", file=log)
    rows.append(Row("scaling", 0, None, "slope", slope.value, slope.std_error, slope.direction,
                    args.seed, slope.n_samples))
    return SuiteResult("scaling", tuple(rows), (), {"intercept": intercept})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _dims_list(text: str):
    return [int(tok) for tok in text.split(",") if tok]


class _Parser(argparse.ArgumentParser):
    """A usage error is a ValueError, so main reports it as one line; subparsers
    inherit the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    from .experiments import SUITE_NAMES, SuiteConfig

    defaults = SuiteConfig()

    top = _Parser(
        prog="isoconv",
        description="Numerical toolkit for mean-width, centroid bodies and "
        "isotropic position, with a seeded verification harness.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (generated and announced if omitted)")
        p.add_argument("--out", default=None, help="csv or json: that report on stdout; "
                       "else a path, JSON when it ends in .json, CSV otherwise")

    p = sub.add_parser("meanwidth", help="mean width of a body: exact for balls and "
                       "l1 balls, Monte Carlo otherwise")
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

    p = sub.add_parser("isotropy", help="moments and L of a measure")
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
    p.add_argument("--dims", type=_dims_list, default=None, help="comma list, e.g. 4,8,16 "
                   "(default: the suite's own), checked against the suite's dims rule")
    p.add_argument("--samples", type=int, default=defaults.samples)
    p.add_argument("--sphere-samples", type=int, default=defaults.sphere_samples)
    p.add_argument("--trials", type=int, default=defaults.trials)
    p.add_argument("--rad", default=defaults.rad.kind)
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


def _warning_line(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    generated = None
    try:
        args = build_parser().parse_args(argv)
        path, fmt = _resolve_out(getattr(args, "out", None))
        # human-readable lines go to stderr when the report has stdout to itself
        log = sys.stderr if fmt is not None and path is None else sys.stdout
        if "seed" in vars(args) and args.seed is None:
            from .seeds import generate_seed

            args.seed = generated = generate_seed()
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            result = args.fn(args, log)
        if result is None:  # bound: a value line, no report
            return 0
        if fmt is not None:
            from .experiments import emit_report

            config = {k: v for k, v in vars(args).items()
                      if k not in ("command", "fn", "out")}
            emit_report(result, config, fmt, path)
        if generated is not None:
            print(f"seed: {generated} (generated)", file=sys.stderr)
        return 0 if result.passed else 1
    except Exception as exc:
        # exit 1 is reserved for suite failures; any error is one line and exit 2.
        # Bad input (ValueError, OSError) speaks for itself, the rest names its type.
        lines = str(exc).strip().splitlines() or [""]
        kind = "" if isinstance(exc, (ValueError, OSError)) else f"{type(exc).__name__}: "
        replay = "" if generated is None else f" (seed: {generated}, generated)"
        print(f"error: {kind}{lines[0]}{replay}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
