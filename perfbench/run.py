#!/usr/bin/env python3
"""Benchmark for isoconv: rounds of CLI operations, each report checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload zp-profile --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

A run pins the BLAS thread cap to the core count before numpy loads, sets up
(imports, warm-up, inputs), then repeats whole rounds of the workload's
operations until another round would pass --seconds. Each operation is one
in-process `isoconv.cli.main` call that writes a JSON report; the report is
read back and checked (see checks.py). The last line of stdout is a JSON
object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics:
  wall_s       sum over the round's operations of each one's median wall time
  cpu_s        the same for process CPU time, BLAS threads included
  peak_rss_mb  ru_maxrss of this process
  setup_s      median set-up time of this process and SETUP_PROBES fresh ones
--trace 1 alternates untraced and traced rounds and reports per-layer
metrics of the traced rounds (medians over rounds) plus trace.overhead_s,
the traced minus the untraced round wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("ISOCONV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 2
WORKLOAD_NAMES = ("zp-profile", "kubota-proj", "polytope-cover")


def pin_threads() -> None:
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = cores


def set_up(workload: str, seed: int, workdir: Path):
    """Imports, warm-up and input generation. Returns (cli, ops, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import scipy.spatial  # noqa: F401  (imported lazily by grassmann and the kubota suite)

    import isoconv
    from isoconv import cli, experiments  # noqa: F401  (experiments pulls in every layer)

    if Path(isoconv.__file__).resolve().parent != SRC / "isoconv":
        raise ImportError(f"isoconv imported from {isoconv.__file__}, not from {SRC}")
    for i, op in enumerate(workloads.WARMUP[workload]()):
        run_op(cli, op, workloads.op_seed(seed, "warm-up", i, 0), workdir)
    ops = workloads.WORKLOADS[workload]()
    return cli, ops, time.perf_counter() - t0


def run_op(cli, op, seed: int, workdir: Path):
    """One timed CLI call, then its checks.

    Returns (wall, cpu, failures, aborted); aborted means the call raised or
    exited nonzero, so there is no report to check.
    """
    path = workdir / f"{op.name}.json"
    argv = [*op.argv, "--seed", str(seed), "--out", str(path)]
    failures, aborted = [], False
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # an operation that raises counts as failed
        code, aborted = None, True
        failures.append(f"raised {exc!r}")
        traceback.print_exc(file=sys.stderr)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if code not in (0, None):
        failures.append(f"exit code {code}")
        aborted = True
    if not aborted and not path.is_file():
        failures.append("no report written")
    elif not aborted:
        failures += op.check(json.loads(path.read_text()))
    path.unlink(missing_ok=True)
    return wall, cpu, failures, aborted


class Tally:
    """Attempted/failed counts and per-operation timings over rounds."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.wall = defaultdict(list)
        self.cpu = defaultdict(list)

    def run_round(self, cli, ops, seed, workload, round_index, workdir) -> float:
        total = 0.0
        for i, op in enumerate(ops):
            s = workloads.op_seed(seed, workload, i, round_index)
            wall, cpu, failures, aborted = run_op(cli, op, s, workdir)
            self.attempted += 1
            if failures:
                self.failed += 1
                # a report that fails a check is a wrong output, not just a failed call
                self.correct = self.correct and aborted
                print(f"FAIL {op.name} seed={s}: " + "; ".join(failures), file=sys.stderr)
            self.wall[i].append(wall)
            self.cpu[i].append(cpu)
            total += wall
        return total


def setup_probe(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(cli, ops, args, workdir, setup_s):
    setups = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    tally, rounds = Tally(), []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= args.seconds:
        t0 = time.perf_counter()
        tally.run_round(cli, ops, args.seed, args.workload, len(rounds), workdir)
        rounds.append(time.perf_counter() - t0)
    metrics = {
        "wall_s": metric(sum(statistics.median(v) for v in tally.wall.values()), "s"),
        "cpu_s": metric(sum(statistics.median(v) for v in tally.cpu.values()), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    return tally, metrics


def run_traced(cli, ops, args, workdir):
    import tracing

    tracer, tally = tracing.Tracer(), Tally()
    plain, traced, per_round, pairs = [], [], [], []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start + statistics.median(pairs) <= args.seconds:
        t0 = time.perf_counter()
        # both rounds of a pair run the same inputs, so their difference is the tracing
        plain.append(tally.run_round(cli, ops, args.seed, args.workload, len(pairs), workdir))
        first = len(tracer.spans)
        tracer.install()
        try:
            traced.append(tally.run_round(cli, ops, args.seed, args.workload, len(pairs), workdir))
        finally:
            tracer.uninstall()
        per_round.append(tracer.layer_totals(first))
        pairs.append(time.perf_counter() - t0)
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.json"))
    metrics = {}
    for layer, stat, unit in tracing.METRICS:
        values = [totals[layer][stat] if layer in totals else 0.0 for totals in per_round]
        metrics[f"{layer}.{stat}"] = metric(statistics.median(values), unit)
    metrics["trace.overhead_s"] = metric(statistics.median(traced) - statistics.median(plain), "s")
    return tally, metrics


def run_all(args) -> int:
    """Each workload in a fresh process, its summary lines prefixed with its name."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        if proc.returncode != 0 or json.loads(lines[-1])["failed"]:
            print(f"{name}: FAILED (exit code {proc.returncode})")
            code = 1
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "isoconv" / "__init__.py").is_file():
        print(f"perfbench: no isoconv sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    pin_threads()
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli, ops, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        if args.trace:
            tally, metrics = run_traced(cli, ops, args, workdir)
        else:
            tally, metrics = run_untraced(cli, ops, args, workdir, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"attempted {tally.attempted}, failed {tally.failed}, correct {tally.correct}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
