"""The benchmark's workloads: each is a round of `isoconv` CLI operations.

An operation is one argv for `isoconv.cli.main` (a `verify` or `vk`
command) plus the check its JSON report must pass. Seeds are derived from
the benchmark seed, the operation and the round, so a seed fixes every
input of a run. Sizes are chosen so that one round takes a few seconds on
two cores and no suite assertion comes near its limit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple  # without --seed and --out
    check: Callable[[dict], list]


def op_seed(seed: int, workload: str, op_index: int, round_index: int) -> int:
    payload = f"{seed}/{workload}/{op_index}/{round_index}".encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little") >> 1


def _fmt(values) -> str:
    return ",".join(f"{v:g}" for v in values)


# -- operations; the default arguments are the workload sizes ------------------


def thm_main_aniso(n=32, samples=20_000, sphere=800, ps=(2.0, 8.0, 64.0)) -> Op:
    argv = ("verify", "--suite", "thm-main-aniso", "--dims", str(n), "--samples", str(samples),
            "--sphere-samples", str(sphere), "--p-values", _fmt(ps))
    return Op("thm-main-aniso", argv, lambda r: checks.check_thm_main_aniso(r, n, ps, samples))


def paouris(n=32, samples=20_000, sphere=800, ps=(1.0, 2.0, 8.0, 64.0)) -> Op:
    argv = ("verify", "--suite", "paouris", "--dims", str(n), "--samples", str(samples),
            "--sphere-samples", str(sphere), "--p-values", _fmt(ps))
    return Op("paouris", argv, lambda r: checks.check_paouris(r, n, ps, samples))


def kubota(n=4, samples=8_000, trials=4) -> Op:
    argv = ("verify", "--suite", "kubota", "--dims", str(n), "--samples", str(samples),
            "--trials", str(trials))
    return Op("kubota", argv, lambda r: checks.check_kubota(r, n, samples))


def zn_volrad(dims=(3, 4), samples=8_000) -> Op:
    argv = ("verify", "--suite", "zn-volrad", "--dims", _fmt(dims), "--samples", str(samples))
    return Op("zn-volrad", argv, lambda r: checks.check_zn_volrad(r, dims))


def vk(n, k, trials) -> Op:
    argv = ("vk", "--body", f"cube:{n}:1", "--k", str(k), "--trials", str(trials))
    return Op(f"vk-n{n}-k{k}", argv, lambda r: checks.check_vk(r, n, k))


def covering(dims=(2, 3)) -> Op:
    argv = ("verify", "--suite", "covering-regularity", "--dims", _fmt(dims))
    return Op("covering-regularity", argv, lambda r: checks.check_covering(r, dims))


def theorem1(dims=(32, 64, 128), samples=50_000, sphere=10_000) -> Op:
    argv = ("verify", "--suite", "theorem1", "--dims", _fmt(dims), "--samples", str(samples),
            "--sphere-samples", str(sphere))
    return Op("theorem1", argv, lambda r: checks.check_theorem1(r, dims, samples))


def b1_scaling(dims=(40, 80, 120, 160), sphere=10_000) -> Op:
    argv = ("verify", "--suite", "b1-scaling", "--dims", _fmt(dims),
            "--sphere-samples", str(sphere))
    return Op("b1-scaling", argv, lambda r: checks.check_b1_scaling(r, dims))


# Why each workload is there:
# - zp-profile stresses centroid.zp_support alone (~95% of its time), at
#   n = 32 with p on both sides of the p = 32 log-domain switch;
# - kubota-proj calls the same kernel at small n and p through projections,
#   touching points and qhull volumes, and has the largest peak RSS;
# - polytope-cover has no Z_p at all: hulls of projected cubes, the greedy
#   covering and uniform sampling with moments. A change to centroid should
#   leave it unmoved.
WORKLOADS = {
    "zp-profile": lambda: [thm_main_aniso(), paouris()],
    "kubota-proj": lambda: [kubota(), zn_volrad()],
    "polytope-cover": lambda: [vk(8, 4, 6), vk(10, 3, 24), vk(12, 2, 32), covering(),
                               theorem1(), b1_scaling()],
}

# One small call per code path, run during set-up so that lazy imports,
# qhull and the BLAS thread pool are loaded before the first timed operation.
# Their outcomes are not checked: at these sizes some suite assertions fail.
WARMUP = {
    "zp-profile": lambda: [thm_main_aniso(samples=2_000, sphere=200),
                           paouris(samples=2_000, sphere=200)],
    "kubota-proj": lambda: [kubota(n=3, samples=1_000, trials=2),
                            zn_volrad(dims=(2, 3), samples=1_000)],
    "polytope-cover": lambda: [vk(8, 4, 1), vk(10, 3, 1), vk(12, 2, 1), covering(dims=(2,)),
                               theorem1(dims=(4, 8), samples=2_000, sphere=200),
                               b1_scaling(dims=(4, 8, 16, 32), sphere=200)],
}
