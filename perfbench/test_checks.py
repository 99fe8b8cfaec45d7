"""Each output check accepts a genuine report and rejects a perturbed one.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_checks.py

Reports come from real CLI calls at reduced sizes; every perturbation
breaks one property or reference value by more than its tolerance.
"""

from __future__ import annotations

import copy
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from isoconv import cli  # noqa: E402

SMALL = {
    "thm-main-aniso": workloads.thm_main_aniso(samples=4_000, sphere=200),
    "paouris": workloads.paouris(sphere=200),
    "kubota": workloads.kubota(samples=2_000, trials=2),
    "zn-volrad": workloads.zn_volrad(samples=2_000),
    "vk": workloads.vk(8, 4, 2),
    "vk2": workloads.vk(12, 2, 4),
    "covering": workloads.covering(dims=(2,)),
    "theorem1": workloads.theorem1(dims=(8, 16, 32), samples=5_000, sphere=1_000),
    "b1-scaling": workloads.b1_scaling(dims=(8, 16, 32, 64), sphere=1_000),
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = {}
    for key, op in SMALL.items():
        path = tmp_path_factory.mktemp("reports") / f"{key}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*op.argv, "--seed", "11", "--out", str(path)]) == 0
        out[key] = json.loads(path.read_text())
    return out


def _row(report, quantity, key=None):
    rows = [r for r in report["rows"] if r["quantity"] == quantity
            and (key is None or key in (r["p"], r["n"]))]
    return rows[0]


def _scale(quantity, factor, key=None):
    def perturb(report):
        _row(report, quantity, key)["value"] *= factor
    return perturb


def _set(quantity, value_of, key=None):
    def perturb(report):
        _row(report, quantity, key)["value"] = value_of(report)
    return perturb


def _drop(quantity):
    def perturb(report):
        report["rows"].remove(_row(report, quantity))
    return perturb


def _fail_suite(report):
    report["meta"]["passed"] = False


def _nan(quantity):
    return _set(quantity, lambda r: math.nan)


def _swap_cover(report):
    a, b = _row(report, "cover-radius-j3"), _row(report, "cover-radius-j4")
    a["value"], b["value"] = b["value"], a["value"]


def _both_zp2(factor):
    def perturb(report):
        for q in ("volrad-zp-inner", "volrad-zp-outer"):
            _row(report, q, 2.0)["value"] *= factor
    return perturb


CASES = [
    ("thm-main-aniso", "suite-passed", _fail_suite),
    ("thm-main-aniso", "rows-present", _drop("bound-arith-spike")),
    ("thm-main-aniso", "rows-finite", _nan("bound-arith-flat")),
    ("thm-main-aniso", "bound-arith", _scale("bound-arith-geometric", 1 + 1e-9, 8.0)),
    ("thm-main-aniso", "gaussian-zp", _scale("sqrtn-mstar-zp-flat", 1.1, 2.0)),
    ("thm-main-aniso", "monotone-p", _set("sqrtn-mstar-zp-flat",
                                          lambda r: 0.5 * _row(r, "sqrtn-mstar-zp-flat", 2.0)["value"],
                                          64.0)),
    ("paouris", "gaussian-zp", _scale("mstar-zp-gaussian", 0.9, 8.0)),
    ("paouris", "cube-z2", _scale("mstar-zp-cube", 1.1, 2.0)),
    ("paouris", "monotone-p", _set("mstar-zp-cube",
                                   lambda r: 0.5 * _row(r, "mstar-zp-cube", 1.0)["value"], 64.0)),
    ("kubota", "inner-le-outer", _set("volrad-zp-inner",
                                      lambda r: 1.01 * _row(r, "volrad-zp-outer", 3.0)["value"], 3.0)),
    ("kubota", "z2-contains-1", _both_zp2(1.3)),
    ("kubota", "kubota-pmean-1", _scale("kubota-pmean", 1.2, 2.0)),
    ("zn-volrad", "zn-inside-k", _set("volrad-zn-cube", lambda r: 1.01 * checks.unit_volume_volrad(4), 4.0)),
    ("vk", "vk-cauchy-binet", _set("vk-k4", lambda r: 0.99 * checks.unit_volume_volrad(4))),
    ("vk2", "vk-cauchy-binet", _set("vk-k2", lambda r: 1.1 * math.comb(12, 2) ** 0.25
                                    * checks.unit_volume_volrad(2))),
    ("covering", "cover-monotone", _swap_cover),
    ("covering", "cover-volumetric", _set("cover-radius-j8", lambda r: 0.01)),
    ("theorem1", "mstar-cube", _scale("mstar-cube", 1.05, 16)),
    ("theorem1", "l-cube", _scale("l-cube", 1.05, 32)),
    ("theorem1", "thm1-ratio", _scale("thm1-ratio-cross", 1 + 1e-9, 8)),
    ("b1-scaling", "b1-slope", _scale("slope", 1 + 1e-6)),
]


@pytest.mark.parametrize("key", sorted(SMALL))
def test_genuine_report_passes(reports, key):
    assert SMALL[key].check(reports[key]) == []


@pytest.mark.parametrize("key, name, perturb", CASES,
                         ids=[f"{k}-{n}-{i}" for i, (k, n, _) in enumerate(CASES)])
def test_perturbed_report_fails(reports, key, name, perturb):
    report = copy.deepcopy(reports[key])
    perturb(report)
    failures = SMALL[key].check(report)
    assert any(f.startswith(f"{name}:") for f in failures), failures


def test_every_check_has_a_perturbation():
    import inspect
    import re

    named = set(re.findall(r'expect\(\s*"([a-z0-9-]+)"', inspect.getsource(checks)))
    assert named == {name for _, name, _ in CASES}


def test_failed_exit_counts_as_failed(tmp_path):
    bad = workloads.Op("bad", ("vk", "--body", "cube:3:1", "--k", "9", "--trials", "1"),
                       lambda r: [])
    _, _, failures, aborted = run.run_op(cli, bad, 1, tmp_path)
    assert aborted and failures == ["exit code 2"]
