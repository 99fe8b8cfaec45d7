import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from isoconv import cli, experiments, functionals, pool
from isoconv.bodies import lp_ball_log_volume
from isoconv.experiments import Assertion, SuiteResult


def test_meanwidth_ball_prints_one(capsys):
    rc = cli.main(["meanwidth", "--body", "ball:8", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip() == "1"


def test_meanwidth_ball_past_gamma_overflow_prints_one(capsys):
    rc = cli.main(["meanwidth", "--body", "ball:400", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip() == "1"


def test_bound_summary_piecewise_prints_two(capsys):
    rc = cli.main(["bound", "--kind", "summary-piecewise", "--n", "16", "--p", "4"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2"


def test_bound_range_warning_is_one_stderr_line():
    argv = ["bound", "--kind", "thm14", "--n", "16", "--rad-value", "1", "--l-k", "0.3",
            "--t", "0.01"]
    proc = subprocess.run([sys.executable, "-m", "isoconv", *argv], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        "warning: thm14: t = 0.01 outside the stated range [0.3, 1.2]; evaluating anyway"]
    assert float(proc.stdout) > 0


def test_verify_unknown_suite_exits_2():
    rc = cli.main(["verify", "--suite", "nosuch", "--dims", "4"])
    assert rc == 2


def test_unknown_flag_exits_2(capsys):
    rc = cli.main(["meanwidth", "--body", "ball:2", "--nosuchflag"])
    assert rc == 2
    assert "--nosuchflag" in capsys.readouterr().err


def test_help_prints_usage_and_exits_0(capsys):
    # only usage errors become an error line; --help still exits through argparse
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: isoconv verify")


def test_missing_seed_generates_and_announces(capsys):
    rc = cli.main(["meanwidth", "--body", "ball:4"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "seed:" in captured.err and "generated" in captured.err


def test_bound_missing_parameter_exits_2(capsys):
    rc = cli.main(["bound", "--kind", "sudakov", "--n", "4", "--t", "1.0"])
    assert rc == 2
    assert "mstar" in capsys.readouterr().err
    rc = cli.main(["bound", "--kind", "thm-main-arith", "--p", "8"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("error: bound kind 'thm-main-arith' is missing "
                            "parameter 'spectrum'\n")


@pytest.mark.parametrize("argv,reason", [
    (["--kind", "summary-piecewise", "--n", "16", "--p", "nan"], "p must be >= 1"),
    (["--kind", "sudakov", "--n", "4", "--mstar", "1", "--t", "nan"], "t must be positive"),
    (["--kind", "thm-main-arith", "--p", "2", "--spectrum", "1,nan"],
     "spectrum entries must be positive"),
    (["--kind", "thm14", "--n", "16", "--rad-value", "nan", "--l-k", "0.3", "--t", "0.5"],
     "rad_value must be positive"),
    (["--kind", "thm14", "--n", "16", "--rad-value", "1", "--l-k", "nan", "--t", "0.5"],
     "l_k must be positive"),
    (["--kind", "gpv", "--n", "16", "--p", "4", "--t", "0"], "t must be positive"),
    (["--kind", "gpv-piecewise", "--n", "16", "--p", "4", "--t", "0"], "t must be positive"),
    (["--kind", "mp-sum", "--vk-values", "1", "--rad", "constant:nan"], "needs c > 0"),
    (["--kind", "sudakov", "--n", "4", "--mstar", "1", "--t", "1", "--p", "3",
      "--spectrum", "5,4"], "bound kind 'sudakov' does not read 'spectrum', 'p'"),
])
def test_bound_rejects_nan_and_out_of_range_inputs(argv, reason, capsys):
    rc = cli.main(["bound", *argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert reason in captured.err


# every bound kind with a valid value for each parameter it reads
_BOUND_KINDS = {
    "thm-main-product": {"--spectrum": "2,1", "--p": "2"},
    "thm-main-arith": {"--spectrum": "2,1", "--p": "2"},
    "prop31": {"--spectrum": "2,1", "--p": "2", "--k": "1"},
    "mp-sum": {"--vk-values": "1,2", "--p": "2"},
    "dudley-sum": {"--ek-values": "1,2"},
    "summary-piecewise": {"--n": "16", "--p": "4"},
    "sudakov": {"--n": "4", "--mstar": "1", "--t": "1"},
    "hartzoulaki": {"--n": "8", "--l-k": "0.5", "--t": "2"},
    "gpv": {"--n": "16", "--p": "4", "--t": "2"},
    "gpv-piecewise": {"--n": "256", "--p": "4", "--t": "2"},
    "thm14": {"--n": "16", "--rad-value": "1", "--l-k": "0.3", "--t": "0.5"},
}
# each parameter set to each value out of its range; v_k and e_k entries may be 0
_OUT_OF_RANGE = [(kind, flag, bad) for kind, params in _BOUND_KINDS.items() for flag in params
                 for bad in ("nan", "inf", "0", "-1")
                 if not (bad == "0" and flag in ("--vk-values", "--ek-values"))]


@pytest.mark.parametrize("kind,flag,bad", _OUT_OF_RANGE,
                         ids=[f"{k} {f}={b}" for k, f, b in _OUT_OF_RANGE])
def test_bound_rejects_every_out_of_range_parameter(kind, flag, bad, capsys):
    def argv(params):
        return ["bound", "--kind", kind, *(f"{f}={v}" for f, v in params.items())]

    assert cli.main(argv(_BOUND_KINDS[kind])) == 0
    capsys.readouterr()
    rc = cli.main(argv({**_BOUND_KINDS[kind], flag: bad}))
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag in captured.err or flag[2:].replace("-", "_") in captured.err


def test_bound_spectrum_from_file(tmp_path, capsys):
    f = tmp_path / "spec.txt"
    f.write_text("1.0\n1.0\n1.0\n1.0\n")
    rc = cli.main(["bound", "--kind", "thm-main-product",
                   "--spectrum", f"@{f}", "--p", "4"])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(25.0 / 6.0, rel=1e-9)


def test_bound_rad_model_flag(capsys):
    rc = cli.main(["bound", "--kind", "mp-sum", "--vk-values", "1,1",
                   "--rad", "constant:2"])
    assert rc == 0
    val = float(capsys.readouterr().out)
    assert val == pytest.approx(2.0 * (1.0 + 2.0**-0.5), rel=1e-9)


def test_zp_csv_to_stdout(capsys):
    rc = cli.main(["zp", "--measure", "gaussian:3", "--p", "2", "--samples",
                   "2000", "--directions", "5", "--seed", "3", "--out", "csv"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    # header + 5 rows; the value line goes to stderr
    assert lines[0] == "suite,n,p,quantity,value,std_error,direction,seed,samples"
    assert len(lines) == 6
    assert len(captured.err.strip().splitlines()) == 1
    rec = next(csv.DictReader(lines))
    assert rec["suite"] == "zp" and rec["n"] == "3" and rec["seed"] == "3"


def _isotropy_rows(out):
    payload = json.loads(out)
    return payload, {r["quantity"]: r["value"] for r in payload["rows"]}


def test_isotropy_json_fields(capsys):
    rc = cli.main(["isotropy", "--measure", "uniform:cube:3", "--samples",
                   "5000", "--seed", "7", "--out", "json"])
    assert rc == 0
    payload, rows = _isotropy_rows(capsys.readouterr().out)
    assert set(rows) == {*(f"{q}-{i}" for q in ("barycenter", "eigenvalue") for i in range(3)),
                         "det-root", "l-mu"}
    assert rows["l-mu"] == pytest.approx(12.0**-0.5, abs=0.02)
    assert payload["meta"]["config"]["seed"] == 7


def test_isotropy_gaussian_l_value(capsys):
    # standard gaussian: density sup (2 pi)^(-n/2), unit covariance, so
    # L = (2 pi)^(-1/2)
    rc = cli.main(["isotropy", "--measure", "gaussian:2", "--samples", "50000",
                   "--seed", "1", "--out", "json"])
    assert rc == 0
    _, rows = _isotropy_rows(capsys.readouterr().out)
    assert rows["l-mu"] == pytest.approx((2 * 3.141592653589793) ** -0.5, abs=0.01)
    assert {"eigenvalue-0", "eigenvalue-1"} <= set(rows)


def test_meanwidth_out_csv_file(tmp_path, capsys):
    path = tmp_path / "mw.csv"
    rc = cli.main(["meanwidth", "--body", "lpball:2:3", "--sphere-samples", "500",
                   "--seed", "2", "--out", str(path)])
    assert rc == 0
    rows = list(csv.DictReader(open(path, newline="")))
    assert len(rows) == 1
    assert rows[0]["quantity"] == "mstar"
    assert rows[0]["direction"] == "mc"
    # E||theta||_{3/2} over S^1, by 30-digit mpmath quadrature
    assert float(rows[0]["value"]) == pytest.approx(1.0734989993720321, abs=0.05)


def test_vk_command(capsys):
    rc = cli.main(["vk", "--body", "ball:5", "--k", "2", "--trials", "3",
                   "--seed", "4"])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("body", ["ball:400", "unitcube:400"])
def test_vk_full_dimension_past_gamma_overflow(capsys, body):
    # k = n: v_n(K) is volrad(K), read from log vol K; vol B_2^400 has no float form
    rc = cli.main(["vk", "--body", body, "--k", "400", "--trials", "1", "--seed", "1",
                   "--out", "json"])
    assert rc == 0
    [row] = json.loads(capsys.readouterr().out)["rows"]
    if body == "ball:400":
        assert row["value"] == 1.0
    else:
        expected = math.exp(-lp_ball_log_volume(400, 2.0) / 400)
        assert row["value"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("measure", ["uniform:cross:200", "uniform:ball:700", "gaussian:820"])
def test_isotropy_l_is_finite_where_the_density_sup_is_not(capsys, measure):
    # sup f = 1/vol K over- or underflows here, and (2 pi)^(-n/2) rounds to 0
    # from n = 811 on; L = exp(log sup f / n) * det_root does neither
    rc = cli.main(["isotropy", "--measure", measure, "--samples", "2000", "--seed", "1",
                   "--out", "json"])
    assert rc == 0
    _, rows = _isotropy_rows(capsys.readouterr().out)
    assert math.isfinite(rows["l-mu"]) and rows["l-mu"] > 0


def test_scaling_command(capsys):
    rc = cli.main(["scaling", "--body", "b1tilde:{n}", "--dims", "4,6,8,12",
                   "--sphere-samples", "2000", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("slope:")


@pytest.mark.parametrize("template,label", [("b1tilde:{n}", "exact"), ("lpball:{n}:3", "mc")])
def test_scaling_slope_is_exact_when_every_mstar_is(template, label, capsys):
    rc = cli.main(["scaling", "--body", template, "--dims", "8,16,32,64",
                   "--sphere-samples", "200", "--seed", "2", "--out", "json"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rc == 0 and [r["quantity"] for r in rows] == ["mstar"] * 4 + ["slope"]
    assert [r["direction"] for r in rows] == [label] * 5
    assert (rows[-1]["std_error"] == 0.0) == (label == "exact")


def test_scaling_template_may_repeat_n(capsys):
    # every body must be n-dimensional, and cube:{n}:{n} is
    rc = cli.main(["scaling", "--body", "cube:{n}:{n}", "--dims", "4,8,16,32",
                   "--sphere-samples", "200", "--seed", "1"])
    assert rc == 0 and capsys.readouterr().out.startswith("slope:")


def test_verify_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc = cli.main(["verify", "--suite", "zn-volrad", "--dims", "3", "--samples",
                   "3000", "--seed", "11", "--out", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    payload = json.loads(open(path).read())
    assert payload["meta"]["suite"] == "zn-volrad"
    # the echo of the parsed arguments, less the flags zn-volrad does not read
    assert payload["meta"]["config"] == {
        "suite": "zn-volrad", "dims": [3], "samples": 3000, "seed": 11,
    }
    assert payload["rows"]


def test_verify_warns_about_a_typed_flag_the_suite_does_not_read(capsys):
    # one stderr line; the exit code and the report are those of the run without it
    argv = ["verify", "--suite", "thm-main-aniso", "--dims", "4", "--sphere-samples", "200",
            "--seed", "1", "--out", "json"]
    assert cli.main(argv) == 0
    quiet = capsys.readouterr()
    assert cli.main([*argv, "--samples", "5"]) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    assert loud.err == ("warning: --samples is not read by suite thm-main-aniso; ignored\n"
                        + quiet.err)


def test_verify_echoes_the_parsed_p_grid(tmp_path, capsys):
    # a report replays from its config even when the @file changes later
    grid = tmp_path / "p.txt"
    grid.write_text("2\n8\n")
    for text in (f"@{grid}", "2,8"):
        rc = cli.main(["verify", "--suite", "thm-main-aniso", "--dims", "4",
                       "--sphere-samples", "200", "--p-values", text, "--seed", "1",
                       "--out", "json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["meta"]["config"]["p_values"] == [2.0, 8.0]


def test_verify_failing_assertion_exits_1(monkeypatch, capsys):
    import isoconv.experiments as exp

    def fake_run_suite(name, dims, config):
        return SuiteResult(suite=name, rows=[],
                           assertions=[Assertion("forced", False, "injected")],
                           fitted={})

    monkeypatch.setattr(exp, "run_suite", fake_run_suite)
    rc = cli.main(["verify", "--suite", "paouris", "--dims", "4", "--seed", "1"])
    assert rc == 1
    assert "FAIL forced" in capsys.readouterr().out


def test_unwritable_out_path_exits_2(capsys):
    rc = cli.main(["meanwidth", "--body", "ball:2", "--seed", "1",
                   "--out", "/nonexistent-dir/x.csv"])
    assert rc == 2
    assert "/nonexistent-dir/x.csv" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "isoconv", "bound", "--kind",
         "summary-piecewise", "--n", "16", "--p", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


@pytest.mark.parametrize("cap", ["abc", "0", "-2", "1.5"])
def test_bad_thread_cap_is_one_line_exit_2(cap):
    # isoconv.pool reads the variable once, when first imported, so only a
    # fresh process sees a new value
    env = dict(os.environ, ISOCONV_THREADS=cap)
    proc = subprocess.run([sys.executable, "-m", "isoconv", "meanwidth", "--body", "ball:3",
                           "--seed", "9"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: ISOCONV_THREADS must be an integer >= 1, got {cap!r}\n"


def test_thread_cap_is_clamped_to_the_cores(monkeypatch):
    # the reader alone, so no pool of that size is made
    cores = len(os.sched_getaffinity(0))
    monkeypatch.delenv("ISOCONV_THREADS", raising=False)
    assert pool._thread_cap() == cores
    for cap, resolved in (("1", 1), (str(cores), cores), (str(cores + 1000), cores)):
        monkeypatch.setenv("ISOCONV_THREADS", cap)
        assert pool._thread_cap() == resolved


@pytest.mark.parametrize("argv", [
    ["zp", "--measure", "gaussian:32", "--p", "8", "--samples", "20000",
     "--directions", "50"],
    ["verify", "--suite", "paouris", "--dims", "32", "--samples", "20000",
     "--sphere-samples", "400", "--p-values", "2,3,8,64"],  # the cube's p = 3 is sampled
    # their hull volumes run as pool tasks
    ["verify", "--suite", "kubota", "--dims", "3", "--samples", "1000", "--trials", "3"],
    ["verify", "--suite", "zn-volrad", "--dims", "2,3", "--samples", "1000"],
])
def test_report_does_not_depend_on_the_thread_cap(argv):
    # a threaded BLAS splits each dot product of over 10^4 entries across its
    # threads, which moved the last digit of 8 of these 50 zp rows.
    # OPENBLAS_NUM_THREADS does not size the pool; ISOCONV_THREADS alone does
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    reports = []
    for cap in (1, 2):
        env["ISOCONV_THREADS"] = str(cap)
        proc = subprocess.run([sys.executable, "-m", "isoconv", *argv, "--seed", "1",
                               "--out", "json"], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode in (0, 1), proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["meta"]["threads"] == min(cap, len(os.sched_getaffinity(0)))
        reports.append((proc.returncode, payload["rows"], payload["assertions"]))
    assert reports[0] == reports[1]


def test_kubota_report_does_not_depend_on_the_core_count(monkeypatch, capsys):
    # when the Z_p blocks followed the core count, the volrad-zp-inner row at
    # p = 3 moved in its last digit between 2 and 4 cores
    argv = ["verify", "--suite", "kubota", "--dims", "4", "--samples", "20000",
            "--trials", "2", "--seed", "4", "--out", "json"]
    rows = []
    for cores in (2, 4):
        monkeypatch.setattr(pool, "_CORES", cores)
        assert cli.main(argv) in (0, 1)
        rows.append(json.loads(capsys.readouterr().out)["rows"])
    assert rows[0] == rows[1]


_RSS_SCRIPT = """
import contextlib, io, resource, sys
from isoconv import cli
peaks = []
for seed in range(1, 6):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(sys.argv[1:] + ["--seed", str(seed)])
    assert rc in (0, 1), rc
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
print(peaks[0], peaks[-1])
"""


def test_repeated_kubota_calls_do_not_grow_the_peak_rss():
    # hull temporaries freed in a worker thread's own malloc arena stay
    # resident; with one arena per worker this peak grew by 11-17 MB over the
    # four calls after the first (0-1.2 MB with the single arena)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["ISOCONV_THREADS"] = "2"
    proc = subprocess.run([sys.executable, "-c", _RSS_SCRIPT, "verify", "--suite", "kubota",
                           "--dims", "4", "--samples", "2000", "--trials", "2"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    first, last = map(float, proc.stdout.split())
    assert last - first <= 5.0, (first, last)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_out_format_word_goes_to_stdout(fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["verify", "--suite", "theorem1", "--dims", "4,8", "--samples",
                   "2000", "--sphere-samples", "500", "--seed", "1", "--out", fmt])
    captured = capsys.readouterr()
    assert rc == 0
    assert not (tmp_path / fmt).exists()
    assert "PASS" in captured.err and "PASS" not in captured.out
    if fmt == "json":
        payload = json.loads(captured.out)
        assert payload["meta"]["suite"] == "theorem1" and payload["rows"]
    else:
        rows = list(csv.DictReader(captured.out.splitlines()))
        assert rows and all(r["suite"] == "theorem1" for r in rows)


def test_unexpected_error_is_one_line_exit_2(monkeypatch, capsys):
    import isoconv.experiments as exp

    def broken_run_suite(name, dims, config):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(exp, "run_suite", broken_run_suite)
    rc = cli.main(["verify", "--suite", "b1-scaling", "--dims", "8", "--seed", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: ZeroDivisionError: injected\n"


def test_b1_scaling_runs_where_the_cross_polytope_volume_underflows(capsys):
    # vol B_1^n = 2^n/n! overflows 1/vol from n = 197 and is 0.0 at n = 256
    rc = cli.main(["verify", "--suite", "b1-scaling", "--dims", "32,64,128,256",
                   "--sphere-samples", "500", "--seed", "1"])
    assert rc == 0, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["zp", "--measure", "gaussian:3", "--p", "nan"],
    ["verify", "--suite", "paouris", "--dims", "4", "--samples", "1000",
     "--sphere-samples", "100", "--p-values", "2,nan"],
])
def test_nan_p_is_one_line_exit_2(argv, capsys):
    rc = cli.main([*argv, "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: p must be in [1, 1048576.0], got nan\n"


@pytest.mark.parametrize("argv, err", [
    (["bound", "--kind", "gpv", "--n", "4", "--p", "2", "--t", "0.9999999"],
     "warning: gpv: t = 0.9999999 outside the stated range [1.0, 1.4142135623730951]; "
     "evaluating anyway\n"),
    (["bound", "--kind", "summary-piecewise", "--n", "16", "--p", "16.0000001"],
     "warning: summary-piecewise: p = 16.0000001 beyond the stated range [1, n=16]\n"),
    (["bound", "--kind", "gpv-piecewise", "--n", "16", "--p", "1.9932485", "--t", "1"],
     "warning: gpv-piecewise: p = 1.9932485 beyond the stated range "
     "[1, n/log^2(1+n) = 1.993248405978186]\n"),
    (["zp", "--measure", "gaussian:3", "--p", "1048577", "--seed", "1"],
     "error: p must be in [1, 1048576.0], got 1048577.0\n"),
], ids=["gpv", "summary-piecewise", "gpv-piecewise", "zp"])
def test_range_messages_print_the_value_in_full(argv, err, capsys):
    # rounded to 6 digits, each of these values read as inside its range
    cli.main(argv)
    assert capsys.readouterr().err == err


REPORT_COMMANDS = {
    "meanwidth": ["--body", "ball:3", "--sphere-samples", "200"],
    "zp": ["--measure", "gaussian:3", "--p", "3", "--samples", "500", "--directions", "4"],
    "isotropy": ["--measure", "gaussian:2", "--samples", "500"],
    "vk": ["--body", "ball:4", "--k", "2", "--trials", "2"],
    "scaling": ["--body", "b1tilde:{n}", "--dims", "4,6,8,12", "--sphere-samples", "200"],
    "verify": ["--suite", "theorem1", "--dims", "4,8", "--samples", "2000",
               "--sphere-samples", "500"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(REPORT_COMMANDS))
def test_every_command_writes_the_one_report_shape(command, fmt, tmp_path, capsys):
    header = "suite,n,p,quantity,value,std_error,direction,seed,samples"
    suite = "theorem1" if command == "verify" else command
    path = tmp_path / f"x.{fmt}"
    for out in (fmt, str(path)):
        rc = cli.main([command, *REPORT_COMMANDS[command], "--seed", "1", "--out", out])
        assert rc == 0
        text = capsys.readouterr().out if out == fmt else open(path, newline="").read()
        if fmt == "csv":
            assert "\r" not in text
            assert text.startswith(header + "\n")
            rows = list(csv.DictReader(text.splitlines()))
            assert rows and all(r["suite"] == suite for r in rows)
        else:
            payload = json.loads(text)
            assert set(payload) == {"meta", "assertions", "rows"}
            assert set(payload["meta"]) == {"version", "suite", "config", "fitted", "passed",
                                            "threads"}
            assert payload["meta"]["threads"] == pool.WORKERS
            assert payload["meta"]["suite"] == suite
            assert payload["meta"]["config"]["seed"] == 1 and payload["rows"]


@pytest.mark.parametrize("command", sorted(REPORT_COMMANDS))
def test_out_alone_picks_the_report_format(command, tmp_path, capsys):
    argv = [command, *REPORT_COMMANDS[command], "--seed", "1"]
    rc = cli.main([*argv, "--out", "json", "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: unrecognized arguments: --format json\n"
    path = tmp_path / "report.dat"  # any suffix but .json is CSV
    assert cli.main([*argv, "--out", str(path)]) == 0
    assert path.read_text().startswith("suite,n,p,quantity,value,std_error,direction,")


@pytest.mark.parametrize("suite", ["kubota", "thm-main-aniso"])
def test_single_dimension_suites_reject_several_dims(suite, capsys):
    rc = cli.main(["verify", "--suite", suite, "--dims", "3,4", "--samples", "1000",
                   "--sphere-samples", "100", "--trials", "2", "--seed", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "one dimension" in err and err.count("\n") == 1


def test_vk_sup_of_outer_estimates_is_not_labelled_lower(capsys):
    # A body without polytope data takes outer tangent-polytope volumes, whose
    # sup bounds v_4 from neither side.  The unit 6-cube's projections are
    # zonotopes with exact volumes, under the Cauchy-Binet ceiling
    # C(6,4)^(1/8) w_4^(-1/4) = 0.94123 (the outer volumes read 0.954 here).
    rows = {}
    for body in ("unitlpball:6:3", "cube:6:1"):
        rc = cli.main(["vk", "--body", body, "--k", "4", "--trials", "8",
                       "--seed", "1", "--out", "json"])
        assert rc == 0
        (rows[body],) = json.loads(capsys.readouterr().out)["rows"]
    assert rows["unitlpball:6:3"]["direction"] == "mc"
    assert rows["cube:6:1"]["value"] <= 0.9412
    assert rows["cube:6:1"]["direction"] == "lower"


def test_vk_cube_k6_takes_exact_zonotope_volumes(capsys):
    # each trial's volume is vol P_F([-1,1]^8) = 2^6 sum_{|S|=6} |det B_S|;
    # the tangent-polytope path took about 106 s per projection here
    import itertools
    import time

    from isoconv.bodies import ball_volume, cube
    from isoconv.grassmann import project_body, random_subspace, volume_radius_lowdim
    from isoconv.seeds import child_seed

    start = time.perf_counter()
    rc = cli.main(["vk", "--body", "cube:8", "--k", "6", "--trials", "4", "--seed", "1",
                   "--out", "json"])
    elapsed = time.perf_counter() - start
    assert rc == 0 and elapsed < 1.0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["direction"] == "lower" and row["std_error"] == 0.0
    trials = []
    for i in range(4):
        F = random_subspace(8, 6, child_seed(1, i))
        exact = 2.0**6 * sum(abs(np.linalg.det(F.basis[list(S)]))
                             for S in itertools.combinations(range(8), 6))
        trials.append((exact / ball_volume(6)) ** (1.0 / 6.0))
        est = volume_radius_lowdim(project_body(cube(8), F))
        assert est.direction == "exact"
        assert est.value == pytest.approx(trials[-1], rel=1e-12)
    assert row["value"] == pytest.approx(max(trials), rel=1e-12)


def test_kubota_gate_takes_its_multiplier_from_the_trials(capsys):
    # two projections give an SE with one degree of freedom; a 3-SE normal
    # gate fails here (0.9901 + 3*0.0033 < inner 1.0004), the t gate does not
    rc = cli.main(["verify", "--suite", "kubota", "--dims", "3", "--samples", "1000",
                   "--trials", "2", "--seed", "1"])
    assert rc == 0
    assert "+ 235.80*" in capsys.readouterr().out


def test_kubota_rejects_a_single_trial(capsys):
    rc = cli.main(["verify", "--suite", "kubota", "--dims", "3", "--samples", "1000",
                   "--trials", "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and "trials >= 2" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kubota_with_fewer_samples_than_dims_exits_2_before_any_sampling(n, capsys,
                                                                         monkeypatch):
    # fewer touching points than dimensions span no full-dimensional hull
    def no_sampling(*args, **kwargs):
        raise AssertionError("kubota sampled before rejecting its sample count")

    monkeypatch.setattr(experiments, "draw_samples", no_sampling)
    rc = cli.main(["verify", "--suite", "kubota", "--dims", str(n), "--samples", str(n - 1),
                   "--trials", "2", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: kubota needs samples >= n = {n}, got {n - 1}\n"


@pytest.mark.parametrize("dims", ["1", "2"])
def test_kubota_below_dimension_3_exits_2_before_any_sampling(dims, capsys, monkeypatch):
    # the suite projects to k = 2 and 3, so n < 3 is bad input, not a run
    def no_sampling(*args, **kwargs):
        raise AssertionError("kubota sampled before rejecting its dimension")

    monkeypatch.setattr(experiments, "draw_samples", no_sampling)
    rc = cli.main(["verify", "--suite", "kubota", "--dims", dims, "--samples", "1000",
                   "--trials", "2", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"kubota needs 3 <= n <= 6, got n={dims}" in captured.err


def _hull_cap_exits_2_before_any_sampling(argv, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before rejecting a dimension above the hull cap")

    monkeypatch.setattr(experiments, "draw_samples", no_sampling)
    start = time.perf_counter()
    rc = cli.main(["verify", *argv, "--samples", "500", "--trials", "2", "--seed", "1"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 2 and elapsed < 5.0
    assert captured.err.startswith("error: ") and "<= n <= 6, got n=7" in captured.err
    assert captured.err.count("\n") == 1


def test_kubota_above_the_hull_cap_exits_2_before_any_hull(capsys, monkeypatch):
    # the touching points in R^7 are cheap; their hulls would not be
    _hull_cap_exits_2_before_any_sampling(["--suite", "kubota", "--dims", "7"], capsys,
                                          monkeypatch)


def test_zn_volrad_above_the_hull_cap_exits_2_before_any_zp_pass(capsys, monkeypatch):
    # n = 3 is fine, but no n is sampled before every n is checked
    _hull_cap_exits_2_before_any_sampling(["--suite", "zn-volrad", "--dims", "3,7"], capsys,
                                          monkeypatch)


@pytest.mark.parametrize("argv,message", [
    (["verify", "--suite", "covering-regularity", "--dims", "2,3,4"],
     "covering-regularity needs 1 <= n <= 3, got n=4"),
    (["verify", "--suite", "b1-scaling", "--dims", "64,128,256"], "need >= 4 points"),
    (["verify", "--suite", "b1-scaling", "--dims", "8,8,8,8"], "all n equal"),
    (["scaling", "--body", "b1tilde:{n}", "--dims", "64,128,256"], "need >= 4 points"),
    (["verify", "--suite", "thm-main-aniso", "--dims", "8,16"], "runs at one dimension"),
    (["verify", "--suite", "kubota", "--dims", "3,4"], "runs at one dimension"),
    (["verify", "--suite", "paouris", "--dims", "0"], "paouris needs n >= 1, got n=0"),
    (["verify", "--suite", "paouris", "--dims", ""], "paouris needs at least one dimension"),
    # cube:4 is one 4-dimensional cube at every n, which would mislabel its rows
    (["scaling", "--body", "cube:4", "--dims", "4,8,16,32"],
     "body 'cube:4' has dim 4, not n = 8"),
])
def test_bad_dims_exit_2_before_any_work(argv, message, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("worked before rejecting the dims")

    for module in (experiments, functionals):
        monkeypatch.setattr(module, "mean_width", no_work)
    monkeypatch.setattr(experiments, "entropy_numbers", no_work)
    monkeypatch.setattr(experiments, "draw_samples", no_work)
    rc = cli.main([*argv, "--sphere-samples", "200", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("suite", experiments.SUITE_NAMES)
def test_verify_without_dims_runs_the_suites_default_dims(suite, monkeypatch, capsys):
    # run_suite calls the stub only after the default dims pass the suite's rule
    calls = []

    def stub(dims, cfg):
        calls.append(dims)
        return [], [], {}

    record = experiments.SUITES[suite]
    monkeypatch.setitem(experiments.SUITES, suite, dataclasses.replace(record, run=stub))
    rc = cli.main(["verify", "--suite", suite, "--seed", "3", "--out", "json"])
    config = json.loads(capsys.readouterr().out)["meta"]["config"]
    assert rc == 0 and calls == [list(record.dims)]
    flags = set(record.reads) - {"hull_directions"}  # the one field without a flag
    assert config["dims"] == list(record.dims) and config["seed"] == 3
    assert set(config) == {"suite", "dims", "seed", *flags}


def test_readme_verify_table_matches_the_suites():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| suite | default dims | dims rule | flags read |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        suite, dims, _rule, flags = (cell.strip() for cell in line.strip("|").split("|"))
        # a suite that reads no flag has "—"
        table[suite.strip("`")] = (dims, [] if flags == "—" else
                                   [flag.strip("`") for flag in flags.split(", ")])
    assert list(table) == list(experiments.SUITE_NAMES)
    for name, (dims, flags) in table.items():
        record = experiments.SUITES[name]
        assert tuple(int(n) for n in dims.split(",")) == record.dims, name
        assert flags == ["--" + field.replace("_", "-") for field in record.reads
                         if field != "hull_directions"], name


def test_readme_record_list_matches_the_dataclasses():
    # each bullet "- `Record`: ..." backticks every field of its record, and
    # backticks nothing but its fields and properties
    import re

    from isoconv import bodies, estimates, grassmann, measures

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("The records hold only what the library reads")
    bullets = re.split(r"\n(?=- `)", text[start:].split("\n\n")[1])
    records = {name: obj for module in (bodies, estimates, grassmann, measures)
               for name, obj in vars(module).items()
               if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert len(bullets) == 5
    for bullet in bullets:
        name, *names = re.findall(r"`([^`]+)`", bullet)
        record = records[name]
        fields = {f.name for f in dataclasses.fields(record)}
        properties = {attr for attr, value in vars(record).items()
                      if isinstance(value, property)}
        assert fields <= set(names), (name, fields - set(names))
        assert set(names) <= fields | properties, (name, set(names) - fields - properties)


def test_verify_flags_are_the_suite_config_fields_with_their_defaults(monkeypatch):
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest for a in sub.choices["verify"]._actions}
    fields = {f.name for f in dataclasses.fields(experiments.SuiteConfig)}
    assert flags - {"help", "suite", "dims", "seed", "out"} == fields - {"seed",
                                                                       "hull_directions"}
    configs = []

    def fake_run_suite(name, dims, config):
        configs.append(config)
        return SuiteResult(name, (), (), {})

    monkeypatch.setattr(experiments, "run_suite", fake_run_suite)
    assert cli.main(["verify", "--suite", "theorem1", "--seed", "0"]) == 0
    assert configs == [experiments.SuiteConfig()]


def _reject_non_finite(token):
    raise ValueError(f"report holds {token}, which is not JSON")


@pytest.mark.parametrize("suite,args", [
    ("theorem1", ["--dims", "2,3", "--samples", "2000", "--sphere-samples", "200"]),
    ("paouris", ["--dims", "4", "--samples", "2000", "--sphere-samples", "200"]),
    ("thm-main-aniso", ["--dims", "4", "--samples", "2000", "--sphere-samples", "200"]),
    ("b1-scaling", ["--dims", "2,3,4,5", "--sphere-samples", "200"]),
    ("qm-isotropy", ["--dims", "2", "--samples", "2000"]),
    ("kubota", ["--dims", "3", "--samples", "1000", "--trials", "2"]),
    ("zn-volrad", ["--dims", "2", "--samples", "1000"]),
    ("covering-regularity", ["--dims", "1"]),
])
def test_every_suite_report_is_valid_json(suite, args, capsys):
    # JSON has no NaN or Infinity; json.loads accepts them unless told not to.
    # At these sizes some gates fail (exit 1), and the report is written anyway.
    rc = cli.main(["verify", "--suite", suite, *args, "--seed", "1", "--out", "json"])
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_non_finite)
    assert rc in (0, 1) and report["meta"]["suite"] == suite


def test_covering_at_dimension_1_omits_the_empty_thm14_band(capsys):
    # no covering radius of a segment reaches t >= L_K, so there is no constant
    rc = cli.main(["verify", "--suite", "covering-regularity", "--dims", "1", "--seed", "1",
                   "--out", "json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert "cover-c-thm14" not in [r["quantity"] for r in report["rows"]]
    (thm14,) = [a for a in report["assertions"] if a["name"] == "covering-thm14-n1"]
    assert "row omitted" in thm14["detail"]


def test_non_finite_json_report_is_one_line_exit_2(tmp_path, monkeypatch, capsys):
    # the report is serialised before the file is opened, so nothing is written
    def fake_run_suite(name, dims, config):
        row = experiments.Row(name, 2, None, "x", math.nan, 0.0, "mc", 1, 0)
        return SuiteResult(suite=name, rows=[row], assertions=[], fitted={})

    monkeypatch.setattr(experiments, "run_suite", fake_run_suite)
    path = tmp_path / "r.json"
    rc = cli.main(["verify", "--suite", "paouris", "--dims", "2", "--seed", "1",
                   "--out", str(path)])
    err = capsys.readouterr().err
    assert rc == 2 and not path.exists()
    assert err.startswith("error: ") and "non-finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("body", ["cube:3:nan", "cube:3:inf", "lpball:3:nan", "unitlpball:3:nan"])
def test_non_finite_body_parameter_is_one_line_exit_2(body, capsys):
    rc = cli.main(["meanwidth", "--body", body, "--sphere-samples", "200", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["meanwidth", "--body", "ball:8:5"], "'ball' takes 0 fields after the dim, got 1"),
    (["meanwidth", "--body", "cube:3:1:9"], "'cube' takes 0 or 1 fields after the dim, got 2"),
    (["meanwidth", "--body", "lpball:3"], "'lpball' takes 1 field after the dim, got 0"),
    (["meanwidth", "--body", "ellipsoid:3:@a:@b"], "'ellipsoid' takes 1 field"),
    (["vk", "--body", "cross:4:7", "--k", "2", "--trials", "2"], "'cross' takes 0 fields"),
    (["isotropy", "--measure", "uniform:ball:3:5"], "'ball' takes 0 fields"),
    (["scaling", "--body", "b1tilde:{n}:{n}", "--dims", "4,6,8,12"], "'b1tilde' takes 0"),
])
def test_body_descriptor_with_a_wrong_field_count_exits_2_before_any_body(argv, message, capsys,
                                                                          monkeypatch):
    from isoconv import bodies

    def no_body(*args, **kwargs):
        raise AssertionError("built a body before checking the descriptor's fields")

    for name in ("ball", "cube", "cross_polytope", "lp_ball", "ellipsoid"):
        monkeypatch.setattr(bodies, name, no_body)
    rc = cli.main([*argv, "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,descriptor", [
    (["meanwidth", "--body", "cube:3:abc"], "'cube:3:abc'"),
    (["meanwidth", "--body", "lpball:3:x"], "'lpball:3:x'"),
    (["zp", "--measure", "gaussian:abc", "--p", "2"], "'gaussian:abc'"),
    (["zp", "--measure", "exponential:2.5", "--p", "2"], "'exponential:2.5'"),
])
def test_descriptor_field_that_does_not_parse_names_the_descriptor(argv, descriptor, capsys):
    rc = cli.main([*argv, "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: bad ") and descriptor in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,flag", [
    (["verify", "--suite", "paouris", "--p-values", "1,x"], "--p-values"),
    (["bound", "--kind", "thm-main-arith", "--p", "8", "--spectrum", "3,x,1"], "--spectrum"),
    (["bound", "--kind", "mp-sum", "--vk-values", "1,x"], "--vk-values"),
    (["bound", "--kind", "dudley-sum", "--ek-values", "x"], "--ek-values"),
    (["verify", "--suite", "paouris", "--dims", "4,x"], "--dims"),
    (["scaling", "--body", "ball:{n}", "--dims", "4,x"], "--dims"),
])
def test_list_flag_entry_that_does_not_parse_names_the_flag(argv, flag, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(f"error: argument {flag}: ") and repr(argv[-1]) in captured.err
    assert "_dims_list" not in captured.err and captured.err.count("\n") == 1


def test_hull_cap_names_no_volume_method(capsys):
    rc = cli.main(["vk", "--body", "cross:9", "--k", "7", "--trials", "2", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: hull volumes are capped at dim 6, got 7")
    assert "support-hull" not in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("suite", ["paouris", "thm-main-aniso"])
def test_empty_p_grid_is_one_line_exit_2_before_any_sampling(suite, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before rejecting the empty p grid")

    monkeypatch.setattr(experiments, "draw_samples", no_sampling)
    rc = cli.main(["verify", "--suite", suite, "--dims", "4", "--p-values", ",", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and "--p-values" in captured.err
    assert captured.err.count("\n") == 1


_REJECTED = [
    ["meanwidth", "--body", "nosuch:3"],
    ["meanwidth", "--body", "ball:3", "--sphere-samples", "5"],
    ["zp", "--measure", "bad", "--p", "2"],
    ["isotropy", "--measure", "gaussian:0"],
    ["vk", "--body", "cube:3", "--k", "9"],
    ["bound", "--kind", "sudakov", "--n", "4"],
    ["verify", "--suite", "kubota", "--trials", "1"],
    ["verify", "--suite", "kubota", "--dims", "2"],
    ["verify", "--suite", "paouris", "--p-values", ","],
    ["scaling", "--body", "nosuch:{n}", "--dims", "4,6,8,12"],
    ["scaling", "--body", "b1tilde:{n}", "--dims", "4,8"],
    ["meanwidth", "--body", "ball:3", "--out", "csv", "--format", "json"],
    # usage errors, raised by the parser
    [],
    ["meanwidth"],
    ["zp", "--measure", "gaussian:3"],
    ["verify", "--suite", "kubota", "--dims", "a"],
    ["vk", "--body", "ball:3", "--k", "2", "--nosuchflag"],
]


@pytest.mark.parametrize("argv", _REJECTED, ids=lambda argv: " ".join(argv) or "no-command")
def test_rejected_run_without_seed_prints_one_error_line(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _generated_seed(stderr):
    """The seed of a `seed: N (generated)` line, which must be stderr's last and only one."""
    lines = stderr.splitlines()
    assert [line for line in lines if line.startswith("seed:")] == lines[-1:]
    word, seed, note = lines[-1].split()
    assert (word, note) == ("seed:", "(generated)")
    return int(seed)


def test_completed_run_announces_its_generated_seed_last():
    # through the module entry point; the value line goes to stderr ahead of the seed
    argv = [sys.executable, "-m", "isoconv", "zp", "--measure", "gaussian:3", "--p", "3",
            "--samples", "500", "--directions", "4", "--out", "csv"]
    first = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert first.returncode == 0, first.stderr
    seed = _generated_seed(first.stderr)
    assert len(first.stderr.splitlines()) == 2
    rerun = subprocess.run([*argv, "--seed", str(seed)], capture_output=True, text=True,
                           timeout=60)
    assert rerun.returncode == 0 and rerun.stderr == first.stderr.splitlines()[0] + "\n"
    assert rerun.stdout == first.stdout
    assert {r["seed"] for r in csv.DictReader(first.stdout.splitlines())} == {str(seed)}


def test_failing_run_announces_its_generated_seed_last(monkeypatch, capsys):
    def stub(dims, cfg):
        value = float(np.random.default_rng(cfg.seed).random())
        row = experiments.Row("paouris", dims[0], None, "x", value, 0.0, "mc", cfg.seed, 0)
        return [row], [Assertion("forced", False, f"value {value}")], {}

    record = experiments.SUITES["paouris"]
    monkeypatch.setitem(experiments.SUITES, "paouris", dataclasses.replace(record, run=stub))
    # the report has stdout to itself, so the FAIL line goes to stderr ahead of the seed
    argv = ["verify", "--suite", "paouris", "--dims", "4", "--out", "json"]
    rc = cli.main(argv)
    first = capsys.readouterr()
    assert rc == 1
    seed = _generated_seed(first.err)
    assert first.err.startswith("FAIL forced") and len(first.err.splitlines()) == 2
    assert json.loads(first.out)["meta"]["config"]["seed"] == seed
    rc = cli.main([*argv, "--seed", str(seed)])
    rerun = capsys.readouterr()
    assert rc == 1 and rerun.out == first.out
    assert rerun.err == first.err.splitlines()[0] + "\n"


def test_error_after_work_started_names_the_generated_seed(monkeypatch, capsys):
    seen = []

    def stub(dims, cfg):
        seen.append(cfg.seed)
        raise ZeroDivisionError("injected")

    record = experiments.SUITES["theorem1"]
    monkeypatch.setitem(experiments.SUITES, "theorem1", dataclasses.replace(record, run=stub))
    rc = cli.main(["verify", "--suite", "theorem1", "--dims", "4"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: ZeroDivisionError: injected (seed: {seen[0]}, generated)\n"
