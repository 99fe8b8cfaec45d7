import csv
import json
import subprocess
import sys

import pytest

from isoconv import cli
from isoconv.experiments import Assertion, SuiteResult


def test_meanwidth_ball_prints_one(capsys):
    rc = cli.main(["meanwidth", "--body", "ball:8", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip() == "1"


def test_bound_summary_piecewise_prints_two(capsys):
    rc = cli.main(["bound", "--kind", "summary-piecewise", "--n", "16", "--p", "4"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2"


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nosuch", "--dims", "4"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["meanwidth", "--body", "ball:2", "--nosuchflag"])
    assert exc.value.code == 2
    assert "--nosuchflag" in capsys.readouterr().err


def test_missing_seed_generates_and_announces(capsys):
    rc = cli.main(["meanwidth", "--body", "ball:4"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "seed:" in captured.err and "generated" in captured.err


def test_bound_missing_parameter_exits_2(capsys):
    rc = cli.main(["bound", "--kind", "sudakov", "--n", "4", "--t", "1.0"])
    assert rc == 2
    assert "mstar" in capsys.readouterr().err


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
    rc = cli.main(["meanwidth", "--body", "cube:2:2", "--sphere-samples", "500",
                   "--seed", "2", "--out", str(path)])
    assert rc == 0
    rows = list(csv.DictReader(open(path, newline="")))
    assert len(rows) == 1
    assert rows[0]["quantity"] == "mstar"
    assert rows[0]["direction"] == "mc"
    assert float(rows[0]["value"]) == pytest.approx(4.0 / 3.141592653589793, abs=0.05)


def test_vk_command(capsys):
    rc = cli.main(["vk", "--body", "ball:5", "--k", "2", "--trials", "3",
                   "--seed", "4"])
    assert rc == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0, rel=1e-9)


def test_scaling_command(capsys):
    rc = cli.main(["scaling", "--body", "b1tilde:{n}", "--dims", "4,6,8,12",
                   "--sphere-samples", "2000", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("slope:")


def test_verify_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc = cli.main(["verify", "--suite", "zn-volrad", "--dims", "3", "--samples",
                   "3000", "--seed", "11", "--out", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    payload = json.loads(open(path).read())
    assert payload["meta"]["suite"] == "zn-volrad"
    assert payload["meta"]["config"]["seed"] == 11
    assert payload["rows"]


def test_verify_failing_assertion_exits_1(monkeypatch, capsys):
    import isoconv.experiments as exp

    def fake_run_suite(name, dims, config):
        return SuiteResult(suite=name, rows=[],
                           assertions=[Assertion("forced", False, "injected")],
                           fitted={}, config=config.as_dict())

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


def test_thread_cap_env_is_accepted(monkeypatch, capsys):
    monkeypatch.setenv("ISOCONV_THREADS", "1")
    rc = cli.main(["meanwidth", "--body", "ball:3", "--seed", "9"])
    assert rc == 0


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


def test_unexpected_error_is_one_line_exit_2(capsys):
    # the unit-volume cross-polytope's volume underflows to 0 at n = 256
    rc = cli.main(["verify", "--suite", "b1-scaling", "--dims", "256", "--seed", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ZeroDivisionError: ")
    assert err.count("\n") == 1 and "Traceback" not in err


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
            assert set(payload["meta"]) == {"version", "suite", "config", "fitted", "passed"}
            assert payload["meta"]["suite"] == suite
            assert payload["meta"]["config"]["seed"] == 1 and payload["rows"]


@pytest.mark.parametrize("suite", ["kubota", "thm-main-aniso"])
def test_single_dimension_suites_reject_several_dims(suite, capsys):
    rc = cli.main(["verify", "--suite", suite, "--dims", "3,4", "--samples", "1000",
                   "--sphere-samples", "100", "--trials", "2", "--seed", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "one dimension" in err and err.count("\n") == 1


@pytest.mark.parametrize("out,fmt", [("csv", "json"), ("json", "csv")])
def test_out_word_contradicting_format_exits_2(out, fmt, capsys):
    rc = cli.main(["meanwidth", "--body", "ball:3", "--seed", "1", "--out", out,
                   "--format", fmt])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_vk_sup_of_outer_estimates_is_not_labelled_lower(capsys):
    # Cauchy-Binet caps v_4 of the unit 6-cube at C(6,4)^(1/8) w_4^(-1/4) = 0.9412,
    # yet the sup of tangent-polytope volume radii reads 0.954 here
    rc = cli.main(["vk", "--body", "cube:6:1", "--k", "4", "--trials", "8",
                   "--seed", "1", "--out", "json"])
    assert rc == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["value"] > 0.9412
    assert row["direction"] == "mc"
