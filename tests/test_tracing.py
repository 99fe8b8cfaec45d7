"""The benchmark's traced mode still binds the arguments it counts.

perfbench/tracing.py wraps isoconv functions and reads some of their
parameters by name (volume_radius_lowdim's method and n_directions,
emit_report's path), and zp_support's `samples.count`, a property of the
SampleSet's points; a signature or record change there breaks
`perfbench/run.py --trace 1` without failing any other test.
"""

import importlib.util
from pathlib import Path

from isoconv import cli, experiments  # noqa: F401  (loads every layer, so install wraps it)

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_cli_run_records_hull_halfspaces(tmp_path, capsys):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        rc_vk = cli.main(["vk", "--body", "cube:4:1", "--k", "2", "--trials", "2",
                          "--seed", "1", "--out", str(tmp_path / "vk.json")])
        rc_kubota = cli.main(["verify", "--suite", "kubota", "--dims", "3", "--samples",
                              "1000", "--trials", "2", "--seed", "1",
                              "--out", str(tmp_path / "kubota.json")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc_vk == 0 and rc_kubota == 0
    totals = tracer.layer_totals()
    assert totals["grassmann.volume_radius_lowdim"]["halfspaces"] > 0
    assert totals["centroid.zp_support"]["products"] > 0
    assert totals["experiments.emit_report"]["bytes_written"] > 0


def test_traced_covering_suite_records_distance_evals(tmp_path, capsys):
    # the suite reaches the greedy covering through entropy_numbers
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        rc = cli.main(["verify", "--suite", "covering-regularity", "--dims", "2",
                       "--seed", "1", "--out", str(tmp_path / "covering.json")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    assert tracer.layer_totals()["functionals.covering"]["distance_evals"] > 0
