"""Command-line surface: config plumbing, exit codes, output files."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockzoom.cli import DEFAULTS, Config, load_config, main
from shockzoom.errors import ConfigError
from shockzoom.io import format_cell, parse_cell, read_csv


def test_dump_defaults_sorted(capsys):
    assert main(["--dump-defaults"]) == 0
    out = capsys.readouterr().out
    keys = [ln.split(" = ")[0] for ln in out.strip().split("\n")]
    assert keys == sorted(DEFAULTS)
    assert len(keys) == len(DEFAULTS)


def test_no_command_prints_help(capsys):
    assert main([]) == 2


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        Config({"run.explode": "1"})


def test_config_typed_accessors():
    cfg = Config({"run.eps": "0.1,0.05"})
    assert cfg.eps_list("run.eps") == [0.1, 0.05]
    with pytest.raises(ConfigError, match="strictly decreasing"):
        Config({"run.eps": "0.05,0.1"}).eps_list("run.eps")
    with pytest.raises(ConfigError, match="positive"):
        Config({"run.eps": "0.1,-0.05"}).eps_list("run.eps")
    with pytest.raises(ConfigError, match="number"):
        Config({"scenario.tau": "soon"}).float("scenario.tau")
    assert Config({}).opt_float("sweep.t_check") is None


def test_config_file_and_set_precedence(tmp_path):
    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text("# comment line\nscenario.tau = 2.0\nztable.n = 11\n")
    cfg = load_config(str(cfgfile), ["scenario.tau=3.0"])
    assert cfg.float("scenario.tau") == 3.0   # --set wins over the file
    assert cfg.int("ztable.n") == 11
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.cfg"), [])
    cfgfile.write_text("just words\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(str(cfgfile), [])


def test_exit_code_2_paths(tmp_path):
    out = str(tmp_path / "o")
    assert main(["audit", "--suite", "nope", "--out", out]) == 2
    assert main(["run", "--set", "run.eps=0.01,0.02", "--out", out]) == 2
    assert main(["run", "--set", "bogus.key=1", "--out", out]) == 2
    assert main(["z-table", "--t", "1.0", "--x", "-1", "1", "--out", out]) == 2
    assert main(["sweep", "--scenario", "theorem2-formation", "--out", out]) == 2
    assert main(["profile", "--set", "flux.name=quartic", "--set", "flux.kappa=-1",
                 "--out", out]) == 2
    assert main(["profile", "--set", "flux.name=nope", "--out", out]) == 2
    assert main(["run", "--set", "window.t_min=6", "--out", out]) == 2
    assert main(["sweep", "--set", "sweep.n_nodes=1", "--out", out]) == 2
    assert main(["zlimit", "--set", "zlimit.dx=0", "--out", out]) == 2
    # each of these is caught where the CLI reads it, before any solve
    formation = ["run", "--scenario", "theorem2-formation"]
    for args in (["run", "--set", "zoom.ny=1"],
                 ["run", "--set", "zoom.nt=0"],
                 ["run", "--set", "grid.base_divisor=0"],
                 ["run", "--set", "grid.base_divisor=-1"],
                 formation + ["--set", "zref.dx=0"],
                 formation + ["--set", "grid.dx_hat=0"],
                 formation + ["--set", "zref.n=2"],
                 ["merge", "--set", "merge.dx=0"],
                 ["sweep", "--set", "sweep.t_check=-1"]):
        assert main(args + ["--out", out]) == 2, args


def test_ztable_rows_and_values(tmp_path):
    out = tmp_path / "zt"
    rc = main(["z-table", "--t", "-1.0", "-2.0", "--x", "-3.0", "3.0",
               "--n", "7", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "ztable.csv")
    assert header == ["t", "x", "z", "zx", "zxx", "zxxx"]
    assert len(rows) == 14
    # the (t=-1, x=2) row carries the exact decreasing root z = -1
    match = [r for r in rows if r[0] == -1.0 and r[1] == 2.0]
    assert match and match[0][2] == pytest.approx(-1.0, abs=1e-12)


def test_profile_summary_and_determinism(tmp_path):
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    args = ["profile", "--half-width", "8.0", "--dx", "0.05"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["speed"] == 0.0
    assert summary["ode_residual"] < 1e-5
    assert main(["profile", "--u-minus", "-1.0", "--u-plus", "1.0",
                 "--out", str(out1)]) == 2
    assert main(["profile", "--half-width", "0.0", "--out", str(out1)]) == 2


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_cells_round_trip(v):
    assert parse_cell(format_cell(v)) == v


def test_cell_booleans_and_strings():
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert parse_cell("true") is True
    assert parse_cell("false") is False
    assert parse_cell("lemma81") == "lemma81"
    assert format_cell(3) == "3"
