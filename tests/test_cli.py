"""Command-line surface: config plumbing, exit codes, output files."""
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shockzoom.cli import (DEFAULTS, MAX_COUNT, Config, _interior_shift_row,
                           load_config, main)
from shockzoom.errors import ConfigError
from shockzoom.experiments import SHIFT_RANGE, ZoomOutcome
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
    # a grid too coarse for its viscosity: cell Peclet number above 2
    assert main(["zlimit", "--set", "zlimit.dx=2.5", "--out", out]) == 2
    # each of these is caught where the CLI reads it, before any solve
    formation = ["run", "--scenario", "theorem2-formation"]
    too_many = str(MAX_COUNT + 1)
    for args in (["run", "--set", "zoom.ny=1"],
                 ["run", "--set", "zoom.nt=0"],
                 ["run", "--set", "grid.base_divisor=0"],
                 ["run", "--set", "grid.base_divisor=-1"],
                 formation + ["--set", "zref.dx=0"],
                 formation + ["--set", "grid.dx_hat=0"],
                 formation + ["--set", "zref.n=2"],
                 ["merge", "--set", "merge.dx=0"],
                 ["sweep", "--set", "sweep.t_check=-1"],
                 # a falsy flag value still reaches its config key
                 ["z-table", "--t", "-1", "--x", "-1", "1", "--n", "0"],
                 # --eps sets the list of the scenario that runs, however it is chosen
                 ["run", "--set", "run.scenario=theorem2-formation",
                  "--eps", "0.004,0.01"],
                 # non-finite numbers, in config keys and in flags
                 ["zlimit", "--set", "zlimit.tol=nan"],
                 ["run", "--set", "run.eps=0.04,nan"],
                 ["profile", "--dx", "nan"],
                 ["profile", "--half-width", "inf"],
                 ["profile", "--half-width", "1e308"],
                 ["profile", "--u-minus", "nan"],
                 ["z-table", "--t", "nan", "--x", "-1", "1"],
                 ["z-table", "--t", "-1", "--x", "-1", "nan"],
                 ["z-table", "--t", "-1", "--x", "-1", "1e308"],
                 ["merge", "--set", "merge.nt=-1"],
                 ["profile", "--set", "flux.name=burgers-linear",
                  "--set", "flux.b=nan"],
                 # counts above MAX_COUNT, rejected before anything is allocated
                 ["z-table", "--t", "-1", "--x", "-1", "1", "--n", too_many],
                 ["sweep", "--set", f"sweep.n_nodes={too_many}"],
                 ["run", "--set", f"zoom.nt={too_many}"],
                 ["run", "--set", f"zoom.ny={too_many}"],
                 ["run", "--scenario", "theorem1-merging", "--set", f"zoom.ny={too_many}"],
                 formation + ["--set", f"zoom2.nt={too_many}"],
                 formation + ["--set", f"zoom2.ny={too_many}"],
                 ["merge", "--set", f"merge.nt={too_many}"],
                 # within MAX_COUNT, but 10^6 snapshots of the eternal wave's
                 # 3,001 nodes exceed the solver's snapshot memory cap
                 formation + ["--set", f"zoom2.nt={MAX_COUNT}"],
                 # the derivatives of the cubic wave blow up at t = 0, x = 0
                 ["z-table", "--t", "-1", "0", "--x", "-2", "2"],
                 # overflow, reported without a RuntimeWarning or a traceback
                 ["z-table", "--t", "-1", "--x", "0", "inf"],
                 ["profile", "--u-minus", "1e308"],
                 ["profile", "--u-minus", "1e308", "--set", "flux.name=quartic"],
                 ["profile", "--set", "flux.name=burgers-linear",
                  "--set", "flux.b=1e308"]):
        assert main(args + ["--out", out]) == 2, args


def test_config_rejects_non_finite():
    for raw in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match="finite"):
            Config({"scenario.tau": raw}).float("scenario.tau")
        with pytest.raises(ConfigError, match="finite"):
            Config({"merge.taus": f"-20,{raw}"}).floats("merge.taus")


def _reject_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def _checks(out):
    header, rows = read_csv(out / "audit.csv")
    summary = json.loads((out / "summary.json").read_text())
    assert header == ["check", "t", "margin", "pass"]
    assert [r[0] for r in rows] == [c["name"] for c in summary["checks"]]
    assert summary["passed"] == all(r[3] for r in rows)
    return {r[0]: r[3] for r in rows}, summary


def test_zlimit_reports_its_checks(tmp_path):
    small = ["zlimit", "--n-list", "4,8", "--set", "zlimit.dx=0.1",
             "--set", "zlimit.x_max=10"]
    assert main(small + ["--set", "zlimit.tol=0.1", "--out", str(tmp_path / "a")]) == 0
    flags, summary = _checks(tmp_path / "a")
    assert flags == {"decreasing": True, "monotone": True, "settled": True}
    assert "error" not in summary and summary["final_diff"] < 0.1
    # an unsettled family is a failed row, with the report's numbers kept
    assert main(small + ["--set", "zlimit.tol=1e-6", "--out", str(tmp_path / "b")]) == 1
    flags, summary = _checks(tmp_path / "b")
    assert flags == {"decreasing": True, "monotone": True, "settled": False}
    assert summary["final_diff"] > 1e-6


def test_merge_reports_its_checks(tmp_path):
    small = ["merge", "--taus=-14,-16", "--set", "merge.dx=0.1",
             "--set", "merge.comparison_time=-3", "--set", "merge.nt=3",
             "--set", "window.t_min=-2"]
    # at t = 2 the merged wave is still too far from one traveling wave
    out = tmp_path / "m"
    assert main(small + ["--set", "window.t_max=2", "--out", str(out)]) == 1
    flags, summary = _checks(out)
    # one restart pair: a distance but no slope to test
    assert flags == {"cauchy-decreasing": True, "post-merge": False}
    assert len(summary["distances"]) == 1
    assert summary["checks"][0]["margin"] == 0.0
    # strict JSON: the missing slope is null, not NaN
    assert json.loads((out / "summary.json").read_text(),
                      parse_constant=_reject_constant)["log_slope"] is None
    # by t = 5 it has settled into the strip around the traveling wave
    assert main(small + ["--set", "window.t_max=5", "--out", str(tmp_path / "m5")]) == 0
    flags, summary = _checks(tmp_path / "m5")
    assert flags == {"cauchy-decreasing": True, "post-merge": True}
    post = summary["checks"][-1]
    assert post["t"] == 5.0 and 0.0 < post["margin"] < 0.05


def test_merge_reports_a_shock_that_left_the_window(tmp_path):
    # faster states carry the merged shock out of the window by t = 5: no
    # strip fit exists, which is a failed row, and the report is still written
    out = tmp_path / "m"
    assert main(["merge", "--taus=-14,-16", "--set", "merge.dx=0.1",
                 "--set", "merge.comparison_time=-3", "--set", "window.t_min=-2",
                 "--set", "window.t_max=5", "--set", "scenario.u_minus=3",
                 "--set", "scenario.u_star=2", "--set", "scenario.u_plus=1",
                 "--out", str(out)]) == 1
    flags, summary = _checks(out)
    assert flags["post-merge"] is False
    # margin -delta with delta = 0.05 * (u_minus - u_plus)
    assert summary["checks"][-1]["margin"] == pytest.approx(-0.1)


HOSTILE = ["nan", "inf", "-inf", "0", "-1", "1e308", "", "x"]


def _values(*valid):
    return st.sampled_from(HOSTILE + list(valid))


# the --set keys the fuzzed subcommands read, each with small valid values
FUZZ_KEYS = {"ztable.n": _values("2", "5"),
             "flux.name": _values("burgers", "burgers-linear", "quartic"),
             "flux.b": _values("0.5", "-1"),
             "flux.kappa": _values("0.05", "0.1"),
             "audit.suite": _values("lemma81"),
             "bogus.key": _values("1")}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["z-table", "profile", "audit"]))
    argv = [command]
    if command == "z-table":
        argv += ["--t"] + draw(st.lists(_values("-1", "-0.5", "0"), min_size=1,
                                        max_size=2))
        argv += ["--x"] + draw(st.lists(_values("-2", "2"), min_size=2, max_size=2))
        if draw(st.booleans()):
            argv.append(f"--n={draw(_values('3', '5'))}")
    elif command == "profile":
        for flag in ("--u-minus", "--u-plus", "--half-width", "--dx"):
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(_values('1', '-1', '0.5', '2', '8'))}")
    else:
        argv += ["--suite", draw(_values("lemma81"))]
    for key in draw(st.lists(st.sampled_from(sorted(FUZZ_KEYS)), max_size=3)):
        argv += ["--set", f"{key}={draw(FUZZ_KEYS[key])}"]
    return argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzz_argv())
def test_cli_fuzz_exit_codes(tmp_path, argv):
    try:
        code = main(argv + ["--out", str(tmp_path / "fuzz")])
    except SystemExit as e:
        # argparse rejects a value it cannot parse as the flag's type
        assert e.code == 2, argv
        return
    assert code in (0, 1, 2, 3), argv


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
    # at t = 0 the grid -2, -2/3, 2/3, 2 skips x = 0, where the slope is infinite
    assert main(["z-table", "--t", "0", "--x", "-2", "2", "--n", "4",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out / "ztable.csv")
    assert len(rows) == 4 and np.isfinite([r[2:] for r in rows]).all()


def test_ztable_overflow_is_reported_without_a_warning(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["z-table", "--t", "-1", "--x", "-1", "1e308",
                     "--out", str(tmp_path / "zt")])
    assert code == 2
    assert caught == []
    assert "not finite at t=-1.0" in capsys.readouterr().err


def test_interior_shift_row():
    inside = [ZoomOutcome(0.04, 0.1, 0.5, 0.01, 0.546875),
              ZoomOutcome(0.02, 0.1, 0.2, -0.02, 0.125)]
    name, t, margin, ok = _interior_shift_row(0.02, inside)
    assert (name, t, ok) == ("interior-shift", 0.02, True)
    assert margin == SHIFT_RANGE - 0.546875
    # a time shift on the edge of the search range fails the row
    edge = inside + [ZoomOutcome(0.01, 0.1, 0.1, 0.0, SHIFT_RANGE)]
    assert _interior_shift_row(0.01, edge)[2:] == (0.0, False)
    # and so does a space shift refined past it
    past = inside + [ZoomOutcome(0.01, 0.1, 0.1, -1.02, 0.0)]
    assert not _interior_shift_row(0.01, past)[3]


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
