"""Command-line surface: config plumbing, exit codes, output files."""
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shockzoom import (Window, build_scenario, burgers, experiments, inviscid,
                       profiles, solver)
from shockzoom.cli import (DEFAULTS, KEYS, MAX_COUNT, Config, _interior_shift_row,
                           load_config, main)
from shockzoom.errors import ConfigError, InstabilityError, ShockzoomError
from shockzoom.experiments import SHIFT_RANGE, ZoomOutcome
from shockzoom.io import write_audit, write_sweep


def parse_cell(s):
    """One CSV cell: the words true/false as booleans, else a float, else the text."""
    if s == "true":
        return True
    if s == "false":
        return False
    try:
        return float(s)
    except ValueError:
        return s


def read_csv(path):
    """The header and the parsed rows of a CSV table that shockzoom wrote."""
    lines = [ln for ln in Path(path).read_text().split("\n") if ln != ""]
    return (lines[0].split(","),
            [tuple(parse_cell(tok) for tok in ln.split(",")) for ln in lines[1:]])


def test_dump_defaults_sorted(capsys):
    assert main(["--dump-defaults"]) == 0
    out = capsys.readouterr().out
    keys = [ln.split(" = ")[0] for ln in out.strip().split("\n")]
    assert keys == sorted(DEFAULTS)
    assert len(keys) == len(DEFAULTS)


def test_dump_defaults_load_back_through_config(tmp_path, capsys):
    assert main(["--dump-defaults"]) == 0
    dumped = tmp_path / "d.cfg"
    dumped.write_text(capsys.readouterr().out)
    assert load_config(str(dumped), []).values == DEFAULTS
    out = tmp_path / "zt"
    assert main(["z-table", "--config", str(dumped), "--t", "-1", "--x", "-1", "1",
                 "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["config"] == DEFAULTS


def test_no_command_prints_help(capsys):
    assert main([]) == 2


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        Config({"run.explode": "1"})


def test_config_typed_accessors():
    cfg = Config({"run.eps": "0.1,0.05"})
    assert cfg["run.eps"] == [0.1, 0.05]
    with pytest.raises(ConfigError, match="strictly decreasing"):
        Config({"run.eps": "0.05,0.1"})["run.eps"]
    with pytest.raises(ConfigError, match="positive"):
        Config({"run.eps": "0.1,-0.05"})["run.eps"]
    with pytest.raises(ConfigError, match="number"):
        Config({"scenario.tau": "soon"})["scenario.tau"]
    assert Config({})["sweep.t_check"] is None


def test_config_table_defaults_parse_and_errors_name_the_key():
    for key in KEYS:
        Config({})[key]
        for raw in HOSTILE + ["1e-300", "-1e308"]:
            try:
                Config({key: raw})[key]
            except ConfigError as e:
                assert str(e).startswith(f"{key}: "), (key, raw, str(e))


def test_config_file_and_set_precedence(tmp_path):
    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text("# comment line\nscenario.tau = 2.0\nztable.n = 11\n")
    cfg = load_config(str(cfgfile), ["scenario.tau=3.0"])
    assert cfg["scenario.tau"] == 3.0   # --set wins over the file
    assert cfg["ztable.n"] == 11
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.cfg"), [])
    cfgfile.write_text("just words\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(str(cfgfile), [])
    # a directory, and a file that is not UTF-8 text, name the path
    cfgfile.write_bytes("scenario.tau = 2.0 # \xe9\n".encode("latin-1"))
    for path in (tmp_path, cfgfile):
        with pytest.raises(ConfigError, match="cannot be read as text") as caught:
            load_config(str(path), [])
        assert str(path) in str(caught.value)


def test_exit_code_2_paths(tmp_path, monkeypatch, capsys):
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
    # each of these is caught before the first solve step, where the CLI
    # reads it or in the library function that it calls
    formation = ["run", "--scenario", "theorem2-formation"]
    too_many = str(MAX_COUNT + 1)
    for args in (["run", "--set", "zoom.ny=1"],
                 ["run", "--set", "zoom.nt=0"],
                 ["run", "--set", "grid.base_divisor=0"],
                 ["run", "--set", "grid.base_divisor=-1"],
                 formation + ["--set", "grid.dx_hat=0"],
                 formation + ["--set", "zref.n=2"],
                 ["merge", "--set", "merge.dx=0"],
                 ["sweep", "--set", "sweep.t_check=-1"],
                 # between blow-up and absorption the scenario has no exact reference
                 ["sweep", "--set", "sweep.t_check=0.1"],
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
                 # within MAX_COUNT, but the eternal wave's quadrature counts at
                 # least one block of 2^15 terms per time: 10^6 times take 3.3e10
                 # terms, past its cap of 10^9, refused before any sum
                 formation + ["--set", f"zoom2.nt={MAX_COUNT}", "--set", "zoom2.ny=2"],
                 # the keys of the eternal wave's padded grid, retired
                 formation + ["--set", "zref.dx=0.04"],
                 formation + ["--set", "zref.x_max=60"],
                 # the derivatives of the cubic wave blow up at t = 0, x = 0
                 ["z-table", "--t", "-1", "0", "--x", "-2", "2"],
                 # overflow, reported without a RuntimeWarning or a traceback
                 ["z-table", "--t", "-1", "--x", "0", "inf"],
                 ["profile", "--u-minus", "1e308"],
                 ["profile", "--u-minus", "1e308", "--set", "flux.name=quartic"],
                 ["profile", "--set", "flux.name=burgers-linear",
                  "--set", "flux.b=1e308"],
                 # grids of fewer than one or more than MAX_CELLS cells
                 ["merge", "--set", "merge.dx=1e308"],
                 ["zlimit", "--set", "zlimit.dx=1e308"],
                 ["run", "--set", "grid.base_divisor=1e308"],
                 formation + ["--set", "grid.dx_hat=1e308"],
                 # a comparison after the window would run the surrogate on to it
                 ["merge", "--set", "merge.comparison_time=1e308"],
                 # the launch data of the eternal wave overflow
                 formation + ["--set", "zref.n=1e308"]):
        assert main(args + ["--out", out]) == 2, args
    # each of these once escaped as a traceback; now it exits 2 before any
    # solve and leaves no output directory
    mended = tmp_path / "mended"
    with monkeypatch.context() as m:
        for module in (experiments, profiles, solver):
            m.setattr(module, "solve", _no_solve)
        m.setattr(inviscid, "_z_mean", _no_solve)
        m.setattr("shockzoom.cli.z_eval", _no_solve)
        assert main(["run", "--eps", "0.3,0.1", "--out", str(mended)]) == 2
        for setting, commands in MENDED:
            for command in commands:
                assert main(_long(command, setting, mended)) == 2, (command, setting)
                assert not mended.exists(), (command, setting)
        # windows the limit object cannot cover: before the surrogate's
        # earliest restart, or off its grid; and
        # windows whose zoom at the largest eps leaves the scenario's domain
        # (x up to 2.4 on +-2, 2.64 on +-2.5 yet on the surrogate's grid,
        # and 5.4 on +-3.5), or its grid: at dx = 0.0048 the last node is
        # 1.99856, short of x = 2 on +-2; and windows of zero width or zero
        # duration, whose x- or t-samples would be 0 apart
        for args in (["run", "--scenario", "theorem1-single", "--set",
                      "grid.base_divisor=8.333", "--set", "window.x_max=50"],
                     ["run", "--scenario", "theorem1-single", "--set", "window.x_min=1",
                      "--set", "window.x_max=1"],
                     ["run", "--scenario", "theorem1-merging", "--set", "window.x_min=1",
                      "--set", "window.x_max=1"],
                     formation + ["--set", "window2.x_min=1", "--set", "window2.x_max=1"],
                     ["run", "--scenario", "theorem1-single", "--set", "window.t_min=0.5",
                      "--set", "window.t_max=0.5"],
                     ["run", "--scenario", "theorem1-merging", "--set", "window.t_min=0.5",
                      "--set", "window.t_max=0.5"],
                     formation + ["--set", "window2.t_min=-1", "--set", "window2.t_max=-1"],
                     ["merge", "--set", "window.x_min=1", "--set", "window.x_max=1"],
                     ["merge", "--taus=-14,-16", "--set", "merge.comparison_time=-3",
                      "--set", "merge.dx=0.1", "--set", "window.t_min=-30",
                      "--set", "window.t_max=1"],
                     ["run", "--scenario", "theorem1-merging", "--set", "window.x_max=1e308"],
                     formation + ["--set", "window2.x_max=1e308"],
                     ["run", "--scenario", "theorem1-single", "--set", "window.x_max=60"],
                     ["run", "--scenario", "theorem1-merging", "--set", "window.x_max=66"],
                     # 17 time shifts of 21 x 10^6 samples in the merging search
                     ["run", "--scenario", "theorem1-merging",
                      "--set", f"zoom.ny={MAX_COUNT}"],
                     formation + ["--eps", "0.04,0.01", "--set", "window2.x_min=-60",
                                  "--set", "window2.x_max=60"],
                     # tables of more than MAX_COUNT rows, times x samples each,
                     # refused before any evaluation
                     ["z-table", "--t", "-1", "-2", "--x", "-1", "1", "--n", str(MAX_COUNT)],
                     ["merge", "--set", "merge.nt=5000"]):
            assert main(args + ["--out", str(mended)]) == 2, args
            assert not mended.exists(), args
        # a file where the output directory is, or where one of its parents
        # would be made, and a config that is a directory or not UTF-8 text:
        # each is one config error line, and the file is left as it was
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes("scenario.tau = 1.0 # \xe9\n".encode("latin-1"))
        capsys.readouterr()
        for command in (["run"], ["profile"], ["z-table", "--t", "-1", "--x", "-1", "1"]):
            for tail in (["--out", str(blocker)], ["--out", str(blocker / "sub")],
                         ["--config", str(tmp_path), "--out", str(mended)],
                         ["--config", str(latin1), "--out", str(mended)]):
                assert main(command + tail) == 2, (command, tail)
                err = capsys.readouterr().err
                assert err.startswith("config error: ") and err.count("\n") == 1, err
                assert blocker.read_text() == "kept\n", (command, tail)
                assert not mended.exists(), (command, tail)
    # each of these once ran for ever; now the solver's step cap refuses it
    for setting, commands in (("scenario.tau=1e308", ("single", "sweep", "formation")),
                              ("window.t_max=1e308", ("single",)),
                              ("sweep.t_check=1e308", ("sweep",))):
        for command in commands:
            assert main(_long(command, setting, mended)) == 2, (command, setting)
            assert not mended.exists(), (command, setting)


def _no_solve(*args, **kwargs):
    raise AssertionError("solve called")


def _long(command, setting, out):
    """Arguments of one LONG_COMMANDS entry at LONG_BASE, with one more setting."""
    argv = list(LONG_COMMANDS[command])
    for key, value in LONG_BASE.items():
        argv += ["--set", f"{key}={value}"]
    return argv + ["--set", setting, "--out", str(out)]


# each setting with the LONG_COMMANDS it broke: the zoom starting before
# t = 0, a negative seed, and scenario and window values that overflow
MENDED = [("window.t_min=-30", ("single", "merging")),
          ("window.t_min=-1e308", ("single", "merging", "merge")),
          ("run.seed=-1", ("single", "merging", "formation")),
          ("scenario.u_minus=1e200", ("single", "merging", "sweep", "merge")),
          ("scenario.u_plus=-1e308", ("single", "merging", "sweep", "merge")),
          ("scenario.ramp_width=1e308", ("single", "sweep")),
          ("scenario.tau=1e308", ("merging", "merge")),
          ("scenario.u_minus=1e-300", ("merging", "merge")),
          ("scenario.amplitude=1e100", ("formation",)),
          ("scenario.amplitude=1e308", ("formation",)),
          ("window.t_max=1e308", ("merging", "merge")),
          ("window.x_max=1e308", ("single",))]


def test_the_exact_eternal_wave_takes_late_windows_and_coarse_grids(tmp_path):
    # the eternal wave has no clamps, whose fold once refused windows past
    # the blow-up (t = 50), and no cell-Peclet bound (zlimit.dx = 2.5):
    # these run and write finite checks; zlimit's two horizons are 0.052
    # apart at t = 50, past its default tolerance of 0.05
    for args, code in ((_long("formation", "window2.t_max=50", tmp_path / "f"), 0),
                       (_long("zlimit", "zlimit.t_max=50", tmp_path / "z"), 1),
                       (["zlimit", "--set", "zlimit.dx=2.5", "--out", str(tmp_path / "d")], 0)):
        assert main(args) == code, args
        summary = json.loads((Path(args[-1]) / "summary.json").read_text(),
                             parse_constant=_reject_constant)
        assert all(np.isfinite(c["margin"]) for c in summary["checks"]), args
    # a window that ends far later still exits 2: the quadrature's node cap
    # refuses it before any solve or sum
    for command, key in (("formation", "window2"), ("zlimit", "zlimit")):
        out = tmp_path / "late"
        assert main(_long(command, f"{key}.t_max=1e308", out)) == 2, command
        assert not out.exists(), command


def test_config_error_leaves_no_output_directory(tmp_path):
    # a command makes its output directory only when it writes its results:
    # none of these gets that far, whether it fails on reading a setting,
    # in kuznetsov_sweep before its first solve (sweep.t_check=0.1) or after
    # its solves (sweep.t_check=1e-300: one step leaves every L1 error 0,
    # which no log-log rate fits), or during its first solve, on the
    # cell-Peclet guard (100 at dx=4)
    existing = tmp_path / "existing"
    existing.mkdir()
    for args in (["run", "--scenario", "theorem1-merging", "--set", "merge.taus=-20",
                  "--set", "flux.name=quartic", "--set", "flux.kappa=0.05"],
                 ["sweep", "--set", "sweep.t_check=0.1"],
                 ["sweep", "--set", "sweep.t_check=1e-300"],
                 ["sweep", "--scenario", "theorem1-merging", "--set", "sweep.t_check=1e-300"],
                 ["run", "--eps", "0.3,0.1"],
                 ["run", "--set", "run.seed=-1"],
                 ["audit", "--suite", "nope"],
                 ["sweep", "--set", "sweep.n_nodes=2"]):
        out = tmp_path / "never" / "nested"
        assert main(args + ["--out", str(out)]) == 2, args
        assert not (tmp_path / "never").exists(), args
        # a directory that was there before the command stays, if empty
        assert main(args + ["--out", str(existing)]) == 2, args
        assert existing.is_dir(), args


def test_bad_restart_settings_exit_2_before_any_solve(tmp_path, monkeypatch):
    monkeypatch.setattr(profiles, "solve", _no_solve)
    out = str(tmp_path / "o")
    for args in (["merge", "--taus=-20"],
                 # two equal restarts are 0 apart, which no slope can be fitted to
                 ["merge", "--taus=-20,-20,-30"],
                 ["merge", "--taus=-20,-30", "--set", "merge.comparison_time=-25"],
                 # tau = -12 puts the two waves too close for the blend
                 ["merge", "--taus=-40,-12"],
                 # a flux of varying curvature, whose run builds the surrogate
                 ["run", "--scenario", "theorem1-merging", "--set", "merge.taus=-20",
                  "--set", "flux.name=quartic", "--set", "flux.kappa=0.05"]):
        assert main(args + ["--out", out]) == 2, args


def test_main_maps_instability_to_3_and_other_errors_to_1(tmp_path, monkeypatch, capsys):
    for error, code, prefix in ((InstabilityError("blew up"), 3, "solver instability: "),
                                (ShockzoomError("no foot point"), 1, "check failed: ")):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(experiments, "solve", fail)
        out = tmp_path / "o"
        assert main(["sweep", "--out", str(out)]) == code, error
        assert capsys.readouterr().err == f"{prefix}{error}\n"
        assert not out.exists(), error


def test_library_rejects_bad_study_inputs_before_any_solve(monkeypatch):
    # each rule on a study's inputs lives in the library function that runs
    # the study, and fires before that function's first solve or quadrature sum
    for module in (experiments, profiles, solver):
        monkeypatch.setattr(module, "solve", _no_solve)
    monkeypatch.setattr(inviscid, "_z_mean", _no_solve)
    single, merging, formation = (build_scenario(sid, burgers()) for sid in (
        "theorem1-single", "theorem1-merging", "theorem2-formation"))
    surrogate = dict(taus=(-14.0, -16.0), comparison_time=-3.0, dx=0.1,
                     window=Window(-2.0, 2.0, -2.0, 2.0))
    ahead = Window(-30.0, 1.0, -2.0, 2.0)   # its zooms start before t = 0
    x = np.linspace(0.0, 4.0, 41)
    for call, match in (
            # the eternal wave: no snapshot time; a time before the launch
            # time, or launch data that overflow, which z_exact checks
            (lambda: profiles.eternal_z(2.0, 4.0, dx=0.1, snapshot_times=[]),
             "at least one snapshot time"),
            (lambda: inviscid.z_exact(2.0, [-3.0, -1.0], x), "launch time -n=-2"),
            (lambda: inviscid.z_exact(1e308, [-3.0, -1.0], x), "launch data"),
            # the zooms' eternal wave, evaluated after their plans
            (lambda: experiments.formation_zoom(
                formation, (0.01,), 2.0, window=Window(-3.0, 1.0, -4.0, 4.0)),
             "launch time -n=-2"),
            # the surrogate: a restart at the comparison time, a comparison
            # after the window, a window before the earliest restart, and one
            # off the restarts' grid (about +-57 here)
            (lambda: experiments.merging_surrogate(
                merging, **{**surrogate, "comparison_time": -14.0}), "tau=-14"),
            (lambda: experiments.merging_surrogate(
                merging, **{**surrogate, "comparison_time": 3.0}), "comparison time 3"),
            (lambda: experiments.merging_surrogate(
                merging, **{**surrogate, "window": Window(-20.0, 2.0, -2.0, 2.0)}),
             "t=-20"),
            (lambda: experiments.merging_surrogate(
                merging, **{**surrogate, "window": Window(-2.0, 2.0, -2.0, 100.0)}),
             r"x in \[-2, 100\] leaves"),
            # the rate sweep: too few viscosities, a time with no exact reference,
            # a scenario whose limit holds no shock
            (lambda: experiments.kuznetsov_sweep(single, (0.04, 0.02), n_nodes=256),
             "three viscosities"),
            (lambda: experiments.kuznetsov_sweep(single, (0.04, 0.02, 0.01), t_check=0.1,
                                                 n_nodes=256), "t_check=0.1"),
            (lambda: experiments.kuznetsov_sweep(formation, (0.04, 0.02, 0.01),
                                                 n_nodes=256),
             "theorem2-formation: rate sweeps need an exact shocked reference"),
            # the zooms: a window before t = 0, and one whose zoom at the second
            # viscosity sees x off the scenario's grid, checked before the first
            # viscosity's solve
            (lambda: experiments.single_shock_zoom(single, (0.04,), window=ahead),
             "starts at t="),
            (lambda: experiments.single_shock_zoom(
                single, (0.01, 0.04), window=Window(-1.0, 1.0, -2.0, 60.0)), "eps=0.04 sees x"),
            (lambda: experiments.merging_zoom(merging, (0.04,), None, window=ahead),
             "starts at t="),
            (lambda: experiments.merging_zoom(
                merging, (0.01, 0.04), None, window=Window(-1.0, 1.0, -2.0, 66.0)),
             "eps=0.04 sees x"),
            (lambda: experiments.formation_zoom(
                formation, (0.01,), 32.0, window=Window(-1e3, 0.0, -1.0, 1.0)), "starts at t="),
            (lambda: experiments.formation_zoom(
                formation, (0.01, 0.04), 32.0, window=Window(-1.0, 0.5, -2.0, 60.0)),
             "eps=0.04 sees x"),
            # a window of zero duration, whose time samples would be 0 apart
            (lambda: experiments.single_shock_zoom(
                single, (0.04,), window=Window(0.5, 0.5, -4.0, 4.0)), "zero duration"),
            (lambda: experiments.merging_zoom(
                merging, (0.04,), None, window=Window(0.5, 0.5, -2.0, 2.0)), "zero duration"),
            (lambda: experiments.formation_zoom(
                formation, (0.01,), 32.0, window=Window(-1.0, -1.0, -1.0, 1.0)),
             "zero duration"),
            # samples beyond the solver's snapshot memory: nt x ny values, held
            # once per time shift and once per viscosity by the merging search
            # ((17 + 1) x 21 x 10^6 there)
            (lambda: experiments.single_shock_zoom(
                single, (0.04,), window=Window(-2.0, 2.0, -4.0, 4.0), nt=10**6, ny=101),
             "1 x 1000000 x 101"),
            (lambda: experiments.formation_zoom(
                formation, (0.01,), 32.0, window=Window(-1.0, 0.5, -1.0, 1.0), nt=10**6),
             "1 x 1000000 x 321"),
            (lambda: experiments.merging_zoom(
                merging, (0.04,), None, window=Window(-1.0, 1.0, -2.0, 2.0), ny=10**6),
             "18 x 21 x 1000000 zoom samples exceed")):
        with pytest.raises(ConfigError, match=match):
            call()


def test_config_rejects_non_finite():
    for raw in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match="finite"):
            Config({"scenario.tau": raw})["scenario.tau"]
        with pytest.raises(ConfigError, match="finite"):
            Config({"merge.taus": f"-20,{raw}"})["merge.taus"]


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


def test_merging_run_picks_its_pattern_by_the_flux(tmp_path, monkeypatch):
    # Burgers has a constant curvature: the default run zooms against the
    # exact Cole-Hopf wave, builds no surrogate and reads no merge.* key
    calls = []

    def counted(triple):
        wave = profiles.exact_merging_wave(triple)

        def recording(t, x):
            calls.append(np.shape(t))
            return wave(t, x)
        return recording

    with monkeypatch.context() as m:
        m.setattr(experiments, "merging_surrogate", _no_solve)
        m.setattr("shockzoom.cli.exact_merging_wave", counted)
        out = tmp_path / "exact"
        assert main(["run", "--scenario", "theorem1-merging", "--set", "merge.dx=nan",
                     "--out", str(out)]) == 0
    flags, summary = _checks(out)
    assert summary["pattern"] == "exact"
    # one lattice pass for the three viscosities, one call per space shift
    # at the 97 distinct shifted times of 17 shifts of 21 samples, then for
    # each viscosity one fine time scan and at most five calls of its space
    # refinement
    n_dy = 2 * round(SHIFT_RANGE / experiments.SHIFT_DY) + 1
    assert calls[:n_dy] == [(97,)] * n_dy
    rest = calls[n_dy:]
    assert len([t for t in rest if len(t) == 2]) == 3
    assert len(rest) <= 3 * 6 and len(calls) <= 59
    assert list(flags) == ["l1-decreasing", "interior-shift", "contraction", "mass-drift"]
    assert [o["shift_t"] for o in summary["outcomes"]] == [0.484375, 0.0625, 0.0]
    # a flux of varying curvature keeps the surrogate and its settling row
    # (quartic at kappa = 0 is Burgers); at these coarse settings a row may
    # fail, which is exit 1
    out = tmp_path / "surrogate"
    assert main(_long("merging", "flux.kappa=0.05", out)
                + ["--set", "flux.name=quartic"]) <= 1
    flags, summary = _checks(out)
    assert summary["pattern"] == "surrogate"
    assert list(flags) == ["l1-decreasing", "cauchy-decreasing", "interior-shift",
                           "contraction", "mass-drift"]


def test_merging_run_counts_every_held_field_before_any_solve(tmp_path, monkeypatch,
                                                             capsys):
    # the merging search holds 17 lattice candidates and one field per
    # viscosity of nt x ny samples each: 5 x 10^6 samples fit 17 times in
    # the bound, but not 17 + 4 times
    for module in (experiments, profiles, solver):
        monkeypatch.setattr(module, "solve", _no_solve)
    nt, ny = 100, 50000
    shifts = len(experiments.SHIFT_TIMES)
    assert shifts * nt * ny <= solver.MAX_SNAPSHOT_VALUES < (shifts + 4) * nt * ny
    out = tmp_path / "o"
    assert main(["run", "--scenario", "theorem1-merging", "--eps", "0.04,0.02,0.01,0.005",
                 "--set", f"zoom.nt={nt}", "--set", f"zoom.ny={ny}",
                 "--out", str(out)]) == 2
    assert f"{shifts + 4} x {nt} x {ny} zoom samples exceed" in capsys.readouterr().err
    assert not out.exists()


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


def test_cauchy_row_fails_on_any_rise(tmp_path, monkeypatch):
    # the distances rise at the last restart although their fitted
    # log-slope is negative: the row fails, and its margin is that rise
    cauchy = profiles.CauchyReport((0.01, 0.001, 0.002), -1.0)
    monkeypatch.setattr(experiments, "merging_surrogate",
                        lambda scenario, **kw: (lambda t, y: np.broadcast_to(
                            -np.tanh(y / 2.0), np.shape(t) + y.shape), cauchy))
    out = tmp_path / "m"
    assert main(["merge", "--set", "merge.nt=3", "--out", str(out)]) == 1
    flags, summary = _checks(out)
    assert flags == {"cauchy-decreasing": False, "cauchy-slope": True, "post-merge": True}
    row = summary["checks"][0]
    assert row["name"] == "cauchy-decreasing"
    assert row["margin"] == pytest.approx(-0.001) and row["margin"] <= 0.0
    # the rows' time and the restart times come from the config, not the report
    assert row["t"] == -10.0
    assert summary["taus"] == [-40.0, -30.0, -20.0] and summary["comparison_time"] == -10.0


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


def test_run_reports_a_window_without_the_shock(tmp_path):
    # the window's central slice sees only x >= 0, right of the shock: no
    # wave fits there, which is a failed row, and the report is still written
    out = tmp_path / "r"
    assert main(["run", "--scenario", "theorem1-single", "--set", "window.x_min=0",
                 "--eps", "0.04,0.02", "--out", str(out)]) == 1
    flags, summary = _checks(out)
    assert flags == {"shock-fit": False, "contraction": True, "mass-drift": True}
    # at the smallest eps, margin -0.1 * jump, the final-sup budget
    fit = summary["checks"][0]
    assert fit["t"] == 0.02 and fit["margin"] == pytest.approx(-0.2)
    assert summary["outcomes"] == []
    assert read_csv(out / "sweep.csv") == (["eps", "sup_error", "l1_error", "shift"], [])


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


# cheap settings of the long subcommands, about a second per study at most
LONG_BASE = {"run.eps": "0.08,0.04,0.02", "run.eps2": "0.04,0.02", "zoom.nt": "3",
             "zoom.ny": "41", "grid.base_divisor": "4", "window.t_min": "-1",
             "window.t_max": "1", "window.x_min": "-2", "window.x_max": "2",
             "merge.taus": "-14,-16", "merge.comparison_time": "-3", "merge.dx": "0.1",
             "merge.nt": "3", "zref.n": "4", "zoom2.nt": "3", "zoom2.ny": "41",
             "grid.dx_hat": "0.1", "window2.t_min": "-1", "window2.t_max": "0.5",
             "window2.x_min": "-2", "window2.x_max": "2", "sweep.n_nodes": "256",
             "zlimit.n_list": "4,8", "zlimit.dx": "0.1", "zlimit.x_max": "10"}
# the keys the fuzz perturbs, each with values that keep a study cheap
LONG_KEYS = {"run.eps": _values("0.08,0.04", "0.04,0.08", "0.08,0.04,0.02"),
             "run.eps2": _values("0.04,0.02", "0.02,0.04"),
             "zoom.ny": _values("21", "41"),
             "grid.base_divisor": _values("2", "4"),
             "grid.dx_hat": _values("0.1", "0.2"),
             "zref.n": _values("2", "4"),
             "merge.taus": _values("-14,-16", "-16,-14", "-14,-14"),
             "merge.dx": _values("0.1", "0.2"),
             "merge.comparison_time": _values("-3", "-5"),
             "sweep.n_nodes": _values("128", "512"),
             "sweep.t_check": _values("0.5", "0.1"),
             "zlimit.dx": _values("0.1", "0.2"),
             "zlimit.n_list": _values("4,8", "8,4", "4,6,8"),
             "zlimit.tol": _values("0.1", "1e-6"),
             # the windows of LONG_BASE, narrowed, and collapsed to zero width
             "window.t_min": _values("-0.5", "1"),
             "window.t_max": _values("0.5", "-1"),
             "window.x_min": _values("-1", "2"),
             "window.x_max": _values("1", "-2"),
             "window2.t_min": _values("-0.5", "0.5"),
             "window2.t_max": _values("-0.5", "-1"),
             "window2.x_min": _values("-1", "2"),
             "window2.x_max": _values("1", "-2")}
LONG_COMMANDS = {"single": ["run", "--scenario", "theorem1-single"],
                 "merging": ["run", "--scenario", "theorem1-merging"],
                 "formation": ["run", "--scenario", "theorem2-formation"],
                 "sweep": ["sweep"], "merge": ["merge"], "zlimit": ["zlimit"]}


@st.composite
def long_argv(draw):
    argv = list(draw(st.sampled_from(list(LONG_COMMANDS.values()))))
    overrides = dict(LONG_BASE)
    for key in draw(st.lists(st.sampled_from(sorted(LONG_KEYS)), max_size=3)):
        overrides[key] = draw(LONG_KEYS[key])
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    return argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=long_argv())
def test_long_command_fuzz_exit_codes(tmp_path, argv):
    # an exception escaping main, a RuntimeWarning included, fails the test
    assert main(argv + ["--out", str(tmp_path / "fuzz")]) in (0, 1, 2, 3), argv


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


def _bits(values):
    return np.array(values, dtype=float).reshape(-1).view(np.int64).tolist()


_float64 = st.floats(allow_nan=False)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(audit=st.lists(st.tuples(st.sampled_from(["order", "l1-slope", "mass-drift"]),
                                _float64, _float64, st.booleans())),
       sweep=st.lists(st.tuples(_float64, _float64, _float64, _float64)))
def test_cells_round_trip(tmp_path, audit, sweep):
    # every float cell the writers format reads back to the same bits
    write_audit(tmp_path / "audit.csv", audit)
    write_sweep(tmp_path / "sweep.csv", [ZoomOutcome(*row) for row in sweep])
    header, rows = read_csv(tmp_path / "audit.csv")
    assert header == ["check", "t", "margin", "pass"]
    assert _bits([r[1:3] for r in rows]) == _bits([a[1:3] for a in audit])
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["eps", "sup_error", "l1_error", "shift"]
    assert _bits(rows) == _bits(sweep)


def test_cell_booleans_and_strings(tmp_path):
    # the pass column is written as the words true/false, for Python and
    # numpy booleans alike, and parse_cell gives a bool only for those words
    audit = [("order", 0.5, 1.0, True), ("l1-slope", 1.0, -2.0, False),
             ("mass-drift", 2.0, 3.0, np.True_), ("lemma81", 4.0, 0.25, np.False_)]
    write_audit(tmp_path / "audit.csv", audit)
    lines = (tmp_path / "audit.csv").read_text().splitlines()
    assert [ln.rsplit(",", 1)[1] for ln in lines[1:]] == ["true", "false", "true", "false"]
    header, rows = read_csv(tmp_path / "audit.csv")
    assert [r[0] for r in rows] == ["order", "l1-slope", "mass-drift", "lemma81"]
    assert [r[3] for r in rows] == [True, False, True, False]
    assert all(type(r[3]) is bool for r in rows)
    assert parse_cell("lemma81") == "lemma81"
    assert parse_cell("3") == 3.0
