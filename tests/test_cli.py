import argparse
import functools
import gc
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest
from conftest import OVERFLOW_DOC

import pulsefalsify
from pulsefalsify import cli
from pulsefalsify.cli import main
from pulsefalsify.falsification import FreeMask, falsify
from pulsefalsify.optimizers import OptimizerConfig
from pulsefalsify.systems import load_benchmark_file


LAG_DOC = {
    "name": "lag",
    "horizon": 10.0,
    "dt": 0.1,
    "inputs": [{"name": "u", "min": 0.0, "max": 1.0}],
    "model": {"kind": "first_order_lag", "params": {"K": 1.0, "tau": 1.0}},
    "specs": {
        "phi1": "alw[0,10](y <= 0.85)",
        "phi2": "alw[0,10](y <= 2)",
    },
}


@pytest.fixture
def lag_file(tmp_path):
    path = tmp_path / "lag.json"
    path.write_text(json.dumps(LAG_DOC))
    return str(path)


@pytest.fixture
def ramp_trace(tmp_path):
    # y ramps 0..1 over 10 steps of dt=0.1; max is 1.0 so "y <= 0.5" has
    # robustness 0.5 - 1.0 = -0.5
    path = tmp_path / "ramp.csv"
    lines = ["time,y"] + [f"{k * 0.1},{k * 0.1}" for k in range(11)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestRun:
    def test_falsifies_lag(self, lag_file, capsys):
        code = main([
            "run", "--benchmark", lag_file, "--spec", "phi1", "--mask", "W",
            "--optimizer", "random", "--budget", "100", "--seed", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("FALSIFIED lag/phi1")
        assert "mask=W" in out

    def test_witness_file(self, lag_file, tmp_path, capsys):
        witness = tmp_path / "witness.json"
        code = main([
            "run", "--benchmark", lag_file, "--spec", "phi1", "--mask", "L-W",
            "--optimizer", "random", "--budget", "100", "--seed", "1",
            "--witness-out", str(witness),
        ])
        assert code == 0
        doc = json.loads(witness.read_text())
        assert doc["benchmark"] == "lag"
        assert doc["mask"] == "L-W"
        assert doc["robustness"] < 0
        assert set(doc["pulses"]) == {"u"}
        assert set(doc["pulses"]["u"]) == {
            "low_n", "period_n", "width_n", "high_n", "delay_n"
        }

    def test_expect_falsified_failure_exits_1(self, lag_file, capsys):
        code = main([
            "run", "--benchmark", lag_file, "--spec", "phi2", "--mask", "W",
            "--optimizer", "random", "--budget", "20", "--expect-falsified",
        ])
        assert code == 1
        assert "NOT FALSIFIED" in capsys.readouterr().out

    def test_not_falsified_without_flag_exits_0(self, lag_file, capsys):
        code = main([
            "run", "--benchmark", lag_file, "--spec", "phi2", "--mask", "W",
            "--optimizer", "random", "--budget", "20",
        ])
        assert code == 0

    @pytest.mark.parametrize("spec, first", [("phi1", "FALSIFIED"), ("phi2", "NOT FALSIFIED")])
    def test_counters_follow_the_result_line(self, lag_file, capsys, spec, first):
        main(["run", "--benchmark", lag_file, "--spec", spec, "--mask", "W",
              "--optimizer", "turbo", "--budget", "40", "--seed", "0"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"{first} lag/{spec} mask=W sims=")
        outcome = falsify(load_benchmark_file(lag_file), spec, FreeMask.from_label("W"),
                          OptimizerConfig(kind="turbo_lite", budget=40, seed=0))
        assert lines[1] == (f"restarts={outcome.restarts} "
                            f"surrogate_fits={outcome.surrogate_fits} "
                            f"degenerate_fits={outcome.degenerate_fits} diverged=0")
        if first == "NOT FALSIFIED":
            assert outcome.surrogate_fits > 0  # past the Latin hypercube

    def test_counters_count_the_diverged_rows(self, tmp_path, capsys):
        # k1 = 400 makes the followers' RK4 steps unstable at dt = 0.5: a
        # lead car that moves drives their state past the largest float, and
        # the row scores +inf; one that stays at rest leaves them at rest
        path = tmp_path / "cc_unstable.json"
        path.write_text(json.dumps({
            "name": "cc_unstable", "horizon": 100.0, "dt": 0.5,
            "inputs": [{"name": "throttle", "min": 0.0, "max": 1.0},
                       {"name": "brake", "min": 0.0, "max": 1.0}],
            "model": {"kind": "chasing_cars", "params": {"k1": 400.0}},
            "specs": {"phi1": "alw[0,100](y5 - y4 <= 40)"},
        }))
        main(["run", "--benchmark", str(path), "--spec", "phi1", "--mask", "L-H",
              "--optimizer", "random", "--budget", "20", "--seed", "0"])
        lines = capsys.readouterr().out.splitlines()
        outcome = falsify(load_benchmark_file(str(path)), "phi1", FreeMask.from_label("L-H"),
                          OptimizerConfig(kind="random_search", budget=20, seed=0))
        diverged = sum(value == math.inf for value in outcome.history)
        assert 0 < diverged < len(outcome.history) == 20
        assert lines[1].endswith(f" diverged={diverged}")

    def test_overflowing_robustness_counts_as_diverged(self, tmp_path, capsys):
        # mask H frees u1's high level over [0, 1.5e308]: "2*u1 <= 1e308"
        # overflows above 0.9e308 and is violated between 0.5e308 and that
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(OVERFLOW_DOC))
        code = main(["run", "--benchmark", str(path), "--spec", "big", "--mask", "H",
                     "--optimizer", "random", "--budget", "50", "--seed", "0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        outcome = falsify(load_benchmark_file(str(path)), "big", FreeMask.from_label("H"),
                          OptimizerConfig(kind="random_search", budget=50, seed=0))
        diverged = outcome.history.count(math.inf)
        assert outcome.falsified and 0 < diverged < len(outcome.history)
        assert lines[0].startswith(f"FALSIFIED overflow/big mask=H sims={len(outcome.history)} ")
        assert lines[1].endswith(f" diverged={diverged}")

    def test_unknown_spec_exits_2(self, lag_file, capsys):
        code = main([
            "run", "--benchmark", lag_file, "--spec", "nope", "--mask", "W",
            "--optimizer", "random", "--budget", "10",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_mask_exits_2(self, lag_file, capsys):
        code = main([
            "run", "--benchmark", lag_file, "--spec", "phi1", "--mask", "X",
            "--optimizer", "random", "--budget", "10",
        ])
        assert code == 2

    def test_missing_benchmark_file_exits_2(self, tmp_path, capsys):
        code = main([
            "run", "--benchmark", str(tmp_path / "none.json"),
            "--spec", "phi1", "--mask", "W",
        ])
        assert code == 2


class TestSweep:
    def test_writes_csvs(self, lag_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main([
            "sweep", "--benchmark", lag_file, "--spec", "phi1",
            "--masks", "W,L-W", "--reps", "2", "--budget", "30",
            "--optimizer", "random", "--out", str(out_dir),
        ])
        assert code == 0
        for name in ("results", "aggregate", "coverage", "cactus"):
            assert (out_dir / f"{name}.csv").exists()
        text = capsys.readouterr().out
        assert "4 runs" in text

    def test_errored_cells_are_counted_and_reported(self, lag_file, tmp_path, capsys):
        # turbo_lite needs 2*dim = 10 hypercube points on a 5-D mask, so
        # every cell raises at a budget of 3
        code = main([
            "sweep", "--benchmark", lag_file, "--masks", "L-P-W-H-D", "--reps", "1",
            "--optimizer", "turbo", "--budget", "3", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "2 runs, 0 falsified, 2 errors" in captured.out
        lines = captured.err.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "lag/phi1/L-P-W-H-D/0", "lag/phi2/L-P-W-H-D/0"]
        assert all("ValueError" in line for line in lines)

    def test_errors_csv_has_a_row_per_errored_cell(self, lag_file, tmp_path, capsys):
        # at a budget of 3 the 5-D turbo cells raise and the 1-D cells run
        args = ["sweep", "--benchmark", lag_file, "--spec", "phi1", "--reps", "1",
                "--optimizer", "turbo", "--budget", "3"]
        assert main(args + ["--masks", "W,L-P-W-H-D", "--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--masks", "W", "--out", str(tmp_path / "b")]) == 0
        header = "benchmark,spec,mask,rep,seed,error"
        assert (tmp_path / "b" / "errors.csv").read_text().splitlines() == [header]
        lines = (tmp_path / "a" / "errors.csv").read_text().splitlines()
        assert lines[0] == header and len(lines) == 2
        assert lines[1].startswith("lag,phi1,L-P-W-H-D,0,")
        assert "ValueError: budget 3 smaller than init_samples 10" in lines[1]
        assert "wrote " + str(tmp_path / "a" / "errors.csv") in capsys.readouterr().out

    def test_parallel_matches_serial(self, lag_file, tmp_path):
        args = [
            "sweep", "--benchmark", lag_file, "--spec", "phi1",
            "--masks", "W,L", "--reps", "2", "--budget", "30",
            "--optimizer", "random",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--parallel", "4", "--out", str(tmp_path / "b")]) == 0
        for name in ("results", "aggregate", "coverage", "cactus"):
            a = (tmp_path / "a" / f"{name}.csv").read_bytes()
            b = (tmp_path / "b" / f"{name}.csv").read_bytes()
            assert a == b

    def test_masks_are_stored_canonical(self, lag_file, tmp_path, capsys):
        args = [
            "sweep", "--benchmark", lag_file, "--spec", "phi1", "--reps", "2",
            "--budget", "30", "--optimizer", "random",
        ]
        assert main(args + ["--masks", "w,l", "--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--masks", "W,L", "--out", str(tmp_path / "b")]) == 0
        for name in ("results", "aggregate", "coverage", "cactus"):
            a = (tmp_path / "a" / f"{name}.csv").read_bytes()
            b = (tmp_path / "b" / f"{name}.csv").read_bytes()
            assert a == b
        coverage = (tmp_path / "a" / "coverage.csv").read_text().splitlines()
        assert {"1,L,1", "1,W,1", "2,L-W,1"} <= set(coverage)

    def test_one_mask_named_twice_exits_2(self, lag_file, tmp_path, capsys):
        code = main([
            "sweep", "--benchmark", lag_file, "--masks", "W-L,L-W",
            "--reps", "1", "--budget", "10", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "twice" in capsys.readouterr().err

    @pytest.mark.parametrize("twice, kind", [
        (["--benchmark", "LAG", "--spec", "phi1", "--spec", "phi1"], "spec"),
        (["--benchmark", "LAG", "--benchmark", "LAG"], "benchmark"),
    ])
    def test_a_name_given_twice_exits_2(self, lag_file, tmp_path, capsys, twice, kind):
        out_dir = tmp_path / "o"
        code = main(["sweep"] + [lag_file if arg == "LAG" else arg for arg in twice] + [
            "--masks", "W", "--reps", "1", "--budget", "10", "--optimizer", "random",
            "--out", str(out_dir)])
        assert code == 2
        assert f"{kind} list names one {kind} twice" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_bad_mask_list_exits_2(self, lag_file, tmp_path, capsys):
        code = main([
            "sweep", "--benchmark", lag_file, "--masks", "W,Q",
            "--reps", "1", "--budget", "10", "--out", str(tmp_path / "o"),
        ])
        assert code == 2


class TestMonitor:
    def test_ramp_robustness(self, ramp_trace, capsys):
        code = main([
            "monitor", "--spec", "alw[0,1](y <= 0.5)", "--trace", ramp_trace,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "classic robustness:  -0.5" in out
        assert "additive robustness:" in out

    def test_parse_error_exits_2(self, ramp_trace, capsys):
        code = main(["monitor", "--spec", "alw[0,1](", "--trace", ramp_trace])
        assert code == 2

    def test_missing_time_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0,1\n")
        code = main(["monitor", "--spec", "y > 0", "--trace", str(path)])
        assert code == 2

    @pytest.mark.parametrize("args, message", [
        (["--spec", "alw[0,1e400](y > 0)"], "number 1e400 is not finite (line 1, column 7)"),
        (["--spec", "alw[0,1e308](y > 0)"], "interval [0.0, 1e+308] is not finite"),
        (["--spec", "y > 0", "--t0", "inf"], "t0=inf is not finite"),
        (["--spec", "y > 0", "--t0", "nan"], "t0=nan is not finite"),
    ])
    def test_non_finite_number_exits_2(self, ramp_trace, capsys, args, message):
        assert main(["monitor", "--trace", ramp_trace, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize("text", ["", "time,x\n"])
    def test_trace_without_samples_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "short.csv"
        path.write_text(text)
        code = main(["monitor", "--spec", "x > 0", "--trace", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err and "has no samples" in err


    @pytest.mark.parametrize("text, message", [
        ("time,x,y\n0,1,2\n0.1,1\n", ", line 3: the header has 3 columns, this row 2"),
        ("time,x\n0,1,2\n0.1,1,2\n", ", line 2: the header has 2 columns, this row 3"),
        ("time,x\n0,1\n0.1,abc\n", ", line 3: 'abc' is not a number"),
        ("time,x\n", " has no samples"),
        ("time,x\n\n\n", " has no samples"),
        ("time,x\n0,1\n0.1,1\n0.3,1\n", ": times must form a uniform grid"),
        ("time,x\n1,1\n1.1,1\n", ": grid must start at 0, got 1.0"),
        ("time,x,x\n0,1,2\n0.1,1,2\n", ": channel names must be unique, got ('x', 'x')"),
    ])
    def test_a_bad_trace_file_is_named(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["monitor", "--spec", "x > 0", "--trace", str(path)]) == 2
        assert capsys.readouterr().err == f"error: trace file {path}{message}\n"

    @pytest.mark.parametrize("text", [
        "time,y\n0,0\n0.5,0.75\n1,1\n",
        "time,y\n0,0\n0.5\n",
        "time,y\n0,0\n0.5,abc\n",
    ])
    def test_a_byte_order_mark_is_read_past(self, tmp_path, capsys, text):
        # Excel starts a UTF-8 CSV with one; it once made the first header
        # cell '\ufefftime'
        printed = []
        for name, mark in (("plain.csv", ""), ("bom.csv", "\ufeff")):
            path = tmp_path / name
            path.write_text(mark + text, encoding="utf-8")
            code = main(["monitor", "--spec", "alw[0,1](y <= 0.5)", "--trace", str(path)])
            out, err = capsys.readouterr()
            printed.append((code, out, err.replace(str(path), "TRACE")))
        assert printed[0] == printed[1]

    def test_an_overflowing_margin_prints_only_the_error(self, tmp_path):
        # 2*u1 overflows; numpy's warning used to come before the error line
        path = tmp_path / "big.csv"
        path.write_text("time,u1\n0,1.5e308\n0.2,1.5e308\n0.4,1.5e308\n")
        src = str(Path(pulsefalsify.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "pulsefalsify.cli", "monitor", "--spec",
             "alw[0,0.4](2*u1 <= 1e308)", "--trace", str(path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == "error: robustness is non-finite; trace contains bad values\n"


class TestErrors:
    def test_a_missing_spec_prints_the_message_unquoted(self, lag_file, capsys):
        assert main(["run", "--benchmark", lag_file, "--spec", "phi9", "--mask", "W"]) == 2
        assert capsys.readouterr().err == (
            "error: benchmark 'lag' has no spec 'phi9'; available: ['phi1', 'phi2']\n")

    def test_a_missing_channel_prints_the_message_unquoted(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("time,x\n0,1\n0.1,1\n")
        assert main(["monitor", "--spec", "y > 0", "--trace", str(path)]) == 2
        assert capsys.readouterr().err == "error: no channel named 'y'; have ('x',)\n"

    def test_a_key_error_without_a_message_is_named(self, lag_file, capsys, monkeypatch):
        def raise_bare(args):
            raise KeyError

        monkeypatch.setattr(cli, "_cmd_validate", raise_bare)
        assert main(["validate", "--benchmark", lag_file]) == 2
        assert capsys.readouterr().err == "error: KeyError\n"


class TestOneParser:
    """``main`` builds its parser at its first call and reuses it."""

    @pytest.fixture
    def commands(self, lag_file, ramp_trace, tmp_path):
        return {
            "run": ["run", "--benchmark", lag_file, "--spec", "phi1", "--mask", "W",
                    "--optimizer", "random", "--budget", "20"],
            "sweep": ["sweep", "--benchmark", lag_file, "--masks", "W", "--reps", "1",
                      "--budget", "10", "--optimizer", "random", "--out", str(tmp_path / "o")],
            "monitor": ["monitor", "--spec", "(y <= 0.5 U[0,0.3] y >= 0.2)",
                        "--trace", ramp_trace],
            "validate": ["validate", "--benchmark", lag_file],
        }

    @staticmethod
    def _call(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    @pytest.mark.parametrize("command", ["run", "sweep", "monitor", "validate"])
    def test_a_second_call_prints_what_the_first_did(self, commands, capsys, command):
        first = self._call(capsys, commands[command])
        assert first[0] in (0, 1)
        helps = [self._call(capsys, argv) for argv in (["--help"], [command, "--help"])]
        assert [code for code, _, _ in helps] == [0, 0]
        missing = self._call(capsys, [command])
        assert missing[0] == 2 and "error: the following arguments are required" in missing[2]
        unknown = self._call(capsys, [*commands[command], "--no-such-option"])
        assert unknown[0] == 2
        assert unknown[2].endswith("error: unrecognized arguments: --no-such-option\n")
        assert self._call(capsys, commands[command]) == first
        assert [self._call(capsys, argv) for argv in (["--help"], [command, "--help"])] == helps

    @pytest.mark.parametrize("argv", [
        ["--help"], ["run", "--help"], ["sweep", "--help"], ["monitor", "--help"],
        ["validate", "--help"], [], ["bogus"], ["monitor", "--spec", "x > 0"],
    ])
    def test_help_and_usage_errors_are_those_of_a_new_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args(argv)
        fresh = (info.value.code, *capsys.readouterr())
        for _ in range(2):
            assert self._call(capsys, argv) == fresh

    def test_the_parser_is_built_at_the_first_call_only(self, monkeypatch, lag_file, capsys):
        monkeypatch.setattr(cli, "_parser", functools.cache(cli.build_parser))
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        counts = []
        for _ in range(3):
            assert main(["validate", "--benchmark", lag_file]) == 0
            counts.append(len(built))
        assert counts == [5, 5, 5]  # the parser and its four subcommands

    def test_importing_the_cli_builds_no_parser(self):
        src = str(Path(pulsefalsify.__file__).resolve().parents[1])
        code = textwrap.dedent("""
            import argparse
            built = []
            init = argparse.ArgumentParser.__init__
            def counting_init(self, *args, **kwargs):
                built.append(self)
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting_init
            import pulsefalsify.cli
            print(len(built))
        """)
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")

    def test_build_parser_returns_a_new_parser_each_call(self):
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        assert cli._parser() not in (first, second)

    def test_monitor_leaves_no_cyclic_garbage(self, ramp_trace, capsys):
        argv = ["monitor", "--spec", "(y <= 0.5 U[0,0.3] y >= 0.2)", "--trace", ramp_trace]
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                assert main(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestValidate:
    def test_good_benchmark(self, lag_file, capsys):
        assert main(["validate", "--benchmark", lag_file]) == 0
        out = capsys.readouterr().out
        assert "benchmark 'lag'" in out
        assert "2 spec(s) parsed" in out

    def test_spec_on_unknown_channel_exits_2(self, tmp_path, capsys):
        path = tmp_path / "lag_z.json"
        path.write_text(json.dumps({**LAG_DOC, "specs": {"phi1": "alw[0,10](z <= 0.85)"}}))
        assert main(["validate", "--benchmark", str(path)]) == 2
        assert "unknown channel" in capsys.readouterr().err

    def test_spec_window_with_no_grid_instant_exits_2(self, tmp_path, capsys):
        # it used to load, and then every cell of a sweep recorded the error
        path = tmp_path / "lag_window.json"
        path.write_text(json.dumps({**LAG_DOC, "specs": {"phi1": "alw[0.01,0.02] (y <= 2)"}}))
        assert main(["validate", "--benchmark", str(path)]) == 2
        assert capsys.readouterr().err == (f"error: {path}: spec 'phi1': interval [0.01, 0.02] "
                                           "contains no grid instant at dt=0.1\n")

    def test_misspelt_model_param_exits_2(self, tmp_path, capsys):
        path = tmp_path / "lag_tua.json"
        path.write_text(json.dumps({**LAG_DOC, "model": {"kind": "first_order_lag",
                                                         "params": {"tua": 1.0}}}))
        assert main(["validate", "--benchmark", str(path)]) == 2
        assert "'tua'" in capsys.readouterr().err

    @pytest.mark.parametrize("change, section", [
        ({"inputs": 5}, "'inputs'"),
        ({"model": {"kind": "first_order_lag", "params": [1]}}, "model"),
        ({"static_params": [3]}, "static param entry"),
        ({"horizon": None}, "'horizon' must be a finite number"),
        ({"dt": [0.1]}, "'dt' must be a finite number"),
        ({"horizon": math.inf}, "'horizon' must be a finite number"),
        ({"inputs": [{"name": "u", "min": None, "max": 1.0}]}, "input 'u' 'min'"),
        ({"model": {"kind": "first_order_lag", "params": {"K": "abc"}}}, "model param 'K'"),
        ({"model": {"kind": "first_order_lag", "params": {"tau": math.nan}}}, "model param 'tau'"),
        ({"static_params": [{"name": "y_init", "min": -1.0, "max": 1.0, "default": 0.9}],
          "model": {"kind": "first_order_lag", "params": {"y_init": 0.5}}}, "has default 0.9"),
        ({"model": {"kind": "first_order_lag", "params": {"K": True}}}, "model param 'K'"),
        ({"model": {"kind": "first_order_lag", "params": {"tau": "2"}}}, "model param 'tau'"),
        ({"model": {"kind": "first_order_lag", "params": {"tau": 0.0}}},
         "model param 'tau' must be nonzero"),
        ({"inputs": [{"name": "u", "min": -1e308, "max": 1e308}]},
         "input 'u': input range width upper - lower overflows"),
        ({"static_params": [{"name": "y_init", "min": -1e308, "max": 1e308, "default": 0.0}]},
         "static param 'y_init': width upper - lower overflows"),
    ])
    def test_badly_shaped_section_exits_2(self, tmp_path, capsys, change, section):
        path = tmp_path / "lag_shape.json"
        path.write_text(json.dumps({**LAG_DOC, **change}))
        assert main(["validate", "--benchmark", str(path)]) == 2
        assert section in capsys.readouterr().err

    def test_input_count_differing_from_the_model_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cc_one_input.json"
        path.write_text(json.dumps({**LAG_DOC, "model": {"kind": "chasing_cars"},
                                    "specs": {"phi1": "alw[0,10](y5 - y4 <= 40)"}}))
        assert main(["validate", "--benchmark", str(path)]) == 2
        assert "model 'chasing_cars' takes 2 input channel(s), got 1" in capsys.readouterr().err

    def test_non_finite_spec_literal_exits_2(self, tmp_path, capsys):
        path = tmp_path / "lag_inf.json"
        specs = {**LAG_DOC["specs"], "phi3": "alw[0,10](y <= 1e400)"}
        path.write_text(json.dumps({**LAG_DOC, "specs": specs}))
        assert main(["validate", "--benchmark", str(path)]) == 2
        assert "number 1e400 is not finite (line 1, column 16)" in capsys.readouterr().err

    def test_spec_parse_error_names_the_spec_and_the_file(self, tmp_path, capsys):
        path = tmp_path / "lag_inf.json"
        path.write_text(json.dumps({**LAG_DOC, "specs": {**LAG_DOC["specs"],
                                                         "phi3": "alw[0,10](y <= 1e400)"}}))
        assert main(["validate", "--benchmark", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: spec 'phi3': number 1e400 is not finite (line 1, column 16)\n")

    def test_broken_benchmark_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        assert main(["validate", "--benchmark", str(path)]) == 2
