import json
import math

import pytest

from pulsefalsify.cli import main


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

    @pytest.mark.parametrize("text", ["", "time,x\n"])
    def test_trace_without_samples_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "short.csv"
        path.write_text(text)
        code = main(["monitor", "--spec", "x > 0", "--trace", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err and "has no samples" in err


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
    ])
    def test_badly_shaped_section_exits_2(self, tmp_path, capsys, change, section):
        path = tmp_path / "lag_shape.json"
        path.write_text(json.dumps({**LAG_DOC, **change}))
        assert main(["validate", "--benchmark", str(path)]) == 2
        assert section in capsys.readouterr().err

    def test_broken_benchmark_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        assert main(["validate", "--benchmark", str(path)]) == 2
