import copy
import json
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from pulsefalsify import falsification
from pulsefalsify.falsification import FreeMask, batch_objective, build_param_space
from pulsefalsify.signals import Signal
from pulsefalsify.stl import ParseError
from pulsefalsify.systems import (
    _CC_FLOAT_ROWS,
    _DSM_FLOAT_ROWS,
    Benchmark,
    ModelSpec,
    SimulationError,
    StaticParam,
    builtin_benchmark,
    builtin_benchmark_names,
    _chasing_cars_floats,
    _chasing_cars_numpy,
    _delta_sigma_floats,
    _delta_sigma_numpy,
    load_benchmark,
    simulate,
    simulate_batch,
)


def constant_inputs(benchmark, values):
    grid = benchmark.grid()
    channels = tuple(np.full(len(grid), v) for v in values)
    return Signal(times=grid, channels=channels, channel_names=benchmark.input_names)


class TestLag:
    def test_step_response_matches_closed_form(self):
        b = load_benchmark(json.dumps({
            "name": "lag", "horizon": 10.0, "dt": 0.01,
            "inputs": [{"name": "u", "min": 0.0, "max": 1.0}],
            "model": {"kind": "first_order_lag", "params": {"K": 1.0, "tau": 1.0}},
            "specs": {"phi": "alw[0,10](y <= 2)"},
        }))
        out = simulate(b, constant_inputs(b, [1.0]))
        assert out.channel("y")[-1] == pytest.approx(1 - math.exp(-10), abs=1e-6)

    def test_rk4_order_on_lag(self):
        errors = []
        for dt in (0.1, 0.05, 0.025):
            b = load_benchmark(json.dumps({
                "name": "lag", "horizon": 2.0, "dt": dt,
                "inputs": [{"name": "u", "min": 0.0, "max": 1.0}],
                "model": {"kind": "first_order_lag"},
                "specs": {"phi": "alw[0,2](y <= 2)"},
            }))
            out = simulate(b, constant_inputs(b, [1.0]))
            errors.append(abs(out.channel("y")[-1] - (1 - math.exp(-2.0))))
        for coarse, fine in zip(errors, errors[1:]):
            assert 8.0 <= coarse / fine <= 32.0

    def test_rest_kept_where_steps_overflow_a_block(self):
        # dt/tau = 1000: q^32 overflows, yet y stays 0 under u = 0 step by step
        b = load_benchmark(json.dumps({
            "name": "lag", "horizon": 10.0, "dt": 0.1,
            "inputs": [{"name": "u", "min": 0.0, "max": 1.0}],
            "model": {"kind": "first_order_lag", "params": {"tau": 1e-4}},
            "specs": {"phi": "alw[0,10](y <= 2)"},
        }))
        out = simulate(b, constant_inputs(b, [0.0]))
        np.testing.assert_array_equal(out.channel("y"), 0.0)

    def test_grid_alignment(self):
        b = builtin_benchmark("lag")
        out = simulate(b, constant_inputs(b, [0.5]))
        np.testing.assert_array_equal(out.times, b.grid())

    def test_determinism(self):
        b = builtin_benchmark("lag")
        u = constant_inputs(b, [0.7])
        a = simulate(b, u)
        c = simulate(b, u)
        np.testing.assert_array_equal(a.channel("y"), c.channel("y"))


class TestChasingCars:
    def test_no_overtaking_at_rest(self):
        b = builtin_benchmark("cc")
        out = simulate(b, constant_inputs(b, [0.0, 0.0]))
        for lead, follow in [("y1", "y2"), ("y2", "y3"), ("y3", "y4"), ("y4", "y5")]:
            assert np.all(out.channel(lead) >= out.channel(follow))

    def test_lead_velocity_clamped(self):
        # full brake from rest: the lead car must not move backwards
        b = builtin_benchmark("cc")
        out = simulate(b, constant_inputs(b, [0.0, 1.0]))
        y1 = out.channel("y1")
        assert np.all(np.diff(y1) >= -1e-9)

    def test_throttle_grows_lead_gap(self):
        b = builtin_benchmark("cc")
        out = simulate(b, constant_inputs(b, [1.0, 0.0]))
        gap = out.channel("y1") - out.channel("y5")
        assert gap[-1] > gap[0] + 10


class TestDeltaSigma:
    def hand_iterate(self, u_seq, b=(0.044, 0.287, 0.8)):
        x = [0.0, 0.0, 0.0]
        states = [tuple(x)]
        for u in u_seq:
            v = 1.0 if x[2] >= 0 else -1.0
            ins = [u, x[0], x[1]]
            x = [x[j] + b[j] * (ins[j] - v) for j in range(3)]
            states.append(tuple(x))
        return states

    def test_zero_input_matches_hand_iteration(self):
        bench = load_benchmark(json.dumps({
            "name": "dsm", "horizon": 5.0, "dt": 1.0,
            "inputs": [{"name": "u", "min": -0.35, "max": 0.35}],
            "model": {"kind": "delta_sigma"},
            "specs": {"phi": "alw[0,5](x1 <= 10)"},
        }))
        out = simulate(bench, constant_inputs(bench, [0.0]))
        expected = self.hand_iterate([0.0] * 5)
        for k, (x1, x2, x3) in enumerate(expected):
            assert out.channel("x1")[k] == pytest.approx(x1, abs=1e-12)
            assert out.channel("x2")[k] == pytest.approx(x2, abs=1e-12)
            assert out.channel("x3")[k] == pytest.approx(x3, abs=1e-12)

    def test_initial_conditions_via_statics(self):
        bench = builtin_benchmark("dsm")
        out = simulate(bench, constant_inputs(bench, [0.0]),
                       {"x1_init": 0.1, "x2_init": -0.05, "x3_init": 0.02})
        assert out.channel("x1")[0] == 0.1
        assert out.channel("x2")[0] == -0.05
        assert out.channel("x3")[0] == 0.02

    def test_static_outside_range_rejected(self):
        bench = builtin_benchmark("dsm")
        with pytest.raises(ValueError):
            simulate(bench, constant_inputs(bench, [0.0]), {"x1_init": 0.5})


class TestSwitchedSystem:
    def test_zero_input_stays_at_origin(self):
        b = builtin_benchmark("ss")
        out = simulate(b, constant_inputs(b, [0.0, 0.0]))
        assert np.all(out.channel("x1") == 0.0)
        assert np.all(out.channel("x2") == 0.0)

    def test_threshold_changes_trajectory(self):
        b = builtin_benchmark("ss")
        u = constant_inputs(b, [1.0, 0.0])
        low = simulate(b, u, {"thresh": 0.65})
        high = simulate(b, u, {"thresh": 0.95})
        assert not np.allclose(low.channel("x1"), high.channel("x1"))


class TestSimulationFailures:
    def test_missing_channel(self):
        b = builtin_benchmark("cc")
        grid = b.grid()
        partial = Signal(times=grid, channels=(np.zeros(len(grid)),), channel_names=("throttle",))
        with pytest.raises(KeyError):
            simulate(b, partial)

    def test_wrong_grid(self):
        b = builtin_benchmark("lag")
        t = np.arange(5) * 0.1
        sig = Signal(times=t, channels=(np.zeros(5),), channel_names=("u",))
        with pytest.raises(ValueError):
            simulate(b, sig)

    def test_grid_off_by_a_relative_5e_6_rejected(self):
        # the last instant is 10.00005 s: within np.allclose's default
        # rtol of 1e-5, but 5e-5 s past the 1e-9 s the grid may differ by
        b = builtin_benchmark("lag")
        t = b.grid() * (1 + 5e-6)
        sig = Signal(times=t, channels=(np.zeros(len(t)),), channel_names=("u",))
        with pytest.raises(ValueError, match="input signal grid does not match"):
            simulate(b, sig)
        # 1e-10 s off at the end is within it
        simulate(b, Signal(times=b.grid() * (1 + 1e-11), channels=sig.channels,
                           channel_names=("u",)))

    @staticmethod
    def lag_with_y_init():
        return load_benchmark(json.dumps({
            "name": "lag", "horizon": 10.0, "dt": 0.1,
            "inputs": [{"name": "u", "min": 0.0, "max": 1.0}],
            "model": {"kind": "first_order_lag"},
            "static_params": [{"name": "y_init", "min": -2.0, "max": 2.0, "default": 0.0}],
            "specs": {"phi1": "alw[0,10](y <= 2)"},
        }))

    @pytest.mark.parametrize("value", [True, np.True_, "1.5", None])
    def test_static_that_is_not_a_number_rejected(self, value):
        b = self.lag_with_y_init()
        with pytest.raises(ValueError, match=re.escape(
                f"static parameter 'y_init' must be a finite number, got {value!r}")):
            simulate(b, constant_inputs(b, [0.0]), {"y_init": value})
        assert simulate(b, constant_inputs(b, [0.0]), {"y_init": 1}).channel("y")[0] == 1.0

    @pytest.mark.parametrize("values", [
        np.array([True]), [False], np.array(["1.5"]), np.array([1.5], dtype=object)])
    def test_static_array_that_is_not_numbers_rejected_in_a_batch(self, values):
        b = self.lag_with_y_init()
        u = np.zeros((1, 1, len(b.times)))
        with pytest.raises(ValueError, match=re.escape(
                "static parameter 'y_init' takes integer or float values, got dtype")):
            simulate_batch(b, u, {"y_init": values})
        for numbers in (np.array([1]), [1.5], np.array([-2.0], dtype=np.float32)):
            y = simulate_batch(b, u, {"y_init": numbers})
            assert y[0, 0, 0] == float(np.asarray(numbers)[0])

    def test_unknown_static_in_a_batch_rejected(self):
        b = builtin_benchmark("dsm")
        u = np.zeros((1, 1, len(b.times)))
        with pytest.raises(ValueError, match=re.escape("unknown static parameter 'x4_init'")):
            simulate_batch(b, u, {"x4_init": np.zeros(1)})

    def test_divergence_reported_as_simulation_error(self):
        # unstable lag (negative tau) blows up to non-finite state
        bench = load_benchmark(json.dumps({
            "name": "bad", "horizon": 2000.0, "dt": 1.0,
            "inputs": [{"name": "u", "min": 0.0, "max": 1.0}],
            "model": {"kind": "first_order_lag", "params": {"tau": -0.1}},
            "specs": {"phi": "alw[0,10](y <= 2)"},
        }))
        with pytest.raises(SimulationError):
            simulate(bench, constant_inputs(bench, [1.0]))

    def test_switched_system_divergence_reported_as_simulation_error(self):
        # A2 = [[40, -1], [1, 40]] explodes once |x1| passes thresh: Python
        # floats overflow to inf without raising, and inf - inf gives nan
        bench = load_benchmark(json.dumps({
            "name": "ss_div", "horizon": 200.0, "dt": 0.2,
            "inputs": [{"name": "u1", "min": -1.0, "max": 1.0},
                       {"name": "u2", "min": -1.0, "max": 1.0}],
            "model": {"kind": "switched_system", "params": {"a2_11": 40.0, "a2_22": 40.0}},
            "specs": {"phi": "alw[0,20](x1 <= 2.0)"},
        }))
        levels = [(-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
        u = np.array(levels)[:, :, None] * np.ones(len(bench.grid()))
        finite = np.isfinite(simulate_batch(bench, u)).all(axis=(1, 2))
        assert finite.tolist() == [False, False, True]
        for values, ok in zip(levels, finite):
            if ok:
                simulate(bench, constant_inputs(bench, values))
            else:
                with pytest.raises(SimulationError):
                    simulate(bench, constant_inputs(bench, values))
        # pulses with low = high: u1, u2 at -1 for 0 and at +1 for 1
        space = build_param_space(bench, FreeMask.from_label("L-H"))
        scores = batch_objective(bench, "phi", space)(np.array(
            [[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]))
        assert scores[0] == scores[1] == math.inf
        assert math.isfinite(scores[2])


class TestLoadBenchmark:
    def test_spec_looks_a_spec_up(self):
        bench = builtin_benchmark("lag")
        assert bench.spec("phi2") is bench.specs["phi2"]
        with pytest.raises(KeyError, match=re.escape(
                "benchmark 'lag' has no spec 'phi3'; available: ['phi1', 'phi2']")):
            bench.spec("phi3")

    def base_doc(self):
        return {
            "name": "demo", "horizon": 10.0, "dt": 0.1,
            "inputs": [{"name": "u", "min": 0.0, "max": 1.0}],
            "model": {"kind": "first_order_lag"},
            "specs": {"phi": "alw[0,10](y <= 1)"},
        }

    def test_shipped_cc(self):
        b = builtin_benchmark("cc")
        assert len(b.inputs) == 2
        for _, rng in b.inputs:
            assert (rng.lower, rng.upper) == (0.0, 1.0)

    def test_shipped_dsm_range(self):
        b = builtin_benchmark("dsm")
        assert b.inputs[0][1].lower == -0.35
        assert b.inputs[0][1].upper == 0.35

    def test_all_builtins_load(self):
        for name in builtin_benchmark_names():
            b = builtin_benchmark(name)
            assert b.specs

    @pytest.mark.parametrize("change, message", [
        ({"static_params": [{"name": "y_init", "min": -1.0, "max": 1.0, "default": 2.0}]},
         "static param 'y_init': default outside range"),
        ({"static_params": [{"name": "y_init", "min": 1.0, "max": -1.0, "default": 0.0}]},
         "static param 'y_init': requires lower < upper, got [1.0, -1.0]"),
        ({"dt": 20.0}, "dt must satisfy 0 < dt <= horizon, got dt=20.0"),
        ({"model": {"kind": "chasing_cars"},
          "inputs": [{"name": "u", "min": 0.0, "max": 1.0}] * 2,
          "specs": {"phi": "alw[0,10](y5 - y4 <= 40)"}},
         "input channel names must be unique, got ['u', 'u']"),
        ({"inputs": [{"name": "y", "min": 0.0, "max": 1.0}]},
         "input names clash with model outputs: ['y']"),
        ({"specs": {}}, "benchmark config: 'specs' must be a non-empty object"),
        ({"specs": {"phi": "alw[0.01,0.02](y <= 2)"}},
         "spec 'phi': interval [0.01, 0.02] contains no grid instant at dt=0.1"),
        ({"specs": {"phi": "alw[0,10](y <= 2)", "psi": "ev[0,1](alw[0.25,0.28](y <= 2))"}},
         "spec 'psi': interval [0.25, 0.28] contains no grid instant at dt=0.1"),
    ])
    def test_bad_config_message(self, change, message):
        with pytest.raises(ValueError) as caught:
            load_benchmark(json.dumps({**self.base_doc(), **change}))
        assert str(caught.value) == message

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError, match="benchmark config is not valid JSON: Expecting"):
            load_benchmark('{"name": "demo",')

    def test_unknown_builtin_names_the_builtins(self):
        with pytest.raises(KeyError, match=re.escape(
                f"no builtin benchmark 'nope'; available: {builtin_benchmark_names()}")):
            builtin_benchmark("nope")

    @pytest.mark.parametrize("lower, upper, message", [
        (True, 1.0, "static param 'y_init': lower must be a finite number, got True"),
        (-1.0, "1", "static param 'y_init': upper must be a finite number, got '1'"),
    ])
    def test_static_param_bound_that_is_not_a_number_rejected(self, lower, upper, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            StaticParam("y_init", lower, upper, 0.0)

    @pytest.mark.parametrize("default", [True, np.False_, "1", None])
    def test_static_param_default_that_is_not_a_number_rejected(self, default):
        with pytest.raises(ValueError, match=re.escape(
                f"static param 'y_init': default must be a finite number, got {default!r}")):
            StaticParam("y_init", 0.0, 2.0, default)

    def test_missing_horizon(self):
        doc = self.base_doc()
        del doc["horizon"]
        with pytest.raises(ValueError, match="horizon"):
            load_benchmark(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = self.base_doc()
        doc["extra"] = 1
        with pytest.raises(ValueError, match="unknown keys"):
            load_benchmark(json.dumps(doc))

    def test_inverted_range_rejected(self):
        doc = self.base_doc()
        doc["inputs"][0]["min"] = 2.0
        with pytest.raises(ValueError):
            load_benchmark(json.dumps(doc))

    def test_unparseable_spec_rejected(self):
        doc = self.base_doc()
        doc["specs"]["phi"] = "alw[0,10]("
        with pytest.raises(Exception):
            load_benchmark(json.dumps(doc))

    def test_spec_parse_error_names_the_spec(self):
        doc = self.base_doc()
        doc["specs"]["phi3"] = "alw[0,10](y <= 1e400)"
        with pytest.raises(ParseError, match=re.escape(
                "spec 'phi3': number 1e400 is not finite (line 1, column 16)")) as caught:
            load_benchmark(json.dumps(doc))
        assert (caught.value.line, caught.value.column) == (1, 16)

    def test_spec_parse_error_survives_pickle_and_copy(self):
        doc = self.base_doc()
        doc["specs"]["phi3"] = "alw[0,10](y <= 1e400)"
        with pytest.raises(ParseError) as caught:
            load_benchmark(json.dumps(doc))
        for clone in (pickle.loads(pickle.dumps(caught.value)), copy.copy(caught.value)):
            assert type(clone) is ParseError
            assert str(clone) == "spec 'phi3': number 1e400 is not finite (line 1, column 16)"
            assert (clone.line, clone.column) == (1, 16)

    def test_spec_horizon_exceeding_benchmark_rejected(self):
        doc = self.base_doc()
        doc["specs"]["phi"] = "alw[0,20](y <= 1)"
        with pytest.raises(ValueError, match="horizon"):
            load_benchmark(json.dumps(doc))

    def test_spec_reading_unknown_channel_rejected(self):
        doc = self.base_doc()
        doc["specs"]["phi"] = "alw[0,10](z <= 0.85)"
        with pytest.raises(ValueError, match="unknown channel.*'z'"):
            load_benchmark(json.dumps(doc))

    def test_spec_may_read_inputs_and_outputs(self):
        doc = self.base_doc()
        doc["specs"]["phi"] = "alw[0,10](y - u <= 1)"
        assert set(load_benchmark(json.dumps(doc)).specs) == {"phi"}

    def test_horizon_not_a_whole_number_of_steps_rejected(self):
        doc = self.base_doc()
        doc["dt"] = 0.3
        with pytest.raises(ValueError, match="whole number"):
            load_benchmark(json.dumps(doc))

    def test_misspelt_model_param_rejected(self):
        doc = self.base_doc()
        doc["model"]["params"] = {"K": 1.0, "tua": 2.0}
        with pytest.raises(ValueError, match="'tua'"):
            load_benchmark(json.dumps(doc))

    def test_static_param_the_model_does_not_read_rejected(self):
        doc = self.base_doc()
        doc["static_params"] = [{"name": "y_int", "min": -1.0, "max": 1.0, "default": 0.0}]
        with pytest.raises(ValueError, match="'y_int'"):
            load_benchmark(json.dumps(doc))
        doc["static_params"][0]["name"] = "y_init"
        assert load_benchmark(json.dumps(doc)).static_params[0].name == "y_init"

    def test_inputs_not_a_list_rejected(self):
        doc = self.base_doc()
        doc["inputs"] = 5
        with pytest.raises(ValueError, match="'inputs' must be a JSON array"):
            load_benchmark(json.dumps(doc))

    def test_model_params_not_an_object_rejected(self):
        doc = self.base_doc()
        doc["model"]["params"] = [1]
        with pytest.raises(ValueError, match="model: 'params' must be a JSON object"):
            load_benchmark(json.dumps(doc))

    def test_static_param_entry_not_an_object_rejected(self):
        doc = self.base_doc()
        doc["static_params"] = [3]
        with pytest.raises(ValueError, match="static param entry must be a JSON object"):
            load_benchmark(json.dumps(doc))

    def test_duplicate_static_param_rejected(self):
        doc = self.base_doc()
        entry = {"name": "y_init", "min": -1.0, "max": 1.0, "default": 0.0}
        doc["static_params"] = [entry, {**entry, "max": 0.5}]
        with pytest.raises(ValueError, match="static param names must be unique"):
            load_benchmark(json.dumps(doc))

    @pytest.mark.parametrize("change, field", [
        ({"horizon": None}, "'horizon'"),
        ({"dt": [0.1]}, "'dt'"),
        ({"horizon": math.inf}, "'horizon'"),
        ({"inputs": [{"name": "u", "min": None, "max": 1.0}]}, "input 'u' 'min'"),
        ({"inputs": [{"name": "u", "min": 0.0, "max": math.nan}]}, "input 'u' 'max'"),
        ({"inputs": [{"name": "u", "min": True, "max": 2.0}]}, "input 'u' 'min'"),
        ({"model": {"kind": "first_order_lag", "params": {"K": "abc"}}}, "model param 'K'"),
        ({"model": {"kind": "first_order_lag", "params": {"tau": math.nan}}}, "model param 'tau'"),
        ({"static_params": [{"name": "y_init", "min": None, "max": 1.0, "default": 0.0}]},
         "static param 'y_init' 'min'"),
        ({"static_params": [{"name": "y_init", "min": -1.0, "max": math.inf, "default": 0.0}]},
         "static param 'y_init' 'max'"),
        ({"static_params": [{"name": "y_init", "min": -1.0, "max": 1.0, "default": "x"}]},
         "static param 'y_init' 'default'"),
        ({"model": {"kind": "first_order_lag", "params": {"K": True}}}, "model param 'K'"),
        ({"model": {"kind": "first_order_lag", "params": {"tau": "2"}}}, "model param 'tau'"),
    ])
    def test_number_that_is_not_finite_rejected(self, change, field):
        # json.dumps writes math.inf and math.nan as Infinity and NaN, which
        # json.loads accepts
        doc = {**self.base_doc(), **change}
        with pytest.raises(ValueError, match=re.escape(field) + " must be a finite number"):
            load_benchmark(json.dumps(doc))

    @pytest.mark.parametrize("tau", [0.0, -0.0])
    def test_zero_tau_rejected(self, tau):
        doc = self.base_doc()
        doc["model"]["params"] = {"tau": tau}
        with pytest.raises(ValueError, match="model param 'tau' must be nonzero"):
            load_benchmark(json.dumps(doc))
        doc["model"]["params"] = {"tau": -1.0}  # unstable, but a valid lag
        assert load_benchmark(json.dumps(doc)).model.params["tau"] == -1.0

    @pytest.mark.parametrize("kind, takes, given", [
        ("chasing_cars", 2, 1),  # ran into an IndexError at simulation
        ("switched_system", 2, 1),
        ("switched_system", 2, 3),
        ("delta_sigma", 1, 2),  # the second input was silently ignored
    ])
    def test_input_count_differing_from_the_model_rejected(self, kind, takes, given):
        doc = self.base_doc()
        doc["model"] = {"kind": kind}
        doc["inputs"] = [{"name": f"u{c}", "min": 0.0, "max": 1.0} for c in range(given)]
        doc["specs"] = {"phi": "alw[0,10](u0 <= 1)"}
        with pytest.raises(ValueError, match=re.escape(
                f"model '{kind}' takes {takes} input channel(s), got {given}")):
            load_benchmark(json.dumps(doc))
        doc["inputs"] = [{"name": f"u{c}", "min": 0.0, "max": 1.0} for c in range(takes)]
        assert len(load_benchmark(json.dumps(doc)).inputs) == takes

    def test_model_params_become_floats(self):
        params = ModelSpec("first_order_lag", {"K": 2, "tau": np.float32(0.5)}).params
        assert params == {"K": 2.0, "tau": 0.5}
        assert all(type(v) is float for v in params.values())

    def test_static_default_differing_from_model_param_rejected(self):
        doc = self.base_doc()
        doc["model"]["params"] = {"y_init": 0.5}
        doc["static_params"] = [{"name": "y_init", "min": -1.0, "max": 1.0, "default": 0.9}]
        with pytest.raises(ValueError, match="static param 'y_init' has default 0.9, "
                                             "but model param 'y_init' is 0.5"):
            load_benchmark(json.dumps(doc))
        doc["static_params"][0]["default"] = 0.5
        assert load_benchmark(json.dumps(doc)).static_params[0].default == 0.5

    @pytest.mark.parametrize("horizon, dt", [
        (math.inf, 0.1), (10.0, math.nan), (True, 0.5), ("10", 0.1), (10.0, "0.1")])
    def test_horizon_or_dt_not_finite_rejected(self, horizon, dt):
        with pytest.raises(ValueError, match="horizon and dt must be finite"):
            Benchmark(
                name="x", inputs=(("u", __import__("pulsefalsify").InputRange(0, 1)),),
                horizon=horizon, dt=dt, model=ModelSpec("first_order_lag"),
                spec_texts={"phi": "y > 0"},
            )

    def test_unknown_model_kind(self):
        doc = self.base_doc()
        doc["model"]["kind"] = "quadcopter"
        with pytest.raises(ValueError):
            load_benchmark(json.dumps(doc))

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError):
            Benchmark(
                name="x", inputs=(("u", __import__("pulsefalsify").InputRange(0, 1)),),
                horizon=0.0, dt=0.1, model=ModelSpec("first_order_lag"),
                spec_texts={"phi": "y > 0"},
            )


def rk4_reference(derivative, state, inp, dt):
    k1 = derivative(state, inp)
    k2 = derivative(state + 0.5 * dt * k1, inp)
    k3 = derivative(state + 0.5 * dt * k2, inp)
    k4 = derivative(state + dt * k3, inp)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def loop_reference(model, u, dt, statics):
    """Point-by-point step loops of the four models, on one (channels, n)
    input trace; the batched models must match them bit for bit, except the
    lag and the switched system (see ``assert_agrees_within_rounding``)."""
    n = u.shape[1]
    get = model.params.get  # the reference keeps its own defaults
    if model.kind == "first_order_lag":
        gain, tau = get("K", 1.0), get("tau", 1.0)
        state, out = np.array([statics.get("y_init", 0.0)]), np.empty((1, n))
        out[:, 0] = state
        for k in range(n - 1):
            state = rk4_reference(lambda s, i: (gain * i - s) / tau, state, u[0, k], dt)
            out[:, k + 1] = state
        return out
    if model.kind == "chasing_cars":
        k1, k2, d0 = get("k1", 1.0), get("k2", 2.0), get("d0", 10.0)
        accel, brake = get("accel_gain", 5.0), get("brake_gain", 8.0)

        def deriv(state, inp):
            y, v, d = state[0::2], state[1::2], np.empty_like(state)
            a1 = accel * inp[0] - brake * inp[1]
            if state[1] <= 0.0 and a1 < 0.0:
                a1 = 0.0
            d[0], d[1], d[2::2] = v[0], a1, v[1:]
            d[3::2] = k1 * (y[:-1] - y[1:] - d0) - k2 * v[1:]
            return d

        state = np.zeros(10)
        state[0::2] = np.array([4.0, 3.0, 2.0, 1.0, 0.0]) * d0
        out = np.empty((5, n))
        out[:, 0] = state[0::2]
        for k in range(n - 1):
            state = rk4_reference(deriv, state, u[:, k], dt)
            if state[1] < 0.0:
                state[1] = 0.0
            out[:, k + 1] = state[0::2]
        return out
    if model.kind == "switched_system":
        a1, a2, bm = (np.array(m) for m in switched_matrices(model))
        gamma = statics.get("thresh", get("thresh", 0.7))
        x = np.array([statics.get("x1_init", 0.0), statics.get("x2_init", 0.0)])
        out = np.empty((2, n))
        out[:, 0] = x
        for k in range(n - 1):
            # the mode is chosen afresh at every RK4 stage
            x = rk4_reference(lambda s, i: (a1 if abs(s[0]) < gamma else a2) @ s + bm @ i,
                              x, u[:, k], dt)
            out[:, k + 1] = x
        return out
    assert model.kind == "delta_sigma"
    b = np.array([get("b1", 0.044), get("b2", 0.287), get("b3", 0.8)])
    x = np.array([statics.get(f"x{j}_init", 0.0) for j in (1, 2, 3)])
    out = np.empty((3, n))
    out[:, 0] = x
    for k in range(n - 1):
        v = 1.0 if x[2] >= 0.0 else -1.0
        x = x + b * (np.array([u[0, k], x[0], x[1]]) - v)
        out[:, k + 1] = x
    return out


def switched_matrices(model):
    """A1, A2 and B of a switched-system model as nested lists, with the
    reference's own defaults."""
    get = model.params.get
    return tuple([[get(f"{m}_11", d[0]), get(f"{m}_12", d[1])],
                  [get(f"{m}_21", d[2]), get(f"{m}_22", d[3])]]
                 for m, d in (("a1", (-0.5, -1.0, 1.0, -0.5)), ("a2", (0.05, -1.0, 1.0, 0.05)),
                              ("b", (1.0, 0.0, 0.0, 1.0))))


def switched_float_loop(model, u, dt, statics):
    """The switched system on one (2, n) input trace, stepped in Python
    floats in this operation order: (a11*x1 + a12*x2) + (b11*u1 + b12*u2)
    for a derivative, x + (0.5*dt)*k for a stage, and
    x + (dt/6)*(k1 + 2*k2 + 2*k3 + k4) for a step."""
    a1, a2, bm = switched_matrices(model)
    gamma = statics.get("thresh", model.params.get("thresh", 0.7))

    def deriv(x, v):
        a = a1 if abs(x[0]) < gamma else a2
        return [(r[0] * x[0] + r[1] * x[1]) + (s[0] * v[0] + s[1] * v[1]) for r, s in zip(a, bm)]

    x = [statics.get("x1_init", 0.0), statics.get("x2_init", 0.0)]
    states = [x]
    for v in u.T[:-1].tolist():
        k1 = deriv(x, v)
        k2 = deriv([a + 0.5 * dt * k for a, k in zip(x, k1)], v)
        k3 = deriv([a + 0.5 * dt * k for a, k in zip(x, k2)], v)
        k4 = deriv([a + dt * k for a, k in zip(x, k3)], v)
        x = [a + dt / 6.0 * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(x, k1, k2, k3, k4)]
        states.append(x)
    return np.array(states).T


def assert_agrees_within_rounding(out, expected):
    # The lag is solved in closed form, not stepped, and the switched system
    # is stepped in floats where the loop's ``a @ x`` may fuse a multiply
    # and an add: both agree with their RK4 step loop to within rounding,
    # 1e-14 relative to the row's largest |x|.
    np.testing.assert_allclose(out, expected, rtol=1e-14, atol=1e-14 * np.abs(expected).max())


def random_block(bench, rows, rng, pieces=6):
    """``rows`` random input traces, constant over ``pieces`` equal pieces of
    the grid and inside each channel's range, with random static values."""
    n = len(bench.grid())
    u = rng.random((rows, len(bench.inputs), pieces))[:, :, np.arange(n) * pieces // n]
    for c, (_, r) in enumerate(bench.inputs):
        u[:, c] = r.lower + u[:, c] * (r.upper - r.lower)
    statics = {
        p.name: p.lower + rng.random(rows) * (p.upper - p.lower) for p in bench.static_params
    }
    return u, statics


Y_INIT = [{"name": "y_init", "min": -2.0, "max": 2.0, "default": 0.0}]


def platoon(params, horizon=100.0, dt=0.5):
    """A chasing-cars benchmark that names all five model params, so that
    ``dict(bench.model.params)`` is the params view its model reads."""
    return load_benchmark(json.dumps({
        "name": "platoon", "horizon": horizon, "dt": dt,
        "inputs": [{"name": "throttle", "min": 0.0, "max": 1.0},
                   {"name": "brake", "min": 0.0, "max": 1.0}],
        "model": {"kind": "chasing_cars", "params": {
            "k1": 1.0, "k2": 2.0, "d0": 10.0, "accel_gain": 5.0, "brake_gain": 8.0, **params}},
        "specs": {"phi1": "alw[0,10](y5 - y4 <= 40)"},
    }))


def platoon_block(bench, rows, rng):
    """``rows`` platoon inputs over thirds of the grid, taking turns: brake
    from rest, then throttle; throttle, then brake hard enough to stop;
    throttle at random levels, never braking."""
    n = len(bench.grid())
    third = n // 3
    u = np.zeros((rows, 2, n))
    for row in range(rows):
        throttle, brake = rng.uniform(0.2, 0.5), rng.uniform(0.6, 1.0)
        if row % 3 == 0:
            u[row, 1, :third], u[row, 0, third:] = brake, throttle
        elif row % 3 == 1:
            u[row, 0, :third], u[row, 1, third : 2 * third] = throttle, brake
        else:
            u[row, 0] = rng.random(6)[np.arange(n) * 6 // n]
    return u


class TestBatchedModels:
    @pytest.mark.parametrize("name", builtin_benchmark_names())
    def test_rows_match_step_loops_bit_for_bit(self, name, rng):
        bench = builtin_benchmark(name)
        rows, n = 8, len(bench.grid())
        u, statics = random_block(bench, rows, rng)
        out = simulate_batch(bench, u, statics)
        assert out.shape == (rows, len(bench.output_names), n)
        for row in range(rows):
            expected = loop_reference(
                bench.model, u[row], bench.dt, {k: v[row] for k, v in statics.items()}
            )
            if bench.model.kind in ("first_order_lag", "switched_system"):
                assert_agrees_within_rounding(out[row], expected)
            else:
                np.testing.assert_array_equal(out[row], expected)

    @pytest.mark.parametrize("name", builtin_benchmark_names())
    def test_row_independent_of_its_block(self, name, rng):
        # Witness replay scores one row alone, so a row of any block must be
        # the same bits as that row simulated alone or in a smaller block.
        # The block is the widest chunk that a lockstep sweep simulates.
        bench = builtin_benchmark(name)
        width = falsification._chunk_rows(bench)
        u, statics = random_block(bench, width, rng, pieces=len(bench.grid()))
        out = simulate_batch(bench, u, statics)
        sample = [0, width - 1, *rng.choice(np.arange(1, width - 1), 6, replace=False)]
        for rows in [slice(row, row + 1) for row in sample] + [slice(20, 25)]:
            part = simulate_batch(bench, u[rows], {k: v[rows] for k, v in statics.items()})
            np.testing.assert_array_equal(out[rows], part)

    @pytest.mark.parametrize("name", ["cc", "lag"])
    def test_widest_chunk_holds_little_beyond_its_outputs(self, name, rng):
        # Besides its outputs, simulating the widest chunk holds at most two
        # input channels' worth of samples at once (the platoon keeps its
        # lead-car command), and no temporary as large as the outputs.
        bench = builtin_benchmark(name)
        u, statics = random_block(bench, falsification._chunk_rows(bench), rng)
        tracemalloc.start()
        try:
            out = simulate_batch(bench, u, statics)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * u[:, 0].nbytes

    @pytest.mark.parametrize("name", ["ss", "ss_08", "ss_09", "non_dyadic"])
    def test_switched_system_matches_float_loop_bit_for_bit(self, name, rng):
        bench = (builtin_benchmark(name) if name != "non_dyadic" else load_benchmark(json.dumps({
            "name": name, "horizon": 20.0, "dt": 0.2,
            "inputs": [{"name": "u1", "min": -1.0, "max": 1.0},
                       {"name": "u2", "min": -1.0, "max": 1.0}],
            "model": {"kind": "switched_system", "params": {
                "a1_11": -0.3, "a1_12": -1.1, "a1_21": 0.9, "a1_22": -0.7,
                "a2_11": 0.07, "a2_12": -1.3, "a2_21": 1.1, "a2_22": 0.03,
                "b_11": 1.3, "b_12": 0.2, "b_21": -0.1, "b_22": 0.9, "thresh": 0.6}},
            "specs": {"phi1": "alw[0,20](x1 <= 2.0)"},
            "static_params": [{"name": "thresh", "min": 0.5, "max": 0.9, "default": 0.6},
                              {"name": "x1_init", "min": -0.3, "max": 0.3, "default": 0.0}],
        })))
        rows, n = 8, len(bench.grid())
        u, statics = random_block(bench, rows, rng)
        # (1, -1) or (-1, 1) over the first third drives |x1| past thresh
        u[:, :, : n // 3] = rng.choice([-1.0, 1.0], (rows, 1, 1)) * np.array([[1.0], [-1.0]])
        out = simulate_batch(bench, u, statics)
        assert np.all(np.abs(out[:, 0]).max(axis=1) >= statics["thresh"])
        for row in range(rows):
            row_statics = {k: float(v[row]) for k, v in statics.items()}
            np.testing.assert_array_equal(
                out[row], switched_float_loop(bench.model, u[row], bench.dt, row_statics))

    @pytest.mark.parametrize("params, horizon, statics", [
        ({"tau": 1.0}, 1000.0, []),  # 10,001 steps
        ({"tau": 0.0625}, 10.0, []),  # dt/tau = 1.6: q near its least, 0.27
        ({"K": 2.5, "tau": 0.7}, 10.0, Y_INIT),
        ({"tau": -1.0}, 10.0, Y_INIT),  # q > 1: y grows e^10-fold
    ])
    def test_lag_agrees_with_step_loop_on_edge_configs(self, params, horizon, statics, rng):
        bench = load_benchmark(json.dumps({
            "name": "lag", "horizon": horizon, "dt": 0.1,
            "inputs": [{"name": "u", "min": 0.0, "max": 1.0}],
            "model": {"kind": "first_order_lag", "params": params},
            "specs": {"phi": "alw[0,10](y <= 2)"},
            "static_params": statics,
        }))
        rows = 3
        u, values = random_block(bench, rows, rng, pieces=len(bench.grid()))
        out = simulate_batch(bench, u, values)
        for row in range(rows):
            row_statics = {k: v[row] for k, v in values.items()}
            assert_agrees_within_rounding(
                out[row], loop_reference(bench.model, u[row], bench.dt, row_statics))

    @pytest.mark.parametrize("name", ["cc", "non_dyadic"])
    def test_platoon_forms_agree_bit_for_bit(self, name, rng):
        bench = builtin_benchmark("cc") if name == "cc" else platoon(
            {"k1": 0.37, "k2": 1.13, "d0": 7.3, "accel_gain": 4.1, "brake_gain": 9.7},
            horizon=60.0, dt=0.3)
        p = dict(bench.model.params)
        assert len(p) == 5
        third = len(bench.grid()) // 3
        u = platoon_block(bench, _CC_FLOAT_ROWS + 1, rng)
        floats = _chasing_cars_floats(p, u, bench.dt)
        np.testing.assert_array_equal(_chasing_cars_numpy(p, u, bench.dt), floats)
        lead = floats[:, 0]
        assert np.all(lead[0::3, :third] == lead[0::3, :1])  # braking at rest
        assert np.all(lead[1::3, third] > lead[1::3, third - 1])  # braking while moving
        assert np.all(lead[1::3, 2 * third - 1] == lead[1::3, 2 * third - 2])  # until at rest
        for row in range(3):
            np.testing.assert_array_equal(
                floats[row], loop_reference(bench.model, u[row], bench.dt, {}))
        # simulate_batch takes the numpy form from _CC_FLOAT_ROWS rows on
        for rows in (_CC_FLOAT_ROWS - 1, _CC_FLOAT_ROWS, _CC_FLOAT_ROWS + 1):
            block = simulate_batch(bench, u[:rows])
            np.testing.assert_array_equal(block, floats[:rows])
            for row in range(rows):
                alone = simulate_batch(bench, u[row : row + 1])
                np.testing.assert_array_equal(block[row], alone[0])

    def test_platoon_forms_agree_where_the_state_turns_non_finite(self):
        # k1 = 400 makes the followers' RK4 steps unstable at dt = 0.5: a
        # lead car that moves drives their state past the largest float; one
        # held at rest by braking leaves the platoon at rest
        bench = platoon({"k1": 400.0})
        levels = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.0)]  # throttle, brake
        u = np.array(levels)[:, :, None] * np.ones(len(bench.grid()))
        p = dict(bench.model.params)
        with np.errstate(all="ignore"):
            floats = _chasing_cars_floats(p, u, bench.dt)
            np.testing.assert_array_equal(_chasing_cars_numpy(p, u, bench.dt), floats)
        finite = np.isfinite(floats).all(axis=(1, 2))
        assert finite.tolist() == [True, False, True, True, False]
        # pulses with low = high, per channel: throttle, then brake
        points = np.array([[t, t, b, b] for t, b in levels])
        space = build_param_space(bench, FreeMask.from_label("L-H"))
        objective = batch_objective(bench, "phi1", space)
        assert len(points) < _CC_FLOAT_ROWS <= 4 * len(points)
        for copies in (1, 4):  # the float form, then the numpy form
            scores = objective(np.tile(points, (copies, 1)))
            assert np.array_equal(scores == math.inf, ~np.tile(finite, copies))
            assert np.all(np.isfinite(scores[np.tile(finite, copies)]))

    def test_platoon_lead_car_at_rest_under_braking(self):
        # full brake from rest, then throttle: exercises the rest clamp rows
        bench = builtin_benchmark("cc")
        n = len(bench.grid())
        u = np.zeros((2, 2, n))
        u[0, 1, : n // 2] = 1.0
        u[0, 0, n // 2 :] = 1.0
        u[1, 0] = 0.3
        out = simulate_batch(bench, u)
        for row in range(2):
            np.testing.assert_array_equal(out[row], loop_reference(bench.model, u[row], bench.dt, {}))

    @pytest.mark.parametrize("params", [{}, {"d0": 7.3}, {"d0": -10.0}])
    def test_resting_platoon_steps_equal_the_step_loop(self, params):
        # The float form copies a step when the last one left the platoon
        # unchanged and the command has the same bits.  Rows: at rest under
        # commands 0 and -3, alternating every step and then in runs of
        # steps; braking from rest, then throttle; throttle, then braking to
        # a stop; at rest throughout.  d0 < 0 starts y5 at -0.0.
        bench = platoon(params, horizon=60.0, dt=0.5)
        n = len(bench.grid())
        u = np.zeros((5, 2, n))
        u[0, :, 1::2] = 1.0  # throttle and brake together: 5 - 8 = -3
        u[1, :, (np.arange(n) // 7) % 2 == 1] = 1.0
        u[2, 1, : n // 3], u[2, 0, n // 3 :] = 1.0, 0.4
        u[3, 0, : n // 4], u[3, 1, n // 4 :] = 0.6, 1.0
        out = simulate_batch(bench, u)
        assert len(u) < _CC_FLOAT_ROWS  # the float form
        assert_same_bits(out, _chasing_cars_numpy(dict(bench.model.params), u, bench.dt))
        for row in range(len(u)):
            assert_same_bits(out[row], loop_reference(bench.model, u[row], bench.dt, {}))
        lead = out[:, 0]
        assert np.all(lead[:2] == lead[:2, :1]) and np.all(lead[4] == lead[4, 0])
        assert lead[2, -1] > lead[2, n // 3]  # the throttle moved the rested car
        assert lead[3, -1] == lead[3, -2] > lead[3, 0]  # braked to a stop
        assert np.signbit(out[:, 4, 0]).tolist() == [params.get("d0", 10.0) < 0] * len(u)

    def test_resting_platoon_steps_where_the_state_turns_non_finite(self):
        # k1 = 400: rows whose lead car moves overflow, and one held at rest
        # by braking copies its resting steps
        bench = platoon({"k1": 400.0})
        levels = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.0)]  # throttle, brake
        u = np.array(levels)[:, :, None] * np.ones(len(bench.grid()))
        with np.errstate(all="ignore"):
            out = simulate_batch(bench, u)
            for row in range(len(u)):
                expected = loop_reference(bench.model, u[row], bench.dt, {})
                finite = np.isfinite(expected)
                assert np.array_equal(np.isfinite(out[row]), finite)
                assert_same_bits(out[row][finite], expected[finite])
        assert np.isfinite(out).all(axis=(1, 2)).tolist() == [True, False, True, True, False]

    def test_modulator_forms_agree_bit_for_bit(self, rng):
        bench = builtin_benchmark("dsm")
        n, rows = len(bench.grid()), _DSM_FLOAT_ROWS + 1
        u, statics = random_block(bench, rows, rng, pieces=n)
        statics["x3_init"][:3] = -0.0, 0.0, -0.0  # sign(-0.0) is +1 too
        statics["x1_init"][2] = -0.0
        p = {**dict(bench.model.params), **statics}
        floats = _delta_sigma_floats(p, u, bench.dt)
        assert_same_bits(_delta_sigma_numpy(p, u, bench.dt), floats)
        # simulate_batch takes the numpy form from _DSM_FLOAT_ROWS rows on
        for width in (_DSM_FLOAT_ROWS - 1, _DSM_FLOAT_ROWS, _DSM_FLOAT_ROWS + 1):
            block = simulate_batch(bench, u[:width], {k: v[:width] for k, v in statics.items()})
            assert_same_bits(block, floats[:width])
            for row in range(width):
                alone = simulate_batch(bench, u[row : row + 1],
                                       {k: v[row : row + 1] for k, v in statics.items()})
                assert_same_bits(block[row], alone[0])
                # the reference keeps an initial -0.0, which the model makes 0.0
                np.testing.assert_array_equal(block[row], loop_reference(
                    bench.model, u[row], bench.dt, {k: v[row] for k, v in statics.items()}))
        zeros = floats[[0, 1, 2, 2], [2, 2, 2, 0], 0]  # the initial -0.0s and 0.0
        assert np.all(zeros == 0.0) and not np.signbit(zeros).any()

    def test_times_built_once_and_read_only(self):
        bench = builtin_benchmark("cc")
        assert bench.times is bench.times and not bench.times.flags.writeable
        np.testing.assert_array_equal(bench.times, bench.grid())
        grid = bench.grid()
        grid[0] = 1.0  # a fresh array each call
        assert bench.grid()[0] == 0.0
        lower, upper = bench.input_bounds
        assert lower.tolist() == [[0.0], [0.0]] and upper.tolist() == [[1.0], [1.0]]
        assert not (lower.flags.writeable or upper.flags.writeable)

    @pytest.mark.parametrize("name", builtin_benchmark_names())
    def test_pickle_keeps_caches_read_only(self, name):
        bench = builtin_benchmark(name)
        bench.times, bench.input_bounds  # cached before pickling
        copy = pickle.loads(pickle.dumps(bench))
        assert copy == bench
        arrays = (copy.times, *copy.input_bounds)
        assert not any(a.flags.writeable for a in arrays)
        np.testing.assert_array_equal(copy.times, bench.times)


def assert_same_bits(out, expected):
    """``out`` equals ``expected`` bit for bit: ``assert_array_equal`` alone
    takes -0.0 for 0.0."""
    assert out.shape == expected.shape and out.tobytes() == expected.tobytes()
