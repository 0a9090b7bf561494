import json
import math
import re

import numpy as np
import pytest

from pulsefalsify.signals import Signal
from pulsefalsify.systems import (
    Benchmark,
    ModelSpec,
    SimulationError,
    builtin_benchmark,
    builtin_benchmark_names,
    _rk4,
    load_benchmark,
    simulate,
    simulate_batch,
)


def constant_inputs(benchmark, values):
    grid = benchmark.grid()
    channels = tuple(np.full(len(grid), v) for v in values)
    return Signal(times=grid, channels=channels, channel_names=benchmark.input_names)


class TestRk4Step:
    def test_zero_derivative(self):
        state = np.array([3.0, -1.0])
        out = _rk4(lambda s, u: np.zeros_like(s), 0.1)(state, np.zeros(1))
        np.testing.assert_array_equal(out, state)

    def test_constant_derivative_exact(self):
        out = _rk4(lambda s, u: np.ones_like(s), 0.1)(np.array([0.0]), np.zeros(1))
        assert out[0] == pytest.approx(0.1, abs=1e-15)

    def test_exponential_accuracy(self):
        out = _rk4(lambda s, u: s, 0.1)(np.array([1.0]), np.zeros(1))
        assert out[0] == pytest.approx(math.exp(0.1), abs=1e-7)


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


class TestLoadBenchmark:
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

    @pytest.mark.parametrize("horizon, dt", [(math.inf, 0.1), (10.0, math.nan)])
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
    lag's closed form (see ``assert_lag_agrees``)."""
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
        a1, a2, bm = (np.array([[get(f"{m}_11", d[0]), get(f"{m}_12", d[1])],
                                [get(f"{m}_21", d[2]), get(f"{m}_22", d[3])]])
                      for m, d in (("a1", (-0.5, -1.0, 1.0, -0.5)), ("a2", (0.05, -1.0, 1.0, 0.05)),
                                   ("b", (1.0, 0.0, 0.0, 1.0))))
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


def assert_lag_agrees(out, expected):
    # The lag is solved in closed form, not stepped: it agrees with its RK4
    # step loop to within rounding, 1e-14 relative to the row's largest |y|.
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
            if bench.model.kind == "first_order_lag":
                assert_lag_agrees(out[row], expected)
            else:
                np.testing.assert_array_equal(out[row], expected)

    @pytest.mark.parametrize("name", builtin_benchmark_names())
    def test_row_independent_of_its_block(self, name, rng):
        # Witness replay scores one row alone, so a row of any block must be
        # the same bits as that row simulated alone or in a smaller block.
        bench = builtin_benchmark(name)
        u, statics = random_block(bench, 64, rng, pieces=len(bench.grid()))
        out = simulate_batch(bench, u, statics)
        for rows in [slice(row, row + 1) for row in range(64)] + [slice(20, 25)]:
            part = simulate_batch(bench, u[rows], {k: v[rows] for k, v in statics.items()})
            np.testing.assert_array_equal(out[rows], part)

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
            assert_lag_agrees(out[row], loop_reference(bench.model, u[row], bench.dt, row_statics))

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
