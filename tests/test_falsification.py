import itertools
import json
import math

import numpy as np
import pytest

from pulsefalsify import stl
from pulsefalsify.falsification import (
    FIXED_DEFAULTS,
    FreeMask,
    PulseParam,
    Witness,
    batch_objective,
    build_param_space,
    decode,
    decode_batch,
    evaluate_witness,
    falsify,
    synthesize_batch,
)
from pulsefalsify.optimizers import _RANDOM_SEARCH_BLOCKS, OptimizerConfig
from pulsefalsify.signals import Signal, synthesize_pulse
from pulsefalsify.systems import (
    SimulationError,
    builtin_benchmark,
    builtin_benchmark_names,
    load_benchmark,
    simulate,
)


def reference_value(bench, spec, space, point, semantics="classic"):
    """Robustness of one point through the scalar, Signal-based API."""
    pulses, statics = decode(point, space)
    channels = tuple(
        synthesize_pulse(pulses[name], rng_, bench.horizon, bench.dt).channels[0]
        for name, rng_ in bench.inputs
    )
    inputs = Signal(bench.grid(), channels, bench.input_names)
    try:
        trace = simulate(bench, inputs, statics)
    except SimulationError:
        return math.inf
    merged = Signal(trace.times, trace.channels + inputs.channels,
                    trace.channel_names + inputs.channel_names)
    return stl.robustness(bench.specs[spec], merged, 0.0, semantics)


class TestFreeMask:
    def test_label_round_trip(self):
        mask = FreeMask.from_label("L-P-W-H-D")
        assert mask.label == "L-P-W-H-D"
        assert FreeMask.from_label("W").label == "W"

    def test_canonical_order(self):
        assert FreeMask.from_label("D-W-L").label == "L-W-D"

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            FreeMask.from_label("L-X")

    def test_empty_label(self):
        with pytest.raises(ValueError):
            FreeMask.from_label("")


class TestBuildParamSpace:
    def test_cc_width_only(self):
        space = build_param_space(builtin_benchmark("cc"), FreeMask.from_label("W"))
        assert space.dimension == 2

    def test_cc_all_params(self):
        space = build_param_space(builtin_benchmark("cc"), FreeMask.from_label("L-P-W-H-D"))
        assert space.dimension == 10

    def test_period_range_coupling(self):
        lag = builtin_benchmark("lag")
        with_delay = build_param_space(lag, FreeMask.from_label("P-D"))
        assert with_delay.dimension == 2
        period = [c for c in with_delay.coords if c.param is PulseParam.PERIOD][0]
        assert period.upper == 1.0
        without_delay = build_param_space(lag, FreeMask.from_label("P"))
        period = [c for c in without_delay.coords if c.param is PulseParam.PERIOD][0]
        assert period.upper == 2.0

    def test_coordinate_order(self):
        space = build_param_space(builtin_benchmark("cc"), FreeMask.from_label("W-L-P"))
        names = [c.name for c in space.coords]
        assert names == ["throttle.L", "throttle.P", "throttle.W",
                         "brake.L", "brake.P", "brake.W"]

    def test_static_params_appended(self):
        dsm = builtin_benchmark("dsm")
        space = build_param_space(dsm, FreeMask.from_label("W", include_static_params=True))
        assert space.dimension == 1 + 3
        assert [c.name for c in space.coords[1:]] == ["x1_init", "x2_init", "x3_init"]
        assert space.coords[1].lower == -0.1 and space.coords[1].upper == 0.1

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            build_param_space(builtin_benchmark("lag"), FreeMask(frozenset()))


class TestDecode:
    def test_period_affine_map(self):
        space = build_param_space(builtin_benchmark("lag"), FreeMask.from_label("P"))
        pulses, statics = decode(np.array([0.5]), space)
        assert pulses["u"].period_n == 1.0
        assert statics == {}

    def test_unmasked_stay_at_defaults(self):
        space = build_param_space(builtin_benchmark("lag"), FreeMask.from_label("L-W"))
        pulses, _ = decode(np.zeros(2), space)
        p = pulses["u"]
        assert (p.low_n, p.width_n) == (0.0, 0.0)
        assert p.period_n == FIXED_DEFAULTS.period_n == 0.5
        assert p.high_n == FIXED_DEFAULTS.high_n == 1.0
        assert p.delay_n == FIXED_DEFAULTS.delay_n == 0.0

    def test_static_value_mapping(self):
        dsm = builtin_benchmark("dsm")
        space = build_param_space(dsm, FreeMask.from_label("W", include_static_params=True))
        _, statics = decode(np.array([0.5, 0.0, 0.5, 1.0]), space)
        assert statics == {"x1_init": -0.1, "x2_init": 0.0, "x3_init": 0.1}

    def test_wrong_dimension(self):
        space = build_param_space(builtin_benchmark("lag"), FreeMask.from_label("W"))
        with pytest.raises(ValueError):
            decode(np.zeros(3), space)

    def test_mask_monotonicity_random(self, rng):
        bench = builtin_benchmark("cc")
        for label in ("L", "P-W", "L-H-D"):
            mask = FreeMask.from_label(label)
            space = build_param_space(bench, mask)
            free_fields = {p.name.lower() + "_n" for p in mask.params}
            for _ in range(20):
                pulses, _ = decode(rng.random(space.dimension), space)
                for p in pulses.values():
                    for field_name in ("low_n", "period_n", "width_n", "high_n", "delay_n"):
                        if field_name not in free_fields:
                            assert getattr(p, field_name) == getattr(FIXED_DEFAULTS, field_name)


class TestFalsify:
    def test_lag_falsified_with_width(self):
        outcome = falsify(
            builtin_benchmark("lag"), "phi1", FreeMask.from_label("W"),
            OptimizerConfig(kind="random_search", budget=100, seed=0),
        )
        assert outcome.falsified
        assert outcome.best_robustness < 0
        assert outcome.witness is not None
        assert outcome.simulations_used <= 100

    def test_unsatisfiable_spec_exhausts_budget(self):
        # lag output stays below 1, so y <= 2 can never be violated
        outcome = falsify(
            builtin_benchmark("lag"), "phi2", FreeMask.from_label("W"),
            OptimizerConfig(kind="random_search", budget=30, seed=0),
        )
        assert not outcome.falsified
        assert outcome.simulations_used == 30
        assert outcome.witness is None

    def test_simulation_count_equals_history(self):
        outcome = falsify(
            builtin_benchmark("lag"), "phi2", FreeMask.from_label("L-W"),
            OptimizerConfig(kind="turbo_lite", budget=25, seed=1),
        )
        assert len(outcome.history) == outcome.simulations_used == 25

    def test_turbo_counters_reach_the_outcome(self):
        bench, mask = builtin_benchmark("lag"), FreeMask.from_label("L-W")
        turbo = falsify(bench, "phi2", mask, OptimizerConfig(kind="turbo_lite", budget=60, seed=1))
        assert not turbo.falsified
        assert turbo.surrogate_fits > 0
        assert 0 <= turbo.degenerate_fits <= turbo.surrogate_fits
        random = falsify(bench, "phi2", mask, OptimizerConfig(kind="random_search", budget=60, seed=1))
        assert (random.restarts, random.surrogate_fits, random.degenerate_fits) == (0, 0, 0)

    def test_witness_reproduces_robustness_bit_exact(self):
        bench = builtin_benchmark("lag")
        outcome = falsify(
            bench, "phi1", FreeMask.from_label("W"),
            OptimizerConfig(kind="random_search", budget=100, seed=3),
        )
        assert outcome.falsified
        replay = evaluate_witness(bench, "phi1", outcome.witness)
        assert replay == outcome.best_robustness
        assert replay < 0

    def test_stop_on_negative(self):
        outcome = falsify(
            builtin_benchmark("lag"), "phi1", FreeMask.from_label("W"),
            OptimizerConfig(kind="random_search", budget=100, seed=0),
        )
        assert all(v >= 0 for v in outcome.history[:-1])
        assert outcome.history[-1] < 0

    def test_unknown_spec(self):
        with pytest.raises(KeyError):
            falsify(
                builtin_benchmark("lag"), "nope", FreeMask.from_label("W"),
                OptimizerConfig(kind="random_search", budget=10, seed=0),
            )

    def test_turbo_budget_precondition(self):
        with pytest.raises(ValueError):
            falsify(
                builtin_benchmark("cc"), "phi1", FreeMask.from_label("L-P-W-H-D"),
                OptimizerConfig(kind="turbo_lite", budget=10, seed=0),
            )

    def test_additive_semantics_agrees_on_verdict(self):
        bench = builtin_benchmark("lag")
        classic = falsify(bench, "phi1", FreeMask.from_label("W"),
                          OptimizerConfig(kind="random_search", budget=50, seed=7), "classic")
        additive = falsify(bench, "phi1", FreeMask.from_label("W"),
                           OptimizerConfig(kind="random_search", budget=50, seed=7), "additive")
        assert classic.falsified == additive.falsified
        assert classic.simulations_used == additive.simulations_used

    def test_static_params_join_search_space(self):
        bench = builtin_benchmark("dsm")
        outcome = falsify(
            bench, "phi1", FreeMask.from_label("W", include_static_params=True),
            OptimizerConfig(kind="random_search", budget=40, seed=2),
        )
        if outcome.falsified:
            assert set(outcome.witness.static_values) == {"x1_init", "x2_init", "x3_init"}


class TestSynthesizeBatch:
    def test_channels_and_grid(self):
        bench = builtin_benchmark("cc")
        space = build_param_space(bench, FreeMask.from_label("W"))
        fields, _ = decode_batch(np.array([[0.3, 0.8]]), space)
        u = synthesize_batch(bench, fields)
        # channels come in input order
        assert bench.input_names == ("throttle", "brake")
        assert u.shape == (1, 2, len(bench.grid()))
        for v, (name, rng_) in zip(u[0], bench.inputs):
            assert v.min() >= rng_.lower and v.max() <= rng_.upper


class TestBatchedEvaluation:
    @pytest.mark.parametrize("name", builtin_benchmark_names())
    def test_block_equals_single_points_on_every_builtin(self, name, rng):
        bench = builtin_benchmark(name)
        mask = FreeMask.from_label("L-P-W-H-D", include_static_params=bool(bench.static_params))
        space = build_param_space(bench, mask)
        spec = sorted(bench.specs)[0]
        objective = batch_objective(bench, spec, space)
        points = rng.random((12, space.dimension))
        values = objective(points)
        assert values.shape == (12,)
        for point, value in zip(points, values):
            assert objective(point[None])[0] == value
            assert reference_value(bench, spec, space, point) == value

    @pytest.mark.parametrize("name", builtin_benchmark_names())
    def test_point_outside_unit_cube_rejected(self, name, rng):
        bench = builtin_benchmark(name)
        mask = FreeMask.from_label("L-P-W-H-D", include_static_params=bool(bench.static_params))
        space = build_param_space(bench, mask)
        objective = batch_objective(bench, sorted(bench.specs)[0], space)
        columns = [0] + ([space.dimension - 1] if bench.static_params else [])
        for column in columns:
            points = rng.random((4, space.dimension))
            points[2, column] = -0.5
            with pytest.raises(ValueError):
                objective(points)
        # the scalar decode rejects the pulse coordinate just the same
        with pytest.raises(ValueError):
            decode(np.r_[-0.5, np.zeros(space.dimension - 1)], space)

    def test_period_above_unit_cube_rejected_when_delay_free(self):
        # the period coordinate spans [0, 1] here, so 1.5 would decode to a
        # period that PulseParams' own [0, 2] limit lets through
        space = build_param_space(builtin_benchmark("lag"), FreeMask.from_label("P-D"))
        with pytest.raises(ValueError, match=r"u\.P"):
            decode(np.array([1.5, 0.0]), space)

    def test_static_above_unit_cube_rejected(self):
        # x1_init would decode to 0.24, outside its native [-0.1, 0.1]
        dsm = builtin_benchmark("dsm")
        space = build_param_space(dsm, FreeMask.from_label("W", include_static_params=True))
        with pytest.raises(ValueError, match="x1_init"):
            decode(np.array([0.5, 1.7, 0.5, 0.5]), space)

    def test_divergent_row_scores_inf_without_touching_others(self):
        # unstable lag (negative tau): any nonzero input blows up, while a
        # pulse with low = high = 0 keeps y at exactly 0
        bench = load_benchmark(json.dumps({
            "name": "bad", "horizon": 2000.0, "dt": 1.0,
            "inputs": [{"name": "u", "min": 0.0, "max": 1.0}],
            "model": {"kind": "first_order_lag", "params": {"tau": -0.1}},
            "specs": {"phi": "alw[0,10](y <= 2)"},
        }))
        space = build_param_space(bench, FreeMask.from_label("L-H"))
        objective = batch_objective(bench, "phi", space)
        points = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.5, 0.0]])
        values = objective(points)
        assert values[1] == values[3] == math.inf
        assert values[0] == values[2] == 2.0
        for point, value in zip(points, values):
            assert objective(point[None])[0] == value
            assert reference_value(bench, "phi", space, point) == value
            # replay scores a diverging witness +inf, as the search does
            pulses, statics = decode(point, space)
            assert evaluate_witness(bench, "phi", Witness(point, pulses, statics)) == value


def block_ends(budget):
    sizes = itertools.chain(_RANDOM_SEARCH_BLOCKS, itertools.repeat(_RANDOM_SEARCH_BLOCKS[-1]))
    ends = itertools.accumulate(sizes)
    return set(itertools.takewhile(lambda end: end < budget, ends))


class TestBlockedRandomSearch:
    """Random search evaluates blocks of points; the outcome must be that of
    drawing and scoring the points one at a time."""

    def reference_search(self, bench, spec, space, config, semantics):
        rng = np.random.default_rng(config.seed)
        points, values = [], []
        while len(values) < config.budget and not (values and values[-1] < 0):
            points.append(rng.random(space.dimension))
            values.append(reference_value(bench, spec, space, points[-1], semantics))
        return points, values

    def check(self, bench_name, spec, mask_label, config, semantics):
        bench = builtin_benchmark(bench_name)
        mask = FreeMask.from_label(mask_label)
        outcome = falsify(bench, spec, mask, config, semantics)
        points, values = self.reference_search(
            bench, spec, build_param_space(bench, mask), config, semantics
        )
        assert outcome.history == values
        assert outcome.simulations_used == len(values)
        best = min(range(len(values)), key=lambda i: (values[i], i))
        assert outcome.best_robustness == values[best]
        if outcome.falsified:
            np.testing.assert_array_equal(outcome.witness.point, points[best])
        return outcome

    def test_first_negative_inside_a_block(self):
        config = OptimizerConfig(kind="random_search", budget=100, seed=3)
        outcome = self.check("cc", "phi2", "L-P-W-H-D", config, "classic")
        assert outcome.falsified
        assert outcome.simulations_used > 1
        assert outcome.simulations_used not in block_ends(config.budget)

    def test_budget_not_a_multiple_of_the_block_size(self):
        config = OptimizerConfig(kind="random_search", budget=45, seed=5)
        assert 45 not in block_ends(10**6)
        outcome = self.check("cc", "phi1", "L-W", config, "additive")
        assert not outcome.falsified
        assert outcome.simulations_used == 45
