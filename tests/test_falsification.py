import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from pulsefalsify import falsification, stl
from pulsefalsify.falsification import (
    FIXED_DEFAULTS,
    PARAM_LETTERS,
    FreeMask,
    Witness,
    batch_objective,
    build_param_space,
    decode,
    decode_batch,
    evaluate_witness,
    falsify,
    score_blocks,
    synthesize_batch,
)
from pulsefalsify.harness import SWEEP_MASK_LABELS
from pulsefalsify.optimizers import OptimizerConfig, turbo_lite_minimize
from pulsefalsify.signals import PulseParams, Signal, synthesize_pulse
from pulsefalsify.systems import (
    SimulationError,
    StaticParam,
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

    @pytest.mark.parametrize("label, message", [
        ("LP", "unknown pulse parameter 'LP' in mask 'LP'"),
        ("PW", "unknown pulse parameter 'PW' in mask 'PW'"),
        ("LPWHD", "unknown pulse parameter 'LPWHD' in mask 'LPWHD'"),
        ("X", "unknown pulse parameter 'X' in mask 'X'"),
        ("L-X", "unknown pulse parameter 'X' in mask 'L-X'"),
        ("-", "empty mask label '-'"),
    ])
    def test_label_rejected_with_its_message(self, label, message):
        # a mask is a set of single letters: "LP" is not one of them
        with pytest.raises(ValueError) as info:
            FreeMask.from_label(label)
        assert str(info.value) == message

    def test_every_shuffled_lower_case_label_comes_back_canonical(self, rng):
        labels = set()
        for size in range(1, 6):
            for combo in itertools.combinations("LPWHD", size):
                letters = list(combo)
                rng.shuffle(letters)
                mask = FreeMask.from_label("-".join(letters).lower())
                assert mask.label == "-".join(combo)
                assert mask.params == set(combo)
                labels.add(mask.label)
        assert len(labels) == 31

    @pytest.mark.parametrize("params", [{"X"}, {"l"}, {"LP"}, {"L", "D", "Q"}])
    def test_unknown_letter_rejected_at_construction(self, params):
        with pytest.raises(ValueError, match="unknown pulse parameter"):
            FreeMask(frozenset(params))


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
        period = with_delay.names.index("u.P")
        assert with_delay.lower[period] + with_delay.widths[period] == 1.0
        without_delay = build_param_space(lag, FreeMask.from_label("P"))
        period = without_delay.names.index("u.P")
        assert without_delay.lower[period] + without_delay.widths[period] == 2.0

    def test_coordinate_order(self):
        space = build_param_space(builtin_benchmark("cc"), FreeMask.from_label("W-L-P"))
        assert list(space.names) == ["throttle.L", "throttle.P", "throttle.W",
                                     "brake.L", "brake.P", "brake.W"]

    @pytest.mark.parametrize("label, names, channels, fields", [
        ("W", ["throttle.W", "brake.W"], [0, 1], [2, 2]),
        ("P-D", ["throttle.P", "throttle.D", "brake.P", "brake.D"], [0, 0, 1, 1], [1, 4, 1, 4]),
        ("L-P-W-H-D",
         ["throttle.L", "throttle.P", "throttle.W", "throttle.H", "throttle.D",
          "brake.L", "brake.P", "brake.W", "brake.H", "brake.D"],
         [0, 0, 0, 0, 0, 1, 1, 1, 1, 1], [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]),
    ])
    def test_cc_coordinates_match_the_table(self, label, names, channels, fields):
        space = build_param_space(builtin_benchmark("cc"), FreeMask.from_label(label))
        assert list(space.names) == names
        assert space.channels.tolist() == channels
        assert space.fields.tolist() == fields

    def test_static_params_appended(self):
        dsm = builtin_benchmark("dsm")
        space = build_param_space(dsm, FreeMask.from_label("W", include_static_params=True))
        assert space.dimension == 1 + 3
        assert list(space.names[1:]) == ["x1_init", "x2_init", "x3_init"]
        assert space.lower[1] == -0.1 and space.lower[1] + space.widths[1] == 0.1

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            build_param_space(builtin_benchmark("lag"), FreeMask(frozenset()))


def documented_decode(bench, label, include_static, point):
    """Per-channel L-P-W-H-D fields and static values of ``point``, by the
    documented rule: per channel the masked fields in L-P-W-H-D order, the
    period spanning [0, 1] when the delay is free and [0, 2] otherwise,
    the unmasked fields at 0/0.5/0.5/1/0, then the statics in declaration
    order."""
    letters = label.split("-")
    period_upper = 1.0 if "D" in letters else 2.0
    values = iter(point.tolist())
    pulses = {}
    for channel in bench.input_names:
        fields = dict(zip("LPWHD", (0.0, 0.5, 0.5, 1.0, 0.0)))
        for letter in "LPWHD":
            if letter in letters:
                fields[letter] = next(values) * (period_upper if letter == "P" else 1.0)
        pulses[channel] = PulseParams(*fields.values())
    statics = {}
    for p in bench.static_params if include_static else ():
        statics[p.name] = p.lower + next(values) * (p.upper - p.lower)
    assert next(values, None) is None
    return pulses, statics


class TestDecode:
    def test_pulse_param_letters_follow_pulse_params_fields(self):
        assert PARAM_LETTERS == ("L", "P", "W", "H", "D")
        assert [f.name for f in dataclasses.fields(PulseParams)] == [
            "low_n", "period_n", "width_n", "high_n", "delay_n"]

    @pytest.mark.parametrize("include_static", [False, True])
    @pytest.mark.parametrize("label", SWEEP_MASK_LABELS)
    @pytest.mark.parametrize("name", builtin_benchmark_names())
    def test_decode_follows_documented_rule(self, name, label, include_static):
        bench = builtin_benchmark(name)
        space = build_param_space(bench, FreeMask.from_label(label, include_static))
        dim = space.dimension
        points = np.array([np.zeros(dim), np.ones(dim),
                           np.random.default_rng(dim).random(dim)])
        fields, statics = decode_batch(points, space)
        for row, point in enumerate(points):
            pulses, static_values = documented_decode(bench, label, include_static, point)
            assert decode(point, space) == (pulses, static_values)
            for i, channel in enumerate(bench.input_names):
                assert fields[i, :, row].tolist() == list(dataclasses.astuple(pulses[channel]))
            assert list(statics) == list(static_values)
            assert [v[row] for v in statics.values()] == list(static_values.values())

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
        for points in (np.zeros((2, 3)), np.zeros(1)):
            with pytest.raises(ValueError, match=re.escape(
                    f"expected points of dimension 1, got shape {points.shape}")):
                decode_batch(points, space)

    def test_decoded_static_stays_in_its_range(self):
        # lower + 1.0 * (upper - lower) rounds past upper for about one in
        # five ranges with two decimals; 1 - 2**-53 must not either
        rng = np.random.default_rng(0)
        dsm = builtin_benchmark("dsm")
        top = np.nextafter(1.0, 0.0)
        points = np.array([[0.5, 1.0, 1.0, 1.0], [0.5, top, top, top]])
        for _ in range(40):
            bounds = np.sort(np.round(rng.normal(0.0, 1.0, (3, 2)), 2), axis=1)
            statics = tuple(StaticParam(f"x{i + 1}_init", lower, upper + 0.01, lower)
                            for i, (lower, upper) in enumerate(bounds.tolist()))
            bench = dataclasses.replace(dsm, static_params=statics)
            _, values = decode_batch(points, build_param_space(bench, FreeMask.from_label(
                "W", include_static_params=True)))
            for p in statics:
                assert ((p.lower <= values[p.name]) & (values[p.name] <= p.upper)).all()

    def test_static_at_its_upper_bound_scores(self):
        # -2.0 + 1.0 * 2.1 is 0.10000000000000009, which simulate_batch rejects
        dsm = builtin_benchmark("dsm")
        bench = dataclasses.replace(dsm, static_params=tuple(
            dataclasses.replace(p, lower=-2.0) for p in dsm.static_params))
        space = build_param_space(bench, FreeMask.from_label("W", include_static_params=True))
        assert decode_batch(np.array([[0.5, 1.0, 0.0, 0.0]]), space)[1]["x1_init"][0] == 0.1
        value = batch_objective(bench, "phi1", space)(np.array([[0.5, 1.0, 0.0, 0.0]]))
        assert math.isfinite(value[0])

    def test_mask_monotonicity_random(self, rng):
        bench = builtin_benchmark("cc")
        for label in ("L", "P-W", "L-H-D"):
            mask = FreeMask.from_label(label)
            space = build_param_space(bench, mask)
            free_fields = {f.name for f in dataclasses.fields(PulseParams)
                           if f.name[0].upper() in mask.params}
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
    """Where the scored blocks end short of the budget: a block holds
    min(used + 1, 64, budget - used) rows."""
    ends, used = set(), 0
    while used < budget:
        used += min(used + 1, 64, budget - used)
        ends.add(used)
    return ends - {budget}


class TestScoreBlocks:
    """One call scores the blocks of several searches, each against its own
    spec; every block must get the values it gets scored alone."""

    @staticmethod
    def switched_system():
        # A2 = [[40, -1], [1, 40]] explodes once |x1| passes 0.7.  Levels in
        # [-0.2, 0.4] keep x1 below that; u1 = 1 with u2 = -1 does not.
        return load_benchmark(json.dumps({
            "name": "ss_div", "horizon": 200.0, "dt": 0.2,
            "inputs": [{"name": "u1", "min": -1.0, "max": 1.0},
                       {"name": "u2", "min": -1.0, "max": 1.0}],
            "model": {"kind": "switched_system", "params": {"a2_11": 40.0, "a2_22": 40.0}},
            "specs": {"A": "alw[0,20](x1 <= 0.25)", "B": "ev[0,30](u1 >= 0.1 and x2 >= -0.1)"},
        }))

    def test_each_block_equals_its_objective_alone(self, rng):
        bench = self.switched_system()
        space = build_param_space(bench, FreeMask.from_label("L-P-W-H-D"))
        specs, sizes = ("A", "B", "A"), (60, 20, 60)
        assert sum(sizes) > falsification._chunk_rows(bench)  # so the rows split into chunks
        points = [rng.random((size, space.dimension)) for size in sizes]
        for block in points:
            block[:, [0, 5]] = 0.4 + 0.2 * block[:, [0, 5]]  # L: low in [-0.2, 0.2]
            block[:, [3, 8]] *= 0.2  # H: high at most 0.2 + 0.2 * 0.8
        points[1][12, [0, 3]] = 1.0  # u1.L, u1.H: u1 held at +1
        points[1][12, [5, 8]] = 0.0  # u2.L, u2.H: u2 held at -1
        values = score_blocks(
            bench, [(spec, *decode_batch(block, space)) for spec, block in zip(specs, points)])
        assert np.flatnonzero(~np.isfinite(values)).tolist() == [60 + 12]
        for spec, block, got in zip(specs, points, np.split(values, np.cumsum(sizes)[:-1])):
            np.testing.assert_array_equal(got, batch_objective(bench, spec, space)(block))
            # B reads an input channel too, so this checks the channels' names
            assert got.tolist() == [reference_value(bench, spec, space, p) for p in block]

    def test_a_step_holds_one_chunk_at_a_time(self, rng):
        # Each chunk's traces are freed before the next is built.  Kept alive
        # while the next chunk was simulated, they made three chunks of cc
        # peak at 1.69 times one chunk.
        bench = builtin_benchmark("cc")
        space = build_param_space(bench, FreeMask.from_label("L-P-W-H-D"))
        rows = falsification._chunk_rows(bench)

        def peak(n):
            blocks = [("phi1", *decode_batch(rng.random((n, space.dimension)), space))]
            tracemalloc.start()
            try:
                score_blocks(bench, blocks)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(rows)  # warm-up
        assert peak(3 * rows) <= 1.1 * peak(rows)

    def test_unknown_spec_raises_though_every_row_diverges(self):
        bench = self.switched_system()
        space = build_param_space(bench, FreeMask.from_label("L-H"))
        diverging = decode_batch(np.array([[1.0, 1.0, 0.0, 0.0]] * 3), space)
        assert np.isinf(score_blocks(bench, [("A", *diverging)])).all()
        with pytest.raises(KeyError):
            score_blocks(bench, [("A", *diverging), ("missing", *diverging)])


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


class TestBlockedTurbo:
    """turbo_lite scores each Latin hypercube in blocks and each pick as a
    block of one; the outcome must be that of scoring the points one at a
    time."""

    def check(self, monkeypatch, bench_name, spec, mask_label, config):
        bench = builtin_benchmark(bench_name)
        mask = FreeMask.from_label(mask_label)
        space = build_param_space(bench, mask)
        sizes = []
        factory = falsification.batch_objective

        def recording_factory(*args, **kwargs):
            objective = factory(*args, **kwargs)

            def recorded(points):
                sizes.append(len(points))
                return objective(points)

            return recorded

        monkeypatch.setattr(falsification, "batch_objective", recording_factory)
        outcome = falsify(bench, spec, mask, config)
        result = turbo_lite_minimize(
            lambda point: reference_value(bench, spec, space, point), space.dimension, config
        )
        assert outcome.history == [rec.value for rec in result.history]
        assert outcome.simulations_used == result.evaluations_used
        assert outcome.best_robustness == result.best.value
        assert outcome.restarts == result.restarts
        if outcome.falsified:
            np.testing.assert_array_equal(outcome.witness.point, result.best.point)
        return outcome, sizes

    @pytest.mark.parametrize("bench_name, spec, seed, sizes", [
        ("lag", "phi1", 0, [1, 2, 4]),
        ("cc", "phi2", 1, [1, 2, 4]),
        ("dsm", "phi1", 5, [1, 2, 4, 3]),
        ("ss", "phi1", 0, [1, 2, 4]),
    ])
    def test_first_negative_inside_a_hypercube_block(self, monkeypatch, bench_name, spec,
                                                     seed, sizes):
        config = OptimizerConfig(kind="turbo_lite", budget=40, seed=seed)
        outcome, recorded = self.check(monkeypatch, bench_name, spec, "L-P-W-H-D", config)
        assert recorded == sizes
        # the negative row is not the last of its block, so the block's
        # later rows were simulated and discarded
        assert outcome.falsified
        assert sum(sizes[:-1]) < outcome.simulations_used < sum(sizes)

    @pytest.mark.parametrize("bench_name, spec, mask",
                             [("lag", "phi2", "P-W"), ("cc", "phi1", "W")])
    def test_budget_cuts_a_restart_hypercube(self, monkeypatch, bench_name, spec, mask):
        # dim 2: a hypercube of 4 rows, then 15 picks until the trust region
        # collapses; the second hypercube starts at 18 and the budget of 20
        # leaves room for only 2 of its rows
        config = OptimizerConfig(kind="turbo_lite", budget=20, seed=0)
        outcome, sizes = self.check(monkeypatch, bench_name, spec, mask, config)
        assert sizes == [1, 2] + [1] * 15 + [2]
        assert outcome.restarts == 1
        assert not outcome.falsified
        assert outcome.simulations_used == 20

    def test_first_hypercube_blocks_double(self, monkeypatch):
        # dim 10: a hypercube of 20 rows in blocks of 1, 2, 4, 8 and the
        # remaining 5, then one block per pick
        config = OptimizerConfig(kind="turbo_lite", budget=24, seed=0)
        outcome, sizes = self.check(monkeypatch, "cc", "phi1", "L-P-W-H-D", config)
        assert sizes == [1, 2, 4, 8, 5, 1, 1, 1, 1]
        assert outcome.simulations_used == 24
