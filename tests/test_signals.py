import re

import numpy as np
import pytest

from pulsefalsify.signals import (
    InputRange,
    PulseParams,
    Signal,
    denormalize,
    synthesize_pulse,
    uniform_grid,
)


class TestInputRange:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            InputRange(1.0, 1.0)
        with pytest.raises(ValueError):
            InputRange(2.0, -1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            InputRange(0.0, float("inf"))

    def test_rejects_a_width_that_overflows(self):
        # Both bounds are finite, but upper - lower is inf: every pulse level
        # would be NaN, and every evaluation would score +inf.
        with pytest.raises(ValueError, match=r"width upper - lower overflows, got \[-1e\+308"):
            InputRange(-1e308, 1e308)

    @pytest.mark.parametrize("lower, upper, message", [
        (True, 2.0, "input range lower must be a finite number, got True"),
        (0.0, "2", "input range upper must be a finite number, got '2'"),
        (0.0, np.bool_(True), "input range upper must be a finite number, got"),
    ])
    def test_rejects_a_bound_that_is_not_a_number(self, lower, upper, message):
        # float() takes each of these, and True < 2.0 holds
        with pytest.raises(ValueError, match=re.escape(message)):
            InputRange(lower, upper)


class TestPulseParams:
    def test_bounds(self):
        with pytest.raises(ValueError):
            PulseParams(low_n=-0.1, period_n=0.5, width_n=0.5, high_n=1.0, delay_n=0.0)
        with pytest.raises(ValueError):
            PulseParams(low_n=0.0, period_n=2.5, width_n=0.5, high_n=1.0, delay_n=0.0)

    @pytest.mark.parametrize("field", ["low_n", "period_n", "width_n", "high_n", "delay_n"])
    @pytest.mark.parametrize("value", ["0.5", True, None, float("nan")])
    def test_field_that_is_not_a_finite_number_rejected(self, field, value):
        fields = {"low_n": 0.0, "period_n": 0.5, "width_n": 0.5, "high_n": 1.0, "delay_n": 0.0}
        with pytest.raises(ValueError, match=re.escape(
                f"{field} must be a finite number, got {value!r}")):
            PulseParams(**{**fields, field: value})

    def test_period_extends_to_two(self):
        p = PulseParams(low_n=0.0, period_n=2.0, width_n=0.5, high_n=1.0, delay_n=0.0)
        assert p.period_n == 2.0


class TestDenormalize:
    def test_brake_range_example(self):
        p = PulseParams(low_n=0.0, period_n=0.5, width_n=0.5, high_n=1.0, delay_n=0.0)
        phys = denormalize(p, InputRange(0.0, 325.0), 10.0)
        assert phys.period == 5.0
        assert phys.width == 2.5
        assert phys.delay == 0.0
        assert phys.low == 0.0
        assert phys.high == 325.0

    def test_all_zero(self):
        p = PulseParams(low_n=0.0, period_n=0.0, width_n=0.0, high_n=0.0, delay_n=0.0)
        phys = denormalize(p, InputRange(0.0, 1.0), 10.0)
        assert (phys.period, phys.width, phys.delay, phys.low, phys.high) == (0, 0, 0, 0, 0)

    def test_all_one(self):
        p = PulseParams(low_n=1.0, period_n=1.0, width_n=1.0, high_n=1.0, delay_n=1.0)
        phys = denormalize(p, InputRange(-1.0, 1.0), 5.0)
        assert phys.period == 5.0
        assert phys.width == 5.0
        assert phys.delay == 5.0
        # low reaches the upper bound, so high = low + 1 * (upper - low) = low
        assert phys.low == 1.0
        assert phys.high == 1.0

    def test_rejects_bad_horizon(self):
        p = PulseParams(low_n=0.0, period_n=0.5, width_n=0.5, high_n=1.0, delay_n=0.0)
        with pytest.raises(ValueError):
            denormalize(p, InputRange(0.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            denormalize(p, InputRange(0.0, 1.0), float("nan"))
        with pytest.raises(ValueError, match="horizon must be a finite number, got '10'"):
            denormalize(p, InputRange(0.0, 1.0), "10")


class TestUniformGrid:
    def test_grid_reaches_the_horizon(self):
        np.testing.assert_array_equal(uniform_grid(1.0, 0.25), [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("dt", [2.0, 0.0, -0.1])
    def test_dt_outside_the_horizon_rejected(self, dt):
        with pytest.raises(ValueError, match=re.escape(
                f"dt must satisfy 0 < dt <= horizon, got dt={dt}")):
            uniform_grid(1.0, dt)


class TestSynthesizePulse:
    def test_single_step_shape(self):
        # period' = 2 with a delay makes one rising step at delay = 3 s
        p = PulseParams(low_n=0.0, period_n=2.0, width_n=0.5, high_n=1.0, delay_n=0.3)
        sig = synthesize_pulse(p, InputRange(0.0, 1.0), 10.0, 0.1)
        values = sig.channels[0]
        before = values[sig.times < 3.0 - 1e-12]
        after = values[sig.times >= 3.0 - 1e-12]
        assert np.all(before == 0.0)
        assert np.all(after == 1.0)

    def test_full_delay_is_constant_low(self):
        p = PulseParams(low_n=0.25, period_n=0.5, width_n=0.5, high_n=1.0, delay_n=1.0)
        sig = synthesize_pulse(p, InputRange(0.0, 2.0), 10.0, 0.5)
        assert np.all(sig.channels[0] == 0.5)

    def test_degenerate_period_is_constant_low(self):
        p = PulseParams(low_n=0.5, period_n=0.0, width_n=0.0, high_n=0.0, delay_n=0.0)
        sig = synthesize_pulse(p, InputRange(0.0, 2.0), 1.0, 0.5)
        assert np.all(sig.channels[0] == 1.0)

    def test_periodic_square_wave(self):
        # period 2 s, width 1 s, dt 0.5: high-high-low-low repeating
        p = PulseParams(low_n=0.0, period_n=0.2, width_n=0.5, high_n=1.0, delay_n=0.0)
        sig = synthesize_pulse(p, InputRange(0.0, 1.0), 10.0, 0.5)
        expected = np.tile([1.0, 1.0, 0.0, 0.0], 6)[:21]
        np.testing.assert_array_equal(sig.channels[0], expected)

    def test_determinism(self):
        p = PulseParams(low_n=0.3, period_n=0.7, width_n=0.4, high_n=0.9, delay_n=0.2)
        a = synthesize_pulse(p, InputRange(-2.0, 3.0), 7.0, 0.07)
        b = synthesize_pulse(p, InputRange(-2.0, 3.0), 7.0, 0.07)
        np.testing.assert_array_equal(a.channels[0], b.channels[0])

    def test_range_containment_random(self, rng):
        for _ in range(500):
            params = PulseParams(
                low_n=rng.random(), period_n=2 * rng.random(), width_n=rng.random(),
                high_n=rng.random(), delay_n=rng.random(),
            )
            lo, hi = sorted(rng.normal(0, 10, 2))
            if hi - lo < 1e-6:
                continue
            horizon = float(rng.uniform(0.5, 50))
            sig = synthesize_pulse(params, InputRange(lo, hi), horizon, horizon / 25)
            v = sig.channels[0]
            assert v.min() >= lo - 1e-12 and v.max() <= hi + 1e-12

    def test_low_never_exceeds_high(self, rng):
        for _ in range(200):
            params = PulseParams(
                low_n=rng.random(), period_n=rng.random(), width_n=rng.random(),
                high_n=rng.random(), delay_n=rng.random(),
            )
            lo, hi = -3.0, 4.0
            phys = denormalize(params, InputRange(lo, hi), 5.0)
            assert phys.low <= phys.high + 1e-12


class TestSignalInvariants:
    def test_rejects_nonuniform_grid(self):
        with pytest.raises(ValueError):
            Signal(np.array([0.0, 0.1, 0.3]), (np.zeros(3),), ("x",))

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            Signal(np.array([0.5, 1.0, 1.5]), (np.zeros(3),), ("x",))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            Signal(np.array([0.0, 0.5]), (np.zeros(2), np.zeros(2)), ("x", "x"))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Signal(np.array([0.0, 0.5]), (np.zeros(3),), ("x",))

    def test_immutable_arrays(self):
        sig = Signal(np.array([0.0, 0.5]), (np.zeros(2),), ("x",))
        with pytest.raises(ValueError):
            sig.channels[0][0] = 5.0

    def test_the_callers_arrays_stay_writable(self):
        t = np.arange(5) * 0.1
        x = np.zeros(5)
        sig = Signal(times=t, channels=(x,), channel_names=("x",))
        x[0] = 1.0
        t[0] = 0.5
        assert sig.channels[0][0] == 0.0
        assert sig.times[0] == 0.0

    @pytest.mark.parametrize("strided", [False, True])
    def test_the_signal_owns_read_only_copies(self, strided):
        data = np.column_stack([np.arange(5) * 0.1, np.ones(5), np.full(5, 2.0)])
        if not strided:  # a loaded trace gives strided column views
            data = np.ascontiguousarray(data.T).T
        times, columns = data[:, 0], (data[:, 1], data[:, 2])
        assert times.flags.c_contiguous != strided
        sig = Signal(times=times, channels=columns, channel_names=("a", "b"))
        for own, given in zip((sig.times, *sig.channels), (times, *columns)):
            assert own is not given
            assert not np.shares_memory(own, data)
            assert not own.flags.writeable
            assert own.flags.c_contiguous
            np.testing.assert_array_equal(own, given)

    @pytest.mark.parametrize("times, channels, names, message", [
        ([0.5, 1.0, 1.5], (np.zeros(3),), ("x",), "grid must start at 0, got 0.5"),
        ([0.0, 0.5, 0.5], (np.zeros(3),), ("x",), "times must be strictly increasing"),
        ([0.0, 0.5, 0.25], (np.zeros(3),), ("x",), "times must be strictly increasing"),
        ([0.0, 0.1, 0.3], (np.zeros(3),), ("x",), "times must form a uniform grid"),
        ([0.0, 0.5], (np.zeros(3),), ("x",), "channel 'x' length does not match times"),
        ([0.0, 0.5], (np.zeros(2), np.zeros(2)), ("x", "x"),
         "channel names must be unique, got ('x', 'x')"),
        ([0.0, 0.5], (np.zeros(2),), ("x", "y"), "channel_names count must match channels"),
        ([0.0], (np.zeros(1),), ("x",), "times must be a 1-D grid with at least 2 instants"),
    ])
    def test_each_rejection_keeps_its_message(self, times, channels, names, message):
        with pytest.raises(ValueError) as info:
            Signal(np.array(times), channels, names)
        assert str(info.value) == message

    @pytest.mark.parametrize("dt", [0.1, 1.0, 1e-3, 1e-12, 1e-15, 1e300])
    @pytest.mark.parametrize("nudge", [0.5, 0.999, 1.0, 1.001, 2.0])
    def test_the_grid_check_agrees_with_allclose(self, dt, nudge):
        # a step off by nudge times the tolerance of np.allclose(rtol=1e-9, atol=1e-12)
        for k in range(1, 4):
            times = np.arange(5) * dt
            times[k:] += nudge * (1e-12 + 1e-9 * dt)
            steps = np.diff(times)
            expected = np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12)
            assert self._accepts(times) == expected, (dt, nudge, k)

    @pytest.mark.parametrize("times", [
        [0.0, np.inf], [0.0, 1.0, np.inf], [0.0, np.nan], [0.0, np.nan, 2.0],
        [0.0, 1.0, np.nan], [0.0, 1.0, 2.0, np.nan],
    ])
    def test_the_grid_check_agrees_with_allclose_on_nan_and_inf(self, times):
        times = np.array(times)
        steps = np.diff(times)
        expected = np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12)
        assert self._accepts(times) == expected

    @staticmethod
    def _accepts(times) -> bool:
        try:
            Signal(times, (np.zeros(len(times)),), ("x",))
        except ValueError as exc:
            assert str(exc) == "times must form a uniform grid"
            return False
        return True
