import numpy as np
import pytest

from pulsefalsify.signals import (
    InputRange,
    PulseParams,
    Signal,
    denormalize,
    sample_at,
    synthesize_pulse,
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


class TestPulseParams:
    def test_bounds(self):
        with pytest.raises(ValueError):
            PulseParams(low_n=-0.1, period_n=0.5, width_n=0.5, high_n=1.0, delay_n=0.0)
        with pytest.raises(ValueError):
            PulseParams(low_n=0.0, period_n=2.5, width_n=0.5, high_n=1.0, delay_n=0.0)

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


class TestSampleAt:
    def make(self):
        return Signal(
            times=np.array([0.0, 0.5, 1.0]),
            channels=(np.array([0.0, 1.0, 1.0]),),
            channel_names=("x",),
        )

    def test_zero_order_hold(self):
        assert sample_at(self.make(), 0.6) == (1.0,)

    def test_at_origin(self):
        assert sample_at(self.make(), 0.0) == (0.0,)

    def test_beyond_horizon(self):
        with pytest.raises(ValueError):
            sample_at(self.make(), 1.5)


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
