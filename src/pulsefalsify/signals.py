"""Piecewise-constant signals and pulse-train synthesis.

A pulse train is described by five normalized parameters (low, period,
width, high, delay), each scaled against the input range and the time
horizon to obtain a physical square wave.  Signals live on a uniform time
grid and are sampled with zero-order hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

__all__ = [
    "Signal",
    "InputRange",
    "PulseParams",
    "PhysicalPulse",
    "denormalize",
    "scale_pulse",
    "pulse_values",
    "synthesize_pulse",
    "uniform_grid",
]

# Relative tolerance used when snapping the pulse phase at period/width
# boundaries, so grid points landing exactly on an analytic transition are
# classified deterministically.
_PHASE_TOL = 1e-9


def _finite(value, where: str) -> float:
    """``value`` as a finite float, else a ValueError naming ``where``.  A bool
    or a string is not a number here, though ``float()`` takes both."""
    try:
        number = math.nan if isinstance(value, (bool, np.bool_, str, bytes)) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{where} must be a finite number, got {value!r}")
    return number


def _check_range(where: str, lower, upper) -> None:
    """A ValueError naming ``where`` unless ``lower`` and ``upper`` are finite
    numbers with lower < upper, whose width upper - lower is finite too."""
    _finite(lower, f"{where} lower")
    _finite(upper, f"{where} upper")
    if not lower < upper:
        raise ValueError(f"{where} requires lower < upper, got [{lower}, {upper}]")
    if not math.isfinite(upper - lower):  # else every value scaled into it is NaN
        raise ValueError(f"{where} width upper - lower overflows, got [{lower}, {upper}]")


def _check_unique(names, what: str) -> None:
    if len(set(names)) != len(names):
        raise ValueError(f"{what} names must be unique, got {names}")


@dataclass(frozen=True)
class InputRange:
    """Closed physical range [lower, upper] of one input channel."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        _check_range("input range", self.lower, self.upper)


@dataclass(frozen=True)
class PulseParams:
    """Normalized pulse-generator parameters.

    All parameters live in [0, 1] except ``period_n`` which may extend to
    [0, 2]; the search space narrows the period to [0, 1] when the delay is
    also free (see ``falsification.build_param_space``).
    """

    low_n: float
    period_n: float
    width_n: float
    high_n: float
    delay_n: float

    def __post_init__(self) -> None:
        for field in fields(self):
            value, top = getattr(self, field.name), 2 if field.name == "period_n" else 1
            if not 0.0 <= _finite(value, field.name) <= top:
                raise ValueError(f"{field.name} must be in [0, {top}], got {value}")


class PhysicalPulse(NamedTuple):
    """Denormalized pulse description in physical units and seconds: floats,
    or equally shaped arrays describing many pulses."""

    period: float
    width: float
    delay: float
    low: float
    high: float


def denormalize(params: PulseParams, rng: InputRange, horizon: float) -> PhysicalPulse:
    """Scale normalized pulse parameters onto physical units.

    period = period_n * horizon, width = width_n * period,
    delay = delay_n * horizon, low = lower + low_n * (upper - lower),
    high = low + high_n * (upper - low).
    """
    if _finite(horizon, "horizon") <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return scale_pulse(params.low_n, params.period_n, params.width_n, params.high_n,
                       params.delay_n, rng.lower, rng.upper, horizon)


def scale_pulse(low_n, period_n, width_n, high_n, delay_n, lower, upper,
                horizon) -> PhysicalPulse:
    """The arithmetic of :func:`denormalize`, without its checks, on floats
    or on arrays of pulses (``lower`` and ``upper`` broadcast against them)."""
    period = period_n * horizon
    width = width_n * period
    delay = delay_n * horizon
    low = lower + low_n * (upper - lower)
    high = low + high_n * (upper - low)
    return PhysicalPulse(period, width, delay, low, high)


def _grid_steps(horizon: float, dt: float) -> int:
    """The number of dt steps of :func:`uniform_grid` to the horizon; a
    ValueError unless 0 < dt <= horizon."""
    if not (0 < dt <= horizon):
        raise ValueError(f"dt must satisfy 0 < dt <= horizon, got dt={dt}")
    return int(round(horizon / dt))


def uniform_grid(horizon: float, dt: float) -> np.ndarray:
    """Uniform grid {0, dt, 2*dt, ..., horizon}."""
    return np.arange(_grid_steps(horizon, dt) + 1, dtype=float) * dt


def pulse_values(period, width, delay, low, high, horizon: float, times) -> np.ndarray:
    """Evaluate physical pulses on a 1-D grid of time instants.

    The signal holds ``low`` before the delay; afterwards each period opens
    with a ``high`` segment of the given width.  A zero period, or a delay
    reaching the horizon, collapses the pulse to constant ``low``.  The five
    fields are floats, or equally shaped arrays describing many pulses; the
    result has their shape plus a trailing time axis.
    """
    period, width, delay, low, high = (
        np.asarray(v, dtype=float)[..., None] for v in (period, width, delay, low, high)
    )
    times = np.asarray(times, dtype=float)
    tol = _PHASE_TOL * np.maximum(period, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.mod(times - delay, period)
    # Snap phases landing just short of a period boundary back to zero.
    tau = np.where(period - tau <= tol, 0.0, tau)
    in_width = (tau < width - tol) | ((tau <= tol) & (width > 0))
    pulsing = (period > 0.0) & (delay < horizon)
    return np.where(pulsing & (times >= delay) & in_width, high, low)


@dataclass(frozen=True)
class Signal:
    """Multi-channel piecewise-constant time series on a uniform grid.

    It holds read-only copies of the arrays it is given, so the caller's
    arrays stay writable and later writes to them do not reach the signal.
    """

    times: np.ndarray
    channels: tuple[np.ndarray, ...]
    channel_names: tuple[str, ...]

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float)
        channels = tuple(np.array(c, dtype=float) for c in self.channels)
        names = tuple(self.channel_names)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("times must be a 1-D grid with at least 2 instants")
        if times[0] != 0.0:
            raise ValueError(f"grid must start at 0, got {times[0]}")
        steps = times[1:] - times[:-1]
        if (steps <= 0).any():
            raise ValueError("times must be strictly increasing")
        # np.allclose(steps, dt, rtol=1e-9, atol=1e-12), written out: every
        # step within the tolerance of the first, or all steps equal to it
        # (which only an infinite first step needs).  Python floats, so
        # inf - inf is a quiet nan.
        dt, lo, hi = float(steps[0]), float(steps.min()), float(steps.max())
        tol = 1e-12 + 1e-9 * abs(dt)
        if not (hi - dt <= tol and dt - lo <= tol or lo == hi == dt):
            raise ValueError("times must form a uniform grid")
        if len(names) != len(channels):
            raise ValueError("channel_names count must match channels")
        _check_unique(names, "channel")
        for name, c in zip(names, channels):
            if c.ndim != 1 or len(c) != len(times):
                raise ValueError(f"channel {name!r} length does not match times")
        times.flags.writeable = False
        for c in channels:
            c.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "channel_names", names)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def channel(self, name: str) -> np.ndarray:
        try:
            return self.channels[self.channel_names.index(name)]
        except ValueError:
            raise KeyError(f"no channel named {name!r}; have {self.channel_names}")


def synthesize_pulse(
    params: PulseParams,
    rng: InputRange,
    horizon: float,
    dt: float,
    name: str = "u",
) -> Signal:
    """Synthesize a single-channel pulse-train signal on a uniform grid."""
    pulse = denormalize(params, rng, horizon)
    times = uniform_grid(horizon, dt)
    values = pulse_values(*pulse, horizon, times)
    return Signal(times=times, channels=(values,), channel_names=(name,))
