"""Benchmark system models and the simulator contract.

A benchmark bundles input channel ranges, the time grid, a model, STL
specifications, and optional static search parameters (e.g. initial
conditions).  Simulation is deterministic: one classical RK4 step per grid
interval with the inputs held over it (the delta-sigma modulator is a
discrete map with one step per grid instant).  The first-order lag's steps
are solved in closed form.  The switched system steps each row in Python
floats, as do the platoon on blocks of fewer than 10 rows and the modulator
on blocks of fewer than 14; the platoon's float form copies a step, rather
than computing it, while the platoon rests under an unchanged command.
Wider blocks of those two are stepped in place across their rows.

The shipped models are desk-scale substitutes for the proprietary ARCH
suite: a first-order lag, a five-car platoon, a third-order delta-sigma
modulator, and a threshold-switched linear system.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Mapping

import numpy as np

from . import stl
from .signals import (InputRange, Signal, _check_range, _check_unique, _finite, _grid_steps,
                      uniform_grid)

__all__ = [
    "Benchmark",
    "ModelSpec",
    "StaticParam",
    "SimulationError",
    "simulate",
    "simulate_batch",
    "load_benchmark",
    "load_benchmark_file",
    "builtin_benchmark",
    "builtin_benchmark_names",
]

class SimulationError(RuntimeError):
    """Simulation failed (e.g. the state became non-finite)."""


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _MODELS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {tuple(_MODELS)}")
        unknown = set(self.params) - set(_MODELS[self.kind][2])
        if unknown:
            raise ValueError(f"model {self.kind!r} has no param(s) {sorted(unknown)}; "
                             f"it has {sorted(_MODELS[self.kind][2])}")
        object.__setattr__(self, "params", {
            name: _finite(value, f"model param {name!r}") for name, value in self.params.items()
        })
        if self.kind == "first_order_lag" and self.params.get("tau") == 0.0:
            raise ValueError("model param 'tau' must be nonzero: the lag divides by it")


@dataclass(frozen=True)
class StaticParam:
    name: str
    lower: float
    upper: float
    default: float

    def __post_init__(self) -> None:
        _check_range(f"static param {self.name!r}:", self.lower, self.upper)
        default = _finite(self.default, f"static param {self.name!r}: default")
        if not self.lower <= default <= self.upper:
            raise ValueError(f"static param {self.name!r}: default outside range")


@dataclass(frozen=True)
class Benchmark:
    name: str
    inputs: tuple[tuple[str, InputRange], ...]
    horizon: float
    dt: float
    model: ModelSpec
    spec_texts: Mapping[str, str]
    static_params: tuple[StaticParam, ...] = ()

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError("benchmark needs at least one input channel")
        try:
            _finite(self.horizon, "horizon"), _finite(self.dt, "dt")
        except ValueError as exc:
            raise ValueError(
                f"horizon and dt must be finite, got {self.horizon!r} and {self.dt!r}") from exc
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        whole, steps = _grid_steps(self.horizon, self.dt), self.horizon / self.dt
        if abs(steps - whole) > 1e-9 * steps:
            raise ValueError(
                f"horizon {self.horizon} s is not a whole number of dt={self.dt} s steps"
            )
        names = [n for n, _ in self.inputs]
        _check_unique(names, "input channel")
        _check_unique([p.name for p in self.static_params], "static param")
        outputs, channels, _, overridable, _ = _MODELS[self.model.kind]
        if len(self.inputs) != channels:
            raise ValueError(f"model {self.model.kind!r} takes {channels} input channel(s), "
                             f"got {len(self.inputs)}")
        unread = [p.name for p in self.static_params if p.name not in overridable]
        if unread:
            raise ValueError(f"model {self.model.kind!r} reads no static param(s) {unread}; "
                             f"it reads {sorted(overridable)}")
        for p in self.static_params:
            if self.model.params.get(p.name, p.default) != p.default:
                raise ValueError(f"static param {p.name!r} has default {p.default}, but model "
                                 f"param {p.name!r} is {self.model.params[p.name]}")
        clash = set(names) & set(outputs)
        if clash:
            raise ValueError(f"input names clash with model outputs: {sorted(clash)}")
        object.__setattr__(self, "spec_texts", dict(self.spec_texts))
        parsed = {}
        for spec_name, text in self.spec_texts.items():
            try:
                formula = stl.parse(text)
                stl._reach(formula, self.dt)  # every window holds a grid instant
            except ValueError as exc:  # a stl.ParseError, too
                exc.args = (f"spec {spec_name!r}: {exc}",)
                raise
            if stl.horizon_of(formula) > self.horizon + 1e-9:
                raise ValueError(
                    f"spec {spec_name!r} has horizon {stl.horizon_of(formula)} s "
                    f"exceeding the benchmark horizon {self.horizon} s"
                )
            unknown = stl.channels_of(formula) - set(names) - set(outputs)
            if unknown:
                raise ValueError(
                    f"spec {spec_name!r} reads unknown channel(s) {sorted(unknown)}; "
                    f"have inputs {names} and outputs {list(outputs)}"
                )
            parsed[spec_name] = formula
        object.__setattr__(self, "specs", parsed)

    specs: Mapping[str, stl.Formula] = field(init=False, repr=False, default=None)

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.inputs)

    @property
    def output_names(self) -> tuple[str, ...]:
        return _MODELS[self.model.kind][0]

    def grid(self) -> np.ndarray:
        return uniform_grid(self.horizon, self.dt)

    def spec(self, name: str) -> stl.Formula:
        """The parsed spec ``name``, else a KeyError naming the specs."""
        if name not in self.specs:
            raise KeyError(f"benchmark {self.name!r} has no spec {name!r}; "
                           f"available: {sorted(self.specs)}")
        return self.specs[name]

    def __reduce__(self):
        """Pickle the init fields only: unpickling validates them again and
        builds the read-only caches anew."""
        return Benchmark, (self.name, self.inputs, self.horizon, self.dt, self.model,
                           self.spec_texts, self.static_params)

    @cached_property
    def times(self) -> np.ndarray:
        """The grid, built once and read-only."""
        times = self.grid()
        times.flags.writeable = False
        return times

    @cached_property
    def input_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The input channels' lower and upper bounds, as read-only
        (channels, 1) arrays."""
        bounds = np.array([[[rng.lower] for _, rng in self.inputs],
                           [[rng.upper] for _, rng in self.inputs]])
        bounds.flags.writeable = False
        return bounds[0], bounds[1]


# ---------------------------------------------------------------------------
# Model dynamics
#
# Each model ``(p, u, dt)`` maps input traces u of shape (B, channels, n)
# onto outputs of shape (B, outputs, n): the lag in closed form; the
# switched system, platoon blocks under ``_CC_FLOAT_ROWS`` rows and
# modulator blocks under ``_DSM_FLOAT_ROWS`` row by row in floats, resting
# platoon steps copied; wider platoon and modulator blocks stepped in place
# in preallocated buffers.
# It reads params only as ``p[name]``: a float, or a (B,) array for a static
# search parameter.  Rows never mix, not even through a matrix product, so
# row b is exactly the simulation of input b alone.  States are (S, B) and
# traces time-major, which keeps the per-step indexing cheap.


_LAG_BLOCK = 32  # steps per block of the lag's closed form


def _lag(p, u: np.ndarray, dt: float) -> np.ndarray:
    # dy/dt = (K*u - y) / tau.  Its RK4 step with the input held is linear,
    # y+ = q*y + g*K*u with g = 1 - q, so from y_s at the start of a block,
    #   y_{s+i} = q^i * (y_s + sum_{j<i} q^-(j+1) * g*K*u_{s+j}):
    # one cumulative sum along time per block, with no sum across rows.
    # Blocks of m steps keep q^-m finite, as q >= 0.27 for every tau.
    # The powers of q come from g, what one RK4 step makes of y = 0 under
    # K*u = 1, worked out stage by stage below; it is accurate to a few ulp,
    # while q rounded near 1 would put a fixed error in the rate, and q^n
    # multiplies it n times.
    tau, half = p["tau"], 0.5 * dt
    k1 = (1.0 - 0.0) / tau
    k2 = (1.0 - (0.0 + half * k1)) / tau
    k3 = (1.0 - (0.0 + half * k2)) / tau
    k4 = (1.0 - (0.0 + dt * k3)) / tau
    g = 0.0 + dt / 6.0 * (k1 + (k2 + k2) + (k3 + k3) + k4)
    log_q = np.log1p(-g)
    # Past dt = 500 |tau|, where q^m nears overflow, take one step per block.
    m = _LAG_BLOCK if log_q * _LAG_BLOCK < 700.0 else 1
    powers = np.exp(log_q * np.arange(1.0, m + 1))
    # One array holds the drive, then its sums, then the trajectory.  Its
    # blocks are taken one by one, as numpy copies a strided 3-d view that a
    # ufunc writes in place; positional ``out`` and ``add.accumulate`` keep
    # the calls cheap.
    rows, n = u.shape[0], u.shape[2]
    blocks = -(-(n - 1) // m)
    y = np.empty((rows, blocks * m + 1))
    y[:, 0] = p["y_init"]
    drive = y[:, 1:]
    np.multiply(g * p["K"], u[:, 0, :-1], drive[:, : n - 1])
    drive[:, n - 1 :] = 0.0  # past the grid: never returned, but not left unset
    for block in range(blocks):
        sums = drive[:, block * m : (block + 1) * m]
        np.divide(sums, powers, sums)
        np.add.accumulate(sums, 1, None, sums)
        np.add(y[:, block * m, None], sums, sums)
        np.multiply(sums, powers, sums)
    return y[:, None, :n]


# Below these many rows, numpy's per-call cost outweighs stepping each row in
# Python floats, so the platoon and the modulator take their float forms
# there.  Both are measured crossovers: a modulator row costs about 38 us in
# floats, and a call of its numpy form about 510 us at 10 to 16 rows.
_CC_FLOAT_ROWS = 10
_DSM_FLOAT_ROWS = 14

# A float state's bytes, which tell 0.0 from -0.0 where ``==`` does not.
_STATE_BYTES = struct.Struct("10d").pack


def _chasing_cars(p, u: np.ndarray, dt: float) -> np.ndarray:
    # Lead car: dy1 = v1, dv1 = accel_gain*throttle - brake_gain*brake, but
    # not below 0 at rest; v1 clamped at 0.  Follower i: dv_i = k1*(y_{i-1} -
    # y_i - d0) - k2*v_i.  Both forms below give the same bits.
    form = _chasing_cars_floats if len(u) < _CC_FLOAT_ROWS else _chasing_cars_numpy
    return form(p, u, dt)


def _chasing_cars_numpy(p, u: np.ndarray, dt: float) -> np.ndarray:
    # RK4 stepped in place, in the float form's order of operations: every
    # buffer and view is made once per call, and each step only computes
    # into them.  0-d arrays, as numpy converts a Python float on every call.
    k1, k2, d0, zero, half, full, sixth = (
        np.asarray(v) for v in (p["k1"], p["k2"], p["d0"], 0.0, 0.5 * dt, dt, dt / 6.0))
    command = np.ascontiguousarray((p["accel_gain"] * u[:, 0] - p["brake_gain"] * u[:, 1]).T)
    braking = command < 0.0  # the lead car cannot reverse: braking at rest gives 0
    n, rows = command.shape
    out = np.empty((n, 5, rows))
    # Per RK4 stage, by rows: positions y1..y5, velocities v1..v5 and
    # accelerations a1..a5.  The stage's state is rows 0-9 and its
    # derivative rows 5-14, so the positions' rates are never copied.
    # Stage 0 holds the current state.
    stages = np.zeros((4, 15, rows))
    state, (d1, d2, d3, d4) = stages[0, :10], stages[:, 5:]
    lead, positions = state[5], state[:5]
    positions[...] = (np.array([4.0, 3.0, 2.0, 1.0, 0.0]) * d0)[:, None]
    out[0] = positions
    gap, damping, mask = np.empty((4, rows)), np.empty((4, rows)), np.empty(rows, dtype=bool)
    # (lead velocity, positions ahead, positions behind, follower velocities,
    # lead acceleration, follower accelerations) of each stage
    parts = [(x[5], x[:4], x[1:5], x[6:10], x[10], x[11:]) for x in stages]
    # (derivative of the stage before, its step, the stage's state and parts)
    later = [(stages[i - 1, 5:], h, stages[i, :10], parts[i])
             for i, h in ((1, half), (2, half), (3, full))]

    def deriv(part, lead_command, lead_braking):
        v1, ahead, behind, followers, a1, accels = part
        np.less_equal(v1, zero, mask)
        np.logical_and(mask, lead_braking, mask)
        a1[...] = lead_command
        np.copyto(a1, zero, where=mask)
        np.subtract(ahead, behind, gap)
        np.subtract(gap, d0, gap)
        np.multiply(k1, gap, gap)
        np.multiply(k2, followers, damping)
        np.subtract(gap, damping, accels)

    for lead_command, lead_braking, step_out in zip(command[:-1], braking[:-1], out[1:]):
        deriv(parts[0], lead_command, lead_braking)
        for d, h, x, part in later:
            np.multiply(h, d, x)
            np.add(state, x, x)
            deriv(part, lead_command, lead_braking)
        # state + sixth * (d1 + (d2 + d2) + (d3 + d3) + d4), summed in d2,
        # as d1 holds the state's velocities; k + k is exactly 2.0 * k.
        np.add(d2, d2, d2)
        np.add(d1, d2, d2)
        np.add(d3, d3, d3)
        np.add(d2, d3, d2)
        np.add(d2, d4, d2)
        np.multiply(sixth, d2, d2)
        np.add(state, d2, state)
        np.less(lead, zero, mask)
        np.copyto(lead, zero, where=mask)
        step_out[...] = positions
    return out.transpose(2, 1, 0)


def _chasing_cars_floats(p, u: np.ndarray, dt: float) -> np.ndarray:
    # Row by row in Python floats, in the numpy form's order of operations;
    # the RK4 stages hold positions y/q/r/s, velocities v/w/x/z, accels a/b/c/e.
    # A step depends only on the state and the command, so a step is copied,
    # not computed, when the step before left the state unchanged bit for bit
    # and the command has the same bits: a platoon at rest stays at rest.
    k1, k2, d0, half, sixth = p["k1"], p["k2"], p["d0"], 0.5 * dt, dt / 6.0
    init = tuple(c * d0 for c in (4.0, 3.0, 2.0, 1.0, 0.0))
    rows, n = u.shape[0], u.shape[2]
    out = np.empty((rows, 5, n))
    commands = p["accel_gain"] * u[:, 0] - p["brake_gain"] * u[:, 1]
    bits = commands.view(np.int64)
    changes = (bits[:, 1:] != bits[:, :-1]).tolist()  # [row][k]: command k+1 is not command k
    for row, (command, changed) in enumerate(zip(commands.tolist(), changes)):
        state, trace, held = init + (0.0,) * 5, list(init), False
        for lead, differs in zip(command, changed):
            if not held:
                y1, y2, y3, y4, y5, v1, v2, v3, v4, v5 = state
                a1 = 0.0 if lead < 0.0 and v1 <= 0.0 else lead
                a2, a3 = k1 * (y1 - y2 - d0) - k2 * v2, k1 * (y2 - y3 - d0) - k2 * v3
                a4, a5 = k1 * (y3 - y4 - d0) - k2 * v4, k1 * (y4 - y5 - d0) - k2 * v5
                q1, q2, q3, q4, q5, w1, w2, w3, w4, w5 = (
                    y1 + half * v1, y2 + half * v2, y3 + half * v3, y4 + half * v4, y5 + half * v5,
                    v1 + half * a1, v2 + half * a2, v3 + half * a3, v4 + half * a4, v5 + half * a5)
                b1 = 0.0 if lead < 0.0 and w1 <= 0.0 else lead
                b2, b3 = k1 * (q1 - q2 - d0) - k2 * w2, k1 * (q2 - q3 - d0) - k2 * w3
                b4, b5 = k1 * (q3 - q4 - d0) - k2 * w4, k1 * (q4 - q5 - d0) - k2 * w5
                r1, r2, r3, r4, r5, x1, x2, x3, x4, x5 = (
                    y1 + half * w1, y2 + half * w2, y3 + half * w3, y4 + half * w4, y5 + half * w5,
                    v1 + half * b1, v2 + half * b2, v3 + half * b3, v4 + half * b4, v5 + half * b5)
                c1 = 0.0 if lead < 0.0 and x1 <= 0.0 else lead
                c2, c3 = k1 * (r1 - r2 - d0) - k2 * x2, k1 * (r2 - r3 - d0) - k2 * x3
                c4, c5 = k1 * (r3 - r4 - d0) - k2 * x4, k1 * (r4 - r5 - d0) - k2 * x5
                s1, s2, s3, s4, s5, z1, z2, z3, z4, z5 = (
                    y1 + dt * x1, y2 + dt * x2, y3 + dt * x3, y4 + dt * x4, y5 + dt * x5,
                    v1 + dt * c1, v2 + dt * c2, v3 + dt * c3, v4 + dt * c4, v5 + dt * c5)
                e1 = 0.0 if lead < 0.0 and z1 <= 0.0 else lead
                e2, e3 = k1 * (s1 - s2 - d0) - k2 * z2, k1 * (s2 - s3 - d0) - k2 * z3
                e4, e5 = k1 * (s3 - s4 - d0) - k2 * z4, k1 * (s4 - s5 - d0) - k2 * z5
                lead_v = v1 + sixth * (a1 + (b1 + b1) + (c1 + c1) + e1)
                new = (y1 + sixth * (v1 + (w1 + w1) + (x1 + x1) + z1),
                       y2 + sixth * (v2 + (w2 + w2) + (x2 + x2) + z2),
                       y3 + sixth * (v3 + (w3 + w3) + (x3 + x3) + z3),
                       y4 + sixth * (v4 + (w4 + w4) + (x4 + x4) + z4),
                       y5 + sixth * (v5 + (w5 + w5) + (x5 + x5) + z5),
                       0.0 if lead_v < 0.0 else lead_v,
                       v2 + sixth * (a2 + (b2 + b2) + (c2 + c2) + e2),
                       v3 + sixth * (a3 + (b3 + b3) + (c3 + c3) + e3),
                       v4 + sixth * (a4 + (b4 + b4) + (c4 + c4) + e4),
                       v5 + sixth * (a5 + (b5 + b5) + (c5 + c5) + e5))
                # Each float of ``new`` is a fresh result or the constant 0.0,
                # so ``==`` passes no NaN by identity.
                held = new == state and _STATE_BYTES(*new) == _STATE_BYTES(*state)
                state, positions = new, new[:5]
            trace += positions
            held = held and not differs
        out[row] = np.array(trace).reshape(n, 5).T
    return out


def _delta_sigma(p, u: np.ndarray, dt: float) -> np.ndarray:
    # Discrete integrator chain x_j += b_j * (in_j - v), v = sign(x3),
    # sign(0) = +1; one step per grid instant.  Both forms below give the
    # same bits.
    form = _delta_sigma_floats if len(u) < _DSM_FLOAT_ROWS else _delta_sigma_numpy
    return form(p, u, dt)


def _delta_sigma_initial(p, rows: int) -> np.ndarray:
    # + 0.0 turns -0.0 into 0.0; a sum is -0.0 only if both terms are, so
    # x3 is never -0.0 below and copysign gives sign(0) = +1.
    state = np.empty((3, rows))
    for j, name in enumerate(("x1_init", "x2_init", "x3_init")):
        state[j] = p[name] + 0.0
    return state


def _delta_sigma_numpy(p, u: np.ndarray, dt: float) -> np.ndarray:
    # Stepped across the rows, each step's state written in place into the
    # output: (n, 3, B), time-major.
    b = np.array([[p["b1"]], [p["b2"]], [p["b3"]]])
    inputs = np.ascontiguousarray(u[:, 0].T)
    out = np.empty((len(inputs), 3, u.shape[0]))
    out[0] = _delta_sigma_initial(p, u.shape[0])
    work = np.empty((3, u.shape[0]))  # (u_k, x1_k, x2_k) for every batch row
    one = np.asarray(1.0)
    for inp, x, following in zip(inputs[:-1], out[:-1], out[1:]):
        work[0], work[1:] = inp, x[:2]
        np.add(x, b * (work - np.copysign(one, x[2])), following)
    return out.transpose(2, 1, 0)


def _delta_sigma_floats(p, u: np.ndarray, dt: float) -> np.ndarray:
    # Row by row in Python floats, in the numpy form's order of operations.
    b1, b2, b3 = p["b1"], p["b2"], p["b3"]
    rows, n = u.shape[0], u.shape[2]
    out = np.empty((rows, 3, n))
    for row, ((x1, x2, x3), inputs) in enumerate(
            zip(_delta_sigma_initial(p, rows).T.tolist(), u[:, 0].tolist())):
        trace = [x1, x2, x3]
        for inp in inputs[:-1]:
            v = math.copysign(1.0, x3)
            x1, x2, x3 = x1 + b1 * (inp - v), x2 + b2 * (x1 - v), x3 + b3 * (x2 - v)
            trace += (x1, x2, x3)
        out[row] = np.array(trace).reshape(n, 3).T
    return out


def _switched_system(p, u: np.ndarray, dt: float) -> np.ndarray:
    # dx = A1 x + B u while |x1| < gamma, else A2 x + B u.  A1 is a stable
    # spiral, A2 a slowly expanding one.  With two states, numpy's per-call
    # cost would be most of a step, so each row is stepped in Python floats:
    # RK4 with the input held, the mode chosen afresh at every stage.
    # -gamma < x1 < gamma is |x1| < gamma for every float, NaN included.
    a1, a2, (b11, b12, b21, b22) = (
        tuple(p[f"{m}_{ij}"] for ij in ("11", "12", "21", "22")) for m in ("a1", "a2", "b"))
    half, sixth = 0.5 * dt, dt / 6.0
    rows = u.shape[0]
    out = np.empty((rows, 2, u.shape[2]))
    thresh, x1_init, x2_init = (np.broadcast_to(p[name], (rows,)).tolist()
                                for name in ("thresh", "x1_init", "x2_init"))
    for row, gamma in enumerate(thresh):
        low, x1, x2 = -gamma, x1_init[row], x2_init[row]
        trace = [x1, x2]
        u1, u2 = u[row].tolist()
        for v1, v2 in zip(u1[:-1], u2[:-1]):
            c1, c2 = b11 * v1 + b12 * v2, b21 * v1 + b22 * v2
            m11, m12, m21, m22 = a1 if low < x1 < gamma else a2
            k11, k12 = (m11 * x1 + m12 * x2) + c1, (m21 * x1 + m22 * x2) + c2
            s1, s2 = x1 + half * k11, x2 + half * k12
            m11, m12, m21, m22 = a1 if low < s1 < gamma else a2
            k21, k22 = (m11 * s1 + m12 * s2) + c1, (m21 * s1 + m22 * s2) + c2
            s1, s2 = x1 + half * k21, x2 + half * k22
            m11, m12, m21, m22 = a1 if low < s1 < gamma else a2
            k31, k32 = (m11 * s1 + m12 * s2) + c1, (m21 * s1 + m22 * s2) + c2
            s1, s2 = x1 + dt * k31, x2 + dt * k32
            m11, m12, m21, m22 = a1 if low < s1 < gamma else a2
            k41, k42 = (m11 * s1 + m12 * s2) + c1, (m21 * s1 + m22 * s2) + c2
            x1 = x1 + sixth * (k11 + (k21 + k21) + (k31 + k31) + k41)
            x2 = x2 + sixth * (k12 + (k22 + k22) + (k32 + k32) + k42)
            trace += (x1, x2)
        out[row] = np.array(trace).reshape(-1, 2).T
    return out


# Per model kind: its outputs and its number of input channels, its params
# with their defaults, the params that a static search parameter of the same
# name overrides, and its dynamics.
_MODELS = {
    "first_order_lag": (("y",), 1, {"K": 1.0, "tau": 1.0, "y_init": 0.0}, {"y_init"}, _lag),
    "chasing_cars": (
        ("y1", "y2", "y3", "y4", "y5"), 2,
        {"k1": 1.0, "k2": 2.0, "d0": 10.0, "accel_gain": 5.0, "brake_gain": 8.0},
        set(),
        _chasing_cars,
    ),
    "delta_sigma": (
        ("x1", "x2", "x3"), 1,
        {"b1": 0.044, "b2": 0.287, "b3": 0.8, "x1_init": 0.0, "x2_init": 0.0, "x3_init": 0.0},
        {"x1_init", "x2_init", "x3_init"},
        _delta_sigma,
    ),
    "switched_system": (
        ("x1", "x2"), 2,
        {"a1_11": -0.5, "a1_12": -1.0, "a1_21": 1.0, "a1_22": -0.5,
         "a2_11": 0.05, "a2_12": -1.0, "a2_21": 1.0, "a2_22": 0.05,
         "b_11": 1.0, "b_12": 0.0, "b_21": 0.0, "b_22": 1.0,
         "thresh": 0.7, "x1_init": 0.0, "x2_init": 0.0},
        {"thresh", "x1_init", "x2_init"},
        _switched_system,
    ),
}


def simulate_batch(
    benchmark: Benchmark,
    u: np.ndarray,
    static_values: Mapping[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Run the benchmark model on a batch of input traces.

    ``u`` has shape (B, channels, n) with channels in ``input_names`` order
    on the benchmark grid; ``static_values`` maps static parameter names to
    (B,) arrays.  Returns outputs of shape (B, outputs, n) in
    ``output_names`` order.  A row whose state became non-finite is
    returned as is; callers check ``np.isfinite`` per row.  Raises
    ``ValueError`` for unknown static parameters or values outside their
    declared ranges.
    """
    _, _, defaults, _, dynamics = _MODELS[benchmark.model.kind]
    declared = {s.name: s for s in benchmark.static_params}
    # The params view; each source overrides the ones before it.
    p = {**defaults, **benchmark.model.params,
         **{name: s.default for name, s in declared.items()}}
    for name, values in (static_values or {}).items():
        if name not in declared:
            raise ValueError(f"unknown static parameter {name!r}")
        s = declared[name]
        values = np.asarray(values)
        if values.dtype.kind not in "iuf":  # astype(float) takes a bool or a numeric string
            raise ValueError(f"static parameter {name!r} takes integer or float values, "
                             f"got dtype {values.dtype}")
        values = values.astype(float, copy=False)
        bad = ~((s.lower <= values) & (values <= s.upper))
        if np.any(bad):
            raise ValueError(
                f"static parameter {name!r}={values[bad][0]} outside [{s.lower}, {s.upper}]"
            )
        p[name] = values
    with np.errstate(all="ignore"):
        return dynamics(p, u, benchmark.dt)


def simulate(
    benchmark: Benchmark,
    inputs: Signal,
    static_values: Mapping[str, float] | None = None,
) -> Signal:
    """Run the benchmark model on the given input signal.

    Returns the output trace on the same grid as the input.  Raises
    ``SimulationError`` if the state becomes non-finite, and ``ValueError``
    for missing channels or static values outside their declared ranges.
    """
    grid = benchmark.times
    if len(inputs.times) != len(grid) or not np.allclose(inputs.times, grid, rtol=0, atol=1e-9):
        raise ValueError("input signal grid does not match the benchmark grid")
    u = np.stack([inputs.channel(name) for name in benchmark.input_names])
    statics = {name: np.array([_finite(v, f"static parameter {name!r}")])
               for name, v in (static_values or {}).items()}
    out = simulate_batch(benchmark, u[None], statics)[0]
    if not np.all(np.isfinite(out)):
        raise SimulationError(
            f"benchmark {benchmark.name!r}: state became non-finite during simulation"
        )
    return Signal(
        times=grid,
        channels=tuple(out[i] for i in range(out.shape[0])),
        channel_names=benchmark.output_names,
    )


# ---------------------------------------------------------------------------
# Configuration loading

def _expect(value, kind: type, where: str):
    """``value`` if it is a ``kind`` (dict or list), else a ValueError naming ``where``."""
    if not isinstance(value, kind):
        raise ValueError(f"{where} must be a JSON {'object' if kind is dict else 'array'}, "
                         f"got {value!r}")
    return value


def _check_keys(obj: dict, where: str, required, optional=()) -> None:
    unknown = set(_expect(obj, dict, where)) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ValueError(f"{where}: missing keys {sorted(missing)}")


def _entries(doc: dict, key: str, kind: str, numbers: tuple[str, ...]):
    """The name and the finite ``numbers`` of each ``kind`` entry of the
    array ``doc[key]``, which may be absent."""
    for entry in _expect(doc.get(key, []), list, f"benchmark config: {key!r}"):
        _check_keys(entry, f"{kind} entry", ("name", *numbers))
        name = str(entry["name"])
        yield name, [_finite(entry[k], f"{kind} {name!r} {k!r}") for k in numbers]


def load_benchmark(document: str) -> Benchmark:
    """Parse and validate a benchmark configuration JSON document."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ValueError(f"benchmark config is not valid JSON: {exc}") from exc
    _check_keys(doc, "benchmark config", ("name", "horizon", "dt", "inputs", "model", "specs"),
                ("static_params",))
    inputs = []
    for name, bounds in _entries(doc, "inputs", "input", ("min", "max")):
        try:
            inputs.append((name, InputRange(*bounds)))
        except ValueError as exc:
            raise ValueError(f"input {name!r}: {exc}") from None
    _check_keys(doc["model"], "model", ("kind",), ("params",))
    params = _expect(doc["model"].get("params", {}), dict, "model: 'params'")
    model = ModelSpec(kind=doc["model"]["kind"], params=params)
    statics = [StaticParam(name, *numbers) for name, numbers in
               _entries(doc, "static_params", "static param", ("min", "max", "default"))]
    if not isinstance(doc["specs"], dict) or not doc["specs"]:
        raise ValueError("benchmark config: 'specs' must be a non-empty object")
    return Benchmark(
        name=str(doc["name"]),
        inputs=tuple(inputs),
        horizon=_finite(doc["horizon"], "benchmark config: 'horizon'"),
        dt=_finite(doc["dt"], "benchmark config: 'dt'"),
        model=model,
        spec_texts={str(k): str(v) for k, v in doc["specs"].items()},
        static_params=tuple(statics),
    )


def load_benchmark_file(path) -> Benchmark:
    """Load a benchmark configuration file; an error in it names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        document = fh.read()
    try:
        return load_benchmark(document)
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def builtin_benchmark_names() -> list[str]:
    files = resources.files("pulsefalsify.benchmarks")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def builtin_benchmark(name: str) -> Benchmark:
    """Load one of the shipped benchmark configurations by name."""
    ref = resources.files("pulsefalsify.benchmarks") / f"{name}.json"
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise KeyError(
            f"no builtin benchmark {name!r}; available: {builtin_benchmark_names()}"
        )
    return load_benchmark(text)
