"""Benchmark system models and the simulator contract.

A benchmark bundles input channel ranges, the time grid, a model, STL
specifications, and optional static search parameters (e.g. initial
conditions).  Simulation is deterministic: one classical RK4 step per grid
interval with the inputs held over it (the delta-sigma modulator is a
discrete map with one step per grid instant).  The first-order lag's steps
are solved in closed form; every other model is a step function that one
loop, ``_march``, iterates over the grid.

The shipped models are desk-scale substitutes for the proprietary ARCH
suite: a first-order lag, a five-car platoon, a third-order delta-sigma
modulator, and a threshold-switched linear system.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping

import numpy as np

from . import stl
from .signals import InputRange, Signal, uniform_grid

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


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _MODELS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {tuple(_MODELS)}")
        unknown = set(self.params) - set(_MODELS[self.kind][1])
        if unknown:
            raise ValueError(f"model {self.kind!r} has no param(s) {sorted(unknown)}; "
                             f"it has {sorted(_MODELS[self.kind][1])}")
        object.__setattr__(self, "params", {
            name: _finite(value, f"model param {name!r}") for name, value in self.params.items()
        })


@dataclass(frozen=True)
class StaticParam:
    name: str
    lower: float
    upper: float
    default: float

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError(f"static param {self.name!r}: lower must be < upper")
        if not self.lower <= self.default <= self.upper:
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
        if not (math.isfinite(self.horizon) and math.isfinite(self.dt)):
            raise ValueError(f"horizon and dt must be finite, got {self.horizon} and {self.dt}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not (0 < self.dt <= self.horizon):
            raise ValueError(f"dt must satisfy 0 < dt <= horizon, got {self.dt}")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(
                f"horizon {self.horizon} s is not a whole number of dt={self.dt} s steps"
            )
        names = [n for n, _ in self.inputs]
        if len(set(names)) != len(names):
            raise ValueError("input channel names must be unique")
        statics = [p.name for p in self.static_params]
        if len(set(statics)) != len(statics):
            raise ValueError(f"static param names must be unique, got {statics}")
        outputs, _, overridable, _ = _MODELS[self.model.kind]
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
            formula = stl.parse(text)
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


# ---------------------------------------------------------------------------
# Model dynamics
#
# Each model ``(p, u, dt)`` maps input traces u of shape (B, channels, n)
# onto outputs of shape (B, outputs, n): the lag in closed form, the others
# as a step function that ``_march`` iterates.  It reads params only as
# ``p[name]``: a float, or a (B,) array for a static search parameter.  Rows
# never mix, not even through a matrix product, so row b is exactly the
# simulation of input b alone.  States are (S, B) and traces time-major,
# which keeps the per-step indexing cheap.


def _march(step, state: np.ndarray, n: int) -> np.ndarray:
    """x_0 = ``state`` and x_{k+1} = ``step(k, x_k)`` for k < n - 1, stacked
    along a leading time axis."""
    out = np.empty((n,) + state.shape)
    out[0] = state
    for k in range(n - 1):
        state = step(k, state)
        out[k + 1] = state
    return out


def _rk4(deriv, dt: float):
    """The classical 4th-order Runge-Kutta step ``step(state, inp)`` of
    ``deriv(state, inp)`` over ``dt``, with the input held constant."""
    # 0-d arrays: numpy combines them with small arrays faster than floats.
    half, full, sixth = np.asarray(0.5 * dt), np.asarray(dt), np.asarray(dt / 6.0)

    def step(state, inp):
        k1 = deriv(state, inp)
        k2 = deriv(state + half * k1, inp)
        k3 = deriv(state + half * k2, inp)
        k4 = deriv(state + full * k3, inp)
        # k + k is exactly 2.0 * k, and cheaper.
        return state + sixth * (k1 + (k2 + k2) + (k3 + k3) + k4)

    return step


def _time_major(u: np.ndarray) -> np.ndarray:
    """(B, C, n) -> (n, C, B)."""
    return np.ascontiguousarray(u.transpose(2, 1, 0))


_LAG_BLOCK = 32  # steps per block of the lag's closed form


def _lag(p, u: np.ndarray, dt: float) -> np.ndarray:
    # dy/dt = (K*u - y) / tau.  Its RK4 step with the input held is linear,
    # y+ = q*y + g*K*u with g = 1 - q, so from y_s at the start of a block,
    #   y_{s+i} = q^i * (y_s + sum_{j<i} q^-(j+1) * g*K*u_{s+j}):
    # one cumulative sum along time per block, with no sum across rows.
    # Blocks of m steps keep q^-m finite, as q >= 0.27 for every tau.
    # The powers of q come from g, what one step makes of y = 0 under K*u = 1,
    # which is accurate to a few ulp: q rounded near 1 would put a fixed
    # error in the rate, and q^n multiplies it n times.
    tau = np.asarray(p["tau"])
    g = _rk4(lambda y, gain_u: (gain_u - y) / tau, dt)(0.0, 1.0)
    log_q = np.log1p(-g)
    # Past dt = 500 |tau|, where q^m nears overflow, take one step per block.
    m = _LAG_BLOCK if log_q * _LAG_BLOCK < 700.0 else 1
    powers = np.exp(log_q * np.arange(1.0, m + 1))
    rows, n = u.shape[0], u.shape[2]
    blocks = -(-(n - 1) // m)
    drive = np.zeros((rows, blocks, m))
    drive.reshape(rows, -1)[:, : n - 1] = (g * p["K"]) * u[:, 0, :-1]
    sums = np.cumsum(drive / powers, axis=2)
    y = np.empty((rows, blocks * m + 1))
    y[:, 0] = p["y_init"]
    trajectory = y[:, 1:].reshape(rows, blocks, m)
    for block in range(blocks):
        trajectory[:, block] = (y[:, block * m, None] + sums[:, block]) * powers
    return y[:, None, :n]


def _chasing_cars(p, u: np.ndarray, dt: float) -> np.ndarray:
    # Lead car: dv1 = 5*throttle - 8*brake (velocity clamped at 0), dy1 = v1.
    # Followers i=2..5: spring-damper tracking of the predecessor at spacing d0.
    k1, k2, d0 = (np.asarray(p[name]) for name in ("k1", "k2", "d0"))

    # Per step: the lead car's commanded acceleration, and the one that
    # applies while it stands still (it cannot reverse).  They agree on the
    # rows that do not brake.
    command = _time_major(p["accel_gain"] * u[:, :1] - p["brake_gain"] * u[:, 1:2])[:, 0]
    no_brake = ~(command < 0.0)
    resting = np.where(no_brake, command, 0.0)
    none_brake = no_brake.all(axis=1).tolist()

    def deriv(state, lead):
        # ``standing`` is None when no row needs the per-row choice.
        moving, standing = lead
        d = np.empty_like(state)
        d[:5] = state[5:]
        d[5] = moving if standing is None else np.where(state[5] <= 0.0, standing, moving)
        d[6:] = k1 * (state[:4] - state[1:5] - d0) - k2 * state[6:]
        return d

    rk4 = _rk4(deriv, dt)

    def step(k, state):
        # The lead velocity v1 is never negative at a step's start.  A row
        # that does not brake keeps v1 from falling, and a row at rest that
        # brakes stays at exactly v1 = 0; when every row is one of the two,
        # no stage needs the per-row choice and no velocity needs clamping.
        if none_brake[k]:
            return rk4(state, (command[k], None))
        if np.all(no_brake[k] | (state[5] <= 0.0)):
            return rk4(state, (resting[k], None))
        state = rk4(state, (command[k], resting[k]))
        state[5] = np.where(state[5] < 0.0, 0.0, state[5])
        return state

    # State layout: (y1..y5, v1..v5); defaults put the cars at equilibrium
    # spacing d0 and at rest.
    state = np.zeros((10, u.shape[0]))
    state[:5] = (np.array([4.0, 3.0, 2.0, 1.0, 0.0]) * d0)[:, None]
    return _march(step, state, len(command))[:, :5].transpose(2, 1, 0)


def _delta_sigma(p, u: np.ndarray, dt: float) -> np.ndarray:
    # Discrete integrator chain x_j += b_j * (in_j - v), v = sign(x3),
    # sign(0) = +1; one step per grid instant.
    b = np.array([[p["b1"]], [p["b2"]], [p["b3"]]])
    inputs = np.ascontiguousarray(u[:, 0].T)
    work = np.empty((3, u.shape[0]))  # (u_k, x1_k, x2_k) for every batch row
    one = np.asarray(1.0)

    def step(k, x):
        work[0] = inputs[k]
        work[1:] = x[:2]
        return x + b * (work - np.copysign(one, x[2]))

    state = np.empty((3, u.shape[0]))
    for j, name in enumerate(("x1_init", "x2_init", "x3_init")):
        # + 0.0 turns -0.0 into 0.0; a sum is -0.0 only if both terms are,
        # so x3 is never -0.0 below and copysign gives sign(0) = +1.
        state[j] = p[name] + 0.0
    return _march(step, state, len(inputs)).transpose(2, 1, 0)


def _switched_system(p, u: np.ndarray, dt: float) -> np.ndarray:
    # dx = A1 x + B u while |x1| < gamma, else A2 x + B u.  A1 is a stable
    # spiral, A2 a slowly expanding one.
    a1, a2, bmat = (np.array([[p[f"{m}_11"], p[f"{m}_12"]], [p[f"{m}_21"], p[f"{m}_22"]]])
                    for m in ("a1", "a2", "b"))

    def deriv(x, held):
        inp, gamma = held
        return (a1 if abs(x[0]) < gamma else a2) @ x + bmat @ inp

    rk4 = _rk4(deriv, dt)
    rows = u.shape[0]
    x0 = np.empty((rows, 2))
    x0[:, 0] = p["x1_init"]
    x0[:, 1] = p["x2_init"]
    # Rows are integrated one at a time: the 1-D ``a @ state`` products are
    # not reproduced bit for bit by any batched matrix product.
    out = np.empty((rows, 2, u.shape[2]))
    for row, gamma in enumerate(np.broadcast_to(p["thresh"], (rows,))):
        inputs = u[row].T
        out[row] = _march(lambda k, x: rk4(x, (inputs[k], gamma)), x0[row], len(inputs)).T
    return out


# Per model kind: its outputs, its params with their defaults, the params
# that a static search parameter of the same name overrides, and its
# dynamics.
_MODELS = {
    "first_order_lag": (("y",), {"K": 1.0, "tau": 1.0, "y_init": 0.0}, {"y_init"}, _lag),
    "chasing_cars": (
        ("y1", "y2", "y3", "y4", "y5"),
        {"k1": 1.0, "k2": 2.0, "d0": 10.0, "accel_gain": 5.0, "brake_gain": 8.0},
        set(),
        _chasing_cars,
    ),
    "delta_sigma": (
        ("x1", "x2", "x3"),
        {"b1": 0.044, "b2": 0.287, "b3": 0.8, "x1_init": 0.0, "x2_init": 0.0, "x3_init": 0.0},
        {"x1_init", "x2_init", "x3_init"},
        _delta_sigma,
    ),
    "switched_system": (
        ("x1", "x2"),
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
    rows = u.shape[0]
    _, defaults, _, dynamics = _MODELS[benchmark.model.kind]
    declared = {s.name: s for s in benchmark.static_params}
    # The params view; each source overrides the ones before it.
    p = {**defaults, **benchmark.model.params,
         **{name: np.full(rows, s.default) for name, s in declared.items()}}
    for name, values in (static_values or {}).items():
        if name not in declared:
            raise ValueError(f"unknown static parameter {name!r}")
        s = declared[name]
        values = np.asarray(values, dtype=float)
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
    grid = benchmark.grid()
    if len(inputs.times) != len(grid) or not np.allclose(inputs.times, grid, atol=1e-9):
        raise ValueError("input signal grid does not match the benchmark grid")
    u = np.stack([inputs.channel(name) for name in benchmark.input_names])
    statics = {name: np.array([float(v)]) for name, v in (static_values or {}).items()}
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

_TOP_KEYS = {"name", "horizon", "dt", "inputs", "model", "specs", "static_params"}
_REQUIRED_KEYS = {"name", "horizon", "dt", "inputs", "model", "specs"}


def _expect(value, kind: type, where: str):
    """``value`` if it is a ``kind`` (dict or list), else a ValueError naming ``where``."""
    if not isinstance(value, kind):
        raise ValueError(f"{where} must be a JSON {'object' if kind is dict else 'array'}, "
                         f"got {value!r}")
    return value


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(_expect(obj, dict, where)) - allowed
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ValueError(f"{where}: missing keys {sorted(missing)}")


def load_benchmark(document: str) -> Benchmark:
    """Parse and validate a benchmark configuration JSON document."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ValueError(f"benchmark config is not valid JSON: {exc}") from exc
    _check_keys(doc, _TOP_KEYS, _REQUIRED_KEYS, "benchmark config")
    inputs = []
    for entry in _expect(doc["inputs"], list, "benchmark config: 'inputs'"):
        _check_keys(entry, {"name", "min", "max"}, {"name", "min", "max"}, "input entry")
        name = str(entry["name"])
        inputs.append((name, InputRange(_finite(entry["min"], f"input {name!r} 'min'"),
                                        _finite(entry["max"], f"input {name!r} 'max'"))))
    model_doc = doc["model"]
    _check_keys(model_doc, {"kind", "params"}, {"kind"}, "model")
    params = _expect(model_doc.get("params", {}), dict, "model: 'params'")
    model = ModelSpec(kind=model_doc["kind"], params=params)
    statics = []
    for entry in _expect(doc.get("static_params", []), list, "benchmark config: 'static_params'"):
        _check_keys(
            entry,
            {"name", "min", "max", "default"},
            {"name", "min", "max", "default"},
            "static param entry",
        )
        name = str(entry["name"])
        statics.append(StaticParam(name, *(_finite(entry[key], f"static param {name!r} {key!r}")
                                           for key in ("min", "max", "default"))))
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
    with open(path, "r", encoding="utf-8") as fh:
        return load_benchmark(fh.read())


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
