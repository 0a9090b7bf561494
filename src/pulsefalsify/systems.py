"""Benchmark system models and the simulator contract.

A benchmark bundles input channel ranges, the time grid, a model, STL
specifications, and optional static search parameters (e.g. initial
conditions).  Simulation is deterministic: continuous-time models are
integrated with fixed-step classical RK4 at the trace resolution, with
inputs held constant over each step; the delta-sigma modulator is iterated
as a discrete map with one step per grid instant.

The shipped models are desk-scale substitutes for the proprietary ARCH
suite: a first-order lag, a five-car platoon, a third-order delta-sigma
modulator, and a threshold-switched linear system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Mapping

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
    "rk4_step",
    "load_benchmark",
    "load_benchmark_file",
    "builtin_benchmark",
    "builtin_benchmark_names",
]

# Per model kind: its outputs, its params with their defaults, and the
# params that a static search parameter of the same name overrides.
_MODELS: dict[str, tuple[tuple[str, ...], dict[str, float], set[str]]] = {
    "first_order_lag": (("y",), {"K": 1.0, "tau": 1.0, "y_init": 0.0}, {"y_init"}),
    "chasing_cars": (
        ("y1", "y2", "y3", "y4", "y5"),
        {"k1": 1.0, "k2": 2.0, "d0": 10.0, "accel_gain": 5.0, "brake_gain": 8.0},
        set(),
    ),
    "delta_sigma": (
        ("x1", "x2", "x3"),
        {"b1": 0.044, "b2": 0.287, "b3": 0.8, "x1_init": 0.0, "x2_init": 0.0, "x3_init": 0.0},
        {"x1_init", "x2_init", "x3_init"},
    ),
    "switched_system": (
        ("x1", "x2"),
        {"a1_11": -0.5, "a1_12": -1.0, "a1_21": 1.0, "a1_22": -0.5,
         "a2_11": 0.05, "a2_12": -1.0, "a2_21": 1.0, "a2_22": 0.05,
         "b_11": 1.0, "b_12": 0.0, "b_21": 0.0, "b_22": 1.0,
         "thresh": 0.7, "x1_init": 0.0, "x2_init": 0.0},
        {"thresh", "x1_init", "x2_init"},
    ),
}


class SimulationError(RuntimeError):
    """Simulation failed (e.g. the state became non-finite)."""


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _MODELS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {tuple(_MODELS)}")
        object.__setattr__(self, "params", dict(self.params))
        unknown = set(self.params) - set(_MODELS[self.kind][1])
        if unknown:
            raise ValueError(f"model {self.kind!r} has no param(s) {sorted(unknown)}; "
                             f"it has {sorted(_MODELS[self.kind][1])}")

    def get(self, name: str) -> float:
        """The value of param ``name``, or the model kind's default."""
        return float(self.params.get(name, _MODELS[self.kind][1][name]))


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
        outputs, _, overridable = _MODELS[self.model.kind]
        unread = [p.name for p in self.static_params if p.name not in overridable]
        if unread:
            raise ValueError(f"model {self.model.kind!r} reads no static param(s) {unread}; "
                             f"it reads {sorted(overridable)}")
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

    def static_defaults(self) -> dict[str, float]:
        return {p.name: p.default for p in self.static_params}


def rk4_step(
    derivative: Callable[[np.ndarray, np.ndarray], np.ndarray],
    state: np.ndarray,
    inp: np.ndarray,
    dt: float,
) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step with the input held constant."""
    return _rk4(derivative, state, inp, *_rk4_weights(dt))


def _rk4_weights(dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # 0-d arrays: numpy combines them with small arrays faster than floats.
    return np.asarray(0.5 * dt), np.asarray(dt), np.asarray(dt / 6.0)


def _rk4(derivative, state, inp, half, full, sixth):
    k1 = derivative(state, inp)
    k2 = derivative(state + half * k1, inp)
    k3 = derivative(state + half * k2, inp)
    k4 = derivative(state + full * k3, inp)
    # k + k is exactly 2.0 * k, and cheaper.
    return state + sixth * (k1 + (k2 + k2) + (k3 + k3) + k4)


# ---------------------------------------------------------------------------
# Model dynamics
#
# Each model maps a batch of input traces u of shape (B, channels, n) and
# per-row static values (arrays of shape (B,)) onto outputs of shape
# (B, outputs, n).  Rows never mix, so row b is exactly the simulation of
# input b alone.  Internally states are (S, B) and traces time-major, which
# keeps the per-step indexing cheap.


def _rk4_trajectory(deriv, state: np.ndarray, inputs: np.ndarray, dt: float) -> np.ndarray:
    """Integrate from ``state`` with ``inputs[k]`` held over step k; returns
    the ``len(inputs)`` states stacked along a leading time axis."""
    weights = _rk4_weights(dt)
    out = np.empty((len(inputs),) + state.shape)
    out[0] = state
    for k in range(len(inputs) - 1):
        state = _rk4(deriv, state, inputs[k], *weights)
        out[k + 1] = state
    return out


def _time_major(u: np.ndarray) -> np.ndarray:
    """(B, C, n) -> (n, C, B)."""
    return np.ascontiguousarray(u.transpose(2, 1, 0))


def _lag_outputs(model: ModelSpec, u: np.ndarray, dt: float, statics: Mapping[str, np.ndarray]):
    # dy/dt = (K*u - y) / tau
    gain = model.get("K")
    tau = np.asarray(model.get("tau"))
    state = np.empty((1, u.shape[0]))
    state[0] = statics.get("y_init", model.get("y_init"))

    def deriv(state, gain_u):
        return (gain_u - state) / tau

    return _rk4_trajectory(deriv, state, _time_major(gain * u), dt).transpose(2, 1, 0)


def _chasing_cars_outputs(model: ModelSpec, u: np.ndarray, dt: float, statics: Mapping[str, np.ndarray]):
    # Lead car: dv1 = 5*throttle - 8*brake (velocity clamped at 0), dy1 = v1.
    # Followers i=2..5: spring-damper tracking of the predecessor at spacing d0.
    k1, k2, d0 = (np.asarray(model.get(name)) for name in ("k1", "k2", "d0"))
    accel = model.get("accel_gain")
    brake = model.get("brake_gain")

    # Per step: the lead car's commanded acceleration, and the one that
    # applies while it stands still (it cannot reverse).  They agree on the
    # rows that do not brake.
    command = _time_major(accel * u[:, :1] - brake * u[:, 1:2])[:, 0]
    no_brake = ~(command < 0.0)
    resting = np.where(no_brake, command, 0.0)

    def deriv(state, lead):
        moving, standing = lead
        d = np.empty_like(state)
        d[:5] = state[5:]
        d[5] = moving if standing is moving else np.where(state[5] <= 0.0, standing, moving)
        d[6:] = k1 * (state[:4] - state[1:5] - d0) - k2 * state[6:]
        return d

    # State layout: (y1..y5, v1..v5); defaults put the cars at equilibrium
    # spacing d0 and at rest.
    state = np.zeros((10, u.shape[0]))
    state[:5] = (np.array([4.0, 3.0, 2.0, 1.0, 0.0]) * d0)[:, None]
    weights = _rk4_weights(dt)
    out = np.empty((len(command),) + state.shape)
    out[0] = state
    for k, none_brake in enumerate(no_brake.all(axis=1)[:-1].tolist()):
        # The lead velocity v1 is never negative at a step's start.  A row
        # that does not brake keeps v1 from falling, and a row at rest that
        # brakes stays at exactly v1 = 0; when every row is one of the two,
        # no stage needs the per-row choice and no velocity needs clamping.
        moving, standing = command[k], resting[k]
        if none_brake:
            lead = (moving, moving)
        elif np.all(no_brake[k] | (state[5] <= 0.0)):
            lead = (standing, standing)
        else:
            lead = (moving, standing)
        state = _rk4(deriv, state, lead, *weights)
        if lead[0] is not lead[1]:
            state[5] = np.where(state[5] < 0.0, 0.0, state[5])
        out[k + 1] = state
    return out[:, :5].transpose(2, 1, 0)


def _delta_sigma_outputs(model: ModelSpec, u: np.ndarray, dt: float, statics: Mapping[str, np.ndarray]):
    # Discrete integrator chain x_j += b_j * (in_j - v), v = sign(x3),
    # sign(0) = +1; one step per grid instant.
    b = np.array([[model.get("b1")], [model.get("b2")], [model.get("b3")]])
    # Row k of ``w`` holds (input_k, x1_k, x2_k, x3_k) for every batch row.
    w = np.empty((u.shape[2], 4, u.shape[0]))
    w[:, 0] = u[:, 0].T
    for j, name in enumerate(("x1_init", "x2_init", "x3_init"), start=1):
        # + 0.0 turns -0.0 into 0.0; a sum is -0.0 only if both terms are,
        # so x3 is never -0.0 below and copysign gives sign(0) = +1.
        w[0, j] = statics.get(name, model.get(name)) + 0.0
    one = np.asarray(1.0)
    for prev, row in zip(w[:-1], w[1:]):
        row[1:] = prev[1:] + b * (prev[:3] - np.copysign(one, prev[3]))
    return w[:, 1:].transpose(2, 1, 0)


def _switched_system_outputs(model: ModelSpec, u: np.ndarray, dt: float, statics: Mapping[str, np.ndarray]):
    # dx = A1 x + B u while |x1| < gamma, else A2 x + B u.  A1 is a stable
    # spiral, A2 a slowly expanding one.
    a1, a2, bmat = (np.array([[model.get(f"{m}_11"), model.get(f"{m}_12")],
                              [model.get(f"{m}_21"), model.get(f"{m}_22")]])
                    for m in ("a1", "a2", "b"))
    rows = u.shape[0]
    gammas = np.broadcast_to(statics.get("thresh", model.get("thresh")), (rows,))
    x0 = np.empty((rows, 2))
    x0[:, 0] = statics.get("x1_init", model.get("x1_init"))
    x0[:, 1] = statics.get("x2_init", model.get("x2_init"))
    # Rows are integrated one at a time: the 1-D ``a @ state`` products are
    # not reproduced bit for bit by any batched matrix product.
    out = np.empty((rows, 2, u.shape[2]))
    for row, gamma in enumerate(gammas):

        def deriv(state, inp, gamma=gamma):
            a = a1 if abs(state[0]) < gamma else a2
            return a @ state + bmat @ inp

        out[row] = _rk4_trajectory(deriv, x0[row], u[row].T, dt).T
    return out


_MODEL_FNS = {
    "first_order_lag": _lag_outputs,
    "chasing_cars": _chasing_cars_outputs,
    "delta_sigma": _delta_sigma_outputs,
    "switched_system": _switched_system_outputs,
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
    statics = {p.name: np.full(rows, p.default) for p in benchmark.static_params}
    declared = {p.name: p for p in benchmark.static_params}
    for name, values in (static_values or {}).items():
        if name not in declared:
            raise ValueError(f"unknown static parameter {name!r}")
        p = declared[name]
        values = np.asarray(values, dtype=float)
        bad = ~((p.lower <= values) & (values <= p.upper))
        if np.any(bad):
            raise ValueError(
                f"static parameter {name!r}={values[bad][0]} outside [{p.lower}, {p.upper}]"
            )
        statics[name] = values
    with np.errstate(all="ignore"):
        return _MODEL_FNS[benchmark.model.kind](benchmark.model, u, benchmark.dt, statics)


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


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
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
    if not isinstance(doc, dict):
        raise ValueError("benchmark config must be a JSON object")
    _check_keys(doc, _TOP_KEYS, _REQUIRED_KEYS, "benchmark config")
    inputs = []
    for entry in doc["inputs"]:
        _check_keys(entry, {"name", "min", "max"}, {"name", "min", "max"}, "input entry")
        inputs.append((str(entry["name"]), InputRange(float(entry["min"]), float(entry["max"]))))
    model_doc = doc["model"]
    _check_keys(model_doc, {"kind", "params"}, {"kind"}, "model")
    model = ModelSpec(kind=model_doc["kind"], params=model_doc.get("params", {}))
    statics = []
    for entry in doc.get("static_params", []):
        _check_keys(
            entry,
            {"name", "min", "max", "default"},
            {"name", "min", "max", "default"},
            "static param entry",
        )
        statics.append(
            StaticParam(
                name=str(entry["name"]),
                lower=float(entry["min"]),
                upper=float(entry["max"]),
                default=float(entry["default"]),
            )
        )
    if not isinstance(doc["specs"], dict) or not doc["specs"]:
        raise ValueError("benchmark config: 'specs' must be a non-empty object")
    return Benchmark(
        name=str(doc["name"]),
        inputs=tuple(inputs),
        horizon=float(doc["horizon"]),
        dt=float(doc["dt"]),
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
