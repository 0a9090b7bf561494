"""Falsification loop: search space assembly, point decoding, optimization.

The optimizer works on the unit hypercube; each coordinate maps affinely
onto one normalized pulse parameter of one input channel (or onto one
static search parameter).  Parameters left out of the free mask stay at
the fixed defaults (low=0, period=0.5, width=0.5, high=1, delay=0).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import stl
from .optimizers import OptimizerConfig, minimize
from .signals import PulseParams, pulse_values, scale_pulse
from .systems import Benchmark, simulate_batch

__all__ = [
    "PulseParam",
    "FreeMask",
    "ParamSpace",
    "Witness",
    "FalsificationOutcome",
    "FIXED_DEFAULTS",
    "build_param_space",
    "decode",
    "decode_batch",
    "batch_objective",
    "synthesize_batch",
    "falsify",
    "evaluate_witness",
]


class PulseParam(enum.Enum):
    """The five pulse-generator parameters, in canonical L-P-W-H-D order."""

    LOW = "L"
    PERIOD = "P"
    WIDTH = "W"
    HIGH = "H"
    DELAY = "D"


_CANONICAL_ORDER = tuple(PulseParam)

FIXED_DEFAULTS = PulseParams(low_n=0.0, period_n=0.5, width_n=0.5, high_n=1.0, delay_n=0.0)


@dataclass(frozen=True)
class FreeMask:
    """Subset of pulse parameters exposed to the optimizer."""

    params: frozenset[PulseParam]
    include_static_params: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", frozenset(self.params))

    @property
    def ordered(self) -> tuple[PulseParam, ...]:
        return tuple(p for p in _CANONICAL_ORDER if p in self.params)

    @property
    def label(self) -> str:
        return "-".join(p.value for p in self.ordered)

    @classmethod
    def from_label(cls, label: str, include_static_params: bool = False) -> "FreeMask":
        """Parse labels like "W" or "L-P-W-H-D"."""
        by_letter = {p.value: p for p in PulseParam}
        parts = [s.strip() for s in label.split("-") if s.strip()]
        if not parts:
            raise ValueError(f"empty mask label {label!r}")
        params = set()
        for part in parts:
            if part.upper() not in by_letter:
                raise ValueError(f"unknown pulse parameter {part!r} in mask {label!r}")
            params.add(by_letter[part.upper()])
        return cls(frozenset(params), include_static_params)


@dataclass(frozen=True)
class Coordinate:
    """One optimization coordinate and its native range."""

    channel: str | None  # None for static parameters
    param: PulseParam | None
    static_name: str | None
    lower: float
    upper: float

    @property
    def name(self) -> str:
        if self.channel is not None:
            return f"{self.channel}.{self.param.value}"
        return self.static_name


@dataclass(frozen=True)
class ParamSpace:
    benchmark: Benchmark
    mask: FreeMask
    coords: tuple[Coordinate, ...]

    @property
    def dimension(self) -> int:
        return len(self.coords)


def build_param_space(benchmark: Benchmark, mask: FreeMask) -> ParamSpace:
    """Assemble the search space: per channel the masked parameters in
    L-P-W-H-D order, then the free static parameters in declaration order.

    The period coordinate is restricted to [0, 1] when the delay is also
    free, and spans [0, 2] otherwise.
    """
    if not mask.params:
        raise ValueError("free mask must contain at least one pulse parameter")
    delay_free = PulseParam.DELAY in mask.params
    period_upper = 1.0 if delay_free else 2.0
    coords: list[Coordinate] = []
    for channel, _ in benchmark.inputs:
        for param in mask.ordered:
            upper = period_upper if param is PulseParam.PERIOD else 1.0
            coords.append(
                Coordinate(channel=channel, param=param, static_name=None, lower=0.0, upper=upper)
            )
    if mask.include_static_params:
        for p in benchmark.static_params:
            coords.append(
                Coordinate(channel=None, param=None, static_name=p.name, lower=p.lower, upper=p.upper)
            )
    return ParamSpace(benchmark=benchmark, mask=mask, coords=tuple(coords))


# PulseParams fields in L-P-W-H-D order.
_PULSE_FIELDS = tuple(f.name for f in dataclasses.fields(PulseParams))


def decode_batch(points: np.ndarray, space: ParamSpace) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Vectorized :func:`decode` of a (B, dim) block of unit-cube points.

    Returns the normalized pulse fields as a (channels, 5, B) array, with
    channels in input order and fields in L-P-W-H-D order, and the static
    values as (B,) arrays.  Raises ``ValueError`` for a point outside
    [0, 1]^dim; inside it every field lies in its coordinate's native range,
    which :class:`PulseParams` accepts.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != space.dimension:
        raise ValueError(
            f"expected points of dimension {space.dimension}, got shape {points.shape}"
        )
    bad = ~((0.0 <= points) & (points <= 1.0))
    if np.any(bad):
        row, column = np.argwhere(bad)[0]
        raise ValueError(
            f"coordinate {space.coords[column].name} must be in [0, 1], got {points[row, column]}"
        )
    lower = np.array([c.lower for c in space.coords])
    upper = np.array([c.upper for c in space.coords])
    native = lower + points * (upper - lower)
    channels = space.benchmark.input_names
    defaults = [getattr(FIXED_DEFAULTS, name) for name in _PULSE_FIELDS]
    fields = np.empty((len(channels), len(_PULSE_FIELDS), len(points)))
    fields[:] = np.array(defaults)[:, None]
    statics: dict[str, np.ndarray] = {}
    for column, coord in zip(native.T, space.coords):
        if coord.channel is not None:
            fields[channels.index(coord.channel), _CANONICAL_ORDER.index(coord.param)] = column
        else:
            statics[coord.static_name] = column
    return fields, statics


def decode(point: np.ndarray, space: ParamSpace) -> tuple[dict[str, PulseParams], dict[str, float]]:
    """Map a unit-cube point onto per-channel pulse parameters and static
    values.  Unmasked parameters stay at the fixed defaults."""
    point = np.asarray(point, dtype=float)
    if point.shape != (space.dimension,):
        raise ValueError(f"expected a point of dimension {space.dimension}, got shape {point.shape}")
    fields, statics = decode_batch(point[None], space)
    pulses = {
        channel: PulseParams(*(float(v) for v in fields[i, :, 0]))
        for i, channel in enumerate(space.benchmark.input_names)
    }
    return pulses, {name: float(v[0]) for name, v in statics.items()}


def synthesize_batch(benchmark: Benchmark, fields: np.ndarray) -> np.ndarray:
    """Input traces of shape (B, channels, n) on the benchmark grid from
    normalized pulse fields shaped as :func:`decode_batch` returns them."""
    lower = np.array([[rng.lower] for _, rng in benchmark.inputs])
    upper = np.array([[rng.upper] for _, rng in benchmark.inputs])
    pulses = scale_pulse(*fields.transpose(1, 0, 2), lower, upper, benchmark.horizon)
    u = pulse_values(*pulses, benchmark.horizon, benchmark.grid())
    return u.transpose(1, 0, 2)


@dataclass(frozen=True)
class Witness:
    """Decoded falsifying input: pulse parameters, static values, and the
    raw optimizer point they came from."""

    point: np.ndarray
    pulses: dict[str, PulseParams]
    static_values: dict[str, float]


@dataclass
class FalsificationOutcome:
    falsified: bool
    simulations_used: int
    best_robustness: float
    witness: Witness | None
    history: list[float]
    restarts: int = 0
    surrogate_fits: int = 0  # turbo_lite surrogate fits attempted, degenerate ones included
    degenerate_fits: int = 0


def batch_objective(benchmark: Benchmark, spec_name: str, space: ParamSpace,
                    semantics: str = "classic"):
    """The falsification objective on blocks of points.

    The returned function maps a (B, dim) block of unit-cube points onto
    the B robustness values of ``spec_name``; a row whose simulation
    diverged scores +inf.  Each value equals that of the point evaluated
    alone, and of :func:`evaluate_witness` on the point's decoded input.
    """
    formula = benchmark.specs[spec_name]

    def objective(points: np.ndarray) -> np.ndarray:
        return _score(benchmark, formula, semantics, *decode_batch(points, space))

    return objective


def _score(benchmark: Benchmark, formula: stl.Formula, semantics: str,
           fields: np.ndarray, statics: dict[str, np.ndarray]) -> np.ndarray:
    """The B robustness values of ``formula`` for decoded pulse ``fields``
    (channels, 5, B) and static values ((B,) arrays); a row whose
    simulation diverged scores +inf."""
    u = synthesize_batch(benchmark, fields)
    traces = np.concatenate([simulate_batch(benchmark, u, statics), u], axis=1)
    finite = np.all(np.isfinite(traces), axis=(1, 2))
    values = np.full(len(traces), math.inf)
    if np.any(finite):
        names = benchmark.output_names + benchmark.input_names
        channels = dict(zip(names, traces[finite].transpose(1, 0, 2)))
        values[finite] = stl.robustness_batch(formula, channels, benchmark.dt, semantics)
    return values


def falsify(
    benchmark: Benchmark,
    spec_name: str,
    mask: FreeMask,
    config: OptimizerConfig,
    semantics: str = "classic",
) -> FalsificationOutcome:
    """Search for an input signal with negative robustness.

    Each objective evaluation performs exactly one simulation; the loop
    stops at the first negative robustness or when the budget runs out.
    Both optimizers simulate their points in blocks; any simulated after
    the first negative robustness are discarded, so ``simulations_used``
    and ``history`` are those of the point-by-point search.
    """
    if spec_name not in benchmark.specs:
        raise KeyError(
            f"benchmark {benchmark.name!r} has no spec {spec_name!r}; "
            f"available: {sorted(benchmark.specs)}"
        )
    space = build_param_space(benchmark, mask)
    objective = batch_objective(benchmark, spec_name, space, semantics)
    result = minimize(None, space.dimension, config, objective)
    falsified = result.best.value < 0
    witness = None
    if falsified:
        pulses, statics = decode(result.best.point, space)
        witness = Witness(point=result.best.point, pulses=pulses, static_values=statics)
    return FalsificationOutcome(
        falsified=falsified,
        simulations_used=result.evaluations_used,
        best_robustness=result.best.value,
        witness=witness,
        history=[rec.value for rec in result.history],
        restarts=result.restarts,
        surrogate_fits=result.surrogate_fits,
        degenerate_fits=result.degenerate_fits,
    )


def evaluate_witness(
    benchmark: Benchmark,
    spec_name: str,
    witness: Witness,
    semantics: str = "classic",
) -> float:
    """Re-simulate a witness and re-evaluate the spec robustness.

    The witness is scored by the code that scores the search's points, as a
    block of one, so the value equals the one the search recorded bit for
    bit.  A witness whose simulation diverges scores +inf, as in
    :func:`batch_objective`; no ``SimulationError`` is raised.
    """
    fields = np.array(
        [[[getattr(witness.pulses[channel], name)] for name in _PULSE_FIELDS]
         for channel in benchmark.input_names]
    )
    statics = {name: np.array([value]) for name, value in witness.static_values.items()}
    return float(_score(benchmark, benchmark.specs[spec_name], semantics, fields, statics)[0])
