"""Falsification loop: search space assembly, point decoding, optimization.

The optimizer works on the unit hypercube; each coordinate maps affinely
onto one normalized pulse parameter of one input channel (or onto one
static search parameter).  Parameters left out of the free mask stay at
the fixed defaults (low=0, period=0.5, width=0.5, high=1, delay=0).
A :class:`ParamSpace` holds that map as arrays: each coordinate's native
``lower`` bound and ``widths`` (upper - lower), and the (channel, field)
indices that the pulse coordinates set; :func:`decode_batch` computes
``lower + points * widths`` and assigns the pulse columns by those indices.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import stl
from .optimizers import MAX_BLOCK, OptimizerConfig, minimize
from .signals import PulseParams, pulse_values, scale_pulse
from .systems import Benchmark, simulate_batch

__all__ = [
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
    "score_blocks",
    "falsify",
    "evaluate_witness",
]


# The mask letters, one per PulseParams field in its L-P-W-H-D order.  A
# tuple, not a string, so that "LP" is not one of them.
PARAM_LETTERS = tuple(f.name[0].upper() for f in dataclasses.fields(PulseParams))

FIXED_DEFAULTS = PulseParams(low_n=0.0, period_n=0.5, width_n=0.5, high_n=1.0, delay_n=0.0)


@dataclass(frozen=True)
class FreeMask:
    """Subset of pulse parameters exposed to the optimizer, as a set of
    letters of ``PARAM_LETTERS``."""

    params: frozenset[str]
    include_static_params: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", frozenset(self.params))
        for letter in self.params:
            if letter not in PARAM_LETTERS:
                raise ValueError(f"unknown pulse parameter {letter!r}; "
                                 f"a mask holds letters of {'-'.join(PARAM_LETTERS)}")

    @property
    def label(self) -> str:
        return "-".join(letter for letter in PARAM_LETTERS if letter in self.params)

    @classmethod
    def from_label(cls, label: str, include_static_params: bool = False) -> "FreeMask":
        """Parse labels like "W" or "L-P-W-H-D"."""
        parts = [s.strip() for s in label.split("-") if s.strip()]
        if not parts:
            raise ValueError(f"empty mask label {label!r}")
        for part in parts:
            if part.upper() not in PARAM_LETTERS:
                raise ValueError(f"unknown pulse parameter {part!r} in mask {label!r}")
        return cls(frozenset(part.upper() for part in parts), include_static_params)


@dataclass(frozen=True, eq=False)
class ParamSpace:
    """The search space of one benchmark and free mask, as the arrays that
    decode a unit-cube point.  ``names``, ``lower`` and ``widths`` give each
    coordinate's name, native lower bound and native width; the pulse
    coordinates come first, and ``channels`` and ``fields`` hold the input
    channel and the :class:`PulseParams` field that each of them sets.  The
    free static parameters follow, named as declared."""

    benchmark: Benchmark
    names: tuple[str, ...]
    lower: np.ndarray
    widths: np.ndarray
    channels: np.ndarray
    fields: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.names)


def build_param_space(benchmark: Benchmark, mask: FreeMask) -> ParamSpace:
    """Assemble the search space: per channel the masked parameters in
    L-P-W-H-D order, then the free static parameters in declaration order.

    The period coordinate is restricted to [0, 1] when the delay is also
    free, and spans [0, 2] otherwise.
    """
    if not mask.params:
        raise ValueError("free mask must contain at least one pulse parameter")
    period_upper = 1.0 if "D" in mask.params else 2.0
    pulses = [(channel, field, f"{name}.{letter}", period_upper if letter == "P" else 1.0)
              for channel, name in enumerate(benchmark.input_names)
              for field, letter in enumerate(PARAM_LETTERS) if letter in mask.params]
    statics = benchmark.static_params if mask.include_static_params else ()
    channels, fields, names, upper = zip(*pulses)
    lower = np.array([0.0] * len(pulses) + [p.lower for p in statics])
    return ParamSpace(
        benchmark=benchmark,
        names=names + tuple(p.name for p in statics),
        lower=lower,
        widths=np.array(upper + tuple(p.upper for p in statics)) - lower,
        channels=np.array(channels, dtype=np.intp),
        fields=np.array(fields, dtype=np.intp),
    )


# The fixed defaults as a column, in PulseParams field order.
_DEFAULT_FIELDS = np.array(dataclasses.astuple(FIXED_DEFAULTS))[:, None]
_DEFAULT_FIELDS.flags.writeable = False


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
            f"coordinate {space.names[column]} must be in [0, 1], got {points[row, column]}"
        )
    native = space.lower + points * space.widths
    pulses = len(space.channels)
    if native.shape[1] > pulses:  # lower + widths may round past a static's upper bound
        statics = native[:, pulses:]
        np.minimum(statics, [p.upper for p in space.benchmark.static_params], out=statics)
    fields = np.empty((len(space.benchmark.inputs), len(_DEFAULT_FIELDS), len(points)))
    fields[:] = _DEFAULT_FIELDS
    fields[space.channels, space.fields] = native[:, :pulses].T
    return fields, dict(zip(space.names[pulses:], native.T[pulses:]))


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
    pulses = scale_pulse(*fields.transpose(1, 0, 2), *benchmark.input_bounds, benchmark.horizon)
    u = pulse_values(*pulses, benchmark.horizon, benchmark.times)
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
    the B robustness values of ``spec_name`` that :func:`score_blocks` gives.
    Each value equals that of the point evaluated alone, and of
    :func:`evaluate_witness` on the point's decoded input.  An unknown
    ``spec_name`` raises ``KeyError`` here, not at the first call.
    """
    benchmark.spec(spec_name)

    def objective(points: np.ndarray) -> np.ndarray:
        return score_blocks(benchmark, [(spec_name, *decode_batch(points, space))], semantics)

    return objective


# Trace samples in one scoring chunk, 4 MB of floats; a step holds one chunk's
# traces at a time, each freed before the next is built.  ``MAX_BLOCK`` caps one
# search's block, so that it wastes little work past its first negative
# value; a chunk shared by many searches wastes nothing by being wide, and
# wider chunks pay numpy's per-call cost over more rows.  The trace memory
# bounds it instead: 372 rows of cc, 1,297 of ss, about 2,580 of lag or dsm.
# At 2^18, a random-search sweep steps cc in more chunks, each paying the
# platoon's per-step cost, and took about a fifth longer; at 2^20 it took
# about as long as at 2^19, with a peak memory some 3 MB higher.
_CHUNK_SAMPLES = 2**19


def _chunk_rows(benchmark: Benchmark) -> int:
    """The most rows one scoring chunk of ``benchmark`` holds."""
    samples = (len(benchmark.output_names) + len(benchmark.inputs)) * len(benchmark.times)
    return max(MAX_BLOCK, _CHUNK_SAMPLES // samples)


def _chunk_bounds(benchmark: Benchmark, rows: int) -> list[int]:
    """Bounds of the fewest chunks of at most ``_chunk_rows`` rows that
    ``rows`` rows split into, of near-equal sizes, so that no narrow tail
    is left over.  A block no wider than one search's is one chunk, and the
    ceiling is not worked out for it."""
    count = 1 if rows <= MAX_BLOCK else -(-rows // _chunk_rows(benchmark))
    return [rows * i // count for i in range(count + 1)]


def score_blocks(benchmark: Benchmark, blocks, semantics: str = "classic") -> np.ndarray:
    """The robustness values of the rows of ``blocks``, in order, each row
    against its own block's spec.  Each block is a ``(spec name, fields,
    statics)`` triple as :func:`decode_batch` returns them, and every spec
    is looked up before anything is simulated.  The rows are simulated
    together in the chunks of :func:`_chunk_bounds`, each monitored whole as
    it is simulated; a row whose input, output or robustness is not finite
    scores +inf.  Rows never mix, so every row gets the value it gets alone.
    """
    runs, rows = [], 0  # [formula, first row, end row] per run of blocks sharing a spec
    for spec, block, _ in blocks:
        formula, end = benchmark.spec(spec), rows + block.shape[2]
        if runs and runs[-1][0] is formula:
            runs[-1][2] = end
        else:
            runs.append([formula, rows, end])
        rows = end
    fields = np.concatenate([block for _, block, _ in blocks], axis=2)
    statics = {name: np.concatenate([given[name] for _, _, given in blocks])
               for name in blocks[0][2]}
    values = np.empty(rows)
    bounds = _chunk_bounds(benchmark, rows)
    with np.errstate(all="ignore"):  # what overflows is sent to +inf below
        for start, stop in zip(bounds, bounds[1:]):
            u = synthesize_batch(benchmark, fields[:, :, start:stop])
            y = simulate_batch(benchmark, u, {name: v[start:stop] for name, v in statics.items()})
            for formula, first, end in runs:
                mine = slice(max(first, start) - start, min(end, stop) - start)
                if mine.start < mine.stop:
                    channels = dict(zip(benchmark.output_names, y[mine].transpose(1, 0, 2)))
                    channels.update(zip(benchmark.input_names, u[mine].transpose(1, 0, 2)))
                    values[start:stop][mine] = stl.robustness_batch(
                        formula, channels, benchmark.dt, semantics)
            finite = np.isfinite(y).all(axis=(1, 2)) & np.isfinite(u).all(axis=(1, 2))
            values[start:stop][~(finite & np.isfinite(values[start:stop]))] = math.inf
            del u, y, channels  # channels holds views of both: free the chunk before the next
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

    The witness is scored by :func:`score_blocks`, which scores the points
    of every search, as a block of one, so the value equals the one the
    search recorded bit for bit.  A witness whose simulation diverges
    scores +inf, as in :func:`batch_objective`; no ``SimulationError`` is
    raised.
    """
    fields = np.array([dataclasses.astuple(witness.pulses[channel])
                       for channel in benchmark.input_names])[:, :, None]
    statics = {name: np.array([value]) for name, value in witness.static_values.items()}
    return float(score_blocks(benchmark, [(spec_name, fields, statics)], semantics)[0])
