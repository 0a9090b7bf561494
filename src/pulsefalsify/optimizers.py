"""Black-box minimization over the unit hypercube under an evaluation budget.

Two optimizers share a common result format:

* ``random_search`` -- uniform i.i.d. sampling.
* ``turbo_lite`` -- a single-trust-region surrogate optimizer: a Latin
  hypercube seeds a radial-basis surrogate, candidates are drawn inside an
  axis-aligned trust region around the incumbent, and the region expands on
  streaks of improvements and shrinks on streaks of failures, restarting
  from a fresh hypercube when it collapses.  As in TuRBO (Eriksson et al.,
  NeurIPS 2019), each trust region keeps its own model: the surrogate and
  the incumbent use only the current phase (the evaluations since the
  latest hypercube began), while the history, the budget and the best
  record span all phases.

Both stop as soon as an evaluation goes negative; non-finite objective
values are recorded as +inf and the search continues.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "OptimizerConfig",
    "EvalRecord",
    "OptimizationResult",
    "SurrogateDegeneracy",
    "latin_hypercube",
    "random_search",
    "turbo_lite_minimize",
    "fit_surrogate",
    "minimize",
]


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings shared by both optimizer kinds.

    ``init_samples=None`` means "twice the dimension", resolved when the
    search starts.
    """

    kind: str = "turbo_lite"
    budget: int = 1000
    init_samples: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("random_search", "turbo_lite"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.init_samples is not None and self.init_samples < 1:
            raise ValueError("init_samples must be >= 1")

    def resolve(self, dim: int) -> "OptimizerConfig":
        """Fill in the dimension-dependent default of ``init_samples``."""
        if self.init_samples is None:
            return replace(self, init_samples=2 * dim)
        return self


# turbo_lite's trust-region schedule and candidate count are the published
# TuRBO defaults (Eriksson et al., NeurIPS 2019); the failure tolerance is
# the dimension.
_TR_INITIAL = 0.8
_TR_MIN = 2.0 ** -7
_TR_MAX = 1.6
_SUCCESS_TOLERANCE = 3
_CANDIDATES_PER_DIM = 100
_CANDIDATES_CAP = 5000


@dataclass(frozen=True)
class EvalRecord:
    point: np.ndarray
    value: float
    index: int  # 1-based evaluation ordinal


@dataclass
class OptimizationResult:
    best: EvalRecord
    history: list[EvalRecord]
    stopped_early: bool
    evaluations_used: int
    restarts: int = 0
    surrogate_fits: int = 0  # surrogate fits attempted, degenerate ones included
    degenerate_fits: int = 0  # fits that raised SurrogateDegeneracy


class SurrogateDegeneracy(RuntimeError):
    """The surrogate system cannot be solved (e.g. all values identical)."""


def latin_hypercube(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n points in [0,1]^dim with one point per stratum per coordinate."""
    if n < 1 or dim < 1:
        raise ValueError("latin_hypercube requires n >= 1 and dim >= 1")
    out = np.empty((n, dim))
    for d in range(dim):
        out[:, d] = (rng.permutation(n) + rng.random(n)) / n
    return out


class _Budget:
    """Evaluation bookkeeping with stop-on-negative."""

    def __init__(self, objective, budget: int):
        self.objective = objective
        self.budget = budget
        self.history: list[EvalRecord] = []
        self.negative = False

    @property
    def used(self) -> int:
        return len(self.history)

    @property
    def exhausted(self) -> bool:
        return self.negative or self.used >= self.budget

    def evaluate(self, point: np.ndarray) -> float:
        point = np.array(point, dtype=float)
        return self._record(point, self.objective(point))

    def evaluate_block(self, points: np.ndarray, batch_objective) -> None:
        """Evaluate a block of points at once but record them in order, up
        to the first negative value or the end of the budget; the values of
        any later points are discarded."""
        points = np.array(points[: self.budget - self.used], dtype=float)
        for point, value in zip(points, batch_objective(points)):
            self._record(point, value)
            if self.negative:
                break

    def _record(self, point: np.ndarray, value) -> float:
        value = float(value)
        if not math.isfinite(value):
            value = math.inf
        self.history.append(EvalRecord(point=point, value=value, index=self.used + 1))
        if value < 0:
            self.negative = True
        return value

    def result(self) -> OptimizationResult:
        best = min(self.history, key=lambda r: (r.value, r.index))
        return OptimizationResult(
            best=best,
            history=self.history,
            stopped_early=self.negative,
            evaluations_used=self.used,
        )


# Block sizes random search draws and evaluates with a batch objective: the
# blocks double, so the work spent past the first negative value never
# exceeds the work before it, until the last size repeats.
_RANDOM_SEARCH_BLOCKS = (1, 2, 4, 8, 16, 32, 64)


def random_search(objective, dim: int, config: OptimizerConfig,
                  batch_objective=None) -> OptimizationResult:
    """Uniform random sampling until the objective goes negative or the
    budget runs out.

    ``batch_objective``, when given, maps a (B, dim) block of points onto
    their B objective values.  All points come from one seeded stream, so
    evaluating them in blocks yields the same result as evaluating
    ``objective`` point by point.
    """
    rng = np.random.default_rng(config.seed)
    tracker = _Budget(objective, config.budget)
    if batch_objective is None:
        sizes = itertools.repeat(1)
        batch_objective = lambda points: [objective(points[0])]
    else:
        sizes = itertools.chain(_RANDOM_SEARCH_BLOCKS, itertools.repeat(_RANDOM_SEARCH_BLOCKS[-1]))
    while not tracker.exhausted:
        tracker.evaluate_block(rng.random((next(sizes), dim)), batch_objective)
    return tracker.result()


class RbfSurrogate:
    """Cubic radial-basis interpolant with a linear polynomial tail."""

    def __init__(self, points: np.ndarray, weights: np.ndarray, tail: np.ndarray):
        self.points = points
        self.weights = weights
        self.tail = tail  # (1 + dim,) coefficients: constant then linear

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return _distances(x, self.points) ** 3 @ self.weights + self.tail[0] + x @ self.tail[1:]


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of x (m, dim) and y (n, dim).

    The squared differences are summed one coordinate at a time into an
    (m, n) array, so no (m, n, dim) array is built.  Up to dim 7 the sums
    run in the order ``np.linalg.norm`` uses, and the result equals it bit
    for bit; the diagonal of ``_distances(x, x)`` is exactly 0.
    """
    squared = (x[:, 0, None] - y[None, :, 0]) ** 2
    for d in range(1, x.shape[1]):
        squared += (x[:, d, None] - y[None, :, d]) ** 2
    return np.sqrt(squared)


def fit_surrogate(points: np.ndarray, values: np.ndarray) -> RbfSurrogate:
    """Exact cubic-RBF interpolant of (points, values).

    A singular system gets a small ridge on the kernel block; if it stays
    unsolvable, or all values coincide, ``SurrogateDegeneracy`` is raised.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    n, dim = points.shape
    if n < 2 or len(np.unique(points, axis=0)) < 2:
        raise SurrogateDegeneracy("need at least 2 distinct points")
    if np.ptp(values) == 0.0:
        raise SurrogateDegeneracy("all objective values identical")
    phi = _distances(points, points) ** 3
    poly = np.hstack([np.ones((n, 1)), points])
    size = n + dim + 1
    a = np.zeros((size, size))
    a[:n, :n] = phi
    a[:n, n:] = poly
    a[n:, :n] = poly.T
    rhs = np.concatenate([values, np.zeros(dim + 1)])
    for ridge in (0.0, 1e-8):
        system = a.copy()
        system[:n, :n] += ridge * np.eye(n)
        try:
            sol = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(sol)):
            return RbfSurrogate(points, sol[:n], sol[n:])
    raise SurrogateDegeneracy("surrogate system is singular")


def turbo_lite_minimize(objective, dim: int, config: OptimizerConfig) -> OptimizationResult:
    """Single-trust-region surrogate minimization.

    Latin-hypercube initialization, then one surrogate-guided evaluation per
    step.  The trust region doubles after 3 consecutive improvements, halves
    after ``dim`` consecutive failures, and a collapse below the minimum side
    restarts the search from a fresh hypercube.  A phase runs from one
    hypercube to the next collapse: the surrogate is fitted on the phase's
    finite-valued evaluations and the trust region centres on the phase's
    best point, so a restart forgets the collapsed region.  The history, the
    budget and the best record of the result span all phases.  The result
    counts the restarts, the surrogate fits attempted and those that were
    degenerate.
    """
    config = config.resolve(dim)
    if config.budget < config.init_samples:
        raise ValueError(
            f"budget {config.budget} smaller than init_samples {config.init_samples}"
        )
    rng = np.random.default_rng(config.seed)
    tracker = _Budget(objective, config.budget)
    n_cand = min(_CANDIDATES_PER_DIM * dim, _CANDIDATES_CAP)

    def init_phase() -> int:
        start = tracker.used
        for point in latin_hypercube(config.init_samples, dim, rng):
            if tracker.exhausted:
                break
            tracker.evaluate(point)
        return start

    phase_start = init_phase()
    side = _TR_INITIAL
    successes = failures = 0
    restarts = fits = degenerate = 0
    while not tracker.exhausted:
        phase = tracker.history[phase_start:]
        incumbent = min(phase, key=lambda rec: (rec.value, rec.index))
        points = np.stack([rec.point for rec in phase])
        values = np.array([rec.value for rec in phase])
        fits += 1
        try:
            surrogate = fit_surrogate(points[np.isfinite(values)], values[np.isfinite(values)])
        except SurrogateDegeneracy:
            surrogate = None
            degenerate += 1
        lo = np.clip(incumbent.point - side / 2, 0.0, 1.0)
        hi = np.clip(incumbent.point + side / 2, 0.0, 1.0)
        candidates = lo + rng.random((n_cand, dim)) * (hi - lo)
        if surrogate is not None:
            pick = candidates[int(np.argmin(surrogate.predict(candidates)))]
        else:
            pick = candidates[0]
        value = tracker.evaluate(pick)
        if value < incumbent.value:
            successes += 1
            failures = 0
        else:
            failures += 1
            successes = 0
        if successes >= _SUCCESS_TOLERANCE:
            side = min(2.0 * side, _TR_MAX)
            successes = 0
        if failures >= dim:
            side = side / 2.0
            failures = 0
        if side < _TR_MIN:
            side = _TR_INITIAL
            successes = failures = 0
            restarts += 1
            phase_start = init_phase()
    return replace(tracker.result(), restarts=restarts, surrogate_fits=fits,
                   degenerate_fits=degenerate)


def minimize(objective, dim: int, config: OptimizerConfig,
             batch_objective=None) -> OptimizationResult:
    """Dispatch on ``config.kind``.  Only random search uses
    ``batch_objective`` (see :func:`random_search`)."""
    if config.kind == "random_search":
        return random_search(objective, dim, config, batch_objective)
    return turbo_lite_minimize(objective, dim, config)
