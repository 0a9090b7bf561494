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
values are recorded as +inf and the search continues.  Both score their
points in blocks of 1, 2, 4, ..., ``MAX_BLOCK``, ``MAX_BLOCK``, ... rows and
record them in order up to the first negative value; every point of a block
is drawn before the block is scored, so blocks never change a result.  A
search keeps its scored points and values in two arrays that grow by
doubling, and turbo_lite reads its phase as slices of them; the
:class:`EvalRecord` history is built once, when the search ends, from a copy
of the rows used, so no record keeps a working array alive.

Each optimizer is an ask/tell machine (the interface of Hansen, "The CMA
Evolution Strategy: A Tutorial", arXiv:1604.00772): :func:`searcher` returns
a generator that yields a (k, dim) block of points, is sent their k values,
and returns the :class:`OptimizationResult` when it stops.  :func:`lockstep`
runs every search: it steps many machines side by side and scores all their
pending blocks in one call.  :func:`minimize` is a lockstep of one machine.
"""

from __future__ import annotations

import math
import operator
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
    "searcher",
    "lockstep",
    "minimize",
    "MAX_BLOCK",
]

# The widest block an optimizer asks to have scored.  A lockstep campaign
# scores the blocks of many searches together, in chunks under a ceiling set
# by trace memory that is never below this (``falsification._chunk_rows``).
MAX_BLOCK = 64
# Rows a search's point and value arrays hold before they first grow: most
# searches of a mask sweep stop within a few evaluations.
_FIRST_CAPACITY = 16


def as_integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as a Python int, if it is an integer (a Python or numpy
    one, not a bool) of at least ``minimum``; otherwise ValueError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return value


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings shared by both optimizer kinds.

    ``init_samples=None`` means "twice the dimension", resolved when the
    search starts.  ``budget``, ``init_samples`` and ``seed`` must be
    integers (numpy ones are stored as Python ints), and ``seed`` >= 0.
    """

    kind: str = "turbo_lite"
    budget: int = 1000
    init_samples: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("random_search", "turbo_lite"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        object.__setattr__(self, "budget", as_integer("budget", self.budget, 1))
        if self.init_samples is not None:
            object.__setattr__(self, "init_samples",
                               as_integer("init_samples", self.init_samples, 1))
        object.__setattr__(self, "seed", as_integer("seed", self.seed, 0))

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
    """Evaluation bookkeeping with stop-on-negative: the one place that
    asks for points to be scored.  The scored points and their values are
    kept in two arrays that grow by doubling, and ``points[:used]`` and
    ``values[:used]`` are the search so far."""

    def __init__(self, budget: int, dim: int):
        self.budget = budget
        capacity = min(budget, _FIRST_CAPACITY)
        self.points = np.empty((capacity, dim))
        self.values = np.empty(capacity)
        self.used = 0
        self.negative = False

    @property
    def exhausted(self) -> bool:
        return self.negative or self.used >= self.budget

    @property
    def block(self) -> int:
        """Rows in the next scored block.  The blocks double, so the work
        spent past the first negative value never exceeds the work before
        it until the size stops at ``MAX_BLOCK``."""
        return min(self.used + 1, MAX_BLOCK, self.budget - self.used)

    def _reserve(self, rows: int) -> None:
        capacity = len(self.values)
        if rows > capacity:
            capacity = min(max(rows, 2 * capacity), self.budget)
            points, values = self.points, self.values
            self.points = np.empty((capacity, points.shape[1]))
            self.values = np.empty(capacity)
            self.points[:self.used] = points[:self.used]
            self.values[:self.used] = values[:self.used]

    def evaluate(self, points: np.ndarray):
        """Yield (k, dim) points in blocks, receive each block's values and
        record them in order, up to the first negative value or the end of
        the budget; the values of any later points are discarded.  Fewer
        values, none negative, or more values than points raise
        ``ValueError``."""
        # a copy: a caller may keep a block, which must not pin turbo's candidates
        points = np.array(points, dtype=float)
        start = 0
        while start < len(points) and not self.exhausted:
            chunk = points[start:start + self.block]
            start += len(chunk)
            values = yield chunk
            first = self.used
            self._reserve(first + len(chunk))
            for value in values[:len(chunk)]:
                value = float(value) if math.isfinite(value) else math.inf
                self.values[self.used] = value
                self.used += 1
                if value < 0:
                    self.negative = True
                    break
            if len(values) > len(chunk) or (len(values) < len(chunk) and not self.negative):
                raise ValueError(f"objective returned {len(values)} values "
                                 f"for {len(chunk)} points")
            self.points[first:self.used] = chunk[:self.used - first]

    def result(self) -> OptimizationResult:
        """The search so far.  Its records are built here from a copy of
        the used rows, so none of them keeps a working array alive."""
        points = self.points[:self.used].copy()
        values = self.values[:self.used].tolist()
        history = [EvalRecord(point=point, value=value, index=index)
                   for index, (point, value) in enumerate(zip(points, values), 1)]
        return OptimizationResult(
            best=history[values.index(min(values))],  # the first of equal values
            history=history,
            stopped_early=self.negative,
            evaluations_used=self.used,
        )


def random_search(objective, dim: int, config: OptimizerConfig) -> OptimizationResult:
    """Uniform random sampling until the objective goes negative or the
    budget runs out.

    All points come from one seeded stream, and ``objective`` scores them
    one at a time, never past the first negative value.
    """
    return minimize(objective, dim, replace(config, kind="random_search"))


def _random_search(dim: int, config: OptimizerConfig):
    rng = np.random.default_rng(config.seed)
    tracker = _Budget(config.budget, dim)
    while not tracker.exhausted:
        yield from tracker.evaluate(rng.random((tracker.block, dim)))
    return tracker.result()


class RbfSurrogate:
    """Cubic radial-basis interpolant with a linear polynomial tail."""

    def __init__(self, points: np.ndarray, weights: np.ndarray, tail: np.ndarray):
        self.points = points
        self.weights = weights
        self.tail = tail  # (1 + dim,) coefficients: constant then linear

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        phi = _distances(x, self.points)
        np.power(phi, 3, out=phi)
        return phi @ self.weights + self.tail[0] + x @ self.tail[1:]


def _distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of x (m, dim) and y (n, dim).

    The squared differences are summed one coordinate at a time into an
    (m, n) array, with one (m, n) scratch array, so no (m, n, dim) array is
    built.  Up to dim 7 the sums run in the order ``np.linalg.norm`` uses,
    and the result equals it bit for bit; the diagonal of
    ``_distances(x, x)`` is exactly 0.

    A coordinate's differences are the rank-2 product [x_d, 1] @ [1, -y_d],
    which BLAS forms faster than numpy broadcasts a subtraction.  Both
    products in each entry are exact, so in double arithmetic the entry is
    one rounding of x_d - y_d, in any summation order: the subtraction's
    own bits, up to the sign of a zero, which the square drops.
    """
    left, right = np.ones((len(x), 2)), np.ones((2, len(y)))
    squared, term = np.empty((len(x), len(y))), np.empty((len(x), len(y)))
    for d in range(x.shape[1]):
        left[:, 0] = x[:, d]
        np.negative(y[:, d], out=right[1])
        out = term if d else squared
        np.matmul(left, right, out=out)
        np.square(out, out=out)
        if d:
            squared += term
    return np.sqrt(squared, out=squared)


def fit_surrogate(points: np.ndarray, values: np.ndarray) -> RbfSurrogate:
    """Exact cubic-RBF interpolant of (points, values).

    A singular system gets a small ridge on the kernel block; if it stays
    unsolvable, or all values coincide, ``SurrogateDegeneracy`` is raised.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    n, dim = points.shape
    if n < 2 or (points == points[0]).all():
        raise SurrogateDegeneracy("need at least 2 distinct points")
    if values.max() - values.min() == 0.0:
        raise SurrogateDegeneracy("all objective values identical")
    # [[phi, 1, x], [(1, x)^T, 0]] beside the right-hand side [values, 0]
    size = n + dim + 1
    system = np.zeros((size, size + 1))
    a, rhs = system[:, :size], system[:, size]
    phi = _distances(points, points)  # a contiguous block is faster to fill than a[:n, :n]
    a[:n, :n] = np.power(phi, 3, out=phi)
    a[:n, n] = 1.0
    a[:n, n + 1:] = points
    a[n:, :n] = a[:n, n:].T
    rhs[:n] = values
    for attempt in range(2):
        if attempt:
            a[:n, :n] += 1e-8 * np.eye(n)  # the ridge, on the second attempt only
        try:
            sol = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.isfinite(sol).all():
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
    degenerate.  Each hypercube is scored in blocks and each pick as a block
    of one, as in :func:`random_search`.
    """
    return minimize(objective, dim, replace(config, kind="turbo_lite"))


def _turbo_lite(dim: int, config: OptimizerConfig):
    config = config.resolve(dim)
    if config.budget < config.init_samples:
        raise ValueError(
            f"budget {config.budget} smaller than init_samples {config.init_samples}"
        )
    rng = np.random.default_rng(config.seed)
    tracker = _Budget(config.budget, dim)
    n_cand = min(_CANDIDATES_PER_DIM * dim, _CANDIDATES_CAP)
    phase_start = 0
    yield from tracker.evaluate(latin_hypercube(config.init_samples, dim, rng))
    side = _TR_INITIAL
    successes = failures = 0
    restarts = fits = degenerate = 0
    while not tracker.exhausted:
        points = tracker.points[phase_start:tracker.used]
        values = tracker.values[phase_start:tracker.used]
        best = int(values.argmin())  # the first of equal values
        incumbent, incumbent_value = points[best], values[best]
        if values.max() == math.inf:  # the fit sees the finite values only
            finite = np.isfinite(values)
            points, values = points[finite], values[finite]
        fits += 1
        try:
            surrogate = fit_surrogate(points, values)
        except SurrogateDegeneracy:
            surrogate = None
            degenerate += 1
        lo = np.clip(incumbent - side / 2, 0.0, 1.0)
        hi = np.clip(incumbent + side / 2, 0.0, 1.0)
        candidates = lo + rng.random((n_cand, dim)) * (hi - lo)
        if surrogate is not None:
            pick = candidates[int(surrogate.predict(candidates).argmin())]
        else:
            pick = candidates[0]
        yield from tracker.evaluate(pick[None])
        if tracker.values[tracker.used - 1] < incumbent_value:
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
            phase_start = tracker.used
            yield from tracker.evaluate(latin_hypercube(config.init_samples, dim, rng))
    return replace(tracker.result(), restarts=restarts, surrogate_fits=fits,
                   degenerate_fits=degenerate)


def searcher(dim: int, config: OptimizerConfig):
    """The ask/tell machine of ``config.kind`` on [0, 1]^dim: a generator
    that yields a (k, dim) block of points, is sent their k objective
    values, and returns the :class:`OptimizationResult`.  Its checks run at
    the first ``next``, before any point is asked for."""
    return (_random_search if config.kind == "random_search" else _turbo_lite)(dim, config)


def lockstep(machines, score) -> list:
    """Step ask/tell machines side by side, each to its end.  At each step
    ``score`` gets the ``(index, block)`` pairs of the live machines in index
    order and returns all their rows' values; each machine is told its slice,
    the last one the rest, so a wrong count reaches its checks.  An exception
    from ``score`` is thrown into every live machine.  Returns, per machine,
    its return value or the exception it raised."""
    outcomes, asked = [None] * len(machines), {}

    def tell(index, values):
        try:
            asked[index] = (machines[index].throw(values) if isinstance(values, Exception)
                            else machines[index].send(values))
        except StopIteration as done:
            outcomes[index] = done.value
        except Exception as exc:
            outcomes[index] = exc

    for index in range(len(machines)):
        tell(index, None)  # sending None starts a machine
    while asked:
        pending, asked = list(asked.items()), {}
        try:
            values = score(pending)
        except Exception as exc:
            for index, _ in pending:
                tell(index, exc)
            continue
        start = 0
        for index, block in pending[:-1]:
            tell(index, values[start:start + len(block)])
            start += len(block)
        tell(pending[-1][0], values[start:])
    return outcomes


def minimize(objective, dim: int, config: OptimizerConfig,
             batch_objective=None) -> OptimizationResult:
    """Run the machine of ``config.kind``: a :func:`lockstep` of one that
    re-raises.  Its blocks are scored by ``batch_objective``, which maps a
    (B, dim) block onto B values, and without it by the scalar
    ``objective`` point by point, never past the first negative value.
    Blocks never change the result."""
    if batch_objective is None:
        def batch_objective(points):
            values = []
            for point in points:
                values.append(objective(point))
                if -math.inf < values[-1] < 0:  # the value the machine stops at
                    break
            return values

    [outcome] = lockstep([searcher(dim, config)], lambda pending: batch_objective(pending[0][1]))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
