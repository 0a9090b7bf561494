"""Experiment harness: seeded repetitions, aggregation, CSV emission.

An experiment runs every (spec, mask, repetition) cell with a seed derived
from the base seed and a stable hash of the cell key, so results are
reproducible and independent of execution order.  ``ExperimentConfig``
rejects an empty list, a name given twice, a spec that a benchmark lacks,
and a setting a search would reject, before any cell runs.  The cells of one benchmark are
ask/tell searches stepped side by side by ``optimizers.lockstep``, in one
thread: at every step the pending points of all live searches, across
specs, are decoded and scored as one block by
``falsification.score_blocks``, the scorer that ``falsify`` and witness
replay use.  It scores a row that cannot be scored +inf, and rows never
mix, so every search gets the values it would get alone.
``ExperimentConfig.parallelism`` is accepted for compatibility and does not
change how the cells run.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

from . import stl
from .falsification import PARAM_LETTERS, FreeMask, build_param_space, decode_batch, score_blocks
from .optimizers import OptimizerConfig, as_integer, lockstep, searcher
from .systems import Benchmark

__all__ = [
    "SWEEP_MASK_LABELS",
    "ExperimentConfig",
    "RunRecord",
    "AggregateRow",
    "CoverageSummary",
    "cell_seed",
    "run_experiment",
    "aggregate",
    "render_cell",
    "single_param_successes",
    "combination_coverage",
    "cactus_data",
    "write_csvs",
    "write_errors",
]

# The twelve mask combinations used in the dimensionality study.
SWEEP_MASK_LABELS = (
    "L", "P", "W", "H", "D",
    "L-P", "L-W", "P-W",
    "L-P-W", "L-P-W-H", "L-P-W-D", "L-P-W-H-D",
)


@dataclass(frozen=True)
class ExperimentConfig:
    benchmarks: tuple[Benchmark, ...]
    spec_names: tuple[str, ...] | None = None  # None -> all specs per benchmark
    mask_labels: tuple[str, ...] = SWEEP_MASK_LABELS
    repetitions: int = 5
    budget: int = 1000
    base_seed: int = 0
    optimizer: str = "turbo_lite"
    semantics: str = "classic"
    parallelism: int = 1  # validated (>= 1) but unused: cells run serially

    def __post_init__(self) -> None:
        object.__setattr__(self, "repetitions", as_integer("repetitions", self.repetitions, 1))
        object.__setattr__(self, "budget", OptimizerConfig(self.optimizer, self.budget).budget)
        stl._is_additive(self.semantics)  # raises ValueError
        object.__setattr__(self, "base_seed", as_integer("base_seed", self.base_seed))
        object.__setattr__(self, "parallelism", as_integer("parallelism", self.parallelism, 1))
        if isinstance(self.spec_names, str) or isinstance(self.mask_labels, str):
            raise ValueError("spec_names and mask_labels take a sequence of names, not a string")
        labels = tuple(FreeMask.from_label(label).label for label in self.mask_labels)
        object.__setattr__(self, "mask_labels", labels)
        for kind, names in (("benchmark", [b.name for b in self.benchmarks]),
                            ("spec", self.spec_names), ("mask", labels)):
            if names is not None and not names:  # spec_names None means every spec
                raise ValueError(f"{kind} list must be non-empty")
            if names and len(set(names)) != len(names):
                raise ValueError(f"{kind} list names one {kind} twice: {list(names)}")
        for benchmark, spec in itertools.product(self.benchmarks, self.spec_names or ()):
            benchmark.spec(spec)  # raises KeyError


@dataclass(frozen=True)
class RunRecord:
    benchmark: str
    spec: str
    mask: str
    rep: int
    seed: int
    falsified: bool
    sims: int
    best_robustness: float
    error: str | None = None


@dataclass(frozen=True)
class AggregateRow:
    benchmark: str
    spec: str
    mask: str
    success_rate: float  # percent
    mean_sims_successful: int | None


@dataclass(frozen=True)
class CoverageSummary:
    # size -> (best mask labels, specs covered by those masks)
    best_by_size: dict[int, tuple[tuple[str, ...], int]]
    counts: dict[str, int]  # mask label -> specs covered


def cell_seed(base_seed: int, benchmark: str, spec: str, mask: str, rep: int) -> int:
    """Deterministic per-cell seed; adding masks or specs never perturbs
    the seeds of other cells."""
    key = f"{benchmark}|{spec}|{mask}|{rep}".encode()
    digest = hashlib.sha256(key).digest()
    return (base_seed + int.from_bytes(digest[:8], "big")) % (2**63)


def _search(cell: tuple, dimension: int, config: ExperimentConfig):
    """A cell's search as a machine that returns the cell's record, so that
    the search's history is freed when it ends.  An exception, the search's
    or one thrown into it, is captured as a failed run, not a crash."""
    optimizer = OptimizerConfig(kind=config.optimizer, budget=config.budget, seed=cell[4])
    try:
        result = yield from searcher(dimension, optimizer)
    except Exception as exc:
        return RunRecord(*cell, falsified=False, sims=0, best_robustness=math.nan,
                         error=f"{type(exc).__name__}: {exc}")
    return RunRecord(*cell, falsified=result.best.value < 0, sims=result.evaluations_used,
                     best_robustness=result.best.value)


def _run_lockstep(benchmark: Benchmark, config: ExperimentConfig) -> list[RunRecord]:
    """The records of the cells of one benchmark, run in lockstep."""
    specs = config.spec_names or sorted(benchmark.specs)
    spaces = {label: build_param_space(benchmark, FreeMask.from_label(label))
              for label in config.mask_labels}
    cells = [(benchmark.name, spec, label, rep,
              cell_seed(config.base_seed, benchmark.name, spec, label, rep))
             for spec, label, rep in itertools.product(specs, config.mask_labels,
                                                       range(config.repetitions))]
    machines = [_search(cell, spaces[cell[2]].dimension, config) for cell in cells]

    def score(pending):
        blocks = [(cells[i][1], *decode_batch(block, spaces[cells[i][2]])) for i, block in pending]
        return score_blocks(benchmark, blocks, config.semantics)

    return lockstep(machines, score)


def run_experiment(config: ExperimentConfig) -> list[RunRecord]:
    """Run all cells, those of each benchmark in lockstep; the result list
    is sorted by cell key."""
    records = [record for benchmark in config.benchmarks
               for record in _run_lockstep(benchmark, config)]
    records.sort(key=lambda rec: (rec.benchmark, rec.spec, rec.mask, rec.rep))
    return records


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def aggregate(results: list[RunRecord]) -> list[AggregateRow]:
    """Per (benchmark, spec, mask): success rate in percent and the rounded
    mean simulation count over successful runs."""
    rows = []
    keyfn = lambda rec: (rec.benchmark, rec.spec, rec.mask)
    for key, group in itertools.groupby(sorted(results, key=keyfn), keyfn):
        runs = tuple(group)
        sims = [rec.sims for rec in runs if rec.falsified]
        mean = _round_half_up(sum(sims) / len(sims)) if sims else None
        rows.append(AggregateRow(*key, success_rate=100.0 * len(sims) / len(runs),
                                 mean_sims_successful=mean))
    return rows


def render_cell(row: AggregateRow) -> str:
    """Table-cell rendering: "100 (6)", "60 (184)", or "0 (-)"."""
    sims = "-" if row.mean_sims_successful is None else row.mean_sims_successful
    return f"{row.success_rate:g} ({sims})"


def single_param_successes(results: list[RunRecord]) -> dict[tuple[str, str], set[str]]:
    """(benchmark, spec) -> set of single-parameter mask labels with at
    least one successful repetition."""
    out: dict[tuple[str, str], set[str]] = {}
    for rec in results:
        singles = out.setdefault((rec.benchmark, rec.spec), set())
        if rec.mask in PARAM_LETTERS and rec.falsified:
            singles.add(rec.mask)
    return out


def combination_coverage(
    per_param_success: dict, all_results: list[RunRecord] | None = None
) -> CoverageSummary:
    """OR-lifting rule over mask combinations.

    A mask of size k covers a spec if one of its member parameters
    falsified it alone, or if the mask's own experimental run (when
    present in ``all_results``) falsified it.  All 31 non-empty parameter
    subsets are scored; per size the best mask(s) are reported.
    """
    own_success = {((rec.benchmark, rec.spec), rec.mask)
                   for rec in all_results or () if rec.falsified}
    counts: dict[str, int] = {}
    best_by_size: dict[int, tuple[tuple[str, ...], int]] = {}
    for size in range(1, 6):
        best, top = [], -1
        for combo in itertools.combinations(PARAM_LETTERS, size):
            label = "-".join(combo)
            counts[label] = covered = sum(
                any(p in singles for p in combo) or (spec_key, label) in own_success
                for spec_key, singles in per_param_success.items())
            if covered > top:
                best, top = [], covered
            if covered == top:
                best.append(label)
        best_by_size[size] = (tuple(best), top)
    return CoverageSummary(best_by_size=best_by_size, counts=counts)


def cactus_data(results: list[RunRecord]) -> list[tuple[str, int, int]]:
    """Per mask, successful-run simulation counts sorted ascending and
    paired with their cumulative rank: rows (mask, rank, sims)."""
    pairs = sorted((rec.mask, rec.sims) for rec in results if rec.falsified)
    return [(mask, rank, sims)
            for mask, series in itertools.groupby(pairs, lambda pair: pair[0])
            for rank, (_, sims) in enumerate(series, start=1)]


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format(v) for v in row])
    return path


def write_csvs(results: list[RunRecord], out_dir) -> dict[str, Path]:
    """Emit results.csv, aggregate.csv, coverage.csv, and cactus.csv."""
    coverage = combination_coverage(single_param_successes(results), results)
    tables = {
        "results": (
            ["benchmark", "spec", "mask", "rep", "seed", "falsified", "sims", "best_robustness"],
            [(r.benchmark, r.spec, r.mask, r.rep, r.seed, r.falsified, r.sims, r.best_robustness)
             for r in results],
        ),
        "aggregate": (
            ["benchmark", "spec", "mask", "success_rate", "mean_sims"],
            [(row.benchmark, row.spec, row.mask, row.success_rate,
              "-" if row.mean_sims_successful is None else row.mean_sims_successful)
             for row in aggregate(results)],
        ),
        "coverage": (
            ["size", "mask", "specs_covered"],
            sorted((label.count("-") + 1, label, count)
                   for label, count in coverage.counts.items()),
        ),
        "cactus": (["mask", "rank", "sims"], cactus_data(results)),
    }
    return {name: _write_csv(Path(out_dir) / f"{name}.csv", *table)
            for name, table in tables.items()}


def write_errors(results: list[RunRecord], out_dir) -> Path:
    """Emit errors.csv: one row per errored cell, only the header when no
    cell errored."""
    return _write_csv(
        Path(out_dir) / "errors.csv",
        ["benchmark", "spec", "mask", "rep", "seed", "error"],
        [(r.benchmark, r.spec, r.mask, r.rep, r.seed, r.error) for r in results if r.error is not None],
    )
