"""Experiment harness: seeded repetitions, aggregation, CSV emission.

An experiment runs every (spec, mask, repetition) cell with a seed derived
from the base seed and a stable hash of the cell key, so results are
reproducible and independent of execution order.  Cells run serially in
one thread; ``ExperimentConfig.parallelism`` is accepted for compatibility
and does not change how the cells run.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

from .falsification import FreeMask, PulseParam, falsify
from .optimizers import OptimizerConfig
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
]

# The twelve mask combinations used in the dimensionality study.
SWEEP_MASK_LABELS = (
    "L", "P", "W", "H", "D",
    "L-P", "L-W", "P-W",
    "L-P-W", "L-P-W-H", "L-P-W-D", "L-P-W-H-D",
)

_PARAM_LETTERS = tuple(p.value for p in PulseParam)


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
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if not self.mask_labels:
            raise ValueError("mask list must be non-empty")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        labels = tuple(FreeMask.from_label(label).label for label in self.mask_labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"mask list names one mask twice: {list(self.mask_labels)}")
        object.__setattr__(self, "mask_labels", labels)


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
    runs: tuple[RunRecord, ...]


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


def _cells(config: ExperimentConfig):
    for benchmark in config.benchmarks:
        specs = config.spec_names or tuple(sorted(benchmark.specs))
        for spec in specs:
            if spec not in benchmark.specs:
                raise KeyError(f"benchmark {benchmark.name!r} has no spec {spec!r}")
            for mask in config.mask_labels:
                for rep in range(config.repetitions):
                    yield benchmark, spec, mask, rep


def _run_cell(benchmark: Benchmark, spec: str, mask_label: str, rep: int,
              config: ExperimentConfig) -> RunRecord:
    seed = cell_seed(config.base_seed, benchmark.name, spec, mask_label, rep)
    mask = FreeMask.from_label(mask_label)
    opt = OptimizerConfig(kind=config.optimizer, budget=config.budget, seed=seed)
    try:
        outcome = falsify(benchmark, spec, mask, opt, config.semantics)
    except Exception as exc:  # captured as a failed run, not a crash
        return RunRecord(
            benchmark=benchmark.name, spec=spec, mask=mask_label, rep=rep, seed=seed,
            falsified=False, sims=0, best_robustness=math.nan,
            error=f"{type(exc).__name__}: {exc}",
        )
    return RunRecord(
        benchmark=benchmark.name, spec=spec, mask=mask_label, rep=rep, seed=seed,
        falsified=outcome.falsified, sims=outcome.simulations_used,
        best_robustness=outcome.best_robustness,
    )


def run_experiment(config: ExperimentConfig) -> list[RunRecord]:
    """Run all cells, one after another; the result list is sorted by cell
    key."""
    cells = list(_cells(config))  # raises on an unknown spec before any cell runs
    records = [_run_cell(b, s, m, r, config) for b, s, m, r in cells]
    records.sort(key=lambda rec: (rec.benchmark, rec.spec, rec.mask, rec.rep))
    return records


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def aggregate(results: list[RunRecord]) -> list[AggregateRow]:
    """Per (benchmark, spec, mask): success rate in percent and the rounded
    mean simulation count over successful runs."""
    rows = []
    keyfn = lambda rec: (rec.benchmark, rec.spec, rec.mask)
    for (bench, spec, mask), group in itertools.groupby(sorted(results, key=keyfn), keyfn):
        runs = tuple(group)
        successes = [rec for rec in runs if rec.falsified]
        rate = 100.0 * len(successes) / len(runs)
        mean = (
            _round_half_up(sum(rec.sims for rec in successes) / len(successes))
            if successes
            else None
        )
        rows.append(
            AggregateRow(
                benchmark=bench, spec=spec, mask=mask,
                success_rate=rate, mean_sims_successful=mean, runs=runs,
            )
        )
    return rows


def render_cell(row: AggregateRow) -> str:
    """Table-cell rendering: "100 (6)", "60 (184)", or "0 (-)"."""
    rate = row.success_rate
    rate_text = str(int(rate)) if float(rate).is_integer() else f"{rate:g}"
    if row.mean_sims_successful is None:
        return f"{rate_text} (-)"
    return f"{rate_text} ({row.mean_sims_successful})"


def single_param_successes(results: list[RunRecord]) -> dict[tuple[str, str], set[str]]:
    """(benchmark, spec) -> set of single-parameter mask labels with at
    least one successful repetition."""
    out: dict[tuple[str, str], set[str]] = {}
    for rec in results:
        out.setdefault((rec.benchmark, rec.spec), set())
        if rec.mask in _PARAM_LETTERS and rec.falsified:
            out[(rec.benchmark, rec.spec)].add(rec.mask)
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
    own_success: dict[tuple, bool] = {}
    for rec in all_results or []:
        key = ((rec.benchmark, rec.spec), rec.mask)
        own_success[key] = own_success.get(key, False) or rec.falsified
    counts: dict[str, int] = {}
    for size in range(1, 6):
        for combo in itertools.combinations(_PARAM_LETTERS, size):
            label = "-".join(combo)
            covered = 0
            for spec_key, singles in per_param_success.items():
                if any(p in singles for p in combo) or own_success.get((spec_key, label), False):
                    covered += 1
            counts[label] = covered
    best_by_size: dict[int, tuple[tuple[str, ...], int]] = {}
    for size in range(1, 6):
        labels = ["-".join(c) for c in itertools.combinations(_PARAM_LETTERS, size)]
        top = max(counts[l] for l in labels)
        best_by_size[size] = (tuple(l for l in labels if counts[l] == top), top)
    return CoverageSummary(best_by_size=best_by_size, counts=counts)


def cactus_data(results: list[RunRecord]) -> list[tuple[str, int, int]]:
    """Per mask, successful-run simulation counts sorted ascending and
    paired with their cumulative rank: rows (mask, rank, sims)."""
    rows: list[tuple[str, int, int]] = []
    by_mask: dict[str, list[int]] = {}
    for rec in results:
        if rec.falsified:
            by_mask.setdefault(rec.mask, []).append(rec.sims)
    for mask in sorted(by_mask):
        for rank, sims in enumerate(sorted(by_mask[mask]), start=1):
            rows.append((mask, rank, sims))
    return rows


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format(v) for v in row])


def write_csvs(results: list[RunRecord], out_dir) -> dict[str, Path]:
    """Emit results.csv, aggregate.csv, coverage.csv, and cactus.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    paths["results"] = out / "results.csv"
    _write_csv(
        paths["results"],
        ["benchmark", "spec", "mask", "rep", "seed", "falsified", "sims", "best_robustness"],
        [
            (r.benchmark, r.spec, r.mask, r.rep, r.seed, r.falsified, r.sims, r.best_robustness)
            for r in results
        ],
    )

    agg = aggregate(results)
    paths["aggregate"] = out / "aggregate.csv"
    _write_csv(
        paths["aggregate"],
        ["benchmark", "spec", "mask", "success_rate", "mean_sims"],
        [
            (
                row.benchmark, row.spec, row.mask, row.success_rate,
                "-" if row.mean_sims_successful is None else row.mean_sims_successful,
            )
            for row in agg
        ],
    )

    coverage = combination_coverage(single_param_successes(results), results)
    paths["coverage"] = out / "coverage.csv"
    _write_csv(
        paths["coverage"],
        ["size", "mask", "specs_covered"],
        sorted(
            (label.count("-") + 1, label, count)
            for label, count in coverage.counts.items()
        ),
    )

    paths["cactus"] = out / "cactus.csv"
    _write_csv(paths["cactus"], ["mask", "rank", "sims"], cactus_data(results))
    return paths
