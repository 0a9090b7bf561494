"""Command-line interface.

Subcommands:

* ``run``      one falsification attempt (spec + mask), optional witness file
* ``sweep``    full experiment over mask combinations, writes four CSVs plus
  ``errors.csv``
* ``monitor``  evaluate an STL spec against a trace CSV (both semantics)
* ``validate`` check a benchmark configuration file

Exit codes: 0 success, 1 falsification not found under ``--expect-falsified``,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import stl
from .falsification import FreeMask, evaluate_witness, falsify
from .harness import ExperimentConfig, SWEEP_MASK_LABELS, run_experiment, write_csvs, write_errors
from .optimizers import OptimizerConfig
from .signals import Signal
from .systems import load_benchmark_file

_OPTIMIZER_NAMES = {"random": "random_search", "random_search": "random_search",
                    "turbo": "turbo_lite", "turbo_lite": "turbo_lite"}


def _load_trace_csv(path: str) -> Signal:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), [])
        body = fh.readlines()
    if not any(line.strip() for line in body):
        raise ValueError(f"trace file {path} has no samples")
    if "time" not in header:
        raise ValueError(f"trace file {path} needs a 'time' column")
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, quotechar='"', ndmin=2)
        if data.shape[1] != len(header):
            raise ValueError(f"the header has {len(header)} columns, the rows {data.shape[1]}")
    except ValueError as exc:
        raise ValueError(_bad_row(path, body, len(header)) or f"trace file {path}: {exc}") from None
    t_idx = header.index("time")
    names = tuple(name for i, name in enumerate(header) if i != t_idx)
    channels = tuple(data[:, i] for i, name in enumerate(header) if i != t_idx)
    try:
        return Signal(times=data[:, t_idx], channels=channels, channel_names=names)
    except ValueError as exc:
        raise ValueError(f"trace file {path}: {exc}") from None


def _bad_row(path: str, body: list[str], width: int) -> str | None:
    """Where and why the first bad row of a trace file's ``body`` fails:
    a row of other than ``width`` values, or a value that is not a number."""
    for line, row in enumerate(csv.reader(body), start=2):
        if row and len(row) != width:
            return (f"trace file {path}, line {line}: the header has {width} columns, "
                    f"this row {len(row)}")
        for value in row:
            try:
                float(value)
            except ValueError:
                return f"trace file {path}, line {line}: {value!r} is not a number"
    return None


def _add_optimizer_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--optimizer", default="turbo",
                        choices=sorted(_OPTIMIZER_NAMES), help="search strategy")
    parser.add_argument("--budget", type=int, default=1000,
                        help="maximum number of simulations")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--semantics", default="classic",
                        choices=["classic", "additive"], help="robustness semantics")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsefalsify",
        description="Falsify STL specifications of dynamical systems with pulse inputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single falsification attempt")
    p_run.add_argument("--benchmark", required=True, help="benchmark JSON file")
    p_run.add_argument("--spec", required=True, help="spec name within the benchmark")
    p_run.add_argument("--mask", required=True, help="free-parameter mask, e.g. W or L-P-W")
    p_run.add_argument("--witness-out", help="write the falsifying input as JSON")
    p_run.add_argument("--expect-falsified", action="store_true",
                       help="exit 1 if no falsifying input is found")
    p_run.add_argument("--include-static", action="store_true",
                       help="expose static parameters to the optimizer")
    _add_optimizer_args(p_run)

    p_sweep = sub.add_parser("sweep", help="full mask-combination experiment")
    p_sweep.add_argument("--benchmark", required=True, action="append",
                         help="benchmark JSON file (repeatable)")
    p_sweep.add_argument("--spec", action="append",
                         help="restrict to these spec names (repeatable; default all)")
    p_sweep.add_argument("--masks", default="sweep",
                         help="'sweep' for the 12 study combinations, or a comma list")
    p_sweep.add_argument("--reps", type=int, default=5, help="repetitions per cell")
    p_sweep.add_argument("--parallel", type=int, default=1,
                         help="accepted for compatibility (>= 1); cells run serially")
    p_sweep.add_argument("--out", required=True, help="output directory for the CSVs")
    _add_optimizer_args(p_sweep)

    p_mon = sub.add_parser("monitor", help="evaluate an STL spec on a trace CSV")
    p_mon.add_argument("--spec", required=True, help="STL specification text")
    p_mon.add_argument("--trace", required=True,
                       help="CSV with a 'time' column plus one column per channel")
    p_mon.add_argument("--t0", type=float, default=0.0, help="evaluation start time")

    p_val = sub.add_parser("validate", help="check a benchmark configuration")
    p_val.add_argument("--benchmark", required=True, help="benchmark JSON file")
    return parser


def _cmd_run(args) -> int:
    benchmark = load_benchmark_file(args.benchmark)
    mask = FreeMask.from_label(args.mask, args.include_static)
    config = OptimizerConfig(kind=_OPTIMIZER_NAMES[args.optimizer],
                             budget=args.budget, seed=args.seed)
    outcome = falsify(benchmark, args.spec, mask, config, args.semantics)
    # A row whose trace or robustness is not finite scores +inf.
    counters = (f"restarts={outcome.restarts} surrogate_fits={outcome.surrogate_fits} "
                f"degenerate_fits={outcome.degenerate_fits} "
                f"diverged={outcome.history.count(math.inf)}")
    if outcome.falsified:
        check = evaluate_witness(benchmark, args.spec, outcome.witness, args.semantics)
        print(f"FALSIFIED {benchmark.name}/{args.spec} mask={mask.label} "
              f"sims={outcome.simulations_used} robustness={outcome.best_robustness:.6g} "
              f"(witness check {check:.6g})")
        print(counters)
        if args.witness_out:
            doc = {
                "benchmark": benchmark.name,
                "spec": args.spec,
                "mask": mask.label,
                "robustness": outcome.best_robustness,
                "point": [float(v) for v in outcome.witness.point],
                "pulses": {ch: dataclasses.asdict(p) for ch, p in outcome.witness.pulses.items()},
                "static_values": outcome.witness.static_values,
            }
            with open(args.witness_out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        return 0
    print(f"NOT FALSIFIED {benchmark.name}/{args.spec} mask={mask.label} "
          f"sims={outcome.simulations_used} best robustness={outcome.best_robustness:.6g}")
    print(counters)
    return 1 if args.expect_falsified else 0


def _cmd_sweep(args) -> int:
    benchmarks = tuple(load_benchmark_file(p) for p in args.benchmark)
    if args.masks == "sweep":
        masks = SWEEP_MASK_LABELS
    else:
        masks = tuple(m.strip() for m in args.masks.split(",") if m.strip())
    config = ExperimentConfig(
        benchmarks=benchmarks,
        spec_names=tuple(args.spec) if args.spec else None,
        mask_labels=masks,
        repetitions=args.reps,
        budget=args.budget,
        base_seed=args.seed,
        optimizer=_OPTIMIZER_NAMES[args.optimizer],
        semantics=args.semantics,
        parallelism=args.parallel,
    )
    results = run_experiment(config)
    paths = write_csvs(results, args.out)
    paths["errors"] = write_errors(results, args.out)
    successes = sum(1 for r in results if r.falsified)
    errors = [r for r in results if r.error is not None]
    for r in errors:
        print(f"{r.benchmark}/{r.spec}/{r.mask}/{r.rep}: {r.error}", file=sys.stderr)
    print(f"{len(results)} runs, {successes} falsified, {len(errors)} errors")
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def _cmd_monitor(args) -> int:
    formula = stl.parse(args.spec)
    trace = _load_trace_csv(args.trace)
    classic = stl.robustness(formula, trace, args.t0, "classic")
    additive = stl.robustness(formula, trace, args.t0, "additive")
    print(f"classic robustness:  {classic:.9g}")
    print(f"additive robustness: {additive:.9g}")
    return 0


def _cmd_validate(args) -> int:
    benchmark = load_benchmark_file(args.benchmark)
    print(f"benchmark {benchmark.name!r}: {len(benchmark.inputs)} input(s), "
          f"horizon {benchmark.horizon} s, dt {benchmark.dt} s, "
          f"{len(benchmark.specs)} spec(s) parsed")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "monitor": _cmd_monitor,
        "validate": _cmd_validate,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, KeyError, OSError, stl.ParseError) as exc:
        # str() of a KeyError is the repr of its one argument, quotes included
        message = str(exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else exc)
        print(f"error: {message or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
