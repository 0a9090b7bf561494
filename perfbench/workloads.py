"""One benchmark workload in its own process: set-up, timed rounds, checks.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S [--trace]
    python3 perfbench/workloads.py --workload NAME --setup-only

``run.py`` starts this script; it prints one JSON object as the last line
of its standard output.  A round is the workload's whole set of operations,
run as a closed loop (each search or command starts when the previous one
ends).  Rounds repeat while another round still fits in ``--seconds``; at
least one runs.  Every round does the same operations on the same inputs,
so its outputs must equal the first round's, which the checks compare
against the independent reference in ``reference.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import reference as ref
import tracing

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("sweep_random", "turbo_holds", "turbo_masks", "monitor_until")
NPROC = len(os.sched_getaffinity(0))

SWEEP_BENCHMARKS = ("lag", "cc", "dsm", "ss")
SWEEP_REPS = 1
SWEEP_BUDGET = 200
SWEEP_WORKERS = min(2, NPROC)
# Unfalsified sweep cells rescored in full by the reference, per run.
SWEEP_SAMPLED = 3
TURBO_BUDGET = 1000  # the default --budget of `pulsefalsify run`
HOLDS = ("lag", "phi2", "L-P-W-H-D")
MASK_SPECS = (("lag", "phi1"), ("cc", "phi2"), ("dsm", "phi1"), ("ss", "phi1"))
MASK_REPS = 20

# monitor_until: generated traces of three channels on a 0.1 s grid.
MONITOR_TRACES = 2
MONITOR_SAMPLES = 401
MONITOR_DT = 0.1


def _atom(text, coeffs, constant):
    return ("atom", tuple(coeffs.items()), constant, text)


_X1_LOW = _atom("x1 <= 0.7", {"x1": -1.0}, 0.7)
MONITOR_FORMULAS = (
    ("U", 0.0, 5.0, _X1_LOW, _atom("x2 >= 0.6", {"x2": 1.0}, -0.6)),
    ("alw", 0.0, 20.0, ("->", _atom("x1 >= 0.8", {"x1": 1.0}, -0.8),
                        ("ev", 0.0, 3.0, _atom("x2 <= 0.4", {"x2": -1.0}, 0.4)))),
    ("ev", 0.0, 10.0, ("and", (
        ("U", 1.0, 4.0, _atom("x2 <= 0.8", {"x2": -1.0}, 0.8),
         _atom("x1 + x3 >= 1.2", {"x1": 1.0, "x3": 1.0}, -1.2)),
        ("not", _atom("x3 <= 0.1", {"x3": -1.0}, 0.1))))),
    ("U", 2.0, 6.0, ("or", (_atom("x3 >= 0.2", {"x3": 1.0}, -0.2), _atom("x1 <= 0.5", {"x1": -1.0}, 0.5))),
     ("alw", 0.0, 2.0, _atom("x2 - x1 >= -0.3", {"x2": 1.0, "x1": -1.0}, 0.3))),
    ("alw", 0.0, 30.0, ("or", (("U", 0.0, 3.0, _X1_LOW, _atom("x3 >= 0.5", {"x3": 1.0}, -0.5)),
                               _atom("x2 >= 0.3", {"x2": 1.0}, -0.3)))),
)

# Agreement required between a value of the program and of the reference.
REL_TOL = 1e-9


def close(a: float, b: float, printed: bool = False) -> bool:
    """Agreement within 1e-9 relative; a value printed with nine significant
    digits may also be off by half a unit in its ninth digit."""
    return abs(a - b) <= REL_TOL * max(1.0, abs(b)) + (5e-9 * abs(b) if printed else 0.0)


# ---------------------------------------------------------------------------
# Set-up: import the package, load the workload's configs, parse its specs


def set_up(workload: str, tracer):
    sys.path.insert(0, str(SOURCE))
    import pulsefalsify as pf
    import pulsefalsify.cli

    if Path(pf.__file__).resolve().parent != SOURCE / "pulsefalsify":
        raise SystemExit(f"pulsefalsify imported from {pf.__file__}, not from {SOURCE}")
    if tracer is not None:
        tracing.install(tracer, pf)
    if workload == "monitor_until":
        texts = [ref.render(f) for f in MONITOR_FORMULAS]
        for text in texts:
            pf.stl.parse(text)
        return pf, {"formulas": texts}
    names = {"sweep_random": SWEEP_BENCHMARKS, "turbo_holds": HOLDS[:1],
             "turbo_masks": [b for b, _ in MASK_SPECS]}[workload]
    return pf, {name: pf.builtin_benchmark(name) for name in names}


# ---------------------------------------------------------------------------
# Workloads.  Each returns (operations per round, run_round, check).  A round
# returns its evaluations and one comparable output per operation; check
# takes the first round's outputs and returns a message per failed
# operation index.  numpy is imported inside functions: importing it is part
# of the timed set-up, through the package.


def sweep_random(pf, state, seed, workdir):
    config = pf.harness.ExperimentConfig(
        benchmarks=tuple(state[name] for name in SWEEP_BENCHMARKS),
        repetitions=SWEEP_REPS, budget=SWEEP_BUDGET, base_seed=seed,
        optimizer="random_search", parallelism=SWEEP_WORKERS,
    )
    cells = sum(len(b.specs) for b in config.benchmarks) * len(config.mask_labels) * SWEEP_REPS

    def run_round():
        records = pf.harness.run_experiment(config)
        pf.harness.write_csvs(records, workdir)
        return sum(r.sims for r in records), records

    def check(records):
        failed = {}
        unfalsified = [i for i, r in enumerate(records) if not r.falsified]
        sampled = random.Random(seed).sample(unfalsified, min(SWEEP_SAMPLED, len(unfalsified)))
        for i, rec in enumerate(records):
            problem = _check_sweep_cell(state[rec.benchmark], rec, i in sampled)
            if problem:
                failed[i] = f"{rec.benchmark}/{rec.spec}/{rec.mask}/{rec.rep}: {problem}"
        problem = _check_tables(records, workdir)
        if problem:
            failed[len(records)] = f"write_csvs: {problem}"
        return failed

    return cells + 1, run_round, check


def _check_sweep_cell(benchmark, rec, rescore_all: bool) -> str | None:
    if rec.error is not None:
        return f"error {rec.error}"
    if not 1 <= rec.sims <= SWEEP_BUDGET:
        return f"sims {rec.sims} outside [1, {SWEEP_BUDGET}]"
    if rec.falsified != (rec.best_robustness < 0):
        return f"falsified={rec.falsified} with best {rec.best_robustness}"
    if not rec.falsified and rec.sims != SWEEP_BUDGET:
        return f"unfalsified after {rec.sims} of {SWEEP_BUDGET} simulations"
    if (rec.benchmark, rec.spec) == ("lag", "phi2") and (rec.falsified or rec.best_robustness < 1):
        return f"lag phi2 has best value {rec.best_robustness} < 1"
    if not (rec.falsified or rescore_all):
        return None
    # Random search draws i.i.d. points from one stream seeded by the cell.
    import numpy as np

    dim = len(rec.mask.split("-")) * len(benchmark.inputs)
    points = np.random.default_rng(rec.seed).random((rec.sims, dim))
    values = []
    for point in points:
        values.append(ref.score(benchmark, rec.spec, rec.mask, point))
        if values[-1] < 0:
            break
    if len(values) != rec.sims:
        return f"reference stops at {len(values)}, the search at {rec.sims}"
    if not close(rec.best_robustness, min(values)):
        return f"best {rec.best_robustness}, reference {min(values)}"
    return None


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _check_tables(records, workdir) -> str | None:
    """results.csv must hold the records; aggregate, coverage and cactus
    must equal their recomputation from results.csv."""
    header, *rows = _read_csv(workdir / "results.csv")
    written = [[r.benchmark, r.spec, r.mask, str(r.rep), str(r.seed), str(r.falsified).lower(),
                str(r.sims), repr(r.best_robustness)] for r in records]
    if rows != written:
        return "results.csv differs from the run records"
    rows = [dict(zip(header, row)) for row in rows]
    groups: dict[tuple, list] = {}
    for r in rows:
        groups.setdefault((r["benchmark"], r["spec"], r["mask"]), []).append(r)
    aggregate = [["benchmark", "spec", "mask", "success_rate", "mean_sims"]]
    for key in sorted(groups):
        wins = [int(r["sims"]) for r in groups[key] if r["falsified"] == "true"]
        mean = str(math.floor(sum(wins) / len(wins) + 0.5)) if wins else "-"
        aggregate.append([*key, repr(100.0 * len(wins) / len(groups[key])), mean])
    specs = sorted({(r["benchmark"], r["spec"]) for r in rows})
    wins = {(r["benchmark"], r["spec"], r["mask"]) for r in rows if r["falsified"] == "true"}
    coverage = []
    for size in range(1, 6):
        for combo in itertools.combinations("LPWHD", size):
            label = "-".join(combo)
            covered = sum(
                any((b, s, p) in wins for p in combo) or (b, s, label) in wins for b, s in specs)
            coverage.append((size, label, covered))
    coverage = [["size", "mask", "specs_covered"]] + [[str(v) for v in row] for row in sorted(coverage)]
    cactus = [["mask", "rank", "sims"]]
    for mask in sorted({r["mask"] for r in rows}):
        sims = sorted(int(r["sims"]) for r in rows if r["mask"] == mask and r["falsified"] == "true")
        cactus += [[mask, str(rank), str(n)] for rank, n in enumerate(sims, start=1)]
    for name, expected in (("aggregate", aggregate), ("coverage", coverage), ("cactus", cactus)):
        if _read_csv(workdir / f"{name}.csv") != expected:
            return f"{name}.csv differs from its recomputation from results.csv"
    return None


def _turbo(pf, benchmark, spec, mask, seed):
    config = pf.optimizers.OptimizerConfig(kind="turbo_lite", budget=TURBO_BUDGET, seed=seed)
    return pf.falsification.falsify(benchmark, spec, pf.falsification.FreeMask.from_label(mask), config)


def turbo_holds(pf, state, seed, workdir):
    bench_name, spec, mask = HOLDS
    benchmark = state[bench_name]
    # Keep the points the search scores: the outcome of an unfalsified
    # search carries its best value but not its best point.
    scored = []
    factory = pf.falsification.batch_objective

    def recording_factory(*args, **kwargs):
        objective = factory(*args, **kwargs)

        def recorded(points):
            values = objective(points)
            scored.append((points, values))
            return values

        return recorded

    pf.falsification.batch_objective = recording_factory

    def run_round():
        scored.clear()
        outcome = _turbo(pf, benchmark, spec, mask, seed)
        return outcome.simulations_used, [(outcome.falsified, outcome.simulations_used,
                                           outcome.best_robustness, tuple(outcome.history))]

    def check(outputs):
        falsified, sims, best, history = outputs[0]
        problem = None
        if falsified or sims != TURBO_BUDGET or len(history) != TURBO_BUDGET:
            problem = f"falsified={falsified} after {sims} simulations"
        elif min(history) < 1:
            problem = f"history value {min(history)} < 1"
        else:
            points, values = min(scored, key=lambda pv: pv[1][0])
            rescored = ref.score(benchmark, spec, mask, points[0])
            if values[0] != best or not close(best, rescored):
                problem = f"best {best}, recorded {values[0]}, reference {rescored}"
        return {0: problem} if problem else {}

    return 1, run_round, check


def turbo_masks(pf, state, seed, workdir):
    cells = [(b, s, m, rep) for b, s in MASK_SPECS
             for m in pf.harness.SWEEP_MASK_LABELS for rep in range(MASK_REPS)]

    outcomes = []

    def run_round():
        outcomes[:] = [_turbo(pf, state[b], s, m, pf.harness.cell_seed(seed, b, s, m, rep))
                       for b, s, m, rep in cells]
        return (sum(o.simulations_used for o in outcomes),
                [(o.falsified, o.simulations_used, o.best_robustness) for o in outcomes])

    def check(outputs):
        failed = {}
        for i, ((b, s, m, rep), o) in enumerate(zip(cells, outcomes)):
            problem = None
            if not 1 <= o.simulations_used <= TURBO_BUDGET:
                problem = f"sims {o.simulations_used}"
            elif o.falsified:
                rescored = ref.score(state[b], s, m, o.witness.point)
                replay = pf.falsification.evaluate_witness(state[b], s, o.witness)
                if not (rescored < 0 and close(o.best_robustness, rescored)):
                    problem = f"witness {o.best_robustness}, reference {rescored}"
                elif replay != o.best_robustness:
                    problem = f"witness {o.best_robustness}, replayed {replay}"
            elif o.simulations_used != TURBO_BUDGET or o.best_robustness < 0:
                problem = f"unfalsified after {o.simulations_used} simulations"
            if problem:
                failed[i] = f"{b}/{s}/{m}/{rep}: {problem}"
        return failed

    return len(cells), run_round, check


def _monitor_traces(seed: int, workdir: Path) -> list[tuple[Path, dict]]:
    """Random walks in [0, 1], one stream per trace, written as CSV."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    for k in range(MONITOR_TRACES):
        steps = rng.normal(0.0, 0.08, (3, MONITOR_SAMPLES))
        walks = np.clip(0.5 + np.cumsum(steps, axis=1), 0.0, 1.0)
        channels = {f"x{i + 1}": [float(v) for v in walks[i]] for i in range(3)}
        path = workdir / f"trace{k}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", *channels])
            for i in range(MONITOR_SAMPLES):
                writer.writerow([repr(i * MONITOR_DT)] + [repr(c[i]) for c in channels.values()])
        out.append((path, channels))
    return out


def monitor_until(pf, state, seed, workdir):
    traces = _monitor_traces(seed, workdir)
    commands = [(k, j) for k in range(len(traces)) for j in range(len(MONITOR_FORMULAS))]

    def run_round():
        outputs = []
        for k, j in commands:
            text = state["formulas"][j]
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = pf.cli.main(["monitor", "--spec", text, "--trace", str(traces[k][0])])
            outputs.append((code, buffer.getvalue()))
        return 2 * len(commands), outputs

    def check(outputs):
        failed = {}
        for i, ((k, j), (code, text)) in enumerate(zip(commands, outputs)):
            values = [float(line.split(":")[1]) for line in text.splitlines()]
            expected = [ref.robustness(MONITOR_FORMULAS[j], traces[k][1], MONITOR_DT, 0, additive)
                        for additive in (False, True)]
            if code != 0 or len(values) != 2:
                failed[i] = f"trace{k} formula {j}: exit {code}, output {text!r}"
            elif not all(close(v, e, printed=True) for v, e in zip(values, expected)):
                failed[i] = f"trace{k} formula {j}: printed {values}, reference {expected}"
            elif (values[0] < 0) != (values[1] < 0) or (values[0] > 0) != (values[1] > 0):
                failed[i] = f"trace{k} formula {j}: signs differ in {values}"
        return failed

    return len(commands), run_round, check


# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for
    child (worker processes), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true", help="record spans, report per-layer metrics")
    parser.add_argument("--setup-only", action="store_true", help="time the set-up and stop")
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    pf, state = set_up(args.workload, tracer)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as workdir:
        result = run(args, pf, state, tracer, Path(workdir))
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


def run(args, pf, state, tracer, workdir: Path) -> dict:
    """The timed rounds and the checks of one workload.

    With a tracer, rounds alternate untraced and traced, starting untraced,
    for twice ``--seconds`` and at least one round of each; ``wall_s`` comes
    from the untraced rounds and the spans from the traced ones.
    """
    import numpy as np

    operations, run_round, check = globals()[args.workload](pf, state, args.seed, workdir)
    kinds = (False, True) if tracer is not None else (False,)
    budget = args.seconds * len(kinds)
    round_s = {kind: [] for kind in kinds}
    first, differs = None, set()

    def elapsed():
        return sum(map(sum, round_s.values()))

    while not all(round_s.values()) or elapsed() + max(map(statistics.median, round_s.values())) <= budget:
        traced = kinds[sum(map(len, round_s.values())) % len(kinds)]
        if tracer is not None:
            tracer.phase, tracer.enabled = "rounds", traced
        t = time.perf_counter()
        evaluations, outputs = run_round()
        round_s[traced].append(time.perf_counter() - t)
        if first is None:
            first = (evaluations, outputs)
        else:
            differs |= {i for i, (a, b) in enumerate(zip(first[1], outputs)) if a != b}
    peak = peak_rss_mb()
    if tracer is not None:
        tracer.enabled = False

    failed = check(first[1])
    for i in differs - set(failed):
        failed[i] = f"operation {i} gave another output in a later round"
    for message in sorted(failed.values()):
        print(f"FAILED {message}", file=sys.stderr)

    rounds = sum(map(len, round_s.values()))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "round_s": round_s[False],
        "wall_s": statistics.median(round_s[False]),
        "evaluations": first[0],
        "peak_rss_mb": peak,
        "attempted": operations * rounds,
        "failed": len(failed) * rounds,
        "correct": not failed,
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if tracer is not None:
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        traced_s = round_s[True]
        workers = SWEEP_WORKERS if args.workload == "sweep_random" else 1
        result["per_layer"] = tracing.per_layer(
            tracer.spans, len(traced_s), sum(traced_s), workers, first[0])
        result["per_layer"]["trace.overhead_s"] = statistics.median(traced_s) - result["wall_s"]
        result["spans"] = str(spans_path.relative_to(ROOT))
    return result


if __name__ == "__main__":
    sys.exit(main())
