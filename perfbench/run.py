"""Benchmark of falsification campaigns: one workload per fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run it from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` it prints the end-to-end metrics of the workload:
``setup_s`` (median of five fresh processes that import the package, load
the workload's configs and parse its specs), ``wall_s`` (median seconds per
round of the workload's operations), ``evaluations`` (simulations used per
round) and ``peak_rss_mb``.  With ``--trace 1`` one process alternates
untraced and traced rounds, and the command prints the per-layer metrics
of the traced rounds plus ``trace.overhead_s``.  The last line of the output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  BLAS threads are pinned to one in every process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_random", "turbo_holds", "turbo_masks", "monitor_until")
END_TO_END = {"setup_s": "s", "wall_s": "s", "evaluations": "count", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5
# Every run must end within this many seconds.
DEADLINE_S = 170.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or ".cell_s." in metric:
        return "s"
    if ".us_per_row" in metric:
        return "us"
    if metric.endswith("_share"):
        return "ratio"
    return "count"


class ChildFailed(RuntimeError):
    pass


def child(args: list[str], deadline: float) -> dict:
    """Run workloads.py in a fresh process and return its JSON result."""
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True, timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"workloads.py {' '.join(args)} ran out of time")
    if done.returncode != 0:
        raise ChildFailed(f"workloads.py {' '.join(args)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        run = child(common + ["--trace"], deadline)
        metrics = run["per_layer"]
    else:
        setup = ["--workload", workload, "--setup-only"]
        samples = [child(setup, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        run = child(common, deadline)
        metrics = {name: run[name] for name in END_TO_END}
        metrics["setup_s"] = statistics.median(samples + [run["setup_s"]])
    return {
        "info": run,
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": END_TO_END.get(name) or unit_of(name)}
                    for name, value in metrics.items()},
    }


def report(workload: str, result: dict) -> None:
    info = result["info"]
    print(f"# {workload}: seed {info['seed']}, {info['rounds']} round(s), nproc {info['nproc']}, "
          f"python {info['python']}, numpy {info['numpy']}")
    if "spans" in info:
        print(f"# spans written to {info['spans']}")
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{workload} operations attempted {result['attempted']}, failed {result['failed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(name, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
