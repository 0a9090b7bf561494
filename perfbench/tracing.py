"""In-memory spans around the package's public functions, and the
per-layer metrics derived from them.

``install`` wraps every public function of the package's modules, the
surrogate's ``predict`` method and the objective that
``falsification.batch_objective`` returns, and rebinds each wrapped
function wherever a module imported it.  Each call records one span: name,
start, end, parent and a few attributes (rows, benchmark, points, error).
Spans stay in memory until the run ends.  A span opened in a worker thread
with no open span of its own takes as parent the innermost open span of the
main thread, which is the call that handed out the work.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
import types

MODULES = ("signals", "stl", "systems", "optimizers", "falsification", "harness", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.enabled = True
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (self._main[-1] if self._main else None)
            span = {"id": next(self._ids), "name": name, "parent": parent,
                    "phase": self.phase, "start": time.perf_counter()}
            stack.append(span["id"])
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if annotate is not None:
                    span.update(annotate(args, result))
                self.spans.append(span)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _rows(index):
    return lambda args, result: {"rows": len(args[index])}


def _pulse_rows(args, result):
    shape = getattr(args[0], "shape", ())
    return {"rows": shape[-1] if shape else 1}


def _simulate_rows(args, result):
    return {"rows": len(args[1]), "bench": args[0].name}


def _batch_rows(args, result):
    return {"rows": len(next(iter(args[1].values())))}


def _fit_points(args, result):
    return {"points": len(args[0])}


def _restarts(args, result):
    return {"restarts": getattr(result, "restarts", 0)}


_ANNOTATE = {
    "falsification.decode_batch": _rows(0),
    "signals.pulse_values": _pulse_rows,
    "systems.simulate_batch": _simulate_rows,
    "stl.robustness_batch": _batch_rows,
    "stl.robustness": lambda args, result: {"rows": 1},
    "optimizers.fit_surrogate": _fit_points,
    "optimizers.minimize": _restarts,
}


def install(tracer: Tracer, package) -> None:
    """Wrap the public functions of ``package``'s modules in spans."""
    modules = [getattr(package, name) for name in MODULES] + [package]
    wrapped = {}
    for module in modules[:-1]:
        short = module.__name__.rsplit(".", 1)[1]
        public = getattr(module, "__all__", None) or [
            name for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
        ]
        for name in public:
            fn = getattr(module, name)
            if isinstance(fn, types.FunctionType) and fn not in wrapped:
                full = f"{short}.{name}"
                wrapped[fn] = tracer.wrap(full, fn, _ANNOTATE.get(full))
    batch_objective = package.falsification.batch_objective

    @functools.wraps(batch_objective)
    def objective_factory(*args, **kwargs):
        objective = batch_objective(*args, **kwargs)
        return tracer.wrap("falsification.objective", objective, _rows(0))

    wrapped[batch_objective] = objective_factory
    for module in modules:
        for name, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(module, name, wrapped[obj])
    surrogate = package.optimizers.RbfSurrogate
    surrogate.predict = tracer.wrap("optimizers.predict", surrogate.predict)


# ---------------------------------------------------------------------------
# Per-layer metrics


def _covered(span, children, names) -> float:
    """Seconds of ``span`` covered by its outermost descendants named in
    ``names`` (spans of one thread nest, so their durations add up)."""
    total = 0.0
    for child in children.get(span["id"], ()):
        if child["name"] in names:
            total += child["end"] - child["start"]
        else:
            total += _covered(child, children, names)
    return total


def _outermost(spans, by_id, names):
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    out = []
    for span in spans:
        if span["name"] not in names:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(span)
    return out


def _busy(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _per_row(spans) -> float:
    rows = sum(s["rows"] for s in spans)
    return 1e6 * _busy(spans) / rows if rows else 0.0


def per_layer(spans: list[dict], rounds: int, round_seconds: float, workers: int,
              evaluations: float) -> dict[str, float]:
    """Per-layer metrics of the traced run, per round of the workload.

    ``round_seconds`` is the traced wall time of all rounds together, and
    ``evaluations`` the workload's evaluations per round.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    timed = [s for s in spans if s["phase"] == "rounds"]
    named: dict[str, list] = {}
    for s in timed:
        named.setdefault(s["name"], []).append(s)

    def get(name):
        return named.get(name, [])

    m: dict[str, float] = {}
    objective = get("falsification.objective")
    m["falsification.objective.calls"] = len(objective) / rounds
    m["falsification.objective.rows"] = sum(s["rows"] for s in objective) / rounds
    rows = m["falsification.objective.rows"]
    m["falsification.useful_share"] = evaluations / rows if rows else 0.0
    m["falsification.decode.us_per_row"] = _per_row(get("falsification.decode_batch"))

    synthesis = {s["id"] for s in get("falsification.synthesize_batch")}
    m["signals.pulse.us_per_row"] = _per_row(
        [s for s in get("signals.pulse_values") if s["parent"] in synthesis])

    simulate = get("systems.simulate_batch")
    m["systems.simulate.busy_s"] = _busy(simulate) / rounds
    for bench in ("lag", "cc", "dsm", "ss"):
        m[f"systems.simulate.us_per_row.{bench}"] = _per_row(
            [s for s in simulate if s["bench"] == bench])

    robustness = _outermost(timed, by_id, {"stl.robustness", "stl.robustness_batch"})
    m["stl.robustness.busy_s"] = _busy(robustness) / rounds
    m["stl.robustness.us_per_row"] = _per_row(robustness)
    parse = [s for s in spans if s["name"] == "stl.parse"]
    m["stl.parse.busy_s"] = (_busy([s for s in parse if s["phase"] == "setup"])
                             + _busy([s for s in parse if s["phase"] == "rounds"]) / rounds)

    fits = get("optimizers.fit_surrogate")
    m["optimizers.fit.calls"] = len(fits) / rounds
    m["optimizers.fit.points"] = sum(s["points"] for s in fits) / rounds
    m["optimizers.fit.busy_s"] = _busy(fits) / rounds
    m["optimizers.predict.busy_s"] = _busy(get("optimizers.predict")) / rounds
    searches = get("optimizers.minimize")
    inner = {"falsification.objective", "optimizers.fit_surrogate", "optimizers.predict"}
    m["optimizers.self_s"] = sum(
        s["end"] - s["start"] - _covered(s, children, inner) for s in searches) / rounds
    m["optimizers.fit.degenerate"] = sum(
        s.get("error") == "SurrogateDegeneracy" for s in fits) / rounds
    m["optimizers.restarts"] = sum(s.get("restarts", 0) for s in searches) / rounds

    experiments = {s["id"] for s in get("harness.run_experiment")}
    cells = sorted(s["end"] - s["start"] for s in get("falsification.falsify")
                   if s["parent"] in experiments)
    if len(cells) >= 2:
        q = statistics.quantiles(cells, n=100, method="inclusive")
        m["harness.cell_s.p50"], m["harness.cell_s.p97"] = q[49], q[96]
    else:
        m["harness.cell_s.p50"] = m["harness.cell_s.p97"] = float(sum(cells))
    m["harness.busy_share"] = (sum(cells) / (round_seconds * workers)) if cells else 0.0
    m["harness.write_csvs.busy_s"] = _busy(get("harness.write_csvs")) / rounds

    monitor = {"stl.parse", "stl.robustness", "stl.robustness_batch"}
    m["cli.monitor.load_s"] = sum(
        s["end"] - s["start"] - _covered(s, children, monitor) for s in get("cli.main")) / rounds
    return m
