"""Independent reference for the benchmark's output checks.

Everything here is plain Python on floats, written from the documented
equations rather than from the package's code:

* point decoding from the ``falsification`` module docstring and
  ``build_param_space`` (per channel the masked fields in L-P-W-H-D order;
  the period spans [0, 1] when the delay is free and [0, 2] otherwise;
  unmasked fields keep low=0, period=0.5, width=0.5, high=1, delay=0);
* pulse synthesis from the formulas in ``signals.denormalize`` and the
  pulse rule in ``signals.pulse_values``;
* the four models stepped one row at a time from the equations in
  ``systems.py`` (RK4 with the input held for lag, cc and ss; the discrete
  map for dsm);
* a brute-force recursive STL evaluator for both semantics.  The additive
  rules follow ``stl.py``'s module docstring: a conjunction with a violated
  operand sums the negative values, a disjunction with a satisfied operand
  sums the positive ones, and otherwise both take the classic min or max.
  ``alw`` is a conjunction over its window, ``ev`` a disjunction, and
  ``(a U[lo,hi] b)`` at i the disjunction over j of the conjunction of
  b at j with a at every instant from i to j.

Formulas are nested tuples: ``("atom", ((name, coeff), ...), constant,
text)`` (the margin ``constant + sum(coeff * channel)``),
``("not", f)``, ``("and", (f, ...))``, ``("or", (f, ...))``,
``("->", f, g)``, ``("alw", a, b, f)``, ``("ev", a, b, f)`` and
``("U", a, b, f, g)``.
"""

from __future__ import annotations

import math

FIELDS = "LPWHD"
DEFAULTS = {"L": 0.0, "P": 0.5, "W": 0.5, "H": 1.0, "D": 0.0}
# Relative phase tolerance of the pulse rule (signals._PHASE_TOL).
PHASE_TOL = 1e-9
# Tolerance when placing interval bounds on the grid (stl._GRID_TOL).
GRID_TOL = 1e-9


# ---------------------------------------------------------------------------
# Inputs


def decode(point, mask: str, channels) -> dict[str, dict[str, float]]:
    """Unit-cube point -> per-channel normalized pulse fields."""
    letters = [f for f in FIELDS if f in mask.split("-")]
    period_upper = 1.0 if "D" in letters else 2.0
    coords = iter(float(x) for x in point)
    out = {}
    for channel in channels:
        fields = dict(DEFAULTS)
        for letter in letters:
            fields[letter] = next(coords) * (period_upper if letter == "P" else 1.0)
        out[channel] = fields
    return out


def pulse(fields: dict[str, float], lower: float, upper: float, horizon: float, times) -> list[float]:
    """One pulse train sampled at ``times``."""
    period = fields["P"] * horizon
    width = fields["W"] * period
    delay = fields["D"] * horizon
    low = lower + fields["L"] * (upper - lower)
    high = low + fields["H"] * (upper - low)
    tol = PHASE_TOL * max(period, 1.0)
    values = []
    for t in times:
        on = False
        if period > 0.0 and delay < horizon and t >= delay:
            tau = (t - delay) % period
            if period - tau <= tol:
                tau = 0.0
            on = tau < width - tol or (tau <= tol and width > 0.0)
        values.append(high if on else low)
    return values


# ---------------------------------------------------------------------------
# Models


def _rk4(deriv, x, u, dt):
    k1 = deriv(x, u)
    k2 = deriv([a + 0.5 * dt * k for a, k in zip(x, k1)], u)
    k3 = deriv([a + 0.5 * dt * k for a, k in zip(x, k2)], u)
    k4 = deriv([a + dt * k for a, k in zip(x, k3)], u)
    return [a + dt / 6.0 * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(x, k1, k2, k3, k4)]


def _integrate(deriv, x, inputs, dt, after_step=None):
    states = [list(x)]
    for u in inputs[:-1]:
        x = _rk4(deriv, x, u, dt)
        if after_step is not None:
            after_step(x)
        states.append(x)
    return states


def _lag(p, inputs, dt, statics):
    gain, tau = p.get("K", 1.0), p.get("tau", 1.0)
    y0 = statics.get("y_init", p.get("y_init", 0.0))
    states = _integrate(lambda x, u: [(gain * u[0] - x[0]) / tau], [y0], inputs, dt)
    return {"y": [s[0] for s in states]}


def _chasing_cars(p, inputs, dt, statics):
    k1, k2, d0 = p.get("k1", 1.0), p.get("k2", 2.0), p.get("d0", 10.0)
    accel, brake = p.get("accel_gain", 5.0), p.get("brake_gain", 8.0)

    def deriv(x, u):
        command = accel * u[0] - brake * u[1]
        if x[5] <= 0.0 and command < 0.0:
            command = 0.0  # the lead car cannot reverse
        followers = [k1 * (x[i - 1] - x[i] - d0) - k2 * x[5 + i] for i in range(1, 5)]
        return x[5:] + [command] + followers

    def clamp(x):
        if x[5] < 0.0:
            x[5] = 0.0

    x0 = [4 * d0, 3 * d0, 2 * d0, d0, 0.0] + [0.0] * 5
    states = _integrate(deriv, x0, inputs, dt, clamp)
    return {f"y{i + 1}": [s[i] for s in states] for i in range(5)}


def _delta_sigma(p, inputs, dt, statics):
    b = [p.get("b1", 0.044), p.get("b2", 0.287), p.get("b3", 0.8)]
    x = [statics.get(n, p.get(n, 0.0)) for n in ("x1_init", "x2_init", "x3_init")]
    states = [x]
    for u in inputs[:-1]:
        v = 1.0 if x[2] >= 0.0 else -1.0
        x = [x[0] + b[0] * (u[0] - v), x[1] + b[1] * (x[0] - v), x[2] + b[2] * (x[1] - v)]
        states.append(x)
    return {f"x{i + 1}": [s[i] for s in states] for i in range(3)}


def _switched_system(p, inputs, dt, statics):
    a1 = [[p.get("a1_11", -0.5), p.get("a1_12", -1.0)], [p.get("a1_21", 1.0), p.get("a1_22", -0.5)]]
    a2 = [[p.get("a2_11", 0.05), p.get("a2_12", -1.0)], [p.get("a2_21", 1.0), p.get("a2_22", 0.05)]]
    bm = [[p.get("b_11", 1.0), p.get("b_12", 0.0)], [p.get("b_21", 0.0), p.get("b_22", 1.0)]]
    gamma = statics.get("thresh", p.get("thresh", 0.7))

    def deriv(x, u):
        a = a1 if abs(x[0]) < gamma else a2
        return [(r[0] * x[0] + r[1] * x[1]) + (s[0] * u[0] + s[1] * u[1]) for r, s in zip(a, bm)]

    x0 = [statics.get("x1_init", p.get("x1_init", 0.0)), statics.get("x2_init", p.get("x2_init", 0.0))]
    states = _integrate(deriv, x0, inputs, dt)
    return {"x1": [s[0] for s in states], "x2": [s[1] for s in states]}


MODELS = {
    "first_order_lag": _lag,
    "chasing_cars": _chasing_cars,
    "delta_sigma": _delta_sigma,
    "switched_system": _switched_system,
}


def trace(benchmark, mask: str, point) -> dict[str, list[float]]:
    """Every output and input channel of one unit-cube point, on the grid."""
    n = int(round(benchmark.horizon / benchmark.dt))
    times = [k * benchmark.dt for k in range(n + 1)]
    fields = decode(point, mask, benchmark.input_names)
    channels = {
        name: pulse(fields[name], rng.lower, rng.upper, benchmark.horizon, times)
        for name, rng in benchmark.inputs
    }
    statics = {s.name: s.default for s in benchmark.static_params}
    inputs = list(zip(*(channels[name] for name in benchmark.input_names)))
    outputs = MODELS[benchmark.model.kind](dict(benchmark.model.params), inputs, benchmark.dt, statics)
    return {**outputs, **channels}


def score(benchmark, spec_name: str, mask: str, point, additive: bool = False) -> float:
    """Robustness of one unit-cube point, from the reference alone."""
    formula = from_stl(benchmark.specs[spec_name])
    return robustness(formula, trace(benchmark, mask, point), benchmark.dt, 0, additive)


# ---------------------------------------------------------------------------
# STL


def from_stl(f):
    """Convert a parsed ``stl.Formula`` into the tuple form above."""
    kind = type(f).__name__
    if kind == "Atom":
        return ("atom", tuple(f.coeffs), f.constant)
    if kind == "Not":
        return ("not", from_stl(f.child))
    if kind in ("And", "Or"):
        return (kind.lower(), tuple(from_stl(c) for c in f.children))
    if kind == "Implies":
        return ("->", from_stl(f.left), from_stl(f.right))
    if kind in ("Always", "Eventually"):
        return ("alw" if kind == "Always" else "ev", f.a, f.b, from_stl(f.child))
    if kind == "Until":
        return ("U", f.a, f.b, from_stl(f.left), from_stl(f.right))
    raise TypeError(f"unknown formula node {f!r}")


def and_(values, additive: bool) -> float:
    if additive and not all(v > 0.0 for v in values):
        return sum(v for v in values if v < 0.0)
    return min(values)


def or_(values, additive: bool) -> float:
    if additive and not all(v < 0.0 for v in values):
        return sum(v for v in values if v > 0.0)
    return max(values)


def _steps(a: float, b: float, dt: float) -> range:
    return range(math.ceil(a / dt - GRID_TOL), math.floor(b / dt + GRID_TOL) + 1)


def robustness(f, channels: dict, dt: float, i: int = 0, additive: bool = False) -> float:
    """Robustness of ``f`` at grid instant ``i``, straight from the
    recursive definitions (memoized per node and instant)."""
    memo: dict = {}

    def rob(f, i):
        key = (id(f), i)
        if key not in memo:
            memo[key] = _rob(f, i)
        return memo[key]

    def _rob(f, i):
        op = f[0]
        if op == "atom":
            value = f[2]
            for name, c in f[1]:
                value = value + c * channels[name][i]
            return value
        if op == "not":
            return -rob(f[1], i)
        if op == "and":
            return and_([rob(g, i) for g in f[1]], additive)
        if op == "or":
            return or_([rob(g, i) for g in f[1]], additive)
        if op == "->":
            return or_([-rob(f[1], i), rob(f[2], i)], additive)
        if op in ("alw", "ev"):
            window = [rob(f[3], i + k) for k in _steps(f[1], f[2], dt)]
            return (and_ if op == "alw" else or_)(window, additive)
        if op == "U":
            _, a, b, left, right = f
            options = []
            for k in _steps(a, b, dt):
                holds = [rob(left, i + m) for m in range(k + 1)]
                options.append(and_([rob(right, i + k)] + holds, additive))
            return or_(options, additive)
        raise ValueError(f"unknown operator {op!r}")

    return rob(f, i)


def render(f) -> str:
    """STL text of a tuple formula, in the grammar ``stl.parse`` reads."""
    op = f[0]
    if op == "atom":
        return f[3]
    if op == "not":
        return f"not ({render(f[1])})"
    if op in ("and", "or"):
        return "(" + f" {op} ".join(render(g) for g in f[1]) + ")"
    if op == "->":
        return f"(({render(f[1])}) -> ({render(f[2])}))"
    if op in ("alw", "ev"):
        return f"{op}[{f[1]:g},{f[2]:g}] ({render(f[3])})"
    if op == "U":
        return f"({render(f[3])} U[{f[1]:g},{f[2]:g}] {render(f[4])})"
    raise ValueError(f"unknown operator {op!r}")
