"""Shared test helpers: independent STL oracles and random generators.

The oracles deliberately avoid the package's array-based evaluator: they
recurse index-by-index over the grid, so agreement between the two is a
meaningful check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from pulsefalsify.signals import Signal
from pulsefalsify.stl import (
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    Implies,
    Not,
    Or,
    Until,
)

GRID_TOL = 1e-9

# A switched system whose input u1 spans [0, 1.5e308] and, with zero input
# gains, drives nothing: every trace is finite, but "2*u1" overflows where
# u1 passes half the largest float, so spec "big" has no finite robustness
# there.  Spec "plain" reads x1 only and is 1 on every trace.
OVERFLOW_DOC = {
    "name": "overflow", "horizon": 1.0, "dt": 0.2,
    "inputs": [{"name": "u1", "min": 0.0, "max": 1.5e308},
               {"name": "u2", "min": -1.0, "max": 1.0}],
    "model": {"kind": "switched_system",
              "params": {"b_11": 0.0, "b_12": 0.0, "b_21": 0.0, "b_22": 0.0}},
    "specs": {"big": "alw[0,1](2*u1 <= 1e308)", "plain": "alw[0,1](x1 <= 1)"},
}


def window_indices(a: float, b: float, dt: float) -> tuple[int, int]:
    lo = int(math.ceil(a / dt - GRID_TOL))
    hi = int(math.floor(b / dt + GRID_TOL))
    return lo, hi


def atom_margin(f: Atom, trace: Signal, i: int) -> float:
    value = f.constant
    for name, c in f.coeffs:
        value += c * float(trace.channel(name)[i])
    return value


def additive_and(values) -> float:
    """Additive conjunction: the minimum if every value is positive, else the
    sum of the negative values."""
    values = np.asarray(values, dtype=float)
    if np.all(values > 0):
        return float(values.min())
    return float(values[values < 0].sum())


def additive_or(values) -> float:
    """Additive disjunction: the maximum if every value is negative, else the
    sum of the positive values."""
    values = np.asarray(values, dtype=float)
    if np.all(values < 0):
        return float(values.max())
    return float(values[values > 0].sum())


def brute_robustness(f: Formula, trace: Signal, i: int, memo=None, additive: bool = False) -> float:
    """Robustness by direct recursion over grid indices: classic min/max, or
    with ``additive`` the sums of :func:`additive_and` and :func:`additive_or`."""
    if memo is None:
        memo = {}
    key = (id(f), i)
    if key in memo:
        return memo[key]
    dt = trace.dt
    conj, disj = (additive_and, additive_or) if additive else (min, max)

    def rho(g: Formula, k: int) -> float:
        return brute_robustness(g, trace, k, memo, additive)

    if isinstance(f, Atom):
        value = atom_margin(f, trace, i)
    elif isinstance(f, Not):
        value = -rho(f.child, i)
    elif isinstance(f, And):
        value = conj([rho(c, i) for c in f.children])
    elif isinstance(f, Or):
        value = disj([rho(c, i) for c in f.children])
    elif isinstance(f, Implies):
        value = disj([-rho(f.left, i), rho(f.right, i)])
    elif isinstance(f, Always):
        lo, hi = window_indices(f.a, f.b, dt)
        value = conj([rho(f.child, i + j) for j in range(lo, hi + 1)])
    elif isinstance(f, Eventually):
        lo, hi = window_indices(f.a, f.b, dt)
        value = disj([rho(f.child, i + j) for j in range(lo, hi + 1)])
    elif isinstance(f, Until):
        lo, hi = window_indices(f.a, f.b, dt)
        value = disj([
            conj([rho(f.right, j), conj([rho(f.left, k) for k in range(i, j + 1)])])
            for j in range(i + lo, i + hi + 1)
        ])
    else:
        raise TypeError(f)
    memo[key] = value
    return value


def boolean_eval(f: Formula, trace: Signal, i: int, memo=None) -> bool:
    """Boolean STL at grid resolution; atoms satisfied iff margin > 0."""
    if memo is None:
        memo = {}
    key = (id(f), i)
    if key in memo:
        return memo[key]
    dt = trace.dt
    if isinstance(f, Atom):
        value = atom_margin(f, trace, i) > 0
    elif isinstance(f, Not):
        value = not boolean_eval(f.child, trace, i, memo)
    elif isinstance(f, And):
        value = all(boolean_eval(c, trace, i, memo) for c in f.children)
    elif isinstance(f, Or):
        value = any(boolean_eval(c, trace, i, memo) for c in f.children)
    elif isinstance(f, Implies):
        value = (not boolean_eval(f.left, trace, i, memo)) or boolean_eval(f.right, trace, i, memo)
    elif isinstance(f, Always):
        lo, hi = window_indices(f.a, f.b, dt)
        value = all(boolean_eval(f.child, trace, i + j, memo) for j in range(lo, hi + 1))
    elif isinstance(f, Eventually):
        lo, hi = window_indices(f.a, f.b, dt)
        value = any(boolean_eval(f.child, trace, i + j, memo) for j in range(lo, hi + 1))
    elif isinstance(f, Until):
        lo, hi = window_indices(f.a, f.b, dt)
        value = any(
            boolean_eval(f.right, trace, j, memo)
            and all(boolean_eval(f.left, trace, k, memo) for k in range(i, j + 1))
            for j in range(i + lo, i + hi + 1)
        )
    else:
        raise TypeError(f)
    memo[key] = value
    return value


def random_trace(rng: np.random.Generator, max_samples: int = 200) -> Signal:
    n = int(rng.integers(20, max_samples + 1))
    dt = float(rng.choice([0.05, 0.1, 0.25]))
    n_channels = int(rng.integers(1, 4))
    times = np.arange(n) * dt
    channels = tuple(
        np.round(rng.normal(0.0, 1.0, n).cumsum() * 0.3, 6) for _ in range(n_channels)
    )
    names = tuple(f"s{k}" for k in range(n_channels))
    return Signal(times=times, channels=channels, channel_names=names)


def random_formula(rng: np.random.Generator, trace: Signal, depth: int, budget: float) -> Formula:
    """Random formula whose temporal horizon fits within ``budget`` seconds."""
    dt = trace.dt
    ops = ["atom"]
    if depth > 0:
        ops += ["not", "and", "or"]
        if budget >= dt:
            ops += ["alw", "ev", "until"]
    op = rng.choice(ops)
    if op == "atom":
        name = str(rng.choice(trace.channel_names))
        coeff = float(rng.choice([-2.0, -1.0, 0.5, 1.0]))
        const = float(np.round(rng.normal(0.0, 1.0), 3))
        return Atom(coeffs=((name, coeff),), constant=const)
    if op == "not":
        return Not(random_formula(rng, trace, depth - 1, budget))
    if op in ("and", "or"):
        children = tuple(
            random_formula(rng, trace, depth - 1, budget) for _ in range(int(rng.integers(2, 4)))
        )
        return And(children) if op == "and" else Or(children)
    # temporal: pick an interval inside the remaining budget
    max_steps = int(budget / dt + GRID_TOL)
    hi = int(rng.integers(0, max_steps + 1))
    lo = int(rng.integers(0, hi + 1))
    a, b = lo * dt, hi * dt
    child_budget = budget - b
    if op == "alw":
        return Always(a, b, random_formula(rng, trace, depth - 1, child_budget))
    if op == "ev":
        return Eventually(a, b, random_formula(rng, trace, depth - 1, child_budget))
    return Until(
        a,
        b,
        random_formula(rng, trace, depth - 1, child_budget),
        random_formula(rng, trace, depth - 1, child_budget),
    )


_PRECEDENCE = {Implies: 0, Or: 1, And: 2, Not: 3, Always: 3, Eventually: 3, Until: 4, Atom: 4}


def _affine(terms) -> str:
    """Text of a sum of ``(name, value)`` terms; a ``None`` name is a constant."""
    out = ""
    for name, value in terms:
        size = abs(value)
        body = repr(size) if name is None else name if size == 1.0 else f"{size!r}*{name}"
        sign = "-" if math.copysign(1.0, value) < 0 else "+"
        if out:
            out += f" {sign} {body}"
        else:
            out = body if sign == "+" else f"-{body}"
    return out


def render_formula(f: Formula, rng: np.random.Generator, context: int = 0) -> str:
    """STL text that parses back to ``f``, up to ``Atom.text``.

    Parentheses appear only where the precedence needs them, so a parse
    of the text checks it; ``rng`` picks among equivalent spellings.
    """
    if isinstance(f, Atom):
        # margin > 0, or -constant < sum(coeffs * channels)
        if rng.integers(2):
            text = f"{_affine([(None, -f.constant)])} < {_affine(f.coeffs)}"
        else:
            text = f"{_affine([*f.coeffs, (None, f.constant)])} > 0"
    elif isinstance(f, Not):
        text = "not " + render_formula(f.child, rng, 3)
    elif isinstance(f, (Always, Eventually)):
        keyword = rng.choice(["alw", "G"] if isinstance(f, Always) else ["ev", "F"])
        text = f"{keyword}[{f.a!r}, {f.b!r}] {render_formula(f.child, rng, 3)}"
    elif isinstance(f, (And, Or)):
        op, inner = (" and ", 3) if isinstance(f, And) else (" or ", 2)
        text = op.join(render_formula(c, rng, inner) for c in f.children)
    elif isinstance(f, Implies):
        text = f"{render_formula(f.left, rng, 1)} -> {render_formula(f.right, rng, 0)}"
    else:
        text = (f"({render_formula(f.left, rng, 0)} U[{f.a!r}, {f.b!r}] "
                f"{render_formula(f.right, rng, 0)})")
    return f"({text})" if _PRECEDENCE[type(f)] < context else text


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
