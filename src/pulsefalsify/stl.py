"""STL formulas: parsing and quantitative robustness over finite traces.

Formulas are evaluated on piecewise-constant traces at grid instants only,
and the value at an instant t0 from the samples between t0 and t0 plus the
formula's reach, the sum of the window ends along its deepest path.
Two quantitative semantics are provided:

* ``classic`` -- min/max robustness in the style of Donze/Maler.
* ``additive`` -- conjunctions of violated operands aggregate by summing
  the negative values (disjunctions dually sum the positive ones), so the
  magnitude reflects how many operands fail and by how much.  The sign
  always agrees with the classic semantics.

Each semantics has one conjunction, and ``or``, ``->`` and ``ev`` are its
duals.

Grammar (ASCII, whitespace-insensitive)::

    formula := "not" formula | formula "and" formula | formula "or" formula
             | formula "->" formula
             | ("alw"|"G") "[" num "," num "]" formula
             | ("ev"|"F") "[" num "," num "]" formula
             | "(" formula "U" "[" num "," num "]" formula ")"
             | atom | "(" formula ")"
    atom    := expr cmp expr        with cmp in {"<", "<=", ">", ">="}
    expr    := affine combination of identifiers and numeric literals
               using "+", "-" and scalar "*"

Precedence: not > and > or > "->"; temporal operators bind like "not".
Numbers must be finite, and so must the atoms folded from them.
"""

from __future__ import annotations

import copyreg
import math
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .signals import Signal

__all__ = [
    "Formula",
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Always",
    "Eventually",
    "Until",
    "ParseError",
    "parse",
    "horizon_of",
    "channels_of",
    "robustness",
    "robustness_batch",
]

_GRID_TOL = 1e-9
# Until takes its window offsets in slabs of at most _UNTIL_SLAB values, a
# value being one trace of B at one of n_out instants for one offset.  An
# accumulation along the offsets costs numpy about 7 ns a value, and a pass
# over one offset about 10 us of calls (2-vCPU x86, numpy 2.4), so slabs pay
# only on narrow blocks: a block of more than _UNTIL_WIDE values an offset
# goes one offset at a time.
_UNTIL_SLAB = 2**14
_UNTIL_WIDE = 2**9


# ---------------------------------------------------------------------------
# AST


class Formula:
    """Base class of STL formula nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    """Affine inequality over trace channels.

    The margin is stored in normalized form ``sum(coeffs * channels) +
    constant``; the atom is satisfied when the margin is positive.
    """

    coeffs: tuple[tuple[str, float], ...]
    constant: float
    text: str = ""

    def margin(self, channels: Mapping[str, np.ndarray]) -> np.ndarray:
        """Margin over a batch of traces given as (B, n) channel arrays."""
        shape = next(iter(channels.values())).shape
        out = np.full(shape, self.constant)
        for name, c in self.coeffs:
            if name not in channels:
                raise KeyError(f"no channel named {name!r}; have {tuple(channels)}")
            out = out + c * channels[name]
        return out


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    children: tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    children: tuple[Formula, ...]


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Always(Formula):
    a: float
    b: float
    child: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    a: float
    b: float
    child: Formula


@dataclass(frozen=True)
class Until(Formula):
    a: float
    b: float
    left: Formula
    right: Formula


def _operands(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Not, Always, Eventually)):
        return (f.child,)
    if isinstance(f, (And, Or)):
        return f.children
    if isinstance(f, (Implies, Until)):
        return (f.left, f.right)
    raise TypeError(f"unknown formula node {f!r}")


def horizon_of(f: Formula) -> float:
    """Temporal depth of the formula in seconds."""
    if isinstance(f, Atom):
        return 0.0
    depth = max(horizon_of(c) for c in _operands(f))
    return f.b + depth if isinstance(f, (Always, Eventually, Until)) else depth


def channels_of(f: Formula) -> frozenset[str]:
    """Names of the trace channels that the formula's atoms read."""
    if isinstance(f, Atom):
        return frozenset(name for name, _ in f.coeffs)
    return frozenset().union(*map(channels_of, _operands(f)))


# ---------------------------------------------------------------------------
# Parser


class ParseError(ValueError):
    """Syntax error in an STL specification string."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column

    def __reduce__(self):
        # args holds the formatted message, which __init__ does not take
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>->|<=|>=|<|>|\(|\)|\[|\]|,|\+|-|\*)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_TEMPORAL = {"alw": Always, "G": Always, "ev": Eventually, "F": Eventually}
_KEYWORDS = {"not", "and", "or", "U", *_TEMPORAL}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []  # (kind, text, offset)
        for m in _TOKEN_RE.finditer(text):
            if m.lastgroup == "bad":
                raise self.error(f"unexpected character {m.group()!r}", m.start())
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), m.start()))
        self.tokens.append(("end", "", len(text)))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def error(self, message: str, offset: int | None = None) -> ParseError:
        """Error at ``offset`` into the text, by default the next token's."""
        if offset is None:
            offset = self.peek()[2]
        line = self.text.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def accept(self, *values: str) -> str | None:
        """Consume the next token if its text is one of ``values``."""
        value = self.peek()[1]
        if value not in values:
            return None
        self.pos += 1
        return value

    def expect(self, value: str) -> None:
        if not self.accept(value):
            raise self.error(f"expected {value!r}, found {self.peek()[1]!r}")

    # formula := or ("->" formula)?, so "->" is right-associative
    def parse_formula(self) -> Formula:
        left = self.parse_nary("or")
        return Implies(left, self.parse_formula()) if self.accept("->") else left

    # or := and ("or" and)*; and := unary ("and" unary)*
    def parse_nary(self, op: str) -> Formula:
        parts: list[Formula] = []
        while not parts or self.accept(op):
            parts.append(self.parse_nary("and") if op == "or" else self.parse_unary())
        return parts[0] if len(parts) == 1 else (Or if op == "or" else And)(tuple(parts))

    def parse_unary(self) -> Formula:
        if self.accept("not"):
            return Not(self.parse_unary())
        keyword = self.accept(*_TEMPORAL)
        if keyword is None:
            return self.parse_primary()
        a, b = self.parse_interval()
        return _TEMPORAL[keyword](a, b, self.parse_unary())

    def parse_interval(self) -> tuple[float, float]:
        self.expect("[")
        a = self.parse_number()
        self.expect(",")
        b = self.parse_number()
        self.expect("]")
        if a < 0 or a > b:
            raise self.error(f"malformed interval [{a}, {b}]: need 0 <= a <= b")
        return a, b

    def parse_number(self) -> float:
        return (-1.0 if self.accept("-") else 1.0) * self.parse_literal()

    def parse_literal(self) -> float:
        kind, text, _ = self.peek()
        if kind != "num":
            raise self.error(f"expected number, found {text!r}")
        value = float(text)
        if not math.isfinite(value):
            raise self.error(f"number {text} is not finite")
        self.pos += 1
        return value

    def parse_primary(self) -> Formula:
        if not self.accept("("):
            return self.parse_atom()
        inner = self.parse_formula()
        if self.accept("U"):
            a, b = self.parse_interval()
            inner = Until(a, b, inner, self.parse_formula())
        self.expect(")")
        return inner

    # atom := expr cmp expr, folded into margin form at parse time
    def parse_atom(self) -> Formula:
        start = self.pos
        lhs_coeffs, lhs_const = self.parse_expr()
        op = self.accept("<", "<=", ">", ">=")
        if op is None:
            raise self.error(f"expected comparison operator, found {self.peek()[1]!r}")
        rhs_coeffs, rhs_const = self.parse_expr()
        sign = 1.0 if op[0] == ">" else -1.0
        coeffs = {name: sign * c for name, c in lhs_coeffs.items()}
        for name, c in rhs_coeffs.items():
            coeffs[name] = coeffs.get(name, 0.0) - sign * c
        constant = sign * (lhs_const - rhs_const)
        text = " ".join(tok[1] for tok in self.tokens[start : self.pos])
        if not all(map(math.isfinite, (constant, *coeffs.values()))):
            raise self.error(f"atom {text!r} overflows to a non-finite number", self.tokens[start][2])
        return Atom(
            coeffs=tuple(sorted((n, c) for n, c in coeffs.items() if c != 0.0)),
            constant=constant,
            text=text,
        )

    def parse_expr(self) -> tuple[dict[str, float], float]:
        coeffs: dict[str, float] = {}
        const = 0.0
        op = self.accept("+", "-")
        while True:
            name, value = self.parse_term()
            value = -value if op == "-" else value
            if name is None:
                const += value
            else:
                coeffs[name] = coeffs.get(name, 0.0) + value
            op = self.accept("+", "-")
            if op is None:
                return coeffs, const

    def parse_term(self) -> tuple[str | None, float]:
        kind, text, _ = self.peek()
        if kind == "num":
            value = self.parse_literal()
            if not self.accept("*"):
                return None, value
            kind, text, _ = self.peek()
            if kind != "ident" or text in _KEYWORDS:
                raise self.error("expected identifier after '*'")
            self.pos += 1
            return text, value
        if kind == "ident" and text not in _KEYWORDS:
            self.pos += 1
            return text, 1.0
        raise self.error(f"expected term, found {text!r}")


def parse(text: str) -> Formula:
    """Parse a textual STL specification into a formula tree."""
    if not text or not text.strip():
        raise ParseError("empty specification", 1, 1)
    parser = _Parser(text)
    formula = parser.parse_formula()
    if parser.peek()[0] != "end":
        raise parser.error(f"unexpected trailing input {parser.peek()[1]!r}")
    return formula


# ---------------------------------------------------------------------------
# Robustness evaluation
#
# Each node is evaluated into a (B, m) array of robustness values, one row
# per trace of a batch, over the valid prefix of the traces: entry [b, i] is
# the robustness of trace b at grid instant i, and m shrinks by the node's
# temporal window so every entry is backed by actual trace data.  A value at
# one instant reads the samples from there through the formula's reach (see
# ``_reach``), so the public functions evaluate those samples only.


def _interval_steps(a: float, b: float, dt: float) -> tuple[int, int]:
    if not math.isfinite(b / dt):
        raise ValueError(f"interval [{a}, {b}] is not finite on the grid (dt={dt})")
    lo = int(math.ceil(a / dt - _GRID_TOL))
    hi = int(math.floor(b / dt + _GRID_TOL))
    if hi < lo:
        raise ValueError(f"interval [{a}, {b}] contains no grid instant at dt={dt}")
    return lo, hi


def _windows(values: np.ndarray, window: int, axis: int) -> np.ndarray:
    """Every run of ``window`` consecutive values along ``axis``, along a new
    last axis: the read-only view of ``sliding_window_view``, built directly,
    as that checks its arguments at twice the cost of the view itself."""
    shape = list(values.shape)
    shape[axis] -= window - 1
    return as_strided(values, (*shape, window), values.strides + (values.strides[axis],),
                      writeable=False)


def _conj(values: np.ndarray, axis: int, additive: bool, window: int | None = None) -> np.ndarray:
    """Conjunction of ``values`` along ``axis``: their minimum, or in additive
    semantics the minimum where it is positive and the sum of the negative
    values elsewhere.  With ``window``, the conjunction of every ``window``
    consecutive values along ``axis`` instead; the negative parts are taken
    before windowing, so no (B, m, window) array is built.  Every
    disjunction is its dual, ``-_conj(-values)``."""
    negative = np.minimum(values, 0.0) if additive else None
    if window is not None:
        values = _windows(values, window, axis)
        if additive:
            negative = _windows(negative, window, axis)
        axis = -1
    low = values.min(axis=axis)
    if not additive:
        return low
    return np.where(low > 0, low, negative.sum(axis=axis))


def _accumulate(op, carry: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The values that a loop of ``carry = op(carry, values[j])`` holds
    after each step j along the first axis of ``values``.  A single step is
    taken in place, in ``carry``; more steps go into a new array."""
    if len(values) == 1:
        return op(carry, values, out=carry)
    out = np.concatenate([op(carry, values[:1]), values[1:]])
    return op.accumulate(out, axis=0, out=out)


def _until(left: np.ndarray, right: np.ndarray, lo: int, hi: int, additive: bool) -> np.ndarray:
    """Until robustness from (B, m) operand values.  The candidate at window
    offset d joins ``right`` at i+d with ``left`` held over i..i+d, and the
    result is the disjunction of the candidates for d in [lo, hi].

    The offsets go in slabs, (offsets, B, n_out) views of the operands.  The
    held minimum, its negative sum, the best candidate and the positive sum
    of the candidates are accumulations along the offsets, carried from one
    slab to the next in the order of a loop over the offsets, so no value
    depends on how the offsets are cut into slabs."""
    n_out = max(min(left.shape[1], right.shape[1]) - hi, 0)
    if not len(left) * n_out:
        return np.empty((len(left), n_out))
    # the running values, carried as (1, B, n_out) slabs of one offset
    hold = np.full((1, len(left), n_out), math.inf)
    hold_negsum = np.zeros_like(hold)
    best = np.full_like(hold, -math.inf)
    possum = np.zeros_like(hold)
    # entry [d, b, i] of an operand's offsets is its value [b, i + d]
    lefts, rights = (_windows(x, n_out, 1).transpose(1, 0, 2)[:hi + 1] for x in (left, right))
    step = 1 if hold.size > _UNTIL_WIDE else max(_UNTIL_SLAB // hold.size, 1)
    for start in range(0, hi + 1, step):
        left_s = lefts[start:start + step]
        held = _accumulate(np.minimum, hold, left_s)
        hold = held[-1:]
        if additive:
            negsum = _accumulate(np.add, hold_negsum, np.minimum(left_s, 0.0))
            hold_negsum = negsum[-1:]
            held = np.where(held > 0, held, negsum)
        skip = max(lo - start, 0)
        if skip >= len(held):
            continue
        cand = _conj(np.stack([rights[start + skip:start + step], held[skip:]]), 0, additive)
        best = _accumulate(np.maximum, best, cand)[-1:]
        if additive:
            possum = _accumulate(np.add, possum, np.maximum(cand, 0.0))[-1:]
    if additive:
        return np.where(best < 0, best, possum)[0]
    return best[0]


def _eval(f: Formula, channels: Mapping[str, np.ndarray], dt: float, additive: bool) -> np.ndarray:
    if isinstance(f, Atom):
        return f.margin(channels)
    if isinstance(f, Not):
        return -_eval(f.child, channels, dt, additive)
    # a disjunction is the dual of the conjunction, -((not x) and (not y)),
    # and x -> y is not (x and not y)
    if isinstance(f, (And, Or, Implies)):
        if isinstance(f, Implies):
            parts = [_eval(f.left, channels, dt, additive), -_eval(f.right, channels, dt, additive)]
        else:
            parts = [_eval(c, channels, dt, additive) for c in f.children]
        m = min(p.shape[1] for p in parts)
        stack = np.stack([p[:, :m] for p in parts])
        if isinstance(f, And):
            return _conj(stack, 0, additive)
        if isinstance(f, Or):
            stack = -stack
        return -_conj(stack, 0, additive)
    if isinstance(f, (Always, Eventually)):
        child = _eval(f.child, channels, dt, additive)
        lo, hi = _interval_steps(f.a, f.b, dt)
        if child.shape[1] < hi + 1:
            return np.empty((len(child), 0))
        if isinstance(f, Always):
            return _conj(child[:, lo:], 1, additive, hi - lo + 1)
        return -_conj(-child[:, lo:], 1, additive, hi - lo + 1)
    if isinstance(f, Until):
        left = _eval(f.left, channels, dt, additive)
        right = _eval(f.right, channels, dt, additive)
        return _until(left, right, *_interval_steps(f.a, f.b, dt), additive)
    raise TypeError(f"unknown formula node {f!r}")


def _reach(f: Formula, dt: float) -> int:
    """Grid steps past an instant that the value of ``f`` there reads: the
    largest sum of window ends along a path from the root to an atom."""
    if isinstance(f, Atom):
        return 0
    reach = max(_reach(c, dt) for c in _operands(f))
    if isinstance(f, (Always, Eventually, Until)):
        reach += _interval_steps(f.a, f.b, dt)[1]
    return reach


def _eval_at(f: Formula, channels: Mapping[str, np.ndarray], dt: float, additive: bool,
             start: int) -> np.ndarray:
    """``_eval`` on the samples from ``start`` through the reach of ``f``:
    its first column, if any, holds the values at instant ``start``."""
    try:
        stop = start + _reach(f, dt) + 1
    except ValueError:
        # _eval raises this error too, or first a KeyError for a channel
        stop = None
    # the builtin specs reach the whole trace, which is then not cut
    if (start, stop) != (0, next(iter(channels.values())).shape[1]):
        channels = {name: c[:, start:stop] for name, c in channels.items()}
    return _eval(f, channels, dt, additive)


def _t0_index(trace: Signal, t0: float) -> int:
    if not math.isfinite(t0 / trace.dt):
        raise ValueError(f"t0={t0} is not finite on the trace grid (dt={trace.dt})")
    idx = int(round(t0 / trace.dt))
    if abs(idx * trace.dt - t0) > _GRID_TOL * max(1.0, trace.end_time):
        raise ValueError(f"t0={t0} is not on the trace grid (dt={trace.dt})")
    if idx < 0 or idx >= len(trace.times):
        raise ValueError(f"t0={t0} outside the trace domain")
    return idx


def _is_additive(semantics: str) -> bool:
    if semantics not in ("classic", "additive"):
        raise ValueError(f"unknown semantics {semantics!r}")
    return semantics == "additive"


def robustness(f: Formula, trace: Signal, t0: float = 0.0, semantics: str = "classic") -> float:
    """Quantitative robustness of ``f`` on ``trace`` at time ``t0``.

    ``semantics`` is ``"classic"`` or ``"additive"``.  Only the samples
    from ``t0`` through the formula's reach are evaluated.  Raises
    ``ValueError`` when the trace is too short for the formula's temporal
    horizon, and when the robustness is not finite.
    """
    idx = _t0_index(trace, t0)
    channels = {name: c[None, :] for name, c in zip(trace.channel_names, trace.channels)}
    additive = _is_additive(semantics)
    # a margin may overflow: the check below reports it, with no numpy warning
    with np.errstate(all="ignore"):
        values = _eval_at(f, channels, trace.dt, additive, idx)
    if not values.shape[1]:
        raise ValueError(f"trace too short: formula horizon {horizon_of(f)} s does not fit "
                         f"after t0={t0} within end time {trace.end_time} s")
    value = float(values[0, 0])
    if not math.isfinite(value):
        raise ValueError("robustness is non-finite; trace contains bad values")
    return value


def robustness_batch(f: Formula, channels: Mapping[str, np.ndarray], dt: float,
                     semantics: str = "classic") -> np.ndarray:
    """Robustness of ``f`` at time 0 for a batch of B traces.

    ``channels`` maps every channel name to a (B, n) array sampled on the
    uniform grid {0, dt, ..., (n-1)*dt}; only the samples up to the
    formula's reach are evaluated.  Entry b of the result equals
    :func:`robustness` of trace b alone, but is returned even if it is not
    finite.  Raises ``ValueError`` when the traces are too short.
    """
    values = _eval_at(f, channels, dt, _is_additive(semantics), 0)
    if not values.shape[1]:
        n = next(iter(channels.values())).shape[1]
        raise ValueError(f"trace too short: formula horizon {horizon_of(f)} s does not fit "
                         f"within end time {(n - 1) * dt} s")
    return values[:, 0]
