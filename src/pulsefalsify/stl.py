"""STL formulas: parsing and quantitative robustness over finite traces.

Formulas are evaluated on piecewise-constant traces at grid instants only.
Two quantitative semantics are provided:

* ``classic`` -- min/max robustness in the style of Donze/Maler.
* ``additive`` -- conjunctions of violated operands aggregate by summing
  the negative values (disjunctions dually sum the positive ones), so the
  magnitude reflects how many operands fail and by how much.  The sign
  always agrees with the classic semantics.

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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>->|<=|>=|<|>|\(|\)|\[|\]|,|\+|-|\*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"not", "and", "or", "alw", "G", "ev", "F", "U"}


@dataclass
class _Token:
    kind: str  # "num" | "ident" | "sym" | "end"
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            kind = {"num": "num", "ident": "ident", "sym": "sym"}[m.lastgroup]
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    def expect(self, value: str) -> _Token:
        tok = self.peek()
        if tok.value != value:
            raise self.error(f"expected {value!r}, found {tok.value!r}")
        return self.next()

    # formula := implies
    def parse_formula(self) -> Formula:
        left = self.parse_or()
        if self.peek().value == "->":
            self.next()
            right = self.parse_formula()  # right-associative
            return Implies(left, right)
        return left

    def parse_or(self) -> Formula:
        parts = [self.parse_and()]
        while self.peek().value == "or":
            self.next()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> Formula:
        parts = [self.parse_unary()]
        while self.peek().value == "and":
            self.next()
            parts.append(self.parse_unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.value == "not":
            self.next()
            return Not(self.parse_unary())
        if tok.value in ("alw", "G"):
            self.next()
            a, b = self.parse_interval()
            return Always(a, b, self.parse_unary())
        if tok.value in ("ev", "F"):
            self.next()
            a, b = self.parse_interval()
            return Eventually(a, b, self.parse_unary())
        return self.parse_primary()

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
        sign = 1.0
        if self.peek().value == "-":
            self.next()
            sign = -1.0
        tok = self.peek()
        if tok.kind != "num":
            raise self.error(f"expected number, found {tok.value!r}")
        self.next()
        return sign * float(tok.value)

    def parse_primary(self) -> Formula:
        tok = self.peek()
        if tok.value == "(":
            self.next()
            inner = self.parse_formula()
            if self.peek().value == "U":
                self.next()
                a, b = self.parse_interval()
                right = self.parse_formula()
                self.expect(")")
                return Until(a, b, inner, right)
            self.expect(")")
            return inner
        return self.parse_atom()

    # atom := expr cmp expr, folded into margin form at parse time
    def parse_atom(self) -> Formula:
        start = self.pos
        lhs_coeffs, lhs_const = self.parse_expr()
        op = self.peek().value
        if op not in ("<", "<=", ">", ">="):
            raise self.error(f"expected comparison operator, found {op!r}")
        self.next()
        rhs_coeffs, rhs_const = self.parse_expr()
        sign = 1.0 if op in (">", ">=") else -1.0
        coeffs: dict[str, float] = {}
        for name, c in lhs_coeffs.items():
            coeffs[name] = coeffs.get(name, 0.0) + sign * c
        for name, c in rhs_coeffs.items():
            coeffs[name] = coeffs.get(name, 0.0) - sign * c
        constant = sign * (lhs_const - rhs_const)
        text = " ".join(t.value for t in self.tokens[start : self.pos])
        return Atom(
            coeffs=tuple(sorted((n, c) for n, c in coeffs.items() if c != 0.0)),
            constant=constant,
            text=text,
        )

    def parse_expr(self) -> tuple[dict[str, float], float]:
        coeffs: dict[str, float] = {}
        const = 0.0
        sign = 1.0
        if self.peek().value in ("+", "-"):
            sign = -1.0 if self.next().value == "-" else 1.0
        while True:
            name, value = self.parse_term()
            if name is None:
                const += sign * value
            else:
                coeffs[name] = coeffs.get(name, 0.0) + sign * value
            nxt = self.peek().value
            if nxt in ("+", "-"):
                sign = -1.0 if self.next().value == "-" else 1.0
            else:
                return coeffs, const

    def parse_term(self) -> tuple[str | None, float]:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            value = float(tok.value)
            if self.peek().value == "*":
                self.next()
                ident = self.peek()
                if ident.kind != "ident" or ident.value in _KEYWORDS:
                    raise self.error("expected identifier after '*'")
                self.next()
                return ident.value, value
            return None, value
        if tok.kind == "ident" and tok.value not in _KEYWORDS:
            self.next()
            return tok.value, 1.0
        raise self.error(f"expected term, found {tok.value!r}")


def parse(text: str) -> Formula:
    """Parse a textual STL specification into a formula tree."""
    if not text or not text.strip():
        raise ParseError("empty specification", 1, 1)
    parser = _Parser(text)
    formula = parser.parse_formula()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.value!r}", tok.line, tok.column)
    return formula


# ---------------------------------------------------------------------------
# Robustness evaluation
#
# Each node is evaluated into a (B, m) array of robustness values, one row
# per trace of a batch, over the valid prefix of the traces: entry [b, i] is
# the robustness of trace b at grid instant i, and m shrinks by the node's
# temporal window so every entry is backed by actual trace data.


def _interval_steps(a: float, b: float, dt: float) -> tuple[int, int]:
    lo = int(math.ceil(a / dt - _GRID_TOL))
    hi = int(math.floor(b / dt + _GRID_TOL))
    if hi < lo:
        raise ValueError(f"interval [{a}, {b}] contains no grid instant at dt={dt}")
    return lo, hi


def _window_sum(x: np.ndarray, w: int) -> np.ndarray:
    c = np.concatenate((np.zeros((len(x), 1)), np.cumsum(x, axis=1)), axis=1)
    return c[:, w:] - c[:, :-w]


def _combine_and(stack: np.ndarray, additive: bool) -> np.ndarray:
    if not additive:
        return stack.min(axis=0)
    vmin = stack.min(axis=0)
    negsum = np.clip(stack, None, 0.0).sum(axis=0)
    return np.where(vmin > 0, vmin, negsum)


def _combine_or(stack: np.ndarray, additive: bool) -> np.ndarray:
    if not additive:
        return stack.max(axis=0)
    vmax = stack.max(axis=0)
    possum = np.clip(stack, 0.0, None).sum(axis=0)
    return np.where(vmax < 0, vmax, possum)


def _until(left: np.ndarray, right: np.ndarray, lo: int, hi: int, additive: bool) -> np.ndarray:
    """Until robustness from (B, m) operand values, one array pass per window
    offset d: the candidate at d joins ``right`` at i+d with ``left`` held
    over i..i+d, and the result is the disjunction of the candidates for d
    in [lo, hi]."""
    n_out = max(min(left.shape[1], right.shape[1]) - hi, 0)
    hold = np.full((len(left), n_out), math.inf)
    hold_negsum = np.zeros_like(hold)
    best = np.full_like(hold, -math.inf)
    possum = np.zeros_like(hold)
    for d in range(hi + 1):
        left_d = left[:, d : d + n_out]
        hold = np.minimum(hold, left_d)
        if additive:
            hold_negsum += np.minimum(left_d, 0.0)
        if d < lo:
            continue
        right_d = right[:, d : d + n_out]
        if additive:
            held = np.where(hold > 0, hold, hold_negsum)
            cand = _combine_and(np.stack([right_d, held]), True)
            possum += np.maximum(cand, 0.0)
        else:
            cand = np.minimum(right_d, hold)
        best = np.maximum(best, cand)
    if additive:
        return np.where(best < 0, best, possum)
    return best


def _eval(f: Formula, channels: Mapping[str, np.ndarray], dt: float, additive: bool) -> np.ndarray:
    if isinstance(f, Atom):
        return f.margin(channels)
    if isinstance(f, Not):
        return -_eval(f.child, channels, dt, additive)
    if isinstance(f, (And, Or)):
        parts = [_eval(c, channels, dt, additive) for c in f.children]
        m = min(p.shape[1] for p in parts)
        stack = np.stack([p[:, :m] for p in parts])
        combine = _combine_and if isinstance(f, And) else _combine_or
        return combine(stack, additive)
    if isinstance(f, Implies):
        left = _eval(f.left, channels, dt, additive)
        right = _eval(f.right, channels, dt, additive)
        m = min(left.shape[1], right.shape[1])
        return _combine_or(np.stack([-left[:, :m], right[:, :m]]), additive)
    if isinstance(f, (Always, Eventually)):
        child = _eval(f.child, channels, dt, additive)
        lo, hi = _interval_steps(f.a, f.b, dt)
        w = hi - lo + 1
        if child.shape[1] < hi + 1:
            return np.empty((len(child), 0))
        windows = sliding_window_view(child, w, axis=1)
        if isinstance(f, Always):
            agg = windows.min(axis=2)
            if additive:
                negsum = _window_sum(np.clip(child, None, 0.0), w)
                agg = np.where(agg > 0, agg, negsum)
        else:
            agg = windows.max(axis=2)
            if additive:
                possum = _window_sum(np.clip(child, 0.0, None), w)
                agg = np.where(agg < 0, agg, possum)
        return agg[:, lo:]
    if isinstance(f, Until):
        left = _eval(f.left, channels, dt, additive)
        right = _eval(f.right, channels, dt, additive)
        return _until(left, right, *_interval_steps(f.a, f.b, dt), additive)
    raise TypeError(f"unknown formula node {f!r}")


def _t0_index(trace: Signal, t0: float) -> int:
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


def _robustness_at(f: Formula, channels: Mapping[str, np.ndarray], dt: float,
                   additive: bool, idx: int, t0: float, end_time: float) -> np.ndarray:
    values = _eval(f, channels, dt, additive)
    if idx >= values.shape[1]:
        raise ValueError(
            f"trace too short: formula horizon {horizon_of(f)} s does not fit "
            f"after t0={t0} within end time {end_time} s"
        )
    out = values[:, idx]
    if not np.all(np.isfinite(out)):
        raise ValueError("robustness is non-finite; trace contains bad values")
    return out


def robustness(f: Formula, trace: Signal, t0: float = 0.0, semantics: str = "classic") -> float:
    """Quantitative robustness of ``f`` on ``trace`` at time ``t0``.

    ``semantics`` is ``"classic"`` or ``"additive"``.  Raises ``ValueError``
    when the trace is too short for the formula's temporal horizon.
    """
    additive = _is_additive(semantics)
    idx = _t0_index(trace, t0)
    channels = {name: c[None, :] for name, c in zip(trace.channel_names, trace.channels)}
    return float(_robustness_at(f, channels, trace.dt, additive, idx, t0, trace.end_time)[0])


def robustness_batch(f: Formula, channels: Mapping[str, np.ndarray], dt: float,
                     semantics: str = "classic") -> np.ndarray:
    """Robustness of ``f`` at time 0 for a batch of B traces.

    ``channels`` maps every channel name to a (B, n) array sampled on the
    uniform grid {0, dt, ..., (n-1)*dt}.  Entry b of the result equals
    :func:`robustness` of trace b alone.
    """
    additive = _is_additive(semantics)
    n = next(iter(channels.values())).shape[1]
    return _robustness_at(f, channels, dt, additive, 0, 0.0, (n - 1) * dt)

