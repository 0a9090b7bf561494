import copy
import dataclasses
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import (
    OVERFLOW_DOC,
    additive_and,
    additive_or,
    boolean_eval,
    brute_robustness,
    random_formula,
    random_trace,
    render_formula,
)

from pulsefalsify import builtin_benchmark, builtin_benchmark_names, stl
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
    ParseError,
    Until,
    channels_of,
    horizon_of,
    parse,
    robustness,
    robustness_batch,
)
from pulsefalsify.stl import _conj, _eval, _operands, _reach, _until, _windows


def ramp_trace():
    t = np.arange(11) * 0.1
    return Signal(times=t, channels=(t.copy(),), channel_names=("y",))


class TestParse:
    def test_always_atom(self):
        f = parse("alw[0,10](speed < 120)")
        assert isinstance(f, Always)
        assert (f.a, f.b) == (0.0, 10.0)
        assert isinstance(f.child, Atom)
        assert f.child.coeffs == (("speed", -1.0),)
        assert f.child.constant == 120.0

    def test_binary_connective(self):
        f = parse("ev[0,5](x > 0.9) and alw[0,5](x < 2)")
        assert isinstance(f, And)
        assert isinstance(f.children[0], Eventually)
        assert isinstance(f.children[1], Always)

    def test_malformed_interval(self):
        with pytest.raises(ParseError):
            parse("alw[5,2](x > 0)")

    def test_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse("alw[0,1] @")
        assert "column" in str(exc.value)

    def test_precedence_not_and_or_implies(self):
        f = parse("not a > 0 and b > 0 or c > 0 -> d > 0")
        # ((not a>0) and b>0) or c>0, then implies
        assert f.__class__.__name__ == "Implies"
        assert isinstance(f.left, Or)
        assert isinstance(f.left.children[0], And)
        assert isinstance(f.left.children[0].children[0], Not)

    def test_until_form(self):
        f = parse("(x > 0 U[0,2] y > 1)")
        assert isinstance(f, Until)
        assert (f.a, f.b) == (0.0, 2.0)

    def test_affine_atom(self):
        f = parse("y5 - y4 <= 40")
        assert f.coeffs == (("y4", 1.0), ("y5", -1.0))
        assert f.constant == 40.0

    def test_scalar_multiplication(self):
        f = parse("2*x - 0.5 > 0")
        assert f.coeffs == (("x", 2.0),)
        assert f.constant == -0.5

    def test_unary_minus_literal(self):
        f = parse("x >= -1.5")
        assert f.constant == 1.5

    def test_g_and_f_aliases(self):
        assert isinstance(parse("G[0,1](x > 0)"), Always)
        assert isinstance(parse("F[0,1](x > 0)"), Eventually)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x > 0 )")

    @pytest.mark.parametrize("text, column", [
        ("alw[0,1e400](x > 0)", 7),
        ("alw[0,10](y <= 1e400)", 16),
        ("x > -1e999", 6),
        ("1e400*x > 0", 1),
        ("ev[0,1](x > 0) and\n  (y > 0 U[1e309,2e309] x > 0)", 12),
    ])
    def test_non_finite_literal_reports_its_position(self, text, column):
        with pytest.raises(ParseError, match="not finite") as exc:
            parse(text)
        # each literal is on the last line: line 2 of the multi-line text
        assert (exc.value.line, exc.value.column) == (text.count("\n") + 1, column)

    @pytest.mark.parametrize("text, message, line, column", [
        ("x > 0 and\n  y > @", "unexpected character '@'", 2, 7),
        ("x > 0 and\r\n  y > @", "unexpected character '@'", 2, 7),
        ("x > 0 and\n\ty > @", "unexpected character '@'", 2, 6),
        ("x > 0\n\t\t@", "unexpected character '@'", 2, 3),
        ("x > 0 and\n  alw[5,2] (y > 0)", "malformed interval [5.0, 2.0]", 2, 12),
        ("x > 0 or\n\n  y > 1e308 + 1e308", "atom 'y > 1e308 + 1e308' overflows", 3, 3),
        ("x > 0\n)", "unexpected trailing input ')'", 2, 1),
        ("x > 0\r\n\r\n  y > 1", "unexpected trailing input 'y'", 3, 3),
        ("alw[0,1]\n\t(x > 0 and\r\n\ty > 0) )", "unexpected trailing input ')'", 3, 9),
    ])
    def test_errors_past_the_first_line_report_their_position(self, text, message, line, column):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value).startswith(message)
        assert str(exc.value).endswith(f"(line {line}, column {column})")
        assert (exc.value.line, exc.value.column) == (line, column)

    @pytest.mark.parametrize("copier", [copy.copy, lambda e: pickle.loads(pickle.dumps(e))])
    def test_parse_error_survives_pickle_and_copy(self, copier):
        with pytest.raises(ParseError) as exc:
            parse("x > 0 and\n  y > @")
        error = exc.value
        clone = copier(error)
        assert type(clone) is ParseError
        assert (str(clone), clone.line, clone.column) == (str(error), 2, 7)

    @pytest.mark.parametrize("text, message", [
        ("alw[0,1 (x > 0)", "expected ']', found '(' (line 1, column 9)"),
        ("alw[0,a](x > 0)", "expected number, found 'a' (line 1, column 7)"),
        ("x + 1", "expected comparison operator, found '' (line 1, column 6)"),
        ("2 * 3 > 0", "expected identifier after '*' (line 1, column 5)"),
        ("2 * alw > 0", "expected identifier after '*' (line 1, column 5)"),
    ])
    def test_what_the_parser_expected_is_reported(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", ["x > 1e308 + 1e308", "1e308*x + 1e308*x > 0"])
    def test_atom_that_overflows_rejected(self, text):
        with pytest.raises(ParseError, match="non-finite") as exc:
            parse(text)
        assert (exc.value.line, exc.value.column) == (1, 1)


def walk(f):
    yield f
    if not isinstance(f, Atom):
        for child in _operands(f):
            yield from walk(child)


def without_text(f):
    """``f`` with every ``Atom.text`` emptied, the one field a render drops."""
    if isinstance(f, Atom):
        return dataclasses.replace(f, text="")
    fields = {}
    for field in dataclasses.fields(f):
        value = getattr(f, field.name)
        if isinstance(value, Formula):
            value = without_text(value)
        elif isinstance(value, tuple):
            value = tuple(map(without_text, value))
        fields[field.name] = value
    return type(f)(**fields)


class TestParseRoundTrip:
    """Rendered random formulas parse back to themselves, node by node."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rendered_formulas_parse_back(self, seed):
        rng = np.random.default_rng(seed)
        kinds = set()
        for _ in range(60):
            trace = random_trace(rng, max_samples=60)
            budget = trace.times[-1]
            f1, f2, f3 = (random_formula(rng, trace, int(rng.integers(0, 4)), budget)
                          for _ in range(3))
            # random_formula makes no Implies; these two pin "->" to the right
            for f in (f1, Implies(f1, Implies(f2, f3)), Implies(Implies(f1, f2), f3)):
                text = render_formula(f, rng)
                assert without_text(parse(text)) == without_text(f), text
                kinds.update(type(node).__name__ for node in walk(f))
        assert kinds == {"Atom", "Not", "And", "Or", "Implies", "Always", "Eventually", "Until"}


class TestHorizon:
    def test_atom(self):
        assert horizon_of(parse("x > 0")) == 0.0

    def test_nested(self):
        assert horizon_of(parse("alw[0,10](ev[0,5](x > 0))")) == 15.0

    def test_branch_max(self):
        assert horizon_of(parse("alw[2,4](x>0) and ev[0,9](y<1)")) == 9.0

    def test_until(self):
        assert horizon_of(parse("(alw[0,2](x>0) U[0,3] y>0)")) == 5.0


class TestChannels:
    def test_collects_atoms_under_every_operator(self):
        f = parse("not a > 0 and alw[0,1](b + 2*c < 1) or (d > 0 U[0,1] ev[0,1](e > 0)) -> f > 0")
        assert channels_of(f) == {"a", "b", "c", "d", "e", "f"}

    def test_constant_atom_reads_no_channel(self):
        assert channels_of(parse("x - x + 1 > 0")) == frozenset()


class TestClassicRobustness:
    def test_always_on_ramp(self):
        rho = robustness(parse("alw[0,1](y < 0.5)"), ramp_trace(), 0.0, "classic")
        assert rho == pytest.approx(-0.5)

    def test_eventually_on_ramp(self):
        rho = robustness(parse("ev[0,1](y > 0.5)"), ramp_trace(), 0.0, "classic")
        assert rho == pytest.approx(0.5)

    def test_zero_margin_boundary(self):
        tr = ramp_trace()
        assert robustness(parse("y > 0"), tr, 0.0, "classic") == 0.0

    def test_trace_too_short(self):
        with pytest.raises(ValueError):
            robustness(parse("alw[0,2](y < 1)"), ramp_trace(), 0.0, "classic")
        with pytest.raises(ValueError, match="trace too short"):
            robustness_batch(parse("alw[0,2](y < 1)"), {"y": ramp_trace().channels[0][None]},
                             0.1)

    @pytest.mark.parametrize("semantics", ["classic", "additive"])
    def test_overflowing_margin(self, semantics):
        # finite samples whose margin overflows: a trace raises, while a
        # batch returns the value as computed, for its caller to judge
        f = parse(OVERFLOW_DOC["specs"]["big"])
        u1 = np.full(6, 1.5e308)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="robustness is non-finite"):
                robustness(f, Signal(np.arange(6) * 0.2, (u1,), ("u1",)), 0.0, semantics)
            assert robustness_batch(f, {"u1": u1[None]}, 0.2, semantics).tolist() == [-math.inf]

    def test_t0_shifts_evaluation(self):
        tr = ramp_trace()
        assert robustness(parse("y > 0"), tr, 0.5, "classic") == pytest.approx(0.5)

    @pytest.mark.parametrize("t0", [math.inf, -math.inf, math.nan, 1e308])
    def test_non_finite_t0_rejected(self, t0):
        with pytest.raises(ValueError, match=re.escape(f"t0={t0} is not finite")):
            robustness(parse("y > 0"), ramp_trace(), t0, "classic")

    @pytest.mark.parametrize("t0, message", [
        (0.05, "t0=0.05 is not on the trace grid (dt=0.1)"),
        (1.1, "t0=1.1 outside the trace domain"),
        (-0.1, "t0=-0.1 outside the trace domain"),
    ])
    def test_t0_off_the_grid_or_outside_the_trace_rejected(self, t0, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            robustness(parse("y > 0"), ramp_trace(), t0, "classic")

    def test_window_with_no_grid_instant_rejected(self):
        # [0.01, 0.02] lies strictly between the instants 0 and 0.1
        with pytest.raises(ValueError, match=re.escape(
                "interval [0.01, 0.02] contains no grid instant at dt=0.1")):
            robustness(parse("alw[0.01,0.02](y > 0)"), ramp_trace(), 0.0, "classic")

    def test_interval_past_the_largest_float_rejected(self):
        with pytest.raises(ValueError, match="not finite on the grid"):
            robustness(parse("alw[0,1e308](y > 0)"), ramp_trace(), 0.0, "classic")

    def test_negation_duality(self, rng):
        for _ in range(50):
            tr = random_trace(rng, 60)
            f = random_formula(rng, tr, 2, tr.end_time)
            assert robustness(Not(f), tr, 0.0, "classic") == pytest.approx(
                -robustness(f, tr, 0.0, "classic"), abs=1e-12
            )

    def test_atom_monotonicity(self):
        tr = ramp_trace()
        shifted = Signal(tr.times, (tr.channels[0] + 0.25,), ("y",))
        f = parse("y > 0.1")
        assert robustness(f, shifted, 0.0, "classic") - robustness(
            f, tr, 0.0, "classic") == pytest.approx(0.25)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(150):
            tr = random_trace(rng, 100)
            f = random_formula(rng, tr, 3, tr.end_time)
            assert robustness(f, tr, 0.0, "classic") == pytest.approx(
                brute_robustness(f, tr, 0), abs=1e-9
            )

    def test_sign_soundness(self, rng):
        checked = 0
        for _ in range(150):
            tr = random_trace(rng, 80)
            f = random_formula(rng, tr, 3, tr.end_time)
            rho = robustness(f, tr, 0.0, "classic")
            if abs(rho) < 1e-12:
                continue
            assert (rho > 0) == boolean_eval(f, tr, 0)
            checked += 1
        assert checked > 100


class TestAdditiveRobustness:
    def test_and_sums_violations(self):
        t = np.array([0.0, 1.0])
        tr = Signal(t, (np.array([-1.0, -1.0]), np.array([-2.0, -2.0])), ("a", "b"))
        f = And((parse("a > 0"), parse("b > 0")))
        assert robustness(f, tr, 0.0, "additive") == pytest.approx(-3.0)

    def test_and_all_positive_is_min(self):
        t = np.array([0.0, 1.0])
        tr = Signal(t, (np.array([1.0, 1.0]), np.array([2.0, 2.0])), ("a", "b"))
        f = And((parse("a > 0"), parse("b > 0")))
        assert robustness(f, tr, 0.0, "additive") == pytest.approx(1.0)

    def test_or_all_negative_is_max(self):
        t = np.array([0.0, 1.0])
        tr = Signal(t, (np.array([-1.0, -1.0]), np.array([-2.0, -2.0])), ("a", "b"))
        f = Or((parse("a > 0"), parse("b > 0")))
        assert robustness(f, tr, 0.0, "additive") == pytest.approx(-1.0)

    def test_always_sums_violations(self):
        # y(t) = t - 0.25 is negative at t in {0, 0.1, 0.2}: sum -0.45
        tr = ramp_trace()
        f = parse("alw[0,1](y > 0.25)")
        assert robustness(f, tr, 0.0, "additive") == pytest.approx(-0.25 - 0.15 - 0.05)

    def test_eventually_sums_satisfactions(self):
        tr = ramp_trace()
        f = parse("ev[0,1](y > 0.75)")
        # positive margins at t in {0.8, 0.9, 1.0}: 0.05 + 0.15 + 0.25
        assert robustness(f, tr, 0.0, "additive") == pytest.approx(0.45)

    def test_sign_agrees_with_classic(self, rng):
        for _ in range(150):
            tr = random_trace(rng, 80)
            f = random_formula(rng, tr, 3, tr.end_time)
            classic = robustness(f, tr, 0.0, "classic")
            additive = robustness(f, tr, 0.0, "additive")
            assert np.sign(classic) == np.sign(additive)

    @pytest.mark.parametrize("spec", ["alw[12,17](x < 0)", "ev[12,17](x > 0)"])
    def test_window_sum_keeps_a_tiny_margin_after_a_huge_prefix(self, spec):
        # 201 samples at dt=0.1: x is 1e6 before t=12, -1 in the window
        # except 1e-12 at t=15, so the window holds one margin of +-1e-12
        # and a difference of running sums over the prefix would lose it
        x = np.full(201, -1.0)
        x[:120] = 1e6
        x[150] = 1e-12
        tr = Signal(np.arange(201) * 0.1, (x,), ("x",))
        f = parse(spec)
        classic = robustness(f, tr, 0.0, "classic")
        additive = robustness(f, tr, 0.0, "additive")
        assert abs(classic) == 1e-12
        assert np.sign(additive) == np.sign(classic)
        assert additive == classic

    def test_matches_additive_oracle(self, rng):
        for _ in range(200):
            tr = random_trace(rng, 80)
            f = random_formula(rng, tr, 3, tr.end_time)
            assert robustness(f, tr, 0.0, "additive") == pytest.approx(
                brute_robustness(f, tr, 0, additive=True), rel=1e-9, abs=1e-9
            )

    @pytest.mark.parametrize("semantics", ["classic", "additive"])
    def test_implies_matches_oracle(self, rng, semantics):
        # random_formula draws no "->", so its two operands are drawn here
        for _ in range(100):
            tr = random_trace(rng, 60)
            f = Implies(random_formula(rng, tr, 2, tr.end_time),
                        random_formula(rng, tr, 2, tr.end_time))
            assert robustness(f, tr, 0.0, semantics) == pytest.approx(
                brute_robustness(f, tr, 0, additive=semantics == "additive"), rel=1e-9, abs=1e-9
            )

    @pytest.mark.parametrize("op, oracle", [("alw", additive_and), ("ev", additive_or)])
    def test_windows_of_a_batch_match_the_oracle(self, rng, op, oracle):
        # every instant of every row of a (B, n) child, in windows of w > 1
        # samples, some of them past the 8 that numpy sums without pairing
        for _ in range(20):
            rows, n = rng.integers(1, 6), rng.integers(20, 120)
            x = rng.normal(size=(rows, n))
            x[rng.random((rows, n)) < 0.2] = 0.0
            lo, hi = np.sort(rng.choice(n // 2, 2, replace=False))
            values = _eval(parse(f"{op}[{lo},{hi}](x > 0)"), {"x": x}, 1.0, True)
            assert values.shape == (rows, n - hi)
            for b in range(rows):
                for i in range(n - hi):
                    assert values[b, i] == pytest.approx(oracle(x[b, i + lo : i + hi + 1]),
                                                         rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("op", ["alw", "ev"])
    def test_windows_build_no_array_of_every_window(self, op):
        # 2,001 windows of 2,001 samples: their values alone would be 32 MB
        x = np.random.default_rng(0).normal(size=(1, 4001))
        tracemalloc.start()
        try:
            _eval(parse(f"{op}[0,2000](x > 0)"), {"x": x}, 1.0, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_windows_equal_sliding_window_view(self, rng):
        for _ in range(10):
            shape = tuple(int(k) for k in rng.integers(1, 12, size=rng.integers(2, 4)))
            # a strided operand as well as a contiguous one
            for values in (rng.normal(size=shape), rng.normal(size=shape)[..., ::-1]):
                for axis in range(-values.ndim, values.ndim):
                    for window in range(1, values.shape[axis] + 1):
                        got = _windows(values, window, axis)
                        expected = sliding_window_view(values, window, axis=axis)
                        assert got.shape == expected.shape and got.strides == expected.strides
                        assert np.array_equal(got, expected) and not got.flags.writeable

    def test_unknown_semantics_rejected(self):
        with pytest.raises(ValueError):
            robustness(parse("y > 0"), ramp_trace(), 0.0, "fuzzy")


class TestUntil:
    def test_matches_oracle(self, rng):
        for _ in range(60):
            tr = random_trace(rng, 60)
            max_b = min(tr.end_time, 10 * tr.dt)
            hi = int(rng.integers(1, int(max_b / tr.dt) + 1))
            lo = int(rng.integers(0, hi + 1))
            f = Until(
                lo * tr.dt, hi * tr.dt,
                random_formula(rng, tr, 1, 0.0),
                random_formula(rng, tr, 1, 0.0),
            )
            assert robustness(f, tr, 0.0, "classic") == pytest.approx(
                brute_robustness(f, tr, 0), abs=1e-9
            )

    def test_additive_until_sign(self, rng):
        for _ in range(40):
            tr = random_trace(rng, 50)
            hi = int(rng.integers(1, 8))
            f = Until(0.0, hi * tr.dt, random_formula(rng, tr, 1, 0.0),
                      random_formula(rng, tr, 1, 0.0))
            assert np.sign(robustness(f, tr, 0.0, "additive")) == np.sign(
                robustness(f, tr, 0.0, "classic"))


def until_row_reference(left, right, lo, hi, additive):
    """The former per-instant Until loop, on one trace's 1-D operand values;
    the array evaluator must match it."""
    n_out = max(min(len(left), len(right)) - hi, 0)
    out = np.empty(n_out)
    for i in range(n_out):
        if additive:
            cands = []
            for j in range(i + lo, i + hi + 1):
                hold = additive_and(left[i : j + 1]) if j > i else float(left[i])
                cands.append(additive_and(np.array([right[j], hold])))
            out[i] = additive_or(np.array(cands))
        else:
            hold = math.inf
            best = -math.inf
            for k in range(i, i + lo):
                hold = min(hold, left[k])
            for j in range(i + lo, i + hi + 1):
                hold = min(hold, left[j])
                best = max(best, min(right[j], hold))
            out[i] = best
    return out


def random_operands(rng, rows, m_left, m_right):
    # rounded to one decimal so that zero margins occur
    left = np.round(rng.uniform(-1.0, 1.0, (rows, m_left)), 1)
    right = np.round(rng.uniform(-1.0, 1.0, (rows, m_right)), 1)
    return left, right


def random_until_case(rng):
    rows = int(rng.integers(1, 4))
    m_left, m_right = (int(m) for m in rng.integers(1, 40, size=2))
    hi = int(rng.integers(0, 12))
    lo = int(rng.integers(0, hi + 1))
    return random_operands(rng, rows, m_left, m_right) + (lo, hi)


class TestUntilArrays:
    """``_until`` on (B, m) operand arrays against the per-instant loop."""

    def test_classic_equals_loop(self, rng):
        for _ in range(300):
            left, right, lo, hi = random_until_case(rng)
            out = _until(left, right, lo, hi, False)
            for row in range(len(left)):
                expected = until_row_reference(left[row], right[row], lo, hi, False)
                assert out[row].tolist() == expected.tolist()

    def test_additive_matches_loop(self, rng):
        # the hold and the disjunction are summed in a different order
        for _ in range(300):
            left, right, lo, hi = random_until_case(rng)
            out = _until(left, right, lo, hi, True)
            for row in range(len(left)):
                expected = until_row_reference(left[row], right[row], lo, hi, True)
                np.testing.assert_allclose(out[row], expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("additive", [False, True])
    def test_rows_equal_rows_evaluated_alone(self, rng, additive):
        left, right = random_operands(rng, 5, 60, 60)
        out = _until(left, right, 3, 9, additive)
        assert out.shape == (5, 51)
        for row in range(5):
            alone = _until(left[row : row + 1], right[row : row + 1], 3, 9, additive)
            assert out[row].tolist() == alone[0].tolist()

    @pytest.mark.parametrize("additive", [False, True])
    def test_lower_bound_above_zero(self, additive):
        # right holds only at the instant itself, which [1, 2] skips
        left = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        right = np.array([[9.0, -1.0, -2.0, -3.0, -4.0]])
        out = _until(left, right, 1, 2, additive)
        expected = until_row_reference(left[0], right[0], 1, 2, additive)
        assert out.shape == (1, 3)
        np.testing.assert_allclose(out[0], expected, rtol=1e-12, atol=0.0)
        assert np.all(out < 0)

    @pytest.mark.parametrize("additive", [False, True])
    def test_window_past_the_operands_leaves_no_instant(self, additive):
        left, right = np.ones((3, 4)), np.ones((3, 6))
        assert _until(left, right, 1, 4, additive).shape == (3, 0)
        assert _until(left, right, 0, 9, additive).shape == (3, 0)

    @pytest.mark.parametrize("additive", [False, True])
    def test_unequal_operand_lengths(self, rng, additive):
        for m_left, m_right in ((30, 17), (17, 30)):
            left, right = random_operands(rng, 2, m_left, m_right)
            out = _until(left, right, 2, 5, additive)
            assert out.shape == (2, 12)
            for row in range(2):
                expected = until_row_reference(left[row], right[row], 2, 5, additive)
                np.testing.assert_allclose(out[row], expected, rtol=1e-12, atol=0.0)


def until_offset_loop(left, right, lo, hi, additive):
    """The Until evaluator before its window offsets went in slabs: one
    array pass per offset d.  ``_until`` must match it bit for bit."""
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
        held = np.where(hold > 0, hold, hold_negsum) if additive else hold
        cand = _conj(np.stack([right[:, d : d + n_out], held]), 0, additive)
        best = np.maximum(best, cand)
        if additive:
            possum += np.maximum(cand, 0.0)
    if additive:
        return np.where(best < 0, best, possum)
    return best


def same_bits(got, expected):
    return got.shape == expected.shape and np.array_equal(got.view(np.int64),
                                                          expected.view(np.int64))


def special_operands(rng, rows, m_left, m_right):
    """Operands over nine decades, a share of them 0.0, -0.0, NaN or +-inf.
    The NaN is numpy's positive one: where two NaNs meet, which one numpy
    keeps depends on its code path, so a NaN's sign is not compared."""
    specials = np.array([0.0, -0.0, math.nan, math.inf, -math.inf])
    out = []
    for m in (m_left, m_right):
        values = rng.normal(size=(rows, m)) * 10.0 ** rng.integers(-4, 5, size=(rows, m))
        special = rng.random((rows, m)) < rng.choice([0.0, 0.1, 0.5])
        values[special] = rng.choice(specials, special.sum())
        out.append(values)
    return out


class TestUntilSlabs:
    """``_until`` takes the window offsets in slabs; the values must be
    those of one pass per offset, bit for bit, however the slabs fall."""

    @pytest.mark.parametrize("additive", [False, True])
    def test_equals_the_offset_loop(self, rng, monkeypatch, additive):
        for _ in range(300):
            rows = int(rng.integers(0, 5))
            m_left, m_right = (int(m) for m in rng.integers(1, 50, size=2))
            hi = int(rng.integers(0, 60))  # past the operands, too
            lo = int(rng.integers(0, hi + 1))
            left, right = special_operands(rng, rows, m_left, m_right)
            if rng.random() < 0.3:
                left = left[:, ::-1]  # a strided operand
            # slabs of one offset up to every offset at once
            monkeypatch.setattr(stl, "_UNTIL_SLAB", int(rng.choice([1, 7, 60, 2**14])))
            monkeypatch.setattr(stl, "_UNTIL_WIDE", int(rng.choice([0, 20, 2**9])))
            with np.errstate(all="ignore"):
                got = _until(left, right, lo, hi, additive)
                expected = until_offset_loop(left, right, lo, hi, additive)
            assert same_bits(got, expected), (rows, m_left, m_right, lo, hi)

    @pytest.mark.parametrize("additive", [False, True])
    @pytest.mark.parametrize("rows, n, lo, hi", [
        (2, 300, 3, 99),   # 402 values an offset: slabs of 40 offsets
        (8, 160, 0, 59),   # 808 values an offset: slabs of one offset
        (1, 1100, 1000, 1050),  # lo inside the fourth slab of 327 offsets
    ])
    def test_blocks_of_several_slabs(self, rng, rows, n, lo, hi, additive):
        width = rows * (n - hi)
        step = 1 if width > stl._UNTIL_WIDE else stl._UNTIL_SLAB // width
        assert hi + 1 > step
        left, right = special_operands(rng, rows, n, n)
        with np.errstate(all="ignore"):
            assert same_bits(_until(left, right, lo, hi, additive),
                             until_offset_loop(left, right, lo, hi, additive))


    @pytest.mark.parametrize("slab", [1, 3, 7, 2**14])
    @pytest.mark.parametrize("case", ["negative sum", "positive sum"])
    def test_sums_run_in_offset_order(self, rng, monkeypatch, slab, case):
        # additive values that are one running sum, over slabs of `slab`
        # offsets: with left negative and right far below zero but at the
        # last offset, the sum of left over the window; with both positive,
        # the sum of every candidate.  Another order of addition moves bits.
        monkeypatch.setattr(stl, "_UNTIL_SLAB", slab)
        hi = 40
        left = rng.uniform(0.0, 1.0, (1, hi + 1)) * 10.0 ** rng.integers(-3, 4, (1, hi + 1))
        right = rng.uniform(0.5, 1.0, (1, hi + 1))
        if case == "negative sum":
            left = -left
            right[0, :hi] = -1e6
        got = _until(left, right, 0, hi, True)
        assert same_bits(got, until_offset_loop(left, right, 0, hi, True))
        if case == "negative sum":
            total = 0.0
            for value in left[0].tolist():  # from the first offset to the last
                total += value
            assert got[0, 0] == total


class TestReach:
    def test_reach_counts_grid_steps(self):
        assert _reach(parse("(x1 <= 0.7 U[0,5] x2 >= 0.6)"), 0.1) == 50
        assert _reach(parse("alw[1,2](ev[0,3](x > 0)) and (y > 0 U[0,1] alw[0,4](x > 0))"),
                      1.0) == 5

    def test_builtin_specs_reach_the_whole_horizon(self):
        # so that sweeps evaluate every sample, as they did before reaches
        for name in builtin_benchmark_names():
            benchmark = builtin_benchmark(name)
            for spec in benchmark.specs.values():
                assert _reach(spec, benchmark.dt) + 1 == len(benchmark.times)

    @pytest.mark.parametrize("semantics", ["classic", "additive"])
    def test_equals_the_whole_trace_evaluated(self, rng, semantics):
        for _ in range(200):
            tr = random_trace(rng, 120)
            f = random_formula(rng, tr, 3, tr.end_time * rng.uniform(0.2, 1.0))
            channels = {name: c[None, :] for name, c in zip(tr.channel_names, tr.channels)}
            whole = _eval(f, channels, tr.dt, semantics == "additive")[0]
            idx = int(rng.integers(0, len(whole)))
            got = np.float64(robustness(f, tr, idx * tr.dt, semantics))
            assert got.view(np.int64) == whole[idx].view(np.int64)
            batch = robustness_batch(f, {name: c[:, idx:] for name, c in channels.items()},
                                     tr.dt, semantics)
            assert batch.view(np.int64).tolist() == [got.view(np.int64)]

    @pytest.mark.parametrize("spec", [
        "(y <= 0.85 U[0,5] u >= 0.5)",            # reaches half the trace
        "alw[0,5](y <= 0.85 U[0,5] u >= 0.5)",    # reaches all of it
    ])
    @pytest.mark.parametrize("semantics, parent_mib", [("classic", 12.1), ("additive", 17.3)])
    def test_a_wide_lag_block_stays_in_memory(self, spec, semantics, parent_mib):
        # 2,595 rows of 101 samples, the widest chunk a lag sweep scores;
        # parent_mib is the peak of the loop over offsets on this block
        rng = np.random.default_rng(0)
        channels = {"u": rng.uniform(0.0, 1.0, (2595, 101)),
                    "y": rng.uniform(0.0, 1.0, (2595, 101))}
        tracemalloc.start()
        try:
            robustness_batch(parse(spec), channels, 0.1, semantics)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * parent_mib * 2**20
