import math

import numpy as np
import pytest

from conftest import boolean_eval, brute_robustness, random_formula, random_trace

from pulsefalsify.signals import Signal
from pulsefalsify.stl import (
    Always,
    And,
    Atom,
    Eventually,
    Not,
    Or,
    ParseError,
    Until,
    channels_of,
    horizon_of,
    parse,
    robustness,
)
from pulsefalsify.stl import _until


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

    def test_t0_shifts_evaluation(self):
        tr = ramp_trace()
        assert robustness(parse("y > 0"), tr, 0.5, "classic") == pytest.approx(0.5)

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


def _additive_and_reference(values):
    values = np.asarray(values, dtype=float)
    if np.all(values > 0):
        return float(values.min())
    return float(values[values < 0].sum())


def _additive_or_reference(values):
    values = np.asarray(values, dtype=float)
    if np.all(values < 0):
        return float(values.max())
    return float(values[values > 0].sum())


def until_row_reference(left, right, lo, hi, additive):
    """The former per-instant Until loop, on one trace's 1-D operand values;
    the array evaluator must match it."""
    n_out = max(min(len(left), len(right)) - hi, 0)
    out = np.empty(n_out)
    for i in range(n_out):
        if additive:
            cands = []
            for j in range(i + lo, i + hi + 1):
                hold = _additive_and_reference(left[i : j + 1]) if j > i else float(left[i])
                cands.append(_additive_and_reference(np.array([right[j], hold])))
            out[i] = _additive_or_reference(np.array(cands))
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
