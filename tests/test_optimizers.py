import math
import statistics

import numpy as np
import pytest

from pulsefalsify import optimizers
from pulsefalsify.optimizers import (
    EvalRecord,
    OptimizationResult,
    OptimizerConfig,
    SurrogateDegeneracy,
    fit_surrogate,
    latin_hypercube,
    lockstep,
    minimize,
    random_search,
    searcher,
    turbo_lite_minimize,
)


def sphere5(p):
    return float(np.sum((p - 0.5) ** 2))


def evals_to_threshold(history, threshold):
    for rec in history:
        if rec.value <= threshold:
            return rec.index
    return None


class TestLatinHypercube:
    def test_stratification_1d(self, rng):
        pts = latin_hypercube(4, 1, rng)
        strata = sorted(int(v * 4) for v in pts[:, 0])
        assert strata == [0, 1, 2, 3]

    def test_stratification_every_dim(self, rng):
        n, dim = 16, 4
        pts = latin_hypercube(n, dim, rng)
        for d in range(dim):
            assert sorted(np.floor(pts[:, d] * n).astype(int)) == list(range(n))

    def test_single_point(self, rng):
        pts = latin_hypercube(1, 3, rng)
        assert pts.shape == (1, 3)
        assert np.all((0 <= pts) & (pts <= 1))

    @pytest.mark.parametrize("n, dim", [(0, 3), (4, 0), (-1, 2)])
    def test_empty_design_rejected(self, rng, n, dim):
        with pytest.raises(ValueError, match="latin_hypercube requires n >= 1 and dim >= 1"):
            latin_hypercube(n, dim, rng)

    def test_seed_determinism(self):
        a = latin_hypercube(8, 2, np.random.default_rng(7))
        b = latin_hypercube(8, 2, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestRandomSearch:
    def test_never_negative_exhausts_budget(self):
        cfg = OptimizerConfig(kind="random_search", budget=50, seed=0)
        res = random_search(lambda p: float(p[0]) + 0.5, 1, cfg)
        assert not res.stopped_early
        assert res.evaluations_used == 50
        assert len(res.history) == 50

    def test_immediately_negative(self):
        cfg = OptimizerConfig(kind="random_search", budget=50, seed=0)
        res = random_search(lambda p: -1.0, 3, cfg)
        assert res.stopped_early
        assert res.evaluations_used == 1

    def test_half_space_negative_found(self):
        for seed in range(10):
            cfg = OptimizerConfig(kind="random_search", budget=1000, seed=seed)
            res = random_search(lambda p: float(p[0]) - 0.5, 1, cfg)
            assert res.stopped_early

    def test_non_finite_scored_as_inf(self):
        def bad(p):
            return float("nan") if p[0] < 0.9 else 1.0

        cfg = OptimizerConfig(kind="random_search", budget=20, seed=1)
        res = random_search(bad, 1, cfg)
        assert res.evaluations_used == 20
        assert all(r.value == float("inf") or r.value == 1.0 for r in res.history)

    def test_determinism(self):
        cfg = OptimizerConfig(kind="random_search", budget=30, seed=5)
        a = random_search(sphere5, 5, cfg)
        b = random_search(sphere5, 5, cfg)
        assert [r.value for r in a.history] == [r.value for r in b.history]
        np.testing.assert_array_equal(a.best.point, b.best.point)


class TestFitSurrogate:
    def test_interpolates_two_points(self):
        pts = np.array([[0.2], [0.8]])
        vals = np.array([0.0, 1.0])
        sur = fit_surrogate(pts, vals)
        pred = sur.predict(pts)
        np.testing.assert_allclose(pred, vals, atol=1e-8)

    def test_linear_exactness(self, rng):
        dim = 3
        pts = rng.random((dim + 2, dim))
        coeffs = np.array([1.0, -2.0, 0.5])
        vals = pts @ coeffs + 0.7
        sur = fit_surrogate(pts, vals)
        probe = rng.random((100, dim))
        np.testing.assert_allclose(sur.predict(probe), probe @ coeffs + 0.7, atol=1e-6)

    def test_all_identical_values_degenerate(self):
        pts = np.array([[0.1], [0.5], [0.9]])
        with pytest.raises(SurrogateDegeneracy):
            fit_surrogate(pts, np.zeros(3))

    def test_single_point_degenerate(self):
        with pytest.raises(SurrogateDegeneracy):
            fit_surrogate(np.array([[0.5, 0.5]]), np.array([1.0]))

    def test_duplicated_rows_beside_a_distinct_row_fit(self):
        # the kernel block is singular, so the ridge attempt solves it
        pts = np.array([[0.3], [0.3], [0.3], [0.8]])
        sur = fit_surrogate(pts, np.array([1.0, 1.0, 1.0, 2.0]))
        np.testing.assert_allclose(sur.predict(pts[2:]), [1.0, 2.0], atol=1e-6)

    def test_all_equal_rows_degenerate(self):
        with pytest.raises(SurrogateDegeneracy):
            fit_surrogate(np.full((4, 2), 0.3), np.array([0.0, 1.0, 2.0, 3.0]))

    def test_interpolation_random(self, rng):
        pts = rng.random((20, 2))
        vals = rng.normal(size=20)
        sur = fit_surrogate(pts, vals)
        np.testing.assert_allclose(sur.predict(pts), vals, atol=1e-8)


class TestDistances:
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_matches_norm_of_differences(self, dim, rng):
        x, y = rng.random((40, dim)), rng.random((30, dim))
        expected = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2)
        got = optimizers._distances(x, y)
        assert got.shape == (40, 30)
        if dim <= 7:
            np.testing.assert_array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dim", [1, 5, 12])
    def test_self_distances(self, dim, rng):
        x = rng.random((50, dim))
        r = optimizers._distances(x, x)
        assert np.all(np.diag(r) == 0.0)
        assert np.all(r >= 0.0)


def recorded_turbo(monkeypatch, objective, dim, budget):
    """Run turbo_lite, recording every evaluation, the number of
    evaluations made when each Latin hypercube was drawn (a phase start) and
    the points and count at each surrogate fit."""
    evaluated, phase_starts, fits = [], [], []
    real_fit, real_lhs = optimizers.fit_surrogate, optimizers.latin_hypercube

    def record_fit(points, values):
        fits.append((len(evaluated), np.array(points), np.array(values)))
        return real_fit(points, values)

    def record_lhs(*args):
        phase_starts.append(len(evaluated))
        return real_lhs(*args)

    def record_objective(point):
        value = objective(point)
        evaluated.append((np.array(point), value))
        return value

    monkeypatch.setattr(optimizers, "fit_surrogate", record_fit)
    monkeypatch.setattr(optimizers, "latin_hypercube", record_lhs)
    res = turbo_lite_minimize(
        record_objective, dim, OptimizerConfig(kind="turbo_lite", budget=budget, seed=0)
    )
    return res, evaluated, phase_starts, fits


def sphere_with_nan_region(p):
    return float("nan") if p[0] > 0.9 else sphere5(p)


class TestTurboLiteFitSet:
    @pytest.mark.parametrize("objective", [lambda p: 1.0, sphere5, sphere_with_nan_region],
                             ids=["constant", "sphere", "sphere_nan"])
    def test_fit_sees_current_phase_only(self, monkeypatch, objective):
        res, evaluated, phase_starts, fits = recorded_turbo(monkeypatch, objective, 3, 300)
        assert res.restarts >= 1
        assert phase_starts[0] == 0 and len(phase_starts) == res.restarts + 1
        assert len(fits) == res.surrogate_fits > 0
        # before the first restart every fit sees the whole history so far
        first = [(done, points) for done, points, _ in fits if done < phase_starts[1]]
        assert first
        for done, points in first:
            assert len(points) == sum(np.isfinite(v) for _, v in evaluated[:done])
        # every fit sees exactly the finite-valued records of its own phase
        for done, points, values in fits:
            start = max(s for s in phase_starts if s <= done)
            expected = [(p, v) for p, v in evaluated[start:done] if np.isfinite(v)]
            assert len(points) == len(expected)
            for point, (p, _) in zip(points, expected):
                np.testing.assert_array_equal(point, p)
            np.testing.assert_array_equal(values, [v for _, v in expected])

    def test_surrogate_counts(self, monkeypatch):
        res, _, _, fits = recorded_turbo(monkeypatch, lambda p: 1.0, 3, 200)
        assert res.surrogate_fits == len(fits) > 0
        assert res.degenerate_fits == res.surrogate_fits
        res = turbo_lite_minimize(
            sphere5, 5, OptimizerConfig(kind="turbo_lite", budget=60, seed=0)
        )
        assert res.surrogate_fits == 60 - 10
        assert res.degenerate_fits == 0
        res = random_search(sphere5, 5, OptimizerConfig(kind="random_search", budget=60))
        assert (res.surrogate_fits, res.degenerate_fits) == (0, 0)


class TestTurboLite:
    def test_sphere_beats_random(self):
        turbo_hits, turbo_evals, random_evals = 0, [], []
        for seed in range(10):
            res = turbo_lite_minimize(
                sphere5, 5, OptimizerConfig(kind="turbo_lite", budget=300, seed=seed)
            )
            n = evals_to_threshold(res.history, 1e-2)
            if n is not None:
                turbo_hits += 1
            turbo_evals.append(n if n is not None else 301)
            rnd = random_search(
                sphere5, 5, OptimizerConfig(kind="random_search", budget=300, seed=seed)
            )
            n = evals_to_threshold(rnd.history, 1e-2)
            random_evals.append(n if n is not None else 301)
        assert turbo_hits >= 8
        assert statistics.median(turbo_evals) < statistics.median(random_evals)

    def test_constant_objective_restarts(self):
        res = turbo_lite_minimize(
            lambda p: 1.0, 3, OptimizerConfig(kind="turbo_lite", budget=200, seed=0)
        )
        assert res.restarts >= 1
        assert not res.stopped_early
        assert res.evaluations_used == 200

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_trust_region_schedule_on_constant_objective(self, dim):
        # No step improves on a constant, so each phase is 2*dim hypercube
        # points then 7*dim failures: the side 0.8 halves every dim
        # failures and falls below 2**-7 on the seventh halving.
        for budget in (9 * dim - 1, 9 * dim, 9 * dim + 1, 40 * dim, 100):
            res = turbo_lite_minimize(
                lambda p: 1.0, dim, OptimizerConfig(kind="turbo_lite", budget=budget, seed=0)
            )
            assert res.evaluations_used == budget
            assert res.restarts == budget // (9 * dim)

    def test_negative_init_sample_stops_immediately(self):
        res = turbo_lite_minimize(
            lambda p: -1.0, 4, OptimizerConfig(kind="turbo_lite", budget=100, seed=0)
        )
        assert res.stopped_early
        assert res.evaluations_used == 1

    def test_init_samples_default_is_twice_dim(self):
        for dim in (1, 3, 7):
            cfg = OptimizerConfig(kind="turbo_lite", budget=1000).resolve(dim)
            assert cfg.init_samples == 2 * dim

    def test_init_phase_is_latin_hypercube(self):
        dim = 3
        res = turbo_lite_minimize(
            lambda p: float(np.sum(p)) + 1.0, dim,
            OptimizerConfig(kind="turbo_lite", budget=2 * dim, seed=9),
        )
        assert res.evaluations_used == 2 * dim
        pts = np.stack([r.point for r in res.history])
        n = 2 * dim
        for d in range(dim):
            assert sorted(np.floor(pts[:, d] * n).astype(int)) == list(range(n))

    def test_budget_smaller_than_init_rejected(self):
        with pytest.raises(ValueError):
            turbo_lite_minimize(
                sphere5, 5, OptimizerConfig(kind="turbo_lite", budget=5, seed=0)
            )

    def test_seed_determinism(self):
        cfg = OptimizerConfig(kind="turbo_lite", budget=60, seed=11)
        a = turbo_lite_minimize(sphere5, 5, cfg)
        b = turbo_lite_minimize(sphere5, 5, cfg)
        assert [r.value for r in a.history] == [r.value for r in b.history]

    def test_stop_on_negative_mid_run(self):
        calls = []

        def objective(p):
            calls.append(1)
            return 1.0 if len(calls) < 10 else -0.5

        res = turbo_lite_minimize(
            objective, 2, OptimizerConfig(kind="turbo_lite", budget=100, seed=0)
        )
        assert res.stopped_early
        assert res.evaluations_used == 10
        assert len(calls) == 10


class TestAskTell:
    @pytest.mark.parametrize("kind", ["random_search", "turbo_lite"])
    def test_driving_the_machine_by_hand_equals_minimize(self, kind):
        # the machine asks for blocks; telling each block's values as one
        # array gives the result of minimize on the scalar objective
        config = OptimizerConfig(kind=kind, budget=70, seed=4)
        machine = searcher(5, config)
        asked = []
        try:
            points = next(machine)
            while True:
                asked.append(len(points))
                points = machine.send(np.array([sphere5(p) - 0.02 for p in points]))
        except StopIteration as done:
            result = done.value
        expected = minimize(lambda p: sphere5(p) - 0.02, 5, config)
        assert [r.value for r in result.history] == [r.value for r in expected.history]
        assert result.evaluations_used == expected.evaluations_used
        assert result.restarts == expected.restarts
        assert max(asked) <= optimizers.MAX_BLOCK
        assert sum(asked) >= result.evaluations_used

    @pytest.mark.parametrize("kind", ["random_search", "turbo_lite"])
    def test_a_short_batch_objective_raises(self, kind):
        # one value short of every block; the machine used to ask for the
        # missing point again and again, so a runaway raises another error
        calls = []

        def short(points):
            calls.append(len(points))
            if len(calls) > 10:
                raise RuntimeError("still asking")
            return np.ones(len(points) - 1)

        config = OptimizerConfig(kind=kind, budget=20, seed=0)
        with pytest.raises(ValueError, match="objective returned 0 values for 1 points"):
            minimize(None, 2, config, short)
        assert calls == [1]

    def test_a_batch_objective_with_extra_values_raises(self):
        # the extra value is negative, and used to be dropped silently
        with pytest.raises(ValueError, match="objective returned 2 values for 1 points"):
            minimize(None, 2, OptimizerConfig(kind="random_search", budget=20, seed=0),
                     lambda p: np.concatenate([np.ones(len(p)), [-5.0]]))

    def test_a_short_block_that_goes_negative_stops(self):
        # the second block has two points, and its one value is negative:
        # no value past the first negative one is needed
        told = iter([[0.5], [-1.0]])
        result = minimize(None, 2, OptimizerConfig(kind="random_search", budget=20, seed=0),
                          lambda points: np.array(next(told)))
        assert [r.value for r in result.history] == [0.5, -1.0]
        assert result.evaluations_used == 2

    def test_checks_run_at_the_first_ask(self):
        machine = searcher(5, OptimizerConfig(kind="turbo_lite", budget=5, seed=0))
        with pytest.raises(ValueError):
            next(machine)


def shifted_sphere(p):
    return float(np.sum((p - 0.5) ** 2)) - 0.02


def score_rows(objective, log=None):
    """A lockstep ``score`` that scores every row alone, and logs the
    machine indices of each step."""
    def score(pending):
        if log is not None:
            log.append([index for index, _ in pending])
        return np.array([objective(p) for _, block in pending for p in block])

    return score


def assert_same_result(got, expected):
    assert isinstance(got, OptimizationResult)
    assert len(got.history) == len(expected.history)
    for rec, ref in zip(got.history, expected.history):
        assert rec.point.tobytes() == ref.point.tobytes()
        assert (rec.value, rec.index) == (ref.value, ref.index)
    assert (got.best.index, got.stopped_early, got.evaluations_used, got.restarts,
            got.surrogate_fits, got.degenerate_fits) == (
        expected.best.index, expected.stopped_early, expected.evaluations_used,
        expected.restarts, expected.surrogate_fits, expected.degenerate_fits)


# (dim, config) of machines of both kinds, with different dims and budgets:
# alone, the 1-D and 2-D searches go negative within 6 evaluations, the 5-D
# turbo_lite after 21, and the 5-D random search spends its whole budget
LOCKSTEP_MACHINES = [
    (1, OptimizerConfig(kind="random_search", budget=300, seed=1)),
    (5, OptimizerConfig(kind="turbo_lite", budget=60, seed=2)),
    (2, OptimizerConfig(kind="turbo_lite", budget=40, seed=3)),
    (5, OptimizerConfig(kind="random_search", budget=90, seed=4)),
]


class TestLockstepContract:
    """The contract of ``lockstep``, which runs every search."""

    def test_machines_stepped_together_equal_their_own_minimize(self):
        log = []
        outcomes = lockstep([searcher(dim, config) for dim, config in LOCKSTEP_MACHINES],
                            score_rows(shifted_sphere, log))
        for outcome, (dim, config) in zip(outcomes, LOCKSTEP_MACHINES):
            assert_same_result(outcome, minimize(shifted_sphere, dim, config))
        # the live machines are handed over in index order, and drop out
        assert log[0] == [0, 1, 2, 3]
        assert all(step == sorted(step) for step in log)
        assert len(log[-1]) == 1 and any(0 < len(step) < 4 for step in log)
        assert any(o.stopped_early for o in outcomes) and not all(o.stopped_early for o in outcomes)

    def test_a_machine_that_raises_at_its_first_ask_leaves_the_others(self):
        # turbo_lite needs 2 * dim = 10 hypercube points, more than a budget of 5
        machines = [searcher(dim, config) for dim, config in LOCKSTEP_MACHINES]
        machines.insert(1, searcher(5, OptimizerConfig(kind="turbo_lite", budget=5, seed=0)))
        log = []
        outcomes = lockstep(machines, score_rows(shifted_sphere, log))
        assert isinstance(outcomes[1], ValueError)
        assert str(outcomes[1]) == "budget 5 smaller than init_samples 10"
        assert all(1 not in step for step in log)
        for outcome, (dim, config) in zip(outcomes[:1] + outcomes[2:], LOCKSTEP_MACHINES):
            assert_same_result(outcome, minimize(shifted_sphere, dim, config))

    def test_an_exception_from_score_ends_every_live_machine(self):
        # the budget-1 search ends after the first step; the second step fails
        configs = [OptimizerConfig(kind="random_search", budget=1, seed=0),
                   OptimizerConfig(kind="random_search", budget=50, seed=1),
                   OptimizerConfig(kind="turbo_lite", budget=50, seed=2)]
        boom = RuntimeError("boom")
        calls = []

        def score(pending):
            calls.append(len(pending))
            if len(calls) == 2:
                raise boom
            return np.ones(sum(len(block) for _, block in pending))

        outcomes = lockstep([searcher(3, config) for config in configs], score)
        assert calls == [3, 2]
        assert_same_result(outcomes[0], minimize(lambda p: 1.0, 3, configs[0]))
        assert outcomes[1] is boom and outcomes[2] is boom

    @pytest.mark.parametrize("change, message", [
        (lambda values: np.append(values, -5.0), "objective returned 2 values for 1 points"),
        (lambda values: values[:-1], "objective returned 0 values for 1 points"),
    ])
    def test_a_wrong_count_reaches_the_last_machine(self, change, message):
        # every machine asks one point first: the first is told its one
        # value, the last the rest
        configs = [OptimizerConfig(kind="random_search", budget=30, seed=seed) for seed in (0, 1)]

        def score(pending):  # the wrong count while both machines are live
            values = np.ones(sum(len(block) for _, block in pending))
            return change(values) if len(pending) == 2 else values

        outcomes = lockstep([searcher(2, config) for config in configs], score)
        assert_same_result(outcomes[0], minimize(lambda p: 1.0, 2, configs[0]))
        assert isinstance(outcomes[1], ValueError) and str(outcomes[1]) == message


class TestResultInvariants:
    @pytest.mark.parametrize("kind", ["random_search", "turbo_lite"])
    def test_history_fidelity(self, kind):
        cfg = OptimizerConfig(kind=kind, budget=40, seed=2)
        res = minimize(sphere5, 5, cfg)
        assert len(res.history) == res.evaluations_used
        assert res.best.value == min(r.value for r in res.history)
        assert [r.index for r in res.history] == list(range(1, res.evaluations_used + 1))
        for rec in res.history:
            assert np.all((0 <= rec.point) & (rec.point <= 1))

    @pytest.mark.parametrize("kind", ["random_search", "turbo_lite"])
    def test_scalar_objective_not_called_past_first_negative(self, kind):
        # call 5 is the second row of the block of 4 that holds calls 4-7,
        # and the fifth of turbo's 10-point hypercube at dim 5
        calls = []

        def objective(p):
            calls.append(1)
            return -1.0 if len(calls) == 5 else 1.0

        res = minimize(objective, 5, OptimizerConfig(kind=kind, budget=40, seed=0))
        assert res.stopped_early
        assert res.evaluations_used == len(calls) == 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(kind="cma_es")
        with pytest.raises(ValueError):
            OptimizerConfig(budget=0)

    @pytest.mark.parametrize("field, value, message", [
        ("budget", 10.5, "budget must be an integer"),
        ("init_samples", 2.5, "init_samples must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", -1, "seed must be >= 0"),
        ("budget", True, "budget must be an integer"),
        ("init_samples", True, "init_samples must be an integer"),
        ("seed", False, "seed must be an integer"),
    ])
    def test_settings_that_would_fail_at_the_first_ask_are_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            OptimizerConfig(kind="turbo_lite", **{field: value})

    def test_numpy_integer_settings_accepted(self):
        config = OptimizerConfig(budget=np.int64(30), init_samples=np.int32(4), seed=np.uint8(3))
        assert (config.budget, config.init_samples, config.seed) == (30, 4, 3)
        assert all(type(v) is int for v in (config.budget, config.init_samples, config.seed))


# The surrogate as it was written before it accumulated in place: the
# distances as the square root of summed broadcast squares, the kernel as
# ``** 3`` and the system from ``np.hstack`` and ``np.concatenate``.

def old_distances(x, y):
    squared = (x[:, 0, None] - y[None, :, 0]) ** 2
    for d in range(1, x.shape[1]):
        squared += (x[:, d, None] - y[None, :, d]) ** 2
    return np.sqrt(squared)


def old_fit(points, values):
    """(weights, tail) of the interpolant, or SurrogateDegeneracy."""
    n, dim = points.shape
    if n < 2 or np.all(points == points[0]):
        raise SurrogateDegeneracy("need at least 2 distinct points")
    if np.ptp(values) == 0.0:
        raise SurrogateDegeneracy("all objective values identical")
    phi = old_distances(points, points) ** 3
    poly = np.hstack([np.ones((n, 1)), points])
    size = n + dim + 1
    a = np.zeros((size, size))
    a[:n, :n] = phi
    a[:n, n:] = poly
    a[n:, :n] = poly.T
    rhs = np.concatenate([values, np.zeros(dim + 1)])
    for attempt in range(2):
        if attempt:
            a[:n, :n] += 1e-8 * np.eye(n)
        try:
            sol = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(sol)):
            return sol[:n], sol[n:]
    raise SurrogateDegeneracy("surrogate system is singular")


def old_predict(points, weights, tail, x):
    return old_distances(x, points) ** 3 @ weights + tail[0] + x @ tail[1:]


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestSurrogateBits:
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_in_place_forms_equal_the_old_formulas(self, dim, rng):
        points, values = rng.random((23, dim)), rng.normal(size=23)
        candidates = rng.random((57, dim))
        assert_same_bits(optimizers._distances(candidates, points), old_distances(candidates, points))
        assert_same_bits(optimizers._distances(points, points), old_distances(points, points))
        surrogate = fit_surrogate(points, values)
        weights, tail = old_fit(points, values)
        assert_same_bits(surrogate.weights, weights)
        assert_same_bits(surrogate.tail, tail)
        assert_same_bits(surrogate.predict(candidates), old_predict(points, weights, tail, candidates))

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_distances_equal_the_subtraction_on_any_floats(self, dim, rng):
        # signs, magnitudes from 1e-300 to 1e300 (overflowing squares),
        # subnormals, exact zeros of both signs and repeated rows
        def floats(rows):
            a = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-300, 300, size=(rows, dim))
            a[rng.random((rows, dim)) < 0.1] = 0.0
            a[rng.random((rows, dim)) < 0.1] = -0.0
            a[rng.random((rows, dim)) < 0.05] = 5e-324
            return a
        x, y = floats(41), floats(17)
        x[:5], y[5:9] = y[:5], x[10:14]
        x[20] = x[21] = 1.0 + np.arange(dim) * 2.0 ** -52
        y[0] = 1.0
        with np.errstate(over="ignore"):
            assert_same_bits(optimizers._distances(x, y), old_distances(x, y))
            assert_same_bits(optimizers._distances(x, x), old_distances(x, x))

    @pytest.mark.parametrize("dim", [1, 4, 9])
    def test_ridged_fit_equals_the_old_formulas(self, dim, rng):
        # a repeated row makes the kernel block singular
        points = rng.random((12, dim))
        points[5] = points[2]
        values = rng.normal(size=12)
        values[5] = values[2]
        surrogate = fit_surrogate(points, values)
        weights, tail = old_fit(points, values)
        assert_same_bits(surrogate.weights, weights)
        assert_same_bits(surrogate.tail, tail)


def reference_turbo_lite(objective, dim, config):
    """turbo_lite as it was before a search kept its points and values in
    growing arrays: the history is a list of EvalRecords, each step
    restacks its phase from them, and the surrogate is the old one above.
    The objective is called point by point."""
    config = config.resolve(dim)
    rng = np.random.default_rng(config.seed)
    history = []

    def exhausted():
        return len(history) >= config.budget or bool(history) and history[-1].value < 0

    def evaluate(points):
        for point in np.array(points, dtype=float):
            if exhausted():
                return
            value = objective(point)
            value = float(value) if math.isfinite(value) else math.inf
            history.append(EvalRecord(point=point, value=value, index=len(history) + 1))

    n_cand = min(optimizers._CANDIDATES_PER_DIM * dim, optimizers._CANDIDATES_CAP)
    phase_start = 0
    evaluate(latin_hypercube(config.init_samples, dim, rng))
    side = optimizers._TR_INITIAL
    successes = failures = 0
    restarts = fits = degenerate = 0
    while not exhausted():
        phase = history[phase_start:]
        incumbent = min(phase, key=lambda rec: (rec.value, rec.index))
        points = np.stack([rec.point for rec in phase])
        values = np.array([rec.value for rec in phase])
        fits += 1
        finite_points = points[np.isfinite(values)]
        try:
            weights, tail = old_fit(finite_points, values[np.isfinite(values)])
        except SurrogateDegeneracy:
            weights = None
            degenerate += 1
        lo = np.clip(incumbent.point - side / 2, 0.0, 1.0)
        hi = np.clip(incumbent.point + side / 2, 0.0, 1.0)
        candidates = lo + rng.random((n_cand, dim)) * (hi - lo)
        if weights is not None:
            pick = candidates[int(np.argmin(old_predict(finite_points, weights, tail, candidates)))]
        else:
            pick = candidates[0]
        evaluate(pick[None])
        if history[-1].value < incumbent.value:
            successes += 1
            failures = 0
        else:
            failures += 1
            successes = 0
        if successes >= optimizers._SUCCESS_TOLERANCE:
            side = min(2.0 * side, optimizers._TR_MAX)
            successes = 0
        if failures >= dim:
            side = side / 2.0
            failures = 0
        if side < optimizers._TR_MIN:
            side = optimizers._TR_INITIAL
            successes = failures = 0
            restarts += 1
            phase_start = len(history)
            evaluate(latin_hypercube(config.init_samples, dim, rng))
    return OptimizationResult(
        best=min(history, key=lambda rec: (rec.value, rec.index)), history=history,
        stopped_early=history[-1].value < 0, evaluations_used=len(history),
        restarts=restarts, surrogate_fits=fits, degenerate_fits=degenerate,
    )


def drive_by_hand(machine, objective):
    """Run an ask/tell machine, scoring each asked block row by row."""
    try:
        points = next(machine)
        while True:
            points = machine.send(np.array([objective(p) for p in points]))
    except StopIteration as done:
        return done.value


def counting(objective, negative_at):
    """``objective`` whose call number ``negative_at`` returns -0.25."""
    calls = []

    def counted(p):
        calls.append(1)
        return -0.25 if len(calls) == negative_at else objective(p)

    return counted


TURBO_BUDGETS = {1: 60, 2: 60, 5: 120, 10: 200}


class TestTurboLiteAgainstReference:
    @pytest.mark.parametrize("dim", sorted(TURBO_BUDGETS))
    @pytest.mark.parametrize("name", ["sphere", "constant", "nan_region", "negative_mid_run"])
    def test_same_result_as_the_reference_loop(self, name, dim):
        budget = TURBO_BUDGETS[dim]
        make = {
            "sphere": lambda: sphere5,
            "constant": lambda: lambda p: 1.0,
            "nan_region": lambda: sphere_with_nan_region,
            "negative_mid_run": lambda: counting(lambda p: sphere5(p) + 0.01, budget // 2),
        }[name]
        config = OptimizerConfig(kind="turbo_lite", budget=budget, seed=dim)
        got = drive_by_hand(searcher(dim, config), make())
        expected = reference_turbo_lite(make(), dim, config)
        assert len(got.history) == len(expected.history) == got.evaluations_used
        for rec, ref in zip(got.history, expected.history):
            assert_same_bits(rec.point, ref.point)
            assert (rec.value, rec.index) == (ref.value, ref.index)
        assert got.best.index == expected.best.index and got.best.value == expected.best.value
        assert_same_bits(got.best.point, expected.best.point)
        assert (got.stopped_early, got.evaluations_used, got.restarts, got.surrogate_fits,
                got.degenerate_fits) == (
            expected.stopped_early, expected.evaluations_used, expected.restarts,
            expected.surrogate_fits, expected.degenerate_fits)
        # each case reaches what it is there for
        if name in ("sphere", "constant"):
            assert got.restarts >= 1
        if name == "constant":
            assert got.degenerate_fits == got.surrogate_fits > 0
        if name == "nan_region":
            assert math.inf in [rec.value for rec in got.history]
        if name == "negative_mid_run":
            assert got.stopped_early and got.evaluations_used == budget // 2


class TestResultOwnership:
    @pytest.mark.parametrize("kind", ["random_search", "turbo_lite"])
    def test_records_keep_only_the_used_rows_alive(self, kind):
        # 37 evaluations: the working arrays hold 64 rows by then, and a
        # turbo candidate block 500
        dim = 5
        result = minimize(counting(sphere5, 37), dim,
                          OptimizerConfig(kind=kind, budget=1000, seed=1))
        assert result.evaluations_used == 37
        for point in [result.best.point] + [rec.point for rec in result.history]:
            assert point.base is None or point.base.nbytes <= result.evaluations_used * dim * 8
