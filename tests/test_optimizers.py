import statistics

import numpy as np
import pytest

from pulsefalsify import optimizers
from pulsefalsify.optimizers import (
    OptimizerConfig,
    SurrogateDegeneracy,
    fit_surrogate,
    latin_hypercube,
    minimize,
    random_search,
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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(kind="cma_es")
        with pytest.raises(ValueError):
            OptimizerConfig(budget=0)
