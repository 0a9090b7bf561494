import pytest

from pulsefalsify.harness import (
    ExperimentConfig,
    RunRecord,
    SWEEP_MASK_LABELS,
    aggregate,
    cactus_data,
    cell_seed,
    combination_coverage,
    render_cell,
    run_experiment,
    write_csvs,
)
from pulsefalsify.systems import builtin_benchmark


def record(spec="phi", mask="W", rep=0, falsified=True, sims=10, bench="b"):
    return RunRecord(
        benchmark=bench, spec=spec, mask=mask, rep=rep,
        seed=cell_seed(0, bench, spec, mask, rep),
        falsified=falsified, sims=sims, best_robustness=-1.0 if falsified else 0.5,
    )


class TestCellSeed:
    def test_stable(self):
        assert cell_seed(42, "b", "phi", "W", 0) == cell_seed(42, "b", "phi", "W", 0)

    def test_distinct_across_cells(self):
        seeds = {
            cell_seed(0, "b", spec, mask, rep)
            for spec in ("p1", "p2") for mask in ("W", "L") for rep in range(5)
        }
        assert len(seeds) == 20

    def test_base_seed_shifts(self):
        assert cell_seed(0, "b", "p", "W", 0) != cell_seed(1, "b", "p", "W", 0)


class TestRunExperiment:
    def make_config(self, **kw):
        defaults = dict(
            benchmarks=(builtin_benchmark("lag"),),
            spec_names=("phi1",),
            mask_labels=("W", "L-W"),
            repetitions=3,
            budget=40,
            base_seed=0,
            optimizer="random_search",
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_distinct_seeds_per_repetition(self):
        results = run_experiment(self.make_config(mask_labels=("W",)))
        assert len(results) == 3
        assert len({r.seed for r in results}) == 3

    def test_rerun_identical(self):
        a = run_experiment(self.make_config())
        b = run_experiment(self.make_config())
        assert a == b

    def test_parallelism_does_not_change_results(self):
        serial = run_experiment(self.make_config())
        parallel = run_experiment(self.make_config(parallelism=8))
        assert serial == parallel

    def test_unknown_spec_raises(self):
        with pytest.raises(KeyError):
            run_experiment(self.make_config(spec_names=("missing",)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self.make_config(repetitions=0)
        with pytest.raises(ValueError):
            self.make_config(mask_labels=())
        with pytest.raises(ValueError):
            self.make_config(mask_labels=("Q",))
        with pytest.raises(ValueError, match="twice"):
            self.make_config(mask_labels=("W-L", "L-W"))
        with pytest.raises(ValueError, match="twice"):
            self.make_config(mask_labels=("W", "w"))

    def test_mask_labels_stored_canonical(self):
        config = self.make_config(mask_labels=("w", "W-l", "d-P-L"))
        assert config.mask_labels == ("W", "L-W", "L-P-D")
        assert run_experiment(config) == run_experiment(
            self.make_config(mask_labels=("W", "L-W", "L-P-D")))


class TestAggregate:
    def test_partial_success(self):
        runs = [
            record(rep=0, falsified=True, sims=10),
            record(rep=1, falsified=True, sims=20),
            record(rep=2, falsified=True, sims=30),
            record(rep=3, falsified=False, sims=40),
            record(rep=4, falsified=False, sims=40),
        ]
        (row,) = aggregate(runs)
        assert row.success_rate == 60.0
        assert row.mean_sims_successful == 20

    def test_zero_success_renders_dash(self):
        runs = [record(rep=i, falsified=False) for i in range(5)]
        (row,) = aggregate(runs)
        assert row.mean_sims_successful is None
        assert render_cell(row) == "0 (-)"

    def test_full_success_single_sim(self):
        runs = [record(rep=i, falsified=True, sims=1) for i in range(5)]
        (row,) = aggregate(runs)
        assert render_cell(row) == "100 (1)"

    def test_rate_is_multiple_of_100_over_r(self):
        for successes in range(6):
            runs = [record(rep=i, falsified=i < successes) for i in range(5)]
            (row,) = aggregate(runs)
            assert row.success_rate == pytest.approx(successes * 20.0)

    def test_mean_rounds_half_up(self):
        runs = [
            record(rep=0, falsified=True, sims=1),
            record(rep=1, falsified=True, sims=2),
        ]
        (row,) = aggregate(runs)
        assert row.mean_sims_successful == 2  # 1.5 rounds up


class TestCoverage:
    def test_or_lifting_from_single_param(self):
        per_param = {("b", "s1"): {"W"}, ("b", "s2"): set()}
        cov = combination_coverage(per_param)
        # every mask containing W covers s1
        for label, count in cov.counts.items():
            if "W" in label.split("-"):
                assert count == 1
            else:
                assert count == 0

    def test_own_run_extends_coverage(self):
        per_param = {("b", "s1"): set()}
        own = [record(spec="s1", mask="L-W", falsified=True, bench="b")]
        cov = combination_coverage(per_param, own)
        assert cov.counts["L-W"] == 1
        assert cov.counts["L-P"] == 0

    def test_empty_results(self):
        cov = combination_coverage({})
        assert all(count == 0 for count in cov.counts.values())
        assert cov.best_by_size[5] == (("L-P-W-H-D",), 0)

    def test_hand_computed_matrix(self):
        # s1: W alone; s2: L and D alone; s3: nothing alone but P-W run worked
        per_param = {
            ("b", "s1"): {"W"},
            ("b", "s2"): {"L", "D"},
            ("b", "s3"): set(),
        }
        own = [record(spec="s3", mask="P-W", falsified=True, bench="b")]
        cov = combination_coverage(per_param, own)
        assert cov.counts["W"] == 1
        assert cov.counts["L"] == 1
        assert cov.counts["L-W"] == 2
        assert cov.counts["P-W"] == 2  # s1 via W, s3 via own run
        assert cov.counts["L-W-D"] == 2
        assert cov.counts["L-P-W-H-D"] == 2

    def test_size_five_can_drop_below_size_four(self):
        # spec s1 covered only by the L-P-W-H run itself: the size-4 mask
        # scores it, the size-5 mask does not.
        per_param = {("b", "s1"): set(), ("b", "s2"): {"L"}}
        own = [record(spec="s1", mask="L-P-W-H", falsified=True, bench="b")]
        cov = combination_coverage(per_param, own)
        assert cov.best_by_size[4][1] == 2
        assert cov.best_by_size[5][1] == 1

    def test_mask_coverage_dominates_members(self):
        per_param = {
            ("b", "s1"): {"W"},
            ("b", "s2"): {"P"},
            ("b", "s3"): {"L", "W"},
        }
        cov = combination_coverage(per_param)
        for label, count in cov.counts.items():
            parts = label.split("-")
            for p in parts:
                assert count >= cov.counts[p]


class TestCactus:
    def test_sorted_with_ranks(self):
        runs = [
            record(rep=0, sims=30), record(rep=1, sims=10), record(rep=2, sims=20),
        ]
        assert cactus_data(runs) == [("W", 1, 10), ("W", 2, 20), ("W", 3, 30)]

    def test_no_successes_empty(self):
        runs = [record(rep=0, falsified=False)]
        assert cactus_data(runs) == []

    def test_two_masks_independent_series(self):
        runs = [
            record(mask="W", rep=0, sims=5),
            record(mask="L", rep=0, sims=9),
            record(mask="L", rep=1, sims=3),
        ]
        rows = cactus_data(runs)
        assert ("L", 1, 3) in rows and ("L", 2, 9) in rows and ("W", 1, 5) in rows


class TestWriteCsvs:
    def test_files_written_and_stable(self, tmp_path):
        runs = [
            record(rep=0, sims=4),
            record(rep=1, falsified=False, sims=40),
            record(mask="L", rep=0, sims=7),
        ]
        paths = write_csvs(runs, tmp_path / "out")
        assert set(paths) == {"results", "aggregate", "coverage", "cactus"}
        first = {k: p.read_bytes() for k, p in paths.items()}
        paths2 = write_csvs(runs, tmp_path / "out2")
        second = {k: p.read_bytes() for k, p in paths2.items()}
        assert first == second
        header = first["results"].decode().splitlines()[0]
        assert header == "benchmark,spec,mask,rep,seed,falsified,sims,best_robustness"

    def test_failed_cells_render_dash(self, tmp_path):
        runs = [record(rep=i, falsified=False) for i in range(3)]
        paths = write_csvs(runs, tmp_path)
        agg = paths["aggregate"].read_text().splitlines()
        assert agg[1].endswith(",-")


class TestSweepLabels:
    def test_twelve_study_combinations(self):
        assert len(SWEEP_MASK_LABELS) == 12
        assert SWEEP_MASK_LABELS[:5] == ("L", "P", "W", "H", "D")
        assert "L-P-W-H-D" in SWEEP_MASK_LABELS
