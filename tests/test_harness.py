import gc
import json
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from conftest import OVERFLOW_DOC

from pulsefalsify import falsification, harness
from pulsefalsify.falsification import FreeMask, falsify
from pulsefalsify.harness import (
    AggregateRow,
    ExperimentConfig,
    RunRecord,
    SWEEP_MASK_LABELS,
    aggregate,
    cactus_data,
    cell_seed,
    combination_coverage,
    render_cell,
    run_experiment,
    single_param_successes,
    write_csvs,
    write_errors,
)
from pulsefalsify.optimizers import MAX_BLOCK, OptimizerConfig
from pulsefalsify.systems import _CC_FLOAT_ROWS, builtin_benchmark, load_benchmark


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

    def test_unknown_spec_fails_when_the_config_is_built(self):
        # lag has phi1 and phi2, but ss has phi1 only
        with pytest.raises(KeyError, match=r"benchmark 'ss' has no spec 'phi2'; "
                                           r"available: \['phi1'\]"):
            self.make_config(benchmarks=(builtin_benchmark("lag"), builtin_benchmark("ss")),
                             spec_names=("phi1", "phi2"))

    def test_one_spec_named_twice_is_rejected(self):
        with pytest.raises(ValueError, match=r"spec list names one spec twice"):
            self.make_config(spec_names=("phi1", "phi2", "phi1"))

    def test_one_benchmark_named_twice_is_rejected(self):
        lag = builtin_benchmark("lag")
        with pytest.raises(ValueError, match=r"benchmark list names one benchmark twice"):
            self.make_config(benchmarks=(lag, lag))
        # two different configs that share a name would merge their rows
        other = load_benchmark(json.dumps({**OVERFLOW_DOC, "name": "lag"}))
        with pytest.raises(ValueError, match=r"twice: \['lag', 'lag'\]"):
            self.make_config(benchmarks=(lag, other), spec_names=None)

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

    @pytest.mark.parametrize("field, kind", [
        ("benchmarks", "benchmark"), ("spec_names", "spec"), ("mask_labels", "mask"),
    ])
    def test_an_empty_list_is_rejected(self, field, kind):
        # an empty spec list once read as every spec, and an empty benchmark
        # list as a sweep of no cells
        with pytest.raises(ValueError, match=f"{kind} list must be non-empty"):
            self.make_config(**{field: ()})
        records = run_experiment(self.make_config(spec_names=None, mask_labels=("W",),
                                                  repetitions=1))
        assert [r.spec for r in records] == ["phi1", "phi2"]

    @pytest.mark.parametrize("field, value", [
        ("budget", 10.5), ("repetitions", 2.5), ("base_seed", 1.5), ("parallelism", 2.5),
        ("parallelism", "3"), ("budget", True), ("repetitions", True), ("base_seed", False),
        ("parallelism", True),
    ])
    def test_non_integer_settings_rejected(self, field, value):
        # a float budget once failed only in the cells whose search asked
        # for a block after its first, as error records mid-sweep
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            self.make_config(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("optimizer", "cma", "unknown optimizer kind 'cma'"),
        ("semantics", "bogus", "unknown semantics 'bogus'"),
        ("spec_names", "phi1", "not a string"),
        ("mask_labels", "W", "not a string"),
    ])
    def test_search_settings_fail_when_the_config_is_built(self, field, value, message):
        # these used to build, then fail in every cell: one error record per
        # cell, or a spec named by each character of the string
        with pytest.raises(ValueError, match=message):
            self.make_config(**{field: value})

    def test_numpy_integer_settings_accepted(self):
        config = self.make_config(repetitions=np.int64(1), budget=np.int32(10),
                                  base_seed=np.int64(-3), mask_labels=("W",),
                                  parallelism=np.int64(2))
        assert type(config.parallelism) is int
        assert run_experiment(config) == run_experiment(
            self.make_config(repetitions=1, budget=10, base_seed=-3, mask_labels=("W",)))

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

    def test_rate_text_for_every_repetition_count(self):
        # "%g" alone renders each rate 100 k / n, n <= 200, as the integer
        # test and int() once did
        for n in range(1, 201):
            for k in range(n + 1):
                rate = 100.0 * k / n
                text = str(int(rate)) if rate.is_integer() else f"{rate:g}"
                assert render_cell(AggregateRow("b", "p", "W", rate, None)) == f"{text} (-)"

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

    def test_golden_bytes(self, tmp_path):
        # two benchmarks, records out of key order, a mask with no success,
        # a 1-of-3 rate, tied sims in one cactus series, non-finite and
        # tiny robustness values, an error message that needs quoting
        rows = [
            ("lag", "phi1", "W", 0, 101, True, 12, -0.5),
            ("lag", "phi1", "L-P-W-H-D", 1, 105, True, 7, -1.5),
            ("cc", "phi2", "L-P", 0, 201, False, 0, math.nan, 'ValueError: bad "x", or y'),
            ("lag", "phi1", "W", 2, 103, False, 200, math.inf),
            ("cc", "phi1", "L-P", 0, 301, True, 40, -0.125),
            ("lag", "phi1", "L-P-W-H-D", 0, 104, True, 7, -0.25),
            ("cc", "phi2", "W", 0, 202, True, 3, -2.0),
            ("lag", "phi1", "W", 1, 102, False, 200, 1e-17),
            ("cc", "phi2", "L-P", 1, 203, False, 50, 0.125),
            ("cc", "phi1", "W", 0, 302, False, 60, 0.75),
        ]
        runs = [RunRecord(*row) for row in rows]
        paths = write_csvs(runs, tmp_path)
        paths["errors"] = write_errors(runs, tmp_path)
        coverage = ["size,mask,specs_covered",
                    "1,D,0", "1,H,0", "1,L,0", "1,P,0", "1,W,2",
                    "2,H-D,0", "2,L-D,0", "2,L-H,0", "2,L-P,1", "2,L-W,2",
                    "2,P-D,0", "2,P-H,0", "2,P-W,2", "2,W-D,2", "2,W-H,2",
                    "3,L-H-D,0", "3,L-P-D,0", "3,L-P-H,0", "3,L-P-W,2", "3,L-W-D,2",
                    "3,L-W-H,2", "3,P-H-D,0", "3,P-W-D,2", "3,P-W-H,2", "3,W-H-D,2",
                    "4,L-P-H-D,0", "4,L-P-W-D,2", "4,L-P-W-H,2", "4,L-W-H-D,2", "4,P-W-H-D,2",
                    "5,L-P-W-H-D,2"]
        expected = {
            "results": [
                "benchmark,spec,mask,rep,seed,falsified,sims,best_robustness",
                "lag,phi1,W,0,101,true,12,-0.5",
                "lag,phi1,L-P-W-H-D,1,105,true,7,-1.5",
                "cc,phi2,L-P,0,201,false,0,nan",
                "lag,phi1,W,2,103,false,200,inf",
                "cc,phi1,L-P,0,301,true,40,-0.125",
                "lag,phi1,L-P-W-H-D,0,104,true,7,-0.25",
                "cc,phi2,W,0,202,true,3,-2.0",
                "lag,phi1,W,1,102,false,200,1e-17",
                "cc,phi2,L-P,1,203,false,50,0.125",
                "cc,phi1,W,0,302,false,60,0.75",
            ],
            "aggregate": [
                "benchmark,spec,mask,success_rate,mean_sims",
                "cc,phi1,L-P,100.0,40",
                "cc,phi1,W,0.0,-",
                "cc,phi2,L-P,0.0,-",
                "cc,phi2,W,100.0,3",
                "lag,phi1,L-P-W-H-D,100.0,7",
                "lag,phi1,W,33.333333333333336,12",
            ],
            "coverage": coverage,
            "cactus": [
                "mask,rank,sims",
                "L-P,1,40",
                "L-P-W-H-D,1,7",
                "L-P-W-H-D,2,7",
                "W,1,3",
                "W,2,12",
            ],
            "errors": [
                "benchmark,spec,mask,rep,seed,error",
                'cc,phi2,L-P,0,201,"ValueError: bad ""x"", or y"',
            ],
        }
        assert paths == {name: tmp_path / f"{name}.csv" for name in expected}
        for name, lines in expected.items():
            assert paths[name].read_bytes() == "".join(f"{line}\r\n" for line in lines).encode()

    def test_failed_cells_render_dash(self, tmp_path):
        runs = [record(rep=i, falsified=False) for i in range(3)]
        paths = write_csvs(runs, tmp_path)
        agg = paths["aggregate"].read_text().splitlines()
        assert agg[1].endswith(",-")


# every non-empty subset of the parameters, by size, then by the letters' positions
ALL_MASKS = sorted(("-".join(p for i, p in enumerate("LPWHD") if bits >> i & 1)
                    for bits in range(1, 32)),
                   key=lambda m: (m.count("-"), ["LPWHD".index(p) for p in m.split("-")]))


class TestReportingOracles:
    """The reporting functions against brute-force oracles, on seeded
    random record sets: empty sets, repeated reps, up to all 31 masks."""

    def records(self, rng, trial):
        """No records, one or more on every mask, or a few on some masks."""
        if trial % 50 == 0:
            return []
        every = trial % 10 == 1
        masks = ALL_MASKS if every else rng.sample(ALL_MASKS, rng.randint(1, 31))
        picks = (masks if every else []) + rng.choices(masks, k=rng.choice([1, 3, 12, 40]))
        out = []
        for mask in picks:
            falsified = rng.random() < 0.4
            out.append(RunRecord(
                rng.choice("ab"), rng.choice(["p", "q", "r"]), mask,
                rng.randint(0, 3), rng.randint(0, 9), falsified, rng.randint(1, 30),
                -1.0 if falsified else 0.5))
        return out

    def aggregate_oracle(self, records):
        rows = []
        for key in sorted({(r.benchmark, r.spec, r.mask) for r in records}):
            runs = [r for r in records if (r.benchmark, r.spec, r.mask) == key]
            sims = [r.sims for r in runs if r.falsified]
            mean = math.floor(Fraction(sum(sims), len(sims)) + Fraction(1, 2)) if sims else None
            rows.append(AggregateRow(*key, 100.0 * len(sims) / len(runs), mean))
        return rows

    def cactus_oracle(self, records):
        rows = []
        for mask in sorted({r.mask for r in records if r.falsified}):
            sims = sorted(r.sims for r in records if r.falsified and r.mask == mask)
            rows += [(mask, rank + 1, s) for rank, s in enumerate(sims)]
        return rows

    def singles_oracle(self, records):
        return {(r.benchmark, r.spec): {s.mask for s in records if s.falsified and len(s.mask) == 1
                                        and (s.benchmark, s.spec) == (r.benchmark, r.spec)}
                for r in records}

    def coverage_oracle(self, per_param, records):
        counts = {}
        for mask in ALL_MASKS:
            counts[mask] = 0
            for key, singles in per_param.items():
                own = any(r.falsified and ((r.benchmark, r.spec), r.mask) == (key, mask)
                          for r in records)
                counts[mask] += own or any(p in singles for p in mask.split("-"))
        best = {}
        for size in range(1, 6):
            sized = [m for m in ALL_MASKS if m.count("-") + 1 == size]
            top = max(counts[m] for m in sized)
            best[size] = (tuple(m for m in sized if counts[m] == top), top)
        return counts, best

    def test_against_oracles(self):
        rng = random.Random(20221)
        for trial in range(1000):
            records = self.records(rng, trial)
            assert aggregate(records) == self.aggregate_oracle(records)
            assert cactus_data(records) == self.cactus_oracle(records)
            singles = single_param_successes(records)
            assert singles == self.singles_oracle(records)
            own = records if trial % 2 else None
            cov = combination_coverage(singles, own)
            counts, best = self.coverage_oracle(singles, own or [])
            assert list(cov.counts.items()) == list(counts.items())
            assert cov.best_by_size == best


def record_chunks(monkeypatch) -> list[list[int]]:
    """Record the row count of each chunk the harness simulates, one list
    per lockstep step."""
    steps = []
    score_blocks = harness.score_blocks
    synthesize_batch = falsification.synthesize_batch

    def scoring(benchmark, blocks, semantics):
        steps.append([])
        return score_blocks(benchmark, blocks, semantics)

    def synthesizing(benchmark, fields):
        steps[-1].append(fields.shape[2])
        return synthesize_batch(benchmark, fields)

    monkeypatch.setattr(harness, "score_blocks", scoring)
    monkeypatch.setattr(falsification, "synthesize_batch", synthesizing)
    return steps


class TestLockstep:
    """The cells of a benchmark run side by side, their pending points
    scored as one block; each record must be that of the cell run alone."""

    @pytest.mark.parametrize("optimizer, masks, reps, budget", [
        ("random_search", ("W", "L-P", "L-P-W-H-D"), 2, 192),
        ("turbo_lite", ("W", "L-P-W-H", "L-P-W-H-D"), 4, 40),
    ])
    def test_records_equal_per_cell_falsify(self, monkeypatch, optimizer, masks, reps, budget):
        # cc has two inputs, so these masks have dimension 2 to 10, and
        # phi2 falsifies early in some cells.  The live searches make blocks
        # that cross the float/numpy switch at _CC_FLOAT_ROWS and exceed one
        # search's 64-row block; a step wider than cc's ceiling splits in two.
        # Random search's last step asks one row of each cell still live.
        steps = record_chunks(monkeypatch)
        config = ExperimentConfig(
            benchmarks=(builtin_benchmark("cc"),), spec_names=("phi1", "phi2"),
            mask_labels=masks, repetitions=reps, budget=budget, base_seed=0, optimizer=optimizer,
        )
        records = run_experiment(config)
        assert len(records) == 2 * len(masks) * reps
        ceiling = falsification._chunk_rows(config.benchmarks[0])
        chunks = [rows for step in steps for rows in step]
        assert MAX_BLOCK < max(chunks) <= ceiling and min(chunks) < _CC_FLOAT_ROWS
        assert any(_CC_FLOAT_ROWS <= rows < 64 for rows in chunks)
        for step in steps:  # the fewest chunks under the ceiling, of near-equal sizes
            assert len(step) == -(-sum(step) // ceiling) and max(step) - min(step) <= 1
        assert any(r.falsified and r.sims < budget for r in records)
        assert any(not r.falsified for r in records)
        for r in records:
            outcome = falsify(config.benchmarks[0], r.spec, FreeMask.from_label(r.mask),
                              OptimizerConfig(kind=optimizer, budget=budget, seed=r.seed))
            assert r.error is None
            assert (r.falsified, r.sims, r.best_robustness) == (
                outcome.falsified, outcome.simulations_used, outcome.best_robustness)

    def test_a_wide_step_fills_the_ceiling(self, monkeypatch):
        # No input violates cc's phi1, so all 12 cells stay live: random
        # search asks 1, 2, ..., 32 rows, then the last 31 of a budget of 94
        steps = record_chunks(monkeypatch)
        bench = builtin_benchmark("cc")
        records = run_experiment(ExperimentConfig(
            benchmarks=(bench,), spec_names=("phi1",), mask_labels=("W", "L-P", "L-P-W-H-D"),
            repetitions=4, budget=94, optimizer="random_search"))
        assert not any(r.falsified for r in records)
        assert falsification._chunk_rows(bench) == 372
        assert steps == [[12], [24], [48], [96], [192], [192, 192], [372]]

    @pytest.mark.parametrize("name, ceiling", [("cc", 372), ("lag", 2595), ("dsm", 2570), ("ss", 1297)])
    def test_chunk_ceiling_bounds_the_trace_samples(self, name, ceiling):
        # (outputs + inputs) * samples per row: 7 * 201 for cc, 2 * 101 for lag
        bench = builtin_benchmark(name)
        assert falsification._chunk_rows(bench) == ceiling
        assert falsification._chunk_bounds(bench, ceiling) == [0, ceiling]
        assert falsification._chunk_bounds(bench, ceiling + 1) == [0, (ceiling + 1) // 2, ceiling + 1]

    def test_an_errored_cell_leaves_the_others(self):
        # turbo_lite needs 2*dim = 10 hypercube points on a 5-D mask, so
        # that cell raises at a budget of 8; the 1-D cells run
        def config(masks):
            return ExperimentConfig(
                benchmarks=(builtin_benchmark("lag"), builtin_benchmark("cc")),
                spec_names=("phi1",), mask_labels=masks, repetitions=2, budget=8,
                optimizer="turbo_lite",
            )

        mixed = run_experiment(config(("W", "L-P-W-H-D", "L")))
        alone = run_experiment(config(("W", "L")))
        errored = [r for r in mixed if r.error is not None]
        assert [(r.benchmark, r.mask) for r in errored] == [
            ("cc", "L-P-W-H-D"), ("cc", "L-P-W-H-D"), ("lag", "L-P-W-H-D"), ("lag", "L-P-W-H-D")]
        for r in errored:
            assert r.error.startswith("ValueError: budget 8 smaller than init_samples")
            assert (r.falsified, r.sims) == (False, 0) and math.isnan(r.best_robustness)
        assert [r for r in mixed if r.error is None] == alone

    def test_errors_csv_lists_the_errored_cells(self, tmp_path):
        runs = [record(), record(rep=1, falsified=False, sims=0)]
        assert write_errors(runs, tmp_path / "a").read_text().splitlines() == [
            "benchmark,spec,mask,rep,seed,error"]
        runs[1] = RunRecord(**{**runs[1].__dict__, "error": "ValueError: bad"})
        lines = write_errors(runs, tmp_path / "b").read_text().splitlines()
        assert lines[1:] == [f"b,phi,W,1,{runs[1].seed},ValueError: bad"]


class TestCellSearches:
    """Each cell's search is a machine of ``optimizers.lockstep`` that
    returns the cell's record."""

    def config(self, **kw):
        return ExperimentConfig(**{
            "benchmarks": (builtin_benchmark("lag"),), "spec_names": ("phi1", "phi2"),
            "mask_labels": ("W", "L-P"), "repetitions": 3, "budget": 40,
            "optimizer": "random_search", **kw})

    def test_a_scoring_error_ends_every_live_cell(self, monkeypatch):
        # the third step fails: the cells that ended in the first two keep
        # their records, and every other cell becomes an error record
        clean = run_experiment(self.config())
        score_blocks, calls = harness.score_blocks, []

        def failing(benchmark, blocks, semantics):
            calls.append(len(blocks))
            if len(calls) == 3:
                raise RuntimeError("boom")
            return score_blocks(benchmark, blocks, semantics)

        monkeypatch.setattr(harness, "score_blocks", failing)
        records = run_experiment(self.config())
        ended = [r for r in records if r.error is None]
        assert 0 < len(ended) == 12 - calls[2] and all(r.sims <= 3 for r in ended)
        assert ended == [r for r in clean if r in ended]
        for r in records:
            if r.error is not None:
                assert r.error == "RuntimeError: boom"
                assert (r.falsified, r.sims) == (False, 0) and math.isnan(r.best_robustness)

    def test_a_search_result_is_freed_when_its_search_ends(self, monkeypatch):
        # a sweep holds each cell's record, not its search's history
        refs, alive = [], []
        searcher, lockstep = harness.searcher, harness.lockstep

        def tracked(dim, config):
            result = yield from searcher(dim, config)
            refs.append(weakref.ref(result))
            return result

        def checked(machines, score):
            outcomes = lockstep(machines, score)
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            return outcomes

        monkeypatch.setattr(harness, "searcher", tracked)
        monkeypatch.setattr(harness, "lockstep", checked)
        records = run_experiment(self.config())
        assert len(refs) == len(records) == 12 and alive == [0]


class TestUnscoreableRows:
    """A row whose trace is finite but whose robustness overflows scores
    +inf, and leaves the other rows of its chunk, other specs' included."""

    def sweep(self, specs):
        return run_experiment(ExperimentConfig(
            benchmarks=(load_benchmark(json.dumps(OVERFLOW_DOC)),), spec_names=specs,
            mask_labels=("H", "L"), repetitions=2, budget=50, optimizer="turbo_lite"))

    def test_overflowing_rows_leave_their_chunk(self):
        records = self.sweep(("big", "plain"))
        assert [r.error for r in records] == [None] * 8
        # with L free, u1 stays at its upper bound 1.5e308 in the pulse's
        # high phase, so no row of spec big has a finite robustness
        assert [(r.falsified, r.sims, r.best_robustness) for r in records if r.mask == "L"
                and r.spec == "big"] == [(False, 50, math.inf)] * 2
        plain = [r for r in records if r.spec == "plain"]
        assert [r.best_robustness for r in plain] == [1.0] * 4
        assert plain == self.sweep(("plain",))


class TestSweepLabels:
    def test_twelve_study_combinations(self):
        assert len(SWEEP_MASK_LABELS) == 12
        assert SWEEP_MASK_LABELS[:5] == ("L", "P", "W", "H", "D")
        assert "L-P-W-H-D" in SWEEP_MASK_LABELS
