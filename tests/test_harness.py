"""Replication seeding, aggregation arithmetic, suite grids, and failure
accounting in the scenario runner."""

from __future__ import annotations

import math
import re
import warnings
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from stratasim import harness
from stratasim.cli import metrics_rows
from stratasim.cohort import OutcomeModel, observed_outcomes, sample_cohort
from stratasim.errors import ConfigurationError
from stratasim.harness import (
    MixtureCase,
    ReplicationRecord,
    ScenarioConfig,
    VariantRecord,
    _generator,
    mc_se_rate,
    paper_design,
    paper_suite,
    run_replication,
    run_scenario,
)
from stratasim.inference import fit_batch
from stratasim.misclassify import MisclassModel, reported_strata
from stratasim.randomizer import (
    AllocationRatio,
    TrialDesign,
    batch_block_assignments,
    randomize_cohort,
)
from stratasim.rerandomize import randomization_pvalue
from properties import check_thread_determinism


def _config(reps=20, rb_draws=0, rho=1.0, delta=0.5, seed=123, **kw):
    return ScenarioConfig(
        design=paper_design(),
        outcome=OutcomeModel(rho=rho, delta=delta),
        misclass=MisclassModel("ignorable", 0.02, 0.02),
        n_replications=reps,
        rb_draws=rb_draws,
        seed=seed,
        **kw,
    )


class TestScenarioConfig:
    @pytest.mark.parametrize("field,value", [("n_replications", 0),
                                             ("n_replications", -3),
                                             ("rb_draws", -1),
                                             ("seed", -1)])
    def test_bad_run_sizes_name_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be"):
            run_scenario(replace(_config(), **{field: value}))

    def test_smallest_run_sizes_run(self):
        metrics = run_scenario(_config(reps=1, rb_draws=0))
        assert metrics.n_valid + metrics.n_invalid == 1


def _design(**fields):
    base = dict(n_patients=80, strata_probs=(0.4, 0.6), allocation=(1, 2, 2), block_size=10)
    return TrialDesign(**{**base, **fields})


def _scenario(**fields):
    return replace(_config(reps=2), **fields)


@pytest.mark.parametrize("build,fields,rejected", [
    (_design, {"n_patients": 80.5}, "n_patients"),
    (_design, {"n_patients": True}, "n_patients"),
    (_design, {"block_size": 10.5}, "block_size"),
    (_design, {"block_sizes": (5.5, 10)}, "block_sizes[0]"),
    (_design, {"block_sizes": (5, "10")}, "block_sizes[1]"),
    (_design, {"block_sizes": 10}, "block_sizes"),
    (_scenario, {"n_replications": 2.5}, "n_replications"),
    (_scenario, {"rb_draws": 1.5}, "rb_draws"),
    (_scenario, {"seed": 1.5}, "seed"),
    (_scenario, {"alpha": 1.5}, "alpha"),
    (_scenario, {"alpha": 0.0}, "alpha"),
    (_scenario, {"alpha": "0.05"}, "alpha"),
    (_design, {"n_patients": np.int64(20), "block_size": 10.0,
               "block_sizes": (np.int32(5), 10.0)}, None),
    (_scenario, {"n_replications": 2.0, "rb_draws": np.int64(20), "seed": np.uint8(7),
                 "design": _design(n_patients=20.0, block_size=np.int16(5))}, None),
])
def test_config_counts_coerced_or_rejected_by_field(build, fields, rejected):
    if rejected is not None:
        with pytest.raises(ConfigurationError, match=f"^{re.escape(rejected)} must"):
            build(**fields)
        return
    built = build(**fields)
    for name, value in fields.items():
        if isinstance(value, TrialDesign):
            continue
        want = tuple(int(v) for v in value) if isinstance(value, tuple) else int(value)
        assert repr(getattr(built, name)) == repr(want)
    config = _scenario(design=built) if isinstance(built, TrialDesign) else built
    assert run_scenario(config).n_valid == config.n_replications


class _InlinePool:
    """Stands in for ``ProcessPoolExecutor``: records the worker count and
    runs each chunk in this process."""

    max_workers: list = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("cpus,workers", [(2, 2), (None, 1)])
def test_pool_capped_at_cpu_count(monkeypatch, cpus, workers):
    monkeypatch.setattr(_InlinePool, "max_workers", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    config = _config(reps=12)
    assert run_scenario(config, threads=6) == run_scenario(config, threads=1)
    assert _InlinePool.max_workers == [workers]


class TestMcSeRate:
    def test_pinned_values(self):
        assert mc_se_rate(0.5, 400_000) == pytest.approx(7.905694150420948e-4, abs=1e-16)
        assert mc_se_rate(0.95, 400_000) == pytest.approx(3.4460121880225555e-4, abs=1e-16)

    def test_half_is_worst_case(self):
        for rate in (0.0, 0.05, 0.364, 0.95, 1.0):
            assert mc_se_rate(rate, 4000) <= mc_se_rate(0.5, 4000)

    def test_degenerate_counts(self):
        assert mc_se_rate(0.0, 100) == 0.0
        assert math.isnan(mc_se_rate(0.5, 0))


class TestRunReplication:
    def test_same_index_reproduces_exactly(self):
        config = _config(rb_draws=50)
        assert run_replication(config, 5) == run_replication(config, 5)

    def test_distinct_indices_differ(self):
        config = _config()
        a, b = run_replication(config, 0), run_replication(config, 1)
        assert a.corrected.estimate != b.corrected.estimate

    def test_record_shape_without_rb(self):
        rec = run_replication(_config(), 3)
        assert rec.valid and rec.error == ""
        for variant in (rec.corrected, rec.reported):
            assert variant is not None
            assert 0.0 < variant.p_value <= 1.0
            assert variant.se > 0.0
            assert math.isnan(variant.rb_p)

    def test_record_shape_with_rb(self):
        rec = run_replication(_config(rb_draws=50), 3)
        for variant in (rec.corrected, rec.reported):
            assert 0.0 < variant.rb_p <= 1.0
            assert variant.rb_discarded >= 0

    def test_reported_variant_is_optional(self):
        rec = run_replication(_config(analyze_reported=False), 2)
        assert rec.corrected is not None
        assert rec.reported is None


@pytest.mark.parametrize("rb_draws,analyze_reported", [(0, True), (60, True), (60, False)])
def test_one_kernel_call_per_replication(monkeypatch, rb_draws, analyze_reported):
    # rows [observed; null batch] x variants [corrected, reported]
    calls = []

    def counting(y, strata_variants, rows, n_arms):
        calls.append((len(strata_variants), rows.shape[0]))
        return fit_batch(y, strata_variants, rows, n_arms)

    monkeypatch.setattr(harness, "fit_batch", counting)
    config = _config(rb_draws=rb_draws, analyze_reported=analyze_reported)
    rec = run_replication(config, 1)
    assert rec.valid
    assert calls == [(1 + analyze_reported, 1 + rb_draws)]


def test_variants_share_one_null_batch():
    # both variants re-randomize within the reported strata: one null batch
    # per replication, drawn from child 3 of the replication's seed
    config = replace(_config(rb_draws=60),
                     misclass=MisclassModel("ignorable", 0.15, 0.30))
    design = config.design
    for rep in range(4):
        kids = np.random.SeedSequence(config.seed, spawn_key=(rep,)).spawn(4)
        cohort = sample_cohort(design, config.outcome, _generator(kids[0]))
        reported = reported_strata(cohort, config.misclass, _generator(kids[1]))
        treatments = randomize_cohort(design, reported, _generator(kids[2]))
        y = observed_outcomes(cohort.potentials, treatments)
        nulls = batch_block_assignments(design, reported, config.rb_draws,
                                        _generator(kids[3]))
        rec = run_replication(config, rep)
        for strata, variant in ((cohort.true_strata, rec.corrected),
                                (reported, rec.reported)):
            want = randomization_pvalue(y, treatments, strata, nulls,
                                        design.allocation.n_arms)
            assert variant.rb_p == want.p_value, (rep, strata is reported)
            assert variant.rb_discarded == want.discarded


class TestAggregation:
    def test_matches_manual_reduction(self):
        config = _config(reps=40, delta=0.5)
        metrics = run_scenario(config)
        rows = [run_replication(config, r).corrected for r in range(40)]
        est = np.array([v.estimate for v in rows])
        covered = np.array([v.covered for v in rows], dtype=float)
        reject = np.array([v.p_value <= 0.05 for v in rows], dtype=float)
        got = metrics.corrected
        assert got.n == 40
        assert got.bias == pytest.approx(est.mean() - 0.5, abs=1e-12)
        assert got.mean_estimate == pytest.approx(est.mean(), abs=1e-12)
        assert got.sd_estimate == pytest.approx(est.std(ddof=1), abs=1e-12)
        assert got.coverage == pytest.approx(covered.mean(), abs=1e-12)
        assert got.mean_se == pytest.approx(
            np.mean([v.se for v in rows]), abs=1e-12
        )
        assert got.reject_rate == pytest.approx(reject.mean(), abs=1e-12)
        assert got.mc_se_bias == pytest.approx(
            est.std(ddof=1) / math.sqrt(40), abs=1e-12
        )
        assert got.mc_se_coverage == pytest.approx(
            mc_se_rate(float(covered.mean()), 40), abs=1e-15
        )

    def test_rb_metrics_present_iff_enabled(self):
        without = run_scenario(_config(reps=8))
        assert without.corrected.rb_reject_rate is None
        assert without.corrected.mc_se_rb_reject is None
        with_rb = run_scenario(_config(reps=8, rb_draws=40))
        for variant in (with_rb.corrected, with_rb.reported):
            assert 0.0 <= variant.rb_reject_rate <= 1.0
            assert variant.mc_se_rb_reject is not None

    def test_invalid_replications_are_counted_and_flagged(self):
        # 4 patients in three arms: most draws cannot support the model
        config = ScenarioConfig(
            design=TrialDesign(
                n_patients=4,
                strata_probs=(0.4, 0.6),
                allocation=AllocationRatio((1, 1, 1)),
                block_size=3,
            ),
            outcome=OutcomeModel(rho=1.0, delta=0.5),
            misclass=MisclassModel("ignorable", 0.02, 0.02),
            n_replications=200,
            seed=7,
        )
        metrics = run_scenario(config)
        assert metrics.n_valid + metrics.n_invalid == 200
        assert metrics.n_invalid > 0
        assert metrics.n_valid > 0
        assert metrics.warning
        assert metrics.corrected.n == metrics.n_valid

    def test_rb_flagged_tests_are_reported_apart_from_invalid_replications(self, monkeypatch):
        # a constructed case: every replication is valid, and every corrected
        # test loses 20 of its 100 null draws to an empty arm, so each one is
        # flagged while the reported tests lose none
        y = np.array([1.0, 2.0, 3.0, 4.0, 2.5, 3.5])
        strata = np.zeros(6, dtype=np.int8)
        good = np.array([0, 1, 2, 0, 1, 2], dtype=np.int8)
        bad = np.array([0, 2, 2, 0, 2, 2], dtype=np.int8)  # arm 1 empty
        nulls = np.vstack([np.tile(good, (80, 1)), np.tile(bad, (20, 1))])
        flagged = randomization_pvalue(y, good, strata, nulls, 3)
        clean = randomization_pvalue(y, good, strata, nulls[:80], 3)

        def record(rb):
            return VariantRecord(estimate=0.5, se=0.2, covered=True, p_value=0.01,
                                 rb_p=rb.p_value, rb_discarded=rb.discarded,
                                 rb_flagged=rb.flagged)

        monkeypatch.setattr(harness, "run_replication", lambda config, rep: ReplicationRecord(
            rep_index=rep, valid=True, corrected=record(flagged), reported=record(clean)))
        metrics = run_scenario(_config(reps=20, rb_draws=100))
        assert metrics.n_invalid == 0
        assert metrics.corrected.rb_flagged > 0
        assert (metrics.corrected.rb_flagged, metrics.reported.rb_flagged) == (20, 0)
        assert metrics.warning
        rows = metrics_rows([metrics])
        assert [row["invalid"] for row in rows] == [0, 0]
        assert [row["rb_flagged"] for row in rows] == [
            metrics.corrected.rb_flagged, metrics.reported.rb_flagged,
        ]

    @pytest.mark.parametrize("rb_draws", [0, 20])
    def test_all_invalid_scenario_reports_nan_without_warnings(self, rb_draws):
        # two patients cannot identify intercept, stratum and arm columns
        config = ScenarioConfig(
            design=TrialDesign(2, (0.5, 0.5), AllocationRatio((1, 2)), 3),
            outcome=OutcomeModel(rho=1.0, delta=0.5),
            misclass=MisclassModel("ignorable", 0.02, 0.02),
            n_replications=10,
            rb_draws=rb_draws,
            seed=7,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            metrics = run_scenario(config)
        assert metrics.n_valid == 0 and metrics.n_invalid == 10
        assert metrics.warning
        for variant in (metrics.corrected, metrics.reported):
            assert variant.n == 0 and variant.rb_flagged == 0
            assert math.isnan(variant.bias) and math.isnan(variant.coverage)
            assert math.isnan(variant.mc_se_reject)
            assert (variant.rb_reject_rate is None) == (rb_draws == 0)
            if rb_draws:
                assert math.isnan(variant.rb_reject_rate)

    def test_healthy_scenario_raises_no_warning(self):
        metrics = run_scenario(_config(reps=10))
        assert metrics.n_invalid == 0
        assert not metrics.warning

    def test_thread_count_never_changes_results(self):
        check_thread_determinism()


class TestRandomBlockSizes:
    """Random block lengths through the whole replication path."""

    @staticmethod
    def _varblock_config():
        return ScenarioConfig(
            design=TrialDesign(20, (0.2, 0.8), AllocationRatio((1, 2, 2)), 10,
                               block_sizes=(5, 10)),
            outcome=OutcomeModel(rho=1.0, delta=0.5),
            misclass=MisclassModel("ignorable", 0.15, 0.30),
            n_replications=6,
            rb_draws=40,
            seed=29,
        )

    def test_rerun_and_thread_count_reproduce(self):
        config = self._varblock_config()
        serial = run_scenario(config, threads=1)
        assert serial == run_scenario(config, threads=1)
        assert serial == run_scenario(config, threads=2)

    def test_rb_pvalues_in_unit_interval(self):
        config = self._varblock_config()
        records = [run_replication(config, r) for r in range(config.n_replications)]
        assert any(rec.valid for rec in records)
        for rec in records:
            if rec.valid:
                for variant in (rec.corrected, rec.reported):
                    assert 0.0 < variant.rb_p <= 1.0


class TestPaperSuite:
    def test_estimation_grid(self):
        configs = paper_suite(1)
        assert len(configs) == 12
        assert all(c.n_replications == 400_000 for c in configs)
        assert all(c.rb_draws == 0 for c in configs)
        assert all(c.outcome.delta == 0.5 for c in configs)
        assert len({c.label for c in configs}) == 12
        kinds = {c.misclass.kind for c in configs}
        assert kinds == {"ignorable", "nonignorable1", "nonignorable2"}
        assert {c.outcome.rho for c in configs} == {1.0, 0.5}

    def test_estimation_grid_rep_override(self):
        configs = paper_suite(1, reps=500)
        assert all(c.n_replications == 500 for c in configs)

    def test_testing_grid(self):
        configs = paper_suite(2, rb_draws=250)
        assert len(configs) == 24
        assert all(c.n_replications == 4000 for c in configs)
        assert all(c.rb_draws == 250 for c in configs)
        assert {c.outcome.delta for c in configs} == {0.0, 0.5}
        assert len({c.label for c in configs}) == 24

    def test_mixture_grid(self):
        cases = paper_suite(3)
        assert len(cases) == 6
        assert all(isinstance(c, MixtureCase) for c in cases)
        assert all(c.misclass.gamma_low == 0.15 for c in cases)
        assert all(c.misclass.gamma_high == 0.30 for c in cases)
        assert {c.outcome.rho for c in cases} == {1.0, 0.5}

    def test_design_is_shared(self):
        for config in paper_suite(2):
            assert config.design == paper_design()

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError, match="table"):
            paper_suite(4)
