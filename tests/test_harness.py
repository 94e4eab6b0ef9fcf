"""Replication seeding, aggregation arithmetic, suite grids, and failure
accounting in the scenario runner."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from stratasim.cohort import OutcomeModel
from stratasim.harness import (
    MixtureCase,
    ScenarioConfig,
    mc_se_rate,
    paper_design,
    paper_suite,
    run_replication,
    run_scenario,
)
from stratasim.misclassify import MisclassModel
from stratasim.randomizer import AllocationRatio, TrialDesign
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
