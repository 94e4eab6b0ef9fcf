"""Least-squares fits, t intervals, and the batched statistic kernel."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from stratasim.errors import ConfigurationError, DegenerateDesignError
from stratasim.inference import (
    RANK_TOL,
    ModelFit,
    _ols_batch,
    _t_critical,
    batched_treatment_tstats,
    ci_and_test,
    fit_model,
)
from stratasim.randomizer import AllocationRatio, TrialDesign, batch_block_assignments
from oracles import ols_exact, t_critical_bisect, t_two_sided_p

# Small full-rank dataset with rational arithmetic in mind: two strata,
# three arms, twelve patients.
STRATA = np.array([0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0])
TREATMENTS = np.array([0, 1, 2, 0, 1, 2, 1, 2, 0, 1, 2, 0])
Y = [1, 3, 2, 5, 4, 6, 3, 7, 2, 6, 5, 1]


def _design_rows():
    rows = []
    for s, t in zip(STRATA.tolist(), TREATMENTS.tolist()):
        rows.append([1, s, int(t == 1), int(t == 2)])
    return rows


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestFitModel:
    def test_matches_exact_rational_solution(self):
        beta, rss, unscaled = ols_exact(_design_rows(), Y)
        fit = fit_model(np.array(Y, dtype=float), TREATMENTS, STRATA)
        assert fit.terms == ("intercept", "stratum1", "treat1", "treat2")
        assert fit.df == 8
        for got, want in zip(fit.coef, beta):
            assert abs(got - float(want)) < 1e-10
        assert abs(fit.sigma2 - float(rss) / 8) < 1e-10
        for got, diag in zip(fit.se, unscaled):
            want = math.sqrt(float(rss) / 8 * float(diag))
            assert abs(got - want) < 1e-10

    def test_row_permutation_invariance(self):
        rng = _rng(41)
        perm = rng.permutation(len(Y))
        base = fit_model(np.array(Y, dtype=float), TREATMENTS, STRATA)
        shuffled = fit_model(
            np.array(Y, dtype=float)[perm], TREATMENTS[perm], STRATA[perm]
        )
        assert np.abs(base.coef - shuffled.coef).max() < 1e-12
        assert np.abs(base.se - shuffled.se).max() < 1e-12

    def test_residuals_orthogonal_to_design(self):
        rng = _rng(42)
        y = rng.standard_normal(60)
        treatments = np.tile([0, 1, 2], 20)
        strata = (rng.random(60) >= 0.4).astype(np.int8)
        fit = fit_model(y, treatments, strata)
        x = np.column_stack(
            [np.ones(60), strata == 1, treatments == 1, treatments == 2]
        ).astype(float)
        resid = y - x @ fit.coef
        assert np.abs(x.T @ resid).max() < 1e-8

    def test_empty_stratum_column_dropped(self):
        y = np.array(Y, dtype=float)
        ones = np.ones_like(STRATA)
        fit = fit_model(y, TREATMENTS, ones)
        assert fit.terms == ("intercept", "treat1", "treat2")
        assert fit.df == 9
        beta, rss, unscaled = ols_exact(
            [[1, int(t == 1), int(t == 2)] for t in TREATMENTS.tolist()], Y
        )
        for got, want in zip(fit.coef, beta):
            assert abs(got - float(want)) < 1e-10

    def test_empty_arm_raises(self):
        y = np.array(Y, dtype=float)
        no_arm2 = np.where(TREATMENTS == 2, 1, TREATMENTS)
        with pytest.raises(DegenerateDesignError, match="2"):
            fit_model(y, no_arm2, STRATA, n_arms=3)

    def test_collinear_design_raises(self):
        y = np.arange(10, dtype=float)
        treatments = np.array([0, 1] * 5)
        strata = treatments.copy()  # stratum indicator equals arm indicator
        with pytest.raises(DegenerateDesignError, match="rank"):
            fit_model(y, treatments, strata, n_arms=2)

    def test_more_columns_than_rows_raises(self):
        with pytest.raises(DegenerateDesignError):
            fit_model(np.ones(3), np.array([0, 1, 2]), np.array([0, 1, 1]))

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError, match="length"):
            fit_model(np.ones(4), np.array([0, 1]), np.array([0, 1, 0, 1]))


class TestCiAndTest:
    def test_matches_quadrature_oracle(self):
        fit = fit_model(np.array(Y, dtype=float), TREATMENTS, STRATA)
        for alpha in (0.05, 0.01):
            res = ci_and_test(fit, alpha=alpha)
            stat = fit.coefficient("treat1") / fit.stderr("treat1")
            assert abs(res.statistic - stat) < 1e-12
            assert abs(res.p_value - t_two_sided_p(stat, fit.df)) < 1e-8
            tcrit = t_critical_bisect(alpha, fit.df)
            assert abs(res.ci_low - (res.estimate - tcrit * res.se)) < 1e-6
            assert abs(res.ci_high - (res.estimate + tcrit * res.se)) < 1e-6

    def test_critical_value_pinned(self):
        assert abs(_t_critical(0.05, 76) - 1.9916726096446642) < 1e-12

    def test_reports_requested_term_and_strata_label(self):
        fit = fit_model(np.array(Y, dtype=float), TREATMENTS, STRATA)
        res = ci_and_test(fit, term="treat2", strata_used="corrected")
        assert res.term == "treat2"
        assert res.strata_used == "corrected"
        assert res.estimate == fit.coefficient("treat2")

    def test_zero_se_edge(self):
        terms = ("intercept", "treat1")
        null_fit = ModelFit(
            terms=terms, coef=np.array([2.0, 0.0]), se=np.zeros(2),
            df=8, sigma2=0.0, n_obs=10,
        )
        res = ci_and_test(null_fit)
        assert res.p_value == 1.0  # estimate equals the null exactly
        assert res.ci_low == res.ci_high == 0.0
        effect_fit = ModelFit(
            terms=terms, coef=np.array([2.0, 0.5]), se=np.zeros(2),
            df=8, sigma2=0.0, n_obs=10,
        )
        res_eff = ci_and_test(effect_fit)
        assert res_eff.p_value == 0.0
        assert res_eff.ci_low == res_eff.ci_high == 0.5


class TestBatchedKernel:
    def _trial(self, seed, n=40):
        design = TrialDesign(
            n_patients=n,
            strata_probs=(0.4, 0.6),
            allocation=AllocationRatio((1, 2, 2)),
            block_size=5,
        )
        rng = _rng(seed)
        strata = (rng.random(n) >= 0.4).astype(np.int8)
        y = rng.standard_normal(n) + 0.3 * strata
        draws = batch_block_assignments(design, strata, 64, rng)
        return y, strata, draws

    @pytest.mark.parametrize("target_arm", [1, 2])
    def test_matches_single_fits(self, target_arm):
        y, strata, draws = self._trial(43)
        stats, valid = batched_treatment_tstats(y, strata, draws, 3, target_arm)
        assert valid.all()
        term = f"treat{target_arm}"
        for row, got in zip(draws, stats):
            fit = fit_model(y, row, strata, 3)
            want = fit.coefficient(term) / fit.stderr(term)
            assert abs(got - want) < 1e-10

    def test_degenerate_rows_flagged_not_raised(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 2.5, 3.5])
        strata = np.zeros(6, dtype=np.int8)
        rows = np.array(
            [
                [0, 1, 2, 0, 1, 2],  # complete
                [0, 2, 2, 0, 2, 2],  # arm 1 missing
                [1, 1, 2, 1, 1, 2],  # control missing
            ]
        )
        stats, valid = batched_treatment_tstats(y, strata, rows, 3)
        assert valid.tolist() == [True, False, False]
        assert np.isnan(stats[1]) and np.isnan(stats[2])
        fit = fit_model(y, rows[0], strata, 3)
        want = fit.coefficient("treat1") / fit.stderr("treat1")
        assert abs(stats[0] - want) < 1e-10

    def test_batch_matches_oracle_and_flags_degenerate_rows(self):
        # three strata, so arm 0 == stratum 0 makes the design collinear
        strata = np.repeat([0, 1, 2], 4)
        rows = np.array(
            [
                [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],
                [0, 1, 1, 0, 1, 0, 2, 2, 0, 2, 1, 2],
                [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],  # arm 2 empty
                [0, 0, 0, 0, 1, 2, 1, 2, 2, 1, 1, 2],  # arm 0 is stratum 0
                [2, 1, 0, 0, 2, 1, 1, 0, 0, 2, 2, 1],
            ]
        )
        terms, coef, se, df, sigma2, valid = _ols_batch(
            np.array(Y, dtype=float), strata, rows, 3
        )
        assert terms == ("intercept", "stratum1", "stratum2", "treat1", "treat2")
        assert df == 7
        assert valid.tolist() == [True, True, False, False, True]
        stats, t_valid = batched_treatment_tstats(Y, strata, rows, 3, 2)
        assert t_valid.tolist() == valid.tolist()
        assert np.isnan(stats[~valid]).all()
        for b in np.flatnonzero(valid):
            design = [
                [1, int(s == 1), int(s == 2), int(t == 1), int(t == 2)]
                for s, t in zip(strata.tolist(), rows[b].tolist())
            ]
            beta, rss, unscaled = ols_exact(design, Y)
            assert np.abs(coef[b] - [float(v) for v in beta]).max() < 1e-10
            assert abs(sigma2[b] - float(rss) / df) < 1e-10
            want_se = [math.sqrt(float(rss) / df * float(u)) for u in unscaled]
            assert np.abs(se[b] - want_se).max() < 1e-10
            assert abs(stats[b] - float(beta[4]) / want_se[4]) < 1e-10

    def test_rank_tolerance_is_strict(self):
        assert RANK_TOL == 1e-10
