"""Least-squares fits, t intervals, and the batched statistic kernel."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stratasim.errors import ConfigurationError, DegenerateDesignError
from stratasim.inference import (
    RANK_TOL,
    BatchFit,
    _t_critical,
    ci_and_test,
    fit_batch,
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


def _tstats(y, strata, rows, n_arms, target_arm=1):
    (fit,) = fit_batch(y, [strata], rows, n_arms)
    return fit.tstats(target_arm)


def _assert_matches_oracle(fit, row, design, y):
    """Arm coefficients, arm SEs and sigma2 of one row against the exact
    rational solution; the arm columns are the design's last ones."""
    beta, rss, unscaled = ols_exact(design, y)
    n_free = fit.arm_coef.shape[0]
    sigma2 = float(rss) / fit.df
    assert abs(fit.sigma2[row] - sigma2) < 1e-10
    for j in range(n_free):
        k = len(beta) - n_free + j
        assert abs(fit.arm_coef[j, row] - float(beta[k])) < 1e-10
        assert abs(fit.arm_se[j, row] - math.sqrt(sigma2 * float(unscaled[k]))) < 1e-10


class TestFitModel:
    def test_matches_exact_rational_solution(self):
        fit = fit_model(np.array(Y, dtype=float), TREATMENTS, STRATA)
        assert fit.df == 8
        assert fit.arm_coef.shape == fit.arm_se.shape == (2, 1)
        assert fit.arm_count[:, 0].tolist() == [4, 4, 4]
        _assert_matches_oracle(fit, 0, _design_rows(), Y)

    def test_row_permutation_invariance(self):
        rng = _rng(41)
        perm = rng.permutation(len(Y))
        base = fit_model(np.array(Y, dtype=float), TREATMENTS, STRATA)
        shuffled = fit_model(
            np.array(Y, dtype=float)[perm], TREATMENTS[perm], STRATA[perm]
        )
        assert np.abs(base.arm_coef - shuffled.arm_coef).max() < 1e-12
        assert np.abs(base.arm_se - shuffled.arm_se).max() < 1e-12

    def test_residuals_orthogonal_to_design(self):
        rng = _rng(42)
        y = rng.standard_normal(60)
        treatments = np.tile([0, 1, 2], 20)
        strata = (rng.random(60) >= 0.4).astype(np.int8)
        fit = fit_model(y, treatments, strata)
        arms = np.column_stack([treatments == 1, treatments == 2]).astype(float)
        # given the arm terms, each stratum's term is its mean of what remains
        partial = y - arms @ fit.arm_coef[:, 0]
        resid = partial.copy()
        for s in (0, 1):
            resid[strata == s] -= partial[strata == s].mean()
        x = np.column_stack([np.ones(60), strata == 1, arms])
        assert np.abs(x.T @ resid).max() < 1e-8
        assert abs(resid @ resid / fit.df - fit.sigma2[0]) < 1e-12

    def test_empty_stratum_column_dropped(self):
        y = np.array(Y, dtype=float)
        ones = np.ones_like(STRATA)
        fit = fit_model(y, TREATMENTS, ones)
        assert fit.df == 9
        _assert_matches_oracle(
            fit, 0, [[1, int(t == 1), int(t == 2)] for t in TREATMENTS.tolist()], Y
        )

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

    def test_single_arm_rejected(self):
        with pytest.raises(ConfigurationError, match="n_arms"):
            fit_model(np.array(Y, dtype=float), np.zeros(12, dtype=int), STRATA)

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError, match="length"):
            fit_model(np.ones(4), np.array([0, 1]), np.array([0, 1, 0, 1]))


class TestCiAndTest:
    def test_matches_quadrature_oracle(self):
        fit = fit_model(np.array(Y, dtype=float), TREATMENTS, STRATA)
        for alpha in (0.05, 0.01):
            res = ci_and_test(fit, alpha=alpha)
            stat = fit.arm_coef[0, 0] / fit.arm_se[0, 0]
            assert abs(res.statistic - stat) < 1e-12
            assert abs(res.p_value - t_two_sided_p(stat, fit.df)) < 1e-8
            tcrit = t_critical_bisect(alpha, fit.df)
            assert abs(res.ci_low - (res.estimate - tcrit * res.se)) < 1e-6
            assert abs(res.ci_high - (res.estimate + tcrit * res.se)) < 1e-6

    def test_critical_value_pinned(self):
        assert abs(_t_critical(0.05, 76) - 1.9916726096446642) < 1e-12

    def test_reports_requested_term_and_strata_label(self):
        fit = fit_model(np.array(Y, dtype=float), TREATMENTS, STRATA)
        res = ci_and_test(fit, target_arm=2, strata_used="corrected")
        assert res.term == "treat2"
        assert res.strata_used == "corrected"
        assert res.estimate == fit.arm_coef[1, 0]
        assert res.se == fit.arm_se[1, 0]

    @pytest.mark.parametrize("target_arm", [0, 3, -1])
    def test_target_arm_outside_active_arms_rejected(self, target_arm):
        fit = fit_model(np.array(Y, dtype=float), TREATMENTS, STRATA)
        with pytest.raises(ConfigurationError, match=f"target arm {target_arm} outside 1..2"):
            ci_and_test(fit, target_arm=target_arm)
        with pytest.raises(ConfigurationError, match=f"target arm {target_arm} outside 1..2"):
            fit.tstats(target_arm)

    def test_zero_se_edge(self):
        def one_row(estimate):
            return BatchFit(
                df=8, arm_coef=np.array([[estimate]]), arm_se=np.zeros((1, 1)),
                sigma2=np.zeros(1), valid=np.array([True]), arm_count=np.array([[5], [5]]),
            )

        res = ci_and_test(one_row(0.0))
        assert res.p_value == 1.0  # estimate equals the null exactly
        assert res.ci_low == res.ci_high == 0.0
        res_eff = ci_and_test(one_row(0.5))
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
        stats, valid = _tstats(y, strata, draws, 3, target_arm)
        assert valid.all()
        for row, got in zip(draws, stats):
            fit = fit_model(y, row, strata, 3)
            want = fit.arm_coef[target_arm - 1, 0] / fit.arm_se[target_arm - 1, 0]
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
        stats, valid = _tstats(y, strata, rows, 3)
        assert valid.tolist() == [True, False, False]
        assert np.isnan(stats[1]) and np.isnan(stats[2])
        fit = fit_model(y, rows[0], strata, 3)
        want = fit.arm_coef[0, 0] / fit.arm_se[0, 0]
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
        (batch,) = fit_batch(np.array(Y, dtype=float), [strata], rows, 3)
        assert batch.df == 7
        assert batch.valid.tolist() == [True, True, False, False, True]
        stats, t_valid = _tstats(Y, strata, rows, 3, 2)
        assert t_valid.tolist() == batch.valid.tolist()
        assert np.isnan(stats[~batch.valid]).all()
        for b in np.flatnonzero(batch.valid):
            design = [
                [1, int(s == 1), int(s == 2), int(t == 1), int(t == 2)]
                for s, t in zip(strata.tolist(), rows[b].tolist())
            ]
            _assert_matches_oracle(batch, b, design, Y)
            beta, rss, unscaled = ols_exact(design, Y)
            want_se = math.sqrt(float(rss) / 7 * float(unscaled[4]))
            assert abs(stats[b] - float(beta[4]) / want_se) < 1e-10

    def test_rank_tolerance_is_strict(self):
        assert RANK_TOL == 1e-10


class TestStackedKernel:
    """Several strata variants fit against one set of rows in one call."""

    # variant 0 uses three strata; variant 1 leaves stratum 1 absent, so it
    # has one term fewer and one more residual degree of freedom
    STRATA = (np.repeat([0, 1, 2], 4), np.array([0, 2, 2, 0, 2, 0, 0, 2, 2, 0, 2, 0]))
    ROWS = np.array(
        [
            [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],
            [0, 1, 1, 0, 1, 0, 2, 2, 0, 2, 1, 2],
            [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],  # arm 2 empty
            [0, 0, 0, 0, 1, 2, 1, 2, 2, 1, 1, 2],  # arm 0 is stratum 0 of variant 0
            [2, 1, 0, 0, 2, 1, 1, 0, 0, 2, 2, 1],
        ]
    )

    def test_each_variant_matches_exact_oracle(self):
        fits = fit_batch(np.array(Y, dtype=float), list(self.STRATA), self.ROWS, 3)
        assert [f.df for f in fits] == [7, 8]
        assert fits[0].valid.tolist() == [True, True, False, False, True]
        assert fits[1].valid.tolist() == [True, True, False, True, True]
        for strata, batch in zip(self.STRATA, fits):
            levels = sorted(set(strata.tolist()))[1:]
            for b in range(len(self.ROWS)):
                if not batch.valid[b]:
                    with pytest.raises(DegenerateDesignError):
                        ci_and_test(batch, row=b)
                    continue
                design = [[1, *(int(s == lv) for lv in levels), int(t == 1), int(t == 2)]
                          for s, t in zip(strata.tolist(), self.ROWS[b].tolist())]
                _assert_matches_oracle(batch, b, design, Y)

    def test_invalid_rows_name_their_fault(self):
        fits = fit_batch(np.array(Y, dtype=float), list(self.STRATA), self.ROWS, 3)
        with pytest.raises(DegenerateDesignError, match="arm 2 has no patients"):
            ci_and_test(fits[1], row=2)
        with pytest.raises(DegenerateDesignError, match="rank deficient"):
            ci_and_test(fits[0], row=3)

    def test_batch_row_analysis_equals_one_trial_fit(self):
        y = np.array(Y, dtype=float)
        fits = fit_batch(y, list(self.STRATA), self.ROWS, 3)
        for strata, batch in zip(self.STRATA, fits):
            one = fit_model(y, self.ROWS[4], strata, 3)
            for target in (1, 2):
                got = ci_and_test(batch, alpha=0.1, target_arm=target, strata_used="x", row=4)
                want = ci_and_test(one, alpha=0.1, target_arm=target, strata_used="x")
                assert got == want

    @pytest.mark.parametrize("n_arms", [2, 3, 4])
    def test_row_zero_bit_identical_alone_and_in_a_large_batch(self, n_arms):
        # randomization_pvalue's ties rest on this: an exact re-draw of the
        # observed assignment must reproduce its statistic bit for bit
        design = TrialDesign(
            n_patients=80, strata_probs=(0.4, 0.6),
            allocation=AllocationRatio((1,) * n_arms), block_size=2 * n_arms,
        )
        rng = _rng(61)
        reported = (rng.random(80) >= 0.4).astype(np.int8)
        true = np.where(rng.random(80) < 0.15, 1 - reported, reported)
        y = 3.0 * rng.standard_normal(80) + true
        rows = batch_block_assignments(design, reported, 1001, rng)
        rows[500] = rows[0]
        batch = fit_batch(y, [true, reported], rows, n_arms)
        alone = fit_batch(y, [true, reported], rows[:1], n_arms)
        single = [fit_batch(y, [strata], rows, n_arms)[0] for strata in (true, reported)]
        for big, one, own in zip(batch, alone, single):
            for name in ("arm_coef", "arm_se", "sigma2", "valid"):
                got = getattr(big, name)
                assert np.array_equal(got[..., 0], getattr(one, name)[..., 0])
                assert np.array_equal(got[..., 0], got[..., 500])
                assert np.array_equal(got, getattr(own, name))
            assert ci_and_test(big) == ci_and_test(one) == ci_and_test(big, row=500)
            stats, _ = big.tstats()
            assert stats[0] == stats[500] == one.tstats()[0][0]
