"""Least-squares fits, t intervals, and the batched statistic kernel."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import stdtrit

from stratasim.errors import ConfigurationError
from stratasim.inference import (
    DEGENERATE_OBSERVED,
    NO_RESIDUAL_DF,
    RANK_TOL,
    BatchFit,
    fit_batch,
    t_interval,
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


def _one_group(y, strata_variants, rows, n_arms):
    """``fit_batch`` on a single group, one trial's outcomes and strata,
    split into one fit per strata variant (each keeps a variant axis)."""
    fit = fit_batch(np.asarray(y, dtype=float)[None],
                    [np.asarray(s)[None] for s in strata_variants], np.asarray(rows)[None], n_arms)
    return [_variant(fit, v) for v in range(len(strata_variants))]


def _variant(fit, v):
    return BatchFit(df=fit.df[v:v + 1], coef=fit.coef[v:v + 1], se=fit.se[v:v + 1],
                    valid=fit.valid[v:v + 1], arm_count=fit.arm_count[:, v:v + 1])


def _fit_one(y, treatments, strata, n_arms=3):
    """``fit_batch`` on one trial: one variant, one group, one row."""
    return _one_group(y, [strata], np.asarray(treatments)[None], n_arms)[0]


def _interval(fit, alpha=0.05):
    """``t_interval`` of the arm-1 coefficient of every row of ``fit``."""
    return np.stack(t_interval(fit.coef, fit.se, fit.df[..., None], alpha))


def _rejected(fit, alpha=0.05):
    """The model test of every row: its interval excludes 0."""
    ci_low, ci_high = _interval(fit, alpha)
    return (ci_low > 0.0) | (ci_high < 0.0)


def _tstats(y, strata, rows, n_arms):
    (fit,) = _one_group(y, [strata], rows, n_arms)
    stats, valid = fit.tstats()
    return stats[0, 0], valid[0, 0]


def _trial(seed, n=40):
    """One cohort of ``n`` patients, 1:2:2 in blocks of 5, and 64 of its
    block assignments."""
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


def _assert_matches_oracle(fit, row, design, y):
    """The arm-1 coefficient and SE of one row against the exact rational
    solution; the arm columns are the design's last ones."""
    beta, rss, unscaled = ols_exact(design, y)
    k = len(beta) - (len(fit.arm_count) - 1)  # arm 1's column
    sigma2 = float(rss) / fit.df[0, 0]
    assert abs(fit.coef[0, 0, row] - float(beta[k])) < 1e-10
    assert abs(fit.se[0, 0, row] - math.sqrt(sigma2 * float(unscaled[k]))) < 1e-10


class TestFitModel:
    """One trial's fit: ``fit_batch`` on a batch of one row."""

    def test_matches_exact_rational_solution(self):
        fit = _fit_one(Y, TREATMENTS, STRATA)
        assert fit.df.tolist() == [[8]]
        assert fit.coef.shape == fit.se.shape == (1, 1, 1)
        assert fit.arm_count[:, 0, 0, 0].tolist() == [4, 4, 4]
        _assert_matches_oracle(fit, 0, _design_rows(), Y)

    def test_row_permutation_invariance(self):
        rng = _rng(41)
        perm = rng.permutation(len(Y))
        base = _fit_one(Y, TREATMENTS, STRATA)
        shuffled = _fit_one(np.array(Y, dtype=float)[perm], TREATMENTS[perm], STRATA[perm])
        assert np.abs(base.coef - shuffled.coef).max() < 1e-12
        assert np.abs(base.se - shuffled.se).max() < 1e-12

    def test_residuals_orthogonal_to_design(self):
        rng = _rng(42)
        y = rng.standard_normal(60)
        treatments = np.tile([0, 1, 2], 20)
        strata = (rng.random(60) >= 0.4).astype(np.int8)
        fit = _fit_one(y, treatments, strata)
        x = np.column_stack([np.ones(60), strata == 1, treatments == 1, treatments == 2])
        beta = np.linalg.lstsq(x, y, rcond=None)[0]
        resid = y - x @ beta
        assert np.abs(x.T @ resid).max() < 1e-8
        assert abs(fit.coef[0, 0, 0] - beta[2]) < 1e-10
        # the SE carries the residual variance of the full design
        unscaled = np.linalg.inv(x.T @ x)[2, 2]
        assert abs(fit.se[0, 0, 0] ** 2 / unscaled - resid @ resid / fit.df[0, 0]) < 1e-12

    def test_empty_stratum_column_dropped(self):
        y = np.array(Y, dtype=float)
        ones = np.ones_like(STRATA)
        fit = _fit_one(y, TREATMENTS, ones)
        assert fit.df.tolist() == [[9]]
        _assert_matches_oracle(
            fit, 0, [[1, int(t == 1), int(t == 2)] for t in TREATMENTS.tolist()], Y
        )

    def test_empty_arm_is_invalid(self):
        y = np.array(Y, dtype=float)
        no_arm2 = np.where(TREATMENTS == 2, 1, TREATMENTS)
        fit = _fit_one(y, no_arm2, STRATA)
        assert fit.faults().tolist() == [[["arm 2 has no patients"]]]

    def test_collinear_design_is_invalid(self):
        y = np.arange(10, dtype=float)
        treatments = np.array([0, 1] * 5)
        strata = treatments.copy()  # stratum indicator equals arm indicator
        fit = _fit_one(y, treatments, strata, n_arms=2)
        assert fit.faults().tolist() == [[["design matrix is rank deficient after column drops"]]]

    def test_more_columns_than_rows_is_invalid(self):
        fit = _fit_one(np.ones(3), np.array([0, 1, 2]), np.array([0, 1, 1]))
        assert fit.faults().tolist() == [[["3 observations cannot identify 4 columns"]]]

    @pytest.mark.parametrize("n_arms,match", [(1, "^n_arms must be >= 2"),
                                              (1.5, "^n_arms must be an integer")])
    def test_arm_count_rejected(self, n_arms, match):
        with pytest.raises(ConfigurationError, match=match):
            _fit_one(Y, np.zeros(12, dtype=int), STRATA, n_arms=n_arms)

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError, match="length"):
            _fit_one(np.ones(4), np.array([0, 1]), np.array([0, 1, 0, 1]))


def _zero_se_row(estimate):
    """A valid one-row fit with a zero SE."""
    return BatchFit(
        df=np.array([[8]]), coef=np.full((1, 1, 1), estimate), se=np.zeros((1, 1, 1)),
        valid=np.ones((1, 1, 1), dtype=bool), arm_count=np.full((2, 1, 1, 1), 5),
    )


class TestCiAndTest:
    """t intervals and tests of fitted rows through ``t_interval``."""

    def test_matches_quadrature_oracle(self):
        fit = _fit_one(Y, TREATMENTS, STRATA)
        estimate, se = fit.coef[0, 0, 0], fit.se[0, 0, 0]
        for alpha in (0.05, 0.01):
            ci_low, ci_high = _interval(fit, alpha)[:, 0, 0, 0]
            tcrit = t_critical_bisect(alpha, fit.df[0, 0])
            assert abs(ci_low - (estimate - tcrit * se)) < 1e-6
            assert abs(ci_high - (estimate + tcrit * se)) < 1e-6
        # the interval's decision is the quadrature p-value's, row by row
        y, strata, draws = _trial(43)
        (fit,) = _one_group(y, [strata], draws, 3)
        stats, valid = fit.tstats()
        decisions = set()
        for alpha in (0.5, 0.05, 0.01):
            want = [t_two_sided_p(t, fit.df[0, 0]) <= alpha for t in stats[valid]]
            assert _rejected(fit, alpha)[valid].tolist() == want
            decisions.update(want)
        assert decisions == {True, False}

    def test_critical_value_pinned(self):
        assert abs(t_interval(0.0, 1.0, 76, 0.05)[1] - 1.9916726096446642) < 1e-12

    @pytest.mark.parametrize("df", [
        np.concatenate([np.arange(-3, 2000), [76, 0, 8, 0.5, 2.5]]).reshape(-1, 2),
        np.full((3, 4), 76),
        np.full((2, 3), 0),
    ], ids=["mixed", "single", "single-below-1"])
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_critical_values_equal_scalar_calls(self, alpha, df):
        # one stdtrit call per distinct df gives each entry the bits of its
        # own scalar call; df <= 0 is NaN, a fractional df above 0 is not
        got = t_interval(0.0, 1.0, df, alpha)[1]
        want = [float(stdtrit(d, 1.0 - alpha / 2.0)) if d > 0 else math.nan
                for d in df.ravel().tolist()]
        assert got.shape == df.shape
        assert np.array_equal(got.ravel(), want, equal_nan=True)

    def test_zero_se_edge(self):
        # a zero SE rejects every estimate but the null itself; its t
        # statistic is not finite, so the row is not usable
        for estimate in (0.0, 0.5, -0.5):
            ci_low, ci_high = _interval(_zero_se_row(estimate))[:, 0, 0, 0]
            assert ci_low == ci_high == estimate
            assert _rejected(_zero_se_row(estimate))[0, 0, 0] == (estimate != 0.0)
            assert _zero_se_row(estimate).faults().tolist() == [[[DEGENERATE_OBSERVED]]]

    @pytest.mark.parametrize("estimate,se", [(0.5, 0.2), (0.5, 0.0), (0.0, 0.0)])
    def test_t_interval_takes_python_floats(self, estimate, se):
        got = t_interval(estimate, se, 8, 0.05)
        want = t_interval(np.float64(estimate), np.float64(se), np.int64(8), 0.05)
        assert [float(x) for x in got] == [float(x) for x in want]


class TestBatchedKernel:
    def test_matches_single_fits(self):
        y, strata, draws = _trial(43)
        stats, valid = _tstats(y, strata, draws, 3)
        assert valid.all()
        for row, got in zip(draws, stats):
            fit = _fit_one(y, row, strata)
            assert abs(got - fit.coef[0, 0, 0] / fit.se[0, 0, 0]) < 1e-10

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
        fit = _fit_one(y, rows[0], strata)
        want = fit.coef[0, 0, 0] / fit.se[0, 0, 0]
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
        (batch,) = _one_group(Y, [strata], rows, 3)
        assert batch.df.tolist() == [[7]]
        assert batch.valid[0, 0].tolist() == [True, True, False, False, True]
        stats, t_valid = _tstats(Y, strata, rows, 3)
        assert t_valid.tolist() == batch.valid[0, 0].tolist()
        assert np.isnan(stats[~batch.valid[0, 0]]).all()
        for b in np.flatnonzero(batch.valid[0, 0]):
            design = [
                [1, int(s == 1), int(s == 2), int(t == 1), int(t == 2)]
                for s, t in zip(strata.tolist(), rows[b].tolist())
            ]
            _assert_matches_oracle(batch, b, design, Y)
            beta, rss, unscaled = ols_exact(design, Y)
            want_se = math.sqrt(float(rss) / 7 * float(unscaled[3]))
            assert abs(stats[b] - float(beta[3]) / want_se) < 1e-10

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
        fits = _one_group(Y, self.STRATA, self.ROWS, 3)
        assert [f.df.tolist() for f in fits] == [[[7]], [[8]]]
        assert fits[0].valid[0, 0].tolist() == [True, True, False, False, True]
        assert fits[1].valid[0, 0].tolist() == [True, True, False, True, True]
        for strata, batch in zip(self.STRATA, fits):
            levels = sorted(set(strata.tolist()))[1:]
            for b in range(len(self.ROWS)):
                if not batch.valid[0, 0, b]:
                    assert batch.faults()[0, 0, b]
                    continue
                design = [[1, *(int(s == lv) for lv in levels), int(t == 1), int(t == 2)]
                          for s, t in zip(strata.tolist(), self.ROWS[b].tolist())]
                _assert_matches_oracle(batch, b, design, Y)

    def test_invalid_rows_name_their_fault(self):
        fits = _one_group(Y, self.STRATA, self.ROWS, 3)
        assert fits[1].faults()[0, 0, 2] == "arm 2 has no patients"
        assert fits[0].faults()[0, 0, 3] == "design matrix is rank deficient after column drops"

    def test_batch_row_analysis_equals_one_trial_fit(self):
        y = np.array(Y, dtype=float)
        fits = _one_group(y, self.STRATA, self.ROWS, 3)
        for strata, batch in zip(self.STRATA, fits):
            one = _fit_one(y, self.ROWS[4], strata)
            for name in ("coef", "se"):
                got = getattr(batch, name)[..., 4]
                assert got.tobytes() == getattr(one, name)[..., 0].tobytes()
            got = _interval(batch, 0.1)[..., 4]
            assert got.tobytes() == _interval(one, 0.1)[..., 0].tobytes()

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
        batch = _one_group(y, [true, reported], rows, n_arms)
        alone = _one_group(y, [true, reported], rows[:1], n_arms)
        single = [_one_group(y, [strata], rows, n_arms)[0] for strata in (true, reported)]
        for big, one, own in zip(batch, alone, single):
            for name in ("coef", "se", "valid"):
                got = getattr(big, name)
                assert np.array_equal(got[..., 0], getattr(one, name)[..., 0])
                assert np.array_equal(got[..., 0], got[..., 500])
                assert np.array_equal(got, getattr(own, name))
            interval = _interval(big)
            assert interval[..., 0].tobytes() == interval[..., 500].tobytes()
            assert interval[..., 0].tobytes() == _interval(one)[..., 0].tobytes()
            stats, _ = big.tstats()
            assert stats[0, 0, 0] == stats[0, 0, 500] == one.tstats()[0][0, 0, 0]


class TestGroupAxis:
    """Many trials in one kernel call: each group has its own outcomes and
    strata, and its numbers never depend on the other groups."""

    @staticmethod
    def _groups(seed, n_groups=6, n_rows=5, n=30):
        rng = _rng(seed)
        y = rng.standard_normal((n_groups, n))
        true = (rng.random((n_groups, n)) >= 0.4).astype(np.int8)
        reported = (rng.random((n_groups, n)) >= 0.4).astype(np.int8)
        true[0] = 0  # one stratum only: the chunk's levels differ by group
        reported[1] = 1
        draws = np.tile(np.arange(3), (n_groups, n_rows, n // 3 + 1))[..., :n]
        draws = rng.permuted(draws, axis=-1)
        return y, [true, reported], draws

    def test_each_group_bit_identical_alone(self):
        y, variants, draws = self._groups(71)
        fit = fit_batch(y, variants, draws, 3)
        for g in range(len(y)):
            alone = fit_batch(y[g:g + 1], [v[g:g + 1] for v in variants], draws[g:g + 1], 3)
            assert np.array_equal(fit.df[:, g], alone.df[:, 0])
            for name in ("coef", "se", "valid", "arm_count"):
                assert np.array_equal(getattr(fit, name)[..., g, :],
                                      getattr(alone, name)[..., 0, :], equal_nan=True)
        assert fit.df[0, 0] == fit.df[0, 2] + 1  # no stratum column in group 0

    def test_each_group_matches_one_trial_fits(self):
        y, variants, draws = self._groups(72)
        fit = fit_batch(y, variants, draws, 3)
        for v, strata in enumerate(variants):
            for g in range(len(y)):
                for r in range(draws.shape[1]):
                    one = _fit_one(y[g], draws[g, r], strata[g])
                    assert abs(fit.coef[v, g, r] - one.coef[0, 0, 0]) < 1e-10
                    assert abs(fit.se[v, g, r] - one.se[0, 0, 0]) < 1e-10

    def test_unidentified_group_is_invalid_alone(self):
        # three patients: with both strata present they cannot identify the
        # intercept, the stratum and two arm columns; with one stratum they can
        y = np.array([[1.0, 2.0, 4.0], [1.0, 2.0, 4.0]])
        strata = np.array([[0, 1, 1], [1, 1, 1]])
        draws = np.array([[[0, 1, 2]], [[0, 1, 2]]])
        fit = fit_batch(y, [strata], draws, 3)
        assert fit.df.tolist() == [[-1, 0]]
        assert fit.valid.tolist() == [[[False], [True]]]
        # the valid group has no residual degrees of freedom: no t interval,
        # so its row is not usable either
        assert fit.faults().tolist() == [[["3 observations cannot identify 4 columns"],
                                          [NO_RESIDUAL_DF]]]
        assert np.isnan(_interval(fit)[:, 0, 1, 0]).all()
        assert not fit.tstats()[1].any()

    def test_t_interval_entry_equals_scalar_call(self):
        y, variants, draws = self._groups(73)
        fit = fit_batch(y, variants, draws, 3)
        whole = _interval(fit, 0.1)
        for v, g, r in ((0, 0, 0), (1, 3, 4)):
            one = t_interval(fit.coef[v, g, r], fit.se[v, g, r], fit.df[v, g], 0.1)
            assert whole[:, v, g, r].tolist() == [float(x) for x in one]


class TestEstimand:
    """The kernel's one output, arm 1's coefficient and its SE, in designs
    of two to four arms."""

    @staticmethod
    def _trial(ratio, seed, n_rows=8, n=30):
        design = TrialDesign(n_patients=n, strata_probs=(0.4, 0.6),
                             allocation=AllocationRatio(ratio), block_size=sum(ratio))
        rng = _rng(seed)
        strata = (rng.random(n) >= 0.4).astype(np.int8)
        y = rng.standard_normal(n) + 0.5 * strata
        return y, strata, batch_block_assignments(design, strata, n_rows, rng)

    @pytest.mark.parametrize("ratio", [(1, 1), (1, 2, 2), (1, 1, 2, 2)])
    def test_matches_exact_oracle(self, ratio):
        y, strata, rows = self._trial(ratio, 81)
        (fit,) = _one_group(y, [strata], rows, len(ratio))
        assert fit.valid.all()
        for b, row in enumerate(rows.tolist()):
            design = [[1, s, *(int(t == arm) for arm in range(1, len(ratio)))]
                      for s, t in zip(strata.tolist(), row)]
            _assert_matches_oracle(fit, b, design, y.tolist())

    def test_swapping_arms_2_and_3_changes_nothing(self):
        y, strata, rows = self._trial((1, 1, 2, 2), 82, n_rows=64)
        swapped = np.array([0, 1, 3, 2])[rows]
        (fit,) = _one_group(y, [strata], rows, 4)
        (other,) = _one_group(y, [strata], swapped, 4)
        assert fit.valid.all() and np.array_equal(other.valid, fit.valid)
        assert np.abs(other.coef - fit.coef).max() < 1e-12
        assert np.abs(other.se - fit.se).max() < 1e-12

    def test_tstats_are_coef_over_se(self):
        y, strata, rows = self._trial((1, 2, 2), 83, n_rows=64)
        rows[1] = np.where(rows[1] == 1, 2, rows[1])  # arm 1 empty
        (fit,) = _one_group(y, [strata], rows, 3)
        stats, valid = fit.tstats()
        assert valid[0, 0, 0] and not valid[0, 0, 1]
        assert np.array_equal(stats[valid], (fit.coef / fit.se)[valid])
        assert np.isnan(stats[~valid]).all()


def _fixture_fits():
    """The fits of this module's fixtures, valid, invalid and unusable rows."""
    y3 = np.array([[1.0, 2.0, 4.0], [1.0, 2.0, 4.0]])
    no_arm2 = np.where(TREATMENTS == 2, 1, TREATMENTS)
    collinear = np.array([0, 1] * 5)
    degenerate = np.array([[0, 1, 2, 0, 1, 2], [0, 2, 2, 0, 2, 2], [1, 1, 2, 1, 1, 2]])
    y, strata, draws = _trial(43)
    return [
        _one_group(y, [strata], draws, 3)[0],
        _fit_one(Y, TREATMENTS, STRATA),
        _fit_one(Y, no_arm2, STRATA),
        _fit_one(np.arange(10.0), collinear, collinear, n_arms=2),
        _fit_one(np.ones(3), np.array([0, 1, 2]), np.array([0, 1, 1])),
        _one_group([1.0, 2.0, 3.0, 4.0, 2.5, 3.5], [np.zeros(6, int)], degenerate, 3)[0],
        fit_batch(np.array(Y, float)[None], [s[None] for s in TestStackedKernel.STRATA],
                  TestStackedKernel.ROWS[None], 3),
        fit_batch(*TestGroupAxis._groups(71), 3),
        fit_batch(y3, [np.array([[0, 1, 1], [1, 1, 1]])], np.array([[[0, 1, 2]], [[0, 1, 2]]]), 3),
        *(_zero_se_row(estimate) for estimate in (0.0, 0.5)),
    ]


def test_faults_are_empty_exactly_where_rows_are_usable():
    fits = _fixture_fits()
    for fit in fits:
        usable = fit.tstats()[1]
        assert np.array_equal(fit.faults() == "", usable)
    # every kind of row is covered
    named = {f for fit in fits for f in fit.faults().ravel().tolist()}
    assert {"", NO_RESIDUAL_DF, DEGENERATE_OBSERVED, "arm 2 has no patients",
            "design matrix is rank deficient after column drops",
            "3 observations cannot identify 4 columns"} <= named
