"""Randomization tests: exhaustive reference p-values, degenerate-draw
accounting, and super-uniformity under the sharp null."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from stratasim.errors import ConfigurationError, DegenerateDesignError
from stratasim.inference import fit_batch
from stratasim.randomizer import AllocationRatio, TrialDesign, batch_block_assignments
from stratasim.rerandomize import (
    FLAG_DISCARD_SHARE,
    RandTestResult,
    randomization_batch,
    randomization_pvalue,
)
from oracles import two_sample_t
from properties import check_rb_superuniformity


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _tstats(y, strata, rows, n_arms):
    fit = fit_batch(np.asarray(y, dtype=float)[None], [strata[None]], rows[None], n_arms)
    stats, valid = fit.tstats()
    return stats[0, 0], valid[0, 0]


def _pvalue(statistic, null_stats):
    """The add-one p-value of one group whose null draws are all usable."""
    stats = np.concatenate([[statistic], null_stats])[None]
    return randomization_batch(stats, np.ones(stats.shape, dtype=bool))[0][0]


def _all_assignments(n_blocks):
    """Every 1:1 block sequence: each block is [0, 1] or [1, 0]."""
    rows = []
    for choice in itertools.product([(0, 1), (1, 0)], repeat=n_blocks):
        rows.append([code for block in choice for code in block])
    return np.array(rows, dtype=np.int8)


class TestCombinePvalue:
    """The p-value of one group of ``randomization_batch``."""

    def test_add_one_count(self):
        assert _pvalue(2.0, np.array([1.0, -3.0, 2.0, 0.5])) == 3 / 5
        assert _pvalue(0.0, np.array([1.0, -1.0])) == 1.0

    def test_rounding_ties_count(self):
        # a mirrored draw's |t| may round a few ulps below the observed one
        assert _pvalue(1.0, np.array([-(1.0 - 1e-14), 0.5])) == 2 / 3
        assert _pvalue(1.0, np.array([1.0 - 1e-6, 0.5])) == 1 / 3

    def test_never_below_one_over_draws_plus_one(self):
        assert _pvalue(50.0, np.zeros(99)) == 1 / 100


class TestExhaustiveNull:
    def test_pvalue_matches_hand_enumeration(self):
        y = np.array([0.3, 1.7, -0.4, 2.2, 0.9, -1.1])
        strata = np.zeros(6, dtype=np.int8)
        nulls = _all_assignments(3)
        observed = nulls[5]

        t_obs = two_sample_t(y[observed == 0], y[observed == 1])
        count = sum(
            abs(two_sample_t(y[row == 0], y[row == 1])) >= abs(t_obs)
            for row in nulls
        )
        want = (1 + count) / (1 + len(nulls))

        res = randomization_pvalue(y, observed, strata, nulls, n_arms=2)
        assert abs(res.statistic - t_obs) < 1e-10
        assert res.p_value == want
        assert res.draws_used == len(nulls)
        assert not res.flagged

    def test_null_statistics_agree_with_two_sample_t(self):
        y = np.array([0.3, 1.7, -0.4, 2.2, 0.9, -1.1])
        strata = np.zeros(6, dtype=np.int8)
        nulls = _all_assignments(3)
        stats, valid = _tstats(y, strata, nulls, n_arms=2)
        assert valid.all()
        for row, got in zip(nulls, stats):
            assert abs(got - two_sample_t(y[row == 0], y[row == 1])) < 1e-10


class TestSampledDraws:
    def test_draws_reproduce_seeded_batch_path(self):
        design = TrialDesign(
            n_patients=12,
            strata_probs=(0.5, 0.5),
            allocation=AllocationRatio((1, 1)),
            block_size=2,
        )
        rng = _rng(51)
        reported = (rng.random(12) >= 0.5).astype(np.int8)
        analysis = (rng.random(12) >= 0.5).astype(np.int8)  # deliberately different
        y = rng.standard_normal(12)
        treatments = batch_block_assignments(design, reported, 1, rng)[0]

        draws = batch_block_assignments(design, reported, 150, _rng(77))
        res = randomization_pvalue(y, treatments, analysis, draws, n_arms=2)
        stats, valid = _tstats(y, analysis, draws, n_arms=2)
        obs_stats, obs_valid = _tstats(
            y, analysis, treatments[None, :], n_arms=2
        )
        assert obs_valid[0]
        want = _pvalue(obs_stats[0], stats[valid])
        assert res.p_value == want
        assert res.draws_requested == 150

    def test_super_uniform_under_sharp_null(self):
        check_rb_superuniformity()


class TestDegenerateDraws:
    def test_discards_counted_and_flagged(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 2.5, 3.5])
        strata = np.zeros(6, dtype=np.int8)
        good = np.array([0, 1, 2, 0, 1, 2], dtype=np.int8)
        bad = np.array([0, 2, 2, 0, 2, 2], dtype=np.int8)  # arm 1 missing
        nulls = np.vstack([np.tile(good, (80, 1)), np.tile(bad, (20, 1))])
        res = randomization_pvalue(y, good, strata, nulls, n_arms=3)
        assert res.draws_requested == 100
        assert res.draws_used == 80
        assert res.discarded == 20
        assert res.flagged  # 20% > the 1% share
        assert FLAG_DISCARD_SHARE == 0.01

    def test_all_degenerate_gives_one_and_flags(self):
        # the add-one p-value over no usable draws, not an error
        y = np.array([1.0, 2.0, 3.0, 4.0, 2.5, 3.5])
        strata = np.zeros(6, dtype=np.int8)
        good = np.array([0, 1, 2, 0, 1, 2], dtype=np.int8)
        bad = np.tile([0, 2, 2, 0, 2, 2], (5, 1)).astype(np.int8)
        res = randomization_pvalue(y, good, strata, bad, n_arms=3)
        assert (res.p_value, res.draws_requested, res.draws_used) == (1.0, 5, 0)
        assert res.discarded == 5 and res.flagged

    def test_result_over_no_usable_draws(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 2.5, 3.5])
        strata = np.zeros(6, dtype=np.int8)
        good = np.array([0, 1, 2, 0, 1, 2], dtype=np.int8)
        bad = np.tile([0, 2, 2, 0, 2, 2], (3, 1)).astype(np.int8)
        stats, _ = _tstats(y, strata, good[None], 3)
        res = randomization_pvalue(y, good, strata, bad, n_arms=3)
        assert res == RandTestResult(statistic=float(stats[0]), p_value=1.0, draws_requested=3,
                                     draws_used=0, discarded=3, flagged=True)
        with pytest.raises(DegenerateDesignError, match="observed"):
            randomization_pvalue(y, bad[0], strata, np.tile(good, (3, 1)), n_arms=3)

    def test_batch_matches_one_group_results(self):
        rng = _rng(53)
        stats = rng.standard_normal((6, 41))
        valid = rng.random((6, 41)) > 0.2
        valid[:, 0] = True
        valid[4, 1:] = False
        p_value, discarded, flagged = randomization_batch(stats, valid)
        for g in range(6):
            one = randomization_batch(stats[g:g + 1], valid[g:g + 1])
            assert tuple(a[0] for a in one) == (p_value[g], discarded[g], flagged[g])
        assert p_value[4] == 1.0 and discarded[4] == 40 and flagged[4]

    def test_empty_null_set_raises(self):
        y = np.array([0.3, 1.7, -0.4, 2.2, 0.9, -1.1])
        strata = np.zeros(6, dtype=np.int8)
        empty = np.empty((0, 6), dtype=np.int8)
        with pytest.raises(ConfigurationError, match="null_assignments"):
            randomization_pvalue(y, np.array([0, 1, 0, 1, 0, 1]), strata, empty, n_arms=2)


class TestRandomBlockSizes:
    def test_random_lengths_use_batch_sampler(self):
        design = TrialDesign(
            n_patients=12,
            strata_probs=(1.0, 0.0),
            allocation=AllocationRatio((1, 1)),
            block_size=2,
            block_sizes=(2, 4),
        )
        rng = _rng(52)
        strata = np.zeros(12, dtype=np.int8)
        y = rng.standard_normal(12)
        treatments = batch_block_assignments(design, strata, 1, rng)[0]

        draws = batch_block_assignments(design, strata, 60, _rng(78))
        res = randomization_pvalue(y, treatments, strata, draws, n_arms=2)
        stats, valid = _tstats(
            y, strata, np.vstack([treatments, draws]), n_arms=2
        )
        assert 0.0 < res.p_value <= 1.0
        assert res.p_value == _pvalue(stats[0], stats[1:][valid[1:]])
        assert res.draws_requested == 60
