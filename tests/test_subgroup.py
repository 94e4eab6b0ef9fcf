"""Subgroup treated-proportion variance: exact hypergeometric moments,
the partial-block tau term, and the unconditional bound."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from stratasim.errors import ConfigurationError
from stratasim.randomizer import AllocationRatio, block_pattern
from stratasim.subgroup import (
    SubgroupCounts,
    conditional_moments,
    tau_permuted_block,
    unconditional_variance,
)
from oracles import (
    partial_block_count_var,
    subgroup_moments_exact,
    subgroup_proportion_draws,
)


class TestConditionalMoments:
    def test_matches_exact_enumeration_everywhere(self):
        # every admissible (n, k, r) with n <= 20, rational pmf oracle
        for n in range(1, 21):
            for k in range(0, n + 1):
                for r in range(1, n + 1):
                    mean, var = conditional_moments(SubgroupCounts(n, k, r))
                    exact_mean, exact_var = subgroup_moments_exact(n, k, r)
                    assert abs(mean - float(exact_mean)) < 1e-12, (n, k, r)
                    assert abs(var - float(exact_var)) < 1e-12, (n, k, r)

    def test_degenerate_cases_have_zero_variance(self):
        assert conditional_moments(SubgroupCounts(12, 5, 12)) == (5 / 12, 0.0)
        assert conditional_moments(SubgroupCounts(1, 1, 1)) == (1.0, 0.0)
        assert conditional_moments(SubgroupCounts(9, 0, 4)) == (0.0, 0.0)
        assert conditional_moments(SubgroupCounts(9, 9, 4)) == (1.0, 0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="stratum"):
            SubgroupCounts(0, 0, 1)
        with pytest.raises(ConfigurationError, match="treated"):
            SubgroupCounts(5, 6, 2)
        with pytest.raises(ConfigurationError, match="treated"):
            SubgroupCounts(5, -1, 2)
        with pytest.raises(ConfigurationError, match="subgroup"):
            SubgroupCounts(5, 2, 0)
        with pytest.raises(ConfigurationError, match="subgroup"):
            SubgroupCounts(5, 2, 6)


PATTERNS = [
    (block_pattern(AllocationRatio((1, 1)), 4), 4),
    (block_pattern(AllocationRatio((1, 2, 2)), 10), 10),
]
ARM_SETS = [(1,), (1, 2), (2,)]


class TestTauPermutedBlock:
    def test_matches_partial_block_enumeration(self):
        for pattern, block in PATTERNS:
            for arms in ARM_SETS:
                if max(arms) >= len(set(int(c) for c in pattern)):
                    continue
                for size in range(1, 61):
                    tau = tau_permuted_block(size, pattern, arms)
                    remainder = size % block
                    if remainder == 0:
                        assert tau == 0.0, (block, arms, size)
                        continue
                    exact = partial_block_count_var(pattern, arms, remainder)
                    assert abs(tau - float(exact) / size) < 1e-12, (block, arms, size)

    def test_complete_blocks_are_deterministic(self):
        pattern = block_pattern(AllocationRatio((1, 2, 2)), 10)
        for size in (10, 30, 500):
            assert tau_permuted_block(size, pattern) == 0.0

    def test_single_code_blocks_never_vary(self):
        assert tau_permuted_block(7, [1], (1,)) == 0.0

    def test_bounded_by_binomial_share_variance(self):
        pattern = block_pattern(AllocationRatio((1, 2, 2)), 10)
        for arms in ARM_SETS:
            share = sum(1 for c in pattern if int(c) in arms) / len(pattern)
            for size in range(1, 61):
                assert tau_permuted_block(size, pattern, arms) <= share * (1 - share) + 1e-15

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="stratum"):
            tau_permuted_block(0, [0, 1])
        with pytest.raises(ConfigurationError, match="pattern"):
            tau_permuted_block(5, [])


class TestUnconditionalVariance:
    def test_never_exceeds_binomial_benchmark(self):
        # blocking tightens the variance whenever tau <= pi (1 - pi)
        for pi in (0.1, 0.4, 0.5, 0.8):
            base = pi * (1.0 - pi)
            for tau in (0.0, 0.25 * base, base):
                got = unconditional_variance(pi, tau, 60, 497)
                assert got <= base / 60 + 1e-15

    def test_whole_stratum_subgroup_recovers_tau(self):
        # N_Rj = N_j collapses the formula to var(pi_hat_j) = tau / N_j
        assert unconditional_variance(0.4, 0.0011, 497, 497) == pytest.approx(
            0.0011 / 497, abs=1e-15
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="pi"):
            unconditional_variance(1.2, 0.0, 10, 20)
        with pytest.raises(ConfigurationError, match="tau"):
            unconditional_variance(0.4, -0.01, 10, 20)
        with pytest.raises(ConfigurationError, match="subgroup"):
            unconditional_variance(0.4, 0.0, 30, 20)
        with pytest.raises(ConfigurationError, match="subgroup"):
            unconditional_variance(0.4, 0.0, 0, 20)


@pytest.mark.parametrize("call,args,field", [
    (SubgroupCounts, (10.5, 3, 4), "n_stratum"),
    (SubgroupCounts, (True, True, True), "n_stratum"),
    (SubgroupCounts, ("10", 3, 4), "n_stratum"),
    (SubgroupCounts, (10, 3.5, 4), "n_treated"),
    (SubgroupCounts, (10, 3, "4"), "n_subgroup"),
    (tau_permuted_block, (12.5, [0, 1, 1, 0]), "stratum_size"),
    (tau_permuted_block, (12, [0, 1, 1, 0], ("1",)), "treated_arms[0]"),
    (tau_permuted_block, (12, [0, 1, 1, 0], (1.5,)), "treated_arms[0]"),
    (tau_permuted_block, (7, [0, 1.5, 2], (1,)), "pattern[1]"),
    (unconditional_variance, (0.4, 0.0, 10.5, 20), "n_subgroup"),
    (unconditional_variance, (0.4, 0.0, 10, False), "n_stratum"),
], ids=lambda value: getattr(value, "__name__", None))
def test_counts_must_be_integers(call, args, field):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(field)} must be an integer"):
        call(*args)


@pytest.mark.parametrize("args,message", [
    (("0.5", 0.1, 5, 10), "pi must be a number"),
    ((0.5, None, 5, 10), "tau must be a number"),
    ((True, 0.1, 5, 10), "pi must be a number"),
    ((0.4, math.nan, 10, 20), "tau must be finite"),
    ((0.4, math.inf, 10, 20), "tau must be finite"),
])
def test_proportions_must_be_numbers(args, message):
    with pytest.raises(ConfigurationError, match=f"^{message}"):
        unconditional_variance(*args)


def test_integral_floats_are_read_as_integers():
    counts = SubgroupCounts(10.0, 3.0, np.int64(4))
    assert [type(n) for n in (counts.n_stratum, counts.n_treated, counts.n_subgroup)] == [int] * 3
    assert conditional_moments(counts) == conditional_moments(SubgroupCounts(10, 3, 4))


class TestSimulatedConcordance:
    def test_variance_formula_matches_randomized_draws(self):
        # stratum size 497 leaves a length-7 partial block, so tau > 0
        size, block, alloc, n_sub, arm = 497, 10, (1, 2, 2), 60, 1
        n_draws = 100_000
        draws = subgroup_proportion_draws(size, block, alloc, n_sub, arm, n_draws, seed=31)
        pattern = block_pattern(AllocationRatio(alloc), block)
        tau = tau_permuted_block(size, pattern, (arm,))
        predicted = unconditional_variance(0.4, tau, n_sub, size)

        sample_var = draws.var()
        centered = draws - draws.mean()
        fourth = (centered**4).mean()
        var_se = math.sqrt((fourth - sample_var**2) / n_draws)
        assert abs(draws.mean() - 0.4) < 4.5 * draws.std() / math.sqrt(n_draws)
        assert abs(sample_var - predicted) < 3.0 * var_se
