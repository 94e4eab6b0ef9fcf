"""Truncated-normal algebra, reported-strata mixture moments, expected
standard errors, and exact t-test power."""

from __future__ import annotations

import math

import pytest
from scipy.stats import norm

from stratasim.analytic import (
    expected_se,
    noncentral_t_power,
    pooled_residual_sd,
    reported_strata_mixture,
    truncnorm_moments,
)
from stratasim.cohort import OutcomeModel
from stratasim.errors import ConfigurationError
from stratasim.misclassify import HIGH, KINDS, LOW, MisclassModel
from stratasim.randomizer import AllocationRatio, TrialDesign
from oracles import (
    mixture_moments_sim,
    noncentral_t_power_sim,
    truncnorm_moments_quad,
)

HIGH_RATES = (0.15, 0.30)
T_CRIT_76 = 1.9916726096446642  # pinned against quadrature in test_inference


def _design(n=80, weights=(1, 2, 2), block=10):
    return TrialDesign(
        n_patients=n,
        strata_probs=(0.4, 0.6),
        allocation=AllocationRatio(weights),
        block_size=block,
    )


def _summary(kind, rho=1.0, rates=HIGH_RATES, delta=0.5):
    return reported_strata_mixture(
        MisclassModel(kind, *rates), OutcomeModel(rho=rho, delta=delta)
    )


class TestTruncnormMoments:
    CASES = [
        (0.0, 1.0, -1.0, 2.0),
        (1.5, 0.7, 0.2, math.inf),
        (-2.0, 3.0, -math.inf, 0.5),
        (0.0, 1.0, 1.2816, math.inf),
        (1.0, 1.0, -math.inf, -0.3),
        (0.5, 2.0, 0.5, 0.6),
    ]

    @pytest.mark.parametrize("mu,sigma,lower,upper", CASES)
    def test_matches_quadrature(self, mu, sigma, lower, upper):
        got = truncnorm_moments(mu, sigma, lower, upper)
        mean, var, prob = truncnorm_moments_quad(mu, sigma, lower, upper)
        assert got.mean == pytest.approx(mean, abs=1e-9)
        assert got.var == pytest.approx(var, abs=1e-9)
        assert got.prob == pytest.approx(prob, abs=1e-9)

    def test_whole_line_is_identity(self):
        got = truncnorm_moments(0.7, 1.3)
        assert got.mean == pytest.approx(0.7, abs=1e-12)
        assert got.var == pytest.approx(1.3**2, abs=1e-12)
        assert got.prob == pytest.approx(1.0, abs=1e-12)

    def test_tail_mass_is_exact(self):
        # quantile cutoffs must carry their nominal mass exactly
        upper_tail = truncnorm_moments(0.0, 1.0, lower=norm.ppf(1.0 - 0.3))
        lower_tail = truncnorm_moments(1.5, 2.0, upper=1.5 + 2.0 * norm.ppf(0.15))
        assert upper_tail.prob == pytest.approx(0.3, abs=1e-12)
        assert lower_tail.prob == pytest.approx(0.15, abs=1e-12)

    def test_truncation_shrinks_variance(self):
        got = truncnorm_moments(0.0, 1.0, -1.5, 1.5)
        assert got.var < 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="sigma"):
            truncnorm_moments(0.0, 0.0, -1.0, 1.0)
        with pytest.raises(ConfigurationError, match="interval"):
            truncnorm_moments(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError, match="interval"):
            truncnorm_moments(0.0, 1.0, 2.0, -2.0)
        with pytest.raises(ConfigurationError, match="mass"):
            truncnorm_moments(0.0, 1.0, 40.0, 41.0)


class TestMixtureCells:
    def test_weights_shared_across_kinds(self):
        for kind in sorted(KINDS):
            weights = _summary(kind).weights
            assert weights[0] == pytest.approx(0.52, abs=1e-15)
            assert weights[1] == pytest.approx(0.48, abs=1e-15)

    def test_weights_follow_rates(self):
        weights = _summary("ignorable", rates=(0.02, 0.02)).weights
        assert weights[0] == pytest.approx(0.4 * 0.98 + 0.6 * 0.02, abs=1e-15)
        assert weights[1] == pytest.approx(0.6 * 0.98 + 0.4 * 0.02, abs=1e-15)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_zero_rates_recover_pure_strata(self, kind):
        outcome = OutcomeModel(rho=0.5, delta=0.5)
        summary = reported_strata_mixture(MisclassModel(kind, 0.0, 0.0), outcome)
        assert summary.weights == pytest.approx((0.4, 0.6), abs=1e-15)
        for reported in (LOW, HIGH):
            for arm in (0, 1):
                cell = summary.cell(reported, arm)
                assert cell.mean == pytest.approx(outcome.mean(reported, arm), abs=1e-12)
                assert cell.sd == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_additive_shift_at_rho_one(self, kind):
        # rho = 1 makes y1 - y0 constant, so cell moments shift by delta
        summary = _summary(kind, rho=1.0)
        for reported in (LOW, HIGH):
            active = summary.cell(reported, 1)
            control = summary.cell(reported, 0)
            assert active.mean - control.mean == pytest.approx(0.5, abs=1e-9)
            assert active.sd == pytest.approx(control.sd, abs=1e-9)

    def test_ignorable_cells_mix_unconditioned_strata(self):
        # random flips leave each component at its marginal N(mu, 1)
        summary = _summary("ignorable", rho=0.5)
        kept, flipped = 0.4 * 0.85, 0.6 * 0.30
        total = kept + flipped
        mean = flipped * 1.0 / total
        second = (kept * 1.0 + flipped * (1.0 + 1.0)) / total
        cell = summary.cell(LOW, 0)
        assert cell.mean == pytest.approx(mean, abs=1e-12)
        assert cell.sd == pytest.approx(math.sqrt(second - mean * mean), abs=1e-12)

    def test_component_bookkeeping(self):
        cell = _summary("nonignorable1", rho=0.5).cell(LOW, 1)
        assert [c.origin for c in cell.components] == [LOW, HIGH]
        assert sum(c.weight for c in cell.components) == pytest.approx(1.0, abs=1e-12)
        mean = sum(c.weight * c.mean for c in cell.components)
        second = sum(c.weight * (c.var + c.mean**2) for c in cell.components)
        assert cell.mean == pytest.approx(mean, abs=1e-12)
        assert cell.sd**2 == pytest.approx(second - mean * mean, abs=1e-12)

    def test_validation(self):
        outcome = OutcomeModel(rho=1.0, delta=0.5)
        model = MisclassModel("ignorable", 0.0, 0.3)
        with pytest.raises(ConfigurationError, match="two strata"):
            reported_strata_mixture(model, outcome, strata_probs=(0.2, 0.3, 0.5))
        with pytest.raises(ConfigurationError, match="weight"):
            reported_strata_mixture(model, outcome, strata_probs=(1.0, 0.0))


class TestMixtureAgainstSimulation:
    def test_nonignorable2_rho_half_matches_brute_force(self):
        model = MisclassModel("nonignorable2", *HIGH_RATES)
        outcome = OutcomeModel(rho=0.5, delta=0.5)
        summary = reported_strata_mixture(model, outcome)
        cells, low_share = mixture_moments_sim(
            model, outcome, (0.4, 0.6), n_draws=1_000_000, seed=20240822
        )
        weight_se = math.sqrt(0.52 * 0.48 / 1_000_000)
        assert abs(summary.weights[0] - low_share) < 4.5 * weight_se
        for (reported, arm), (mean, sd, count, m4) in cells.items():
            cell = summary.cell(reported, arm)
            sd_se = math.sqrt(max(m4 - sd**4, 0.0) / count) / (2.0 * sd)
            assert abs(cell.mean - mean) < 4.5 * sd / math.sqrt(count)
            assert abs(cell.sd - sd) < 4.5 * sd_se


class TestExpectedSe:
    def test_matches_arm_count_formula(self):
        se = expected_se(_design())
        assert se == pytest.approx(math.sqrt(1.0 / 16 + 1.0 / 32), abs=1e-15)
        assert se == pytest.approx(0.30618621784789724, abs=1e-15)

    def test_scales_with_sigma_and_arm(self):
        design = _design(n=80, weights=(1, 1, 2), block=4)
        assert expected_se(design, sigma=2.0) == pytest.approx(
            2.0 * expected_se(design), abs=1e-15
        )
        assert expected_se(design, arm=1) == pytest.approx(
            math.sqrt(1.0 / 20 + 1.0 / 20), abs=1e-15
        )
        assert expected_se(design, arm=2) == pytest.approx(
            math.sqrt(1.0 / 20 + 1.0 / 40), abs=1e-15
        )

    @pytest.mark.parametrize("arm", [0, 3, 5, -1])
    def test_arm_outside_active_arms_rejected(self, arm):
        with pytest.raises(ConfigurationError, match=rf"arm must lie in 1\.\.2, got {arm}"):
            expected_se(_design(), arm=arm)


class TestPooledResidualSd:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_zero_rates_give_unit_scale(self, kind):
        summary = reported_strata_mixture(
            MisclassModel(kind, 0.0, 0.0), OutcomeModel(rho=1.0, delta=0.5)
        )
        assert pooled_residual_sd(summary) == pytest.approx(1.0, abs=1e-12)

    def test_matches_cell_reduction(self):
        summary = _summary("nonignorable1", rho=0.5)
        shares = (0.2, 0.4, 0.4)
        total = sum(
            w * share * summary.cell(reported, min(arm, 1)).sd ** 2
            for reported, w in zip((LOW, HIGH), summary.weights)
            for arm, share in enumerate(shares)
        )
        assert pooled_residual_sd(summary, shares) == pytest.approx(
            math.sqrt(total), abs=1e-12
        )

    def test_random_flips_inflate_scale(self):
        assert pooled_residual_sd(_summary("ignorable", rho=1.0)) > 1.0


class TestNoncentralTPower:
    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    def test_null_effect_gives_alpha(self, alpha):
        assert noncentral_t_power(0.0, 0.306, df=76, alpha=alpha) == pytest.approx(
            alpha, abs=1e-9
        )

    def test_monotone_in_effect_and_se(self):
        powers = [noncentral_t_power(e, 0.306, 76) for e in (0.2, 0.5, 0.8)]
        assert powers[0] < powers[1] < powers[2]
        assert noncentral_t_power(0.5, 0.33, 76) < noncentral_t_power(0.5, 0.21, 76)
        assert noncentral_t_power(0.5, 0.306, 76, alpha=0.01) < powers[1]

    @pytest.mark.parametrize(
        "se,seed", [(0.30618621784789724, 11), (0.331225, 12), (0.213414, 13)]
    )
    def test_matches_simulated_power(self, se, seed):
        n_draws = 2_000_000
        sim = noncentral_t_power_sim(0.5, se, 76, 0.05, T_CRIT_76, n_draws, seed)
        exact = noncentral_t_power(0.5, se, df=76)
        assert abs(exact - sim) < 4.0 * math.sqrt(sim * (1.0 - sim) / n_draws)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="positive"):
            noncentral_t_power(0.5, 0.0, 76)
        with pytest.raises(ConfigurationError, match="df"):
            noncentral_t_power(0.5, 0.3, 0)

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, -0.1, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ConfigurationError, match="alpha"):
            noncentral_t_power(0.5, 0.306, 76, alpha=alpha)
