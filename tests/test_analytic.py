"""Truncated-normal algebra, reported-strata mixture moments, expected
standard errors, and exact t-test power."""

from __future__ import annotations

import inspect
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.stats import nct, norm, truncnorm

import stratasim
from stratasim.analytic import (
    cell_table,
    expected_se,
    noncentral_t_power,
    pooled_residual_sd,
    reported_strata_mixture,
    truncnorm_moments,
)
from stratasim.cohort import OutcomeModel
from stratasim.errors import ConfigurationError
from stratasim.inference import t_interval
from stratasim.misclassify import HIGH, KINDS, LOW, MisclassModel, flip_interval
from stratasim.randomizer import AllocationRatio, TrialDesign, paper_design
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

    @pytest.mark.parametrize("mu,sigma", itertools.product((-1.0, 0.0, 1.5), (0.7, 1.0, 2.0)))
    def test_matches_scipy_stats_truncnorm(self, mu, sigma):
        for lower, upper in itertools.product((-math.inf, -2.0, -0.5, 1.0),
                                              (-0.25, 1.5, 4.0, math.inf)):
            if not lower < upper:
                continue
            got = truncnorm_moments(mu, sigma, lower, upper)
            a, b = (lower - mu) / sigma, (upper - mu) / sigma
            mean, var = truncnorm.stats(a, b, loc=mu, scale=sigma, moments="mv")
            assert got.mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
            # the closed form subtracts close terms in the variance
            assert got.var == pytest.approx(var, rel=1e-10)
            assert got.prob == pytest.approx(norm.cdf(b) - norm.cdf(a), rel=1e-12)

    @pytest.mark.parametrize("a", (4.0, 5.0, 6.0, 6.5, 7.0))
    @pytest.mark.parametrize("mu,sigma", ((0.0, 1.0), (1.5, 2.0)))
    def test_far_upper_tail_matches_scipy_stats_truncnorm(self, a, mu, sigma):
        # the mass of a far upper tail is taken from that tail, not as a
        # difference of two CDF values near 1
        lower = mu + sigma * a
        got = truncnorm_moments(mu, sigma, lower)
        a = (lower - mu) / sigma
        mean, var = truncnorm.stats(a, math.inf, loc=mu, scale=sigma, moments="mv")
        assert got.mean == pytest.approx(mean, rel=1e-10)
        assert got.var == pytest.approx(var, rel=1e-10)
        assert got.prob == pytest.approx(norm.sf(a), rel=1e-10)

    @pytest.mark.parametrize("mu,sigma", ((0.0, 1.0), (1.5, 2.0)))
    def test_one_sided_tails_match_mpmath(self, mu, sigma):
        # both tails, bounds 0 to 7.03 sd (past that the mass is below
        # 1e-12 and rejected): the variance subtracts no close terms
        mpmath.mp.dps = 50
        for a in [*np.arange(0.0, 7.01, 0.125), 7.03]:
            for lower, upper in ((mu + sigma * a, math.inf), (-math.inf, mu - sigma * a)):
                got = truncnorm_moments(mu, sigma, lower, upper)
                # the standardized bound as an upper tail, exactly as rounded
                bound = (mpmath.mpf(lower) - mu if upper == math.inf
                         else mu - mpmath.mpf(upper)) / sigma
                lam = mpmath.npdf(bound) / mpmath.ncdf(-bound)
                var = sigma * sigma * (1 + bound * lam - lam * lam)
                mean = mu + sigma * lam if upper == math.inf else mu - sigma * lam
                assert float(abs(got.var / var - 1)) < 1e-14, (a, lower, upper)
                assert float(abs(got.mean / mean - 1)) < 1e-14, (a, lower, upper)

    def test_truncation_shrinks_variance(self):
        got = truncnorm_moments(0.0, 1.0, -1.5, 1.5)
        assert got.var < 1.0

    @pytest.mark.parametrize("args,match", [
        ((0.0, 0.0, -1.0, 1.0), "^sigma must be positive"),
        ((0.0, 1.0, 1.0, 1.0), "interval"),
        ((0.0, 1.0, 2.0, -2.0), "interval"),
        ((0.0, 1.0, 40.0, 41.0), "mass"),
        # an upper tail past about 7.03 sigma carries less than 1e-12
        ((0.0, 1.0, 7.1), "mass"),
        ((math.nan, 1.0, -1.0, 1.0), "^mu must be finite"),
        ((0.0, math.nan, -1.0, 1.0), "^sigma must be finite"),
    ])
    def test_validation(self, args, match):
        with pytest.raises(ConfigurationError, match=match):
            truncnorm_moments(*args)


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

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_cells_reduce_the_cell_table(self, kind):
        model, outcome = MisclassModel(kind, *HIGH_RATES), OutcomeModel(rho=0.5, delta=0.5)
        weight, mean, var = cell_table(model, outcome)
        assert weight == pytest.approx(np.array([[0.4 * 0.85, 0.4 * 0.15],
                                                 [0.6 * 0.30, 0.6 * 0.70]]), abs=1e-15)
        summary = reported_strata_mixture(model, outcome)
        for reported, arm in itertools.product((LOW, HIGH), (0, 1)):
            w = weight[:, reported] / weight[:, reported].sum()
            m, v = mean[:, reported, arm], var[:, reported, arm]
            cell = summary.cell(reported, arm)
            assert isinstance(cell.mean, float) and isinstance(cell.sd, float)
            assert cell.mean == pytest.approx(w @ m, abs=1e-12)
            assert cell.sd**2 == pytest.approx(w @ (v + m * m) - (w @ m) ** 2, abs=1e-12)
        assert summary.weights == pytest.approx(tuple(weight.sum(axis=0)), abs=1e-15)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_zero_rate_cell_has_no_moments(self, kind):
        # no lower-stratum patient is reported upper, so that cell has no
        # law, and reported stratum 1 is the upper stratum's kept cell
        model, outcome = MisclassModel(kind, 0.0, 0.30), OutcomeModel(rho=0.5, delta=0.5)
        weight, mean, var = cell_table(model, outcome)
        assert weight[LOW, HIGH] == 0.0
        assert np.isnan(mean[LOW, HIGH]).all() and np.isnan(var[LOW, HIGH]).all()
        assert not np.isnan(mean[[LOW, HIGH, HIGH], [LOW, LOW, HIGH]]).any()
        summary = reported_strata_mixture(model, outcome)
        for arm in (0, 1):
            cell = summary.cell(HIGH, arm)
            assert cell.mean == pytest.approx(mean[HIGH, HIGH, arm], abs=1e-12)
            assert cell.sd == pytest.approx(math.sqrt(var[HIGH, HIGH, arm]), abs=1e-12)

    def test_small_upper_tail_rate_keeps_its_mass(self):
        # 1 - 1e-12 rounds, so the cut must come from ndtri(rate): one at
        # ndtri(1 - rate) lies 3.1e-6 further out, where the tail holds
        # less than 1e-12
        model = MisclassModel("nonignorable1", 1e-12, 1e-12)
        cut = 7.034483825301131  # -ndtri(1e-12)
        assert flip_interval(model, OutcomeModel(), LOW) == (cut, math.inf)
        assert norm.sf(cut) >= 1e-12
        design = replace(paper_design(), strata_probs=(1.0, 0.0))
        summary = reported_strata_mixture(model, OutcomeModel(), design)
        assert summary.weights[HIGH] == pytest.approx(1e-12, rel=1e-9)
        assert summary.cell(HIGH, 0).mean > cut

    def test_validation(self):
        outcome = OutcomeModel(rho=1.0, delta=0.5)
        model = MisclassModel("ignorable", 0.0, 0.3)
        with pytest.raises(ConfigurationError, match="two strata"):
            reported_strata_mixture(
                model, outcome, replace(paper_design(), strata_probs=(0.2, 0.3, 0.5)))
        with pytest.raises(ConfigurationError, match="weight"):
            reported_strata_mixture(
                model, outcome, replace(paper_design(), strata_probs=(1.0, 0.0)))

    @pytest.mark.parametrize("probs", [(0.5, 0.6), (-0.2, 1.2), ("a", "b"), (math.nan, 0.5)])
    def test_strata_mix_is_checked_as_a_design(self, probs):
        # a mix reaches the closed forms only inside a design, whose checks
        # reject it; as a bare tuple (0.5, 0.6) gave weights summing to 1.1
        with pytest.raises(ConfigurationError, match="^strata_probs"):
            reported_strata_mixture(MisclassModel("ignorable", *HIGH_RATES), OutcomeModel(),
                                    replace(paper_design(), strata_probs=probs))

    def test_three_strata_are_named_by_strata_probs(self):
        # the message ScenarioConfig gives the same design
        with pytest.raises(ConfigurationError,
                           match=r"^strata_probs must list exactly two strata, got 3$"):
            reported_strata_mixture(MisclassModel("ignorable", *HIGH_RATES), OutcomeModel(),
                                    replace(paper_design(), strata_probs=(0.2, 0.3, 0.5)))

    @pytest.mark.parametrize("call", [
        lambda design: reported_strata_mixture(
            MisclassModel("nonignorable1", *HIGH_RATES), OutcomeModel(), design),
        lambda design: cell_table(MisclassModel("ignorable", *HIGH_RATES), OutcomeModel(),
                                  design),
        expected_se,
    ], ids=["reported_strata_mixture", "cell_table", "expected_se"])
    def test_a_bare_strata_mix_is_named_as_the_design(self, call):
        # the call shape of the old strata_probs parameter raised AttributeError
        with pytest.raises(ConfigurationError, match=r"^design must be a TrialDesign, got \(0\.4"):
            call((0.4, 0.6))

    @pytest.mark.parametrize("exponent", [400, -400])
    @pytest.mark.parametrize("rho", [1.0, 0.5])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_cells_scale_exactly_at_the_sigma_range_edges(self, kind, rho, exponent):
        # a power-of-two scale is exact, so the edges of OutcomeModel's sigma
        # range give the unit-scale cells times sigma, bit for bit
        sigma, model = 2.0**exponent, MisclassModel(kind, *HIGH_RATES)
        unit = reported_strata_mixture(model, OutcomeModel(rho=rho, delta=0.5))
        scaled = reported_strata_mixture(model, OutcomeModel(
            rho=rho, delta=sigma / 2, strata_means=(0.0, sigma), sigma=sigma))
        assert scaled.weights == unit.weights
        for key, cell in unit.cells.items():
            assert (scaled.cell(*key).mean, scaled.cell(*key).sd) == (sigma * cell.mean,
                                                                      sigma * cell.sd)
        assert pooled_residual_sd(scaled) == sigma * pooled_residual_sd(unit)

    def test_closed_forms_take_no_loose_tuples(self):
        for closed_form in (cell_table, reported_strata_mixture, pooled_residual_sd):
            params = set(inspect.signature(closed_form).parameters)
            assert not params & {"strata_probs", "allocation_shares"}, closed_form


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
        # arm 1's 20 patients, not arm 2's 40
        assert expected_se(design) == pytest.approx(math.sqrt(1.0 / 20 + 1.0 / 20), abs=1e-15)

    @pytest.mark.parametrize("sigma,match", [
        (0.0, "^sigma must be positive"),
        (-1.0, "^sigma must be positive"),
        (math.nan, "^sigma must be finite"),
    ])
    def test_validation(self, sigma, match):
        with pytest.raises(ConfigurationError, match=match):
            expected_se(_design(), sigma)


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
        assert pooled_residual_sd(summary) == pytest.approx(
            math.sqrt(total), abs=1e-12
        )

    def test_pools_over_the_summarized_design(self):
        # the shares are the summary's own design's: 1:1:2 gives 1/4, 1/4, 1/2
        model, outcome = MisclassModel("nonignorable1", *HIGH_RATES), OutcomeModel(rho=0.5)
        summary = reported_strata_mixture(model, outcome, _design(weights=(1, 1, 2), block=4))
        total = sum(
            w * share * summary.cell(reported, min(arm, 1)).sd ** 2
            for reported, w in zip((LOW, HIGH), summary.weights)
            for arm, share in enumerate((0.25, 0.25, 0.5))
        )
        assert pooled_residual_sd(summary) == pytest.approx(math.sqrt(total), abs=1e-12)
        assert pooled_residual_sd(summary) != pooled_residual_sd(reported_strata_mixture(
            model, outcome))

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

    @pytest.mark.parametrize("df", [1, 4, 30, 76])
    def test_matches_scipy_stats_nct(self, df):
        for effect, se, alpha in itertools.product((-1.2, 0.0, 0.3, 0.5, 2.0),
                                                   (0.1, 0.306, 1.0), (0.01, 0.05, 0.2)):
            crit, ncp = float(t_interval(0.0, 1.0, df, alpha)[1]), -abs(effect / se)
            expected = nct.sf(crit, df, ncp) + nct.cdf(-crit, df, ncp)
            assert noncentral_t_power(effect, se, df, alpha) == pytest.approx(expected, rel=1e-12)
            # at a positive noncentrality scipy.stats can give NaN, as at
            # (df 1, effect 1.2, se 0.1); where it does not, both signs agree
            ncp = effect / se
            direct = nct.sf(crit, df, ncp) + nct.cdf(-crit, df, ncp)
            if not math.isnan(direct):
                assert direct == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("df", [1, 2, 5])
    def test_even_in_effect_and_finite_at_large_noncentrality(self, df):
        # scipy's nctdtr gives NaN at (df 1, ncp 12, x -12.7) and at
        # (df 1, ncp -12, x 12.7); power at either sign must not
        for effect in (1.2, 2.0, 4.0):
            power = noncentral_t_power(effect, 0.1, df)
            assert noncentral_t_power(-effect, 0.1, df) == power
            assert 0.05 < power <= 1.0

    @pytest.mark.parametrize("args,match", [
        ((0.5, 0.0, 76), "^se must be positive"),
        ((0.5, 0.3, 0), "^df must be >= 1"),
        ((math.nan, 0.3, 76), "^effect must be finite"),
        ((0.5, math.nan, 76), "^se must be finite"),
    ])
    def test_validation(self, args, match):
        with pytest.raises(ConfigurationError, match=match):
            noncentral_t_power(*args)

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, -0.1, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ConfigurationError, match="alpha"):
            noncentral_t_power(0.5, 0.306, 76, alpha=alpha)


def test_library_import_leaves_out_scipy_stats():
    # the library takes its distribution functions from scipy.special; the
    # scipy.stats import alone more than doubles the modules a run loads
    code = ("import sys, stratasim, stratasim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))")
    src = str(Path(stratasim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
