"""Strata reporting error models: rates, tail selection, dispatch."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stratasim.cohort import Cohort, OutcomeModel, potential_outcomes
from stratasim.errors import ConfigurationError
from stratasim.misclassify import (
    KINDS,
    TRIGGER_ARM,
    MisclassModel,
    flip_interval,
    misclassify,
    reported_strata,
)
from oracles import nonignorable_reported
from properties import check_ignorable_conditional_independence


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _cohort(n=200_000, rho=1.0, seed=31, sigma=1.0, strata_means=(0.0, 1.0)):
    outcome = OutcomeModel(rho=rho, delta=0.5, sigma=sigma, strata_means=strata_means)
    rng = _rng(seed)
    strata = (rng.random(n) >= 0.4).astype(np.int8)
    pot = potential_outcomes(strata, outcome, rng.standard_normal((n, 4)))
    return Cohort(true_strata=strata, potentials=pot, outcome=outcome)


def _trigger(cohort):
    """Each patient's outcome under the trigger arm of its true stratum."""
    arms = np.take(TRIGGER_ARM, cohort.true_strata)[:, None]
    return np.take_along_axis(cohort.potentials, arms, axis=-1)[:, 0]


def _flip_rates(strata, reported):
    flipped = reported != strata
    return (
        float(flipped[strata == 0].mean()),
        float(flipped[strata == 1].mean()),
    )


class TestModelValidation:
    def test_kinds(self):
        assert set(KINDS) == {"ignorable", "nonignorable1", "nonignorable2"}
        with pytest.raises(ConfigurationError, match="kind"):
            MisclassModel("mixed", 0.1, 0.1)

    def test_rates_must_be_probabilities_below_one(self):
        with pytest.raises(ConfigurationError):
            MisclassModel("ignorable", -0.1, 0.1)
        with pytest.raises(ConfigurationError):
            MisclassModel("ignorable", 0.1, 1.0)


class TestZeroRates:
    @pytest.mark.parametrize("kind", KINDS)
    def test_no_flips_for_any_kind(self, kind):
        cohort = _cohort(n=5000)
        model = MisclassModel(kind, 0.0, 0.0)
        reported = reported_strata(cohort, model, _rng(1))
        assert (reported == cohort.true_strata).all()


class TestIgnorable:
    def test_flip_rates_match_nominal(self):
        cohort = _cohort()
        model = MisclassModel("ignorable", 0.15, 0.30)
        reported = reported_strata(cohort, model, _rng(32))
        low_rate, high_rate = _flip_rates(cohort.true_strata, reported)
        n_low = int((cohort.true_strata == 0).sum())
        n_high = cohort.n_patients - n_low
        assert abs(low_rate - 0.15) < 4.5 * math.sqrt(0.15 * 0.85 / n_low)
        assert abs(high_rate - 0.30) < 4.5 * math.sqrt(0.30 * 0.70 / n_high)

    def test_flips_carry_no_outcome_information(self):
        check_ignorable_conditional_independence()


class TestNonignorableSelection:
    def test_model1_rates_exact_in_expectation(self):
        cohort = _cohort(seed=33)
        reported = reported_strata(cohort, MisclassModel("nonignorable1", 0.15, 0.30))
        low_rate, high_rate = _flip_rates(cohort.true_strata, reported)
        n_low = int((cohort.true_strata == 0).sum())
        n_high = cohort.n_patients - n_low
        assert abs(low_rate - 0.15) < 4.5 * math.sqrt(0.15 * 0.85 / n_low)
        assert abs(high_rate - 0.30) < 4.5 * math.sqrt(0.30 * 0.70 / n_high)

    def test_model1_flips_are_the_extreme_tails(self):
        cohort = _cohort(n=50_000, seed=34)
        strata = cohort.true_strata
        reported = reported_strata(cohort, MisclassModel("nonignorable1", 0.15, 0.30))
        flipped = reported != strata
        y0_low = cohort.potentials[strata == 0, 0]
        f_low = flipped[strata == 0]
        # lower stratum: exactly the top tail of the control outcome moves up
        assert y0_low[f_low].min() > y0_low[~f_low].max()
        y1_high = cohort.potentials[strata == 1, 1]
        f_high = flipped[strata == 1]
        # upper stratum: exactly the bottom tail of the arm-1 outcome moves down
        assert y1_high[f_high].max() < y1_high[~f_high].min()

    def test_model2_flips_are_the_opposite_tails(self):
        cohort = _cohort(n=50_000, seed=35)
        strata = cohort.true_strata
        reported = reported_strata(cohort, MisclassModel("nonignorable2", 0.15, 0.30))
        flipped = reported != strata
        y0_low = cohort.potentials[strata == 0, 0]
        f_low = flipped[strata == 0]
        assert y0_low[f_low].max() < y0_low[~f_low].min()
        y1_high = cohort.potentials[strata == 1, 1]
        f_high = flipped[strata == 1]
        assert y1_high[f_high].min() > y1_high[~f_high].max()

    def test_cutoffs_scale_with_sigma_and_means(self):
        cohort = _cohort(n=100_000, seed=36, sigma=2.0)
        reported = reported_strata(cohort, MisclassModel("nonignorable2", 0.15, 0.30))
        low_rate, high_rate = _flip_rates(cohort.true_strata, reported)
        n_low = int((cohort.true_strata == 0).sum())
        n_high = cohort.n_patients - n_low
        assert abs(low_rate - 0.15) < 4.5 * math.sqrt(0.15 * 0.85 / n_low)
        assert abs(high_rate - 0.30) < 4.5 * math.sqrt(0.30 * 0.70 / n_high)


class TestSharedFlipRule:
    @pytest.mark.parametrize("kind", ["nonignorable1", "nonignorable2"])
    @pytest.mark.parametrize("rates", [(0.0, 0.0), (0.02, 0.02), (0.15, 0.30), (0.5, 0.0)])
    @pytest.mark.parametrize("sigma,means", [(1.0, (0.0, 1.0)), (2.0, (-0.3, 2.5))])
    def test_labels_bit_equal_to_quantile_oracle(self, kind, rates, sigma, means):
        cohort = _cohort(n=20_000, rho=0.5, seed=38, sigma=sigma, strata_means=means)
        model = MisclassModel(kind, *rates)
        reported = reported_strata(cohort, model)
        expected = nonignorable_reported(cohort, model)
        assert reported.dtype == expected.dtype
        assert np.array_equal(reported, expected)

    def test_ignorable_has_no_flip_interval(self):
        with pytest.raises(ConfigurationError, match="flip interval"):
            flip_interval(MisclassModel("ignorable", 0.1, 0.1), OutcomeModel(), 0)


class TestDispatch:
    def test_ignorable_requires_rng(self):
        cohort = _cohort(n=100)
        with pytest.raises(ConfigurationError, match="rng"):
            reported_strata(cohort, MisclassModel("ignorable", 0.1, 0.1))

    def test_nonignorable_is_deterministic_given_cohort(self):
        cohort = _cohort(n=2000, seed=37)
        model = MisclassModel("nonignorable1", 0.15, 0.30)
        a = reported_strata(cohort, model)
        b = reported_strata(cohort, model, _rng(99))
        assert (a == b).all()
        # all-zero uniforms would flip every patient under the ignorable rule
        c = misclassify(model, cohort.outcome, cohort.true_strata, _trigger(cohort),
                        np.zeros(cohort.n_patients))
        assert (a == c).all()

    def test_rejects_labels_outside_two_strata(self):
        cohort = _cohort(n=100)
        cohort.true_strata = cohort.true_strata.astype(np.int8) + 1
        with pytest.raises(ConfigurationError):
            reported_strata(cohort, MisclassModel("ignorable", 0.1, 0.1), _rng())

    def test_labels_must_be_stratum_codes(self):
        # a fractional label must not be flipped as if it were stratum 0
        model = MisclassModel("ignorable", 0.5, 0.5)
        pot, outcome = np.zeros((6, 3)), OutcomeModel()
        with pytest.raises(ConfigurationError, match=r"^stratum 0\.5 outside 0..1"):
            reported_strata(Cohort(np.full(6, 0.5), pot, outcome), model, _rng())
        strata = np.array([0, 1, 1, 0, 1, 0], dtype=np.int8)
        np.testing.assert_array_equal(
            reported_strata(Cohort(strata.astype(float), pot, outcome), model, _rng(5)),
            reported_strata(Cohort(strata, pot, outcome), model, _rng(5)))


@pytest.mark.parametrize("field,value", [
    ("gamma_low", "0.1"), ("gamma_high", None), ("gamma_low", False), ("gamma_high", [0.1]),
])
def test_non_number_rates_name_the_field(field, value):
    with pytest.raises(ConfigurationError, match=f"^{field} must be a number"):
        MisclassModel("ignorable", **{field: value})


@pytest.mark.parametrize("kind", KINDS)
def test_reported_strata_draws_exactly_its_width(kind):
    # one uniform per patient under the ignorable model, none otherwise:
    # two successive calls on one generator are rows 0 and 1 of one draw
    model, cohort = MisclassModel(kind, 0.15, 0.30), _cohort(n=50)
    rng = _rng(7)
    first, second = (reported_strata(cohort, model, rng) for _ in range(2))
    width = cohort.n_patients if kind == "ignorable" else 0
    uniforms = _rng(7).random(2 * width + 1)
    assert rng.random() == uniforms[-1]
    for got, row in zip((first, second), uniforms[:-1].reshape(2, width)):
        want = misclassify(model, cohort.outcome, cohort.true_strata,
                           None if width else _trigger(cohort), row if width else None)
        np.testing.assert_array_equal(got, want)
