"""Potential-outcome cohort generation."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from scipy.special import ndtri

from stratasim.cohort import (
    SIGMA_RANGE,
    Cohort,
    OutcomeModel,
    cohort_factors,
    cohort_width,
    drawn_outcomes,
    potential_outcomes,
    strata_labels,
)
from stratasim.errors import ConfigurationError
from stratasim.randomizer import AllocationRatio, TrialDesign
from properties import check_additivity_rho_one


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _drawn(design, model, uniforms):
    """True strata and every arm's drawn outcomes of the cohorts of ``(...,
    cohort_width(design))`` uniforms, one arm at a time."""
    strata, shared, noise = cohort_factors(design, model, uniforms)
    return strata, np.stack([drawn_outcomes(model, strata, arm, shared, noise)
                             for arm in range(design.allocation.n_arms)], axis=-1)


def _cohort(design, model, rng):
    """True strata and potential outcomes of one cohort, from exactly
    ``cohort_width(design)`` uniforms of ``rng``."""
    return _drawn(design, model, rng.random(cohort_width(design)))


def _design(n=2000):
    return TrialDesign(
        n_patients=n,
        strata_probs=(0.4, 0.6),
        allocation=AllocationRatio((1, 2, 2)),
        block_size=10,
    )


class TestOutcomeModel:
    def test_mean_table(self):
        model = OutcomeModel(rho=1.0, delta=0.5)
        assert model.mean(0, 0) == 0.0
        assert model.mean(1, 0) == 1.0
        assert model.mean(0, 1) == 0.5
        assert model.mean(0, 2) == 0.5
        assert model.mean(1, 2) == 1.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OutcomeModel(rho=-0.1)
        with pytest.raises(ConfigurationError):
            OutcomeModel(rho=1.5)
        with pytest.raises(ConfigurationError):
            OutcomeModel(sigma=0.0)
        with pytest.raises(ConfigurationError, match="^strata_means must be a list"):
            OutcomeModel(strata_means=1.0)

    @pytest.mark.parametrize("field,value", [
        ("delta", math.nan), ("delta", math.inf), ("sigma", math.nan),
        ("sigma", math.inf), ("strata_means", (0.0, math.nan)),
        ("strata_means", (-math.inf, 1.0)), ("delta", 10**400),
    ])
    def test_non_finite_values_name_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field}.* must be finite"):
            OutcomeModel(**{field: value})

    @pytest.mark.parametrize("sigma", [
        1e200, 1e-170, 0.0, -1.0, np.nextafter(2.0**400, np.inf), np.nextafter(2.0**-400, 0.0),
    ])
    def test_sigma_keeps_squares_in_the_float_range(self, sigma):
        # at 1e200 the kernel's sums of squares overflowed into NaN metrics,
        # and the closed forms raised a bare OverflowError; at 1e-170 every
        # replication's squares underflowed into a degenerate fit
        low, high = SIGMA_RANGE
        with pytest.raises(ConfigurationError,
                           match="^" + re.escape(f"sigma must lie in [{low:g}, {high:g}], got")):
            OutcomeModel(sigma=sigma)
        for edge in (2.0**400, 2.0**-400):
            assert OutcomeModel(delta=edge, strata_means=(0.0, edge), sigma=edge).sigma == edge

    def test_means_lie_within_2_to_the_40_sigma(self):
        edge = OutcomeModel(delta=-(2.0**40), strata_means=(0.0, 2.0**41), sigma=2.0)
        assert edge.strata_means == (0.0, 2.0**41)
        with pytest.raises(ConfigurationError, match=r"^strata_means\[1\] must lie within"):
            OutcomeModel(strata_means=(0.0, np.nextafter(2.0**41, np.inf)), sigma=2.0)
        with pytest.raises(ConfigurationError, match="^delta must lie within"):
            OutcomeModel(delta=-1e13)

    @pytest.mark.parametrize("field,value", [
        ("rho", "0.5"), ("delta", None), ("sigma", True), ("sigma", [1.0]),
        ("strata_means[0]", ("0", "1")), ("strata_means[1]", (0.0, True)),
    ])
    def test_non_numbers_name_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(field)} must be a number"):
            OutcomeModel(**{field.partition("[")[0]: value})

    def test_numbers_become_floats(self):
        model = OutcomeModel(rho=np.float32(0.5), delta=1, sigma=np.int64(2))
        assert repr((model.rho, model.delta, model.sigma)) == "(0.5, 1.0, 2.0)"


def _assert_factor_moments(model, strata, pot):
    n = len(strata)
    assert pot.shape == (n, 3)
    for s in (0, 1):
        sel = pot[strata == s]
        m = sel.shape[0]
        for arm in range(3):
            want = model.mean(s, arm)
            assert abs(float(sel[:, arm].mean()) - want) < 4.5 / math.sqrt(m)
    means = np.array([[model.mean(s, a) for a in range(3)] for s in (0, 1)])
    centered = pot - means[strata]
    # variance 1 per arm, correlation rho between any two arms
    var_band = 4.5 * math.sqrt(2.0 / n)
    for arm in range(3):
        assert abs(float(centered[:, arm].var()) - 1.0) < var_band
    corr_band = 4.5 * (1 - model.rho**2) / math.sqrt(n)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        got = float(np.corrcoef(centered[:, a], centered[:, b])[0, 1])
        assert abs(got - model.rho) < corr_band


class TestPotentialOutcomes:
    def test_unit_correlation_gives_exact_shifts(self):
        check_additivity_rho_one()

    def test_factor_moments(self):
        n = 400_000
        model = OutcomeModel(rho=0.5, delta=0.5)
        rng = _rng(21)
        strata = (rng.random(n) >= 0.4).astype(np.int8)
        normals = rng.standard_normal((n, 4))
        _assert_factor_moments(model, strata, potential_outcomes(strata, model, normals))

    def test_cohort_normals_by_inversion_have_the_factor_moments(self):
        model = OutcomeModel(rho=0.5, delta=0.5)
        _assert_factor_moments(model, *_cohort(_design(400_000), model, _rng(25)))

    def test_labels_must_be_stratum_codes(self):
        # -1 must not index the last stratum's mean
        model = OutcomeModel(rho=1.0, delta=0.0, strata_means=(0.0, 10.0))
        with pytest.raises(ConfigurationError, match="^stratum -1 outside 0..1"):
            potential_outcomes(np.array([-1, 0, 1]), model, np.zeros((3, 4)))
        # a mixed list names its first entry that is no code, not its first entry
        for labels, bad in (([0, None], "None"), ([1, "a"], "'a'"), ([1, 0.5], "0.5"),
                            ([True, 1], "True")):
            with pytest.raises(ConfigurationError, match=f"^stratum {bad} outside 0..1"):
                potential_outcomes(labels, model, np.zeros((2, 4)))
        got = potential_outcomes(np.array([1.0, 0.0, 1.0]), model, np.zeros((3, 4)))
        assert got[:, 0].tolist() == [10.0, 0.0, 10.0]

    @pytest.mark.parametrize("rho", [1.0, 0.3])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_equals_the_formula_bit_for_bit(self, rho, lead):
        # means[strata] + sigma * (sqrt(rho) u + sqrt(1 - rho) e_a), whatever
        # the leading shape; at rho = 1, 0 * e_a adds an exact zero
        model = OutcomeModel(rho=rho, delta=0.7, strata_means=(0.3, -1.2), sigma=1.7)
        rng = _rng(28)
        strata = rng.integers(0, 2, (*lead, 11)).astype(np.int8)
        normals = rng.standard_normal((*lead, 11, 4))
        got = potential_outcomes(strata, model, normals)
        means = np.array([[model.mean(s, arm) for arm in range(3)] for s in (0, 1)])
        noise = math.sqrt(rho) * normals[..., :1] + math.sqrt(1.0 - rho) * normals[..., 1:]
        assert got.shape == (*lead, 11, 3)
        assert got.tobytes() == (means[strata] + model.sigma * noise).tobytes()

    def test_independent_arms_at_zero_correlation(self):
        n = 200_000
        model = OutcomeModel(rho=0.0, delta=0.5)
        rng = _rng(22)
        strata = np.zeros(n, dtype=np.int8)
        pot = potential_outcomes(strata, model, rng.standard_normal((n, 4)))
        got = float(np.corrcoef(pot[:, 0], pot[:, 1])[0, 1])
        assert abs(got) < 4.5 / math.sqrt(n)


class TestSampling:
    def test_strata_proportions(self):
        design = _design(100_000)
        strata, _ = _cohort(design, OutcomeModel(), _rng(23))
        assert set(np.unique(strata)) <= {0, 1}
        share = float((strata == 0).mean())
        assert abs(share - 0.4) < 4.5 * math.sqrt(0.24 / design.n_patients)

    def test_cohort_shapes(self):
        design, model = _design(500), OutcomeModel()
        strata, potentials = _cohort(design, model, _rng(24))
        assert (strata.shape, potentials.shape) == ((500,), (500, 3))
        cohort = Cohort(true_strata=strata, potentials=potentials, outcome=model)
        assert cohort.n_patients == 500

    @pytest.mark.parametrize("probs", [(0.4, 0.6), (0.0, 1.0), (1.0, 0.0), (0.2, 0.3, 0.5),
                                       (0.1,) * 10])
    def test_strata_labels_match_a_sorted_search(self, probs):
        # counting the inner edges at or below a uniform gives, bit for bit,
        # the clamped ``searchsorted`` it replaced, on and just below each edge
        design = TrialDesign(10, probs, AllocationRatio((1, 1)), 2)
        cum = np.cumsum(probs)
        uniforms = np.concatenate([_rng(25).random(1000), cum, np.nextafter(cum, 0.0),
                                   [0.0, 1.0 - 2.0**-53]]).reshape(2, -1)
        want = np.minimum(np.searchsorted(cum, uniforms, side="right"), len(probs) - 1)
        labels = strata_labels(design, uniforms)
        assert labels.dtype == np.int8
        assert np.array_equal(labels, want)


class TestCohortFactors:
    """``cohort_factors`` keeps what a replication reads of ``cohort_width``
    uniforms per cohort, and ``drawn_outcomes`` builds outcomes from it."""

    def test_extreme_uniforms_give_finite_normals(self):
        # Generator.random can return 0, where inversion gives -inf unclamped
        design, model = _design(3), OutcomeModel(rho=0.5)
        low = _drawn(design, model, np.zeros((2, cohort_width(design))))
        high = _drawn(design, model, np.full(cohort_width(design), np.nextafter(1.0, 0.0)))
        assert (low[0] == 0).all() and (high[0] == 1).all()
        means = np.array([[model.mean(s, arm) for arm in range(3)] for s in (0, 1)])
        noise_low, noise_high = low[1] - means[0], high[1] - means[1]
        assert np.isfinite(noise_low).all() and (noise_low < -8).all()
        np.testing.assert_allclose(noise_high, -noise_low[0], rtol=1e-12)

    def test_each_row_is_one_cohort(self):
        # cohorts drawn one by one from one generator are the rows of one batch
        design, model = _design(30), OutcomeModel(rho=0.5)
        rng = _rng(26)
        alone = [_cohort(design, model, rng) for _ in range(2)]
        strata, potentials = _drawn(design, model, _rng(26).random((2, cohort_width(design))))
        for i, (own_strata, own_potentials) in enumerate(alone):
            np.testing.assert_array_equal(own_strata, strata[i])
            np.testing.assert_array_equal(own_potentials, potentials[i])

    @pytest.mark.parametrize("rho", [1.0, 0.5, 0.0])
    def test_outcomes_equal_inverting_every_normal(self, rho):
        # at rho = 1 the e_a uniforms are consumed but neither kept nor
        # inverted; the outcomes equal the full formula bit for bit, also
        # where u = 0
        design, model = _design(40), OutcomeModel(rho=rho, delta=0.5, sigma=1.5)
        uniforms = _rng(27).random((3, cohort_width(design)))
        uniforms[0, 40:46] = [0.0, 0.5, 0.5, 0.0, 1e-300, np.nextafter(1.0, 0.0)]
        strata, potentials = _drawn(design, model, uniforms)
        normals = ndtri(np.maximum(uniforms[:, 40:], 2.0**-53)).reshape(3, 40, 4)
        noise = math.sqrt(rho) * normals[..., :1] + math.sqrt(1.0 - rho) * normals[..., 1:]
        means = np.array([[model.mean(s, arm) for arm in range(3)] for s in (0, 1)])
        assert potentials.tobytes() == (means[strata] + model.sigma * noise).tobytes()
        assert potentials.tobytes() == potential_outcomes(strata, model, normals).tobytes()
        assert np.array_equal(strata, cohort_factors(design, OutcomeModel(rho=0.3), uniforms)[0])

    @pytest.mark.parametrize("rho", [1.0, 0.5])
    def test_factors_keep_no_view_of_the_uniforms(self, rho):
        # the uniform block is freed once a chunk has read its factors
        design, model = _design(5), OutcomeModel(rho=rho)
        uniforms = _rng(31).random((2, cohort_width(design)))
        strata, shared, noise = cohort_factors(design, model, uniforms)
        assert strata.shape == shared.shape == (2, 5)
        for array in (strata, shared, noise):
            assert array is None or not np.shares_memory(array, uniforms)
        if rho == 1.0:
            assert noise is None
        else:
            assert np.array_equal(noise, uniforms[:, 5:].reshape(2, 5, 4)[..., 1:])


class TestDrawnOutcomes:
    def test_any_leading_shape_and_arm(self):
        # one arm per patient reads that arm's column of every arm's outcomes
        design, model = _design(7), OutcomeModel(rho=0.5)
        uniforms = _rng(29).random((2, 3, cohort_width(design)))
        strata, potentials = _drawn(design, model, uniforms)
        factors = cohort_factors(design, model, uniforms)
        treatments = _rng(30).integers(0, 3, (2, 3, 7)).astype(np.int8)
        want = np.take_along_axis(potentials, treatments[..., None].astype(np.intp), axis=-1)
        got = drawn_outcomes(model, strata, treatments, *factors[1:])
        assert got.tobytes() == want[..., 0].tobytes()
        assert drawn_outcomes(model, strata, 2, *factors[1:]).tobytes() == \
            np.ascontiguousarray(potentials[..., 2]).tobytes()

    def test_shapes_must_match(self):
        strata, shared = np.zeros((2, 5), dtype=np.int8), np.zeros((2, 5))
        with pytest.raises(ConfigurationError, match="arms have shape"):
            drawn_outcomes(OutcomeModel(), strata, np.zeros(5, dtype=np.int8), shared, None)
