"""Distribution-level property checks, callable from any test module.

Each check is self-contained with a fixed seed, asserts on failure, and
uses wide Monte Carlo bands (4.5 sigma) where sampling noise is involved
so a pass is stable across library versions.
"""

from __future__ import annotations

import math

import numpy as np

from stratasim.cohort import Cohort, OutcomeModel, potential_outcomes
from stratasim.harness import ScenarioConfig, paper_design, run_scenario
from stratasim.misclassify import MisclassModel, reported_strata
from stratasim.randomizer import (
    AllocationRatio,
    TrialDesign,
    batch_block_assignments,
    block_pattern,
    randomize_cohort,
)
from stratasim.rerandomize import randomization_pvalue

Z_BAND = 4.5


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def check_block_balance(seed: int = 7, n_patients: int = 200) -> None:
    """Every completed block within a stratum holds exactly the allocation
    pattern; the trailing partial block never exceeds the pattern counts."""
    design = TrialDesign(
        n_patients=n_patients,
        strata_probs=(0.4, 0.6),
        allocation=AllocationRatio((1, 2, 2)),
        block_size=10,
    )
    rng = _rng(seed)
    reported = (rng.random(n_patients) >= 0.4).astype(np.int8)
    codes = randomize_cohort(design, reported, rng)
    assert codes.shape == (n_patients,)
    pattern_counts = np.bincount(block_pattern(design.allocation, 10), minlength=3)
    for stratum in (0, 1):
        stream = codes[reported == stratum]
        block = design.block_size
        for start in range(0, stream.size - block + 1, block):
            counts = np.bincount(stream[start:start + block], minlength=3)
            assert (counts == pattern_counts).all(), (stratum, start, counts)
        tail = stream[stream.size - stream.size % block:]
        tail_counts = np.bincount(tail, minlength=3)
        assert (tail_counts <= pattern_counts).all(), (stratum, tail_counts)


def check_propensity_constancy(seed: int = 11, n_draws: int = 20_000) -> None:
    """Marginal arm probabilities equal the target shares at every
    enrollment position, partial final blocks included."""
    design = paper_design()
    rng = _rng(seed)
    reported = (rng.random(design.n_patients) >= 0.4).astype(np.int8)
    codes = batch_block_assignments(design, reported, n_draws, rng)
    for arm in range(design.allocation.n_arms):
        share = design.allocation.target_share(arm)
        band = Z_BAND * math.sqrt(share * (1.0 - share) / n_draws)
        freq = (codes == arm).mean(axis=0)
        worst = float(np.abs(freq - share).max())
        assert worst < band, (arm, worst, band)


def check_additivity_rho_one(seed: int = 13, n: int = 5000) -> None:
    """With unit correlation the active arms are exact shifts of control."""
    model = OutcomeModel(rho=1.0, delta=0.5)
    rng = _rng(seed)
    strata = (rng.random(n) >= 0.4).astype(np.int8)
    pot = potential_outcomes(strata, model, rng.standard_normal((n, 4)))
    assert np.abs(pot[:, 1] - pot[:, 0] - model.delta).max() < 1e-12
    assert np.abs(pot[:, 2] - pot[:, 0] - model.delta).max() < 1e-12


def check_ignorable_conditional_independence(seed: int = 17, n: int = 400_000) -> None:
    """Random flips carry no outcome information within a true stratum,
    while the selective model visibly does (the check must have power)."""
    outcome = OutcomeModel(rho=1.0, delta=0.5)
    model = MisclassModel("ignorable", 0.15, 0.30)
    rng = _rng(seed)
    strata = (rng.random(n) >= 0.4).astype(np.int8)
    pot = potential_outcomes(strata, outcome, rng.standard_normal((n, 4)))
    cohort = Cohort(true_strata=strata, potentials=pot, outcome=outcome)
    reported = reported_strata(cohort, model, rng)
    flipped = reported != strata
    for s in (0, 1):
        y = pot[strata == s, 0]
        f = flipped[strata == s]
        gap = abs(float(y[f].mean()) - float(y[~f].mean()))
        band = Z_BAND * math.sqrt(1.0 / f.sum() + 1.0 / (~f).sum())
        assert gap < band, (s, gap, band)
    rep1 = reported_strata(cohort, MisclassModel("nonignorable1", 0.15, 0.30))
    sel = rep1 != strata
    y_low = pot[strata == 0, 0]
    f_low = sel[strata == 0]
    sel_gap = float(y_low[f_low].mean()) - float(y_low[~f_low].mean())
    assert sel_gap > 1.0, sel_gap


def check_rb_superuniformity(seed: int = 19, n_reps: int = 300,
                             draws: int = 300) -> None:
    """Under the sharp null the add-one randomization p-value is
    super-uniform: P(p <= a) stays at or below a up to MC noise."""
    design = TrialDesign(
        n_patients=25,
        strata_probs=(1.0, 0.0),
        allocation=AllocationRatio((1, 2, 2)),
        block_size=5,
    )
    rng = _rng(seed)
    strata = np.zeros(design.n_patients, dtype=np.int8)
    pvals = np.empty(n_reps)
    for rep in range(n_reps):
        y = rng.standard_normal(design.n_patients)
        treatments = randomize_cohort(design, strata, rng)
        nulls = batch_block_assignments(design, strata, draws, rng)
        res = randomization_pvalue(y, treatments, strata, nulls,
                                   design.allocation.n_arms)
        pvals[rep] = res.p_value
    for alpha in (0.01, 0.05, 0.10):
        rate = float((pvals <= alpha).mean())
        bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / n_reps)
        assert rate <= bound, (alpha, rate, bound)


def check_thread_determinism(seed: int = 23, reps: int = 60) -> None:
    """A scenario aggregates to bit-identical results for any worker count."""
    config = ScenarioConfig(
        design=paper_design(),
        outcome=OutcomeModel(rho=0.5, delta=0.5),
        misclass=MisclassModel("ignorable", 0.15, 0.30),
        n_replications=reps,
        rb_draws=40,
        seed=seed,
    )
    serial = run_scenario(config, threads=1)
    threaded = run_scenario(config, threads=2)
    assert serial == threaded
    assert serial == run_scenario(config, threads=1)
