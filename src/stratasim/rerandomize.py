"""Randomization-based inference for the arm-1 treatment effect.

The observed statistic is the model t statistic of the arm-1 coefficient,
computed by ``inference.batched_treatment_tstats`` like every null draw.
Null draws re-run the stratified permuted-block assignment within the
*reported* strata while holding every outcome fixed (the sharp null of no
treatment effect), and the two-sided p-value uses the add-one convention

    p = (1 + #{ |stat*| >= |stat_obs| }) / (1 + draws).

Draws whose refit degenerates (an empty arm, a singular design) are
discarded but counted; losing more than 1% of draws flags the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateDesignError
from .inference import batched_treatment_tstats
from .randomizer import TrialDesign, batch_block_assignments, randomize_cohort

FLAG_DISCARD_SHARE = 0.01


@dataclass(frozen=True)
class RandTestResult:
    statistic: float
    p_value: float
    draws_requested: int
    draws_used: int
    discarded: int
    flagged: bool
    strata_used: str = ""


def combine_pvalue(statistic: float, null_stats: np.ndarray) -> float:
    """Add-one two-sided p-value from an observed statistic and null draws."""
    null_stats = np.asarray(null_stats, dtype=float)
    count = int((np.abs(null_stats) >= abs(statistic)).sum())
    return (1.0 + count) / (1.0 + null_stats.shape[0])


def randomization_pvalue(
    y: np.ndarray,
    treatments: np.ndarray,
    analysis_strata: np.ndarray,
    reported_strata: np.ndarray,
    design: TrialDesign,
    draws: int,
    rng: np.random.Generator,
    target_arm: int = 1,
    strata_used: str = "",
    null_assignments: np.ndarray | None = None,
) -> RandTestResult:
    """Re-randomization test of the sharp null of no treatment effect.

    ``analysis_strata`` enters the refitted model; ``reported_strata``
    drives the re-randomization, which always uses the strata labels the
    original assignment actually saw.  Passing ``null_assignments``
    replaces sampling with an explicit (e.g. exhaustive) null set.
    """
    if draws < 1 and null_assignments is None:
        raise ConfigurationError(f"draws must be >= 1, got {draws}")
    n_arms = design.allocation.n_arms
    # The observed statistic runs through batched_treatment_tstats like the
    # null draws, so an exact re-draw of the observed assignment ties exactly.
    obs_stats, obs_valid = batched_treatment_tstats(
        y, analysis_strata, np.asarray(treatments)[None, :], n_arms, target_arm
    )
    if not obs_valid[0]:
        raise DegenerateDesignError("observed assignment gives a degenerate fit")
    stat_obs = float(obs_stats[0])

    if null_assignments is not None:
        t_batch = np.asarray(null_assignments)
    elif design.block_sizes is not None:
        # random block lengths have no vectorized path; draw sequentially
        t_batch = np.stack(
            [randomize_cohort(design, reported_strata, rng) for _ in range(draws)]
        )
    else:
        t_batch = batch_block_assignments(design, reported_strata, draws, rng)

    stats, valid = batched_treatment_tstats(
        y, analysis_strata, t_batch, n_arms, target_arm
    )
    n_requested = t_batch.shape[0]
    n_used = int(valid.sum())
    discarded = n_requested - n_used
    if n_used == 0:
        raise ConfigurationError("all null draws degenerated; cannot form a p-value")
    return RandTestResult(
        statistic=float(stat_obs),
        p_value=combine_pvalue(float(stat_obs), stats[valid]),
        draws_requested=n_requested,
        draws_used=n_used,
        discarded=discarded,
        flagged=discarded > FLAG_DISCARD_SHARE * n_requested,
        strata_used=strata_used,
    )
