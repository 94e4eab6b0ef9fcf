"""Randomization-based inference for the arm-1 treatment effect.

The observed statistic is the model t statistic of the arm-1 coefficient,
computed in one kernel call with every null draw.  The caller supplies
the null draws: re-runs of the stratified permuted-block assignment
within the *reported* strata, with every outcome held fixed (the sharp
null of no treatment effect).  The harness draws one batch per
replication with ``randomizer.batch_block_assignments`` and tests both
strata variants against it, reading their statistics from one
``inference.fit_batch`` call through ``randomization_result``.  The
two-sided p-value uses the add-one convention

    p = (1 + #{ |stat*| >= |stat_obs| }) / (1 + draws).

Draws whose refit degenerates (an empty arm, a singular design) are
discarded but counted; losing more than 1% of draws flags the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateDesignError
from .inference import fit_batch

FLAG_DISCARD_SHARE = 0.01
# a null statistic this close to the observed one, relative to its size,
# ties with it: a draw that mirrors the observed assignment (arm labels
# swapped) has the same |t| in exact arithmetic, but its sums run over
# other patients and can round to either side
TIE_RTOL = 1e-9


@dataclass(frozen=True)
class RandTestResult:
    statistic: float
    p_value: float
    draws_requested: int
    draws_used: int
    discarded: int
    flagged: bool


def combine_pvalue(statistic: float, null_stats: np.ndarray) -> float:
    """Add-one two-sided p-value from an observed statistic and null draws;
    ties, within ``TIE_RTOL``, count against the observed statistic."""
    null_stats = np.asarray(null_stats, dtype=float)
    count = int((np.abs(null_stats) >= abs(statistic) * (1.0 - TIE_RTOL)).sum())
    return (1.0 + count) / (1.0 + null_stats.shape[0])


def randomization_pvalue(
    y: np.ndarray,
    treatments: np.ndarray,
    analysis_strata: np.ndarray,
    null_assignments: np.ndarray,
    n_arms: int,
    target_arm: int = 1,
) -> RandTestResult:
    """Re-randomization test of the sharp null of no treatment effect.

    ``analysis_strata`` enters the refitted model; ``null_assignments``
    is the ``(draws, n)`` null set, sampled or exhaustive, drawn within
    the strata labels the original assignment actually saw.
    """
    if len(null_assignments) == 0:
        raise ConfigurationError("null_assignments has no rows; need at least one draw")
    # the observed row rides in the same kernel call as the null draws, so
    # an exact re-draw of the observed assignment ties exactly
    t_batch = np.vstack([treatments, null_assignments])
    (fit,) = fit_batch(y, [analysis_strata], t_batch, n_arms)
    return randomization_result(*fit.tstats(target_arm))


def randomization_result(stats: np.ndarray, valid: np.ndarray) -> RandTestResult:
    """The test from one kernel call's t statistics and validity flags:
    row 0 is the observed assignment, the other rows its null draws."""
    if not valid[0]:
        raise DegenerateDesignError("observed assignment gives a degenerate fit")
    stat_obs = float(stats[0])
    stats, valid = stats[1:], valid[1:]
    n_requested = stats.shape[0]
    n_used = int(valid.sum())
    discarded = n_requested - n_used
    if n_used == 0:
        raise ConfigurationError("all null draws degenerated; cannot form a p-value")
    return RandTestResult(
        statistic=stat_obs,
        p_value=combine_pvalue(stat_obs, stats[valid]),
        draws_requested=n_requested,
        draws_used=n_used,
        discarded=discarded,
        flagged=discarded > FLAG_DISCARD_SHARE * n_requested,
    )
