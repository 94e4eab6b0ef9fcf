"""Randomization-based inference for the arm-1 treatment effect.

The observed statistic is the model t statistic of the arm-1 coefficient,
computed in one kernel call with every null draw.  The caller supplies
the null draws: re-runs of the stratified permuted-block assignment
within the *reported* strata, with every outcome held fixed (the sharp
null of no treatment effect).  The harness draws one batch per
replication and tests both strata variants against it, reading the
statistics of a whole chunk of replications from one
``inference.fit_batch`` call through ``randomization_batch``;
``randomization_pvalue`` tests one trial with any stratum labels.  The
two-sided p-value uses the add-one convention

    p = (1 + #{ |stat*| >= |stat_obs| }) / (1 + draws).

Draws whose refit degenerates (an empty arm, a singular design) are
discarded but counted; losing more than 1% of draws flags the result.
When every draw degenerates the p-value is the add-one value over no
draws, 1, and the result is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateDesignError, as_codes
from .inference import DEGENERATE_OBSERVED, fit_batch

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


def randomization_pvalue(
    y: np.ndarray,
    treatments: np.ndarray,
    analysis_strata: np.ndarray,
    null_assignments: np.ndarray,
    n_arms: int,
) -> RandTestResult:
    """Re-randomization test of the sharp null of no treatment effect.

    ``analysis_strata`` enters the refitted model, each distinct label a
    stratum.  ``treatments``, shaped ``(n,)`` for the ``n`` outcomes ``y``,
    and the ``(draws, n)`` null set ``null_assignments``, sampled or
    exhaustive, drawn within the strata the original assignment actually
    saw, are arm codes ``0..n_arms - 1``; another shape raises a
    ``ConfigurationError`` naming the field.  A degenerate fit of the
    observed assignment raises ``DegenerateDesignError``.
    """
    n = len(y)
    if np.shape(treatments) != (n,):
        raise ConfigurationError(f"treatments must have shape ({n},), got {np.shape(treatments)}")
    if np.ndim(null_assignments) != 2 or np.shape(null_assignments)[1] != n:
        raise ConfigurationError(
            f"null_assignments must have shape (draws, {n}), got {np.shape(null_assignments)}")
    draws = len(null_assignments)
    if draws == 0:
        raise ConfigurationError("null_assignments has no rows; need at least one draw")
    # the observed row rides in the same kernel call as the null draws, so
    # an exact re-draw of the observed assignment ties exactly
    t_batch = np.vstack([as_codes("treatments", treatments, n_arms),
                         as_codes("null_assignments", null_assignments, n_arms)])
    _, strata = np.unique(analysis_strata, return_inverse=True)
    fit = fit_batch(np.asarray(y, dtype=float)[None], [strata[None]], t_batch[None], n_arms)
    stats, valid = fit.tstats()
    if not valid[0, 0, 0]:
        raise DegenerateDesignError(DEGENERATE_OBSERVED)
    (p_value,), (discarded,), (flagged,) = randomization_batch(stats[0], valid[0])
    return RandTestResult(
        statistic=float(stats[0, 0, 0]),
        p_value=float(p_value),
        draws_requested=draws,
        draws_used=draws - int(discarded),
        discarded=int(discarded),
        flagged=bool(flagged),
    )


def randomization_batch(
    stats: np.ndarray, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tests of many groups from one kernel call's ``(groups, rows)``
    t statistics and validity flags: row 0 of a group is its observed
    assignment, the other rows its null draws.

    Returns ``(p_value, discarded, flagged)`` per group.  A group with no
    usable null draw gets the add-one p-value over none, ``p = 1``, flagged
    if it had draws to lose.  The observed row's validity is the caller's.
    """
    observed = np.abs(stats[:, :1]) * (1.0 - TIE_RTOL)
    null, usable = stats[:, 1:], valid[:, 1:]
    count = ((np.abs(null) >= observed) & usable).sum(axis=1)
    n_used = usable.sum(axis=1)
    discarded = null.shape[1] - n_used
    return ((1.0 + count) / (1.0 + n_used), discarded,
            discarded > FLAG_DISCARD_SHARE * null.shape[1])
