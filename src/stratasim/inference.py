"""Model-based analysis of a randomized cohort.

The working model regresses the observed outcome on an intercept, a
stratum indicator, and one indicator per active arm:

    y ~ 1 + 1{stratum high} + 1{T = 1} + ... + 1{T = t}

with a single residual variance.  The target quantity is the arm-1
coefficient (treatment effect versus control).  Confidence intervals
and tests use the t distribution on the residual degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import stdtr, stdtrit

from .errors import ConfigurationError, DegenerateDesignError

# normal equations whose Hadamard ratio is at most this count as singular
RANK_TOL = 1e-10


@dataclass(frozen=True)
class ModelFit:
    """Coefficients, standard errors, and residual variance of one fit."""

    terms: tuple[str, ...]
    coef: np.ndarray
    se: np.ndarray
    df: int
    sigma2: float
    n_obs: int

    def coefficient(self, term: str) -> float:
        return float(self.coef[self.terms.index(term)])

    def stderr(self, term: str) -> float:
        return float(self.se[self.terms.index(term)])


@dataclass(frozen=True)
class AnalysisResult:
    """Estimate, CI, and test for one coefficient of a fitted model."""

    term: str
    estimate: float
    se: float
    df: int
    ci_low: float
    ci_high: float
    statistic: float
    p_value: float
    alpha: float
    null_value: float
    strata_used: str = ""


def _stratum_columns(strata: np.ndarray) -> tuple[list[np.ndarray], list[str]]:
    """Indicator columns for every non-baseline stratum present.

    A stratum with no patients contributes no column, so a cohort that
    happens to land entirely in one stratum is fit without the stratum
    term (one fewer model degree of freedom).
    """
    levels = np.unique(strata)
    cols, names = [], []
    for level in levels[1:]:
        cols.append((strata == level).astype(float))
        names.append(f"stratum{int(level)}")
    return cols, names


def _ols_batch(
    y: np.ndarray,
    strata_covariate: np.ndarray,
    treatment_draws: np.ndarray,
    n_arms: int,
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, int, np.ndarray, np.ndarray]:
    """Least squares of the working model for every row of ``treatment_draws``.

    Returns ``(terms, coef, se, df, sigma2, valid)`` with one row of
    ``coef``, ``se`` and ``sigma2`` per assignment.  A row is invalid when
    the Hadamard ratio ``det(X'X) / prod(diag(X'X))`` of its normal
    equations is at most ``RANK_TOL`` (an empty arm gives a zero diagonal,
    collinear columns a vanishing determinant); its Gram matrix is then
    replaced by the identity before the one batched inverse, and its
    numbers are meaningless.
    """
    n_draws, n = treatment_draws.shape
    s_cols, s_names = _stratum_columns(strata_covariate)
    terms = ("intercept", *s_names, *(f"treat{arm}" for arm in range(1, n_arms)))
    n_fixed = 1 + len(s_cols)
    k = len(terms)
    if n < k:
        raise DegenerateDesignError(f"{n} observations cannot identify {k} columns")

    # arm columns are disjoint indicators and the rest of the design is
    # fixed across draws, so the normal equations assemble from one fixed
    # Gram block plus per-arm counts and cross sums against [fixed | y]
    fixed_y = np.column_stack([np.ones(n), *s_cols, y])
    gram = fixed_y.T @ fixed_y
    arms = np.arange(1, n_arms)
    masks = (treatment_draws[:, None, :] == arms[:, None]).astype(float)
    cross = (masks.reshape(-1, n) @ fixed_y).reshape(n_draws, n_arms - 1, n_fixed + 1)

    xtx = np.zeros((n_draws, k, k))
    xtx[:, :n_fixed, :n_fixed] = gram[:n_fixed, :n_fixed]
    xtx[:, n_fixed:, :n_fixed] = cross[:, :, :n_fixed]
    xtx[:, :n_fixed, n_fixed:] = cross[:, :, :n_fixed].transpose(0, 2, 1)
    arm_cols = n_fixed + arms - 1
    xtx[:, arm_cols, arm_cols] = cross[:, :, 0]
    xty = np.empty((n_draws, k))
    xty[:, :n_fixed] = gram[:n_fixed, -1]
    xty[:, n_fixed:] = cross[:, :, -1]

    diag = np.einsum("bii->bi", xtx)
    valid = np.linalg.det(xtx) > RANK_TOL * diag.prod(axis=1)
    xtx[~valid] = np.eye(k)
    inv = np.linalg.inv(xtx)
    coef = (inv @ xty[:, :, None])[:, :, 0]

    df = n - k
    rss = np.maximum(gram[-1, -1] - np.einsum("bk,bk->b", coef, xty), 0.0)
    sigma2 = rss / df if df > 0 else np.full(n_draws, np.nan)
    se = np.sqrt(sigma2[:, None] * np.einsum("bii->bi", inv))
    return terms, coef, se, df, sigma2, valid


def fit_model(
    y: np.ndarray,
    treatments: np.ndarray,
    strata_covariate: np.ndarray,
    n_arms: int | None = None,
) -> ModelFit:
    """Fit the homogeneous-variance stratum-adjusted model by least squares.

    A batch of one through the normal-equations kernel.  An arm with no
    patients, fewer observations than columns, or a Hadamard ratio of
    the normal equations at most ``RANK_TOL`` (a rank-deficient design)
    raises ``DegenerateDesignError``.
    """
    y = np.asarray(y, dtype=float)
    treatments = np.asarray(treatments, dtype=np.int64)
    strata_covariate = np.asarray(strata_covariate)
    n = y.shape[0]
    if treatments.shape[0] != n or strata_covariate.shape[0] != n:
        raise ConfigurationError("y, treatments, and strata must have equal length")
    arms = int(treatments.max()) + 1 if n_arms is None else n_arms
    empty = np.flatnonzero(np.bincount(treatments, minlength=arms)[:arms] == 0)
    if empty.size:
        raise DegenerateDesignError(f"arm {int(empty[0])} has no patients")

    terms, coef, se, df, sigma2, valid = _ols_batch(
        y, strata_covariate, treatments[None, :], arms
    )
    if not valid[0]:
        raise DegenerateDesignError("design matrix is rank deficient after column drops")
    return ModelFit(
        terms=terms, coef=coef[0], se=se[0], df=df, sigma2=float(sigma2[0]), n_obs=n
    )


@lru_cache(maxsize=64)
def _t_critical(alpha: float, df: int) -> float:
    return float(stdtrit(df, 1.0 - alpha / 2.0))


def ci_and_test(
    fit: ModelFit,
    alpha: float = 0.05,
    null_value: float = 0.0,
    term: str = "treat1",
    strata_used: str = "",
) -> AnalysisResult:
    """Two-sided CI and t test for one coefficient of the fit."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
    if fit.df < 1:
        raise DegenerateDesignError("no residual degrees of freedom for a t interval")
    estimate = fit.coefficient(term)
    se = fit.stderr(term)
    crit = _t_critical(alpha, fit.df)
    if se > 0.0:
        stat = (estimate - null_value) / se
        p = float(2.0 * stdtr(fit.df, -abs(stat)))
    else:
        stat = 0.0 if estimate == null_value else float("inf") * np.sign(estimate - null_value)
        p = 1.0 if estimate == null_value else 0.0
    return AnalysisResult(
        term=term,
        estimate=estimate,
        se=se,
        df=fit.df,
        ci_low=estimate - crit * se,
        ci_high=estimate + crit * se,
        statistic=float(stat),
        p_value=p,
        alpha=alpha,
        null_value=null_value,
        strata_used=strata_used,
    )


def batched_treatment_tstats(
    y: np.ndarray,
    strata_covariate: np.ndarray,
    treatment_draws: np.ndarray,
    n_arms: int,
    target_arm: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """t statistics of one arm coefficient across many treatment vectors.

    Fits the same model as ``fit_model`` for every row of
    ``treatment_draws`` through the same kernel.  Returns
    ``(tstats, valid)``; a draw is invalid when an arm is empty or the
    normal equations are numerically singular, and its statistic is NaN.
    """
    y = np.asarray(y, dtype=float)
    t_draws = np.asarray(treatment_draws)
    if y.shape[0] != t_draws.shape[1]:
        raise ConfigurationError("y length does not match treatment draws")
    if not 1 <= target_arm < n_arms:
        raise ConfigurationError(f"target arm {target_arm} outside 1..{n_arms - 1}")

    terms, coef, se, _, _, valid = _ols_batch(
        y, np.asarray(strata_covariate), t_draws, n_arms
    )
    col = terms.index(f"treat{target_arm}")
    with np.errstate(invalid="ignore", divide="ignore"):
        tstats = coef[:, col] / se[:, col]
    valid &= np.isfinite(tstats)
    return np.where(valid, tstats, np.nan), valid
