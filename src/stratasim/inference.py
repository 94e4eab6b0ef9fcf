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


@dataclass(frozen=True)
class BatchFit:
    """One strata variant's least-squares fits, one per assignment row.

    Arrays are laid out draws-last.  ``arm_coef`` and ``arm_se`` hold the
    arm terms, ``(n_arms - 1, rows)``; ``sigma2`` and ``valid`` one entry
    per row.  ``model_fit`` adds a row's intercept and stratum terms by
    back-substitution from ``count`` (patients per stratum, arm and row),
    the stratum sizes ``n_s`` and outcome sums ``sum_y``, and
    ``inv_factor``, the inverse ``W`` of the Cholesky factor of each row's
    Schur complement.  The numbers of an invalid row are meaningless.
    """

    terms: tuple[str, ...]
    df: int
    arm_coef: np.ndarray
    arm_se: np.ndarray
    sigma2: np.ndarray
    valid: np.ndarray
    count: np.ndarray
    n_s: np.ndarray
    sum_y: np.ndarray
    inv_factor: np.ndarray

    def _check(self, row: int) -> None:
        if not self.valid[row]:
            treated = self.count[:, :, row].sum(axis=0)
            counts = [self.n_s.sum() - treated.sum(), *treated]
            empty = [arm for arm, count in enumerate(counts) if count == 0]
            if empty:
                raise DegenerateDesignError(f"arm {empty[0]} has no patients")
            raise DegenerateDesignError("design matrix is rank deficient after column drops")

    def analysis(self, row: int = 0, alpha: float = 0.05, target_arm: int = 1,
                 strata_used: str = "") -> AnalysisResult:
        """``ci_and_test`` of one arm coefficient of one row, which must be valid."""
        self._check(row)
        return t_analysis(self.arm_coef[target_arm - 1, row], self.arm_se[target_arm - 1, row],
                          self.df, alpha, term=f"treat{target_arm}", strata_used=strata_used)

    def model_fit(self, row: int = 0) -> ModelFit:
        """The full fit of one row; a degenerate row raises ``DegenerateDesignError``."""
        self._check(row)
        # contiguous copies, so a row computes alike in any batch
        beta = np.ascontiguousarray(self.arm_coef[:, row])
        count = np.ascontiguousarray(self.count[:, :, row])
        factor = np.ascontiguousarray(self.inv_factor[:, :, row])
        inv_n = 1.0 / self.n_s
        means = (self.sum_y - count @ beta) * inv_n
        means[1:] -= means[0]
        # a stratum term's unscaled variance: 1/n_s (+ 1/n_0 for a contrast)
        # plus h' S^-1 h = |W h|^2 for its arm shares h
        shares = count * inv_n[:, None]
        shares[1:] -= shares[0]
        unscaled = inv_n.copy()
        unscaled[1:] += inv_n[0]
        unscaled += ((shares @ factor.T) ** 2).sum(axis=1)
        return ModelFit(
            terms=self.terms, coef=np.concatenate([means, beta]),
            se=np.concatenate([np.sqrt(self.sigma2[row] * unscaled), self.arm_se[:, row]]),
            df=self.df, sigma2=float(self.sigma2[row]), n_obs=int(self.n_s.sum()),
        )

    def tstats(self, target_arm: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """``(tstats, valid)`` of one arm coefficient; NaN where invalid."""
        with np.errstate(invalid="ignore", divide="ignore"):
            stats = self.arm_coef[target_arm - 1] / self.arm_se[target_arm - 1]
        valid = self.valid & np.isfinite(stats)
        return np.where(valid, stats, np.nan), valid


def fit_batch(
    y: np.ndarray,
    strata_variants: list[np.ndarray],
    treatment_draws: np.ndarray,
    n_arms: int,
) -> list[BatchFit]:
    """Least squares of the working model for every row of ``treatment_draws``
    under every entry of ``strata_variants``, all sharing ``y``.

    Returns one ``BatchFit`` per strata variant.  A stratum with no
    patients contributes no column, so a variant whose patients all share
    one stratum is fit without a stratum term (one more residual degree of
    freedom).

    Frisch-Waugh: with one mean per present stratum the stratum block of
    the normal equations is ``diag(n_s)``, so each row reduces to the
    ``(n_arms - 1)``-square Schur complement

        S = diag(c) - C diag(1 / n_s) C'

    of its exact arm-by-stratum counts ``C`` (arm totals ``c``), solved by
    a Cholesky factor ``L`` computed in loops over arms on vectors laid out
    draws-last.  A row is invalid when the Hadamard ratio ``det(X'X) /
    prod(diag(X'X))`` of the original normal equations, which equals
    ``(n_0 / n) prod(L_jj^2) / prod(c_j)`` with ``n_0`` the size of the
    first present stratum, is at most ``RANK_TOL`` (an empty arm zeroes a
    pivot, collinear columns shrink one), or a pivot is not positive.

    Counts are exact and every floating-point sum runs in a fixed order per
    row, so a row's numbers depend on neither the other rows nor the other
    variants.
    """
    y = np.asarray(y, dtype=float)
    draws = np.asarray(treatment_draws)
    if draws.ndim != 2:
        raise ConfigurationError("treatment draws must be a (rows, patients) array")
    if n_arms < 2:
        raise ConfigurationError(f"n_arms must be >= 2, got {n_arms}")
    n_rows, n = draws.shape
    if y.shape != (n,):
        raise ConfigurationError("y length does not match treatment draws")
    levels, codes = [], []
    for strata in strata_variants:
        if np.shape(strata) != (n,):
            raise ConfigurationError("y, treatments, and strata must have equal length")
        level = np.unique(strata)
        levels.append(level)
        codes.append(np.searchsorted(level, strata))
    sizes = [level.size for level in levels]
    n_var, n_strata, n_free = len(sizes), max(sizes), n_arms - 1
    if n < n_strata + n_free:
        raise DegenerateDesignError(
            f"{n} observations cannot identify {n_strata + n_free} columns"
        )

    # column v * n_strata + s is stratum s of variant v; a variant with
    # fewer strata is padded with empty ones, whose inv_n is 0
    n_cols = n_var * n_strata
    column = np.concatenate([code + v * n_strata for v, code in enumerate(codes)])
    n_s = np.bincount(column, minlength=n_cols)
    col_y = np.bincount(column, np.concatenate([y] * n_var), n_cols)
    indicators = np.zeros((n, n_cols))
    indicators[np.arange(n_var * n) % n, column] = 1.0

    # one matmul of 0/1 arm masks against the indicators counts patients
    # per arm, row and column exactly; einsum sums each row's outcomes per
    # arm in the same order for any batch
    masks = np.empty((n_free, n_rows, n))
    for j in range(n_free):
        np.equal(draws, j + 1, out=masks[j], casting="unsafe")
    count = (masks.reshape(-1, n) @ indicators).reshape(n_free, n_rows, n_var, n_strata)
    arm_y = np.einsum("arn,n->ar", masks, y)

    # one lane per (variant, row), variant-major and draws last: count is
    # (stratum, arm, lane), and per-stratum constants are gathered per lane
    lanes = n_var * n_rows
    count = count.transpose(3, 0, 2, 1).reshape(n_strata, n_free, lanes)
    n_s, col_y = n_s.reshape(n_var, n_strata), col_y.reshape(n_var, n_strata)
    inv_n = np.divide(1.0, n_s, out=np.zeros(n_s.shape), where=n_s > 0)
    inv_n = np.repeat(inv_n.T, n_rows, axis=1)
    sum_y = np.repeat(col_y.T, n_rows, axis=1)
    arm_total = count.sum(axis=0)
    share = count * inv_n[:, None]  # C_js / n_s

    within = y @ y - sum_y[0] * sum_y[0] * inv_n[0]
    schur = -(count[0][:, None] * share[0])
    arm_xy = np.concatenate([arm_y] * n_var, axis=1) - share[0] * sum_y[0]
    for s in range(1, n_strata):
        within -= sum_y[s] * sum_y[s] * inv_n[s]
        schur -= count[s][:, None] * share[s]
        arm_xy -= share[s] * sum_y[s]
    for j in range(n_free):
        schur[j, j] += arm_total[j]

    # S = L L' and W = L^-1.  A pivot that is not positive zeroes the
    # product of pivots, so its lane is invalid, and is replaced by 1 so
    # the arithmetic stays finite
    chol = [[None] * n_free for _ in range(n_free)]
    pivots = 1.0
    for j in range(n_free):
        for i in range(j + 1):
            acc = schur[j, i]
            for m in range(i):
                acc = acc - chol[j][m] * chol[i][m]
            if i < j:
                chol[j][i] = acc / chol[i][i]
            else:
                pivots = pivots * np.maximum(acc, 0.0)
                chol[j][j] = np.sqrt(np.where(acc > 0.0, acc, 1.0))
    valid = np.repeat(n_s[:, 0], n_rows) * pivots > RANK_TOL * n * arm_total.prod(axis=0)
    inv = np.zeros((n_free, n_free, lanes))
    for j in range(n_free):
        inv[j, j] = 1.0 / chol[j][j]
        for i in range(j):
            acc = chol[j][i] * inv[i, i]
            for m in range(i + 1, j):
                acc = acc + chol[j][m] * inv[m, i]
            inv[j, i] = -acc * inv[j, j]

    # beta = S^-1 r = W' (W r); diag(S^-1) are W's squared column norms
    z = []
    for j in range(n_free):
        acc = inv[j, 0] * arm_xy[0]
        for m in range(1, j + 1):
            acc = acc + inv[j, m] * arm_xy[m]
        z.append(acc)
    beta = np.empty((n_free, lanes))
    unscaled = np.empty((n_free, lanes))
    for j in range(n_free):
        acc = inv[j, j] * z[j]
        var = inv[j, j] * inv[j, j]
        for m in range(j + 1, n_free):
            acc = acc + inv[m, j] * z[m]
            var = var + inv[m, j] * inv[m, j]
        beta[j] = acc
        unscaled[j] = var
    rss = within - beta[0] * arm_xy[0]
    for j in range(1, n_free):
        rss -= beta[j] * arm_xy[j]
    df = n - np.array(sizes) - n_free
    sigma2 = np.maximum(rss, 0.0) / np.repeat(np.where(df > 0, df, np.nan), n_rows)
    se = np.sqrt(sigma2 * unscaled)

    arm_terms = tuple(f"treat{arm}" for arm in range(1, n_arms))
    fits = []
    for v, (level, size) in enumerate(zip(levels, sizes)):
        lane = slice(v * n_rows, (v + 1) * n_rows)
        terms = ("intercept", *(f"stratum{int(lv)}" for lv in level[1:]), *arm_terms)
        fits.append(BatchFit(
            terms=terms, df=int(df[v]),
            arm_coef=beta[:, lane], arm_se=se[:, lane], sigma2=sigma2[lane],
            valid=valid[lane], count=count[:size, :, lane], n_s=n_s[v, :size],
            sum_y=col_y[v, :size], inv_factor=inv[:, :, lane],
        ))
    return fits


def fit_model(
    y: np.ndarray,
    treatments: np.ndarray,
    strata_covariate: np.ndarray,
    n_arms: int | None = None,
) -> ModelFit:
    """Fit the homogeneous-variance stratum-adjusted model by least squares.

    A batch of one through ``fit_batch``.  An arm with no patients, fewer
    observations than columns, or a Hadamard ratio of the normal
    equations at most ``RANK_TOL`` (a rank-deficient design) raises
    ``DegenerateDesignError``.
    """
    treatments = np.asarray(treatments)
    arms = int(treatments.max()) + 1 if n_arms is None else n_arms
    (fit,) = fit_batch(y, [strata_covariate], treatments[None, :], arms)
    return fit.model_fit(0)


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
    return t_analysis(fit.coefficient(term), fit.stderr(term), fit.df, alpha,
                      null_value, term, strata_used)


def t_analysis(
    estimate: float,
    se: float,
    df: int,
    alpha: float = 0.05,
    null_value: float = 0.0,
    term: str = "treat1",
    strata_used: str = "",
) -> AnalysisResult:
    """Two-sided t interval and test from an estimate, its SE and df."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
    if df < 1:
        raise DegenerateDesignError("no residual degrees of freedom for a t interval")
    estimate, se = float(estimate), float(se)
    crit = _t_critical(alpha, df)
    if se > 0.0:
        stat = (estimate - null_value) / se
        p = float(2.0 * stdtr(df, -abs(stat)))
    else:
        stat = 0.0 if estimate == null_value else float("inf") * np.sign(estimate - null_value)
        p = 1.0 if estimate == null_value else 0.0
    return AnalysisResult(
        term=term,
        estimate=estimate,
        se=se,
        df=df,
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
    if not 1 <= target_arm < n_arms:
        raise ConfigurationError(f"target arm {target_arm} outside 1..{n_arms - 1}")
    (fit,) = fit_batch(y, [strata_covariate], treatment_draws, n_arms)
    return fit.tstats(target_arm)
