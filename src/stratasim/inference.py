"""Model-based analysis of a randomized cohort.

The working model regresses the observed outcome on an intercept, a
stratum indicator, and one indicator per active arm:

    y ~ 1 + 1{stratum high} + 1{T = 1} + ... + 1{T = t}

with a single residual variance.  The target quantity is the arm-1
coefficient (treatment effect versus control).  One kernel,
``fit_batch``, fits many assignment rows of many trials at once, one
trial being a batch of one; its ``BatchFit`` carries only the arm terms
and names why each invalid row failed.  Confidence intervals and tests
use the t distribution on the residual degrees of freedom, elementwise
over whole arrays in ``t_interval``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import stdtr, stdtrit

from .errors import ConfigurationError

# normal equations whose Hadamard ratio is at most this count as singular
RANK_TOL = 1e-10
# patient assignments per arm mask slice in ``fit_batch``: one table2
# replication (1,001 rows of 80 patients)
MASK_CELLS = 1024 * 80
NO_RESIDUAL_DF = "no residual degrees of freedom for a t interval"


@dataclass(frozen=True)
class BatchFit:
    """Least-squares fits of every assignment row of every group under
    every strata variant.

    Arrays are laid out draws-last, ``(variants, groups, rows)`` after any
    leading axis.  ``arm_coef`` and ``arm_se`` hold the arm terms,
    ``(n_arms - 1, variants, groups, rows)``; ``sigma2`` and ``valid`` one
    entry per row; ``arm_count`` the patients per arm, ``(n_arms,
    variants, groups, rows)``, so an invalid row can name its empty arm;
    ``df`` the residual degrees of freedom, ``(variants, groups)``,
    negative where the observations cannot identify the columns.  The
    intercept and stratum terms are partialled out and never formed.  The
    numbers of an invalid row are meaningless.
    """

    df: np.ndarray
    arm_coef: np.ndarray
    arm_se: np.ndarray
    sigma2: np.ndarray
    valid: np.ndarray
    arm_count: np.ndarray

    def faults(self) -> np.ndarray:
        """Why each row is invalid, ``""`` where it is valid: an object
        array shaped like ``valid``."""
        out = np.full(self.valid.shape, "", dtype=object)
        out[~self.valid] = "design matrix is rank deficient after column drops"
        empty = (self.arm_count == 0) & ~self.valid
        first = np.argmax(empty, axis=0)
        for arm in range(len(empty)):
            out[empty[arm] & (first == arm)] = f"arm {arm} has no patients"
        n = int(self.arm_count.reshape(len(empty), -1)[:, 0].sum()) if self.valid.size else 0
        for df in np.unique(self.df[self.df < 0]):
            out[self.df == df] = f"{n} observations cannot identify {n - df} columns"
        return out

    def _arm_index(self, target_arm: int) -> int:
        n_arms = self.arm_count.shape[0]
        if not 1 <= target_arm < n_arms:
            raise ConfigurationError(f"target arm {target_arm} outside 1..{n_arms - 1}")
        return target_arm - 1

    def tstats(self, target_arm: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """``(tstats, valid)`` of one arm coefficient, ``(variants, groups,
        rows)``; NaN where invalid."""
        arm = self._arm_index(target_arm)
        with np.errstate(invalid="ignore", divide="ignore"):
            stats = self.arm_coef[arm] / self.arm_se[arm]
        valid = self.valid & np.isfinite(stats)
        return np.where(valid, stats, np.nan), valid


def fit_batch(
    y: np.ndarray,
    strata_variants: list[np.ndarray],
    treatment_draws: np.ndarray,
    n_arms: int,
) -> BatchFit:
    """Least squares of the working model for every row of every group of
    ``treatment_draws``, ``(groups, rows, n)``, under every entry of
    ``strata_variants``, each ``(groups, n)``; the rows of a group share
    its outcomes ``y[group]``.

    Returns one ``BatchFit``, variants first.  A stratum with no
    patients in a group contributes no column there, so a group whose
    patients all share one stratum is fit without a stratum term (one more
    residual degree of freedom).  A group with fewer observations than
    columns has invalid rows.

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

    The 0/1 arm masks behind the counts are built for one slice of groups
    at a time, at most ``MASK_CELLS`` assignments per arm, and lane
    temporaries are dropped once dead, so memory stays bounded for any
    batch.  Counts are exact and every floating-point sum runs in a fixed
    order per row, so a row's numbers depend on neither the other rows,
    the other groups, the other variants nor the slicing.
    """
    y = np.asarray(y, dtype=float)
    draws = np.asarray(treatment_draws)
    if draws.ndim != 3:
        raise ConfigurationError("treatment draws must be a (groups, rows, patients) array")
    if n_arms < 2:
        raise ConfigurationError(f"n_arms must be >= 2, got {n_arms}")
    n_groups, n_rows, n = draws.shape
    if y.shape != (n_groups, n):
        raise ConfigurationError("y length does not match treatment draws")
    strata = np.asarray(strata_variants)
    if strata.ndim != 3 or strata.shape[1:] != (n_groups, n):
        raise ConfigurationError("y, treatments, and strata must have equal length")
    levels, codes = np.unique(strata, return_inverse=True)
    n_lev, codes = levels.size, codes.reshape(strata.shape)
    n_var, n_free = len(strata), n_arms - 1

    # column v * n_lev + s of a group is level s of variant v; a level
    # absent from a group has n_s = 0 there, and inv_n = 0
    n_cols = n_var * n_lev
    column = codes + (np.arange(n_var) * n_lev)[:, None, None]
    bins = (column.transpose(1, 0, 2) + (np.arange(n_groups) * n_cols)[:, None, None]).ravel()
    n_s = np.bincount(bins, minlength=n_groups * n_cols).reshape(n_groups, n_var, n_lev)
    # bincount adds each bin's outcomes in patient order
    col_y = np.bincount(bins, np.repeat(y, n_var, axis=0).ravel(), n_groups * n_cols)
    col_y = col_y.reshape(n_groups, n_var, n_lev)
    indicators = np.concatenate([code[..., None] == np.arange(n_lev) for code in codes],
                                axis=-1).astype(float)

    # 0/1 arm masks of one slice of groups at a time, at most MASK_CELLS
    # assignments per arm.  One matmul per group of masks against its
    # indicators counts patients per arm, row and column exactly; einsum
    # sums each row's outcomes per arm in the same order for any slice
    count = np.empty((n_free, n_groups, n_rows, n_cols))
    arm_y = np.empty((n_free, n_groups, n_rows))
    step = max(1, MASK_CELLS // max(1, n_rows * n))
    for a in range(0, n_groups, step):
        b = min(a + step, n_groups)
        masks = np.empty((n_free, b - a, n_rows, n))
        for j in range(n_free):
            np.equal(draws[a:b], j + 1, out=masks[j], casting="unsafe")
        np.matmul(masks, indicators[None, a:b], out=count[:, a:b])
        np.einsum("jgrn,gn->jgr", masks, y[a:b], out=arm_y[:, a:b])
        del masks

    # lanes (variant, group, row), draws last: count is (level, arm, lane);
    # per-(variant, group) constants broadcast over rows
    count = count.reshape(n_free, n_groups, n_rows, n_var, n_lev)
    count = np.ascontiguousarray(count.transpose(4, 0, 3, 1, 2))
    inv_n = np.divide(1.0, n_s, out=np.zeros(n_s.shape), where=n_s > 0)
    inv_n = inv_n.transpose(2, 1, 0)[..., None]
    sum_y = col_y.transpose(2, 1, 0)[..., None]
    arm_total = count.sum(axis=0)
    share = count * inv_n[:, None]  # C_js / n_s

    within = np.einsum("gn,gn->g", y, y)[:, None] - sum_y[0] * sum_y[0] * inv_n[0]
    schur = -(count[0][:, None] * share[0])
    arm_xy = arm_y[:, None] - share[0] * sum_y[0]
    for s in range(1, n_lev):
        within -= sum_y[s] * sum_y[s] * inv_n[s]
        schur -= count[s][:, None] * share[s]
        arm_xy -= share[s] * sum_y[s]
    for j in range(n_free):
        schur[j, j] += arm_total[j]
    del count, share, sum_y

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
    # per (variant, group): residual df and the first present stratum's size
    present = n_s > 0
    df = n - present.sum(axis=2).T - n_free
    n_first = np.where(df >= 0, (n_s * (present.cumsum(axis=2) == 1)).max(axis=2).T, 0)
    valid = n_first[..., None] * pivots > RANK_TOL * n * arm_total.prod(axis=0)
    inv = np.zeros((n_free, n_free, *valid.shape))
    for j in range(n_free):
        inv[j, j] = 1.0 / chol[j][j]
        for i in range(j):
            acc = chol[j][i] * inv[i, i]
            for m in range(i + 1, j):
                acc = acc + chol[j][m] * inv[m, i]
            inv[j, i] = -acc * inv[j, j]
    del chol, schur

    # beta = S^-1 r = W' (W r); diag(S^-1) are W's squared column norms
    z = []
    for j in range(n_free):
        acc = inv[j, 0] * arm_xy[0]
        for m in range(1, j + 1):
            acc = acc + inv[j, m] * arm_xy[m]
        z.append(acc)
    beta = np.empty((n_free, *valid.shape))
    unscaled = np.empty((n_free, *valid.shape))
    for j in range(n_free):
        acc = inv[j, j] * z[j]
        var = inv[j, j] * inv[j, j]
        for m in range(j + 1, n_free):
            acc = acc + inv[m, j] * z[m]
            var = var + inv[m, j] * inv[m, j]
        beta[j] = acc
        unscaled[j] = var
    del inv, z
    rss = within - beta[0] * arm_xy[0]
    for j in range(1, n_free):
        rss -= beta[j] * arm_xy[j]
    sigma2 = np.maximum(rss, 0.0) / np.where(df > 0, df, np.nan)[..., None]
    se = np.sqrt(sigma2 * unscaled)

    arm_count = np.concatenate([n - arm_total.sum(axis=0, keepdims=True), arm_total])
    return BatchFit(df=df, arm_coef=beta, arm_se=se, sigma2=sigma2, valid=valid,
                    arm_count=arm_count)


@lru_cache(maxsize=64)
def _t_critical(alpha: float, df: int) -> float:
    return float(stdtrit(df, 1.0 - alpha / 2.0)) if df >= 1 else np.nan


def t_interval(
    estimate: np.ndarray,
    se: np.ndarray,
    df: np.ndarray,
    alpha: float,
    null_value: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Two-sided t intervals and tests, elementwise over broadcast arrays:
    ``(ci_low, ci_high, statistic, p_value)``.  A zero SE gives statistic 0
    and p = 1 when the estimate equals the null value, else an infinite
    statistic and p = 0.  Entries with ``df < 1`` are NaN."""
    df = np.asarray(df)
    crit = np.reshape([_t_critical(alpha, d) for d in df.ravel().tolist()], df.shape)
    gap = estimate - null_value
    zero = se == 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        stat = gap / se
        p = 2.0 * stdtr(df, -np.abs(stat))
        if zero.any():
            stat = np.where(zero, np.where(gap == 0.0, 0.0, np.inf * np.sign(gap)), stat)
            p = np.where(zero & (df >= 1), np.where(gap == 0.0, 1.0, 0.0), p)
    return estimate - crit * se, estimate + crit * se, stat, p
