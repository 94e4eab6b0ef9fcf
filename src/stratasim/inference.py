"""Model-based analysis of a randomized cohort.

The working model regresses the observed outcome on an intercept, a
stratum indicator, and one indicator per active arm:

    y ~ 1 + 1{stratum high} + 1{T = 1} + ... + 1{T = t}

with a single residual variance.  The target quantity, the only one, is
the arm-1 coefficient (treatment effect versus control).  One kernel,
``fit_batch``, fits many assignment rows of many trials at once, one
trial being a batch of one; its ``BatchFit`` carries only that
coefficient and its SE, and names why each invalid row failed.  Its
exact counts come from 0/1 operands laid out patients-last.
``t_interval`` gives t intervals on the residual degrees of freedom over
whole arrays; the test of a zero effect rejects where the interval
excludes 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from .errors import ConfigurationError, as_int

# normal equations whose Hadamard ratio is at most this count as singular
RANK_TOL = 1e-10
# patient assignments per arm mask slice in ``fit_batch``: one table2
# replication (1,001 rows of 80 patients)
MASK_CELLS = 1024 * 80
NO_RESIDUAL_DF = "no residual degrees of freedom for a t interval"
# a valid row with a t statistic that is not finite; reported for observed rows
DEGENERATE_OBSERVED = "observed assignment gives a degenerate fit"


@dataclass(frozen=True)
class BatchFit:
    """The arm-1 coefficient of every assignment row of every group under
    every strata variant.

    Arrays are laid out draws-last, ``(variants, groups, rows)`` after any
    leading axis.  ``coef``, its SE ``se`` and ``valid`` hold one entry per
    row; ``arm_count`` the patients per arm, ``(n_arms, variants, groups,
    rows)``, so an invalid row can name its empty arm; ``df`` the residual
    degrees of freedom, ``(variants, groups)``, negative where the
    observations cannot identify the columns.  The intercept, stratum and
    other arm terms are partialled out and never formed.  The numbers of an
    invalid row are meaningless.
    """

    df: np.ndarray
    coef: np.ndarray
    se: np.ndarray
    valid: np.ndarray
    arm_count: np.ndarray

    def faults(self) -> np.ndarray:
        """Why each row is not usable, ``""`` exactly where ``tstats`` finds
        it usable: an object array shaped like ``valid``.  An invalid row
        names its empty arm, its unidentified columns or its rank drop; a
        valid one ``NO_RESIDUAL_DF`` at ``df == 0``, else
        ``DEGENERATE_OBSERVED`` for a t statistic that is not finite."""
        out = np.full(self.valid.shape, "", dtype=object)
        out[~self.valid] = "design matrix is rank deficient after column drops"
        empty = (self.arm_count == 0) & ~self.valid
        first = np.argmax(empty, axis=0)
        for arm in range(len(empty)):
            out[empty[arm] & (first == arm)] = f"arm {arm} has no patients"
        n = int(self.arm_count.reshape(len(empty), -1)[:, 0].sum()) if self.valid.size else 0
        for df in np.unique(self.df[self.df < 0]):
            out[self.df == df] = f"{n} observations cannot identify {n - df} columns"
        out[(out == "") & (self.df == 0)[..., None]] = NO_RESIDUAL_DF
        out[(out == "") & ~self.tstats()[1]] = DEGENERATE_OBSERVED
        return out

    def tstats(self) -> tuple[np.ndarray, np.ndarray]:
        """``(tstats, usable)`` of the arm-1 coefficient, ``(variants, groups,
        rows)``, the one rule on rows: usable where valid with a finite t,
        which takes ``df > 0``; NaN elsewhere."""
        with np.errstate(invalid="ignore", divide="ignore"):
            stats = self.coef / self.se
        usable = self.valid & np.isfinite(stats)
        return np.where(usable, stats, np.nan), usable


def fit_batch(
    y: np.ndarray,
    strata_variants: list[np.ndarray],
    treatment_draws: np.ndarray,
    n_arms: int,
) -> BatchFit:
    """The working model's arm-1 coefficient for every row of every group
    of ``treatment_draws``, ``(groups, rows, n)``, under every entry of
    ``strata_variants``, each ``(groups, n)``; the rows of a group share
    its outcomes ``y[group]``.

    Stratum labels are the codes of ``errors.as_codes``, read as they are:
    ``max + 1`` levels.  Returns one ``BatchFit``, variants first.  A
    stratum with no patients in a group contributes no column there, and
    exact zeros to every sum, so a group whose patients all share one
    stratum is fit without a stratum term (one more residual degree of
    freedom).  A group with fewer observations than columns has invalid rows.

    Frisch-Waugh: with one mean per present stratum the stratum block of
    the normal equations is ``diag(n_s)``, so each row reduces to the
    ``(n_arms - 1)``-square Schur complement

        S = diag(c) - C diag(1 / n_s) C'

    of its exact arm-by-stratum counts ``C`` (arm totals ``c``), factored
    as ``L L'`` in loops over arms on vectors laid out draws-last, with arm
    1 pivoted last.  One forward substitution ``z = L^-1 r`` of the arm
    sums ``r`` of the residuals, the outcomes less their cell means, then
    gives arm 1's coefficient ``z_last / L_last`` and its entry ``1 /
    L_last^2`` of ``S^-1``, with ``L_last`` the last pivot, and the
    residual sum of squares ``within - z'z``, ``within`` summing squared
    residuals.  Sums of residuals cancel no close terms at any location.  A row is
    invalid when the Hadamard ratio ``det(X'X) / prod(diag(X'X))`` of the
    original normal equations, which equals ``(n_0 / n) prod(L_jj^2) /
    prod(c_j)`` with ``n_0`` the size of the first present stratum, is at
    most ``RANK_TOL`` (an empty arm zeroes a pivot, collinear columns
    shrink one), or a pivot is not positive.

    The 0/1 arm masks behind the counts are built for one slice of groups
    at a time, and lane temporaries are dropped once dead.  A slice holds
    at most ``MASK_CELLS`` assignments per arm, or one whole group where a
    group alone holds more: a group is never split, so its size bounds
    memory, and the harness caps it at ``MAX_REPLICATION_CELLS``.
    Counts are exact and every floating-point sum runs in a fixed order
    per row, so a row's numbers depend on neither the other rows, the
    other groups, the other variants nor the slicing.
    """
    y = np.asarray(y, dtype=float)
    draws = np.asarray(treatment_draws)
    if draws.ndim != 3:
        raise ConfigurationError("treatment draws must be a (groups, rows, patients) array")
    n_arms = as_int("n_arms", n_arms, 2)
    n_groups, n_rows, n = draws.shape
    if y.shape != (n_groups, n):
        raise ConfigurationError("y length does not match treatment draws")
    codes = np.asarray(strata_variants)
    if codes.ndim != 3 or codes.shape[1:] != (n_groups, n):
        raise ConfigurationError("y, treatments, and strata must have equal length")
    n_lev, n_var, n_free = int(codes.max()) + 1, len(codes), n_arms - 1

    # column v * n_lev + s of a group is level s of variant v; a level
    # absent from a group has n_s = 0 there, and inv_n = 0
    n_cols = n_var * n_lev
    column = codes + (np.arange(n_var) * n_lev)[:, None, None]
    # bins in (variant, group, patient) order: bincount adds each bin's
    # outcomes in patient order
    bins = (column + (np.arange(n_groups) * n_cols)[:, None]).ravel()
    n_s = np.bincount(bins, minlength=n_groups * n_cols)
    col_y = np.bincount(bins, np.broadcast_to(y, (n_var, *y.shape)).ravel(), n_groups * n_cols)
    # (variant, group, patient) outcomes less their cells' means; no cell read is empty
    resid = y - (col_y / np.maximum(n_s, 1))[bins].reshape(n_var, n_groups, n)
    n_s = n_s.reshape(n_groups, n_var, n_lev)
    # the (groups, n, columns) 0/1 matmul operand, written along patients:
    # one index write puts each patient's 1 in its column of every variant
    indicators = np.zeros((n_groups * n, n_cols))
    indicators[np.arange(n_groups * n), column.reshape(n_var, -1)] = 1.0
    indicators = indicators.reshape(n_groups, n, n_cols)

    # 0/1 arm masks of one slice of groups at a time, at most MASK_CELLS
    # assignments per arm or one whole group.  One matmul per group of masks against its
    # indicators counts patients per arm, row and column exactly; einsum
    # sums each row's residuals per arm in the same order for any slice
    count = np.empty((n_free, n_groups, n_rows, n_cols))
    arm_xy = np.empty((n_free, n_var, n_groups, n_rows))
    step = max(1, MASK_CELLS // max(1, n_rows * n))
    for a in range(0, n_groups, step):
        b = min(a + step, n_groups)
        masks = np.empty((n_free, b - a, n_rows, n))
        for j in range(n_free):
            np.equal(draws[a:b], j + 1, out=masks[j], casting="unsafe")
        np.matmul(masks, indicators[None, a:b], out=count[:, a:b])
        np.einsum("jgrn,vgn->jvgr", masks, resid[:, a:b], out=arm_xy[:, :, a:b])
        del masks

    # lanes (variant, group, row), draws last: count is (level, arm, lane);
    # per-(variant, group) constants broadcast over rows
    count = count.reshape(n_free, n_groups, n_rows, n_var, n_lev)
    count = np.ascontiguousarray(count.transpose(4, 0, 3, 1, 2))
    inv_n = np.divide(1.0, n_s, out=np.zeros(n_s.shape), where=n_s > 0)
    inv_n = inv_n.transpose(2, 1, 0)[..., None]
    arm_total = count.sum(axis=0)

    within = np.einsum("vgn,vgn->vg", resid, resid)[..., None]
    # C_js C_ks / n_s, one stratum's share C_js / n_s at a time
    schur = -(count[0][:, None] * (count[0] * inv_n[0]))
    for s in range(1, n_lev):
        schur -= count[s][:, None] * (count[s] * inv_n[s])
    for j in range(n_free):
        schur[j, j] += arm_total[j]
    del count, resid

    # P S P' = L L' with arm 1 pivoted last, and z = L^-1 P r in the same
    # loop.  A pivot that is not positive zeroes the product of pivots, so
    # its lane is invalid, and is replaced by 1 so the arithmetic stays
    # finite
    order = [*range(1, n_free), 0]
    chol = [[None] * n_free for _ in range(n_free)]
    z = []
    pivots = 1.0
    for j, row in enumerate(order):
        for i, col in enumerate(order[:j + 1]):
            acc = schur[row, col]
            for m in range(i):
                acc = acc - chol[j][m] * chol[i][m]
            if i < j:
                chol[j][i] = acc / chol[i][i]
            else:
                pivots = pivots * np.maximum(acc, 0.0)
                chol[j][j] = np.sqrt(np.where(acc > 0.0, acc, 1.0))
        acc = arm_xy[row]
        for m in range(j):
            acc = acc - chol[j][m] * z[m]
        z.append(acc / chol[j][j])
    last = chol[-1][-1]
    del chol, schur, arm_xy
    # per (variant, group): residual df and the first present stratum's size
    present = n_s > 0
    df = n - present.sum(axis=2).T - n_free
    n_first = np.where(df >= 0, (n_s * (present.cumsum(axis=2) == 1)).max(axis=2).T, 0)
    valid = n_first[..., None] * pivots > RANK_TOL * n * arm_total.prod(axis=0)

    # arm 1's coefficient is the last entry of L'^-1 z, its entry of S^-1
    # is 1 / last^2, and r' S^-1 r = z'z
    rss = within - sum(zj * zj for zj in z)
    sigma = np.sqrt(np.maximum(rss, 0.0) / np.where(df > 0, df, np.nan)[..., None])
    arm_count = np.concatenate([n - arm_total.sum(axis=0, keepdims=True), arm_total])
    return BatchFit(df=df, coef=z[-1] / last, se=sigma / last, valid=valid, arm_count=arm_count)


def t_interval(
    estimate: np.ndarray,
    se: np.ndarray,
    df: np.ndarray,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided ``1 - alpha`` t intervals, elementwise over broadcast
    arrays or floats: ``(ci_low, ci_high)``.  Entries with ``df <= 0`` are
    NaN.  One critical value is computed per distinct ``df``."""
    levels, index = np.unique(df, return_inverse=True)
    # stdtrit is NaN at df <= 0, without a warning
    crit = stdtrit(levels, 1.0 - alpha / 2.0)[index].reshape(np.shape(df))
    return estimate - crit * se, estimate + crit * se
