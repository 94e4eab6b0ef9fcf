"""Reference implementations that pin test expectations.

Everything here favors transparency over speed: exact rational
enumeration, quadrature, or brute-force simulation.  When production
code and this module disagree, suspect production first.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import integrate


# ---------------------------------------------------------------- sampling

def subgroup_moments_exact(n: int, k: int, r: int) -> tuple[Fraction, Fraction]:
    """Mean and variance of (marked in sample)/r for a size-r sample drawn
    without replacement from n items of which k are marked, summed over the
    exact hypergeometric pmf with rational arithmetic."""
    denom = math.comb(n, r)
    mean = Fraction(0)
    second = Fraction(0)
    for x in range(max(0, r - (n - k)), min(k, r) + 1):
        w = Fraction(math.comb(k, x) * math.comb(n - k, r - x), denom)
        share = Fraction(x, r)
        mean += w * share
        second += w * share * share
    return mean, second - mean * mean


def partial_block_count_var(pattern, treated_arms, remainder: int) -> Fraction:
    """Variance of the treated count among the first ``remainder`` codes of
    a uniformly permuted block, by enumerating every placement of the
    treated codes' positions."""
    block = len(pattern)
    treated = set(int(a) for a in treated_arms)
    k_block = sum(1 for code in pattern if int(code) in treated)
    counts: dict[int, int] = {}
    n_sets = 0
    for positions in itertools.combinations(range(block), k_block):
        x = sum(1 for pos in positions if pos < remainder)
        counts[x] = counts.get(x, 0) + 1
        n_sets += 1
    mean = Fraction(sum(x * c for x, c in counts.items()), n_sets)
    second = Fraction(sum(x * x * c for x, c in counts.items()), n_sets)
    return second - mean * mean


def subgroup_proportion_draws(
    stratum_size: int,
    block_size: int,
    allocation: tuple[int, ...],
    n_subgroup: int,
    treated_arm: int,
    n_draws: int,
    seed: int,
    chunk: int = 20_000,
) -> np.ndarray:
    """Simulated subgroup treated proportions: block-randomize one stratum,
    then average the treated indicator over a fresh uniformly random
    subgroup of fixed size on every draw."""
    from stratasim.randomizer import AllocationRatio, TrialDesign, batch_block_assignments

    design = TrialDesign(
        n_patients=stratum_size,
        strata_probs=(1.0, 0.0),
        allocation=AllocationRatio(allocation),
        block_size=block_size,
    )
    rng = np.random.Generator(np.random.Philox(seed))
    reported = np.zeros(stratum_size, dtype=np.int8)
    out = np.empty(n_draws)
    done = 0
    while done < n_draws:
        m = min(chunk, n_draws - done)
        treated = batch_block_assignments(design, reported, m, rng) == treated_arm
        members = np.argsort(rng.random((m, stratum_size)), axis=1)[:, :n_subgroup]
        rows = np.arange(m)[:, None]
        out[done:done + m] = treated[rows, members].mean(axis=1)
        done += m
    return out


def sequential_block_assignment(design, reported_strata, rng) -> np.ndarray:
    """Deal treatment codes one patient at a time in enrollment order.

    Each reported stratum keeps its own queue of codes; when the queue runs
    dry it opens a freshly permuted block whose length is drawn uniformly
    from ``design.block_sizes`` (``block_size`` when that is unset).  This
    is the textbook permuted-block procedure the vectorized sampler must
    match in law."""
    from stratasim.randomizer import block_pattern

    sizes = design.block_sizes or (design.block_size,)
    queues: dict[int, list[int]] = {}
    out = np.empty(len(reported_strata), dtype=np.int8)
    for i, stratum in enumerate(np.asarray(reported_strata).tolist()):
        queue = queues.setdefault(stratum, [])
        if not queue:
            size = sizes[int(rng.integers(len(sizes)))]
            queue.extend(rng.permutation(block_pattern(design.allocation, size)).tolist())
        out[i] = queue.pop(0)
    return out


# ------------------------------------------------------------- regression

def _invert_exact(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    k = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(k)]
           for i, row in enumerate(matrix)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def ols_exact(rows, y):
    """Least squares by rational Gauss-Jordan on the normal equations.

    ``rows`` is a full-column-rank design as nested ints/Fractions and
    ``y`` the responses.  Returns (beta, rss, unscaled) where ``unscaled``
    is the diagonal of (X'X)^-1, all exact."""
    rows = [[Fraction(v) for v in row] for row in rows]
    y = [Fraction(v) for v in y]
    k = len(rows[0])
    xtx = [[sum(r[i] * r[j] for r in rows) for j in range(k)] for i in range(k)]
    xty = [sum(r[i] * v for r, v in zip(rows, y)) for i in range(k)]
    inv = _invert_exact(xtx)
    beta = [sum(inv[i][j] * xty[j] for j in range(k)) for i in range(k)]
    rss = sum((v - sum(b * c for b, c in zip(beta, r))) ** 2 for r, v in zip(rows, y))
    return beta, rss, [inv[i][i] for i in range(k)]


def t_two_sided_p(stat: float, df: int) -> float:
    """Two-sided t-distribution p-value by direct quadrature of the
    unnormalized density."""
    def pdf(u: float) -> float:
        return (1.0 + u * u / df) ** (-(df + 1) / 2.0)

    norm, _ = integrate.quad(pdf, -np.inf, np.inf)
    tail, _ = integrate.quad(pdf, abs(stat), np.inf)
    return min(1.0, 2.0 * tail / norm)


def t_critical_bisect(alpha: float, df: int) -> float:
    """Two-sided t critical value by bisecting the quadrature p-value."""
    lo, hi = 0.0, 1e3
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if t_two_sided_p(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def two_sample_t(y0, y1) -> float:
    """Pooled-variance two-sample t statistic for mean(y1) - mean(y0)."""
    y0 = np.asarray(y0, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    n0, n1 = y0.size, y1.size
    rss = ((y0 - y0.mean()) ** 2).sum() + ((y1 - y1.mean()) ** 2).sum()
    sigma2 = rss / (n0 + n1 - 2)
    return (y1.mean() - y0.mean()) / math.sqrt(sigma2 * (1.0 / n0 + 1.0 / n1))


def noncentral_t_power_sim(effect: float, se: float, df: int, alpha: float,
                           tcrit: float, n_draws: int, seed: int) -> float:
    """Two-sided t-test power simulated from the statistic's definition:
    (Z + effect/se) / sqrt(chi2_df / df) against a given critical value."""
    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.standard_normal(n_draws) + effect / se
    denom = np.sqrt(rng.chisquare(df, n_draws) / df)
    return float((np.abs(z / denom) > tcrit).mean())


# ------------------------------------------------------ misclassification

def nonignorable_reported(cohort, model) -> np.ndarray:
    """Reported labels under a nonignorable model from the quantile
    cutoffs written out per model: nonignorable1 moves lower patients whose
    control outcome reaches its upper ``gamma_low`` quantile and upper
    patients whose arm-1 outcome falls to its lower ``gamma_high``
    quantile; nonignorable2 reverses both tails."""
    from scipy.stats import norm

    strata = cohort.true_strata
    low_mean = cohort.outcome.mean(0, 0)
    high_mean = cohort.outcome.mean(1, 1)
    sigma = cohort.outcome.sigma
    if model.kind == "nonignorable1":
        q_low = low_mean + sigma * norm.ppf(1.0 - model.gamma_low)
        q_high = high_mean + sigma * norm.ppf(model.gamma_high)
        flip = np.where(
            strata == 0,
            cohort.potentials[:, 0] >= q_low,
            cohort.potentials[:, 1] <= q_high,
        )
    else:
        q_low = low_mean + sigma * norm.ppf(model.gamma_low)
        q_high = high_mean + sigma * norm.ppf(1.0 - model.gamma_high)
        flip = np.where(
            strata == 0,
            cohort.potentials[:, 0] <= q_low,
            cohort.potentials[:, 1] >= q_high,
        )
    return np.where(flip, 1 - strata, strata).astype(np.int8)


# ------------------------------------------------------------ truncation

def truncnorm_moments_quad(mu: float, sigma: float, lower: float, upper: float):
    """Truncated normal mean, variance, and interval probability by
    quadrature of the raw density."""
    def pdf(u: float) -> float:
        return math.exp(-0.5 * ((u - mu) / sigma) ** 2)

    mass, _ = integrate.quad(pdf, lower, upper)
    m1, _ = integrate.quad(lambda u: u * pdf(u), lower, upper)
    m2, _ = integrate.quad(lambda u: u * u * pdf(u), lower, upper)
    mean = m1 / mass
    prob = mass / (sigma * math.sqrt(2.0 * math.pi))
    return mean, m2 / mass - mean * mean, prob


def mixture_moments_sim(model, outcome, strata_probs, n_draws: int, seed: int,
                        chunk: int = 1_000_000):
    """Reported-stratum potential-outcome moments by brute force.

    Draws strata and potentials with the generative samplers and groups
    the control and first-active columns by the reported stratum,
    bypassing the closed-form mixture algebra entirely.  Returns
    ({(reported, arm): (mean, sd, count, fourth_central_moment)},
    reported_low_share); the fourth moment supports exact Monte Carlo
    standard errors for the sd estimates."""
    from stratasim.cohort import Cohort, potential_outcomes
    from stratasim.misclassify import reported_strata

    rng = np.random.Generator(np.random.Philox(seed))
    acc = {(s, a): [0, 0.0, 0.0, 0.0, 0.0] for s in (0, 1) for a in (0, 1)}
    left = n_draws
    while left > 0:
        m = min(chunk, left)
        left -= m
        strata = (rng.random(m) >= strata_probs[0]).astype(np.int8)
        pot = potential_outcomes(strata, outcome, rng.standard_normal((m, 4)))
        cohort = Cohort(true_strata=strata, potentials=pot, outcome=outcome)
        rng_mis = rng if model.kind == "ignorable" else None
        rep = reported_strata(cohort, model, rng_mis)
        for s in (0, 1):
            mask = rep == s
            for a in (0, 1):
                # accumulate around the cell's design mean for stability
                col = pot[mask, a] - outcome.mean(s, a)
                cell = acc[(s, a)]
                sq = col * col
                cell[0] += col.size
                cell[1] += float(col.sum())
                cell[2] += float(sq.sum())
                cell[3] += float((sq * col).sum())
                cell[4] += float((sq * sq).sum())
    out = {}
    for (s, a), (n, q1, q2, q3, q4) in acc.items():
        d = q1 / n
        var = q2 / n - d * d
        m4 = q4 / n - 4.0 * d * q3 / n + 6.0 * d * d * q2 / n - 3.0 * d**4
        out[(s, a)] = (outcome.mean(s, a) + d, math.sqrt(max(var, 0.0)), n, m4)
    low_share = (acc[(0, 0)][0]) / n_draws
    return out, low_share
