"""Closed-form population summaries of the misclassified strata.

Within a reported stratum the population is a two-component mixture:
patients kept from the matching true stratum plus patients flipped in
from the other one, the cells of ``cell_table``.  For the nonignorable
models each cell is a normal truncated on its trigger outcome: flipped
patients to the interval of ``misclassify.flip_interval``, the same rule
that labels simulated cohorts, and kept patients to its complement.  The
moments of the *other* arms follow from the bivariate normal regression

    E[y_a | y_b in I] = mu_a + rho * (E[y_b | I] - mu_b)
    var(y_a | y_b in I) = rho^2 * var(y_b | I) + (1 - rho^2) * sigma^2

since every pair of arms has correlation ``rho`` and common scale.
Distribution functions come from ``scipy.special`` alone: ``ndtr``,
``nctdtr``, and ``_nct_sf``, the survival function behind ``nct.sf``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf, pi, sqrt

import numpy as np
from scipy.special import nctdtr, ndtr, stdtrit
from scipy.special._ufuncs import _nct_sf

from .cohort import OutcomeModel
from .errors import ConfigurationError, as_instance, as_int, as_real
from .misclassify import HIGH, LOW, TRIGGER_ARM, MisclassModel, check_two_strata, flip_interval
from .randomizer import TrialDesign, paper_design

_MIN_MASS = 1e-12
# continued-fraction terms of a tail variance; they converge slowest at 1 sd
_TAIL_TERMS = 400
_SQRT_2PI = sqrt(2.0 * pi)
# the design of every closed form not given one
_PAPER_DESIGN = paper_design()


@dataclass(frozen=True)
class TruncMoments:
    """Mean and variance of a normal restricted to an interval."""

    mean: float
    var: float
    prob: float


def truncnorm_moments(
    mu: float, sigma: float, lower: float = -inf, upper: float = inf
) -> TruncMoments:
    """Moments of N(mu, sigma^2) truncated to (lower, upper).

    Standard phi/Phi formulas on the standardized bounds; the interval
    must carry positive probability.  Above the mean the mass is taken in
    upper tails, ``Phi(-a) - Phi(-b)``, which keep their precision far out.
    The variance of a one-sided tail beyond 1 sd comes from a continued
    fraction, within 1e-15 relative of mpmath.
    """
    mu, sigma = as_real("mu", mu), as_real("sigma", sigma, 0.0)
    lower = as_real("lower", lower, -inf, inf, "[]")
    upper = as_real("upper", upper, -inf, inf, "[]")
    if not lower < upper:
        raise ConfigurationError(f"empty truncation interval ({lower}, {upper})")
    a = (lower - mu) / sigma
    b = (upper - mu) / sigma
    z = ndtr(-a) - ndtr(-b) if a > 0.0 else ndtr(b) - ndtr(a)
    if z < _MIN_MASS:
        raise ConfigurationError(
            f"truncation interval ({lower}, {upper}) has mass below {_MIN_MASS}"
        )
    phi_a, phi_b = np.exp(-a * a / 2.0) / _SQRT_2PI, np.exp(-b * b / 2.0) / _SQRT_2PI
    a_term = a * phi_a if np.isfinite(a) else 0.0
    b_term = b * phi_b if np.isfinite(b) else 0.0
    lam = (phi_a - phi_b) / z
    # a one-sided tail beyond 1 sd, taken as the upper tail past ``t``: its
    # inverse Mills ratio is lam = t + 1 / K, with the continued fraction
    # K = t + e, e = 2 / (t + 3 / (t + 4 / ...)), so 1 + t lam - lam^2 is
    # (K e - 1) / K^2, which subtracts no close terms
    t = a if b == inf else -b if a == -inf else 0.0
    if t > 1.0:
        e = 0.0
        for k in range(_TAIL_TERMS, 1, -1):
            e = k / (t + e)
        var = ((t + e) * e - 1.0) / ((t + e) * (t + e))
    else:
        var = 1.0 + (a_term - b_term) / z - lam * lam
    return TruncMoments(mean=mu + sigma * lam, var=sigma * sigma * max(var, 0.0), prob=z)


@dataclass(frozen=True)
class CellSummary:
    """Moments of one (reported stratum, arm) potential outcome."""

    mean: float
    sd: float


@dataclass(frozen=True)
class StrataMixtureSummary:
    """Reported-strata weights and per-(stratum, arm) mixture moments of ``design``."""

    weights: tuple[float, float]
    cells: dict[tuple[int, int], CellSummary]
    design: TrialDesign

    def cell(self, reported: int, arm: int) -> CellSummary:
        return self.cells[(reported, arm)]


def _component_moments(
    origin: int,
    arm: int,
    interval: tuple[float, float] | None,
    outcome: OutcomeModel,
) -> tuple[float, float]:
    """Moments of y_arm for origin-stratum patients conditioned on the
    trigger outcome lying in ``interval`` (None means no conditioning)."""
    mu_arm = outcome.mean(origin, arm)
    sigma2 = outcome.sigma**2
    if interval is None:
        return mu_arm, sigma2
    trigger_arm = TRIGGER_ARM[origin]
    mu_trig = outcome.mean(origin, trigger_arm)
    tm = truncnorm_moments(mu_trig, outcome.sigma, *interval)
    if arm == trigger_arm:
        return tm.mean, tm.var
    rho = outcome.rho
    return mu_arm + rho * (tm.mean - mu_trig), rho * rho * tm.var + (1.0 - rho * rho) * sigma2


def cell_table(
    model: MisclassModel, outcome: OutcomeModel, design: TrialDesign = _PAPER_DESIGN
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(weight, mean, var)`` of every (true ``s``, reported ``r``, arm ``a``)
    cell of ``design``, indexed by codes: ``weight[s, r]`` is the share of
    true stratum ``s`` reported as ``r``, ``p_s * gamma_s`` when ``r != s``,
    else ``p_s * (1 - gamma_s)``; ``mean[s, r, a]`` and ``var[s, r, a]`` are
    the moments of arm ``a``'s potential outcome there, for arms 0 and 1.  A
    nonignorable model truncates a flipped cell to ``flip_interval`` and a
    kept cell to its complement.  A cell whose share is below ``_MIN_MASS``
    has no moments: NaN.  ``model`` must be a ``MisclassModel``, and the
    design and outcome pass ``check_two_strata``."""
    as_instance("model", model, MisclassModel)
    check_two_strata(design, outcome)
    rates = (model.gamma_low, model.gamma_high)
    weight = np.array([[p * (1.0 - g) if r == s else p * g for r in (LOW, HIGH)]
                       for s, (p, g) in enumerate(zip(design.strata_probs, rates))])
    mean, var = np.full((2, 2, 2), np.nan), np.full((2, 2, 2), np.nan)
    for s, r in itertools.product((LOW, HIGH), repeat=2):
        if weight[s, r] < _MIN_MASS:
            continue
        interval = None
        if model.kind != "ignorable":
            lower, upper = flip_interval(model, outcome, s)
            kept = (upper, inf) if lower == -inf else (-inf, lower)
            interval = kept if r == s else (lower, upper)
        for arm in (0, 1):
            mean[s, r, arm], var[s, r, arm] = _component_moments(s, arm, interval, outcome)
    return weight, mean, var


def reported_strata_mixture(
    model: MisclassModel,
    outcome: OutcomeModel,
    design: TrialDesign = _PAPER_DESIGN,
) -> StrataMixtureSummary:
    """Mixture moments of the potential outcomes within the reported strata
    of ``design``, reduced from ``cell_table``: reported stratum ``r`` weighs
    ``weight[r, r] + weight[1 - r, r]``, and each (``r``, arm) cell mixes
    the table cells of ``r`` that have moments, kept patients first.  Every
    model flips the same shares, so only the cell shapes differ by kind."""
    weight, mean, var = cell_table(model, outcome, design)
    weights = tuple(float(weight[r, r] + weight[HIGH - r, r]) for r in (LOW, HIGH))
    cells: dict[tuple[int, int], CellSummary] = {}
    for r in (LOW, HIGH):
        origins = [s for s in (r, HIGH - r) if not np.isnan(mean[s, r, 0])]
        if not origins:
            raise ConfigurationError(f"reported stratum {r} has no cell of weight >= {_MIN_MASS}")
        w = weight[origins, r]
        for arm in (0, 1):
            m, v = mean[origins, r, arm], var[origins, r, arm]
            mu, second = (w * m).sum() / w.sum(), (w * (v + m**2)).sum() / w.sum()
            cells[(r, arm)] = CellSummary(float(mu), sqrt(max(second - mu * mu, 0.0)))
    return StrataMixtureSummary(weights=weights, cells=cells, design=design)


def expected_se(design: TrialDesign, sigma: float = 1.0) -> float:
    """Model SE of the arm-1 coefficient at exact target arm counts.

    With residual scale ``sigma`` and arm sizes ``n_a = N w_a / sum(w)``,
    the arm-1-versus-control coefficient has SE sigma * sqrt(1/n_0 + 1/n_1).
    ``sigma`` is a real above 0.
    """
    sigma = as_real("sigma", sigma, 0.0)
    alloc = as_instance("design", design, TrialDesign).allocation
    n0 = design.n_patients * alloc.target_share(0)
    n1 = design.n_patients * alloc.target_share(1)
    return sigma * sqrt(1.0 / n0 + 1.0 / n1)


def pooled_residual_sd(summary: StrataMixtureSummary) -> float:
    """Residual scale implied by the mixture cells under the additive model.

    Weighted average of the within-cell variances over reported strata and
    the arms of the summary's design, each at its target share; arms
    beyond those summarized reuse the arm-1 cell (active arms share a
    distribution).
    """
    alloc = as_instance("summary", summary, StrataMixtureSummary).design.allocation
    total = 0.0
    for reported, w in zip((LOW, HIGH), summary.weights):
        for arm in range(alloc.n_arms):
            cell = summary.cells[(reported, min(arm, 1))]
            total += w * alloc.target_share(arm) * cell.sd**2
    return sqrt(total)


def noncentral_t_power(
    effect: float, se: float, df: int, alpha: float = 0.05
) -> float:
    """Exact two-sided t-test power at a fixed design.

    The test statistic follows a noncentral t with ``df`` degrees of
    freedom and noncentrality ``effect / se`` when the working model holds.
    Power is even in the noncentrality; at ``-|effect / se|`` neither tail
    comes back NaN, as ``nctdtr``'s lower tail can at a large positive one.
    """
    effect, se = as_real("effect", effect), as_real("se", se, 0.0)
    alpha, df = as_real("alpha", alpha, 0.0, 1.0), as_int("df", df, 1)
    crit = float(stdtrit(df, 1.0 - alpha / 2.0))
    ncp = -abs(effect / se)
    return float(_nct_sf(crit, df, ncp) + nctdtr(df, ncp, -crit))
