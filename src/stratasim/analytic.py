"""Closed-form population summaries of the misclassified strata.

Within a reported stratum the population is a two-component mixture:
patients kept from the matching true stratum plus patients flipped in
from the other one.  For the nonignorable models each component is a
normal truncated on its trigger outcome: flipped patients to the
interval of ``misclassify.flip_interval``, the same rule that labels
simulated cohorts, and kept patients to its complement.  The moments of
the *other* arms follow from the bivariate normal regression

    E[y_a | y_b in I] = mu_a + rho * (E[y_b | I] - mu_b)
    var(y_a | y_b in I) = rho^2 * var(y_b | I) + (1 - rho^2) * sigma^2

since every pair of arms has correlation ``rho`` and common scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np
from scipy.stats import nct, norm

from .cohort import OutcomeModel
from .errors import ConfigurationError
from .misclassify import HIGH, LOW, TRIGGER_ARM, MisclassModel, flip_interval
from .randomizer import TrialDesign

_MIN_MASS = 1e-12


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
    must carry positive probability.
    """
    if sigma <= 0.0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    if not lower < upper:
        raise ConfigurationError(f"empty truncation interval ({lower}, {upper})")
    a = (lower - mu) / sigma
    b = (upper - mu) / sigma
    z = norm.cdf(b) - norm.cdf(a)
    if z < _MIN_MASS:
        raise ConfigurationError(
            f"truncation interval ({lower}, {upper}) has mass below {_MIN_MASS}"
        )
    phi_a = norm.pdf(a) if np.isfinite(a) else 0.0
    phi_b = norm.pdf(b) if np.isfinite(b) else 0.0
    a_term = a * phi_a if np.isfinite(a) else 0.0
    b_term = b * phi_b if np.isfinite(b) else 0.0
    lam = (phi_a - phi_b) / z
    var = sigma * sigma * (1.0 + (a_term - b_term) / z - lam * lam)
    return TruncMoments(mean=mu + sigma * lam, var=max(var, 0.0), prob=z)


@dataclass(frozen=True)
class MixtureComponent:
    """One origin stratum's contribution to a reported-stratum cell."""

    origin: int
    weight: float
    mean: float
    var: float


@dataclass(frozen=True)
class CellSummary:
    """Moments of one (reported stratum, arm) potential outcome."""

    mean: float
    sd: float
    components: tuple[MixtureComponent, ...]


@dataclass(frozen=True)
class StrataMixtureSummary:
    """Reported-strata weights plus per-(stratum, arm) mixture moments."""

    weights: tuple[float, float]
    cells: dict[tuple[int, int], CellSummary]

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


def reported_strata_mixture(
    model: MisclassModel,
    outcome: OutcomeModel,
    strata_probs: tuple[float, float] = (0.4, 0.6),
    arms: tuple[int, ...] = (0, 1),
) -> StrataMixtureSummary:
    """Mixture moments of the potential outcomes within reported strata.

    Every model sends exactly ``gamma_low`` of the lower stratum up and
    ``gamma_high`` of the upper stratum down, so the reported-stratum
    weights are shared; the component shapes differ by model kind.
    """
    if len(strata_probs) != 2:
        raise ConfigurationError("mixture summaries require exactly two strata")
    p_low, p_high = strata_probs
    kept_w = {LOW: p_low * (1.0 - model.gamma_low), HIGH: p_high * (1.0 - model.gamma_high)}
    flip_w = {LOW: p_low * model.gamma_low, HIGH: p_high * model.gamma_high}
    weights = (kept_w[LOW] + flip_w[HIGH], kept_w[HIGH] + flip_w[LOW])
    for reported, w in zip((LOW, HIGH), weights):
        if w < _MIN_MASS:
            raise ConfigurationError(f"reported stratum {reported} has weight {w} < {_MIN_MASS}")

    intervals: dict[int, tuple | None] = {LOW: None, HIGH: None}
    kept_ivs: dict[int, tuple | None] = {LOW: None, HIGH: None}
    if model.kind != "ignorable":
        for s in (LOW, HIGH):
            lower, upper = flip_interval(model, outcome, s)
            intervals[s] = (lower, upper)
            kept_ivs[s] = (upper, inf) if lower == -inf else (-inf, lower)

    cells: dict[tuple[int, int], CellSummary] = {}
    for reported in (LOW, HIGH):
        other = HIGH - reported
        parts = [
            (reported, kept_w[reported], kept_ivs[reported]),
            (other, flip_w[other], intervals[other]),
        ]
        for arm in arms:
            comps = []
            for origin, w, interval in parts:
                if w < _MIN_MASS:
                    continue
                m, v = _component_moments(origin, arm, interval, outcome)
                comps.append(MixtureComponent(origin=origin, weight=w, mean=m, var=v))
            total = sum(c.weight for c in comps)
            mean = sum(c.weight * c.mean for c in comps) / total
            second = sum(c.weight * (c.var + c.mean**2) for c in comps) / total
            cells[(reported, arm)] = CellSummary(
                mean=mean,
                sd=sqrt(max(second - mean * mean, 0.0)),
                components=tuple(
                    MixtureComponent(c.origin, c.weight / total, c.mean, c.var) for c in comps
                ),
            )
    return StrataMixtureSummary(weights=weights, cells=cells)


def expected_se(design: TrialDesign, sigma: float = 1.0, arm: int = 1) -> float:
    """Model SE of the arm coefficient at exact target arm counts.

    With residual scale ``sigma`` and arm sizes ``n_a = N w_a / sum(w)``,
    the arm-versus-control coefficient has SE sigma * sqrt(1/n_0 + 1/n_a).
    """
    alloc = design.allocation
    if not 1 <= arm < alloc.n_arms:
        raise ConfigurationError(f"arm must lie in 1..{alloc.n_arms - 1}, got {arm}")
    n0 = design.n_patients * alloc.target_share(0)
    na = design.n_patients * alloc.target_share(arm)
    return sigma * sqrt(1.0 / n0 + 1.0 / na)


def pooled_residual_sd(
    summary: StrataMixtureSummary, allocation_shares: tuple[float, ...] = (0.2, 0.4, 0.4)
) -> float:
    """Residual scale implied by the mixture cells under the additive model.

    Weighted average of the within-cell variances over reported strata and
    arms; arms beyond those summarized reuse the arm-1 cell (active arms
    share a distribution).
    """
    total = 0.0
    for reported, w in zip((LOW, HIGH), summary.weights):
        for arm, share in enumerate(allocation_shares):
            cell = summary.cells[(reported, min(arm, 1))]
            total += w * share * cell.sd**2
    return sqrt(total)


def noncentral_t_power(
    effect: float, se: float, df: int, alpha: float = 0.05
) -> float:
    """Exact two-sided t-test power at a fixed design.

    The test statistic follows a noncentral t with ``df`` degrees of
    freedom and noncentrality ``effect / se`` when the working model holds.
    """
    if se <= 0.0 or df < 1:
        raise ConfigurationError("power needs a positive SE and df >= 1")
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
    from .inference import _t_critical

    crit = _t_critical(alpha, df)
    ncp = effect / se
    return float(nct.sf(crit, df, ncp) + nct.cdf(-crit, df, ncp))
