"""Monte Carlo scenario runner.

One replication draws a cohort, misclassifies its strata, randomizes
within the reported strata, and analyzes the observed outcomes twice:
once adjusting for the true ("corrected") strata and once for the
reported ones.  Randomization-based p-values are optional per scenario.

Reproducibility: replication ``r`` of a scenario seeds every stream from
``SeedSequence(seed, spawn_key=(r,))`` with one child per purpose, so
results are independent of chunking and thread count, and aggregation
runs over records held in replication order.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cohort import OutcomeModel, observed_outcomes, sample_cohort
from .errors import ConfigurationError, DegenerateDesignError, as_int
from .inference import ci_and_test, fit_batch
from .misclassify import MisclassModel, reported_strata
from .randomizer import AllocationRatio, TrialDesign, batch_block_assignments, randomize_cohort
from .rerandomize import randomization_result

DEFAULT_SEED = 2014
CORRECTED = "corrected"
REPORTED = "reported"

# flag a scenario when more than this share of its replications failed, or
# of one variant's randomization tests discarded too many null draws
WARN_SHARE = 0.001


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: design, outcome law, misclassification,
    and run sizes.  ``n_replications`` must be at least 1 and ``seed``
    nonnegative, all three counts integers; ``rb_draws = 0`` disables
    randomization testing; ``alpha`` lies in (0, 1)."""

    design: TrialDesign
    outcome: OutcomeModel
    misclass: MisclassModel
    n_replications: int
    rb_draws: int = 0
    seed: int = DEFAULT_SEED
    alpha: float = 0.05
    analyze_reported: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        for field in ("n_replications", "rb_draws", "seed"):
            object.__setattr__(self, field, as_int(field, getattr(self, field)))
        if self.n_replications < 1:
            raise ConfigurationError(
                f"n_replications must be >= 1, got {self.n_replications}"
            )
        if self.rb_draws < 0:
            raise ConfigurationError(f"rb_draws must be >= 0, got {self.rb_draws}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if not (isinstance(self.alpha, numbers.Real) and 0.0 < self.alpha < 1.0):
            raise ConfigurationError(f"alpha must lie in (0, 1), got {self.alpha!r}")

    @property
    def rb_enabled(self) -> bool:
        return self.rb_draws > 0


@dataclass(frozen=True)
class VariantRecord:
    """One strata variant's analysis results within a replication."""

    estimate: float
    se: float
    covered: bool
    p_value: float
    rb_p: float = float("nan")
    rb_discarded: int = 0
    rb_flagged: bool = False


@dataclass(frozen=True)
class ReplicationRecord:
    rep_index: int
    valid: bool
    corrected: VariantRecord | None = None
    reported: VariantRecord | None = None
    error: str = ""


@dataclass(frozen=True)
class VariantMetrics:
    """Aggregates for one strata variant across valid replications."""

    strata_used: str
    n: int
    bias: float
    mean_estimate: float
    sd_estimate: float
    coverage: float
    mean_se: float
    reject_rate: float
    mc_se_bias: float
    mc_se_coverage: float
    mc_se_reject: float
    rb_reject_rate: float | None = None
    mc_se_rb_reject: float | None = None
    rb_flagged: int = 0


@dataclass(frozen=True)
class ScenarioMetrics:
    config: ScenarioConfig
    n_valid: int
    n_invalid: int
    warning: bool
    corrected: VariantMetrics
    reported: VariantMetrics | None


def mc_se_rate(rate: float, n: int) -> float:
    """Monte Carlo standard error of an estimated probability."""
    if n < 1:
        return float("nan")
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / n)


def _generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def run_replication(config: ScenarioConfig, rep_index: int) -> ReplicationRecord:
    """Simulate and analyze one trial replication.

    Stream layout per replication: cohort draw, misclassification,
    randomization, and one randomization-test null batch shared by both
    strata variants, which both re-randomize within the reported strata.
    Both variants' fits, observed and null, come from one kernel call.
    """
    ss = np.random.SeedSequence(config.seed, spawn_key=(rep_index,))
    kids = ss.spawn(4)
    design = config.design
    n_arms = design.allocation.n_arms
    cohort = sample_cohort(design, config.outcome, _generator(kids[0]))
    rng_mis = _generator(kids[1]) if config.misclass.kind == "ignorable" else None
    cohort.reported = reported_strata(cohort, config.misclass, rng_mis)
    cohort.treatments = randomize_cohort(design, cohort.reported, _generator(kids[2]))
    cohort.observed = observed_outcomes(cohort.potentials, cohort.treatments)
    rows = cohort.treatments[None, :]
    if config.rb_enabled:
        nulls = batch_block_assignments(design, cohort.reported, config.rb_draws,
                                        _generator(kids[3]))
        rows = np.vstack([rows, nulls])

    variants: dict[str, VariantRecord | None] = {CORRECTED: None, REPORTED: None}
    pairs = [(CORRECTED, cohort.true_strata)]
    if config.analyze_reported:
        pairs.append((REPORTED, cohort.reported))
    try:
        # one kernel call: row 0 is the observed assignment, the rest the
        # null batch; every variant is fit against the same rows
        fits = fit_batch(cohort.observed, [strata for _, strata in pairs], rows, n_arms)
        for (name, _), batch in zip(pairs, fits):
            res = ci_and_test(batch, alpha=config.alpha, strata_used=name)
            covered = res.ci_low <= config.outcome.delta <= res.ci_high
            rb_fields = {}
            if config.rb_enabled:
                rb = randomization_result(*batch.tstats())
                rb_fields = dict(rb_p=rb.p_value, rb_discarded=rb.discarded,
                                 rb_flagged=rb.flagged)
            variants[name] = VariantRecord(
                estimate=res.estimate, se=res.se, covered=bool(covered),
                p_value=res.p_value, **rb_fields,
            )
    except DegenerateDesignError as exc:
        return ReplicationRecord(rep_index=rep_index, valid=False, error=str(exc))
    return ReplicationRecord(
        rep_index=rep_index, valid=True,
        corrected=variants[CORRECTED], reported=variants[REPORTED],
    )


def _replication_range(config: ScenarioConfig, start: int, stop: int) -> list[ReplicationRecord]:
    return [run_replication(config, r) for r in range(start, stop)]


def _aggregate_variant(
    config: ScenarioConfig, name: str, records: list[ReplicationRecord]
) -> VariantMetrics:
    rows = [getattr(rec, name) for rec in records if rec.valid]
    n = len(rows)
    if n == 0:
        nan = float("nan")
        metrics = dict.fromkeys(
            ("bias", "mean_estimate", "sd_estimate", "coverage", "mean_se",
             "reject_rate", "mc_se_bias", "mc_se_coverage", "mc_se_reject"), nan,
        )
        if config.rb_enabled:
            metrics.update(rb_reject_rate=nan, mc_se_rb_reject=nan)
        return VariantMetrics(strata_used=name, n=0, **metrics)
    est = np.array([v.estimate for v in rows])
    se = np.array([v.se for v in rows])
    covered = np.array([v.covered for v in rows], dtype=float)
    reject = np.array([v.p_value <= config.alpha for v in rows], dtype=float)
    coverage = float(covered.mean())
    reject_rate = float(reject.mean())
    sd_est = float(est.std(ddof=1)) if n > 1 else float("nan")
    metrics = dict(
        strata_used=name,
        n=n,
        bias=float(est.mean()) - config.outcome.delta,
        mean_estimate=float(est.mean()),
        sd_estimate=sd_est,
        coverage=coverage,
        mean_se=float(se.mean()),
        reject_rate=reject_rate,
        mc_se_bias=sd_est / math.sqrt(n) if n > 1 else float("nan"),
        mc_se_coverage=mc_se_rate(coverage, n),
        mc_se_reject=mc_se_rate(reject_rate, n),
    )
    if config.rb_enabled:
        rb_reject = np.array([v.rb_p <= config.alpha for v in rows], dtype=float)
        metrics["rb_reject_rate"] = float(rb_reject.mean())
        metrics["mc_se_rb_reject"] = mc_se_rate(float(rb_reject.mean()), n)
        metrics["rb_flagged"] = int(sum(v.rb_flagged for v in rows))
    return VariantMetrics(**metrics)


def run_scenario(config: ScenarioConfig, threads: int = 1) -> ScenarioMetrics:
    """Run every replication of a scenario and aggregate.

    With ``threads > 1`` replications run in process chunks, on at most
    one worker per CPU; per-record results and all aggregates are
    identical to the serial run because every replication is seeded
    independently and records are reduced in replication order.
    """
    n = config.n_replications
    if threads <= 1 or n < 2 * threads:
        records = _replication_range(config, 0, n)
    else:
        bounds = np.linspace(0, n, threads * 4 + 1, dtype=int)
        # a fork pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
            futures = [
                pool.submit(_replication_range, config, int(a), int(b))
                for a, b in zip(bounds[:-1], bounds[1:])
                if a < b
            ]
            records = [rec for fut in futures for rec in fut.result()]

    n_invalid = sum(not rec.valid for rec in records)
    corrected = _aggregate_variant(config, CORRECTED, records)
    reported = (
        _aggregate_variant(config, REPORTED, records) if config.analyze_reported else None
    )
    warning = n_invalid > WARN_SHARE * n or any(
        v.rb_flagged > WARN_SHARE * v.n for v in (corrected, reported) if v is not None
    )
    return ScenarioMetrics(
        config=config,
        n_valid=n - n_invalid,
        n_invalid=n_invalid,
        warning=warning,
        corrected=corrected,
        reported=reported,
    )


PAPER_RATES = ((0.02, 0.02), (0.15, 0.30))
PAPER_RHOS = (1.0, 0.5)
PAPER_KINDS = ("ignorable", "nonignorable1", "nonignorable2")


def paper_design() -> TrialDesign:
    """N = 80, strata mix 0.4/0.6, 1:2:2 allocation in blocks of 10."""
    return TrialDesign(
        n_patients=80,
        strata_probs=(0.4, 0.6),
        allocation=AllocationRatio((1, 2, 2)),
        block_size=10,
    )


@dataclass(frozen=True)
class MixtureCase:
    """One analytic reported-strata summary request."""

    misclass: MisclassModel
    outcome: OutcomeModel
    strata_probs: tuple[float, float]
    label: str = ""


def _scenario_label(kind: str, rates: tuple[float, float], rho: float, delta: float) -> str:
    return f"{kind} g{rates[0]:g}/{rates[1]:g} rho{rho:g} d{delta:g}"


def paper_suite(
    table_id: int,
    reps: int | None = None,
    rb_draws: int = 1000,
    seed: int = DEFAULT_SEED,
) -> list:
    """Scenario grids matching the published simulation layout.

    Table 1: the 3 x 2 x 2 model/rate/correlation grid, effect 0.5, no
    randomization tests, 400k replications unless ``reps`` overrides.
    Table 2: the same grid at effect 0 (level) and 0.5 (power) with
    randomization tests, 4000 replications default.  Table 3: analytic
    mixture cases at the high misclassification rates.
    """
    design = paper_design()
    if table_id == 1:
        n = 400_000 if reps is None else reps
        return [
            ScenarioConfig(
                design=design,
                outcome=OutcomeModel(rho=rho, delta=0.5),
                misclass=MisclassModel(kind, *rates),
                n_replications=n,
                rb_draws=0,
                seed=seed,
                label=_scenario_label(kind, rates, rho, 0.5),
            )
            for kind in PAPER_KINDS
            for rates in PAPER_RATES
            for rho in PAPER_RHOS
        ]
    if table_id == 2:
        n = 4000 if reps is None else reps
        return [
            ScenarioConfig(
                design=design,
                outcome=OutcomeModel(rho=rho, delta=delta),
                misclass=MisclassModel(kind, *rates),
                n_replications=n,
                rb_draws=rb_draws,
                seed=seed,
                label=_scenario_label(kind, rates, rho, delta),
            )
            for delta in (0.0, 0.5)
            for kind in PAPER_KINDS
            for rates in PAPER_RATES
            for rho in PAPER_RHOS
        ]
    if table_id == 3:
        return [
            MixtureCase(
                misclass=MisclassModel(kind, 0.15, 0.30),
                outcome=OutcomeModel(rho=rho, delta=0.5),
                strata_probs=(0.4, 0.6),
                label=f"{kind} rho{rho:g}",
            )
            for kind in PAPER_KINDS
            for rho in PAPER_RHOS
        ]
    raise ValueError(f"unknown table id {table_id}")
