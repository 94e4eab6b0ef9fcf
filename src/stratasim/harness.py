"""Monte Carlo scenario runner.

One replication draws a cohort, misclassifies its strata, randomizes
within the reported strata, and analyzes the observed outcomes twice:
once adjusting for the true ("corrected") strata and once for the
reported ones.  Randomization-based p-values are optional per scenario.

Streams: one ``Philox`` key per scenario,
``SeedSequence(seed).generate_state(2, np.uint64)``.  Each stage takes a
fixed number of uniforms, ``width``, per replication: the cohort
(``COHORT``, ``cohort_width``), the misclassification (``MISCLASSIFICATION``,
one per patient, ignorable model only), the observed randomization
(``RANDOMIZATION``, ``block_width``) and the randomization-test null batch
(``NULL_BATCH``, ``rb_draws * block_width``).  Stage ``s`` of replication
``r`` starts at counter block ``r * ceil(width / 4)`` (a Philox4x64 block
gives four uniforms), a 128-bit offset in counter words 0 and 1, with
``s`` in word 2.  So one draw call gives a stage's uniforms for a whole
chunk, replication ``r`` depends only on ``(seed, r)``, and the cohort
and the assignment picks are common across misclassification kinds.  The
key is derived once per seed and process; a chunk draws every stage from
one generator whose state is set per stage.

Chunks: ``_chunk_size`` gives ``CHUNK_CELLS`` over what one replication
holds, its ``(1 + rb_draws) * n_patients`` assignments plus its
``cohort_width`` uniforms (at least one replication), so a chunk's arrays
stay the same size whatever the design: 682 replications of a table1
scenario, 4 of a table2 one.  Every stage runs once per chunk on
``(replications, ...)`` arrays, with no loop over replications, and one
kernel call fits every row of the chunk.  A replication's numbers do not
depend on its chunk, so results are independent of chunking and thread
count, and aggregation runs over arrays held in replication order.

Runner: ``run_suite`` is the one path for every replication.  It cuts each
scenario into tasks of ``TASK_CHUNKS`` (12) whole chunks and sends every
task of the suite through one ``map``: the builtin one at ``threads=1``,
else that of one process pool for the whole run.  Each scenario is reduced
as soon as its last task is in.  ``run_scenario`` is a suite of one, and
``run_replication`` a chunk of one that returns its replication's
``Outcomes``.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .cohort import OutcomeModel, cohort_width, draw_cohort, observed_outcomes
from .errors import ConfigurationError, as_int
from .inference import NO_RESIDUAL_DF, fit_batch, t_interval
from .misclassify import MisclassModel, misclassify
from .randomizer import AllocationRatio, TrialDesign, block_width, deal_blocks, draw_blocks
from .rerandomize import DEGENERATE_OBSERVED, randomization_batch

DEFAULT_SEED = 2014
CORRECTED = "corrected"
REPORTED = "reported"

# flag a scenario when more than this share of its replications failed, or
# of one variant's randomization tests discarded too many null draws
WARN_SHARE = 0.001

# what a chunk holds: patient assignments, observed and null, plus cohort
# uniforms; four table2 replications
CHUNK_CELLS = 4 * 1024 * 80
# whole chunks per task; at one chunk a task, pool traffic ate table2's gain
TASK_CHUNKS = 12
# the stages, by Philox counter word 2
COHORT, MISCLASSIFICATION, RANDOMIZATION, NULL_BATCH = range(4)


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """One simulation scenario: design, outcome law, misclassification,
    and run sizes.  The design has exactly two strata, since
    misclassification flips between two, and the outcome one mean per
    stratum.  ``n_replications`` must be at least 1 and ``seed``
    nonnegative, all three counts integers; ``rb_draws = 0`` disables
    randomization testing; ``alpha`` lies in (0, 1); ``analyze_reported``
    is a bool."""

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
        if not isinstance(self.analyze_reported, bool):
            raise ConfigurationError(
                f"analyze_reported must be true or false, got {self.analyze_reported!r}"
            )
        if self.design.n_strata != 2:
            raise ConfigurationError(
                f"strata_probs must list exactly two strata, got {self.design.n_strata}"
            )
        if len(self.outcome.strata_means) != 2:
            raise ConfigurationError(
                f"strata_means must hold two means, one per stratum, "
                f"got {len(self.outcome.strata_means)}"
            )

    @property
    def rb_enabled(self) -> bool:
        return self.rb_draws > 0


@dataclass(frozen=True, slots=True)
class VariantMetrics:
    """Aggregates for one strata variant across valid replications;
    ``rb_flagged`` and ``rb_discarded`` sum over their randomization
    tests."""

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
    rb_discarded: int = 0


@dataclass(frozen=True, slots=True)
class ScenarioMetrics:
    """A scenario's aggregates; ``invalid_reasons`` counts the invalid
    replications by error, as ``(reason, count)`` pairs sorted by reason."""

    config: ScenarioConfig
    n_valid: int
    n_invalid: int
    warning: bool
    corrected: VariantMetrics
    reported: VariantMetrics | None
    invalid_reasons: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Outcomes:
    """Results of consecutive replications, in replication order.

    ``error`` holds one string per replication, empty when it is valid.
    The other arrays are ``(variants, replications)``, corrected strata
    first, and meaningless where the replication is invalid.
    """

    error: np.ndarray
    estimate: np.ndarray
    se: np.ndarray
    covered: np.ndarray
    p_value: np.ndarray
    rb_p: np.ndarray
    rb_discarded: np.ndarray
    rb_flagged: np.ndarray

    @classmethod
    def concat(cls, parts: list[Outcomes]) -> Outcomes:
        return cls(*(np.concatenate([getattr(part, f.name) for part in parts], axis=-1)
                     for f in fields(cls)))


def mc_se_rate(rate: float, n: int) -> float:
    """Monte Carlo standard error of an estimated probability."""
    if n < 1:
        return float("nan")
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / n)


def _chunk_size(config: ScenarioConfig) -> int:
    """Replications per chunk: ``CHUNK_CELLS`` over what one replication
    holds, its patient assignments and its cohort uniforms; at least one."""
    design = config.design
    per_rep = (1 + config.rb_draws) * design.n_patients + cohort_width(design)
    return max(1, CHUNK_CELLS // per_rep)


@lru_cache(maxsize=64)
def _scenario_key(seed: int) -> np.ndarray:
    """The scenario's ``Philox`` key, read-only."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    key.flags.writeable = False
    return key


def _stage_uniforms(rng: np.random.Generator, key: np.ndarray, stage: int, width: int,
                    start: int, stop: int) -> np.ndarray:
    """The ``(stop - start, width)`` uniforms of one stage for replications
    ``start`` to ``stop``, from one draw call on ``rng``, a ``Philox``
    generator whose state is set here: a fresh one would seed a throwaway
    ``SeedSequence`` from OS entropy."""
    blocks = -(-width // 4)  # a Philox4x64 block gives four uniforms
    if start < 0 or stop * blocks >= 1 << 128:
        raise ConfigurationError(
            f"replications {start} to {stop - 1} do not fit the 128-bit counter")
    offset = start * blocks
    counter = np.array([offset & (1 << 64) - 1, offset >> 64, stage, 0], dtype=np.uint64)
    # buffer_pos 4 is an empty buffer, as in a new generator
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": counter, "key": key},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng.random((stop - start, 4 * blocks))[:, :width]


def _run_chunk(config: ScenarioConfig, start: int, stop: int) -> Outcomes:
    """Simulate and analyze replications ``start`` to ``stop`` as one chunk.

    Both strata variants re-randomize within the reported strata, so they
    share one null batch per replication.  Every variant's fits, observed
    and null, of every replication come from one kernel call: row 0 of a
    replication is its observed assignment, the rest its null batch.
    """
    design, outcome = config.design, config.outcome
    n_reps = stop - start
    key = _scenario_key(config.seed)
    rng = np.random.Generator(np.random.Philox(key=key))

    def draw(stage: int, width: int) -> np.ndarray:
        return _stage_uniforms(rng, key, stage, width, start, stop)

    strata, potentials = draw_cohort(design, outcome, draw(COHORT, cohort_width(design)))
    ignorable = config.misclass.kind == "ignorable"
    flips = draw(MISCLASSIFICATION, design.n_patients) if ignorable else None
    reported = misclassify(config.misclass, outcome, strata, potentials, flips)
    width = block_width(design)
    picks = draw(RANDOMIZATION, width)[:, None]
    if config.rb_enabled:
        nulls = draw(NULL_BATCH, config.rb_draws * width).reshape(n_reps, config.rb_draws, width)
        picks = np.concatenate([picks, nulls], axis=1)
    rows = deal_blocks(design, reported, draw_blocks(design, picks))
    y = observed_outcomes(potentials, rows[:, 0])
    variants = [strata, reported] if config.analyze_reported else [strata]
    fit = fit_batch(y, variants, rows, design.allocation.n_arms)

    # (variant, replication) arrays from row 0, the observed assignment
    estimate, se = fit.arm_coef[0, ..., 0], fit.arm_se[0, ..., 0]
    ci_low, ci_high, _, p_value = t_interval(estimate, se, fit.df, config.alpha)
    failed = ~fit.valid[..., 0] | (fit.df < 1)
    shape = estimate.shape
    rb_p, discarded, flagged = np.full(shape, np.nan), np.zeros(shape, int), np.zeros(shape, bool)
    if config.rb_enabled:
        stats, usable = fit.tstats()
        rb_p, discarded, flagged = (a.reshape(shape) for a in randomization_batch(
            stats.reshape(-1, stats.shape[-1]), usable.reshape(-1, usable.shape[-1])))
        failed |= ~usable[..., 0]
    error = np.full(n_reps, "", dtype=object)
    if failed.any():
        fault = fit.faults()[..., 0]
        fault[(fault == "") & (fit.df < 1)] = NO_RESIDUAL_DF
        fault[(fault == "") & failed] = DEGENERATE_OBSERVED
        # the first failing variant names a replication's error
        for variant_fault in fault:
            error = np.where(error == "", variant_fault, error)
    return Outcomes(
        error=error, estimate=estimate, se=se, p_value=p_value,
        covered=(ci_low <= outcome.delta) & (outcome.delta <= ci_high),
        rb_p=rb_p, rb_discarded=discarded, rb_flagged=flagged,
    )


def _replication_range(config: ScenarioConfig, start: int, stop: int) -> Outcomes:
    step = _chunk_size(config)
    return Outcomes.concat([_run_chunk(config, a, min(a + step, stop))
                            for a in range(start, stop, step)])


def run_replication(config: ScenarioConfig, rep_index: int) -> Outcomes:
    """Replication ``rep_index`` alone, as a chunk of one."""
    # kept only because perfbench's traced run times it per replication
    return _run_chunk(config, rep_index, rep_index + 1)


def _aggregate_variant(
    config: ScenarioConfig, name: str, outcomes: Outcomes, v: int, valid: np.ndarray
) -> VariantMetrics:
    est = outcomes.estimate[v, valid]
    n = est.size
    if n == 0:
        nan = float("nan")
        metrics = dict.fromkeys(
            ("bias", "mean_estimate", "sd_estimate", "coverage", "mean_se",
             "reject_rate", "mc_se_bias", "mc_se_coverage", "mc_se_reject"), nan,
        )
        if config.rb_enabled:
            metrics.update(rb_reject_rate=nan, mc_se_rb_reject=nan)
        return VariantMetrics(strata_used=name, n=0, **metrics)
    se = outcomes.se[v, valid]
    covered = outcomes.covered[v, valid].astype(float)
    reject = (outcomes.p_value[v, valid] <= config.alpha).astype(float)
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
        rb_reject = (outcomes.rb_p[v, valid] <= config.alpha).astype(float)
        metrics["rb_reject_rate"] = float(rb_reject.mean())
        metrics["mc_se_rb_reject"] = mc_se_rate(float(rb_reject.mean()), n)
        metrics["rb_flagged"] = int(outcomes.rb_flagged[v, valid].sum())
        metrics["rb_discarded"] = int(outcomes.rb_discarded[v, valid].sum())
    return VariantMetrics(**metrics)


def _summarize(config: ScenarioConfig, outcomes: Outcomes) -> ScenarioMetrics:
    """Aggregate a whole scenario's outcomes."""
    valid = outcomes.error == ""
    n_invalid = int((~valid).sum())
    corrected = _aggregate_variant(config, CORRECTED, outcomes, 0, valid)
    reported = (_aggregate_variant(config, REPORTED, outcomes, 1, valid)
                if config.analyze_reported else None)
    warning = n_invalid > WARN_SHARE * config.n_replications or any(
        v.rb_flagged > WARN_SHARE * v.n for v in (corrected, reported) if v is not None
    )
    return ScenarioMetrics(
        config=config,
        n_valid=config.n_replications - n_invalid,
        n_invalid=n_invalid,
        warning=warning,
        corrected=corrected,
        reported=reported,
        invalid_reasons=tuple(sorted(Counter(outcomes.error[~valid]).items())),
    )


def run_scenario(config: ScenarioConfig, threads: int = 1) -> ScenarioMetrics:
    """Run every replication of a scenario and aggregate: a suite of one."""
    return run_suite([config], threads)[0]


def workers(threads: int) -> int:
    """Processes that run a suite's replications: one per thread, at most
    one per CPU."""
    return min(threads, os.cpu_count() or 1)


def run_suite(configs: list[ScenarioConfig], threads: int = 1) -> list[ScenarioMetrics]:
    """Run and aggregate every scenario of a suite.

    Every task, ``TASK_CHUNKS`` whole chunks of one scenario, goes through
    one ``map``: the builtin one at ``threads=1``, else that of one process
    pool for the whole suite.  Each scenario is reduced in replication order
    as soon as its last task is in, so no result depends on the thread
    count, and a serial run holds one scenario's outcomes at a time.
    ``threads`` is an integer of at least 1; an empty suite gives ``[]``
    and starts no pool."""
    threads = as_int("threads", threads)
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    if not configs:
        return []
    starts = [range(0, c.n_replications, TASK_CHUNKS * _chunk_size(c)) for c in configs]
    tasks = [(c, a, min(a + s.step, c.n_replications)) for c, s in zip(configs, starts) for a in s]
    with ProcessPoolExecutor(workers(threads)) if threads > 1 else nullcontext() as pool:
        done = (map if pool is None else pool.map)(_replication_range, *zip(*tasks))
        return [_summarize(c, Outcomes.concat([next(done) for _ in s]))
                for c, s in zip(configs, starts)]


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
    raise ConfigurationError(f"table_id must be 1, 2 or 3, got {table_id!r}")
