"""Monte Carlo scenario runner.

One replication draws a cohort, misclassifies its strata, randomizes
within the reported strata, and analyzes the observed outcomes twice:
once adjusting for the true ("corrected") strata and once for the
reported ones.  Both are tested against one null batch of ``rb_draws``
re-randomizations, empty (each p = 1) when there are none.

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

Outcomes: a chunk builds no potential-outcome planes.  Of its cohort
uniforms it keeps each patient's true stratum, the shared factor ``sqrt(rho)
* u`` and, below ``rho = 1``, the arm-noise uniforms, and frees the rest.
From these ``cohort.drawn_outcomes`` computes, one arm per patient, the
trigger outcome (nonignorable kinds only) and, once the observed assignment
is dealt, the observed outcome, inverting only the noise uniform of the arm
it reads.  Each value is the one ``cohort.potential_outcomes`` gives.

Chunks: ``_chunk_size`` gives ``CHUNK_BYTES`` over the bytes a chunk holds
for one replication (at least one): for each of its ``1 + rb_draws``
assignment rows the int8 codes, the kernel's arm counts and the
``block_width`` uniforms, plus its ``cohort_width`` uniforms.  So every
design's full chunk peaks near the same memory, 3.6-6.0 MiB traced: 690
replications of a table1 scenario, 10 of a table2 one.  A replication is
never split, so ``ScenarioConfig`` bounds it at ``MAX_REPLICATION_CELLS``
cells.  Every stage runs once per chunk on
``(replications, ...)`` arrays, with no loop over replications, and one
kernel call fits every row of the chunk.  A replication's numbers do not
depend on its chunk, so results are independent of chunking and thread
count, and aggregation runs over arrays held in replication order.

Runner: ``run_suite`` is the one path for every replication.  It cuts each
scenario into chunks and sends every chunk of the suite through one
``map``: the builtin one when there is one worker, else that of one
process pool for the whole run, which ships ``TASK_CHUNKS`` (12) chunks
per work item.  Each scenario is reduced as soon as its last chunk is in.
``run_scenario`` is a suite of one, and ``run_replication`` a chunk of one
that returns its replication's ``Outcomes``.

Allocator: before its first chunk, each process that runs chunks (the
caller, or every pool worker however it was started) sets glibc's malloc
thresholds once, through ``mallopt``.  Left at glibc's defaults, the heap
top is trimmed after each chunk and the next chunk faults its whole
working set back in from the OS: 590-1,390 minor page faults per table2
cell of 10 replications, and 9-19% of the CPU time in the kernel.  With
the thresholds set, the freed arrays stay in the heap for the next chunk.
This is process-wide policy, not arithmetic, so no result changes; where
the C library has no ``mallopt`` (macOS, musl, Windows) nothing is set.
"""

from __future__ import annotations

import ctypes
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import cache, lru_cache, partial

import numpy as np

from .cohort import OutcomeModel, cohort_factors, cohort_width, drawn_outcomes
from .errors import ConfigurationError, as_instance, as_int, as_real, as_tuple
from .inference import fit_batch, t_interval
from .misclassify import KINDS, TRIGGER_ARM, MisclassModel, check_two_strata, misclassify
from .randomizer import TrialDesign, block_width, deal_blocks, draw_blocks, paper_design
from .rerandomize import randomization_batch

DEFAULT_SEED = 2014
CORRECTED = "corrected"
REPORTED = "reported"

# flag a scenario when more than this share of its replications failed, or
# of one variant's randomization tests discarded too many null draws
WARN_SHARE = 0.001

# what a chunk holds, in the bytes that ``_replication_bytes`` counts (2.25
# MiB): 690 table1 replications, 10 of table2; a full chunk of either, or of
# the tested block-length menus, peaks at 3.6-6.0 MiB traced
CHUNK_BYTES = 9 * 2**18
# chunks per pool work item; at one chunk an item, pool traffic ate table2's gain
TASK_CHUNKS = 12
# the most cells one replication may hold: a replication is never split, and
# one that large peaks at about 18-22 bytes per cell (its kernel masks are
# not sliced), so this caps one near 0.6-0.7 GiB
MAX_REPLICATION_CELLS = 2**25
# the stages, by Philox counter word 2
COHORT, MISCLASSIFICATION, RANDOMIZATION, NULL_BATCH = range(4)
# glibc's mallopt parameters, from malloc.h
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
# free heap top that glibc keeps: four full chunks, each peaking below 3.5
# times CHUNK_BYTES, so what a chunk frees stays for the next one
TRIM_THRESHOLD = 14 * CHUNK_BYTES
# the 64-bit ceiling of glibc's own sliding threshold: every chunk array comes
# from the heap, and a replication near MAX_REPLICATION_CELLS is still mapped
# and handed back to the OS when it is freed
MMAP_THRESHOLD = 32 * 1024 * 1024


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """One simulation scenario: design, outcome law, misclassification,
    and run sizes.  The design and outcome pass ``check_two_strata``, and
    ``misclass`` is a ``MisclassModel``.  ``n_replications`` is at least 1
    and ``seed`` nonnegative, all three counts integers; ``alpha`` lies in
    (0, 1); ``rb_draws = 0`` leaves the null batch empty and reports no
    RB rate, and more draws give ``(1 + rb_draws) * alpha >= 1``, as the
    add-one p-value must to reach ``alpha``.  One replication holds at
    most ``MAX_REPLICATION_CELLS`` cells, a bound on ``rb_draws``, or on
    ``n_patients`` without draws.  Every run analyzes both the corrected
    and the reported strata."""

    design: TrialDesign
    outcome: OutcomeModel
    misclass: MisclassModel
    n_replications: int
    rb_draws: int = 0
    seed: int = DEFAULT_SEED
    alpha: float = 0.05
    label: str = ""

    def __post_init__(self) -> None:
        check_two_strata(self.design, self.outcome)
        as_instance("misclass", self.misclass, MisclassModel)
        for field, least in (("n_replications", 1), ("rb_draws", 0), ("seed", 0)):
            object.__setattr__(self, field, as_int(field, getattr(self, field), least))
        object.__setattr__(self, "alpha", as_real("alpha", self.alpha, 0.0, 1.0))
        if self.rb_draws and (1 + self.rb_draws) * self.alpha < 1.0:
            raise ConfigurationError(f"rb_draws must be 0 or at least 1 / alpha - 1 = "
                                     f"{1.0 / self.alpha - 1.0:g}, got {self.rb_draws}")
        cells = _replication_cells(self)
        if cells > MAX_REPLICATION_CELLS:
            field, value = (("rb_draws", self.rb_draws) if self.rb_draws
                            else ("n_patients", self.design.n_patients))
            raise ConfigurationError(f"{field} must keep one replication within "
                                     f"{MAX_REPLICATION_CELLS} cells, got {value} ({cells} cells)")

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
    reported: VariantMetrics
    invalid_reasons: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Outcomes:
    """Results of consecutive replications, in replication order.

    ``error`` holds one string per replication, empty when it is valid.
    The other arrays are ``(variants, replications)``, corrected strata
    first, and meaningless where the replication is invalid; ``rejected``
    marks a model test that rejects, its t interval excluding 0.  With no
    null draws every ``rb_p`` is 1, and nothing is discarded or flagged."""

    error: np.ndarray
    estimate: np.ndarray
    se: np.ndarray
    covered: np.ndarray
    rejected: np.ndarray
    rb_p: np.ndarray
    rb_discarded: np.ndarray
    rb_flagged: np.ndarray

    @classmethod
    def concat(cls, parts: list[Outcomes]) -> Outcomes:
        """The parts joined in order; a lone part as it is."""
        if len(parts) == 1:
            return parts[0]
        return cls(*(np.concatenate([getattr(part, f.name) for part in parts], axis=-1)
                     for f in fields(cls)))


def mc_se_rate(rate: float, n: int) -> float:
    """Monte Carlo standard error of an estimated probability."""
    if n < 1:
        return float("nan")
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / n)


def _replication_cells(config: ScenarioConfig) -> int:
    """The cells one replication holds: its ``1 + rb_draws`` assignments,
    each counted as its patients or its ``block_width`` uniforms, whichever
    is more, and its cohort uniforms."""
    design = config.design
    per_assignment = max(design.n_patients, block_width(design))
    return (1 + config.rb_draws) * per_assignment + cohort_width(design)


def _replication_bytes(config: ScenarioConfig) -> int:
    """The bytes a chunk holds for one replication: per assignment row, its
    int8 codes, the kernel's ``4 * (n_arms - 1)`` arm counts (one per
    variant, stratum and arm after the first) and its ``block_width``
    uniforms; then its cohort uniforms."""
    design = config.design
    lanes = 4 * (design.allocation.n_arms - 1) + block_width(design)
    return (1 + config.rb_draws) * (design.n_patients + 8 * lanes) + 8 * cohort_width(design)


def _chunk_size(config: ScenarioConfig) -> int:
    """Replications per chunk: ``CHUNK_BYTES`` over what one replication
    holds; at least one."""
    return max(1, CHUNK_BYTES // _replication_bytes(config))


@lru_cache(maxsize=64)
def _scenario_key(seed: int) -> np.ndarray:
    """The scenario's ``Philox`` key, read-only."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    key.flags.writeable = False
    return key


@cache
def _keep_chunk_memory() -> None:
    """Set this process's glibc malloc thresholds, ``TRIM_THRESHOLD`` and
    ``MMAP_THRESHOLD``, once; without a ``mallopt`` in the C library,
    nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to open
        return
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


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

    Both strata variants, codes 0 and 1 that the kernel reads as they are,
    share one null batch, drawn within the reported strata and empty when
    ``rb_draws`` is 0.  One kernel call fits every variant and row of the
    chunk: row 0 of a replication is its observed assignment, the rest its
    null batch.  A replication is invalid where an observed row is not
    usable, and the first such variant's fault names it.
    """
    _keep_chunk_memory()
    design, outcome = config.design, config.outcome
    key = _scenario_key(config.seed)
    rng = np.random.Generator(np.random.Philox(key=key))

    def draw(stage: int, width: int) -> np.ndarray:
        return _stage_uniforms(rng, key, stage, width, start, stop)

    # the cohort uniforms are freed here; only the arms a stage reads are built
    strata, shared, noise = cohort_factors(design, outcome, draw(COHORT, cohort_width(design)))
    if config.misclass.kind == "ignorable":
        trigger, flips = None, draw(MISCLASSIFICATION, design.n_patients)
    else:
        trigger = drawn_outcomes(outcome, strata, np.take(TRIGGER_ARM, strata), shared, noise)
        flips = None
    reported = misclassify(config.misclass, outcome, strata, trigger, flips)
    del trigger, flips
    width = block_width(design)
    picks = np.hstack([draw(RANDOMIZATION, width), draw(NULL_BATCH, config.rb_draws * width)])
    blocks = draw_blocks(design, picks.reshape(stop - start, 1 + config.rb_draws, width))
    del picks  # dead before the blocks are dealt
    rows = deal_blocks(design, reported, blocks)
    del blocks
    y = drawn_outcomes(outcome, strata, rows[:, 0], shared, noise)
    del shared, noise
    fit = fit_batch(y, [strata, reported], rows, design.allocation.n_arms)
    stats, usable = fit.tstats()

    # (variant, replication) arrays from row 0, the observed assignment
    estimate, se = fit.coef[..., 0], fit.se[..., 0]
    ci_low, ci_high = t_interval(estimate, se, fit.df, config.alpha)
    rb_p, discarded, flagged = (a.reshape(estimate.shape) for a in randomization_batch(
        stats.reshape(-1, stats.shape[-1]), usable.reshape(-1, usable.shape[-1])))
    error = np.full(stop - start, "", dtype=object)
    if not usable[..., 0].all():
        for fault in fit.faults()[..., 0]:
            error = np.where(error == "", fault, error)
    return Outcomes(
        error=error, estimate=estimate, se=se, rejected=(ci_low > 0.0) | (ci_high < 0.0),
        covered=(ci_low <= outcome.delta) & (outcome.delta <= ci_high),
        rb_p=rb_p, rb_discarded=discarded, rb_flagged=flagged,
    )


def run_replication(config: ScenarioConfig, rep_index: int) -> Outcomes:
    """Replication ``rep_index`` alone, as a chunk of one."""
    # kept only because perfbench's traced run times it per replication
    return _run_chunk(config, rep_index, rep_index + 1)


def _mean(values: np.ndarray) -> float:
    """Mean of ``values``, NaN when there are none."""
    return float(values.mean()) if values.size else float("nan")


def _rate(hits: np.ndarray) -> float:
    """Share of true entries of ``hits``, NaN when there are none: the mean
    of them as 0/1 floats, since a count is exact."""
    return int(np.count_nonzero(hits)) / hits.size if hits.size else float("nan")


def _aggregate_variant(
    config: ScenarioConfig, name: str, outcomes: Outcomes, v: int, valid: np.ndarray
) -> VariantMetrics:
    est = outcomes.estimate[v, valid]
    n = est.size
    mean_estimate = _mean(est)
    coverage = _rate(outcomes.covered[v, valid])
    reject_rate = _rate(outcomes.rejected[v, valid])
    sd_est = float(est.std(ddof=1)) if n > 1 else float("nan")
    # with no null draws every p is 1: no rate to report
    rb_reject_rate = _rate(outcomes.rb_p[v, valid] <= config.alpha) if config.rb_enabled else None
    return VariantMetrics(
        strata_used=name,
        n=n,
        bias=mean_estimate - config.outcome.delta,
        mean_estimate=mean_estimate,
        sd_estimate=sd_est,
        coverage=coverage,
        mean_se=_mean(outcomes.se[v, valid]),
        reject_rate=reject_rate,
        mc_se_bias=sd_est / math.sqrt(n) if n > 1 else float("nan"),
        mc_se_coverage=mc_se_rate(coverage, n),
        mc_se_reject=mc_se_rate(reject_rate, n),
        rb_reject_rate=rb_reject_rate,
        mc_se_rb_reject=None if rb_reject_rate is None else mc_se_rate(rb_reject_rate, n),
        rb_flagged=int(outcomes.rb_flagged[v, valid].sum()),
        rb_discarded=int(outcomes.rb_discarded[v, valid].sum()),
    )


def _summarize(config: ScenarioConfig, outcomes: Outcomes) -> ScenarioMetrics:
    """Aggregate a whole scenario's outcomes."""
    valid = outcomes.error == ""
    n_invalid = int((~valid).sum())
    corrected = _aggregate_variant(config, CORRECTED, outcomes, 0, valid)
    reported = _aggregate_variant(config, REPORTED, outcomes, 1, valid)
    warning = n_invalid > WARN_SHARE * config.n_replications or any(
        v.rb_flagged > WARN_SHARE * v.n for v in (corrected, reported)
    )
    return ScenarioMetrics(
        config=config,
        n_valid=config.n_replications - n_invalid,
        n_invalid=n_invalid,
        warning=warning,
        corrected=corrected,
        reported=reported,
        invalid_reasons=tuple(sorted(Counter(outcomes.error[~valid]).items())) if n_invalid else (),
    )


def run_scenario(config: ScenarioConfig, threads: int = 1) -> ScenarioMetrics:
    """Run every replication of a scenario and aggregate: a suite of one."""
    return run_suite([as_instance("config", config, ScenarioConfig)], threads)[0]


def workers(threads: int) -> int:
    """Processes that run a suite's replications: one per thread, at most
    one per CPU.  ``threads`` must be an integer of at least 1, else a
    ``ConfigurationError`` names it."""
    threads = as_int("threads", threads, 1)
    return 1 if threads == 1 else min(threads, os.cpu_count() or 1)


def run_suite(configs: list[ScenarioConfig], threads: int = 1) -> list[ScenarioMetrics]:
    """Run and aggregate every scenario of a suite.

    Every chunk of the suite goes through one ``map``: the builtin one when
    ``workers(threads)`` is 1, else that of one process pool for the whole
    suite, ``TASK_CHUNKS`` chunks per work item.  Each scenario is reduced
    in replication order as soon as its last chunk is in, so no result
    depends on the thread count, and a serial run holds one scenario's
    outcomes at a time.  Each process that runs chunks, this one or a pool
    worker, first sets glibc's malloc thresholds for the rest of its life,
    so what one chunk frees stays in the heap for the next instead of being
    handed back to the OS and faulted in again; no result changes.
    ``threads`` is checked by ``workers``; an empty suite gives ``[]`` and
    starts no pool."""
    n_workers = workers(threads)
    configs = as_tuple("configs", configs, partial(as_instance, cls=ScenarioConfig))
    if not configs:
        return []
    starts = [range(0, c.n_replications, _chunk_size(c)) for c in configs]
    chunks = [(c, a, min(a + s.step, c.n_replications)) for c, s in zip(configs, starts) for a in s]
    with ProcessPoolExecutor(n_workers) if n_workers > 1 else nullcontext() as pool:
        mapper = map if pool is None else partial(pool.map, chunksize=TASK_CHUNKS)
        done = mapper(_run_chunk, *zip(*chunks))
        return [_summarize(c, Outcomes.concat([next(done) for _ in s]))
                for c, s in zip(configs, starts)]


PAPER_RATES = ((0.02, 0.02), (0.15, 0.30))
PAPER_RHOS = (1.0, 0.5)


def paper_suite(table_id: int, reps: int | None = None) -> list[ScenarioConfig]:
    """Scenario grids matching the published simulation layout, at seed
    ``DEFAULT_SEED``; ``dataclasses.replace`` changes any other field.

    Table 1: the 3 x 2 x 2 model/rate/correlation grid, effect 0.5, no
    randomization tests, 400k replications unless ``reps`` overrides.
    Table 2: the same grid at effect 0 (level) and 0.5 (power) with 1000
    randomization-test draws, 4000 replications default.
    The paper's table 3 is no grid of its own: it reads table 1's
    high-rate scenarios through the closed form (``cli.mixture_rows``).
    """
    # table -> (effects, default replications, randomization-test draws)
    grids = {1: ((0.5,), 400_000, 0), 2: ((0.0, 0.5), 4000, 1000)}
    deltas, default_reps, draws = grids[as_int("table_id", table_id, 1, 2)]
    design = paper_design()
    return [
        ScenarioConfig(
            design=design,
            outcome=OutcomeModel(rho=rho, delta=delta),
            misclass=MisclassModel(kind, *rates),
            n_replications=default_reps if reps is None else reps,
            rb_draws=draws,
            label=f"{kind} g{rates[0]:g}/{rates[1]:g} rho{rho:g} d{delta:g}",
        )
        for delta in deltas
        for kind in KINDS
        for rates in PAPER_RATES
        for rho in PAPER_RHOS
    ]
