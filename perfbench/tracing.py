"""Traced replications: spans around every call the benchmark makes into a
library module, recorded from outside the library.

``traced_replication`` repeats the calls of ``harness.run_replication`` in
the same stream order, each inside a span named ``<module>.<function>``.
The randomization test is one library call whose children cannot be
seen from outside, so after the replication its children are *replayed*
on the same inputs with an identically seeded generator; the replays are
recorded as spans marked ``replay`` whose parent is the test's span.

A span's self time is its duration minus the durations of its non-replay
children.  Spans of one replication share a trace id ``(cell, rep)``.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from stratasim import cohort as cohort_mod
from stratasim import harness, inference, misclassify, randomizer, rerandomize
from stratasim.errors import DegenerateDesignError

ROOT = "harness.replication"


class Tracer:
    """In-memory span store: ``(trace_id, name, start_ns, end_ns, parent, replay)``.

    Finished spans are tuples of atoms, which the garbage collector stops
    tracking, so a long trace does not slow the collections that the
    measured code triggers.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.trace_id: tuple[int, int] = (0, 0)
        self._stack: list[int] = []

    def span(self, name: str, parent: int | None = None, replay: bool = False) -> "_Span":
        return _Span(self, name, parent, replay)

    def self_times(self) -> dict[str, int]:
        """Summed self time in ns per span name; replays keep their own name."""
        child_ns = defaultdict(int)
        for _, _, start, end, parent, replay in self.spans:
            if parent is not None and not replay:
                child_ns[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for index, (_, name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child_ns[index]
        return totals

    def durations(self, name: str) -> int:
        """Summed duration in ns of the spans with this name."""
        return sum(end - start for _, n, start, end, _, _ in self.spans if n == name)


class _Span:
    __slots__ = ("tracer", "name", "parent", "replay", "index", "start")

    def __init__(self, tracer: Tracer, name: str, parent: int | None, replay: bool) -> None:
        self.tracer, self.name, self.parent, self.replay = tracer, name, parent, replay
        self.index = -1
        self.start = 0

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        if self.parent is None and tracer._stack:
            self.parent = tracer._stack[-1]
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer._stack.append(self.index)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        tracer = self.tracer
        tracer.spans[self.index] = (tracer.trace_id, self.name, self.start, end,
                                    self.parent, self.replay)
        tracer._stack.pop()


def _generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def traced_replication(config: harness.ScenarioConfig, rep_index: int,
                       tracer: Tracer) -> tuple[harness.ReplicationRecord, int]:
    """One replication with spans; returns the record and replay mismatches.

    The record is built exactly as ``run_replication`` builds it, so the
    two compare equal while the library keeps this call sequence.
    """
    span = tracer.span
    design = config.design
    n_arms = design.allocation.n_arms
    tests = []
    with span(ROOT):
        with span("harness.seeding"):
            kids = np.random.SeedSequence(config.seed, spawn_key=(rep_index,)).spawn(5)
            rng = _generator(kids[0])
        with span("cohort.sample_cohort"):
            cohort = cohort_mod.sample_cohort(design, config.outcome, rng)
        if config.misclass.kind == "ignorable":
            with span("harness.seeding"):
                rng = _generator(kids[1])
            with span("misclassify.ignorable"):
                cohort.reported = misclassify.reported_strata(cohort, config.misclass, rng)
        else:
            with span("misclassify.nonignorable"):
                cohort.reported = misclassify.reported_strata(cohort, config.misclass, None)
        with span("harness.seeding"):
            rng = _generator(kids[2])
        with span("randomizer.randomize_cohort"):
            cohort.treatments = randomizer.randomize_cohort(design, cohort.reported, rng)
        with span("cohort.observed_outcomes"):
            cohort.observed = cohort_mod.observed_outcomes(cohort.potentials, cohort.treatments)

        variants = {harness.CORRECTED: None, harness.REPORTED: None}
        pairs = [(harness.CORRECTED, cohort.true_strata, kids[3])]
        if config.analyze_reported:
            pairs.append((harness.REPORTED, cohort.reported, kids[4]))
        try:
            for name, strata, rb_seed in pairs:
                with span("inference.fit_model"):
                    fit = inference.fit_model(cohort.observed, cohort.treatments, strata, n_arms)
                with span("inference.ci_and_test"):
                    res = inference.ci_and_test(fit, alpha=config.alpha, strata_used=name)
                covered = res.ci_low <= config.outcome.delta <= res.ci_high
                rb_fields = {}
                if config.rb_enabled:
                    with span("harness.seeding"):
                        rng = _generator(rb_seed)
                    with span("rerandomize.randomization_pvalue") as test_span:
                        rb = rerandomize.randomization_pvalue(
                            cohort.observed, cohort.treatments, strata, cohort.reported,
                            design, config.rb_draws, rng, strata_used=name,
                        )
                    tests.append((test_span.index, strata, rb_seed, rb))
                    rb_fields = dict(rb_p=rb.p_value, rb_discarded=rb.discarded,
                                     rb_flagged=rb.flagged)
                variants[name] = harness.VariantRecord(
                    estimate=res.estimate, se=res.se, covered=bool(covered),
                    p_value=res.p_value, **rb_fields,
                )
        except DegenerateDesignError as exc:
            record = harness.ReplicationRecord(rep_index=rep_index, valid=False, error=str(exc))
        else:
            record = harness.ReplicationRecord(
                rep_index=rep_index, valid=True,
                corrected=variants[harness.CORRECTED], reported=variants[harness.REPORTED],
            )

    mismatches = 0
    for parent, strata, rb_seed, rb in tests:
        mismatches += _replay_test(tracer, parent, config, cohort, strata, rb_seed, rb)
    return record, mismatches


def _replay_test(tracer: Tracer, parent: int, config: harness.ScenarioConfig,
                 cohort: cohort_mod.Cohort, strata: np.ndarray,
                 rb_seed: np.random.SeedSequence, rb: rerandomize.RandTestResult) -> int:
    """Re-run the children of one randomization test; 1 if they disagree."""
    design = config.design
    n_arms = design.allocation.n_arms
    draws = config.rb_draws
    rng = _generator(rb_seed)
    if design.block_sizes is None:
        with tracer.span("randomizer.batch_block_assignments", parent, replay=True):
            batch = randomizer.batch_block_assignments(design, cohort.reported, draws, rng)
    else:
        with tracer.span("randomizer.sequential_null_draw", parent, replay=True):
            batch = np.stack([randomizer.randomize_cohort(design, cohort.reported, rng)
                              for _ in range(draws)])
    with tracer.span("inference.batched_treatment_tstats", parent, replay=True):
        obs, _ = inference.batched_treatment_tstats(
            cohort.observed, strata, np.asarray(cohort.treatments)[None, :], n_arms)
        stats, valid = inference.batched_treatment_tstats(cohort.observed, strata, batch, n_arms)
    tracer.counts["rerandomize.draws"] += draws
    tracer.counts["rerandomize.discarded"] += rb.discarded
    p_value = rerandomize.combine_pvalue(float(obs[0]), stats[valid])
    return int(p_value != rb.p_value or draws - int(valid.sum()) != rb.discarded)
