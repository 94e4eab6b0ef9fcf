"""Replication seeding, aggregation arithmetic, suite grids, and failure
accounting in the scenario runner."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import pickle
import platform
import re
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import stratasim
from stratasim import harness, inference
from stratasim.cli import metrics_rows
from stratasim.cohort import (
    Cohort,
    OutcomeModel,
    cohort_factors,
    cohort_width,
    drawn_outcomes,
    potential_outcomes,
    strata_labels,
)
from stratasim.errors import ConfigurationError
from stratasim.harness import (
    ScenarioConfig,
    Outcomes,
    VariantMetrics,
    mc_se_rate,
    paper_design,
    paper_suite,
    run_replication,
    run_scenario,
)
from stratasim.inference import fit_batch
from stratasim.misclassify import (
    KINDS,
    TRIGGER_ARM,
    MisclassModel,
    misclassify,
    reported_strata,
)
from stratasim.randomizer import (
    AllocationRatio,
    TrialDesign,
    batch_block_assignments,
    block_width,
    randomize_cohort,
)
from stratasim.rerandomize import randomization_pvalue
from properties import check_thread_determinism


def _replications(config, reps):
    """Each of the replications ``reps`` run as a chunk of its own, in order."""
    return Outcomes.concat([run_replication(config, r) for r in reps])


def _assert_same(got, want):
    """Outcomes equal bit for bit, NaNs and invalid replications included."""
    for f in fields(Outcomes):
        _assert_field_same(f.name, getattr(got, f.name), getattr(want, f.name))


def _assert_field_same(name, a, b):
    assert (a.dtype, a.shape) == (b.dtype, b.shape), name
    if a.dtype == object:
        assert a.tolist() == b.tolist(), name
    else:
        assert a.tobytes() == b.tobytes(), name


def _config(reps=20, rb_draws=0, rho=1.0, delta=0.5, seed=123, **kw):
    return ScenarioConfig(
        design=paper_design(),
        outcome=OutcomeModel(rho=rho, delta=delta),
        misclass=MisclassModel("ignorable", 0.02, 0.02),
        n_replications=reps,
        rb_draws=rb_draws,
        seed=seed,
        **kw,
    )


class TestScenarioConfig:
    @pytest.mark.parametrize("field,value", [("n_replications", 0),
                                             ("n_replications", -3),
                                             ("rb_draws", -1),
                                             ("seed", -1)])
    def test_bad_run_sizes_name_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be"):
            run_scenario(replace(_config(), **{field: value}))

    def test_smallest_run_sizes_run(self):
        metrics = run_scenario(_config(reps=1, rb_draws=0))
        assert metrics.n_valid + metrics.n_invalid == 1

    def test_replication_cells_are_bounded(self):
        # construction only: no replication runs.  Paper design: 80 cells
        # per assignment, 400 cohort uniforms
        assert harness.MAX_REPLICATION_CELLS == 2**25
        most = (2**25 - 400) // 80 - 1
        assert harness._replication_cells(_config(rb_draws=most)) <= 2**25
        with pytest.raises(ConfigurationError, match=(
                rf"^rb_draws must keep one replication within {2**25} cells, "
                rf"got {most + 1} \({(most + 2) * 80 + 400} cells\)$")):
            _config(rb_draws=most + 1)
        with pytest.raises(ConfigurationError, match=r"^rb_draws must keep .*, got 10000000 "):
            _config(rb_draws=10**7)
        huge = _design(n_patients=10**7)
        with pytest.raises(ConfigurationError, match=r"^n_patients must keep .*, got 10000000 "):
            _scenario(design=huge)


def _design(**fields):
    base = dict(n_patients=80, strata_probs=(0.4, 0.6), allocation=(1, 2, 2), block_size=10)
    return TrialDesign(**{**base, **fields})


def _scenario(**fields):
    return replace(_config(reps=2), **fields)


@pytest.mark.parametrize("build,fields,rejected", [
    (_design, {"n_patients": 80.5}, "n_patients"),
    (_design, {"n_patients": True}, "n_patients"),
    (_design, {"block_size": 10.5}, "block_size"),
    (_design, {"block_sizes": (5.5, 10)}, "block_sizes[0]"),
    (_design, {"block_sizes": (5, "10")}, "block_sizes[1]"),
    (_design, {"block_sizes": 10}, "block_sizes"),
    (_scenario, {"n_replications": 2.5}, "n_replications"),
    (_scenario, {"rb_draws": 1.5}, "rb_draws"),
    (_scenario, {"seed": 1.5}, "seed"),
    (_scenario, {"alpha": 1.5}, "alpha"),
    (_scenario, {"alpha": 0.0}, "alpha"),
    (_scenario, {"alpha": "0.05"}, "alpha"),
    # at alpha 0.05 the add-one p-value reaches alpha from 19 draws on
    (_scenario, {"rb_draws": 18}, "rb_draws"),
    (_scenario, {"rb_draws": 19}, None),
    # scenarios no run can finish: one stratum, three, and a mean short or over
    (_scenario, {"design": TrialDesign(20, (1.0,), (1, 2, 2), 5),
                 "outcome": OutcomeModel(strata_means=(0.0,)),
                 "misclass": MisclassModel("nonignorable1")}, "strata_probs"),
    (_scenario, {"design": _design(strata_probs=(0.2, 0.3, 0.5))}, "strata_probs"),
    (_scenario, {"outcome": OutcomeModel(strata_means=(0.0,))}, "strata_means"),
    (_scenario, {"outcome": OutcomeModel(strata_means=(0.0, 1.0, 2.0))}, "strata_means"),
    # components of another type: the string ran until a chunk read its kind
    (_scenario, {"misclass": "ignorable"}, "misclass"),
    (_scenario, {"design": (80, (0.4, 0.6))}, "design"),
    (_scenario, {"outcome": None}, "outcome"),
    (_design, {"n_patients": np.int64(20), "block_size": 10.0,
               "block_sizes": (np.int32(5), 10.0)}, None),
    (_scenario, {"n_replications": 2.0, "rb_draws": np.int64(20), "seed": np.uint8(7),
                 "design": _design(n_patients=20.0, block_size=np.int16(5))}, None),
])
def test_config_counts_coerced_or_rejected_by_field(build, fields, rejected):
    if rejected is not None:
        with pytest.raises(ConfigurationError, match=f"^{re.escape(rejected)} must"):
            build(**fields)
        return
    built = build(**fields)
    for name, value in fields.items():
        if isinstance(value, TrialDesign):
            continue
        want = tuple(int(v) for v in value) if isinstance(value, tuple) else int(value)
        assert repr(getattr(built, name)) == repr(want)
    config = _scenario(design=built) if isinstance(built, TrialDesign) else built
    assert run_scenario(config).n_valid == config.n_replications


@pytest.mark.parametrize("call,message", [
    (lambda: harness.run_suite(["x"]), "configs[0] must be a ScenarioConfig, got 'x'"),
    (lambda: harness.run_suite([_config(reps=2), None]),
     "configs[1] must be a ScenarioConfig, got None"),
    (lambda: harness.run_suite(None), "configs must be a list, got None"),
    (lambda: run_scenario(None), "config must be a ScenarioConfig, got None"),
], ids=["string", "second", "none", "scenario"])
def test_runners_name_a_scenario_of_another_type(call, message):
    # an entry of another type raised AttributeError on n_replications, and
    # None ran as an empty suite
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call()


class _InlinePool:
    """Stands in for ``ProcessPoolExecutor``: records the worker count and
    each ``map``'s chunksize, and runs each chunk in this process."""

    max_workers: list = []
    chunksizes: list = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, *iterables)


# one worker runs in the calling process: no pool of one
@pytest.mark.parametrize("cpus,pools", [(2, [2]), (None, [])], ids=["pool-of-2", "no-pool"])
def test_pool_capped_at_cpu_count(monkeypatch, cpus, pools):
    monkeypatch.setattr(_InlinePool, "max_workers", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    config = _config(reps=12)
    assert run_scenario(config, threads=6) == run_scenario(config, threads=1)
    assert _InlinePool.max_workers == pools


def _mixed_suite():
    """A table1, a table2 and a varblock scenario at small sizes."""
    varblock = ScenarioConfig(
        design=_varblock_design(), outcome=OutcomeModel(rho=0.5, delta=0.5),
        misclass=MisclassModel("nonignorable1", 0.15, 0.30), n_replications=14,
        rb_draws=30, seed=29, label="varblock",
    )
    return [paper_suite(1, reps=30)[5], replace(paper_suite(2, reps=13)[16], rb_draws=40), varblock]


def test_suite_equals_its_scenarios_at_any_thread_count(monkeypatch):
    configs = _mixed_suite()
    alone = repr([run_scenario(c) for c in configs])
    # chunks of 2, two to a pool work item: every scenario spans at least 3
    # items, and some item holds the chunks of two scenarios
    monkeypatch.setattr(harness, "_chunk_size", lambda config: 2)
    monkeypatch.setattr(harness, "TASK_CHUNKS", 2)
    assert all(c.n_replications > 2 * 4 for c in configs)
    assert repr(harness.run_suite(configs, threads=1)) == alone
    assert repr(harness.run_suite(configs, threads=2)) == alone


def test_suite_tasks_are_whole_chunks_reduced_in_turn(monkeypatch):
    # chunks of 3; at threads=1 scenario k is reduced before a chunk of
    # scenario k+1 runs, and a pool ships TASK_CHUNKS chunks per work item
    events = []
    run_chunk, summarize = harness._run_chunk, harness._summarize

    def chunk(config, start, stop):
        events.append(("chunk", config.label, start, stop))
        return run_chunk(config, start, stop)

    def reduce(config, outcomes):
        events.append(("reduce", config.label, config.n_replications))
        return summarize(config, outcomes)

    monkeypatch.setattr(harness, "_run_chunk", chunk)
    monkeypatch.setattr(harness, "_summarize", reduce)
    monkeypatch.setattr(harness, "_chunk_size", lambda config: 3)
    configs = _mixed_suite()
    serial = harness.run_suite(configs)
    want = []
    for config in configs:
        n = config.n_replications
        want += [("chunk", config.label, a, min(a + 3, n)) for a in range(0, n, 3)]
        want.append(("reduce", config.label, n))
    assert events == want
    # short last chunks are covered
    assert any(c.n_replications % 3 for c in configs)
    monkeypatch.setattr(_InlinePool, "max_workers", [])
    monkeypatch.setattr(_InlinePool, "chunksizes", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    events.clear()
    assert repr(harness.run_suite(configs, threads=2)) == repr(serial)
    assert events == want
    assert (_InlinePool.max_workers, _InlinePool.chunksizes) == ([2], [harness.TASK_CHUNKS])


def test_runtime_warning_in_a_pool_worker_fails_the_test(monkeypatch):
    # the shared scenario fixture runs on two workers, so a RuntimeWarning
    # raised in a forked worker must still be an error under the suite's
    # ``error::RuntimeWarning`` filter, as it is in the parent
    t_interval = harness.t_interval

    def warn(*args):
        warnings.warn(f"raised in process {os.getpid()}", RuntimeWarning)
        return t_interval(*args)

    monkeypatch.setattr(harness, "t_interval", warn)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    with pytest.raises(RuntimeWarning, match="raised in process") as raised:
        harness.run_suite([_config(reps=4)], threads=2)
    assert str(raised.value) != f"raised in process {os.getpid()}"


class TestMcSeRate:
    def test_pinned_values(self):
        assert mc_se_rate(0.5, 400_000) == pytest.approx(7.905694150420948e-4, abs=1e-16)
        assert mc_se_rate(0.95, 400_000) == pytest.approx(3.4460121880225555e-4, abs=1e-16)

    def test_half_is_worst_case(self):
        for rate in (0.0, 0.05, 0.364, 0.95, 1.0):
            assert mc_se_rate(rate, 4000) <= mc_se_rate(0.5, 4000)

    def test_degenerate_counts(self):
        assert mc_se_rate(0.0, 100) == 0.0
        assert math.isnan(mc_se_rate(0.5, 0))


class TestRunReplication:
    def test_same_index_reproduces_exactly(self):
        config = _config(rb_draws=50)
        _assert_same(run_replication(config, 5), run_replication(config, 5))

    def test_distinct_indices_differ(self):
        config = _config()
        a, b = run_replication(config, 0), run_replication(config, 1)
        assert a.estimate[0, 0] != b.estimate[0, 0]

    def test_record_shape_without_rb(self):
        out = run_replication(_config(), 3)
        assert out.error.tolist() == [""]
        assert out.estimate.shape == out.rb_p.shape == (2, 1)
        assert out.rejected.shape == (2, 1) and out.rejected.dtype == bool
        assert (out.se > 0.0).all()
        # the empty null batch: every test gives p = 1
        assert (out.rb_p == 1.0).all()
        assert (out.rb_discarded == 0).all() and not out.rb_flagged.any()

    def test_record_shape_with_rb(self):
        out = run_replication(_config(rb_draws=50), 3)
        assert out.error.tolist() == [""]
        assert ((0.0 < out.rb_p) & (out.rb_p <= 1.0)).all()
        assert (out.rb_discarded >= 0).all()


@pytest.mark.parametrize("rb_draws", [0, 60])
def test_one_kernel_call_per_chunk(monkeypatch, rb_draws):
    # rows [observed; null batch] of every replication in the chunk x
    # variants [corrected, reported]
    calls = []

    def counting(y, strata_variants, rows, n_arms):
        calls.append((len(strata_variants), *rows.shape[:2]))
        return fit_batch(y, strata_variants, rows, n_arms)

    monkeypatch.setattr(harness, "fit_batch", counting)
    config = _config(reps=40, rb_draws=rb_draws)
    assert run_replication(config, 1).error.tolist() == [""]
    run_scenario(config)
    per_chunk = harness._chunk_size(config)
    chunks = [min(per_chunk, 40 - start) for start in range(0, 40, per_chunk)]
    assert calls == [(2, 1, 1 + rb_draws)] + [(2, c, 1 + rb_draws) for c in chunks]


def _stage_rng(config, rep, stage, width):
    """Replication ``rep``'s generator for a stage of ``width`` uniforms,
    from public names only: the scenario's key, counter block ``rep *
    ceil(width / 4)`` in words 0 and 1 and the stage in word 2."""
    offset = rep * -(-width // 4)
    counter = np.array([offset % 2**64, offset // 2**64, stage, 0], dtype=np.uint64)
    key = np.random.SeedSequence(config.seed).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _planes_cohort(design, outcome, uniforms):
    """The cohorts of ``(..., cohort_width(design))`` uniforms with every
    potential outcome built: strata from the first ``n_patients`` uniforms,
    every normal inverted from the rest."""
    n = design.n_patients
    strata = strata_labels(design, uniforms[..., :n])
    normals = ndtri(np.maximum(uniforms[..., n:], 2.0**-53)).reshape(*strata.shape, -1)
    return Cohort(strata, potential_outcomes(strata, outcome, normals), outcome)


def _observed(potentials, arms):
    """Each patient's potential outcome under its arm."""
    return np.take_along_axis(potentials, arms[..., None].astype(np.intp), axis=-1)[..., 0]


# the first replication whose cohort draws carry into counter word 1
CARRY_REP = 2**64 // -(-cohort_width(paper_design()) // 4)


def test_variants_share_one_null_batch():
    # both variants re-randomize within the reported strata: one null batch
    # per replication, drawn from the replication's NULL_BATCH counter block
    config = replace(_config(rb_draws=60),
                     misclass=MisclassModel("ignorable", 0.15, 0.30))
    design = config.design
    width = block_width(design)
    # replication indices are arbitrary nonnegative integers; CARRY_REP's
    # cohort offset sits just below 2**64, 2**70 + 5's past it in every stage
    for rep in (0, 1, 2, 3, 2**32, CARRY_REP, 2**70 + 5):
        uniforms = _stage_rng(config, rep, harness.COHORT, cohort_width(design)).random(
            cohort_width(design))
        cohort = _planes_cohort(design, config.outcome, uniforms)
        reported = reported_strata(cohort, config.misclass, _stage_rng(
            config, rep, harness.MISCLASSIFICATION, design.n_patients))
        treatments = randomize_cohort(design, reported,
                                      _stage_rng(config, rep, harness.RANDOMIZATION, width))
        y = _observed(cohort.potentials, treatments)
        nulls = batch_block_assignments(design, reported, config.rb_draws, _stage_rng(
            config, rep, harness.NULL_BATCH, config.rb_draws * width))
        out = run_replication(config, rep)
        for v, strata in enumerate((cohort.true_strata, reported)):
            want = randomization_pvalue(y, treatments, strata, nulls,
                                        design.allocation.n_arms)
            assert out.rb_p[v, 0] == want.p_value, (rep, v)
            assert out.rb_discarded[v, 0] == want.discarded


def test_chunk_across_the_counter_carry_matches_replications_alone():
    # one draw call crosses 2**64 inside the chunk: Philox's own carry
    # must give each replication the counter it computes alone
    config = replace(_config(rb_draws=20), misclass=MisclassModel("ignorable", 0.15, 0.30))
    start = CARRY_REP - 3
    chunk = harness._run_chunk(config, start, CARRY_REP + 3)
    _assert_same(chunk, _replications(config, range(start, CARRY_REP + 3)))


@pytest.mark.parametrize("rep", [-1, 2**128 // 100])
def test_replication_outside_the_counter_range_is_rejected(rep):
    # the cohort stage of the paper design spans 100 counter blocks
    with pytest.raises(ConfigurationError, match="128-bit counter"):
        run_replication(_config(), rep)
    run_replication(_config(), 2**128 // 100 - 1)


def test_misclassification_kinds_share_common_random_numbers(monkeypatch):
    # at zero rates no kind flips anything, so the outcomes are the same
    for rb_draws in (0, 30):
        outcomes = [_replications(replace(_config(rb_draws=rb_draws),
                                          misclass=MisclassModel(kind, 0.0, 0.0)), (0, 7, 2**40))
                    for kind in KINDS]
        for other in outcomes[1:]:
            _assert_same(other, outcomes[0])
    # at the paper's high rates the kinds still share each replication's true
    # strata, shared factor, noise uniforms and block picks
    drawn, seen = [], {}
    factors, deal_blocks = harness.cohort_factors, harness.deal_blocks

    def record_cohort(design, outcome, uniforms):
        drawn.extend(factors(design, outcome, uniforms))
        return drawn[-3:]

    def record_picks(design, reported, blocks):
        drawn.append(blocks)
        return deal_blocks(design, reported, blocks)

    monkeypatch.setattr(harness, "cohort_factors", record_cohort)
    monkeypatch.setattr(harness, "deal_blocks", record_picks)
    for kind in KINDS:
        config = replace(_config(reps=12, rb_draws=30, rho=0.5),
                         misclass=MisclassModel(kind, 0.15, 0.30))
        harness._run_chunk(config, 5, 12)
        seen[kind], drawn[:] = list(drawn), []
    # the two nonignorable kinds flip different patients of the same cohorts
    strata, shared, noise = seen["ignorable"][:3]
    assert noise is not None
    trigger = drawn_outcomes(config.outcome, strata, np.take(TRIGGER_ARM, strata), shared,
                             noise)
    assert not np.array_equal(*(misclassify(MisclassModel(kind, 0.15, 0.30), config.outcome,
                                            strata, trigger, None) for kind in KINDS[1:]))
    for kind in KINDS[1:]:
        for want, got in zip(seen["ignorable"], seen[kind], strict=True):
            np.testing.assert_array_equal(got, want)


def test_chunk_size_bounds_cells(monkeypatch):
    # a chunk holds about CHUNK_BYTES whatever the design: per replication,
    # (1 + rb_draws) * (N + 8 * (4 * (n_arms - 1) + block_width)) + 8 * (2 +
    # n_arms) * N bytes
    sizes = []
    run_chunk = harness._run_chunk

    def recording(config, start, stop):
        sizes.append(stop - start)
        return run_chunk(config, start, stop)

    monkeypatch.setattr(harness, "_run_chunk", recording)
    big = TrialDesign(8000, (0.4, 0.6), AllocationRatio((1, 2, 2)), 10)
    cases = [
        # 801 blocks: 8,000 + 8 * 809 bytes per row, 320,000 of cohort uniforms
        (replace(_config(reps=25), design=big), 7, [7, 7, 7, 4]),
        (replace(_config(reps=25, rb_draws=4, alpha=0.2), design=big), 6, [6] * 4 + [1]),
        # a table1 scenario: 216 + 3,200 bytes per replication
        (_config(reps=1100), 690, [690, 410]),
        # a table2 scenario: 1,001 * 216 + 3,200 bytes per replication
        (_config(reps=23, rb_draws=1000), 10, [10, 10, 3]),
        # the varblock design: 201 * (20 + 8 * 18) + 800 bytes per replication
        (replace(_config(reps=4, rb_draws=200), design=_varblock_design()), 69, [4]),
        # a length menu with a long block: 17 blocks of 1,000 sort keys and
        # a length pick each, 17,017 uniforms per assignment, outweigh N
        (replace(_config(reps=40), design=_sort_key_design()), 16, [16, 16, 8]),
    ]
    for config, chunk, want in cases:
        sizes.clear()
        run_scenario(config)
        assert (harness._chunk_size(config), sizes) == (chunk, want)


def _tiny_design():
    # 4 patients in three arms: most replications are invalid
    return TrialDesign(4, (0.4, 0.6), AllocationRatio((1, 1, 1)), 3)


def _mixed_validity_design():
    # 4 patients, all in the upper true stratum: the reported fit fails
    # whenever a flip opens a second stratum, about 3 replications in 4
    return TrialDesign(4, (0.0, 1.0), AllocationRatio((1, 1, 1)), 3)


def _varblock_design():
    return TrialDesign(20, (0.2, 0.8), AllocationRatio((1, 2, 2)), 10, block_sizes=(5, 10))


def _sort_key_design():
    # no arrangement table for the block of 1,000: one sort key per slot
    return replace(paper_design(), block_sizes=(5, 1000))


@pytest.mark.parametrize("design", [paper_design(), _varblock_design()], ids=["paper", "varblock"])
@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("kind", KINDS)
def test_chunk_outcomes_equal_the_potential_outcome_planes(monkeypatch, kind, rho, design):
    # a chunk builds only the outcomes it reads; on the same uniforms they
    # equal, bit for bit, those read off every arm's potential outcomes
    outcome = OutcomeModel(rho=rho, delta=0.7, strata_means=(0.3, -1.2), sigma=1.7)
    config = ScenarioConfig(design, outcome, MisclassModel(kind, 0.15, 0.30),
                            n_replications=40, rb_draws=19)
    seen = []
    fit = harness.fit_batch

    def record(y, variants, rows, n_arms):
        seen.append((y, *variants, rows))
        return fit(y, variants, rows, n_arms)

    monkeypatch.setattr(harness, "fit_batch", record)
    start, stop, n = 3, 40, design.n_patients
    harness._run_chunk(config, start, stop)
    [(y, strata, reported, rows)] = seen
    key = harness._scenario_key(config.seed)
    rng = np.random.Generator(np.random.Philox(key=key))
    cohort = _planes_cohort(design, outcome, harness._stage_uniforms(
        rng, key, harness.COHORT, cohort_width(design), start, stop))
    flips = (harness._stage_uniforms(rng, key, harness.MISCLASSIFICATION, n, start, stop)
             if kind == "ignorable" else None)
    trigger = _observed(cohort.potentials, np.take(TRIGGER_ARM, cohort.true_strata))
    want = misclassify(config.misclass, outcome, cohort.true_strata, trigger, flips)
    assert strata.tobytes() == cohort.true_strata.tobytes()
    assert reported.dtype == want.dtype and reported.tobytes() == want.tobytes()
    assert y.tobytes() == _observed(cohort.potentials, rows[:, 0]).tobytes()


@pytest.mark.parametrize("exponent", [400, -400])
@pytest.mark.parametrize("rho", [1.0, 0.5])
def test_the_sigma_range_edges_give_the_unit_scale_results(rho, exponent):
    # a power-of-two scale is exact: at either edge of OutcomeModel's sigma
    # range every replication gives its unit-scale estimate and SE times
    # sigma and the same decisions, with no squares out of the float range
    def config(sigma):
        outcome = OutcomeModel(rho=rho, delta=sigma / 2, strata_means=(0.0, sigma), sigma=sigma)
        return ScenarioConfig(paper_design(), outcome, MisclassModel("nonignorable2", 0.15, 0.30),
                              n_replications=50, rb_draws=19)

    sigma = 2.0**exponent
    unit, scaled = (harness._run_chunk(config(s), 0, 50) for s in (1.0, sigma))
    assert (unit.error == "").all()
    for f in fields(Outcomes):
        got = getattr(scaled, f.name)
        if f.name in ("estimate", "se"):
            got = got / sigma
        assert np.array_equal(got, getattr(unit, f.name)), f.name


@pytest.mark.parametrize("rho", [1.0, 0.5])
@pytest.mark.parametrize("kind", KINDS)
def test_a_chunk_inverts_only_the_normals_it_reads(monkeypatch, kind, rho):
    # the shared factor of every patient, then one normal per patient for
    # each outcome read below rho = 1: the trigger (nonignorable kinds) and
    # the observed outcome; never every arm's
    sizes, invert = [], stratasim.cohort.ndtri

    def counting(uniforms):
        sizes.append(uniforms.size)
        return invert(uniforms)

    monkeypatch.setattr(stratasim.cohort, "ndtri", counting)
    config = replace(_config(reps=7, rho=rho), misclass=MisclassModel(kind, 0.15, 0.30))
    harness._run_chunk(config, 0, 7)
    reads = 1 + (rho < 1.0) * (1 + (kind != "ignorable"))
    assert sizes == [7 * config.design.n_patients] * reads


@pytest.mark.parametrize("design,kind,rb_draws", [
    *[(paper_design(), kind, 0) for kind in KINDS],
    (_mixed_validity_design(), "ignorable", 19),
    (_varblock_design(), "nonignorable1", 30),
    # no arrangement table for the block of 20: the sort-key branch
    (TrialDesign(20, (0.2, 0.8), (1, 2, 2), 10, block_sizes=(10, 20)), "ignorable", 30),
])
def test_chunking_never_changes_a_record(monkeypatch, design, kind, rb_draws):
    config = ScenarioConfig(
        design=design, outcome=OutcomeModel(rho=0.5, delta=0.5),
        misclass=MisclassModel(kind, 0.15, 0.30), n_replications=12, rb_draws=rb_draws,
        seed=31,
    )
    alone = _replications(config, range(12))
    _assert_same(harness._run_chunk(config, 0, 12), alone)
    # one small chunk per work item in two worker processes: the parent
    # reduces what they return
    seen = []
    summarize = harness._summarize

    def capture(config, outcomes):
        seen.append(outcomes)
        return summarize(config, outcomes)

    monkeypatch.setattr(harness, "_summarize", capture)
    monkeypatch.setattr(harness, "_chunk_size", lambda config: 3)
    monkeypatch.setattr(harness, "TASK_CHUNKS", 1)
    threaded = run_scenario(config, threads=2)
    _assert_same(seen[0], alone)
    assert repr(threaded) == repr(run_scenario(config, threads=1))
    if design.n_patients == 4:
        assert 0 < threaded.n_invalid < 12


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("design", [paper_design(), _varblock_design(),
                                    _mixed_validity_design()], ids=["paper", "varblock", "mixed"])
def test_rb_draws_never_change_the_model_outcomes(design, kind):
    # the null batch is a stage of its own: the observed fit, its interval
    # and the replication's verdict read nothing of it
    config = ScenarioConfig(
        design=design, outcome=OutcomeModel(rho=0.5, delta=0.5),
        misclass=MisclassModel(kind, 0.15, 0.30), n_replications=24, seed=31,
    )
    without = harness._run_chunk(config, 0, 24)
    with_rb = harness._run_chunk(replace(config, rb_draws=40), 0, 24)
    for name in ("error", "estimate", "se", "covered", "rejected"):
        _assert_field_same(name, getattr(with_rb, name), getattr(without, name))
    assert (without.rb_p == 1.0).all() and (with_rb.rb_p[:, without.error == ""] < 1.0).any()
    if design.n_patients == 4 and kind == "ignorable":
        assert 0 < (without.error != "").sum() < 24


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(KINDS), shift=st.floats(-1e8, 1e8), scale=st.floats(1e-6, 1e6),
       seed=st.integers(0, 2**32))
def test_corrected_results_follow_the_outcomes_location_and_scale(kind, shift, scale, seed):
    # the intercept absorbs a common shift and the stratum term a gap, and
    # the flips are cut relative to each stratum's mean, so the corrected
    # analysis moves with neither; a scale k scales the estimate and SE
    config = ScenarioConfig(
        design=paper_design(), outcome=OutcomeModel(rho=0.5, delta=0.5),
        misclass=MisclassModel(kind, 0.15, 0.30), n_replications=20, seed=seed,
    )
    base = harness._run_chunk(config, 0, 20)
    shifted = harness._run_chunk(
        replace(config, outcome=OutcomeModel(0.5, 0.5, (shift, shift + 1.0))), 0, 20)
    scaled = harness._run_chunk(
        replace(config, outcome=OutcomeModel(0.5, 0.5 * scale, (0.0, scale), scale)), 0, 20)
    assert (base.error == "").all()
    # y carries the rounding of its mean, about 2**-52 |shift|
    rounding = 256 * np.finfo(float).eps * (1.0 + abs(shift))
    for got, factor, atol in ((shifted, 1.0, rounding), (scaled, scale, 1e-12 * scale)):
        assert (got.error == base.error).all()
        for name in ("estimate", "se"):
            np.testing.assert_allclose(getattr(got, name)[0], factor * getattr(base, name)[0],
                                       rtol=1e-11, atol=atol, err_msg=name)
        for name in ("covered", "rejected"):
            assert (getattr(got, name)[0] == getattr(base, name)[0]).all(), name


def _chunk_fit_inputs(monkeypatch, config, reps):
    """A chunk of ``reps`` replications and the arguments of its one
    ``fit_batch`` call."""
    calls = []
    monkeypatch.setattr(harness, "fit_batch", lambda *args: calls.append(args) or fit_batch(*args))
    outcomes = harness._run_chunk(config, 0, reps)
    monkeypatch.undo()
    return outcomes, calls[0]


@pytest.mark.parametrize("design,rb_draws,reps,seed,rows", [
    (paper_design(), 20, 7, 31, "valid"),
    (_varblock_design(), 30, 11, 31, "valid"),
    (_mixed_validity_design(), 19, 13, 31, "mixed"),
    (_tiny_design(), 19, 13, 31, "all invalid"),
    # 3 patients cannot identify 4 columns: df < 0 where both strata show
    (TrialDesign(3, (0.4, 0.6), AllocationRatio((1, 1, 1)), 3), 19, 10, 8, "df < 0"),
])
def test_mask_slices_never_change_a_fit(monkeypatch, design, rb_draws, reps, seed, rows):
    config = ScenarioConfig(
        design=design, outcome=OutcomeModel(rho=0.5, delta=0.5),
        misclass=MisclassModel("ignorable", 0.15, 0.30), n_replications=reps,
        rb_draws=rb_draws, seed=seed,
    )
    outcomes, args = _chunk_fit_inputs(monkeypatch, config, reps)
    whole = fit_batch(*args)
    # slices of 3 groups: at least 3 slices, the last one shorter
    monkeypatch.setattr(inference, "MASK_CELLS", 3 * (1 + rb_draws) * design.n_patients)
    assert reps > 6 and reps % 3
    sliced = fit_batch(*args)
    for name in ("df", "coef", "se", "valid", "arm_count"):
        assert np.array_equal(getattr(sliced, name), getattr(whole, name), equal_nan=True), name
    assert np.array_equal(sliced.faults(), whole.faults())
    # the degenerate paths are really taken
    failed = outcomes.error != ""
    assert {"valid": not failed.any(),
            "mixed": 0 < failed.sum() < reps and not whole.valid.all(),
            "all invalid": failed.all() and not whole.valid.all(),
            "df < 0": (whole.df < 0).any() and (whole.df >= 0).any()}[rows]


@pytest.mark.parametrize("config,fewest", [
    # table1 stays within 10% of the 682 replications a chunk held at a
    # budget in cells
    (paper_suite(1, reps=1)[0], 614),
    (paper_suite(2, reps=1)[0], 10),
    (replace(paper_suite(2, reps=1)[0], design=_varblock_design(), rb_draws=200), 1),
    (replace(paper_suite(1, reps=1)[0], design=_sort_key_design()), 1),
], ids=["table1", "table2", "varblock", "sort-key"])
def test_a_full_chunk_stays_within_the_memory_budget(config, fewest):
    # every design's full chunk peaks near the same traced memory; at a
    # budget in cells, 79 varblock replications peaked at 10.5 MiB and 4 of
    # table2 at 2.2 MiB
    reps = harness._chunk_size(config)
    harness._run_chunk(config, 0, reps)  # warm the sampler tables and the key
    tracemalloc.start()
    try:
        harness._run_chunk(config, 0, reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reps >= fewest and peak <= 8 * 2**20


def test_the_old_chunk_size_gives_the_same_results(monkeypatch):
    # 23 replications are a multiple of neither table2 chunk, 4 cells' worth
    # or 10 bytes' worth
    config = paper_suite(2, reps=23)[-1]
    want = repr(run_scenario(config))
    monkeypatch.setattr(harness, "_chunk_size", lambda config: 4)
    assert repr(run_scenario(config)) == want


# minor page faults of the second of two table2 cells in a fresh process
_WARM_CELL_FAULTS = """
import resource
from stratasim.harness import paper_suite, run_scenario
config = paper_suite(2, reps=10)[0]
run_scenario(config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_scenario(config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
def test_a_warm_table2_cell_takes_few_page_faults():
    # at glibc's defaults the heap top is trimmed after each chunk and the
    # cell faults 590-1,390 pages back in; a fresh process, since this
    # one's heap has long grown past a chunk
    src = str(Path(stratasim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", _WARM_CELL_FAULTS], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert int(run.stdout) < 50


def _no_mallopt(name):
    return types.SimpleNamespace()  # a C library without one, as on macOS


def _no_library(name):
    raise TypeError("expected a path")  # CDLL(None) on Windows


@pytest.mark.parametrize("library", [_no_mallopt, _no_library])
def test_without_mallopt_a_scenario_runs_the_same(monkeypatch, library):
    config = replace(paper_suite(2, reps=5)[0], rb_draws=50)
    want = repr(run_scenario(config))
    monkeypatch.setattr(ctypes, "CDLL", library)
    harness._keep_chunk_memory.cache_clear()
    try:
        harness._keep_chunk_memory()  # raises nothing
        assert repr(run_scenario(config)) == want
    finally:
        harness._keep_chunk_memory.cache_clear()


def test_thresholds_are_set_once_per_process(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    harness._keep_chunk_memory.cache_clear()
    try:
        config = paper_suite(2, reps=12)[0]
        assert harness._chunk_size(config) == 10
        run_scenario(config)  # two chunks
    finally:
        harness._keep_chunk_memory.cache_clear()
    assert calls == [(harness.M_TRIM_THRESHOLD, harness.TRIM_THRESHOLD),
                     (harness.M_MMAP_THRESHOLD, 32 * 2**20)]


def test_stage_uniforms_reset_a_used_generator():
    # a generator with a half-used buffer and a cached 32-bit word draws a
    # stage exactly as a new one set to the stage's counter
    key = np.random.SeedSequence(7).generate_state(2, np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    rng.random(3)
    rng.integers(0, 2**32, dtype=np.uint32)
    got = harness._stage_uniforms(rng, key, harness.NULL_BATCH, 10, 5, 8)
    counter = np.array([5 * 3, 0, harness.NULL_BATCH, 0], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(counter=counter, key=key)).random((3, 12))
    assert np.array_equal(got, want[:, :10])


def test_each_thread_draws_every_chunk_from_one_generator_of_its_own(monkeypatch):
    # a new generator per chunk seeded a throwaway SeedSequence from OS
    # entropy; one generator shared by threads would mix their stage states
    config = _config(reps=6, rb_draws=19)
    want = [harness._run_chunk(config, a, a + 2) for a in (0, 2, 4)]
    built, seen, got = [], {}, {}
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *args: built.append(args) or philox(*args))

    def run(name):
        got[name] = [harness._run_chunk(config, a, a + 2) for _ in range(3) for a in (0, 2, 4)]
        seen[name] = harness._generator()

    # more threads than cores, switching often
    threads = [threading.Thread(target=run, args=(name,))
               for name in range((os.cpu_count() or 1) + 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(built) == len(threads) == len({id(rng) for rng in seen.values()})
    for chunks in got.values():
        for chunk, expected in zip(chunks, 3 * want, strict=True):
            _assert_same(chunk, expected)


class TestAggregation:
    def test_matches_manual_reduction(self):
        config = _config(reps=40, delta=0.5)
        metrics = run_scenario(config)
        out = _replications(config, range(40))
        assert (out.error == "").all()
        est = out.estimate[0]
        covered = out.covered[0].astype(float)
        reject = out.rejected[0].astype(float)
        # the model test rejects where |t| passes the critical value
        crit = inference.t_interval(0.0, 1.0, 76, 0.05)[1]
        assert out.rejected[0].tolist() == (np.abs(est / out.se[0]) > crit).tolist()
        got = metrics.corrected
        assert got.n == 40
        assert got.bias == pytest.approx(est.mean() - 0.5, abs=1e-12)
        assert got.mean_estimate == pytest.approx(est.mean(), abs=1e-12)
        assert got.sd_estimate == pytest.approx(est.std(ddof=1), abs=1e-12)
        assert got.coverage == pytest.approx(covered.mean(), abs=1e-12)
        assert got.mean_se == pytest.approx(out.se[0].mean(), abs=1e-12)
        assert got.reject_rate == pytest.approx(reject.mean(), abs=1e-12)
        assert got.mc_se_bias == pytest.approx(
            est.std(ddof=1) / math.sqrt(40), abs=1e-12
        )
        assert got.mc_se_coverage == pytest.approx(
            mc_se_rate(float(covered.mean()), 40), abs=1e-15
        )

    def test_rb_metrics_present_iff_enabled(self):
        without = run_scenario(_config(reps=8))
        assert without.corrected.rb_reject_rate is None
        assert without.corrected.mc_se_rb_reject is None
        with_rb = run_scenario(_config(reps=8, rb_draws=40))
        for variant in (with_rb.corrected, with_rb.reported):
            assert 0.0 <= variant.rb_reject_rate <= 1.0
            assert variant.mc_se_rb_reject is not None

    def test_invalid_replications_are_counted_and_flagged(self):
        # 4 patients in three arms: most draws cannot support the model
        config = ScenarioConfig(
            design=TrialDesign(
                n_patients=4,
                strata_probs=(0.4, 0.6),
                allocation=AllocationRatio((1, 1, 1)),
                block_size=3,
            ),
            outcome=OutcomeModel(rho=1.0, delta=0.5),
            misclass=MisclassModel("ignorable", 0.02, 0.02),
            n_replications=200,
            seed=7,
        )
        metrics = run_scenario(config)
        assert metrics.n_valid + metrics.n_invalid == 200
        assert metrics.n_invalid > 0
        assert metrics.n_valid > 0
        assert metrics.warning
        assert metrics.corrected.n == metrics.n_valid

    def test_rb_flagged_tests_are_reported_apart_from_invalid_replications(self, monkeypatch):
        # a constructed case: every replication is valid, and every corrected
        # test loses 20 of its 100 null draws to an empty arm, so each one is
        # flagged while the reported tests lose none
        y = np.array([1.0, 2.0, 3.0, 4.0, 2.5, 3.5])
        strata = np.zeros(6, dtype=np.int8)
        good = np.array([0, 1, 2, 0, 1, 2], dtype=np.int8)
        bad = np.array([0, 2, 2, 0, 2, 2], dtype=np.int8)  # arm 1 empty
        nulls = np.vstack([np.tile(good, (80, 1)), np.tile(bad, (20, 1))])
        flagged = randomization_pvalue(y, good, strata, nulls, 3)
        clean = randomization_pvalue(y, good, strata, nulls[:80], 3)

        def chunk(config, start, stop):
            n = stop - start

            def column(a, b):
                return np.repeat(np.array([[a], [b]]), n, axis=1)

            return Outcomes(
                error=np.full(n, "", dtype=object), estimate=column(0.5, 0.5),
                se=column(0.2, 0.2), covered=column(True, True), rejected=column(True, True),
                rb_p=column(flagged.p_value, clean.p_value),
                rb_discarded=column(flagged.discarded, clean.discarded),
                rb_flagged=column(flagged.flagged, clean.flagged),
            )

        monkeypatch.setattr(harness, "_run_chunk", chunk)
        metrics = run_scenario(_config(reps=20, rb_draws=100))
        assert metrics.n_invalid == 0
        assert (metrics.corrected.rb_flagged, metrics.reported.rb_flagged) == (20, 0)
        assert (metrics.corrected.rb_discarded, metrics.reported.rb_discarded) == (400, 0)
        assert metrics.warning
        rows = metrics_rows([metrics])
        assert [row["invalid"] for row in rows] == [0, 0]
        assert [row["rb_flagged"] for row in rows] == [
            metrics.corrected.rb_flagged, metrics.reported.rb_flagged,
        ]
        assert not any("rb_discarded" in row or "invalid_reasons" in row for row in rows)

    def test_degenerate_null_batch_finishes_the_scenario(self):
        # one null draw per replication, which can reject at alpha 0.5: where
        # it degenerates the test has no usable draw, gets p = 1 and is
        # flagged, and the run goes on
        config = ScenarioConfig(
            design=TrialDesign(5, (0.4, 0.6), AllocationRatio((1, 1, 1)), 3),
            outcome=OutcomeModel(rho=1.0, delta=0.5),
            misclass=MisclassModel("ignorable", 0.02, 0.02),
            n_replications=300,
            rb_draws=1,
            seed=5,
            alpha=0.5,
        )
        metrics = run_scenario(config)
        assert metrics.n_invalid == 0 and metrics.warning
        assert metrics.corrected.rb_flagged == metrics.corrected.rb_discarded > 0
        out = _replications(config, range(300))
        hits = out.rb_discarded[0] > 0
        assert hits.sum() == metrics.corrected.rb_flagged
        assert (out.rb_p[0, hits] == 1.0).all() and out.rb_flagged[0, hits].all()

    def test_invalid_replications_tallied_by_reason(self):
        config = _scenario(design=_tiny_design(), n_replications=200, rb_draws=19, seed=7)
        metrics = run_scenario(config)
        out = _replications(config, range(200))
        valid = out.error == ""
        errors = out.error[~valid].tolist()
        assert metrics.invalid_reasons == tuple(
            (reason, errors.count(reason)) for reason in sorted(set(errors)))
        assert sum(count for _, count in metrics.invalid_reasons) == metrics.n_invalid > 0
        for v, name in enumerate(("corrected", "reported")):
            assert getattr(metrics, name).rb_discarded == out.rb_discarded[v, valid].sum()
        assert run_scenario(_config(reps=5)).invalid_reasons == ()

    def test_metrics_hold_no_instance_dict_and_pickle(self):
        metrics = run_scenario(_config(reps=5, rb_draws=19))
        for obj in (metrics, metrics.config, metrics.corrected):
            assert not hasattr(obj, "__dict__")
        assert pickle.loads(pickle.dumps(metrics)) == metrics
        assert isinstance(metrics.reported, VariantMetrics)

    @pytest.mark.parametrize("rb_draws", [0, 20])
    def test_all_invalid_scenario_reports_nan_without_warnings(self, rb_draws):
        # two patients cannot identify intercept, stratum and arm columns
        config = ScenarioConfig(
            design=TrialDesign(2, (0.5, 0.5), AllocationRatio((1, 2)), 3),
            outcome=OutcomeModel(rho=1.0, delta=0.5),
            misclass=MisclassModel("ignorable", 0.02, 0.02),
            n_replications=10,
            rb_draws=rb_draws,
            seed=7,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            metrics = run_scenario(config)
        assert metrics.n_valid == 0 and metrics.n_invalid == 10
        assert metrics.warning
        for variant in (metrics.corrected, metrics.reported):
            assert variant.n == 0 and variant.rb_flagged == 0
            assert math.isnan(variant.bias) and math.isnan(variant.coverage)
            assert math.isnan(variant.mc_se_reject)
            assert (variant.rb_reject_rate is None) == (rb_draws == 0)
            if rb_draws:
                assert math.isnan(variant.rb_reject_rate)

    def test_healthy_scenario_raises_no_warning(self):
        metrics = run_scenario(_config(reps=10))
        assert metrics.n_invalid == 0
        assert not metrics.warning

    def test_thread_count_never_changes_results(self):
        check_thread_determinism()


class TestRandomBlockSizes:
    """Random block lengths through the whole replication path."""

    @staticmethod
    def _varblock_config():
        return ScenarioConfig(
            design=TrialDesign(20, (0.2, 0.8), AllocationRatio((1, 2, 2)), 10,
                               block_sizes=(5, 10)),
            outcome=OutcomeModel(rho=1.0, delta=0.5),
            misclass=MisclassModel("ignorable", 0.15, 0.30),
            n_replications=6,
            rb_draws=40,
            seed=29,
        )

    def test_rerun_and_thread_count_reproduce(self):
        config = self._varblock_config()
        serial = run_scenario(config, threads=1)
        assert serial == run_scenario(config, threads=1)
        assert serial == run_scenario(config, threads=2)

    def test_rb_pvalues_in_unit_interval(self):
        config = self._varblock_config()
        out = _replications(config, range(config.n_replications))
        valid = out.error == ""
        assert valid.any()
        rb_p = out.rb_p[:, valid]
        assert ((0.0 < rb_p) & (rb_p <= 1.0)).all()


class TestPaperSuite:
    def test_estimation_grid(self):
        configs = paper_suite(1)
        assert len(configs) == 12
        assert all(c.n_replications == 400_000 for c in configs)
        assert all(c.rb_draws == 0 for c in configs)
        assert all(c.outcome.delta == 0.5 for c in configs)
        assert len({c.label for c in configs}) == 12
        kinds = {c.misclass.kind for c in configs}
        assert kinds == {"ignorable", "nonignorable1", "nonignorable2"}
        assert {c.outcome.rho for c in configs} == {1.0, 0.5}

    def test_estimation_grid_rep_override(self):
        configs = paper_suite(1, reps=500)
        assert all(c.n_replications == 500 for c in configs)

    def test_testing_grid(self):
        configs = paper_suite(2)
        assert len(configs) == 24
        assert all(c.n_replications == 4000 for c in configs)
        assert all(c.rb_draws == 1000 for c in configs)
        assert all(c.seed == harness.DEFAULT_SEED for c in configs)
        assert {c.outcome.delta for c in configs} == {0.0, 0.5}
        assert len({c.label for c in configs}) == 24

    def test_design_is_shared(self):
        for config in paper_suite(2):
            assert config.design == paper_design()

    def test_unknown_table_rejected(self):
        # table 3 is table 1's high-rate scenarios read through the closed form
        for table_id in (0, 3, 4, "1", True):
            with pytest.raises(ConfigurationError,
                               match=r"^table_id must be (an integer|>= 1|<= 2), got"):
                paper_suite(table_id)


def _varblock_suite(reps, rb_draws):
    """N = 20, strata 0.2/0.8, 1:2:2 in random blocks of 5 or 10: the three
    kinds at effects 0 and 0.5."""
    design = TrialDesign(20, (0.2, 0.8), AllocationRatio((1, 2, 2)), 10, block_sizes=(5, 10))
    return [ScenarioConfig(design=design, outcome=OutcomeModel(rho=1.0, delta=delta),
                           misclass=MisclassModel(kind, 0.15, 0.30), n_replications=reps,
                           rb_draws=rb_draws, label=f"varblock {kind} d{delta:g}")
            for delta in (0.0, 0.5) for kind in KINDS]


# SHA-256 of ``repr(run_suite(grid))``.  A change of the random stream or of
# any result's last bit changes a digest: only a change that alters results
# on purpose may update one, and says why.
SUITE_DIGESTS = {
    "table1": (lambda: paper_suite(1, reps=300),
               "60e06abaddd0a971990fa17f9d54b3ba2c29a778c42e2567017f8311a5dd39f4"),
    "table2": (lambda: [replace(c, rb_draws=50) for c in paper_suite(2, reps=4)],
               "76dbd2156b3f29a2374b4f8fff30fbf6eae8ab366c1e741f669e07ccec4e0f31"),
    "varblock": (lambda: _varblock_suite(4, 50),
                 "f8a77de2a2f627066da5fd515482efec37d600b27617496c0fc1afa3660a4018"),
}


@pytest.mark.parametrize("grid", sorted(SUITE_DIGESTS))
def test_suite_results_are_pinned(grid):
    build, digest = SUITE_DIGESTS[grid]
    assert hashlib.sha256(repr(harness.run_suite(build())).encode()).hexdigest() == digest


@pytest.mark.parametrize("threads", [0, -3, True, "2", 1.5])
def test_bad_thread_counts_name_the_field(monkeypatch, threads):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
    for configs in ([_config(reps=2)], []):
        with pytest.raises(ConfigurationError, match="^threads must be"):
            harness.run_suite(configs, threads=threads)
    with pytest.raises(ConfigurationError, match="^threads must be"):
        run_scenario(_config(reps=2), threads=threads)


@pytest.mark.parametrize("threads", [1, 2, 2.0])
def test_empty_suite_starts_no_pool(monkeypatch, threads):
    monkeypatch.setattr(_InlinePool, "max_workers", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
    assert harness.run_suite([], threads=threads) == []
    assert _InlinePool.max_workers == []


def test_public_names_are_pinned():
    assert sorted(stratasim.__all__) == sorted([
        "AllocationRatio", "Cohort", "ConfigParseError", "ConfigurationError",
        "DegenerateDesignError", "MisclassModel", "OutcomeModel", "RandTestResult",
        "ScenarioConfig", "ScenarioMetrics", "SubgroupCounts", "TrialDesign",
        "conditional_moments", "expected_se", "noncentral_t_power", "paper_design",
        "paper_suite", "pooled_residual_sd", "randomization_pvalue", "randomize_cohort",
        "reported_strata", "reported_strata_mixture", "run_scenario", "tau_permuted_block",
        "truncnorm_moments", "unconditional_variance", "__version__",
    ])
    assert all(hasattr(stratasim, name) for name in stratasim.__all__)
