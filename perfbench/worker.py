"""One measured benchmark process.  ``run.py`` starts it; see that file.

Protocol on stdout: the line ``@ready`` marks the end of set-up (import,
scenario and reference construction, one warm-up cell, one rendered
table), right before the first timed cell; the line ``@result <json>``
carries the measurements.  Everything else goes to stderr.

Set-up covers the import of stratasim, so the library is imported from
the checkout's ``src`` inside ``main``, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARD_STOP_S = 140.0
WARMUP_INDEX = 2**31


def _import_library() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import stratasim

    if not Path(stratasim.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"stratasim imported from {stratasim.__file__}, not {src}")


def _manifest() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Setup:
    """Everything a run builds before its first timed cell."""

    def __init__(self, workload_name: str, seed: int) -> None:
        from stratasim import cli
        from stratasim.harness import run_scenario

        import checks
        import workloads

        self.workload = workloads.build(workload_name)
        self.seed = seed
        t0 = time.perf_counter_ns()
        self.refs = [checks.reference(cfg) for cfg in self.workload.scenarios]
        oracle_calls = sum(2 if r.power is not None else 1 for r in self.refs)
        self.check_us = (time.perf_counter_ns() - t0) / 1e3 / oracle_calls

        warm = self.workload.cell_config(seed, WARMUP_INDEX)
        results = [run_scenario(warm)]
        t0 = time.perf_counter_ns()
        rows = cli.metrics_rows(results)
        meta = {"tool": "stratasim", "seed": warm.seed,
                "scenarios": [cli.scenario_to_doc(r.config) for r in results]}
        text = cli.emit_table(rows, meta, "csv")
        self.emit_us = (time.perf_counter_ns() - t0) / 1e3
        if not rows or rows[0]["label"] not in text:
            raise RuntimeError("cli.emit_table did not render the warm-up rows")


def _peak_rss_mb() -> float:
    """Peak RSS of this process; no workload starts children in its timed loop."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(setup: Setup, seconds: float, min_cells: int) -> dict:
    """The untraced closed loop: end-to-end metrics and output checks."""
    from stratasim.harness import run_scenario

    import checks
    import speed

    wl = setup.workload
    n_scen = len(wl.scenarios)
    cells = []  # (index, config, metrics or None, wall seconds)
    kernel_s = [speed.kernel_seconds()]  # before each cell and after the last
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # whole rounds of scenarios only, so the mix of timed cells is fixed
        done = elapsed >= seconds and len(cells) >= min_cells and len(cells) % n_scen == 0
        if done or elapsed >= HARD_STOP_S:
            break
        index = len(cells)
        config = wl.cell_config(setup.seed, index)
        t0 = time.perf_counter()
        try:
            metrics = run_scenario(config)
        except Exception:  # a raising cell counts as failed, the run goes on
            traceback.print_exc()
            metrics = None
        cells.append((index, config, metrics, time.perf_counter() - t0))
        kernel_s.append(speed.kernel_seconds())
    wall = time.perf_counter() - start
    peak_rss = _peak_rss_mb()

    ok_cells = [c for c in cells if c[2] is not None]
    failed = {i for i, _, m, _ in cells if m is None}
    results = [checks.cell_invariants(i, cfg, m) for i, cfg, m, _ in ok_cells]
    pool = [(i, cfg, m) for i, cfg, m, _ in ok_cells if i < min_cells]
    results += checks.pooled_checks(pool, setup.refs)
    if ok_cells:
        index, config, metrics, _ = ok_cells[0]
        reruns = [("rerun identical", 1)]
        if wl.pool_threads:
            reruns.append((f"threads={wl.pool_threads} pool equals threads=1",
                           wl.pool_threads))
        for name, threads in reruns:
            try:
                again = run_scenario(config, threads=threads)
            except Exception:  # counts as a mismatch below
                traceback.print_exc()
                again = None
            results.append(checks.identical(name, index, metrics, again))
    for res in results:
        failed.update(res.failed_cells)

    # each cell's seconds per replication at the kernel's reference speed
    scale = [speed.REFERENCE_S * 2.0 / (before + after)
             for before, after in zip(kernel_s, kernel_s[1:])]
    per_rep = [w * scale[i] / cfg.n_replications for i, cfg, _, w in ok_cells]
    us_per_rep = [s * 1e6 for s in per_rep]
    by_scenario = [[] for _ in range(n_scen)]
    scen_reps = [0] * n_scen
    for (i, cfg, _, _), s in zip(ok_cells, per_rep):
        by_scenario[i % n_scen].append(s)
        scen_reps[i % n_scen] += cfg.n_replications
    # a scenario's cost is the median over its cells, so one cell that a
    # slow stretch hit harder than the kernel shows does not move it
    scen_s = [statistics.median(v) if v else math.nan for v in by_scenario]
    reps = sum(scen_reps)
    p90 = (statistics.quantiles(us_per_rep, n=10, method="inclusive")[8]
           if len(us_per_rep) > 1 else math.nan)
    return {
        "metrics": {
            "reps_per_s": reps / sum(s * r for s, r in zip(scen_s, scen_reps) if r),
            "rep_us_p50": statistics.median(us_per_rep) if us_per_rep else math.nan,
            "rep_us_p90": p90,
            "paper_scale_h": sum(p * s for p, s in zip(wl.paper_reps, scen_s)) / 3600.0,
            "peak_rss_mb": peak_rss,
        },
        "wall": {
            "reps_per_s": reps / sum(w for _, _, _, w in ok_cells) if ok_cells else math.nan,
            "host_speed": statistics.median(scale),
        },
        "attempted": len(cells),
        "failed": len(failed),
        "replications": reps,
        "timed_s": wall,
        "checks": [{"name": r.name, "detail": r.detail, "failed_cells": len(r.failed_cells)}
                   for r in results if not r.name.startswith("invariants") or r.failed_cells],
        "invariant_cells_checked": len(ok_cells),
    }


def traced_run(setup: Setup, seconds: float, spans_path: Path | None) -> dict:
    """The traced loop: per-layer metrics from spans around library calls."""
    from stratasim.harness import run_replication, run_scenario

    import tracing

    wl = setup.workload
    n_scen = len(wl.scenarios)
    tracer = tracing.Tracer()
    serial_s = run_rep_s = 0.0
    reps = cells = mismatches = invalid = flagged = rb_tests = 0
    pool_overhead = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and cells >= n_scen) or elapsed >= HARD_STOP_S:
            break
        config = wl.cell_config(setup.seed, cells)
        t0 = time.perf_counter()
        metrics = run_scenario(config)
        serial = time.perf_counter() - t0
        serial_s += serial
        if wl.pool_threads:
            t0 = time.perf_counter()
            run_scenario(config, threads=wl.pool_threads)
            pool_wall = time.perf_counter() - t0
            pool_overhead.append(pool_wall - serial / wl.pool_threads)
        invalid += metrics.n_invalid
        for variant in (metrics.corrected, metrics.reported):
            if variant is not None and config.rb_enabled:
                flagged += variant.rb_flagged
                rb_tests += variant.n
        for rep in range(config.n_replications):
            t0 = time.perf_counter()
            expected = run_replication(config, rep)
            run_rep_s += time.perf_counter() - t0
            tracer.trace_id = (cells, rep)
            try:
                record, bad = tracing.traced_replication(config, rep, tracer)
            except Exception:  # a stale mirror is reported, not fatal
                traceback.print_exc()
                mismatches += 1
                continue
            mismatches += bad + (repr(record) != repr(expected))
        reps += config.n_replications
        cells += 1

    self_ns = tracer.self_times()
    root_ns = tracer.durations(tracing.ROOT)
    draws = tracer.counts["rerandomize.draws"]
    kdraws = draws / 1000.0
    test_ns = tracer.durations("rerandomize.randomization_pvalue")
    replay_ns = sum(self_ns[name] for name in (
        "randomizer.batch_block_assignments", "randomizer.sequential_null_draw",
        "inference.batched_treatment_tstats"))
    def per_rep(ns: int) -> float:
        return ns / 1e3 / reps

    run_replication_us = run_rep_s * 1e6 / reps
    layer = {
        "harness.seeding_us": per_rep(self_ns["harness.seeding"]),
        "cohort.sample_cohort_us": per_rep(self_ns["cohort.sample_cohort"]),
        "cohort.observed_outcomes_us": per_rep(self_ns["cohort.observed_outcomes"]),
        "misclassify.ignorable_us": per_rep(self_ns["misclassify.ignorable"]),
        "misclassify.nonignorable_us": per_rep(self_ns["misclassify.nonignorable"]),
        "randomizer.randomize_cohort_us": per_rep(self_ns["randomizer.randomize_cohort"]),
        "inference.fit_model_us": per_rep(self_ns["inference.fit_model"]),
        "inference.ci_and_test_us": per_rep(self_ns["inference.ci_and_test"]),
        "randomizer.batch_block_assignments_us_per_kdraw":
            self_ns["randomizer.batch_block_assignments"] / 1e3 / kdraws if draws else 0.0,
        "inference.batched_tstats_us_per_kdraw":
            self_ns["inference.batched_treatment_tstats"] / 1e3 / kdraws if draws else 0.0,
        "rerandomize.randomization_pvalue_us": per_rep(test_ns),
        "rerandomize.self_us": per_rep(test_ns - replay_ns),
        "rerandomize.discard_share":
            tracer.counts["rerandomize.discarded"] / draws if draws else 0.0,
        "randomizer.sequential_null_draw_us":
            self_ns["randomizer.sequential_null_draw"] / 1e3 / draws if draws else 0.0,
        "harness.run_replication_us": run_replication_us,
        "harness.overhead_us_per_rep": serial_s * 1e6 / reps - run_replication_us,
        "harness.pool_overhead_s_per_cell":
            statistics.fmean(pool_overhead) if pool_overhead else 0.0,
        "harness.invalid_rep_share": invalid / reps,
        "harness.rb_flagged_share": flagged / rb_tests if rb_tests else 0.0,
        "analytic.check_us": setup.check_us,
        "cli.emit_table_us": setup.emit_us,
        "trace.unattributed_share": self_ns[tracing.ROOT] / root_ns,
        "trace.overhead": root_ns / 1e3 / reps / run_replication_us,
        "trace.mirror_mismatch": mismatches,
    }
    if spans_path is not None:
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return {
        "metrics": layer,
        "attempted": cells,
        "failed": 0,
        "replications": reps,
        "timed_s": time.perf_counter() - start,
        "spans": len(tracer.spans),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-cells", type=int, default=100)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    _import_library()
    setup = Setup(args.workload, args.seed)
    print("@ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_run(setup, args.seconds, args.spans)
    else:
        result = timed_run(setup, args.seconds, args.min_cells)
    result["manifest"] = _manifest()
    result["workload"] = {
        "scenarios": len(setup.workload.scenarios),
        "reps_per_cell": setup.workload.reps_per_cell,
        "paper_reps": sum(setup.workload.paper_reps),
    }
    print("@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
