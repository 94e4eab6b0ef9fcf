"""Output checks.  Each gives a ``CheckResult`` naming the cells it failed.

The checks hold whatever random stream the library uses: they compare a
run with itself (determinism) or pooled Monte Carlo estimates with
closed-form references, at a tolerance of four Monte Carlo standard
errors (Morris, White & Crowther, Stat Med 2019).  The caller pools only
the first 100 cells of a run, so the checks' sample size, and with it
their strictness, does not grow as the program gets faster.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from stratasim.analytic import expected_se, noncentral_t_power
from stratasim.harness import ScenarioConfig, ScenarioMetrics

Z = 4.0
# expected_se assumes the exact target arm counts.  With random block
# sizes of 5 or 10 at N=20 the arm counts vary, and the mean model SE sits
# 1.9% above it (20,000 ignorable replications of the varblock design), so
# that design gets a 3% allowance on top of the Monte Carlo tolerance.
RANDOM_BLOCK_SE_ALLOWANCE = 0.03


@dataclass(frozen=True)
class Reference:
    """Closed-form values for the corrected-strata analysis of one scenario."""

    se: float
    power: float | None


def reference(config: ScenarioConfig) -> Reference:
    design = config.design
    se = expected_se(design, config.outcome.sigma)
    df = design.n_patients - design.n_strata - (design.allocation.n_arms - 1)
    power = None
    if config.outcome.delta != 0.0:
        power = noncentral_t_power(config.outcome.delta, se, df, config.alpha)
    return Reference(se=se, power=power)


@dataclass
class CheckResult:
    name: str
    detail: str
    failed_cells: list[int]


def cell_invariants(index: int, config: ScenarioConfig, metrics: ScenarioMetrics) -> CheckResult:
    """Rates lie in [0, 1] and valid plus invalid replications add up."""
    problems = []
    if metrics.n_valid + metrics.n_invalid != config.n_replications:
        problems.append(f"n_valid {metrics.n_valid} + n_invalid {metrics.n_invalid} "
                        f"!= reps {config.n_replications}")
    for variant in (metrics.corrected, metrics.reported):
        if variant is None:
            continue
        for name in ("coverage", "reject_rate", "rb_reject_rate"):
            rate = getattr(variant, name)
            if rate is not None and not 0.0 <= rate <= 1.0:
                problems.append(f"{variant.strata_used}.{name} = {rate!r}")
    return CheckResult(f"invariants cell {index}", "; ".join(problems) or "ok",
                       [index] if problems else [])


def identical(name: str, index: int, first: ScenarioMetrics,
              second: ScenarioMetrics | None) -> CheckResult:
    """Bit-identical metrics; repr keeps every float digit and NaN compares.

    ``second`` is None when the repeat raised, which counts as a mismatch.
    """
    same = repr(first) == repr(second)
    return CheckResult(name, "bit-identical" if same else "differs",
                       [] if same else [index])


def _pooled_rate(cells, attr: str) -> tuple[float, int]:
    n = sum(m.corrected.n for _, _, m in cells)
    hits = sum(getattr(m.corrected, attr) * m.corrected.n for _, _, m in cells)
    return (hits / n if n else math.nan), n


def pooled_checks(cells: list[tuple[int, ScenarioConfig, ScenarioMetrics]],
                  refs: list[Reference]) -> list[CheckResult]:
    """Corrected-strata analyses pooled over cells, against references.

    ``cells`` holds ``(index, config, metrics)``; cell ``i`` runs scenario
    ``i % len(refs)`` and ``refs`` lists the workload's references in
    scenario order.  Coverage, mean SE and power
    are checked on ignorable cells, where outcome-independent flips keep
    the corrected model exact; the randomization-test level is checked on
    every delta = 0 cell, since the test is exact under any reporting
    error.
    """
    results = []

    def record(name, cells_used, ok, detail):
        failed = [] if ok else [i for i, _, _ in cells_used]
        results.append(CheckResult(name, detail, failed))

    ignorable = [c for c in cells if c[1].misclass.kind == "ignorable" and c[2].corrected.n]
    if ignorable:
        alpha = ignorable[0][1].alpha
        coverage, n = _pooled_rate(ignorable, "coverage")
        target = 1.0 - alpha
        tol = Z * math.sqrt(target * alpha / n)
        record("coverage", ignorable, abs(coverage - target) <= tol,
               f"{coverage:.4f} vs {target:.2f} +- {tol:.4f} over {n} reps")

        se_cells = [m.corrected.mean_se for _, _, m in ignorable]
        se_ref = statistics.fmean(refs[i % len(refs)].se for i, _, _ in ignorable)
        if len(se_cells) > 1:
            batch_se = statistics.stdev(se_cells) / math.sqrt(len(se_cells))
            allowance = (RANDOM_BLOCK_SE_ALLOWANCE * se_ref
                         if ignorable[0][1].design.block_sizes is not None else 0.0)
            tol = Z * batch_se + allowance
            mean_se = statistics.fmean(se_cells)
            record("mean_se", ignorable, abs(mean_se - se_ref) <= tol,
                   f"{mean_se:.5f} vs expected_se {se_ref:.5f} +- {tol:.5f} "
                   f"over {len(se_cells)} cells")

        powered = [c for c in ignorable if c[1].outcome.delta != 0.0]
        if powered:
            power, n = _pooled_rate(powered, "reject_rate")
            ref = statistics.fmean(refs[i % len(refs)].power for i, _, _ in powered)
            tol = Z * math.sqrt(ref * (1.0 - ref) / n)
            record("power", powered, abs(power - ref) <= tol,
                   f"{power:.4f} vs noncentral_t_power {ref:.4f} +- {tol:.4f} over {n} reps")

    null_rb = [c for c in cells
               if c[1].outcome.delta == 0.0 and c[1].rb_enabled and c[2].corrected.n]
    if null_rb:
        alpha = null_rb[0][1].alpha
        level, n = _pooled_rate(null_rb, "rb_reject_rate")
        bound = alpha + Z * math.sqrt(alpha * (1.0 - alpha) / n)
        record("rb_level", null_rb, level <= bound,
               f"{level:.4f} <= {bound:.4f} over {n} reps")
    return results

