"""Workload definitions: which scenarios a run cycles through, at what size.

A *cell* is one ``harness.run_scenario`` call: one scenario at one seed.
Every workload is a closed loop with a single caller that runs cells back
to back with ``threads=1``, cycling through its scenarios in order.  Cell
seeds derive from the workload seed, so the same seed always gives the
same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from stratasim.cohort import OutcomeModel
from stratasim.harness import ScenarioConfig, paper_suite
from stratasim.misclassify import KINDS, MisclassModel
from stratasim.randomizer import AllocationRatio, TrialDesign


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[ScenarioConfig, ...]
    # replication count of each scenario in the paper's run, for paper_scale_h
    paper_reps: tuple[int, ...]
    # thread count of the pool path: the traced run times it per cell and the
    # timed run checks it against threads=1 (0: the workload skips the pool)
    pool_threads: int = 0

    @property
    def reps_per_cell(self) -> int:
        return self.scenarios[0].n_replications

    def cell_config(self, seed: int, index: int) -> ScenarioConfig:
        """Scenario of cell ``index``, reseeded from the workload seed."""
        base = self.scenarios[index % len(self.scenarios)]
        return replace(base, seed=cell_seed(seed, index))


def cell_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


# Replications per cell: sized so one cell takes roughly 0.1 to 0.15 s on a
# 2-core Xeon at the first baseline, which puts well over 100 cells in a run.
TABLE1_REPS = 100
TABLE2_REPS = 10
VARBLOCK_REPS = 4
VARBLOCK_RB_DRAWS = 200
POOL_THREADS = 2


def _varblock_scenarios(reps: int) -> tuple[ScenarioConfig, ...]:
    """N=20, strata 0.2/0.8, 1:2:2 in random blocks of 5 or 10, RB tests.

    Random block sizes send every null draw of the randomization test
    through one sequential ``randomize_cohort`` call.
    """
    design = TrialDesign(
        n_patients=20,
        strata_probs=(0.2, 0.8),
        allocation=AllocationRatio((1, 2, 2)),
        block_size=10,
        block_sizes=(5, 10),
    )
    return tuple(
        ScenarioConfig(
            design=design,
            outcome=OutcomeModel(rho=1.0, delta=delta),
            misclass=MisclassModel(kind, 0.15, 0.30),
            n_replications=reps,
            rb_draws=VARBLOCK_RB_DRAWS,
            label=f"varblock {kind} d{delta:g}",
        )
        for delta in (0.0, 0.5)
        for kind in KINDS
    )


def build(name: str) -> Workload:
    """Construct the named workload from the library's own scenario grids."""
    table1_paper = tuple(c.n_replications for c in paper_suite(1))
    table2_paper = paper_suite(2)
    if name == "table1_serial":
        return Workload(
            name=name,
            scenarios=tuple(paper_suite(1, reps=TABLE1_REPS)),
            paper_reps=table1_paper,
            pool_threads=POOL_THREADS,
        )
    if name == "table2_rb":
        return Workload(
            name=name,
            scenarios=tuple(paper_suite(2, reps=TABLE2_REPS)),
            paper_reps=tuple(c.n_replications for c in table2_paper),
        )
    if name == "varblock_rb":
        scenarios = _varblock_scenarios(VARBLOCK_REPS)
        # not a paper grid: project at the randomization-test table's count
        return Workload(
            name=name,
            scenarios=scenarios,
            paper_reps=(table2_paper[0].n_replications,) * len(scenarios),
        )
    raise ValueError(f"unknown workload {name!r}")
