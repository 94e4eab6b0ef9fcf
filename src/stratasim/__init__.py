"""Simulation toolkit for stratified block randomization with
misclassified strata.

Core pieces: trial designs and permuted-block assignment
(:mod:`.randomizer`), potential-outcome cohorts (:mod:`.cohort`),
strata reporting error models (:mod:`.misclassify`), linear-model and
randomization inference (:mod:`.inference`, :mod:`.rerandomize`),
closed-form mixture summaries (:mod:`.analytic`), subgroup allocation
variances (:mod:`.subgroup`), and the replication harness plus CLI
(:mod:`.harness`, :mod:`.cli`).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .analytic import (
    expected_se,
    noncentral_t_power,
    pooled_residual_sd,
    reported_strata_mixture,
    truncnorm_moments,
)
from .cohort import Cohort, OutcomeModel
from .errors import ConfigParseError, ConfigurationError, DegenerateDesignError
from .harness import ScenarioConfig, ScenarioMetrics, paper_suite, run_scenario
from .misclassify import MisclassModel, reported_strata
from .randomizer import AllocationRatio, TrialDesign, paper_design, randomize_cohort
from .rerandomize import RandTestResult, randomization_pvalue
from .subgroup import (
    SubgroupCounts,
    conditional_moments,
    tau_permuted_block,
    unconditional_variance,
)

__all__ = [
    "AllocationRatio",
    "Cohort",
    "ConfigParseError",
    "ConfigurationError",
    "DegenerateDesignError",
    "MisclassModel",
    "OutcomeModel",
    "RandTestResult",
    "ScenarioConfig",
    "ScenarioMetrics",
    "SubgroupCounts",
    "TrialDesign",
    "conditional_moments",
    "expected_se",
    "noncentral_t_power",
    "paper_design",
    "paper_suite",
    "pooled_residual_sd",
    "randomization_pvalue",
    "randomize_cohort",
    "reported_strata",
    "reported_strata_mixture",
    "run_scenario",
    "tau_permuted_block",
    "truncnorm_moments",
    "unconditional_variance",
    "__version__",
]
