"""Shared fixtures: named simulation scenarios, run lazily and cached for
the whole session so module tests and the acceptance suite share work."""

from __future__ import annotations

import pytest

from stratasim.cohort import OutcomeModel
from stratasim.harness import DEFAULT_SEED, ScenarioConfig, paper_design, run_scenario
from stratasim.misclassify import MisclassModel

LOW_RATES = (0.02, 0.02)
HIGH_RATES = (0.15, 0.30)


def _config(kind, rates, rho, delta, reps, rb_draws=0):
    return ScenarioConfig(
        design=paper_design(),
        outcome=OutcomeModel(rho=rho, delta=delta),
        misclass=MisclassModel(kind, *rates),
        n_replications=reps,
        rb_draws=rb_draws,
        seed=DEFAULT_SEED,
        label=f"{kind} g{rates[0]:g}/{rates[1]:g} rho{rho:g} d{delta:g}",
    )


# Estimation runs pin bias/coverage/mean-SE, level runs pin test size, and
# power runs pin the method orderings; sizes follow the desk-scale defaults.
SCENARIOS = {
    "est_ign_low_rho1": _config("ignorable", LOW_RATES, 1.0, 0.5, 50_000),
    "est_ign_low_rho05": _config("ignorable", LOW_RATES, 0.5, 0.5, 50_000),
    "est_ign_high_rho1": _config("ignorable", HIGH_RATES, 1.0, 0.5, 50_000),
    "est_non1_high_rho1": _config("nonignorable1", HIGH_RATES, 1.0, 0.5, 50_000),
    "lev_ign_low_rho1": _config("ignorable", LOW_RATES, 1.0, 0.0, 4000, 1000),
    "lev_ign_low_rho05": _config("ignorable", LOW_RATES, 0.5, 0.0, 4000, 1000),
    "lev_ign_high_rho1": _config("ignorable", HIGH_RATES, 1.0, 0.0, 4000, 1000),
    "lev_ign_high_rho05": _config("ignorable", HIGH_RATES, 0.5, 0.0, 4000, 1000),
    "lev_non1_high_rho1": _config("nonignorable1", HIGH_RATES, 1.0, 0.0, 4000, 1000),
    "pow_non1_high_rho1": _config("nonignorable1", HIGH_RATES, 1.0, 0.5, 4000, 1000),
    "pow_non1_high_rho05": _config("nonignorable1", HIGH_RATES, 0.5, 0.5, 4000, 1000),
    "pow_non2_high_rho1": _config("nonignorable2", HIGH_RATES, 1.0, 0.5, 4000, 1000),
    "pow_non2_high_rho05": _config("nonignorable2", HIGH_RATES, 0.5, 0.5, 4000, 1000),
}

_cache: dict[str, object] = {}


@pytest.fixture(scope="session")
def scenario_metrics():
    """Callable fixture: scenario_metrics(name) -> cached ScenarioMetrics."""

    def get(name: str):
        if name not in _cache:
            # the thread count never changes results; two workers cut the wait
            _cache[name] = run_scenario(SCENARIOS[name], threads=2)
        return _cache[name]

    return get
