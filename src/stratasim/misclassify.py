"""Strata misclassification: reported labels that can differ from truth.

All models flip a fraction ``gamma_low`` of the lower stratum upward and
a fraction ``gamma_high`` of the upper stratum downward.  They differ in
*which* patients flip:

- ignorable: uniformly at random, independent of outcomes;
- nonignorable1: the lower patients with the largest control-arm
  outcomes and the upper patients with the smallest arm-1 outcomes;
- nonignorable2: the same construction with both tails reversed.

Both nonignorable models follow one rule, ``flip_interval``: a patient
flips when the trigger outcome of the true stratum (``TRIGGER_ARM``)
falls in one tail of its marginal, cut at the quantile of the nominal
rate, so the flip fractions equal the nominal rates exactly.  The
closed-form mixture in :mod:`.analytic` conditions on the same
intervals.  Reported labels depend only on strata and potential
outcomes, never on treatment assignment: they are computed before
randomization.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np
from scipy.special import ndtri

from .cohort import Cohort, OutcomeModel
from .errors import ConfigurationError, as_codes, as_real

KINDS = ("ignorable", "nonignorable1", "nonignorable2")
LOW, HIGH = 0, 1
# arm whose potential outcome triggers a nonignorable flip, by true stratum
TRIGGER_ARM = (0, 1)


@dataclass(frozen=True)
class MisclassModel:
    kind: str
    gamma_low: float = 0.0
    gamma_high: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"kind must be one of {', '.join(KINDS)}, got {self.kind!r}"
            )
        for name in ("gamma_low", "gamma_high"):
            rate = as_real(name, getattr(self, name))
            object.__setattr__(self, name, rate)
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1), got {rate}")


def apply_ignorable(
    strata: np.ndarray, model: MisclassModel, rng: np.random.Generator
) -> np.ndarray:
    """Flip labels at the nominal rates, independently of outcomes."""
    return _flip_ignorable(strata, model, rng.random(np.shape(strata)[0]))


def _flip_ignorable(strata: np.ndarray, model: MisclassModel, uniforms: np.ndarray) -> np.ndarray:
    strata = as_codes("stratum", strata, 2)
    rate = np.where(strata == LOW, model.gamma_low, model.gamma_high)
    return np.where(uniforms < rate, HIGH - strata, strata).astype(np.int8)


def flip_interval(
    model: MisclassModel, outcome: OutcomeModel, stratum: int
) -> tuple[float, float]:
    """Closed interval ``(lower, upper)`` of the trigger outcome in which a
    patient of true ``stratum`` flips under a nonignorable model.

    The trigger outcome is arm ``TRIGGER_ARM[stratum]``.  nonignorable1
    takes the upper tail in the lower stratum and the lower tail in the
    upper one; nonignorable2 takes the opposite tails.  The cutoff is the
    quantile of the trigger marginal at the stratum's nominal rate.
    """
    if model.kind == "ignorable":
        raise ConfigurationError("ignorable misclassification has no flip interval")
    rate = model.gamma_low if stratum == LOW else model.gamma_high
    upper_tail = (stratum == LOW) == (model.kind == "nonignorable1")
    center = outcome.mean(stratum, TRIGGER_ARM[stratum])
    # -ndtri(rate) for the upper tail: ndtri(1 - rate) loses it to rounding in 1 - rate
    z = ndtri(rate)
    cut = center + outcome.sigma * (-z if upper_tail else z)
    return (cut, inf) if upper_tail else (-inf, cut)


def apply_nonignorable(cohort: Cohort, model: MisclassModel) -> np.ndarray:
    """Flip every patient whose trigger outcome lies in the flip interval
    of their true stratum."""
    return _flip_nonignorable(cohort.true_strata, cohort.potentials, model, cohort.outcome)


def _flip_nonignorable(strata: np.ndarray, potentials: np.ndarray, model: MisclassModel,
                       outcome: OutcomeModel) -> np.ndarray:
    strata = as_codes("stratum", strata, 2)
    low = strata == LOW
    (low_lo, low_hi), (high_lo, high_hi) = (flip_interval(model, outcome, s) for s in (LOW, HIGH))
    y = np.where(low, potentials[..., TRIGGER_ARM[LOW]], potentials[..., TRIGGER_ARM[HIGH]])
    flip = np.where(low, (low_lo <= y) & (y <= low_hi), (high_lo <= y) & (y <= high_hi))
    return np.where(flip, HIGH - strata, strata).astype(np.int8)


def misclassify(
    model: MisclassModel,
    outcome: OutcomeModel,
    strata: np.ndarray,
    potentials: np.ndarray,
    uniforms: np.ndarray | None,
) -> np.ndarray:
    """Reported labels of a stack of cohorts (any leading shape) from their
    true strata and potential outcomes.  The ignorable model also takes
    one uniform per patient, shaped like ``strata``; the others take
    none."""
    if model.kind != "ignorable":
        return _flip_nonignorable(strata, potentials, model, outcome)
    if uniforms is None:
        raise ConfigurationError("ignorable misclassification needs an rng")
    return _flip_ignorable(strata, model, uniforms)


def reported_strata(
    cohort: Cohort, model: MisclassModel, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Reported labels: ignorable flips draw exactly one uniform per
    patient from ``rng``; nonignorable flips draw nothing, a deterministic
    function of the cohort."""
    ignorable = rng is not None and model.kind == "ignorable"
    uniforms = rng.random(cohort.n_patients) if ignorable else None
    return misclassify(model, cohort.outcome, cohort.true_strata, cohort.potentials, uniforms)
