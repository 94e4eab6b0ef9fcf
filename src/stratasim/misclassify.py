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

One function, ``misclassify``, flips labels for every model, on a stack
of cohorts, with the ignorable uniforms or the trigger outcomes passed
in.  ``reported_strata`` applies it to one ``Cohort``, drawing those
uniforms from an rng or reading the trigger outcomes from its potential
outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np
from scipy.special import ndtri

from .cohort import Cohort, OutcomeModel
from .errors import ConfigurationError, as_codes, as_instance, as_real
from .randomizer import TrialDesign

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
            object.__setattr__(self, name, as_real(name, getattr(self, name), 0.0, 1.0, "[)"))


def check_two_strata(design: TrialDesign, outcome: OutcomeModel) -> None:
    """Misclassification flips between two strata: unless ``design`` is a
    ``TrialDesign`` of two strata and ``outcome`` an ``OutcomeModel`` of one
    mean per stratum, a ``ConfigurationError`` names the field."""
    as_instance("design", design, TrialDesign)
    as_instance("outcome", outcome, OutcomeModel)
    if design.n_strata != 2:
        raise ConfigurationError(
            f"strata_probs must list exactly two strata, got {design.n_strata}")
    if len(outcome.strata_means) != 2:
        raise ConfigurationError(f"strata_means must hold two means, one per stratum, "
                                 f"got {len(outcome.strata_means)}")


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


def misclassify(
    model: MisclassModel,
    outcome: OutcomeModel,
    strata: np.ndarray,
    trigger: np.ndarray | None,
    uniforms: np.ndarray | None,
) -> np.ndarray:
    """Reported labels of a stack of cohorts (any leading shape) from their
    true strata.  An ignorable flip takes one uniform per patient, shaped
    like ``strata``, and flips where it falls below the stratum's rate; a
    nonignorable flip takes each patient's trigger outcome, its outcome
    under arm ``TRIGGER_ARM[true stratum]`` shaped like ``strata``, and
    flips where it lies in ``flip_interval``.  Each model reads only its
    own input; the other may be None."""
    strata = as_codes("stratum", strata, 2)
    low = strata == LOW
    if model.kind == "ignorable":
        if uniforms is None:
            raise ConfigurationError("ignorable misclassification needs an rng")
        flip = uniforms < np.where(low, model.gamma_low, model.gamma_high)
    else:
        (low_lo, low_hi), (high_lo, high_hi) = (flip_interval(model, outcome, s)
                                                for s in (LOW, HIGH))
        flip = np.where(low, (low_lo <= trigger) & (trigger <= low_hi),
                        (high_lo <= trigger) & (trigger <= high_hi))
    return np.where(flip, HIGH - strata, strata).astype(np.int8)


def reported_strata(
    cohort: Cohort, model: MisclassModel, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Reported labels: ignorable flips draw exactly one uniform per
    patient from ``rng``, a ``np.random.Generator``; nonignorable flips draw
    nothing, a deterministic function of the cohort's trigger outcomes."""
    cohort = as_instance("cohort", cohort, Cohort)
    model = as_instance("model", model, MisclassModel)
    if rng is not None:
        rng = as_instance("rng", rng, np.random.Generator)
    if model.kind == "ignorable":
        uniforms = rng.random(cohort.n_patients) if rng is not None else None
        return misclassify(model, cohort.outcome, cohort.true_strata, None, uniforms)
    potentials, low = cohort.potentials, cohort.true_strata == LOW
    trigger = np.where(low, potentials[..., TRIGGER_ARM[LOW]], potentials[..., TRIGGER_ARM[HIGH]])
    return misclassify(model, cohort.outcome, cohort.true_strata, trigger, None)
