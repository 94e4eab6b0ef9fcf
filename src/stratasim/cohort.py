"""Simulated patient populations with correlated potential outcomes.

Each patient belongs to a true stratum and carries one potential outcome
per treatment arm.  Outcomes share a single latent factor, giving every
pair of arms the same correlation ``rho``:

    y_a = mean(stratum, arm a) + sigma * (sqrt(rho) * u + sqrt(1 - rho) * e_a)

with ``u`` and the ``e_a`` independent standard normals.  At ``rho = 1``
the arm difference is the same constant ``delta`` for every patient.
``outcome_values`` holds this arithmetic, in this order, for every caller.

``potential_outcomes`` builds every arm's outcome, ``(..., n_patients,
n_arms)``, for ``Cohort`` and its readers.  A replication never does: it
keeps each patient's stratum, ``sqrt(rho) * u`` and, below ``rho = 1``,
the uniforms of the ``e_a`` (``cohort_factors``), and ``drawn_outcomes``
inverts and computes only the outcome a stage reads, under one arm per
patient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConfigurationError, as_codes, as_real, as_tuple
from .randomizer import TrialDesign

# the smallest positive value of ``Generator.random``
_SMALLEST_UNIFORM = 2.0**-53
# the largest |mean| / sigma of an outcome model: one ulp of it is 2**-12 sigma
MAX_MEAN_TO_SIGMA = 2.0**40
# the range of sigma: squares of outcome-scale numbers, up to 2**40 sigma and
# summed over a replication's patients, stay normal floats
SIGMA_RANGE = (2.0**-400, 2.0**400)


@dataclass(frozen=True)
class OutcomeModel:
    """Normal outcome model: control-arm means by stratum, shift ``delta``
    for every active arm, common scale ``sigma``, pairwise correlation
    ``rho`` between arms.  ``sigma`` lies in ``SIGMA_RANGE``, and neither
    a mean nor ``delta`` exceeds ``MAX_MEAN_TO_SIGMA * sigma`` in size."""

    rho: float = 1.0
    delta: float = 0.5
    strata_means: tuple[float, ...] = (0.0, 1.0)
    sigma: float = 1.0

    def __post_init__(self) -> None:
        for field in ("rho", "delta", "sigma"):
            object.__setattr__(self, field, as_real(field, getattr(self, field)))
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigurationError(f"rho must lie in [0, 1], got {self.rho}")
        if not SIGMA_RANGE[0] <= self.sigma <= SIGMA_RANGE[1]:
            raise ConfigurationError(f"sigma must lie in [2**-400, 2**400], got {self.sigma:g}")
        object.__setattr__(self, "strata_means",
                           as_tuple("strata_means", self.strata_means, as_real))
        means = {f"strata_means[{i}]": mean for i, mean in enumerate(self.strata_means)}
        for field, value in {"delta": self.delta, **means}.items():
            if abs(value) > MAX_MEAN_TO_SIGMA * self.sigma:
                raise ConfigurationError(f"{field} must lie within 2**40 sigma of 0, got {value:g}")

    def mean(self, stratum: int, arm: int) -> float:
        """Mean outcome for a stratum/arm cell."""
        base = self.strata_means[stratum]
        return base + self.delta if arm >= 1 else base


@dataclass
class Cohort:
    """Array-backed cohort in enrollment order: true strata, potential
    outcomes with one column per arm, and the model that drew them."""

    true_strata: np.ndarray
    potentials: np.ndarray
    outcome: OutcomeModel

    @property
    def n_patients(self) -> int:
        return len(self.true_strata)


def strata_labels(design: TrialDesign, uniforms: np.ndarray) -> np.ndarray:
    """True stratum labels from one uniform per patient, any leading shape."""
    cum = np.cumsum(design.strata_probs)
    labels = np.searchsorted(cum, uniforms, side="right")
    return np.minimum(labels, design.n_strata - 1).astype(np.int8)


def outcome_values(model: OutcomeModel, strata: np.ndarray, arms, shared: np.ndarray,
                   noise: np.ndarray | None) -> np.ndarray:
    """Outcomes of patients with stratum codes ``strata`` under ``arms``, one
    arm or one per patient, from the shared factor already scaled, ``shared
    = sqrt(rho) * u``, and the standard normals ``noise`` of those arms,
    which are not read at ``rho = 1`` and may be None there:

        mean(stratum, arm) + sigma * (shared + sqrt(1 - rho) * noise)

    evaluated in that order, so every caller gets the same bits; at ``rho =
    1``, ``u + 0 * e`` is ``u`` for every finite ``e``.  Every active arm
    has the mean ``mean(stratum, 1)``."""
    n_strata = len(model.strata_means)
    means = np.array([[model.mean(s, arm) for s in range(n_strata)] for arm in (0, 1)])
    index = strata + n_strata * np.minimum(arms, 1, dtype=np.intp)
    if model.rho < 1.0:
        values = math.sqrt(1.0 - model.rho) * noise
        values += shared
        values *= model.sigma
    else:
        values = model.sigma * shared
    values += means.take(index)
    return values


def potential_outcomes(strata: np.ndarray, model: OutcomeModel,
                       normals: np.ndarray) -> np.ndarray:
    """The ``(..., n_patients, n_arms)`` potential outcomes from labels
    ``(..., n_patients)`` and ``(..., n_patients, 1 + n_arms)`` standard
    normals: column 0 is the shared factor ``u``, the rest the ``e_a``,
    which are not read at ``rho = 1``.  Each arm is one ``outcome_values``
    call."""
    strata = as_codes("stratum", strata, len(model.strata_means))
    shared = math.sqrt(model.rho) * normals[..., 0]
    return np.stack([outcome_values(model, strata, arm, shared, normals[..., 1 + arm])
                     for arm in range(normals.shape[-1] - 1)], axis=-1)


def cohort_width(design: TrialDesign) -> int:
    """Uniforms per cohort: one per patient for the stratum, then ``1 +
    n_arms`` per patient for the standard normals."""
    return design.n_patients * (2 + design.allocation.n_arms)


def _normals(uniforms: np.ndarray) -> np.ndarray:
    """Standard normals by inversion, with ``u = 0`` clamped to the smallest
    positive uniform so every normal is finite."""
    return ndtri(np.maximum(uniforms, _SMALLEST_UNIFORM))


def cohort_factors(
    design: TrialDesign,
    model: OutcomeModel,
    uniforms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """What a replication keeps of cohorts drawn from ``(...,
    cohort_width(design))`` uniforms, one cohort per row: the true strata,
    the shared factor ``sqrt(rho) * u`` and, below ``rho = 1``, the ``(...,
    n_patients, n_arms)`` uniforms of the ``e_a``, copied so ``uniforms``
    can be freed; None at ``rho = 1``, where they are consumed but unread.

    The first ``n_patients`` uniforms of a row pick the strata; the rest
    are ``n_patients`` rows of ``1 + n_arms``: the uniform of ``u``, then
    those of the ``e_a``.  ``drawn_outcomes`` inverts the ``e_a`` it reads.
    """
    n = design.n_patients
    strata = strata_labels(design, uniforms[..., :n])
    cells = uniforms[..., n:].reshape(*strata.shape, -1)
    shared = _normals(cells[..., 0])
    shared *= math.sqrt(model.rho)
    noise = cells[..., 1:].copy() if model.rho < 1.0 else None
    return strata, shared, noise


def drawn_outcomes(model: OutcomeModel, strata: np.ndarray, arms, shared: np.ndarray,
                   noise: np.ndarray | None) -> np.ndarray:
    """Each patient's outcome under its arm in ``arms`` (one arm, or one per
    patient), from ``cohort_factors``: only those arms' noise uniforms are
    inverted, and none at ``rho = 1``."""
    if np.shape(arms) not in ((), strata.shape):
        raise ConfigurationError(f"arms have shape {np.shape(arms)}, expected {strata.shape}")
    normals = None
    if noise is not None:
        size, n_arms = strata.size, noise.shape[-1]
        picks = np.arange(size) * n_arms + np.broadcast_to(arms, strata.shape).ravel()
        normals = _normals(noise.reshape(-1).take(picks)).reshape(strata.shape)
    return outcome_values(model, strata, arms, shared, normals)
