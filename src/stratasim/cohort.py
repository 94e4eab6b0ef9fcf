"""Simulated patient populations with correlated potential outcomes.

Each patient belongs to a true stratum and carries one potential outcome
per treatment arm.  Outcomes share a single latent factor, giving every
pair of arms the same correlation ``rho``:

    y_a = mean(stratum, arm a) + sigma * (sqrt(rho) * u + sqrt(1 - rho) * e_a)

with ``u`` and the ``e_a`` independent standard normals.  At ``rho = 1``
the arm difference is the same constant ``delta`` for every patient.
Potential outcomes are shaped ``(..., n_patients, n_arms)`` but stored as
one contiguous plane of patients per arm.
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


@dataclass(frozen=True)
class OutcomeModel:
    """Normal outcome model: control-arm means by stratum, shift ``delta``
    for every active arm, common scale ``sigma``, pairwise correlation
    ``rho`` between arms."""

    rho: float = 1.0
    delta: float = 0.5
    strata_means: tuple[float, ...] = (0.0, 1.0)
    sigma: float = 1.0

    def __post_init__(self) -> None:
        for field in ("rho", "delta", "sigma"):
            object.__setattr__(self, field, as_real(field, getattr(self, field)))
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigurationError(f"rho must lie in [0, 1], got {self.rho}")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ConfigurationError(f"sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.delta):
            raise ConfigurationError(f"delta must be finite, got {self.delta}")
        means = as_tuple("strata_means", self.strata_means, as_real)
        if not all(map(math.isfinite, means)):
            raise ConfigurationError(f"strata_means must be finite, got {means!r}")
        object.__setattr__(self, "strata_means", means)

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


def potential_outcomes(strata: np.ndarray, model: OutcomeModel,
                       normals: np.ndarray) -> np.ndarray:
    """The ``(..., n_patients, n_arms)`` potential outcomes from labels
    ``(..., n_patients)`` and ``(..., n_patients, 1 + n_arms)`` standard
    normals: column 0 is the shared factor ``u``, the rest the ``e_a``,
    which are not read at ``rho = 1``.

    The result is a view of arm planes, ``(n_arms, ..., n_patients)`` in
    memory, so each arm's outcomes are contiguous along patients.
    """
    strata = as_codes("stratum", strata, len(model.strata_means))
    n_arms = normals.shape[-1] - 1
    means = np.array([[model.mean(s, arm) for s in range(len(model.strata_means))]
                      for arm in range(n_arms)])
    index = strata.astype(np.intp)
    shared = math.sqrt(model.rho) * normals[..., 0]
    planes = np.empty((n_arms, *strata.shape))
    for arm, plane in enumerate(planes):
        # the noise, sigma times it, then the mean, in place; at rho = 1,
        # u + 0 * e_a is u for every finite e_a
        if model.rho < 1.0:
            np.multiply(math.sqrt(1.0 - model.rho), normals[..., 1 + arm], out=plane)
            np.add(shared, plane, out=plane)
        else:
            plane[...] = shared
        np.multiply(model.sigma, plane, out=plane)
        np.add(means[arm].take(index), plane, out=plane)
    return np.moveaxis(planes, 0, -1)


def cohort_width(design: TrialDesign) -> int:
    """Uniforms per cohort: one per patient for the stratum, then ``1 +
    n_arms`` per patient for the standard normals."""
    return design.n_patients * (2 + design.allocation.n_arms)


def draw_cohort(
    design: TrialDesign,
    model: OutcomeModel,
    uniforms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """True strata and potential outcomes of cohorts from ``(...,
    cohort_width(design))`` uniforms, one cohort per row.

    The first ``n_patients`` uniforms of a row pick the strata; the rest
    are the ``(n_patients, 1 + n_arms)`` standard normals, by inversion
    with ``u = 0`` clamped to the smallest positive uniform so every
    normal is finite.  At ``rho = 1`` only the shared factor is inverted:
    the arm terms' uniforms are consumed but unused.
    """
    n = design.n_patients
    strata = strata_labels(design, uniforms[..., :n])
    cells = uniforms[..., n:].reshape(*strata.shape, -1)
    used = 1 if model.rho == 1.0 else cells.shape[-1]
    normals = np.empty(cells.shape)
    ndtri(np.maximum(cells[..., :used], _SMALLEST_UNIFORM), out=normals[..., :used])
    return strata, potential_outcomes(strata, model, normals)


def observed_outcomes(potentials: np.ndarray, treatments: np.ndarray) -> np.ndarray:
    """Select each patient's outcome under the assigned arm; any leading
    shape shared by ``potentials`` and ``treatments``.  One flat ``take``
    over the arm planes: patient ``i`` of arm ``a`` sits at ``a * size +
    i``, ``size`` patients to a plane."""
    treatments = np.asarray(treatments, dtype=np.intp)
    if treatments.shape != potentials.shape[:-1]:
        raise ConfigurationError(
            f"treatments have shape {treatments.shape}, expected {potentials.shape[:-1]}")
    size = treatments.size
    planes = np.moveaxis(potentials, -1, 0).reshape(-1)
    return planes.take(treatments.ravel() * size + np.arange(size)).reshape(treatments.shape)
