"""Stratified permuted-block treatment assignment.

Patients arrive in enrollment order carrying a reported stratum label.
Each stratum deals treatment codes from its own sequence of randomly
permuted blocks: the next patient in a stratum receives the next unused
code of that stratum's current block, and a fresh block is opened when
the current one is exhausted.  The final block of a stratum may end up
partially used, which is the only source of imbalance.

One vectorized sampler, ``batch_block_assignments``, draws every
assignment: the observed one is a batch of one (``randomize_cohort``)
and the re-randomization null draws are a larger batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# fills the slots of a block shorter than the longest admissible length
_PAD = -1


@dataclass(frozen=True)
class AllocationRatio:
    """Integer per-arm allocation weights, e.g. ``(1, 2, 2)`` for 1:2:2.

    Arm 0 is the control arm by convention.
    """

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        weights = tuple(int(w) for w in self.weights)
        if len(weights) < 2:
            raise ConfigurationError("allocation needs at least two arms")
        if any(w < 1 for w in weights) or weights != tuple(self.weights):
            raise ConfigurationError(
                f"allocation weights must be positive integers, got {self.weights!r}"
            )
        object.__setattr__(self, "weights", weights)

    @property
    def n_arms(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> int:
        return sum(self.weights)

    def target_share(self, arm: int) -> float:
        return self.weights[arm] / self.total


@dataclass(frozen=True)
class TrialDesign:
    """Enrollment size, strata mix, and block randomization settings.

    ``block_sizes`` optionally lists admissible block lengths; when set,
    every block draws its length uniformly from the list, in the observed
    assignment and in every re-randomization draw alike.  Otherwise all
    blocks have length ``block_size``.
    """

    n_patients: int
    strata_probs: tuple[float, ...]
    allocation: AllocationRatio
    block_size: int
    block_sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_patients < 1:
            raise ConfigurationError(f"n_patients must be >= 1, got {self.n_patients}")
        probs = tuple(float(p) for p in self.strata_probs)
        if len(probs) < 1 or not all(math.isfinite(p) and p >= 0 for p in probs):
            raise ConfigurationError(
                f"strata_probs must be nonnegative and finite, got {probs!r}"
            )
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ConfigurationError(
                f"strata_probs must sum to 1 within 1e-12, got sum {sum(probs)!r}"
            )
        object.__setattr__(self, "strata_probs", probs)
        object.__setattr__(self, "allocation", _coerce_allocation(self.allocation))
        block_pattern(self.allocation, self.block_size)
        if self.block_sizes is not None:
            sizes = tuple(int(b) for b in self.block_sizes)
            if not sizes:
                raise ConfigurationError("block_sizes must be a nonempty list when given")
            for size in sizes:
                block_pattern(self.allocation, size)
            object.__setattr__(self, "block_sizes", sizes)

    @property
    def n_strata(self) -> int:
        return len(self.strata_probs)


def _coerce_allocation(allocation) -> AllocationRatio:
    if isinstance(allocation, AllocationRatio):
        return allocation
    return AllocationRatio(tuple(allocation))


def block_pattern(allocation: AllocationRatio, block_size: int) -> np.ndarray:
    """Multiset of treatment codes filling one block, in sorted order.

    The block holds ``block_size * w_a / sum(w)`` copies of each arm ``a``,
    so ``block_size`` must be a multiple of the weight total.
    """
    allocation = _coerce_allocation(allocation)
    if block_size < 1 or block_size % allocation.total != 0:
        raise ConfigurationError(
            f"block size {block_size} is not a positive multiple of the "
            f"allocation weight total {allocation.total}"
        )
    per_unit = block_size // allocation.total
    counts = [w * per_unit for w in allocation.weights]
    return np.repeat(np.arange(allocation.n_arms, dtype=np.int8), counts)


def batch_block_assignments(
    design: TrialDesign,
    reported_strata: np.ndarray,
    n_draws: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n_draws`` independent stratified block assignments at once.

    In every draw, a stratum of ``m`` patients takes ``ceil(m / shortest
    block length)`` iid blocks, each with a length drawn uniformly from
    ``design.block_sizes`` (always ``block_size`` when that is unset) and
    its pattern uniformly permuted, and deals their first ``m`` codes to
    its patients in enrollment order.  That is the law of opening a fresh
    block whenever the current one runs out.

    Stream layout: strata in order; per stratum, one uniform sort key per
    slot of ``(n_draws, n_blocks, longest length)`` and then, only when
    there is a length menu, one length pick per block.
    """
    reported = np.asarray(reported_strata)
    if reported.shape != (design.n_patients,):
        raise ConfigurationError(
            f"reported_strata has shape {reported.shape}, expected ({design.n_patients},)"
        )
    members = [np.flatnonzero(reported == s) for s in range(design.n_strata)]
    if sum(idx.size for idx in members) != design.n_patients:
        stray = reported[~np.isin(reported, np.arange(design.n_strata))]
        raise ConfigurationError(
            f"reported stratum {stray[0]} outside 0..{design.n_strata - 1}"
        )
    sizes = design.block_sizes or (design.block_size,)
    # one sorted pattern per admissible length, padded out to the longest
    table = np.full((len(sizes), max(sizes)), _PAD, dtype=np.int8)
    for row, size in zip(table, sizes):
        row[:size] = block_pattern(design.allocation, size)
    out = np.empty((n_draws, design.n_patients), dtype=np.int8)
    for idx in members:
        if idx.size == 0:
            continue
        n_blocks = -(-idx.size // min(sizes))
        # argsort of iid uniforms along the last axis is a uniform permutation
        order = np.argsort(rng.random((n_draws, n_blocks, table.shape[1])), axis=-1)
        if len(sizes) == 1:
            codes = table[0][order].reshape(n_draws, -1)
        else:
            picks = rng.integers(len(sizes), size=(n_draws, n_blocks, 1))
            codes = table[picks, order].reshape(n_draws, -1)
            # striking the padding from a uniformly permuted padded block
            # leaves a uniform permutation of its pattern; every row keeps
            # at least idx.size codes
            keep = codes != _PAD
            keep &= keep.cumsum(axis=1) <= idx.size
            codes = codes[keep].reshape(n_draws, idx.size)
        out[:, idx] = codes[:, : idx.size]
    return out


def randomize_cohort(
    design: TrialDesign,
    reported_strata: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Assign all patients in enrollment order, returning treatment codes.

    A batch of one from ``batch_block_assignments``.
    """
    return batch_block_assignments(design, reported_strata, 1, rng)[0]
