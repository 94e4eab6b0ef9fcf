"""Stratified permuted-block treatment assignment.

Patients arrive in enrollment order carrying a reported stratum label.
Each stratum deals treatment codes from its own sequence of randomly
permuted blocks: the next patient in a stratum receives the next unused
code of that stratum's current block, and a fresh block is opened when
the current one is exhausted.  The final block of a stratum may end up
partially used, which is the only source of imbalance.

One vectorized sampler, ``batch_block_assignments``, draws every
assignment: the observed one is a batch of one (``randomize_cohort``)
and the re-randomization null draws are a larger batch.  A uniformly
permuted block is a uniform pick among the distinct arrangements of its
pattern, so the sampler deals each block as one integer index into a
cached table of those arrangements.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, as_int

# fills the slots of a block shorter than the longest admissible length
_PAD = -1
# blocks with more distinct arrangements than this are permuted by sorting
# uniform keys instead of indexing a table (1:2:2 in 10 has 3,150)
MAX_TABLE_ROWS = 100_000


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
        object.__setattr__(self, "n_patients", as_int("n_patients", self.n_patients))
        object.__setattr__(self, "block_size", as_int("block_size", self.block_size))
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
            if not isinstance(self.block_sizes, Iterable):
                raise ConfigurationError(
                    f"block_sizes must be a nonempty list when given, got {self.block_sizes!r}"
                )
            sizes = tuple(as_int(f"block_sizes[{i}]", size)
                          for i, size in enumerate(self.block_sizes))
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


def _orderings(counts: np.ndarray) -> np.ndarray:
    """Every distinct ordering of a block holding ``counts[a]`` copies of
    arm ``a``, one per row: arm 0 goes into every choice of slots, then arm
    1 into every choice of the slots left, and so on; the last arm fills
    the rest."""
    size = int(counts.sum())
    table = np.full((1, size), len(counts) - 1, dtype=np.int8)
    free = np.arange(size)[None, :]  # unfilled slots of each row
    for arm, count in enumerate(counts[:-1]):
        width = free.shape[1]
        chosen = np.array(list(itertools.combinations(range(width), count)), dtype=np.intp)
        left = np.ones((len(chosen), width), dtype=bool)
        left[np.arange(len(chosen))[:, None], chosen] = False
        rest = np.nonzero(left)[1].reshape(len(chosen), width - count)
        table = np.repeat(table, len(chosen), axis=0)
        slots = free[:, chosen].reshape(len(table), count)
        table[np.arange(len(table))[:, None], slots] = arm
        free = free[:, rest].reshape(len(table), width - count)
    return table


@lru_cache(maxsize=None)
def _arrangement_table(
    weights: tuple[int, ...], sizes: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The distinct orderings of a block of each admissible length, stacked.

    Returns ``(table, first_row, n_rows)``: the ``n_rows[i]`` rows from
    ``first_row[i]`` on are the orderings of length ``sizes[i]``, padded
    to the longest length.  None when a length has more than
    ``MAX_TABLE_ROWS`` orderings.
    """
    parts = []
    for size in sizes:
        counts = np.bincount(block_pattern(AllocationRatio(weights), size))
        n_rows = math.factorial(size)
        for count in counts:
            n_rows //= math.factorial(int(count))
        if n_rows > MAX_TABLE_ROWS:
            return None
        parts.append(_orderings(counts))
    n_rows = np.array([len(part) for part in parts])
    first_row = np.concatenate([[0], n_rows.cumsum()[:-1]])
    table = np.full((n_rows.sum(), max(sizes)), _PAD, dtype=np.int8)
    for part, start in zip(parts, first_row):
        table[start:start + len(part), :part.shape[1]] = part
    for array in (table, first_row, n_rows):
        array.flags.writeable = False
    return table, first_row, n_rows


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

    A block is a uniform row of its length's arrangement table.  When a
    length has more than ``MAX_TABLE_ROWS`` arrangements, every block is
    instead its sorted pattern permuted by the argsort of iid uniforms.

    Stream layout: strata in order; per stratum, with tables, one length
    pick per block of ``(n_draws, n_blocks)`` when there is a length menu,
    then one row pick per block; without tables, one uniform sort key per
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
    tables = _arrangement_table(design.allocation.weights, sizes)
    if tables is None:
        # one sorted pattern per admissible length, padded out to the longest
        patterns = np.full((len(sizes), max(sizes)), _PAD, dtype=np.int8)
        for row, size in zip(patterns, sizes):
            row[:size] = block_pattern(design.allocation, size)
    streams = []
    for idx in members:
        if idx.size == 0:
            continue
        shape = (n_draws, -(-idx.size // min(sizes)))
        if tables is not None:
            table, first_row, n_rows = tables
            lengths = rng.integers(len(sizes), size=shape) if len(sizes) > 1 else 0
            picks = first_row[lengths] + rng.integers(n_rows[lengths], size=shape)
            codes = np.take(table, picks, axis=0)
        else:
            # argsort of iid uniforms along the last axis is a uniform permutation
            order = np.argsort(rng.random((*shape, patterns.shape[1])), axis=-1)
            if len(sizes) == 1:
                codes = patterns[0][order]
            else:
                codes = patterns[rng.integers(len(sizes), size=(*shape, 1)), order]
        codes = codes.reshape(n_draws, -1)
        if len(sizes) > 1:
            # striking the padding from a uniformly ordered padded block
            # leaves a uniform ordering of its pattern; every row keeps at
            # least idx.size codes
            keep = codes != _PAD
            keep &= keep.cumsum(axis=1) <= idx.size
            codes = codes[keep].reshape(n_draws, idx.size)
        streams.append(codes[:, : idx.size])
    # each stratum's code stream back into enrollment order
    enrolled = np.argsort(np.concatenate(members))
    return np.take(np.concatenate(streams, axis=1), enrolled, axis=1)


def randomize_cohort(
    design: TrialDesign,
    reported_strata: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Assign all patients in enrollment order, returning treatment codes.

    A batch of one from ``batch_block_assignments``.
    """
    return batch_block_assignments(design, reported_strata, 1, rng)[0]
