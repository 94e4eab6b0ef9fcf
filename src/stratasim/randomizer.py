"""Stratified permuted-block treatment assignment.

Patients arrive in enrollment order carrying a reported stratum label.
Each stratum deals treatment codes from its own sequence of randomly
permuted blocks: the next patient in a stratum receives the next unused
code of that stratum's current block, and a fresh block is opened when
the current one is exhausted.  The final block of a stratum may end up
partially used, which is the only source of imbalance.

One sampler draws every assignment in two steps.  ``draw_blocks`` turns
a fixed number of uniforms per assignment, ``block_width``, into one
cohort's blocks, as padded codes: a uniformly permuted block is a uniform
pick among the distinct arrangements of its pattern, so each block is one
row of a cached table of those arrangements, which only ``draw_blocks``
reads.  ``deal_blocks`` then deals the codes of any stack of cohorts at
once.  A replication's observed assignment and its re-randomization null
draws share one ``draw_blocks`` and one ``deal_blocks`` call, with row 0
the observed assignment; ``randomize_cohort`` and
``batch_block_assignments`` draw a lone cohort's rows the same way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ConfigurationError, as_codes, as_instance, as_int, as_real, as_tuple

# fills the slots of a block shorter than the longest admissible length
_PAD = -1
# blocks with more distinct arrangements than this are permuted by sorting
# uniform keys instead of indexing a table (1:2:2 in 10 has 3,150)
MAX_TABLE_ROWS = 100_000
# the longest admissible block, far past any trial's; past the arrangement
# tables every block of a draw takes one uniform per slot of this length
MAX_BLOCK_SIZE = 1_000


@dataclass(frozen=True)
class AllocationRatio:
    """Integer per-arm allocation weights, e.g. ``(1, 2, 2)`` for 1:2:2.

    Arm 0 is the control arm by convention.
    """

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        weights = as_tuple("allocation", self.weights, partial(as_int, least=1))
        if len(weights) < 2:
            raise ConfigurationError(f"allocation must list at least two arms, got {weights!r}")
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
        object.__setattr__(self, "n_patients", as_int("n_patients", self.n_patients, 1))
        object.__setattr__(self, "block_size", as_int("block_size", self.block_size))
        probs = as_tuple("strata_probs", self.strata_probs,
                         partial(as_real, low=0.0, ends="[)"))
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ConfigurationError(
                f"strata_probs must sum to 1 within 1e-12, got sum {sum(probs)!r}"
            )
        object.__setattr__(self, "strata_probs", probs)
        object.__setattr__(self, "allocation", _coerce_allocation(self.allocation))
        _block_counts(self.allocation, self.block_size)
        if self.block_sizes is not None:
            sizes = as_tuple("block_sizes", self.block_sizes, as_int)
            if not sizes:
                raise ConfigurationError("block_sizes must be a nonempty list when given")
            for i, size in enumerate(sizes):
                _block_counts(self.allocation, size, f"block_sizes[{i}]")
            object.__setattr__(self, "block_sizes", sizes)

    @property
    def n_strata(self) -> int:
        return len(self.strata_probs)


def paper_design() -> TrialDesign:
    """N = 80, strata mix 0.4/0.6, 1:2:2 allocation in blocks of 10."""
    return TrialDesign(80, (0.4, 0.6), AllocationRatio((1, 2, 2)), 10)


def _coerce_allocation(allocation) -> AllocationRatio:
    if isinstance(allocation, AllocationRatio):
        return allocation
    return AllocationRatio(allocation)


def _block_counts(allocation: AllocationRatio, block_size: int,
                  field: str = "block_size") -> list[int]:
    """Copies of each arm ``a`` in one block, ``block_size * w_a / sum(w)``,
    so ``block_size`` must be a multiple of the weight total of at most
    ``MAX_BLOCK_SIZE``; an error names the length by ``field``."""
    block_size = as_int(field, block_size, most=MAX_BLOCK_SIZE)
    if block_size < 1 or block_size % allocation.total != 0:
        raise ConfigurationError(
            f"{field} must be a positive multiple of the allocation weight "
            f"total {allocation.total}, got {block_size}"
        )
    return [w * (block_size // allocation.total) for w in allocation.weights]


def block_pattern(allocation: AllocationRatio, block_size: int) -> np.ndarray:
    """Multiset of treatment codes filling one block, in sorted order: the
    copies of ``_block_counts``."""
    allocation = _coerce_allocation(allocation)
    counts = _block_counts(allocation, block_size)
    return np.repeat(np.arange(allocation.n_arms, dtype=np.int8), counts)


def _orderings(counts: list[int]) -> np.ndarray:
    """Every distinct ordering of a block holding ``counts[a]`` copies of
    arm ``a``, one per row: arm 0 goes into every choice of slots, then arm
    1 into every choice of the slots left, and so on; the last arm fills
    the rest."""
    size = sum(counts)
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
    ``first_row[i]`` on are the orderings of length ``sizes[i]``, padded to
    the longest length.  None when a length has more than
    ``MAX_TABLE_ROWS`` orderings.
    """
    parts = []
    for size in sizes:
        counts = _block_counts(AllocationRatio(weights), size)
        # the multinomial count of orderings, one binomial factor per arm
        n_rows, placed = 1, 0
        for count in counts:
            placed += count
            n_rows *= math.comb(placed, count)
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


def _padded_patterns(allocation: AllocationRatio, sizes: tuple[int, ...]) -> np.ndarray:
    """One sorted pattern per admissible length, padded out to the longest."""
    patterns = np.full((len(sizes), max(sizes)), _PAD, dtype=np.int8)
    for row, size in zip(patterns, sizes):
        row[:size] = block_pattern(allocation, size)
    return patterns


def _block_layout(design: TrialDesign) -> tuple[tuple[int, ...], int, tuple | None]:
    """The admissible lengths, the blocks per assignment and the
    arrangement tables (None past ``MAX_TABLE_ROWS``)."""
    sizes = design.block_sizes or (design.block_size,)
    n_blocks = -(-design.n_patients // min(sizes)) + design.n_strata - 1
    return sizes, n_blocks, _arrangement_table(design.allocation.weights, sizes)


def block_width(design: TrialDesign) -> int:
    """Uniforms per assignment: per block, one row pick (or, without
    tables, one sort key per slot of the longest length), plus one length
    pick when there is a length menu."""
    sizes, n_blocks, tables = _block_layout(design)
    return n_blocks * ((1 if tables is not None else max(sizes)) + (len(sizes) > 1))


def draw_blocks(design: TrialDesign, uniforms: np.ndarray) -> np.ndarray:
    """Every block that assignments of one cohort can open, one assignment
    per ``block_width(design)`` row of ``uniforms``.

    An assignment gets one sequence of ``ceil(n_patients / shortest block
    length) + n_strata - 1`` iid blocks, enough for every stratum whatever
    the stratum counts turn out to be: ``deal_blocks`` shares them out to
    the strata in order.  A block draws its length uniformly from
    ``design.block_sizes`` (always ``block_size`` when that is unset) and
    its ordering uniformly.

    Returns the blocks' ``(..., n_blocks, longest length)`` padded codes:
    each block's row of the arrangement tables or, when a length has more
    than ``MAX_TABLE_ROWS`` orderings, its padded pattern permuted by the
    argsort of its uniform sort keys.

    Row layout: with tables, one length pick ``floor(u * len(sizes))``
    per block when there is a length menu, then one row pick ``floor(u *
    n_rows)`` per block; without tables, one sort key per slot and then,
    only when there is a length menu, one length pick per block.
    """
    sizes, n_blocks, tables = _block_layout(design)
    menu = len(sizes) > 1
    if tables is not None:
        table, first_row, n_rows = tables
        lengths = (uniforms[..., :n_blocks] * len(sizes)).astype(np.intp) if menu else 0
        picks = uniforms[..., n_blocks * menu:]
        rows = first_row[lengths] + (picks * n_rows[lengths]).astype(np.intp)
        return np.take(table, rows, axis=0)
    # argsort of iid uniforms along the last axis is a uniform permutation
    shape, longest = (*uniforms.shape[:-1], n_blocks), max(sizes)
    order = np.argsort(uniforms[..., :n_blocks * longest].reshape(*shape, longest), axis=-1)
    lengths = ((uniforms[..., n_blocks * longest:] * len(sizes)).astype(np.intp) if menu
               else np.zeros(shape, dtype=np.intp))
    patterns = _padded_patterns(design.allocation, sizes)
    return np.take_along_axis(patterns[lengths], order, axis=-1)


def deal_blocks(design: TrialDesign, reported: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Deal drawn blocks to cohorts: ``(..., n_draws, n_patients)`` codes.

    ``reported`` holds ``(..., n_patients)`` stratum labels and ``blocks``
    the matching ``(..., n_draws, n_blocks, longest)`` stack of padded
    ``draw_blocks`` codes.  Stratum ``s`` of ``m_s`` patients takes the
    next ``ceil(m_s / shortest length)`` blocks of the sequence and deals
    their codes, padding struck out, to its patients in enrollment order:
    with a fixed length ``B``, the patient of rank ``k`` within stratum
    ``s`` gets code ``blocks[..., first_s + k // B, k % B]``, where
    ``first_s`` sums the blocks of the strata before ``s``.  With a length
    menu one boolean compress strikes the padding of every block at once:
    the kept codes run one (draw, cohort) stream after another, so that
    patient gets ``kept[stream_start + before[first_s] + k]``, where
    ``stream_start`` counts the kept codes of the earlier streams and
    ``before[b]`` those of the stream's blocks before ``b``, each block's
    length counted from its padding.  Striking the padding from a
    uniformly ordered padded block leaves a uniform ordering of its
    pattern, so that is the law of opening a fresh block, of a random
    length, whenever the current one runs out.
    """
    reported = as_codes("reported stratum", reported, design.n_strata)
    sizes = design.block_sizes or (design.block_size,)
    cohorts = reported.reshape(-1, design.n_patients)
    n_cohorts = len(cohorts)
    n_draws, n_blocks, longest = blocks.shape[reported.ndim - 1:]
    # each patient's rank within its stratum, and its stratum's first block,
    # read at the patient's (cohort, stratum) cell of one int32 cumsum of
    # (cohorts, strata, patients) memberships; the cumsum runs faster from
    # int8 than from bool
    cell = np.arange(0, n_cohorts * design.n_strata, design.n_strata)[:, None] + cohorts
    member = cohorts[:, None, :] == np.arange(design.n_strata)[:, None]
    counted = member.view(np.int8).cumsum(axis=-1, dtype=np.int32)
    rank = counted.reshape(-1).take(cell * design.n_patients + np.arange(design.n_patients)) - 1
    opened = -(-counted[..., -1] // min(sizes))
    first = (opened.cumsum(axis=-1) - opened).reshape(-1).take(cell)
    # one code stream per (draw, cohort), draws outermost, so one index
    # along the last axis serves every draw
    codes = blocks.reshape(n_cohorts, n_draws, -1).swapaxes(0, 1).reshape(n_draws, -1)
    cohort_start = np.arange(n_cohorts)[:, None] * (n_blocks * longest)
    if len(sizes) == 1:
        dealt = codes.take((cohort_start + first * longest + rank).ravel(), axis=1)
    else:
        # strike the padding with one compress: a block's kept codes start at
        # the exclusive cumsum of the kept lengths of every block before it
        keep = codes != _PAD
        # an einsum sums a short last axis several times faster than sum()
        length = np.einsum("dbl->db", keep.reshape(n_draws, -1, longest).view(np.int8),
                           dtype=np.intp)
        start = length.cumsum().reshape(length.shape) - length
        skipped = start.take((np.arange(n_cohorts)[:, None] * n_blocks + first).ravel(), axis=1)
        skipped += rank.ravel()
        dealt = codes[keep].take(skipped)
    dealt = dealt.reshape(n_draws, n_cohorts, design.n_patients).swapaxes(0, 1)
    return dealt.reshape(*reported.shape[:-1], n_draws, design.n_patients)


def batch_block_assignments(
    design: TrialDesign,
    reported_strata: np.ndarray,
    n_draws: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n_draws`` independent stratified block assignments of one
    cohort: ``draw_blocks`` on exactly ``n_draws * block_width(design)``
    uniforms from ``rng``, then ``deal_blocks``."""
    design, n_draws = as_instance("design", design, TrialDesign), as_int("n_draws", n_draws, 1)
    reported = np.asarray(reported_strata)
    if reported.shape != (design.n_patients,):
        raise ConfigurationError(
            f"reported_strata has shape {reported.shape}, expected ({design.n_patients},)"
        )
    uniforms = rng.random((n_draws, block_width(design)))
    return deal_blocks(design, reported, draw_blocks(design, uniforms))


def randomize_cohort(
    design: TrialDesign,
    reported_strata: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Assign all patients in enrollment order, returning treatment codes.

    A batch of one from ``batch_block_assignments``.
    """
    return batch_block_assignments(design, reported_strata, 1, rng)[0]
