"""Block pattern construction and the vectorized block sampler, for the
observed assignment (a batch of one) and for batches of null draws, checked
in law against the sequential dealer in ``oracles``."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stratasim.errors import ConfigurationError
from stratasim.randomizer import (
    MAX_BLOCK_SIZE,
    MAX_TABLE_ROWS,
    AllocationRatio,
    TrialDesign,
    _arrangement_table,
    batch_block_assignments,
    block_pattern,
    block_width,
    deal_blocks,
    draw_blocks,
    randomize_cohort,
)
from oracles import sequential_block_assignment
from properties import Z_BAND, check_block_balance, check_propensity_constancy


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _design(n=20, probs=(0.4, 0.6), weights=(1, 2, 2), block=5, **kw):
    return TrialDesign(
        n_patients=n,
        strata_probs=probs,
        allocation=AllocationRatio(weights),
        block_size=block,
        **kw,
    )


class TestAllocationRatio:
    def test_shares_and_totals(self):
        alloc = AllocationRatio((1, 2, 2))
        assert alloc.n_arms == 3
        assert alloc.total == 5
        assert alloc.target_share(0) == 0.2
        assert alloc.target_share(1) == 0.4

    def test_rejects_single_arm_and_bad_weights(self):
        with pytest.raises(ConfigurationError):
            AllocationRatio((2,))
        with pytest.raises(ConfigurationError):
            AllocationRatio((1, 0))
        with pytest.raises(ConfigurationError):
            AllocationRatio((1, -2))
        with pytest.raises(ConfigurationError, match="^allocation must be a list"):
            AllocationRatio(5)

    @pytest.mark.parametrize("weights", [(True, 2, 2), ("x", 2), {"a": 1, "b": 2}])
    def test_each_weight_must_be_an_integer(self, weights):
        with pytest.raises(ConfigurationError, match=r"^allocation\[0\] must be an integer"):
            AllocationRatio(weights)


class TestBlockPattern:
    def test_sorted_codes_in_ratio(self):
        pattern = block_pattern(AllocationRatio((1, 2, 2)), 10)
        assert pattern.tolist() == [0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
        assert pattern.dtype == np.int8

    def test_indivisible_block_names_both_values(self):
        with pytest.raises(ConfigurationError, match="7"):
            block_pattern(AllocationRatio((1, 2, 2)), 7)

    @pytest.mark.parametrize("kw,field", [({"block": 10**15}, "block_size"),
                                          ({"block_sizes": (5, 10**15)}, r"block_sizes\[1\]"),
                                          ({"block": MAX_BLOCK_SIZE + 5}, "block_size")])
    def test_overlong_block_rejected_before_it_is_built(self, kw, field):
        # a block of 10**15 codes would need 909 TiB
        with pytest.raises(ConfigurationError, match=f"^{field} must be at most {MAX_BLOCK_SIZE},"):
            _design(**kw)

    def test_design_validation(self):
        with pytest.raises(ConfigurationError):
            _design(probs=(0.5, 0.6))
        with pytest.raises(ConfigurationError):
            _design(probs=(-0.1, 1.1))
        with pytest.raises(ConfigurationError):
            _design(n=0)
        with pytest.raises(ConfigurationError):
            _design(block=4)
        for probs in [("0.4", "0.6"), (True, False)]:
            with pytest.raises(ConfigurationError, match=r"^strata_probs\[0\] must be a number"):
                _design(probs=probs)
        # scalars where a list belongs name their field
        with pytest.raises(ConfigurationError, match="^strata_probs must be a list"):
            TrialDesign(80, 0.5, (1, 2, 2), 10)
        with pytest.raises(ConfigurationError, match="^allocation must be a list"):
            TrialDesign(80, (0.4, 0.6), 5, 10)

    @pytest.mark.parametrize("probs", [(math.nan, 1.0), (0.5, math.nan),
                                       (math.inf, -math.inf)])
    def test_non_finite_strata_probs_rejected(self, probs):
        with pytest.raises(ConfigurationError, match="strata_probs"):
            _design(probs=probs)


class TestArrangementTable:
    """Each block is one uniform row of the table of its distinct orderings."""

    @pytest.mark.parametrize("weights,size,rows", [((1, 2, 2), 10, 3150),
                                                   ((1, 2, 2), 5, 30),
                                                   ((1, 1), 6, 20),
                                                   ((2, 1, 1), 8, 420)])
    def test_rows_are_every_distinct_ordering(self, weights, size, rows):
        pattern = block_pattern(AllocationRatio(weights), size)
        counts = np.bincount(pattern)
        multinomial = math.factorial(size)
        for count in counts:
            multinomial //= math.factorial(int(count))
        assert multinomial == rows
        table, first_row, n_rows = _arrangement_table(weights, (size,))
        assert table.shape == (rows, size)
        assert (first_row.tolist(), n_rows.tolist()) == ([0], [rows])
        assert len(np.unique(table, axis=0)) == rows
        assert (np.sort(table, axis=1) == pattern).all()
        assert not table.flags.writeable

    def test_oversize_block_has_no_table(self):
        # 20! / (4! 8! 8!) = 62,355,150 orderings of the 1:2:2 block of 20
        assert _arrangement_table((1, 2, 2), (20,)) is None
        assert _arrangement_table((1, 2, 2), (5, 20)) is None
        assert MAX_TABLE_ROWS < 62_355_150
        # the longest admissible block is a design, its orderings counted
        assert _design(block=MAX_BLOCK_SIZE).block_size == MAX_BLOCK_SIZE
        assert _arrangement_table((1, 2, 2), (MAX_BLOCK_SIZE,)) is None

    def test_lengths_stack_padded(self):
        table, first_row, n_rows = _arrangement_table((1, 2, 2), (5, 10))
        assert (first_row.tolist(), n_rows.tolist()) == ([0, 30], [30, 3150])
        assert (table[:30, 5:] == -1).all() and (table[30:] >= 0).all()

    # every block length or menu of this file that has tables
    @pytest.mark.parametrize("weights,sizes", [
        ((1, 2, 2), (5,)), ((1, 2, 2), (10,)), ((1, 2, 2), (5, 10)), ((1, 2), (3,)),
        ((1, 1), (2,)), ((1, 1), (6,)), ((1, 1), (2, 4)), ((1, 1), (2, 4, 6)),
        ((2, 1, 1), (8,)),
    ])
    def test_padding_marks_each_rows_length(self, weights, sizes):
        # deal_blocks counts a block's length from its padding
        table, first_row, n_rows = _arrangement_table(weights, sizes)
        np.testing.assert_array_equal(first_row, np.cumsum(n_rows) - n_rows)
        np.testing.assert_array_equal((table != -1).sum(axis=1), np.repeat(sizes, n_rows))

    def test_every_row_equally_likely(self):
        design = _design(n=5, probs=(1.0, 0.0), block=5)
        n = 60_000
        codes = batch_block_assignments(design, np.zeros(5, dtype=np.int8), n, _rng(15))
        keys, counts = np.unique(codes, axis=0, return_counts=True)
        assert len(keys) == 30
        band = Z_BAND * math.sqrt((1 / 30) * (29 / 30) / n)
        assert np.abs(counts / n - 1 / 30).max() < band


class TestSequentialAssignment:
    """The observed assignment: one cohort dealt in enrollment order."""

    def test_completed_blocks_balanced(self):
        check_block_balance()

    def test_codes_issued_equals_stratum_stream(self):
        # a stratum's patients receive its code stream in enrollment order,
        # however the other stratum's arrivals interleave with them
        design = _design()
        reported = (_rng(4).random(design.n_patients) >= 0.4).astype(np.int8)
        regrouped = np.sort(reported)
        codes = randomize_cohort(design, reported, _rng(41))
        grouped = randomize_cohort(design, regrouped, _rng(41))
        for stratum in (0, 1):
            assert (codes[reported == stratum] == grouped[regrouped == stratum]).all()

    def test_rejects_unknown_stratum(self):
        design = _design(n=10)
        reported = np.array([0, 1, 2, 2, 2, 0, 1, 0, 1, 5], dtype=np.int8)
        with pytest.raises(ConfigurationError, match="stratum 2 outside 0..1"):
            batch_block_assignments(design, reported, 5, _rng())
        with pytest.raises(ConfigurationError, match="stratum -1 outside"):
            randomize_cohort(design, np.full(10, -1, dtype=np.int8), _rng())

    def test_labels_must_be_stratum_codes(self):
        # a fractional label must not be dealt stratum 0's codes
        design = _design(n=8)
        with pytest.raises(ConfigurationError, match=r"^reported stratum 0\.5 outside 0..1"):
            randomize_cohort(design, np.full(8, 0.5), _rng())
        reported = np.array([0, 1, 1, 0, 1, 1, 0, 1], dtype=np.int8)
        assert np.array_equal(randomize_cohort(design, reported.astype(float), _rng(3)),
                              randomize_cohort(design, reported, _rng(3)))

    def test_prefix_assignments_do_not_depend_on_later_arrivals(self):
        # in law: the first 10 codes of a 12-patient cohort are distributed
        # as a 10-patient cohort, position by position and pair by pair
        reported = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0], dtype=np.int8)
        n = 20_000
        short = batch_block_assignments(_design(n=10), reported[:10], n, _rng(9))
        long = batch_block_assignments(_design(n=12), reported, n, _rng(10))[:, :10]
        for arm in range(3):
            share = (short == arm).mean(axis=0), (long == arm).mean(axis=0)
            p = (share[0] + share[1]) / 2
            band = Z_BAND * np.sqrt(p * (1 - p) * 2 / n)
            assert (np.abs(share[0] - share[1]) <= band).all(), arm
        same = [(a[:, :, None] == a[:, None, :]).mean(axis=0) for a in (short, long)]
        p = (same[0] + same[1]) / 2
        band = Z_BAND * np.sqrt(p * (1 - p) * 2 / n)
        assert (np.abs(same[0] - same[1]) <= band).all()


class TestNewBlock:
    """Each freshly opened block is a uniform ordering of its pattern, with
    its length drawn uniformly from the menu."""

    def test_every_ordering_equally_likely(self):
        design = _design(n=3, probs=(1.0, 0.0), weights=(1, 2), block=3)
        n = 30_000
        codes = batch_block_assignments(design, np.zeros(3, dtype=np.int8), n, _rng(5))
        keys, counts = np.unique(codes, axis=0, return_counts=True)
        # 3 distinct orderings of [0, 1, 1]
        assert [tuple(k) for k in keys.tolist()] == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
        band = Z_BAND * math.sqrt((1 / 3) * (2 / 3) / n)
        for count in counts:
            assert abs(count / n - 1 / 3) < band

    def test_random_block_size_menu(self):
        # a pair of codes is unbalanced only inside a block of 4, where it is
        # [0, 0] or [1, 1] in 2 of the 6 orderings: rate (1/2) * (1/3)
        design = _design(n=2, probs=(1.0, 0.0), weights=(1, 1), block=2,
                         block_sizes=(2, 4))
        n = 30_000
        codes = batch_block_assignments(design, np.zeros(2, dtype=np.int8), n, _rng(6))
        rate = float((codes[:, 0] == codes[:, 1]).mean())
        assert abs(rate - 1 / 6) < Z_BAND * math.sqrt((1 / 6) * (5 / 6) / n)


class TestBatchAssignments:
    def test_each_draw_obeys_block_structure(self):
        design = _design(n=23)
        rng = _rng(7)
        reported = (rng.random(design.n_patients) >= 0.4).astype(np.int8)
        pattern_counts = np.bincount(
            block_pattern(design.allocation, design.block_size), minlength=3
        )
        codes = batch_block_assignments(design, reported, 50, rng)
        assert codes.shape == (50, design.n_patients)
        for row in codes:
            for stratum in (0, 1):
                stream = row[reported == stratum]
                block = design.block_size
                for start in range(0, stream.size - block + 1, block):
                    counts = np.bincount(stream[start:start + block], minlength=3)
                    assert (counts == pattern_counts).all()
                tail = stream[stream.size - stream.size % block:]
                assert (np.bincount(tail, minlength=3) <= pattern_counts).all()

    @staticmethod
    def _assert_marginals_match_oracle(design, seed):
        reported = (_rng(seed).random(design.n_patients) >= 0.4).astype(np.int8)
        n_batch, n_seq = 30_000, 6000
        batch = batch_block_assignments(design, reported, n_batch, _rng(10 * seed + 1))
        rng_seq = _rng(10 * seed + 2)
        seq = np.stack([sequential_block_assignment(design, reported, rng_seq)
                        for _ in range(n_seq)])
        for arm in range(3):
            share = design.allocation.target_share(arm)
            band = Z_BAND * math.sqrt(share * (1 - share) * (1 / n_batch + 1 / n_seq))
            gap = np.abs((batch == arm).mean(axis=0) - (seq == arm).mean(axis=0))
            assert float(gap.max()) < band, arm

    def test_marginals_match_sequential_path(self):
        self._assert_marginals_match_oracle(_design(n=20), 8)

    def test_random_block_sizes_match_sequential_path(self):
        design = _design(n=20, block=10, block_sizes=(5, 10))
        self._assert_marginals_match_oracle(design, 12)

    def test_argsort_fallback_matches_sequential_path(self):
        # no table for the block of 20: uniforms are sorted instead
        self._assert_marginals_match_oracle(_design(n=20, block=20), 16)

    def test_argsort_fallback_with_random_sizes_matches_sequential_path(self):
        design = _design(n=20, block=10, block_sizes=(10, 20))
        self._assert_marginals_match_oracle(design, 17)

    def test_random_block_sizes_obey_block_structure(self):
        # each stratum's stream splits into whole blocks of 5 or 10, then a
        # tail that fits inside one block of 10
        design = _design(n=30, block=10, block_sizes=(5, 10))
        reported = (_rng(13).random(design.n_patients) >= 0.4).astype(np.int8)
        codes = batch_block_assignments(design, reported, 200, _rng(14))
        small, large = (np.bincount(block_pattern(design.allocation, b), minlength=3)
                        for b in (5, 10))
        for row in codes:
            for stratum in (0, 1):
                stream = row[reported == stratum]
                start = 0
                while start < stream.size:
                    counts = np.bincount(stream[start:start + 5], minlength=3)
                    if start + 5 <= stream.size and (counts == small).all():
                        start += 5
                        continue
                    counts = np.bincount(stream[start:start + 10], minlength=3)
                    assert (counts <= large).all()
                    assert start + 10 >= stream.size or (counts == large).all()
                    start += 10

    def test_propensities_constant_across_positions(self):
        check_propensity_constancy()

    def test_rejects_wrong_strata_shape(self):
        design = _design()
        with pytest.raises(ConfigurationError, match="shape"):
            batch_block_assignments(design, np.zeros(3, dtype=np.int8), 5, _rng())
        with pytest.raises(ConfigurationError, match="shape"):
            randomize_cohort(design, np.zeros(3, dtype=np.int8), _rng())


def _dealt_by_loop(design, reported, blocks):
    """Deal ``(n_cohorts, n_draws, n_blocks, longest)`` drawn blocks one
    cohort and one draw at a time: drop the padding, then give each
    stratum's blocks to its patients in enrollment order."""
    sizes = design.block_sizes or (design.block_size,)
    dealt = np.empty((*blocks.shape[:2], design.n_patients), dtype=np.int8)
    for c, labels in enumerate(reported):
        for d, drawn in enumerate(blocks[c]):
            opened = 0
            for stratum in range(design.n_strata):
                members = np.flatnonzero(labels == stratum)
                n_open = -(-len(members) // min(sizes))
                stream = [int(code) for block in drawn[opened:opened + n_open]
                          for code in block if code != -1]
                dealt[c, d, members] = stream[:len(members)]
                opened += n_open
    return dealt


@pytest.mark.parametrize("design,n_cohorts,n_draws", [
    (_design(n=20, probs=(0.2, 0.8), block=10, block_sizes=(5, 10)), 4, 7),
    (_design(n=20, probs=(0.2, 0.8), block=10, block_sizes=(5, 10)), 3, 1),
    # a varblock chunk's shape: each cohort's observed row and 200 null draws
    (_design(n=20, probs=(0.2, 0.8), block=10, block_sizes=(5, 10)), 4, 201),
    (_design(n=20, block=10, block_sizes=(10, 20)), 3, 5),
    (_design(n=20, block=10, block_sizes=(10, 20)), 4, 1),
    (_design(n=17, probs=(0.3, 0.3, 0.4), weights=(1, 1), block=2, block_sizes=(2, 4, 6)), 5, 6),
    (_design(n=23), 3, 4),
])
def test_deal_blocks_matches_a_plain_loop(design, n_cohorts, n_draws):
    # a stack of cohorts, so each (draw, cohort) stream's codes start after
    # every earlier stream's; the first cohort reports one stratum only
    rng = _rng(n_cohorts * 100 + n_draws)
    reported = rng.integers(0, design.n_strata, (n_cohorts, design.n_patients))
    reported[0] = design.n_strata - 1
    blocks = draw_blocks(design, rng.random((n_cohorts, n_draws, block_width(design))))
    dealt = deal_blocks(design, reported, blocks)
    assert dealt.dtype == np.int8
    np.testing.assert_array_equal(dealt, _dealt_by_loop(design, reported, blocks))


# the largest value of Generator.random
LARGEST_UNIFORM = np.nextafter(1.0, 0.0)


class TestDrawBlocks:
    """``draw_blocks`` is a transform of ``block_width`` uniforms per draw."""

    @pytest.mark.parametrize("design,rows", [
        (_design(n=80, block=10), [3150]),
        (_design(n=20, block=5), [30]),
        (_design(n=20, block=10, block_sizes=(5, 10)), [30, 3150]),
    ])
    def test_extreme_uniforms_pick_the_first_and_last_rows(self, design, rows):
        sizes = design.block_sizes or (design.block_size,)
        table, _, n_rows = _arrangement_table(design.allocation.weights, sizes)
        assert n_rows.tolist() == rows
        width = block_width(design)
        assert width == (-(-design.n_patients // min(sizes)) + 1) * len(rows)
        low = draw_blocks(design, np.zeros((2, width)))
        assert low.shape == (2, width // len(rows), max(sizes)) and (low == table[0]).all()
        # the largest uniform picks the last length and its last ordering
        assert (draw_blocks(design, np.full(width, LARGEST_UNIFORM)) == table[-1]).all()

    def test_extreme_uniforms_without_tables(self):
        # no table for the block of 20: one sort key per slot, then a length pick
        design = _design(n=20, block=10, block_sizes=(10, 20))
        n_blocks = 20 // 10 + 1
        assert block_width(design) == n_blocks * (20 + 1)
        low = draw_blocks(design, np.zeros(block_width(design)))
        high = draw_blocks(design, np.full(block_width(design), LARGEST_UNIFORM))
        # tied keys sort stably, leaving the sorted pattern of the picked length
        padded_ten = np.concatenate([block_pattern(design.allocation, 10), [-1] * 10])
        assert (low == padded_ten).all()
        assert (high == block_pattern(design.allocation, 20)).all()


@pytest.mark.parametrize("design", [
    _design(n=80, block=10),
    _design(n=20, block=10, block_sizes=(5, 10)),
    _design(n=20, block=20),
])
def test_wrappers_draw_exactly_their_width(design):
    # two successive calls on one generator are rows 0 and 1 of one draw
    reported = (_rng(3).random(design.n_patients) >= 0.4).astype(np.int8)
    width = block_width(design)
    rng = _rng(4)
    first, second = (randomize_cohort(design, reported, rng) for _ in range(2))
    want = deal_blocks(design, reported, draw_blocks(design, _rng(4).random((2, width))))
    np.testing.assert_array_equal(np.stack([first, second]), want)
    rng = _rng(5)
    first, second = (batch_block_assignments(design, reported, 3, rng) for _ in range(2))
    rows = _rng(5).random((2, 3 * width)).reshape(2, 3, width)
    for got, uniforms in zip((first, second), rows):
        np.testing.assert_array_equal(got, deal_blocks(design, reported,
                                                       draw_blocks(design, uniforms)))
