"""The shared candidate-space layer (:mod:`repro.core.candidates`).

Enumeration order is a public contract (batched ``argmax`` winners must
equal scalar strict-``>`` winners), so most tests here pin the orders
element-by-element against the hand-rolled nestings the searches used
before the extraction.
"""

import math

import numpy as np
import pytest

from repro.core.candidates import (
    CandidateSpace,
    enumerate_symmetric_allocations,
    symmetric_counts_tensor,
)
from repro.errors import AllocationError
from repro.machine.topology import Core, MachineTopology, NumaNode


@pytest.fixture
def asymmetric_machine():
    nodes = (
        NumaNode(
            node_id=0,
            cores=(Core(0, 0, 0, 1.0), Core(1, 0, 1, 1.0)),
            local_bandwidth=10.0,
        ),
        NumaNode(
            node_id=1,
            cores=(Core(2, 1, 0, 1.0),),
            local_bandwidth=10.0,
        ),
    )
    return MachineTopology(nodes=nodes, link_bandwidth=np.full((2, 2), 10.0))


class TestConstruction:
    def test_needs_at_least_one_app(self, paper_machine):
        with pytest.raises(AllocationError):
            CandidateSpace(paper_machine, 0)

    def test_symmetric_flag(self, paper_machine, asymmetric_machine):
        assert CandidateSpace(paper_machine, 4).symmetric
        assert not CandidateSpace(asymmetric_machine, 4).symmetric

    def test_cores_per_node_raises_on_asymmetric(self, asymmetric_machine):
        with pytest.raises(AllocationError):
            CandidateSpace(asymmetric_machine, 4).cores_per_node


class TestSymmetricSubspace:
    def test_sizes_match_the_paper_counts(self, paper_machine):
        space = CandidateSpace(paper_machine, 4)
        assert space.symmetric_size() == 165
        assert space.symmetric_size(require_full=False) == 495

    def test_size_formula_matches_enumeration(self, paper_machine):
        for num_apps in (1, 2, 3, 4):
            space = CandidateSpace(paper_machine, num_apps)
            for require_full in (True, False):
                tensor = space.symmetric_tensor(require_full=require_full)
                assert (
                    space.symmetric_size(require_full=require_full)
                    == len(tensor)
                )

    def test_ten_app_space_size(self, paper_machine):
        # The bench's delta workload: binom(8 + 10 - 1, 10 - 1).
        space = CandidateSpace(paper_machine, 10)
        assert space.symmetric_size() == math.comb(17, 9) == 24310

    def test_tensor_order_matches_allocation_order(
        self, paper_machine, paper_apps
    ):
        space = CandidateSpace(paper_machine, len(paper_apps))
        tensor = space.symmetric_tensor()
        allocs = list(space.symmetric_allocations(paper_apps))
        assert len(tensor) == len(allocs)
        for row, alloc in zip(tensor, allocs):
            assert np.array_equal(row, alloc.counts)

    def test_delegates_to_the_pinned_policy_enumerations(
        self, paper_machine, paper_apps
    ):
        space = CandidateSpace(paper_machine, len(paper_apps))
        assert np.array_equal(
            space.symmetric_tensor(),
            symmetric_counts_tensor(paper_machine, len(paper_apps)),
        )
        ours = [
            a.as_mapping()
            for a in space.symmetric_allocations(paper_apps)
        ]
        theirs = [
            a.as_mapping()
            for a in enumerate_symmetric_allocations(
                paper_machine, paper_apps
            )
        ]
        assert ours == theirs

    def test_tensor_is_memoised_read_only(self, paper_machine):
        tensor = CandidateSpace(paper_machine, 4).symmetric_tensor()
        assert CandidateSpace(paper_machine, 4).symmetric_tensor() is tensor
        assert symmetric_counts_tensor(paper_machine, 4) is tensor
        with pytest.raises(ValueError):
            tensor[0, 0, 0] = 1
        partial = CandidateSpace(paper_machine, 4).symmetric_tensor(
            require_full=False
        )
        assert partial is not tensor and not partial.flags.writeable


class TestThreadMoves:
    def test_addition_moves_pin_apps_outermost(self, paper_machine):
        space = CandidateSpace(paper_machine, 3)
        free = np.array([2, 0, 1, 0])
        expected = [
            (a, n)
            for a in range(3)
            for n in range(4)
            if free[n] > 0
        ]
        assert space.addition_moves(free) == expected

    def test_addition_batch_applies_each_move(self, paper_machine):
        space = CandidateSpace(paper_machine, 2)
        counts = np.zeros((2, 4), dtype=np.int64)
        moves = space.addition_moves(np.array([1, 1, 1, 1]))
        batch = space.addition_batch(counts, moves)
        assert batch.shape == (8, 2, 4)
        for k, (a, n) in enumerate(moves):
            assert batch[k].sum() == 1
            assert batch[k, a, n] == 1

    def test_thread_moves_pin_sources_outermost(self, paper_machine):
        space = CandidateSpace(paper_machine, 3)
        counts = np.array([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0]])
        expected = [
            (si, di, n)
            for si in range(3)
            for di in range(3)
            if si != di
            for n in range(4)
            if counts[si, n] > 0
        ]
        assert space.thread_moves(counts) == expected

    def test_move_batch_conserves_threads(self, paper_machine):
        space = CandidateSpace(paper_machine, 3)
        counts = np.array([[2, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0]])
        moves = space.thread_moves(counts)
        batch = space.move_batch(counts, moves)
        for k, (si, di, n) in enumerate(moves):
            assert batch[k].sum() == counts.sum()
            assert batch[k, si, n] == counts[si, n] - 1
            assert batch[k, di, n] == counts[di, n] + 1
            assert np.all(batch[k] >= 0)

    def test_random_move_replays_the_annealing_draw_sequence(
        self, paper_machine
    ):
        space = CandidateSpace(paper_machine, 3)
        counts = np.array([[2, 0, 1, 0], [0, 1, 0, 0], [0, 0, 3, 0]])
        for seed in range(20):
            # The hand-rolled draws the annealing search always made.
            ref_rng = np.random.default_rng(seed)
            donors = np.argwhere(counts > 0)
            ai, n = donors[ref_rng.integers(len(donors))]
            choices = [j for j in range(3) if j != ai]
            dj = choices[ref_rng.integers(len(choices))]
            rng = np.random.default_rng(seed)
            assert space.random_move(counts, rng) == (
                int(ai),
                int(dj),
                int(n),
            )

    def test_random_move_degenerate_cases(self, paper_machine):
        space = CandidateSpace(paper_machine, 2)
        rng = np.random.default_rng(0)
        assert space.random_move(np.zeros((2, 4), dtype=np.int64), rng) is None
        solo = CandidateSpace(paper_machine, 1)
        counts = np.array([[1, 0, 0, 0]])
        assert solo.random_move(counts, rng) is None


class TestCompositions:
    def test_expand_round_trips(self, paper_machine):
        space = CandidateSpace(paper_machine, 3)
        comp = np.array([3, 0, 5])
        counts = space.expand(comp)
        assert counts.shape == (3, 4)
        assert np.array_equal(space.composition_of(counts), comp)

    def test_asymmetric_counts_have_no_composition(self, paper_machine):
        space = CandidateSpace(paper_machine, 2)
        counts = np.array([[1, 2, 1, 1], [0, 0, 0, 0]])
        assert space.composition_of(counts) is None
        assert space.composition_of(np.zeros((3, 4), dtype=np.int64)) is None

    def test_composition_moves_need_a_donor(self, paper_machine):
        space = CandidateSpace(paper_machine, 3)
        comp = np.array([2, 0, 1])
        moves = space.composition_moves(comp)
        assert moves == [(0, 1), (0, 2), (2, 0), (2, 1)]

    def test_movable_restricts_to_touching_moves(self, paper_machine):
        space = CandidateSpace(paper_machine, 3)
        comp = np.array([2, 1, 1])
        moves = space.composition_moves(comp, movable=[2])
        assert moves == [(0, 2), (1, 2), (2, 0), (2, 1)]

    def test_composition_batch_stays_symmetric(self, paper_machine):
        space = CandidateSpace(paper_machine, 3)
        comp = np.array([2, 0, 1])
        moves = space.composition_moves(comp)
        batch = space.composition_batch(comp, moves)
        assert batch.shape == (len(moves), 3, 4)
        for k, (i, j) in enumerate(moves):
            got = space.composition_of(batch[k])
            want = comp.copy()
            want[i] -= 1
            want[j] += 1
            assert np.array_equal(got, want)

    def test_additions_only_with_free_cores(self, paper_machine):
        space = CandidateSpace(paper_machine, 3)
        assert space.composition_additions(np.array([3, 3, 2])) == []
        assert space.composition_additions(np.array([3, 3, 1])) == [0, 1, 2]
        batch = space.addition_composition_batch(
            np.array([3, 3, 1]), [0, 1, 2]
        )
        assert batch.shape == (3, 3, 4)
        for k in range(3):
            comp = space.composition_of(batch[k])
            assert comp is not None and comp.sum() == 8
