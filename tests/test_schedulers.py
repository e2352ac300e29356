import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsrsched import (
    ContractViolation,
    DcsaScheduler,
    DeadlineQueue,
    DeficitQueue,
    ServiceSpec,
    allocate_cohorts,
    make_scheduler,
    projected_deficit,
)
from hsrsched.analysis import (
    ORACLE_MAX_ARRIVALS,
    ORACLE_MAX_CAPACITY,
    ORACLE_MAX_DEADLINE,
    ORACLE_MAX_SERVICES,
    brute_force_lex_min_drops,
    brute_force_min_weighted_drops,
)
from hsrsched.schedulers import EdfScheduler, RoundRobinScheduler


def _spec(sid, rate=10.0, deadline=2, q=0.9):
    return ServiceSpec(service_id=sid, arrival_rate=rate, deadline=deadline, delivery_ratio=q)


def _queues(specs):
    return [DeadlineQueue(s.service_id, s.deadline) for s in specs]


def _deficits(specs):
    return [DeficitQueue(s.service_id, s.loss_allowance) for s in specs]


def _step(sched, frame, capacity, queues, deficits, arrivals):
    """One engine frame: admit, decide, serve and age, update the deficits."""
    for q, a in zip(queues, arrivals):
        q.admit(a)
    rows = sched.decide(frame, capacity, queues, deficits)
    for q, dq, row in zip(queues, deficits, rows):
        dq.update(q.serve_and_age(row))
    return rows


def test_projected_deficit_zero_steps_is_identity():
    # deficit 3.5 over the denominator 2 of allowance 1/2
    assert projected_deficit(7, 1, 2, []) == 7


def test_projected_deficit_stays_at_zero_without_drops():
    assert projected_deficit(0, 2, 1, [0, 0, 0, 0]) == 0


def test_projected_deficit_hand_iteration():
    # ((4-1)^+ + 2 - 1)^+ + 0 = 4
    assert projected_deficit(4, 1, 1, [2, 0]) == 4
    # allowance 3/2: ((4-1.5)^+ + 2 - 1.5)^+ + 0 = 3, numerator 6 over 2
    assert projected_deficit(8, 3, 2, [2, 0]) == 6


def test_allocate_single_service_spills_to_second_frame():
    alloc = allocate_cohorts([1], {1: 5}, {1: 2}, [3, 3])
    assert alloc[1] == [3, 2]


def test_allocate_priority_order_shares_one_frame():
    alloc = allocate_cohorts([2, 1], {1: 4, 2: 4}, {1: 1, 2: 1}, [5])
    assert alloc[2] == [4]
    assert alloc[1] == [1]


def test_allocate_no_arrivals_changes_nothing():
    alloc = allocate_cohorts([1, 2], {1: 0, 2: 0}, {1: 2, 2: 2}, [4, 4])
    assert alloc == {1: [0, 0], 2: [0, 0]}


def test_allocate_never_exceeds_capacity():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 3)
        sids = list(range(1, n + 1))
        deadlines = {sid: rng.randint(1, 4) for sid in sids}
        arrivals = {sid: rng.randint(0, 9) for sid in sids}
        horizon = max(deadlines.values())
        avail = [rng.randint(0, 7) for _ in range(horizon)]
        order = sids[:]
        rng.shuffle(order)
        alloc = allocate_cohorts(order, arrivals, deadlines, avail)
        for i in range(horizon):
            used = sum(alloc[sid][i] for sid in sids if i < deadlines[sid])
            assert used <= avail[i]
        for sid in sids:
            assert sum(alloc[sid]) <= arrivals[sid]


def _assert_within_capacity(alloc, deadlines, avail):
    for i, cap in enumerate(avail):
        assert sum(alloc[sid][i] for sid in alloc if i < deadlines[sid]) <= cap


def test_allocate_short_deadline_not_crowded_out_by_long():
    # the long-deadline service has priority, but serving it at offset 0
    # would leave the short-deadline packet nowhere to go
    deadlines = {1: 1, 2: 2}
    avail = [1, 1]
    alloc = allocate_cohorts([2, 1], {1: 1, 2: 1}, deadlines, avail)
    assert sum(alloc[1]) == 1
    assert sum(alloc[2]) == 1
    _assert_within_capacity(alloc, deadlines, avail)


@st.composite
def _oracle_instances(draw):
    n = draw(st.integers(1, ORACLE_MAX_SERVICES))
    sids = list(range(1, n + 1))
    deadlines = {sid: draw(st.integers(1, ORACLE_MAX_DEADLINE)) for sid in sids}
    arrivals = {sid: draw(st.integers(0, ORACLE_MAX_ARRIVALS)) for sid in sids}
    horizon = max(deadlines.values())
    avail = draw(
        st.lists(st.integers(0, ORACLE_MAX_CAPACITY), min_size=horizon, max_size=horizon)
    )
    order = draw(st.permutations(sids))
    # integer weights that never increase along the order, ties allowed
    weights = sorted(draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)), reverse=True)
    return order, arrivals, deadlines, avail, dict(zip(order, weights))


@settings(max_examples=300, deadline=None)
@given(_oracle_instances())
def test_allocate_matches_lexicographic_oracle(instance):
    order, arrivals, deadlines, avail, weights = instance
    alloc = allocate_cohorts(order, arrivals, deadlines, avail)
    drops = {sid: arrivals[sid] - sum(alloc[sid]) for sid in order}
    assert drops == brute_force_lex_min_drops(order, arrivals, deadlines, avail)
    _assert_within_capacity(alloc, deadlines, avail)
    # the lexicographic minimum is also a weighted minimum for such weights
    best = brute_force_min_weighted_drops(weights, arrivals, deadlines, avail)
    assert sum(weights[sid] * drops[sid] for sid in order) == sum(weights[sid] * best[sid] for sid in order)


class TestDcsa:
    def test_plan_and_decide_single_cohort(self):
        spec = _spec(1, deadline=2)
        sched = DcsaScheduler([spec], (3, 3))
        queues, deficits = _queues([spec]), _deficits([spec])
        queues[0].admit(5)
        served0 = sched.decide(0, 3, queues, deficits)
        assert served0 == [[0, 3]]  # r=2 bucket holds the fresh cohort
        queues[0].serve_and_age(served0[0])
        queues[0].admit(0)
        served1 = sched.decide(1, 3, queues, deficits)
        assert served1 == [[2, 0]]
        dropped = queues[0].serve_and_age(served1[0])
        assert dropped == 0

    def test_capacity_past_the_trip_end_is_zero(self):
        spec = _spec(1, deadline=2)
        sched = DcsaScheduler([spec], (2,))
        queues, deficits = _queues([spec]), _deficits([spec])
        assert _step(sched, 0, 2, queues, deficits, [5]) == [[0, 2]]
        # frame 1 lies past the trip, so the other 3 packets are fixed to drop
        assert sched.projected(0, 0) == 3

    def test_future_drops_recorded_for_unplannable_leftover(self):
        spec = _spec(1, deadline=2)
        sched = DcsaScheduler([spec], (1,) * 4)
        queues = _queues([spec])
        # cohort gets 1 packet at each of frames 0 and 1; 3 drop at frame 1
        assert _step(sched, 0, 1, queues, [DeficitQueue(1, 0)], [5]) == [[0, 1]]
        assert sched.projected(0, 0) == 3
        assert _step(sched, 1, 1, queues, [DeficitQueue(1, 0)], [0]) == [[1, 0]]
        # those drops have happened by frame 2; nothing else is fixed
        assert sched.projected(0, 0) == 0

    def test_earlier_batches_hold_later_capacity(self):
        s1 = _spec(1, deadline=3)
        s2 = _spec(2, deadline=2)
        caps = (10, 2, 5)
        sched = DcsaScheduler([s1, s2], caps)
        queues, deficits = _queues([s1, s2]), _deficits([s1, s2])
        # service 1 commits 10 at frame 0, 2 at frame 1
        assert _step(sched, 0, 10, queues, deficits, [12, 0]) == [[0, 0, 10], [0, 0]]
        # frame 1's capacity is all held by that batch, so service 2's batch
        # goes to frame 2, where the earlier batch holds nothing
        assert _step(sched, 1, 2, queues, deficits, [0, 3]) == [[0, 2, 0], [0, 0]]
        assert _step(sched, 2, 5, queues, deficits, [0, 0]) == [[0, 0, 0], [3, 0]]

    def test_frames_must_be_planned_in_order(self):
        spec = _spec(1, deadline=3)
        sched = DcsaScheduler([spec], (4,) * 5)
        with pytest.raises(ContractViolation):
            sched.plan_arrivals(1, [2], [0])
        sched.plan_arrivals(0, [2], [0])
        for frame in (0, 2):
            with pytest.raises(ContractViolation):
                sched.plan_arrivals(frame, [2], [0])
        queues, deficits = _queues([spec]), _deficits([spec])
        queues[0].admit(2)
        with pytest.raises(ContractViolation):
            sched.decide(2, 4, queues, deficits)
        assert sched.decide(1, 4, queues, deficits) == [[0, 0, 2]]

    def test_priority_ties_break_by_ascending_id(self):
        specs = [_spec(1, deadline=1), _spec(2, deadline=1)]
        sched = DcsaScheduler(specs, ())
        assert sched.priority_order([0, 0]) == [0, 1]

    def test_exact_zero_deficits_tie_by_ascending_id(self):
        # service 2 (lambda 60, ratio 0.9) drops 6 and drains back to exactly
        # 0; with the float allowance 5.999999999999998 it kept about 1.8e-15
        # and outranked service 1, whose deficit is also 0
        specs = [_spec(1, rate=100.0, deadline=1, q=0.99), _spec(2, rate=60.0, deadline=1, q=0.9)]
        sched = DcsaScheduler(specs, (0, 0, 1))
        queues, deficits = _queues(specs), _deficits(specs)
        _step(sched, 0, 0, queues, deficits, [0, 6])
        _step(sched, 1, 0, queues, deficits, [0, 0])
        assert [dq.num for dq in deficits] == [0, 0]
        assert _step(sched, 2, 1, queues, deficits, [1, 1]) == [[1], [0]]

    def test_priority_compares_fractional_deficits_exactly(self):
        # allowances 1/2, 1 and 5/4: numerators over denominators 2, 1 and 4
        specs = [_spec(1, deadline=1, q=0.95), _spec(2, deadline=1, q=0.9), _spec(3, deadline=1, q=0.875)]
        sched = DcsaScheduler(specs, ())
        # deficits 1.5, 1 and 1.5: the two 1.5s tie and keep id order
        assert sched.priority_order([3, 1, 6]) == [0, 2, 1]
        # deficits 1.5, 2 and 1.75
        assert sched.priority_order([3, 2, 7]) == [1, 2, 0]

    def test_priority_responsiveness(self):
        rng = random.Random(17)
        for _ in range(200):
            specs = [_spec(sid, deadline=rng.randint(1, 3)) for sid in (1, 2, 3)]
            sched = DcsaScheduler(specs, ())
            deficits = [rng.randint(0, 20) for _ in specs]
            bumped = rng.randrange(len(specs))
            order_before = sched.priority_order(deficits)
            deficits_after = list(deficits)
            deficits_after[bumped] += rng.randint(0, 10)
            order_after = sched.priority_order(deficits_after)
            assert order_after.index(bumped) <= order_before.index(bumped)


class TestRoundRobin:
    def test_rotation_over_frames(self):
        specs = [_spec(1, deadline=2), _spec(2, deadline=2)]
        sched = RoundRobinScheduler(specs)
        queues = _queues(specs)
        queues[0].buckets = [1, 1]
        queues[1].buckets = [1, 1]
        even = sched.decide(0, 10, queues, _deficits(specs))
        assert sum(even[0]) == 2 and sum(even[1]) == 0
        odd = sched.decide(1, 10, queues, _deficits(specs))
        assert sum(odd[0]) == 0 and sum(odd[1]) == 2

    def test_empty_selected_service_wastes_capacity(self):
        specs = [_spec(1, deadline=2), _spec(2, deadline=2)]
        sched = RoundRobinScheduler(specs)
        queues = _queues(specs)
        queues[1].buckets = [4, 0]
        assert sched.decide(0, 10, queues, _deficits(specs)) == [[0, 0], [0, 0]]

    def test_fills_earliest_buckets_first(self):
        specs = [_spec(1, deadline=2)]
        sched = RoundRobinScheduler(specs)
        queues = _queues(specs)
        queues[0].buckets = [4, 6]
        assert sched.decide(0, 7, queues, _deficits(specs)) == [[4, 3]]


class TestEdf:
    def test_single_packet_served(self):
        specs = [_spec(1, deadline=3)]
        sched = EdfScheduler(specs)
        queues = _queues(specs)
        queues[0].buckets = [0, 1, 0]
        assert sched.decide(0, 5, queues, _deficits(specs)) == [[0, 1, 0]]

    def test_urgency_tie_goes_to_higher_service_id(self):
        specs = [_spec(1, deadline=2), _spec(2, deadline=2)]
        sched = EdfScheduler(specs)
        queues = _queues(specs)
        queues[0].buckets = [2, 0]
        queues[1].buckets = [3, 0]
        assert sched.decide(0, 4, queues, _deficits(specs)) == [[1, 0], [3, 0]]

    def test_zero_capacity_serves_nothing(self):
        specs = [_spec(1, deadline=2), _spec(2, deadline=2)]
        sched = EdfScheduler(specs)
        queues = _queues(specs)
        queues[0].buckets = [5, 5]
        queues[1].buckets = [5, 5]
        assert sched.decide(0, 0, queues, _deficits(specs)) == [[0, 0], [0, 0]]

    def test_mixed_deadlines(self):
        specs = [_spec(1, deadline=1), _spec(2, deadline=3)]
        sched = EdfScheduler(specs)
        queues = _queues(specs)
        queues[0].buckets = [2]
        queues[1].buckets = [1, 0, 4]
        # r=1 first (s2 then s1), leftover goes to s2's r=3 bucket
        assert sched.decide(0, 4, queues, _deficits(specs)) == [[2], [1, 0, 1]]


def test_make_scheduler_factory(two_services):
    assert make_scheduler("dcsa", two_services, ()).name == "dcsa"
    assert make_scheduler("rr", two_services, ()).name == "rr"
    assert make_scheduler("edf", two_services, ()).name == "edf"
    with pytest.raises(ValueError):
        make_scheduler("fifo", two_services, ())
