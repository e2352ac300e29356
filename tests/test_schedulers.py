import random
from fractions import Fraction
from itertools import accumulate
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsrsched import (
    DcsaScheduler,
    ServiceSpec,
    SimConfig,
    allocate_cohorts,
    make_scheduler,
    run,
    schedulers,
)
from hsrsched.analysis import (
    ORACLE_MAX_ARRIVALS,
    ORACLE_MAX_CAPACITY,
    ORACLE_MAX_DEADLINE,
    ORACLE_MAX_SERVICES,
    OracleInstance,
    brute_force_lex_min_drops,
    brute_force_min_weighted_drops,
)
from hsrsched.schedulers import EdfScheduler, RoundRobinScheduler


def _spec(rate=10.0, deadline=2, q=0.9):
    return ServiceSpec(arrival_rate=rate, deadline=deadline, delivery_ratio=q)


def _buckets(specs):
    return [[0] * s.deadline for s in specs]


def _step(sched, frame, buckets, nums, arrivals):
    """One engine frame: admit, decide, serve and age, update the deficit
    numerators; returns the decision and each service's drops."""
    for row, a in zip(buckets, arrivals):
        row[-1] = a
    rows = sched.decide(frame, buckets, nums)
    drops = []
    for j, (row, served, spec) in enumerate(zip(buckets, rows, sched.specs)):
        p, q = spec.loss_allowance.as_integer_ratio()
        drops.append(row[0] - served[0])
        row[:-1] = map(sub, row[1:], served[1:])
        row[-1] = 0
        nums[j] = max(nums[j] - p, 0) + drops[-1] * q
    return rows, drops


def _assert_prefix_feasible(rows, grants, avail):
    """Every cohort within its packets, and for each horizon d the cohorts
    whose window lies inside offsets 0..d within the capacity there."""
    for key, row in rows.items():
        assert len(grants[key]) == len(row)
        assert all(0 <= x <= a for x, a in zip(grants[key], row))
    for d in range(len(avail)):
        inside = sum(sum(grants[key][: d + 1]) for key in rows)
        assert inside <= sum(avail[: d + 1])


def test_allocate_single_service_spills_to_second_frame():
    # 5 packets with 2 frames to go fit over two frames of 3, 7 do not
    assert allocate_cohorts([1], {1: [0, 5]}, [3, 3]) == {1: [0, 5]}
    assert allocate_cohorts([1], {1: [0, 7]}, [3, 3]) == {1: [0, 6]}


def test_allocate_priority_order_shares_one_frame():
    assert allocate_cohorts([2, 1], {1: [4], 2: [4]}, [5]) == {2: [4], 1: [1]}


def test_allocate_no_arrivals_changes_nothing():
    assert allocate_cohorts([1, 2], {1: [0, 0], 2: [0, 0]}, [4, 4]) == {1: [0, 0], 2: [0, 0]}


def test_allocate_never_exceeds_capacity():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 3)
        rows = {sid: [rng.randint(0, 9) for _ in range(rng.randint(1, 4))] for sid in range(1, n + 1)}
        avail = [rng.randint(0, 7) for _ in range(max(map(len, rows.values())))]
        order = list(rows)
        rng.shuffle(order)
        _assert_prefix_feasible(rows, allocate_cohorts(order, rows, avail), avail)


def test_allocate_short_deadline_not_crowded_out_by_long():
    # the long-deadline cohort has priority, but serving it at offset 0
    # would leave the short-deadline packet nowhere to go
    rows = {1: [1], 2: [0, 1]}
    grants = allocate_cohorts([2, 1], rows, [1, 1])
    assert grants == {2: [0, 1], 1: [1]}
    _assert_prefix_feasible(rows, grants, [1, 1])


def test_allocate_later_cohort_of_a_service_limited_by_its_earlier_one():
    # service 1's r=1 cohort takes offset 0; its r=2 cohort then has only
    # offset 1 left, and service 2 none at all
    rows = {1: [3, 3], 2: [0, 2]}
    assert allocate_cohorts([1, 2], rows, [3, 2]) == {1: [3, 2], 2: [0, 0]}
    # in the other order service 2 is whole and service 1 keeps offset 0
    assert allocate_cohorts([2, 1], rows, [3, 2]) == {2: [0, 2], 1: [3, 0]}


def _parent_allocate_cohorts(order, rows, available):
    """The greedy without its two shortcuts: a suffix minimum for every key
    and a slack update after every grant.  ``allocate_cohorts`` must match
    it exactly."""
    horizon = max((len(rows[key]) for key in order), default=0)
    slack = list(accumulate(available[:horizon]))
    grants = {}
    for key in order:
        row = rows[key]
        if not slack[-1] or not any(row):
            grants[key] = [0] * len(row)
            continue
        floor = list(accumulate(reversed(slack), min))
        floor.reverse()
        granted = 0
        out = []
        for a, f in zip(row, floor):
            x = f - granted
            if a < x:
                x = a
            granted += x
            out.append(x)
        if granted:
            m = len(row)
            slack[:m] = map(sub, slack, accumulate(out))
            slack[m:] = [v - granted for v in slack[m:]]
        grants[key] = out
    return grants


@st.composite
def _greedy_inputs(draw):
    """1-4 keys in any order, rows of 1-10 cohorts with empty ones likely,
    and a non-negative capacity over the longest row, at times all zero."""
    keys = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    cell = st.one_of(st.just(0), st.integers(0, 12))
    rows = {key: draw(st.lists(cell, min_size=1, max_size=10)) for key in keys}
    # the capacity may run past the longest row
    length = max(map(len, rows.values())) + draw(st.integers(0, 1))
    capacity = st.one_of(st.just(0), st.integers(0, 15))
    available = draw(st.one_of(st.just([0] * length), st.lists(capacity, min_size=length, max_size=length)))
    return draw(st.permutations(keys)), rows, available


@settings(max_examples=500, deadline=None)
@given(_greedy_inputs())
def test_allocate_matches_parent_greedy(inputs):
    assert allocate_cohorts(*inputs) == _parent_allocate_cohorts(*inputs)


@st.composite
def _oracle_instances(draw):
    """Bucket rows of up to three services with at most three non-empty
    cells in all, so one service may hold several cohorts."""
    n = draw(st.integers(1, ORACLE_MAX_SERVICES))
    sids = list(range(1, n + 1))
    rows = {sid: [0] * draw(st.integers(1, ORACLE_MAX_DEADLINE)) for sid in sids}
    cells = [(sid, i) for sid in sids for i in range(len(rows[sid]))]
    occupied = st.lists(st.sampled_from(cells), min_size=1, max_size=ORACLE_MAX_SERVICES, unique=True)
    for sid, i in draw(occupied):
        rows[sid][i] = draw(st.integers(0, ORACLE_MAX_ARRIVALS))
    horizon = max(map(len, rows.values()))
    avail = draw(st.lists(st.integers(0, ORACLE_MAX_CAPACITY), min_size=horizon, max_size=horizon))
    order = draw(st.permutations(sids))
    # integer weights that never increase along the order, ties allowed
    weights = sorted(draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)), reverse=True)
    return order, rows, avail, dict(zip(order, weights))


@settings(max_examples=300, deadline=None)
@given(_oracle_instances())
def test_allocate_matches_lexicographic_oracle(instance):
    order, rows, avail, weights = instance
    grants = allocate_cohorts(order, rows, avail)
    _assert_prefix_feasible(rows, grants, avail)
    # the oracle's view: non-empty cohorts keyed (service id, r), by service
    # priority and then ascending r, each weighted as its service
    instance = OracleInstance(tuple(order), rows, tuple(avail), weights)
    keys, packets, windows, cohort_weights = instance.cohorts()
    drops = {(sid, r): a - grants[sid][r - 1] for (sid, r), a in packets.items()}
    assert drops == brute_force_lex_min_drops(keys, packets, windows, avail)
    # the lexicographic minimum is also a weighted minimum for such weights
    best = brute_force_min_weighted_drops(cohort_weights, packets, windows, avail)
    assert sum(w * (drops[k] - best[k]) for k, w in cohort_weights.items()) == 0


class TestDcsa:
    def test_plan_and_decide_single_cohort(self):
        spec = _spec(deadline=2)
        sched = DcsaScheduler([spec], (3, 3))
        buckets, nums = _buckets([spec]), [0]
        # r=2 bucket holds the fresh cohort
        assert _step(sched, 0, buckets, nums, [5]) == ([[0, 3]], [0])
        assert _step(sched, 1, buckets, nums, [0]) == ([[2, 0]], [0])

    def test_capacity_past_the_trip_end_is_zero(self):
        # service 1 outranks service 2; its r=2 cohort has only frame 0 left
        # on a one-frame trip, so it takes that frame whole
        specs = [_spec(deadline=2), _spec(deadline=1)]
        sched = DcsaScheduler(specs, (2,))
        assert sched.decide(0, [[0, 2], [2]], [10, 0]) == [[0, 2], [0]]
        # with a second frame of capacity the r=2 cohort would wait for it
        sched = DcsaScheduler(specs, (2, 2))
        assert sched.decide(0, [[0, 2], [2]], [10, 0]) == [[0, 0], [2]]

    def test_earlier_batches_hold_later_capacity(self):
        s1 = _spec(deadline=3)
        s2 = _spec(deadline=2)
        caps = (10, 2, 5)
        sched = DcsaScheduler([s1, s2], caps)
        buckets, nums = _buckets([s1, s2]), [0, 0]
        # service 1 gets 10 at frame 0 and keeps 2 packets with 2 frames to go
        assert _step(sched, 0, buckets, nums, [12, 0])[0] == [[0, 0, 10], [0, 0]]
        # deficits tie at 0, so service 1's cohort ranks first and takes all
        # of frame 1; service 2's batch still fits at frame 2
        assert _step(sched, 1, buckets, nums, [0, 3])[0] == [[0, 2, 0], [0, 0]]
        assert _step(sched, 2, buckets, nums, [0, 0])[0] == [[0, 0, 0], [3, 0]]

    def test_priority_ties_break_by_ascending_id(self):
        specs = [_spec(deadline=1), _spec(deadline=1)]
        sched = DcsaScheduler(specs, (1,))
        assert sched.decide(0, [[1], [1]], [0, 0]) == [[1], [0]]

    def test_exact_zero_deficits_tie_by_ascending_id(self):
        # service 2 (lambda 60, ratio 0.9) drops 6 and drains back to exactly
        # 0; with the float allowance 5.999999999999998 it kept about 1.8e-15
        # and outranked service 1, whose deficit is also 0
        specs = [_spec(rate=100.0, deadline=1, q=0.99), _spec(rate=60.0, deadline=1, q=0.9)]
        sched = DcsaScheduler(specs, (0, 0, 1))
        buckets, nums = _buckets(specs), [0, 0]
        _step(sched, 0, buckets, nums, [0, 6])
        _step(sched, 1, buckets, nums, [0, 0])
        assert nums == [0, 0]
        assert _step(sched, 2, buckets, nums, [1, 1])[0] == [[1], [0]]

    def test_priority_compares_fractional_deficits_exactly(self):
        # allowances 1/2, 1 and 5/4: numerators over denominators 2, 1 and 4
        specs = [_spec(deadline=1, q=0.95), _spec(deadline=1, q=0.9), _spec(deadline=1, q=0.875)]
        sched = DcsaScheduler(specs, (2,))

        # deficits 1.5, 1 and 1.5: the two 1.5s tie and keep id order
        assert sched.decide(0, [[1], [1], [1]], [3, 1, 6]) == [[1], [0], [1]]
        # deficits 1.5, 2 and 1.75
        assert sched.decide(0, [[1], [1], [1]], [3, 2, 7]) == [[0], [1], [1]]

    def test_priority_responsiveness(self):
        # a higher deficit never loses contested capacity: raising one
        # service's counter never lowers what it is served this frame
        rng = random.Random(17)
        for _ in range(500):
            specs = [_spec(deadline=rng.randint(1, 3)) for _ in range(3)]
            caps = tuple(rng.randint(0, 8) for _ in range(3))
            buckets = [[rng.randint(0, 5) for _ in range(s.deadline)] for s in specs]
            nums = [rng.randint(0, 20) for _ in specs]
            bumped = rng.randrange(len(specs))

            def served(nums):
                rows = DcsaScheduler(specs, caps).decide(0, buckets, nums)
                assert sum(map(sum, rows)) <= caps[0]
                return sum(rows[bumped])

            before = served(nums)
            nums[bumped] += rng.randint(0, 10)
            assert served(nums) >= before

    def test_higher_deficit_wins_contested_capacity(self):
        specs = [_spec(deadline=2), _spec(deadline=2)]
        sched = DcsaScheduler(specs, (4, 0))
        # both cohorts fit the trip only at frame 0, which holds one of them
        for nums, expected in (([0, 1], [[0, 0], [0, 4]]), ([1, 0], [[0, 4], [0, 0]])):
            assert sched.decide(0, [[0, 4], [0, 4]], nums) == expected


def _always_ranked(specs, caps, frame, buckets, nums):
    """dcsa's frame without the contention guard: rank by exact deficit (ties
    by ascending id), grant every cohort through ``allocate_cohorts`` and fill
    the grants by ascending r, then ascending id, up to the frame capacity."""
    horizon = max(s.deadline for s in specs)
    available = (tuple(caps) + (0,) * horizon)[frame : frame + horizon]
    deficits = [Fraction(num, s.loss_allowance.denominator) for s, num in zip(specs, nums)]
    order = sorted(range(len(specs)), key=lambda j: (-deficits[j], j))
    grants = allocate_cohorts(order, buckets, available)
    served = [[0] * s.deadline for s in specs]
    left = caps[frame]
    for i in range(horizon):
        for j, s in enumerate(specs):
            if i < s.deadline:
                served[j][i] = min(grants[j][i], left)
                left -= served[j][i]
    return served


def _dcsa_frame(specs, caps, frame, buckets, nums):
    return DcsaScheduler(specs, caps).decide(frame, buckets, nums)


@st.composite
def _dcsa_states(draw):
    """One to three services with mixed deadlines and allowances, random
    buckets and deficit numerators, and a frame of a short trip whose
    horizon may run past the trip end."""
    n = draw(st.integers(1, 3))
    ratios = st.sampled_from([0.9, 0.95, 0.875])
    specs = [_spec(deadline=draw(st.integers(1, 5)), q=draw(ratios)) for _ in range(n)]
    cell = st.one_of(st.just(0), st.integers(0, 8))
    buckets = [draw(st.lists(cell, min_size=s.deadline, max_size=s.deadline)) for s in specs]
    nums = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    caps = tuple(draw(st.lists(st.integers(0, 12), min_size=1, max_size=7)))
    frame = draw(st.integers(0, len(caps) - 1))
    return specs, caps, frame, buckets, nums


@settings(max_examples=500, deadline=None)
@given(_dcsa_states())
def test_contention_guard_matches_always_ranked_decide(state):
    assert _dcsa_frame(*state) == _always_ranked(*state)


def _counting_allocate(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return allocate_cohorts(*args)

    monkeypatch.setattr(schedulers, "allocate_cohorts", counted)
    return calls


@pytest.mark.parametrize(
    "deadlines, caps, buckets, nums, served, greedy_calls",
    [
        # one service holds packets beside an empty one: its buckets fill
        # the frame, whatever the deficits
        ((3, 1), (4, 1, 1), [[2, 0, 7], [0]], [0, 9], [[2, 0, 2], [0]], 0),
        # two services whose packets fit every prefix of the horizon
        ((2, 3), (3, 3, 3), [[1, 2], [0, 1, 3]], [0, 9], [[1, 2], [0, 0, 0]], 0),
        # contended: service 2's higher deficit grants its long cohort the
        # trip's one frame first, so service 1's short cohort is served none
        ((1, 2), (4,), [[3], [0, 4]], [0, 9], [[0], [0, 4]], 1),
    ],
)
def test_contention_guard_branches(deadlines, caps, buckets, nums, served, greedy_calls, monkeypatch):
    specs = [_spec(deadline=m) for m in deadlines]
    calls = _counting_allocate(monkeypatch)
    assert _dcsa_frame(specs, caps, 0, buckets, nums) == served
    assert len(calls) == greedy_calls
    assert _always_ranked(specs, caps, 0, buckets, nums) == served


def test_greedy_runs_only_when_services_contend(table1_traj, table1_radio, monkeypatch):
    calls = _counting_allocate(monkeypatch)

    def trip(*services):
        # a constant 100 packets per frame, below either offered load
        cfg = SimConfig(table1_traj, table1_radio, services, seed=42, num_frames=2000, capacity_override=100)
        run(cfg)
        return len(calls)

    # one service never contends, however overloaded
    assert trip(ServiceSpec(arrival_rate=130.0, deadline=3, delivery_ratio=0.99)) == 0
    mix = (
        ServiceSpec(arrival_rate=20.0, deadline=2, delivery_ratio=0.95),
        ServiceSpec(arrival_rate=40.0, deadline=5, delivery_ratio=0.90),
        ServiceSpec(arrival_rate=50.0, deadline=10, delivery_ratio=0.80),
    )
    assert trip(*mix) > 0


class TestRoundRobin:
    def test_rotation_over_frames(self):
        specs = [_spec(deadline=2), _spec(deadline=2)]
        sched = RoundRobinScheduler(specs, (10, 10))
        buckets = [[1, 1], [1, 1]]
        even = sched.decide(0, buckets, [0, 0])
        assert sum(even[0]) == 2 and sum(even[1]) == 0
        odd = sched.decide(1, buckets, [0, 0])
        assert sum(odd[0]) == 0 and sum(odd[1]) == 2

    def test_empty_selected_service_wastes_capacity(self):
        specs = [_spec(deadline=2), _spec(deadline=2)]
        sched = RoundRobinScheduler(specs, (10,))
        assert sched.decide(0, [[0, 0], [4, 0]], [0, 0]) == [[0, 0], [0, 0]]

    def test_fills_earliest_buckets_first(self):
        specs = [_spec(deadline=2)]
        sched = RoundRobinScheduler(specs, (7,))
        assert sched.decide(0, [[4, 6]], [0]) == [[4, 3]]


class TestEdf:
    def test_single_packet_served(self):
        specs = [_spec(deadline=3)]
        sched = EdfScheduler(specs, (5,))
        assert sched.decide(0, [[0, 1, 0]], [0]) == [[0, 1, 0]]

    def test_urgency_tie_goes_to_the_later_service(self):
        specs = [_spec(deadline=2), _spec(deadline=2)]
        sched = EdfScheduler(specs, (4,))
        assert sched.decide(0, [[2, 0], [3, 0]], [0, 0]) == [[1, 0], [3, 0]]

    def test_zero_capacity_serves_nothing(self):
        specs = [_spec(deadline=2), _spec(deadline=2)]
        sched = EdfScheduler(specs, (0,))
        assert sched.decide(0, [[5, 5], [5, 5]], [0, 0]) == [[0, 0], [0, 0]]

    def test_mixed_deadlines(self):
        specs = [_spec(deadline=1), _spec(deadline=3)]
        sched = EdfScheduler(specs, (4,))
        # r=1 first (s2 then s1), leftover goes to s2's r=3 bucket
        assert sched.decide(0, [[2], [1, 0, 4]], [0, 0]) == [[2], [1, 0, 1]]


@pytest.mark.parametrize("policy", schedulers.SCHEDULER_POLICIES)
def test_frame_capacity_is_read_from_the_trip_capacities(policy):
    # a bucket of 10 on a trip whose one frame holds 3
    spec = _spec(deadline=1)
    assert make_scheduler(policy, [spec], (3,)).decide(0, [[10]], [0]) == [[3]]


def test_make_scheduler_factory(two_services):
    assert make_scheduler("dcsa", two_services, ()).name == "dcsa"
    assert make_scheduler("rr", two_services, ()).name == "rr"
    assert make_scheduler("edf", two_services, ()).name == "edf"
    with pytest.raises(ValueError):
        make_scheduler("fifo", two_services, ())
