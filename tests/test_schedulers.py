import os
import random
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MIXED_SERVICES, LinkSim, certified_planner, first_rank_mismatch, oldest_first
from hsrsched import (
    ServiceSpec,
    allocate_cohorts,
    make_scheduler,
    run,
    schedulers,
)
from hsrsched.analysis import (
    ORACLE_MAX_ARRIVALS,
    ORACLE_MAX_CAPACITY,
    ORACLE_MAX_COHORTS,
    ORACLE_MAX_DEADLINE,
    ORACLE_MAX_SERVICES,
    brute_force_lex_min_drops,
    brute_force_min_weighted_drops,
)
from hsrsched.cli import parse_config

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
MIXED_CONFIG = os.path.join(REPO, "perfbench", "configs", "mixed.ini")
TABLE1_CONFIG = os.path.join(REPO, "configs", "table1_fig2.ini")


def _spec(rate=10.0, deadline=2, q=0.9):
    return ServiceSpec(arrival_rate=rate, deadline=deadline, delivery_ratio=q)


def _buckets(specs):
    return [[0] * s.deadline for s in specs]


def _step(decide, specs, frame, buckets, nums, arrivals):
    """One engine frame: admit, decide, serve each total oldest first and
    age, update the deficit numerators; returns the decision and each
    service's drops."""
    for row, a in zip(buckets, arrivals):
        row[-1] = a
    totals = decide(frame, buckets, nums)
    drops = []
    for j, (row, total, spec) in enumerate(zip(buckets, totals, specs)):
        p, q = spec.loss_allowance.as_integer_ratio()
        served = oldest_first(row, total)
        drops.append(row[0] - served[0])
        row[:-1] = map(sub, row[1:], served[1:])
        row[-1] = 0
        nums[j] = max(nums[j] - p, 0) + drops[-1] * q
    return totals, drops


def _assert_prefix_feasible(rows, grants, avail):
    """Every cohort within its packets, and for each horizon d the cohorts
    whose window lies inside offsets 0..d within the capacity there."""
    assert len(grants) == len(rows)
    for row, granted in zip(rows, grants):
        assert len(granted) == len(row)
        assert all(0 <= x <= a for x, a in zip(granted, row))
    for d in range(len(avail)):
        inside = sum(sum(granted[: d + 1]) for granted in grants)
        assert inside <= sum(avail[: d + 1])


def test_allocate_single_service_spills_to_second_frame():
    # 5 packets with 2 frames to go fit over two frames of 3, 7 do not
    assert allocate_cohorts([0], [[0, 5]], [3, 3]) == [[0, 5]]
    assert allocate_cohorts([0], [[0, 7]], [3, 3]) == [[0, 6]]


def test_allocate_priority_order_shares_one_frame():
    assert allocate_cohorts([1, 0], [[4], [4]], [5]) == [[1], [4]]


def test_allocate_no_arrivals_changes_nothing():
    assert allocate_cohorts([0, 1], [[0, 0], [0, 0]], [4, 4]) == [[0, 0], [0, 0]]


def test_allocate_never_exceeds_capacity():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 3)
        rows = [[rng.randint(0, 9) for _ in range(rng.randint(1, 4))] for _ in range(n)]
        avail = [rng.randint(0, 7) for _ in range(max(map(len, rows)))]
        order = list(range(n))
        rng.shuffle(order)
        _assert_prefix_feasible(rows, allocate_cohorts(order, rows, avail), avail)


def test_allocate_short_deadline_not_crowded_out_by_long():
    # the long-deadline cohort has priority, but serving it at offset 0
    # would leave the short-deadline packet nowhere to go
    rows = [[1], [0, 1]]
    grants = allocate_cohorts([1, 0], rows, [1, 1])
    assert grants == [[1], [0, 1]]
    _assert_prefix_feasible(rows, grants, [1, 1])


def test_allocate_later_cohort_of_a_service_limited_by_its_earlier_one():
    # service 1's r=1 cohort takes offset 0; its r=2 cohort then has only
    # offset 1 left, and service 2 none at all
    rows = [[3, 3], [0, 2]]
    assert allocate_cohorts([0, 1], rows, [3, 2]) == [[3, 2], [0, 0]]
    # in the other order service 2 is whole and service 1 keeps offset 0
    assert allocate_cohorts([1, 0], rows, [3, 2]) == [[3, 0], [0, 2]]


@st.composite
def _greedy_inputs(draw):
    """1-4 services in any order, rows of 1-10 cohorts with empty ones
    likely, and a non-negative capacity over the longest row, at times all
    zero."""
    cell = st.one_of(st.just(0), st.integers(0, 12))
    rows = draw(st.lists(st.lists(cell, min_size=1, max_size=10), min_size=1, max_size=4))
    # the capacity may run past the longest row
    length = max(map(len, rows)) + draw(st.integers(0, 1))
    capacity = st.one_of(st.just(0), st.integers(0, 15))
    available = draw(st.one_of(st.just([0] * length), st.lists(capacity, min_size=length, max_size=length)))
    return draw(st.permutations(range(len(rows)))), rows, available


@settings(max_examples=500, deadline=None)
@given(_greedy_inputs())
def test_allocate_grants_every_prefix_its_min_cut_rank(inputs):
    order, rows, available = inputs
    grants = allocate_cohorts(order, rows, available)
    assert [len(granted) for granted in grants] == [len(row) for row in rows]
    assert first_rank_mismatch(order, rows, available, grants) is None


@pytest.mark.parametrize(
    "config, contended",
    [(MIXED_CONFIG, 7861), (TABLE1_CONFIG, 23653)],
    ids=["mixed.ini", "table1_fig2.ini"],
)
def test_every_planner_call_of_a_mixed_deadline_trip_grants_min_cut_ranks(config, contended):
    # dcsa at seed 42 over perfbench/configs/mixed.ini (deadlines 2, 5 and
    # 10) and over the shipped configs/table1_fig2.ini (both deadlines 10)
    sim = parse_config(config).sim
    assert (sim.scheduler, sim.seed) == ("dcsa", 42)
    with certified_planner() as calls:
        run(sim)
    # the frames where services contend, of 15,000 and of 30,000
    assert len(calls) == contended


@st.composite
def _oracle_instances(draw):
    """Bucket rows of up to three services with at most three non-empty
    cells in all, so one service may hold several cohorts."""
    n = draw(st.integers(1, ORACLE_MAX_SERVICES))
    rows = [[0] * draw(st.integers(1, ORACLE_MAX_DEADLINE)) for _ in range(n)]
    cells = [(j, i) for j, row in enumerate(rows) for i in range(len(row))]
    occupied = st.lists(st.sampled_from(cells), min_size=1, max_size=ORACLE_MAX_COHORTS, unique=True)
    for j, i in draw(occupied):
        rows[j][i] = draw(st.integers(0, ORACLE_MAX_ARRIVALS))
    horizon = max(map(len, rows))
    avail = draw(st.lists(st.integers(0, ORACLE_MAX_CAPACITY), min_size=horizon, max_size=horizon))
    order = draw(st.permutations(range(n)))
    # integer weights that never increase along the order, ties allowed
    ranked = sorted(draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)), reverse=True)
    return order, rows, avail, tuple(ranked[order.index(j)] for j in range(n))


@settings(max_examples=300, deadline=None)
@given(_oracle_instances())
def test_allocate_matches_lexicographic_oracle(instance):
    order, rows, avail, weights = instance
    grants = allocate_cohorts(order, rows, avail)
    _assert_prefix_feasible(rows, grants, avail)
    drops = [[a - g for a, g in zip(row, granted)] for row, granted in zip(rows, grants)]
    assert drops == brute_force_lex_min_drops(order, rows, avail)
    # the lexicographic minimum is also a weighted minimum for such weights,
    # each cohort weighted as its service
    cell_weights = [[w] * len(row) for w, row in zip(weights, rows)]
    best = brute_force_min_weighted_drops(rows, cell_weights, avail)
    assert sum(w * (sum(d) - sum(b)) for w, d, b in zip(weights, drops, best)) == 0


class TestDcsa:
    def test_plan_and_decide_single_cohort(self):
        spec = _spec(deadline=2)
        decide = make_scheduler("dcsa", [spec], (3, 3))
        buckets, nums = _buckets([spec]), [0]
        # r=2 bucket holds the fresh cohort
        assert _step(decide, [spec], 0, buckets, nums, [5]) == ([3], [0])
        assert _step(decide, [spec], 1, buckets, nums, [0]) == ([2], [0])

    def test_capacity_past_the_trip_end_is_zero(self):
        # service 1 outranks service 2; its r=2 cohort has only frame 0 left
        # on a one-frame trip, so it takes that frame whole
        specs = [_spec(deadline=2), _spec(deadline=1)]
        decide = make_scheduler("dcsa", specs, (2,))
        assert decide(0, [[0, 2], [2]], [10, 0]) == [2, 0]
        # with a second frame of capacity the r=2 cohort would wait for it
        decide = make_scheduler("dcsa", specs, (2, 2))
        assert decide(0, [[0, 2], [2]], [10, 0]) == [0, 2]

    def test_earlier_batches_hold_later_capacity(self):
        s1 = _spec(deadline=3)
        s2 = _spec(deadline=2)
        specs = [s1, s2]
        decide = make_scheduler("dcsa", specs, (10, 2, 5))
        buckets, nums = _buckets(specs), [0, 0]
        # service 1 gets 10 at frame 0 and keeps 2 packets with 2 frames to go
        assert _step(decide, specs, 0, buckets, nums, [12, 0])[0] == [10, 0]
        # deficits tie at 0, so service 1's cohort ranks first and takes all
        # of frame 1; service 2's batch still fits at frame 2
        assert _step(decide, specs, 1, buckets, nums, [0, 3])[0] == [2, 0]
        assert _step(decide, specs, 2, buckets, nums, [0, 0])[0] == [0, 3]

    def test_priority_ties_break_by_ascending_id(self):
        specs = [_spec(deadline=1), _spec(deadline=1)]
        decide = make_scheduler("dcsa", specs, (1,))
        assert decide(0, [[1], [1]], [0, 0]) == [1, 0]

    def test_exact_zero_deficits_tie_by_ascending_id(self):
        # service 2 (lambda 60, ratio 0.9) drops 6 and drains back to exactly
        # 0; with the float allowance 5.999999999999998 it kept about 1.8e-15
        # and outranked service 1, whose deficit is also 0
        specs = [_spec(rate=100.0, deadline=1, q=0.99), _spec(rate=60.0, deadline=1, q=0.9)]
        decide = make_scheduler("dcsa", specs, (0, 0, 1))
        buckets, nums = _buckets(specs), [0, 0]
        _step(decide, specs, 0, buckets, nums, [0, 6])
        _step(decide, specs, 1, buckets, nums, [0, 0])
        assert nums == [0, 0]
        assert _step(decide, specs, 2, buckets, nums, [1, 1])[0] == [1, 0]

    def test_priority_compares_fractional_deficits_exactly(self):
        # allowances 1/2, 1 and 5/4: numerators over denominators 2, 1 and 4
        specs = [_spec(deadline=1, q=0.95), _spec(deadline=1, q=0.9), _spec(deadline=1, q=0.875)]
        decide = make_scheduler("dcsa", specs, (2,))

        # deficits 1.5, 1 and 1.5: the two 1.5s tie and keep id order
        assert decide(0, [[1], [1], [1]], [3, 1, 6]) == [1, 0, 1]
        # deficits 1.5, 2 and 1.75
        assert decide(0, [[1], [1], [1]], [3, 2, 7]) == [0, 1, 1]

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
                totals = make_scheduler("dcsa", specs, caps)(0, buckets, nums)
                assert sum(totals) <= caps[0]
                return totals[bumped]

            before = served(nums)
            nums[bumped] += rng.randint(0, 10)
            assert served(nums) >= before

    def test_a_served_service_sends_its_older_cohort_first(self):
        # frame 1 is contended, and service 1, ranked first, holds one packet
        # with 1 frame to go and one with 2: the packet it sends is the older,
        # so nothing drops until service 2's packet expires at frame 2
        specs = [_spec(deadline=2), _spec(deadline=2)]
        decide = make_scheduler("dcsa", specs, (1, 1, 1))
        buckets, nums = _buckets(specs), [0, 0]
        assert _step(decide, specs, 0, buckets, nums, [2, 0]) == ([1, 0], [0, 0])
        assert buckets == [[1, 0], [0, 0]]
        assert _step(decide, specs, 1, buckets, nums, [1, 1]) == ([1, 0], [0, 0])
        assert buckets == [[1, 0], [1, 0]]
        assert _step(decide, specs, 2, buckets, nums, [0, 0]) == ([1, 0], [0, 1])

    def test_higher_deficit_wins_contested_capacity(self):
        specs = [_spec(deadline=2), _spec(deadline=2)]
        decide = make_scheduler("dcsa", specs, (4, 0))
        # both cohorts fit the trip only at frame 0, which holds one of them
        for nums, expected in (([0, 1], [0, 4]), ([1, 0], [4, 0])):
            assert decide(0, [[0, 4], [0, 4]], nums) == expected


def _always_ranked(specs, caps, frame, buckets, nums):
    """dcsa's frame without the contention guard: rank by exact deficit (ties
    by ascending id), grant every cohort through ``allocate_cohorts`` and fill
    the grants by ascending r, then ascending id, up to the frame capacity.
    Returns what each bucket sends, ``served[j][i]``."""
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
    return make_scheduler("dcsa", specs, caps)(frame, buckets, nums)


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
    served = _always_ranked(*state)
    assert _dcsa_frame(*state) == [sum(row) for row in served]
    # the grants' serve takes each service's packets oldest first, so the
    # engine's oldest-first serve of the totals sends the same packets
    buckets = state[3]
    assert served == [oldest_first(row, sum(took)) for row, took in zip(buckets, served)]


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
        ((3, 1), (4, 1, 1), [[2, 0, 7], [0]], [0, 9], [4, 0], 0),
        # two services whose packets fit every prefix of the horizon
        ((2, 3), (3, 3, 3), [[1, 2], [0, 1, 3]], [0, 9], [3, 0], 0),
        # contended: service 2's higher deficit grants its long cohort the
        # trip's one frame first, so service 1's short cohort is served none
        ((1, 2), (4,), [[3], [0, 4]], [0, 9], [0, 4], 1),
    ],
)
def test_contention_guard_branches(deadlines, caps, buckets, nums, served, greedy_calls, monkeypatch):
    specs = [_spec(deadline=m) for m in deadlines]
    calls = _counting_allocate(monkeypatch)
    assert _dcsa_frame(specs, caps, 0, buckets, nums) == served
    assert len(calls) == greedy_calls
    assert [sum(row) for row in _always_ranked(specs, caps, 0, buckets, nums)] == served


def test_greedy_runs_only_when_services_contend(table1_traj, table1_radio, monkeypatch):
    calls = _counting_allocate(monkeypatch)

    def trip(*services):
        # a constant 100 packets per frame, below either offered load
        link = (100,) * table1_traj.num_frames
        cfg = LinkSim(table1_traj, table1_radio, services, seed=42, num_frames=2000, profile=link)
        run(cfg)
        return len(calls)

    # one service never contends, however overloaded
    assert trip(ServiceSpec(arrival_rate=130.0, deadline=3, delivery_ratio=0.99)) == 0
    assert trip(*MIXED_SERVICES) > 0


class TestRoundRobin:
    def test_rotation_over_frames(self):
        specs = [_spec(deadline=2), _spec(deadline=2)]
        decide = make_scheduler("rr", specs, (10, 10))
        buckets = [[1, 1], [1, 1]]
        assert decide(0, buckets, [0, 0]) == [2, 0]
        assert decide(1, buckets, [0, 0]) == [0, 2]

    def test_empty_selected_service_wastes_capacity(self):
        specs = [_spec(deadline=2), _spec(deadline=2)]
        decide = make_scheduler("rr", specs, (10,))
        assert decide(0, [[0, 0], [4, 0]], [0, 0]) == [0, 0]

    def test_fills_earliest_buckets_first(self):
        specs = [_spec(deadline=2)]
        decide = make_scheduler("rr", specs, (7,))
        # the engine sends these 7 as all 4 with 1 frame to go and 3 of the 6 with 2
        assert decide(0, [[4, 6]], [0]) == [7]


class TestEdf:
    def test_single_packet_served(self):
        specs = [_spec(deadline=3)]
        decide = make_scheduler("edf", specs, (5,))
        assert decide(0, [[0, 1, 0]], [0]) == [1]

    def test_urgency_tie_goes_to_the_later_service(self):
        specs = [_spec(deadline=2), _spec(deadline=2)]
        decide = make_scheduler("edf", specs, (4,))
        assert decide(0, [[2, 0], [3, 0]], [0, 0]) == [1, 3]

    def test_zero_capacity_serves_nothing(self):
        specs = [_spec(deadline=2), _spec(deadline=2)]
        decide = make_scheduler("edf", specs, (0,))
        assert decide(0, [[5, 5], [5, 5]], [0, 0]) == [0, 0]

    def test_mixed_deadlines(self):
        specs = [_spec(deadline=1), _spec(deadline=3)]
        decide = make_scheduler("edf", specs, (4,))
        # r=1 first (s2 then s1), leftover goes to s2's r=3 bucket
        assert decide(0, [[2], [1, 0, 4]], [0, 0]) == [2, 2]


@st.composite
def _fixed_order_states(draw):
    deadlines = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    buckets = [draw(st.lists(st.integers(0, 8), min_size=m, max_size=m)) for m in deadlines]
    caps = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12))
    frame = draw(st.integers(0, len(caps) - 1))
    return deadlines, buckets, caps, frame


@settings(max_examples=300, deadline=None)
@given(_fixed_order_states())
def test_fixed_order_policies_match_direct_loops(state):
    deadlines, buckets, caps, frame = state
    specs = [_spec(deadline=m) for m in deadlines]
    turn = frame % len(deadlines)
    # rr: service frame % n only, oldest bucket first
    rr_cells = [(turn, i) for i in range(deadlines[turn])]
    # edf: fewest frames to go first, then the later service first
    edf_cells = [
        (j, i) for i in range(max(deadlines)) for j in reversed(range(len(deadlines))) if i < deadlines[j]
    ]
    for policy, cells in (("rr", rr_cells), ("edf", edf_cells)):
        left = caps[frame]
        expected = [0] * len(deadlines)
        for j, i in cells:
            took = min(buckets[j][i], left)
            expected[j] += took
            left -= took
        rows = [row[:] for row in buckets]
        assert make_scheduler(policy, specs, caps)(frame, rows, [0] * len(specs)) == expected
        assert rows == buckets


@pytest.mark.parametrize("policy", schedulers.SCHEDULER_POLICIES)
def test_frame_capacity_is_read_from_the_trip_capacities(policy):
    # a bucket of 10 on a trip whose one frame holds 3
    spec = _spec(deadline=1)
    assert make_scheduler(policy, [spec], (3,))(0, [[10]], [0]) == [3]


def test_make_scheduler_factory(two_services):
    # one packet per deadline-1 service and one to serve: dcsa takes the
    # highest deficit, rr service 1's turn at frame 0 and edf the later
    # service on the urgency tie, so each name picks a different policy
    specs = [_spec(deadline=1)] * 3
    expected = {"dcsa": [0, 1, 0], "rr": [1, 0, 0], "edf": [0, 0, 1]}
    for policy, served in expected.items():
        assert make_scheduler(policy, specs, (1, 1))(0, [[1], [1], [1]], [0, 10, 0]) == served
    with pytest.raises(ValueError):
        make_scheduler("fifo", two_services, ())
