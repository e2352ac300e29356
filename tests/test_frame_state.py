"""The frame state ``engine.run`` keeps per service: deadline buckets (entry i
holds the packets with i + 1 frames to go) and the exact deficit numerator.
Each case scripts the services' arrivals and the decision of every frame (the
packets each sends, which the engine serves oldest first), and reads the
buckets each decision saw and the trace the run left."""

import math
import random
from collections import deque
from fractions import Fraction
from operator import sub

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsrsched.engine as engine_mod
from conftest import LinkSim, backlog, exact_deficits, fifo_drops, links, oldest_first
from hsrsched import ContractViolation, ServiceSpec, run


def _spec(deadline=1, rate=10.0, ratio=0.9):
    return ServiceSpec(arrival_rate=rate, deadline=deadline, delivery_ratio=ratio)


def _scripted_run(traj, radio, specs, arrivals, profile, decide):
    """Run ``specs`` with ``arrivals[k][j]`` admitted to service j at frame k,
    over the link ``profile``, deciding ``decide(frame, rows)``, a list of
    totals; returns the trace and a copy of the bucket rows each decision saw."""
    seen = []

    def scripted(frame, buckets, nums):
        seen.append([list(row) for row in buckets])
        return decide(frame, seen[-1])

    class Arrivals:
        def __init__(self, specs, seed):
            pass

        def sample_run(self, n):
            return np.array(arrivals, dtype=np.int64).reshape(n, -1)

    cfg = LinkSim(traj, radio, tuple(specs), num_frames=len(arrivals), profile=tuple(profile))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "ArrivalGenerator", Arrivals)
        mp.setattr(engine_mod, "make_scheduler", lambda policy, specs, caps: scripted)
        return run(cfg), seen


def _drive(traj, radio, spec, arrivals, decide=None):
    """Run ``spec`` alone with ``arrivals[k]`` admitted at frame k, deciding
    ``decide(frame, row)``, a list of totals (nothing served by default), on
    an unlimited link; returns the trace and the bucket row each decision saw."""
    trace, seen = _scripted_run(
        traj,
        radio,
        [spec],
        [[a] for a in arrivals],
        (10**6,) * len(arrivals),
        lambda k, rows: decide(k, rows[0]) if decide else [0],
    )
    return trace, [rows[0] for rows in seen]


def _nums(traj, radio, spec, drops):
    """Deficit numerators after each frame of a deadline-1 service that drops
    ``drops[k]`` packets at frame k (all it admits)."""
    assert spec.deadline == 1
    trace, _ = _drive(traj, radio, spec, drops)
    assert trace.drops[:, 0].tolist() == list(drops)
    return trace.deficit_num[:, 0].tolist()


def test_admit_zero_is_noop_on_contents(table1_traj, table1_radio):
    _, seen = _drive(table1_traj, table1_radio, _spec(3), [0])
    assert seen == [[0, 0, 0]]


def test_admit_places_arrivals_in_top_bucket(table1_traj, table1_radio):
    trace, seen = _drive(table1_traj, table1_radio, _spec(3), [7, 2])
    # admission appends the top bucket, so it holds only this frame's arrivals
    assert seen == [[0, 0, 7], [0, 7, 2]]
    assert backlog(trace)[:, 0].tolist() == [7, 9]


def test_serve_and_age_hand_case(table1_traj, table1_radio):
    # frame 1 sends 5: the 3 packets with 1 frame to go, then 2 of the 5 with 2
    trace, seen = _drive(table1_traj, table1_radio, _spec(2), [3, 5], lambda k, row: [5 if k else 0])
    assert seen[1] == [3, 5]
    assert trace.drops[1, 0] == 0
    assert backlog(trace)[1, 0] == 3
    assert trace.served[:, 0].tolist() == [0, 5]


def test_unserved_expiring_packets_drop(table1_traj, table1_radio):
    trace, seen = _drive(table1_traj, table1_radio, _spec(3), [4, 0, 0, 0])
    assert seen[2] == [4, 0, 0]
    assert trace.drops[:, 0].tolist() == [0, 0, 4, 0]
    assert backlog(trace)[:, 0].tolist() == [4, 4, 0, 0]


def test_empty_queue_stays_empty(table1_traj, table1_radio):
    trace, seen = _drive(table1_traj, table1_radio, _spec(4), [0, 0, 0])
    assert seen == [[0, 0, 0, 0]] * 3
    assert not trace.drops.any() and not backlog(trace).any()


def test_serve_and_age_contract_violations(table1_traj, table1_radio):
    # deadline 2: the last frame holds 1 packet at r = 1 and 2 at r = 2, or 2
    # and 3; deadline 1: the aged row is empty, so an over-serve runs off it at
    # once; deadline 4: an over-serve empties every aged bucket before it runs off
    for m, arrivals, totals, message in (
        (2, [1, 2], [4], "service 1: served 4 of 3 queued"),
        (2, [1, 2], [-1], "service 1: served -1 of 3 queued"),
        (2, [1, 2], [0, 0], "2 totals decided for 1 services"),
        (2, [2, 3], [6], "service 1: served 6 of 5 queued"),
        (1, [0, 2], [3], "service 1: served 3 of 2 queued"),
        (1, [0, 2], [math.nan], "service 1: served nan of 2 queued"),
        (4, [1, 1, 1, 1], [5], "service 1: served 5 of 4 queued"),
    ):
        last = len(arrivals) - 1
        with pytest.raises(ContractViolation, match=f"^frame {last}: {message}$"):
            _drive(table1_traj, table1_radio, _spec(m), arrivals, lambda k, row: totals if k == last else [0])


@settings(max_examples=150, deadline=None)
@given(deadlines=st.lists(st.integers(1, 10), min_size=1, max_size=3), frames=st.integers(1, 20), data=st.data())
def test_contract_holds_each_total_to_what_its_service_holds(deadlines, frames, data, table1_traj, table1_radio):
    # totals inside the contract up to a drawn frame, then each in
    # -2..held + 2 or NaN there, and inside again after it: the run raises
    # exactly when a check fails, with the first failing check's message
    specs = [_spec(m) for m in deadlines]
    profile = data.draw(links(frames, 200), label="link")
    per_frame = st.lists(st.integers(0, 12), min_size=len(specs), max_size=len(specs))
    arrivals = data.draw(st.lists(per_frame, min_size=frames, max_size=frames), label="arrivals")
    wide = data.draw(st.integers(0, frames - 1), label="frame of the wide totals")
    totals, failures = [], []

    def decide(k, rows):
        left, sent = profile[k], []
        for j, row in enumerate(rows):
            held = sum(row)
            # -3 stands for NaN
            wide_total = st.integers(-3, held + 2).map(lambda x: math.nan if x == -3 else x)
            total = wide_total if k == wide else st.integers(0, min(held, left))
            sent.append(data.draw(total, label=f"total at frame {k}, service {j + 1}"))
            left -= sent[-1]
        if sum(sent) > profile[k]:
            failures.append(f"frame {k}: served total {sum(sent)} exceeds frame capacity {profile[k]}")
        for j, (row, x) in enumerate(zip(rows, sent)):
            if not 0 <= x <= sum(row):
                failures.append(f"frame {k}: service {j + 1}: served {x} of {sum(row)} queued")
        totals.append(sent)
        return sent

    try:
        trace, _ = _scripted_run(table1_traj, table1_radio, specs, arrivals, profile, decide)
    except ContractViolation as err:
        assert failures and str(err) == failures[0]
    else:
        assert not failures and trace.served.tolist() == totals


def test_conservation_over_random_operations(table1_traj, table1_radio):
    rng = random.Random(99)
    for _ in range(50):
        m = rng.randint(1, 6)
        arrivals = [rng.randint(0, 8) for _ in range(200)]
        trace, seen = _drive(
            table1_traj, table1_radio, _spec(m), arrivals, lambda k, row: [rng.randint(0, sum(row))]
        )
        assert min(map(min, seen)) >= 0
        assert (backlog(trace) >= 0).all()
        assert sum(arrivals) == trace.served.sum() + trace.drops.sum() + backlog(trace)[-1, 0]


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 6),
    arrivals=st.lists(st.integers(0, 12), min_size=1, max_size=40),
    data=st.data(),
)
def test_engine_serves_each_total_oldest_first(m, arrivals, data, table1_traj, table1_radio):
    # each frame sends a random total of what the service holds; a deque of
    # one arrival frame per queued packet, served from the left, is the reference
    totals = []

    def decide(k, row):
        totals.append(data.draw(st.integers(0, sum(row)), label=f"total at frame {k}"))
        return [totals[-1]]

    trace, seen = _drive(table1_traj, table1_radio, _spec(m), arrivals, decide)
    assert trace.served[:, 0].tolist() == totals
    queue = deque()
    for k, (a, x) in enumerate(zip(arrivals, totals)):
        queue.extend([k] * a)
        # a packet of frame f has f + m - k frames to go at frame k
        assert seen[k] == [queue.count(k + i + 1 - m) for i in range(m)], k
        for _ in range(x):
            queue.popleft()
        dropped = 0
        while queue and queue[0] == k - m + 1:
            queue.popleft()
            dropped += 1
        assert trace.drops[k, 0] == dropped, k


@settings(max_examples=100, deadline=None)
@given(
    # (deadline, arrival rate) per service; the rate sets the loss allowance
    services=st.lists(
        st.tuples(st.integers(1, 10), st.sampled_from([10.0, 15.0, 17.5, 61.3])), min_size=1, max_size=3
    ),
    frames=st.integers(1, 40),
    data=st.data(),
)
def test_frame_step_ages_full_rows_in_place(services, frames, data, table1_traj, table1_radio):
    # every service-frame: a random total inside the contract; the rows each
    # decision saw, read against the previous frame's rows aged by oldest_first
    specs = [_spec(m, rate) for m, rate in services]
    deadlines = [m for m, _ in services]
    profile = data.draw(links(frames, 30), label="link")
    per_frame = st.lists(st.integers(0, 12), min_size=len(specs), max_size=len(specs))
    arrivals = data.draw(st.lists(per_frame, min_size=frames, max_size=frames), label="arrivals")
    totals = []

    def decide(k, rows):
        left, sent = profile[k], []
        for j, row in enumerate(rows):
            sent.append(data.draw(st.integers(0, min(sum(row), left)), label=f"total at frame {k}, service {j + 1}"))
            left -= sent[-1]
        totals.append(sent)
        return sent

    trace, seen = _scripted_run(table1_traj, table1_radio, specs, arrivals, profile, decide)
    assert trace.served.tolist() == totals
    for k, rows in enumerate(seen):
        for j, (row, m) in enumerate(zip(rows, deadlines)):
            assert len(row) == m and row[-1] == arrivals[k][j], (k, j)
            # each bucket of the previous row less what its total took oldest
            # first, moved down one, and the r = 1 bucket gone
            prev, sent = (seen[k - 1][j], totals[k - 1][j]) if k else ([0] * m, 0)
            assert row[:-1] == list(map(sub, prev, oldest_first(prev, sent)))[1:], (k, j)
    assert (trace.drops == fifo_drops(trace, deadlines)).all()
    for j, spec in enumerate(specs):
        q = spec.loss_allowance.denominator
        for k, y in enumerate(exact_deficits(trace.drops[:, j].tolist(), spec.loss_allowance)):
            assert trace.deficit_num[k, j] == y * q, (k, j)


def test_deficit_update_examples(table1_traj, table1_radio):
    # allowance 2 (lambda 20 at ratio 0.9): y <- (y - 2)^+ + dropped
    drops = [0, 5, 3, 0, 0, 1, 0]
    assert _nums(table1_traj, table1_radio, _spec(rate=20.0), drops) == [0, 5, 6, 4, 2, 1, 0]


def test_deficit_queue_starts_at_zero_and_stays_nonnegative(table1_traj, table1_radio):
    rng = random.Random(7)
    drops = [rng.choice([0, 0, 0, 1, 2, 5]) for _ in range(2000)]
    # allowance 3/2 (lambda 15 at ratio 0.9)
    trace, _ = _drive(table1_traj, table1_radio, _spec(rate=15.0), drops)
    assert trace.loss_allowances == (Fraction(3, 2),)
    assert trace.deficit_num[0, 0] == drops[0] * 2
    assert (trace.deficit_num >= 0).all()


def test_deficit_update_stays_at_zero_without_drops(table1_traj, table1_radio):
    assert _nums(table1_traj, table1_radio, _spec(rate=20.0), [0, 0, 0, 0]) == [0, 0, 0, 0]


def test_deficit_update_hand_iteration(table1_traj, table1_radio):
    # allowance 1, 4 drops first: ((4-1)^+ + 2 - 1)^+ + 0 = 4
    assert _nums(table1_traj, table1_radio, _spec(rate=10.0), [4, 2, 0]) == [4, 5, 4]
    # allowance 3/2, numerator 8 over 2 first: ((4-1.5)^+ + 2 - 1.5)^+ + 0 = 3
    assert _nums(table1_traj, table1_radio, _spec(rate=15.0), [4, 2, 0]) == [8, 9, 6]


def test_deficit_queue_matches_scalar_updates(table1_traj, table1_radio):
    # the integer numerator tracks the recurrence Y <- max(Y - c, 0) + D in
    # exact rationals, frame by frame
    rng = random.Random(21)
    allowance = _spec(rate=17.5).loss_allowance
    assert allowance == Fraction(7, 4)
    drops = [rng.choice([0, 0, 1, 3, 7]) for _ in range(5000)]
    nums = _nums(table1_traj, table1_radio, _spec(rate=17.5), drops)
    for y, num in zip(exact_deficits(drops, allowance), nums):
        assert num == y * 4


def test_deficit_queue_exact_value_is_exact(table1_traj, table1_radio):
    spec = _spec(rate=61.3, ratio=0.93)
    allowance = spec.loss_allowance
    assert allowance == Fraction("4.291")
    rng = random.Random(5)
    drops = [rng.choice([0, 0, 0, 2, 9]) for _ in range(3000)]
    for y, num in zip(exact_deficits(drops, allowance), _nums(table1_traj, table1_radio, spec, drops)):
        assert Fraction(num, allowance.denominator) == y


def test_deficit_per_frame_inequality(table1_traj, table1_radio):
    # one-step lower bound: Y' - Y >= D - allowance, exactly
    spec = _spec(rate=80.0, ratio=0.97)
    allowance = spec.loss_allowance
    assert allowance == Fraction(12, 5)
    rng = random.Random(13)
    drops = [rng.choice([0, 0, 1, 2, 4]) for _ in range(3000)]
    prev = Fraction(0)
    for d, num in zip(drops, _nums(table1_traj, table1_radio, spec, drops)):
        cur = Fraction(num, allowance.denominator)
        assert cur - prev >= d - allowance
        prev = cur


def test_queue_with_exact_allowance_drains_to_exact_zero(table1_traj, table1_radio):
    # lambda 60 at ratio 0.9 allows exactly 6 drops per frame; the float
    # product 0.1 * 60 = 5.999999999999998 left a residue of about 1.8e-15
    assert _nums(table1_traj, table1_radio, _spec(rate=60.0), [6, 0]) == [6, 0]


@settings(max_examples=200, deadline=None)
@given(
    rate_milli=st.integers(1, 200_000),
    ratio_digits=st.integers(1, 9_999),
    drops=st.lists(st.integers(0, 60), min_size=1, max_size=100),
)
def test_deficit_queue_matches_fraction_recurrence(
    rate_milli, ratio_digits, drops, table1_traj, table1_radio
):
    rate_text = f"{rate_milli // 1000}.{rate_milli % 1000:03d}"
    ratio_text = f"0.{ratio_digits:04d}"
    spec = ServiceSpec(arrival_rate=float(rate_text), deadline=1, delivery_ratio=float(ratio_text))
    allowance = (1 - Fraction(ratio_text)) * Fraction(rate_text)
    assert spec.loss_allowance == allowance
    for y, num in zip(exact_deficits(drops, allowance), _nums(table1_traj, table1_radio, spec, drops)):
        assert Fraction(num, allowance.denominator) == y
