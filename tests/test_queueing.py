"""The frame state ``engine.run`` keeps per service: deadline buckets (entry i
holds the packets with i + 1 frames to go) and the exact deficit numerator.
Each case scripts one service's arrivals and the decision of every frame, and
reads the buckets each decision saw and the trace the run left."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsrsched.engine as engine_mod
from hsrsched import ContractViolation, ServiceSpec, SimConfig, run


def _spec(deadline=1, rate=10.0, ratio=0.9):
    return ServiceSpec(arrival_rate=rate, deadline=deadline, delivery_ratio=ratio)


def _drive(traj, radio, spec, arrivals, decide=None):
    """Run ``spec`` alone with ``arrivals[k]`` admitted at frame k, serving
    ``decide(frame, row)`` (nothing by default) on an unlimited link; returns
    the trace and the bucket row each decision saw."""
    seen = []

    class Scripted:
        def decide(self, frame, buckets, nums):
            seen.append(list(buckets[0]))
            return [decide(frame, list(buckets[0])) if decide else [0] * spec.deadline]

    class Arrivals:
        def __init__(self, specs, seed):
            pass

        def sample_run(self, n):
            return np.array(arrivals, dtype=np.int64).reshape(n, 1)

    cfg = SimConfig(traj, radio, (spec,), num_frames=len(arrivals), capacity_override=10**6)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "ArrivalGenerator", Arrivals)
        mp.setattr(engine_mod, "make_scheduler", lambda policy, specs, caps: Scripted())
        return run(cfg), seen


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
    # aging empties the top bucket, so it holds only this frame's arrivals
    assert seen == [[0, 0, 7], [0, 7, 2]]
    assert trace.backlog[:, 0].tolist() == [7, 9]


def test_serve_and_age_hand_case(table1_traj, table1_radio):
    trace, seen = _drive(table1_traj, table1_radio, _spec(2), [3, 5], lambda k, row: [3, 2] if k else [0, 0])
    assert seen[1] == [3, 5]
    assert trace.drops[1, 0] == 0
    assert trace.backlog[1, 0] == 3
    assert trace.served[:, 0].tolist() == [0, 5]


def test_unserved_expiring_packets_drop(table1_traj, table1_radio):
    trace, seen = _drive(table1_traj, table1_radio, _spec(3), [4, 0, 0, 0])
    assert seen[2] == [4, 0, 0]
    assert trace.drops[:, 0].tolist() == [0, 0, 4, 0]
    assert trace.backlog[:, 0].tolist() == [4, 4, 0, 0]


def test_empty_queue_stays_empty(table1_traj, table1_radio):
    trace, seen = _drive(table1_traj, table1_radio, _spec(4), [0, 0, 0])
    assert seen == [[0, 0, 0, 0]] * 3
    assert not trace.drops.any() and not trace.backlog.any()


def test_serve_and_age_contract_violations(table1_traj, table1_radio):
    # frame 1 holds 1 packet at r = 1 and 2 at r = 2, or 2 and 3
    for arrivals, served, message in (
        ([1, 2], [2, 0], "served 2 from bucket r=1 holding 1"),
        ([1, 2], [0, -1], "served -1 from bucket r=2 holding 2"),
        ([1, 2], [0], "1 counts, 2 buckets"),
        ([2, 3], [2, 4], "served 4 from bucket r=2 holding 3"),
    ):
        with pytest.raises(ContractViolation, match=f"frame 1: service 1: {message}"):
            _drive(table1_traj, table1_radio, _spec(2), arrivals, lambda k, row: served if k else [0, 0])


def test_conservation_over_random_operations(table1_traj, table1_radio):
    rng = random.Random(99)
    for _ in range(50):
        m = rng.randint(1, 6)
        arrivals = [rng.randint(0, 8) for _ in range(200)]
        trace, seen = _drive(
            table1_traj, table1_radio, _spec(m), arrivals, lambda k, row: [rng.randint(0, b) for b in row]
        )
        assert min(map(min, seen)) >= 0
        assert (trace.backlog >= 0).all()
        assert sum(arrivals) == trace.served.sum() + trace.drops.sum() + trace.backlog[-1, 0]


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
    y = Fraction(0)
    for d, num in zip(drops, nums):
        y = max(y - allowance, 0) + d
        assert num == y * 4


def test_deficit_queue_exact_value_is_exact(table1_traj, table1_radio):
    spec = _spec(rate=61.3, ratio=0.93)
    allowance = spec.loss_allowance
    assert allowance == Fraction("4.291")
    rng = random.Random(5)
    drops = [rng.choice([0, 0, 0, 2, 9]) for _ in range(3000)]
    y = Fraction(0)
    for d, num in zip(drops, _nums(table1_traj, table1_radio, spec, drops)):
        y = max(y - allowance, Fraction(0)) + d
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
    y = Fraction(0)
    for d, num in zip(drops, _nums(table1_traj, table1_radio, spec, drops)):
        y = max(y - allowance, Fraction(0)) + d
        assert Fraction(num, allowance.denominator) == y
