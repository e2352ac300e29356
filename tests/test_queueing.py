import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsrsched import ContractViolation, DeadlineQueue, DeficitQueue, ServiceSpec


def test_admit_zero_is_noop_on_contents():
    q = DeadlineQueue(1, 3)
    q.admit(0)
    assert tuple(q.buckets) == (0, 0, 0)


def test_admit_places_arrivals_in_top_bucket():
    q = DeadlineQueue(1, 3)
    q.admit(7)
    assert tuple(q.buckets) == (0, 0, 7)
    assert q.backlog() == 7


def test_admit_requires_cleared_top_bucket():
    q = DeadlineQueue(1, 2)
    q.admit(3)
    with pytest.raises(ContractViolation):
        q.admit(1)


def test_serve_and_age_hand_case():
    q = DeadlineQueue(1, 2)
    q.buckets = [3, 5]
    dropped = q.serve_and_age([3, 2])
    assert dropped == 0
    assert tuple(q.buckets) == (3, 0)


def test_unserved_expiring_packets_drop():
    q = DeadlineQueue(1, 3)
    q.buckets = [4, 0, 0]
    dropped = q.serve_and_age([0, 0, 0])
    assert dropped == 4
    assert tuple(q.buckets) == (0, 0, 0)


def test_empty_queue_stays_empty():
    q = DeadlineQueue(1, 4)
    assert q.serve_and_age([0, 0, 0, 0]) == 0
    assert tuple(q.buckets) == (0, 0, 0, 0)


def test_serve_and_age_contract_violations():
    q = DeadlineQueue(1, 2)
    q.buckets = [1, 2]
    with pytest.raises(ContractViolation):
        q.serve_and_age([2, 0])
    with pytest.raises(ContractViolation):
        q.serve_and_age([0, -1])
    with pytest.raises(ContractViolation):
        q.serve_and_age([0])
    # the per-bucket bound is checked here only (the engine checks the frame
    # capacity); an over-served top bucket raises before any state changes
    q.buckets = [2, 3]
    with pytest.raises(ContractViolation, match="served 4 from bucket r=2 holding 3"):
        q.serve_and_age([2, 4])
    assert q.buckets == [2, 3]


def test_conservation_over_random_operations():
    rng = random.Random(99)
    for _ in range(50):
        m = rng.randint(1, 6)
        q = DeadlineQueue(1, m)
        admitted = served_total = dropped_total = 0
        for _ in range(200):
            a = rng.randint(0, 8)
            q.admit(a)
            admitted += a
            served = [rng.randint(0, q.buckets[i]) for i in range(m)]
            dropped = q.serve_and_age(served)
            served_total += sum(served)
            dropped_total += dropped
            assert all(b >= 0 for b in q.buckets)
            assert q.backlog() == sum(tuple(q.buckets))
        assert admitted == served_total + dropped_total + q.backlog()


def test_deficit_update_examples():
    dq = DeficitQueue(1, 2)
    for dropped, value in ((0, 0), (5, 5), (3, 6), (0, 4), (0, 2), (1, 1), (0, 0)):
        dq.update(dropped)  # (y - 2)^+ + dropped
        assert dq.num == value
    with pytest.raises(ValueError):
        dq.update(-1)
    with pytest.raises(ValueError):
        DeficitQueue(1, Fraction(-1))
    # a float allowance is refused: it would carry its binary round-off
    with pytest.raises(TypeError):
        DeficitQueue(1, 0.1)


def test_deficit_queue_starts_at_zero_and_stays_nonnegative():
    dq = DeficitQueue(1, Fraction(3, 2))
    assert dq.num == 0
    rng = random.Random(7)
    for _ in range(2000):
        dq.update(rng.choice([0, 0, 0, 1, 2, 5]))
        assert dq.num >= 0


def test_deficit_update_stays_at_zero_without_drops():
    dq = DeficitQueue(1, Fraction(2))
    for _ in range(4):
        dq.update(0)
    assert dq.num == 0


def test_deficit_update_hand_iteration():
    # ((4-1)^+ + 2 - 1)^+ + 0 = 4
    dq = DeficitQueue(1, Fraction(1), num=4)
    dq.update(2)
    dq.update(0)
    assert dq.num == 4
    # allowance 3/2: ((4-1.5)^+ + 2 - 1.5)^+ + 0 = 3, numerator 6 over 2
    dq = DeficitQueue(1, Fraction(3, 2), num=8)
    dq.update(2)
    dq.update(0)
    assert dq.num == 6


def test_deficit_queue_matches_scalar_updates():
    # the integer numerator tracks the recurrence Y <- max(Y - c, 0) + D in
    # exact rationals, frame by frame
    rng = random.Random(21)
    allowance = Fraction(7, 3)
    dq = DeficitQueue(1, allowance)
    y = Fraction(0)
    for _ in range(5000):
        d = rng.choice([0, 0, 1, 3, 7])
        dq.update(d)
        y = max(y - allowance, 0) + d
        assert dq.num == y * 3


def test_deficit_queue_exact_value_is_exact():
    allowance = ServiceSpec(1, arrival_rate=61.3, deadline=1, delivery_ratio=0.93).loss_allowance
    assert allowance == Fraction("4.291")
    dq = DeficitQueue(1, allowance)
    y = Fraction(0)
    rng = random.Random(5)
    for _ in range(3000):
        d = rng.choice([0, 0, 0, 2, 9])
        dq.update(d)
        y = max(y - allowance, Fraction(0)) + d
        assert Fraction(dq.num, allowance.denominator) == y


def test_deficit_per_frame_inequality():
    # one-step lower bound: Y' - Y >= D - allowance, exactly
    allowance = ServiceSpec(1, arrival_rate=80.0, deadline=1, delivery_ratio=0.97).loss_allowance
    assert allowance == Fraction(12, 5)
    dq = DeficitQueue(1, allowance)
    rng = random.Random(13)
    prev = Fraction(0)
    for _ in range(3000):
        d = rng.choice([0, 0, 1, 2, 4])
        dq.update(d)
        cur = Fraction(dq.num, allowance.denominator)
        assert cur - prev >= d - allowance
        prev = cur


def test_queue_with_exact_allowance_drains_to_exact_zero():
    # lambda 60 at ratio 0.9 allows exactly 6 drops per frame; the float
    # product 0.1 * 60 = 5.999999999999998 left a residue of about 1.8e-15
    dq = DeficitQueue(1, ServiceSpec(1, arrival_rate=60.0, deadline=10, delivery_ratio=0.9).loss_allowance)
    for d in (6, 0):
        dq.update(d)
    assert dq.num == 0


@settings(max_examples=200, deadline=None)
@given(
    rate_milli=st.integers(1, 200_000),
    ratio_digits=st.integers(1, 9_999),
    drops=st.lists(st.integers(0, 60), max_size=100),
)
def test_deficit_queue_matches_fraction_recurrence(rate_milli, ratio_digits, drops):
    rate_text = f"{rate_milli // 1000}.{rate_milli % 1000:03d}"
    ratio_text = f"0.{ratio_digits:04d}"
    spec = ServiceSpec(1, arrival_rate=float(rate_text), deadline=1, delivery_ratio=float(ratio_text))
    allowance = (1 - Fraction(ratio_text)) * Fraction(rate_text)
    assert spec.loss_allowance == allowance
    dq = DeficitQueue(1, spec.loss_allowance)
    y = Fraction(0)
    for d in drops:
        dq.update(d)
        y = max(y - allowance, Fraction(0)) + d
        assert Fraction(dq.num, allowance.denominator) == y
