import random
from fractions import Fraction

import pytest

from hsrsched import ContractViolation, DeadlineQueue, DeficitQueue, projected_deficit


def test_admit_zero_is_noop_on_contents():
    q = DeadlineQueue(1, 3)
    q.admit(0)
    assert q.snapshot() == (0, 0, 0)


def test_admit_places_arrivals_in_top_bucket():
    q = DeadlineQueue(1, 3)
    q.admit(7)
    assert q.snapshot() == (0, 0, 7)
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
    assert q.snapshot() == (3, 0)


def test_unserved_expiring_packets_drop():
    q = DeadlineQueue(1, 3)
    q.buckets = [4, 0, 0]
    dropped = q.serve_and_age([0, 0, 0])
    assert dropped == 4
    assert q.snapshot() == (0, 0, 0)


def test_empty_queue_stays_empty():
    q = DeadlineQueue(1, 4)
    assert q.serve_and_age([0, 0, 0, 0]) == 0
    assert q.snapshot() == (0, 0, 0, 0)


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
            assert q.backlog() == sum(q.snapshot())
        assert admitted == served_total + dropped_total + q.backlog()


def test_deficit_update_examples():
    dq = DeficitQueue(1, 2.0)
    for dropped, value in ((0, 0.0), (5, 5.0), (3, 6.0), (0, 4.0), (0, 2.0), (1, 1.0), (0, 0.0)):
        dq.update(dropped)  # (y - 2)^+ + dropped
        assert dq.value == value
    with pytest.raises(ValueError):
        dq.update(-1)
    with pytest.raises(ValueError):
        DeficitQueue(1, -1.0)


def test_deficit_queue_starts_at_zero_and_stays_nonnegative():
    dq = DeficitQueue(1, 1.5)
    assert dq.value == 0.0
    rng = random.Random(7)
    for _ in range(2000):
        dq.update(rng.choice([0, 0, 0, 1, 2, 5]))
        assert dq.value >= 0.0


def test_deficit_queue_matches_scalar_updates():
    rng = random.Random(21)
    allowance = (1 - 0.99) * 100.0  # deliberately not exactly representable
    dq = DeficitQueue(1, allowance)
    y = 0.0
    for _ in range(5000):
        d = rng.choice([0, 0, 1, 3, 7])
        dq.update(d)
        y = projected_deficit(y, allowance, [d])
        assert dq.value == pytest.approx(y, rel=1e-9, abs=1e-9)


def test_deficit_queue_exact_value_is_exact():
    allowance = (1 - 0.9) * 60.0
    dq = DeficitQueue(1, allowance)
    p = Fraction(allowance)
    y = Fraction(0)
    rng = random.Random(5)
    for _ in range(3000):
        d = rng.choice([0, 0, 0, 2, 9])
        dq.update(d)
        y = max(y - p, Fraction(0)) + d
        assert dq.exact_value == y


def test_deficit_per_frame_inequality():
    # one-step lower bound: Y' - Y >= D - allowance, exactly
    allowance = (1 - 0.97) * 80.0
    dq = DeficitQueue(1, allowance)
    p = Fraction(allowance)
    rng = random.Random(13)
    prev = Fraction(0)
    for _ in range(3000):
        d = rng.choice([0, 0, 1, 2, 4])
        dq.update(d)
        cur = dq.exact_value
        assert cur - prev >= d - p
        prev = cur
