from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hsrsched import (
    ServiceSpec,
    SimConfig,
    TraceLog,
    allocate_cohorts,
    brute_force_lex_min_drops,
    brute_force_min_weighted_drops,
    check_lemma1,
    check_sample_drift,
    oracle_agreement,
    run,
    weighted_drop_objective,
)
from hsrsched.analysis import (
    DriftCheckReport,
    Lemma1Report,
    ServiceLemma1Report,
    random_oracle_instances,
)
from hsrsched.traffic import FeasibilityReport

# the shipped link with three services of deadlines 2, 5 and 10
MIXED_SERVICES = (
    ServiceSpec(service_id=1, arrival_rate=20.0, deadline=2, delivery_ratio=0.95),
    ServiceSpec(service_id=2, arrival_rate=40.0, deadline=5, delivery_ratio=0.90),
    ServiceSpec(service_id=3, arrival_rate=50.0, deadline=10, delivery_ratio=0.80),
)


def _hand_trace(drops_per_frame, loss_allowance, deficits=None):
    """Single-service trace with just the columns the checks consume.

    ``deficits`` default to the exact counter recurrence over the drops.
    """
    allowance = Fraction(loss_allowance)
    n = len(drops_per_frame)
    drops = np.array(drops_per_frame, dtype=np.int64).reshape(n, 1)
    if deficits is None:
        y = Fraction(0)
        deficits = []
        for d in drops_per_frame:
            y = max(y - allowance, Fraction(0)) + d
            deficits.append(y)
    nums = [Fraction(y) * allowance.denominator for y in deficits]
    assert all(v.denominator == 1 for v in nums)
    zeros = np.zeros((n, 1), dtype=np.int64)
    return TraceLog(
        scheduler="dcsa",
        seed=0,
        service_ids=(1,),
        deadlines=(3,),
        loss_allowances=(allowance,),
        capacity=np.zeros(n, dtype=np.int64),
        arrivals=zeros.copy(),
        served=zeros.copy(),
        drops=drops,
        deficit_num=np.array([int(v) for v in nums], dtype=np.int64).reshape(n, 1),
        backlog=zeros.copy(),
        feasibility=FeasibilityReport(True, 0.0, 0.0, 0.0),
    )


def _reference_sample_drift(trace, tolerance=1e-9):
    """Per-transition Fraction loop of the one-step inequality; the array
    form in ``check_sample_drift`` must agree with it field for field."""
    max_violation = Fraction(0)
    worst = (None, None)
    checked = 0
    for j in range(len(trace.service_ids)):
        p, q = trace.loss_allowances[j].as_integer_ratio()
        prev = 0  # counter starts at zero
        for k in range(trace.num_frames):
            cur = int(trace.deficit_num[k, j])
            dq = int(trace.drops[k, j]) * q
            lhs = cur * cur
            rhs = prev * prev + p * p + dq * dq + 2 * prev * (dq - p)
            violation = Fraction(lhs - rhs, q * q)
            if violation > max_violation:
                max_violation = violation
                worst = (k, trace.service_ids[j])
            checked += 1
            prev = cur
    return DriftCheckReport(
        passed=max_violation <= tolerance,
        max_violation=float(max_violation),
        worst_frame=worst[0],
        worst_service=worst[1],
        transitions_checked=checked,
        tolerance=tolerance,
    )


def _reference_lemma1(trace, rate_threshold=1e-3, tolerance=1e-9):
    """Per-prefix Fraction loop of the telescoped inequality; the array form
    in ``check_lemma1`` must agree with it field for field."""
    reports = []
    n = trace.num_frames
    for j, sid in enumerate(trace.service_ids):
        p, q = trace.loss_allowances[j].as_integer_ratio()
        running = 0  # sum of drops over frames 0..k-1
        max_violation = Fraction(0)
        for k in range(1, n + 1):
            running += int(trace.drops[k - 1, j])
            # Y[k] >= sum(D) - k * allowance, scaled by q
            violation = Fraction(running * q - k * p - int(trace.deficit_num[k - 1, j]), q)
            if violation > max_violation:
                max_violation = violation
        final_rate = Fraction(int(trace.deficit_num[-1, j]), q * n)
        mean_drops = Fraction(running, n)
        allowance = Fraction(p, q)
        reports.append(
            ServiceLemma1Report(
                service_id=sid,
                prefix_ok=max_violation <= tolerance,
                max_prefix_violation=float(max_violation),
                rate_stable=float(final_rate) < rate_threshold,
                final_deficit_per_frame=float(final_rate),
                mean_drops=float(mean_drops),
                loss_allowance=float(allowance),
                mean_drop_bound_ok=mean_drops <= allowance + final_rate + Fraction(tolerance),
            )
        )
    return Lemma1Report(
        passed=all(r.prefix_ok and r.mean_drop_bound_ok for r in reports),
        services=tuple(reports),
        tolerance=tolerance,
        rate_threshold=rate_threshold,
    )


def _assert_checks_match_reference(trace):
    drift, lemma1 = check_sample_drift(trace), check_lemma1(trace)
    assert drift == _reference_sample_drift(trace)
    assert lemma1 == _reference_lemma1(trace)
    return drift, lemma1


def test_weighted_drop_objective():
    assert weighted_drop_objective([], []) == 0.0
    assert weighted_drop_objective([2.0, 3.0], [1, 1]) == 5.0
    assert weighted_drop_objective([2.0, 3.0], [0, 0]) == 0.0
    with pytest.raises(ValueError):
        weighted_drop_objective([1.0], [1, 2])


def test_sample_drift_all_zero_trace():
    report = check_sample_drift(_hand_trace([0] * 50, 2))
    assert report.passed
    assert report.max_violation == 0.0
    assert report.transitions_checked == 50
    assert report.to_text().startswith("PASS sample_drift")
    assert report.to_dict()["check"] == "sample_drift"


def test_sample_drift_on_seeded_runs(table1_traj, table1_radio, two_services):
    for policy in ("dcsa", "rr", "edf"):
        cfg = SimConfig(
            trajectory=table1_traj,
            radio=table1_radio,
            services=two_services,
            scheduler=policy,
            seed=8,
            num_frames=4000,
        )
        report = check_sample_drift(run(cfg))
        assert report.passed
        assert report.max_violation == 0.0


def test_sample_drift_detects_corrupted_counter():
    # inflate one deficit value beyond what the update can produce
    drops = [1, 0, 2, 0, 0, 1]
    trace = _hand_trace(drops, Fraction(1, 2))
    trace.deficit_num[3, 0] += 10  # +5 packets over the denominator 2
    report = check_sample_drift(trace)
    assert not report.passed
    assert report.worst_frame == 3
    assert report.max_violation > 1e-9


def test_lemma1_zero_drop_trace_is_rate_stable():
    report = check_lemma1(_hand_trace([0] * 100, Fraction(3, 2)))
    assert report.passed
    svc = report.services[0]
    assert svc.prefix_ok and svc.rate_stable and svc.mean_drop_bound_ok
    assert svc.mean_drops == 0.0
    assert "rate_stable=True" in report.to_text()


def test_lemma1_constant_excess_drops_grow_linearly():
    allowance = 2
    n = 400
    report = check_lemma1(_hand_trace([3] * n, allowance))
    svc = report.services[0]
    assert svc.prefix_ok  # the update itself is valid
    assert not svc.rate_stable  # deficit grows one packet per frame
    assert svc.final_deficit_per_frame == pytest.approx(1.0, rel=0.02)
    assert svc.mean_drop_bound_ok
    assert svc.mean_drops == pytest.approx(3.0)


def test_lemma1_prefix_violation_detected():
    # deficit column claims less backlog than the drops allow
    drops = [5, 5, 5, 5]
    trace = _hand_trace(drops, 1, deficits=[4, 8, 2, 16])
    report = check_lemma1(trace)
    assert not report.passed
    assert not report.services[0].prefix_ok


def test_lemma1_on_seeded_run(table1_traj, table1_radio, two_services):
    cfg = SimConfig(
        trajectory=table1_traj,
        radio=table1_radio,
        services=two_services,
        scheduler="edf",
        seed=15,
        num_frames=5000,
    )
    report = check_lemma1(run(cfg))
    assert report.passed
    for svc in report.services:
        assert svc.max_prefix_violation == 0.0


def test_lemma1_rejects_empty_trace():
    with pytest.raises(ValueError):
        check_lemma1(_hand_trace([], 1))


def test_oracle_zero_drops_when_capacity_ample():
    drops = brute_force_lex_min_drops([1, 2], {1: 3, 2: 3}, {1: 2, 2: 2}, [6, 6])
    assert drops == {1: 0, 2: 0}


def test_oracle_single_service_spill():
    assert brute_force_lex_min_drops([1], {1: 5}, {1: 2}, [3, 2]) == {1: 0}


def test_oracle_matches_policy_on_shared_single_frame():
    order, arrivals, deadlines, avail = [2, 1], {1: 4, 2: 4}, {1: 1, 2: 1}, [5]
    oracle = brute_force_lex_min_drops(order, arrivals, deadlines, avail)
    assert oracle == {2: 0, 1: 3}
    alloc = allocate_cohorts(order, arrivals, deadlines, avail)
    assert {sid: arrivals[sid] - sum(alloc[sid]) for sid in order} == oracle


def test_oracle_guard_refuses_large_instances():
    with pytest.raises(ValueError):
        brute_force_lex_min_drops([1, 2, 3, 4], {i: 1 for i in range(1, 5)}, {i: 1 for i in range(1, 5)}, [2])
    with pytest.raises(ValueError):
        brute_force_lex_min_drops([1], {1: 7}, {1: 2}, [2, 2])
    with pytest.raises(ValueError):
        brute_force_lex_min_drops([1], {1: 2}, {1: 4}, [2, 2, 2, 2])
    with pytest.raises(ValueError):
        brute_force_lex_min_drops([1], {1: 2}, {1: 2}, [7, 2])


def test_weighted_minimum_hand_case():
    # one unit of capacity, two single-frame services: the heavier loses less
    best = brute_force_min_weighted_drops({1: 5.0, 2: 1.0}, {1: 1, 2: 1}, {1: 1, 2: 1}, [1])
    assert best == pytest.approx(1.0)


def test_oracle_agreement_deterministic():
    a = oracle_agreement(123, 40)
    b = oracle_agreement(123, 40)
    assert (a.total, a.lex_agreed, a.weighted_agreed) == (b.total, b.lex_agreed, b.weighted_agreed)
    assert a.total == 40
    assert 0 <= a.lex_agreed <= a.total


def test_oracle_agreement_on_equal_deadline_instances():
    # with aligned lifetimes the greedy order-respecting fill is exactly optimal
    agreed = 0
    total = 0
    for inst in random_oracle_instances(77, 300):
        if len(set(inst.deadlines.values())) != 1:
            continue
        total += 1
        alloc = allocate_cohorts(inst.order, inst.arrivals, inst.deadlines, inst.available)
        drops = {sid: inst.arrivals[sid] - sum(alloc[sid]) for sid in inst.order}
        if drops == brute_force_lex_min_drops(
            inst.order, inst.arrivals, inst.deadlines, inst.available
        ):
            agreed += 1
    assert total > 50
    assert agreed == total


def test_deficit_view_is_read_only():
    trace = _hand_trace([1, 0, 3], Fraction(1, 2))
    assert trace.deficit.tolist() == [[1.0], [0.5], [3.0]]
    with pytest.raises(ValueError):
        trace.deficit[1, 0] += 1.0
    trace.deficit_num[1, 0] += 2
    assert trace.deficit[1, 0] == 1.5


@pytest.mark.parametrize("policy", ["dcsa", "rr", "edf"])
def test_array_checks_match_reference_loops_on_engine_traces(policy, table1_traj, table1_radio):
    cfg = SimConfig(
        trajectory=table1_traj,
        radio=table1_radio,
        services=MIXED_SERVICES,
        scheduler=policy,
        seed=3,
        num_frames=1500,
        capacity_override=90,
    )
    trace = run(cfg)
    assert trace.drops.sum() > 0
    drift, lemma1 = _assert_checks_match_reference(trace)
    assert drift.passed and lemma1.passed
    # a numerator bumped up, or lowered, at service 1's largest deficit
    k = int(np.argmax(trace.deficit_num[:, 0]))
    assert trace.deficit_num[k, 0] > 1000
    for delta in (1, -1, 1000, -1000):
        bad = replace(trace, deficit_num=trace.deficit_num.copy())
        bad.deficit_num[k, 0] += delta
        drift, lemma1 = _assert_checks_match_reference(bad)
        if abs(delta) == 1000:
            assert not (drift.passed and lemma1.passed)


def test_array_checks_match_reference_beyond_int64_squares():
    # numerators above 2**32, so their squares (and the cross terms) would
    # wrap in int64
    allowance = Fraction(3, 7)
    drops = [2**33, 0, 5, 2**32, 0, 0, 1, 2**34, 3, 0]
    trace = _hand_trace(drops, allowance)
    assert int(trace.deficit_num.max()) > 2**32
    assert int(trace.deficit_num.max()) ** 2 > np.iinfo(np.int64).max
    drift, lemma1 = _assert_checks_match_reference(trace)
    assert drift.passed and lemma1.passed
    assert drift.max_violation == 0.0
    trace.deficit_num[8, 0] += 1
    drift, lemma1 = _assert_checks_match_reference(trace)
    assert not drift.passed and drift.worst_frame == 8
    # the first frame clamps, so the prefix bound has a slack of p = 3
    trace.deficit_num[8, 0] -= 5
    drift, lemma1 = _assert_checks_match_reference(trace)
    assert not lemma1.passed
