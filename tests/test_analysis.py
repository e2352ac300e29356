from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from hsrsched.analysis import (
    ORACLE_MAX_DEADLINE,
    ORACLE_MAX_SERVICES,
    RATE_STABLE_THRESHOLD,
    DriftCheckReport,
    Lemma1Report,
    OracleAgreementReport,
    ServiceLemma1Report,
    random_oracle_instances,
)
from hsrsched.schedulers import SCHEDULER_POLICIES
from hsrsched.traffic import FeasibilityReport

# the shipped link with three services of deadlines 2, 5 and 10
MIXED_SERVICES = (
    ServiceSpec(arrival_rate=20.0, deadline=2, delivery_ratio=0.95),
    ServiceSpec(arrival_rate=40.0, deadline=5, delivery_ratio=0.90),
    ServiceSpec(arrival_rate=50.0, deadline=10, delivery_ratio=0.80),
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
        loss_allowances=(allowance,),
        capacity=np.zeros(n, dtype=np.int64),
        arrivals=zeros.copy(),
        served=zeros.copy(),
        drops=drops,
        deficit_num=np.array([int(v) for v in nums], dtype=np.int64).reshape(n, 1),
        backlog=zeros.copy(),
        feasibility=FeasibilityReport(True, 0.0, 0.0, 0.0),
    )


def _reference_sample_drift(trace):
    """Per-transition Fraction loop of the one-step inequality; the array
    form in ``check_sample_drift`` must agree with it field for field."""
    max_violation = Fraction(0)
    worst = (None, None)
    checked = 0
    for j in range(len(trace.loss_allowances)):
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
                worst = (k, j + 1)
            checked += 1
            prev = cur
    return DriftCheckReport(
        passed=max_violation == 0,
        max_violation=float(max_violation),
        worst_frame=worst[0],
        worst_service=worst[1],
        transitions_checked=checked,
    )


def _reference_lemma1(trace):
    """Per-prefix Fraction loop of the telescoped inequality; the array form
    in ``check_lemma1`` must agree with it field for field."""
    reports = []
    n = trace.num_frames
    for j in range(len(trace.loss_allowances)):
        p, q = trace.loss_allowances[j].as_integer_ratio()
        running = 0  # sum of drops over frames 0..k-1
        max_violation = Fraction(0)
        worst = None
        for k in range(1, n + 1):
            running += int(trace.drops[k - 1, j])
            # Y[k] >= sum(D) - k * allowance, scaled by q
            violation = Fraction(running * q - k * p - int(trace.deficit_num[k - 1, j]), q)
            if violation > max_violation:
                max_violation = violation
                worst = k - 1
        final_rate = Fraction(int(trace.deficit_num[-1, j]), q * n)
        reports.append(
            ServiceLemma1Report(
                service_id=j + 1,
                prefix_ok=max_violation == 0,
                max_prefix_violation=float(max_violation),
                worst_prefix_frame=worst,
                rate_stable=float(final_rate) < RATE_STABLE_THRESHOLD,
                final_deficit_per_frame=float(final_rate),
                mean_drops=float(Fraction(running, n)),
                loss_allowance=float(Fraction(p, q)),
            )
        )
    return Lemma1Report(passed=all(r.prefix_ok for r in reports), services=tuple(reports))


def _assert_checks_match_reference(trace):
    drift, lemma1 = check_sample_drift(trace), check_lemma1(trace)
    assert drift == _reference_sample_drift(trace)
    assert lemma1 == _reference_lemma1(trace)
    return drift, lemma1


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
    assert svc.prefix_ok and svc.rate_stable
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


def test_lemma1_names_the_worst_prefix_frame(table1_traj, table1_radio, two_services):
    # the frame verify's inject_fault corrupts; raised there the counter trips
    # the one-step bound only, lowered by as much it trips the prefix bound
    cfg = SimConfig(
        trajectory=table1_traj, radio=table1_radio, services=two_services, seed=4, num_frames=400
    )
    trace = run(cfg)
    k = trace.num_frames // 2
    step = 1060 * trace.loss_allowances[0].denominator
    clean = check_lemma1(trace)
    assert [s.worst_prefix_frame for s in clean.services] == [None, None]
    assert clean.to_dict()["services"][0]["worst_prefix_frame"] is None
    for sign in (1, -1):
        bad = replace(trace, deficit_num=trace.deficit_num.copy())
        bad.deficit_num[k, 0] += sign * step
        drift, lemma1 = _assert_checks_match_reference(bad)
        if sign > 0:
            assert not drift.passed and drift.worst_frame == k and lemma1.passed
            assert lemma1.services[0].worst_prefix_frame is None
        else:
            assert not lemma1.passed and not lemma1.services[0].prefix_ok
            assert lemma1.to_dict()["services"][0]["worst_prefix_frame"] == k
            assert f"worst prefix at frame {k}" in lemma1.to_text()
            assert lemma1.services[1].worst_prefix_frame is None


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
    grants = allocate_cohorts(order, {1: [4], 2: [4]}, avail)
    assert {sid: arrivals[sid] - grants[sid][0] for sid in order} == oracle


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
    best = brute_force_min_weighted_drops({1: 5, 2: 1}, {1: 1, 2: 1}, {1: 1, 2: 1}, [1])
    assert best == {1: 0, 2: 1}
    best = brute_force_min_weighted_drops({1: 1, 2: 5}, {1: 1, 2: 1}, {1: 1, 2: 1}, [1])
    assert best == {1: 1, 2: 0}


def test_weighted_minimum_refuses_negative_weights():
    with pytest.raises(ValueError):
        brute_force_min_weighted_drops({1: -1}, {1: 1}, {1: 1}, [1])


def _reference_lex_min_drops(order, arrivals, deadlines, available):
    """The lexicographic oracle as a direct search: tuples of drops compared
    in priority order, pruned on any prefix above the best found."""
    best = None

    def place(sid_idx, caps, drops):
        nonlocal best
        if best is not None and drops > best[: len(drops)]:
            return
        if sid_idx == len(order):
            if best is None or drops < best:
                best = list(drops)
            return
        sid = order[sid_idx]
        m, total = deadlines[sid], arrivals[sid]

        def spread(offset, left, caps2):
            if offset == m:
                place(sid_idx + 1, caps2, drops + [left])
                return
            for x in range(min(left, caps2[offset]), -1, -1):
                nxt = caps2.copy()
                nxt[offset] -= x
                spread(offset + 1, left - x, nxt)

        spread(0, total, caps)

    place(0, list(available), [])
    return {sid: best[i] for i, sid in enumerate(order)}


def test_radix_weighted_lex_oracle_equals_direct_lex_search():
    for inst in random_oracle_instances(1, 1000):
        keys, packets, windows, _ = inst.cohorts()
        frame = (packets, windows, inst.available)
        assert brute_force_lex_min_drops(keys, *frame) == _reference_lex_min_drops(keys, *frame)


def test_random_instance_weights_are_integers_descending_along_order():
    for inst in random_oracle_instances(5, 300):
        weights = [inst.weights[sid] for sid in inst.order]
        assert sorted(inst.weights) == sorted(inst.order)
        assert all(type(w) is int and 0 <= w <= 9 for w in weights)
        assert weights == sorted(weights, reverse=True)


def test_random_instances_hold_several_cohorts_per_service_within_the_guard():
    several = 0
    for inst in random_oracle_instances(5, 300):
        keys, packets, windows, weights = inst.cohorts()
        assert 1 <= len(inst.order) <= ORACLE_MAX_SERVICES
        assert sum(a > 0 for row in inst.rows.values() for a in row) <= ORACLE_MAX_SERVICES
        assert all(1 <= len(row) <= ORACLE_MAX_DEADLINE for row in inst.rows.values())
        assert len(inst.available) == max(map(len, inst.rows.values()))
        # cohorts by service priority, then ascending frames to go
        assert keys == sorted(keys, key=lambda k: (inst.order.index(k[0]), k[1]))
        assert all(weights[k] == inst.weights[k[0]] and windows[k] == k[1] for k in keys)
        several += any(sum(a > 0 for a in row) > 1 for row in inst.rows.values())
    assert several > 50


def test_oracle_report_fails_on_weighted_disagreement():
    report = OracleAgreementReport(total=2, lex_agreed=2, weighted_agreed=1, first_mismatch=None)
    assert not report.passed
    assert report.to_dict()["passed"] is False


def test_oracle_report_dict_carries_first_mismatch():
    inst = random_oracle_instances(3, 1)[0]
    assert OracleAgreementReport(1, 1, 1, None).to_dict()["first_mismatch"] is None
    witness = OracleAgreementReport(1, 0, 1, inst).to_dict()["first_mismatch"]
    assert witness == {
        "order": inst.order,
        "rows": inst.rows,
        "available": inst.available,
        "weights": inst.weights,
    }


def test_oracle_agreement_deterministic():
    a = oracle_agreement(123, 40)
    b = oracle_agreement(123, 40)
    assert (a.total, a.lex_agreed, a.weighted_agreed) == (b.total, b.lex_agreed, b.weighted_agreed)
    assert a.total == 40
    assert a.passed and a.first_mismatch is None


def test_oracle_agreement_on_equal_deadline_instances():
    # with aligned lifetimes the greedy order-respecting fill is exactly optimal
    agreed = 0
    total = 0
    for inst in random_oracle_instances(77, 300):
        keys, packets, windows, _ = inst.cohorts()
        if len(set(windows.values())) != 1:
            continue
        total += 1
        grants = allocate_cohorts(inst.order, inst.rows, inst.available)
        drops = {(sid, r): a - grants[sid][r - 1] for (sid, r), a in packets.items()}
        if drops == brute_force_lex_min_drops(keys, packets, windows, inst.available):
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


def test_sample_drift_flags_a_one_unit_fault_worth_under_1e9(table1_traj, table1_radio):
    # allowance 1234567899/8000000000: one unit on a numerator is a violation
    # of 4.6e-10 packets squared, below any float tolerance of 1e-9
    spec = ServiceSpec(arrival_rate=12.5, deadline=1, delivery_ratio=0.98765432101)
    assert spec.loss_allowance == Fraction(1234567899, 8000000000)
    cfg = SimConfig(
        trajectory=table1_traj,
        radio=table1_radio,
        services=(spec,),
        seed=42,
        num_frames=2000,
        capacity_override=13,
    )
    trace = run(cfg)
    assert check_sample_drift(trace).passed
    trace.deficit_num[1, 0] += 1
    drift, lemma1 = _assert_checks_match_reference(trace)
    assert not drift.passed and drift.worst_frame == 1
    assert 0 < drift.max_violation < 1e-9
    assert lemma1.passed


@st.composite
def _exact_check_runs(draw):
    """Small runs whose loss allowances have up to 14 decimal places, so the
    numerators' squares overflow int64 while the run passes the int64 guard."""
    services = []
    for _ in range(draw(st.integers(1, 3))):
        places = draw(st.integers(1, 14))
        services.append(
            ServiceSpec(
                arrival_rate=draw(st.integers(1, 400)) / 8,
                deadline=draw(st.integers(1, 4)),
                delivery_ratio=draw(st.integers(1, 10**places - 1)) / 10**places,
            )
        )
    return (
        tuple(services),
        draw(st.sampled_from(SCHEDULER_POLICIES)),
        draw(st.integers(0, 80)),
        draw(st.integers(1, 60)),
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=100, deadline=None)
@given(params=_exact_check_runs(), data=st.data())
def test_exact_checks_flag_a_one_unit_fault_either_way(params, data, table1_traj, table1_radio):
    services, policy, link, frames, seed = params
    cfg = SimConfig(
        trajectory=table1_traj,
        radio=table1_radio,
        services=services,
        scheduler=policy,
        seed=seed,
        num_frames=frames,
        capacity_override=link,
    )
    trace = run(cfg)
    drift, lemma1 = _assert_checks_match_reference(trace)
    assert drift.passed and lemma1.passed
    j = data.draw(st.integers(0, len(services) - 1))
    sid = j + 1
    p, q = trace.loss_allowances[j].as_integer_ratio()
    num, drops = trace.deficit_num[:, j].tolist(), trace.drops[:, j].tolist()
    # where a frame drops nothing and the counter covers the allowance, the
    # update drains exactly p, so one unit more breaks the one-step bound there
    drains = [k for k in range(1, frames) if drops[k] == 0 and num[k - 1] >= p]
    if drains:
        k = data.draw(st.sampled_from(drains))
        bad = replace(trace, deficit_num=trace.deficit_num.copy())
        bad.deficit_num[k, j] += 1
        drift, lemma1 = _assert_checks_match_reference(bad)
        assert not drift.passed and (drift.worst_frame, drift.worst_service) == (k, sid)
        assert lemma1.passed
    # one unit below the prefix bound at frame k breaks it there and only there
    k = data.draw(st.integers(0, frames - 1))
    slack = num[k] - (sum(drops[: k + 1]) * q - (k + 1) * p)
    assert slack >= 0
    bad = replace(trace, deficit_num=trace.deficit_num.copy())
    bad.deficit_num[k, j] -= slack + 1
    drift, lemma1 = _assert_checks_match_reference(bad)
    assert not lemma1.passed
    assert [s.worst_prefix_frame for s in lemma1.services] == [
        k if i == j else None for i in range(len(services))
    ]
    assert lemma1.services[j].max_prefix_violation == 1 / q
