import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MIXED_SERVICES, LinkSim, certified_planner, exact_deficits, links
from hsrsched import (
    ServiceSpec,
    SimConfig,
    TraceLog,
    allocate_cohorts,
    analysis,
    brute_force_lex_min_drops,
    brute_force_min_weighted_drops,
    check_lemma1,
    check_sample_drift,
    oracle_agreement,
    run,
    schedulers,
)
from hsrsched.analysis import (
    ORACLE_MAX_COHORTS,
    ORACLE_MAX_DEADLINE,
    ORACLE_MAX_SERVICES,
    RATE_STABLE_THRESHOLD,
    OracleInstance,
    random_oracle_instances,
)
from hsrsched.schedulers import SCHEDULER_POLICIES


def _hand_trace(drops_per_frame, loss_allowance, deficits=None):
    """Single-service trace with just the columns the checks consume.

    ``deficits`` default to the exact counter recurrence over the drops.
    """
    allowance = Fraction(loss_allowance)
    n = len(drops_per_frame)
    drops = np.array(drops_per_frame, dtype=np.int64).reshape(n, 1)
    if deficits is None:
        deficits = exact_deficits(drops_per_frame, allowance)
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
        required_rate=0.0,
    )


def _reference_sample_drift(trace):
    """Per-transition Fraction loop of the one-step inequality; the array
    form in ``check_sample_drift`` must agree with it key for key."""
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
    return {
        "check": "sample_drift",
        "passed": max_violation == 0,
        "max_violation": float(max_violation),
        "worst_frame": worst[0],
        "worst_service": worst[1],
        "transitions_checked": checked,
    }


def _reference_lemma1(trace):
    """Per-prefix Fraction loop of the telescoped inequality; the array form
    in ``check_lemma1`` must agree with it key for key."""
    services = []
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
        services.append(
            {
                "service_id": j + 1,
                "prefix_ok": max_violation == 0,
                "max_prefix_violation": float(max_violation),
                "worst_prefix_frame": worst,
                "rate_stable": float(final_rate) < RATE_STABLE_THRESHOLD,
                "final_deficit_per_frame": float(final_rate),
                "mean_drops": float(Fraction(running, n)),
                "loss_allowance": float(Fraction(p, q)),
            }
        )
    return {"check": "lemma1", "passed": all(s["prefix_ok"] for s in services), "services": services}


def _assert_checks_match_reference(trace):
    drift, lemma1 = check_sample_drift(trace), check_lemma1(trace)
    assert drift == _reference_sample_drift(trace)
    assert lemma1 == _reference_lemma1(trace)
    return drift, lemma1


def test_sample_drift_all_zero_trace():
    report = check_sample_drift(_hand_trace([0] * 50, 2))
    assert report["passed"]
    assert report["max_violation"] == 0.0
    assert report["transitions_checked"] == 50
    assert report["check"] == "sample_drift"
    assert (report["worst_frame"], report["worst_service"]) == (None, None)


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
        assert report["passed"]
        assert report["max_violation"] == 0.0


def test_sample_drift_detects_corrupted_counter():
    # inflate one deficit value beyond what the update can produce
    drops = [1, 0, 2, 0, 0, 1]
    trace = _hand_trace(drops, Fraction(1, 2))
    trace.deficit_num[3, 0] += 10  # +5 packets over the denominator 2
    report = check_sample_drift(trace)
    assert not report["passed"]
    assert report["worst_frame"] == 3
    assert report["max_violation"] > 1e-9


def test_lemma1_zero_drop_trace_is_rate_stable():
    report = check_lemma1(_hand_trace([0] * 100, Fraction(3, 2)))
    assert report["passed"]
    svc = report["services"][0]
    assert svc["prefix_ok"] and svc["rate_stable"]
    assert svc["mean_drops"] == 0.0
    assert report["check"] == "lemma1" and svc["service_id"] == 1


def test_lemma1_constant_excess_drops_grow_linearly():
    allowance = 2
    n = 400
    report = check_lemma1(_hand_trace([3] * n, allowance))
    svc = report["services"][0]
    assert svc["prefix_ok"]  # the update itself is valid
    assert not svc["rate_stable"]  # deficit grows one packet per frame
    assert svc["final_deficit_per_frame"] == pytest.approx(1.0, rel=0.02)
    assert svc["mean_drops"] == pytest.approx(3.0)


def test_lemma1_prefix_violation_detected():
    # deficit column claims less backlog than the drops allow
    drops = [5, 5, 5, 5]
    trace = _hand_trace(drops, 1, deficits=[4, 8, 2, 16])
    report = check_lemma1(trace)
    assert not report["passed"]
    assert not report["services"][0]["prefix_ok"]


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
    assert report["passed"]
    for svc in report["services"]:
        assert svc["max_prefix_violation"] == 0.0


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
    assert [s["worst_prefix_frame"] for s in clean["services"]] == [None, None]
    assert clean["passed"]
    for sign in (1, -1):
        bad = replace(trace, deficit_num=trace.deficit_num.copy())
        bad.deficit_num[k, 0] += sign * step
        drift, lemma1 = _assert_checks_match_reference(bad)
        if sign > 0:
            assert not drift["passed"] and drift["worst_frame"] == k and lemma1["passed"]
            assert lemma1["services"][0]["worst_prefix_frame"] is None
        else:
            assert not lemma1["passed"] and not lemma1["services"][0]["prefix_ok"]
            assert lemma1["services"][0]["worst_prefix_frame"] == k
            assert lemma1["services"][0]["max_prefix_violation"] > 0
            assert lemma1["services"][1]["worst_prefix_frame"] is None


def test_lemma1_rejects_empty_trace():
    with pytest.raises(ValueError):
        check_lemma1(_hand_trace([], 1))


def test_sample_drift_rejects_empty_trace():
    # no transition to check is no evidence either way, not a pass
    with pytest.raises(ValueError, match="^trace too short$"):
        check_sample_drift(_hand_trace([], 1))


def test_oracle_zero_drops_when_capacity_ample():
    drops = brute_force_lex_min_drops([0, 1], [[0, 3], [0, 3]], [6, 6])
    assert drops == [[0, 0], [0, 0]]


def test_oracle_single_service_spill():
    assert brute_force_lex_min_drops([0], [[0, 5]], [3, 2]) == [[0, 0]]


def test_oracle_matches_policy_on_shared_single_frame():
    order, rows, avail = [1, 0], [[4], [4]], [5]
    oracle = brute_force_lex_min_drops(order, rows, avail)
    assert oracle == [[3], [0]]
    grants = allocate_cohorts(order, rows, avail)
    assert [[a - g for a, g in zip(row, granted)] for row, granted in zip(rows, grants)] == oracle


def test_oracle_guard_refuses_large_instances():
    with pytest.raises(ValueError, match=r"\(cohorts\)"):
        brute_force_lex_min_drops([0, 1, 2, 3], [[1], [1], [1], [1]], [2])
    # three services of one cohort each pass; a fourth cohort in one of them
    # is refused, since the search's size grows with the cohorts it places
    assert brute_force_lex_min_drops([0, 1, 2], [[1], [1], [1]], [2]) == [[0], [0], [1]]
    with pytest.raises(ValueError, match=r"\(cohorts\)"):
        brute_force_lex_min_drops([0, 1, 2], [[1, 1], [1], [1]], [2, 2])
    with pytest.raises(ValueError, match=r"\(arrivals\)"):
        brute_force_lex_min_drops([0], [[0, 7]], [2, 2])
    with pytest.raises(ValueError, match=r"\(deadline\)"):
        brute_force_lex_min_drops([0], [[0, 0, 0, 2]], [2, 2, 2, 2])
    with pytest.raises(ValueError, match=r"\(capacity\)"):
        brute_force_lex_min_drops([0], [[0, 2]], [7, 2])


def test_weighted_minimum_hand_case():
    # one unit of capacity, two single-frame services: the heavier loses less
    best = brute_force_min_weighted_drops([[1], [1]], [[5], [1]], [1])
    assert best == [[0], [1]]
    best = brute_force_min_weighted_drops([[1], [1]], [[1], [5]], [1])
    assert best == [[1], [0]]


def test_weighted_minimum_refuses_negative_weights():
    with pytest.raises(ValueError):
        brute_force_min_weighted_drops([[1]], [[-1]], [1])


def _reference_lex_min_drops(order, rows, available):
    """The lexicographic oracle as a direct search over the cohorts by
    service priority and then ascending window: tuples of drops compared in
    that order, pruned on any prefix above the best found."""
    cohorts = [(j, i) for j in order for i in range(len(rows[j])) if rows[j][i]]
    best = None

    def place(idx, caps, drops):
        nonlocal best
        if best is not None and drops > best[: len(drops)]:
            return
        if idx == len(cohorts):
            if best is None or drops < best:
                best = list(drops)
            return
        j, i = cohorts[idx]

        def spread(offset, left, caps2):
            if offset > i:
                place(idx + 1, caps2, drops + [left])
                return
            for x in range(min(left, caps2[offset]), -1, -1):
                nxt = caps2.copy()
                nxt[offset] -= x
                spread(offset + 1, left - x, nxt)

        spread(0, rows[j][i], caps)

    place(0, list(available), [])
    out = [[0] * len(row) for row in rows]
    for (j, i), d in zip(cohorts, best):
        out[j][i] = d
    return out


def _policy_drops(inst):
    grants = allocate_cohorts(inst.order, inst.rows, inst.available)
    return [[a - g for a, g in zip(row, granted)] for row, granted in zip(inst.rows, grants)]


def test_radix_weighted_lex_oracle_equals_direct_lex_search():
    for inst in random_oracle_instances(1, 1000):
        frame = (inst.order, inst.rows, inst.available)
        assert brute_force_lex_min_drops(*frame) == _reference_lex_min_drops(*frame)


def test_both_searches_return_the_planners_row_layout():
    for inst in random_oracle_instances(42, 1000):
        weights = [[w] * len(row) for w, row in zip(inst.weights, inst.rows)]
        lex = brute_force_lex_min_drops(inst.order, inst.rows, inst.available)
        best = brute_force_min_weighted_drops(inst.rows, weights, inst.available)
        for drops in (lex, best):
            assert type(drops) is list and all(type(row) is list for row in drops)
            assert [len(row) for row in drops] == [len(row) for row in inst.rows]
            # at most each cell's packets, so zero on every empty cell
            for row, dropped in zip(inst.rows, drops):
                assert all(0 <= d <= a for a, d in zip(row, dropped))
        assert lex == _policy_drops(inst)


def test_random_instance_weights_are_integers_descending_along_order():
    for inst in random_oracle_instances(5, 300):
        weights = [inst.weights[j] for j in inst.order]
        assert sorted(inst.order) == list(range(len(inst.weights))) == list(range(len(inst.rows)))
        assert all(type(w) is int and 0 <= w <= 9 for w in weights)
        assert weights == sorted(weights, reverse=True)


def test_random_instances_hold_several_cohorts_per_service_within_the_guard():
    several = 0
    for inst in random_oracle_instances(5, 300):
        assert 1 <= len(inst.order) <= ORACLE_MAX_SERVICES
        assert sum(a > 0 for row in inst.rows for a in row) <= ORACLE_MAX_COHORTS
        assert all(1 <= len(row) <= ORACLE_MAX_DEADLINE for row in inst.rows)
        assert len(inst.available) == max(map(len, inst.rows))
        several += any(sum(a > 0 for a in row) > 1 for row in inst.rows)
    assert several > 50


def test_random_oracle_instances_stream_is_pinned():
    # the verify verdict counts are taken over this stream, by position
    assert random_oracle_instances(42, 3) == [
        OracleInstance((1, 0, 2), [[0, 0], [0, 0, 0], [0, 0, 1]], (6, 4, 5), (5, 8, 0)),
        OracleInstance((0, 1), [[5, 1, 0], [1, 0]], (5, 6, 2), (1, 1)),
        OracleInstance((0,), [[3, 5, 2]], (0, 1, 0), (7,)),
    ]


@pytest.mark.parametrize("count", [0, 3, 64, 65])
def test_random_oracle_instances_are_a_prefix_of_a_longer_stream(count):
    # 65 crosses from the first block of uniforms into the second
    assert random_oracle_instances(42, count) == random_oracle_instances(42, 1000)[:count]


def test_both_searches_leave_the_callers_lists_unchanged():
    for inst in random_oracle_instances(8, 300):
        order, rows, available = list(inst.order), [list(row) for row in inst.rows], list(inst.available)
        weights = [[w] * len(row) for w, row in zip(inst.weights, inst.rows)]
        brute_force_lex_min_drops(order, rows, available)
        brute_force_min_weighted_drops(rows, weights, available)
        assert (order, rows, available) == (list(inst.order), inst.rows, list(inst.available))
        assert weights == [[w] * len(row) for w, row in zip(inst.weights, inst.rows)]


def test_oracle_report_fails_on_weighted_disagreement(monkeypatch):
    # lexicographic agreement alone does not pass: an oracle that calls every
    # drop avoidable disagrees on weight wherever the planner drops
    monkeypatch.setattr(analysis, "brute_force_lex_min_drops", _reference_lex_min_drops)
    monkeypatch.setattr(analysis, "brute_force_min_weighted_drops", lambda rows, *_: [[0] * len(r) for r in rows])
    report = oracle_agreement(3, 50)
    assert report["lex_agreed"] == report["total"] == 50
    assert report["weighted_agreed"] < 50
    assert report["passed"] is False


def test_oracle_report_dict_carries_first_mismatch(monkeypatch):
    assert oracle_agreement(3, 20)["first_mismatch"] is None
    # a planner that grants nothing first disagrees where the real one grants
    instances = random_oracle_instances(3, 20)
    inst = next(i for i in instances if any(map(any, allocate_cohorts(i.order, i.rows, i.available))))

    def grant_nothing(order, rows, available):
        return [[0] * len(row) for row in rows]

    monkeypatch.setattr(schedulers, "allocate_cohorts", grant_nothing)
    witness = oracle_agreement(3, 20)["first_mismatch"]
    assert witness == {
        "order": inst.order,
        "rows": inst.rows,
        "available": inst.available,
        "weights": inst.weights,
    }


def test_oracle_agreement_deterministic():
    a = oracle_agreement(123, 40)
    b = oracle_agreement(123, 40)
    assert (a["total"], a["lex_agreed"], a["weighted_agreed"]) == (b["total"], b["lex_agreed"], b["weighted_agreed"])
    assert a["total"] == 40
    assert a["passed"] and a["first_mismatch"] is None


def test_oracle_agreement_on_equal_deadline_instances():
    # with aligned lifetimes the greedy order-respecting fill is exactly optimal
    agreed = 0
    total = 0
    for inst in random_oracle_instances(77, 300):
        windows = {i + 1 for row in inst.rows for i, a in enumerate(row) if a}
        if len(windows) != 1:
            continue
        total += 1
        if _policy_drops(inst) == brute_force_lex_min_drops(inst.order, inst.rows, inst.available):
            agreed += 1
    assert total > 50
    assert agreed == total


def test_deficits_divide_only_the_requested_rows():
    trace = _hand_trace([1, 0, 3], Fraction(1, 2))
    assert trace.deficits(slice(None)).tolist() == [[1.0], [0.5], [3.0]]
    # two services: each column over its own allowance's denominator
    trace = replace(
        trace,
        loss_allowances=(Fraction(1, 2), Fraction(2, 3)),
        deficit_num=np.array([[2, 3], [1, 4], [6, 0]], dtype=np.int64),
    )
    q = np.array([2, 3])
    for rows in (1, -1, slice(1, 3), slice(None), [2, 0]):
        out = trace.deficits(rows)
        assert np.array_equal(out, trace.deficit_num[rows] / q)
        # a new array: writing to it leaves the numerators as they were
        out[...] = 9.0
        assert trace.deficit_num.tolist() == [[2, 3], [1, 4], [6, 0]]
    trace.deficit_num[1, 0] += 2
    assert trace.deficits(1).tolist() == [1.5, 4 / 3]


@pytest.mark.parametrize("policy", ["dcsa", "rr", "edf"])
def test_array_checks_match_reference_loops_on_engine_traces(policy, table1_traj, table1_radio):
    cfg = LinkSim(
        trajectory=table1_traj,
        radio=table1_radio,
        services=MIXED_SERVICES,
        scheduler=policy,
        seed=3,
        num_frames=1500,
        profile=(90,) * table1_traj.num_frames,
    )
    trace = run(cfg)
    assert trace.drops.sum() > 0
    drift, lemma1 = _assert_checks_match_reference(trace)
    assert drift["passed"] and lemma1["passed"]
    # a numerator bumped up, or lowered, at service 1's largest deficit
    k = int(np.argmax(trace.deficit_num[:, 0]))
    assert trace.deficit_num[k, 0] > 1000
    for delta in (1, -1, 1000, -1000):
        bad = replace(trace, deficit_num=trace.deficit_num.copy())
        bad.deficit_num[k, 0] += delta
        drift, lemma1 = _assert_checks_match_reference(bad)
        if abs(delta) == 1000:
            assert not (drift["passed"] and lemma1["passed"])


def test_array_checks_match_reference_beyond_int64_squares():
    # numerators above 2**32, so their squares (and the cross terms) would
    # wrap in int64
    allowance = Fraction(3, 7)
    drops = [2**33, 0, 5, 2**32, 0, 0, 1, 2**34, 3, 0]
    trace = _hand_trace(drops, allowance)
    assert int(trace.deficit_num.max()) > 2**32
    assert int(trace.deficit_num.max()) ** 2 > np.iinfo(np.int64).max
    drift, lemma1 = _assert_checks_match_reference(trace)
    assert drift["passed"] and lemma1["passed"]
    assert drift["max_violation"] == 0.0
    trace.deficit_num[8, 0] += 1
    drift, lemma1 = _assert_checks_match_reference(trace)
    assert not drift["passed"] and drift["worst_frame"] == 8
    # the first frame clamps, so the prefix bound has a slack of p = 3
    trace.deficit_num[8, 0] -= 5
    drift, lemma1 = _assert_checks_match_reference(trace)
    assert not lemma1["passed"]


def test_sample_drift_flags_a_one_unit_fault_worth_under_1e9(table1_traj, table1_radio):
    # allowance 1234567899/8000000000: one unit on a numerator is a violation
    # of 4.6e-10 packets squared, below any float tolerance of 1e-9
    spec = ServiceSpec(arrival_rate=12.5, deadline=1, delivery_ratio=0.98765432101)
    assert spec.loss_allowance == Fraction(1234567899, 8000000000)
    cfg = LinkSim(
        trajectory=table1_traj,
        radio=table1_radio,
        services=(spec,),
        seed=42,
        num_frames=2000,
        profile=(13,) * table1_traj.num_frames,
    )
    trace = run(cfg)
    assert check_sample_drift(trace)["passed"]
    trace.deficit_num[1, 0] += 1
    drift, lemma1 = _assert_checks_match_reference(trace)
    assert not drift["passed"] and drift["worst_frame"] == 1
    assert 0 < drift["max_violation"] < 1e-9
    assert lemma1["passed"]


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
    policy = draw(st.sampled_from(SCHEDULER_POLICIES))
    frames = draw(st.integers(1, 60))
    # the link covers the run and dcsa's lookahead of up to 3 frames past it
    return tuple(services), policy, draw(links(frames + 3, 80)), frames, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(params=_exact_check_runs(), data=st.data())
def test_exact_checks_flag_a_one_unit_fault_either_way(params, data, table1_traj, table1_radio):
    services, policy, link, frames, seed = params
    cfg = LinkSim(
        trajectory=table1_traj,
        radio=table1_radio,
        services=services,
        scheduler=policy,
        seed=seed,
        num_frames=frames,
        profile=link,
    )
    # every call of dcsa's planner is certified as it is made
    with certified_planner():
        trace = run(cfg)
    drift, lemma1 = _assert_checks_match_reference(trace)
    assert drift["passed"] and lemma1["passed"]
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
        assert not drift["passed"] and (drift["worst_frame"], drift["worst_service"]) == (k, sid)
        assert lemma1["passed"]
    # one unit below the prefix bound at frame k breaks it there and only there
    k = data.draw(st.integers(0, frames - 1))
    slack = num[k] - (sum(drops[: k + 1]) * q - (k + 1) * p)
    assert slack >= 0
    bad = replace(trace, deficit_num=trace.deficit_num.copy())
    bad.deficit_num[k, j] -= slack + 1
    drift, lemma1 = _assert_checks_match_reference(bad)
    assert not lemma1["passed"]
    assert [s["worst_prefix_frame"] for s in lemma1["services"]] == [
        k if i == j else None for i in range(len(services))
    ]
    assert lemma1["services"][j]["max_prefix_violation"] == 1 / q


BLOCK = analysis.CHECK_BLOCK_FRAMES


def _growing_trace(n, seed=0):
    """Single-service hand trace of ``n`` frames whose counter never clamps
    after frame 0: one or two drops a frame against an allowance of 1/2."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return _hand_trace(rng.integers(1, 3, n).tolist(), Fraction(1, 2))


def _two_service_trace(first, second):
    """The two single-service hand traces side by side as services 1 and 2."""
    cols = {
        name: np.hstack([getattr(first, name), getattr(second, name)])
        for name in ("arrivals", "served", "drops", "deficit_num")
    }
    return replace(first, loss_allowances=first.loss_allowances + second.loss_allowances, **cols)


@pytest.mark.parametrize("k", [BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK])
def test_block_checks_find_a_violation_at_either_end_of_a_block(k):
    trace = _growing_trace(2 * BLOCK + 100)
    assert (trace.deficit_num[1:, 0] >= 1).all()
    raised = replace(trace, deficit_num=trace.deficit_num.copy())
    raised.deficit_num[k, 0] += 1
    drift, lemma1 = _assert_checks_match_reference(raised)
    assert not drift["passed"] and (drift["worst_frame"], drift["worst_service"]) == (k, 1)
    assert lemma1["passed"]
    # after frame 0 the prefix bound's slack is p = 1; one unit more breaks it
    lowered = replace(trace, deficit_num=trace.deficit_num.copy())
    lowered.deficit_num[k, 0] -= 2
    drift, lemma1 = _assert_checks_match_reference(lowered)
    assert not lemma1["passed"] and lemma1["services"][0]["worst_prefix_frame"] == k
    assert lemma1["services"][0]["max_prefix_violation"] == 0.5


@pytest.mark.parametrize("first, second", [(5, BLOCK + 5), (BLOCK - 1, BLOCK), (3, 2 * BLOCK + 3)])
def test_block_checks_report_the_first_of_equal_worst_violations(first, second):
    # on an all-zero trace, a numerator of 2 at frame k is a one-step violation
    # of 3/4 there, and a numerator of -(k + 1) - 5 a prefix violation of 5/2
    trace = _hand_trace([0] * (2 * BLOCK + 10), Fraction(1, 2))
    for k in (first, second):
        trace.deficit_num[k, 0] = 2
    drift, _ = _assert_checks_match_reference(trace)
    assert (drift["worst_frame"], drift["max_violation"]) == (first, 0.75)
    trace.deficit_num[second, 0] = 3  # a larger violation later wins
    drift, _ = _assert_checks_match_reference(trace)
    assert drift["worst_frame"] == second
    trace.deficit_num[:, 0] = 0
    for k in (first, second):
        trace.deficit_num[k, 0] = -(k + 1) - 5
    _, lemma1 = _assert_checks_match_reference(trace)
    assert lemma1["services"][0]["worst_prefix_frame"] == first
    assert lemma1["services"][0]["max_prefix_violation"] == 2.5
    trace.deficit_num[second, 0] -= 1
    _, lemma1 = _assert_checks_match_reference(trace)
    assert lemma1["services"][0]["worst_prefix_frame"] == second


def test_block_checks_report_the_first_service_of_equal_worst_violations():
    # service 2's equal violation sits in an earlier block than service 1's
    one, two = (_hand_trace([0] * (BLOCK + 10), Fraction(1, 2)) for _ in range(2))
    one.deficit_num[BLOCK + 3, 0] = 2
    two.deficit_num[4, 0] = 2
    drift, lemma1 = _assert_checks_match_reference(_two_service_trace(one, two))
    assert (drift["worst_frame"], drift["worst_service"]) == (BLOCK + 3, 1)


@pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK])
def test_block_checks_match_reference_at_block_lengths(n):
    trace = _two_service_trace(_growing_trace(n, seed=n), _hand_trace([n % 3] * n, Fraction(7, 3)))
    drift, lemma1 = _assert_checks_match_reference(trace)
    assert drift["passed"] and lemma1["passed"]
    assert drift["transitions_checked"] == 2 * n
    for delta in (1, -3):
        bad = replace(trace, deficit_num=trace.deficit_num.copy())
        bad.deficit_num[-1, 0] += delta
        drift, lemma1 = _assert_checks_match_reference(bad)
        assert not (drift["passed"] and lemma1["passed"])


def test_block_checks_flag_a_counter_driven_negative_past_the_first_block(table1_traj, table1_radio, two_services):
    # verify's inject_fault = deficit at frame n // 2 of a trip of three blocks
    cfg = SimConfig(
        trajectory=table1_traj, radio=table1_radio, services=two_services, seed=5, num_frames=3 * BLOCK
    )
    trace = run(cfg)
    k = trace.num_frames // 2
    assert BLOCK < k < 2 * BLOCK
    p, q = trace.loss_allowances[0].as_integer_ratio()
    before = int(trace.deficit_num[k - 1, 0])
    trace.deficit_num[k, 0] = -(before + (int(trace.drops[k, 0]) + 1) * q + (k + 1) * p)
    drift, lemma1 = _assert_checks_match_reference(trace)
    assert not drift["passed"] and (drift["worst_frame"], drift["worst_service"]) == (k, 1)
    assert not lemma1["passed"] and [s["worst_prefix_frame"] for s in lemma1["services"]] == [k, None]


def test_checks_trace_under_1_mib_on_a_whole_trip(table1_trace):
    trace = table1_trace
    assert trace.num_frames == 30000
    for check in (check_sample_drift, check_lemma1):
        tracemalloc.start()
        try:
            check(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"{check.__name__} traced {peak} bytes"
