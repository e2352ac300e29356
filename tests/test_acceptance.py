"""Acceptance gate: one test per criterion, full-scale runs.  Measured figures
are held to pinned tolerances; the exact trace checks pass only at zero.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import os
from dataclasses import asdict

import numpy as np
import pytest

from hsrsched import (
    SimConfig,
    build_capacity_profile,
    check_lemma1,
    check_sample_drift,
    oracle_agreement,
    path_loss_db,
    run,
)
from hsrsched.cli import fig3_rows, main, parse_config

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
DEFAULT_CONFIG = os.path.join(REPO, "configs", "table1_fig2.ini")
FIG3_CONFIG = os.path.join(REPO, "configs", "fig3.ini")

MATRIX_SEEDS = (42, 43, 44)
POLICIES = ("dcsa", "rr", "edf")


def _report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_sim():
    return parse_config(DEFAULT_CONFIG).sim


@pytest.fixture(scope="module")
def recorded(default_sim, run_recording_decisions):
    """Full-trip traces for every scheduler and seed, each with its per-frame
    per-service per-bucket served counts."""
    from dataclasses import replace

    runs = {}
    for policy in POLICIES:
        for seed in MATRIX_SEEDS:
            cfg = replace(default_sim, scheduler=policy, seed=seed)
            runs[(policy, seed)] = run_recording_decisions(cfg)
    return runs


@pytest.fixture(scope="module")
def matrix(recorded):
    """Full-trip traces for every scheduler and seed."""
    return {key: trace for key, (trace, _) in recorded.items()}


@pytest.fixture(scope="module")
def saturated(default_sim):
    from dataclasses import replace

    override = sum(s.max_arrivals * s.deadline for s in default_sim.services)
    traces = {}
    for policy in POLICIES:
        cfg = replace(default_sim, scheduler=policy, capacity_override=override)
        traces[policy] = run(cfg)
    return traces


def test_criterion_01_channel_derived_values(default_sim):
    radio, traj = default_sim.radio, default_sim.trajectory
    caps = build_capacity_profile(traj, radio)
    d_bp = radio.breakpoint_distance
    pl30 = path_loss_db(30.0, radio)
    c0 = caps[0]
    c_edge = caps[15000]
    ok = (
        abs(d_bp - 8000.0) <= 1.0
        and abs(pl30 - 69.58) <= 0.05
        and abs(c0 - 301) <= 2
        and abs(c_edge - 62) <= 2
    )
    _report(
        1,
        ok,
        f"d_bp={d_bp:.3f} m (8000±1), PL(30m)={pl30:.4f} dB (69.58±0.05), "
        f"C[0]={c0} (301±2), C[t=15s]={c_edge} (62±2)",
    )


def test_criterion_02_capacity_profile_shape(default_sim):
    caps = build_capacity_profile(default_sim.trajectory, default_sim.radio)
    period = len(caps)
    edge = period // 2
    valley_ok = all(caps[k] >= caps[k + 1] for k in range(edge)) and all(
        caps[k] <= caps[k + 1] for k in range(edge, period - 1)
    )
    min_at_edge = min(caps) in {caps[edge - 1], caps[edge], caps[edge + 1]} and caps[edge] == min(
        caps
    )
    symmetric = all(abs(caps[k] - caps[period - k]) <= 1 for k in range(1, period))
    ok = valley_ok and min_at_edge and symmetric
    _report(
        2,
        ok,
        f"unimodal valley={valley_ok}, min {min(caps)} at edge frame {edge} "
        f"(±1)={min_at_edge}, floor-symmetry within 1={symmetric}",
    )


def test_criterion_03_constraint_invariants(recorded, default_sim):
    violations = 0
    cohorts_checked = 0
    for (policy, seed), (trace, bucket_served) in recorded.items():
        n = trace.num_frames
        if not (trace.served.sum(axis=1) <= trace.capacity).all():
            violations += 1
        if (trace.backlog < 0).any() or (trace.drops < 0).any() or (trace.served < 0).any():
            violations += 1
        # per-cohort conservation: arrivals fully resolve into lifetime
        # service plus the drop recorded at expiry
        for j, m in enumerate(s.deadline for s in default_sim.services):
            lifetime = np.zeros(n - m + 1, dtype=np.int64)
            for i in range(m):
                lifetime += bucket_served[i : n - m + 1 + i, j, m - 1 - i]
            expected_drops = trace.arrivals[: n - m + 1, j] - lifetime
            if not (expected_drops == trace.drops[m - 1 :, j]).all():
                violations += 1
            cohorts_checked += n - m + 1
    _report(
        3,
        violations == 0,
        f"{len(recorded)} runs x 30000 frames: capacity/bucket violations={violations}, "
        f"cohort conservation checked on {cohorts_checked} cohorts",
    )


def test_criterion_04_lemma_checks(matrix, saturated):
    worst = 0.0
    failures = []
    traces = list(matrix.items()) + [((p, "saturated"), t) for p, t in saturated.items()]
    for key, trace in traces:
        drift = check_sample_drift(trace)
        lemma = check_lemma1(trace)
        worst = max(worst, drift.max_violation, *(s.max_prefix_violation for s in lemma.services))
        if not drift.passed:
            failures.append(f"drift{key}")
        if not lemma.passed:
            failures.append(f"lemma1{key}")
    _report(
        4,
        not failures,
        f"{len(traces)} traces, max violation {worst:.3g} (exact, must be 0); failures={failures or 'none'}",
    )


def test_criterion_05_oracle_agreement(default_sim):
    report = oracle_agreement(default_sim.seed, 200)
    detail = (
        f"lexicographic agreement {report.lex_agreed}/{report.total}, "
        f"weighted-objective optimal {report.weighted_agreed}/{report.total}"
    )
    if report.first_mismatch is not None:
        detail += f"; first mismatch: {asdict(report.first_mismatch)}"
    _report(5, report.passed, detail)


def test_criterion_06_deficit_balancing(matrix):
    dcsa = matrix[("dcsa", 42)]
    rr = matrix[("rr", 42)]
    edf = matrix[("edf", 42)]

    # (a) deficit envelope over the first 1000 frames never decreases
    envelope_ok = True
    for trace in (dcsa, rr, edf):
        for j in range(2):
            window_max = [float(trace.deficit[w : w + 100, j].max()) for w in range(0, 1000, 100)]
            if any(b < a for a, b in zip(window_max, window_max[1:])):
                envelope_ok = False

    # (b) ignoring QoS starves the high-requirement service
    y1_edf = float(edf.deficit[-1, 0])
    y1_dcsa = float(dcsa.deficit[-1, 0])
    starvation_ok = y1_edf >= 1.5 * y1_dcsa

    # (c) the lookahead policy balances the two counters
    gap = lambda t: float(np.abs(t.deficit[:, 0] - t.deficit[:, 1]).max())
    balance_ok = gap(dcsa) < gap(edf) and gap(dcsa) < gap(rr)

    _report(
        6,
        envelope_ok and starvation_ok and balance_ok,
        f"(a) envelopes non-decreasing={envelope_ok}; "
        f"(b) EDF final Y1={y1_edf:.0f} vs 1.5x DCSA {y1_dcsa:.0f} -> {starvation_ok}; "
        f"(c) max gaps dcsa={gap(dcsa):.0f} < edf={gap(edf):.0f}, rr={gap(rr):.0f} -> {balance_ok}",
    )


def test_criterion_07_deadline_sweep():
    cfg = parse_config(FIG3_CONFIG)
    rows = fig3_rows(cfg)
    series = {}
    for m, rate, ratio in rows:
        series.setdefault(rate, {})[m] = ratio
    rates = sorted(series)
    lo, hi = rates[0], rates[-1]
    monotone_ok = True
    for rate, by_m in series.items():
        ms = sorted(by_m)
        diffs = [by_m[b] - by_m[a] for a, b in zip(ms, ms[1:])]
        inversions = [d for d in diffs if d < 0]
        if len(inversions) > 1 or any(d < -0.01 for d in inversions):
            monotone_ok = False
    pointwise_ok = all(series[hi][m] <= series[lo][m] + 0.01 for m in sorted(series[lo]))
    _report(
        7,
        monotone_ok and pointwise_ok,
        f"rates {lo} vs {hi}: non-decreasing in m (<=1 inversion of <=0.01)={monotone_ok}, "
        f"ratio(hi)<=ratio(lo)+0.01 pointwise={pointwise_ok}; "
        f"lo={[round(series[lo][m], 4) for m in sorted(series[lo])]}, "
        f"hi={[round(series[hi][m], 4) for m in sorted(series[hi])]}",
    )


def test_criterion_08_saturation(saturated):
    ok = True
    details = []
    for policy, trace in saturated.items():
        ratios = trace.delivery_ratios()
        zero_y = bool((trace.deficit == 0.0).all())
        ok = ok and all(r == 1.0 for r in ratios) and zero_y
        details.append(f"{policy}: ratios={ratios}, Y==0 {zero_y}")
    _report(8, ok, "; ".join(details))


def test_criterion_09_determinism(tmp_path):
    out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    assert main(["run", DEFAULT_CONFIG, "--out", out1]) == 0
    assert main(["run", DEFAULT_CONFIG, "--out", out2]) == 0
    b1 = (tmp_path / "d1" / "trace.csv").read_bytes()
    b2 = (tmp_path / "d2" / "trace.csv").read_bytes()
    _report(9, b1 == b2, f"two invocations, {len(b1)} bytes each, byte-identical={b1 == b2}")


def test_criterion_10_feasibility_margin(matrix, default_sim):
    trace = matrix[("dcsa", 42)]
    caps = build_capacity_profile(default_sim.trajectory, default_sim.radio)
    mean_cap = sum(caps) / len(caps)
    required = sum(s.arrival_rate * s.delivery_ratio for s in default_sim.services)
    independent = mean_cap - required
    reported = trace.feasibility.margin
    rel = abs(reported - independent) / abs(independent)
    _report(
        10,
        rel <= 1e-9,
        f"reported margin {reported:.9f}, independent {independent:.9f}, rel diff {rel:.3g}",
    )
