from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsrsched import ContractViolation, ServiceSpec, SimConfig, run
from hsrsched.engine import single_service_ratios
from hsrsched.schedulers import SCHEDULER_POLICIES, Scheduler, make_scheduler
from hsrsched.traffic import ArrivalGenerator


def _config(table1_traj, table1_radio, services, **kw):
    return SimConfig(trajectory=table1_traj, radio=table1_radio, services=services, **kw)


@pytest.mark.parametrize("frames", [0, -1])
def test_run_shorter_than_one_frame_rejected(frames, table1_traj, table1_radio, two_services):
    with pytest.raises(ValueError, match="num_frames must be at least 1"):
        _config(table1_traj, table1_radio, two_services, num_frames=frames)


def test_identical_configs_identical_traces(table1_traj, table1_radio, two_services):
    cfg = _config(table1_traj, table1_radio, two_services, seed=5, num_frames=3000)
    a = run(cfg)
    b = run(cfg)
    for field in ("capacity", "arrivals", "served", "drops", "deficit", "backlog"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_trace_csv_roundtrip_bytes(tmp_path, table1_traj, table1_radio, two_services):
    cfg = _config(table1_traj, table1_radio, two_services, seed=5, num_frames=1500)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(cfg).to_csv(p1)
    run(cfg).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1].startswith("frame,capacity,arrivals_s1,")
    assert len(lines) == 2 + 1500


@pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
def test_per_service_conservation(policy, table1_traj, table1_radio, two_services):
    cfg = _config(
        table1_traj, table1_radio, two_services, scheduler=policy, seed=9, num_frames=4000
    )
    trace = run(cfg)
    for j in range(2):
        arrivals = int(trace.arrivals[:, j].sum())
        served = int(trace.served[:, j].sum())
        drops = int(trace.drops[:, j].sum())
        assert arrivals == served + drops + int(trace.backlog[-1, j])
    cum_drops = np.cumsum(trace.drops, axis=0)
    assert (np.diff(cum_drops, axis=0) >= 0).all()


@pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
def test_capacity_and_bucket_limits_hold(policy, table1_traj, table1_radio, two_services):
    cfg = _config(
        table1_traj, table1_radio, two_services, scheduler=policy, seed=2, num_frames=4000
    )
    trace = run(cfg)
    assert (trace.served.sum(axis=1) <= trace.capacity).all()


def test_cohort_drop_equivalence(table1_traj, table1_radio, two_services, run_recording_decisions):
    # a mix of deadlines 2/5/10 gives each service a different ring length in
    # the dcsa planner and different bucket counts in the queues; both links
    # carry less than the offered load, so batches do drop
    mixed = (
        ServiceSpec(arrival_rate=20.0, deadline=2, delivery_ratio=0.95),
        ServiceSpec(arrival_rate=40.0, deadline=5, delivery_ratio=0.90),
        ServiceSpec(arrival_rate=50.0, deadline=10, delivery_ratio=0.80),
    )
    for services, link in ((two_services, 150), (mixed, 100)):
        for policy in SCHEDULER_POLICIES:
            cfg = _config(
                table1_traj,
                table1_radio,
                services,
                scheduler=policy,
                seed=4,
                num_frames=3000,
                capacity_override=link,
            )
            trace, bucket_served = run_recording_decisions(cfg)
            assert trace.drops.sum() > 0
            for j, m in enumerate(s.deadline for s in services):
                assert not bucket_served[:, j, m:].any()
                for k in range(trace.num_frames - m + 1):
                    lifetime = [int(bucket_served[k + i, j, m - 1 - i]) for i in range(m)]
                    expected = int(trace.arrivals[k, j]) - sum(lifetime)
                    assert expected == int(trace.drops[k + m - 1, j]), (policy, j, k)


def _run_with(scheduler_cls, table1_traj, table1_radio, services, monkeypatch):
    import hsrsched.engine as engine_mod

    monkeypatch.setattr(engine_mod, "make_scheduler", lambda policy, specs, caps: scheduler_cls(specs, caps))
    return run(_config(table1_traj, table1_radio, services, num_frames=10))


def test_engine_rejects_overserving_scheduler(table1_traj, table1_radio, two_services, monkeypatch):
    class Greedy(Scheduler):
        name = "dcsa"

        def decide(self, frame, buckets, nums):
            return [[0] * (s.deadline - 1) + [10**6] for s in self.specs]

    with pytest.raises(ContractViolation, match=r"frame 0: served total 2000000 exceeds frame capacity \d+$"):
        _run_with(Greedy, table1_traj, table1_radio, two_services, monkeypatch)


def test_engine_rejects_bucket_overserve_within_capacity(
    table1_traj, table1_radio, two_services, monkeypatch
):
    class OneTooMany(Scheduler):
        """Serves the whole top bucket of service 1 plus one packet: within
        the frame capacity, above the bucket."""

        name = "dcsa"

        def decide(self, frame, buckets, nums):
            counts = [[0] * s.deadline for s in self.specs]
            counts[0][-1] = buckets[0][-1] + 1
            assert sum(map(sum, counts)) <= self.capacities[frame]
            return counts

    with pytest.raises(ContractViolation, match="from bucket r=10"):
        _run_with(OneTooMany, table1_traj, table1_radio, two_services, monkeypatch)


def test_engine_rejects_negative_served_count(table1_traj, table1_radio, two_services, monkeypatch):
    class Negative(Scheduler):
        name = "dcsa"

        def decide(self, frame, buckets, nums):
            counts = [[0] * s.deadline for s in self.specs]
            counts[1][0] = -1
            return counts

    with pytest.raises(ContractViolation, match="served -1"):
        _run_with(Negative, table1_traj, table1_radio, two_services, monkeypatch)


@pytest.mark.parametrize("rows", [1, 3])
def test_engine_rejects_wrong_row_count(rows, table1_traj, table1_radio, two_services, monkeypatch):
    class WrongRows(Scheduler):
        """Decides nothing but with one row too few or too many, on the last
        frame only."""

        name = "dcsa"

        def decide(self, frame, buckets, nums):
            n = rows if frame == 9 else len(self.specs)
            return [[0] * 10 for _ in range(n)]

    with pytest.raises(ContractViolation, match=f"frame 9: {rows} rows decided for 2 services"):
        _run_with(WrongRows, table1_traj, table1_radio, two_services, monkeypatch)


@pytest.mark.parametrize("length", [9, 11])
def test_engine_rejects_wrong_row_length(length, table1_traj, table1_radio, two_services, monkeypatch):
    class WrongLength(Scheduler):
        """Serves nothing, but gives service 2 one count too few or too many
        on frame 4."""

        name = "dcsa"

        def decide(self, frame, buckets, nums):
            return [[0] * 10, [0] * (length if frame == 4 else 10)]

    with pytest.raises(ContractViolation, match=f"frame 4: service 2: {length} counts, 10 buckets"):
        _run_with(WrongLength, table1_traj, table1_radio, two_services, monkeypatch)


@pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
def test_saturated_link_drops_nothing(policy, table1_traj, table1_radio, two_services):
    override = sum(s.max_arrivals * s.deadline for s in two_services)
    cfg = _config(
        table1_traj,
        table1_radio,
        two_services,
        scheduler=policy,
        seed=3,
        num_frames=2000,
        capacity_override=override,
    )
    trace = run(cfg)
    assert trace.drops.sum() == 0
    assert (trace.deficit == 0.0).all()
    assert trace.delivery_ratios() == [1.0, 1.0]


def test_dcsa_serves_the_tight_service_at_least_as_well_as_edf(table1_traj, table1_radio):
    # deadlines 2/5/10 over the full trip, inside the feasibility bound:
    # re-planning every cohort by current deficit lets the deadline-2
    # service reclaim capacity that EDF hands to whoever is most urgent
    services = (
        ServiceSpec(arrival_rate=20.0, deadline=2, delivery_ratio=0.95),
        ServiceSpec(arrival_rate=40.0, deadline=5, delivery_ratio=0.90),
        ServiceSpec(arrival_rate=50.0, deadline=10, delivery_ratio=0.80),
    )
    dcsa, edf = (
        run(_config(table1_traj, table1_radio, services, scheduler=policy, seed=42))
        for policy in ("dcsa", "edf")
    )
    assert dcsa.delivery_ratios()[0] >= edf.delivery_ratios()[0]
    assert dcsa.deficit[-1].max() <= edf.deficit[-1].max()


def test_delivery_ratio_zero_with_dead_link(table1_traj, table1_radio):
    # single-frame lifetimes so nothing lingers in the backlog at run end
    services = (
        ServiceSpec(arrival_rate=20.0, deadline=1, delivery_ratio=0.9),
        ServiceSpec(arrival_rate=5.0, deadline=1, delivery_ratio=0.8),
    )
    cfg = _config(table1_traj, table1_radio, services, seed=3, num_frames=500, capacity_override=0)
    assert run(cfg).delivery_ratios() == [0.0, 0.0]


def test_config_validation(table1_traj, table1_radio, two_services):
    with pytest.raises(ValueError):
        _config(table1_traj, table1_radio, two_services, scheduler="lifo")
    with pytest.raises(ValueError):
        _config(table1_traj, table1_radio, two_services, num_frames=30001)
    with pytest.raises(ValueError):
        _config(table1_traj, table1_radio, (), seed=0)
    with pytest.raises(ValueError):
        _config(table1_traj, table1_radio, two_services, capacity_override=-1)


def test_capacity_override_beyond_int64_rejected(table1_traj, table1_radio, two_services):
    with pytest.raises(ValueError, match="capacity_override must be in 0..9223372036854775807"):
        _config(table1_traj, table1_radio, two_services, capacity_override=2**63)
    cfg = _config(table1_traj, table1_radio, two_services, num_frames=20, capacity_override=2**63 - 1)
    for policy in SCHEDULER_POLICIES:
        trace = run(replace(cfg, scheduler=policy))
        assert (trace.capacity == 2**63 - 1).all()
        assert trace.drops.sum() == 0


def test_allowance_beyond_int64_numerators_rejected(table1_traj, table1_radio):
    # 16 decimal places: the allowance is 1831252068573033 / (5 * 10**14)
    spec = ServiceSpec(arrival_rate=10.0, deadline=2, delivery_ratio=0.6337495862853934)
    assert spec.loss_allowance.denominator > 10**14
    with pytest.raises(ValueError, match="may not fit int64"):
        _config(table1_traj, table1_radio, (spec,))
    short = _config(table1_traj, table1_radio, (spec,), num_frames=20, capacity_override=0)
    assert run(short).deficit_num[-1, 0] > 0


def test_truncated_run_feasibility_covers_the_frames_run(table1_traj, table1_radio, two_services):
    # the first 1000 frames lie near the base station, well above the trip's mean
    trace = run(_config(table1_traj, table1_radio, two_services, seed=42, num_frames=1000))
    report = trace.feasibility
    assert report.mean_capacity == trace.capacity.mean()
    assert report.mean_capacity > 200
    assert report.feasible


@pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
def test_backlog_is_what_the_buckets_hold_frame_by_frame(policy, table1_traj, table1_radio, monkeypatch):
    import hsrsched.engine as engine_mod

    held = []

    def recording(policy, specs, capacities):
        scheduler = make_scheduler(policy, specs, capacities)
        decide = scheduler.decide

        def recorded(frame, buckets, nums):
            held.append([sum(row) for row in buckets])
            return decide(frame, buckets, nums)

        scheduler.decide = recorded
        return scheduler

    monkeypatch.setattr(engine_mod, "make_scheduler", recording)
    services = (
        ServiceSpec(arrival_rate=20.0, deadline=2, delivery_ratio=0.95),
        ServiceSpec(arrival_rate=40.0, deadline=5, delivery_ratio=0.90),
        ServiceSpec(arrival_rate=50.0, deadline=10, delivery_ratio=0.80),
    )
    cfg = _config(
        table1_traj, table1_radio, services, scheduler=policy, seed=8, num_frames=1500, capacity_override=100
    )
    trace = run(cfg)
    assert trace.drops.sum() > 0 and trace.backlog.any(axis=0).all()
    # when decide runs at frame k the buckets hold frame k - 1's backlog and frame k's arrivals
    before = np.vstack([np.zeros((1, 3), dtype=np.int64), trace.backlog[:-1]])
    assert (before + trace.arrivals == np.array(held)).all()
    for field in ("served", "drops", "deficit_num", "backlog"):
        values = getattr(trace, field)
        assert values.dtype == np.int64 and values.shape == (1500, 3), field
    assert trace.deficit_num.flags.writeable


def test_summary_text_contains_key_fields(table1_traj, table1_radio, two_services):
    cfg = _config(table1_traj, table1_radio, two_services, seed=1, num_frames=100)
    text = run(cfg).summary_text()
    assert "scheduler = dcsa" in text
    assert "feasibility_margin" in text
    assert "service 1:" in text and "service 2:" in text


@st.composite
def _small_runs(draw):
    services = tuple(
        ServiceSpec(
            # decimal values of up to 3 and 4 places, as a config file holds them
            arrival_rate=draw(st.integers(500, 100_000)) / 1000,
            deadline=draw(st.integers(1, 10)),
            delivery_ratio=draw(st.integers(5000, 9900)) / 10000,
        )
        for _ in range(draw(st.integers(1, 3)))
    )
    return (
        services,
        draw(st.integers(0, 250)),
        draw(st.integers(1, 400)),
        draw(st.integers(0, 2**32 - 1)),
    )


@pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
@settings(max_examples=50, deadline=None)
@given(params=_small_runs())
def test_engine_conservation_laws(policy, params, table1_traj, table1_radio, run_recording_decisions):
    services, link, frames, seed = params
    cfg = _config(
        table1_traj,
        table1_radio,
        services,
        scheduler=policy,
        seed=seed,
        num_frames=frames,
        capacity_override=link,
    )
    trace, bucket_served = run_recording_decisions(cfg)
    assert (trace.served == bucket_served.sum(axis=2)).all()
    assert (trace.served.sum(axis=1) <= trace.capacity).all()
    assert (trace.deficit >= 0.0).all()
    for j, m in enumerate(s.deadline for s in services):
        arrivals, served, drops = trace.arrivals[:, j], trace.served[:, j], trace.drops[:, j]
        assert arrivals.sum() == served.sum() + drops.sum() + trace.backlog[-1, j]
        # the batch of frame k is served from bucket r = m - i at frame k + i
        # and its unserved rest drops at the end of frame k + m - 1
        batches = max(frames - m + 1, 0)
        lifetime = sum(bucket_served[i : i + batches, j, m - 1 - i] for i in range(m))
        assert (arrivals[:batches] - lifetime == drops[m - 1 :]).all()
        assert not drops[: m - 1].any()
        # the deficit numerators follow Y <- max(Y - allowance, 0) + drops in
        # exact rationals, frame by frame
        allowance = trace.loss_allowances[j]
        y = Fraction(0)
        for d, num in zip(drops.tolist(), trace.deficit_num[:, j].tolist()):
            y = max(y - allowance, 0) + d
            assert num == y * allowance.denominator


@st.composite
def _lockstep_grids(draw):
    """One-service trips on one capacity profile and frame count, with mixed
    deadlines; rates and seeds repeat, so some trips share an arrival stream."""
    frames = draw(st.integers(1, 1100))
    override = draw(st.sampled_from([None, 0, 3, 50, 120]))
    trips = st.tuples(st.integers(1, 12), st.sampled_from([0.01, 5.0, 60.0, 130.0]), st.integers(0, 3))
    return frames, override, draw(st.lists(trips, min_size=1, max_size=4))


@settings(max_examples=50, deadline=None)
@given(grid=_lockstep_grids())
def test_lockstep_ratios_equal_run_under_every_policy(grid, table1_traj, table1_radio):
    frames, override, trips = grid
    sims = [
        _config(
            table1_traj,
            table1_radio,
            (ServiceSpec(arrival_rate=rate, deadline=m, delivery_ratio=0.9),),
            seed=seed,
            num_frames=frames,
            capacity_override=override,
        )
        for m, rate, seed in trips
    ]
    for sim, ratio in zip(sims, single_service_ratios(sims), strict=True):
        for policy in SCHEDULER_POLICIES:
            assert run(replace(sim, scheduler=policy)).delivery_ratios() == [ratio]


def _one_service(table1_traj, table1_radio, m, rate=130.0, seed=4, **kw):
    service = ServiceSpec(arrival_rate=rate, deadline=m, delivery_ratio=0.9)
    return _config(table1_traj, table1_radio, (service,), seed=seed, **kw)


def _arrivals(sim):
    return ArrivalGenerator(sim.services, sim.seed).sample_run(sim.frames)[:, 0].tolist()


def _fifo_drops(arrivals, capacity, m):
    """Drops of one service served oldest first, batch by batch: each frame
    admits its batch, serves ``capacity`` packets from the oldest batches and
    drops the batch that has had its m frames."""
    batches, drops = [], 0
    for t, a in enumerate(arrivals):
        batches.append([t, a])
        left = capacity
        for batch in batches:
            taken = min(left, batch[1])
            batch[1] -= taken
            left -= taken
        if batches[0][0] == t - m + 1:
            drops += batches.pop(0)[1]
    return drops


def test_lockstep_deadline_one_drops_the_excess_of_each_frame(table1_traj, table1_radio):
    sim = _one_service(table1_traj, table1_radio, 1, num_frames=700, capacity_override=120)
    a = _arrivals(sim)
    drops = sum(max(0, x - 120) for x in a)
    assert drops > 0
    assert single_service_ratios([sim]) == [(sum(a) - drops) / sum(a)]


def test_lockstep_zero_capacity_drops_all_but_the_last_deadline(table1_traj, table1_radio):
    # the arrivals of the last m - 1 frames are still queued at the end
    m, n = 7, 600
    sim = _one_service(table1_traj, table1_radio, m, num_frames=n, capacity_override=0)
    total = np.cumsum(_arrivals(sim)).tolist()
    assert single_service_ratios([sim]) == [(total[n - 1] - total[n - m]) / total[n - 1]]


def test_lockstep_trip_shorter_than_its_deadline_drops_nothing(table1_traj, table1_radio):
    sim = _one_service(table1_traj, table1_radio, 8, num_frames=5, capacity_override=0)
    assert single_service_ratios([sim]) == [1.0]


def test_service_without_arrivals_reads_not_applicable(table1_traj, table1_radio):
    # rate 1e-4 over 5 frames draws no arrivals
    sim = _one_service(table1_traj, table1_radio, 1, rate=1e-4, num_frames=5)
    trace = run(sim)
    assert trace.arrivals.sum() == 0
    assert trace.delivery_ratios() == [None]
    assert trace.summary_text().splitlines()[-1].endswith(", delivery_ratio = n/a")
    assert single_service_ratios([sim]) == [None]


def test_lockstep_mixed_deadlines_across_chunk_boundaries(table1_traj, table1_radio):
    # 1030 frames: the arrival totals carry over the chunks at 512 and 1024;
    # the two rates share a seed, so deadlines 1 and 12 share each stream
    sims = [
        _one_service(table1_traj, table1_radio, m, rate, seed=seed, num_frames=1030, capacity_override=120)
        for m in (1, 12)
        for rate, seed in ((130.0, 4), (130.0, 5), (60.0, 4))
    ]
    expected = []
    for sim in sims:
        a = _arrivals(sim)
        expected.append((sum(a) - _fifo_drops(a, 120, sim.services[0].deadline)) / sum(a))
    assert len(set(expected[:2] + expected[3:5])) == 4
    assert single_service_ratios(sims) == expected


def test_lockstep_rejects_trips_that_cannot_share_a_loop(table1_traj, table1_radio, two_services):
    one = _config(table1_traj, table1_radio, two_services[:1], num_frames=10)
    with pytest.raises(ValueError, match="single_service_ratios needs"):
        single_service_ratios([])
    for other in (
        _config(table1_traj, table1_radio, two_services, num_frames=10),
        replace(one, num_frames=11),
        replace(one, capacity_override=5),
    ):
        with pytest.raises(ValueError, match="single_service_ratios needs"):
            single_service_ratios([one, other])
