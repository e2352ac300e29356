import numpy as np
import pytest

from hsrsched import (
    ContractViolation,
    FrameServed,
    ServiceSpec,
    SimConfig,
    cohort_drops,
    delivery_ratio,
    run,
    sweep,
)
from hsrsched.schedulers import SCHEDULER_POLICIES, Scheduler


def _config(table1_traj, table1_radio, services, **kw):
    return SimConfig(trajectory=table1_traj, radio=table1_radio, services=services, **kw)


def test_zero_frames_gives_empty_trace(table1_traj, table1_radio, two_services):
    trace = run(_config(table1_traj, table1_radio, two_services, num_frames=0, seed=1))
    assert trace.num_frames == 0
    summary = trace.summary()
    for s in summary.services:
        assert s.arrivals == s.served == s.drops == s.final_backlog == 0
        assert s.delivery_ratio is None


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


def test_cohort_drop_equivalence(table1_traj, table1_radio, two_services):
    # a mix of deadlines 2/5/10 gives each service a different ring length in
    # the dcsa planner and different bucket counts in the queues; both links
    # carry less than the offered load, so batches do drop
    mixed = (
        ServiceSpec(service_id=1, arrival_rate=20.0, deadline=2, delivery_ratio=0.95),
        ServiceSpec(service_id=2, arrival_rate=40.0, deadline=5, delivery_ratio=0.90),
        ServiceSpec(service_id=3, arrival_rate=50.0, deadline=10, delivery_ratio=0.80),
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
            trace = run(cfg, collect_bucket_detail=True)
            assert trace.drops.sum() > 0
            for j, m in enumerate(trace.deadlines):
                assert not trace.bucket_served[:, j, m:].any()
                for k in range(trace.num_frames - m + 1):
                    lifetime = [int(trace.bucket_served[k + i, j, m - 1 - i]) for i in range(m)]
                    expected = cohort_drops(int(trace.arrivals[k, j]), lifetime)
                    assert expected == int(trace.drops[k + m - 1, j]), (policy, j, k)


def _run_with(scheduler_cls, table1_traj, table1_radio, services, monkeypatch):
    import hsrsched.engine as engine_mod

    monkeypatch.setattr(engine_mod, "make_scheduler", lambda *a, **kw: scheduler_cls(services))
    return run(_config(table1_traj, table1_radio, services, num_frames=10))


def test_engine_rejects_overserving_scheduler(table1_traj, table1_radio, two_services, monkeypatch):
    class Greedy(Scheduler):
        name = "dcsa"

        def decide(self, frame, capacity, queues):
            return FrameServed(
                counts={s.service_id: [0] * (s.deadline - 1) + [10**6] for s in self.specs}
            )

    with pytest.raises(ContractViolation, match="exceeds frame capacity"):
        _run_with(Greedy, table1_traj, table1_radio, two_services, monkeypatch)


def test_engine_rejects_bucket_overserve_within_capacity(
    table1_traj, table1_radio, two_services, monkeypatch
):
    class OneTooMany(Scheduler):
        """Serves the whole top bucket of service 1 plus one packet: within
        the frame capacity, above the bucket."""

        name = "dcsa"

        def decide(self, frame, capacity, queues):
            counts = {s.service_id: [0] * s.deadline for s in self.specs}
            counts[1][-1] = queues[1].buckets[-1] + 1
            assert sum(map(sum, counts.values())) <= capacity
            return FrameServed(counts=counts)

    with pytest.raises(ContractViolation, match="from bucket r=10"):
        _run_with(OneTooMany, table1_traj, table1_radio, two_services, monkeypatch)


def test_engine_rejects_negative_served_count(table1_traj, table1_radio, two_services, monkeypatch):
    class Negative(Scheduler):
        name = "dcsa"

        def decide(self, frame, capacity, queues):
            counts = {s.service_id: [0] * s.deadline for s in self.specs}
            counts[2][0] = -1
            return FrameServed(counts=counts)

    with pytest.raises(ContractViolation, match="served -1"):
        _run_with(Negative, table1_traj, table1_radio, two_services, monkeypatch)


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
    for s in trace.summary().services:
        assert s.delivery_ratio == 1.0


def test_delivery_ratio_zero_with_dead_link(table1_traj, table1_radio):
    # single-frame lifetimes so nothing lingers in the backlog at run end
    services = (
        ServiceSpec(service_id=1, arrival_rate=20.0, deadline=1, delivery_ratio=0.9),
        ServiceSpec(service_id=2, arrival_rate=5.0, deadline=1, delivery_ratio=0.8),
    )
    cfg = _config(table1_traj, table1_radio, services, seed=3, num_frames=500, capacity_override=0)
    trace = run(cfg)
    assert delivery_ratio(trace, 1) == 0.0
    assert delivery_ratio(trace, 2) == 0.0


def test_config_validation(table1_traj, table1_radio, two_services):
    with pytest.raises(ValueError):
        _config(table1_traj, table1_radio, two_services, scheduler="lifo")
    with pytest.raises(ValueError):
        _config(table1_traj, table1_radio, two_services, num_frames=30001)
    with pytest.raises(ValueError):
        _config(table1_traj, table1_radio, (), seed=0)
    gap = (
        ServiceSpec(service_id=1, arrival_rate=5.0, deadline=2, delivery_ratio=0.9),
        ServiceSpec(service_id=3, arrival_rate=5.0, deadline=2, delivery_ratio=0.9),
    )
    with pytest.raises(ValueError):
        _config(table1_traj, table1_radio, gap)
    with pytest.raises(ValueError):
        _config(table1_traj, table1_radio, two_services, capacity_override=-1)


def test_summary_text_contains_key_fields(table1_traj, table1_radio, two_services):
    cfg = _config(table1_traj, table1_radio, two_services, seed=1, num_frames=100)
    text = run(cfg).summary().to_text()
    assert "scheduler = dcsa" in text
    assert "feasibility_margin" in text
    assert "service 1:" in text and "service 2:" in text


def test_sweep_empty_grid(table1_traj, table1_radio, two_services):
    cfg = _config(table1_traj, table1_radio, two_services, seed=1, num_frames=100)
    assert sweep(cfg, [], [10.0]) == []
    assert sweep(cfg, [1, 2], []) == []


def test_sweep_grid_and_standalone_reproducibility(table1_traj, table1_radio):
    spec = (ServiceSpec(service_id=1, arrival_rate=90.0, deadline=4, delivery_ratio=0.9),)
    cfg = _config(table1_traj, table1_radio, spec, seed=11, num_frames=2000)
    points = sweep(cfg, [2, 4], [90.0, 130.0])
    assert len(points) == 4
    assert [p.seed for p in points] == [11 ^ 0, 11 ^ 1, 11 ^ 2, 11 ^ 3]
    # re-run the third point standalone from its recorded parameters
    p = points[2]
    standalone = run(
        _config(
            table1_traj,
            table1_radio,
            (
                ServiceSpec(
                    service_id=1,
                    arrival_rate=p.arrival_rate,
                    deadline=p.deadline,
                    delivery_ratio=0.9,
                ),
            ),
            seed=p.seed,
            num_frames=2000,
        )
    ).summary()
    assert standalone == p.summary


def test_sweep_records_errors_and_continues(table1_traj, table1_radio):
    spec = (ServiceSpec(service_id=1, arrival_rate=50.0, deadline=4, delivery_ratio=0.9),)
    cfg = _config(table1_traj, table1_radio, spec, seed=11, num_frames=50)
    points = sweep(cfg, [0, 2], [50.0])  # deadline 0 is invalid
    assert points[0].error is not None and points[0].summary is None
    assert points[1].error is None and points[1].summary is not None


def test_sweep_higher_rate_never_helps(table1_traj, table1_radio):
    spec = (ServiceSpec(service_id=1, arrival_rate=90.0, deadline=4, delivery_ratio=0.9),)
    cfg = _config(table1_traj, table1_radio, spec, seed=11)
    points = sweep(cfg, [4], [90.0, 130.0])
    lo = points[0].summary.services[0].delivery_ratio
    hi = points[1].summary.services[0].delivery_ratio
    assert hi <= lo + 0.01
