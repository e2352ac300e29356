import os
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsrsched.cli as cli
import hsrsched.engine as engine
from conftest import MIXED_SERVICES, LinkSim, backlog, certified_planner, exact_deficits, fifo_drops, fifo_walk, links
from hsrsched import ContractViolation, ServiceSpec, SimConfig, build_capacity_profile, run
from hsrsched.cli import fig3_rows, parse_config
from hsrsched.engine import CSV_CHUNK_ROWS, INT64_MAX, fifo_chunk, single_service_ratios
from hsrsched.schedulers import SCHEDULER_POLICIES, make_scheduler
from hsrsched.traffic import ArrivalGenerator

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
SWEEP_CONFIG = os.path.join(REPO, "perfbench", "configs", "sweep.ini")


def _config(table1_traj, table1_radio, services, profile=None, **kw):
    """A run of ``services`` on the table1 trip: on the link ``profile`` when
    given, else on the link model's."""
    if profile is None:
        return SimConfig(trajectory=table1_traj, radio=table1_radio, services=services, **kw)
    return LinkSim(trajectory=table1_traj, radio=table1_radio, services=services, profile=profile, **kw)


@pytest.mark.parametrize("frames", [0, -1])
def test_run_shorter_than_one_frame_rejected(frames, table1_traj, table1_radio, two_services):
    with pytest.raises(ValueError, match="num_frames must be at least 1"):
        _config(table1_traj, table1_radio, two_services, num_frames=frames)


def test_identical_configs_identical_traces(table1_traj, table1_radio, two_services):
    cfg = _config(table1_traj, table1_radio, two_services, seed=5, num_frames=3000)
    a = run(cfg)
    b = run(cfg)
    for field in ("capacity", "arrivals", "served", "drops", "deficit_num"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert np.array_equal(a.deficits(slice(None)), b.deficits(slice(None)))
    assert np.array_equal(backlog(a), backlog(b))


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
        assert arrivals == served + drops + int(backlog(trace)[-1, j])
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
    for services, link in ((two_services, 150), (MIXED_SERVICES, 100)):
        for policy in SCHEDULER_POLICIES:
            cfg = _config(
                table1_traj,
                table1_radio,
                services,
                scheduler=policy,
                seed=4,
                num_frames=3000,
                profile=(link,) * table1_traj.num_frames,
            )
            trace = run(cfg)
            assert trace.drops.sum() > 0
            # each batch drops what its oldest-first service left of it at expiry
            expected = fifo_drops(trace, [s.deadline for s in services])
            for j in range(len(services)):
                assert (expected[:, j] == trace.drops[:, j]).all(), (policy, j)


def _run_with(decide, table1_traj, table1_radio, services, monkeypatch):
    """Ten frames of ``services`` with ``decide`` in place of the policy."""
    import hsrsched.engine as engine_mod

    monkeypatch.setattr(engine_mod, "make_scheduler", lambda policy, specs, caps: decide)
    return run(_config(table1_traj, table1_radio, services, num_frames=10))


def test_engine_rejects_overserving_scheduler(table1_traj, table1_radio, two_services, monkeypatch):
    def greedy(frame, buckets, nums):
        return [10**6 for _ in two_services]

    with pytest.raises(ContractViolation, match=r"frame 0: served total 2000000 exceeds frame capacity \d+$"):
        _run_with(greedy, table1_traj, table1_radio, two_services, monkeypatch)


def test_engine_rejects_bucket_overserve_within_capacity(
    table1_traj, table1_radio, two_services, monkeypatch
):
    caps = _config(table1_traj, table1_radio, two_services, num_frames=10).capacities()
    held = []

    def one_too_many(frame, buckets, nums):
        """Serves all that service 1 holds plus one packet: within the frame
        capacity, above its buckets."""
        held.append(sum(buckets[0]))
        totals = [held[-1] + 1, 0]
        assert sum(totals) <= caps[frame]
        return totals

    with pytest.raises(ContractViolation) as info:
        _run_with(one_too_many, table1_traj, table1_radio, two_services, monkeypatch)
    assert str(info.value) == f"frame 0: service 1: served {held[0] + 1} of {held[0]} queued"


def test_engine_rejects_negative_served_count(table1_traj, table1_radio, two_services, monkeypatch):
    def negative(frame, buckets, nums):
        return [0, -1]

    with pytest.raises(ContractViolation, match=r"frame 0: service 2: served -1 of \d+ queued$"):
        _run_with(negative, table1_traj, table1_radio, two_services, monkeypatch)


@pytest.mark.parametrize("frame, count", [(9, 1), (9, 3), (4, 0), (4, 20)])
def test_engine_rejects_wrong_total_count(frame, count, table1_traj, table1_radio, two_services, monkeypatch):
    def wrong_count(k, buckets, nums):
        """Decides nothing, but with the wrong number of totals on one frame:
        one too few or too many on the last frame; none, or one per bucket
        of both services, on frame 4."""
        return [0] * (count if k == frame else len(two_services))

    with pytest.raises(ContractViolation, match=f"frame {frame}: {count} totals decided for 2 services"):
        _run_with(wrong_count, table1_traj, table1_radio, two_services, monkeypatch)


@pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
def test_saturated_link_drops_nothing(policy, table1_traj, table1_radio, two_services):
    capacity = sum(s.max_arrivals * s.deadline for s in two_services)
    cfg = _config(
        table1_traj,
        table1_radio,
        two_services,
        scheduler=policy,
        seed=3,
        num_frames=2000,
        profile=(capacity,) * table1_traj.num_frames,
    )
    trace = run(cfg)
    assert trace.drops.sum() == 0
    assert (trace.deficits(slice(None)) == 0.0).all()
    assert trace.delivery_ratios() == [1.0, 1.0]


def test_dcsa_serves_the_tight_service_at_least_as_well_as_edf(table1_traj, table1_radio):
    # deadlines 2/5/10 over the full trip, inside the feasibility bound:
    # re-planning every cohort by current deficit lets the deadline-2
    # service reclaim capacity that EDF hands to whoever is most urgent
    dcsa, edf = (
        run(_config(table1_traj, table1_radio, MIXED_SERVICES, scheduler=policy, seed=42))
        for policy in ("dcsa", "edf")
    )
    assert dcsa.delivery_ratios()[0] >= edf.delivery_ratios()[0]
    assert dcsa.deficits(-1).max() <= edf.deficits(-1).max()


def test_delivery_ratio_zero_with_dead_link(table1_traj, table1_radio):
    # single-frame lifetimes so nothing lingers in the backlog at run end
    services = (
        ServiceSpec(arrival_rate=20.0, deadline=1, delivery_ratio=0.9),
        ServiceSpec(arrival_rate=5.0, deadline=1, delivery_ratio=0.8),
    )
    cfg = _config(table1_traj, table1_radio, services, seed=3, num_frames=500, profile=())
    assert run(cfg).delivery_ratios() == [0.0, 0.0]


def test_config_validation(table1_traj, table1_radio, two_services):
    with pytest.raises(ValueError):
        _config(table1_traj, table1_radio, two_services, scheduler="lifo")
    with pytest.raises(ValueError):
        _config(table1_traj, table1_radio, two_services, num_frames=30001)
    with pytest.raises(ValueError):
        _config(table1_traj, table1_radio, (), seed=0)


def test_every_policy_runs_on_an_int64_max_link(table1_traj, table1_radio, two_services):
    # the link model allows frames of up to 2**63 - 1 packets
    link = (INT64_MAX,) * table1_traj.num_frames
    cfg = _config(table1_traj, table1_radio, two_services, num_frames=20, profile=link)
    for policy in SCHEDULER_POLICIES:
        trace = run(replace(cfg, scheduler=policy))
        assert (trace.capacity == INT64_MAX).all()
        assert trace.drops.sum() == 0


def test_allowance_beyond_int64_numerators_rejected(table1_traj, table1_radio):
    # 16 decimal places: the allowance is 1831252068573033 / (5 * 10**14)
    spec = ServiceSpec(arrival_rate=10.0, deadline=2, delivery_ratio=0.6337495862853934)
    assert spec.loss_allowance.denominator > 10**14
    with pytest.raises(ValueError, match="may not fit int64"):
        _config(table1_traj, table1_radio, (spec,))
    short = _config(table1_traj, table1_radio, (spec,), num_frames=20, profile=())
    assert run(short).deficit_num[-1, 0] > 0


def test_truncated_run_feasibility_covers_the_frames_run(table1_traj, table1_radio, two_services):
    # the first 1000 frames lie near the base station, well above the trip's mean
    trace = run(_config(table1_traj, table1_radio, two_services, seed=42, num_frames=1000))
    mean = sum(build_capacity_profile(table1_traj, table1_radio)[:1000]) / 1000
    assert mean > 200
    assert trace.summary_text().splitlines()[3:7] == [
        "feasible = True",
        f"feasibility_margin = {mean - 153.0:.9g}",
        f"mean_capacity = {mean:.9g}",
        "required_rate = 153",
    ]


@pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
def test_backlog_is_what_the_buckets_hold_frame_by_frame(policy, table1_traj, table1_radio, monkeypatch, tmp_path):
    import hsrsched.engine as engine_mod

    held = []

    def recording(policy, specs, capacities):
        decide = make_scheduler(policy, specs, capacities)

        def recorded(frame, buckets, nums):
            held.append([sum(row) for row in buckets])
            return decide(frame, buckets, nums)

        return recorded

    monkeypatch.setattr(engine_mod, "make_scheduler", recording)
    cfg = _config(
        table1_traj,
        table1_radio,
        MIXED_SERVICES,
        scheduler=policy,
        seed=8,
        num_frames=1500,
        profile=(100,) * table1_traj.num_frames,
    )
    trace = run(cfg)
    # the backlog columns as written, carried across two CSV_CHUNK_ROWS boundaries
    assert 2 * CSV_CHUNK_ROWS < cfg.frames
    trace.to_csv(tmp_path / "trace.csv")
    header = (tmp_path / "trace.csv").read_text().splitlines()[1].split(",")
    columns = [header.index(f"backlog_s{sid}") for sid in (1, 2, 3)]
    written = np.loadtxt(tmp_path / "trace.csv", delimiter=",", skiprows=2, usecols=columns, dtype=np.int64)
    assert trace.drops.sum() > 0 and written.any(axis=0).all()
    # when decide runs at frame k the buckets hold frame k - 1's backlog and frame k's arrivals
    before = np.vstack([np.zeros((1, 3), dtype=np.int64), written[:-1]])
    assert (before + trace.arrivals == np.array(held)).all()
    for field in ("served", "drops", "deficit_num"):
        values = getattr(trace, field)
        assert values.dtype == np.int64 and values.shape == (1500, 3), field
    assert written.shape == (1500, 3)
    assert trace.deficit_num.flags.writeable


def test_summary_text_contains_key_fields(table1_traj, table1_radio, two_services):
    cfg = _config(table1_traj, table1_radio, two_services, seed=1, num_frames=100)
    text = run(cfg).summary_text()
    assert "scheduler = dcsa" in text
    assert "feasibility_margin" in text
    assert "service 1:" in text and "service 2:" in text


def test_summary_and_csv_trace_little_memory_on_a_whole_trip(table1_trace, tmp_path):
    # each writer derives the rows it writes, never a whole-trip float or backlog array
    trace = table1_trace
    assert (trace.num_frames, trace.scheduler) == (30000, "dcsa")
    for write, bound in ((trace.summary_text, 64 * 2**10), (lambda: trace.to_csv(tmp_path / "trace.csv"), 0.4 * 2**20)):
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"{write} traced {peak} bytes"


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
    frames = draw(st.integers(1, 400))
    # the link covers the run and dcsa's lookahead of up to 9 frames past it
    return services, draw(links(frames + 9, 250)), frames, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
@settings(max_examples=50, deadline=None)
@given(params=_small_runs())
def test_engine_conservation_laws(policy, params, table1_traj, table1_radio):
    services, link, frames, seed = params
    cfg = _config(
        table1_traj,
        table1_radio,
        services,
        scheduler=policy,
        seed=seed,
        num_frames=frames,
        profile=link,
    )
    # every call of dcsa's planner is certified as it is made
    with certified_planner():
        trace = run(cfg)
    assert (trace.served >= 0).all()
    assert (trace.served.sum(axis=1) <= trace.capacity).all()
    assert (trace.deficits(slice(None)) >= 0.0).all()
    # each service is served oldest first, so the batch of frame k drops
    # what is left of it at the end of frame k + m - 1
    expected = fifo_drops(trace, [s.deadline for s in services])
    for j, m in enumerate(s.deadline for s in services):
        arrivals, served, drops = trace.arrivals[:, j], trace.served[:, j], trace.drops[:, j]
        assert arrivals.sum() == served.sum() + drops.sum() + backlog(trace)[-1, j]
        assert (expected[:, j] == drops).all()
        assert not drops[: m - 1].any()
        # the deficit numerators follow the exact recurrence, frame by frame
        allowance = trace.loss_allowances[j]
        for y, num in zip(exact_deficits(drops.tolist(), allowance), trace.deficit_num[:, j].tolist()):
            assert num == y * allowance.denominator


def _trips(sims):
    """The (service, seed) pair of each one-service config of ``sims``."""
    return [(sim.services[0], sim.seed) for sim in sims]


@st.composite
def _lockstep_grids(draw):
    """One-service trips on one capacity profile and frame count, with mixed
    deadlines; rates and seeds repeat, so some trips share an arrival stream."""
    frames = draw(st.integers(1, 1100))
    # a constant link, or None for the link model's
    level = draw(st.sampled_from([None, 0, 3, 50, 120]))
    trips = st.tuples(st.integers(1, 12), st.sampled_from([0.01, 5.0, 60.0, 130.0]), st.integers(0, 3))
    return frames, level, draw(st.lists(trips, min_size=1, max_size=4))


@settings(max_examples=50, deadline=None)
@given(grid=_lockstep_grids())
def test_lockstep_ratios_equal_run_under_every_policy(grid, table1_traj, table1_radio):
    frames, level, trips = grid
    sims = [
        _config(
            table1_traj,
            table1_radio,
            (ServiceSpec(arrival_rate=rate, deadline=m, delivery_ratio=0.9),),
            seed=seed,
            num_frames=frames,
            profile=None if level is None else (level,) * table1_traj.num_frames,
        )
        for m, rate, seed in trips
    ]
    ratios = single_service_ratios(sims[0].capacities()[:frames], _trips(sims))
    for sim, ratio in zip(sims, ratios, strict=True):
        for policy in SCHEDULER_POLICIES:
            assert run(replace(sim, scheduler=policy)).delivery_ratios() == [ratio]


def _one_service(table1_traj, table1_radio, m, rate=130.0, seed=4, **kw):
    service = ServiceSpec(arrival_rate=rate, deadline=m, delivery_ratio=0.9)
    return _config(table1_traj, table1_radio, (service,), seed=seed, **kw)


def _arrivals(sim):
    return ArrivalGenerator(sim.services, sim.seed).sample_run(sim.frames)[:, 0].tolist()


def test_lockstep_deadline_one_drops_the_excess_of_each_frame(table1_traj, table1_radio):
    sim = _one_service(table1_traj, table1_radio, 1, num_frames=700)
    a = _arrivals(sim)
    drops = sum(max(0, x - 120) for x in a)
    assert drops > 0
    assert single_service_ratios((120,) * 700, _trips([sim])) == [(sum(a) - drops) / sum(a)]


def test_lockstep_zero_capacity_drops_all_but_the_last_deadline(table1_traj, table1_radio):
    # the arrivals of the last m - 1 frames are still queued at the end
    m, n = 7, 600
    sim = _one_service(table1_traj, table1_radio, m, num_frames=n)
    total = np.cumsum(_arrivals(sim)).tolist()
    assert single_service_ratios((0,) * n, _trips([sim])) == [(total[n - 1] - total[n - m]) / total[n - 1]]


def test_lockstep_trip_shorter_than_its_deadline_drops_nothing(table1_traj, table1_radio):
    sim = _one_service(table1_traj, table1_radio, 8, num_frames=5)
    assert single_service_ratios((0,) * 5, _trips([sim])) == [1.0]


def test_service_without_arrivals_reads_not_applicable(table1_traj, table1_radio):
    # rate 1e-4 over 5 frames draws no arrivals
    sim = _one_service(table1_traj, table1_radio, 1, rate=1e-4, num_frames=5)
    trace = run(sim)
    assert trace.arrivals.sum() == 0
    assert trace.delivery_ratios() == [None]
    assert trace.summary_text().splitlines()[-1].endswith(", delivery_ratio = n/a")
    assert single_service_ratios(sim.capacities()[:5], _trips([sim])) == [None]


def test_lockstep_mixed_deadlines_across_chunk_boundaries(table1_traj, table1_radio):
    # 1030 frames: the arrival totals carry over the chunks at 512 and 1024;
    # the two rates share a seed, so deadlines 1 and 12 share each stream
    sims = [
        _one_service(table1_traj, table1_radio, m, rate, seed=seed, num_frames=1030)
        for m in (1, 12)
        for rate, seed in ((130.0, 4), (130.0, 5), (60.0, 4))
    ]
    expected = []
    for sim in sims:
        a = _arrivals(sim)
        drops = sum(d for _, d in fifo_walk(a, (120,) * len(a), sim.services[0].deadline))
        expected.append((sum(a) - drops) / sum(a))
    assert len(set(expected[:2] + expected[3:5])) == 4
    assert single_service_ratios((120,) * 1030, _trips(sims)) == expected


@st.composite
def _fifo_lanes(draw):
    """Arrival streams, capacities (zeros and int64's largest among them),
    lanes of deadlines 1-10 on those streams, the cuts into chunks, the
    columns kept before each chunk beyond the largest deadline, and a lane
    budget, mostly small enough to split the lanes into groups."""
    frames = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    streams = rng.integers(0, 41, (draw(st.integers(1, 3)), frames)).tolist()
    capacities = np.where(rng.random(frames) < 0.1, INT64_MAX, rng.integers(0, 61, frames))
    capacities[rng.random(frames) < 0.2] = 0
    lanes = st.tuples(st.integers(0, len(streams) - 1), st.integers(1, 10))
    cuts = draw(st.sets(st.integers(1, frames - 1), max_size=4)) if frames > 1 else set()
    extra = draw(st.integers(0, 2))
    budget = draw(st.sampled_from([1, 20, 150, engine.FIFO_LANE_BUDGET]))
    return streams, capacities.tolist(), draw(st.lists(lanes, min_size=1, max_size=12)), sorted(cuts), extra, budget


@settings(max_examples=300, deadline=None)
@given(case=_fifo_lanes())
def test_fifo_chunk_matches_a_per_frame_fifo(case):
    streams, capacities, lanes, cuts, extra, budget = case
    frames = len(capacities)
    rows = np.array([r for r, _ in lanes])
    deadlines = np.array([m for _, m in lanes])
    pad = int(deadlines.max()) - 1 + extra
    # cum[r, pad + 1 + t] = stream r's arrivals through frame t, zero before frame 0
    cum = np.zeros((len(streams), pad + 1 + frames), dtype=np.int64)
    cum[:, pad + 1 :] = np.cumsum(streams, axis=1)
    steps = [fifo_walk(streams[r], capacities, m) for r, m in lanes]
    gone = np.zeros(len(lanes), dtype=np.int64)
    with mock.patch.object(engine, "FIFO_LANE_BUDGET", budget):
        for lo, hi in zip([0, *cuts], [*cuts, frames]):
            caps = np.array(capacities[lo:hi], dtype=np.int64)
            drops = fifo_chunk(caps, cum[:, lo : pad + 1 + hi], rows, deadlines, gone)
            assert gone.tolist() == [lane[hi - 1][0] for lane in steps]
            assert drops.tolist() == [sum(d for _, d in lane[lo:hi]) for lane in steps]


@pytest.mark.parametrize("capacity", [INT64_MAX, 2**62])
def test_lockstep_capacity_near_int64_limit_drops_nothing(capacity):
    # every frame's capacity exceeds all arrivals so far; summing it unchecked
    # over a block would wrap around int64
    cfg = parse_config(SWEEP_CONFIG)
    trips = [(replace(cfg.sim.services[0], deadline=m), cfg.sim.seed) for m in (1, 10)]
    assert single_service_ratios((capacity,) * 3000, trips) == [1.0, 1.0]


@pytest.mark.parametrize(
    "config, trips, bound",
    [(("perfbench", "configs", "sweep.ini"), 4, 2**20), (("configs", "fig3.ini"), 100, 8 * 2**20)],
    ids=["sweep.ini", "fig3.ini"],
)
def test_lockstep_memory_is_bounded_by_chunk_and_lane_group(config, trips, bound, monkeypatch):
    cfg = parse_config(os.path.join(REPO, *config))
    cfg.sim.capacities()  # the profile is cached; build it outside the trace
    peaks = []

    def traced(caps, lanes):
        tracemalloc.start()
        try:
            ratios = single_service_ratios(caps, lanes)
            peaks.append((len(lanes), tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        return ratios

    monkeypatch.setattr(cli, "single_service_ratios", traced)
    fig3_rows(cfg)
    [(n, peak)] = peaks
    assert n == trips
    assert peak < bound, f"{trips} trips traced {peak} bytes"
