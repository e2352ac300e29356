import contextlib
import functools
import itertools
import os
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from hsrsched import RadioConfig, ServiceSpec, SimConfig, TrajectoryConfig, run, schedulers
from hsrsched.cli import parse_config
from hsrsched.engine import INT64_MAX

# hypothesis's pytest plugin imports this module when a property test fails,
# and the import chain (libcst, mypy_extensions) raises a DeprecationWarning.
# Under the suite's warnings-as-errors filter that turns into an INTERNALERROR
# that ends the session, so every later test goes unreported.  Import it once
# here with the warning ignored; the filter stays as it is for everything else.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin skips the module too
        pass


@dataclass(frozen=True)
class LinkSim(SimConfig):
    """A run whose link is ``profile``, one capacity per frame from the
    first and zero past its end, in place of the link model's: the one way
    a test sets the link, through the ``capacities()`` that the engine, the
    dcsa planner and ``fig3`` read."""

    profile: tuple[int, ...] = ()

    def capacities(self) -> tuple[int, ...]:
        n = self.trajectory.num_frames
        return (tuple(self.profile) + (0,) * n)[:n]


@st.composite
def links(draw, frames, top):
    """A link of ``frames`` frames: a constant, a ramp or steps of levels
    0..``top``, with runs of zero and frames of ``INT64_MAX`` laid over it."""
    level = st.integers(0, top)
    shape = draw(st.sampled_from(["constant", "ramp", "steps"]))
    if shape == "constant":
        profile = [draw(level)] * frames
    elif shape == "ramp":
        first, last = draw(level), draw(level)
        profile = [first + (last - first) * k // max(frames - 1, 1) for k in range(frames)]
    else:
        steps = draw(st.lists(st.tuples(st.integers(1, 40), level), min_size=1, max_size=6))
        levels = itertools.cycle([c for width, c in steps for _ in range(width)])
        profile = list(itertools.islice(levels, frames))
    for lo, width in draw(st.lists(st.tuples(st.integers(0, frames - 1), st.integers(1, 30)), max_size=3)):
        profile[lo : lo + width] = [0] * len(profile[lo : lo + width])
    for k in draw(st.sets(st.integers(0, frames - 1), max_size=3)):
        profile[k] = INT64_MAX
    return tuple(profile)


def first_rank_mismatch(order, rows, available, grants):
    """Edmonds' greedy theorem, checked without the greedy: take the cohorts
    in processing order (positions in ``order``, each position's cohorts by
    ascending r), cohort c holding a_c packets with window end w_c = r - 1.
    The greedy grants every prefix P of that order exactly its rank

        r(P) = min(sum of a over P, min_d [C(d) + sum of a_c over c in P with w_c > d])

    with C the prefix sum of ``available``: a minimum cut of the nested
    windows' flow network.  Each grant is then r(P_k) - r(P_(k-1)).

    Returns None when ``grants`` gives every prefix its rank, else the first
    prefix that differs: its last cohort (position, bucket), what the
    prefix was granted and its rank."""
    # cut[t]: capacity over offsets 0..t-1 plus the prefix's packets whose
    # window ends at or past offset t; t = 0 cuts every packet of the prefix
    cut = [0, *itertools.accumulate(available)]
    total = 0
    for j in order:
        for i, a in enumerate(rows[j]):
            cut[: i + 1] = [v + a for v in cut[: i + 1]]
            total += grants[j][i]
            if total != min(cut):
                return {"position": j, "bucket": i, "granted": total, "rank": min(cut)}
    return None


@contextlib.contextmanager
def certified_planner():
    """Inside the block every call of dcsa's planner,
    ``schedulers.allocate_cohorts``, asserts that its grants have the rows'
    shape and give every prefix its min-cut rank (``first_rank_mismatch``);
    yields a list of each call's processing order.  The dcsa closure looks
    the planner up at each call, so the patch reaches every run."""
    calls = []
    allocate = schedulers.allocate_cohorts

    def certified(order, rows, available):
        grants = allocate(order, rows, available)
        assert [len(granted) for granted in grants] == [len(row) for row in rows], f"call {len(calls)}"
        mismatch = first_rank_mismatch(order, rows, available, grants)
        assert mismatch is None, f"call {len(calls)}: first prefix off its rank {mismatch}"
        calls.append(order)
        return grants

    with mock.patch.object(schedulers, "allocate_cohorts", certified):
        yield calls


# the three services of perfbench/configs/mixed.ini: deadlines 2, 5 and 10
MIXED_SERVICES = (
    ServiceSpec(arrival_rate=20.0, deadline=2, delivery_ratio=0.95),
    ServiceSpec(arrival_rate=40.0, deadline=5, delivery_ratio=0.90),
    ServiceSpec(arrival_rate=50.0, deadline=10, delivery_ratio=0.80),
)


def exact_deficits(drops, allowance):
    """The deficit counter after each frame of a service that drops
    ``drops[k]`` at frame k: Y <- max(Y - allowance, 0) + D from Y = 0, in
    exact ``Fraction``s."""
    y, deficits = Fraction(0), []
    for d in drops:
        y = max(y - allowance, Fraction(0)) + d
        deficits.append(y)
    return deficits


def oldest_first(row, total):
    """Per bucket of ``row``, the packets taken when ``total`` are served
    oldest first (r = 1 first)."""
    served = []
    for a in row:
        served.append(min(a, total))
        total -= served[-1]
    return served


def fifo_walk(arrivals, capacities, m):
    """Per frame of one service served oldest first, batch by batch: the
    packets gone (served or dropped) so far and the frame's drops.  Each
    frame admits its batch, serves its capacity from the oldest batches and
    drops the batch that has had its m frames."""
    batches, gone, steps = [], 0, []
    for t, (a, c) in enumerate(zip(arrivals, capacities)):
        batches.append([t, a])
        for batch in batches:
            taken = min(c, batch[1])
            batch[1] -= taken
            c -= taken
            gone += taken
        dropped = batches.pop(0)[1] if batches[0][0] == t - m + 1 else 0
        gone += dropped
        steps.append((gone, dropped))
    return steps


def backlog(trace):
    """What the buckets hold after each frame of ``trace``: every arrival not yet served or dropped."""
    return np.cumsum(trace.arrivals - trace.served - trace.drops, axis=0)


def fifo_drops(trace, deadlines):
    """Each frame's drops as serving every service oldest first makes them,
    recomputed from the arrivals, served and dropped columns of ``trace``
    alone.  With A the running arrivals and G the running served plus
    dropped, the packets of frames through k - m + 1 expire at frame k, so
    it drops max(0, A[k - m + 1] - (G[k - 1] + served[k])).  Asserts first
    that no frame serves more than its service holds, A[k] - G[k - 1]."""
    arrived = np.cumsum(trace.arrivals, axis=0)
    gone = np.cumsum(trace.served + trace.drops, axis=0)
    served_through = np.vstack([np.zeros_like(gone[:1]), gone[:-1]]) + trace.served
    assert (served_through <= arrived).all(), "a frame serves more than its service holds"
    expected = np.zeros_like(trace.drops)
    for j, m in enumerate(deadlines):
        expired = np.concatenate([np.zeros(m - 1, dtype=np.int64), arrived[:, j]])[: trace.num_frames]
        expected[:, j] = np.maximum(expired - served_through[:, j], 0)
    return expected


@pytest.fixture(scope="session")
def table1_traj():
    return TrajectoryConfig(
        speed=100.0,
        cell_radius=1500.0,
        track_offset=30.0,
        trip_duration=30.0,
        frame_length=1e-3,
    )


@pytest.fixture(scope="session")
def table1_radio():
    return RadioConfig(
        carrier_freq=2.4e9,
        bs_antenna_height=50.0,
        rs_antenna_height=5.0,
        tx_power_over_noise=115.0,
        bandwidth=1.0e7,
        packet_size=500.0,
    )


@pytest.fixture(scope="session")
def two_services():
    return (
        ServiceSpec(arrival_rate=100.0, deadline=10, delivery_ratio=0.99),
        ServiceSpec(arrival_rate=60.0, deadline=10, delivery_ratio=0.90),
    )


@pytest.fixture(scope="session")
def table1_run():
    """``table1_run(policy)``: the trace of the whole 30,000-frame trip of
    ``configs/table1_fig2.ini`` at its seed 42 under ``policy``, run once a
    session.  Every array is read-only; a test that changes a trace copies
    it first."""
    sim = parse_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "table1_fig2.ini")).sim

    @functools.cache
    def go(policy):
        trace = run(replace(sim, scheduler=policy))
        for array in (trace.capacity, trace.arrivals, trace.served, trace.drops, trace.deficit_num):
            array.flags.writeable = False
        return trace

    return go


@pytest.fixture(scope="session")
def table1_trace(table1_run):
    """The dcsa trip of ``table1_run``."""
    return table1_run("dcsa")
