import functools
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hsrsched import RadioConfig, ServiceSpec, TrajectoryConfig, run
from hsrsched.cli import parse_config

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
