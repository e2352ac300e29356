import functools
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

import hsrsched.engine as engine_mod
from hsrsched import RadioConfig, ServiceSpec, TrajectoryConfig, make_scheduler, run
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
def run_recording_decisions():
    """``run(config)`` that also returns every frame's decision, recorded by a
    wrapper around the ``decide`` that ``engine.make_scheduler`` returns, as an
    array ``[frame, service position, bucket]`` (zero past a service's deadline)."""

    def go(config):
        shape = (config.frames, len(config.services), max(s.deadline for s in config.services))
        served = np.zeros(shape, dtype=np.int64)

        def recording(policy, specs, capacities):
            decide = make_scheduler(policy, specs, capacities)

            def recorded(frame, buckets, nums):
                rows = decide(frame, buckets, nums)
                for j, row in enumerate(rows):
                    served[frame, j, : len(row)] = row
                return rows

            return recorded

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_mod, "make_scheduler", recording)
            return run(config), served

    return go


@pytest.fixture(scope="session")
def table1_run(run_recording_decisions):
    """``table1_run(policy)``: the whole 30,000-frame trip of
    ``configs/table1_fig2.ini`` at its seed 42 under ``policy``, run once a
    session, as ``run_recording_decisions`` returns it.  Every array is
    read-only; a test that changes a trace copies it first."""
    sim = parse_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "table1_fig2.ini")).sim

    @functools.cache
    def go(policy):
        trace, served = run_recording_decisions(replace(sim, scheduler=policy))
        for array in (trace.capacity, trace.arrivals, trace.served, trace.drops, trace.deficit_num, served):
            array.flags.writeable = False
        return trace, served

    return go


@pytest.fixture(scope="session")
def table1_trace(table1_run):
    """The dcsa trip of ``table1_run``."""
    return table1_run("dcsa")[0]
