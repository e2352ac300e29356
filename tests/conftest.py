import warnings

import numpy as np
import pytest

import hsrsched.engine as engine_mod
from hsrsched import RadioConfig, ServiceSpec, TrajectoryConfig, make_scheduler, run

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
    wrapper around the scheduler ``engine.make_scheduler`` builds, as an array
    ``[frame, service position, bucket]`` (zero past a service's deadline)."""

    def go(config):
        shape = (config.frames, len(config.services), max(s.deadline for s in config.services))
        served = np.zeros(shape, dtype=np.int64)

        def recording(policy, specs, capacities):
            scheduler = make_scheduler(policy, specs, capacities)
            decide = scheduler.decide

            def recorded(frame, buckets, nums):
                rows = decide(frame, buckets, nums)
                for j, row in enumerate(rows):
                    served[frame, j, : len(row)] = row
                return rows

            scheduler.decide = recorded
            return scheduler

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_mod, "make_scheduler", recording)
            return run(config), served

    return go
