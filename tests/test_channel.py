import math
from dataclasses import replace

import pytest

from hsrsched import (
    RadioConfig,
    TrajectoryConfig,
    build_capacity_profile,
    distance_at,
    frame_capacity,
    path_loss_db,
    rate_bps,
    snr_db,
)


def test_distance_at_origin(table1_traj):
    assert distance_at(0.0, table1_traj) == 30.0


def test_distance_at_half_cell(table1_traj):
    expected = math.sqrt(1500.0**2 + 30.0**2)  # 1500.2999700059986
    assert distance_at(15.0, table1_traj) == pytest.approx(expected, rel=1e-12)


def test_distance_periodicity():
    # three-cell trip so t + one period stays in the domain
    traj = TrajectoryConfig(
        speed=100.0, cell_radius=1500.0, track_offset=30.0, trip_duration=90.0, frame_length=1e-3
    )
    assert 2.0 * traj.cell_radius / traj.speed == 30.0
    for t in (0.0, 3.7, 11.2, 14.999, 29.5, 42.0):
        assert distance_at(t + 30.0, traj) == pytest.approx(distance_at(t, traj), rel=1e-9)


def test_distance_symmetry_within_cell(table1_traj):
    period = 2.0 * table1_traj.cell_radius / table1_traj.speed
    for t in (0.5, 4.2, 9.9, 14.0):
        assert distance_at(t, table1_traj) == pytest.approx(
            distance_at(period - t, table1_traj), rel=1e-9
        )


def test_distance_range(table1_traj):
    lo, hi = 30.0, math.sqrt(1500.0**2 + 30.0**2)
    for k in range(0, 30000, 97):
        d = distance_at(k * 1e-3, table1_traj)
        assert lo <= d <= hi + 1e-9


def test_distance_domain_errors(table1_traj):
    with pytest.raises(ValueError):
        distance_at(-0.1, table1_traj)
    with pytest.raises(ValueError):
        distance_at(30.1, table1_traj)


def test_breakpoint_distance(table1_radio):
    # 4 * 50 * 5 * 2.4e9 / 3e8
    assert table1_radio.breakpoint_distance == pytest.approx(8000.0, abs=1e-6)


def test_path_loss_first_branch(table1_radio):
    expected = 44.2 + 21.5 * math.log10(30.0) + 20.0 * math.log10(2.4e9 / 5e9)
    got = path_loss_db(30.0, table1_radio)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(69.58293172398449, abs=1e-9)


def test_path_loss_at_breakpoint_boundary(table1_radio):
    # second branch with zero distance ratio: 44.2 + L_bp + L
    d_bp = table1_radio.breakpoint_distance
    expected = 44.2 + table1_radio.breakpoint_loss_db + table1_radio.freq_offset_db
    assert path_loss_db(d_bp, table1_radio) == pytest.approx(expected, abs=1e-12)
    assert path_loss_db(d_bp, table1_radio) == pytest.approx(121.74125946783853, abs=1e-9)


def test_path_loss_domain_error(table1_radio):
    with pytest.raises(ValueError):
        path_loss_db(0.0, table1_radio)
    with pytest.raises(ValueError):
        path_loss_db(-5.0, table1_radio)


def test_snr_values(table1_traj, table1_radio):
    assert snr_db(0.0, table1_traj, table1_radio) == pytest.approx(45.41706827601551, abs=1e-9)
    assert snr_db(15.0, table1_traj, table1_radio) == pytest.approx(8.887346089912612, abs=1e-9)


def test_snr_monotone_decreasing_first_half(table1_traj, table1_radio):
    previous = None
    for k in range(0, 15001, 250):
        s = snr_db(k * 1e-3, table1_traj, table1_radio)
        if previous is not None:
            assert s < previous
        previous = s


def test_rate_equals_bandwidth_at_zero_snr(table1_traj, table1_radio):
    # tx power tuned so the SNR at t=0 is exactly 0 dB
    radio = RadioConfig(
        carrier_freq=table1_radio.carrier_freq,
        bs_antenna_height=table1_radio.bs_antenna_height,
        rs_antenna_height=table1_radio.rs_antenna_height,
        tx_power_over_noise=path_loss_db(30.0, table1_radio),
        bandwidth=table1_radio.bandwidth,
        packet_size=table1_radio.packet_size,
    )
    assert rate_bps(0.0, table1_traj, radio) == pytest.approx(radio.bandwidth, rel=1e-12)


def test_rate_values(table1_traj, table1_radio):
    assert rate_bps(0.0, table1_traj, table1_radio) == pytest.approx(150872649.533, rel=1e-9)
    assert rate_bps(15.0, table1_traj, table1_radio) == pytest.approx(31276145.9405, rel=1e-9)


def test_capacity_profile_values(table1_traj, table1_radio):
    caps = build_capacity_profile(table1_traj, table1_radio)
    assert len(caps) == 30000
    assert caps[0] == 301
    assert caps[15000] == 62
    assert frame_capacity(0, table1_traj, table1_radio) == 301


def test_capacity_zero_when_rate_below_packet(table1_traj, table1_radio):
    radio = RadioConfig(
        carrier_freq=table1_radio.carrier_freq,
        bs_antenna_height=table1_radio.bs_antenna_height,
        rs_antenna_height=table1_radio.rs_antenna_height,
        tx_power_over_noise=1e-6,
        bandwidth=table1_radio.bandwidth,
        packet_size=table1_radio.packet_size,
    )
    assert frame_capacity(15000, table1_traj, radio) == 0


def test_profile_unimodal_valley(table1_traj, table1_radio):
    caps = build_capacity_profile(table1_traj, table1_radio)
    edge = 15000
    assert caps[edge] == min(caps)
    for k in range(edge):
        assert caps[k] >= caps[k + 1]
    for k in range(edge, len(caps) - 1):
        assert caps[k] <= caps[k + 1]


def test_profile_symmetry(table1_traj, table1_radio):
    caps = build_capacity_profile(table1_traj, table1_radio)
    period = len(caps)
    for k in range(1, period):
        assert abs(caps[k] - caps[period - k]) <= 1


def test_default_profile_stays_below_breakpoint(table1_traj, table1_radio):
    max_distance = math.hypot(table1_traj.cell_radius, table1_traj.track_offset)
    assert max_distance < table1_radio.breakpoint_distance


def test_profile_periodic_across_cells(table1_radio):
    traj = TrajectoryConfig(
        speed=100.0, cell_radius=1500.0, track_offset=30.0, trip_duration=60.0, frame_length=1e-3
    )
    caps = build_capacity_profile(traj, table1_radio)
    period = 30000
    for k in range(0, period, 211):
        assert caps[k] == caps[k + period]


def test_capacity_profile_is_immutable_value(table1_traj, table1_radio):
    caps = build_capacity_profile(table1_traj, table1_radio)
    assert isinstance(caps, tuple)
    # a rate below one packet per frame floors to 0, never below
    assert min(caps) >= 0
    assert min(build_capacity_profile(table1_traj, replace(table1_radio, tx_power_over_noise=1e-6))) == 0


@pytest.mark.parametrize(
    "field",
    ["speed", "cell_radius", "track_offset", "trip_duration", "frame_length"],
)
def test_trajectory_validation(field):
    kwargs = dict(
        speed=100.0, cell_radius=1500.0, track_offset=30.0, trip_duration=30.0, frame_length=1e-3
    )
    kwargs[field] = 0.0
    with pytest.raises(ValueError):
        TrajectoryConfig(**kwargs)


def test_trip_shorter_than_frame_rejected():
    with pytest.raises(ValueError):
        TrajectoryConfig(
            speed=100.0, cell_radius=1500.0, track_offset=30.0, trip_duration=1e-4, frame_length=1e-3
        )


@pytest.mark.parametrize(
    "trip_duration, frame_length, frames",
    [(0.3, 0.1, 3), (2.3, 0.1, 23), (30.0, 0.001, 30000), (15.0, 0.001, 15000), (0.25, 0.1, 2)],
)
def test_num_frames_floors_the_decimal_quotient(trip_duration, frame_length, frames):
    # the float quotients are 2.9999999999999996 and 22.999999999999996
    traj = TrajectoryConfig(
        speed=100.0,
        cell_radius=1500.0,
        track_offset=30.0,
        trip_duration=trip_duration,
        frame_length=frame_length,
    )
    assert traj.num_frames == frames


def test_radio_validation():
    with pytest.raises(ValueError):
        RadioConfig(
            carrier_freq=2.4e9,
            bs_antenna_height=0.0,
            rs_antenna_height=5.0,
            tx_power_over_noise=115.0,
            bandwidth=1e7,
            packet_size=500.0,
        )
