"""Deterministic link model: train position, path loss, SNR, rate and per-frame capacity.

The train follows a known trajectory at constant speed along a line of equally
spaced cells, so the BS-to-RS distance (and everything derived from it) is a
deterministic, periodic function of trip time.  Capacity is expressed in whole
packets per scheduling frame.  The link functions take a scalar (giving a numpy
scalar) or an array, so a trip is evaluated as a few array chains over blocks
of frames.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s
# frames per block of the profile's array chain: on a 30,000-frame trip a
# fresh process's peak RSS grows 0.5-0.6 MiB over the build (1.6 MiB as one
# whole-trip chain) at the whole chain's speed; smaller blocks save little
# more and make the build slower
PROFILE_BLOCK_FRAMES = 4096


def _require_positive(config) -> None:
    """Every field of a config dataclass must be strictly positive and finite."""
    for f in fields(config):
        if not 0 < getattr(config, f.name) < math.inf:
            raise ValueError(f"{f.name} must be strictly positive and finite")


@dataclass(frozen=True)
class TrajectoryConfig:
    """Geometry and timing of the trip.

    speed: train speed in m/s
    cell_radius: half the BS spacing along the track, in meters
    track_offset: perpendicular BS-to-track distance, in meters
    trip_duration: total trip time in seconds
    frame_length: scheduling frame length in seconds
    """

    speed: float
    cell_radius: float
    track_offset: float
    trip_duration: float
    frame_length: float

    def __post_init__(self) -> None:
        _require_positive(self)
        if self.num_frames < 1:
            raise ValueError("trip shorter than one frame")

    @property
    def num_frames(self) -> int:
        """Whole frames in the trip, floored exactly from the decimal values
        as written (0.3 / 0.1 is 3 frames; the float quotient truncates to 2)."""
        duration, length = (Fraction(repr(float(x))) for x in (self.trip_duration, self.frame_length))
        return int(duration // length)


@dataclass(frozen=True)
class RadioConfig:
    """Physical-layer parameters of the BS-to-RS link.

    carrier_freq: Hz
    bs_antenna_height / rs_antenna_height: meters
    tx_power_over_noise: transmit power over noise floor, in dB
    bandwidth: Hz
    packet_size: bits per packet
    """

    carrier_freq: float
    bs_antenna_height: float
    rs_antenna_height: float
    tx_power_over_noise: float
    bandwidth: float
    packet_size: float

    def __post_init__(self) -> None:
        _require_positive(self)

    @property
    def breakpoint_distance(self) -> float:
        """Break point of the two-slope path-loss curve, in meters."""
        return 4.0 * self.bs_antenna_height * self.rs_antenna_height * self.carrier_freq / SPEED_OF_LIGHT

    @property
    def freq_offset_db(self) -> float:
        """Carrier-frequency correction term of the path-loss model."""
        return 20.0 * math.log10(self.carrier_freq / 5.0e9)

    @property
    def breakpoint_loss_db(self) -> float:
        return 21.5 * math.log10(self.breakpoint_distance)


def distance_at(t: float | np.ndarray, traj: TrajectoryConfig) -> float | np.ndarray:
    """BS-to-RS distance (m) at trip time t, periodic with the cell period."""
    t = np.asarray(t, dtype=float)
    outside = (t < 0) | (t > traj.trip_duration)
    if outside.any():
        raise ValueError(f"t={t[outside][0]} outside trip [0, {traj.trip_duration}]")
    r = traj.cell_radius
    # fmod is Python's % for t >= 0; past mid-cell the train nears the next BS
    s1 = np.fmod(traj.speed * t, 2.0 * r)
    return np.hypot(np.minimum(s1, 2.0 * r - s1), traj.track_offset)


def path_loss_db(d: float | np.ndarray, radio: RadioConfig) -> float | np.ndarray:
    """Two-slope path loss in dB at distance d meters."""
    d = np.asarray(d, dtype=float)
    if (d <= 0).any():
        raise ValueError(f"distance must be strictly positive, got {d[d <= 0][0]}")
    near = 44.2 + 21.5 * np.log10(d) + radio.freq_offset_db
    far = 44.2 + 40.0 * np.log10(d / radio.breakpoint_distance) + radio.breakpoint_loss_db + radio.freq_offset_db
    return np.where(d < radio.breakpoint_distance, near, far)[()]  # a 0-d result as a numpy scalar


def snr_db(t: float | np.ndarray, traj: TrajectoryConfig, radio: RadioConfig) -> float | np.ndarray:
    """Average received SNR in dB at trip time t (may be negative)."""
    return radio.tx_power_over_noise - path_loss_db(distance_at(t, traj), radio)


def rate_bps(t: float | np.ndarray, traj: TrajectoryConfig, radio: RadioConfig) -> float | np.ndarray:
    """Shannon rate in bit/s at trip time t.

    The SNR is converted from dB to linear before entering the capacity
    formula; feeding the dB value in directly would be dimensionally wrong.
    """
    gamma = 10.0 ** (snr_db(t, traj, radio) / 10.0)
    return radio.bandwidth * np.log2(1.0 + gamma)


def frame_capacity(k: int | np.ndarray, traj: TrajectoryConfig, radio: RadioConfig) -> int | np.ndarray:
    """Packets transmittable in frame k, sampled at the frame start instant."""
    k = np.asarray(k)
    with np.errstate(over="ignore"):  # an overflow is inf, rejected below
        packets = rate_bps(k * traj.frame_length, traj, radio) * traj.frame_length / radio.packet_size
    bad = ~(packets < 2.0**63)
    if bad.any():
        raise ValueError(f"frame {k[bad][0]}: link capacity must be in 0..{2**63 - 1} packets")
    return np.floor(packets).astype(np.int64)


@lru_cache(maxsize=16)
def build_capacity_profile(traj: TrajectoryConfig, radio: RadioConfig) -> tuple[int, ...]:
    """Capacity of every frame of the trip (length = traj.num_frames), the
    array chain evaluated ``PROFILE_BLOCK_FRAMES`` frames at a time, so its
    float temporaries stay small."""
    n = traj.num_frames
    starts = range(0, n, PROFILE_BLOCK_FRAMES)
    blocks = (frame_capacity(np.arange(s, min(s + PROFILE_BLOCK_FRAMES, n)), traj, radio).tolist() for s in starts)
    return tuple(itertools.chain.from_iterable(blocks))
