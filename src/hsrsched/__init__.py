"""Deadline-constrained multi-service downlink scheduling over a deterministic
time-varying rail link: channel model, traffic, schedulers, frame engine,
verification checks and a CLI."""

from .analysis import (
    brute_force_lex_min_drops,
    brute_force_min_weighted_drops,
    check_lemma1,
    check_sample_drift,
    oracle_agreement,
)
from .channel import (
    RadioConfig,
    TrajectoryConfig,
    build_capacity_profile,
    distance_at,
    frame_capacity,
    path_loss_db,
    rate_bps,
    snr_db,
)
from .engine import ContractViolation, SimConfig, TraceLog, run
from .schedulers import allocate_cohorts, make_scheduler
from .traffic import ArrivalGenerator, ServiceSpec, truncated_poisson_pmf

__version__ = "0.1.0"

__all__ = [
    "ArrivalGenerator",
    "ContractViolation",
    "RadioConfig",
    "ServiceSpec",
    "SimConfig",
    "TraceLog",
    "TrajectoryConfig",
    "allocate_cohorts",
    "brute_force_lex_min_drops",
    "brute_force_min_weighted_drops",
    "build_capacity_profile",
    "check_lemma1",
    "check_sample_drift",
    "distance_at",
    "frame_capacity",
    "make_scheduler",
    "oracle_agreement",
    "path_loss_db",
    "rate_bps",
    "run",
    "snr_db",
    "truncated_poisson_pmf",
]
