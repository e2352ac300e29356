"""Byte-for-byte regression of ``trace.csv`` against pinned hashes.

The hashes were taken from 2,000-frame runs of each policy, seed 42, before
the frame loop and the dcsa planner were rewritten for speed.  Any change to
them must be a recorded defect fix, not a side effect of a refactor.
"""

import hashlib
import os
from dataclasses import replace

import pytest

from hsrsched import ServiceSpec, run
from hsrsched.cli import parse_config

DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "table1_fig2.ini")

# the shipped link with three services of deadlines 2, 5 and 10
MIXED_SERVICES = (
    ServiceSpec(service_id=1, arrival_rate=20.0, deadline=2, delivery_ratio=0.95),
    ServiceSpec(service_id=2, arrival_rate=40.0, deadline=5, delivery_ratio=0.90),
    ServiceSpec(service_id=3, arrival_rate=50.0, deadline=10, delivery_ratio=0.80),
)

EXPECTED_SHA256 = {
    ("table1_fig2", "dcsa"): "8ed7411aeb44201cebbeb1b63a9eb4ffcf63965609dd2ef757b248b81956754d",
    ("table1_fig2", "rr"): "946665c9dddfeea0277f559cd3567b103604e4695f6f729565df1b7613a53c87",
    ("table1_fig2", "edf"): "3263b29128b156a5ea47083dcb747b4743bf9c8a82f9c3dc35fc081d84c82729",
    ("mixed", "dcsa"): "8c05e9a8c528e41cb6f532e1c7b1b3b67ab3984486eed4c1f07d44678364d4be",
    ("mixed", "rr"): "94a53225314ba77345c0a8e36002a0240928ecc40a9dc6d1575efddeb9a6b3ce",
    ("mixed", "edf"): "8c05e9a8c528e41cb6f532e1c7b1b3b67ab3984486eed4c1f07d44678364d4be",
}


@pytest.mark.parametrize("mix,policy", sorted(EXPECTED_SHA256))
def test_trace_csv_bytes_pinned(mix, policy, tmp_path):
    sim = replace(parse_config(DEFAULT_CONFIG).sim, scheduler=policy, seed=42, num_frames=2000)
    if mix == "mixed":
        sim = replace(sim, services=MIXED_SERVICES)
    path = tmp_path / "trace.csv"
    run(sim).to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPECTED_SHA256[mix, policy]
