"""Byte-for-byte regression of ``trace.csv`` and the summary text against
pinned hashes.

The hashes were taken from 2,000-frame runs of each policy, seed 42: those of
``trace.csv`` before the frame loop and the dcsa planner were rewritten for
speed, those of the summary text before it was read off the trace arrays
directly.  Any change to them must be a recorded defect fix, not a side
effect of a refactor.
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
    ServiceSpec(arrival_rate=20.0, deadline=2, delivery_ratio=0.95),
    ServiceSpec(arrival_rate=40.0, deadline=5, delivery_ratio=0.90),
    ServiceSpec(arrival_rate=50.0, deadline=10, delivery_ratio=0.80),
)

EXPECTED_SHA256 = {
    ("table1_fig2", "dcsa"): "8ed7411aeb44201cebbeb1b63a9eb4ffcf63965609dd2ef757b248b81956754d",
    ("table1_fig2", "rr"): "946665c9dddfeea0277f559cd3567b103604e4695f6f729565df1b7613a53c87",
    ("table1_fig2", "edf"): "3263b29128b156a5ea47083dcb747b4743bf9c8a82f9c3dc35fc081d84c82729",
    ("mixed", "dcsa"): "8c05e9a8c528e41cb6f532e1c7b1b3b67ab3984486eed4c1f07d44678364d4be",
    ("mixed", "rr"): "94a53225314ba77345c0a8e36002a0240928ecc40a9dc6d1575efddeb9a6b3ce",
    ("mixed", "edf"): "8c05e9a8c528e41cb6f532e1c7b1b3b67ab3984486eed4c1f07d44678364d4be",
}

SUMMARY_SHA256 = {
    ("table1_fig2", "dcsa"): "08b31fb6d5553bc3216264573b335073cb25ea082b25f24f5326ceb549105555",
    ("table1_fig2", "rr"): "88929658940675683995b2ded38ef7d8c5a72f42ec5e38f0b566ae03c9f5b8d7",
    ("table1_fig2", "edf"): "e3d51f380acf89d3db6a887798fa2753656ae0627211b8487c1d7eff7ff0eca9",
    ("mixed", "dcsa"): "439531b7fbd037f8d88b9ce09c59644c19dae3062e1dd5044399ee08233d05f4",
    ("mixed", "rr"): "d873d2a1b27618773f3832f94ff3a9075f5a6ed90bf31201d7b3f1be617457f4",
    ("mixed", "edf"): "9aafb1837b836db6f21121f19a0ebc8c5603f417a7cebf724a4ef8ddd740f6d9",
}


def _sim(mix, policy):
    sim = replace(parse_config(DEFAULT_CONFIG).sim, scheduler=policy, seed=42, num_frames=2000)
    return replace(sim, services=MIXED_SERVICES) if mix == "mixed" else sim


@pytest.mark.parametrize("mix,policy", sorted(EXPECTED_SHA256))
def test_trace_csv_bytes_pinned(mix, policy, tmp_path):
    path = tmp_path / "trace.csv"
    run(_sim(mix, policy)).to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPECTED_SHA256[mix, policy]


@pytest.mark.parametrize("mix,policy", sorted(SUMMARY_SHA256))
def test_summary_text_bytes_pinned(mix, policy):
    text = run(_sim(mix, policy)).summary_text()
    assert hashlib.sha256(text.encode()).hexdigest() == SUMMARY_SHA256[mix, policy]
