"""Each output check accepts a clean short run and rejects a planted fault.

    python3 -m pytest perfbench -q

Short runs (--frames) of the shipped two-service config, the benchmark's
three-service mix and a small fig3 grid are made once through the CLI; each
fault is planted in a copy of their outputs.
"""

import os
import shutil
import sys

import numpy as np
import pytest

import checks
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hsrsched import cli  # noqa: E402

FRAMES = 3000
WORK = os.path.join(ROOT, ".perfbench_out", "selftest")


@pytest.fixture(scope="module")
def runs():
    """Clean traces: {(mix, policy): (trace path, config path)}."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    sources = {"two": os.path.join(ROOT, workloads.TRIP_CONFIG), "mixed": workloads.MIXED_CONFIG}
    out = {}
    for mix, source in sources.items():
        for policy in checks.POLICIES:
            dest_cfg = os.path.join(WORK, f"{mix}_{policy}.ini")
            cfg = workloads.derive_config(source, dest_cfg, experiment={"scheduler": policy})
            dest = os.path.join(WORK, mix, policy)
            assert cli.main(["run", cfg, "--seed", "3", "--frames", str(FRAMES), "--out", dest]) == 0
            out[mix, policy] = (os.path.join(dest, "trace.csv"), cfg)
    return out


def _planted(trace, edit):
    """Copy of ``trace`` with ``edit(columns)`` applied, written as trace.csv."""
    with open(trace) as fh:
        head = [fh.readline(), fh.readline()]
    header = head[1].strip().split(",")
    data = np.loadtxt(trace, delimiter=",", skiprows=2, ndmin=2)
    cols = {name: data[:, i] for i, name in enumerate(header)}
    edit(cols)
    path = os.path.join(WORK, "planted.csv")
    with open(path, "w") as fh:
        fh.writelines(head)
        for k in range(len(data)):
            fh.write(",".join(f"{cols[name][k]:.9g}" for name in header) + "\n")
    return path


@pytest.mark.parametrize("mix", ["two", "mixed"])
@pytest.mark.parametrize("policy", checks.POLICIES)
def test_clean_run_passes(runs, mix, policy):
    trace, cfg = runs[mix, policy]
    errors, stats = checks.check_trace(trace, cfg, policy)
    assert errors == []
    assert stats["frames"] == FRAMES
    # the rewriter used by the planted-fault tests changes nothing by itself
    assert checks.check_trace(_planted(trace, lambda cols: None), cfg, policy)[0] == []


def _busy_frame(cols, sid="1"):
    return int(np.argmax(cols[f"served_s{sid}"] > 0))


FAULTS = {
    "changed drop count": (
        lambda c: c["drops_s1"].__setitem__(100, c["drops_s1"][100] + 1),
        "not conserved",
    ),
    "served above capacity": (
        lambda c: c["served_s1"].__setitem__(_busy_frame(c), c["capacity"][_busy_frame(c)] + 1),
        "above capacity",
    ),
    "bumped deficit": (
        lambda c: c["deficit_s1"].__setitem__(200, c["deficit_s1"][200] + 1),
        "recurrence gives",
    ),
    "changed capacity": (
        lambda c: c["capacity"].__setitem__(300, c["capacity"][300] + 1),
        "link model gives",
    ),
    "arrivals off their distribution": (
        lambda c: c["arrivals_s1"].__setitem__(slice(None), c["arrivals_s1"] + 3),
        "truncated-Poisson mean",
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("policy", checks.POLICIES)
def test_planted_fault_rejected(runs, fault, policy):
    edit, message = FAULTS[fault]
    trace, cfg = runs["mixed", policy]
    errors, _ = checks.check_trace(_planted(trace, edit), cfg, policy)
    assert any(message in e for e in errors), errors


def test_rr_out_of_turn_rejected(runs):
    trace, cfg = runs["two", "rr"]

    def edit(cols):
        k = _busy_frame(cols, "1")  # service 1's turn (even frame)
        cols["served_s2"][k] += 1
        cols["backlog_s2"][k] -= 1

    errors, _ = checks.check_trace(_planted(trace, edit), cfg, "rr")
    assert any("outside its turn" in e for e in errors), errors


@pytest.mark.parametrize("policy", ["rr", "edf"])
def test_idle_capacity_rejected(runs, policy):
    trace, cfg = runs["two", policy]

    def edit(cols):
        k = _busy_frame(cols, "1")
        cols["served_s1"][k] -= 1
        cols["backlog_s1"][k:] += 1  # keep the backlog conserved

    errors, _ = checks.check_trace(_planted(trace, edit), cfg, policy)
    assert any("idle" in e or "work-conserving" in e for e in errors), errors


def _verify(name, **extra):
    cfg = workloads.derive_config(workloads.MIXED_CONFIG, os.path.join(WORK, f"{name}.ini"), **extra)
    dest = os.path.join(WORK, name)
    code = cli.main(["verify", cfg, "--seed", "5", "--frames", str(FRAMES), "--out", dest])
    return code, os.path.join(dest, "verify_report.json")


def test_verify_clean_passes():
    code, report = _verify("verify_clean")
    assert checks.check_verify(report, code, FRAMES, 3, 1000) == []


def test_verify_injected_deficit_fault_detected():
    code, report = _verify("verify_fault", verify={"inject_fault": "deficit"})
    assert code == 3
    assert checks.check_verify(report, code, FRAMES, 3, 1000) != []


def test_verify_wrong_transition_count_rejected():
    code, report = _verify("verify_count")
    errors = checks.check_verify(report, code, FRAMES + 1, 3, 1000)
    assert any("transitions" in e for e in errors), errors


@pytest.fixture(scope="module")
def fig3():
    os.makedirs(WORK, exist_ok=True)
    cfg = workloads.derive_config(
        workloads.SWEEP_CONFIG, os.path.join(WORK, "fig3.ini"), sweep={"deadlines": "1,3", "lambdas": "90.0,130.0"}
    )
    dest = os.path.join(WORK, "fig3")
    assert cli.main(["fig3", cfg, "--seed", "2", "--frames", str(FRAMES), "--out", dest]) == 0
    return os.path.join(dest, "fig3.csv"), cfg


def _fig3_planted(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines = lines[:2] + edit(lines[2:])
    out = os.path.join(WORK, "fig3_planted.csv")
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return out


def test_fig3_clean_passes(fig3):
    csv, cfg = fig3
    assert checks.check_fig3(csv, cfg, FRAMES) == []
    assert checks.check_fig3(_fig3_planted(csv, lambda rows: rows), cfg, FRAMES) == []


def _set_ratio(rows, i, value):
    m, rate, _ = rows[i].split(",")
    rows[i] = f"{m},{rate},{value}"
    return rows


@pytest.mark.parametrize(
    "edit",
    [
        lambda rows: rows[::-1],
        lambda rows: rows[:-1],
        lambda rows: _set_ratio(rows, 1, 1.5),
        lambda rows: _set_ratio(rows, 0, float(rows[0].split(",")[2]) - 0.05),
    ],
    ids=["order", "missing row", "ratio above one", "deadline-1 ratio off"],
)
def test_fig3_planted_fault_rejected(fig3, edit):
    csv, cfg = fig3
    assert checks.check_fig3(_fig3_planted(csv, edit), cfg, FRAMES) != []
