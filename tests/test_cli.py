import hashlib
import json
import logging
import os
import re
import subprocess
import sys
import threading
from dataclasses import fields, replace

import pytest

from hsrsched import RadioConfig, ServiceSpec, SimConfig, TrajectoryConfig, run, schedulers, traffic
from hsrsched.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VERIFY,
    FIG2_PLOT_FRAMES,
    ConfigError,
    fig3_rows,
    main,
    parse_config,
    serialize_config,
)
from hsrsched.engine import PROGRESS_LINES

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
REPO_CONFIGS = os.path.join(REPO, "configs")
DEFAULT_CONFIG = os.path.join(REPO_CONFIGS, "table1_fig2.ini")
FIG3_CONFIG = os.path.join(REPO_CONFIGS, "fig3.ini")
SWEEP_CONFIG = os.path.join(REPO, "perfbench", "configs", "sweep.ini")
# bound on every wait for a fig3 sweep
POOL_TIMEOUT_S = 120


def _write_small_fig3(tmp_path, frames=1500, seeds=1, lambdas="250.0,400.0"):
    text = f"""
[experiment]
kind = fig3
scheduler = dcsa
seed = 3
num_frames = {frames}
output_dir = out

[trajectory]
speed = 100.0
cell_radius = 1500.0
track_offset = 30.0
trip_duration = 30.0
frame_length = 0.001

[radio]
carrier_freq = 2.4e9
bs_antenna_height = 50.0
rs_antenna_height = 5.0
tx_power_over_noise = 115.0
bandwidth = 1.0e7
packet_size = 500.0

[service.1]
lambda = 120.0
deadline = 4
delivery_ratio = 0.9

[sweep]
deadlines = 1,3
lambdas = {lambdas}
seeds_per_point = {seeds}
"""
    path = tmp_path / "fig3_small.ini"
    path.write_text(text)
    return str(path)


def test_missing_config_file_exits_one(capsys, tmp_path):
    rc = main(["run", str(tmp_path / "nope.ini")])
    assert rc == EXIT_CONFIG
    assert "config not found" in capsys.readouterr().err


def test_parse_default_config():
    cfg = parse_config(DEFAULT_CONFIG)
    assert cfg.kind == "fig2"
    assert cfg.sim.seed == 42
    assert cfg.sim.scheduler == "dcsa"
    assert len(cfg.sim.services) == 2
    assert cfg.sim.services[0].arrival_rate == 100.0
    assert cfg.sim.trajectory.num_frames == 30000
    assert cfg.oracle_instances == 200


def test_config_roundtrip_identity(tmp_path):
    for source in (DEFAULT_CONFIG, FIG3_CONFIG):
        cfg = parse_config(source)
        rewritten = tmp_path / "rt.ini"
        rewritten.write_text(serialize_config(cfg))
        assert parse_config(str(rewritten)) == cfg


def test_parse_rejects_bad_values(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nkind = fig9\n")
    with pytest.raises(ConfigError):
        parse_config(str(bad))
    bad.write_text("[experiment]\nkind = single\n[trajectory]\nspeed = fast\n")
    with pytest.raises(ConfigError):
        parse_config(str(bad))


def test_fig2_kind_requires_two_services(tmp_path):
    cfg = parse_config(DEFAULT_CONFIG)
    text, dropped = re.subn(r"^\[service\.2\]\n(?:.+\n)*", "", serialize_config(cfg), flags=re.M)
    assert dropped == 1
    path = tmp_path / "one.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match="fig2 experiments need exactly two services"):
        parse_config(str(path))


@pytest.mark.parametrize(
    "section, line, name",
    [
        ("experiment", "num_frame = 10", "num_frame"),
        ("sweep", "seeds_per_pont = 1", "seeds_per_pont"),
        ("service.1", "tail_esp = 1e-3", "tail_esp"),
        ("verfy", "oracle_instances = 3", "verfy"),
        ("DEFAULT", "seed = 3", "DEFAULT"),
    ],
)
def test_unknown_key_or_section_is_a_config_error(section, line, name, tmp_path, capsys):
    with open(FIG3_CONFIG) as fh:
        text = fh.read()
    header = f"[{section}]\n"
    text = text.replace(header, header + line + "\n") if header in text else text + header + line + "\n"
    path = tmp_path / "typo.ini"
    path.write_text(text)
    out = tmp_path / "f3"
    rc = main(["fig3", str(path), "--frames", "10", "--out", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert not out.exists()


FLOAT_KEYS = [f.name for cls in (TrajectoryConfig, RadioConfig) for f in fields(cls)] + [
    "lambda",
    "delivery_ratio",
    "tail_eps",
    "lambdas",
]


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_is_a_config_error(key, value, tmp_path, capsys):
    text = serialize_config(parse_config(FIG3_CONFIG))
    text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert count == 1
    path = tmp_path / "inf.ini"
    path.write_text(text)
    out = tmp_path / "x"
    rc = main(["run", str(path), "--frames", "10", "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_percent_in_a_value_is_literal(tmp_path, monkeypatch):
    path = tmp_path / "pct.ini"
    text = serialize_config(parse_config(DEFAULT_CONFIG)).replace("output_dir = out", "output_dir = out%x")
    path.write_text(text)
    monkeypatch.chdir(tmp_path)
    assert parse_config(str(path)).output_dir == "out%x"
    assert main(["run", str(path), "--frames", "10"]) == EXIT_OK
    assert (tmp_path / "out%x" / "trace.csv").exists()


def test_cmd_run_outputs_and_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["run", DEFAULT_CONFIG, "--frames", "1200", "--out", "o1"])
    assert rc == EXIT_OK
    rc = main(["run", DEFAULT_CONFIG, "--frames", "1200", "--out", "o2"])
    assert rc == EXIT_OK
    t1 = (tmp_path / "o1" / "trace.csv").read_bytes()
    t2 = (tmp_path / "o2" / "trace.csv").read_bytes()
    assert t1 == t2
    lines = t1.decode().splitlines()
    assert lines[0] == "# schema=1"
    assert len(lines) == 2 + 1200
    assert (tmp_path / "o1" / "summary.txt").exists()
    # nothing outside the output directories
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o1", "o2"]


def test_cmd_run_seed_override_changes_trace(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", DEFAULT_CONFIG, "--frames", "600", "--out", out1]) == EXIT_OK
    assert main(["run", DEFAULT_CONFIG, "--frames", "600", "--out", out2, "--seed", "43"]) == EXIT_OK
    assert (tmp_path / "a" / "trace.csv").read_bytes() != (tmp_path / "b" / "trace.csv").read_bytes()


def test_cmd_fig2_emits_three_curves(tmp_path):
    out = str(tmp_path / "fig2")
    rc = main(["fig2", DEFAULT_CONFIG, "--frames", "1500", "--out", out])
    assert rc == EXIT_OK
    for policy in ("dcsa", "rr", "edf"):
        lines = (tmp_path / "fig2" / f"fig2_{policy}.csv").read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1] == "frame,deficit_s1,deficit_s2"
        # every second frame of 1500, plus the last, frame 1499
        assert len(lines) == 2 + 751
        assert (tmp_path / "fig2" / f"summary_{policy}.txt").exists()
    summary = json.loads((tmp_path / "fig2" / "fig2_summary.json").read_text())
    assert set(summary) == {"dcsa", "rr", "edf"}
    assert "max_deficit_gap" in summary["dcsa"]


def test_fig2_shipped_config_plots_the_whole_trip(tmp_path):
    # configs/table1_fig2.ini at its seed 42: no policy drops a packet in the
    # trip's first second, so only the whole trip tells the policies apart
    out = tmp_path / "fig2"
    assert main(["fig2", DEFAULT_CONFIG, "--out", str(out)]) == EXIT_OK
    finals = json.loads((out / "fig2_summary.json").read_text())
    data = {policy: (out / f"fig2_{policy}.csv").read_bytes() for policy in ("dcsa", "rr", "edf")}
    assert len(set(data.values())) == 3
    for policy, text in data.items():
        rows = text.decode().splitlines()[2:]
        assert len(rows) <= FIG2_PLOT_FRAMES + 1
        final = finals[policy]
        assert rows[-1] == f"29999,{final['final_deficit_s1']:.9g},{final['final_deficit_s2']:.9g}"
    assert {policy: hashlib.sha256(text).hexdigest() for policy, text in data.items()} == {
        "dcsa": "d4248ec1466a53150963ea1cd7b7c08d6d087fc78073e9c1791691efc2586118",
        "rr": "bc20cfe2e1586a016ac8368ec183814a28115bfdc3505e291fd2295a0470819a",
        "edf": "0119f6a6cb5feea24dbf468cf74d910d0b782fe2b331f3897c8ec70126b433d4",
    }
    # the summaries' digests were taken before the summary text was read off
    # the trace arrays directly
    summaries = {policy: (out / f"summary_{policy}.txt").read_bytes() for policy in ("dcsa", "rr", "edf")}
    assert {policy: hashlib.sha256(text).hexdigest() for policy, text in summaries.items()} == {
        "dcsa": "4d704aba7121c07c2fec9121d9ca2b6ba316112873fa0edab3c027a428d080ec",
        "rr": "5c01a3c17c134fa2a469b1791ba6a432fedf61dc8791ecb27d273e27c3ef2d1a",
        "edf": "6aa387af6210e03645bf824dc1174080b61e23d94512851e9dae157bf6124f0d",
    }


def test_cmd_fig3_grid_rows(tmp_path):
    config = _write_small_fig3(tmp_path)
    out = str(tmp_path / "f3")
    rc = main(["fig3", config, "--out", out])
    assert rc == EXIT_OK
    lines = (tmp_path / "f3" / "fig3.csv").read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "m,lambda,delivery_ratio"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 4  # 2 deadlines x 2 rates
    for m, rate, ratio in rows:
        assert 0.0 <= float(ratio) <= 1.0
    # saturated rates keep the link overloaded: longer lifetime helps
    by_rate = {}
    for m, rate, ratio in rows:
        by_rate.setdefault(float(rate), {})[int(m)] = float(ratio)
    for series in by_rate.values():
        assert series[3] >= series[1] - 1e-12


def test_fig3_row_is_mean_of_standalone_runs(tmp_path):
    cfg = parse_config(_write_small_fig3(tmp_path, seeds=2))
    rows = fig3_rows(cfg)
    assert [row[:2] for row in rows] == [(1, 250.0), (3, 250.0), (1, 400.0), (3, 400.0)]
    # rate index p = 1, deadline 3: replicate rep runs at seed (3 ^ 1) + rep
    m, rate, ratio = rows[3]
    total = 0.0
    for rep in range(2):
        spec = ServiceSpec(arrival_rate=rate, deadline=m, delivery_ratio=0.9)
        sim = SimConfig(
            trajectory=cfg.sim.trajectory,
            radio=cfg.sim.radio,
            services=(spec,),
            seed=(3 ^ 1) + rep,
            num_frames=1500,
        )
        total += run(sim).delivery_ratios()[0]
    assert ratio == total / 2


def _with_timeout(fn, *args):
    """fn(*args) in a daemon thread, failing the test if it outlasts
    POOL_TIMEOUT_S; returns ("value", result) or ("error", exception)."""
    box = []

    def target():
        try:
            box.append(("value", fn(*args)))
        except BaseException as exc:  # handed to the test thread
            box.append(("error", exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(POOL_TIMEOUT_S)
    assert not thread.is_alive(), f"still running after {POOL_TIMEOUT_S} s"
    return box[0]


def _fig3_bytes(config, out, *extra):
    kind, rc = _with_timeout(main, ["fig3", config, "--out", str(out), *extra])
    assert (kind, rc) == ("value", EXIT_OK)
    return (out / "fig3.csv").read_bytes()


def test_fig3_sweep_config_bytes_pinned(tmp_path):
    # perfbench/configs/sweep.ini at seed 7: four full trips; the digest was
    # taken from the serial sweep before the trips ran in a worker pool
    data = _fig3_bytes(SWEEP_CONFIG, tmp_path / "sweep", "--seed", "7")
    assert hashlib.sha256(data).hexdigest() == (
        "1fbc5a0e3fd9cb380e0d53337b6661f5a58e0dfde4f97b05b20b65ce705a2c8a"
    )


def test_fig3_full_grid_bytes_pinned(tmp_path):
    # configs/fig3.ini at its seed 7: deadlines 1-10, both rates, 100 trips;
    # the digest was taken from the bucket-array sweep that the departure
    # recursion replaced
    data = _fig3_bytes(FIG3_CONFIG, tmp_path / "grid")
    assert hashlib.sha256(data).hexdigest() == (
        "ff465ed26747aac9acc9a05fef833eb21d3963860f48d6b9814a004c3d26d4ad"
    )


def test_fig3_trip_without_arrivals_raises(tmp_path):
    # rate 1e-4 over 5 frames draws no arrivals
    cfg = parse_config(_write_small_fig3(tmp_path, frames=5, seeds=3, lambdas="0.0001,250.0"))
    with pytest.raises(RuntimeError, match="^no arrivals in fig3 run at m=1 lambda=0.0001;"):
        fig3_rows(cfg)


def test_fig3_trip_without_arrivals_exits_two(tmp_path, capsys):
    config = _write_small_fig3(tmp_path, frames=5, lambdas="0.0001,250.0")
    out = tmp_path / "f3"
    assert main(["fig3", config, "--out", str(out)]) == EXIT_RUNTIME
    assert "runtime error: RuntimeError: no arrivals" in capsys.readouterr().err
    assert not (out / "fig3.csv").exists()


def test_fig3_logs_one_progress_line_per_point(tmp_path, caplog):
    # a full 30000-frame trip is 59 arrival chunks of 512 frames
    cfg = parse_config(_write_small_fig3(tmp_path, frames=30000, seeds=2))
    with caplog.at_level(logging.INFO, logger="hsrsched"):
        kind, rows = _with_timeout(fig3_rows, cfg)
    assert kind == "value"
    messages = [r.getMessage() for r in caplog.records]
    progress = [m for m in messages if m.startswith("8 lockstep trips")]
    assert len(progress) == PROGRESS_LINES
    done = []
    for line in progress:
        match = re.fullmatch(r"8 lockstep trips: frame (\d+)/30000, \S+ s elapsed, ETA \S+ s", line)
        assert match, line
        done.append(int(match.group(1)))
    assert done == [3072 * i for i in range(1, 10)] + [30000]
    assert progress[-1].endswith("ETA 0.0 s")
    points = [m for m in messages if m.startswith("fig3 point")]
    assert len(points) == len(rows) == 4
    for i, (line, (m, rate, ratio)) in enumerate(zip(points, rows), 1):
        assert line == f"fig3 point {i}/4: m={m} lambda={rate:g} delivery_ratio={ratio:.9g}"
    # the loop's progress comes first, then one line per point
    assert messages.index(points[0]) > messages.index(progress[-1])


def test_fig3_prints_nothing_at_default_log_level(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "HSRSCHED_LOG"}
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    config = _write_small_fig3(tmp_path, frames=200)
    proc = subprocess.run(
        [sys.executable, "-m", "hsrsched.cli", "fig3", config, "--out", str(tmp_path / "f3")],
        capture_output=True, text=True, env=env, timeout=POOL_TIMEOUT_S,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == proc.stderr == ""


def test_fig3_rows_rejects_empty_grid(tmp_path):
    cfg = parse_config(_write_small_fig3(tmp_path))
    with pytest.raises(ConfigError):
        fig3_rows(replace(cfg, sweep_deadlines=()))
    with pytest.raises(ConfigError):
        fig3_rows(replace(cfg, sweep_rates=()))


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    out = str(tmp_path / "x")
    rc = main(["run", DEFAULT_CONFIG, "--frames", "10", "--seed", "-1", "--out", out])
    assert rc == EXIT_CONFIG
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_negative_seed_key_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "neg.ini"
    path.write_text(serialize_config(parse_config(DEFAULT_CONFIG)).replace("seed = 42", "seed = -1"))
    rc = main(["run", str(path), "--frames", "10", "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    assert "seed must be non-negative" in capsys.readouterr().err


def test_cmd_fig3_rejects_two_service_config():
    rc = main(["fig3", DEFAULT_CONFIG, "--out", "unused"])
    assert rc == EXIT_CONFIG


def test_cmd_fig2_rejects_single_service_config():
    rc = main(["fig2", FIG3_CONFIG, "--out", "unused"])
    assert rc == EXIT_CONFIG


def test_cmd_verify_checks_pass_without_oracle(tmp_path):
    cfg_path = tmp_path / "verify.ini"
    base = parse_config(DEFAULT_CONFIG)
    text = serialize_config(base).replace("oracle_instances = 200", "oracle_instances = 0")
    cfg_path.write_text(text)
    out = str(tmp_path / "v")
    rc = main(["verify", str(cfg_path), "--frames", "2500", "--out", out])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert report["passed"] is True
    checks = {(c["check"], c.get("scheduler")) for c in report["checks"]}
    assert ("sample_drift", "dcsa") in checks
    assert ("lemma1", "edf") in checks


def test_verify_report_key_sets_are_pinned(tmp_path):
    # a field added to or dropped from a check's report must change this test
    rc, report = _verify_with_fault(tmp_path, "50", verify="oracle_instances = 3")
    assert rc == EXIT_OK
    assert set(report) == {"passed", "checks"}
    keys = {}
    for c in report["checks"]:
        keys.setdefault(c["check"], set()).add(" ".join(sorted(c)))
    assert keys == {
        "sample_drift": {
            "check max_violation passed scheduler transitions_checked worst_frame worst_service"
        },
        "lemma1": {"check passed scheduler services"},
        "oracle_agreement": {"check first_mismatch lex_agreed passed total weighted_agreed"},
    }
    services = {" ".join(sorted(s)) for c in report["checks"] if c["check"] == "lemma1" for s in c["services"]}
    assert services == {
        "final_deficit_per_frame loss_allowance max_prefix_violation mean_drops "
        "prefix_ok rate_stable service_id worst_prefix_frame"
    }


def test_unknown_scheduler_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "sched.ini"
    text = serialize_config(parse_config(DEFAULT_CONFIG))
    path.write_text(text.replace("scheduler = dcsa", "scheduler = fifo"))
    out = tmp_path / "x"
    rc = main(["run", str(path), "--frames", "10", "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "error: unknown scheduler 'fifo'" in capsys.readouterr().err
    assert not out.exists()


def test_negative_oracle_instances_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "neg.ini"
    text = serialize_config(parse_config(DEFAULT_CONFIG))
    path.write_text(text.replace("oracle_instances = 200", "oracle_instances = -5"))
    out = tmp_path / "v"
    rc = main(["verify", str(path), "--frames", "100", "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "error: oracle_instances must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("deadlines", "1,0", "deadline must be at least one frame"),
        ("lambdas", "90.0,-1", "arrival_rate must be strictly positive"),
    ],
)
def test_bad_fig3_grid_point_is_a_config_error(key, value, message, tmp_path, capsys):
    path = tmp_path / "grid.ini"
    text = serialize_config(parse_config(FIG3_CONFIG))
    path.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M))
    out = tmp_path / "f3"
    rc = main(["fig3", str(path), "--out", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def _verify_with_fault(tmp_path, frames, verify="oracle_instances = 0\ninject_fault = deficit"):
    """Exit code and report of ``verify`` on the default config, over
    ``frames`` (the whole trip if None), with ``inject_fault = deficit`` and no
    oracle instances unless ``verify`` replaces that section."""
    cfg_path = tmp_path / "verify.ini"
    base = parse_config(DEFAULT_CONFIG)
    cfg_path.write_text(serialize_config(base).replace("oracle_instances = 200", verify))
    frame_args = [] if frames is None else ["--frames", frames]
    rc = main(["verify", str(cfg_path), *frame_args, "--out", str(tmp_path / "v")])
    return rc, json.loads((tmp_path / "v" / "verify_report.json").read_text())


def test_cmd_verify_fault_injection_fails(tmp_path):
    rc, report = _verify_with_fault(tmp_path, "400")
    assert rc == EXIT_VERIFY
    assert report["passed"] is False


def test_cmd_verify_fault_injection_fails_on_one_frame(tmp_path):
    # frame num_frames // 2 of a one-frame run is frame 0
    rc, report = _verify_with_fault(tmp_path, "1")
    assert rc == EXIT_VERIFY
    drift = [c for c in report["checks"] if c["check"] == "sample_drift"]
    assert len(drift) == 3
    assert all(c["passed"] is False and c["worst_frame"] == 0 for c in drift)


@pytest.mark.parametrize("frames, k", [("1", 0), ("400", 200), (None, 15000)])
def test_cmd_verify_fault_trips_both_checks_and_prints_witnesses(tmp_path, capsys, frames, k):
    # the hook drives service 1's counter at frame num_frames // 2 negative
    rc, report = _verify_with_fault(tmp_path, frames)
    assert rc == EXIT_VERIFY
    drift = [c for c in report["checks"] if c["check"] == "sample_drift"]
    lemma1 = [c for c in report["checks"] if c["check"] == "lemma1"]
    assert len(drift) == len(lemma1) == 3
    assert all(not c["passed"] and (c["worst_frame"], c["worst_service"]) == (k, 1) for c in drift)
    assert all(not c["passed"] and c["services"][0]["worst_prefix_frame"] == k for c in lemma1)
    out = capsys.readouterr().out
    for policy in ("dcsa", "rr", "edf"):
        assert f"FAIL sample_drift [{policy}]\nFAIL sample_drift: " in out
        assert f"FAIL lemma1 [{policy}]\nFAIL lemma1\n" in out
    assert out.count(f"  worst at frame {k}, service 1\n") == 3
    assert out.count(f"    worst prefix at frame {k}\n") == 3
    assert "first mismatch" not in out


def test_cmd_verify_prints_the_first_oracle_mismatch(tmp_path, capsys, monkeypatch):
    # a planner that grants nothing disagrees with the oracle wherever
    # capacity is free
    def grant_nothing(order, rows, available):
        return {key: [0] * len(rows[key]) for key in order}

    monkeypatch.setattr(schedulers, "allocate_cohorts", grant_nothing)
    rc, report = _verify_with_fault(tmp_path, "1", verify="oracle_instances = 20")
    assert rc == EXIT_VERIFY
    first = report["checks"][-1]["first_mismatch"]
    out = capsys.readouterr().out
    assert "PASS sample_drift [dcsa]\nPASS lemma1 [dcsa]\n" in out
    line = out.splitlines()[-1]
    assert line.startswith("  first mismatch: {'order': ")
    for key in ("order", "rows", "available", "weights"):
        assert f"'{key}': " in line
    assert f"'available': {tuple(first['available'])}" in line


def test_unknown_log_level_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HSRSCHED_LOG", "verbose")
    out = tmp_path / "out"
    rc = main(["run", DEFAULT_CONFIG, "--frames", "10", "--out", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "HSRSCHED_LOG" in err and "Traceback" not in err
    assert not out.exists()


def test_cmd_verify_default_config_passes(tmp_path):
    # full default config: lemma checks on all three schedulers plus the
    # 200-instance scheduling oracle
    out = str(tmp_path / "v")
    rc = main(["verify", DEFAULT_CONFIG, "--frames", "3000", "--out", out])
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert rc == EXIT_OK, report
    assert report["passed"] is True
    (oracle,) = [c for c in report["checks"] if c["check"] == "oracle_agreement"]
    assert oracle["lex_agreed"] == oracle["weighted_agreed"] == oracle["total"] == 200
    assert oracle["first_mismatch"] is None


def test_runtime_error_exit_code(tmp_path):
    # output path collides with an existing file
    blocker = tmp_path / "out"
    blocker.write_text("in the way")
    rc = main(["run", DEFAULT_CONFIG, "--frames", "10", "--out", str(blocker)])
    assert rc == EXIT_RUNTIME


@pytest.mark.parametrize("command", ["run", "fig2", "fig3", "verify"])
def test_zero_frames_is_a_config_error(command, tmp_path, capsys):
    config = FIG3_CONFIG if command == "fig3" else DEFAULT_CONFIG
    out = tmp_path / "x"
    rc = main([command, config, "--frames", "0", "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert "num_frames must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_frames_override_validation(tmp_path):
    rc = main(["run", DEFAULT_CONFIG, "--frames", "99999", "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG


def test_overrides_check_the_sweep_grid_once(tmp_path, monkeypatch):
    cfg = parse_config(FIG3_CONFIG)
    points = len(cfg.sweep_rates) * len(cfg.sweep_deadlines)
    walks = []
    pmf = traffic.truncated_poisson_pmf
    monkeypatch.setattr(traffic, "truncated_poisson_pmf", lambda *args: walks.append(args) or pmf(*args))
    assert main(["fig3", FIG3_CONFIG, "--frames", "50", "--seed", "7", "--out", str(tmp_path / "f3")]) == EXIT_OK
    # each ServiceSpec walks its pmf once: the base service, one per grid
    # point the config checks, one per trip
    assert len(walks) == 1 + points + points * cfg.seeds_per_point


def test_capacity_override_beyond_int64_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cap.ini"
    text = serialize_config(parse_config(DEFAULT_CONFIG))
    path.write_text(text.replace("[experiment]\n", "[experiment]\ncapacity_override = 100000000000000000000\n"))
    out = tmp_path / "x"
    assert main(["run", str(path), "--frames", "10", "--out", str(out)]) == EXIT_CONFIG
    assert "capacity_override must be in 0..9223372036854775807" in capsys.readouterr().err
    assert not out.exists()


MIXED_CONFIG = os.path.join(REPO, "perfbench", "configs", "mixed.ini")
SERVICE_BODY = "lambda = 20.0\ndeadline = 2\ndelivery_ratio = 0.95\n"


@pytest.mark.parametrize(
    "sections, message",
    [
        (["service.1", "service.3"], "service ids must be 1..2 (got [1, 3])"),
        (["service.0", "service.1"], "service ids must be 1..2 (got [0, 1])"),
        (["service.1", "service.01"], "service ids must be 1..2 (got [1, 1])"),
        (["service.x"], "bad service section name [service.x]"),
        ([], "at least one service required"),
    ],
)
def test_service_section_ids_are_checked_by_the_parser(sections, message, tmp_path, capsys):
    text = re.sub(r"^\[service\.\d+\]\n(?:.+\n)*", "", serialize_config(parse_config(MIXED_CONFIG)), flags=re.M)
    path = tmp_path / "ids.ini"
    path.write_text(text + "".join(f"\n[{name}]\n{SERVICE_BODY}" for name in sections))
    out = tmp_path / "x"
    assert main(["run", str(path), "--frames", "10", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_service_sections_are_taken_in_id_order(tmp_path):
    with open(MIXED_CONFIG) as fh:
        text = fh.read()
    block = re.search(r"^\[service\.3\]\n(?:.+\n)*\n", text, flags=re.M).group(0)
    path = tmp_path / "reordered.ini"
    path.write_text(text.replace(block, "").replace("[service.1]\n", block + "[service.1]\n"))
    assert path.read_text().index("[service.3]") < path.read_text().index("[service.1]")
    assert parse_config(str(path)) == parse_config(MIXED_CONFIG)
    outs = [tmp_path / "a", tmp_path / "b"]
    for config, out in zip((MIXED_CONFIG, str(path)), outs):
        assert main(["run", config, "--frames", "200", "--out", str(out)]) == EXIT_OK
    assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
