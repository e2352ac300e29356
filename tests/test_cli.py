import json
import os
from dataclasses import replace

import pytest

from hsrsched import ServiceSpec, SimConfig, run
from hsrsched.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VERIFY,
    ConfigError,
    fig3_rows,
    main,
    parse_config,
    serialize_config,
)

REPO_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
DEFAULT_CONFIG = os.path.join(REPO_CONFIGS, "table1_fig2.ini")
FIG3_CONFIG = os.path.join(REPO_CONFIGS, "fig3.ini")


def _write_small_fig3(tmp_path, frames=1500, seeds=1):
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
lambdas = 250.0,400.0
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
    text = serialize_config(cfg)
    text = text.replace("[service.2]", "[service_disabled.2]")
    path = tmp_path / "one.ini"
    path.write_text(text)
    with pytest.raises(ConfigError):
        parse_config(str(path))


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
        assert len(lines) == 2 + 1000
        assert (tmp_path / "fig2" / f"summary_{policy}.txt").exists()
    summary = json.loads((tmp_path / "fig2" / "fig2_summary.json").read_text())
    assert set(summary) == {"dcsa", "rr", "edf"}
    assert "max_deficit_gap" in summary["dcsa"]


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
        spec = ServiceSpec(service_id=1, arrival_rate=rate, deadline=m, delivery_ratio=0.9)
        sim = SimConfig(
            trajectory=cfg.sim.trajectory,
            radio=cfg.sim.radio,
            services=(spec,),
            seed=(3 ^ 1) + rep,
            num_frames=1500,
        )
        total += run(sim).summary().service(1).delivery_ratio
    assert ratio == total / 2


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


def test_cmd_verify_fault_injection_fails(tmp_path):
    cfg_path = tmp_path / "verify.ini"
    base = parse_config(DEFAULT_CONFIG)
    text = serialize_config(base).replace(
        "oracle_instances = 200", "oracle_instances = 0\ninject_fault = deficit"
    )
    cfg_path.write_text(text)
    out = str(tmp_path / "v")
    rc = main(["verify", str(cfg_path), "--frames", "400", "--out", out])
    assert rc == EXIT_VERIFY
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert report["passed"] is False


def test_cmd_verify_default_config_passes(tmp_path):
    # full default config: lemma checks on all three schedulers plus the
    # 200-instance scheduling oracle
    out = str(tmp_path / "v")
    rc = main(["verify", DEFAULT_CONFIG, "--frames", "3000", "--out", out])
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert rc == EXIT_OK, report
    assert report["passed"] is True


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
