"""The benchmark's workloads: their configs, their CLI commands and the checks
run on what the commands write.

Every workload's operations are ``hsrsched`` CLI commands, each taking the
benchmark seed through ``--seed``.  Configs that only change the scheduler of
another config are derived at run time into the work directory, so they can
never drift from the file they come from.
"""

from __future__ import annotations

import configparser
import os

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
POLICIES = checks.POLICIES
WORKLOADS = ("trip", "verify-mixed", "sweep")

TRIP_CONFIG = os.path.join("configs", "table1_fig2.ini")
MIXED_CONFIG = os.path.join(HERE, "configs", "mixed.ini")
SWEEP_CONFIG = os.path.join(HERE, "configs", "sweep.ini")


def derive_config(source: str, dest: str, **sections: dict[str, str]) -> str:
    """Write ``source`` to ``dest`` with the given keys set, per section."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(source) as fh:
        parser.read_file(fh)
    for section, values in sections.items():
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section].update(values)
    with open(dest, "w") as fh:
        parser.write(fh)
    return dest


def prepare(workload: str, root: str, work: str) -> None:
    """Write the workload's derived configs under ``work/configs``."""
    os.makedirs(os.path.join(work, "configs"), exist_ok=True)
    source = {"trip": os.path.join(root, TRIP_CONFIG), "verify-mixed": MIXED_CONFIG}.get(workload)
    if source is None:
        return
    for policy in POLICIES:
        dest = os.path.join(work, "configs", f"{policy}.ini")
        derive_config(source, dest, experiment={"scheduler": policy})


def setup_config(workload: str, root: str) -> str:
    """The config the fresh-process set-up parses and builds the link for."""
    return {
        "trip": os.path.join(root, TRIP_CONFIG),
        "verify-mixed": MIXED_CONFIG,
        "sweep": SWEEP_CONFIG,
    }[workload]


def commands(workload: str, work: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one round, in order."""
    common = ["--seed", str(seed)]
    out = os.path.join(work, "out")
    if workload == "trip":
        return [
            ["run", os.path.join(work, "configs", f"{p}.ini"), *common, "--out", os.path.join(out, p)]
            for p in POLICIES
        ]
    if workload == "verify-mixed":
        return [["verify", MIXED_CONFIG, *common, "--out", out]]
    if workload == "sweep":
        return [["fig3", SWEEP_CONFIG, *common, "--out", out]]
    raise ValueError(f"unknown workload {workload!r}")


def deep_check_commands(workload: str, work: str, seed: int) -> list[list[str]]:
    """Untimed extra commands whose outputs back the checks of a round's
    commands: verify writes no trace, so its mix is run once per policy."""
    if workload != "verify-mixed":
        return []
    return [
        ["run", os.path.join(work, "configs", f"{p}.ini"), "--seed", str(seed),
         "--out", os.path.join(work, "check", p)]
        for p in POLICIES
    ]


def check_round(workload: str, work: str, exit_codes: list[int], deep: bool) -> tuple[list[list[str]], dict]:
    """Errors per command of the round (same order as ``commands``, whose
    exit codes are given) and the per-policy statistics of the traces
    checked."""
    stats = {}
    if workload == "trip":
        errors = []
        for p in POLICIES:
            errs, stats[p] = checks.check_trace(
                os.path.join(work, "out", p, "trace.csv"), os.path.join(work, "configs", f"{p}.ini"), p
            )
            errors.append(errs)
        return errors, stats
    if workload == "sweep":
        return [checks.check_fig3(os.path.join(work, "out", "fig3.csv"), SWEEP_CONFIG)], stats
    cfg = checks.read_config(MIXED_CONFIG)
    errs = checks.check_verify(
        os.path.join(work, "out", "verify_report.json"),
        exit_codes[0],
        checks.trip_frames(cfg),
        len(checks.services(cfg)),
        int(cfg["verify"]["oracle_instances"]),
    )
    if deep:
        for p in POLICIES:
            trace_errs, stats[p] = checks.check_trace(
                os.path.join(work, "check", p, "trace.csv"), os.path.join(work, "configs", f"{p}.ini"), p
            )
            errs += [f"[{p} run of the mix] {e}" for e in trace_errs]
    return [errs], stats
