"""Command-line front end: experiment configs, runs, sweeps and verification.

Configs are plain key = value files with sections (one file per experiment);
see configs/ for the checked-in defaults.  Commands write CSV files and
structured-text summaries under the configured output directory and nothing
anywhere else.

Exit codes: 0 success, 1 config, usage or validation error, 2 runtime
error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import logging
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace

from . import analysis
from .channel import RadioConfig, TrajectoryConfig
from .engine import TRACE_SCHEMA, SimConfig, TraceLog, run, single_service_ratios
from .schedulers import SCHEDULER_POLICIES
from .traffic import ServiceSpec

log = logging.getLogger("hsrsched")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3

FIG2_PLOT_FRAMES = 1000


class ConfigError(ValueError):
    """Bad experiment configuration or config file."""


@dataclass(frozen=True)
class ExperimentConfig:
    sim: SimConfig
    output_dir: str = "out"
    sweep_deadlines: tuple[int, ...] = ()
    sweep_rates: tuple[float, ...] = ()
    seeds_per_point: int = 5
    oracle_instances: int = 200
    inject_fault: str | None = None

    def __post_init__(self) -> None:
        if not self.output_dir:
            raise ConfigError("output_dir must not be empty")
        if self.seeds_per_point < 1:
            raise ConfigError("seeds_per_point must be at least 1")
        if self.oracle_instances < 0:
            raise ConfigError("oracle_instances must be non-negative")
        if self.inject_fault not in (None, "deficit"):
            raise ConfigError(f"unknown inject_fault {self.inject_fault!r}")
        for base, rate, m in itertools.product(self.sim.services, self.sweep_rates, self.sweep_deadlines):
            try:
                replace(base, arrival_rate=rate, deadline=m)
            except ValueError as exc:
                raise ConfigError(f"[sweep] point lambda={rate!r} deadline={m}: {exc}") from None


def _list(conv):
    """Conversion of a comma-separated list of ``conv`` values to a tuple."""
    return lambda text: tuple(conv(x) for x in text.split(",") if x.strip())


# [section] -> rows (ini key, dataclass, field, conversion); every [service.<id>]
# section reads the "service" rows.  A key left out takes the field's default.
SCHEMA = {
    "experiment": (
        ("scheduler", SimConfig, "scheduler", str),
        ("seed", SimConfig, "seed", int),
        ("output_dir", ExperimentConfig, "output_dir", str),
        ("num_frames", SimConfig, "num_frames", int),
    ),
    **{
        name: tuple((f.name, cls, f.name, float) for f in fields(cls))
        for name, cls in (("trajectory", TrajectoryConfig), ("radio", RadioConfig))
    },
    "service": (
        ("lambda", ServiceSpec, "arrival_rate", float),
        ("deadline", ServiceSpec, "deadline", int),
        ("delivery_ratio", ServiceSpec, "delivery_ratio", float),
    ),
    "sweep": (
        ("deadlines", ExperimentConfig, "sweep_deadlines", _list(int)),
        ("lambdas", ExperimentConfig, "sweep_rates", _list(float)),
        ("seeds_per_point", ExperimentConfig, "seeds_per_point", int),
    ),
    "verify": (
        ("oracle_instances", ExperimentConfig, "oracle_instances", int),
        ("inject_fault", ExperimentConfig, "inject_fault", lambda text: None if text == "none" else text),
    ),
}


def _read(parser: configparser.ConfigParser, name: str, rows) -> dict:
    """{dataclass: {field: value}} from section ``name`` (empty if absent)."""
    section = parser[name] if parser.has_section(name) else {}
    keys = {key for key, *_ in rows}
    for key in section:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in [{name}]")
    values = {cls: {} for _, cls, _, _ in rows}
    for key, cls, field, conv in rows:
        if key in section:
            try:
                values[cls][field] = conv(section[key])
            except ValueError as exc:
                raise ConfigError(f"[{name}] {key} = {section[key]!r}: {exc}") from None
        elif cls.__dataclass_fields__[field].default is MISSING:
            raise ConfigError(f"missing key {key!r} in [{name}]")
    return values


def parse_config(
    path: str, seed: int | None = None, frames: int | None = None, out: str | None = None
) -> ExperimentConfig:
    """The experiment of the config file at ``path``; ``seed``, ``frames`` and
    ``out``, where given, replace its seed, num_frames and output_dir."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config not found: {path}") from None
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None

    service_sections = []
    # keys under [DEFAULT] would reach every section
    for name in parser.sections() + (["DEFAULT"] if parser.defaults() else []):
        head, dot, sid = name.partition(".")
        if head not in SCHEMA or (head == "service") != bool(dot):
            raise ConfigError(f"unknown section [{name}]")
        if dot:
            if not sid.isdecimal():
                raise ConfigError(f"bad service section name [{name}]")
            service_sections.append((int(sid), name))
    # [experiment] kind is retired: the subcommand decides what runs.  The key
    # is read and ignored until ROADMAP item 4 drops it from perfbench/configs.
    if parser.has_section("experiment"):
        parser.remove_option("experiment", "kind")
    kwargs = {}
    try:
        for name, rows in SCHEMA.items():
            if name != "service":
                for cls, values in _read(parser, name, rows).items():
                    kwargs.setdefault(cls, {}).update(values)
        overrides = {SimConfig: {"seed": seed, "num_frames": frames}, ExperimentConfig: {"output_dir": out}}
        for cls, values in overrides.items():
            kwargs[cls].update((field, v) for field, v in values.items() if v is not None)
        services = tuple(
            ServiceSpec(**_read(parser, name, SCHEMA["service"])[ServiceSpec])
            for _, name in sorted(service_sections)
        )
        trajectory = TrajectoryConfig(**kwargs[TrajectoryConfig])
        radio = RadioConfig(**kwargs[RadioConfig])
        # a service's id is its section's rank, so the ids must be 1..n
        ids = sorted(sid for sid, _ in service_sections)
        if ids != list(range(1, len(ids) + 1)):
            raise ConfigError(f"service ids must be 1..{len(ids)} (got {ids})")
        sim = SimConfig(trajectory, radio, services, **kwargs[SimConfig])
        return ExperimentConfig(sim, **kwargs[ExperimentConfig])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _block(name: str, rows, owners: dict) -> str:
    """Section ``name`` with each row's field read from ``owners[dataclass]``;
    a field that is None or an empty list is left out."""
    lines = [f"[{name}]"]
    for key, cls, field, _ in rows:
        value = getattr(owners[cls], field)
        if value is not None and value != ():
            if not isinstance(value, str):
                value = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(parse(f))) == parse(f)."""
    sim = cfg.sim
    owners = {ExperimentConfig: cfg, SimConfig: sim, TrajectoryConfig: sim.trajectory, RadioConfig: sim.radio}
    blocks = []
    for name, rows in SCHEMA.items():
        if name == "service":
            blocks += [_block(f"service.{j}", rows, {ServiceSpec: s}) for j, s in enumerate(sim.services, 1)]
        else:
            blocks.append(_block(name, rows, owners))
    return "\n".join(blocks)


def _write_deficit_csv(path: str, trace: TraceLog) -> None:
    """Deficits of every ceil(n / ``FIG2_PLOT_FRAMES``)-th frame and of the
    last one, each row under its frame index."""
    n = trace.num_frames
    frames = [*range(0, n - 1, -(-n // FIG2_PLOT_FRAMES)), n - 1]
    deficit = trace.deficits(frames).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={TRACE_SCHEMA}\n")
        cols = ["frame"] + [f"deficit_s{sid}" for sid in range(1, len(trace.loss_allowances) + 1)]
        fh.write(",".join(cols) + "\n")
        for k, row in zip(frames, deficit):
            fh.write(",".join([str(k)] + [f"{y:.9g}" for y in row]) + "\n")


def cmd_run(cfg: ExperimentConfig) -> int:
    os.makedirs(cfg.output_dir, exist_ok=True)
    trace = run(cfg.sim)
    trace.to_csv(os.path.join(cfg.output_dir, "trace.csv"))
    with open(os.path.join(cfg.output_dir, "summary.txt"), "w") as fh:
        fh.write(trace.summary_text())
    log.info("run complete: %d frames, outputs in %s", trace.num_frames, cfg.output_dir)
    return EXIT_OK


def _fig2_policy(cfg: ExperimentConfig, policy: str) -> dict:
    """Run ``policy``, write its ``fig2_<policy>.csv`` and summary, and return
    its entry of ``fig2_summary.json``.  The trace dies on return, so the
    next policy runs without it."""
    trace = run(replace(cfg.sim, scheduler=policy))
    _write_deficit_csv(os.path.join(cfg.output_dir, f"fig2_{policy}.csv"), trace)
    with open(os.path.join(cfg.output_dir, f"summary_{policy}.txt"), "w") as fh:
        fh.write(trace.summary_text())
    deficit = trace.deficits(slice(None))
    final = {f"final_deficit_s{j + 1}": float(y) for j, y in enumerate(deficit[-1])}
    final["max_deficit_gap"] = float(abs(deficit[:, 0] - deficit[:, 1]).max())
    return final


def cmd_fig2(cfg: ExperimentConfig) -> int:
    if len(cfg.sim.services) != 2:
        raise ConfigError("fig2 needs exactly two services")
    os.makedirs(cfg.output_dir, exist_ok=True)
    finals = {policy: _fig2_policy(cfg, policy) for policy in SCHEDULER_POLICIES}
    with open(os.path.join(cfg.output_dir, "fig2_summary.json"), "w") as fh:
        json.dump(finals, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("fig2 outputs in %s", cfg.output_dir)
    return EXIT_OK


def fig3_rows(cfg: ExperimentConfig) -> list[tuple[int, float, float]]:
    """Delivery ratio per (deadline, rate) grid point.

    Ratios are averaged over ``seeds_per_point`` replicates; replicate
    ``rep`` of the ``p``-th rate uses seed ``(seed ^ p) + rep``.  Every
    deadline value of a rate reuses the same seeds (arrivals do not depend on
    the deadline), so the deadline axis is compared under common random
    numbers.  The rates mostly share seeds too: with seed 7 and five
    replicates, rate 0 uses seeds 7-11 and rate 1 uses 6-10, four in common.

    A trip is its point's service and a seed, over the capacities of the
    frames run.  All trips run together in ``engine.single_service_ratios``,
    one lane each of its int64 FIFO kernel, and its ratios equal ``run``'s
    under every policy, so the config's scheduler is ignored.  A trip
    without arrivals raises ``RuntimeError``.  One INFO line is logged per
    grid point.
    """
    if len(cfg.sim.services) != 1:
        raise ConfigError("fig3 needs exactly one service")
    if not cfg.sweep_deadlines or not cfg.sweep_rates:
        raise ConfigError("fig3 needs a non-empty sweep grid")
    base = cfg.sim.services[0]
    reps = cfg.seeds_per_point
    points = [(p, float(rate), int(m)) for p, rate in enumerate(cfg.sweep_rates) for m in cfg.sweep_deadlines]
    # one spec per point, so its replicates share the cached pmf
    specs = [replace(base, arrival_rate=rate, deadline=m) for _, rate, m in points]
    trips = [(spec, (cfg.sim.seed ^ p) + rep) for (p, _, _), spec in zip(points, specs) for rep in range(reps)]
    ratios = single_service_ratios(cfg.sim.capacities()[: cfg.sim.frames], trips)
    if None in ratios:
        _, rate, m = points[ratios.index(None) // reps]
        raise RuntimeError(f"no arrivals in fig3 run at m={m} lambda={rate:g}; grid point unusable")
    rows = []
    for i, (_, rate, m) in enumerate(points):
        # left to right: sum() compensates float round-off from Python 3.12 on
        total = 0.0
        for ratio in ratios[i * reps : (i + 1) * reps]:
            total += ratio
        rows.append((m, rate, total / reps))
        log.info("fig3 point %d/%d: m=%d lambda=%g delivery_ratio=%.9g", i + 1, len(points), *rows[-1])
    return rows


def cmd_fig3(cfg: ExperimentConfig) -> int:
    rows = fig3_rows(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "fig3.csv"), "w", newline="") as fh:
        fh.write(f"# schema={TRACE_SCHEMA}\n")
        fh.write("m,lambda,delivery_ratio\n")
        for m, rate, ratio in rows:
            fh.write(f"{m},{rate:.9g},{ratio:.9g}\n")
    log.info("fig3 outputs in %s", cfg.output_dir)
    return EXIT_OK


def _print_verdict(record: dict) -> None:
    """verify's PASS or FAIL line for one check's record and, under a FAIL,
    the record as the JSON row verify_report.json holds."""
    if "scheduler" in record:
        where = f"[{record['scheduler']}]"
    else:
        n = record["total"]
        where = f"({record['lex_agreed']}/{n} lexicographic, {record['weighted_agreed']}/{n} weighted-optimal)"
    print(f"{'PASS' if record['passed'] else 'FAIL'} {record['check']} {where}")
    if not record["passed"]:
        print(json.dumps(record, sort_keys=True))


def _verify_policy(cfg: ExperimentConfig, policy: str) -> list[dict]:
    """Run ``policy``, inject the configured fault, and return the records of
    the two trace checks.  The trace dies on return, so the next policy runs
    without it."""
    trace = run(replace(cfg.sim, scheduler=policy))
    if cfg.inject_fault == "deficit":
        # test hook: drive service 1's counter at frame k negative, squared
        # past the one-step bound from frame k - 1 and below the prefix bound
        k = trace.num_frames // 2
        p, q = trace.loss_allowances[0].as_integer_ratio()
        before = int(trace.deficit_num[k - 1, 0]) if k else 0
        trace.deficit_num[k, 0] = -(before + (int(trace.drops[k, 0]) + 1) * q + (k + 1) * p)
    checks = (analysis.check_sample_drift, analysis.check_lemma1)
    return [{**check(trace), "scheduler": policy} for check in checks]


def cmd_verify(cfg: ExperimentConfig) -> int:
    os.makedirs(cfg.output_dir, exist_ok=True)
    records = []
    for policy in SCHEDULER_POLICIES:
        for record in _verify_policy(cfg, policy):
            records.append(record)
            _print_verdict(record)
    records.append(analysis.oracle_agreement(cfg.sim.seed, cfg.oracle_instances))
    _print_verdict(records[-1])
    ok = all(r["passed"] for r in records)
    with open(os.path.join(cfg.output_dir, "verify_report.json"), "w") as fh:
        json.dump({"passed": ok, "checks": records}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK if ok else EXIT_VERIFY


COMMANDS = {
    "run": cmd_run,
    "fig2": cmd_fig2,
    "fig3": cmd_fig3,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1 as a config error, not 2 as argparse's
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hsrsched",
        description="Deadline-constrained downlink scheduling simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--frames", type=int, default=None, help="override the frame count")
    return parser


def main(argv=None) -> int:
    try:
        level = os.environ.get("HSRSCHED_LOG", "WARNING").upper()
        # checked here: basicConfig's ValueError would read as a runtime error
        if not isinstance(logging.getLevelName(level), int):
            raise ConfigError(f"HSRSCHED_LOG = {level!r} is not a logging level")
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        args = build_parser().parse_args(argv)
        cfg = parse_config(args.config, args.seed, args.frames, args.out)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # anything past validation is a runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
