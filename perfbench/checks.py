"""Output checks computed apart from the program.

Nothing here imports ``hsrsched``.  Every expected value is recomputed from the
config's own text (the channel formulas, the truncated-Poisson moments, the
deficit recurrence in exact rationals) or is a property the scheduling method
must have (conservation, capacity, round-robin rotation, EDF work
conservation).  No check compares against a stored copy of earlier output.

Each check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import configparser
import json
import math
from fractions import Fraction

import numpy as np

SPEED_OF_LIGHT = 3.0e8
DEFAULT_TAIL_EPS = "1e-6"
POLICIES = ("dcsa", "rr", "edf")
# arrivals are random: a mean may sit this many standard errors off before it
# counts as wrong (a false alarm has probability ~2e-9 per service)
ARRIVAL_MEAN_SIGMAS = 6.0
# a deficit printed with 9 significant digits, plus the float allowance's
# accumulated round-off (<= 3e-11 over a 30000-frame trip)
DEFICIT_REL_TOL = 1e-8


def read_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        parser.read_file(fh)
    return parser


def services(cfg: configparser.ConfigParser) -> list[configparser.SectionProxy]:
    """Service sections in service-id order."""
    names = [s for s in cfg.sections() if s.startswith("service.")]
    return [cfg[s] for s in sorted(names, key=lambda s: int(s.split(".", 1)[1]))]


def trip_frames(cfg: configparser.ConfigParser) -> int:
    traj = cfg["trajectory"]
    return int(float(traj["trip_duration"]) / float(traj["frame_length"]))


def packets_per_frame(cfg: configparser.ConfigParser, frames: int) -> np.ndarray:
    """Unfloored packet capacity of frames 0..frames-1, from the link model:
    periodic cell crossing, two-slope path loss, dB->linear SNR, Shannon rate."""
    traj, radio = cfg["trajectory"], cfg["radio"]
    speed = float(traj["speed"])
    r = float(traj["cell_radius"])
    offset = float(traj["track_offset"])
    frame_len = float(traj["frame_length"])
    fc = float(radio["carrier_freq"])
    t = np.arange(frames) * frame_len
    along = np.mod(speed * t, 2.0 * r)
    along = np.where(along < r, along, 2.0 * r - along)
    d = np.hypot(along, offset)
    bp = 4.0 * float(radio["bs_antenna_height"]) * float(radio["rs_antenna_height"]) * fc / SPEED_OF_LIGHT
    loss = np.where(
        d < bp,
        44.2 + 21.5 * np.log10(d),
        44.2 + 40.0 * np.log10(d / bp) + 21.5 * np.log10(bp),
    ) + 20.0 * np.log10(fc / 5.0e9)
    snr_linear = 10.0 ** ((float(radio["tx_power_over_noise"]) - loss) / 10.0)
    rate = float(radio["bandwidth"]) * np.log2(1.0 + snr_linear)
    return rate * frame_len / float(radio["packet_size"])


def capacity_errors(cfg, capacity: np.ndarray) -> list[str]:
    """The capacity column must be the floored packet count.  Where the
    unfloored value lies within float round-off of a whole number, either
    neighbour is accepted: the program and this check evaluate the formulas
    in different orders."""
    x = packets_per_frame(cfg, len(capacity))
    nearest = np.rint(x)
    tie = np.abs(x - nearest) <= 1e-9 * np.maximum(1.0, x)
    ok = (capacity == np.floor(x)) | (tie & ((capacity == nearest) | (capacity == nearest - 1)))
    if ok.all():
        return []
    k = int(np.argmin(ok))
    return [f"capacity of frame {k} is {int(capacity[k])}, link model gives {x[k]:.9g} packets"]


def truncated_poisson_pmf(rate: float, tail_eps: float) -> np.ndarray:
    """Poisson(rate) cut at the first count whose upper tail mass is below
    tail_eps, renormalised; entry i is the probability of i arrivals."""
    probs = [math.exp(-rate)]
    cdf = probs[0]
    while 1.0 - cdf >= tail_eps:
        probs.append(probs[-1] * rate / len(probs))
        cdf += probs[-1]
    pmf = np.array(probs)
    return pmf / pmf.sum()


def truncated_poisson_moments(rate: float, tail_eps: float) -> tuple[float, float]:
    pmf = truncated_poisson_pmf(rate, tail_eps)
    counts = np.arange(len(pmf))
    mean = float(counts @ pmf)
    return mean, float((counts - mean) ** 2 @ pmf)


def load_trace(path) -> dict[str, np.ndarray]:
    """trace.csv as columns: '# schema=1', a header row, one row per frame."""
    with open(path) as fh:
        schema = fh.readline().strip()
        header = fh.readline().strip().split(",")
    if schema != "# schema=1":
        raise ValueError(f"unexpected trace schema line {schema!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError("trace rows do not match the header")
    return {name: data[:, i] for i, name in enumerate(header)}


def deficit_errors(sid: str, svc, drops: np.ndarray, deficit: np.ndarray) -> list[str]:
    """Y <- max(Y - c, 0) + D with c = (1 - delivery_ratio) * lambda taken
    exactly from the config's decimal text, run in scaled integers."""
    c = (1 - Fraction(svc["delivery_ratio"])) * Fraction(svc["lambda"])
    p, q = c.numerator, c.denominator
    y = 0
    exact = np.empty(len(drops))
    for k, d in enumerate(drops.astype(np.int64).tolist()):
        y = max(y - p, 0) + d * q
        exact[k] = y / q
    bad = np.abs(deficit - exact) > DEFICIT_REL_TOL * np.maximum(1.0, exact)
    if not bad.any():
        return []
    k = int(np.argmax(bad))
    return [f"service {sid}: deficit at frame {k} is {deficit[k]:.9g}, recurrence gives {exact[k]:.9g}"]


def check_trace(trace_path, config_path, policy: str) -> tuple[list[str], dict]:
    """All per-run checks on one trace.csv.  Returns (errors, statistics)."""
    cfg = read_config(config_path)
    cols = load_trace(trace_path)
    svcs = services(cfg)
    ids = [s.name.split(".", 1)[1] for s in svcs]
    n = len(cols["frame"])
    if n == 0:
        return ["trace has no frames"], {}
    errors = []
    if not np.array_equal(cols["frame"], np.arange(n)):
        errors.append("frame column is not 0..n-1")
    capacity = cols["capacity"]
    errors += capacity_errors(cfg, capacity)

    served_total = np.zeros(n)
    backlog_before = {}
    stats = {"policy": policy, "frames": n, "services": {}}
    for sid, svc in zip(ids, svcs):
        a, s, d = (cols[f"{key}_s{sid}"] for key in ("arrivals", "served", "drops"))
        y, b = cols[f"deficit_s{sid}"], cols[f"backlog_s{sid}"]
        if min(a.min(), s.min(), d.min(), y.min(), b.min()) < 0:
            errors.append(f"service {sid}: negative count")
        prev = np.concatenate(([0.0], b[:-1]))
        backlog_before[sid] = prev + a
        flow = prev + a - s - d - b
        if flow.any():
            errors.append(f"service {sid}: backlog not conserved at frame {int(np.argmax(flow != 0))}")
        if a.sum() != s.sum() + d.sum() + b[-1]:
            errors.append(f"service {sid}: arrivals != served + drops + final backlog")
        mean, var = truncated_poisson_moments(
            float(svc["lambda"]), float(svc.get("tail_eps", DEFAULT_TAIL_EPS))
        )
        se = math.sqrt(var / n)
        if abs(a.mean() - mean) > ARRIVAL_MEAN_SIGMAS * se:
            errors.append(
                f"service {sid}: mean arrivals {a.mean():.4f} vs truncated-Poisson mean "
                f"{mean:.4f} (standard error {se:.4f})"
            )
        errors += deficit_errors(sid, svc, d, y)
        served_total += s
        stats["services"][sid] = {
            "delivery_ratio": float((a.sum() - d.sum()) / a.sum()) if a.sum() else None,
            "final_deficit": float(y[-1]),
        }
    over = served_total > capacity
    if over.any():
        errors.append(f"served above capacity at frame {int(np.argmax(over))}")
    stats["unused_capacity"] = int(capacity.sum() - served_total.sum())

    if policy == "rr":
        chosen = np.arange(n) % len(ids)
        for j, sid in enumerate(ids):
            s = cols[f"served_s{sid}"]
            mine = chosen == j
            if s[~mine].any():
                errors.append(f"rr served service {sid} outside its turn")
            want = np.minimum(capacity, backlog_before[sid])
            if (s[mine] != want[mine]).any():
                errors.append(f"rr left capacity idle while service {sid} had packets")
    elif policy == "edf":
        want = np.minimum(capacity, sum(backlog_before.values()))
        lazy = served_total != want
        if lazy.any():
            errors.append(f"edf is not work-conserving at frame {int(np.argmax(lazy))}")
    return errors, stats


def check_verify(report_path, exit_code, frames: int, num_services: int, instances: int) -> list[str]:
    """verify's exit code and report: every check passes for every policy,
    full oracle agreement, one drift transition per frame and service."""
    if exit_code != 0:
        return [f"verify exited {exit_code}"]
    with open(report_path) as fh:
        report = json.load(fh)
    errors = [] if report.get("passed") is True else ["verify report not passed"]
    checks = report.get("checks", [])
    for policy in POLICIES:
        for name in ("sample_drift", "lemma1"):
            found = [c for c in checks if c.get("check") == name and c.get("scheduler") == policy]
            if len(found) != 1 or found[0].get("passed") is not True:
                errors.append(f"{name} [{policy}] missing or failed")
            elif name == "sample_drift" and found[0].get("transitions_checked") != frames * num_services:
                errors.append(
                    f"sample_drift [{policy}] checked {found[0].get('transitions_checked')} "
                    f"transitions, expected {frames * num_services}"
                )
    oracle = [c for c in checks if c.get("check") == "oracle_agreement"]
    if len(oracle) != 1:
        errors.append("oracle_agreement missing")
    elif not oracle[0].get("total") == oracle[0].get("lex_agreed") == instances:
        errors.append(
            f"oracle agreed on {oracle[0].get('lex_agreed')}/{oracle[0].get('total')}, "
            f"expected {instances}/{instances}"
        )
    return errors


def expected_ratio_deadline1(rate: float, tail_eps: float, capacity: np.ndarray) -> float:
    """Delivery ratio a deadline-1 service must reach in expectation: every
    policy serves min(capacity, arrivals) of each frame's fresh batch."""
    pmf = truncated_poisson_pmf(rate, tail_eps)
    counts = np.arange(len(pmf))
    caps, frames_at = np.unique(capacity, return_counts=True)
    served = np.minimum.outer(caps, counts) @ pmf
    return float(served @ frames_at / (counts @ pmf * len(capacity)))


def check_fig3(csv_path, config_path, frames: int | None = None) -> list[str]:
    """fig3.csv covers the grid in order (rates outer, deadlines inner), every
    ratio lies in [0, 1] and under total capacity over total arrivals, and the
    deadline-1 points match their expectation under the link model.
    ``frames`` is the run length when it was cut with --frames."""
    cfg = read_config(config_path)
    sweep = cfg["sweep"]
    deadlines = [int(x) for x in sweep["deadlines"].split(",") if x.strip()]
    rates = [float(x) for x in sweep["lambdas"].split(",") if x.strip()]
    reps = int(sweep.get("seeds_per_point", "5"))
    svc = services(cfg)[0]
    tail_eps = float(svc.get("tail_eps", DEFAULT_TAIL_EPS))
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    if lines[:2] != ["# schema=1", "m,lambda,delivery_ratio"]:
        return ["fig3.csv header is not '# schema=1' / 'm,lambda,delivery_ratio'"]
    rows = [line.split(",") for line in lines[2:]]
    grid = [(m, rate) for rate in rates for m in deadlines]
    got = [(int(r[0]), float(r[1])) for r in rows]
    if got != grid:
        return [f"fig3 rows {got} do not cover the grid {grid} in order"]
    frames = trip_frames(cfg) if frames is None else frames
    capacity = np.floor(packets_per_frame(cfg, frames))
    errors = []
    for (m, rate), row in zip(grid, rows):
        ratio = float(row[2])
        mean, var = truncated_poisson_moments(rate, tail_eps)
        arrivals_low = mean * frames - ARRIVAL_MEAN_SIGMAS * math.sqrt(var * frames)
        bound = min(1.0, capacity.sum() / arrivals_low)
        if not 0.0 <= ratio <= bound:
            errors.append(f"fig3 m={m} lambda={rate}: ratio {ratio} outside [0, {bound:.6f}]")
        if m == 1:
            want = expected_ratio_deadline1(rate, tail_eps, capacity)
            # the ratio of two sums over the trip: its standard error is at
            # most 2/sqrt(arrivals), smaller again when averaged over replicates
            tol = ARRIVAL_MEAN_SIGMAS * 2.0 / math.sqrt(mean * frames * reps)
            if abs(ratio - want) > tol:
                errors.append(f"fig3 m=1 lambda={rate}: ratio {ratio:.6f}, expected {want:.6f} +- {tol:.6f}")
    return errors
