"""Frame loop wiring the link profile, traffic, the frame state and a scheduler.

A run's state is plain data: per service, deadline buckets (``row[i]`` holds
the packets with i + 1 frames to go) and the exact deficit numerator.  Each
frame executes, in order: admit sampled arrivals into the top buckets, take
the scheduler's decision, check it, serve and age the buckets (unserved r = 1
packets expire), update the deficit numerators and record the frame's
served, dropped and deficit counts.  The backlog is derived after the loop,
as the running sum of arrivals less served and dropped packets.  Runs are
deterministic given the configuration.  ``single_service_ratios`` gives the
delivery ratios of one-service trips from a two-integer FIFO recursion each.
"""

from __future__ import annotations

import logging
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

import numpy as np

from .channel import RadioConfig, TrajectoryConfig, build_capacity_profile
from .schedulers import SCHEDULER_POLICIES, make_scheduler
from .traffic import ArrivalGenerator, FeasibilityReport, ServiceSpec, feasibility_check

TRACE_SCHEMA = 1
# frames per chunk of trace text (to_csv) and of arrivals (run, single_service_ratios); bounds memory
CSV_CHUNK_ROWS = 512
INT64_MAX = int(np.iinfo(np.int64).max)
PROGRESS_LINES = 10


class ContractViolation(RuntimeError):
    """A scheduler's decision breaks the frame contract."""


@dataclass(frozen=True)
class SimConfig:
    """One run: the link, the services (service j + 1 is ``services[j]``),
    the policy, the seed and the frames to run."""

    trajectory: TrajectoryConfig
    radio: RadioConfig
    services: tuple[ServiceSpec, ...]
    scheduler: str = "dcsa"
    seed: int = 0
    num_frames: int | None = None
    capacity_override: int | None = None

    def __post_init__(self) -> None:
        if not self.services:
            raise ValueError("at least one service required")
        if self.scheduler not in SCHEDULER_POLICIES:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.num_frames is not None:
            if self.num_frames < 1:
                raise ValueError("num_frames must be at least 1")
            if self.num_frames > self.trajectory.num_frames:
                raise ValueError(
                    f"num_frames {self.num_frames} exceeds trip length "
                    f"{self.trajectory.num_frames}"
                )
        if self.capacity_override is not None and not 0 <= self.capacity_override <= INT64_MAX:
            raise ValueError(f"capacity_override must be in 0..{INT64_MAX}")
        for j, s in enumerate(self.services):
            # a deficit never exceeds the drops so far, at most max_arrivals a frame
            if s.loss_allowance.denominator * s.max_arrivals * self.frames > INT64_MAX:
                raise ValueError(
                    f"service {j + 1}: the deficit over loss allowance "
                    f"{s.loss_allowance} may not fit int64; write lambda and "
                    "delivery_ratio with fewer decimal digits"
                )

    @property
    def frames(self) -> int:
        return self.trajectory.num_frames if self.num_frames is None else self.num_frames

    def capacities(self) -> tuple[int, ...]:
        """Capacity of every frame of the full trip (the scheduler may look
        past the run horizon, never past the trip end)."""
        if self.capacity_override is not None:
            return (int(self.capacity_override),) * self.trajectory.num_frames
        return build_capacity_profile(self.trajectory, self.radio)


@dataclass
class TraceLog:
    """Per-frame record of one run plus enough metadata to audit it.

    Column j of every per-service array belongs to service j + 1.
    ``deficit_num[k, j]`` is its deficit after frame k times the
    denominator of its loss allowance: the counter exactly, as an integer.
    """

    scheduler: str
    seed: int
    loss_allowances: tuple[Fraction, ...]
    capacity: np.ndarray
    arrivals: np.ndarray
    served: np.ndarray
    drops: np.ndarray
    deficit_num: np.ndarray
    backlog: np.ndarray
    feasibility: FeasibilityReport

    @property
    def num_frames(self) -> int:
        return len(self.capacity)

    @property
    def deficit(self) -> np.ndarray:
        """Deficits as floats, for output only; read-only, derived from
        ``deficit_num`` on every access."""
        out = self.deficit_num / np.array([c.denominator for c in self.loss_allowances])
        out.flags.writeable = False
        return out

    def delivery_ratios(self) -> list[float | None]:
        """Per service, the share of its arrivals that were not dropped,
        (arrivals - drops) / arrivals over exact integers, or ``None`` for a
        service without arrivals.  Packets still queued when the run ends
        count as not dropped."""
        arrivals = self.arrivals.sum(axis=0).tolist()
        drops = self.drops.sum(axis=0).tolist()
        return [None if a == 0 else (a - d) / a for a, d in zip(arrivals, drops)]

    def summary_text(self) -> str:
        """The text of ``summary.txt``: the run's scheduler, seed and length,
        its feasibility report, then one line of totals per service."""
        lines = [
            f"scheduler = {self.scheduler}",
            f"seed = {self.seed}",
            f"num_frames = {self.num_frames}",
            f"feasible = {self.feasibility.feasible}",
            f"feasibility_margin = {self.feasibility.margin:.9g}",
            f"mean_capacity = {self.feasibility.mean_capacity:.9g}",
            f"required_rate = {self.feasibility.required_rate:.9g}",
        ]
        services = zip(
            self.arrivals.sum(axis=0).tolist(),
            self.served.sum(axis=0).tolist(),
            self.drops.sum(axis=0).tolist(),
            self.backlog[-1].tolist(),
            self.deficit[-1].tolist(),
            self.delivery_ratios(),
        )
        for sid, (arrivals, served, drops, backlog, deficit, ratio) in enumerate(services, 1):
            ratio = "n/a" if ratio is None else f"{ratio:.9g}"
            lines.append(
                f"service {sid}: arrivals = {arrivals}, served = {served}, "
                f"drops = {drops}, final_backlog = {backlog}, "
                f"final_deficit = {deficit:.9g}, delivery_ratio = {ratio}"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        """Write the trace as CSV, formatting ``CSV_CHUNK_ROWS`` rows at a time
        so the text of the whole trace is never held in memory."""
        n_svc = len(self.loss_allowances)
        row_format = ",".join(["%d,%d"] + ["%d,%d,%d,%.9g,%d"] * n_svc) + "\n"
        cols = ["frame", "capacity"]
        for sid in range(1, n_svc + 1):
            cols += [
                f"arrivals_s{sid}",
                f"served_s{sid}",
                f"drops_s{sid}",
                f"deficit_s{sid}",
                f"backlog_s{sid}",
            ]
        deficit = self.deficit
        with open(path, "w", newline="") as fh:
            fh.write(f"# schema={TRACE_SCHEMA}\n")
            fh.write(",".join(cols) + "\n")
            for lo in range(0, self.num_frames, CSV_CHUNK_ROWS):
                hi = min(lo + CSV_CHUNK_ROWS, self.num_frames)
                columns = [range(lo, hi), self.capacity[lo:hi].tolist()]
                for j in range(n_svc):
                    columns += [
                        self.arrivals[lo:hi, j].tolist(),
                        self.served[lo:hi, j].tolist(),
                        self.drops[lo:hi, j].tolist(),
                        deficit[lo:hi, j].tolist(),
                        self.backlog[lo:hi, j].tolist(),
                    ]
                fh.write("".join([row_format % row for row in zip(*columns)]))


def run(config: SimConfig) -> TraceLog:
    """Execute one seeded run and return its trace."""
    specs = config.services
    caps = config.capacities()
    n = config.frames
    n_svc = len(specs)
    arrivals = ArrivalGenerator(specs, config.seed).sample_run(n)
    decide = make_scheduler(config.scheduler, specs, caps).decide

    # buckets[j][i]: service j's packets with i + 1 frames to go
    buckets = [[0] * s.deadline for s in specs]
    # nums[j]: service j's deficit times q for its loss allowance p / q
    nums = [0] * n_svc
    allowances = [s.loss_allowance.as_integer_ratio() for s in specs]
    # per frame and service: packets served, packets dropped, deficit numerator
    record = array("q")

    for lo in range(0, n, CSV_CHUNK_ROWS):
        for k, arrived in enumerate(arrivals[lo : lo + CSV_CHUNK_ROWS].tolist(), lo):
            for row, a in zip(buckets, arrived):
                row[-1] = a
            decision = decide(k, buckets, nums)
            # the decision contract: row count, frame capacity, then each row's
            # length and bucket bounds before the row is applied
            if len(decision) != n_svc:
                raise ContractViolation(f"frame {k}: {len(decision)} rows decided for {n_svc} services")
            totals = list(map(sum, decision))
            if sum(totals) > caps[k]:
                raise ContractViolation(f"frame {k}: served total {sum(totals)} exceeds frame capacity {caps[k]}")
            for j, (row, served, total, (p, q)) in enumerate(zip(buckets, decision, totals, allowances)):
                if len(served) != len(row):
                    raise ContractViolation(f"frame {k}: service {j + 1}: {len(served)} counts, {len(row)} buckets")
                # what each bucket keeps: the rest of r = 1 drops, the others age
                left = list(map(sub, row, served))
                if min(served) < 0 or min(left) < 0:
                    i = next(i for i, (x, b) in enumerate(zip(served, row)) if not 0 <= x <= b)
                    raise ContractViolation(
                        f"frame {k}: service {j + 1}: served {served[i]} from bucket r={i + 1} holding {row[i]}"
                    )
                dropped = left.pop(0)
                left.append(0)
                buckets[j] = left
                nums[j] = num = max(nums[j] - p, 0) + dropped * q
                record.extend((total, dropped, num))

    served, drops, deficit_num = np.frombuffer(record, dtype=np.int64).reshape(n, n_svc, 3).transpose(2, 0, 1)
    # what the buckets hold after each frame: every arrival not yet served or dropped
    backlog = arrivals - served
    backlog -= drops
    np.cumsum(backlog, axis=0, out=backlog)

    return TraceLog(
        scheduler=config.scheduler,
        seed=config.seed,
        loss_allowances=tuple(s.loss_allowance for s in specs),
        capacity=np.array(caps[:n], dtype=np.int64),
        arrivals=arrivals,
        served=served,
        drops=drops,
        deficit_num=deficit_num,
        backlog=backlog,
        feasibility=feasibility_check(specs, caps[:n]),
    )


def single_service_ratios(sims: list[SimConfig]) -> list[float | None]:
    """Delivery ratio of each one-service trip of ``sims`` (``None`` where it
    drew no arrivals), equal to ``run(sim).delivery_ratios()[0]`` under any
    policy, as each serves a lone service oldest first: with A(t) the arrivals
    of frames 0..t and x those gone (served or dropped), frame t serves up to
    y = min(x + c_t, A(t)), then x = max(y, A(t - m + 1)) and x - y drop.
    Arrivals come ``CSV_CHUNK_ROWS`` frames at a time, one stream per rate,
    tail and seed; at most ``PROGRESS_LINES`` INFO lines report the progress."""
    profiles = {(sim.trajectory, sim.radio, sim.capacity_override, sim.frames) for sim in sims}
    if len(profiles) != 1 or any(len(sim.services) != 1 for sim in sims):
        raise ValueError("single_service_ratios needs one-service trips of one capacity profile and length")
    start = time.perf_counter()
    n, caps = sims[0].frames, sims[0].capacities()
    # (arrival stream, deadline) per trip: the deadline does not change a trip's arrivals
    trips = [((s.arrival_rate, s.tail_eps, sim.seed), s.deadline) for sim in sims for s in sim.services]
    gens = {key: ArrivalGenerator(sim.services, sim.seed) for (key, _), sim in zip(trips, sims)}
    # per stream: A(lo - pad - 1) .. A(hi - 1), zero before frame 0, so A(t - m + 1) is an offset
    pad = max(m for _, m in trips) - 1
    totals = {key: [0] * (pad + 1) for key in gens}
    gone, dropped = [0] * len(sims), [0] * len(sims)
    # frames between progress lines, a whole number of chunks
    log_every = -(-n // (PROGRESS_LINES * CSV_CHUNK_ROWS)) * CSV_CHUNK_ROWS
    for lo in range(0, n, CSV_CHUNK_ROWS):
        hi = min(lo + CSV_CHUNK_ROWS, n)
        for key, g in gens.items():
            carried = totals[key][-pad - 1 :]
            totals[key] = carried + (np.cumsum(g.sample_run(hi - lo)[:, 0]) + carried[-1]).tolist()
        for b, (key, m) in enumerate(trips):
            cum = totals[key]
            x, d = gone[b], dropped[b]
            for c, a, expired in zip(caps[lo:hi], cum[pad + 1 :], cum[pad + 2 - m :]):
                x += c
                if x > a:
                    x = a
                if expired > x:
                    d += expired - x
                    x = expired
            gone[b], dropped[b] = x, d
        if hi % log_every == 0 or hi == n:
            elapsed = time.perf_counter() - start
            logging.getLogger(__name__).info(
                "%d lockstep trips: frame %d/%d, %.1f s elapsed, ETA %.1f s",
                len(sims), hi, n, elapsed, elapsed / hi * (n - hi),
            )
    return [None if (a := totals[key][-1]) == 0 else (a - d) / a for (key, _), d in zip(trips, dropped)]
