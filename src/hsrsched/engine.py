"""Frame loop wiring the link profile, traffic, the frame state and a scheduler.

A run's state is plain data: per service, deadline buckets (``row[i]`` holds
the packets with i + 1 frames to go) and the exact deficit numerator.  Each
frame executes, in order: admit sampled arrivals into the top buckets, take
the scheduler's decision, check it, serve and age the buckets (unserved r = 1
packets expire), update the deficit numerators, append the trace row.  Runs
are deterministic given the configuration.  ``single_service_ratios`` runs
one-service trips side by side in one array loop, for their delivery ratios.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

import numpy as np

from .channel import RadioConfig, TrajectoryConfig, build_capacity_profile
from .schedulers import SCHEDULER_POLICIES, make_scheduler
from .traffic import ArrivalGenerator, FeasibilityReport, ServiceSpec, feasibility_check, validate_service_ids

TRACE_SCHEMA = 1
# frames per chunk of trace text (to_csv) and of arrivals (single_service_ratios); bounds memory
CSV_CHUNK_ROWS = 512
INT64_MAX = int(np.iinfo(np.int64).max)
PROGRESS_LINES = 10


class ContractViolation(RuntimeError):
    """A scheduler's decision breaks the frame contract."""


@dataclass(frozen=True)
class SimConfig:
    trajectory: TrajectoryConfig
    radio: RadioConfig
    services: tuple[ServiceSpec, ...]
    scheduler: str = "dcsa"
    seed: int = 0
    num_frames: int | None = None
    capacity_override: int | None = None

    def __post_init__(self) -> None:
        validate_service_ids(self.services)
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
        for s in self.services:
            # a deficit never exceeds the drops so far, at most max_arrivals a frame
            if s.loss_allowance.denominator * s.max_arrivals * self.frames > INT64_MAX:
                raise ValueError(
                    f"service {s.service_id}: the deficit over loss allowance "
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


@dataclass(frozen=True)
class ServiceSummary:
    service_id: int
    arrivals: int
    served: int
    drops: int
    final_backlog: int
    final_deficit: float
    delivery_ratio: float | None


@dataclass(frozen=True)
class RunSummary:
    scheduler: str
    seed: int
    num_frames: int
    services: tuple[ServiceSummary, ...]
    feasibility: FeasibilityReport

    def to_text(self) -> str:
        lines = [
            f"scheduler = {self.scheduler}",
            f"seed = {self.seed}",
            f"num_frames = {self.num_frames}",
            f"feasible = {self.feasibility.feasible}",
            f"feasibility_margin = {self.feasibility.margin:.9g}",
            f"mean_capacity = {self.feasibility.mean_capacity:.9g}",
            f"required_rate = {self.feasibility.required_rate:.9g}",
        ]
        for s in self.services:
            ratio = "n/a" if s.delivery_ratio is None else f"{s.delivery_ratio:.9g}"
            lines.append(
                f"service {s.service_id}: arrivals = {s.arrivals}, served = {s.served}, "
                f"drops = {s.drops}, final_backlog = {s.final_backlog}, "
                f"final_deficit = {s.final_deficit:.9g}, delivery_ratio = {ratio}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class TraceLog:
    """Per-frame record of one run plus enough metadata to audit it.

    ``deficit_num[k, j]`` is service j's deficit after frame k times the
    denominator of its loss allowance: the counter exactly, as an integer.
    """

    scheduler: str
    seed: int
    service_ids: tuple[int, ...]
    deadlines: tuple[int, ...]
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

    def summary(self) -> RunSummary:
        services = []
        deficit = self.deficit
        for j, sid in enumerate(self.service_ids):
            total_arr = int(self.arrivals[:, j].sum())
            total_drops = int(self.drops[:, j].sum())
            ratio = None if total_arr == 0 else (total_arr - total_drops) / total_arr
            services.append(
                ServiceSummary(
                    service_id=sid,
                    arrivals=total_arr,
                    served=int(self.served[:, j].sum()),
                    drops=total_drops,
                    final_backlog=int(self.backlog[-1, j]),
                    final_deficit=float(deficit[-1, j]),
                    delivery_ratio=ratio,
                )
            )
        return RunSummary(
            scheduler=self.scheduler,
            seed=self.seed,
            num_frames=self.num_frames,
            services=tuple(services),
            feasibility=self.feasibility,
        )

    def csv_header(self) -> list[str]:
        cols = ["frame", "capacity"]
        for sid in self.service_ids:
            cols += [
                f"arrivals_s{sid}",
                f"served_s{sid}",
                f"drops_s{sid}",
                f"deficit_s{sid}",
                f"backlog_s{sid}",
            ]
        return cols

    def to_csv(self, path) -> None:
        """Write the trace as CSV, formatting ``CSV_CHUNK_ROWS`` rows at a time
        so the text of the whole trace is never held in memory."""
        n_svc = len(self.service_ids)
        row_format = ",".join(["%d,%d"] + ["%d,%d,%d,%s,%d"] * n_svc) + "\n"
        deficit = self.deficit
        with open(path, "w", newline="") as fh:
            fh.write(f"# schema={TRACE_SCHEMA}\n")
            fh.write(",".join(self.csv_header()) + "\n")
            for lo in range(0, self.num_frames, CSV_CHUNK_ROWS):
                hi = min(lo + CSV_CHUNK_ROWS, self.num_frames)
                columns = [range(lo, hi), self.capacity[lo:hi].tolist()]
                for j in range(n_svc):
                    columns += [
                        self.arrivals[lo:hi, j].tolist(),
                        self.served[lo:hi, j].tolist(),
                        self.drops[lo:hi, j].tolist(),
                        [format(y, ".9g") for y in deficit[lo:hi, j].tolist()],
                        self.backlog[lo:hi, j].tolist(),
                    ]
                fh.write("".join([row_format % row for row in zip(*columns)]))


def run(config: SimConfig) -> TraceLog:
    """Execute one seeded run and return its trace."""
    specs = tuple(sorted(config.services, key=lambda s: s.service_id))
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

    capacity = np.array(caps[:n], dtype=np.int64)
    served_arr = np.zeros((n, n_svc), dtype=np.int64)
    drops_arr = np.zeros((n, n_svc), dtype=np.int64)
    deficit_num = np.zeros((n, n_svc), dtype=np.int64)
    backlog_arr = np.zeros((n, n_svc), dtype=np.int64)

    for k in range(n):
        for row, a in zip(buckets, arrivals[k].tolist()):
            row[-1] = a
        decision = decide(k, buckets, nums)
        # the decision contract: row count, frame capacity, then each row's
        # length and bucket bounds before the row is applied
        if len(decision) != n_svc:
            raise ContractViolation(f"frame {k}: {len(decision)} rows decided for {n_svc} services")
        total = sum(map(sum, decision))
        if total > caps[k]:
            raise ContractViolation(f"served total {total} exceeds frame capacity {caps[k]}")
        for j, (row, served, (p, q)) in enumerate(zip(buckets, decision, allowances)):
            if len(served) != len(row):
                raise ContractViolation(f"frame {k}: service {j + 1}: {len(served)} counts, {len(row)} buckets")
            # what each bucket keeps: the rest of r = 1 drops, the others age
            left = list(map(sub, row, served))
            if min(served) < 0 or min(left) < 0:
                i = next(i for i, (x, b) in enumerate(zip(served, row)) if not 0 <= x <= b)
                raise ContractViolation(
                    f"frame {k}: service {j + 1}: served {served[i]} from bucket r={i + 1} holding {row[i]}"
                )
            dropped = left[0]
            row[:-1] = left[1:]
            row[-1] = 0
            nums[j] = max(nums[j] - p, 0) + dropped * q
            served_arr[k, j] = sum(served)
            drops_arr[k, j] = dropped
            deficit_num[k, j] = nums[j]
            backlog_arr[k, j] = sum(row)

    return TraceLog(
        scheduler=config.scheduler,
        seed=config.seed,
        service_ids=tuple(s.service_id for s in specs),
        deadlines=tuple(s.deadline for s in specs),
        loss_allowances=tuple(s.loss_allowance for s in specs),
        capacity=capacity,
        arrivals=arrivals,
        served=served_arr,
        drops=drops_arr,
        deficit_num=deficit_num,
        backlog=backlog_arr,
        feasibility=feasibility_check(specs, caps),
    )


def single_service_ratios(sims: list[SimConfig]) -> list[float | None]:
    """Delivery ratio of each one-service trip of ``sims`` (``None`` where it
    drew no arrivals), equal to ``run(sim).summary()``'s under any policy, as
    each serves a lone service's oldest packets first up to the capacity.  The
    trips share a capacity profile and frame count and advance as the rows of
    one bucket array (column i: packets with i + 1 frames to go).  Arrivals
    come ``CSV_CHUNK_ROWS`` frames at a time, one stream per rate, tail and
    seed; at most ``PROGRESS_LINES`` INFO lines report the progress."""
    profiles = {(sim.trajectory, sim.radio, sim.capacity_override, sim.frames) for sim in sims}
    if len(profiles) != 1 or any(len(sim.services) != 1 for sim in sims):
        raise ValueError("single_service_ratios needs one-service trips of one capacity profile and length")
    start = time.perf_counter()
    n = sims[0].frames
    caps = sims[0].capacities()
    # the deadline does not change a trip's arrivals
    keys = [(sim.services[0].arrival_rate, sim.services[0].tail_eps, sim.seed) for sim in sims]
    gens = {key: ArrivalGenerator(sim.services, sim.seed) for key, sim in zip(keys, sims)}
    tops = np.array([sim.services[0].deadline - 1 for sim in sims])
    lanes = np.arange(len(sims))
    buckets = np.zeros((len(sims), int(tops.max()) + 1), dtype=np.int64)
    arrived, dropped = np.zeros((2, len(sims)), dtype=np.int64)
    # frames between progress lines, a whole number of chunks
    log_every = -(-n // (PROGRESS_LINES * CSV_CHUNK_ROWS)) * CSV_CHUNK_ROWS
    for lo in range(0, n, CSV_CHUNK_ROWS):
        hi = min(lo + CSV_CHUNK_ROWS, n)
        drawn = {key: g.sample_run(hi - lo)[:, 0] for key, g in gens.items()}
        draws = np.column_stack([drawn[key] for key in keys])
        arrived += draws.sum(axis=0)
        for cap, admitted in zip(caps[lo:hi], draws):
            buckets[lanes, tops] = admitted
            # unserved: the packets of each bucket and the older ones past the capacity
            left = np.cumsum(buckets, axis=1)
            left -= cap
            np.maximum(left, 0, out=left)
            np.minimum(left, buckets, out=left)
            dropped += left[:, 0]
            # the top column is overwritten by the next admission
            buckets[:, :-1] = left[:, 1:]
        if hi % log_every == 0 or hi == n:
            elapsed = time.perf_counter() - start
            logging.getLogger(__name__).info(
                "%d lockstep trips: frame %d/%d, %.1f s elapsed, ETA %.1f s",
                len(sims), hi, n, elapsed, elapsed / hi * (n - hi),
            )
    return [None if a == 0 else (a - d) / a for a, d in zip(arrived.tolist(), dropped.tolist())]
