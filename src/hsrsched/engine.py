"""Frame loop wiring the link profile, traffic, the frame state and a scheduler.

A run's state is plain data: per service, deadline buckets (``row[i]`` holds
the packets with i + 1 frames to go, ``deadline - 1`` of them between frames)
and the exact deficit numerator.  Each frame executes, in order: admit
sampled arrivals by appending the top buckets, take the scheduler's decision
(packets per service), check it, serve it oldest first and age the buckets
in place (pop r = 1, whose unserved packets expire), update the deficit
numerators and record the frame's served, dropped and deficit counts.  The
trace keeps only what the run measured; the backlog and the float deficits
are derived where they are written.  Runs are deterministic given the
configuration.
``single_service_ratios`` gives the delivery ratios of one-service trips,
each a service and a seed over one capacity sequence, run as one lane of
the FIFO kernel ``fifo_chunk``: a frame is a clamp on the count of packets
gone, clamps compose, and so a chunk of frames runs as numpy steps over
blocks of frames and all lanes at once.
"""

from __future__ import annotations

import logging
import math
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import RadioConfig, TrajectoryConfig, build_capacity_profile
from .schedulers import SCHEDULER_POLICIES, make_scheduler
from .traffic import ArrivalGenerator, ServiceSpec

TRACE_SCHEMA = 1
# frames per chunk of trace text (to_csv), of arrivals (run) and of the
# capacity sum (summary_text); bounds memory
CSV_CHUNK_ROWS = 512
# frames x lanes per group of fifo_chunk's lanes; bounds its memory
FIFO_LANE_BUDGET = 1 << 16
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
        return build_capacity_profile(self.trajectory, self.radio)


@dataclass
class TraceLog:
    """Per-frame record of one run plus enough metadata to audit it.

    Column j of every per-service array belongs to service j + 1.
    ``deficit_num[k, j]`` is its deficit after frame k times the
    denominator of its loss allowance: the counter exactly, as an integer.
    The backlog after frame k is the running sum of arrivals less served
    and dropped packets through frame k; it is not stored.
    ``required_rate`` is the services' summed arrival rate times delivery
    ratio, the packets per frame their targets ask for.
    """

    scheduler: str
    seed: int
    loss_allowances: tuple[Fraction, ...]
    capacity: np.ndarray
    arrivals: np.ndarray
    served: np.ndarray
    drops: np.ndarray
    deficit_num: np.ndarray
    required_rate: float

    @property
    def num_frames(self) -> int:
        return len(self.capacity)

    def deficits(self, rows) -> np.ndarray:
        """Deficits as floats of the frames ``rows`` (an index, a slice or a
        list), for output: a new array, ``deficit_num[rows]`` over each loss
        allowance's denominator."""
        return self.deficit_num[rows] / np.array([c.denominator for c in self.loss_allowances])

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
        its feasibility verdict, then one line of totals per service.

        The mix is feasible when ``required_rate`` does not exceed the mean
        capacity of the frames run; the signed slack is reported either way.
        """
        # exact over Python integers (the link model allows frames of up to
        # 2**63 - 1, whose int64 sum overflows), a chunk at a time so the
        # column never becomes one list
        total = 0
        for lo in range(0, self.num_frames, CSV_CHUNK_ROWS):
            total += sum(self.capacity[lo : lo + CSV_CHUNK_ROWS].tolist())
        mean_capacity = total / self.num_frames
        lines = [
            f"scheduler = {self.scheduler}",
            f"seed = {self.seed}",
            f"num_frames = {self.num_frames}",
            f"feasible = {self.required_rate <= mean_capacity}",
            f"feasibility_margin = {mean_capacity - self.required_rate:.9g}",
            f"mean_capacity = {mean_capacity:.9g}",
            f"required_rate = {self.required_rate:.9g}",
        ]
        services = zip(
            self.arrivals.sum(axis=0).tolist(),
            self.served.sum(axis=0).tolist(),
            self.drops.sum(axis=0).tolist(),
            self.deficits(-1).tolist(),
            self.delivery_ratios(),
        )
        for sid, (arrivals, served, drops, deficit, ratio) in enumerate(services, 1):
            ratio = "n/a" if ratio is None else f"{ratio:.9g}"
            lines.append(
                f"service {sid}: arrivals = {arrivals}, served = {served}, "
                f"drops = {drops}, final_backlog = {arrivals - served - drops}, "
                f"final_deficit = {deficit:.9g}, delivery_ratio = {ratio}"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        """Write the trace as CSV, formatting ``CSV_CHUNK_ROWS`` rows at a time
        so the text of the whole trace is never held in memory.  Each chunk's
        backlog is its running sum of arrivals - served - drops, carried on
        from the last row of the chunk before."""
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
        backlog = np.zeros((1, n_svc), dtype=np.int64)
        with open(path, "w", newline="") as fh:
            fh.write(f"# schema={TRACE_SCHEMA}\n")
            fh.write(",".join(cols) + "\n")
            for lo in range(0, self.num_frames, CSV_CHUNK_ROWS):
                hi = min(lo + CSV_CHUNK_ROWS, self.num_frames)
                deficit = self.deficits(slice(lo, hi))
                flow = self.arrivals[lo:hi] - self.served[lo:hi] - self.drops[lo:hi]
                backlog = backlog[-1] + np.cumsum(flow, axis=0)
                columns = [range(lo, hi), self.capacity[lo:hi].tolist()]
                for j in range(n_svc):
                    columns += [
                        self.arrivals[lo:hi, j].tolist(),
                        self.served[lo:hi, j].tolist(),
                        self.drops[lo:hi, j].tolist(),
                        deficit[:, j].tolist(),
                        backlog[:, j].tolist(),
                    ]
                fh.write("".join([row_format % row for row in zip(*columns)]))


def run(config: SimConfig) -> TraceLog:
    """Execute one seeded run and return its trace."""
    specs = config.services
    caps = config.capacities()
    n = config.frames
    n_svc = len(specs)
    arrivals = ArrivalGenerator(specs, config.seed).sample_run(n)
    decide = make_scheduler(config.scheduler, specs, caps)

    # buckets[j][i]: service j's packets with i + 1 frames to go; between
    # frames a row holds deadline - 1 of them, and admission appends the top one
    buckets = [[0] * (s.deadline - 1) for s in specs]
    # nums[j]: service j's deficit times q for its loss allowance p / q
    nums = [0] * n_svc
    allowances = [s.loss_allowance.as_integer_ratio() for s in specs]
    # per frame and service: packets served, packets dropped, deficit numerator
    record = array("q")

    for lo in range(0, n, CSV_CHUNK_ROWS):
        for k, arrived in enumerate(arrivals[lo : lo + CSV_CHUNK_ROWS].tolist(), lo):
            for row, a in zip(buckets, arrived):
                row.append(a)
            totals = decide(k, buckets, nums)
            # the decision contract: one total per service, the frame capacity,
            # then each total not negative (nor NaN) and within what its service
            # holds, which the oldest-first walk checks
            if len(totals) != n_svc:
                raise ContractViolation(f"frame {k}: {len(totals)} totals decided for {n_svc} services")
            if sum(totals) > caps[k]:
                raise ContractViolation(f"frame {k}: served total {sum(totals)} exceeds frame capacity {caps[k]}")
            for j, (row, x, (p, q)) in enumerate(zip(buckets, totals, allowances)):
                if not x >= 0:
                    raise ContractViolation(f"frame {k}: service {j + 1}: served {x} of {sum(row)} queued")
                # serve x oldest first and age in place: pop r = 1, whose
                # packets x leaves drop; while that count is negative, x
                # takes the rest from the aged row, oldest first, or runs off it
                dropped = row.pop(0) - x
                i = 0
                try:
                    while dropped < 0:
                        left = row[i] + dropped
                        row[i] = left if left > 0 else 0
                        dropped = left if left < 0 else 0
                        i += 1
                except IndexError:
                    raise ContractViolation(f"frame {k}: service {j + 1}: served {x} of {x + dropped} queued") from None
                nums[j] = num = (nums[j] - p if nums[j] > p else 0) + dropped * q
                record.extend((x, dropped, num))

    served, drops, deficit_num = np.frombuffer(record, dtype=np.int64).reshape(n, n_svc, 3).transpose(2, 0, 1)
    return TraceLog(
        scheduler=config.scheduler,
        seed=config.seed,
        loss_allowances=tuple(s.loss_allowance for s in specs),
        capacity=np.array(caps[:n], dtype=np.int64),
        arrivals=arrivals,
        served=served,
        drops=drops,
        deficit_num=deficit_num,
        required_rate=sum(s.arrival_rate * s.delivery_ratio for s in specs),
    )


def fifo_chunk(
    caps: np.ndarray, cum: np.ndarray, rows: np.ndarray, deadlines: np.ndarray, gone: np.ndarray
) -> np.ndarray:
    """Advance FIFO lanes over one chunk of frames: update ``gone`` in place
    and return each lane's drops in the chunk.

    Lane i serves stream ``rows[i]`` oldest first with deadline
    ``deadlines[i]``; ``gone[i]`` counts its packets served or dropped so
    far.  ``caps`` holds the chunk's capacities, and ``cum[r]`` stream r's
    arrivals through each of the p + 1 frames before the chunk (zero before
    frame 0), then through each of its frames; p is at least every deadline
    less one.

    Frame t is the clamp x -> min(max(x + c_t, E_t), A_t), with A_t the
    arrivals through t and E_t = A_{t-m+1}, and drops max(E_t - y_t, 0) with
    y_t = min(x + c_t, A_t).  Clamps compose, so each block of k frames is
    composed for all lanes in k steps, the blocks are chained, and each block
    is walked from its start to sum its drops.  Values in a block are kept
    less its capacity so far, P_t, so that a step is one max and one min.
    Each c_t is first capped at the largest arrival count: that changes no y
    as x >= 0, and keeps every value within k + 1 times that count.
    """
    n = len(caps)
    k = max(1, math.isqrt(n // 2))
    blocks = -(-n // k)
    # [j, b]: frame b * k + j; the padding repeats the last frame with no
    # capacity, an identity clamp on every lane's end value
    frame = np.minimum(np.arange(k)[:, None] + np.arange(0, blocks * k, k), n - 1)
    spent = np.zeros(blocks * k, dtype=np.int64)
    np.minimum(caps, cum[:, -1].max(), out=spent[:n])
    # [j, b, 0]: P_t of frame t = b * k + j
    spent = np.cumsum(spent.reshape(blocks, k), axis=1).T[:, :, None]
    width, flat = cum.shape[1], cum.ravel()
    drops = np.empty_like(gone)
    group = max(1, FIFO_LANE_BUDGET // (blocks * k))
    for g in range(0, len(gone), group):
        lanes = slice(g, g + group)
        # [j, b, i]: A_t - P_t and E_t - P_t of frame t = b * k + j, lane g + i
        at = frame[:, :, None] + (rows[lanes] * width + width - n)
        arrived = flat.take(at)
        arrived -= spent
        at -= deadlines[lanes] - 1
        expired = flat.take(at)
        expired -= spent
        # compose: block b maps x to min(max(x, bounds[0, b]), bounds[1, b]) + P
        bounds = np.stack([expired[0], arrived[0]])
        for e, a in zip(expired[1:], arrived[1:]):
            np.maximum(bounds, e, out=bounds)
            np.minimum(bounds, a, out=bounds)
        # chain: start[b] is every lane's count gone before block b
        start = np.empty((blocks + 1, arrived.shape[2]), dtype=np.int64)
        start[0] = gone[lanes]
        shift = np.broadcast_to(spent[-1], arrived.shape[1:]).copy()
        for before, after, s, low, high in zip(start, start[1:], shift, *bounds):
            np.maximum(before, low, out=after)
            np.minimum(after, high, out=after)
            np.add(after, s, out=after)
        gone[lanes] = start[-1]
        # walk each block from its start: y_t - P_t overwrites A_t - P_t
        x = start[:-1]
        for e, a in zip(expired, arrived):
            np.minimum(x, a, out=a)
            np.maximum(a, e, out=x)
        expired -= arrived
        drops[lanes] = np.maximum(expired, 0, out=expired).sum(axis=(0, 1))
    return drops


def single_service_ratios(caps: tuple[int, ...], trips: list[tuple[ServiceSpec, int]]) -> list[float | None]:
    """Delivery ratio of each one-service trip, a (service, seed) pair of
    ``trips`` over the frames of capacities ``caps`` (``None`` where it drew
    no arrivals): ``run(sim).delivery_ratios()[0]`` under any policy, as
    each sends all a lone service can, oldest first.  Every trip is one lane of
    ``fifo_chunk``, run a progress step of frames at a time; the arrivals
    are drawn per step, one stream per rate and seed, and at most
    ``PROGRESS_LINES`` INFO lines report the progress.  Both ``caps`` and
    ``trips`` must be non-empty, as ``cli.fig3_rows`` guarantees."""
    start = time.perf_counter()
    n = len(caps)
    # the deadline does not change a trip's arrivals: one stream per rate and seed
    keys = [(spec.arrival_rate, seed) for spec, seed in trips]
    gens = {key: ArrivalGenerator((spec,), seed) for key, (spec, seed) in zip(keys, trips)}
    row_of = {key: r for r, key in enumerate(gens)}
    rows = np.array([row_of[key] for key in keys])
    deadlines = np.array([spec.deadline for spec, _ in trips])
    pad = int(deadlines.max()) - 1
    # per stream: the arrivals through the pad + 1 frames before the chunk
    carried = np.zeros((len(gens), pad + 1), dtype=np.int64)
    gone, dropped = np.zeros(len(trips), dtype=np.int64), np.zeros(len(trips), dtype=np.int64)
    # frames per kernel chunk and progress line, a multiple of CSV_CHUNK_ROWS
    log_every = -(-n // (PROGRESS_LINES * CSV_CHUNK_ROWS)) * CSV_CHUNK_ROWS
    for lo in range(0, n, log_every):
        hi = min(lo + log_every, n)
        cum = np.empty((len(gens), pad + 1 + hi - lo), dtype=np.int64)
        cum[:, : pad + 1] = carried
        for r, g in enumerate(gens.values()):
            np.cumsum(g.sample_run(hi - lo)[:, 0], out=cum[r, pad + 1 :])
        cum[:, pad + 1 :] += carried[:, -1:]
        dropped += fifo_chunk(np.array(caps[lo:hi], dtype=np.int64), cum, rows, deadlines, gone)
        carried = cum[:, -pad - 1 :].copy()
        elapsed = time.perf_counter() - start
        logging.getLogger(__name__).info(
            "%d lockstep trips: frame %d/%d, %.1f s elapsed, ETA %.1f s",
            len(trips), hi, n, elapsed, elapsed / hi * (n - hi),
        )
    totals = carried[rows, -1].tolist()
    return [None if a == 0 else (a - d) / a for a, d in zip(totals, dropped.tolist())]
