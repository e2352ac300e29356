"""Scheduling policies: deficit-driven lookahead (dcsa), round robin and EDF.

All policies implement one contract, ``decide(frame, capacity, queues,
deficits)``: given the frame index, the frame capacity, and the deadline and
deficit queues in service-id order (this frame's arrivals already admitted),
they return one row of per-bucket transmission counts per service that never
exceed the capacity or any bucket content.

The lookahead policy plans each arrival batch over its whole lifetime at the
arrival frame.  Services are ranked by descending deficit counter projected to
the batch's expiry frame; the amount each service gets comes from a greedy in
that order, each taking as much as the remaining capacity lets every window
still hold, and the amounts are then laid out by ascending deadline, earliest
offset first.  Because all windows start at the arrival frame the feasible
served vectors form a polymatroid, so the greedy is lexicographically optimal
for the priority order and minimizes every deficit-weighted drop sum whose
weights descend along it.  Capacity left over at execution time is never
reassigned; the planning step is the complete allocation rule.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import accumulate
from operator import getitem, sub
from typing import Mapping, Sequence

from .queueing import ContractViolation, DeadlineQueue, DeficitQueue, projected_deficit
from .traffic import ServiceSpec, validate_service_ids


def allocate_cohorts(
    order: Sequence[int],
    arrivals: Mapping[int, int] | Sequence[int],
    deadlines: Mapping[int, int] | Sequence[int],
    available: Sequence[int],
) -> dict[int, list[int]]:
    """Lifetime allocation of one frame's arrival batches.

    ``order`` lists the services as keys of ``arrivals`` and ``deadlines``:
    service ids into dicts, or positions into lists.
    ``available`` holds the per-offset free capacity (frame capacity minus
    earlier batches' commitments) and is not mutated.  Every window starts at
    offset 0, so an allocation is feasible exactly when, for each horizon d,
    the services with deadline at most d get no more than the free capacity
    over offsets 0..d-1 in total.

    Amounts: services are taken in the given priority order and each gets the
    minimum of its arrivals and the capacity left under every horizon at or
    beyond its own deadline.  Layout: services are taken by ascending deadline
    (stable, so ties keep the priority order) and each fills the earliest free
    offsets.  The drop vector is lexicographically minimal for ``order``, and
    the deficit-weighted drop sum is minimal for any weights that descend
    along ``order``.  Returns per-service transmission counts per offset.
    """
    horizon = max((deadlines[sid] for sid in order), default=0)
    # slack[d - 1]: capacity over offsets 0..d-1 not yet granted to services
    # whose whole window lies inside it
    slack = list(accumulate(available[:horizon]))
    amounts = {}
    for sid in order:
        m = deadlines[sid]
        x = min(arrivals[sid], *slack[m - 1 :])
        if x:
            slack[m - 1 :] = [v - x for v in slack[m - 1 :]]
        amounts[sid] = x
    free = list(available)
    out = {sid: [0] * deadlines[sid] for sid in order}
    for sid in sorted(order, key=deadlines.__getitem__):
        remaining = amounts[sid]
        alloc = out[sid]
        for i in range(deadlines[sid]):
            if remaining == 0:
                break
            x = free[i]
            if x:
                if x > remaining:
                    x = remaining
                alloc[i] = x
                free[i] -= x
                remaining -= x
    return out


class Scheduler:
    """Behavioral contract shared by all policies."""

    name: str = "base"

    def __init__(self, specs: Sequence[ServiceSpec]):
        validate_service_ids(specs)
        self.specs = tuple(sorted(specs, key=lambda s: s.service_id))

    def decide(
        self,
        frame: int,
        capacity: int,
        queues: Sequence[DeadlineQueue],
        deficits: Sequence[DeficitQueue],
    ) -> list[list[int]]:
        """Row j serves ``queues[j]``: ``row[i]`` packets from bucket r = i + 1."""
        raise NotImplementedError


class DcsaScheduler(Scheduler):
    """Lookahead policy planning each batch over its lifetime at arrival.

    Batches are planned on consecutive frames, so the state is three rings:
    the free capacity of the planning horizon, and per service the last
    ``deadline`` batch allocations (the served vector of a frame is their
    diagonal) and the leftovers of the last ``deadline - 1`` batches (the
    drops already fixed for the coming frames, oldest first).  Services are
    indexed by position in id order (id - 1).
    """

    name = "dcsa"

    def __init__(self, specs: Sequence[ServiceSpec], capacities: Sequence[int]):
        super().__init__(specs)
        self._deadlines = [s.deadline for s in self.specs]
        self._horizon = max(self._deadlines)
        # the trip's capacities, zero past its end
        self._capacities = tuple(capacities) + (0,) * self._horizon
        self._next_frame = 0
        self._free = list(self._capacities[: self._horizon])
        self._allocs = [deque([[0] * m] * m, maxlen=m) for m in self._deadlines]
        self._leftovers = [deque([0] * (m - 1), maxlen=m - 1) for m in self._deadlines]
        self._ratios = [s.loss_allowance.as_integer_ratio() for s in self.specs]
        # deficit numerators times these share one denominator, the lcm
        lcm = math.lcm(*(q for _, q in self._ratios))
        self._scales = [lcm // q for _, q in self._ratios]

    def projected(self, j: int, num: int) -> int:
        """Deficit numerator of service position ``j`` projected to the expiry
        frame of the next batch to plan over the drops already fixed."""
        return projected_deficit(num, *self._ratios[j], self._leftovers[j])

    def priority_order(self, deficits: Sequence[int]) -> list[int]:
        """Service positions by descending projected deficit, compared exactly
        over a common denominator; ties by ascending position (id)."""
        keyed = [
            (-self.projected(j, num) * scale, j)
            for j, (num, scale) in enumerate(zip(deficits, self._scales))
        ]
        return [j for _, j in sorted(keyed)]

    def plan_arrivals(self, frame: int, arrivals: Sequence[int], deficits: Sequence[int]) -> None:
        """Plan the batch of ``frame`` given the deficit numerators; frames
        must be planned 0, 1, 2, ..."""
        if frame != self._next_frame:
            raise ContractViolation(f"frame {frame} is not the next to plan ({self._next_frame})")
        order = self.priority_order(deficits)
        free = self._free
        if frame:
            del free[0]
            free.append(self._capacities[frame + self._horizon - 1])
        self._next_frame = frame + 1
        alloc = allocate_cohorts(order, arrivals, self._deadlines, free)
        for j, row in alloc.items():
            free[: len(row)] = map(sub, free, row)
            self._allocs[j].append(row)
            self._leftovers[j].append(arrivals[j] - sum(row))

    def decide(
        self,
        frame: int,
        capacity: int,
        queues: Sequence[DeadlineQueue],
        deficits: Sequence[DeficitQueue],
    ) -> list[list[int]]:
        """Plan the batch just admitted to the top buckets, then serve the
        diagonal of the planned allocations."""
        self.plan_arrivals(frame, [q.buckets[-1] for q in queues], [dq.num for dq in deficits])
        return [list(map(getitem, ring, range(len(ring) - 1, -1, -1))) for ring in self._allocs]


class RoundRobinScheduler(Scheduler):
    """Serves one service per frame in fixed rotation, oldest packets first."""

    name = "rr"

    def decide(
        self,
        frame: int,
        capacity: int,
        queues: Sequence[DeadlineQueue],
        deficits: Sequence[DeficitQueue],
    ) -> list[list[int]]:
        counts = [[0] * s.deadline for s in self.specs]
        j = frame % len(self.specs)
        served = counts[j]
        left = capacity
        for i, b in enumerate(queues[j].buckets):
            if left == 0:
                break
            x = min(left, b)
            served[i] = x
            left -= x
        return counts


class EdfScheduler(Scheduler):
    """Serves the most urgent packets system-wide, ignoring QoS targets.

    Ties at equal urgency go to the higher service id; the rule is arbitrary
    but fixed so runs stay reproducible.
    """

    name = "edf"

    def __init__(self, specs: Sequence[ServiceSpec]):
        super().__init__(specs)
        self._max_m = max(s.deadline for s in self.specs)
        self._by_desc_id = [(j, s.deadline) for j, s in enumerate(self.specs)][::-1]

    def decide(
        self,
        frame: int,
        capacity: int,
        queues: Sequence[DeadlineQueue],
        deficits: Sequence[DeficitQueue],
    ) -> list[list[int]]:
        counts = [[0] * s.deadline for s in self.specs]
        left = capacity
        for i in range(self._max_m):
            if left == 0:
                break
            for j, m in self._by_desc_id:
                if i >= m:
                    continue
                x = min(left, queues[j].buckets[i])
                if x > 0:
                    counts[j][i] = x
                    left -= x
                if left == 0:
                    break
        return counts


SCHEDULER_POLICIES = ("dcsa", "rr", "edf")


def make_scheduler(policy: str, specs: Sequence[ServiceSpec], capacities: Sequence[int]) -> Scheduler:
    """The named policy; ``capacities`` is the trip's per-frame capacity,
    which only the lookahead policy reads."""
    if policy == "dcsa":
        return DcsaScheduler(specs, capacities)
    if policy == "rr":
        return RoundRobinScheduler(specs)
    if policy == "edf":
        return EdfScheduler(specs)
    raise ValueError(f"unknown scheduler policy {policy!r}; expected one of {SCHEDULER_POLICIES}")
