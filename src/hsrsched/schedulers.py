"""Scheduling policies: deficit-driven lookahead (dcsa), round robin and EDF.

All policies implement the same contract: given the frame index, the frame
capacity and the queue states they return per-service per-bucket transmission
counts that never exceed the capacity or any bucket content.

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

from collections import deque
from itertools import accumulate
from operator import getitem, sub
from typing import Callable, Sequence

from .queueing import ContractViolation, DeadlineQueue, FrameServed
from .traffic import ServiceSpec


def projected_deficit(y: float, loss_allowance: float, future_drops: Sequence[int]) -> float:
    """Deficit value after iterating the counter over already-determined drops.

    ``future_drops[j]`` is the drop count that will materialize at the end of
    the j-th upcoming frame; under the lookahead policy these are fixed at
    planning time because every earlier batch is already fully allocated.
    """
    for d in future_drops:
        y -= loss_allowance
        y = (y if y > 0.0 else 0.0) + d
    return y


def allocate_cohorts(
    order: Sequence[int],
    arrivals: dict[int, int],
    deadlines: dict[int, int],
    available: Sequence[int],
) -> dict[int, list[int]]:
    """Lifetime allocation of one frame's arrival batches.

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
        self.specs = tuple(sorted(specs, key=lambda s: s.service_id))

    def plan_arrivals(self, frame: int, arrivals: dict[int, int], deficits: dict[int, float]) -> None:
        """Hook invoked right after admission; only the lookahead policy uses it."""

    def decide(self, frame: int, capacity: int, queues: dict[int, DeadlineQueue]) -> FrameServed:
        raise NotImplementedError


class DcsaScheduler(Scheduler):
    """Lookahead policy planning each batch over its lifetime at arrival.

    Batches are planned on consecutive frames, so the state is three rings:
    the free capacity of the planning horizon, and per service the last
    ``deadline`` batch allocations (the served vector of a frame is their
    diagonal) and the leftovers of the last ``deadline - 1`` batches (the
    drops already fixed for the coming frames, oldest first).
    """

    name = "dcsa"

    def __init__(self, specs: Sequence[ServiceSpec], capacity_lookahead: Callable[[int], int]):
        super().__init__(specs)
        self.lookahead = capacity_lookahead
        self._deadlines = {s.service_id: s.deadline for s in self.specs}
        self._horizon = max(self._deadlines.values())
        self._next_frame = 0
        self._free = list(map(capacity_lookahead, range(self._horizon)))
        self._allocs = {
            s.service_id: deque([[0] * s.deadline] * s.deadline, maxlen=s.deadline)
            for s in self.specs
        }
        self._leftovers = {
            s.service_id: deque([0] * (s.deadline - 1), maxlen=s.deadline - 1)
            for s in self.specs
        }

    def projected(self, spec: ServiceSpec, frame: int, deficit: float) -> float:
        """Deficit projected to the expiry frame of a batch arriving at
        ``frame`` over the drops already fixed; ``frame`` must be the next
        frame to plan."""
        if frame != self._next_frame:
            raise ContractViolation(f"frame {frame} is not the next to plan ({self._next_frame})")
        return projected_deficit(deficit, spec.loss_allowance, self._leftovers[spec.service_id])

    def priority_order(self, frame: int, deficits: dict[int, float]) -> list[int]:
        """Service ids by descending projected deficit; ties by ascending id."""
        keyed = [
            (-self.projected(s, frame, deficits[s.service_id]), s.service_id)
            for s in self.specs
        ]
        return [sid for _, sid in sorted(keyed)]

    def plan_arrivals(self, frame: int, arrivals: dict[int, int], deficits: dict[int, float]) -> None:
        """Plan the batch of ``frame``; frames must be planned 0, 1, 2, ..."""
        order = self.priority_order(frame, deficits)
        free = self._free
        if frame:
            del free[0]
            free.append(self.lookahead(frame + self._horizon - 1))
        self._next_frame = frame + 1
        alloc = allocate_cohorts(order, arrivals, self._deadlines, free)
        for sid, row in alloc.items():
            free[: len(row)] = map(sub, free, row)
            self._allocs[sid].append(row)
            self._leftovers[sid].append(arrivals[sid] - sum(row))

    def decide(self, frame: int, capacity: int, queues: dict[int, DeadlineQueue]) -> FrameServed:
        if frame != self._next_frame - 1:
            raise ContractViolation(
                f"decision for frame {frame}; the last planned frame is {self._next_frame - 1}"
            )
        return FrameServed(
            counts={
                sid: list(map(getitem, ring, range(len(ring) - 1, -1, -1)))
                for sid, ring in self._allocs.items()
            }
        )


class RoundRobinScheduler(Scheduler):
    """Serves one service per frame in fixed rotation, oldest packets first."""

    name = "rr"

    def decide(self, frame: int, capacity: int, queues: dict[int, DeadlineQueue]) -> FrameServed:
        counts = {s.service_id: [0] * s.deadline for s in self.specs}
        chosen = self.specs[frame % len(self.specs)]
        left = capacity
        served = counts[chosen.service_id]
        q = queues[chosen.service_id]
        for i in range(chosen.deadline):
            if left == 0:
                break
            x = min(left, q.buckets[i])
            served[i] = x
            left -= x
        return FrameServed(counts=counts)


class EdfScheduler(Scheduler):
    """Serves the most urgent packets system-wide, ignoring QoS targets.

    Ties at equal urgency go to the higher service id; the rule is arbitrary
    but fixed so runs stay reproducible.
    """

    name = "edf"

    def __init__(self, specs: Sequence[ServiceSpec]):
        super().__init__(specs)
        self._by_desc_id = tuple(sorted(self.specs, key=lambda s: -s.service_id))

    def decide(self, frame: int, capacity: int, queues: dict[int, DeadlineQueue]) -> FrameServed:
        counts = {s.service_id: [0] * s.deadline for s in self.specs}
        left = capacity
        max_m = max(s.deadline for s in self.specs)
        for i in range(max_m):
            if left == 0:
                break
            for spec in self._by_desc_id:
                if i >= spec.deadline:
                    continue
                x = min(left, queues[spec.service_id].buckets[i])
                if x > 0:
                    counts[spec.service_id][i] = x
                    left -= x
                if left == 0:
                    break
        return FrameServed(counts=counts)


SCHEDULER_POLICIES = ("dcsa", "rr", "edf")


def make_scheduler(
    policy: str,
    specs: Sequence[ServiceSpec],
    capacity_lookahead: Callable[[int], int],
) -> Scheduler:
    if policy == "dcsa":
        return DcsaScheduler(specs, capacity_lookahead)
    if policy == "rr":
        return RoundRobinScheduler(specs)
    if policy == "edf":
        return EdfScheduler(specs)
    raise ValueError(f"unknown scheduler policy {policy!r}; expected one of {SCHEDULER_POLICIES}")
