"""Scheduling policies: deficit-driven re-planning (dcsa), round robin and EDF.

All policies implement one contract, ``decide(frame, capacity, queues,
deficits)``: given the frame index, the frame capacity, and the deadline and
deficit queues in service-id order (this frame's arrivals already admitted),
they return one row of per-bucket transmission counts per service that never
exceed the capacity or any bucket content.

The deficit-driven policy keeps no plan between frames.  When services contend
it ranks them by current deficit and grants every queued cohort (a service's
packets with r frames to go) an amount over the next r frames through one
greedy; it serves those grants, else the buckets, earliest deadline first.
"""

from __future__ import annotations

import math
from itertools import accumulate, zip_longest
from operator import le, sub
from typing import Mapping, Sequence

from .queueing import DeadlineQueue, DeficitQueue
from .traffic import ServiceSpec, validate_service_ids


def allocate_cohorts(order: Sequence, rows: Mapping | Sequence, available: Sequence[int]) -> dict:
    """Per key of ``order`` (highest priority first), the amount granted to
    each cohort of ``rows[key]``, whose entry i holds the packets with i + 1
    frames to go: window offsets 0..i of the per-offset capacity
    ``available``, which covers at least the longest row.

    Keys are taken in order and a key's cohorts by ascending window; each gets
    the minimum of its packets and the capacity left under every horizon at or
    beyond its own.  All windows start at offset 0, so the feasible amounts
    form a polymatroid: the drop vector is lexicographically minimal over the
    cohorts in that order, and so is every weighted drop sum whose weights
    never increase along it.
    """
    horizon = max((len(rows[key]) for key in order), default=0)
    # slack[d]: capacity over offsets 0..d not yet granted to cohorts whose
    # whole window lies inside it
    slack = list(accumulate(available[:horizon]))
    grants = {}
    for key in order:
        row = rows[key]
        if not slack[-1] or not any(row):
            # no capacity left over the whole horizon, or nothing queued
            grants[key] = [0] * len(row)
            continue
        # floor[i]: the least slack over every horizon at or beyond i
        floor = list(accumulate(reversed(slack), min))
        floor.reverse()
        granted = 0
        out = []
        for a, f in zip(row, floor):
            x = f - granted
            if a < x:
                x = a
            granted += x
            out.append(x)
        if granted:
            m = len(row)
            slack[:m] = map(sub, slack, accumulate(out))
            slack[m:] = [v - granted for v in slack[m:]]
        grants[key] = out
    return grants


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
    """Deficit-driven policy re-planning every queued cohort each frame.

    Nothing is carried between frames: the state is the trip's capacities,
    the planning horizon (the longest deadline), the scales that put every
    deficit numerator over one denominator and the serving order of the
    bucket cells.  Services are indexed by position in id order (id - 1).
    """

    name = "dcsa"

    def __init__(self, specs: Sequence[ServiceSpec], capacities: Sequence[int]):
        super().__init__(specs)
        deadlines = [s.deadline for s in self.specs]
        self._horizon = max(deadlines)
        # the trip's capacities, zero past its end
        self._capacities = tuple(capacities) + (0,) * self._horizon
        denominators = [s.loss_allowance.denominator for s in self.specs]
        # deficit numerators times these share one denominator, the lcm
        lcm = math.lcm(*denominators)
        self._scales = [lcm // q for q in denominators]
        # (position, bucket) by ascending frames to go, then ascending id
        self._cells = [(j, i) for i in range(self._horizon) for j, m in enumerate(deadlines) if i < m]

    def decide(
        self,
        frame: int,
        capacity: int,
        queues: Sequence[DeadlineQueue],
        deficits: Sequence[DeficitQueue],
    ) -> list[list[int]]:
        """Serve the queued cells earliest deadline first up to the frame
        capacity, ``capacities[frame]``; when services contend, serve instead
        the grants of every queued cohort by descending deficit (exact)."""
        rows = [q.buckets for q in queues]
        available = self._capacities[frame : frame + self._horizon]
        # Services contend when two or more hold packets and, for some d, the
        # packets with at most d + 1 frames to go exceed the capacity of
        # offsets 0..d.  Otherwise the grants fill as the buckets do: packets
        # that fit every prefix of the nested windows lie in their polymatroid
        # and are granted in full in any order, and a lone service's cohort i
        # gets min(packets, C(i) - granted before), with C(i) >= the capacity.
        if sum(map(any, rows)) > 1 and not all(
            map(le, accumulate(map(sum, zip_longest(*rows, fillvalue=0))), accumulate(available))
        ):
            order = sorted(range(len(queues)), key=lambda j: (-deficits[j].num * self._scales[j], j))
            rows = allocate_cohorts(order, rows, available)
        served = [[0] * q.deadline for q in queues]
        left = capacity
        for j, i in self._cells:
            x = rows[j][i]
            if x:
                if x >= left:
                    served[j][i] = left
                    break
                served[j][i] = x
                left -= x
        return served


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
    which only the deficit-driven policy reads."""
    if policy == "dcsa":
        return DcsaScheduler(specs, capacities)
    if policy == "rr":
        return RoundRobinScheduler(specs)
    if policy == "edf":
        return EdfScheduler(specs)
    raise ValueError(f"unknown scheduler policy {policy!r}; expected one of {SCHEDULER_POLICIES}")
