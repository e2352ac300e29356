"""Scheduling policies: deficit-driven re-planning (dcsa), round robin and EDF.

All policies implement one contract, ``decide(frame, buckets, nums)``: given
the frame index, each service's deadline buckets (``buckets[j][i]`` holds
service j's packets with i + 1 frames to go, this frame's arrivals already
admitted) and exact deficit numerators in service-id order, they return one
row of per-bucket transmission counts per service that never exceed any
bucket content or the frame's capacity, which every policy reads from the
trip's capacity tuple it was built with.

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

from .traffic import ServiceSpec, validate_service_ids


def allocate_cohorts(order: Sequence, rows: Mapping | Sequence, available: Sequence[int]) -> dict:
    """Per key of ``order`` (highest priority first), the amount granted to
    each cohort of ``rows[key]``, whose entry i holds the packets with i + 1
    frames to go: window offsets 0..i of the per-offset capacity
    ``available``, which covers at least the longest row and is never
    negative.

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
    # floor[i]: the least slack over every horizon at or beyond i; the prefix
    # sums of a non-negative capacity never decrease, so at first it is slack
    floor = slack
    grants = {}
    last = len(order) - 1
    for n, key in enumerate(order):
        row = rows[key]
        if not slack[-1] or not any(row):
            # no capacity left over the whole horizon, or nothing queued
            grants[key] = [0] * len(row)
            continue
        granted = 0
        out = []
        for a, f in zip(row, floor):
            x = f - granted
            if a < x:
                x = a
            granted += x
            out.append(x)
        grants[key] = out
        # no key after the last reads the slack
        if granted and n < last:
            m = len(row)
            slack[:m] = map(sub, slack, accumulate(out))
            slack[m:] = [v - granted for v in slack[m:]]
            floor = list(accumulate(reversed(slack), min))
            floor.reverse()
    return grants


class Scheduler:
    """Behavioral contract shared by all policies."""

    name: str = "base"

    def __init__(self, specs: Sequence[ServiceSpec], capacities: Sequence[int]):
        validate_service_ids(specs)
        self.specs = tuple(sorted(specs, key=lambda s: s.service_id))
        # the trip's per-frame capacities, the only source of a frame's capacity
        self.capacities = tuple(capacities)
        deadlines = [s.deadline for s in self.specs]
        self._horizon = max(deadlines)
        # (position, bucket) by ascending frames to go, then ascending id
        self._cells = [(j, i) for i in range(self._horizon) for j, m in enumerate(deadlines) if i < m]

    def decide(self, frame: int, buckets: Sequence[Sequence[int]], nums: Sequence[int]) -> list[list[int]]:
        """Row j serves ``buckets[j]``: ``row[i]`` packets from bucket r = i + 1.
        ``nums[j]`` is service j's deficit times its allowance's denominator."""
        raise NotImplementedError

    def _serve(self, cells, rows, frame: int) -> list[list[int]]:
        """Serve ``rows[j][i]`` packets cell by cell in the order of ``cells``,
        (position j, bucket i) pairs, until the frame's capacity runs out."""
        served = [[0] * s.deadline for s in self.specs]
        left = self.capacities[frame]
        for j, i in cells:
            x = rows[j][i]
            if x:
                if x >= left:
                    served[j][i] = left
                    break
                served[j][i] = x
                left -= x
        return served


class DcsaScheduler(Scheduler):
    """Deficit-driven policy re-planning every queued cohort each frame.

    Nothing is carried between frames: the state is the trip's capacities,
    the planning horizon (the longest deadline), the scales that put every
    deficit numerator over one denominator and the serving order of the
    bucket cells.  Services are indexed by position in id order (id - 1).
    """

    name = "dcsa"

    def __init__(self, specs: Sequence[ServiceSpec], capacities: Sequence[int]):
        super().__init__(specs, capacities)
        # zero past the trip end
        self.capacities += (0,) * self._horizon
        denominators = [s.loss_allowance.denominator for s in self.specs]
        # deficit numerators times these share one denominator, the lcm
        lcm = math.lcm(*denominators)
        self._scales = [lcm // q for q in denominators]

    def decide(self, frame: int, buckets: Sequence[Sequence[int]], nums: Sequence[int]) -> list[list[int]]:
        """Serve the queued cells earliest deadline first up to the frame
        capacity, ``capacities[frame]``; when services contend, serve instead
        the grants of every queued cohort by descending deficit (exact)."""
        available = self.capacities[frame : frame + self._horizon]
        # Services contend when two or more hold packets and, for some d, the
        # packets with at most d + 1 frames to go exceed the capacity of
        # offsets 0..d.  Otherwise the grants fill as the buckets do: packets
        # that fit every prefix of the nested windows lie in their polymatroid
        # and are granted in full in any order, and a lone service's cohort i
        # gets min(packets, C(i) - granted before), with C(i) >= the capacity.
        if sum(map(any, buckets)) > 1 and not all(
            map(le, accumulate(map(sum, zip_longest(*buckets, fillvalue=0))), accumulate(available))
        ):
            # sorted is stable: equal deficits keep ascending id
            order = sorted(range(len(buckets)), key=lambda j: -nums[j] * self._scales[j])
            return self._serve(self._cells, allocate_cohorts(order, buckets, available), frame)
        return self._serve(self._cells, buckets, frame)


class RoundRobinScheduler(Scheduler):
    """Serves one service per frame in fixed rotation, oldest packets first."""

    name = "rr"

    def __init__(self, specs: Sequence[ServiceSpec], capacities: Sequence[int]):
        super().__init__(specs, capacities)
        # turn j: service j's cells, oldest first
        self._turns = [[(j, i) for i in range(s.deadline)] for j, s in enumerate(self.specs)]

    def decide(self, frame: int, buckets: Sequence[Sequence[int]], nums: Sequence[int]) -> list[list[int]]:
        return self._serve(self._turns[frame % len(self._turns)], buckets, frame)


class EdfScheduler(Scheduler):
    """Serves the most urgent packets system-wide, ignoring QoS targets.

    Ties at equal urgency go to the higher service id; the rule is arbitrary
    but fixed so runs stay reproducible.
    """

    name = "edf"

    def __init__(self, specs: Sequence[ServiceSpec], capacities: Sequence[int]):
        super().__init__(specs, capacities)
        # by ascending frames to go, then descending id
        self._cells.sort(key=lambda cell: (cell[1], -cell[0]))

    def decide(self, frame: int, buckets: Sequence[Sequence[int]], nums: Sequence[int]) -> list[list[int]]:
        return self._serve(self._cells, buckets, frame)


_POLICIES = {cls.name: cls for cls in (DcsaScheduler, RoundRobinScheduler, EdfScheduler)}
SCHEDULER_POLICIES = tuple(_POLICIES)


def make_scheduler(policy: str, specs: Sequence[ServiceSpec], capacities: Sequence[int]) -> Scheduler:
    """The named policy over the trip's per-frame ``capacities``."""
    if policy not in _POLICIES:
        raise ValueError(f"unknown scheduler policy {policy!r}; expected one of {SCHEDULER_POLICIES}")
    return _POLICIES[policy](specs, capacities)
