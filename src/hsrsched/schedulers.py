"""Scheduling policies: deficit-driven re-planning (dcsa), round robin and EDF.

A policy is its ``decide(frame, buckets, nums)``, a closure ``make_scheduler``
builds once per run.  Given the frame index, each service's deadline buckets
(``buckets[j][i]`` holds service j's packets with i + 1 frames to go, this
frame's arrivals already admitted) and exact deficit numerators in spec order,
it returns per service the packets it sends this frame, never more than the
service holds nor, summed, than the frame's capacity, read from the trip's
capacities alone.  The engine serves each total oldest first, changing the
rows in place, so ``decide`` must neither keep nor mutate them.

There are two kinds.  A fixed-order policy (round robin, EDF) serves the
buckets in cell orders built before the trip, taken in turn by frame.  The
deficit-driven policy keeps no plan between frames: when services contend it
ranks them by current deficit and grants every queued cohort (a service's
packets with r frames to go) an amount over the next r frames through one
greedy; it serves those grants, else the buckets, earliest deadline first.
"""

from __future__ import annotations

import math
from itertools import accumulate, zip_longest
from operator import le, mul, sub
from typing import Callable, Sequence

from .traffic import ServiceSpec


def allocate_cohorts(order: Sequence[int], rows: Sequence[Sequence[int]], available: Sequence[int]) -> list:
    """Per position j of ``order`` (highest priority first), the amounts
    granted to the cohorts of ``rows[j]``, whose entry i holds service j's
    packets with i + 1 frames to go: window offsets 0..i of the per-offset
    capacity ``available``, which covers at least the longest row and is
    never negative.  They return in the layout of ``rows``, ``grants[j][i]``,
    and a position that ``order`` omits gets None.

    Positions are taken in order and a position's cohorts by ascending
    window; each gets the minimum of its packets and the capacity left under
    every horizon at or beyond its own.  All windows start at offset 0, so
    the feasible amounts form a polymatroid: the drop vector is
    lexicographically minimal over the cohorts in that order, and so is
    every weighted drop sum whose weights never increase along it.
    """
    horizon = max((len(rows[j]) for j in order), default=0)
    # slack[d]: capacity over offsets 0..d not yet granted to cohorts whose
    # whole window lies inside it
    slack = list(accumulate(available[:horizon]))
    # floor[i]: the least slack over every horizon at or beyond i; the prefix
    # sums of a non-negative capacity never decrease, so at first it is slack
    floor = slack
    grants = [None] * len(rows)
    last = len(order) - 1
    for n, j in enumerate(order):
        row = rows[j]
        if not slack[-1] or not any(row):
            # no capacity left over the whole horizon, or nothing queued
            grants[j] = [0] * len(row)
            continue
        granted = 0
        out = []
        for a, f in zip(row, floor):
            x = f - granted
            if a < x:
                x = a
            granted += x
            out.append(x)
        grants[j] = out
        # no position after the last reads the slack
        if granted and n < last:
            m = len(row)
            slack[:m] = map(sub, slack, accumulate(out))
            slack[m:] = [v - granted for v in slack[m:]]
            floor = list(accumulate(reversed(slack), min))
            floor.reverse()
    return grants


SCHEDULER_POLICIES = ("dcsa", "rr", "edf")


def make_scheduler(policy: str, specs: Sequence[ServiceSpec], capacities: Sequence[int]) -> Callable:
    """The named policy's ``decide(frame, buckets, nums)`` over the trip's
    ``capacities``: entry j of a decision is the packets ``buckets[j]`` sends;
    ``nums[j]`` is service j's deficit times its allowance's denominator."""
    if policy not in SCHEDULER_POLICIES:
        raise ValueError(f"unknown scheduler policy {policy!r}; expected one of {SCHEDULER_POLICIES}")
    deadlines = [s.deadline for s in specs]
    horizon = max(deadlines)
    # the only source of a frame's capacity, zero past the trip end
    caps = tuple(capacities) + (0,) * horizon
    # (position, bucket) by ascending frames to go, then ascending position
    cells = [(j, i) for i in range(horizon) for j, m in enumerate(deadlines) if i < m]

    def serve(order, rows, frame):
        """The packets each position j sends: ``rows[j][i]`` taken cell by
        cell along ``order``'s (j, i) pairs until the capacity runs out."""
        totals = [0] * len(deadlines)
        left = caps[frame]
        for j, i in order:
            x = rows[j][i]
            if x:
                if x >= left:
                    totals[j] += left
                    break
                totals[j] += x
                left -= x
        return totals

    if policy != "dcsa":
        if policy == "rr":
            # one service per frame in fixed rotation; turn j: service j's cells, oldest first
            orders = [[(j, i) for i in range(m)] for j, m in enumerate(deadlines)]
        else:
            # edf: the most urgent packets system-wide, ignoring QoS targets; ties at
            # equal urgency go to the later service, an arbitrary but fixed rule
            orders = [sorted(cells, key=lambda cell: (cell[1], -cell[0]))]

        def fixed_order(frame, buckets, nums):
            return serve(orders[frame % len(orders)], buckets, frame)

        return fixed_order

    denominators = [s.loss_allowance.denominator for s in specs]
    # deficit numerators times these share one denominator, the lcm
    lcm = math.lcm(*denominators)
    scales = [lcm // q for q in denominators]

    def dcsa(frame, buckets, nums):
        """Serve the queued cells earliest deadline first up to the frame
        capacity, ``caps[frame]``; when services contend, serve instead
        the grants of every queued cohort by descending deficit (exact)."""
        available = caps[frame : frame + horizon]
        # Services contend when two or more hold packets and, for some d, the
        # packets with at most d + 1 frames to go exceed the capacity of
        # offsets 0..d.  Otherwise the grants fill as the buckets do: packets
        # that fit every prefix of the nested windows lie in their polymatroid
        # and are granted in full in any order, and a lone service's cohort i
        # gets min(packets, C(i) - granted before), with C(i) >= the capacity.
        if sum(map(any, buckets)) > 1 and not all(
            map(le, accumulate(map(sum, zip_longest(*buckets, fillvalue=0))), accumulate(available))
        ):
            # sorted is stable, also reversed: equal deficits keep ascending position
            keys = list(map(mul, nums, scales))
            order = sorted(range(len(buckets)), key=keys.__getitem__, reverse=True)
            return serve(cells, allocate_cohorts(order, buckets, available), frame)
        return serve(cells, buckets, frame)

    return dcsa
