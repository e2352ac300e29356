"""Verification of the queueing math on traces, plus a brute-force scheduling oracle.

The deficit counters obey two deterministic facts that hold sample-path-wise,
not just in expectation: a squared one-step inequality and a telescoped prefix
inequality.  Both are checked here in exact integer arithmetic (the engine
records each counter as one integer numerator over its loss allowance's
denominator), and a check passes only when no violation is positive: there is
no tolerance for a fault to hide behind, and no round-off to fake one.

The oracle enumerates the feasible lifetime allocations of one frame's queued
cohorts and returns a drop vector of minimal integer-weighted sum; the
lexicographically smallest drop vector under a priority order is the weighted
minimum for radix weights along that order.  It takes the planner's bucket
rows and returns drops in their layout, but its search is deliberately
independent of the scheduler code it is used to audit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .engine import TraceLog

ORACLE_MAX_SERVICES = 3
ORACLE_MAX_COHORTS = 3
ORACLE_MAX_DEADLINE = 3
ORACLE_MAX_ARRIVALS = 6
ORACLE_MAX_CAPACITY = 6
# final deficit per frame below which lemma1 reports a service rate-stable;
# reported only, never part of a verdict
RATE_STABLE_THRESHOLD = 1e-3
# frames per block of the exact checks: a block's object arrays of Python
# integers stay small (each check traces under 0.6 MiB on a 30,000-frame trip,
# where whole columns traced over 7 MiB), and the checks ran fastest at this
# size (blocks of 512 frames took about 13% longer, whole columns about 20%)
CHECK_BLOCK_FRAMES = 2048


def _exact_blocks(trace: TraceLog, j: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Service j's columns in blocks of ``CHECK_BLOCK_FRAMES`` frames: each
    block's first frame, deficit numerators and drops, as Python integers."""
    if trace.num_frames < 1:
        raise ValueError("trace too short")
    for start in range(0, trace.num_frames, CHECK_BLOCK_FRAMES):
        rows = slice(start, start + CHECK_BLOCK_FRAMES)
        yield start, trace.deficit_num[rows, j].astype(object), trace.drops[rows, j].astype(object)


def check_sample_drift(trace: TraceLog) -> dict:
    """Squared one-step deficit inequality, checked on every transition.

    For every service and frame, with Y the counter before the frame's update,
    D the frame's drops and c the loss allowance:

        Y_next^2 <= Y^2 + c^2 + D^2 + 2*Y*(D - c)

    Evaluated on each service's deficit numerators N = Y * q (allowance p/q),
    where it reads N_next^2 <= N^2 + p^2 + (D*q)^2 + 2*N*(D*q - p), in blocks
    of frames held as Python integers, so no product can overflow.  It passes
    iff no transition's violation is positive.  Returns the verdict as its
    ``verify_report.json`` row, with the first worst transition as the
    witness.
    """
    max_violation = Fraction(0)
    worst = (None, None)
    for j, allowance in enumerate(trace.loss_allowances):
        p, q = allowance.as_integer_ratio()
        last = 0  # the counter before the block; it starts at zero
        for start, cur, drops in _exact_blocks(trace, j):
            prev = np.concatenate(([last], cur[:-1]))
            dq = drops * q
            violation = cur * cur - (prev * prev + p * p + dq * dq + 2 * prev * (dq - p))
            i = int(np.argmax(violation))
            top = Fraction(violation[i], q * q)
            # only a strictly greater violation moves the witness
            if top > max_violation:
                max_violation, worst = top, (start + i, j + 1)
            last = cur[-1]
    return {
        "check": "sample_drift",
        "passed": not max_violation,
        "max_violation": float(max_violation),
        "worst_frame": worst[0],
        "worst_service": worst[1],
        "transitions_checked": trace.drops.size,
    }


def check_lemma1(trace: TraceLog) -> dict:
    """Telescoped deficit inequality over every prefix: the counter is at
    least the drops so far less the allowance so far.  It passes iff no
    prefix's violation is positive.  At the last frame the bound reads
    mean drops <= allowance + final counter per frame, the finite-horizon
    form of the delivery target.  Checked in blocks of frames held as Python
    integers.  Returns the verdict as its ``verify_report.json`` row, one
    entry per service under ``services``, each with its first worst prefix.
    """
    n = trace.num_frames
    services = []
    for j, allowance in enumerate(trace.loss_allowances):
        p, q = allowance.as_integer_ratio()
        dropped = 0  # drops before the block
        top, worst = 0, None
        for start, num, drops in _exact_blocks(trace, j):
            # Y[k] >= sum(D[0..k]) - (k + 1) * allowance, scaled by q
            running = dropped + np.cumsum(drops)
            frames = np.arange(start + 1, start + len(num) + 1, dtype=object)
            violation = running * q - frames * p - num
            i = int(np.argmax(violation))
            # only a strictly greater violation moves the witness
            if violation[i] > top:
                top, worst = violation[i], start + i
            dropped = running[-1]
        final_rate = Fraction(int(trace.deficit_num[-1, j]), q * n)
        services.append(
            {
                "service_id": j + 1,
                "prefix_ok": not top,
                "max_prefix_violation": float(Fraction(top, q)),
                "worst_prefix_frame": worst,
                "rate_stable": float(final_rate) < RATE_STABLE_THRESHOLD,
                "final_deficit_per_frame": float(final_rate),
                "mean_drops": float(Fraction(dropped, n)),
                "loss_allowance": float(Fraction(p, q)),
            }
        )
    return {"check": "lemma1", "passed": all(s["prefix_ok"] for s in services), "services": services}


def brute_force_min_weighted_drops(
    rows: Sequence[Sequence[int]], weights: Sequence[Sequence[int]], available: Sequence[int]
) -> list:
    """A drop vector of minimal weighted sum over all feasible allocations.

    ``rows[j][i]`` holds service j's packets with i + 1 frames to go, as the
    planner's rows do, and ``weights[j][i]`` is that cell's non-negative
    integer weight.  The search places the non-empty cells by descending
    weight and prunes any branch whose partial sum already reaches the best
    found.  ``available`` is the per-offset free capacity.  The drops return
    as ``drops[j][i]``, zero on every empty cell.  Instances beyond the guard
    bounds are refused: more than ``ORACLE_MAX_COHORTS`` non-empty cells,
    or one beyond the deadline, arrivals or capacity bound.
    """
    cells = [(j, i) for j, row in enumerate(rows) for i, a in enumerate(row) if a]
    if len(cells) > ORACLE_MAX_COHORTS:
        raise ValueError("instance too large for exhaustive search (cohorts)")
    for j, i in cells:
        if i >= ORACLE_MAX_DEADLINE:
            raise ValueError("instance too large for exhaustive search (deadline)")
        if rows[j][i] > ORACLE_MAX_ARRIVALS:
            raise ValueError("instance too large for exhaustive search (arrivals)")
        if weights[j][i] < 0:
            raise ValueError("oracle weights must be non-negative")
    if any(c > ORACLE_MAX_CAPACITY for c in available):
        raise ValueError("instance too large for exhaustive search (capacity)")
    cells.sort(key=lambda cell: -weights[cell[0]][cell[1]])
    # dropping every packet is feasible, so the first complete branch beats this
    best_cost = sum(weights[j][i] * rows[j][i] for j, i in cells) + 1
    best: list[list[int]] = []
    drops = [[0] * len(row) for row in rows]

    def place(idx: int, caps: list[int], cost: int) -> None:
        nonlocal best, best_cost
        if cost >= best_cost:
            return
        if idx == len(cells):
            best, best_cost = [row.copy() for row in drops], cost
            return
        j, i = cells[idx]
        m, total, weight = i + 1, rows[j][i], weights[j][i]

        def spread(offset: int, left: int, caps2: list[int]) -> None:
            if offset == m:
                drops[j][i] = left
                place(idx + 1, caps2, cost + weight * left)
                return
            for x in range(min(left, caps2[offset]), -1, -1):
                nxt = caps2.copy()
                nxt[offset] -= x
                spread(offset + 1, left - x, nxt)

        spread(0, total, caps)

    place(0, list(available), 0)
    return best


def brute_force_lex_min_drops(order: Sequence[int], rows: Sequence[Sequence[int]], available: Sequence[int]) -> list:
    """Lexicographically minimal drop vector over all feasible allocations.

    It takes ``allocate_cohorts``' arguments and returns drops in the layout
    of ``rows``; the non-empty cohorts are compared by their service's place
    in ``order`` (highest priority first), then by ascending window.  The
    guard caps every drop at ``ORACLE_MAX_ARRIVALS``, so under radix weights
    along that cohort order the weighted sum reads the drop vector as a
    numeral in base ``ORACLE_MAX_ARRIVALS + 1``, and its minimum is the
    lexicographic one.
    """
    radix = ORACLE_MAX_ARRIVALS + 1
    cells = [(j, i) for j in order for i, a in enumerate(rows[j]) if a]
    weights = [[0] * len(row) for row in rows]
    for k, (j, i) in enumerate(cells):
        weights[j][i] = radix ** (len(cells) - 1 - k)
    return brute_force_min_weighted_drops(rows, weights, available)


@dataclass(frozen=True)
class OracleInstance:
    """One randomized planning-frame instance within the oracle guard bounds,
    in the planner's layout: ``order`` lists service positions by priority,
    ``rows[j][i]`` holds service j's packets with i + 1 frames to go and
    ``weights[j]`` is service j's weight."""

    order: tuple[int, ...]
    rows: list[list[int]]
    available: tuple[int, ...]
    weights: tuple[int, ...]


def random_oracle_instances(seed: int, count: int) -> list[OracleInstance]:
    """Deterministic stream of guarded small instances: one to three services
    and one to three non-empty bucket cells among theirs, so a service may
    hold several cohorts.  Priority order is a random permutation standing in
    for the deficit sort, with integer weights in 0..9 that never increase
    along it (ties allowed), as the deficits behind such a sort would.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(count):
        n_svc = int(rng.integers(1, ORACLE_MAX_SERVICES + 1))
        rows = [[0] * int(rng.integers(1, ORACLE_MAX_DEADLINE + 1)) for _ in range(n_svc)]
        cells = [(j, i) for j, row in enumerate(rows) for i in range(len(row))]
        n_cells = int(rng.integers(1, min(ORACLE_MAX_COHORTS, len(cells)) + 1))
        for c in rng.choice(len(cells), n_cells, replace=False).tolist():
            rows[cells[c][0]][cells[c][1]] = int(rng.integers(1, ORACLE_MAX_ARRIVALS + 1))
        horizon = max(map(len, rows))
        available = tuple(rng.integers(0, ORACLE_MAX_CAPACITY + 1, horizon).tolist())
        order = rng.permutation(n_svc).tolist()
        ranked = sorted(rng.integers(0, 10, n_svc).tolist(), reverse=True)
        weights = tuple(ranked[order.index(j)] for j in range(n_svc))
        out.append(OracleInstance(tuple(order), rows, available, weights))
    return out


def oracle_agreement(seed: int, count: int) -> dict:
    """Compare the deficit-driven policy's planning step against the
    brute-force oracle on randomized guarded instances.

    The policy grants the instance's bucket rows in service priority order,
    and both searches take the same rows.  ``lex_agreed`` counts instances
    where the policy's drops, ``rows`` less its grants, equal the
    lexicographic minimum for that order; ``weighted_agreed`` counts
    instances where its weighted drop sum, each cohort weighted as its
    service, equals the minimum, compared as integers.  ``first_mismatch`` is
    the first instance that fails either count, as a dict of positions and
    lists that ``OracleInstance(**first_mismatch)`` rebuilds, also from JSON.
    Returns the verdict as its ``verify_report.json`` row.
    """
    from .schedulers import allocate_cohorts

    lex_agreed = weighted_agreed = 0
    first_mismatch = None
    instances = random_oracle_instances(seed, count)
    for inst in instances:
        grants = allocate_cohorts(inst.order, inst.rows, inst.available)
        policy_drops = [[a - g for a, g in zip(row, granted)] for row, granted in zip(inst.rows, grants)]
        lex_ok = policy_drops == brute_force_lex_min_drops(inst.order, inst.rows, inst.available)
        weights = [[w] * len(row) for w, row in zip(inst.weights, inst.rows)]
        best = brute_force_min_weighted_drops(inst.rows, weights, inst.available)
        weighted_ok = sum(w * (sum(p) - sum(b)) for w, p, b in zip(inst.weights, policy_drops, best)) == 0
        lex_agreed += lex_ok
        weighted_agreed += weighted_ok
        if not (lex_ok and weighted_ok) and first_mismatch is None:
            first_mismatch = asdict(inst)
    return {
        "check": "oracle_agreement",
        "passed": lex_agreed == weighted_agreed == len(instances),
        "total": len(instances),
        "lex_agreed": lex_agreed,
        "weighted_agreed": weighted_agreed,
        "first_mismatch": first_mismatch,
    }
