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
minimum for radix weights along that order.  It is deliberately independent
of the scheduler code it is used to audit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .engine import TraceLog

ORACLE_MAX_SERVICES = 3
ORACLE_MAX_DEADLINE = 3
ORACLE_MAX_ARRIVALS = 6
ORACLE_MAX_CAPACITY = 6
# final deficit per frame below which lemma1 reports a service rate-stable;
# reported only, never part of a verdict
RATE_STABLE_THRESHOLD = 1e-3


def _exact_columns(trace: TraceLog, j: int) -> tuple[np.ndarray, int, int]:
    """Service j's deficit numerators as Python integers, with its loss
    allowance p/q."""
    p, q = trace.loss_allowances[j].as_integer_ratio()
    return trace.deficit_num[:, j].astype(object), p, q


@dataclass(frozen=True)
class DriftCheckReport:
    passed: bool
    max_violation: float
    worst_frame: int | None
    worst_service: int | None
    transitions_checked: int

    def to_dict(self) -> dict:
        return {"check": "sample_drift", **asdict(self)}

    def to_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"{status} sample_drift: {self.transitions_checked} transitions, "
            f"max violation {self.max_violation:.3g}"
        ]
        if not self.passed:
            lines.append(f"  worst at frame {self.worst_frame}, service {self.worst_service}")
        return "\n".join(lines) + "\n"


def check_sample_drift(trace: TraceLog) -> DriftCheckReport:
    """Squared one-step deficit inequality, checked on every transition.

    For every service and frame, with Y the counter before the frame's update,
    D the frame's drops and c the loss allowance:

        Y_next^2 <= Y^2 + c^2 + D^2 + 2*Y*(D - c)

    Evaluated on each service's deficit numerators N = Y * q (allowance p/q),
    where it reads N_next^2 <= N^2 + p^2 + (D*q)^2 + 2*N*(D*q - p), as whole
    columns of Python integers, so no product can overflow.  It passes iff
    no transition's violation is positive.
    """
    max_violation = Fraction(0)
    worst = (None, None)
    for j in range(len(trace.loss_allowances)):
        cur, p, q = _exact_columns(trace, j)
        prev = np.concatenate(([0], cur[:-1]))
        dq = trace.drops[:, j].astype(object) * q
        violation = cur * cur - (prev * prev + p * p + dq * dq + 2 * prev * (dq - p))
        top = Fraction(violation.max(initial=0), q * q)
        if top > max_violation:
            max_violation = top
            worst = (int(np.argmax(violation)), j + 1)
    return DriftCheckReport(
        passed=not max_violation,
        max_violation=float(max_violation),
        worst_frame=worst[0],
        worst_service=worst[1],
        transitions_checked=trace.drops.size,
    )


@dataclass(frozen=True)
class ServiceLemma1Report:
    service_id: int
    prefix_ok: bool
    max_prefix_violation: float
    worst_prefix_frame: int | None
    rate_stable: bool
    final_deficit_per_frame: float
    mean_drops: float
    loss_allowance: float


@dataclass(frozen=True)
class Lemma1Report:
    passed: bool
    services: tuple[ServiceLemma1Report, ...]

    def to_dict(self) -> dict:
        return {"check": "lemma1", **asdict(self)}

    def to_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{status} lemma1"]
        for s in self.services:
            lines.append(
                f"  service {s.service_id}: prefix_ok={s.prefix_ok}, "
                f"rate_stable={s.rate_stable} (final Y/K = {s.final_deficit_per_frame:.3g}), "
                f"mean drops {s.mean_drops:.6g} vs allowance {s.loss_allowance:.6g}"
            )
            if not s.prefix_ok:
                lines.append(f"    worst prefix at frame {s.worst_prefix_frame}")
        return "\n".join(lines) + "\n"


def check_lemma1(trace: TraceLog) -> Lemma1Report:
    """Telescoped deficit inequality over every prefix: the counter is at
    least the drops so far less the allowance so far.  It passes iff no
    prefix's violation is positive.  At the last frame the bound reads
    mean drops <= allowance + final counter per frame, the finite-horizon
    form of the delivery target.
    """
    if trace.num_frames < 1:
        raise ValueError("trace too short")
    n = trace.num_frames
    frames = np.arange(1, n + 1, dtype=object)
    reports = []
    for j in range(len(trace.loss_allowances)):
        num, p, q = _exact_columns(trace, j)
        # Y[k] >= sum(D[0..k]) - (k + 1) * allowance, scaled by q
        running = np.cumsum(trace.drops[:, j].astype(object))
        violation = running * q - frames * p - num
        worst = int(np.argmax(violation))
        max_violation = Fraction(max(0, violation[worst]), q)
        final_rate = Fraction(num[-1], q * n)
        reports.append(
            ServiceLemma1Report(
                service_id=j + 1,
                prefix_ok=not max_violation,
                max_prefix_violation=float(max_violation),
                worst_prefix_frame=worst if max_violation else None,
                rate_stable=float(final_rate) < RATE_STABLE_THRESHOLD,
                final_deficit_per_frame=float(final_rate),
                mean_drops=float(Fraction(running[-1], n)),
                loss_allowance=float(Fraction(p, q)),
            )
        )
    return Lemma1Report(passed=all(r.prefix_ok for r in reports), services=tuple(reports))


def _check_oracle_guard(weights, arrivals, deadlines, available) -> None:
    if len(weights) > ORACLE_MAX_SERVICES:
        raise ValueError("instance too large for exhaustive search (services)")
    for sid in weights:
        if deadlines[sid] > ORACLE_MAX_DEADLINE:
            raise ValueError("instance too large for exhaustive search (deadline)")
        if arrivals[sid] > ORACLE_MAX_ARRIVALS:
            raise ValueError("instance too large for exhaustive search (arrivals)")
        if weights[sid] < 0:
            raise ValueError("oracle weights must be non-negative")
    if any(c > ORACLE_MAX_CAPACITY for c in available):
        raise ValueError("instance too large for exhaustive search (capacity)")


def brute_force_min_weighted_drops(
    weights: Mapping[int, int],
    arrivals: Mapping[int, int],
    deadlines: Mapping[int, int],
    available: Sequence[int],
) -> dict[int, int]:
    """A drop vector of minimal weighted sum over all feasible allocations.

    ``weights`` maps each key (a service id, or a cohort's (service id, r)) to
    a non-negative integer weight; the search places keys by descending weight
    and prunes any branch whose partial sum already reaches the best found.  ``available`` is the
    per-offset free capacity.  Instances beyond the guard bounds are refused.
    """
    _check_oracle_guard(weights, arrivals, deadlines, available)
    order = sorted(weights, key=lambda sid: -weights[sid])
    # dropping every packet is feasible, so the first complete branch beats this
    best_cost = sum(weights[sid] * arrivals[sid] for sid in order) + 1
    best: list[int] = []

    def place(sid_idx: int, caps: list[int], drops: list[int], cost: int) -> None:
        nonlocal best, best_cost
        if cost >= best_cost:
            return
        if sid_idx == len(order):
            best, best_cost = drops, cost
            return
        sid = order[sid_idx]
        m, total = deadlines[sid], arrivals[sid]

        def spread(offset: int, left: int, caps2: list[int]) -> None:
            if offset == m:
                place(sid_idx + 1, caps2, drops + [left], cost + weights[sid] * left)
                return
            for x in range(min(left, caps2[offset]), -1, -1):
                nxt = caps2.copy()
                nxt[offset] -= x
                spread(offset + 1, left - x, nxt)

        spread(0, total, caps)

    place(0, list(available), [], 0)
    return dict(zip(order, best))


def brute_force_lex_min_drops(
    order: Sequence[int],
    arrivals: Mapping[int, int],
    deadlines: Mapping[int, int],
    available: Sequence[int],
) -> dict[int, int]:
    """Lexicographically minimal drop vector over all feasible allocations.

    ``order`` lists service ids from highest to lowest priority; the returned
    drops are compared position by position in that order.  The guard caps
    every drop at ``ORACLE_MAX_ARRIVALS``, so under radix weights along the
    order the weighted sum reads the drop vector as a numeral in base
    ``ORACLE_MAX_ARRIVALS + 1``, and its minimum is the lexicographic one.
    """
    radix = ORACLE_MAX_ARRIVALS + 1
    weights = {sid: radix ** (len(order) - 1 - i) for i, sid in enumerate(order)}
    return brute_force_min_weighted_drops(weights, arrivals, deadlines, available)


@dataclass(frozen=True)
class OracleInstance:
    """One randomized planning-frame instance within the oracle guard bounds:
    ``rows[sid][i]`` holds service ``sid``'s packets with i + 1 frames to go."""

    order: tuple[int, ...]
    rows: dict[int, list[int]]
    available: tuple[int, ...]
    weights: dict[int, int]

    def cohorts(self) -> tuple[list, dict, dict, dict]:
        """The oracle's view: the non-empty cohorts keyed (service id, r) by
        service priority and then ascending r, their packets, their windows
        (r) and their service's weights."""
        keys = [(sid, i + 1) for sid in self.order for i, a in enumerate(self.rows[sid]) if a]
        packets = {(sid, r): self.rows[sid][r - 1] for sid, r in keys}
        return keys, packets, {k: k[1] for k in keys}, {k: self.weights[k[0]] for k in keys}


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
        rows = {sid: [0] * int(rng.integers(1, ORACLE_MAX_DEADLINE + 1)) for sid in range(1, n_svc + 1)}
        cells = [(sid, i) for sid, row in rows.items() for i in range(len(row))]
        n_cells = int(rng.integers(1, min(ORACLE_MAX_SERVICES, len(cells)) + 1))
        for c in rng.choice(len(cells), n_cells, replace=False).tolist():
            rows[cells[c][0]][cells[c][1]] = int(rng.integers(1, ORACLE_MAX_ARRIVALS + 1))
        horizon = max(map(len, rows.values()))
        available = tuple(rng.integers(0, ORACLE_MAX_CAPACITY + 1, horizon).tolist())
        order = rng.permutation(np.arange(1, n_svc + 1)).tolist()
        weights = dict(zip(order, sorted(rng.integers(0, 10, n_svc).tolist(), reverse=True)))
        out.append(OracleInstance(tuple(order), rows, available, weights))
    return out


@dataclass(frozen=True)
class OracleAgreementReport:
    total: int
    lex_agreed: int
    weighted_agreed: int
    first_mismatch: OracleInstance | None

    @property
    def passed(self) -> bool:
        return self.lex_agreed == self.weighted_agreed == self.total

    def to_dict(self) -> dict:
        return {"check": "oracle_agreement", "passed": self.passed, **asdict(self)}


def oracle_agreement(seed: int, count: int) -> OracleAgreementReport:
    """Compare the deficit-driven policy's planning step against the
    brute-force oracle on randomized guarded instances.

    The policy grants the instance's bucket rows in service priority order;
    the oracle searches over the non-empty cohorts keyed (service id, r).
    ``lex_agreed`` counts instances where the policy's drop vector equals the
    lexicographic minimum for the cohort order; ``weighted_agreed`` counts
    instances where its weighted drop sum, each cohort weighted as its
    service, equals the minimum, compared as integers.  ``first_mismatch`` is
    the first instance that fails either count.
    """
    from .schedulers import allocate_cohorts

    lex_agreed = weighted_agreed = 0
    first_mismatch = None
    instances = random_oracle_instances(seed, count)
    for inst in instances:
        grants = allocate_cohorts(inst.order, inst.rows, inst.available)
        keys, packets, windows, weights = inst.cohorts()
        policy_drops = {(sid, r): a - grants[sid][r - 1] for (sid, r), a in packets.items()}
        frame = (packets, windows, inst.available)
        lex_ok = policy_drops == brute_force_lex_min_drops(keys, *frame)
        best = brute_force_min_weighted_drops(weights, *frame)
        weighted_ok = sum(w * (policy_drops[k] - best[k]) for k, w in weights.items()) == 0
        lex_agreed += lex_ok
        weighted_agreed += weighted_ok
        if not (lex_ok and weighted_ok) and first_mismatch is None:
            first_mismatch = inst
    return OracleAgreementReport(len(instances), lex_agreed, weighted_agreed, first_mismatch)
