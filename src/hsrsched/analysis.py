"""Verification of the queueing math on traces, plus a brute-force scheduling oracle.

The deficit counters obey two deterministic facts that hold sample-path-wise,
not just in expectation: a squared one-step inequality and a telescoped prefix
inequality.  Both are checked here in exact integer arithmetic (the engine
records each counter as one integer numerator over its loss allowance's
denominator) so violations cannot hide behind float round-off, and round-off
cannot fake violations.

The oracle enumerates every feasible lifetime allocation of one frame's
arrival batches and returns the lexicographically smallest drop vector under a
given priority order; it is deliberately independent of the scheduler code it
is used to audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .engine import TraceLog

ORACLE_MAX_SERVICES = 3
ORACLE_MAX_DEADLINE = 3
ORACLE_MAX_ARRIVALS = 6
ORACLE_MAX_CAPACITY = 6


def weighted_drop_objective(deficits: Sequence[float], drops: Sequence[int]) -> float:
    """Inner product of deficit weights and drop counts."""
    if len(deficits) != len(drops):
        raise ValueError("deficits and drops must align")
    return float(sum(y * d for y, d in zip(deficits, drops)))


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
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "check": "sample_drift",
            "passed": self.passed,
            "max_violation": self.max_violation,
            "worst_frame": self.worst_frame,
            "worst_service": self.worst_service,
            "transitions_checked": self.transitions_checked,
            "tolerance": self.tolerance,
        }

    def to_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"{status} sample_drift: {self.transitions_checked} transitions, "
            f"max violation {self.max_violation:.3g} (tolerance {self.tolerance:.3g})"
        ]
        if not self.passed:
            lines.append(f"  worst at frame {self.worst_frame}, service {self.worst_service}")
        return "\n".join(lines) + "\n"


def check_sample_drift(trace: TraceLog, tolerance: float = 1e-9) -> DriftCheckReport:
    """Squared one-step deficit inequality, checked on every transition.

    For every service and frame, with Y the counter before the frame's update,
    D the frame's drops and c the loss allowance:

        Y_next^2 <= Y^2 + c^2 + D^2 + 2*Y*(D - c)

    Evaluated on each service's deficit numerators N = Y * q (allowance p/q),
    where it reads N_next^2 <= N^2 + p^2 + (D*q)^2 + 2*N*(D*q - p), as whole
    columns of Python integers, so no product can overflow.
    """
    max_violation = Fraction(0)
    worst = (None, None)
    for j, sid in enumerate(trace.service_ids):
        cur, p, q = _exact_columns(trace, j)
        prev = np.concatenate(([0], cur[:-1]))
        dq = trace.drops[:, j].astype(object) * q
        violation = cur * cur - (prev * prev + p * p + dq * dq + 2 * prev * (dq - p))
        top = Fraction(violation.max(initial=0), q * q)
        if top > max_violation:
            max_violation = top
            worst = (int(np.argmax(violation)), sid)
    return DriftCheckReport(
        passed=max_violation <= tolerance,
        max_violation=float(max_violation),
        worst_frame=worst[0],
        worst_service=worst[1],
        transitions_checked=trace.drops.size,
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class ServiceLemma1Report:
    service_id: int
    prefix_ok: bool
    max_prefix_violation: float
    rate_stable: bool
    final_deficit_per_frame: float
    mean_drops: float
    loss_allowance: float
    mean_drop_bound_ok: bool


@dataclass(frozen=True)
class Lemma1Report:
    passed: bool
    services: tuple[ServiceLemma1Report, ...]
    tolerance: float
    rate_threshold: float

    def to_dict(self) -> dict:
        return {
            "check": "lemma1",
            "passed": self.passed,
            "tolerance": self.tolerance,
            "rate_threshold": self.rate_threshold,
            "services": [
                {
                    "service_id": s.service_id,
                    "prefix_ok": s.prefix_ok,
                    "max_prefix_violation": s.max_prefix_violation,
                    "rate_stable": s.rate_stable,
                    "final_deficit_per_frame": s.final_deficit_per_frame,
                    "mean_drops": s.mean_drops,
                    "loss_allowance": s.loss_allowance,
                    "mean_drop_bound_ok": s.mean_drop_bound_ok,
                }
                for s in self.services
            ],
        }

    def to_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{status} lemma1 (tolerance {self.tolerance:.3g})"]
        for s in self.services:
            lines.append(
                f"  service {s.service_id}: prefix_ok={s.prefix_ok}, "
                f"rate_stable={s.rate_stable} (final Y/K = {s.final_deficit_per_frame:.3g}), "
                f"mean drops {s.mean_drops:.6g} vs allowance {s.loss_allowance:.6g}"
            )
        return "\n".join(lines) + "\n"


def check_lemma1(
    trace: TraceLog,
    rate_threshold: float = 1e-3,
    tolerance: float = 1e-9,
) -> Lemma1Report:
    """Telescoped deficit inequality over every prefix, plus the finite-horizon
    consequence: when the final counter is small per frame, the mean drop rate
    stays within the loss allowance plus that residue.
    """
    if trace.num_frames < 1:
        raise ValueError("trace too short")
    n = trace.num_frames
    frames = np.arange(1, n + 1, dtype=object)
    reports = []
    for j, sid in enumerate(trace.service_ids):
        num, p, q = _exact_columns(trace, j)
        # Y[k] >= sum(D[0..k]) - (k + 1) * allowance, scaled by q
        running = np.cumsum(trace.drops[:, j].astype(object))
        max_violation = Fraction(max(0, (running * q - frames * p - num).max()), q)
        final_rate = Fraction(num[-1], q * n)
        mean_drops = Fraction(running[-1], n)
        allowance = Fraction(p, q)
        bound_ok = mean_drops <= allowance + final_rate + Fraction(tolerance)
        reports.append(
            ServiceLemma1Report(
                service_id=sid,
                prefix_ok=max_violation <= tolerance,
                max_prefix_violation=float(max_violation),
                rate_stable=float(final_rate) < rate_threshold,
                final_deficit_per_frame=float(final_rate),
                mean_drops=float(mean_drops),
                loss_allowance=float(allowance),
                mean_drop_bound_ok=bool(bound_ok),
            )
        )
    passed = all(r.prefix_ok and r.mean_drop_bound_ok for r in reports)
    return Lemma1Report(
        passed=passed,
        services=tuple(reports),
        tolerance=tolerance,
        rate_threshold=rate_threshold,
    )


def _check_oracle_guard(order, arrivals, deadlines, available) -> None:
    if len(order) > ORACLE_MAX_SERVICES:
        raise ValueError("instance too large for exhaustive search (services)")
    for sid in order:
        if deadlines[sid] > ORACLE_MAX_DEADLINE:
            raise ValueError("instance too large for exhaustive search (deadline)")
        if arrivals[sid] > ORACLE_MAX_ARRIVALS:
            raise ValueError("instance too large for exhaustive search (arrivals)")
    if any(c > ORACLE_MAX_CAPACITY for c in available):
        raise ValueError("instance too large for exhaustive search (capacity)")


def brute_force_lex_min_drops(
    order: Sequence[int],
    arrivals: Mapping[int, int],
    deadlines: Mapping[int, int],
    available: Sequence[int],
) -> dict[int, int]:
    """Lexicographically minimal drop vector over all feasible allocations.

    ``order`` lists service ids from highest to lowest priority; the returned
    drops are compared position by position in that order.  ``available`` is
    the per-offset free capacity.  Instances beyond the guard bounds are
    refused.
    """
    _check_oracle_guard(order, arrivals, deadlines, available)
    best: list[int] | None = None

    def place(sid_idx: int, caps: list[int], drops: list[int]) -> None:
        nonlocal best
        if best is not None and drops > best[: len(drops)]:
            return
        if sid_idx == len(order):
            if best is None or drops < best:
                best = list(drops)
            return
        sid = order[sid_idx]
        m, total = deadlines[sid], arrivals[sid]

        def spread(offset: int, left: int, caps2: list[int]) -> None:
            if offset == m:
                place(sid_idx + 1, caps2, drops + [left])
                return
            for x in range(min(left, caps2[offset]), -1, -1):
                nxt = caps2.copy()
                nxt[offset] -= x
                spread(offset + 1, left - x, nxt)

        spread(0, total, caps)

    place(0, list(available), [])
    assert best is not None
    return {sid: best[i] for i, sid in enumerate(order)}


@dataclass(frozen=True)
class OracleInstance:
    """One randomized planning-frame instance within the oracle guard bounds."""

    order: tuple[int, ...]
    arrivals: dict[int, int]
    deadlines: dict[int, int]
    available: tuple[int, ...]
    deficits: dict[int, float]


def random_oracle_instances(seed: int, count: int) -> list[OracleInstance]:
    """Deterministic stream of guarded small instances.

    Priority order is a random permutation standing in for the deficit sort,
    with deficit weights assigned consistently (descending along the order).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(count):
        n_svc = int(rng.integers(1, ORACLE_MAX_SERVICES + 1))
        sids = list(range(1, n_svc + 1))
        deadlines = {sid: int(rng.integers(1, ORACLE_MAX_DEADLINE + 1)) for sid in sids}
        arrivals = {sid: int(rng.integers(0, ORACLE_MAX_ARRIVALS + 1)) for sid in sids}
        available = tuple(
            int(rng.integers(0, ORACLE_MAX_CAPACITY + 1))
            for _ in range(max(deadlines.values()))
        )
        order = list(sids)
        rng.shuffle(order)
        weights = sorted((float(w) for w in rng.uniform(0.0, 10.0, n_svc)), reverse=True)
        deficits = {sid: weights[i] for i, sid in enumerate(order)}
        out.append(
            OracleInstance(
                order=tuple(order),
                arrivals=arrivals,
                deadlines=deadlines,
                available=available,
                deficits=deficits,
            )
        )
    return out


@dataclass(frozen=True)
class OracleAgreementReport:
    total: int
    lex_agreed: int
    weighted_agreed: int
    first_mismatch: OracleInstance | None

    @property
    def passed(self) -> bool:
        return self.lex_agreed == self.total

    def to_dict(self) -> dict:
        return {
            "check": "oracle_agreement",
            "passed": self.passed,
            "total": self.total,
            "lex_agreed": self.lex_agreed,
            "weighted_agreed": self.weighted_agreed,
        }


def oracle_agreement(seed: int, count: int) -> OracleAgreementReport:
    """Compare the lookahead policy's planning step against the brute-force
    oracle on randomized guarded instances.

    ``lex_agreed`` counts instances where the policy's drop vector equals the
    lexicographic minimum; ``weighted_agreed`` counts instances where its
    deficit-weighted drop objective equals the global optimum (diagnostic).
    """
    from .schedulers import allocate_cohorts

    lex_agreed = 0
    weighted_agreed = 0
    first_mismatch = None
    instances = random_oracle_instances(seed, count)
    for inst in instances:
        alloc = allocate_cohorts(inst.order, inst.arrivals, inst.deadlines, inst.available)
        policy_drops = {sid: inst.arrivals[sid] - sum(alloc[sid]) for sid in inst.order}
        oracle_drops = brute_force_lex_min_drops(
            inst.order, inst.arrivals, inst.deadlines, inst.available
        )
        if all(policy_drops[sid] == oracle_drops[sid] for sid in inst.order):
            lex_agreed += 1
        elif first_mismatch is None:
            first_mismatch = inst
        policy_obj = weighted_drop_objective(
            [inst.deficits[sid] for sid in inst.order],
            [policy_drops[sid] for sid in inst.order],
        )
        best_obj = brute_force_min_weighted_drops(
            inst.deficits, inst.arrivals, inst.deadlines, inst.available
        )
        if abs(policy_obj - best_obj) < 1e-9:
            weighted_agreed += 1
    return OracleAgreementReport(
        total=len(instances),
        lex_agreed=lex_agreed,
        weighted_agreed=weighted_agreed,
        first_mismatch=first_mismatch,
    )


def brute_force_min_weighted_drops(
    deficits: Mapping[int, float],
    arrivals: Mapping[int, int],
    deadlines: Mapping[int, int],
    available: Sequence[int],
) -> float:
    """Global minimum of the deficit-weighted drop objective over all feasible
    allocations; diagnostic companion to the lexicographic oracle."""
    order = sorted(arrivals)
    _check_oracle_guard(order, arrivals, deadlines, available)
    best = float("inf")

    def place(sid_idx: int, caps: list[int], partial: float) -> None:
        nonlocal best
        if partial >= best:
            return
        if sid_idx == len(order):
            best = partial
            return
        sid = order[sid_idx]
        m, total = deadlines[sid], arrivals[sid]

        def spread(offset: int, left: int, caps2: list[int]) -> None:
            if offset == m:
                place(sid_idx + 1, caps2, partial + deficits[sid] * left)
                return
            for x in range(min(left, caps2[offset]), -1, -1):
                nxt = caps2.copy()
                nxt[offset] -= x
                spread(offset + 1, left - x, nxt)

        spread(0, total, caps)

    place(0, list(available), 0.0)
    return best
