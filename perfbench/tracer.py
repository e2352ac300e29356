"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each public function or method named in
``TARGETS`` with a wrapper that records a span (name, start, end, parent).  A
module-level function is rebound in every ``hsrsched`` module that imported it
by name (``cli.run`` is ``engine.run``), so every call path is covered.  Spans
live in flat arrays in memory and are written out once, by ``save``.  A target
that no longer exists is listed in ``missing`` and the run carries on.

A span's self time is its duration minus the durations of its direct
children; calls are strictly nested (one thread), so the self times of a
command's spans add up to the command's own span.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

POLICIES = ("dcsa", "rr", "edf")

# (span name, owner inside hsrsched, attribute)
TARGETS = (
    ("cli.main", "cli", "main"),
    ("cli.parse_config", "cli", "parse_config"),
    ("cli.fig3_rows", "cli", "fig3_rows"),
    ("channel.build_capacity_profile", "channel", "build_capacity_profile"),
    ("traffic.truncated_poisson_pmf", "traffic", "truncated_poisson_pmf"),
    ("traffic.sample_run", "traffic.ArrivalGenerator", "sample_run"),
    ("traffic.feasibility_check", "traffic", "feasibility_check"),
    ("schedulers.dcsa.plan_arrivals", "schedulers.DcsaScheduler", "plan_arrivals"),
    ("schedulers.allocate_cohorts", "schedulers", "allocate_cohorts"),
    ("schedulers.dcsa.decide", "schedulers.DcsaScheduler", "decide"),
    ("schedulers.rr.decide", "schedulers.RoundRobinScheduler", "decide"),
    ("schedulers.edf.decide", "schedulers.EdfScheduler", "decide"),
    ("queueing.admit", "queueing.DeadlineQueue", "admit"),
    ("queueing.serve_and_age", "queueing.DeadlineQueue", "serve_and_age"),
    ("queueing.deficit_update", "queueing.DeficitQueue", "update"),
    ("queueing.validate", "queueing.FrameServed", "validate"),
    ("engine.to_csv", "engine.TraceLog", "to_csv"),
    ("analysis.check_sample_drift", "analysis", "check_sample_drift"),
    ("analysis.check_lemma1", "analysis", "check_lemma1"),
    ("analysis.oracle_agreement", "analysis", "oracle_agreement"),
    # one span name per policy, chosen from the run's config
    ("engine.run", "engine", "run"),
)

# every per-layer metric of BENCHMARK.json, with its unit
LAYER_METRICS = {
    "channel.build_capacity_profile_s": "s",
    "channel.profile_builds": "count",
    "traffic.truncated_poisson_pmf_s": "s",
    "traffic.truncated_poisson_pmf_calls": "count",
    "traffic.sample_run_s": "s",
    "traffic.feasibility_check_s": "s",
    "schedulers.dcsa.plan_arrivals_s": "s",
    "schedulers.dcsa.plan_arrivals_calls": "count",
    "schedulers.allocate_cohorts_s": "s",
    "schedulers.allocate_cohorts_calls": "count",
    "schedulers.dcsa.decide_s": "s",
    "schedulers.rr.decide_s": "s",
    "schedulers.edf.decide_s": "s",
    "queueing.admit_s": "s",
    "queueing.serve_and_age_s": "s",
    "queueing.deficit_update_s": "s",
    "queueing.validate_s": "s",
    "engine.dcsa.frames_per_s": "frames/s",
    "engine.rr.frames_per_s": "frames/s",
    "engine.edf.frames_per_s": "frames/s",
    "engine.self_s": "s",
    "engine.to_csv_s": "s",
    "engine.trace_bytes": "bytes",
    "analysis.check_sample_drift_s": "s",
    "analysis.check_lemma1_s": "s",
    "analysis.transitions_checked": "count",
    "analysis.transitions_per_s": "1/s",
    "analysis.oracle_agreement_s": "s",
    "analysis.oracle_instances_per_s": "1/s",
    "cli.parse_config_s": "s",
    "cli.self_s": "s",
    "cli.fig3_rows_s": "s",
    "cli.sweep_points_per_s": "1/s",
    "trace_overhead_s": "s",
    "wall_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._profile_misses = None

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(result, args)`` runs
        once the span is closed, to update counts."""
        nid = self._name(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def _make(self, name: str, fn):
        counts = self.counts
        if name == "engine.run":
            per_policy = {
                p: self.wrap(
                    f"engine.run.{p}",
                    fn,
                    lambda r, a, p=p: counts.update({f"frames.{p}": getattr(a[0], "frames", 0)}),
                )
                for p in POLICIES
            }
            return functools.wraps(fn)(lambda config, *a, **k: per_policy[config.scheduler](config, *a, **k))
        if name == "channel.build_capacity_profile" and hasattr(fn, "cache_info"):
            self._profile_misses = (fn, fn.cache_info().misses)
            return self.wrap(name, fn)
        hooks = {
            "engine.to_csv": lambda r, a: counts.update({"trace_bytes": os.path.getsize(a[1])}),
            "analysis.check_sample_drift": lambda r, a: counts.update(
                {"transitions": getattr(r, "transitions_checked", 0)}
            ),
            "analysis.oracle_agreement": lambda r, a: counts.update({"instances": getattr(r, "total", 0)}),
            "cli.fig3_rows": lambda r, a: counts.update({"points": len(r)}),
        }
        return self.wrap(name, fn, hooks.get(name))

    def install(self, package) -> None:
        prefix = package.__name__
        modules = [m for n, m in sys.modules.items() if n == prefix or n.startswith(prefix + ".")]
        for name, owner_path, attr in TARGETS:
            owner = package
            try:
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            new = self._make(name, fn)
            if isinstance(owner, type):
                setattr(owner, attr, new)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, new)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def self_times(self) -> np.ndarray:
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has = parent >= 0
        children = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return dur - children

    def root_closure(self, roots: list[int], walls: list[float]) -> float:
        """Largest gap between a command's wall time, taken outside the
        wrappers, and the self times of its spans summed."""
        self_t = self.self_times()
        parent = np.frombuffer(self.parent, dtype=np.int32)
        top = np.flatnonzero(parent < 0).tolist() + [len(parent)]
        gaps = []
        for root, wall in zip(roots, walls):
            stop = next(t for t in top if t > root)
            gaps.append(abs(wall - float(self_t[root:stop].sum())))
        return max(gaps, default=0.0)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far (trace_overhead_s
        and wall_s are left to the caller, which has the untraced wall)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        k = len(self.names)
        incl = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=self.self_times(), minlength=k)
        calls = np.bincount(ids, minlength=k)

        def total(name, of=incl):
            i = self._ids.get(name)
            return float(of[i]) if i is not None else 0.0

        def per_s(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        c = self.counts
        m = {
            "channel.build_capacity_profile_s": total("channel.build_capacity_profile"),
            "channel.profile_builds": 0.0,
            "traffic.truncated_poisson_pmf_s": total("traffic.truncated_poisson_pmf"),
            "traffic.truncated_poisson_pmf_calls": total("traffic.truncated_poisson_pmf", calls),
            "traffic.sample_run_s": total("traffic.sample_run"),
            "traffic.feasibility_check_s": total("traffic.feasibility_check"),
            "schedulers.dcsa.plan_arrivals_s": total("schedulers.dcsa.plan_arrivals"),
            "schedulers.dcsa.plan_arrivals_calls": total("schedulers.dcsa.plan_arrivals", calls),
            "schedulers.allocate_cohorts_s": total("schedulers.allocate_cohorts"),
            "schedulers.allocate_cohorts_calls": total("schedulers.allocate_cohorts", calls),
            "queueing.admit_s": total("queueing.admit"),
            "queueing.serve_and_age_s": total("queueing.serve_and_age"),
            "queueing.deficit_update_s": total("queueing.deficit_update"),
            "queueing.validate_s": total("queueing.validate"),
            "engine.self_s": sum(total(f"engine.run.{p}", own) for p in POLICIES),
            "engine.to_csv_s": total("engine.to_csv"),
            "engine.trace_bytes": float(c["trace_bytes"]),
            "analysis.check_sample_drift_s": total("analysis.check_sample_drift"),
            "analysis.check_lemma1_s": total("analysis.check_lemma1"),
            "analysis.transitions_checked": float(c["transitions"]),
            "analysis.transitions_per_s": per_s(c["transitions"], total("analysis.check_sample_drift")),
            "analysis.oracle_agreement_s": total("analysis.oracle_agreement"),
            "analysis.oracle_instances_per_s": per_s(c["instances"], total("analysis.oracle_agreement")),
            "cli.parse_config_s": total("cli.parse_config"),
            "cli.self_s": total("cli.main", own) + total("cli.fig3_rows", own),
            "cli.fig3_rows_s": total("cli.fig3_rows"),
            "cli.sweep_points_per_s": per_s(c["points"], total("cli.fig3_rows")),
        }
        for p in POLICIES:
            m[f"schedulers.{p}.decide_s"] = total(f"schedulers.{p}.decide")
            m[f"engine.{p}.frames_per_s"] = per_s(c[f"frames.{p}"], total(f"engine.run.{p}"))
        if self._profile_misses is not None:
            fn, base = self._profile_misses
            m["channel.profile_builds"] = float(fn.cache_info().misses - base)
        else:
            m["channel.profile_builds"] = total("channel.build_capacity_profile", calls)
        return m
