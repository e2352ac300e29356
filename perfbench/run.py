"""Benchmark of hsrsched: three workloads of CLI commands, checked outputs.

    python3 perfbench/run.py --workload trip --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``trip``, ``verify-mixed``, ``sweep``, or ``all``
to run the three one after the other.  A run repeats whole rounds of the
workload's commands, each round in a fresh worker process, until
``--seconds`` have passed; metrics are medians over the rounds.  With
``--trace 0`` the end-to-end metrics are printed (wall_norm, setup_s,
peak_rss_mib); with ``--trace 1`` untraced and traced rounds alternate and the
per-layer metrics of the traced rounds are printed, with trace_overhead_s and
the untraced rounds' wall_s.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads
from tracer import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
# fresh-process set-up samples per run: each untraced round gives one and is
# followed by a set-up-only worker; short runs are topped up to this many
MIN_SETUP_SAMPLES = 15
# a run must end within 180 s; stop starting rounds well before that
HARD_LIMIT_S = 165.0


def run_worker(name, seed, work, deadline, *, traced=False, deep=False, setup_only=False):
    """One worker process; returns its result dict, or None if it failed."""
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", name, "--seed", str(seed), "--root", ROOT, "--work", work,
        "--result", result_path, "--setup-config", workloads.setup_config(name, ROOT),
        "--trace", str(int(traced)), "--deep", str(int(deep)), "--setup-only", str(int(setup_only)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - time.perf_counter())
        )
    except subprocess.TimeoutExpired:
        print(f"[{name}] worker timed out", flush=True)
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"[{name}] worker exited {proc.returncode}:\n{proc.stderr[-2000:]}", flush=True)
        return None
    with open(result_path) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    work = os.path.join(OUT, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workloads.prepare(name, ROOT, work)
    per_round = len(workloads.commands(name, work, seed))
    begin = time.perf_counter()
    deadline = begin + HARD_LIMIT_S
    kinds = (False, True) if trace else (False,)
    rounds = []  # (traced, result or None)
    setups, setup_raws = [], []  # of set-up-only workers, one after each untraced round
    while True:
        traced = kinds[len(rounds) % len(kinds)]
        res = run_worker(name, seed, work, deadline, traced=traced, deep=not rounds)
        rounds.append((traced, res))
        if res is None:
            break
        kind = "traced" if traced else "untraced"
        bad = sum(1 for e in res["errors"] if e)
        print(
            f"[{name}] round {len(rounds)} ({kind}): wall {res['wall_s']:.4f} s, cpu {res['cpu_s']:.4f} s, "
            + (f"wall_norm {res['wall_norm']:.1f} ref, " if "wall_norm" in res else "")
            + f"setup {res['setup_s']:.4f} s, peak RSS {res['peak_rss_mib']:.2f} MiB, "
            f"{per_round - bad}/{per_round} commands ok",
            flush=True,
        )
        if not trace:
            setup = run_worker(name, seed, work, deadline, setup_only=True)
            if setup is not None:
                setups.append(setup["setup_s"])
                setup_raws.append(setup["setup_raw_s"])
        # the first round's checks include the untimed runs of verify-mixed;
        # they are kept out of the measuring window so the rounds fill it
        if len(rounds) == 1:
            begin += res["check_s"]
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds and len(rounds) >= len(kinds):
            break

    ok = [(t, r) for t, r in rounds if r is not None]
    attempted = per_round * len(rounds)
    failed = per_round * (len(rounds) - len(ok)) + sum(1 for _, r in ok for e in r["errors"] if e)
    for _, r in ok:
        for command, errs in zip(r["commands"], r["errors"]):
            for e in errs[:5]:
                print(f"[{name}] FAIL {command}: {e}", flush=True)

    plain = [r for t, r in ok if not t]
    setups += [r["setup_s"] for r in plain]
    setup_raws += [r["setup_raw_s"] for r in plain]
    while not trace and plain and len(setups) < MIN_SETUP_SAMPLES and time.perf_counter() < deadline - 10:
        res = run_worker(name, seed, work, deadline, setup_only=True)
        if res is None:
            break
        setups.append(res["setup_s"])
        setup_raws.append(res["setup_raw_s"])

    def median(key, rs):
        return statistics.median(r[key] for r in rs) if rs else 0.0

    out = {"name": name, "attempted": attempted, "failed": failed, "correct": failed == 0}
    walls = [r["wall_s"] for r in plain]
    summary = [
        f"{name}: {len(rounds)} rounds, {attempted} operations attempted, {failed} failed",
    ]
    if trace:
        layers = [r for t, r in ok if t]
        metrics = {
            k: statistics.median(r["layers"].get(k, 0.0) for r in layers) if layers else 0.0
            for k in LAYER_METRICS if k not in ("trace_overhead_s", "wall_s")
        }
        metrics["trace_overhead_s"] = median("wall_s", layers) - median("wall_s", plain)
        metrics["wall_s"] = median("wall_s", plain)
        out["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in LAYER_METRICS.items()}
        missing = sorted({m for r in layers for m in r["missing"]})
        summary.append(f"  traced rounds: {len(layers)}, untraced rounds: {len(plain)}")
        summary.append(f"  wrapped names missing: {', '.join(missing) if missing else 'none'}")
        if layers:
            summary.append(
                "  largest gap between a command's traced wall and its spans' self times summed: "
                f"{max(r['closure_s'] for r in layers):.3g} s"
            )
        summary += [f"  {k:<38} {v['value']:.6g} {v['unit']}" for k, v in out["metrics"].items()]
    else:
        out["metrics"] = {
            "wall_norm": {"value": median("wall_norm", plain), "unit": "ref"},
            "setup_s": {"value": statistics.median(setups) if setups else 0.0, "unit": "s"},
            "peak_rss_mib": {"value": median("peak_rss_mib", plain), "unit": "MiB"},
        }
        m = out["metrics"]
        if walls:
            norms = [r["wall_norm"] for r in plain]
            summary.append(
                f"  wall_norm    {m['wall_norm']['value']:.4f} ref  median of {len(norms)} rounds "
                f"({min(norms):.4f} .. {max(norms):.4f})"
            )
            summary.append(
                f"  wall_s       {statistics.median(walls):.4f} s    median of {len(walls)} rounds, not reported "
                f"({min(walls):.4f} .. {max(walls):.4f})"
            )
        summary.append(
            f"  setup_s      {m['setup_s']['value']:.4f} s    median of {len(setups)} fresh processes, "
            f"at the reference speed (raw {statistics.median(setup_raws) if setup_raws else 0.0:.4f} s)"
        )
        summary.append(f"  peak_rss_mib {m['peak_rss_mib']['value']:.2f} MiB  median of {len(plain)} rounds")
    stats = ok[0][1]["stats"] if ok else {}
    for policy, st in stats.items():
        svc = ", ".join(
            f"s{sid} delivery {v['delivery_ratio']:.4f} deficit {v['final_deficit']:.9g}"
            for sid, v in st["services"].items()
        )
        summary.append(f"  {policy}: {svc}; unused capacity {st['unused_capacity']} pkts")
    print("\n".join(summary), flush=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "hsrsched", "__init__.py")):
        print(f"no hsrsched package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['name']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
