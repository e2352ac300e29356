"""One round of a workload, in a fresh process.

Set-up (import ``hsrsched``, parse the workload's config, first uncached
``build_capacity_profile``) is timed from the top of this file, and scaled to
the reference speed by samples of the reference computation of reference.py
taken right after it.  Then the round's CLI commands run through
``hsrsched.cli.main`` one after the other.  In an untraced round the reference
is sampled right before and during each command; ``wall_s`` is the sum of the
commands' wall times less the samples, and ``wall_norm`` the sum of each of
those divided by the mean time of a sample around it.  Peak resident memory
is read right after the last command, before any check.  The outputs are then
checked and a JSON result is written to ``--result``.  With ``--trace 1``
spans are recorded around the program's public functions (see tracer.py); the
untraced round installs nothing.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-config", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--deep", type=int, default=0)
    ap.add_argument("--setup-only", type=int, default=0)
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    import hsrsched
    from hsrsched import cli

    if not os.path.abspath(hsrsched.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"hsrsched imported from {hsrsched.__file__}, not from {src}", file=sys.stderr)
        return 2
    if tracer is not None:
        tracer.install(hsrsched)
    cfg = cli.parse_config(args.setup_config)
    hsrsched.build_capacity_profile(cfg.sim.trajectory, cfg.sim.radio)
    setup_raw_s = time.perf_counter() - T0
    import reference

    sampler = reference.Sampler()
    sample_s = sampler.take(reference.SETUP_SAMPLES)
    result = {"setup_raw_s": setup_raw_s, "setup_s": setup_raw_s * reference.SAMPLE_S / sample_s}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    import workloads

    shutil.rmtree(os.path.join(args.work, "out"), ignore_errors=True)
    shutil.rmtree(os.path.join(args.work, "check"), ignore_errors=True)
    argvs = workloads.commands(args.workload, args.work, args.seed)
    codes, walls, cpus, roots, norms = [], [], [], [], []
    # the traced round takes no samples: they would land inside its spans
    if tracer is not None:
        sampler = None
    for argv in argvs:
        if tracer is not None:
            roots.append(len(tracer.start))
        with sampler or contextlib.nullcontext():
            t, c = time.perf_counter(), time.process_time()
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse rejected the arguments
                codes.append(f"SystemExit {exc.code}")
            wall, cpu = time.perf_counter() - t, time.process_time() - c
        if sampler is not None:
            wall -= sampler.in_command_s()
            cpu -= sampler.in_command_s()
            norms.append(wall / sampler.mean_s())
        walls.append(wall)
        cpus.append(cpu)
    result["wall_s"] = sum(walls)
    result["cpu_s"] = sum(cpus)
    if sampler is not None:
        result["wall_norm"] = sum(norms)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["missing"] = tracer.missing
        result["closure_s"] = tracer.root_closure(roots, walls)
        tracer.save(os.path.join(args.work, "spans.npz"))

    checking = time.perf_counter()
    extra = workloads.deep_check_commands(args.workload, args.work, args.seed) if args.deep else []
    with contextlib.redirect_stdout(io.StringIO()):
        extra_codes = [cli.main(argv) for argv in extra]
    try:
        errors, stats = workloads.check_round(args.workload, args.work, codes, bool(args.deep))
    except (OSError, ValueError, KeyError) as exc:
        errors, stats = [[f"outputs unreadable: {type(exc).__name__}: {exc}"]] * len(argvs), {}
    result["check_s"] = time.perf_counter() - checking
    for i, code in enumerate(codes):
        if code != 0:
            errors[i] = [f"exit {code}"] + errors[i]
    if any(code != 0 for code in extra_codes):
        errors[0] = [f"check runs exited {extra_codes}"] + errors[0]
    result.update(commands=[" ".join(a) for a in argvs], errors=errors, stats=stats)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
