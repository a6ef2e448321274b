"""One benchmark process: set up a workload, then time its operations.

Started by ``run.py``.  It prints ``ready`` as soon as torusred is
imported and the workload's inputs are built (``run.py`` times that
line as the set-up), and with ``--probe`` exits there.  Otherwise it
calls the workload's operations in turn until ``--seconds`` is used up,
each at least twice, so every artifact is produced twice and its
digests can be compared.  The speed probe of ``reference.py`` runs on
its own thread meanwhile.  ``cpu_norm_s`` is one pass over the
operations, each at the low median of its CPU times rescaled by the
probe's speed during the call.  With ``--trace 1`` whole
passes alternate untraced and traced; the per-layer metrics come from
the traced ones, the raw pass times from the untraced ones, and the
tracing overhead is the difference of the two.

The last line on stdout is the result object; the line before it holds
the environment and every sample's time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median, median_low

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SAMPLES = 2


def load_program():
    """Import torusred from the checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import torusred
    import torusred.cli  # noqa: F401  (the tracer wraps the cli layer too)

    if Path(torusred.__file__).resolve().parent != src / "torusred":
        raise SystemExit(f"torusred was imported from {torusred.__file__}, not {src}")
    return torusred


def commit():
    """The checkout's commit if it is a git work tree, else ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed):
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "torusred").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "TORUSRED_THREADS": os.environ.get("TORUSRED_THREADS"),
    }


def run_op(op, out, tracer, package, trace_mod, probe):
    """Time one call of ``op``.

    Returns (start, end, CPU seconds, raw output, error text or None); the
    CPU time is the process's, less what the speed probe used meanwhile.
    """
    gc.collect()
    undo = trace_mod.install(tracer, package) if tracer is not None else None
    raw = error = None
    try:
        c0, p0 = reference.cpu_seconds(), probe.cpu_seconds()
        t0 = time.perf_counter()
        try:
            raw = op.run(out)
        except Exception:  # an op that raises is a failed operation
            error = traceback.format_exc()
            traceback.print_exc()
        t1 = time.perf_counter()
        cpu = reference.cpu_seconds() - c0 - (probe.cpu_seconds() - p0)
    finally:
        if undo is not None:
            trace_mod.uninstall(undo)
    return t0, t1, cpu, raw, error


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    package = load_program()
    import tracing as trace_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    work = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, work)
        print("ready", flush=True)
        if args.probe:
            return 0
        return measure(args, ops, work, package, trace_mod, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, ops, work, package, trace_mod, workloads):
    samples = []
    probe = reference.SpeedProbe()

    def take(op, tracer=None):
        """Run ``op`` once, check its output and keep the sample; returns the
        wall time both took."""
        begin = time.perf_counter()
        out = work / f"{op.name}-{len(samples)}"
        t0, t1, cpu, raw, error = run_op(op, out, tracer, package, trace_mod, probe)
        if error is None:
            outcome = op.check(out, raw)
        else:
            outcome = workloads.Outcome([("raised", False, "exception")], {})
        shutil.rmtree(out, ignore_errors=True)
        speed = probe.speed(t0, t1)
        samples.append({"op": op.name, "traced": tracer is not None, "wall": t1 - t0,
                        "cpu": cpu, "probe": speed, "norm": normalise(cpu, speed),
                        "outcome": outcome})
        return time.perf_counter() - begin

    deadline = time.perf_counter() + args.seconds
    try:
        if args.trace:
            tracers = traced_passes(ops, take, deadline, trace_mod)
        else:
            round_robin(ops, take, deadline)
    finally:
        probe.stop()

    failed = sum(not s["outcome"].ok for s in samples)
    mismatched = [op.name for op in ops
                  if len({json.dumps(s["outcome"].digests, sort_keys=True)
                          for s in samples if s["op"] == op.name}) > 1]
    failed += len(mismatched)

    if args.trace:
        metrics = per_layer(samples, probe, tracers, trace_mod, workloads)
        spans = ROOT / ".bench_out" / f"trace-{args.workload}-s{args.seed}.json"
        spans.write_text(json.dumps(tracers[-1].to_json()))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"cpu_norm_s": pass_time(op_times(samples, False, "norm")),
                   "peak_rss_mb": rss_mb}

    first = {}
    for s in samples:
        first.setdefault(s["op"], s["outcome"])
    detail = {
        "workload": args.workload,
        "env": environment(args.seed),
        "samples": [{key: s[key] for key in ("op", "traced", "wall", "cpu", "probe", "norm")}
                    for s in samples],
        "gates": {name: o.gates for name, o in first.items()},
        "failing": [[i, s["op"], s["outcome"].gates] for i, s in enumerate(samples)
                    if not s["outcome"].ok],
        "digests": {name: o.digests for name, o in first.items()},
        "digest_mismatch": mismatched,
    }
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


def round_robin(ops, take, deadline):
    """Call the ops in turn until the deadline.

    Every op runs at least ``MIN_SAMPLES`` times.  After that an op runs
    again only if its low-median time fits in the time left, and of those
    that fit the one with the fewest samples goes first, so short ops fill
    the tail of the run.
    """
    times = {op.name: [] for op in ops}
    while True:
        left = deadline - time.perf_counter()
        fits = [op for op in ops if len(times[op.name]) < MIN_SAMPLES
                or median_low(times[op.name]) <= left]
        if not fits:
            return
        op = min(fits, key=lambda op: len(times[op.name]))
        times[op.name].append(take(op))


def traced_passes(ops, take, deadline, trace_mod):
    """Passes over all ops, alternately untraced and traced, until the deadline.

    At least one pass of each kind runs.  Returns the traced passes' tracers.
    """
    tracers, walls = [], []
    while True:
        tracer = trace_mod.Tracer() if len(walls) % 2 == 1 else None
        walls.append(sum(take(op, tracer) for op in ops))
        if tracer is not None:
            tracers.append(tracer)
        if tracers and time.perf_counter() + median(walls) > deadline:
            return tracers


def normalise(cpu, speed):
    """An op's CPU time at the speed probe's nominal speed.

    ``speed`` is the probe snippet's mean CPU time while the op ran.
    """
    return cpu * reference.NOMINAL_S / speed


def op_times(samples, traced, key):
    """``{op name: [sample[key], ...]}`` over the traced or the untraced samples."""
    times = {}
    for s in samples:
        if s["traced"] == traced:
            times.setdefault(s["op"], []).append(s[key])
    return times


def pass_time(times):
    """One pass over the ops, each at the low median of its samples' times.

    With two samples the low median is the faster one, so a sample that
    the host slowed down does not move the result.
    """
    return sum(median_low(t) for t in times.values())


def per_layer(samples, probe, tracers, trace_mod, workloads):
    """Median per-layer metrics over traced passes, plus untraced pass and op times."""
    rows = [trace_mod.layer_metrics(t.spans) for t in tracers]
    metrics = {key: median(r[key] for r in rows) for key in rows[0]}
    traced_bytes = [s["outcome"].artifact_bytes for s in samples if s["traced"]]
    metrics["cli.artifact_bytes"] = sum(traced_bytes) / len(tracers)
    plain = op_times(samples, False, "wall")
    for name in workloads.OP_NAMES:
        metrics[f"op.{name}_s"] = median(plain[name]) if name in plain else 0.0
    metrics["wall_s"] = pass_time(plain)
    metrics["cpu_s"] = pass_time(op_times(samples, False, "cpu"))
    metrics["probe_s"] = median(d for _, d in probe.samples)
    metrics["trace.overhead_s"] = pass_time(op_times(samples, True, "wall")) - metrics["wall_s"]
    return metrics


if __name__ == "__main__":
    sys.exit(main())
