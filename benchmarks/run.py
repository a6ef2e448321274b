"""Entry point of the torusred benchmark.

    python3 benchmarks/run.py --workload reduce --seed 0 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file, and artifacts go to ``.bench_out/`` there.  The
set-up time is measured here, from starting a fresh interpreter until it
reports that torusred is imported and the workload's inputs are built.
That is done ``SETUP_SAMPLES`` times and the median is reported: the
middle sample goes on to run the workload in ``runner.py``, the others
exit after set-up, half of them before and half after it, so that the
samples are spread over the run.  The last line on stdout is the result object.
"""

from __future__ import annotations

import argparse
import json
import select
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 175.0


class BenchError(RuntimeError):
    pass


def start(cmd, deadline):
    """Start one runner and wait for its ``ready`` line; returns (proc, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
    line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"runner did not get ready (rc={proc.returncode})")
    return proc, elapsed


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc, deadline):
    """Wait for a started runner to exit; returns the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("runner exceeded the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"runner exited with {proc.returncode}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "torusred" / "__init__.py").is_file():
        print(f"benchmark: no torusred sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cmd = [sys.executable, str(HERE / "runner.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    samples = SETUP_SAMPLES if args.trace == 0 else 1
    setup = []
    try:
        for i in range(samples):
            measured = i == samples // 2
            proc, seconds = start(cmd + ([] if measured else ["--probe"]), deadline)
            setup.append(seconds)
            text = finish(proc, deadline)
            if measured:
                out = text
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    values = result["metrics"]
    if args.trace == 0:
        values["setup_s"] = median(setup)
    result["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    print(json.dumps(result))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.startswith("sim.step_us"):
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_mb"):
        return "MB"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
