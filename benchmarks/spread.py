"""Run-to-run spread of the end-to-end metrics.

    python3 benchmarks/spread.py --workloads sweep --seeds 1 2 3 4 5
    python3 benchmarks/spread.py --seeds 0 1 2 3 4 5 6 7 8 9 --save out.json

Runs the command from ``BENCHMARK.json`` once per workload and seed,
one run at a time, and prints for each end-to-end metric its median and
the distance between the first and third quartile as a share of the
median, next to a third of the metric's bound.  The same is shown for
the pass time from unscaled wall times, which has no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: rc={proc.returncode}\n{proc.stderr}")
    detail, result = proc.stdout.rstrip("\n").split("\n")[-2:]
    return json.loads(detail)["detail"], json.loads(result), elapsed


def raw_wall(samples):
    """The pass time from unscaled wall times, as ``wall_s`` of a traced run."""
    times = {}
    for s in samples:
        times.setdefault(s["op"], []).append(s["wall"])
    return sum(statistics.median_low(t) for t in times.values())


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="*", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="write every result to this JSON file")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    saved = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            detail, res, elapsed = run_once(spec, wl, seed, args.trace)
            saved.setdefault("env", {k: v for k, v in detail["env"].items() if k != "seed"})
            values = {k: v["value"] for k, v in res["metrics"].items()}
            if args.trace == 0:
                values["raw_wall_s"] = raw_wall(detail["samples"])
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"], "samples": len(detail["samples"]),
                         "run_s": elapsed, "metrics": values})
            shown = {k: round(v, 4) for k, v in values.items()}
            print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}"
                  f"/{res['attempted']} run {elapsed:.1f}s {shown}", flush=True)
        summary = {}
        if args.trace == 0 and len(args.seeds) >= 2:
            for name, bound in list(bounds.items()) + [("raw_wall_s", None)]:
                med, share = spread([r["metrics"][name] for r in runs])
                summary[name] = {"median": med, "iqr_over_median": share}
                if bound is None:
                    note = "(not gated)"
                else:
                    note = f"(bound/3 {bound / 3:.4f}) " + ("ok" if share < bound / 3 else "WIDE")
                print(f"  {wl:12s} {name:12s} median {med:10.4f}  iqr/median {share:.4f}"
                      f"  {note}", flush=True)
        saved["workloads"][wl] = {"summary": summary, "runs": runs}
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
