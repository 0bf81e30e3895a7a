"""Run the benchmark over several seeds and summarise it, with the machine it ran on.

    python3 perfbench/baseline.py --seeds 1-10 --trace-seed 1 --output baseline.json
    python3 perfbench/baseline.py --seeds 11-20 --compare baseline.json

For each workload and end-to-end metric it reports the median over the
seeds, the quartiles (statistics.quantiles(values, n=4)) and the spread, the
distance between the quartiles as a share of the median, against the
metric's bound in BENCHMARK.json.  With --compare it also reports how far
each median moved in the worse direction since an earlier summary.  Runs are
made one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from record_reference import git_rev
from run import ROOT, load_spec


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,5,9")
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload with this seed")
    parser.add_argument("--compare", help="an earlier summary to compare medians with")
    parser.add_argument("--output", help="write the summary here as JSON")
    args = parser.parse_args()

    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]

    summary = {
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "git_rev": git_rev(),
        "seeds": seeds,
        "run_seconds": seconds,
        "workloads": {},
    }
    worst_ok = True
    for wl in workloads:
        runs = [run_once(wl, seed, seconds, 0) for seed in seeds]
        entry = {"attempted": sum(r["attempted"] for r in runs), "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}}
        for m in spec["end_to_end"]:
            s = summarise([r["metrics"][m["name"]]["value"] for r in runs])
            s["unit"] = m["unit"]
            s["spread_ok"] = s["spread"] <= m["bound"]
            if earlier is not None and wl in earlier:
                before = earlier[wl]["end_to_end"][m["name"]]["median"]
                worse = (s["median"] - before) / before
                s["drift"] = worse if m["better"] == "lower" else -worse
                s["drift_ok"] = s["drift"] <= m["bound"]
            worst_ok &= s["spread_ok"] and s.get("drift_ok", True)
            entry["end_to_end"][m["name"]] = s
            drift = f"  drift {s['drift']:+.3f}" if "drift" in s else ""
            print(f"{wl:<17} {m['name']:<12} median {s['median']:<12.6g} spread {s['spread']:.3f}"
                  f" (bound {m['bound']}){drift}", flush=True)
        if args.trace_seed is not None:
            traced = run_once(wl, args.trace_seed, seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, "attempted": traced["attempted"], "failed": traced["failed"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
            entry["failed"] += traced["failed"]
        print(f"{wl:<17} attempted {entry['attempted']}, failed {entry['failed']}", flush=True)
        worst_ok &= entry["failed"] == 0
        summary["workloads"][wl] = entry
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    print("all spreads, drifts and checks within bounds" if worst_ok else "SOME METRIC OUTSIDE ITS BOUND")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
