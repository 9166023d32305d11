"""Steadiness check for the benchmark: runs run.py once per seed on each
workload, one run at a time, and reports each end-to-end metric's median and
spread (the distance between its first and third quartile over the runs, as
a share of the median) against a third of the metric's bound.

    python3 perfbench/steady.py --workloads theorem-k1,corollary-w10 --seeds 1-10
        [--trace 1] [--save A.json] [--compare A.json]

--save writes the medians, artifact digests and exact counts of this set of
runs; --compare checks this set against a saved one: every median within its
bound, and digests and exact counts identical for each workload and seed.
Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = ("count", "bit", "B")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=400)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = json.loads((HERE / "out" / f"BENCH_{workload}_seed{seed}_trace{trace}.json").read_text())
    exact = {n: m["value"] for n, m in last["metrics"].items() if m["unit"] in EXACT_UNITS}
    return {
        "elapsed_s": elapsed,
        "correct": last["correct"],
        "failed": last["failed"],
        "metrics": {n: m["value"] for n, m in last["metrics"].items()},
        "digests": saved["artifact_sha256"],
        "exact": exact,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        runs = {}
        for seed in args.seeds:
            runs[seed] = r = run_once(workload, seed, spec["run_seconds"], args.trace)
            ok &= r["correct"] and r["failed"] == 0
            print(f"{workload} seed {seed}: {r['elapsed_s']:.1f} s correct={r['correct']} failed={r['failed']} "
                  + " ".join(f"{n}={v:.6g}" for n, v in r["metrics"].items() if n in bounds),
                  flush=True)
        medians = {}
        for name in runs[args.seeds[0]]["metrics"]:
            values = [r["metrics"][name] for r in runs.values()]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            medians[name] = med
            if name in bounds:
                spread = (q3 - q1) / med if med else 0.0
                flag = "ok" if spread < bounds[name] / 3 else "WIDE"
                if spread > bounds[name]:
                    ok, flag = False, "OVER BOUND"
                print(f"  {name:<12} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                      f"spread={spread:.4f} bound/3={bounds[name] / 3:.4f} {flag}")
        summary[workload] = {
            "medians": medians,
            "runs": {str(s): {"digests": r["digests"], "exact": r["exact"]} for s, r in runs.items()},
        }
    if args.compare:
        before = json.loads(Path(args.compare).read_text())
        for workload, now in summary.items():
            if workload not in before:
                continue
            for name, bound in bounds.items():
                if name not in now["medians"]:
                    continue
                old, new = before[workload]["medians"][name], now["medians"][name]
                worse = (new - old) / old if better[name] == "lower" else (old - new) / old
                verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
                ok &= worse <= bound
                print(f"compare {workload} {name}: {old:.6g} -> {new:.6g} ({worse:+.4f}) {verdict}")
            for seed, run in now["runs"].items():
                prev = before[workload]["runs"].get(seed)
                if prev is not None and prev != run:
                    ok = False
                    print(f"compare {workload} seed {seed}: digests or exact counts differ")
    if args.save:
        Path(args.save).write_text(json.dumps(summary, indent=1) + "\n")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
