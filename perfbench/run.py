"""mzvkit benchmark: times the `mzvkit` command line the way a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; NAME is one of the workloads in
`workloads.py`, or `all` to run each in turn. Each child is a fresh
`python -m mzvkit.cli ...` process, started only after the previous one has
exited (a closed loop with one client), while the next one is expected to
end within S seconds. Every child's output is checked; a nonzero exit, a
failed check or an artifact that differs from the run's first one counts
the child as failed. The benchmark and all its children run on one CPU.

Host contention on shared machines changes this CPU's speed by up to about
1.8x for seconds to minutes at a time. So while a child runs, the benchmark
times a short fixed probe of the child's kind of work (`PROBES`) on the same
CPU every PROBE_EVERY_S, and reports child times in reference loops of
REFERENCE_PROBES probes at the speed measured around them.

--trace 0 prints the end-to-end metrics listed in BENCHMARK.json:
  wall_rel     median child wall time (spawn to exit), in reference loops
  cpu_rel      median child user + system time (os.wait4), in reference loops
  peak_rss_mb  median of the child's own ru_maxrss
  setup_s      median time to start Python and import mzvkit.cli, at the
               speed where a bare interpreter start takes BARE_START_S
  ok_frac      children that passed over children attempted
and, after them on the same row, the raw medians wall_s, cpu_s and
setup_raw_s and the median reference loop time reference_s, in seconds.
--trace 1 alternates plain children with traced ones (`trace_child.py`)
and prints the per-layer metrics: medians of self times over the traced
children, and exact counts that must repeat from child to child.

Each run writes its samples, artifact digests, exact counts and
environment to perfbench/out/BENCH_<workload>_seed<N>_trace<T>.json. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SPAWNS = 15  # at least this many set-up samples per run
# Median wall time of `python -c pass` on the 2-vCPU Xeon host the bounds
# were set on. Each import is timed right after a bare interpreter start and
# reported in units of it, times this constant, so that setup_s reads in
# seconds on that host while the host's speed changes cancel out.
BARE_START_S = 0.083
PROBE_EVERY_S = 0.2
PROBE_STEPS = 100
PROBE_WORDS = ["x" * (i % 5) + "y" * (i % 3) + "xy" for i in range(97)]
PROBE_ARRAY = numpy.arange(1.0, 20001.0)
REFERENCE_PROBES = 600
RUN_DEADLINE_S = 170.0  # every child is killed after this much of a run


class Run:
    """One benchmark run of one workload: its work directory, child
    environment, deadline and the verdicts of the artifacts seen so far."""

    def __init__(self, workload, seed: int, trace: int):
        self.workload = workload
        self.workdir = OUT / f"work-{workload.name}-{seed}-{trace}-{os.getpid()}"
        self.workdir.mkdir(parents=True)
        paths = {"input": self.workdir / "input.json", "artifact": self.workdir / "artifact.json"}
        self.artifact_path = paths["artifact"]
        self.cli_args = [a.format(**paths) for a in workload.args]
        self.input_words = self.expected = None
        if workload.make_input is not None:
            poly, self.expected = workload.make_input(seed)
            self.input_words = len(poly)
            paths["input"].write_text(json.dumps(poly.to_dict()) + "\n")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.verdicts: dict[str, tuple[str | None, dict]] = {}
        self.first_digest = None

    def spawn(self, argv, probe=None) -> dict:
        """Start argv, wait for it to exit, and return its wall time,
        rusage and exit code. With a probe, also time the probe on this CPU
        before the start and every PROBE_EVERY_S until the exit, and return
        the child's wall time in reference loops."""
        probes = [(time.perf_counter(), probe())] if probe else []
        with open(self.workdir / "stdout", "wb") as out, open(self.workdir / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                while not poller.poll(PROBE_EVERY_S * 1000):
                    if time.perf_counter() > self.deadline:
                        proc.kill()
                    elif probe:
                        probes.append((time.perf_counter(), probe()))
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(pidfd)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = {
            "wall_s": end - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode,
        }
        if probe:
            # Each probe's speed holds until the next probe starts; the
            # child runs in the gaps between probes.
            busy = refs = 0.0
            for (t, d), nxt in zip(probes, [t for t, _ in probes[1:]] + [end]):
                gap = nxt - max(t + d, start)
                busy += gap
                refs += gap / (d * REFERENCE_PROBES)
            sample["wall_ref"] = refs
            sample["reference_s"] = busy / refs
            sample["probes"] = len(probes)
        return sample

    def child(self, traced: bool) -> dict:
        """Run the workload's CLI once and check its artifact."""
        self.artifact_path.unlink(missing_ok=True)
        spans = self.workdir / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "trace_child.py"), str(spans)] + self.cli_args
        else:
            argv = [sys.executable, "-m", "mzvkit.cli"] + self.cli_args
        sample = self.spawn(argv, None if traced else PROBES[self.workload.probe])
        sample["traced"] = traced
        sample["error"] = None
        if sample["exit"] != 0:
            err = (self.workdir / "stderr").read_text(errors="replace").strip()
            sample["error"] = f"exit {sample['exit']}: {err[-500:]}"
            return sample
        path = self.artifact_path if self.workload.artifact_file else self.workdir / "stdout"
        artifact = path.read_bytes()
        digest = hashlib.sha256(artifact).hexdigest()
        sample["artifact_sha256"] = digest
        sample["artifact_bytes"] = len(artifact)
        if digest not in self.verdicts:
            from workloads import CheckFailed

            try:
                self.verdicts[digest] = (None, self.workload.check_artifact(artifact, self.expected))
            except CheckFailed as exc:
                self.verdicts[digest] = (str(exc), {})
        if self.first_digest is None:
            self.first_digest = digest
        sample["error"] = self.verdicts[digest][0]
        if sample["error"] is None and digest != self.first_digest:
            sample["error"] = "artifact differs from the run's first artifact"
        if traced:
            sample["trace"] = json.loads(spans.read_text())
        return sample


def median(values):
    return statistics.median(values) if values else 0.0


def closed_loop(seconds: float, minimum: int, step) -> list:
    """Call step(i) one call after another, at least `minimum` times, while
    the next call is expected (from the last one) to end within `seconds`."""
    out = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        out.append(step(len(out)))
        now = time.perf_counter()
        if len(out) >= minimum and now - start + (now - before) > seconds:
            return out


def import_cli(run: Run) -> dict:
    """One set-up sample: a bare interpreter start, then one that imports
    mzvkit.cli."""
    bare = run.spawn([sys.executable, "-c", "pass"])
    sample = run.spawn([sys.executable, "-c", "import mzvkit.cli"])
    sample["bare_s"] = bare["wall_s"]
    return sample


def _fastest_of_three(work) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def _python_work():
    acc: dict[str, Fraction] = {}
    for i in range(PROBE_STEPS):
        word = PROBE_WORDS[i % len(PROBE_WORDS)]
        acc[word] = acc.get(word, Fraction(0)) + Fraction(i % 7 - 3, i % 5 + 1) * Fraction(3, 2)


def _numpy_work():
    (PROBE_ARRAY ** -2.0).cumsum()


# Each probe times a short fixed piece of the kind of work a workload does:
# dict updates keyed by short words with Fraction arithmetic, or a numpy
# power and cumulative sum. REFERENCE_PROBES probes make one reference
# loop, the unit of wall_rel and cpu_rel.
PROBES = {
    "python": lambda: _fastest_of_three(_python_work),
    "numpy": lambda: _fastest_of_three(_numpy_work),
}


def end_to_end(run: Run, seconds: float):
    import_cli(run)  # compile bytecode, untimed
    # One set-up sample before each child spreads them over the whole run.
    steps = closed_loop(seconds, 1, lambda _: (import_cli(run), run.child(traced=False)))
    setup = [step[0] for step in steps]
    samples = [step[1] for step in steps]
    while len(setup) < SETUP_SPAWNS:
        setup.append(import_cli(run))
    ok = [s for s in samples if s["error"] is None]
    metrics = {
        "wall_rel": median([s["wall_ref"] for s in samples]),
        "cpu_rel": median([s["cpu_s"] / s["reference_s"] for s in samples]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
        "setup_s": BARE_START_S * median([s["wall_s"] / s["bare_s"] for s in setup]),
        "ok_frac": len(ok) / len(samples),
    }
    raw = {
        "wall_s": median([s["wall_s"] for s in samples]),
        "cpu_s": median([s["cpu_s"] for s in samples]),
        "setup_raw_s": median([s["wall_s"] for s in setup]),
        "reference_s": median([s["reference_s"] for s in samples]),
    }
    return samples, metrics, {"setup": setup, "raw": raw}


def layer_metric(name: str, traces: list[dict]) -> float:
    """One per-layer metric from the traced children's summaries: a count
    must repeat exactly, a time is the median over children."""
    base, _, kind = name.rpartition(".")
    values = []
    for t in traces:
        if name in t["counters"]:
            values.append(t["counters"][name])
        elif kind == "self_s" and base in t["layers"]:
            values.append(t["layers"][base]["self_s"])
        else:
            values.append(t["by_name"].get(base, {}).get(kind, 0))
    if kind == "self_s":
        return median(values)
    if len(set(values)) != 1:
        raise ValueError(f"count {name} differs between identical runs: {values}")
    return values[0]


def coverage(trace: dict) -> float:
    """Share of in-process time spent inside library layer spans."""
    total = trace["in_process_s"]
    return 1.0 - trace["layers"]["cli"]["self_s"] / total if total else 0.0


def traced(run: Run, seconds: float, names: list[str]):
    import_cli(run)  # compile bytecode, untimed
    samples = closed_loop(seconds, 2, lambda i: run.child(traced=i % 2 == 1))
    plain = [s for s in samples if not s["traced"]]
    with_trace = [s for s in samples if s["traced"]]
    traces = [s["trace"] for s in with_trace if "trace" in s]
    metrics = {
        "cli.artifact_bytes": median([s.get("artifact_bytes", 0) for s in samples]),
        "trace.overhead_s": median([s["wall_s"] for s in with_trace])
        - median([s["wall_s"] for s in plain]),
        "trace.coverage": median([coverage(t) for t in traces]),
    }
    for _, stats in run.verdicts.values():
        metrics.update(stats)
    for name in names:
        if name in metrics:
            continue
        try:
            metrics[name] = layer_metric(name, traces)
        except ValueError as exc:
            for s in with_trace:
                s["error"] = s["error"] or str(exc)
            metrics[name] = 0
    layers = {}
    for t in traces:
        for layer, v in t["layers"].items():
            layers.setdefault(layer, {"self_s": [], "incl_s": []})
            for key in ("self_s", "incl_s"):
                layers[layer][key].append(v[key] / t["in_process_s"])
    shares = {
        layer: {f"{key}_share": median(v) for key, v in d.items()} for layer, d in layers.items()
    }
    extra = {"layer_shares": shares}
    for s in with_trace:
        t = s.pop("trace", None)
        if t is not None:
            s["trace_by_name"] = t["by_name"]
            s["trace_counters"] = t["counters"]
    return samples, metrics, extra


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    src = hashlib.sha256()
    for path in sorted((SRC / "mzvkit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.machine(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_workload(workload, spec: dict, args) -> dict:
    run = Run(workload, args.seed, args.trace)
    try:
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            samples, metrics, extra = traced(run, args.seconds, names)
        else:
            samples, metrics, extra = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    failed = [s for s in samples if s["error"] is not None]
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_words": run.input_words,
        "attempted": len(samples),
        "failed": len(failed),
        "artifact_sha256": sorted({s["artifact_sha256"] for s in samples if "artifact_sha256" in s}),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "samples": samples,
        "environment": environment(),
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for s in failed:
        print(f"{workload.name}: child failed: {s['error']}", file=sys.stderr)
    shown = {**result["metrics"], **{n: {"value": v, "unit": "s"} for n, v in extra.get("raw", {}).items()}}
    row = "  ".join(f"{n}={m['value']:.6g} {m['unit']}" for n, m in shown.items())
    print(f"{workload.name:<17} n={len(samples):<3} {row}")
    return result


def main(argv=None) -> int:
    if not (SRC / "mzvkit" / "cli.py").is_file():
        print(f"error: mzvkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Every timed process shares one CPU, so the reference probes and the
    # child see the same host contention.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[n], spec, args) for n in names]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{n}": m for r in results for n, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
