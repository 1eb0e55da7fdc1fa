#!/usr/bin/env python3
"""Benchmark of the ASAP simulator: wall time and memory of real runs.

Run from the top of the repository:

  python3 perfbench/run.py --workload asap-query-churn --seed 42 --seconds 40 --trace 0
  python3 perfbench/run.py --all                  # every BENCHMARK.json workload; exit 1 on a failed check
  python3 perfbench/run.py --record 0-20,42       # rewrite perfbench/expected.json

It builds perfbench_runner from source (perfbench/CMakeLists.txt, build
tree .bench_build/), then runs the workload in fresh runner processes:

  --trace 0  one checked run (RunObserver + invariant auditor), then
             untraced runs until --seconds have passed since the start (at
             least MIN_RUNS; no run starts that would end later). Each
             process builds the world repeatedly for SETUP_SECONDS first.
             Prints the end-to-end metrics.
  --trace 1  one `trace` process: untraced/traced run pairs for --seconds,
             then the layer probes. Prints the per-layer metrics and writes
             every span to .bench_build/spans/<workload>-seed<seed>.json.

Every run is checked: the digest and the paper metrics must equal the
values recorded in expected.json for that workload and seed (or, for an
unrecorded seed, equal the checked run's and lie in the recorded range),
the auditor must report no violation, and every probe self-check must
pass. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; metric names and units come
from BENCHMARK.json.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BUILD = REPO / ".bench_build"
RUNNER = BUILD / "perfbench_runner"
EXPECTED = HERE / "expected.json"

MIN_RUNS = 3          # timed runs per invocation, whatever --seconds says
SETUP_SECONDS = 0.5   # each process repeats the world build for this long
RUN_TIMEOUT = 170.0   # per invocation, after the build
PAPER_KEYS = ("success_rate", "local_hit_rate", "avg_cost_bytes", "load_mean_Bps")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


def build():
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {REPO / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if cfg.returncode != 0:
            raise BenchError("cmake configure failed:\n" + cfg.stderr[-4000:])
    jobs = str(min(4, os.cpu_count() or 1))
    b = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if b.returncode != 0:
        raise BenchError("build failed:\n" + b.stdout[-4000:])


def spawn(mode, workload, seed, *extra, deadline):
    """Runs one runner process; returns its JSON output or None on a crash."""
    cmd = [str(RUNNER), mode, "--workload", workload, "--seed", str(seed), *extra]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"run.py: {mode} run of {workload} timed out", file=sys.stderr)
        return None
    if p.returncode != 0:
        print(f"run.py: {mode} run of {workload} failed ({p.returncode}): "
              f"{p.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    return json.loads(p.stdout)


def load_spec():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def load_expected():
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


class Checker:
    """Compares each run with the recorded values (or, for an unrecorded
    seed, with the invocation's first run and the recorded range)."""

    def __init__(self, workload, seed):
        recorded = load_expected().get(workload, {})
        self.expect = recorded.get(str(seed))
        self.ranges = {k: (min(r["paper"][k] for r in recorded.values()),
                           max(r["paper"][k] for r in recorded.values()))
                       for k in PAPER_KEYS} if recorded else {}
        self.reference = None
        self.problems = []

    def run_ok(self, out, what):
        if out is None:
            self.problems.append(f"{what}: crashed or timed out")
            return False
        before = len(self.problems)
        if out.get("audit_violations", 0):
            self.problems.append(f"{what}: {out['audit_violations']} audit violations "
                                 f"{out.get('audit_messages')}")
        ref = self.expect or self.reference
        if ref is not None:
            if out["digest"] != ref["digest"]:
                self.problems.append(f"{what}: digest {out['digest']} != {ref['digest']}")
            for k in PAPER_KEYS:
                if out["paper"][k] != ref["paper"][k]:
                    self.problems.append(f"{what}: {k} {out['paper'][k]} != {ref['paper'][k]}")
        else:
            self.reference = out
            for k, (lo, hi) in self.ranges.items():
                v = out["paper"][k]
                if not (math.isfinite(v) and 0.5 * lo <= v <= 1.5 * hi):
                    self.problems.append(f"{what}: {k} {v} outside recorded range [{lo}, {hi}]")
        return len(self.problems) == before


def measure(workload, seed, seconds):
    """End-to-end metrics (--trace 0). The checked run counts against
    `seconds` too."""
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT
    stop = start + seconds
    chk = Checker(workload, seed)
    check = spawn("run", workload, seed, "--check", "--setup-seconds", str(SETUP_SECONDS),
                   deadline=deadline)
    attempted, failed = 1, 0 if chk.run_ok(check, "checked run") else 1
    if check is None:
        return chk, attempted, failed, {}
    hops = sum(check["deposits"].values())
    if chk.expect is not None and hops != chk.expect["hops"]:
        chk.problems.append(f"checked run: hops {hops} != {chk.expect['hops']}")
        failed = 1
    runs = []
    last = 0.0  # duration of the previous run: start no run that would end past `stop`
    while len(runs) < MIN_RUNS or time.monotonic() + last <= stop:
        t0 = time.monotonic()
        out = spawn("run", workload, seed, "--setup-seconds", str(SETUP_SECONDS),
                    deadline=deadline)
        last = time.monotonic() - t0
        attempted += 1
        if not chk.run_ok(out, f"timed run {attempted - 1}"):
            failed += 1
        if out is not None:
            runs.append(out)
            print(f"run.py: {workload} seed {seed} run {len(runs)}: run_s {out['run_s']:.4f} "
                  f"peak_rss_mb {out['peak_rss_bytes'] / 2**20:.1f}", file=sys.stderr)
        if out is None or time.monotonic() > deadline:
            break
    if not runs:
        return chk, attempted, failed, {}
    metrics = {
        # Every build of every process: one process's speed does not decide it.
        "setup_s": statistics.median(check["setup_s"] + [s for r in runs for s in r["setup_s"]]),
        "run_s": statistics.median(r["run_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_bytes"] for r in runs) / 2**20,
    }
    return chk, attempted, failed, metrics


def trace(workload, seed, seconds):
    """Per-layer metrics (--trace 1)."""
    deadline = time.monotonic() + RUN_TIMEOUT
    chk = Checker(workload, seed)
    out = spawn("trace", workload, seed, "--seconds", str(seconds), deadline=deadline)
    failed = 0 if chk.run_ok(out, "traced run") else 1
    if out is None:
        return chk, 1, failed, {}
    for c in out["checks"]:
        if not c["ok"]:
            chk.problems.append(f"probe check failed: {c['name']}")
            failed = 1
    spans = BUILD / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    (spans / f"{workload}-seed{seed}.json").write_text(json.dumps(out["spans"], indent=1))
    return chk, 1, failed, out["metrics"]


def result(workload, seed, seconds, traced):
    spec, units = load_spec()
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    chk, attempted, failed, values = (trace if traced else measure)(workload, seed, seconds)
    for p in chk.problems:
        print(f"run.py: {workload} seed {seed}: {p}", file=sys.stderr)
    metrics = {}
    for n in names:
        if n not in values:
            chk.problems.append(f"metric {n} not produced")
            continue
        metrics[n] = {"value": values[n], "unit": units[n]}
    correct = not chk.problems and failed == 0
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(seeds):
    """Rewrites expected.json from checked runs of every workload."""
    spec, _ = load_spec()
    data = load_expected()
    for w in (x["name"] for x in spec["workloads"]):
        for s in seeds:
            out = spawn("run", w, s, "--check", deadline=time.monotonic() + RUN_TIMEOUT)
            if out is None or out["audit_violations"]:
                raise BenchError(f"checked run of {w} seed {s} failed")
            data.setdefault(w, {})[str(s)] = {
                "digest": out["digest"], "paper": out["paper"],
                "hops": sum(out["deposits"].values())}
            print(f"{w} seed {s}: {out['digest']}", file=sys.stderr)
        data[w] = dict(sorted(data[w].items(), key=lambda kv: int(kv[0])))
    EXPECTED.write_text(json.dumps(data, indent=1) + "\n")


def run_all(seed, seconds, traced):
    """Every workload; prints each metric by name with its unit."""
    spec, _ = load_spec()
    ok = True
    for w in (x["name"] for x in spec["workloads"]):
        r = result(w, seed, seconds, traced)
        ok = ok and r["correct"]
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for n, m in r["metrics"].items():
            print(f"  {n:32s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--record", metavar="SEEDS", help="record expected values, e.g. 1-20,42")
    a = ap.parse_args()
    try:
        build()
        if a.record:
            record(parse_seeds(a.record))
            return 0
        if a.all:
            return run_all(a.seed, a.seconds, a.trace == 1)
        if not a.workload:
            ap.error("--workload, --all or --record is required")
        print(json.dumps(result(a.workload, a.seed, a.seconds, a.trace == 1)))
        return 0
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
