#!/usr/bin/env python3
"""Check a BENCH_engine.json produced by bench_micro_engine --json.

Usage: check_bench_engine.py [--enforce-speedup] FILE

Default mode validates structure only: CI runners have noisy clocks, so
the gate for a freshly generated report is "the bench ran and produced a
well-formed report with every cell present exactly once".

--enforce-speedup additionally requires at least one engine_hold cell at
depth >= 65536 with >= MIN_DEEP_SPEEDUP over the seed engine. That mode
is applied to the *committed* BENCH_engine.json (measured numbers
recorded at optimization time, deterministic to re-check), never to a
fresh CI run.
"""
import json
import sys

NUM = (int, float)
DEPTHS = (1024, 16384, 65536, 262144, 1048576)
CLOSURES = ("inline", "pooled")
EXPECTED_CELLS = {(d, c) for d in DEPTHS for c in CLOSURES}

# ISSUE 6 acceptance: >= 3x ns/event improvement over the seed engine
# (4-ary heap + std::function) at a queue depth of at least 64k.
MIN_DEEP_SPEEDUP = 3.0
DEEP_DEPTH = 65536


def fail(msg):
    sys.exit(f"BENCH_engine error: {msg}")


def check_hold_row(i, row, seen):
    depth = row.get("depth")
    closure = row.get("closure")
    if depth not in DEPTHS:
        fail(f"results[{i}]: unexpected depth {depth!r}")
    if closure not in CLOSURES:
        fail(f"results[{i}]: unexpected closure {closure!r}")
    if (depth, closure) in seen:
        fail(f"results[{i}]: duplicate cell ({depth}, {closure})")
    seen.add((depth, closure))
    for field in ("seed_ns_per_event", "engine_ns_per_event", "speedup"):
        value = row.get(field)
        if not isinstance(value, NUM) or isinstance(value, bool):
            fail(f"results[{i}]: field {field!r} missing or not a number")
        if value <= 0:
            fail(f"results[{i}]: field {field!r} must be positive, "
                 f"got {value!r}")


def check(path, enforce_speedup):
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"not valid JSON: {e}")
    if not isinstance(doc, dict):
        fail("top level is not an object")
    if doc.get("schema") != "asap.bench_engine.v2":
        fail(f"unknown schema {doc.get('schema')!r}")
    for field in ("release_build", "audit_build"):
        if not isinstance(doc.get(field), bool):
            fail(f"field {field!r} missing or not a bool")
    if doc.get("unit") != "ns_per_event":
        fail(f"unexpected unit {doc.get('unit')!r}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        fail("'results' missing or empty")
    seen_hold = set()
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            fail(f"results[{i}] is not an object")
        bench = row.get("bench")
        if bench == "engine_hold":
            check_hold_row(i, row, seen_hold)
        else:
            fail(f"results[{i}]: unknown bench {bench!r}")
    missing = EXPECTED_CELLS - seen_hold
    if missing:
        fail(f"missing cells: {sorted(missing)}")

    hold = [r for r in results if r["bench"] == "engine_hold"]
    deep = [r["speedup"] for r in hold if r["depth"] >= DEEP_DEPTH]
    best_deep = max(deep)
    if enforce_speedup and best_deep < MIN_DEEP_SPEEDUP:
        fail(f"best speedup at depth >= {DEEP_DEPTH} is {best_deep:.2f}x, "
             f"below the required {MIN_DEEP_SPEEDUP:.1f}x")

    verdict = "threshold OK" if enforce_speedup else "structure OK"
    print(f"{path}: {verdict} ({len(results)} cells, best deep speedup "
          f"{best_deep:.2f}x at depth >= {DEEP_DEPTH})")


def main(argv):
    args = argv[1:]
    enforce = "--enforce-speedup" in args
    args = [a for a in args if a != "--enforce-speedup"]
    if len(args) != 1:
        sys.exit(__doc__.strip())
    check(args[0], enforce)


if __name__ == "__main__":
    main(sys.argv)
