#!/usr/bin/env python3
"""Cold benchmark of isogame: one workload, one seed, one fresh interpreter.

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
``src`` directory. The run first times the set-up several times over, each
in a fresh interpreter, then cycles through the workload's operations until
``--seconds`` have passed, checks every output, and prints one JSON line
last: ``correct``, ``attempted`` and ``failed`` items, and the metrics.

With ``--trace 0`` the metrics are the end-to-end ones (set-up time, median
operation time, peak RSS). With ``--trace 1`` every operation runs twice,
untraced and then traced, and the metrics are the per-layer ones, per
traced operation, plus the tracing overhead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer

SETUP_RUNS = 5
# Time of reference_seconds() on the scale the end-to-end times are given in.
REFERENCE_S = 0.030


def _reference_work() -> int:
    """Fixed pure-Python work shaped like the solver's inner loop: bitmask
    neighbourhoods, bit loops and dict lookups. It allocates little and
    shares no code with the program, so it measures the machine's speed,
    not the change."""
    rng = random.Random(7)
    adj = [0] * 16
    for u in range(16):
        for v in range(u + 1, 16):
            if rng.random() < 0.25:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    memo: dict[int, int] = {}
    total = 0
    for mask in range(0, 1 << 16, 2):
        covered = 0
        rest = mask
        while rest:
            low = rest & -rest
            covered |= adj[low.bit_length() - 1]
            rest ^= low
        hit = memo.get(covered)
        if hit is None:
            hit = memo[covered] = covered.bit_count()
        total += hit
    return total


def reference_seconds() -> float:
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal: one timed set-up in a child interpreter; reduced inputs for
    # the harness self-test.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def scaled(seconds: list[float], references: list[float]) -> float:
    """Median time rescaled to a machine whose reference loop takes
    REFERENCE_S. The reference loop runs between all timed pieces of work,
    and each time is divided by the mean of the loops on either side of it,
    so a machine slowed by its neighbours slows both and the ratio cancels
    it out."""
    return statistics.median(t * REFERENCE_S / r for t, r in zip(seconds, references))


def time_setup(args) -> float:
    """Seconds from starting a fresh interpreter to the inputs being ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "1", "--trace", "0"] + (["--small"] if args.small else [])
    start = time.monotonic()
    child = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if child.returncode != 0:
        raise RuntimeError(f"set-up failed: {child.stderr.strip()[-500:]}")
    # The child prints the system-wide monotonic clock once its inputs are
    # ready, so its interpreter teardown is not counted.
    return float(child.stdout.split()[-1]) - start


def measure(op, trace: bool) -> dict:
    """Run one operation in its own child process, timed and checked there.

    The child is forked from the runner after set-up, so it starts with the
    program imported and the inputs built, but with none of the memory or
    per-graph caches of earlier operations. Its peak RSS is its own.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            payload = json.dumps(_measure_here(op, trace))
        except BaseException:
            payload = json.dumps({"error": traceback.format_exc(limit=5)})
        try:
            with os.fdopen(write_end, "w") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        data = pipe.read()
    os.waitpid(pid, 0)
    try:
        return json.loads(data)
    except ValueError:
        return {"error": f"operation process sent {data[-200:]!r}"}


def _measure_here(op, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        span = tracer.open_span(f"op {type(op).__name__}")
    try:
        start = time.perf_counter()
        raw = op.run()
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.close_span(span)
            tracer.uninstall()
    outcome = op.check(raw)
    payload = {
        "elapsed": elapsed, "attempted": outcome.attempted,
        "failed": outcome.failed, "reasons": outcome.reasons,
        "done": [index for index, _ in getattr(op, "chunk", ())],
        "reported": [[index, *values] for index, values in
                     getattr(op, "reported", {}).items()],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        if hasattr(op, "report"):
            tracer.counters["lab.report_bytes"] += op.report.stat().st_size
        payload["trace"] = tracer.dump()
    return payload


def run(args) -> tuple[dict, dict]:
    """The result line and the full record of one run."""
    work = workloads.WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup, setup_refs = [], []
    boundary = reference_seconds()
    for _ in range(0 if args.trace else SETUP_RUNS):
        setup.append(time_setup(args))
        after = reference_seconds()
        setup_refs.append((boundary + after) / 2)
        boundary = after
    tracer = Tracer() if args.trace else None
    attempted = failed = 0
    reasons: list[str] = []
    durations: list[float] = []
    rss: list[float] = []
    refs: list[float] = []
    overheads: list[float] = []
    done: set[int] = set()
    reported: dict[int, tuple[int, int]] = {}

    def account(op, payload) -> bool:
        nonlocal attempted, failed
        if "error" in payload:
            attempted += op.items
            failed += op.items
            reasons.append(payload["error"])
            return False
        attempted += payload["attempted"]
        failed += payload["failed"]
        reasons.extend(payload["reasons"])
        done.update(payload["done"])
        reported.update((index, tuple(values)) for index, *values in payload["reported"])
        return True

    try:
        plan = workloads.prepare(args.workload, args.seed, work, small=args.small)
        deadline = time.perf_counter() + args.seconds
        count = 0
        while count == 0 or time.perf_counter() < deadline:
            op = plan.ops[count % len(plan.ops)]
            count += 1
            plain = measure(op, trace=False)
            after = reference_seconds()
            reference, boundary = (boundary + after) / 2, after
            if not account(op, plain):
                continue
            durations.append(plain["elapsed"])
            refs.append(reference)
            rss.append(plain["rss_mb"])
            if tracer is not None:
                traced = measure(op, trace=True)
                if account(op, traced):
                    tracer.merge(traced["trace"])
                    overheads.append(traced["elapsed"] - plain["elapsed"])
                boundary = reference_seconds()
        if done:
            spot = workloads.spot_check(plan, done, reported,
                                        random.Random(f"spot-{args.seed}"))
            failed += spot.failed
            reasons.extend(spot.reasons)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not durations or (tracer is not None and not overheads):
        metrics, left_out = {}, []
    elif tracer is None:
        metrics = {
            "setup_s": {"value": scaled(setup, setup_refs), "unit": "s"},
            "wall_s": {"value": scaled(durations, refs), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
        left_out = []
    else:
        metrics, left_out = tracer.metrics(len(overheads), statistics.median(overheads))
    result = {"correct": failed == 0 and attempted > 0 and bool(metrics),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "provenance": workloads.provenance(args.workload, args.seed, args.trace,
                                           args.seconds),
        "samples": {"operations": count, "setup_s": setup,
                    "setup_reference_s": setup_refs, "op_s": durations,
                    "op_reference_s": refs, "op_peak_rss_mb": rss, "trace_overhead_s": overheads},
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failure_reasons": reasons[:20],
        "absent_metrics": left_out,
        "result": result,
    }
    if tracer is not None:
        record["trace"] = tracer.dump()
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (workloads.SRC / "isogame" / "__init__.py", workloads.CORPUS)
               if not p.is_file()]
    if missing:
        print(f"error: run from a checkout of the repository; missing "
              f"{', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    if args.setup_only:
        work = workloads.WORK_DIR / f"setup-{os.getpid()}"
        try:
            workloads.prepare(args.workload, args.seed, work, small=args.small)
            print(time.monotonic(), flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    result, record = run(args)
    results = workloads.WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    for reason in record["failure_reasons"]:
        print(f"failure: {reason}", file=sys.stderr)
    if record["absent_metrics"]:
        print(f"absent: {', '.join(record['absent_metrics'])}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"],
                      "operations": record["samples"]["operations"],
                      "failed_ratio": record["failed_ratio"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
