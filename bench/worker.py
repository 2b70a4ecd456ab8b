"""One benchmark workload in its own process: set up, measure, check, report.

run.py starts this with BLAS pinned to one thread.  It prints the workload's
metrics as a table and, as its last stdout line, one JSON object with
correct/attempted/failed/metrics.  The metrics in that line are the ones
BENCHMARK.json lists: end_to_end with --trace 0, per_layer with --trace 1.
Every run also writes a record with the environment to bench/out/.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5
TRACE_MODES = (None, "time", "memory")


def import_relkin() -> float:
    """Import relkin from this checkout's src/ and return the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import relkin
    except ImportError as exc:
        sys.exit(f"cannot import relkin from {SRC}: {exc}")
    elapsed = time.perf_counter() - t0
    if Path(relkin.__file__).resolve().parent != SRC / "relkin":
        sys.exit(f"relkin was imported from {relkin.__file__}, not from {SRC}")
    return elapsed


def measure(wl, seconds: float, tracer) -> list[dict]:
    """Run ops until `seconds` have passed.

    With a tracer, ops cycle through untraced, span-timed and allocation-traced,
    and the run lasts until each mode has had at least one op.
    """
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        i = len(ops)
        traced = TRACE_MODES[i % 3] if tracer is not None else None
        if traced:
            tracer.start(i, memory=traced == "memory")
        t0 = time.perf_counter()
        try:
            parts, failed = wl.op(i), []
        except Exception as exc:  # an op that raises counts as failed, keyed by type
            parts, failed = {}, [type(exc).__name__]
            wl.notes.setdefault("tracebacks", []).append(traceback.format_exc())
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.stop()
        if not failed:
            try:
                failed = wl.check(i)
            except Exception as exc:  # unreadable output fails the check
                failed = [f"check.{type(exc).__name__}"]
                wl.notes.setdefault("tracebacks", []).append(traceback.format_exc())
        ops.append({"seconds": elapsed, "traced": traced, "failed": failed, **parts})
        if time.perf_counter() >= deadline and (tracer is None or len(ops) >= 3):
            return ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    import_s = import_relkin()
    import envinfo
    import tracer as tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        gen = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            gen.append(time.perf_counter() - t0)
        wl.warmup()
        tracer = tracing.Tracer() if args.trace else None
        ops = measure(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [o["seconds"] for o in ops if not o["traced"]]
    failures = collections.Counter(name for o in ops for name in o["failed"])
    n_failed = sum(bool(o["failed"]) for o in ops)
    computed = {
        "ops": (len(ops), "count"),
        "ops_failed": (n_failed, "count"),
        "setup_s": (import_s + statistics.median(gen), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_s_p50": (statistics.median(times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
    }
    computed.update(wl.report([o for o in ops if not o["traced"]]))
    if tracer is not None:
        timed = [o["seconds"] for o in ops if o["traced"] == "time"]
        computed.update(tracer.summary(len(timed)))
        base = statistics.median(times)
        computed["trace_overhead_s"] = (statistics.median(timed) - base, "s")
        computed["trace_overhead_pct"] = (100 * (statistics.median(timed) / base - 1), "%")
        memory = statistics.median(o["seconds"] for o in ops if o["traced"] == "memory")
        computed["tracemalloc_overhead_pct"] = (100 * (memory / base - 1), "%")
        tracer.write(OUT / f"spans-{args.workload}.csv")

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in listed:
        value, unit = computed[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"{m['name']}: unit {unit!r} differs from BENCHMARK.json's {m['unit']!r}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    record = {
        "workload": args.workload, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": envinfo.environment(ROOT),
        "setup": {"import_s": import_s, "generate_s": gen},
        "ops": ops,
        "failures": dict(failures), "notes": wl.notes,
        "computed": {k: {"value": v, "unit": u} for k, (v, u) in computed.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    width = max(len(k) for k in computed)
    print(f"# {args.workload} seed={args.seed} failures={dict(failures)}")
    for name, (value, unit) in computed.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({"correct": n_failed == 0, "attempted": len(ops), "failed": n_failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
