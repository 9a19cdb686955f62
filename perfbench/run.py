"""Run one benchmark workload and print its metrics as a JSON last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload publish-steady --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` wraps each layer's public functions (see ``spans.py``), keeps
spans in memory, writes them to ``.perfbench-out/spans/`` and prints the
per-layer metrics instead.  The line before the result is the run record:
seed, operations attempted and failed, sample counts, the end-to-end values
of this run and a machine fingerprint; it is also written to
``.perfbench-out/records/``.  The exit code is 0 for a correct run, 1 when a
check failed, 2 when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("publish-steady", "churn-repair", "journal-recover")

#: Units of the end-to-end metrics, in report order.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "publish_p90_ms": "ms",
    "repair_p90_s": "s",
    "messages_per_event": "messages",
    "repair_messages": "messages",
    "peak_rss_mb": "MB",
    "journal_mb": "MB",
    "recovery_p90_s": "s",
}


def fingerprint() -> Dict[str, object]:
    """nproc, CPU model and Python version: numbers from other hosts differ."""
    model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "platform": platform.platform()}


def percentile(values: List[float], fraction: float) -> float:
    """The ``fraction`` quantile of ``values``, interpolated between samples.

    Unlike a nearest-rank percentile it estimates the same quantile whatever
    the sample count: the 90th percentile of ten samples is not their
    maximum, and one more sample moves it by a fraction of a gap.
    """
    if len(values) == 1:
        return values[0]
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(run) -> Dict[str, float]:
    """The end-to-end metrics of one run (all measured with tracing off).

    Timings are 90th percentiles of samples spread over the run, not medians
    or means: on a host whose cores switch between two speeds for tens of
    seconds at a time, the median of identical work jumps between the speeds
    from run to run, while an upper percentile stays near the slower speed,
    which nearly every run visits.
    """
    publish_ms = [seconds * 1e3 for seconds in run.publish_s]
    # churn-repair times the wave's repair; the other workloads repair only
    # in set-up, so their repair is the bootstrap stabilize.
    repair_s = run.repair_s or run.bootstrap_repair_s
    repair_messages = run.repair_messages or run.bootstrap_repair_messages
    return {
        "setup_s": percentile(run.setup_s, 0.90),
        "publish_p90_ms": percentile(publish_ms, 0.90),
        "repair_p90_s": percentile(repair_s, 0.90),
        "messages_per_event": statistics.fmean(run.publish_messages),
        "repair_messages": statistics.median(repair_messages),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "journal_mb": statistics.median(run.journal_mb),
        "recovery_p90_s": percentile(run.recovery_s, 0.90),
    }


def ops_per_s(run) -> float:
    """Facade operations of the rounds per second of time spent in them.

    Recorded in the run record only: on the reference host it moved by up to
    a third between sets of runs at every percentile tried, so it cannot
    gate a change.
    """
    return run.ops / run.op_s


def execute(workload: str, seed: int, seconds: float, trace: bool,
            sizes=None, out: Path = OUT) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Run one workload; returns ``(result line, run record)``.

    Scratch files and the traced run's spans go under ``out``.
    """
    from spans import PER_LAYER_UNITS, SpanRecorder, install_layer_wrappers, layer_metrics
    from workloads import FULL, WORKLOADS, Run

    run = Run()
    recorder = SpanRecorder() if trace else None
    span = recorder.span if recorder else (lambda name: contextlib.nullcontext())
    workdir = out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    if recorder:
        install_layer_wrappers(recorder)
    try:
        bench = WORKLOADS[workload](seed, sizes or FULL, run, span, workdir)
        bench.setup()
        bench.prepare()
        # Warm-up publishes are checked but not part of the timed drive.
        run.publish_s.clear()
        run.publish_messages.clear()
        run.ops, run.op_s = 0, 0.0
        with span("bench.drive"):
            start = time.perf_counter()
            while True:
                bench.round()
                run.rounds += 1
                if time.perf_counter() - start >= seconds:
                    break
            drive_s = time.perf_counter() - start
    finally:
        if recorder:
            recorder.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    values = end_to_end(run)
    if recorder:
        recorder.samples.update(run.samples)
        recorder.add("bench.seeded_probes", run.seeded_probes)
        recorder.add("bench.fault_misses", run.fault_misses)
        recorder.write(str(out / "spans" / f"{workload}-seed{seed}.jsonl.gz"))
        reported = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                    for name, value in layer_metrics(recorder).items()}
    else:
        reported = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                    for name, value in values.items()}
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": reported}
    publish_ms = [seconds * 1e3 for seconds in run.publish_s]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": run.attempted, "failed": run.failed, "correct": run.correct,
        "problems": run.problems, "rounds": run.rounds, "drive_s": drive_s,
        "publish_samples": len(publish_ms),
        "publish_p99_ms": percentile(publish_ms, 0.99),
        "setup_samples": len(run.setup_s),
        "repair_samples": len(run.repair_s or run.bootstrap_repair_s),
        "recovery_samples": len(run.recovery_s),
        "seeded_probes": run.seeded_probes, "fault_misses": run.fault_misses,
        "ops_per_s": ops_per_s(run),
        "end_to_end": values, "fingerprint": fingerprint(),
        "raw": {"publish_ms": publish_ms,
                "setup_s": run.setup_s, "repair_s": run.repair_s or run.bootstrap_repair_s,
                "recovery_s": run.recovery_s, "journal_mb": run.journal_mb,
                "publish_messages": run.publish_messages},
    }
    return result, record


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    sys.path[:0] = [str(source), str(HERE)]
    try:
        import repro.api
    except ImportError as exc:
        print(f"cannot load the program from {source}: {exc}", file=sys.stderr)
        return 2
    if source.resolve() not in Path(repro.api.__file__).resolve().parents:
        print(f"the program was loaded from {repro.api.__file__}, not {source}",
              file=sys.stderr)
        return 2
    result, record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
