"""Steadiness check and reference figures for the benchmark.

Usage (from the repository root)::

    python3 perfbench/steady.py check [--runs 10]
    python3 perfbench/steady.py reference [--runs 5]

``check`` runs each workload of ``BENCHMARK.json`` ``--runs`` times with
seeds 1 to ``--runs``, untraced, and prints every end-to-end metric's
median, quartiles and spread (the distance between the quartiles as a share
of the median) next to its bound from ``BENCHMARK.json``.  It exits non-zero
when a run is incorrect, when the failed share differs between runs, or
when a spread exceeds its bound.

``reference`` makes the same untraced runs plus one traced run per workload
and rewrites the reference section of ``perfbench/README.md`` with them.
Runs go one at a time, so they never compete with each other for a core.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
README = HERE / "README.md"
BEGIN, END = "<!-- reference:begin -->", "<!-- reference:end -->"


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Tuple[dict, dict]:
    """One benchmark run in a fresh process; returns ``(result, record)``."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} printed no result "
                           f"(exit {done.returncode}): {done.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def spread(values: List[float]) -> Tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def collect(workloads: List[str], seeds: List[int], seconds: int, trace: int
            ) -> Dict[str, List[Tuple[dict, dict]]]:
    runs: Dict[str, List[Tuple[dict, dict]]] = {}
    for workload in workloads:
        for seed in seeds:
            result, record = run_once(workload, seed, seconds, trace)
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
            runs.setdefault(workload, []).append((result, record))
    return runs


def summarize(config: dict, runs: Dict[str, List[Tuple[dict, dict]]]) -> Tuple[str, bool]:
    """The steadiness table; the flag is false when a gate would fail."""
    bounds = {metric["name"]: metric for metric in config["end_to_end"]}
    lines, ok = [], True
    for workload, pairs in runs.items():
        shares = {Fraction(result["failed"], result["attempted"]) for result, _ in pairs}
        correct = all(result["correct"] for result, _ in pairs)
        ok &= correct and len(shares) == 1
        lines.append(f"{workload}: {len(pairs)} runs, correct={correct}, failed share "
                     f"{' / '.join(str(share) for share in sorted(shares))}")
        lines.append(f"  {'metric':20} {'median':>12} {'q1':>12} {'q3':>12} "
                     f"{'spread':>8} {'bound':>6}")
        for name, metric in bounds.items():
            values = [result["metrics"][name]["value"] for result, _ in pairs]
            median, q1, q3, width = spread(values)
            flag = ""
            if width > metric["bound"]:
                flag = "  over bound"
                ok = False
            elif width > metric["bound"] / 3:
                flag = "  over a third of bound"
            lines.append(f"  {name:20} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                         f"{width:8.3f} {metric['bound']:6.2f}{flag}")
    return "\n".join(lines), ok


def reference_section(config: dict, runs: Dict[str, List[Tuple[dict, dict]]],
                      traced: Dict[str, Tuple[dict, dict]], seconds: int) -> str:
    """The README's reference figures as markdown."""
    first = next(iter(runs.values()))[0][1]["fingerprint"]
    seeds = [record["seed"] for _, record in next(iter(runs.values()))]
    out = [f"Host: nproc {first['nproc']}, {first['cpu']}, Python {first['python']} "
           f"({first['platform']}). Seeds {seeds[0]}-{seeds[-1]}, "
           f"`--seconds {seconds}`, one run at a time.", ""]
    names = [metric["name"] for metric in config["end_to_end"]]
    out.append("| metric | unit | " + " | ".join(runs) + " |")
    out.append("|---|---|" + "---|" * len(runs))
    for metric in config["end_to_end"]:
        cells = []
        for pairs in runs.values():
            median, q1, q3, width = spread(
                [result["metrics"][metric["name"]]["value"] for result, _ in pairs])
            cells.append(f"{median:.4g} (spread {width:.3f})")
        out.append(f"| `{metric['name']}` | {metric['unit']} | " + " | ".join(cells) + " |")
    out += ["", "Spread is the distance between the quartiles over the median, "
            "across the seeds.", "", "**Publish latency tail** (per run, median over seeds):", ""]
    out.append("| workload | publish samples | p90 ms | p99 ms | samples beyond p99 |")
    out.append("|---|---|---|---|---|")
    for workload, pairs in runs.items():
        samples = statistics.median(record["publish_samples"] for _, record in pairs)
        p90 = statistics.median(result["metrics"]["publish_p90_ms"]["value"]
                                for result, _ in pairs)
        p99 = statistics.median(record["publish_p99_ms"] for _, record in pairs)
        out.append(f"| {workload} | {samples:.0f} | {p90:.4g} | {p99:.4g} | "
                   f"{samples / 100:.1f} |")
    churn = runs.get("churn-repair", [])
    if churn:
        out += ["", "**Known verifier fault on `churn-repair`** (per seed): seeded probes "
                "that missed a matching subscriber, put down to the fault, and the fixed "
                "fault probe counted as failed:", "",
                "| seed | waves | seeded probes missed | failed / attempted |",
                "|---|---|---|---|"]
        for result, record in churn:
            out.append(f"| {record['seed']} | {record['rounds']} | "
                       f"{record['fault_misses']} of {record['seeded_probes']} | "
                       f"{result['failed']} / {result['attempted']} |")
    if traced:
        out += ["", "**Tracing overhead** (traced run against the untraced run of the same "
                "seed, end-to-end values):", ""]
        out.append("| workload | " + " | ".join(f"`{name}`" for name in names[:5]) + " |")
        out.append("|---|" + "---|" * 5)
        for workload, (_, record) in traced.items():
            plain = next(rec for _, rec in runs[workload] if rec["seed"] == record["seed"])
            cells = [f"{record['end_to_end'][name] / plain['end_to_end'][name] - 1:+.0%}"
                     for name in names[:5]]
            out.append(f"| {workload} | " + " | ".join(cells) + " |")
        out += ["", "**Per-layer figures** (one traced run per workload, seed "
                f"{next(iter(traced.values()))[1]['seed']}):", ""]
        out.append("| metric | unit | " + " | ".join(traced) + " |")
        out.append("|---|---|" + "---|" * len(traced))
        for metric in config["per_layer"]:
            cells = [f"{result['metrics'][metric['name']]['value']:.4g}"
                     for result, _ in traced.values()]
            out.append(f"| `{metric['name']}` | {metric['unit']} | " + " | ".join(cells) + " |")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("check", "reference"))
    parser.add_argument("--runs", type=int, default=None)
    args = parser.parse_args(argv)
    config = load_config()
    workloads = [workload["name"] for workload in config["workloads"]]
    seeds = list(range(1, (args.runs or (10 if args.command == "check" else 5)) + 1))
    seconds = config["run_seconds"]
    runs = collect(workloads, seeds, seconds, trace=0)
    table, ok = summarize(config, runs)
    print(table)
    if args.command == "reference":
        traced = {workload: pairs[0] for workload, pairs in
                  collect(workloads, seeds[:1], seconds, trace=1).items()}
        section = reference_section(config, runs, traced, seconds)
        text = README.read_text(encoding="utf-8")
        head, rest = text.split(BEGIN, 1)
        tail = rest.split(END, 1)[1]
        README.write_text(f"{head}{BEGIN}\n{section}\n{END}{tail}", encoding="utf-8")
        print(f"rewrote the reference section of {README}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
