"""Run the benchmark in alternating parent/change pairs and summarize them.

    python tools/bench_pairs.py PARENT CHANGE WORKLOAD...

PARENT and CHANGE are two checkouts of the repository (for example two
`git archive` extracts).  For each workload in turn it runs PAIRS pairs of

    python3 perfbench/run.py --workload WORKLOAD --trace 0 --seconds S

one run at a time, each in a fresh copy of its checkout, with S the
`run_seconds` of BENCHMARK.json and PYTHONDONTWRITEBYTECODE=1.  Odd pairs
run the parent first, even pairs the change.  It prints one JSON object:
"pairs", every run's last line of output as parsed JSON, and "summary",
per workload and end-to-end metric of BENCHMARK.json, both sides' medians
and interquartile ranges, the pairs the change won (a tie counts for
neither side, and the better direction is the metric's "better") and the
change of the median.  Only the standard library is used.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: Pairs per workload: the fewest a claimed gain is judged on.
PAIRS = 10

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Left out of each fresh copy: what building, testing and running leave.
_LEFTOVERS = shutil.ignore_patterns(".git", ".perfbench_work", "__pycache__", ".pytest_cache")


def run_once(checkout: Path, workload: str, seconds: float) -> dict:
    """One run in a fresh copy of checkout: its last line of output, parsed."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(checkout, copy, ignore=_LEFTOVERS)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--trace", "0", "--seconds", str(seconds)],
            cwd=copy, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True, text=True, check=True,
        )
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_pairs(parent: Path, change: Path, workloads: list[str], seconds: float) -> list[dict]:
    """PAIRS alternating pairs per workload, as the "pairs" entries."""
    runs = []
    for workload in workloads:
        for pair in range(1, PAIRS + 1):
            first = "parent" if pair % 2 else "change"
            order = ("parent", "change") if first == "parent" else ("change", "parent")
            for side in order:
                checkout = parent if side == "parent" else change
                runs.append({
                    "workload": workload, "pair": pair, "side": side, "first": first,
                    "trace": 0, "result": run_once(checkout, workload, seconds),
                })
    return runs


def _iqr(values: list[float]) -> float:
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: both sides' medians and
    interquartile ranges, the pairs the change won and the change of the
    median; and whether every run was correct with none failed."""
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        by_pair: dict[int, dict] = {}
        for run in mine:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
        pairs = [sides for sides in by_pair.values() if len(sides) == 2]
        entry = {}
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            parent = [sides["parent"]["metrics"][name]["value"] for sides in pairs]
            change = [sides["change"]["metrics"][name]["value"] for sides in pairs]
            parent_median, change_median = statistics.median(parent), statistics.median(change)
            entry[name] = {
                "pairs": len(pairs),
                "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "parent_median": round(parent_median, 4),
                "parent_iqr": round(_iqr(parent), 4),
                "change_median": round(change_median, 4),
                "change_iqr": round(_iqr(change), 4),
                "median_change": f"{change_median / parent_median - 1:+.1%}",
            }
        entry["all_correct_and_none_failed"] = all(
            run["result"]["correct"] and run["result"]["failed"] == 0 for run in mine
        )
        summary[workload] = entry
    return summary


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print("usage: python tools/bench_pairs.py PARENT CHANGE WORKLOAD...", file=sys.stderr)
        return 2
    parent, change, *workloads = argv
    bench = json.loads(BENCHMARK.read_text())
    parent_dir, change_dir = Path(parent).resolve(), Path(change).resolve()
    runs = run_pairs(parent_dir, change_dir, workloads, bench["run_seconds"])
    print(json.dumps({"pairs": runs, "summary": summarize(runs, bench["end_to_end"])}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
