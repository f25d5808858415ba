"""The pair summary of tools/bench_pairs.py, on canned last lines of perfbench runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"

END_TO_END = [
    {"name": "ops_per_s", "better": "higher"},
    {"name": "peak_rss_mb", "better": "lower"},
]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(pair: int, side: str, ops: float, rss: float, correct: bool = True) -> dict:
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    line = {"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics}
    first = "parent" if pair % 2 else "change"
    return {"workload": "w", "pair": pair, "side": side, "first": first, "trace": 0, "result": line}


def test_wins_follow_each_metrics_direction_and_ties_count_for_neither() -> None:
    runs = []
    for pair, (p_ops, c_ops, p_rss, c_rss) in enumerate(
        [(10, 12, 30, 29), (11, 11, 30, 30), (12, 10, 30, 31), (9, 13, 30, 28), (10, 14, 31, 29)], 1
    ):
        runs += [run(pair, "parent", p_ops, p_rss), run(pair, "change", c_ops, c_rss)]
    summary = load_tool().summarize(runs, END_TO_END)["w"]
    assert summary["ops_per_s"] == {
        "pairs": 5, "change_wins": 3,
        "parent_median": 10, "parent_iqr": 1,
        "change_median": 12, "change_iqr": 2,
        "median_change": "+20.0%",
    }
    assert summary["peak_rss_mb"]["change_wins"] == 3
    assert summary["peak_rss_mb"]["median_change"] == "-3.3%"
    assert summary["all_correct_and_none_failed"] is True


def test_one_incorrect_run_marks_its_workload() -> None:
    runs = [
        run(1, "parent", 1, 1), run(1, "change", 2, 1, correct=False),
        run(2, "change", 2, 1), run(2, "parent", 1, 1),
    ]
    summary = load_tool().summarize(runs, END_TO_END)["w"]
    assert summary["ops_per_s"]["change_wins"] == 2
    assert summary["all_correct_and_none_failed"] is False


def test_the_committed_pairs_of_a_benchmark_file_give_its_summary() -> None:
    recorded = json.loads((ROOT / "BENCH_32.json").read_text())
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert load_tool().summarize(recorded["pairs"], end_to_end) == recorded["summary"]
