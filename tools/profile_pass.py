"""Profile a benchmark workload's passes, with no tracing hooks in them.

    python tools/profile_pass.py WORKLOAD

WORKLOAD is one of perfbench/workloads.py's WORKLOADS.  It imports srnglab
from src/, builds the workload's operations with perfbench/workloads.py
(in a temporary directory, against perfbench/reference.json), runs one
warm-up pass, then runs PASSES passes under cProfile.  It prints the
passes' wall-clock seconds, then one "share  function" row per srnglab
function, largest first: the function's cumulative time over those
passes as a share of their wall-clock time.  An operation that raises is
counted as run, as the benchmark counts a known defect, and named on
stderr.  Only the standard library is used.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import pstats
import sys
import tempfile
import time
from pathlib import Path

#: Passes profiled after the warm-up pass.
PASSES = 5

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srnglab"


def shares(stats: pstats.Stats, package: Path, total: float) -> list[tuple[float, str]]:
    """(cumulative seconds over total, "file:line(name)") for every
    function defined in a module directly under package, largest share
    first."""
    rows = []
    for (filename, line, name), (_, _, _, cumulative, _) in stats.stats.items():
        path = Path(filename)
        if path.parent == package:
            rows.append((cumulative / total, f"{path.name}:{line}({name})"))
    return sorted(rows, key=lambda row: row[0], reverse=True)


def run_pass(lab, ops) -> None:
    for op in ops:
        try:
            op.run(lab)
        except Exception as exc:  # a known defect, as the benchmark counts it
            print(f"raised: {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)


def profile(workload: str) -> tuple[pstats.Stats, float]:
    """One warm-up pass of workload, then PASSES passes under cProfile:
    their profile and their wall-clock seconds."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    lab = importlib.import_module("srnglab")
    importlib.import_module("srnglab.cli")
    workloads = importlib.import_module("workloads")
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    with tempfile.TemporaryDirectory() as workdir:
        ops = workloads.build(workload, workloads.DEFAULT_SEED, Path(workdir), reference)
        run_pass(lab, ops)
        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.enable()
        for _ in range(PASSES):
            run_pass(lab, ops)
        profiler.disable()
        wall = time.perf_counter() - start
    return pstats.Stats(profiler), wall


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    stats, wall = profile(argv[0])
    print(f"{wall:.3f} s over {PASSES} passes of {argv[0]}")
    for share, function in shares(stats, PACKAGE, wall):
        print(f"{share:6.1%}  {function}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
