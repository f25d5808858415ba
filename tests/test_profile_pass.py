"""The layer profiler in tools/: the share table it prints."""

from __future__ import annotations

import cProfile
import importlib.util
import pstats
import time
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "profile_pass.py"


def load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PAIR = '''\
def inner():
    return sum(range(200_000))

def outer():
    return inner() + inner() + sum(range(100_000))
'''


def test_shares_rank_the_package_functions_by_cumulative_time(tmp_path) -> None:
    # outer calls inner twice and does more work of its own, so it holds
    # the larger share; the test's own frames and the built-ins lie
    # outside the package and get no row.
    profiler_tool = load("profile_pass", TOOL)
    package = tmp_path / "package"
    package.mkdir()
    (package / "pair.py").write_text(PAIR)
    pair = load("pair", package / "pair.py")
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    pair.outer()
    profiler.disable()
    wall = time.perf_counter() - start
    rows = profiler_tool.shares(pstats.Stats(profiler), package, wall)
    assert [function for _, function in rows] == ["pair.py:4(outer)", "pair.py:1(inner)"]
    assert 1 >= rows[0][0] > rows[1][0] > 0


def test_asks_for_exactly_one_workload() -> None:
    profiler_tool = load("profile_pass", TOOL)
    assert profiler_tool.main([]) == 2
    assert profiler_tool.main(["atoms-exact", "atoms-float"]) == 2
