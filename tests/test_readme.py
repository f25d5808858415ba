"""The README's tour runs as written and measures what its comment says."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour_runs_and_lands_at_seven_sixteenths() -> None:
    # The first python block; its own assert checks the bracket.
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    assert scope["exact"] == Fraction(7, 16)
