"""The code-line counter in tools/: what it counts and what it leaves out."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def load_counter():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''\
"""Module docstring,
over two lines."""

# A comment-only line.
import math  # a trailing comment keeps the line


class Box:
    """Class docstring."""

    size = (
        1,

        2,
    )

    def area(self):
        """Function
        docstring."""
        text = """a string that is not a docstring

        spans three lines"""
        return math.pi * self.size[0] ** 2, text


def bare():
    return 1
'''


def test_counts_code_lines_outside_comments_and_docstrings() -> None:
    # Counted: import, class, size's four non-blank lines, def area, the
    # two non-blank lines of the string assignment, return, def bare and
    # its return.  Blank lines, also inside the string, the comment-only
    # line and the three docstrings are not.
    counter = load_counter()
    assert counter.code_lines(SNIPPET) == 12
    assert counter.code_lines("") == 0
