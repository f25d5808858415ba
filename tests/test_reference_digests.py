"""The benchmark's pinned CLI outputs, replayed in the test suite.

`perfbench/reference.json` pins the SHA-256 of every file the CLI writes
for the criterion-7 INI (all five subcommands) and for the two type-class
sweep INIs.  Each of those operations runs once here, built by
`perfbench/workloads.py` as the benchmark builds it, and its own check must
report no problems: exit code 0 and every file's digest as pinned.  The
atoms-exact pass at the default seed replays too: its exact values and
the digests of both constructions' mappings, as pinned.  The benchmark's
files are only read.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import srnglab
import srnglab.cli  # noqa: F401  (the operations call lab.cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", ["cli-criterion7", "typeclass-sweep"])
def test_cli_outputs_match_the_pinned_digests(name, tmp_path) -> None:
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert reference[name], name
    ops = workloads.build(name, workloads.DEFAULT_SEED, tmp_path, reference)
    assert len(ops) == len(reference[name])
    for op in ops:
        assert op.check(op.run(srnglab)) == [], op.label


def test_atoms_exact_matches_the_pinned_reference(tmp_path) -> None:
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert reference["atoms-exact"]
    ops = workloads.build("atoms-exact", workloads.DEFAULT_SEED, tmp_path, reference)
    assert len(ops) == len(reference["atoms-exact"])
    for op in ops:
        assert op.check(op.run(srnglab)) == [], op.label
