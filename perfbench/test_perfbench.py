"""Tests of the benchmark itself: counts, seeds, failure accounting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F

import pytest

import run
import workloads
from spans import Tracer, oracle_plans, pool_scan_atoms

sys.path.insert(0, str(run.SRC))
import srnglab  # noqa: E402
import srnglab.cli  # noqa: E402,F401
from srnglab import oracle  # noqa: E402


def test_pool_scan_atoms_matches_the_recorded_greedy_visits():
    dist = srnglab.expand(srnglab.SourceModel(srnglab.IID((F(9, 10), F(1, 10))), 13))
    _, trace = srnglab.build_mapping(dist, 1024, F(1, 20))
    assert pool_scan_atoms(trace) == 598_575


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_oracle_plans_match_the_enumeration(full, m):
    dist = srnglab.expand(srnglab.SourceModel(srnglab.IID((F(2, 3), F(1, 3))), 2))
    enumerated = sum(1 for _ in oracle._iter_plans(dist, m, full))
    assert oracle_plans(4, 4, m, full) == enumerated


def _traced_counts(ops, workdir):
    tracer = Tracer()
    tracer.install()
    try:
        run.run_pass(srnglab, ops, workdir, run.Tally(), tracer)
    finally:
        tracer.uninstall()
    return tracer


def _small_atom_ops():
    ops = []
    for source in workloads.atom_sources(3):
        ops.append(
            workloads.Operation(
                source.label,
                lambda lab, source=source: workloads.run_atom_pipeline(lab, source, 6, True),
                workloads.atom_invariants,
            )
        )
    return ops


def test_counts_repeat_exactly_and_self_times_balance(tmp_path):
    first = _traced_counts(_small_atom_ops(), tmp_path)
    second = _traced_counts(_small_atom_ops(), tmp_path)
    assert first.counts == second.counts
    assert first.counts["probability.atoms"] == 4 * 2**6
    assert first.counts["divergence.terms"] == 4 * 5 * 2**6
    for wall, layers in first.op_balance():
        assert 0 < layers <= wall
    # Every span's self time is accounted once: they sum to the op walls.
    assert sum(first.self_times()) == pytest.approx(sum(w for w, _ in first.op_balance()))


def test_cli_counts_repeat_exactly(tmp_path):
    ini = tmp_path / "oracle.ini"
    ini.write_text(workloads.CRITERION7_INI.format(command="oracle").replace("m = 2, 4", "m = 2"))
    op = workloads.Operation(
        "oracle", lambda lab: (lab.cli.main(["oracle", str(ini), "--out", str(tmp_path / "o")]), None),
        lambda result: [],
    )
    first, second = _traced_counts([op], tmp_path), _traced_counts([op], tmp_path)
    assert first.counts == second.counts
    # n = 3 gives 8 atoms; m = 2: S(8,1)*1! + S(8,2)*2! plans.
    assert first.counts["oracle.plans"] == 1 + 127 * 2
    busy, inclusive = first.busy_by_name(), first.inclusive_by_name()
    assert 0 < busy["cli.oracle"] < inclusive["cli.oracle"]
    assert inclusive["cli.oracle"] > busy["oracle.min_fdiv_bruteforce"]


def test_default_seed_is_the_documented_instance_set():
    labels = [s.label for s in workloads.atom_sources(workloads.DEFAULT_SEED)]
    assert labels == [
        "iid(9/10, 1/10)",
        "iid(3/4, 1/4)",
        "markov(1/2, 1/2; 9/10, 1/10; 1/5, 4/5)",
        "mixture(1/2, 1/2; 9/10, 1/10; 1/5, 4/5)",
    ]


@pytest.mark.parametrize("seed", [1, 2, 17, 123456])
def test_other_seeds_draw_small_rationals_reproducibly(seed):
    sources = workloads.atom_sources(seed)
    assert sources == workloads.atom_sources(seed)
    assert sources[:2] == workloads.atom_sources(workloads.DEFAULT_SEED)[:2]
    for source in sources[2:]:
        for row in source.rows:
            assert sum(row) == 1
            assert all(p.denominator <= 20 for p in row)


def test_known_defect_is_counted_apart_from_failures(capsys, tmp_path):
    def rejected(lab):
        return lab.expand(lab.SourceModel(lab.IID((0.9, 0.1)), 4), cap=8)

    def broken(lab):
        raise srnglab.CapExceeded("not from expand")

    ops = [
        workloads.Operation("defect", rejected, lambda out: [], known_defect="CapExceeded"),
        workloads.Operation("other", broken, lambda out: [], known_defect="CapExceeded"),
        workloads.Operation("fixed", lambda lab: 1, lambda out: [], known_defect="CapExceeded"),
        workloads.Operation("unrecorded", rejected, lambda out: []),
        workloads.Operation("ok", lambda lab: 1, lambda out: []),
        workloads.Operation("wrong", lambda lab: 2, lambda out: ["value 2 is wrong"]),
    ]
    tally = run.Tally()
    run.run_pass(srnglab, ops, tmp_path, tally, None)
    assert (tally.known, tally.attempted, tally.failed) == (1, 5, 4)
    err = capsys.readouterr().err
    assert "known defect: defect: CapExceeded" in err
    assert "FAILED other" in err and "FAILED wrong: value 2 is wrong" in err
    assert "FAILED fixed: expand raised CapExceeded here at the seed commit, but this run completed" in err
    assert "FAILED unrecorded: CapExceeded" in err


def test_only_recorded_instances_are_known_defects(tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    recorded = reference["known_defects"]["atoms-float"]
    assert set(recorded) <= {s.label for s in workloads.drawable_sources()}
    for name in ("atoms-exact", "atoms-float"):
        ops = workloads.build(name, workloads.DEFAULT_SEED, tmp_path, reference)
        marked = [op.label.split(" n=")[0] for op in ops if op.known_defect]
        assert marked == (["atoms-float iid(9/10, 1/10)"] if name == "atoms-float" else [])


def test_setup_probe_times_a_fresh_interpreter():
    assert 0 < run.probe_setup("cli-criterion7", workloads.DEFAULT_SEED) < 60
