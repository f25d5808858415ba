"""Write reference.json: the outputs every later commit must reproduce.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are the intended reference.  It
records, for the default seed:

- atoms-exact: each instance's exact divergences (num/den), bounds, rates
  and the SHA-256 of both mappings, at n = 14;
- atoms-float: the exact-mode values of the same instances at n = 16, which
  the float run must match within workloads.FLOAT_VS_EXACT_TOL;
- cli-criterion7 and typeclass-sweep: the SHA-256 of every output file;
- known_defects: for atoms-float, every source any seed can draw on which
  float expand at n = 16 raises, with the exception's type name.  Exact
  masses sum to exactly one, so atoms-exact has none.

The exact-mode n = 16 pipelines take several minutes.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def known_defects(lab) -> dict:
    """Source label -> exception type name, for float expand at FLOAT_N."""
    found = {}
    for source in workloads.drawable_sources():
        model = lab.SourceModel(source.variant(lab, exact=False), workloads.FLOAT_N)
        try:
            lab.expand(model)
        except lab.SrnglabError as exc:
            found[source.label] = type(exc).__name__
            print(f"known defect {source.label}: {exc}", file=sys.stderr)
    return found


def main() -> int:
    workdir = run.WORK / "record"
    lab, _ = run.set_up("atoms-exact", workloads.DEFAULT_SEED, workdir)
    reference: dict = {}
    for name, n in (("atoms-exact", workloads.EXACT_N), ("atoms-float", workloads.FLOAT_N)):
        reference[name] = {}
        for source in workloads.atom_sources(workloads.DEFAULT_SEED):
            out = workloads.run_atom_pipeline(lab, source, n, exact=True)
            reference[name][source.label] = workloads.atom_record(
                out, with_mappings=name == "atoms-exact"
            )
            print(f"{name} {source.label} n={n}", file=sys.stderr)
    for name in ("cli-criterion7", "typeclass-sweep"):
        reference[name] = {}
        ops = workloads.build(name, workloads.DEFAULT_SEED, workdir, {})
        for index, op in enumerate(ops):
            code, out = op.run(lab)
            if code != 0:
                raise SystemExit(f"{op.label} exited with code {code}")
            command = op.label.split()[1]
            reference[name][f"{index}-{command}"] = workloads.digests(out)
    reference["known_defects"] = {"atoms-float": known_defects(lab)}
    shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
