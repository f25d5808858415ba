"""The benchmark's four workloads: inputs made from a seed, operations, checks.

Each workload is a list of operations that together form one pass.  An
operation runs against the srnglab package handed to it and returns what
it produced; `check` compares that output with the invariants every seed
must satisfy and, on the default seed, with the reference outputs recorded
at the seed commit (`reference.json`).  A check returns a list of problems,
empty when the output is correct.

Seed 0 reproduces the parameters documented in README.md.  Any other seed
draws the Markov rows and the mixture components from rationals with
denominator at most 20 near the default parameters, at the same n and m.
The CLI workloads ignore the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0

ATOM_CURVES = ("variational", "reverse_kl", "hellinger", "e_gamma:2")
SMOOTH_CURVE = "variational"
ATOM_M = 1024
ATOM_GAMMA = F(1, 20)
ATOM_DELTA = F(1, 10)
EXACT_N = 14
FLOAT_N = 16

#: Slack for bound checks on float results, the same the construct command uses.
BOUND_SLACK = 1e-10
#: Float results recorded as repr strings are compared within this relative
#: tolerance, to allow for a different libm on another machine.
FLOAT_REPR_TOL = 1e-12
#: atoms-float values are compared with the exact-mode values of the same
#: instances within this relative tolerance.
FLOAT_VS_EXACT_TOL = 1e-9


def _near(p: F) -> list[F]:
    """Rationals with denominator at most 20 within 1/40 of p."""
    return sorted({F(a, d) for d in range(2, 21) for a in range(1, d) if abs(F(a, d) - p) <= F(1, 40)})


# Other seeds draw each row or component near its default (9/10 for the
# first, 1/5 for the second).  Within these bands the greedy's work per
# instance varies by about 8% between seeds (interquartile range of
# pool_scan_atoms over twelve seeds), against 12% for bands twice as wide,
# so runs on different seeds measure comparable work.
HEAVY = _near(F(9, 10))
LIGHT = _near(F(1, 5))


@dataclass(frozen=True)
class Source:
    """Rational source parameters, turned into srnglab objects on demand."""

    kind: str  # "iid", "markov" or "mixture"
    rows: tuple[tuple[F, ...], ...]  # iid: (pmf,); markov: (initial, *rows); mixture: (weights, *pmfs)

    @property
    def label(self) -> str:
        text = "; ".join(", ".join(str(p) for p in row) for row in self.rows)
        return f"{self.kind}({text})"

    def variant(self, lab, exact: bool):
        cast = (lambda p: p) if exact else float
        rows = tuple(tuple(cast(p) for p in row) for row in self.rows)
        if self.kind == "iid":
            return lab.IID(rows[0])
        if self.kind == "markov":
            return lab.Markov(rows[0], rows[1:])
        return lab.Mixture(rows[0], tuple(lab.IID(pmf) for pmf in rows[1:]))


def iid(p0: F) -> Source:
    return Source("iid", ((p0, 1 - p0),))


def markov(stay0: F, leave1: F) -> Source:
    return Source("markov", ((F(1, 2), F(1, 2)), (stay0, 1 - stay0), (leave1, 1 - leave1)))


def mixture(p_first: F, p_second: F) -> Source:
    return Source("mixture", ((F(1, 2), F(1, 2)), (p_first, 1 - p_first), (p_second, 1 - p_second)))


def atom_sources(seed: int) -> list[Source]:
    """The four ROADMAP sources; other seeds redraw the Markov and mixture rows."""
    if seed == DEFAULT_SEED:
        rows = (F(9, 10), F(1, 5), F(9, 10), F(1, 5))
    else:
        rng = random.Random(seed)
        rows = (rng.choice(HEAVY), rng.choice(LIGHT), rng.choice(HEAVY), rng.choice(LIGHT))
    return [iid(F(9, 10)), iid(F(3, 4)), markov(rows[0], rows[1]), mixture(rows[2], rows[3])]


def drawable_sources() -> list[Source]:
    """Every source atom_sources can return, on any seed."""
    drawn = [make(h, l) for make in (markov, mixture) for h in HEAVY for l in LIGHT]
    return [iid(F(9, 10)), iid(F(3, 4))] + drawn


# -- atom pipeline ------------------------------------------------------------


@dataclass
class AtomOutput:
    k_f_rate: dict
    divergence: dict
    converse: dict
    achievability: dict
    smooth_divergence: object
    smooth_bound: float
    mapping: object
    smooth_mapping: object


def run_atom_pipeline(lab, source: Source, n: int, exact: bool) -> AtomOutput:
    """expand -> spectrum -> rates; spectrum-split mapping -> divergence and
    both bounds per curve; entropy-prefix mapping -> divergence -> bound."""
    curves = [lab.curve_from_name(name) for name in ATOM_CURVES]
    dist = lab.expand(lab.SourceModel(source.variant(lab, exact), n))
    summary = lab.spectrum_cdf(dist)
    rates = {c.name: lab.k_f_rate(summary, c, ATOM_DELTA).value for c in curves}
    mapping, trace = lab.build_mapping(dist, ATOM_M, ATOM_GAMMA)
    decoded = lab.apply_mapping(dist, mapping)
    div, con, ach = {}, {}, {}
    for c in curves:
        div[c.name] = lab.divergence(dist, decoded, c)
        con[c.name] = lab.converse_bound(summary, ATOM_M, ATOM_GAMMA, c).value
        ach[c.name] = lab.achievability_bound(trace, c).value
    smooth_curve = lab.curve_from_name(SMOOTH_CURVE)
    smooth_mapping, smooth_trace = lab.build_smooth_entropy_mapping(
        dist, smooth_curve, ATOM_DELTA, ATOM_GAMMA
    )
    smooth_decoded = lab.apply_mapping(dist, smooth_mapping)
    smooth_div = lab.divergence(dist, smooth_decoded, smooth_curve)
    smooth_bound = lab.entropy_mapping_bound(smooth_trace, smooth_curve).value
    return AtomOutput(rates, div, con, ach, smooth_div, smooth_bound, mapping, smooth_mapping)


def _text(value) -> str:
    if isinstance(value, F):
        return f"{value.numerator}/{value.denominator}"
    return repr(value)


def mapping_digest(mapping) -> str:
    data = ",".join(map(str, mapping.phi)) + "|" + ",".join(map(str, mapping.psi))
    return hashlib.sha256(data.encode()).hexdigest()


def atom_record(out: AtomOutput, with_mappings: bool) -> dict:
    """JSON-ready view of an atom pipeline's output, as reference.json holds it."""
    record = {
        "k_f_rate": {k: _text(v) for k, v in out.k_f_rate.items()},
        "divergence": {k: _text(v) for k, v in out.divergence.items()},
        "converse": {k: _text(v) for k, v in out.converse.items()},
        "achievability": {k: _text(v) for k, v in out.achievability.items()},
        "smooth_divergence": _text(out.smooth_divergence),
        "smooth_bound": _text(out.smooth_bound),
    }
    if with_mappings:
        record["mapping_sha256"] = mapping_digest(out.mapping)
        record["smooth_mapping_sha256"] = mapping_digest(out.smooth_mapping)
    return record


def _matches(value, text: str, exact: bool) -> bool:
    """Exact equality against a num/den reference in exact mode; otherwise
    closeness within the tolerance of the mode."""
    expected = F(text) if "/" in text else float(text)
    if exact and isinstance(expected, F):
        return value == expected
    rel = FLOAT_REPR_TOL if exact else FLOAT_VS_EXACT_TOL
    return math.isclose(float(value), float(expected), rel_tol=rel, abs_tol=1e-15)


def atom_invariants(out: AtomOutput) -> list[str]:
    """converse <= divergence <= achievability per curve, and the
    entropy-prefix divergence under its bound; exact for rational values."""
    problems = []
    for name, value in out.divergence.items():
        slack = 0 if isinstance(value, F) else BOUND_SLACK
        if not out.converse[name] <= value + slack:
            problems.append(f"curve {name}: converse {out.converse[name]!r} > divergence {_text(value)}")
        if not value <= out.achievability[name] + slack:
            problems.append(
                f"curve {name}: divergence {_text(value)} > achievability {out.achievability[name]!r}"
            )
    slack = 0 if isinstance(out.smooth_divergence, F) else BOUND_SLACK
    if not out.smooth_divergence <= out.smooth_bound + slack:
        problems.append(
            f"curve {SMOOTH_CURVE}: entropy-prefix divergence {_text(out.smooth_divergence)} "
            f"> bound {out.smooth_bound!r}"
        )
    return problems


def atom_against_reference(out: AtomOutput, ref: dict, exact: bool) -> list[str]:
    """Exact num/den equality (exact mode) or closeness to the exact-mode
    values (float mode), plus mapping digests in exact mode."""
    problems = []
    got = atom_record(out, with_mappings=exact)
    for key in ("k_f_rate", "divergence", "converse", "achievability"):
        for name, text in ref[key].items():
            if not _matches(getattr(out, key)[name], text, exact):
                problems.append(f"curve {name}: {key} {got[key][name]} differs from reference {text}")
    for key in ("smooth_divergence", "smooth_bound"):
        if not _matches(getattr(out, key), ref[key], exact):
            problems.append(f"curve {SMOOTH_CURVE}: {key} {got[key]} differs from reference {ref[key]}")
    if exact:
        for key in ("mapping_sha256", "smooth_mapping_sha256"):
            if got[key] != ref[key]:
                problems.append(f"{key} {got[key][:12]} differs from reference {ref[key][:12]}")
    return problems


# -- CLI workloads --------------------------------------------------------------

CRITERION7_INI = """\
[run]
command = {command}
mode = exact
[source]
variant = iid
alphabet = 2
n = 3
pmf = 3/4, 1/4
[curves]
names = variational, reverse_kl, hellinger, e_gamma:2
[grid]
gamma = 1/10, 1/2
m = 2, 4
delta = 1/20, 1/5
eps = 1/8
d = 1/20, 1/10
n_sweep = 1, 2, 3, 4, 5, 6
[distortion]
kind = additive
row.0 = 0, 1
row.1 = 1, 0
"""

TERNARY_SWEEP_INI = """\
[run]
command = sweep
mode = exact
[source]
variant = iid
alphabet = 3
n = 1
pmf = 1/2, 1/3, 1/6
[curves]
names = variational
[grid]
delta = 1/20, 1/5
n_sweep = 60, 120, 180
"""

MIXTURE_SWEEP_INI = """\
[run]
command = sweep
mode = exact
[source]
variant = mixture
alphabet = 2
n = 1
weights = 1/2, 1/2
component.0 = 9/10, 1/10
component.1 = 1/5, 4/5
[curves]
names = variational, hellinger
[grid]
delta = 1/20, 1/5
n_sweep = 250, 500, 1000
"""


def digests(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


# -- workloads ----------------------------------------------------------------


@dataclass
class Operation:
    """One unit of work: `run(lab)` produces output, `check(output)` judges it."""

    label: str
    run: Callable
    check: Callable
    #: Exception type name that probability.expand raises on this instance
    #: at the seed commit, as reference.json records it; None for ordinary
    #: operations.
    known_defect: str | None = None


def _atom_operations(name: str, seed: int, reference: dict, exact: bool) -> list[Operation]:
    n = EXACT_N if exact else FLOAT_N
    refs = reference.get(name, {}) if seed == DEFAULT_SEED else {}
    known = reference.get("known_defects", {}).get(name, {})
    ops = []
    for source in atom_sources(seed):
        label = (
            f"{name} {source.label} n={n} m={ATOM_M} gamma={ATOM_GAMMA} "
            f"delta={ATOM_DELTA} seed={seed}"
        )
        ref = refs.get(source.label)

        def check(out, ref=ref):
            problems = atom_invariants(out)
            if ref is not None:
                problems += atom_against_reference(out, ref, exact)
            return problems

        # Float expand can reject the distribution it built itself: the naive
        # sum of iid (9/10, 1/10) at n = 16 is 1 - 1.14e-12, outside the 1e-12
        # tolerance.  The instances where it does so at the seed commit are
        # recorded in reference.json; they stay in the workload, counted apart.
        ops.append(
            Operation(
                label,
                lambda lab, source=source: run_atom_pipeline(lab, source, n, exact),
                check,
                known.get(source.label),
            )
        )
    return ops


def _cli_operations(
    name: str, inis: list[tuple[str, str]], workdir: Path, reference: dict
) -> list[Operation]:
    """One operation per (subcommand, INI file); each writes to a fresh directory."""
    ops = []
    counter = itertools.count()
    for index, (command, text) in enumerate(inis):
        path = workdir / f"{name}-{index}-{command}.ini"
        path.write_text(text)
        expected = reference.get(name, {}).get(f"{index}-{command}", {})

        def run(lab, command=command, path=path, index=index):
            out = workdir / "out" / f"{name}-{index}-{command}-{next(counter)}"
            code = lab.cli.main([command, str(path), "--out", str(out)])
            return code, out

        def check(result, expected=expected):
            code, out = result
            problems = [] if code == 0 else [f"exit code {code}"]
            got = digests(out) if out.is_dir() else {}
            for file_name in sorted(set(expected) | set(got)):
                if got.get(file_name) != expected.get(file_name):
                    problems.append(f"{file_name}: digest differs from the seed commit's")
            return problems

        ops.append(Operation(f"{name} {command} {path.name}", run, check))
    return ops


def build(name: str, seed: int, workdir: Path, reference: dict) -> list[Operation]:
    """The operations of one pass of workload `name`."""
    if name == "atoms-exact":
        return _atom_operations(name, seed, reference, exact=True)
    if name == "atoms-float":
        return _atom_operations(name, seed, reference, exact=False)
    if name == "cli-criterion7":
        inis = [(c, CRITERION7_INI.format(command=c)) for c in ("analyze", "construct", "oracle", "rdp", "sweep")]
        return _cli_operations(name, inis, workdir, reference)
    if name == "typeclass-sweep":
        inis = [("sweep", TERNARY_SWEEP_INI), ("sweep", MIXTURE_SWEEP_INI)]
        return _cli_operations(name, inis, workdir, reference)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("atoms-exact", "atoms-float", "cli-criterion7", "typeclass-sweep")
