"""Spans and counts recorded from outside srnglab, around its public functions.

`Tracer.install` replaces each function in TRACED by a wrapper, both as the
attribute of its own module and under every other name a srnglab module
imported it as (so `srnglab.cli.min_fdiv_bruteforce` and
`srnglab.expand` are timed too).  A wrapper records one span per call:
name, start, end, parent span and operation id, kept in memory until the
run ends.  A span's self time is its duration minus the time its child
spans cover.

Counts are taken from each call's arguments and result by hooks that run
in a `bench.hook` span of their own, so their cost lands in no layer's
self time.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

#: Public functions wrapped per srnglab module.  Some have no per-layer
#: metric of their own; they are wrapped so that their time is not
#: charged to a caller's self time.
TRACED = {
    "probability": ("expand", "sort_descending"),
    "spectrum": (
        "spectrum_cdf",
        "k_f_rate",
        "sup_entropy_quantile",
        "smooth_max_entropy",
        "typeclass_spectrum",
        "typeclass_smooth_max_entropy",
        "rate_convergence_sweep",
    ),
    "construction": (
        "build_mapping",
        "build_smooth_entropy_mapping",
        "baseline_collapse_mapping",
        "apply_mapping",
        "converse_bound",
        "achievability_bound",
        "entropy_mapping_bound",
    ),
    "divergence": ("divergence",),
    "oracle": ("min_fdiv_bruteforce", "min_fdiv_bruteforce_full"),
    "rdp": ("rd_function_iid", "d_threshold", "rdp_lower_bound"),
    "config": ("load_config",),
}

OP = "bench.op"
HOOK = "bench.hook"


def pool_scan_atoms(trace) -> int:
    """Inner-loop visits of the greedy merge, read off a construction trace.

    Step i scans every pool atom not yet allocated, so the visits are the
    sum over steps up to the stop index of what remains.  Traces flagged
    as degenerate never ran the greedy and count zero.
    """
    if trace.flags:
        return 0
    remaining, visits = len(trace.pool), 0
    for step, taken in enumerate(trace.allocations):
        if step > trace.stop_index:
            break
        visits += remaining
        remaining -= len(taken)
    return visits


def _stirling2(n: int, k: int) -> int:
    # Row i holds S(i, j) for j <= k, from S(i, j) = j S(i-1, j) + S(i-1, j-1).
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def oracle_plans(support: int, size: int, m: int, full: bool) -> int:
    """Plans the exhaustive search enumerates: partitions into k <= m blocks
    (Stirling numbers of the second kind) times the representative choices,
    k! from the heaviest atoms or P(size, k) over the whole space."""
    total = 0
    for k in range(1, min(m, support) + 1):
        reps = math.perm(size, k) if full else math.factorial(k)
        total += _stirling2(support, k) * reps
    return total


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.models: dict = {}  # (model, cap) -> None, in first-seen order
        self._restore: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def start_op(self) -> int:
        self.op += 1
        return self.open(OP)

    def self_times(self) -> list[float]:
        """Self time of every span, in recording order."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def busy_by_name(self) -> dict[str, float]:
        busy: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            busy[span[0]] += own
        return busy

    def inclusive_by_name(self) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            total[name] += end - start
        return total

    def op_balance(self) -> list[tuple[float, float]]:
        """(wall time, summed layer self time) of every operation."""
        wall: dict[int, float] = {}
        layers: dict[int, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            name, start, end, _, op = span
            if name == OP:
                wall[op] = end - start
            elif name != HOOK:
                layers[op] += own
        return [(wall[op], layers[op]) for op in sorted(wall)]

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED function under each name srnglab binds it to."""
        for module_name, names in TRACED.items():
            module = sys.modules[f"srnglab.{module_name}"]
            for name in names:
                original = getattr(module, name)
                label = f"{module_name}.{name}"
                self._originals[label] = original
                wrapper = self._wrap(original, label, _HOOKS.get(label))
                for holder in [m for key, m in sys.modules.items() if key.split(".")[0] == "srnglab"]:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, attr, original))
                            setattr(holder, attr, wrapper)
        # The CLI entry point gets one span per subcommand: cli.analyze, ...
        cli = sys.modules["srnglab.cli"]
        main = cli.main

        def traced_main(argv=None):
            index = self.open(f"cli.{argv[0]}")
            try:
                return main(argv)
            finally:
                self.close(index)

        self._restore.append((cli, "main", main))
        cli.main = traced_main

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _wrap(self, fn, label: str, hook):
        signature = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.close(index)
                tracer.counts[f"{label}.raised"] += 1
                raise
            tracer.close(index)
            tracer.counts[f"{label}.calls"] += 1
            if hook is not None:
                inner = tracer.open(HOOK)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
                tracer.close(inner)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- memory ------------------------------------------------------------

    def bytes_per_atom(self) -> float:
        """tracemalloc peak during expand, per atom, over every model expanded.

        Run after the timed phase with the unwrapped expand, so that neither
        the spans nor tracemalloc slow the timed calls.
        """
        expand = self._originals["probability.expand"]
        rejected = sys.modules["srnglab.errors"].SrnglabError
        peak_bytes = atoms = 0
        for model, cap in self.models:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                dist = expand(model, cap)
                peak_bytes += tracemalloc.get_traced_memory()[1] - before
                atoms += len(dist.masses)
                del dist
            except rejected:  # a model expand rejects holds no atoms to weigh
                pass
            finally:
                tracemalloc.stop()
        return peak_bytes / atoms if atoms else 0.0


def _on_expand(tracer: Tracer, args: dict, dist) -> None:
    tracer.counts["probability.atoms"] += len(dist.masses)
    tracer.counts["probability.distinct_masses"] += len(set(dist.masses))
    tracer.models.setdefault((args["model"], args["cap"]), None)


def _on_construction(tracer: Tracer, args: dict, result) -> None:
    trace = result[1]
    tracer.counts["construction.pool_scan_atoms"] += pool_scan_atoms(trace)
    tracer.counts["construction.core_atoms"] += len(trace.core)
    tracer.counts["construction.pool_atoms"] += len(trace.pool)


def _on_spectrum(tracer: Tracer, args: dict, summary) -> None:
    tracer.counts["spectrum.points"] += len(summary.points)


def _on_divergence(tracer: Tracer, args: dict, value) -> None:
    tracer.counts["divergence.terms"] += len(args["p"].masses)


def _on_oracle(full: bool):
    def hook(tracer: Tracer, args: dict, result) -> None:
        dist = args["dist"]
        support = sum(1 for mass in dist.masses if mass > 0)
        tracer.counts["oracle.plans"] += oracle_plans(support, len(dist.masses), args["m"], full)

    return hook


_HOOKS = {
    "probability.expand": _on_expand,
    "construction.build_mapping": _on_construction,
    "construction.build_smooth_entropy_mapping": _on_construction,
    "spectrum.spectrum_cdf": _on_spectrum,
    "spectrum.typeclass_spectrum": _on_spectrum,
    "divergence.divergence": _on_divergence,
    "oracle.min_fdiv_bruteforce": _on_oracle(full=False),
    "oracle.min_fdiv_bruteforce_full": _on_oracle(full=True),
}
