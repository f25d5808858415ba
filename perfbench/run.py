"""srnglab benchmark: four workloads, end-to-end metrics, and a traced run.

One workload, in this process:

    python3 perfbench/run.py --workload atoms-exact --seed 0 --seconds 20 --trace 0

Every workload, each in its own process, with a summary table:

    python3 perfbench/run.py --seed 0 --seconds 20

A run first starts SETUP_REPEATS fresh interpreters that each only set up
the workload (import srnglab from ./src, write the workload inputs, load the
reference outputs) and reports the median time from starting one to its
first operation being ready to run as setup_s.  It then sets up once itself
and runs whole passes of the workload, one operation after another with a
single client, until --seconds have gone by, checks every operation's
output, and prints the metrics.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones, taken
from spans around srnglab's public functions (see spans.py).

See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9

CLI_COMMANDS = ("analyze", "construct", "oracle", "rdp", "sweep")

#: Per-layer busy metrics and the spans whose self time each one sums.
BUSY = {
    "probability.expand.busy_s": ("probability.expand",),
    "probability.sort_descending.busy_s": ("probability.sort_descending",),
    "construction.build_mapping.busy_s": ("construction.build_mapping",),
    "construction.build_smooth_entropy_mapping.busy_s": ("construction.build_smooth_entropy_mapping",),
    "construction.apply_mapping.busy_s": ("construction.apply_mapping",),
    "construction.bounds.busy_s": (
        "construction.converse_bound",
        "construction.achievability_bound",
        "construction.entropy_mapping_bound",
    ),
    "divergence.divergence.busy_s": ("divergence.divergence",),
    "spectrum.spectrum_cdf.busy_s": ("spectrum.spectrum_cdf",),
    "spectrum.k_f_rate.busy_s": ("spectrum.k_f_rate",),
    "spectrum.typeclass_spectrum.busy_s": ("spectrum.typeclass_spectrum",),
    "spectrum.typeclass_smooth_max_entropy.busy_s": ("spectrum.typeclass_smooth_max_entropy",),
    "oracle.min_fdiv_bruteforce.busy_s": ("oracle.min_fdiv_bruteforce",),
    "oracle.min_fdiv_bruteforce_full.busy_s": ("oracle.min_fdiv_bruteforce_full",),
    "rdp.rd_function_iid.busy_s": ("rdp.rd_function_iid",),
    "rdp.d_threshold.busy_s": ("rdp.d_threshold",),
    "rdp.rdp_lower_bound.busy_s": ("rdp.rdp_lower_bound",),
    "config.load_config.busy_s": ("config.load_config",),
    "cli.self_s": tuple(f"cli.{c}" for c in CLI_COMMANDS),
}

#: Per-subcommand metrics: the inclusive time of the subcommand's span, all
#: layers beneath it included.  Its self time is already in cli.self_s.
INCLUSIVE = {f"cli.{c}.busy_s": f"cli.{c}" for c in CLI_COMMANDS}

#: Per-layer count metrics and the tracer counter each one reads.
COUNTS = {
    "probability.atoms": "probability.atoms",
    "probability.distinct_masses": "probability.distinct_masses",
    "probability.failed": "probability.expand.raised",
    "construction.pool_scan_atoms": "construction.pool_scan_atoms",
    "construction.core_atoms": "construction.core_atoms",
    "construction.pool_atoms": "construction.pool_atoms",
    "divergence.terms": "divergence.terms",
    "spectrum.typeclass_spectrum.calls": "spectrum.typeclass_spectrum.calls",
    "spectrum.points": "spectrum.points",
    "oracle.plans": "oracle.plans",
    "rdp.rd_function_iid.calls": "rdp.rd_function_iid.calls",
}


class BenchError(Exception):
    """The benchmark cannot run here: no result is printed."""


def set_up(name: str, seed: int, workdir: Path):
    """Import srnglab from ./src, write the inputs, load the references."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        lab = importlib.import_module("srnglab")
        importlib.import_module("srnglab.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import srnglab from {SRC}: {exc}") from exc
    if SRC not in Path(lab.__file__).resolve().parents:
        raise BenchError(f"srnglab was imported from {lab.__file__}, not from {SRC}")
    try:
        reference = json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {REFERENCE}: {exc}") from exc
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return lab, workloads.build(name, seed, workdir, reference)


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter that only sets up `name` to
    its first operation being ready to run.

    time.monotonic is one clock for every process of the machine, so the
    child's reading can be set against the parent's.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up of {name} exited with code {proc.returncode}")
    return float(proc.stdout.split()[-1]) - start


def _raised_in_expand(error: BaseException) -> bool:
    tb = error.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if code.co_name == "expand" and code.co_filename.endswith("probability.py"):
            return True
        tb = tb.tb_next
    return False


class Tally:
    def __init__(self) -> None:
        self.attempted = self.failed = self.known = 0


def run_pass(lab, ops, workdir: Path, tally: Tally, tracer: Tracer | None) -> None:
    for op in ops:
        span = tracer.start_op() if tracer else None
        output, error = None, None
        try:
            output = op.run(lab)
        except Exception as exc:  # any exception fails the operation, named below
            error = exc
        finally:
            if tracer:
                tracer.close(span)
        raised = f"{type(error).__name__}: {error}" if error else None
        if op.known_defect is not None:
            if raised and op.known_defect == type(error).__name__ and _raised_in_expand(error):
                tally.known += 1
                print(f"known defect: {op.label}: {raised}", file=sys.stderr)
                continue
            # The recorded defect did not occur: a fix or a new failure, either
            # way a change that reference.json has to record.
            problems = [f"expand raised {op.known_defect} here at the seed commit, "
                        f"but this run {'raised ' + raised if raised else 'completed'}"]
        else:
            problems = [raised] if raised else op.check(output)
        tally.attempted += 1
        if problems:
            tally.failed += 1
            for problem in problems:
                print(f"FAILED {op.label}: {problem}", file=sys.stderr)
    shutil.rmtree(workdir / "out", ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        lab, ops = set_up(name, seed, workdir)
        setups = [probe_setup(name, seed) for _ in range(SETUP_REPEATS)]
        tracer = Tracer() if trace else None
        if tracer:
            tracer.install()
        tally = Tally()
        passes = 0
        start = time.perf_counter()
        while True:
            run_pass(lab, ops, workdir, tally, tracer)
            passes += 1
            wall = time.perf_counter() - start
            if wall >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # succeeds only when no other run still works there

    ops_per_s = (tally.attempted - tally.failed) / wall
    tried = tally.attempted + tally.known
    report = {
        "workload": name,
        "seed": seed,
        "passes": passes,
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": (tally.failed + tally.known) / tried if tried else 0.0,
        "known_defects": tally.known,
    }
    if tracer:
        metrics = layer_metrics(tracer, passes, ops_per_s)
        tracer.uninstall()
    else:
        metrics = {
            "setup_s": {"value": report["setup_s"], "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "report": report,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        },
    }


def layer_metrics(tracer: Tracer, passes: int, ops_per_s: float) -> dict:
    """Per-pass layer metrics from the spans and counters of a traced run."""
    busy = tracer.busy_by_name()
    inclusive = tracer.inclusive_by_name()
    metrics = {}
    for metric, spans in BUSY.items():
        metrics[metric] = {"value": sum(busy.get(s, 0.0) for s in spans) / passes, "unit": "s"}
    for metric, span in INCLUSIVE.items():
        metrics[metric] = {"value": inclusive.get(span, 0.0) / passes, "unit": "s"}
    for metric, counter in COUNTS.items():
        total = tracer.counts[counter]
        metrics[metric] = {"value": total // passes if total % passes == 0 else total / passes,
                           "unit": "count"}
    metrics["probability.bytes_per_atom"] = {"value": tracer.bytes_per_atom(), "unit": "B"}
    unattributed = sum(wall - layers for wall, layers in tracer.op_balance())
    metrics["trace.unattributed_s"] = {"value": unattributed / passes, "unit": "s"}
    metrics["trace.ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
    return metrics


def print_report(report: dict) -> None:
    units = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB", "fail_ratio": "fraction"}
    print(f"workload {report['workload']} seed {report['seed']}: "
          f"{report['passes']} passes in {report['wall_s']:.2f} s")
    for key, unit in units.items():
        print(f"  {key:<12} {report[key]:.6g} {unit}")
    if report["known_defects"]:
        print(f"  known_defects {report['known_defects']} (named on stderr)")


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        report = json.loads(next(l for l in lines if l.startswith("summary "))[len("summary "):])
        rows.append((report, json.loads(lines[-1])))
    print()
    print(f"{'workload':<16} {'setup_s (s)':>12} {'ops_per_s (1/s)':>16} "
          f"{'peak_rss_mb (MB)':>17} {'fail_ratio':>11} correct")
    for report, result in rows:
        print(f"{report['workload']:<16} {report['setup_s']:>12.4f} {report['ops_per_s']:>16.4f} "
              f"{report['peak_rss_mb']:>17.1f} {report['fail_ratio']:>11.3f} {result['correct']}")
    print(json.dumps({report["workload"]: result for report, result in rows}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    try:
        if args.setup_probe:
            workdir = WORK / f"probe-{os.getpid()}"
            try:
                set_up(args.workload, args.seed, workdir)
                ready = time.monotonic()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(repr(ready))
            return 0
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(out["report"])
    print("summary " + json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
