"""Command line front end: one INI file in, deterministic files out.

Five subcommands cover the workflows: analyze (spectrum and rate
quantities), construct (mappings, their exact divergences, and both
bounds), oracle (exhaustive small-instance minima), rdp (distortion
thresholds and rate floors), and sweep (rates across blocklengths).

Every output is reproducible byte for byte in exact mode: JSON is dumped
with sorted keys, exact masses appear as num/den strings, CSV rows come
out in generation order, and nothing stamps time or machine state into a
file.  The construct command exits nonzero when any computed divergence
escapes its proved bracket, which makes it usable as a self-check, and
names each escaping record on stderr, never in its output file; rdp
likewise names each report whose floor exceeds its ceiling on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from .config import COMMANDS, RunConfig, load_config
from .construction import (
    achievability_bound,
    apply_mapping,
    baseline_collapse_mapping,
    build_mapping,
    build_smooth_entropy_mapping,
    converse_bound,
    entropy_mapping_bound,
    trace_to_jsonable,
)
from .divergence import (
    ConditionReport,
    FCurve,
    _budget_threshold,
    check_conditions,
    divergence,
)
from .errors import SrnglabError
from .oracle import min_fdiv_bruteforce, min_fdiv_bruteforce_full
from .probability import IID, Mass, expand
from .rdp import _rdp_report, d_threshold, rd_function_iid
from .spectrum import (
    _sweep_pairs,
    k_f_rate,
    smooth_max_entropy,
    spectrum_cdf,
    sup_entropy_quantile,
)

__all__ = ["main"]

_LN2 = math.log(2.0)


def _num(value: Mass | float, units: str) -> Any:
    """Serialize one numeric value; exact fractions survive only in nats."""
    if units == "bits":
        return float(value) / _LN2
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return value
    return float(value)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows: list[list[Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


#: Each configured curve with its condition report, resolved once per run.
_Curves = list[tuple[FCurve, ConditionReport]]


def _run_analyze(cfg: RunConfig, curves: _Curves) -> tuple[dict, int]:
    dist = expand(cfg.source(), cfg.cap)
    summary = spectrum_cdf(dist)
    units = cfg.units
    body: dict = {
        "spectrum": [
            {"value": _num(v, units), "mass": _num(m, units="nats")} for v, m in summary.points
        ],
        "conditions": {
            curve.name: {
                "nonincreasing": report.nonincreasing,
                "subexponential_near_zero": report.subexponential_near_zero,
                "zero_slope_at_infinity": report.zero_slope_at_infinity,
            }
            for curve, report in curves
        },
        "rates": [],
        "quantiles": [],
    }
    for eps in cfg.eps:
        quant = sup_entropy_quantile(summary, eps)
        body["quantiles"].append({"eps": _num(eps, "nats"), "value": _num(quant.value, units)})
    for curve, report in curves:
        if not report.nonincreasing:
            body["rates"].append({"curve": curve.name, "skipped": "curve is not nonincreasing"})
            continue
        for delta in cfg.deltas:
            kf = k_f_rate(summary, curve, delta)
            eps = 1 - _budget_threshold(curve, delta)
            quant = sup_entropy_quantile(summary, eps)
            h0, chosen = smooth_max_entropy(dist, eps)
            body["rates"].append(
                {
                    "curve": curve.name,
                    "delta": _num(delta, "nats"),
                    "k_f_rate": _num(kf.value, units),
                    "eps": _num(eps, "nats"),
                    "quantile": _num(quant.value, units),
                    "smooth_max_entropy": _num(h0, units),
                    "smooth_set_size": len(chosen),
                    "smooth_set": sorted(chosen),
                }
            )
    return body, 0


def _within(where: str, exact: Mass, lower: float, upper: float) -> bool:
    """Whether exact lies in [lower, upper], with 1e-10 slack for floats; an
    escape is named on stderr (never in construct.json), exact as in the file."""
    slack = 0 if isinstance(exact, Fraction) else 1e-10
    if lower <= exact + slack and exact <= upper + slack:
        return True
    gap = float(max(lower - exact, exact - upper))
    print(f"out of bounds: {where}: divergence {_num(exact, 'nats')} outside "
          f"[{lower!r}, {upper!r}], gap {gap!r}", file=sys.stderr)
    return False


def _run_construct(cfg: RunConfig, curves: _Curves) -> tuple[dict, int]:
    dist = expand(cfg.source(), cfg.cap)
    summary = spectrum_cdf(dist)
    units = cfg.units
    bounded = [curve for curve, report in curves if report.nonincreasing]
    all_within = True
    records = []
    for m in cfg.ms:
        for gamma in cfg.gammas:
            mapping, trace = build_mapping(dist, m, gamma)
            mapped = apply_mapping(dist, mapping)
            base_law = apply_mapping(dist, baseline_collapse_mapping(dist, m, gamma))
            record: dict = {
                "m": m,
                "gamma": str(gamma),
                "trace": trace_to_jsonable(trace),
                "curves": {},
            }
            for curve, report in curves:
                exact = divergence(dist, mapped, curve)
                entry: dict = {
                    "divergence": _num(exact, units),
                    "baseline_divergence": _num(divergence(dist, base_law, curve), units),
                }
                if report.nonincreasing:
                    ach = achievability_bound(trace, curve)
                    con = converse_bound(summary, m, gamma, curve)
                    where = f"m={m} gamma={gamma} curve={curve.name}"
                    within = _within(where, exact, con.value, ach.value)
                    all_within = all_within and within
                    entry.update(
                        {
                            "achievability": _num(ach.value, units),
                            "achievability_clamped": ach.clamped,
                            "converse": _num(con.value, units),
                            "converse_clamped": con.clamped,
                            "within_bounds": within,
                        }
                    )
                else:
                    entry["bounds_skipped"] = "curve is not nonincreasing"
                record["curves"][curve.name] = entry
            records.append(record)
    entropy_records = []
    for gamma in cfg.gammas:
        for curve in bounded:
            for delta in cfg.deltas:
                mapping, trace = build_smooth_entropy_mapping(dist, curve, delta, gamma)
                mapped = apply_mapping(dist, mapping)
                exact = divergence(dist, mapped, curve)
                bound = entropy_mapping_bound(trace, curve)
                where = f"entropy prefix m={trace.m} gamma={gamma} curve={curve.name} delta={delta}"
                within = _within(where, exact, -math.inf, bound.value)
                all_within = all_within and within
                entropy_records.append(
                    {
                        "curve": curve.name,
                        "delta": _num(delta, "nats"),
                        "gamma": str(gamma),
                        "m": trace.m,
                        "divergence": _num(exact, units),
                        "bound": _num(bound.value, units),
                        "within_bounds": within,
                        "flags": list(trace.flags),
                    }
                )
    body = {
        "mappings": records,
        "entropy_mappings": entropy_records,
        "all_within_bounds": all_within,
    }
    return body, 0 if all_within else 3


def _run_oracle(cfg: RunConfig, curves: _Curves) -> tuple[dict, int]:
    dist = expand(cfg.source(), cfg.cap)
    fast, slow = [], []
    for curve, report in curves:
        (fast if report.nonincreasing and curve.slope_at_infinity == 0 else slow).append(curve)
    records = []
    for m in cfg.ms:
        entry: dict = {"m": m, "curves": {}}
        results = dict(min_fdiv_bruteforce(dist, m, fast)) if fast else {}
        if slow:
            results.update(min_fdiv_bruteforce_full(dist, m, slow))
        for name, result in sorted(results.items()):
            entry["curves"][name] = {
                "value": _num(result.value, cfg.units),
                "exact": result.exact,
                "blocks": [list(b) for b in result.plan.blocks],
                "representatives": list(result.plan.representatives),
            }
        records.append(entry)
    return {"minima": records}, 0


def _run_rdp(cfg: RunConfig, curves: _Curves) -> tuple[dict, int]:
    if not isinstance(cfg.variant, IID):
        raise SrnglabError("the rdp command needs an iid source")
    assert cfg.distortion is not None
    source = cfg.source()
    summary = spectrum_cdf(expand(source, cfg.cap))
    units = cfg.units
    pmf = source.variant.pmf  # type: ignore[union-attr]
    # R(d) depends on d alone, and k_f_rate and the threshold on (curve, δ)
    # alone, so each is solved once and every report is built from them.
    rd = {d: rd_function_iid(pmf, cfg.distortion, d) for d in dict.fromkeys(cfg.ds)}
    rd_rows = [{"d": _num(d, "nats"), "value": _num(rd[d], units)} for d in cfg.ds]
    reports = []
    for curve, report in curves:
        if not report.nonincreasing:
            continue
        for delta in cfg.deltas:
            threshold = d_threshold(summary, curve, delta, cfg.distortion)
            kf_value = k_f_rate(summary, curve, delta).value
            for d in cfg.ds:
                point = _rdp_report(rd[d], kf_value, threshold, d)
                lower = _num(point.lower, units)
                upper = None if point.upper is None else _num(point.upper, units)
                if not point.consistent:
                    print(f"inconsistent: curve={curve.name} delta={delta} d={d}: "
                          f"lower {lower!r} > upper {upper!r}", file=sys.stderr)
                reports.append(
                    {
                        "curve": curve.name,
                        "delta": _num(delta, "nats"),
                        "d": _num(d, "nats"),
                        # A distortion level, like d: never a rate to rescale.
                        "threshold": _num(threshold, "nats"),
                        "rd": _num(point.rd_value, units),
                        "k_f_rate": _num(point.kf_value, units),
                        "lower": lower,
                        "upper": upper,
                        "consistent": point.consistent,
                    }
                )
    return {"rd_curve": rd_rows, "reports": reports}, 0


def _run_sweep(cfg: RunConfig, curves: _Curves) -> int:
    scale = _LN2 if cfg.units == "bits" else 1.0
    pairs = []
    for curve, report in curves:
        if not report.nonincreasing:
            print(f"skipping {curve.name}: not nonincreasing", file=sys.stderr)
            continue
        pairs += [(curve, delta) for delta in cfg.deltas]
    rows: list[list[Any]] = [
        [row.n, repr(row.nu), repr(row.delta), row.quantity, repr(row.value / scale), row.curve]
        for pair_rows in _sweep_pairs(cfg.source().variant, cfg.sweep_ns, pairs, cfg.cap)
        for row in pair_rows
    ]
    _write_csv(
        Path(cfg.out_dir) / "sweep.csv",
        ["n", "nu", "delta", "quantity", "value", "curve"],
        rows,
    )
    return 0


#: The commands that write `<command>.json`: each runner returns the body
#: and the exit code, and _run adds the envelope every such file shares.
_JSON_RUNNERS = {
    "analyze": _run_analyze,
    "construct": _run_construct,
    "oracle": _run_oracle,
    "rdp": _run_rdp,
}


def _run(cfg: RunConfig) -> int:
    curves = [(curve, check_conditions(curve)) for curve in cfg.curves()]
    if cfg.command == "sweep":
        return _run_sweep(cfg, curves)
    body, code = _JSON_RUNNERS[cfg.command](cfg, curves)
    envelope = {"command": cfg.command, "mode": cfg.mode, "units": cfg.units, "n": cfg.n}
    _write_json(Path(cfg.out_dir) / f"{cfg.command}.json", {**envelope, **body})
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="srnglab",
        description="finite-blocklength laboratory for source resolution under f-divergences",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} workflow")
        p.add_argument("config", help="path to an INI run file")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--units", choices=("nats", "bits"), help="override display units")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--exact", dest="mode", action="store_const", const="exact",
                           help="force exact arithmetic")
        group.add_argument("--float", dest="mode", action="store_const", const="float",
                           help="force float arithmetic")
        p.add_argument("--cap", type=int, help="override the atom cap")
    args = parser.parse_args(argv)
    if args.cap is not None and args.cap < 1:
        sub.choices[args.subcommand].error(
            f"argument --cap: must be a positive integer, got {args.cap}"
        )
    try:
        cfg = load_config(args.config, command=args.subcommand)
        # An empty --out is ignored; --cap is positive by now.
        overrides = {"out_dir": args.out, "units": args.units, "mode": args.mode, "cap": args.cap}
        updates = {key: value for key, value in overrides.items() if value}
        if updates:
            cfg = dataclasses.replace(cfg, **updates)
        return _run(cfg)
    except SrnglabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
