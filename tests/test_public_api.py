"""Snapshot of the public API.

Pins `srnglab.__all__`, and for every public name its parameters: names,
kinds (the `/` and `*` markers) and defaults, rendered without annotations,
which print differently across Python versions.  Exceptions are pinned by
their base class and constants by their value.  A change to the public API
fails here until the snapshot is updated along with it.  Importing the
package and its CLI in a fresh interpreter must load no module from
outside the standard library.
"""

from __future__ import annotations

import importlib
import inspect
import os
import site
import subprocess
import sys
import typing
from pathlib import Path

import srnglab

PUBLIC_API = {
    "AtomicDistribution": "(masses, n, alphabet_size, exact)",
    "BoundReport": "(value, clamped, detail=())",
    "CapExceeded": "exception(SrnglabError)",
    "ConditionReport": (
        "(nonincreasing, subexponential_near_zero, zero_slope_at_infinity, sources=())"
    ),
    "ConfigError": "exception(SrnglabError)",
    "ConstructionTrace": (
        "(kind, core, band, pool, off_support, representatives, allocations, stop_index, "
        "gamma, m, core_mass, flags, source)"
    ),
    "DEFAULT_ATOM_CAP": "16777216",
    "DimensionMismatch": "exception(SrnglabError)",
    "DistortionSpec": "(kind, entries)",
    "FCurve": (
        "(name, eval_at, f_at_zero, slope_at_infinity, inverse=None, params=(), "
        "nonincreasing=None, subexponential_near_zero=None)"
    ),
    "FLOAT_MASS_TOL": "1e-12",
    "IID": "(pmf)",
    "InvalidModel": "exception(SrnglabError)",
    "MappingPair": "(phi, psi, m_n)",
    "Markov": "(initial, transition)",
    "Mass": "Union[Fraction, float]",
    "Mixture": "(weights, components)",
    "NoConvergence": "exception(SrnglabError)",
    "OracleResult": "(curve, value, plan, exact)",
    "OutOfRange": "exception(SrnglabError)",
    "Outcome": "(id, symbols)",
    "PartitionPlan": "(blocks, representatives, m)",
    "RateReport": "(quantity, value, n, detail=())",
    "RdpBoundReport": (
        "(rd_value, kf_value, threshold, distortion_budget, lower, upper, consistent)"
    ),
    "RunConfig": (
        "(command, mode, units, cap, variant, n, curve_names, gammas, ms, deltas, eps, "
        "ds, sweep_ns, distortion, out_dir)"
    ),
    "SourceModel": "(variant, n)",
    "SpectrumSummary": "(points, n)",
    "SrnglabError": "exception(Exception)",
    "SweepRow": "(n, nu, delta, quantity, value, curve)",
    "ZeroMassOutcome": "exception(SrnglabError)",
    "achievability_bound": "(trace, curve)",
    "apply_mapping": "(dist, mapping)",
    "baseline_collapse_mapping": "(dist, m, gamma)",
    "build_mapping": "(dist, m, gamma)",
    "build_smooth_entropy_mapping": "(dist, curve, delta, gamma)",
    "cdf_at": "(summary, v)",
    "check_conditions": "(curve)",
    "converse_bound": "(summary, m, gamma, curve)",
    "curve_from_name": "(name)",
    "d_threshold": "(summary, curve, delta, spec)",
    "divergence": "(p, q, curve)",
    "e_gamma": "(gamma)",
    "e_gamma_sum": "(gamma)",
    "entropy_mapping_bound": "(trace, curve)",
    "expand": "(model, cap=16777216)",
    "f_inverse": "(curve, T)",
    "hellinger": "()",
    "k_f_rate": "(summary, curve, delta)",
    "kl": "()",
    "load_config": "(path, command=None)",
    "log_sum_check": "(curve, numerators, denominators, slack=1e-12)",
    "mapping_distortion": "(dist, mapping, spec)",
    "min_fdiv_bruteforce": "(dist, m, curves)",
    "min_fdiv_bruteforce_full": "(dist, m, curves)",
    "min_set_bruteforce": "(dist, delta)",
    "outcome_from_id": "(oid, n, alphabet_size)",
    "outcome_id": "(symbols, alphabet_size)",
    "pmf_entropy": "(pmf)",
    "rate_convergence_sweep": "(variant, ns, curve, delta, cap=16777216)",
    "rate_window": "(m, n, gamma)",
    "rd_function_iid": "(pmf, spec, d, tol=1e-09, max_iter=100000)",
    "rdp_lower_bound": "(pmf, spec, distortion_budget, summary, curve, delta)",
    "registered_curve_names": "()",
    "reverse_kl": "()",
    "self_information": "(dist, outcome)",
    "self_information_value": "(mass, n)",
    "smooth_max_entropy": "(dist, delta)",
    "sort_descending": "(dist)",
    "spectrum_cdf": "(dist)",
    "sup_entropy_quantile": "(summary, eps)",
    "tail_above": "(summary, v)",
    "tail_from": "(summary, v)",
    "trace_to_jsonable": "(trace)",
    "typeclass_smooth_max_entropy": "(variant, n, delta)",
    "typeclass_spectrum": "(variant, n)",
    "variational": "()",
}


def describe(obj) -> str:
    """One public name as pinned above: a callable's parameter list, an
    exception's base class, a constant's value, or the members of a union."""
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return f"exception({obj.__base__.__name__})"
    if inspect.isfunction(obj) or inspect.isclass(obj):
        sig = inspect.signature(obj)
        params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
        return str(sig.replace(parameters=params, return_annotation=inspect.Signature.empty))
    if isinstance(obj, (int, float)):
        return repr(obj)
    return "Union[" + ", ".join(arg.__name__ for arg in typing.get_args(obj)) + "]"


def test_public_names_are_pinned() -> None:
    assert list(srnglab.__all__) == list(PUBLIC_API)


def test_public_signatures_are_pinned() -> None:
    got = {name: describe(getattr(srnglab, name)) for name in srnglab.__all__}
    assert got == PUBLIC_API


def test_package_exports_exactly_its_modules_names() -> None:
    modules = [
        importlib.import_module(f"srnglab.{name}")
        for name in (
            "config", "construction", "divergence", "errors",
            "oracle", "probability", "rdp", "spectrum",
        )
    ]
    assert srnglab.__all__ == sorted({name for m in modules for name in m.__all__})
    assert "main" not in srnglab.__all__
    for module in modules:
        for name in module.__all__:
            assert getattr(srnglab, name) is getattr(module, name), name


def test_the_package_loads_only_the_standard_library() -> None:
    # -S keeps the site hooks from loading third-party modules at startup;
    # the site-packages stay importable through PYTHONPATH.
    paths = [str(Path(__file__).resolve().parents[1] / "src"), *site.getsitepackages()]
    code = "import sys, srnglab, srnglab.cli; print(*{name.partition('.')[0] for name in sys.modules})"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    loaded = set(result.stdout.split()) - {"__main__"}
    assert loaded - set(sys.stdlib_module_names) == {"srnglab"}
