"""Acceptance suite: one numbered end-to-end check per guarantee.

Each test prints a single PASS or FAIL line (straight to the terminal,
past pytest's capture) so a full run reads as a scoreboard:

  1. both bounds bracket the constructed divergence on a large grid
  2. the exhaustive oracle sits inside the same bracket
  3. the rate threshold equals the spectrum quantile, zero tolerance
  4. the greedy smooth set is optimal, and its rate converges
  5. both e_gamma forms agree exactly; curve conditions are classified
  6. the rate-distortion solver matches closed forms; distortion
     stays under the threshold implied by the achieved divergence
  7. CLI reruns are byte identical in exact mode

Tolerances are stated inline next to each comparison.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction
from statistics import NormalDist

from srnglab import (
    DistortionSpec,
    IID,
    Mixture,
    SourceModel,
    achievability_bound,
    apply_mapping,
    build_mapping,
    check_conditions,
    converse_bound,
    d_threshold,
    divergence,
    e_gamma,
    e_gamma_sum,
    expand,
    f_inverse,
    hellinger,
    k_f_rate,
    kl,
    mapping_distortion,
    min_fdiv_bruteforce,
    min_set_bruteforce,
    rd_function_iid,
    reverse_kl,
    smooth_max_entropy,
    spectrum_cdf,
    sup_entropy_quantile,
    typeclass_smooth_max_entropy,
    typeclass_spectrum,
    variational,
)
from srnglab.cli import main
from test_construction import single_letter

F = Fraction

HAMMING2 = DistortionSpec("additive", ((F(0), F(1)), (F(1), F(0))))


def hamming(k: int) -> DistortionSpec:
    rows = tuple(tuple(F(0) if i == j else F(1) for j in range(k)) for i in range(k))
    return DistortionSpec("additive", rows)


def announce(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def grid_sources():
    """The shared instance grid: iid, skewed, and mixture block sources."""
    sources = []
    for p in (F(1, 10), F(1, 4), F(2, 5)):
        for n in range(1, 9):
            sources.append(SourceModel(IID((1 - p, p)), n))
    for k in (2, 5):
        for n in range(1, 4):
            sources.append(SourceModel(IID((F(1, k),) * k), n))
    spiky = Mixture((F(2, 3), F(1, 3)), (IID((F(9, 10), F(1, 10))), IID((F(1, 2), F(1, 2)))))
    degenerate = Mixture((F(1, 2), F(1, 2)), (IID((F(1), F(0))), IID((F(1, 2), F(1, 2)))))
    for variant in (spiky, degenerate):
        for n in range(1, 5):
            sources.append(SourceModel(variant, n))
    return sources


GRID_CURVES = (
    variational(),
    reverse_kl(),
    hellinger(),
    e_gamma(F(1)),
    e_gamma(F(2)),
    e_gamma(F(5)),
)
GRID_GAMMAS = (F(1, 50), F(1, 10), F(1, 2))


def grid_ms(dist) -> tuple[int, ...]:
    """Codebook sizes from one through the full support."""
    support = sum(1 for v in dist.masses if v > 0)
    return tuple(sorted({1, 2, 3, 8, 32, support} & set(range(1, support + 1)))) or (1,)


def test_criterion_1_bounds_bracket_every_construction(capsys) -> None:
    started = time.monotonic()
    checked = 0
    for model in grid_sources():
        dist = expand(model)
        summary = spectrum_cdf(dist)
        for m, gamma in itertools.product(grid_ms(dist), GRID_GAMMAS):
            mapping, trace = build_mapping(dist, m, gamma)
            mapped = apply_mapping(dist, mapping)
            for curve in GRID_CURVES:
                exact = divergence(dist, mapped, curve)
                ach = achievability_bound(trace, curve).value
                con = converse_bound(summary, m, gamma, curve).value
                # Rational values compare exactly; floats get 1e-10 slack.
                slack = 0 if isinstance(exact, Fraction) else 1e-10
                assert con <= exact + slack, (model, m, gamma, curve.name, con, exact)
                assert exact <= ach + slack, (model, m, gamma, curve.name, exact, ach)
                checked += 1
    elapsed = time.monotonic() - started
    ok = checked >= 200 and elapsed < 60.0
    announce(capsys, 1, ok, f"{checked} instances in {elapsed:.1f}s, budget 60s")
    assert ok


def test_criterion_2_oracle_sits_inside_the_bracket(capsys) -> None:
    started = time.monotonic()
    small = []
    for model in grid_sources():
        dist = expand(model)
        if sum(1 for v in dist.masses if v > 0) <= 8:
            small.append(dist)
    checked = 0
    for dist in small:
        summary = spectrum_cdf(dist)
        for m in (1, 2, 3):
            best = dict(min_fdiv_bruteforce(dist, m, GRID_CURVES))
            for gamma in GRID_GAMMAS:
                mapping, _ = build_mapping(dist, m, gamma)
                mapped = apply_mapping(dist, mapping)
                for curve in GRID_CURVES:
                    optimum = best[curve.name].value
                    constructed = divergence(dist, mapped, curve)
                    con = converse_bound(summary, m, gamma, curve).value
                    slack = 0 if isinstance(optimum, Fraction) else 1e-10
                    assert con <= optimum + slack, (m, gamma, curve.name)
                    assert optimum <= constructed + slack, (m, gamma, curve.name)
                    checked += 1
    elapsed = time.monotonic() - started
    ok = len(small) > 0 and checked > 0 and elapsed < 120.0
    announce(
        capsys, 2,
        ok,
        f"{checked} comparisons over {len(small)} small sources in {elapsed:.1f}s, budget 120s",
    )
    assert ok


def test_criterion_3_rate_threshold_equals_the_quantile(capsys) -> None:
    curves = (variational(), reverse_kl(), hellinger(), e_gamma(F(3, 2)))
    # Every budget stays at or below log 2, where 1 - f_inverse is exact
    # even in float arithmetic, so equality can be demanded outright.
    deltas = (F(1, 20), F(21, 200), F(1, 5), F(1, 2))
    checked = 0
    for model in grid_sources():
        summary = spectrum_cdf(expand(model))
        for curve, delta in itertools.product(curves, deltas):
            thr = 0 if delta >= curve.f_at_zero else f_inverse(curve, delta)
            report = k_f_rate(summary, curve, delta)
            quantile = sup_entropy_quantile(summary, 1 - thr)
            assert report.value == quantile.value, (curve.name, delta)
            checked += 1
        for delta in deltas:
            # The e_gamma threshold ignores its parameter and collapses
            # to the variational one.
            base = k_f_rate(summary, variational(), delta).value
            for gamma in (F(1), F(2), F(5)):
                assert k_f_rate(summary, e_gamma(gamma), delta).value == base, (gamma, delta)
            checked += 1
    announce(capsys, 3, True, f"{checked} identities, zero tolerance")


def test_criterion_4_greedy_sets_are_optimal_and_rates_converge(capsys) -> None:
    rng = random.Random(404)
    for size in (5, 8, 11, 14):
        weights = [rng.randint(1, 40) for _ in range(size)]
        dist = single_letter(*(F(w, sum(weights)) for w in weights))
        for eps in (F(1, 10), F(1, 4), F(1, 2)):
            best_size, witness = min_set_bruteforce(dist, eps)
            _, kept = smooth_max_entropy(dist, eps)
            assert len(kept) == best_size, (size, eps)
            assert sum(dist.masses[i] for i in witness) >= 1 - eps

    # Long-blocklength check through type classes: the per-symbol rate
    # of the smooth set should settle near the source entropy rate.
    pmf = (F(89, 100), F(11, 100))
    eps = 1 - f_inverse(variational(), F(1, 5))
    points = {}
    for n in (100, 200, 400, 700, 1000):
        value, _ = typeclass_smooth_max_entropy(IID(pmf), n, eps)
        points[n] = value / n
    target = 0.3499
    gap = abs(points[1000] - target)
    ok = gap < 0.05
    ns = sorted(points)
    drift_ok = all(points[b] <= points[a] + 0.005 for a, b in zip(ns, ns[1:]))
    # Second order: every exact type-class quantile sits inside its proved
    # Berry-Esseen bracket, an extra check next to the 0.05 tolerance.  The
    # ternary source at n = 1000 has 501 501 types; its quantiles read the
    # class list without merging points.
    pmfs = ((F(3, 4), F(1, 4)), (F(9, 10), F(1, 10)), (F(1, 2), F(1, 3), F(1, 6)))
    cases = [(pmf, n) for pmf in pmfs for n in (100, 300, 1000)]
    misses, checked = [], 0
    for pmf, n in cases:
        summary = typeclass_spectrum(IID(pmf), n)
        for level in (F(1, 10), F(1, 4)):
            lo, hi = berry_esseen_bracket(pmf, n, level)
            value = sup_entropy_quantile(summary, level).value
            if not lo <= value <= hi:
                misses.append((pmf, n, level, lo, value, hi))
            checked += 1
    bracket_ok = not misses
    announce(
        capsys, 4, ok and drift_ok and bracket_ok,
        f"rate at n=1000 is {points[1000]:.4f}, within 0.05 of {target}; drift tol 0.005; "
        f"{checked - len(misses)} of {checked} quantiles in the Berry-Esseen bracket",
    )
    assert ok and drift_ok
    assert bracket_ok, misses


#: Berry-Esseen constant for iid sums (Shevtsova 2011, arXiv:1111.6554).
BERRY_ESSEEN_C = 0.4748


def berry_esseen_bracket(pmf, n: int, eps) -> tuple[float, float]:
    """Where the eps-quantile of (1/n) log 1/P(X^n) must lie for an iid pmf.

    Berry-Esseen puts the spectrum cdf within D = C rho / (sigma^3 sqrt n)
    of the normal cdf, so the smallest point v with Pr{V > v} <= eps lies in
    H + sigma / sqrt(n) * [probit(1 - eps - D), probit(1 - eps + D)], with
    H, sigma^2 and rho the mean, variance and third absolute central moment
    of log 1/P(X).  A probit argument outside (0, 1) opens that side.
    """
    info = [(float(p), -math.log(p)) for p in pmf if p > 0]
    h = sum(p * i for p, i in info)
    sigma = math.sqrt(sum(p * (i - h) ** 2 for p, i in info))
    rho = sum(p * abs(i - h) ** 3 for p, i in info)
    gap = BERRY_ESSEEN_C * rho / (sigma**3 * math.sqrt(n))

    def edge(level: float) -> float:
        if level <= 0:
            return -math.inf
        if level >= 1:
            return math.inf
        return h + sigma / math.sqrt(n) * NormalDist().inv_cdf(level)

    return edge(float(1 - eps) - gap), edge(float(1 - eps) + gap)


def test_criterion_5_e_gamma_forms_agree_and_conditions_hold(capsys) -> None:
    rng = random.Random(505)
    gammas = (F(1), F(3, 2), F(2), F(5))
    for trial in range(100):
        size = rng.randint(2, 6)
        ws = [rng.randint(0, 60) for _ in range(size)]
        vs = [rng.randint(0, 60) for _ in range(size)]
        if sum(ws) == 0:
            ws[0] = 1
        if sum(vs) == 0:
            vs[0] = 1
        p = single_letter(*(F(w, sum(ws)) for w in ws))
        q = single_letter(*(F(v, sum(vs)) for v in vs))
        gamma = gammas[trial % len(gammas)]
        assert divergence(p, q, e_gamma(gamma)) == divergence(p, q, e_gamma_sum(gamma))

    passing = (variational(), reverse_kl(), hellinger(), e_gamma(F(2)))
    for curve in passing:
        report = check_conditions(curve)
        assert report.nonincreasing and report.zero_slope_at_infinity
        assert report.subexponential_near_zero
    for curve in (kl(), e_gamma_sum(F(2))):
        report = check_conditions(curve)
        assert not report.nonincreasing
        assert not report.zero_slope_at_infinity
    announce(capsys, 5, True, "100 exact form identities; conditions classified")


def test_criterion_6_rate_distortion_matches_closed_forms(capsys) -> None:
    fair = (F(1, 2), F(1, 2))
    worst = 0.0
    for k in range(1, 46, 2):
        d = F(k, 100)
        got = rd_function_iid(fair, HAMMING2, d)
        df = float(d)
        want = math.log(2.0) + df * math.log(df) + (1 - df) * math.log(1 - df)
        worst = max(worst, abs(got - want))
    assert worst < 1e-6

    # Every construction from the criterion 1 grid keeps its distortion
    # at or below the threshold its own divergence implies.
    checked = 0
    for model in grid_sources():
        if isinstance(model.variant, IID):
            alphabet = len(model.variant.pmf)
        else:
            alphabet = len(model.variant.components[0].pmf)
        spec = hamming(alphabet)
        dist = expand(model)
        summary = spectrum_cdf(dist)
        for m, gamma in itertools.product(grid_ms(dist), GRID_GAMMAS):
            mapping, _ = build_mapping(dist, m, gamma)
            achieved = divergence(dist, apply_mapping(dist, mapping), variational())
            distortion = mapping_distortion(dist, mapping, spec)
            assert distortion <= d_threshold(summary, variational(), achieved, spec)
            checked += 1
    announce(
        capsys, 6,
        True,
        f"closed-form gap {worst:.2e} under 1e-6; {checked} distortion thresholds held",
    )


CLI_INI = """\
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


def test_criterion_7_cli_reruns_are_byte_identical(capsys, tmp_path) -> None:
    produced = []
    for command in ("analyze", "construct", "oracle", "rdp", "sweep"):
        path = tmp_path / f"{command}.ini"
        path.write_text(CLI_INI.format(command=command))
        first = tmp_path / "first" / command
        second = tmp_path / "second" / command
        assert main([command, str(path), "--out", str(first)]) == 0
        assert main([command, str(path), "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
            produced.append(name)
    # A run in exact mode keeps every reported mass rational.
    payload = json.loads((tmp_path / "first" / "construct" / "construct.json").read_text())
    assert payload["mode"] == "exact"
    announce(capsys, 7, True, f"{len(produced)} files matched byte for byte")
