"""The shared spectrum helpers against the loops they replaced.

Tails, quantile scans, descending prefixes and type-class enumeration
each had hand-written copies before they went behind one helper apiece,
the type-class route summed Fraction masses before it moved to integer
numerators over one shared denominator, and type enumeration called
math.comb and raised each pmf entry to its count for every type before
one composition walk carried both.  The copies live on here
as test-local references, and the public functions must agree with them
under ==, with the same result type, on seeded exact and float spectra:
float masses are summed in one fixed order, so float results are
expected to be bit-identical, not close.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from srnglab import (
    IID,
    AtomicDistribution,
    Mixture,
    SourceModel,
    build_smooth_entropy_mapping,
    cdf_at,
    e_gamma,
    expand,
    f_inverse,
    hellinger,
    k_f_rate,
    reverse_kl,
    smooth_max_entropy,
    sort_descending,
    spectrum_cdf,
    sup_entropy_quantile,
    tail_above,
    tail_from,
    typeclass_smooth_max_entropy,
    typeclass_spectrum,
    variational,
)
from srnglab.divergence import _budget_threshold
from srnglab.probability import _types
from srnglab.spectrum import SweepRow, _sweep_pairs

F = Fraction


# ---------------------------------------------------------------------------
# reference copies of the replaced loops


def _iid_type_mass(pmf, counts):
    # The per-type product expand used before the type-class walk: the
    # symbols' powers multiplied left to right, zero counts skipped.
    mass = 1
    for p, c in zip(pmf, counts):
        if c:
            mass = mass * p**c
    return mass


def old_suffix_tails(summary):
    tails = [0] * len(summary.points)
    running = 0
    for i in range(len(summary.points) - 1, 0, -1):
        running = running + summary.points[i][1]
        tails[i - 1] = running
    return tails


def old_tail_above(summary, v):
    total = 0
    for value, mass in reversed(summary.points):
        if value > v:
            total = total + mass
        else:
            break
    return total


def old_tail_from(summary, v):
    total = 0
    for value, mass in reversed(summary.points):
        if value >= v:
            total = total + mass
        else:
            break
    return total


def old_quantile(summary, eps):
    for (value, _), tail in zip(summary.points, old_suffix_tails(summary)):
        if tail <= eps:
            return value
    raise AssertionError("unreachable")


def old_k_f_rate(summary, curve, delta):
    thr = 0 if delta >= curve.f_at_zero else f_inverse(curve, delta)
    for (value, _), tail in zip(summary.points, old_suffix_tails(summary)):
        if 1 - tail >= thr:
            return value
    raise AssertionError("unreachable")


def old_prefix(dist, target, start):
    # smooth_max_entropy started the sum at 0, the entropy-prefix core at
    # the distribution's own zero; the loop was otherwise the same.
    chosen, cum = [], start
    for oid in sort_descending(dist):
        mass = dist.masses[oid]
        if mass == 0:
            break
        chosen.append(oid)
        cum = cum + mass
        if cum >= target:
            break
    return chosen, cum


def old_compositions(n, k):
    if k == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in old_compositions(n - first, k - 1):
            yield (first,) + rest


def old_multinomial(n, counts):
    out, rem = 1, n
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


def old_weighted(variant):
    if isinstance(variant, IID):
        return ((F(1), tuple(F(p) for p in variant.pmf)),)
    return tuple(
        (F(w), tuple(F(p) for p in c.pmf)) for w, c in zip(variant.weights, variant.components)
    )


def old_types(variant, n):
    """Shared denominator and (numerator, class size) of every positive
    type, in composition order, from Fraction masses and math.comb."""
    weighted = old_weighted(variant)
    w_den = math.lcm(*(w.denominator for w, _ in weighted))
    p_den = math.lcm(*(p.denominator for _, pmf in weighted for p in pmf))
    den = w_den * p_den**n
    types = []
    for counts in old_compositions(n, variant.alphabet_size):
        seq_mass = sum(w * _iid_type_mass(pmf, counts) for w, pmf in weighted)
        if seq_mass:
            num = seq_mass * den
            assert num.denominator == 1
            types.append((num.numerator, old_multinomial(n, counts)))
    return den, types


def old_typeclass_points(variant, n):
    weighted = old_weighted(variant)
    acc = {}
    for counts in old_compositions(n, variant.alphabet_size):
        seq_mass = sum(w * _iid_type_mass(pmf, counts) for w, pmf in weighted)
        if seq_mass == 0:
            continue
        value = (math.log(seq_mass.denominator) - math.log(seq_mass.numerator)) / n
        acc[value] = acc.get(value, F(0)) + old_multinomial(n, counts) * seq_mass
    return tuple(sorted(acc.items()))


def old_typeclass_smooth(variant, n, delta):
    weighted = old_weighted(variant)
    target = 1 - F(delta)
    types = []
    for counts in old_compositions(n, variant.alphabet_size):
        seq_mass = sum(w * _iid_type_mass(pmf, counts) for w, pmf in weighted)
        if seq_mass > 0:
            types.append((seq_mass, old_multinomial(n, counts)))
    types.sort(key=lambda item: item[0], reverse=True)
    if target <= 0:
        return 0.0, 1
    cum, size = F(0), 0
    for seq_mass, count in types:
        block = count * seq_mass
        if cum + block >= target:
            size += math.ceil((target - cum) / seq_mass)
            return math.log(size), size
        cum += block
        size += count
    return math.log(size), size


# ---------------------------------------------------------------------------
# seeded inputs


def random_pmf(rng, k, zeros=False):
    weights = [rng.randint(1, 9) for _ in range(k)]
    if zeros and rng.random() < 0.4:
        weights[rng.randrange(1, k)] = 0
    return tuple(F(w, sum(weights)) for w in weights)


def random_variant(rng):
    k = rng.choice((2, 2, 3))
    # Zero symbol masses leave types of zero mass for the enumeration to skip.
    if rng.random() < 0.5:
        return IID(random_pmf(rng, k, zeros=True))
    parts = rng.randint(2, 3)
    components = tuple(IID(random_pmf(rng, k, zeros=True)) for _ in range(parts))
    return Mixture(random_pmf(rng, parts), components)


def random_distributions(rng, count):
    """Exact distributions with their float twins: expanded sources (few,
    heavy spectrum points) and raw masses with repeats (many points)."""
    out = []
    for trial in range(count):
        if trial % 2:
            variant = random_variant(rng)
            n = rng.randint(1, 6 if variant.alphabet_size == 2 else 4)
            exact = expand(SourceModel(variant, n))
        else:
            palette = [0] + [rng.randint(1, 20) for _ in range(rng.randint(1, 6))]
            weights = [rng.choice(palette) for _ in range(rng.randint(1, 30))]
            weights[0] = weights[0] or 1
            total = sum(weights)
            exact = AtomicDistribution.from_masses([F(w, total) for w in weights], 1, len(weights))
        out.append(exact)
        out.append(AtomicDistribution.from_masses(exact.masses, exact.n, exact.alphabet_size, exact=False))
    return out


def probe_points(summary):
    """Below, at, just around, between and above the spectrum values."""
    values = summary.values()
    probes = [values[0] - 1.0, values[-1] + 1.0, -math.inf, math.inf]
    for v in values:
        probes += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
    probes += [(a + b) / 2 for a, b in zip(values, values[1:])]
    return probes


def tail_levels(summary):
    """Quantile levels hitting every tail exactly and straddling it."""
    levels = [0, 1, F(1, 2), 0.5, 1e-300]
    for tail in old_suffix_tails(summary):
        levels += [tail, float(tail), tail + F(1, 10**30), float(tail) * (1 - 1e-15)]
    return [eps for eps in levels if eps >= 0]


def same(new, old):
    return new == old and type(new) is type(old)


#: Type-class inputs beyond the seeded ones: pmf denominators that differ
#: within and across components, mixture weights 1/3 and 2/3, symbols of
#: probability zero, and blocklengths where denominators run to hundreds
#: of digits.
FIXED_TYPE_CLASS_INPUTS = (
    (IID((F(1, 2), F(1, 3), F(1, 6))), 40),
    (IID((F(3, 10), F(0), F(7, 10))), 9),
    (Mixture((F(1, 3), F(2, 3)), (IID((F(1, 4), F(3, 4))), IID((F(2, 5), F(3, 5))))), 300),
    (
        Mixture(
            (F(1, 3), F(2, 3)),
            (IID((F(1, 2), F(0), F(1, 2))), IID((F(1, 6), F(1, 3), F(1, 2)))),
        ),
        20,
    ),
)


#: Enumeration inputs for k = 2, 3 and 4: zero-probability symbols first,
#: last and in between, and mixtures whose components zero out different
#: symbols.
FIXED_ENUMERATION_INPUTS = (
    (IID((F(1),)), 7),
    (IID((F(0), F(1))), 5),
    (IID((F(1, 4), F(3, 4))), 40),
    (IID((F(1, 2), F(1, 3), F(1, 6))), 40),
    (IID((F(1, 2), F(1, 2), F(0))), 12),
    (IID((F(1, 10), F(2, 10), F(3, 10), F(4, 10))), 20),
    (IID((F(1, 3), F(0), F(1, 3), F(1, 3))), 16),
    (
        Mixture(
            (F(1, 4), F(3, 4)),
            (IID((F(1, 2), F(0), F(1, 4), F(1, 4))), IID((F(0), F(1, 5), F(2, 5), F(2, 5)))),
        ),
        14,
    ),
    (
        Mixture(
            (F(1, 3), F(1, 3), F(1, 3)),
            (IID((F(1, 7), F(6, 7))), IID((F(1, 2), F(1, 2))), IID((F(1), F(0)))),
        ),
        40,
    ),
)


def type_class_inputs(rng):
    for _ in range(12):
        variant = random_variant(rng)
        yield variant, rng.randint(1, 40 if variant.alphabet_size == 2 else 12)
    yield from FIXED_TYPE_CLASS_INPUTS


# ---------------------------------------------------------------------------
# tests


def test_tails_and_scans_match_the_replaced_loops_on_expanded_spectra() -> None:
    rng = random.Random(4417)
    curves = (variational(), hellinger(), reverse_kl(), e_gamma(2))
    checked = 0
    for dist in random_distributions(rng, 60):
        summary = spectrum_cdf(dist)
        for v in probe_points(summary):
            assert same(tail_above(summary, v), old_tail_above(summary, v))
            assert same(tail_from(summary, v), old_tail_from(summary, v))
            assert same(cdf_at(summary, v), 1 - old_tail_above(summary, v))
            checked += 1
        for eps in tail_levels(summary):
            assert sup_entropy_quantile(summary, eps).value == old_quantile(summary, eps)
        cdfs = [1 - tail for tail in old_suffix_tails(summary)]
        for curve in curves:
            # Budgets landing exactly on each cdf level, plus f(0+) and beyond.
            deltas = [F(1, 10), 0.25, F(3, 2), 5.0]
            if curve.f_at_zero != math.inf:
                deltas.append(curve.f_at_zero)
            deltas += [curve.eval_at(c) for c in cdfs if 0 < c]
            for delta in deltas:
                if delta < 0:
                    continue
                got = k_f_rate(summary, curve, delta).value
                assert got == old_k_f_rate(summary, curve, delta)
    assert checked > 1000


def test_tails_and_scans_match_the_replaced_loops_on_type_class_spectra() -> None:
    rng = random.Random(9127)
    for variant, n in type_class_inputs(rng):
        summary = typeclass_spectrum(variant, n)
        assert summary.points == old_typeclass_points(variant, n)
        assert all(type(v) is float and type(m) is F for v, m in summary.points)
        for delta in (F(0), F(1, 10), F(1, 2), F(1), F(3, 2)):
            assert k_f_rate(summary, variational(), delta).value == old_k_f_rate(
                summary, variational(), delta
            )
        for delta in (F(1, 10), 0.3):
            got = k_f_rate(summary, hellinger(), delta).value
            assert same(got, old_k_f_rate(summary, hellinger(), delta))
        if len(summary.points) > 100:
            continue  # the probes below are quadratic in the point count
        for v in probe_points(summary):
            assert same(tail_above(summary, v), old_tail_above(summary, v))
            assert same(tail_from(summary, v), old_tail_from(summary, v))
        for eps in tail_levels(summary):
            assert sup_entropy_quantile(summary, eps).value == old_quantile(summary, eps)


def test_typeclass_smooth_max_entropy_matches_the_replaced_loop() -> None:
    rng = random.Random(2718)
    for variant, n in type_class_inputs(rng):
        for delta in (F(0), F(1, 100), F(1, 5), F(1, 2), F(1), rng.random()):
            got = typeclass_smooth_max_entropy(variant, n, delta)
            old = old_typeclass_smooth(variant, n, delta)
            assert got == old
            assert same(got[0], old[0]) and same(got[1], old[1])


def test_descending_prefixes_match_the_replaced_loops() -> None:
    rng = random.Random(3141)
    for dist in random_distributions(rng, 60):
        zero = F(0) if dist.exact else 0.0
        for delta in (F(0), F(1, 10), F(1, 3), F(1, 2), F(99, 100), F(1), 0.2, 0.9):
            target = 1 - F(delta) if dist.exact else 1.0 - float(delta)
            chosen, _ = old_prefix(dist, target, 0)
            assert smooth_max_entropy(dist, delta) == (
                math.log(len(chosen)),
                frozenset(chosen),
            )
            # The entropy-prefix core at the level the budget demands.
            thr = 0 if delta >= 1 else f_inverse(variational(), delta)
            core, core_mass = old_prefix(dist, thr, zero)
            _, trace = build_smooth_entropy_mapping(dist, variational(), delta, F(1, 10))
            assert trace.core == tuple(core)
            assert same(trace.core_mass, core_mass)


def test_type_enumeration_matches_the_comb_and_power_loop() -> None:
    rng = random.Random(6021)
    inputs = [(v, n) for v, n in FIXED_ENUMERATION_INPUTS + FIXED_TYPE_CLASS_INPUTS if n <= 40]
    for _ in range(20):
        variant = random_variant(rng)
        inputs.append((variant, rng.randint(1, 40 if variant.alphabet_size == 2 else 16)))
    for variant, n in inputs:
        den, types = _types(variant, n)
        old_den, old = old_types(variant, n)
        assert den == old_den
        # Same pairs in the same order, every one a pair of ints.
        new = [(num, size) for _, num, size in types]
        assert new == old
        assert all(type(num) is int and type(size) is int for num, size in new)


def test_type_class_sweep_rows_match_the_public_type_class_functions() -> None:
    rng = random.Random(5303)
    pairs = [(variational(), F(1, 20)), (variational(), F(1, 5)), (hellinger(), F(1, 10))]
    pairs += [(reverse_kl(), F(1, 10)), (variational(), F(2))]
    sources = [variant for variant, _ in FIXED_TYPE_CLASS_INPUTS]
    sources += [random_variant(rng) for _ in range(6)]
    for variant in sources:
        ns = (3, 7, 30) if variant.alphabet_size == 2 else (3, 7, 12)
        got = _sweep_pairs(variant, ns, pairs)
        for rows, (curve, delta) in zip(got, pairs):
            eps = 1 - _budget_threshold(curve, delta)
            expected = []
            for n in ns:
                kf = k_f_rate(typeclass_spectrum(variant, n), curve, delta).value
                h0 = typeclass_smooth_max_entropy(variant, n, eps)[0] / n
                expected.append(SweepRow(n, float(eps), float(delta), "k_f_rate", kf, curve.name))
                expected.append(
                    SweepRow(n, float(eps), float(delta), "smooth_max_entropy_rate", h0, curve.name)
                )
            assert rows == tuple(expected)
