"""The shared spectrum helpers against the loops they replaced.

Tails, quantile scans, descending prefixes and type-class enumeration
each had hand-written copies before they went behind one helper apiece,
the type-class route summed Fraction masses before it moved to integer
numerators over one shared denominator, and type enumeration called
math.comb and raised each pmf entry to its count for every type before
one composition walk carried both, and that walk sized every type and
the class list sorted them all before the list was built in bands, as
far as queries read.  The copies live on here
as test-local references, and the public functions must agree with them
under ==, with the same result type, on seeded exact and float spectra:
float masses are summed in one fixed order, so float results are
expected to be bit-identical, not close.
"""

from __future__ import annotations

import bisect
import math
import operator
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, compress, repeat

import pytest

from srnglab import (
    IID,
    AtomicDistribution,
    Markov,
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
from srnglab.probability import _ClassList, _common, _powers, _types, self_information_value
from srnglab.spectrum import SweepRow, _model_classes, _sweep_pairs, _tail_target

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


def old_keys(variant, n):
    """Every positive type's key, sum of counts[s] * (n + 1)**s, in
    composition order."""
    weighted = old_weighted(variant)
    return [
        sum(c * (n + 1) ** s for s, c in enumerate(counts))
        for counts in old_compositions(n, variant.alphabet_size)
        if sum(w * _iid_type_mass(pmf, counts) for w, pmf in weighted)
    ]


def eager_walk(tables, weights, digits, s, rest, key, size, prods, out):
    """The type walk as it ran before class lists were built in bands: every
    positive-mass type's key, numerator and class size appended to the
    three lists of out, a column at a time, sizes by the recurrence."""
    here = tables[s]
    if s < len(tables) - 2:
        for c in range(rest, -1, -1):
            prefix = [p * t[c] for p, t in zip(prods, here)]
            eager_walk(tables, weights, digits, s + 1, rest - c, key + c * digits[s], size, prefix, out)
            size = size * c // (rest - c + 1)
        return
    nums = None
    for w, p, t, u in zip(weights, prods, here, tables[s + 1]):
        powers = t[rest::-1] if p == 1 else map(operator.mul, repeat(p), t[rest::-1])
        column = map(operator.mul, powers, u)
        if w != 1:
            column = map(operator.mul, repeat(w), column)
        nums = column if nums is None else map(operator.add, nums, column)
    nums = list(nums)
    low, high = digits[s], digits[s + 1]
    keys = range(key + rest * low, key + rest * high + 1, high - low)
    top = rest + 1
    sizes = accumulate(range(rest, 0, -1), lambda size, c: size * c // (top - c), initial=size)
    if 0 in nums:
        keys, sizes = compress(keys, nums), compress(sizes, nums)
        nums = list(compress(nums, nums))
    for column, values in zip(out, (keys, nums, sizes)):
        column.extend(values)


def eager_types(variant, n):
    """Shared denominator and three parallel lists over every positive-mass
    type of a rational source, in walk order: key, numerator, class size."""
    if isinstance(variant, IID):
        weights, pmfs = (1,), (variant.pmf,)
    else:
        weights, pmfs = variant.weights, [c.pmf for c in variant.components]
    k = variant.alphabet_size
    w_den, weights = _common(weights)
    p_den, flat = _common([p for pmf in pmfs for p in pmf])
    pmfs = [flat[i * k:(i + 1) * k] for i in range(len(pmfs))]
    tables = [[_powers(pmf[s], n) for pmf in pmfs] for s in range(k)]
    if k == 1:
        return w_den * p_den**n, [n], [sum(w * t[n] for w, t in zip(weights, tables[0]))], [1]
    out = ([], [], [])
    eager_walk(tables, weights, [(n + 1) ** s for s in range(k)], 0, n, 0, 1, [1] * len(pmfs), out)
    return (w_den * p_den**n, *out)


def eager_classes(variant, n):
    """The whole type-class list, sorted once, as it was built before bands."""
    den, _, nums, sizes = eager_types(variant, n)
    return _ClassList.build(n, den, nums, sizes)


def flat_types(variant, n):
    """_types' columns read back as the eager walk's three lists: each
    positive-mass type's key, numerator and class size, the size from its
    column's end size times C(r, j)."""
    den, columns = _types(variant, n, True)
    keys, nums, sizes = [], [], []
    for column, size, key, step in columns:
        rest = len(column) - 1
        for j, num in enumerate(column):
            if num:
                keys.append(key + j * step)
                nums.append(num)
                sizes.append(size * math.comb(rest, j))
    return den, keys, nums, sizes


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


#: Sources whose symbol masses lie within about 1e-8 and 1e-12 of each
#: other: many computed values tie, and since the reduced masses'
#: denominators differ from type to type, many fall out of the true order.
NEAR_TIE_SOURCES = (
    IID((F(10**8, 3 * 10**8 + 3), F(10**8 + 1, 3 * 10**8 + 3), F(10**8 + 2, 3 * 10**8 + 3))),
    Mixture(
        (F(1, 3), F(2, 3)),
        (
            IID((F(10**12 + 1, 2 * 10**12 + 1), F(10**12, 2 * 10**12 + 1))),
            IID((F(10**12, 2 * 10**12 + 1), F(10**12 + 1, 2 * 10**12 + 1))),
        ),
    ),
)

#: The mixture the typeclass-sweep benchmark runs.
BENCHMARK_MIXTURE = Mixture(
    (F(1, 2), F(1, 2)), (IID((F(9, 10), F(1, 10))), IID((F(1, 5), F(4, 5))))
)

#: The four sources of the atom benchmarks.
ATOM_BENCHMARK_SOURCES = (
    IID((F(9, 10), F(1, 10))),
    IID((F(3, 4), F(1, 4))),
    Markov((F(1, 2), F(1, 2)), ((F(9, 10), F(1, 10)), (F(1, 5), F(4, 5)))),
    BENCHMARK_MIXTURE,
)

SWEEP_PAIRS = (
    (variational(), F(1, 20)),
    (variational(), F(1, 5)),
    (hellinger(), F(1, 10)),
    (reverse_kl(), F(1, 10)),
    (variational(), F(2)),
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
        den, keys, nums, sizes = flat_types(variant, n)
        old_den, old = old_types(variant, n)
        assert den == old_den
        # Same pairs in the same order, every one a pair of ints.
        new = list(zip(nums, sizes))
        assert new == old
        assert all(type(num) is int and type(size) is int for num, size in new)
        # Each key is the type's counts in base n + 1.
        assert keys == old_keys(variant, n)


def public_sweep_rows(variant, ns, pairs):
    """The sweep's rows from typeclass_spectrum, k_f_rate and
    typeclass_smooth_max_entropy, one tuple per pair."""
    out = []
    for curve, delta in pairs:
        eps = 1 - _budget_threshold(curve, delta)
        expected = []
        for n in ns:
            kf = k_f_rate(typeclass_spectrum(variant, n), curve, delta).value
            h0 = typeclass_smooth_max_entropy(variant, n, eps)[0] / n
            expected.append(SweepRow(n, float(eps), float(delta), "k_f_rate", kf, curve.name))
            expected.append(
                SweepRow(n, float(eps), float(delta), "smooth_max_entropy_rate", h0, curve.name)
            )
        out.append(tuple(expected))
    return out


def full_spectrum_crossings(variant, n, keys):
    """For every key, the first value of the whole merged float spectrum
    whose cdf numerator reaches it: every type's value from its Fraction."""
    den, _, nums, sizes = eager_types(variant, n)
    acc = {}
    for num, size in zip(nums, sizes):
        value = self_information_value(F(num, den), n)
        acc[value] = acc.get(value, 0) + num * size
    values = sorted(acc)
    cdfs = list(accumulate(map(acc.__getitem__, values)))
    return [values[bisect.bisect_left(cdfs, key)] for key in keys]


def test_type_class_sweep_rows_match_the_public_type_class_functions() -> None:
    rng = random.Random(5303)
    pairs = list(SWEEP_PAIRS)
    sources = [variant for variant, _ in FIXED_TYPE_CLASS_INPUTS]
    sources += [random_variant(rng) for _ in range(6)]
    for variant in sources:
        ns = (3, 7, 30) if variant.alphabet_size == 2 else (3, 7, 12)
        assert _sweep_pairs(variant, ns, pairs) == public_sweep_rows(variant, ns, pairs)


def test_type_class_sweep_rows_match_the_public_functions_at_large_n() -> None:
    rng = random.Random(7351)
    cases = [(BENCHMARK_MIXTURE, (250, 500))]
    cases += [(variant, (20, 60)) for variant in NEAR_TIE_SOURCES]
    cases += [(v, (300,)) for v, _ in FIXED_TYPE_CLASS_INPUTS if v.alphabet_size == 2]
    for _ in range(4):
        variant = random_variant(rng)
        ns = (150, 300) if variant.alphabet_size == 2 else (45, 60)
        cases.append((variant, ns))
    assert {variant.alphabet_size for variant, _ in cases} == {2, 3}
    for variant, ns in cases:
        assert _sweep_pairs(variant, ns, SWEEP_PAIRS) == public_sweep_rows(variant, ns, SWEEP_PAIRS)


def exact_order_classes(variant, n):
    """Shared denominator, and the types' numerators by descending mass with
    their running mass numerators (the class boundaries)."""
    den, _, nums, sizes = eager_types(variant, n)
    descending = sorted(zip(nums, sizes), reverse=True)
    cdfs = list(accumulate(num * size for num, size in descending))
    return den, [num for num, _ in descending], cdfs


def exact_order_crossing(den, nums, cdfs, n, key):
    """The value, from its Fraction mass, of the first class whose running
    mass numerator reaches key."""
    return self_information_value(F(nums[bisect.bisect_left(cdfs, key)], den), n)


def values_rise_strictly(variant, n):
    """Whether the computed values rise strictly as the distinct masses fall."""
    den, _, nums, _ = eager_types(variant, n)
    masses = sorted(set(nums), reverse=True)
    values = [self_information_value(F(num, den), n) for num in masses]
    return all(a < b for a, b in zip(values, values[1:]))


def crossing_cases(kind):
    """Sources and lengths for the crossing test.  "derived": the near-tie
    sources, the fixed inputs up to n = 40 and seeded random sources, all
    with at most a few hundred classes.  "wide": spectra with hundreds to
    thousands of classes."""
    if kind == "wide":
        rng = random.Random(4127)
        cases = [(NEAR_TIE_SOURCES[0], 60), (NEAR_TIE_SOURCES[1], 300)]
        cases += [(BENCHMARK_MIXTURE, 500), (IID((F(1, 2), F(1, 3), F(1, 6))), 60)]
        cases += [(v, n) for v, n in FIXED_TYPE_CLASS_INPUTS if n > 40]
        drawn = 0
        while drawn < 3:
            # A zero symbol mass can leave a random source few classes.
            variant = random_variant(rng)
            n = 400 if variant.alphabet_size == 2 else 45
            if len(exact_order_classes(variant, n)[1]) > 300:
                cases.append((variant, n))
                drawn += 1
        return cases
    rng = random.Random(8209)
    cases = [(variant, 20) for variant in NEAR_TIE_SOURCES]
    cases += [(NEAR_TIE_SOURCES[0], 45), (BENCHMARK_MIXTURE, 120)]
    cases += [(variant, n) for variant, n in FIXED_TYPE_CLASS_INPUTS if n <= 40]
    cases += [(random_variant(rng), 12) for _ in range(6)]
    return cases


@pytest.mark.parametrize("kind", ["derived", "wide"])
def test_crossings_at_every_class_boundary_match_the_full_spectrum(kind) -> None:
    # A quantile at level key/den is the value of the class where the exact
    # cdf reaches it.  Where values rise strictly along descending mass,
    # that is also the crossing of the merged float spectrum; on the
    # near-tie sources, whose values tie and invert, it need not be.
    cases = crossing_cases(kind)
    rising = 0
    for variant, n in cases:
        summary = typeclass_spectrum(variant, n)
        den, nums, cdfs = exact_order_classes(variant, n)
        if kind == "wide":
            assert len(nums) > 300
        keys = sorted({0} | {c + d for c in cdfs for d in (-1, 0, 1) if 0 <= c + d <= den})
        got = [sup_entropy_quantile(summary, 1 - F(key, den)).value for key in keys]
        assert got == [exact_order_crossing(den, nums, cdfs, n, key) for key in keys]
        if values_rise_strictly(variant, n):
            assert got == full_spectrum_crossings(variant, n, keys)
            rising += 1
    # Both kinds occur: the near-tie sources do not all rise strictly.
    assert 0 < rising < len(cases)


def test_k_f_rate_is_the_quantile_on_near_tie_sources() -> None:
    # Zero tolerance where values tie and invert: k_f_rate at delta is the
    # quantile at 1 - f^{-1}(delta), the class where the exact cdf reaches
    # f^{-1}(delta).
    curves = (variational(), hellinger(), reverse_kl(), e_gamma(2))
    checked = 0
    for variant in NEAR_TIE_SOURCES:
        for n in (20, 60):
            summary = typeclass_spectrum(variant, n)
            den, nums, cdfs = exact_order_classes(variant, n)
            for curve in curves:
                for delta in (F(0), F(1, 100), F(1, 10), F(1, 3), F(1, 2), 0.7, F(9, 10)):
                    thr = f_inverse(curve, delta)
                    value = k_f_rate(summary, curve, delta).value
                    assert value == sup_entropy_quantile(summary, 1 - thr).value
                    key = math.ceil(F(thr) * den)
                    assert value == exact_order_crossing(den, nums, cdfs, n, key)
                    checked += 1
    assert checked == 112


def test_float_prefix_goal_matches_the_fraction_comparison() -> None:
    # The float set size compares its running float total with the least
    # float at or above the target; the old loop compared it with the
    # target itself.  Targets: every prefix total exactly, one ulp to each
    # side, rationals strictly between, int 0 and rationals past the total.
    rng = random.Random(6211)
    for dist in random_distributions(rng, 40):
        if dist.exact:
            continue
        order = sort_descending(dist)
        targets = [0, F(0), 0.0, F(1), 1.0, F(3, 2)]
        total = 0.0
        for x in order:
            total += dist.masses[x]
            up, down = math.nextafter(total, math.inf), math.nextafter(total, -math.inf)
            targets += [total, up, down, F(total), F(up), F(down)]
            targets += [F(total) + (F(up) - F(total)) / 3, F(total) - (F(total) - F(down)) / 3]
        for target in targets:
            chosen, mass = old_prefix(dist, target, 0.0)
            ids = list(order[: dist._classes.set_size(target)])
            got = dist._mass_of(ids)
            assert ids == chosen
            assert same(got, mass)


def test_atoms_and_types_read_one_class_list() -> None:
    # An expanded distribution's class list (a class per distinct mass) and
    # the type-class list (a class per type; types of one mass are separate
    # classes) answer every set size and every quantile alike, at every
    # class boundary of either list, one numerator to each side, and
    # inside classes.
    rng = random.Random(9173)
    sources = [
        (IID((F(1, 4), F(1, 4), F(1, 2))), 6),
        (IID((F(1, 2), F(1, 2))), 10),
        (IID((F(3, 10), F(0), F(7, 10))), 6),
        (BENCHMARK_MIXTURE, 10),
        (FIXED_TYPE_CLASS_INPUTS[3][0], 5),
        (NEAR_TIE_SOURCES[0], 5),
    ]
    sources += [(v, 9 if v.alphabet_size == 2 else 5) for v in map(random_variant, [rng] * 6)]
    merged = 0
    for variant, n in sources:
        atoms = expand(SourceModel(variant, n))._classes
        types = _model_classes(SourceModel(variant, n))
        assert atoms.den == types.den
        merged += len(atoms.nums) < len(types.nums)
        den = types.den
        keys = {0, den} | {c + d for c in atoms.cum + types.cum for d in (-1, 0, 1)}
        keys |= {(a + b) // 2 for a, b in zip(types.cum, types.cum[1:])}
        for key in sorted(k for k in keys if 0 <= k <= den):
            level = F(key, den)
            assert atoms.set_size(level) == types.set_size(level), (variant, n, key)
            assert atoms.value_at(level) == types.value_at(level), (variant, n, key)
    # Some sources have types of one mass, so the two lists differ.
    assert 0 < merged < len(sources)


def boundary_levels(den, cums):
    """Levels at every running numerator in cums, one numerator to each
    side, and halfway between consecutive ones, within [0, 1]."""
    keys = {0, den}
    for cum in cums:
        keys |= {c + d for c in cum for d in (-1, 0, 1)}
        keys |= {(a + b) // 2 for a, b in zip(cum, cum[1:])}
    return [F(key, den) for key in sorted(keys) if 0 <= key <= den]


def class_answers(classes, levels):
    return [(classes.reaching(l), classes.value_at(l), classes.set_size(l)) for l in levels]


def test_running_totals_extend_only_as_far_as_queries_read() -> None:
    # A fresh list computes its running totals only as far as each query
    # needs.  Asked at every class boundary, one numerator to each side and
    # mid-class, in ascending, descending and shuffled order, it answers as
    # a list whose totals were all read first.
    rng = random.Random(6607)
    fresh_lists = [
        lambda: _model_classes(SourceModel(IID((F(1, 2), F(1, 3), F(1, 6))), 60)),
        lambda: _model_classes(SourceModel(BENCHMARK_MIXTURE, 1000)),
    ]
    fresh_lists += [
        lambda variant=variant: expand(SourceModel(variant, 10))._classes
        for variant in ATOM_BENCHMARK_SOURCES
    ]
    for fresh in fresh_lists:
        full = fresh()
        levels = boundary_levels(full.den, [full.cum])
        want = class_answers(full, levels)
        shuffled = list(range(len(levels)))
        rng.shuffle(shuffled)
        for order in (range(len(levels)), range(len(levels) - 1, -1, -1), shuffled):
            classes = fresh()
            assert not classes._cum and not classes._sizes
            got = dict(zip(order, class_answers(classes, [levels[i] for i in order])))
            assert [got[i] for i in range(len(levels))] == want
            assert classes == full
    # A quantile at a low level reads only the heaviest classes, and only
    # the bands that hold them are emitted.
    classes = _model_classes(SourceModel(IID((F(9, 10), F(1, 10))), 1000))
    classes.value_at(F(1, 10))
    emitted = len(classes._nums)
    assert 0 < len(classes._cum) == len(classes._sizes) <= emitted < len(classes.nums) == 1001


#: The seven sources the banded lists are checked on: ties within and
#: across columns, a symbol of mass zero, four symbols, a mixture whose
#: columns are not monotone, and the lengths of the benchmarks.
BANDED_SOURCES = (
    (IID((F(1, 2), F(1, 3), F(1, 6))), 45),
    (IID((F(1, 3), F(1, 3), F(1, 3))), 30),
    (IID((F(1, 2), F(1, 2), F(0))), 40),
    (IID((F(1, 10), F(2, 10), F(3, 10), F(4, 10))), 12),
    (Mixture((F(1, 2), F(1, 2)), (IID((F(1, 4), F(3, 4))), IID((F(3, 4), F(1, 4))))), 40),
    (Mixture((F(1, 2), F(1, 2)), (IID((F(9, 10), F(1, 10))), IID((F(1, 5), F(4, 5))))), 300),
    (IID((F(9, 10), F(1, 10))), 1000),
)


def test_banded_lists_answer_as_the_list_sorted_once() -> None:
    # A type-class list sorts and sizes its classes in bands, only as far
    # as queries read.  Asked at every class boundary, one numerator to
    # each side and mid-class, in ascending, descending and shuffled order,
    # a fresh list answers as the whole list from the eager walk sorted
    # once, and read whole it is that list: the same classes in the same
    # order, totals included.
    rng = random.Random(7727)
    for variant, n in BANDED_SOURCES:
        eager = eager_classes(variant, n)
        levels = boundary_levels(eager.den, [eager.cum])
        want = list(zip(levels, class_answers(eager, levels)))
        shuffled = list(want)
        rng.shuffle(shuffled)
        for asked in (want, want[::-1], shuffled):
            banded = _model_classes(SourceModel(variant, n))
            assert not banded._nums
            assert class_answers(banded, [l for l, _ in asked]) == [a for _, a in asked]
        assert Counter(zip(banded.nums, banded.counts)) == Counter(zip(eager.nums, eager.counts))
        assert banded == eager
        assert (banded.cum[-1], banded.sizes[-1]) == (eager.cum[-1], eager.sizes[-1])
        assert banded.cum[-1] == banded.den


def test_sweep_queries_emit_few_more_classes_than_they_read() -> None:
    # The typeclass-sweep ternary source at its largest n: the sweep's
    # quantiles and set sizes at thresholds 19/20 and 4/5 read the heaviest
    # 5 013 of 16 471 classes, and the list emits at most half as many
    # again.
    classes = _model_classes(SourceModel(IID((F(1, 2), F(1, 3), F(1, 6))), 180))
    for threshold in (F(19, 20), F(4, 5)):
        classes.set_size(_tail_target(1 - threshold, True))
        classes.value_at(threshold)
    read = max(classes.reaching(threshold) for threshold in (F(19, 20), F(4, 5))) + 1
    emitted = len(classes._nums)
    assert read == 5013
    assert read <= emitted <= 7520 < len(classes.nums) == 16471


def test_type_columns_are_two_descending_runs() -> None:
    # The bands take a prefix of each run, so they hold only if every
    # column falls to its last least numerator and strictly rises after
    # it, and if the two runs `of_types` cuts it into descend, the tail run
    # strictly (so classes of one mass keep the walk's order), and hold the
    # column's (numerator, class size) pairs once each.  Checked on the
    # banded and enumeration sources and on seeded rational IID and
    # mixture sources of up to four symbols, some of mass zero.
    rng = random.Random(3541)
    sources = list(BANDED_SOURCES + FIXED_ENUMERATION_INPUTS)
    for _ in range(200):
        k = rng.randint(2, 4)
        n = rng.randint(1, {2: 25, 3: 16, 4: 10}[k])
        if rng.random() < 0.5:
            sources.append((IID(random_pmf(rng, k, zeros=True)), n))
        else:
            parts = rng.randint(2, 3)
            components = tuple(IID(random_pmf(rng, k, zeros=True)) for _ in range(parts))
            sources.append((Mixture(random_pmf(rng, parts), components), n))
    for variant, n in sources:
        den, columns = _types(variant, n, True)
        # of_types cuts each column's list to its head run, so it gets copies.
        runs = _ClassList.of_types(n, den, [(list(nums), *rest) for nums, *rest in columns])._runs
        kept = [column for column in columns if any(column[0])]
        assert len(runs) == 2 * len(kept)
        for (nums, size, _, _), head, tail in zip(kept, runs[::2], runs[1::2]):
            last = max(j for j, num in enumerate(nums) if num == min(nums))
            assert all(map(operator.ge, nums[:last], nums[1:last + 1])), (variant, n, nums)
            assert all(map(operator.lt, nums[last:], nums[last + 1:])), (variant, n, nums)
            r = len(nums) - 1
            assert all(map(operator.ge, head[0], head[0][1:]))
            assert all(map(operator.gt, tail[0], tail[0][1:]))
            pairs = Counter()
            for run_nums, run_r, front, run_size in (head, tail):
                assert (run_r, front, run_size) == (r, 0, size)
                pairs.update((num, size * math.comb(r, i)) for i, num in enumerate(run_nums))
            assert pairs == Counter((num, size * math.comb(r, j)) for j, num in enumerate(nums))


#: A mixture whose types c and n - c have one mass.
MIRRORED_MIXTURE = Mixture((F(1, 2), F(1, 2)), (IID((F(1, 4), F(3, 4))), IID((F(3, 4), F(1, 4)))))


def test_classes_of_one_mass_answer_alike_in_any_order() -> None:
    # The class list sorts on the masses alone, so types of one mass keep
    # the walk's order; the reference sorts (mass, size) pairs, the larger
    # class of a mass first, and runs its totals over every class.  Set
    # sizes, quantiles and merged points must not tell the two apart.
    cases = [(IID((F(1, 3), F(1, 3), F(1, 3))), n) for n in range(1, 13)]
    cases += [(MIRRORED_MIXTURE, n) for n in range(1, 41)]
    reordered = 0
    for variant, n in cases:
        classes = _model_classes(SourceModel(variant, n))
        den, _, nums, sizes = eager_types(variant, n)
        descending = sorted(zip(nums, sizes), reverse=True)
        ref_nums = [num for num, _ in descending]
        ref_cum = list(accumulate(num * size for num, size in descending))
        ref_sizes = list(accumulate(size for _, size in descending))
        assert len(set(nums)) < len(nums) or n == 1
        reordered += classes.counts != [size for _, size in descending]
        for level in boundary_levels(den, [ref_cum, classes.cum]):
            last = bisect.bisect_left(ref_cum, math.ceil(level * den))
            assert classes.value_at(level) == self_information_value(F(ref_nums[last], den), n)
            want = 1
            if level > 0:
                cum_before, size_before = (ref_cum[last - 1], ref_sizes[last - 1]) if last else (0, 0)
                want = size_before + math.ceil((level * den - cum_before) / ref_nums[last])
            assert classes.set_size(level) == want
        acc = {}
        for num, before, total in zip(ref_nums, [0] + ref_cum, ref_cum):
            value = self_information_value(F(num, den), n)
            acc[value] = acc.get(value, 0) + total - before
        points = tuple((value, F(acc[value], den)) for value in sorted(acc))
        assert typeclass_spectrum(variant, n).points == points
    # The ternary types of one mass come in a different order.
    assert reordered > 0
