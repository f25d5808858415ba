"""The atom path, in both arithmetic modes, against the per-atom loops it replaced.

An exact distribution holds integer numerators over one shared
denominator: expand builds them prefix by prefix, sort_descending sorts
on them, apply_mapping adds them, spectrum_cdf computes one value per
distinct numerator, and divergence computes one term per distinct
numerator pair.  A float distribution goes through the same expand and
divergence on its float masses.  The constructions and their bounds read
those values too: heavy outcomes and zero masses are cut from the
descending order, and masses of outcome sets are totalled in one helper.
The per-atom loops each of those replaced live on here as test-local
references, and every result must equal theirs under ==, with the same
type, floats included: float expansion multiplies in the order the
per-outcome loop did, the divergence replays the atom-by-atom sum, and
float totals add left to right as the loops did, so floats are expected
to be bit-identical, not close.
"""

from __future__ import annotations

import copy
import math
import pickle
from fractions import Fraction

import pytest

import srnglab.construction as construction_module
from srnglab import (
    IID,
    AtomicDistribution,
    InvalidModel,
    Markov,
    MappingPair,
    Mixture,
    SourceModel,
    achievability_bound,
    apply_mapping,
    baseline_collapse_mapping,
    build_mapping,
    DistortionSpec,
    build_smooth_entropy_mapping,
    converse_bound,
    curve_from_name,
    divergence,
    entropy_mapping_bound,
    expand,
    k_f_rate,
    mapping_distortion,
    outcome_from_id,
    rate_window,
    self_information,
    self_information_value,
    smooth_max_entropy,
    sort_descending,
    spectrum_cdf,
    trace_to_jsonable,
    variational,
)
from srnglab.construction import ConstructionTrace, _encode, _greedy_allocate
from srnglab.divergence import _budget_threshold, _term

F = Fraction

CURVES = ("variational", "reverse_kl", "hellinger", "e_gamma:2", "e_gamma_sum:3/2", "kl")


# ---------------------------------------------------------------------------
# reference copies of the replaced per-atom loops


def _iid_type_mass(pmf, counts):
    # The per-type product expand used before the type-class walk: the
    # symbols' powers multiplied left to right, zero counts skipped.
    mass = 1
    for p, c in zip(pmf, counts):
        if c:
            mass = mass * p**c
    return mass


def old_expand_masses(variant, n):
    k = variant.alphabet_size
    masses = []
    for oid in range(k**n):
        symbols = outcome_from_id(oid, n, k).symbols
        if isinstance(variant, Markov):
            mass = variant.initial[symbols[0]]
            for prev, cur in zip(symbols, symbols[1:]):
                mass = mass * variant.transition[prev][cur]
        else:
            weighted = ((1, variant.pmf),) if isinstance(variant, IID) else tuple(
                zip(variant.weights, (c.pmf for c in variant.components))
            )
            counts = [0] * k
            for s in symbols:
                counts[s] += 1
            mass = sum(w * _iid_type_mass(pmf, counts) for w, pmf in weighted)
        masses.append(mass)
    return tuple(masses)


def old_sort(masses):
    return tuple(sorted(range(len(masses)), key=lambda i: masses[i], reverse=True))


def old_apply(masses, mapping, zero=F(0)):
    out = [zero] * len(masses)
    for x, mass in enumerate(masses):
        if mass != 0:
            target = mapping.psi[mapping.phi[x]]
            out[target] = out[target] + mass
    return tuple(out)


def old_spectrum_points(masses, n):
    acc = {}
    for mass in masses:
        if mass == 0:
            continue
        value = self_information_value(mass, n)
        acc[value] = acc.get(value, 0) + mass
    return tuple(sorted(acc.items()))


def old_divergence(p_masses, q_masses, curve):
    total = 0
    for pm, qm in zip(p_masses, q_masses):
        term = _term(curve, pm, qm)
        if term == math.inf:
            return math.inf
        total = total + term
    return total


def old_total(dist, ids):
    total = F(0) if dist.exact else 0.0
    for x in ids:
        total = total + dist.masses[x]
    return total


def old_classify(dist, m, gamma):
    r_low, _ = rate_window(m, dist.n, gamma)
    order = sort_descending(dist)
    heavy = [x for x in order if dist.masses[x] >= F(1, m)]
    core = [x for x in heavy if self_information(dist, x) <= r_low]
    return order, heavy, core


def old_build_mapping(dist, m, gamma):
    order, heavy, core = old_classify(dist, m, gamma)
    rest = order[len(heavy):]
    light = [x for x in rest if dist.masses[x] > 0]
    off = tuple(x for x in rest if dist.masses[x] == 0)
    band = [x for x in heavy if x not in core]
    if not core:
        kept = heavy or [order[0]]
        pool = tuple(x for x in light if x != kept[0])
        flags = ("empty_core",) if heavy else ("empty_core", "empty_core_and_band")
        trace = ConstructionTrace(
            kind="spectrum_split", core=(), band=tuple(kept), pool=pool, off_support=off,
            representatives=tuple(kept), allocations=(pool,), stop_index=0, gamma=gamma,
            m=m, core_mass=old_total(dist, ()), flags=flags, source=dist,
        )
        return _encode(len(order), kept, kept[:1], (pool,), m), trace
    core_mass = old_total(dist, core)
    allocations, stop = _greedy_allocate(dist, core, len(heavy), core_mass)
    trace = ConstructionTrace(
        kind="spectrum_split", core=tuple(core), band=tuple(band), pool=tuple(light),
        off_support=off, representatives=tuple(heavy), allocations=allocations,
        stop_index=stop, gamma=gamma, m=m, core_mass=core_mass, flags=(), source=dist,
    )
    return _encode(len(order), heavy, core, allocations, m), trace


def old_baseline(dist, m, gamma):
    order, _, core = old_classify(dist, m, gamma)
    core = core or [order[0]]
    return _encode(len(order), core, core, (), m)


def old_build_entropy(dist, curve, delta, gamma):
    order = sort_descending(dist)
    target = _budget_threshold(curve, delta)
    core, core_mass = [], 0
    for x in order:
        if dist.masses[x] == 0:
            break
        core.append(x)
        core_mass = core_mass + dist.masses[x]
        if core_mass >= target:
            break
    m = math.ceil(len(core) * math.exp(dist.n * float(gamma)))
    if m > len(order):
        trace = ConstructionTrace(
            kind="entropy_prefix", core=tuple(core), band=order[len(core):], pool=(),
            off_support=(), representatives=order, allocations=((),) * len(core),
            stop_index=0, gamma=gamma, m=m, core_mass=core_mass,
            flags=("size_exceeds_space",), source=dist,
        )
        return _encode(len(order), order, (), (), len(order)), trace
    pool = [x for x in order[m:] if dist.masses[x] > 0]
    off = tuple(x for x in order[m:] if dist.masses[x] == 0)
    allocations, stop = _greedy_allocate(dist, core, m, core_mass)
    trace = ConstructionTrace(
        kind="entropy_prefix", core=tuple(core), band=order[len(core):m], pool=tuple(pool),
        off_support=off, representatives=order[:m], allocations=allocations,
        stop_index=stop, gamma=gamma, m=m, core_mass=core_mass, flags=(), source=dist,
    )
    return _encode(len(order), order[:m], core, allocations, m), trace


def old_entropy_bound(trace, curve):
    pr_core = trace.core_mass
    if "size_exceeds_space" in trace.flags:
        return float(curve.eval_at(pr_core))
    dist = trace.source
    slack = math.exp(-trace.n * float(trace.gamma))
    head = F(0) if dist.exact else 0.0
    for i in range(trace.stop_index):
        head = head + dist.masses[trace.core[i]]
        for atom in trace.allocations[i]:
            head = head + dist.masses[atom]
    p_stop = dist.masses[trace.core[trace.stop_index]]
    arg = (1.0 - slack) * float(pr_core)
    middle = float(curve.f_at_zero) if arg <= 0 else float(curve.eval_at(arg))
    return (
        float(head) * float(curve.eval_at(pr_core))
        + float(p_stop / pr_core) * middle
        + slack * float(curve.eval_at(p_stop))
    )


def same(a, b) -> bool:
    """Equal in value, in type and, for floats, in every bit."""
    return type(a) is type(b) and a == b and repr(a) == repr(b)


# ---------------------------------------------------------------------------
# inputs: the benchmark's seed-0 sources plus a drawn Markov row and mixture


def markov(stay0, leave1):
    return Markov((F(1, 2), F(1, 2)), ((stay0, 1 - stay0), (leave1, 1 - leave1)))


def mixture(first, second):
    return Mixture((F(1, 2), F(1, 2)), (IID((first, 1 - first)), IID((second, 1 - second))))


def to_float(variant):
    if isinstance(variant, IID):
        return IID(tuple(map(float, variant.pmf)))
    if isinstance(variant, Markov):
        rows = tuple(tuple(map(float, row)) for row in variant.transition)
        return Markov(tuple(map(float, variant.initial)), rows)
    return Mixture(tuple(map(float, variant.weights)), tuple(map(to_float, variant.components)))


SOURCES = (
    IID((F(9, 10), F(1, 10))),
    IID((F(3, 4), F(1, 4))),
    markov(F(9, 10), F(1, 5)),
    mixture(F(9, 10), F(1, 5)),
    markov(F(8, 9), F(3, 16)),
    mixture(F(11, 12), F(4, 19)),
)

# Three symbols, one of them with probability zero somewhere.
TERNARY = (
    IID((F(3, 5), F(0), F(2, 5))),
    Markov(
        (F(1, 3), F(2, 3), F(0)),
        ((F(1, 2), F(1, 2), F(0)), (F(1, 4), F(0), F(3, 4)), (F(1, 3), F(1, 3), F(1, 3))),
    ),
    Mixture((F(1, 4), F(3, 4)), (IID((F(1, 2), F(1, 2), F(0))), IID((F(1, 5), F(0), F(4, 5))))),
)

CASES = [(variant, n) for variant in SOURCES for n in (6, 10)] + [(v, 6) for v in TERNARY]


def case_id(case) -> str:
    variant, n = case
    group, label = (SOURCES, "") if variant in SOURCES else (TERNARY, "k3-")
    return f"{label}{type(variant).__name__.lower()}{group.index(variant)}-n{n}"


def check_divergences(p, q, p_masses, q_masses) -> None:
    for name in CURVES:
        curve = curve_from_name(name)
        got = divergence(p, q, curve)
        want = old_divergence(p_masses, q_masses, curve)
        assert same(got, want), (name, got, want)


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_exact_atom_path_matches_the_fraction_loops(case, monkeypatch) -> None:
    variant, n = case
    dist = expand(SourceModel(variant, n))
    masses = old_expand_masses(variant, n)
    assert dist.masses == masses
    assert all(type(m) is Fraction for m in dist.masses)
    assert sort_descending(dist) == old_sort(masses)
    assert spectrum_cdf(dist).points == old_spectrum_points(masses, n)

    # The reference traces come from the same greedy on a distribution
    # rebuilt from the reference masses, sorted by the old Fraction key.
    rebuilt = AtomicDistribution(masses, n, variant.alphabet_size, True)
    builds = (
        lambda d: build_mapping(d, 8, F(1, 2)),
        lambda d: build_mapping(d, 128, F(1, 20)),
        lambda d: build_smooth_entropy_mapping(d, variational(), F(1, 10), F(1, 20)),
    )
    for build in builds:
        mapping, trace = build(dist)
        with monkeypatch.context() as patch:
            patch.setattr(construction_module, "sort_descending", lambda d: old_sort(d.masses))
            ref_mapping, ref_trace = build(rebuilt)
        assert mapping == ref_mapping
        assert trace_to_jsonable(trace) == trace_to_jsonable(ref_trace)
        decoded = apply_mapping(dist, mapping)
        decoded_masses = old_apply(masses, mapping)
        assert decoded.masses == decoded_masses
        assert all(type(m) is Fraction for m in decoded.masses)
        # Both orders: the reversed one meets zero source mass under
        # reverse_kl, and the forward one zero decoded mass under kl.
        check_divergences(dist, decoded, masses, decoded_masses)
        check_divergences(decoded, dist, decoded_masses, masses)


def test_from_masses_on_mixed_denominators_matches_the_fraction_loops() -> None:
    inputs = (
        [F(1, 3), F(1, 6), F(1, 4), F(1, 4)],
        [F(1, 5), F(0), F(3, 10), F(1, 2)],
        [F(2, 7), F(3, 11), F(0), F(34, 77)],
        [F(1), F(0), F(0), F(0)],
    )
    dists = [AtomicDistribution.from_masses(masses, 2, 2) for masses in inputs]
    mapping = MappingPair(phi=(0, 1, 1, 0), psi=(3, 2), m_n=2)
    for dist, masses in zip(dists, inputs):
        assert dist.masses == tuple(masses)
        assert sort_descending(dist) == old_sort(masses)
        assert spectrum_cdf(dist).points == old_spectrum_points(masses, 2)
        assert apply_mapping(dist, mapping).masses == old_apply(masses, mapping)
        for other, other_masses in zip(dists, inputs):
            check_divergences(dist, other, masses, other_masses)


def test_divergence_between_different_denominators_matches_the_term_loop() -> None:
    sources = (IID((F(9, 10), F(1, 10))), IID((F(3, 4), F(1, 4))), markov(F(8, 9), F(3, 16)))
    dists = [expand(SourceModel(variant, 6)) for variant in sources]
    assert len({d._den for d in dists}) == len(dists)
    for p in dists:
        for q in dists:
            check_divergences(p, q, p.masses, q.masses)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_float_atom_path_matches_the_per_outcome_loops(case) -> None:
    variant, n = case
    source = to_float(variant)
    dist = expand(SourceModel(source, n))
    masses = old_expand_masses(source, n)
    assert len(dist.masses) == len(masses)
    assert all(same(got, want) for got, want in zip(dist.masses, masses))

    mapping, _ = build_mapping(dist, 16, F(1, 20))
    assert same(spectrum_cdf(dist).points, old_spectrum_points(masses, n))
    decoded = apply_mapping(dist, mapping)
    decoded_masses = old_apply(masses, mapping, 0.0)
    assert all(same(got, want) for got, want in zip(decoded.masses, decoded_masses))
    # Exact partners make mixed pairs: zero masses on either side, and
    # exact terms ahead of or among the float ones.
    exact_decoded = apply_mapping(expand(SourceModel(variant, n)), mapping)
    dists = (dist, decoded, exact_decoded)
    for p in dists:
        for q in dists:
            check_divergences(p, q, p.masses, q.masses)


BOUND_CURVES = ("variational", "reverse_kl", "hellinger", "e_gamma:2")


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_constructions_and_bounds_match_the_replaced_loops(case) -> None:
    variant, n = case
    seen = set()
    for source in (variant, to_float(variant)):
        dist = expand(SourceModel(source, n))
        for m, gamma in ((1, F(1, 20)), (16, F(3)), (8, F(1, 2)), (128, F(1, 20))):
            mapping, trace = build_mapping(dist, m, gamma)
            ref_mapping, ref_trace = old_build_mapping(dist, m, gamma)
            assert mapping == ref_mapping
            assert trace_to_jsonable(trace) == trace_to_jsonable(ref_trace)
            assert same(trace.core_mass, ref_trace.core_mass)
            assert baseline_collapse_mapping(dist, m, gamma) == old_baseline(dist, m, gamma)
            for name in BOUND_CURVES:
                curve = curve_from_name(name)
                assert achievability_bound(trace, curve) == achievability_bound(ref_trace, curve)
            seen.update(trace.flags)
            if trace.off_support:
                seen.add("off_support")
        for name in BOUND_CURVES:
            curve = curve_from_name(name)
            for delta in (F(1, 10), F(1, 2)):
                for gamma in (F(1, 20), F(1)):
                    mapping, trace = build_smooth_entropy_mapping(dist, curve, delta, gamma)
                    ref_mapping, ref_trace = old_build_entropy(dist, curve, delta, gamma)
                    assert mapping == ref_mapping
                    assert trace_to_jsonable(trace) == trace_to_jsonable(ref_trace)
                    assert same(trace.core_mass, ref_trace.core_mass)
                    for bound_curve in map(curve_from_name, BOUND_CURVES):
                        got = entropy_mapping_bound(trace, bound_curve).value
                        assert same(got, old_entropy_bound(ref_trace, bound_curve))
                    seen.update(trace.flags)
    # Every case reaches the empty-core fallbacks and the identity path;
    # the ternary ones have zero masses to leave off the support.
    expected = {"empty_core", "empty_core_and_band", "size_exceeds_space"}
    if variant in TERNARY:
        expected.add("off_support")
    assert expected <= seen


def test_exact_prefix_rounds_its_target_up() -> None:
    # Mass 1/2 is 3/2 numerators over the denominator 3: one third falls short.
    dist = AtomicDistribution.from_masses([F(1, 3)] * 3, 1, 3)
    assert smooth_max_entropy(dist, F(1, 2)) == (math.log(2), frozenset({0, 1}))


def test_float_expand_still_rejects_its_own_iid_sum_at_n16() -> None:
    # A known float-mode defect (the mass check sums 2**16 doubles without
    # compensation), pinned until the check itself changes.
    with pytest.raises(InvalidModel) as excinfo:
        expand(SourceModel(IID((0.9, 0.1)), 16))
    assert str(excinfo.value) == "mass vector sums to 0.9999999999988565, off by more than 1e-12"


def test_float_sums_do_not_depend_on_a_compensated_builtin_sum(monkeypatch) -> None:
    # Built-in sum compensates float additions since Python 3.12.  Float
    # totals that outputs depend on must add left to right on every
    # interpreter, so a compensated stand-in for sum changes none of them.
    import builtins

    import srnglab.oracle as oracle_module
    import srnglab.probability as probability_module
    import srnglab.rdp as rdp_module
    from srnglab import DistortionSpec, min_fdiv_bruteforce, rd_function_iid

    def outputs():
        hamming = DistortionSpec("additive", ((0, 1, 1), (1, 0, 1), (1, 1, 0)))
        pmf = (F(1, 2), F(1, 3), F(1, 6))
        rates = [rd_function_iid(pmf, hamming, d) for d in (F(1, 10), F(1, 5), F(3, 10))]
        binary = expand(SourceModel(IID((0.1, 0.9)), 3))
        witness = min_fdiv_bruteforce(binary, 2, [variational()])["variational"]
        components = (IID((0.1, 0.9)), IID((0.7, 0.3)), IID((0.45, 0.55)))
        mixture = expand(SourceModel(Mixture((0.2, 0.3, 0.5), components), 4))
        return rates, witness, mixture.masses

    def compensated_sum(items, start=0):
        items = list(items)
        if any(isinstance(x, float) for x in items):
            return math.fsum([start, *items])
        return builtins.sum(items, start)

    plain = outputs()
    for module in (rdp_module, oracle_module, probability_module):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert outputs() == plain


# ---------------------------------------------------------------------------
# masses built on first read

BENCHMARK_SOURCES = SOURCES[:4]


def source_id(variant) -> str:
    return f"{type(variant).__name__.lower()}{SOURCES.index(variant)}"


def eager_masses(dist):
    # The tuple every exact distribution built from numerators held before
    # masses were built on first read: one reduced Fraction per distinct
    # numerator, shared by its atoms.
    shared = {num: F(num, dist._den) for num in set(dist._nums)}
    return tuple(map(shared.__getitem__, dist._nums))


def built_from_numerators(variant, n):
    """An expanded source, its decoded law and its conditional law, where
    there is one, with no masses read."""
    dist = expand(SourceModel(variant, n))
    mapping, trace = build_mapping(dist, 8, F(1, 2))
    return [law for law in (dist, apply_mapping(dist, mapping), trace.conditional) if law]


def assert_shared_masses(law, want) -> None:
    assert law.masses == want
    assert all(type(m) is Fraction for m in law.masses)
    first = {}
    for num, mass in zip(law._nums, law.masses):
        assert first.setdefault(num, mass) is mass
    assert len(set(map(id, law.masses))) == len(first)


@pytest.mark.parametrize("variant", BENCHMARK_SOURCES, ids=source_id)
def test_masses_built_on_first_read_match_the_eager_build(variant) -> None:
    for n in range(1, 9):
        for law in built_from_numerators(variant, n):
            want = eager_masses(law)
            ref = AtomicDistribution.from_masses(want, n, law.alphabet_size)
            for twin in (copy.copy(law), copy.deepcopy(law), pickle.loads(pickle.dumps(law))):
                assert "masses" not in vars(twin)
                assert (twin._nums, twin._den) == (law._nums, law._den)
                assert_shared_masses(twin, want)
            assert "masses" not in vars(law)
            # Equality, hash and repr read the masses, and build them once.
            assert law == ref and hash(law) == hash(ref) and repr(law) == repr(ref)
            built = law.masses
            assert "masses" in vars(law) and law.masses is built
            assert_shared_masses(law, want)
            for twin in (copy.copy(law), copy.deepcopy(law), pickle.loads(pickle.dumps(law))):
                assert twin == law and twin.masses == want


@pytest.mark.parametrize("variant", BENCHMARK_SOURCES, ids=source_id)
def test_the_atom_path_never_builds_masses(variant) -> None:
    n = 10
    dist = expand(SourceModel(variant, n))
    summary = spectrum_cdf(dist)
    curves = list(map(curve_from_name, BOUND_CURVES))
    mapping, trace = build_mapping(dist, 64, F(1, 20))
    smooth_mapping, smooth_trace = build_smooth_entropy_mapping(dist, curves[0], F(1, 10), F(1, 20))
    decoded, smooth_decoded = apply_mapping(dist, mapping), apply_mapping(dist, smooth_mapping)
    for curve in curves:
        k_f_rate(summary, curve, F(1, 10))
        converse_bound(summary, 64, F(1, 20), curve)
        achievability_bound(trace, curve)
        entropy_mapping_bound(smooth_trace, curve)
    for name in CURVES:
        for law in (decoded, smooth_decoded):
            divergence(dist, law, curve_from_name(name))
            divergence(law, dist, curve_from_name(name))
    baseline_collapse_mapping(dist, 64, F(1, 20))
    # One atom's mass, its self-information and the distortion read atoms
    # one at a time.
    hamming = DistortionSpec("additive", ((0, 1), (1, 0)))
    halves = DistortionSpec("additive", ((0.0, 0.5), (0.5, 0.0)))
    heaviest = sort_descending(dist)[0]
    got = (
        dist.mass(heaviest),
        self_information(dist, heaviest),
        mapping_distortion(dist, mapping, hamming),
        mapping_distortion(dist, mapping, halves),
    )
    for law in (dist, decoded, smooth_decoded):
        assert "masses" not in vars(law)
    # The same values, floats bit for bit, as reads of the built masses.
    masses = dist.masses
    moved = [x for x in dist.support() if mapping.psi[mapping.phi[x]] != x]
    want = [
        masses[heaviest],
        self_information_value(masses[heaviest], n),
        F(0),
        0.0,
    ]
    for x in moved:
        y = mapping.psi[mapping.phi[x]]
        want[2] = want[2] + masses[x] * hamming.block_value(x, y, n, 2)
        want[3] = want[3] + masses[x] * halves.block_value(x, y, n, 2)
    want[2:] = [total / n for total in want[2:]]
    assert moved and all(same(a, b) for a, b in zip(got, want)), (got, want)
