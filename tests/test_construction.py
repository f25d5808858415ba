"""Mapping constructions, their audit traces, and the matching bounds.

The allocator invariants are checked on hand-built single-letter sources
chosen to force each of its paths: an early stop with idle trailing
representatives, an exact capacity fill, and a stranded atom dumped onto
the last representative.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from srnglab import (
    AtomicDistribution,
    DimensionMismatch,
    IID,
    InvalidModel,
    MappingPair,
    Markov,
    Mixture,
    OutOfRange,
    SourceModel,
    achievability_bound,
    apply_mapping,
    baseline_collapse_mapping,
    build_mapping,
    build_smooth_entropy_mapping,
    cdf_at,
    converse_bound,
    divergence,
    e_gamma_sum,
    entropy_mapping_bound,
    expand,
    f_inverse,
    hellinger,
    kl,
    rate_window,
    reverse_kl,
    self_information_value,
    smooth_max_entropy,
    sort_descending,
    spectrum_cdf,
    trace_to_jsonable,
    variational,
)

F = Fraction


def single_letter(*masses: Fraction) -> AtomicDistribution:
    return AtomicDistribution.from_masses(list(masses), 1, len(masses))


def quarter_block(n: int) -> AtomicDistribution:
    return expand(SourceModel(IID((F(1, 4), F(3, 4))), n))


def assert_trace_invariants(dist: AtomicDistribution, mapping: MappingPair, trace) -> None:
    ids = sorted(trace.core + trace.band + trace.pool + trace.off_support)
    assert ids == list(range(len(dist.masses)))
    # Core and band partition the representatives, each in their order; the
    # core need not be their prefix.
    assert not set(trace.core) & set(trace.band)
    assert set(trace.core) | set(trace.band) == set(trace.representatives)
    for part in (trace.core, trace.band):
        assert part == tuple(x for x in trace.representatives if x in part)
    assert len(set(mapping.psi)) <= trace.m
    decoded = apply_mapping(dist, mapping)
    assert sum(1 for v in decoded.masses if v > 0) <= trace.m
    if trace.kind == "spectrum_split" and not trace.flags:
        # Core atoms all clear the heavy cut with room e^{n gamma}.
        assert len(trace.core) <= trace.m * math.exp(-trace.n * float(trace.gamma)) + 1e-9
        for i, rep in enumerate(trace.core):
            target = dist.masses[rep] / trace.core_mass
            got = decoded.masses[rep]
            if i < trace.stop_index:
                assert target - F(1, trace.m) < got <= target
            elif i > trace.stop_index:
                assert got == dist.masses[rep]
        for rep in trace.band:
            assert decoded.masses[rep] == dist.masses[rep]


# ---------------------------------------------------------------------------
# the running block example


def test_running_example_trace_and_divergence() -> None:
    d = quarter_block(2)
    mapping, trace = build_mapping(d, 4, F(1, 20))
    assert trace.core == (3,)
    assert trace.band == ()
    assert trace.pool == (1, 2, 0)
    assert trace.stop_index == 0
    assert trace.flags == ()
    assert trace.core_mass == F(9, 16)
    decoded = apply_mapping(d, mapping)
    assert decoded.masses[3] == 1
    assert divergence(d, decoded, variational()) == F(7, 16)


def test_running_example_bounds_bracket_the_divergence() -> None:
    d = quarter_block(2)
    mapping, trace = build_mapping(d, 4, F(1, 20))
    decoded = apply_mapping(d, mapping)
    exact = divergence(d, decoded, variational())
    ach = achievability_bound(trace, variational())
    con = converse_bound(spectrum_cdf(d), 4, F(1, 20), variational())
    assert con.value <= float(exact) <= ach.value
    # core_mass - e^{-n gamma} < 0 pushes the first argument to its limit
    assert ach.clamped
    assert ach.value == pytest.approx(1 + math.exp(-0.1) * 0.75)
    assert con.value == 0.0


def test_positive_converse_value() -> None:
    d = quarter_block(6)
    s = spectrum_cdf(d)
    con = converse_bound(s, 2, F(1, 2), variational())
    threshold = math.log(2) / 6 + 0.5
    assert cdf_at(s, threshold) == F(2187, 4096)
    assert con.value == pytest.approx(1 - (2187 / 4096 + math.exp(-3.0)))
    assert con.value > 0.4


def test_unclamped_achievability() -> None:
    d = single_letter(F(9, 10), F(3, 50), F(1, 25))
    mapping, trace = build_mapping(d, 2, F(1, 2))
    assert trace.core == (0,)
    ach = achievability_bound(trace, variational())
    assert not ach.clamped
    slack = math.exp(-0.5)
    assert ach.value == pytest.approx((1 - (0.9 - slack)) + slack * 0.5)


# ---------------------------------------------------------------------------
# allocator paths


def test_early_stop_leaves_later_representatives_untouched() -> None:
    d = single_letter(F(15, 50), F(14, 50), F(13, 50), F(3, 50), F(3, 50), F(2, 50))
    mapping, trace = build_mapping(d, 4, F(2, 25))
    assert trace.core == (0, 1)
    assert trace.band == (2,)
    assert trace.allocations == ((3, 4, 5), ())
    assert trace.stop_index == 0
    decoded = apply_mapping(d, mapping)
    assert decoded.masses[0] == F(23, 50)
    assert decoded.masses[1] == F(14, 50)
    assert decoded.masses[2] == F(13, 50)
    assert_trace_invariants(d, mapping, trace)


def test_exact_capacity_fill_reaches_the_conditional() -> None:
    # Four heavy atoms of 23/100 and four pool atoms of 1/50; each pool
    # atom exactly fills one representative's gap to 1/4.
    d = single_letter(*([F(23, 100)] * 4 + [F(1, 50)] * 4))
    mapping, trace = build_mapping(d, 8, F(3, 10))
    assert trace.core == (0, 1, 2, 3)
    assert trace.allocations == ((4,), (5,), (6,), (7,))
    assert trace.stop_index == 3
    decoded = apply_mapping(d, mapping)
    assert decoded.masses[:4] == (F(1, 4), F(1, 4), F(1, 4), F(1, 4))
    assert divergence(d, decoded, variational()) == F(2, 25)
    assert_trace_invariants(d, mapping, trace)


def test_stranded_atom_is_dumped_on_the_last_representative() -> None:
    # The 1/25 atom exceeds every capacity of 1/30 and must be dumped.
    d = single_letter(F(30, 100), F(30, 100), F(30, 100), F(1, 25), F(3, 100), F(3, 100))
    mapping, trace = build_mapping(d, 6, F(2, 5))
    assert trace.core == (0, 1, 2)
    assert trace.allocations == ((4,), (5,), (3,))
    assert trace.stop_index == 2
    decoded = apply_mapping(d, mapping)
    assert decoded.masses[2] == F(17, 50)
    # Overshoot beyond the conditional target stays below e^{-n gamma}.
    overshoot = decoded.masses[2] - d.masses[2] / trace.core_mass
    assert 0 < overshoot < math.exp(-float(trace.gamma))
    assert_trace_invariants(d, mapping, trace)


def test_invariants_on_a_block_grid() -> None:
    for n in (2, 3, 4):
        d = quarter_block(n)
        for m in (1, 2, 4, 2**n):
            for gamma in (F(1, 50), F(1, 10), F(1, 2)):
                mapping, trace = build_mapping(d, m, gamma)
                assert_trace_invariants(d, mapping, trace)


# ---------------------------------------------------------------------------
# degenerate classifications


def test_no_heavy_atom_collapses_to_the_mode() -> None:
    d = single_letter(F(1, 4), F(1, 4), F(1, 4), F(1, 4))
    mapping, trace = build_mapping(d, 3, F(1, 10))
    assert trace.flags == ("empty_core", "empty_core_and_band")
    assert trace.core == ()
    assert trace.band == (0,)
    assert trace.pool == (1, 2, 3)
    assert trace.conditional is None
    decoded = apply_mapping(d, mapping)
    assert decoded.masses[0] == 1


def test_heavy_without_core_keeps_the_identity() -> None:
    # gamma so large that no heavy atom clears the self-information cut.
    d = single_letter(F(2, 5), F(3, 10), F(3, 10), F(0))
    mapping, trace = build_mapping(d, 4, F(3, 2))
    assert trace.flags == ("empty_core",)
    assert trace.core == ()
    assert trace.band == (0, 1, 2)
    assert trace.off_support == (3,)
    decoded = apply_mapping(d, mapping)
    assert decoded.masses == d.masses


def test_core_past_an_inverted_self_information_is_not_a_prefix() -> None:
    # Over a denominator of 10^17 the float self-information of a mass can
    # exceed that of the next lighter one.  With the low line between the
    # two, the lighter heavy atom is core and the heavier one band: the
    # per-atom classification, done once per run.
    den, m = 10**17, 4

    def value(num: int) -> float:
        return self_information_value(F(num, den), 1)

    a = next(a for a in range(3 * den // 10, den) if value(a + 1) > value(a))
    gamma = F(math.log(m) - value(a))
    assert value(a) <= rate_window(m, 1, gamma)[0] < value(a + 1)
    rest = den - 2 * a - 1
    d = single_letter(F(a + 1, den), F(a, den), F(rest // 2, den), F(rest - rest // 2, den))
    mapping, trace = build_mapping(d, m, gamma)
    got = (trace.representatives, trace.core, trace.band, trace.pool)
    assert got == ((0, 1), (1,), (0,), (3, 2))
    assert trace.flags == ()
    assert [mapping.psi[j] for j in mapping.phi] == [0, 1, 1, 1]
    assert_trace_invariants(d, mapping, trace)


def test_partition_invariant_holds_on_degenerate_paths() -> None:
    for masses, m, gamma in (
        ([F(1, 4)] * 4, 3, F(1, 10)),
        ([F(2, 5), F(3, 10), F(3, 10), F(0)], 4, F(3, 2)),
    ):
        d = single_letter(*masses)
        mapping, trace = build_mapping(d, m, gamma)
        ids = sorted(trace.core + trace.band + trace.pool + trace.off_support)
        assert ids == list(range(len(masses)))


def test_build_mapping_rejects_bad_parameters() -> None:
    d = quarter_block(2)
    with pytest.raises(OutOfRange):
        build_mapping(d, 0, F(1, 10))
    with pytest.raises(OutOfRange):
        build_mapping(d, 4, F(0))


# ---------------------------------------------------------------------------
# entropy-prefix construction


def test_entropy_core_is_the_minimal_prefix() -> None:
    d = quarter_block(6)
    delta = F(1, 10)
    mapping, trace = build_smooth_entropy_mapping(d, variational(), delta, F(1, 20))
    thr = f_inverse(variational(), delta)
    mass = sum(d.masses[x] for x in trace.core)
    assert mass >= thr
    assert mass - d.masses[trace.core[-1]] < thr
    assert trace.m == math.ceil(len(trace.core) * math.exp(6 / 20))
    assert len(trace.representatives) == trace.m
    assert trace.representatives[: len(trace.core)] == trace.core


def test_entropy_core_size_matches_the_greedy_set() -> None:
    d = quarter_block(5)
    for curve in (variational(), hellinger()):
        for delta in (F(1, 20), F(1, 10), F(1, 4)):
            _, trace = build_smooth_entropy_mapping(d, curve, delta, F(1, 20))
            _, kept = smooth_max_entropy(d, 1 - f_inverse(curve, delta))
            assert len(trace.core) == len(kept)


def test_entropy_bound_dominates_the_achieved_divergence() -> None:
    for n in (2, 4, 6):
        d = quarter_block(n)
        for delta in (F(1, 20), F(1, 10), F(1, 4)):
            for gamma in (F(1, 50), F(1, 10)):
                mapping, trace = build_smooth_entropy_mapping(d, variational(), delta, gamma)
                bound = entropy_mapping_bound(trace, variational())
                achieved = divergence(d, apply_mapping(d, mapping), variational())
                assert float(achieved) <= bound.value + 1e-12


def test_oversized_codebook_falls_back_to_the_identity() -> None:
    d = quarter_block(6)
    mapping, trace = build_smooth_entropy_mapping(d, variational(), F(1, 10), F(3))
    assert trace.flags == ("size_exceeds_space",)
    assert trace.m > len(d.masses)
    assert mapping.m_n == len(d.masses)
    decoded = apply_mapping(d, mapping)
    assert decoded.masses == d.masses
    assert divergence(d, decoded, variational()) == 0


def test_codebook_beyond_the_float_range_is_out_of_range() -> None:
    # e^{n gamma} overflows at n = 14, gamma = 60; at n = 2, gamma = 709/2 it
    # is finite but |core| = 3 times it is not.
    for d, gamma in ((quarter_block(14), F(60)), (quarter_block(2), F(709, 2))):
        with pytest.raises(OutOfRange) as excinfo:
            build_smooth_entropy_mapping(d, variational(), F(1, 10), gamma)
        assert str(excinfo.value) == (
            f"codebook size |core| e^(n gamma) overflows a float at n = {d.n}, gamma = {gamma}"
        )


# ---------------------------------------------------------------------------
# baseline and helpers


def test_baseline_collapse_is_no_better_than_the_greedy_split() -> None:
    d = single_letter(F(15, 50), F(14, 50), F(13, 50), F(3, 50), F(3, 50), F(2, 50))
    m, gamma = 4, F(2, 25)
    mapping, _ = build_mapping(d, m, gamma)
    greedy = divergence(d, apply_mapping(d, mapping), variational())
    collapsed = divergence(d, apply_mapping(d, baseline_collapse_mapping(d, m, gamma)), variational())
    assert greedy == F(8, 50)
    assert collapsed == F(21, 50)
    assert greedy <= collapsed


def test_rate_window_brackets_log_m_over_n() -> None:
    low, high = rate_window(4, 2, F(1, 20))
    assert high == pytest.approx(math.log(4) / 2)
    assert low == pytest.approx(math.log(4) / 2 - 0.05)
    assert low < high


def test_mapping_pair_validation() -> None:
    with pytest.raises(InvalidModel):
        MappingPair(phi=(0, 2), psi=(0, 1), m_n=2)
    with pytest.raises(InvalidModel):
        MappingPair(phi=(0, 1), psi=(0,), m_n=2)
    with pytest.raises(InvalidModel):
        MappingPair(phi=(0, 1), psi=(0, 5), m_n=2)
    for phi, psi, m_n, message in (
        ((), (), 0, "codebook size must be positive"),
        ((0,), (0,), -1, "codebook size must be positive"),
        ((), (0,), 1, "encoder table is empty"),
    ):
        with pytest.raises(InvalidModel) as excinfo:
            MappingPair(phi=phi, psi=psi, m_n=m_n)
        assert str(excinfo.value) == message


def test_mapping_pair_range_checks_name_the_table() -> None:
    for phi in ((0, 2, 1), (1, -1, 0)):
        with pytest.raises(InvalidModel) as excinfo:
            MappingPair(phi=phi, psi=(0, 1), m_n=2)
        assert str(excinfo.value) == "encoder produced an index outside the codebook"
    for psi in ((0, 3), (-1, 2)):
        with pytest.raises(InvalidModel) as excinfo:
            MappingPair(phi=(0, 1, 1), psi=psi, m_n=2)
        assert str(excinfo.value) == "decoder produced an outcome outside the space"
    # Both ends of each range are inside it.
    MappingPair(phi=(0, 1, 1), psi=(0, 2), m_n=2)


def test_apply_mapping_pushes_mass_forward() -> None:
    d = single_letter(F(1, 2), F(1, 3), F(1, 6))
    pair = MappingPair(phi=(0, 0, 1), psi=(1, 2), m_n=2)
    decoded = apply_mapping(d, pair)
    assert decoded.masses == (F(0), F(5, 6), F(1, 6))
    for phi, psi in (((0, 1), (0, 1)), ((0, 0, 1, 1), (0, 3))):
        with pytest.raises(DimensionMismatch) as excinfo:
            apply_mapping(d, MappingPair(phi=phi, psi=psi, m_n=2))
        assert str(excinfo.value) == f"mapping covers {len(phi)} outcomes, source has 3"


def test_bounds_reject_curves_without_monotonicity() -> None:
    d = quarter_block(2)
    _, trace = build_mapping(d, 4, F(1, 20))
    _, entropy_trace = build_smooth_entropy_mapping(d, variational(), F(1, 10), F(1, 20))
    with pytest.raises(OutOfRange):
        achievability_bound(trace, kl())
    with pytest.raises(OutOfRange):
        converse_bound(spectrum_cdf(d), 4, F(1, 20), kl())
    with pytest.raises(OutOfRange):
        entropy_mapping_bound(entropy_trace, kl())
    with pytest.raises(InvalidModel):
        entropy_mapping_bound(trace, variational())


def test_trace_serializes_to_plain_json_types() -> None:
    import json

    d = quarter_block(3)
    _, trace = build_mapping(d, 5, F(1, 20))
    blob = trace_to_jsonable(trace)
    text = json.dumps(blob, sort_keys=True)
    assert json.loads(text) == blob
    assert blob["kind"] == "spectrum_split"
    assert blob["stop_index"] == trace.stop_index


def test_reverse_kl_achievability_is_infinite_when_clamped() -> None:
    d = quarter_block(2)
    _, trace = build_mapping(d, 4, F(1, 20))
    ach = achievability_bound(trace, reverse_kl())
    assert ach.clamped
    assert ach.value == math.inf


# ---------------------------------------------------------------------------
# run-wise greedy against the per-atom greedy it replaced


def per_atom_greedy(dist, core, pool, core_mass):
    """The greedy as first written: every remaining atom rescanned per step."""
    remaining = list(pool)
    allocations = []
    stop = len(core) - 1
    stopped = False
    for idx, rep in enumerate(core):
        if stopped:
            allocations.append(())
            continue
        capacity = dist.masses[rep] / core_mass - dist.masses[rep]
        taken, kept, load = [], [], 0
        for atom in remaining:
            mass = dist.masses[atom]
            if load + mass <= capacity:
                taken.append(atom)
                load = load + mass
            else:
                kept.append(atom)
        remaining = kept
        if idx == len(core) - 1 and remaining:
            taken.extend(remaining)
            remaining = []
        if not remaining:
            stop, stopped = idx, True
        allocations.append(tuple(taken))
    return tuple(allocations), stop


def test_run_wise_greedy_matches_the_per_atom_greedy() -> None:
    import random

    from srnglab.construction import _greedy_allocate

    rng = random.Random(20231)
    seen = {"zero_tail": 0, "mid_run": 0, "dump": 0, "empty_pool": 0, "early_stop": 0}
    for trial in range(300):
        # Few distinct weights, so runs of equal mass are long; some zeros.
        palette = [0] + [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
        weights = [rng.choice(palette) for _ in range(rng.randint(2, 40))]
        weights[0] = weights[0] or 1
        total = sum(weights)
        for exact in (True, False):
            dist = AtomicDistribution.from_masses(
                [F(w, total) for w in weights], 1, len(weights), exact=exact
            )
            order = sort_descending(dist)
            cut = rng.randint(1, min(6, len(order)))
            core = order[:cut]
            start = rng.choice([cut, cut, rng.randint(cut, len(order))])
            if not trial % 5:
                start = len(order)
            # The pool is the order from start to the end of the support.
            live = len(dist.support())
            pool = order[start:live]
            core_mass = sum(dist.masses[x] for x in core)
            got = _greedy_allocate(dist, core, start, core_mass)
            assert got == per_atom_greedy(dist, core, pool, core_mass)
            allocations, stop = got
            seen["zero_tail"] += bool(pool) and live < len(order)
            seen["mid_run"] += 0 < start < live and dist.masses[order[start - 1]] == dist.masses[order[start]]
            seen["empty_pool"] += not pool
            seen["early_stop"] += bool(pool) and stop < len(core) - 1
            last = core[-1]
            capacity = dist.masses[last] / core_mass - dist.masses[last]
            seen["dump"] += sum(dist.masses[x] for x in allocations[-1]) > capacity
    assert all(count > 10 for count in seen.values()), seen


def test_float_windows_match_the_per_atom_greedy_on_long_runs() -> None:
    from functools import reduce
    from itertools import accumulate, repeat
    from operator import add

    from srnglab.construction import _greedy_allocate

    def allocate(capacity, pool_masses):
        # Representative 0 has the given capacity: with core_mass 1/2 it is
        # p / (1/2) - p = p, exactly.  Representative 1 has the remaining
        # mass and takes what is left.  Both are at least as heavy as every
        # pool atom, so the pool is the descending order from position 2.
        rest = 1.0 - reduce(add, [capacity, *pool_masses], 0.0)
        masses = [capacity, rest, *pool_masses]
        dist = AtomicDistribution.from_masses(masses, 1, len(masses), exact=False)
        order = sort_descending(dist)
        assert order[:2] == (1, 0)
        got = _greedy_allocate(dist, (0, 1), 2, 0.5)
        assert got == per_atom_greedy(dist, (0, 1), order[2:], 0.5)
        return len(got[0][0])

    # One run of 2 500 equal, non-dyadic masses: a capacity on the k-atom
    # partial sum takes k atoms, one ulp below it k - 1, one ulp above k.
    mass = 1 / 70000
    loads = list(accumulate(repeat(mass, 2500), initial=0.0))
    assert loads[2499] != 2499 * mass
    # One ulp below one atom's mass, representative 0 would be lighter than
    # its pool, which no construction produces, so k = 1 skips that case.
    for k in (1, 2, 999, 2001, 2499):
        assert allocate(loads[k], [mass] * 2500) == k
        if k > 1:
            assert allocate(math.nextafter(loads[k], 0), [mass] * 2500) == k - 1
        assert allocate(math.nextafter(loads[k], 1), [mass] * 2500) == k
    # After a heavy atom, a mass below half an ulp of the load leaves the
    # load unchanged: (capacity - load) // mass + 2 = 7 atoms, the whole
    # window fits and atoms remain, so windows repeat until the run is
    # spent.  Just above half an ulp, each addition rounds up a whole ulp,
    # so the 162-atom window ends after 100 atoms.
    ulp = math.ulp(0.25)
    assert allocate(0.25 + ulp, [0.25] + [ulp * 3 / 8] * 2000) == 2001
    assert allocate(0.25 + 100 * ulp, [0.25] + [ulp * 5 / 8] * 2000) == 101


def test_constructions_match_the_per_atom_greedy_on_benchmark_sources(monkeypatch) -> None:
    from srnglab import construction

    sources = (
        IID((F(9, 10), F(1, 10))),
        IID((F(3, 4), F(1, 4))),
        Markov((F(1, 2), F(1, 2)), ((F(9, 10), F(1, 10)), (F(1, 5), F(4, 5)))),
        Mixture((F(1, 2), F(1, 2)), (IID((F(9, 10), F(1, 10))), IID((F(1, 5), F(4, 5))))),
    )
    for variant in sources:
        exact_dist = expand(SourceModel(variant, 10))
        float_dist = AtomicDistribution.from_masses(exact_dist.masses, 10, 2, exact=False)
        for dist in (exact_dist, float_dist):
            built = [
                build_mapping(dist, 1024, F(1, 20)),
                build_smooth_entropy_mapping(dist, variational(), F(1, 10), F(1, 20)),
            ]
            with monkeypatch.context() as patch:
                patch.setattr(
                    construction,
                    "_greedy_allocate",
                    lambda d, core, start, core_mass: per_atom_greedy(
                        d, core, sort_descending(d)[start:len(d.support())], core_mass
                    ),
                )
                expected = [
                    build_mapping(dist, 1024, F(1, 20)),
                    build_smooth_entropy_mapping(dist, variational(), F(1, 10), F(1, 20)),
                ]
            assert built == expected
            assert all(trace.pool and not trace.flags for _, trace in built)


def test_entropy_prefix_arguments_and_trace_kinds_are_checked() -> None:
    dist = expand(SourceModel(IID((F(3, 4), F(1, 4))), 2))
    for gamma in (0, F(-1, 10)):
        with pytest.raises(OutOfRange) as excinfo:
            build_smooth_entropy_mapping(dist, variational(), F(1, 10), gamma)
        assert str(excinfo.value) == f"slack exponent must be positive, got {gamma}"
    with pytest.raises(OutOfRange) as excinfo:
        build_smooth_entropy_mapping(dist, variational(), F(-1, 10), F(1, 10))
    assert str(excinfo.value) == "divergence budget must be nonnegative, got -1/10"
    _, trace = build_smooth_entropy_mapping(dist, variational(), F(1, 10), F(1, 10))
    with pytest.raises(InvalidModel) as excinfo:
        achievability_bound(trace, variational())
    assert str(excinfo.value) == "bound applies to spectrum_split traces, got entropy_prefix"


def test_entropy_prefix_rejects_curves_that_are_not_nonincreasing() -> None:
    # f^{-1}(delta) is a budget only for nonincreasing curves.  kl has
    # f(0+) = 0 <= 1/10 and would get a one-atom core whose mapping sits at
    # kl divergence inf; e_gamma_sum:2 would get one at 37/64 > 1/10.
    dist = expand(SourceModel(IID((F(3, 4), F(1, 4))), 4))
    for curve in (kl(), e_gamma_sum(2)):
        with pytest.raises(OutOfRange) as excinfo:
            build_smooth_entropy_mapping(dist, curve, F(1, 10), F(1, 20))
        assert str(excinfo.value) == (
            "the entropy-prefix construction is only proved for nonincreasing curves, "
            f"not {curve.name}"
        )


def test_greedy_with_no_core_allocates_nothing() -> None:
    from srnglab.construction import _greedy_allocate

    dist = single_letter(F(1, 2), F(1, 4), F(1, 8), F(1, 8))
    # No representative to merge onto: no allocation, and the stop index
    # sits before the first position.
    assert _greedy_allocate(dist, (), 2, F(1)) == ((), -1)


def test_conditional_is_the_source_restricted_to_the_core() -> None:
    sources = (
        IID((F(3, 4), F(1, 4))),
        IID((F(1, 2), F(1, 3), F(1, 6))),
        Markov((F(1, 2), F(1, 2)), ((F(9, 10), F(1, 10)), (F(1, 5), F(4, 5)))),
    )
    checked = 0
    for variant in sources:
        exact_dist = expand(SourceModel(variant, 4))
        float_dist = AtomicDistribution.from_masses(
            exact_dist.masses, 4, exact_dist.alphabet_size, exact=False
        )
        for dist in (exact_dist, float_dist):
            traces = [build_mapping(dist, m, F(1, 40))[1] for m in (2, 4, 16)]
            traces += [
                build_smooth_entropy_mapping(dist, variational(), delta, F(1, 100))[1]
                for delta in (F(1, 10), F(1, 3))
            ]
            for trace in traces:
                conditional = trace.conditional
                if conditional is None:
                    continue
                assert conditional.exact == dist.exact
                in_core = set(trace.core)
                for x, mass in enumerate(conditional.masses):
                    if x in in_core:
                        assert mass == dist.masses[x] / trace.core_mass
                        assert type(mass) is type(dist.masses[x])
                    else:
                        assert mass == 0
                checked += 1
    assert checked >= 20
