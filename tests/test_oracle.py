"""Exhaustive searches: values, reductions, caps, and frozen results."""

from __future__ import annotations

import gc
import itertools
import json
import math
import operator
import random
import time
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

from srnglab import (
    AtomicDistribution,
    CapExceeded,
    FCurve,
    IID,
    Markov,
    OutOfRange,
    SourceModel,
    apply_mapping,
    build_mapping,
    curve_from_name,
    divergence,
    e_gamma_sum,
    expand,
    hellinger,
    kl,
    min_fdiv_bruteforce,
    min_fdiv_bruteforce_full,
    min_set_bruteforce,
    smooth_max_entropy,
    variational,
)
from srnglab import oracle
from srnglab.divergence import _numeric_convex, _term, registered_curve_names
from srnglab.oracle import (
    _candidates, _is_rational, _iter_plans, _margin, _partition_walk, _search, _set_partitions,
    _total,
)

F = Fraction

FIXTURES = Path(__file__).parent / "fixtures" / "oracle_fixtures.json"


def single_letter(*masses: Fraction) -> AtomicDistribution:
    return AtomicDistribution.from_masses(list(masses), 1, len(masses))


def decode(text: str):
    if "/" in text:
        return Fraction(text)
    return float(text)


def recursive_set_partitions(items, max_blocks):
    """The recursive restricted-growth generator the oracle walked before
    its iterative one: one generator level per item."""
    n = len(items)
    if n == 0:
        return
    labels = [0] * n

    def rec(i, used):
        if i == n:
            blocks = [[] for _ in range(used)]
            for item, lab in zip(items, labels):
                blocks[lab].append(item)
            yield tuple(tuple(b) for b in blocks)
            return
        for lab in range(min(used + 1, max_blocks)):
            labels[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    yield from rec(1, 1)


def iterative_partition_walk(items, max_blocks, values, zero, dead=None):
    """The iterative restricted-growth walk the oracle used before its
    recursion: a label stack, and a lift-off loop that pops the items past
    the last label that can still grow."""
    n = len(items)
    if n == 0:
        return
    labels = [0] * n
    limits = [0] * n
    blocks = [[items[0]]]
    runs = [[zero + values[items[0]]]]
    placed = 1
    while True:
        if dead is None or not dead(placed, runs):
            if placed == n:
                yield blocks, runs
            else:
                x = items[placed]
                labels[placed] = 0
                limits[placed] = min(len(blocks), max_blocks - 1)
                blocks[0].append(x)
                runs[0].append(runs[0][-1] + values[x])
                placed += 1
                continue
        i = placed - 1
        while i and labels[i] >= limits[i]:
            label = labels[i]
            blocks[label].pop()
            runs[label].pop()
            if not blocks[label]:
                blocks.pop()
                runs.pop()
            i -= 1
        if not i:
            return
        blocks[labels[i]].pop()
        runs[labels[i]].pop()
        label = labels[i] = labels[i] + 1
        x = items[i]
        if label == len(blocks):
            blocks.append([x])
            runs.append([zero + values[x]])
        else:
            blocks[label].append(x)
            runs[label].append(runs[label][-1] + values[x])
        placed = i + 1


def hashed_dead(placed, runs):
    """A deterministic walk hook: prunes some prefixes, chosen from the
    placed count and the blocks' last running totals, so that a walk that
    passed other totals would prune other prefixes."""
    return hash((placed, *(run[-1] for run in runs))) % 4 == 1


def alive(partitions, items, values, zero, dead):
    """The partitions none of whose prefixes, of 1 to len(items) placed
    items, the full partition included, dead declares dead; a prefix's runs
    are its blocks' running totals from zero, blocks by first member."""
    for blocks in partitions:
        for i in range(1, len(items) + 1):
            placed = items[:i]
            runs = [
                list(itertools.accumulate((values[x] for x in b if x in placed), initial=zero))[1:]
                for b in blocks if b[0] in placed
            ]
            if dead(i, runs):
                break
        else:
            yield blocks


# ---------------------------------------------------------------------------
# anchors


def test_tent_distribution_two_codewords() -> None:
    d = single_letter(F(4, 10), F(3, 10), F(2, 10), F(1, 10))
    res = min_fdiv_bruteforce(d, 2, [variational()])["variational"]
    assert res.value == F(3, 10)
    assert res.exact
    # Pairing the two heaviest atoms against the two lightest achieves it.
    assert res.plan.blocks == ((0, 1), (2, 3))
    assert res.plan.representatives == (0, 1)


def test_fair_coin_single_codeword_hellinger() -> None:
    d = single_letter(F(1, 2), F(1, 2))
    res = min_fdiv_bruteforce(d, 1, [hellinger()])["hellinger"]
    assert res.value == pytest.approx(1 - 1 / math.sqrt(2))


def test_single_codeword_variational_is_one_minus_mode() -> None:
    d = single_letter(F(9, 20), F(1, 4), F(3, 20), F(1, 10), F(1, 20))
    res = min_fdiv_bruteforce(d, 1, [variational()])["variational"]
    assert res.value == F(11, 20)
    assert res.plan.representatives == (0,)


def test_enough_codewords_reach_zero() -> None:
    d = single_letter(F(1, 2), F(1, 3), F(1, 6))
    res = min_fdiv_bruteforce(d, 3, [variational()])["variational"]
    assert res.value == 0
    assert res.exact


# ---------------------------------------------------------------------------
# the reduced and unreduced searches agree


def test_full_search_confirms_the_reduction() -> None:
    instances = (
        single_letter(F(4, 10), F(3, 10), F(2, 10), F(1, 10)),
        single_letter(F(1, 2), F(1, 3), F(1, 6)),
        single_letter(F(9, 16), F(3, 16), F(3, 16), F(1, 16)),
        # A zero-mass atom: full mode also ranges representatives over it.
        single_letter(F(1, 2), F(0), F(1, 4), F(1, 4)),
    )
    curves = [variational(), hellinger(), curve_from_name("e_gamma:2")]
    for d in instances:
        for m in (1, 2, 3):
            fast = min_fdiv_bruteforce(d, m, curves)
            full = min_fdiv_bruteforce_full(d, m, curves)
            for name, res in fast.items():
                assert full[name].value == res.value, (name, m)


def test_full_search_handles_curves_outside_the_reduction() -> None:
    # kl has infinite slope at infinity, so uncovered support is fatal and
    # the reduced heaviest-k argument does not apply; the full search is
    # the only baseline and must cover the support with m = support size.
    d = single_letter(F(1, 2), F(1, 4), F(1, 4))
    res = min_fdiv_bruteforce_full(d, 3, [kl()])["kl"]
    assert res.value == 0


def test_reduced_search_rejects_a_curve_that_is_not_convex() -> None:
    # 1 - t^2 on (0, 1) and 0 beyond is nonincreasing with zero slope at
    # infinity but concave on (0, 1), so its terms form no Monge array and
    # the co-monotone skip would drop the best plan: here it reported 21/76
    # against the true 51/190.  The full search sums every plan.
    cap = FCurve("cap", lambda t: 1 - t * t if t < 1 else t - t, F(1), F(0))
    dist = single_letter(*(F(w, 19) for w in (9, 7, 1, 2)))
    with pytest.raises(OutOfRange, match="cap is not convex.*min_fdiv_bruteforce_full"):
        min_fdiv_bruteforce(dist, 2, [variational(), cap])
    assert min_fdiv_bruteforce_full(dist, 2, [cap])["cap"].value == F(51, 190)
    inverse = FCurve("inverse", lambda t: 1 / t - 1, math.inf, F(0))
    # Every registered curve reads as convex, also where a large gamma
    # cancels large intermediates.
    for curve in registered_curves() + [curve_from_name(f"e_gamma:{10**12}"), inverse]:
        assert _numeric_convex(curve), curve.name


# ---------------------------------------------------------------------------
# the single pass agrees with a float scan followed by an exact rescan


def whole_space_plans(dist, m, full):
    """Every plan with representatives over the whole space, zero-mass
    outcomes included, in the search's order."""
    support = dist.support()
    for blocks in _set_partitions(support, min(m, len(support))):
        q_masses = tuple(map(dist._mass_of, blocks))
        for reps in itertools.permutations(range(len(dist.masses)), len(blocks)):
            yield blocks, reps, q_masses


def two_pass_search(dist, m, curves, full, band, enumerate_plans=_iter_plans):
    """Reference: scan every plan in floats, then rescan every plan within
    band of the float minimum in exact arithmetic, keeping the first strict
    exact minimum.  Returns name -> (value, exact, blocks, representatives).
    """
    support_mass = sum(mass for mass in dist.masses if mass > 0)

    def value(curve, reps, q_masses, as_float):
        total = covered = 0
        for y, q in zip(reps, q_masses):
            p = dist.masses[y]
            if p > 0:
                covered = covered + p
            term = _term(curve, float(p), float(q)) if as_float else _term(curve, p, q)
            if term == math.inf:
                return math.inf
            total = total + term
        uncovered = support_mass - covered
        if uncovered > 0:
            stray = _term(curve, float(uncovered) if as_float else uncovered, 0)
            if stray == math.inf:
                return math.inf
            total = total + stray
        return float(total) if as_float else total

    best, plans, exact = {}, {}, {}
    for blocks, reps, q_masses in enumerate_plans(dist, m, full):
        for curve in curves:
            v = value(curve, reps, q_masses, True)
            if curve.name not in best or v < best[curve.name]:
                best[curve.name], plans[curve.name] = v, (blocks, reps)
    refine = [c for c in curves if dist.exact and isinstance(c.eval_at(F(1, 2)), (int, Fraction))]
    for blocks, reps, q_masses in enumerate_plans(dist, m, full) if refine else ():
        for curve in refine:
            if value(curve, reps, q_masses, True) > best[curve.name] + band:
                continue
            v = value(curve, reps, q_masses, False)
            if curve.name not in exact or v < exact[curve.name]:
                exact[curve.name], plans[curve.name] = v, (blocks, reps)
    return {name: (exact.get(name, best[name]), name in exact) + plans[name] for name in best}


def test_single_pass_matches_the_two_pass_reference() -> None:
    fast = [curve_from_name(c) for c in ("variational", "reverse_kl", "hellinger", "e_gamma:2")]
    slow = fast + [curve_from_name("e_gamma_sum:3/2"), kl()]
    rng = random.Random(20231126)
    instances = [expand(SourceModel(IID((F(1, 4), F(3, 4))), 2))]
    while len(instances) < 100:
        weights = [rng.choice((0, 1, 1, 2, 3, 3, 5)) for _ in range(rng.randint(1, 4))]
        if sum(weights):
            masses = [F(w, sum(weights)) for w in weights]
            if rng.random() < 0.4:
                masses = [float(x) for x in masses]
            instances.append(AtomicDistribution.from_masses(masses, 1, len(masses)))
    compared = infinite = 0
    for index, dist in enumerate(instances):
        m = 1 + index % 3
        for full, curves in ((False, fast), (True, slow)):
            search = min_fdiv_bruteforce_full if full else min_fdiv_bruteforce
            got = search(dist, m, curves)
            for name, want in two_pass_search(dist, m, curves, full, math.inf).items():
                res = got[name]
                assert (res.value, res.exact, res.plan.blocks, res.plan.representatives) == want, (
                    dist.masses, m, full, name,
                )
                compared += 1
                infinite += want[0] == math.inf
    assert compared == 1000
    assert infinite > 0


def test_single_pass_matches_the_two_pass_reference_where_partitions_are_skipped() -> None:
    # At support 7 and m = 4 most partitions are skipped for each curve:
    # their lowest total does not lower the running best.  In the reduced
    # search that lowest total is read as the co-monotone one, the heaviest
    # block against the heaviest representative (a convex curve's terms
    # form a Monge array): exactly in integers, and in floats less a derived
    # rounding margin, so a skip never drops a plan that would lower the
    # best.  Partitions that are not skipped, and those of the full search,
    # sum every plan.  The near-tie case is scanned in integers, where float
    # values would misorder its plans.  e_gamma_sum:3/2 leaves a nonzero
    # stray term, and in full mode kl's stray and the zero-mass terms of
    # reverse_kl and 1/t - 1 are infinite; 1/t - 1 is rational, so its
    # integer table holds those infinities.
    tied = single_letter(*(F(w, 14) for w in (3, 3, 2, 2, 2, 1, 1)))
    distinct = single_letter(*(F(w, 28) for w in (7, 6, 5, 4, 3, 2, 1)))
    # Masses apart by less than float resolution: float values misorder
    # plans, so a float scan would report another witness.
    e = 10**17
    weights = (10 * e, 5 * e + 1, 4 * e + 2, 4 * e + 1)
    near = single_letter(*(F(w, sum(weights)) for w in weights))
    with_zero = single_letter(F(4, 10), F(3, 10), F(2, 10), F(1, 10), F(0))
    stray = [e_gamma_sum(F(3, 2))]
    inverse = FCurve("inverse", lambda t: 1 / t - 1, math.inf, F(0))
    cases = [
        (tied, 4, False, stray),
        (distinct, 4, False, stray),
        (near, 3, False, [variational(), curve_from_name("e_gamma:2")]),
        (with_zero, 4, True, [kl(), curve_from_name("reverse_kl"), inverse] + stray),
    ]
    for dist, m, full, curves in cases:
        got = _search(dist, m, curves, full)
        for name, want in two_pass_search(dist, m, curves, full, math.inf).items():
            res = got[name]
            assert (res.value, res.exact, res.plan.blocks, res.plan.representatives) == want, (
                dist.masses, m, full, name,
            )
    assert _search(with_zero, 4, [inverse], True)["inverse"].exact


def registered_curves():
    """Every registered curve, the families at two parameters each; a large
    gamma makes e_gamma's float evaluation cancel large intermediates."""
    names = [n for n in registered_curve_names() if not n.endswith(":G")]
    names += ["e_gamma:2", "e_gamma:1000", "e_gamma_sum:3/2", "e_gamma_sum:7"]
    return [curve_from_name(name) for name in names]


def random_source(rng, size, near):
    """An exact single-letter source and its float twin; near-tie weights
    differ by less than float resolution relative to their size."""
    base = 10**8 if near else 1
    weights = [base + rng.randint(0, 2 if near else 9) for _ in range(size)]
    if size > 1 and rng.random() < 0.2:
        weights[rng.randrange(size)] = 0
    exact = single_letter(*(F(w, sum(weights)) for w in weights))
    return exact, AtomicDistribution.from_masses([float(x) for x in exact.masses], 1, size)


def test_co_monotone_total_is_the_lowest_plan_total() -> None:
    # The Monge claim behind the reduced search's skip: with block masses
    # heaviest first against the pool heaviest first, the co-monotone total
    # is exactly the lowest plan total in exact arithmetic, and in floats
    # the co-monotone total minus the derived margin is at most every
    # plan's float total, on exact sources and their float twins.
    rng = random.Random(16)
    curves = registered_curves()
    exact_checks = float_checks = rounded_above = 0
    for trial in range(120):
        exact_source, float_source = random_source(rng, rng.randint(1, 8), near=trial % 2 == 1)
        support = exact_source.support()
        k = rng.randint(1, min(4, len(support)))
        labels = list(range(k)) + [rng.randrange(k) for _ in support[k:]]
        rng.shuffle(labels)
        blocks = [tuple(x for x, label in zip(support, labels) if label == j) for j in range(k)]
        perms = list(itertools.permutations(range(k)))
        for dist in (exact_source, float_source):
            pool = _candidates(dist, k, False)
            support_mass = dist._mass_of(support)
            q_masses = [dist._mass_of(b) for b in blocks]
            q_desc = sorted(q_masses, reverse=True)
            loose = [support_mass - dist._mass_of(pool[j] for j in perm) for perm in perms]
            for curve in curves:
                if dist.exact and _is_rational(curve):
                    def exact_total(reps, qs, left):
                        terms = [_term(curve, dist.masses[y], q) for y, q in zip(reps, qs)]
                        return sum(terms) + _term(curve, left, 0)

                    totals = [
                        exact_total([pool[j] for j in perm], q_masses, left)
                        for perm, left in zip(perms, loose)
                    ]
                    co_monotone = exact_total(pool, q_desc, loose[0])
                    assert co_monotone == min(totals), (dist.masses, curve.name)
                    exact_checks += 1
                # Floats, as the oracle tables them: masses and block masses
                # rounded once, strays per plan, totals left to right.
                floats = [float(x) for x in dist.masses]
                rows = {float(q): [_term(curve, floats[y], float(q)) for y in pool]
                        for q in q_masses}
                strays = [_term(curve, float(left), 0) if left > 0 else -0.0 for left in loose]
                totals = [
                    _total((rows[float(q)][j] for q, j in zip(q_masses, perm)), stray)
                    for perm, stray in zip(perms, strays)
                ]
                bound = min(strays)
                for column, q in enumerate(q_desc):
                    bound = bound + rows[float(q)][column]
                margin = _margin(curve, k, rows, {k: strays}, floats[pool[0]], float(max(q_masses)))
                assert bound - margin <= min(totals), (dist.masses, curve.name, bound, margin)
                assert margin < 1e-10
                float_checks += 1
                rounded_above += bound > min(totals)
    assert exact_checks > 500 and float_checks > 1500
    # Rounding does put the co-monotone float total above the lowest one
    # at times: without the margin, those partitions could be skipped wrongly.
    assert rounded_above > 0


def head_scan(dist, m, k_max, layouts, tables, skips):
    """The oracle's scan before the co-monotone skip: every partition sums
    all of its plans for every curve before its skip test; skips is unused."""
    values = dist._values
    zero = 0 if dist.exact else 0.0
    best = [math.inf] * len(tables)
    best_plan = [None] * len(tables)
    for blocks in _set_partitions(dist.support(), k_max):
        q_values = [reduce(operator.add, map(values.__getitem__, b), zero) for b in blocks]
        k = len(blocks)
        perms, columns, reps, _ = layouts[k]
        for i, (rows, strays) in enumerate(tables):
            terms = [rows[q] for q in q_values]
            totals = [0] * len(perms)
            for row, column in zip(terms, columns):
                totals = list(map(operator.add, totals, map(row.__getitem__, column)))
            totals = list(map(operator.add, totals, strays[k]))
            if math.inf not in totals:
                if min(totals) >= best[i]:
                    continue
            else:
                totals = [
                    _total(map(operator.getitem, terms, perm), stray)
                    for perm, stray in zip(perms, strays[k])
                ]
            for j, value in enumerate(totals):
                if best_plan[i] is None or value < best[i]:
                    best[i], best_plan[i] = value, oracle.PartitionPlan(blocks, reps[j], m)
    return best, best_plan


def test_co_monotone_skip_matches_the_unskipped_scan(monkeypatch) -> None:
    # Random, near-tie and float sources with every registered curve: the
    # reduced search with the co-monotone skip reports the same values,
    # arithmetic and witnesses as the scan that sums every plan.
    rng = random.Random(1616)
    curves = registered_curves()
    instances = [single_letter(*(F(w, 3 * 10**8 + 3) for w in (10**8, 10**8 + 1, 10**8 + 2)))]
    while len(instances) < 48:
        exact, twin = random_source(rng, rng.randint(1, 8), near=len(instances) % 3 == 0)
        instances.append(twin if rng.random() < 0.4 else exact)
    cases = [(dist, 1 + index % 4) for index, dist in enumerate(instances)]
    # Sources where many partitions share one tuple of block masses, so the
    # scan reads most co-monotone totals back from its per-tuple store: the
    # criterion-7 source (251 tuples over 2 795 partitions at m = 4), a
    # uniform support, and the float twin of each.
    criterion7 = expand(SourceModel(IID((F(3, 4), F(1, 4))), 3))
    uniform = single_letter(*[F(1, 8)] * 8)
    for dist in (criterion7, uniform):
        twin = AtomicDistribution.from_masses(
            [float(x) for x in dist.masses], dist.n, dist.alphabet_size
        )
        cases += [(source, m) for source in (dist, twin) for m in (2, 3, 4)]
    got = [min_fdiv_bruteforce(dist, m, curves) for dist, m in cases]
    monkeypatch.setattr(oracle, "_scan", head_scan)
    for (dist, m), results in zip(cases, got):
        for name, want in min_fdiv_bruteforce(dist, m, curves).items():
            res = results[name]
            assert (res.value, res.exact, res.plan.blocks, res.plan.representatives) == (
                want.value, want.exact, want.plan.blocks, want.plan.representatives
            ), (dist.masses, m, name)


def co_monotone(rows, low, q_desc, margin):
    """The co-monotone total less the margin, as the oracle computed it
    before subtree pruning: the lowest stray, then the i-th heaviest
    block's term at pool position i; -inf where the total is infinite, so
    such a partition is never skipped."""
    total = low
    for column, q in enumerate(q_desc):
        total = total + rows[q][column]
    return -math.inf if total == math.inf else total - margin


def partition_scan(dist, m, k_max, layouts, tables, skips):
    """The oracle's scan before subtree pruning: the walk yields every
    partition, and each one is skipped, or not, from its own co-monotone
    totals, kept per tuple of block masses."""
    best = [math.inf] * len(tables)
    best_plan = [None] * len(tables)
    seen = {}
    zero = 0 if dist.exact else 0.0
    for blocks, runs in _partition_walk(dist.support(), k_max, dist._values, zero):
        q_values = [run[-1] for run in runs]
        if skips:
            q_desc = tuple(sorted(q_values, reverse=True))
            floors = seen.get(q_desc)
            if floors is None:
                floors = seen[q_desc] = [
                    co_monotone(rows, lows[len(q_desc)], q_desc, margin)
                    for (rows, _), (lows, margin) in zip(tables, skips)
                ]
            if all(map(operator.ge, floors, best)):
                continue
        k = len(blocks)
        perms, columns, reps, _ = layouts[k]
        plan_blocks = None
        for i, (rows, strays) in enumerate(tables):
            if skips and floors[i] >= best[i]:
                continue
            totals = [0] * len(perms)
            for q, column in zip(q_values, columns):
                totals = list(map(operator.add, totals, map(rows[q].__getitem__, column)))
            totals = list(map(operator.add, totals, strays[k]))
            if best_plan[i] is not None and min(totals) >= best[i]:
                continue
            for j, value in enumerate(totals):
                if best_plan[i] is None or value < best[i]:
                    if plan_blocks is None:
                        plan_blocks = tuple(map(tuple, blocks))
                    best[i], best_plan[i] = value, oracle.PartitionPlan(plan_blocks, reps[j], m)
    return best, best_plan


def float_twin(dist):
    return AtomicDistribution.from_masses(
        [float(x) for x in dist.masses], dist.n, dist.alphabet_size
    )


def test_pruned_scan_matches_the_partition_by_partition_scan(monkeypatch) -> None:
    # The reduced search skips a prefix's whole subtree when, for every
    # curve, the least co-monotone total of its completions is at least the
    # best: exactly when the scan would skip each of those partitions one
    # at a time.  Values, arithmetic and witnesses are those of the scan
    # that visits every partition, on tied, distinct, near-tie and float
    # sources, with every registered curve.
    curves = registered_curves()
    criterion7 = expand(SourceModel(IID((F(3, 4), F(1, 4))), 3))
    weights = single_letter(*(F(w, 55) for w in range(10, 0, -1)))
    chain = Markov((F(1, 2), F(1, 2)), ((F(9, 10), F(1, 10)), (F(1, 5), F(4, 5))))
    cases = [(source, m) for source in (criterion7, float_twin(criterion7)) for m in (1, 2, 3, 4)]
    cases += [(single_letter(*[F(1, size)] * size), 4) for size in (8, 10)]
    cases += [(weights, 4)]
    cases += [(expand(SourceModel(model, 3)), m)
              for model in (IID((F(2, 3), F(1, 3))), chain) for m in (2, 4)]
    rng = random.Random(27)
    for _ in range(20):
        exact, twin = random_source(rng, rng.randint(2, 8), near=True)
        cases.append((twin if rng.random() < 0.4 else exact, rng.randint(1, 4)))

    # kl leaves mass uncovered at infinite cost in every plan once m is
    # below the support size, so its best is +inf; once it has its witness
    # it is settled wherever its floor is +inf too.  Every case runs
    # without it; the small ones run again with it.
    finite = [curve for curve in curves if curve.name != "kl"]
    searches = [(dist, m, finite) for dist, m in cases]
    searches += [(dist, m, curves) for dist, m in cases if len(dist.support()) <= 8]
    # The float twin of weights 10..1 keeps most partitions, as a float tie
    # with the best is never skipped, so it takes each family at one
    # parameter: the second ones double its time.
    one_each = [curve_from_name(name.replace(":G", ":2")) for name in registered_curve_names()]
    searches.append((float_twin(weights), 4, [c for c in one_each if c.name != "kl"]))

    # With the criterion-7 command's curves, criterion 7 at m = 4 reaches
    # few of its 2 795 partitions; with kl beside them, whose every plan is
    # infinite there, it reaches no more.
    reached = 0

    def counted_walk(*args, **kwargs):
        nonlocal reached
        for partition in _partition_walk(*args, **kwargs):
            reached += 1
            yield partition

    monkeypatch.setattr(oracle, "_partition_walk", counted_walk)
    four = [curve_from_name(c) for c in ("variational", "reverse_kl", "hellinger", "e_gamma:2")]
    min_fdiv_bruteforce(criterion7, 4, four)
    assert 0 < reached <= 279
    without_kl, reached = reached, 0
    min_fdiv_bruteforce(criterion7, 4, four + [kl()])
    assert reached <= without_kl, (reached, without_kl)
    monkeypatch.setattr(oracle, "_partition_walk", _partition_walk)
    got = [min_fdiv_bruteforce(dist, m, chosen) for dist, m, chosen in searches]
    monkeypatch.setattr(oracle, "_scan", partition_scan)
    for (dist, m, chosen), results in zip(searches, got):
        for name, want in min_fdiv_bruteforce(dist, m, chosen).items():
            res = results[name]
            assert (res.value, res.exact, res.plan.blocks, res.plan.representatives) == (
                want.value, want.exact, want.plan.blocks, want.plan.representatives
            ), (dist.masses, m, name)


def test_searches_leave_no_cyclic_garbage() -> None:
    # The pruning hook and its memoised bound must not tie themselves into
    # reference cycles: every search's objects are freed by reference
    # counts alone, so nothing is left for the cycle collector.
    dist = expand(SourceModel(IID((F(3, 4), F(1, 4))), 3))
    curves = [curve_from_name(c) for c in ("variational", "reverse_kl", "hellinger", "e_gamma:2")]
    small = single_letter(F(4, 10), F(3, 10), F(2, 10), F(1, 10))
    gc.collect()
    gc.disable()
    try:
        min_fdiv_bruteforce(dist, 4, curves)
        min_fdiv_bruteforce(float_twin(dist), 4, curves)
        min_fdiv_bruteforce_full(small, 3, curves + [kl()])
        # A walk abandoned after its first partition is closed through its
        # suspended levels.
        walk = _partition_walk(list(range(6)), 3, list(range(6)), 0, hashed_dead)
        next(walk)
        del walk
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_full_search_tries_only_the_first_zero_mass_outcomes() -> None:
    # A deterministic chain: two sequences carry all the mass, and every
    # other outcome is an interchangeable zero-mass representative.
    flip = Markov((F(1, 2), F(1, 2)), ((F(0), F(1)), (F(1), F(0))))
    curves = [kl(), curve_from_name("reverse_kl"), variational(), e_gamma_sum(F(3, 2))]
    six = expand(SourceModel(flip, 6))
    got = min_fdiv_bruteforce_full(six, 2, curves)
    whole = two_pass_search(six, 2, curves, True, math.inf, enumerate_plans=whole_space_plans)
    for name, want in whole.items():
        res = got[name]
        assert (res.value, res.exact, res.plan.blocks, res.plan.representatives) == want, name
    twelve = expand(SourceModel(flip, 12))
    assert len(twelve.masses) == 4096
    start = time.perf_counter()
    res = min_fdiv_bruteforce_full(twelve, 2, [kl()])["kl"]
    assert time.perf_counter() - start < 5
    assert res.value == 0
    assert res.plan.representatives == twelve.support()


def test_witness_is_the_first_plan_when_every_plan_is_infinite() -> None:
    # kl puts inf on every uncovered atom, and with m below the support
    # size every plan leaves one uncovered: every total is inf, so the
    # witness is the first plan, the whole support onto the first candidate.
    for exact in (True, False):
        d = AtomicDistribution.from_masses([F(0), F(1, 2), F(1, 4), F(1, 4)], 1, 4, exact=exact)
        for m in (1, 2):
            res = min_fdiv_bruteforce_full(d, m, [kl()])["kl"]
            assert res.value == math.inf
            assert res.plan == oracle.PartitionPlan(((1, 2, 3),), (0,), m)


def test_exact_refinement_follows_the_curve_arithmetic() -> None:
    d = single_letter(F(4, 10), F(3, 10), F(2, 10), F(1, 10))
    custom = FCurve("half_l1", variational().eval_at, F(1), F(0))
    res = min_fdiv_bruteforce(d, 2, [custom])["half_l1"]
    assert res.exact and res.value == F(3, 10)
    # A float gamma keeps e_gamma_sum in floats even below the kink, so its
    # minimum is reported as a float, not as an exact value.
    loose, tight = e_gamma_sum(1.5), e_gamma_sum(F(3, 2))
    assert isinstance(loose.eval_at(F(1, 2)), float)
    got = min_fdiv_bruteforce_full(d, 2, [loose, tight])
    assert not got[loose.name].exact and isinstance(got[loose.name].value, float)
    assert got[tight.name].exact
    assert got[loose.name].value == pytest.approx(float(got[tight.name].value))
    # A float term, here f(0) at a zero-mass representative, keeps a
    # rational curve in floats: an exact sum cannot take it.
    with_zero = single_letter(F(4, 10), F(3, 10), F(2, 10), F(1, 10), F(0))
    float_zero = FCurve("float_zero", variational().eval_at, 1.0, F(0))
    got = min_fdiv_bruteforce_full(with_zero, 2, [float_zero, variational()])
    assert not got["float_zero"].exact and isinstance(got["float_zero"].value, float)
    assert got["float_zero"].value == pytest.approx(float(got["variational"].value))


# ---------------------------------------------------------------------------
# the oracle lower-bounds the construction


def test_oracle_never_exceeds_the_construction() -> None:
    for n in (1, 2, 3):
        d = expand(SourceModel(IID((F(1, 4), F(3, 4))), n))
        for m in (1, 2, 3):
            mapping, _ = build_mapping(d, m, F(1, 10))
            built = divergence(d, apply_mapping(d, mapping), variational())
            res = min_fdiv_bruteforce(d, m, [variational()])["variational"]
            assert res.value <= built


# ---------------------------------------------------------------------------
# subset search


def test_min_set_matches_greedy_sizes() -> None:
    instances = (
        single_letter(F(4, 10), F(3, 10), F(2, 10), F(1, 10)),
        single_letter(F(1, 4), F(1, 4), F(1, 4), F(1, 4)),
        expand(SourceModel(IID((F(1, 4), F(3, 4))), 3)),
        single_letter(F(9, 20), F(1, 4), F(3, 20), F(1, 10), F(1, 20)),
    )
    for d in instances:
        for delta in (F(0), F(1, 10), F(1, 4), F(7, 20), F(3, 5)):
            size, witness = min_set_bruteforce(d, delta)
            _, kept = smooth_max_entropy(d, delta)
            assert size == len(kept)
            assert sum(d.masses[x] for x in witness) >= 1 - delta
    # Ten float tenths add up, left to right, to just below 1, so no subset
    # reaches the target 1: both searches fall back to the whole support.
    tenths = AtomicDistribution.from_masses([0.1] * 10, 1, 10)
    assert reduce(operator.add, tenths.masses, 0.0) < 1.0
    _, kept = smooth_max_entropy(tenths, 0)
    assert min_set_bruteforce(tenths, 0) == (10, tuple(range(10))) == (len(kept), tenths.support())


def test_min_set_witness_is_lexicographically_first() -> None:
    d = single_letter(F(3, 10), F(3, 10), F(3, 10), F(1, 10))
    size, witness = min_set_bruteforce(d, F(4, 10))
    assert size == 2
    assert witness == (0, 1)


# ---------------------------------------------------------------------------
# caps and determinism


def test_caps_are_enforced() -> None:
    wide = AtomicDistribution.from_masses([F(1, 16)] * 16, 1, 16)
    with pytest.raises(CapExceeded):
        min_fdiv_bruteforce(wide, 2, [variational()])
    with pytest.raises(CapExceeded):
        min_set_bruteforce(wide, F(1, 10))
    small = single_letter(F(1, 2), F(1, 2))
    with pytest.raises(CapExceeded):
        min_fdiv_bruteforce(small, 5, [variational()])
    seven = AtomicDistribution.from_masses([F(1, 7)] * 7, 1, 7)
    with pytest.raises(CapExceeded):
        min_fdiv_bruteforce_full(seven, 2, [variational()])


def test_search_is_deterministic() -> None:
    d = single_letter(F(4, 10), F(3, 10), F(2, 10), F(1, 10))
    first = min_fdiv_bruteforce(d, 2, [variational(), hellinger()])
    second = min_fdiv_bruteforce(d, 2, [variational(), hellinger()])
    for name in first:
        assert first[name].plan == second[name].plan
        assert first[name].value == second[name].value


def test_plan_converts_to_a_valid_mapping() -> None:
    d = single_letter(F(4, 10), F(3, 10), F(2, 10), F(1, 10))
    res = min_fdiv_bruteforce(d, 2, [variational()])["variational"]
    mapping = res.plan.to_mapping(len(d.masses))
    achieved = divergence(d, apply_mapping(d, mapping), variational())
    assert achieved == res.value


# ---------------------------------------------------------------------------
# frozen results


def test_frozen_fixture_results_replay() -> None:
    records = json.loads(FIXTURES.read_text())
    assert len(records) == 60
    instances = {
        "tent4": single_letter(F(4, 10), F(3, 10), F(2, 10), F(1, 10)),
        "fair2": single_letter(F(1, 2), F(1, 2)),
        "bern_quarter_n2": expand(SourceModel(IID((F(1, 4), F(3, 4))), 2)),
        "bern_quarter_n3": expand(SourceModel(IID((F(1, 4), F(3, 4))), 3)),
        "skew5": single_letter(F(9, 20), F(1, 4), F(3, 20), F(1, 10), F(1, 20)),
    }
    by_key = {}
    for label, dist in instances.items():
        for m in (1, 2, 3):
            results = min_fdiv_bruteforce(
                dist, m, [curve_from_name(c) for c in
                          ("variational", "reverse_kl", "hellinger", "e_gamma:2")]
            )
            for name, res in results.items():
                by_key[(label, m, name)] = res
    for record in records:
        res = by_key[(record["instance"], record["m"], record["curve"])]
        expected = decode(record["value"])
        if record["exact"]:
            assert res.value == expected, record
        else:
            assert float(res.value) == pytest.approx(expected, abs=1e-15), record
        assert res.exact == record["exact"]
        assert list(res.plan.representatives) == record["representatives"], record
        assert [list(b) for b in res.plan.blocks] == record["blocks"], record


def test_set_partitions_match_the_recursive_generator() -> None:
    # Same partitions in the same order, blocks as tuples by first member,
    # for supports of 0 to 10 atoms (ids with gaps) and every block bound;
    # at 10 atoms, bounds past 4 are left out: each takes 87 000 to 116 000
    # partitions, some seconds.
    for size in range(11):
        items = [3 * i + 1 for i in range(size)]
        for max_blocks in range(1, min(size + 2, 5 if size == 10 else 11)):
            new = _set_partitions(items, max_blocks)
            old = recursive_set_partitions(items, max_blocks)
            for got, want in zip(new, old):
                assert got == want
            assert next(new, None) is None and next(old, None) is None
    # Bell numbers once the bound is the support size.
    assert [len(list(_set_partitions(range(size), size))) for size in range(8)] == [
        0, 1, 2, 5, 15, 52, 203, 877
    ]


def test_walk_skips_the_subtrees_of_dead_prefixes() -> None:
    # With a dead hook the walk yields, in the recursive generator's order,
    # exactly the partitions none of whose prefixes is dead, and asks the
    # hook about every prefix, full partitions included; a hook that is
    # never true changes nothing.  Integer values, ids with gaps.
    rng = random.Random(27)
    pruned = kept = 0
    for size in range(9):
        items = [3 * i + 1 for i in range(size)]
        values = {x: rng.randint(1, 9) for x in items}
        for max_blocks in range(1, 6):
            asked = []

            def dead(placed, runs):
                asked.append(placed)
                return hashed_dead(placed, runs)

            def walk(hook):
                walked = _partition_walk(items, max_blocks, values, 0, hook)
                return [tuple(map(tuple, blocks)) for blocks, _ in walked]

            everything = list(recursive_set_partitions(items, max_blocks))
            want = list(alive(everything, items, values, 0, hashed_dead))
            assert walk(dead) == want, (items, max_blocks)
            assert all(0 < placed <= size for placed in asked)
            assert walk(lambda placed, runs: False) == everything
            pruned += len(everything) - len(want)
            kept += len(want)
    assert pruned > 0 and kept > 0


def test_walk_running_totals_are_the_block_totals() -> None:
    # The scan reads each block's mass as its last running total from the
    # walk; it must be the total the oracle added before, left to right in
    # id order from 0 (0.0 in floats), bit for bit.  The float weights are
    # chosen so that addition order matters: some block sums differently
    # backwards, so a walk that added in another order would be caught.
    rng = random.Random(19)
    sources = [expand(SourceModel(IID((F(3, 4), F(1, 4))), 3))]
    for size in range(1, 9):
        weights = [rng.choice((1, 3, 7, 10**6, 10**16 + 1)) for _ in range(size)]
        exact = single_letter(*(F(w, sum(weights)) for w in weights))
        sources.append(exact)
        sources.append(AtomicDistribution.from_masses([float(x) for x in exact.masses], 1, size))
    # A walk pruned by hashed_dead carries the same totals through its
    # prefixes: hashed_dead reads them, so it prunes the prefixes alive
    # marks dead only if they match.
    order_matters = pruned = 0
    for dist in sources:
        values = dist._values
        zero = 0 if dist.exact else 0.0
        support = dist.support()
        for max_blocks, dead in itertools.product(range(1, 5), (None, hashed_dead)):
            walk = _partition_walk(support, max_blocks, values, zero, dead)
            old = recursive_set_partitions(support, max_blocks)
            if dead:
                everything = list(old)
                kept = list(alive(everything, support, values, zero, dead))
                pruned += len(everything) - len(kept)
                old = iter(kept)
            for (blocks, runs), want in zip(walk, old):
                assert tuple(map(tuple, blocks)) == want and len(runs) == len(blocks)
                for block, run in zip(blocks, runs):
                    assert run == list(itertools.accumulate(
                        (values[x] for x in block), initial=zero))[1:]
                    assert run[-1] == reduce(operator.add, map(values.__getitem__, block), zero)
                    assert type(run[-1]) is type(zero)
                    backwards = reduce(operator.add, map(values.__getitem__, block[::-1]), zero)
                    order_matters += backwards != run[-1]
            assert next(walk, None) is None and next(old, None) is None
    assert order_matters > 0 and pruned > 0


def test_walk_asks_and_yields_as_the_iterative_walk_did() -> None:
    # The scan's live list is left by the hook's last call, so the order
    # of the calls matters as well as the partitions: every (placed, runs)
    # the hook is asked and every partition yielded, with its running
    # totals, must be those of the iterative walk, in the same order.  The
    # item sets and sources of the two tests above, with hashed_dead, with
    # a hook that is never true, and with none.
    cases = []
    rng = random.Random(27)
    for size in range(9):
        items = [3 * i + 1 for i in range(size)]
        values = {x: rng.randint(1, 9) for x in items}
        cases += [(items, max_blocks, values, 0) for max_blocks in range(1, 6)]
    rng = random.Random(19)
    sources = [expand(SourceModel(IID((F(3, 4), F(1, 4))), 3))]
    for size in range(1, 9):
        weights = [rng.choice((1, 3, 7, 10**6, 10**16 + 1)) for _ in range(size)]
        exact = single_letter(*(F(w, sum(weights)) for w in weights))
        sources.append(exact)
        sources.append(AtomicDistribution.from_masses([float(x) for x in exact.masses], 1, size))
    for dist in sources:
        zero = 0 if dist.exact else 0.0
        cases += [(dist.support(), k, dist._values, zero) for k in range(1, 5)]

    def events(walk_fn, args, hook):
        seen = []

        def asked(placed, runs):
            seen.append((placed, [tuple(run) for run in runs]))
            return hook(placed, runs)

        for blocks, runs in walk_fn(*args, asked if hook else None):
            seen.append(([tuple(b) for b in blocks], [tuple(run) for run in runs]))
        return seen

    asks = 0
    for args in cases:
        for hook in (hashed_dead, lambda placed, runs: False, None):
            got = events(_partition_walk, args, hook)
            assert got == events(iterative_partition_walk, args, hook), (args, hook)
            asks += sum(isinstance(event[0], int) for event in got)
    assert asks > 0


def test_searches_read_only_their_pools_masses() -> None:
    # The searches read the masses of their candidate atoms one at a time,
    # so an expanded exact source never builds its masses tuple.
    curves = [curve_from_name(c) for c in ("variational", "reverse_kl", "hellinger", "e_gamma:2")]
    for n, search in ((3, min_fdiv_bruteforce), (2, min_fdiv_bruteforce_full)):
        dist = expand(SourceModel(IID((F(3, 4), F(1, 4))), n))
        search(dist, 3, curves)
        assert "masses" not in vars(dist), search


def test_search_arguments_out_of_range_are_rejected() -> None:
    dist = single_letter(F(1, 2), F(1, 3), F(1, 6))
    # m is checked before the caps, so an instance beyond them still names m.
    wide = AtomicDistribution.from_masses([F(1, 16)] * 16, 1, 16)
    for m in (0, -1):
        for search, instance in (
            (min_fdiv_bruteforce, dist),
            (min_fdiv_bruteforce, wide),
            (min_fdiv_bruteforce_full, wide),
        ):
            with pytest.raises(OutOfRange) as excinfo:
                search(instance, m, [variational()])
            assert str(excinfo.value) == f"codebook size must be positive, got {m}"
    for delta in (F(-1, 10), F(11, 10)):
        with pytest.raises(OutOfRange) as excinfo:
            min_set_bruteforce(dist, delta)
        assert str(excinfo.value) == f"tail budget must lie in [0, 1], got {delta}"
