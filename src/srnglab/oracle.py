"""Exhaustive baselines for small instances of the mapping problem.

A deterministic encoder-decoder pair with at most m decoded values is,
up to relabeling, a partition of the source support into at most m blocks
together with one distinct representative per block.  Enumerating those
partitions through restricted growth strings and the representative
assignments on top gives the true optimum of the divergence over every
mapping, which is what the constructions and bounds are tested against.

Two enumeration modes exist.  For nonincreasing curves with zero slope at
infinity the uncovered support contributes nothing and a representative is
never hurt by being heavier, so optimal representatives can be drawn from
the heaviest k atoms and only their k! block assignments matter.  The full
mode ranges representatives over the whole space, including zero-mass
outcomes; it is kept deliberately unreduced so the reduction itself can be
cross-checked on tiny instances.

The plans are scanned once.  Float terms come from one table per search,
a row per block mass over the candidate representatives, and each plan's
float value is the same sum, in the same order, as a term-by-term
evaluation: left to right from 0, then the uncovered-mass (stray) term,
which depends on the representatives alone.  All plans of one partition
are summed at once, and a partition whose lowest value is at least the
running float minimum and more than band above it is skipped for that
curve: none of its plans could lower the minimum or be refined.  When the
curve is rational and the source exact, the same scan re-evaluates in
exact arithmetic every plan whose float value lies within a small band of
the running float minimum, so reported minima compare exactly against the
constructions.  An exact total does not depend on term order, so it is
computed once per multiset of (representative, block) mass pairs.  The
running minimum only falls, so every plan within band of the final
minimum is refined when it is met.  A small Pareto front of
(float value, exact value, plan) keeps just the refined plans that can
still win, since ties on symmetric sources would otherwise pile up, and
the witness is the first strict exact minimum among the plans within band
of the final minimum: the plan a float scan followed by an exact rescan of
the band would report.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Sequence

from .construction import MappingPair
from .divergence import FCurve, _term
from .errors import CapExceeded, OutOfRange
from .probability import AtomicDistribution, Mass, sort_descending

__all__ = [
    "OracleResult",
    "PartitionPlan",
    "min_fdiv_bruteforce",
    "min_fdiv_bruteforce_full",
    "min_set_bruteforce",
]

#: Widest support the partition search will enumerate.
SUPPORT_CAP = 10

#: Widest support for the unreduced representative search.
FULL_SUPPORT_CAP = 6

#: Largest codebook either search will enumerate.
CODEBOOK_CAP = 4

#: Largest support the subset search will enumerate.
SUBSET_CAP = 14


@dataclass(frozen=True)
class PartitionPlan:
    """One candidate mapping: support blocks plus their representatives."""

    blocks: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    m: int

    def to_mapping(self, size: int) -> MappingPair:
        phi = [0] * size
        for j, block in enumerate(self.blocks):
            for x in block:
                phi[x] = j
        psi = tuple(self.representatives) + (self.representatives[-1],) * (
            self.m - len(self.representatives)
        )
        return MappingPair(tuple(phi), psi, self.m)


@dataclass(frozen=True)
class OracleResult:
    """The exhaustive minimum for one curve, with the plan achieving it."""

    curve: str
    value: Mass
    plan: PartitionPlan
    exact: bool


def _set_partitions(
    items: Sequence[int], max_blocks: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of items into at most max_blocks >= 1 nonempty blocks.

    Restricted growth: item 0 opens block 0 and each later item joins an
    existing block or opens the next one, so every partition appears
    exactly once, blocks ordered by first member.  The labels run through
    their strings in lexicographic order: the last label that can still
    grow does, and every label after it restarts at block 0.  Blocks list
    their items in order, so the items from the grown label on are the
    blocks' last ones, and only they move.
    """
    n = len(items)
    if n == 0:
        return
    labels = [0] * n
    # opened[i]: blocks opened by items before i, so item i's label is at
    # most min(opened[i], max_blocks - 1).
    opened = [1] * n
    blocks = [list(items)]
    while True:
        yield tuple(map(tuple, blocks))
        i = n - 1
        while i and labels[i] >= min(opened[i], max_blocks - 1):
            i -= 1
        if not i:
            return
        for j in range(n - 1, i - 1, -1):
            blocks[labels[j]].pop()
        del blocks[opened[i]:]
        labels[i] += 1
        if labels[i] == len(blocks):
            blocks.append([])
        blocks[labels[i]].append(items[i])
        labels[i + 1:] = [0] * (n - 1 - i)
        blocks[0].extend(items[i + 1:])
        opened[i + 1:] = [len(blocks)] * (n - 1 - i)


def _partitions(
    dist: AtomicDistribution, m: int
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[Mass, ...]]]:
    """Yield (blocks, block_masses) for every partition of the support."""
    support = dist.support()
    for blocks in _set_partitions(support, min(m, len(support))):
        yield blocks, tuple(map(dist._mass_of, blocks))


def _candidates(dist: AtomicDistribution, k: int, full: bool) -> list[int]:
    """The atoms k block representatives are drawn from, in order."""
    if full:
        return list(range(len(dist.masses)))
    heaviest = [x for x in sort_descending(dist) if dist.masses[x] > 0]
    return heaviest[:k]


def _iter_plans(
    dist: AtomicDistribution, m: int, full: bool
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[Mass, ...]]]:
    """Yield (blocks, representatives, block_masses) in a fixed order."""
    for blocks, q_masses in _partitions(dist, m):
        k = len(blocks)
        for reps in itertools.permutations(_candidates(dist, k, full), k):
            yield blocks, reps, q_masses


def _total(terms: Iterable[Mass], stray: Mass | None) -> Mass:
    """Sum one plan's terms in order; an infinite term ends the sum."""
    total: Mass = 0
    for term in terms:
        if term == math.inf:
            return math.inf
        total = total + term
    if stray is not None:
        if stray == math.inf:
            return math.inf
        total = total + stray
    return total


def _is_rational(curve: FCurve) -> bool:
    return isinstance(curve.eval_at(Fraction(1, 2)), (int, Fraction))


def _search(
    dist: AtomicDistribution,
    m: int,
    curves: Sequence[FCurve],
    full: bool,
    band: float,
) -> dict[str, OracleResult]:
    support = dist.support()
    support_mass = dist._mass_of(support)
    floats = [float(mass) for mass in dist.masses]
    positive = [mass > 0 for mass in dist.masses]
    exact = [dist.exact and _is_rational(curve) for curve in curves]
    # Block masses are totals of dist._values, as in _mass_of: numerators
    # over den in exact mode, floats over den = 1 in float mode.
    values, den = dist._values, dist._den
    zero: Mass = 0 if dist.exact else 0.0
    # The candidates for k blocks are the first k atoms of the pool in
    # reduced mode and the whole pool in full mode, so one row of float terms
    # per curve and block mass, over the pool, serves every block count.
    pool = _candidates(dist, min(m, len(support)), full)
    rows: dict[Mass, list[list[float]]] = {}

    # Per-curve stray terms, float and exact, keyed by the covered atoms in
    # representative order, since float sums depend on it.  A float stray
    # of -0.0 stands for none: adding it leaves every total unchanged.
    strays: dict[tuple[int, ...], tuple[list, list]] = {}

    def stray_terms(covered_atoms: tuple[int, ...]) -> tuple[list, list]:
        uncovered = support_mass - dist._mass_of(covered_atoms)
        if not uncovered > 0:
            return [-0.0] * len(curves), [None] * len(curves)
        loose = float(uncovered)
        return (
            [_term(curve, loose, 0) for curve in curves],
            [_term(c, uncovered, 0) if x else None for c, x in zip(curves, exact)],
        )

    # Per block count: the plans as pool positions, their representatives,
    # their position columns, their strays per curve and their atom values.
    layouts: dict[int, tuple] = {}

    def layout(k: int) -> tuple:
        perms = list(itertools.permutations(range(len(pool) if full else k), k))
        reps = [tuple(map(pool.__getitem__, perm)) for perm in perms]
        plan_strays = []
        for r in reps:
            covered_atoms = tuple(y for y in r if positive[y])
            if covered_atoms not in strays:
                strays[covered_atoms] = stray_terms(covered_atoms)
            plan_strays.append(strays[covered_atoms])
        loose = [[s[0][i] for s in plan_strays] for i in range(len(curves))]
        tight = [[s[1][i] for s in plan_strays] for i in range(len(curves))]
        atom_values = [tuple(map(values.__getitem__, r)) for r in reps]
        return perms, list(zip(*perms)), reps, loose, tight, atom_values

    best: list[float] = [math.inf] * len(curves)
    best_plan: list[PartitionPlan | None] = [None] * len(curves)
    # Per rational curve on an exact source, the Pareto front of
    # (float value, exact value, plan) in enumeration order: an entry stays
    # while no later plan has both a float value as low and a smaller exact
    # value, and while its float value is within band of the running best.
    fronts: list[list[tuple[float, Mass, PartitionPlan]] | None] = [
        [] if x else None for x in exact
    ]
    # Per curve, exact totals by the sorted (atom, block) numerator pairs,
    # which also fix the uncovered mass and so the stray.
    refined_totals: list[dict[tuple, Mass]] = [{} for _ in curves]
    for blocks in _set_partitions(support, min(m, len(support))):
        q_values = [reduce(operator.add, map(values.__getitem__, b), zero) for b in blocks]
        for q in q_values:
            if q not in rows:
                q_float = q / den
                rows[q] = [[_term(c, floats[y], q_float) for y in pool] for c in curves]
        k = len(blocks)
        if k not in layouts:
            layouts[k] = layout(k)
        perms, columns, reps, loose, tight, atom_values = layouts[k]
        block_rows = [rows[q] for q in q_values]
        for i, terms in enumerate(zip(*block_rows)):
            # Every plan's float value at once, with _total's additions:
            # left to right from 0, then the stray.  Where every value is
            # finite no plan met an infinite term, so these are _total's
            # values, and a partition whose lowest value neither lowers the
            # best nor lies within band of it changes nothing for this curve.
            totals = [0.0] * len(perms)
            for row, column in zip(terms, columns):
                totals = list(map(operator.add, totals, map(row.__getitem__, column)))
            totals = list(map(operator.add, totals, loose[i]))
            if all(map(math.isfinite, totals)):
                lo = min(totals)
                if lo >= best[i] and lo > best[i] + band:
                    continue
            else:
                totals = [
                    _total(map(operator.getitem, terms, perm), stray)
                    for perm, stray in zip(perms, loose[i])
                ]
            front = fronts[i]
            for j, value in enumerate(totals):
                if best_plan[i] is None or value < best[i]:
                    best[i], best_plan[i] = value, PartitionPlan(blocks, reps[j], m)
                    if front:
                        front[:] = [entry for entry in front if not entry[0] > value + band]
                if front is None or value > best[i] + band:
                    continue
                key = tuple(sorted(zip(atom_values[j], q_values)))
                refined = refined_totals[i].get(key)
                if refined is None:
                    refined = _total(
                        [_term(curves[i], dist.masses[y], Fraction(q, den))
                         for y, q in zip(reps[j], q_values)],
                        tight[i][j],
                    )
                    # A float term would make the total depend on term order.
                    if not isinstance(refined, float):
                        refined_totals[i][key] = refined
                if any(v <= value and e <= refined for v, e, _ in front):
                    continue
                front[:] = [e for e in front if not (value <= e[0] and refined < e[1])]
                front.append((value, refined, PartitionPlan(blocks, reps[j], m)))

    # The first strict exact minimum among the plans within band of the
    # final float best.  Every such plan was within band of the running best
    # when it was met, and a refined plan left the front, or never joined
    # it, only for another that is eligible whenever it is and would be
    # reported before it.
    results: dict[str, OracleResult] = {}
    for i, curve in enumerate(curves):
        eligible = [entry for entry in fronts[i] or () if not entry[0] > best[i] + band]
        if eligible:
            _, value, plan = min(eligible, key=lambda entry: entry[1])
            results[curve.name] = OracleResult(curve.name, value, plan, True)
        else:
            results[curve.name] = OracleResult(curve.name, best[i], best_plan[i], False)
    return results


def _check_caps(dist: AtomicDistribution, m: int, support_cap: int, search: str) -> None:
    if m < 1:
        raise OutOfRange(f"codebook size must be positive, got {m}")
    support = len(dist.support())
    if support > support_cap:
        raise CapExceeded(f"support of {support} atoms exceeds the {search} cap {support_cap}")
    if m > CODEBOOK_CAP:
        raise CapExceeded(f"codebook of {m} exceeds the search cap {CODEBOOK_CAP}")


def min_fdiv_bruteforce(
    dist: AtomicDistribution,
    m: int,
    curves: Sequence[FCurve],
    band: float = 1e-9,
) -> dict[str, OracleResult]:
    """True minimum divergence over every mapping with at most m values.

    Representatives are restricted to the heaviest block-count atoms, which
    is lossless for nonincreasing curves with zero slope at infinity; pass
    curves outside that class to min_fdiv_bruteforce_full instead.

    band is absolute: on an exact source, a rational curve's plans whose
    float value is within band of the float minimum are re-evaluated
    exactly, and the first strict exact minimum among them is reported.  A
    negative band refines nothing and the float minimum is reported.
    """
    _check_caps(dist, m, SUPPORT_CAP, "search")
    return _search(dist, m, curves, full=False, band=band)


def min_fdiv_bruteforce_full(
    dist: AtomicDistribution,
    m: int,
    curves: Sequence[FCurve],
    band: float = 1e-9,
) -> dict[str, OracleResult]:
    """Unreduced search: representatives range over the whole space.

    Exists to validate the heaviest-atom reduction and to handle curves
    with positive slope at infinity, where uncovered support costs mass.
    Tightly capped, since the assignment count grows factorially.  band is
    absolute and works as in min_fdiv_bruteforce; a negative band refines
    nothing.
    """
    _check_caps(dist, m, FULL_SUPPORT_CAP, "full-search")
    return _search(dist, m, curves, full=True, band=band)


def min_set_bruteforce(dist: AtomicDistribution, delta: Mass) -> tuple[int, tuple[int, ...]]:
    """Smallest support subset holding mass at least 1 - delta, by full scan.

    Returns the minimum cardinality and the first witness in lexicographic
    order.  The empty set is excluded, mirroring the greedy convention that
    the mode is always kept; if float accumulation never reaches the
    target, the whole support is returned.
    """
    if delta < 0 or delta > 1:
        raise OutOfRange(f"tail budget must lie in [0, 1], got {delta}")
    support = dist.support()
    if len(support) > SUBSET_CAP:
        raise CapExceeded(f"support of {len(support)} atoms exceeds the subset cap {SUBSET_CAP}")
    target: Mass = 1 - Fraction(delta) if dist.exact else 1.0 - float(delta)
    for r in range(1, len(support) + 1):
        for combo in itertools.combinations(support, r):
            if dist._mass_of(combo) >= target:
                return r, combo
    return len(support), support
