"""Exhaustive baselines for small instances of the mapping problem.

A deterministic encoder-decoder pair with at most m decoded values is,
up to relabeling, a partition of the source support into at most m blocks
together with one distinct representative per block.  Enumerating those
partitions and the representative assignments on top gives the true
optimum of the divergence over every mapping, which is what the
constructions and bounds are tested against.

Two enumeration modes exist.  For nonincreasing curves with zero slope at
infinity the uncovered support contributes nothing and a representative is
never hurt by being heavier, so optimal representatives can be drawn from
the heaviest k atoms and only their k! block assignments matter.  The full
mode ranges representatives over the support and the zero-mass outcomes,
which are interchangeable, so the first m of them stand for all; it is
kept otherwise unreduced so the reduction itself can be cross-checked on
tiny instances.

The plans are scanned once, per curve in one arithmetic, and the first
plan that attains the minimum is the witness.  One depth-first walk
yields the partitions as live block lists together with each block's
running totals of the atoms' masses (numerators in exact mode), added left
to right in id order from 0, so a block's mass is its last running total,
bit for bit the sum a block-by-block evaluation makes; placing an atom
appends it and its total to one block, and the walk pops them on its way
back.  The terms come from one table
per curve, built before the scan: a row per block mass over the candidate
representatives, and a stray (uncovered-mass) term per plan, which
depends on the representatives alone.  Atoms of one mass share a term,
so a row costs one term evaluation per distinct pool mass, and the strays
one per distinct uncovered mass.  A rational curve on an exact source is
tabled in integers over one common denominator, so its minimum is exact;
every other curve in floats.  A plan's total is the same sum, in
the same order, as a term-by-term evaluation: left to right from 0, then
the stray.  All plans of one partition are summed at once, and once a
curve has its witness, a partition whose lowest total is at least the
running minimum changes nothing for it.

The reduced search mostly skips a partition before summing any plan.  For
a convex f the perspective g(p, Q) = Q f(p/Q) has nonpositive
cross-differences: g(p1, Q1) + g(p2, Q2) <= g(p1, Q2) + g(p2, Q1) for
p1 >= p2 and Q1 >= Q2 (for smooth f, the mixed derivative of g is
-(p/Q^2) f''(p/Q) <= 0).  So the term array is a Monge array (Burkard,
Klinz & Rudolf, Discrete Appl. Math. 70, 1996), and the plan that gives the
i-th heaviest block to the i-th heaviest representative, pool[i], has the
partition's lowest term sum.  Every plan of one block count takes the same
representatives, so the same uncovered mass; a float source adds it in
plan order, so its strays may differ by rounding, and the lowest is used.
The co-monotone total less the margin below is the partition's floor for
a curve.  An integer table's floor is the partition's lowest plan total;
a float table's is at most every plan's float total.  Either is +inf
exactly where the co-monotone total is, and then every plan of the
partition totals +inf.

The walk places the atoms one at a time, in id order, and at every prefix
of i placed atoms, the full partition included, it asks the scan whether
the prefix is dead.  A partition that completes the prefix adds each later
atom to one of its blocks, or to a new one while fewer than K are open, so
its block masses depend on the prefix only through i and the prefix's
block masses, sorted heaviest first.  The floor below a prefix, the least
floor over those completions, is computed exactly, per curve, by a
recursion on that pair: the next atom joins each distinct block mass in
turn, added as the walk adds it, or opens a block; at the full support it
is the partition's own floor.  Its values are memoised for the whole
search, as they depend on the fixed table alone (on the criterion-7 source
at m = 4, the 2 795 partitions have 251 tuples of block masses).  One rule
decides every skip: a curve is settled below a prefix when it has a
witness and its floor there is at least its best, and the prefix is dead
when every curve is settled.  The best only falls, so no plan below a
settled curve's prefix can lower its best.  A curve with no witness stays
live; one with a witness is settled where its floor is +inf, as every plan
there totals +inf and lowers no best, not even an infinite one.  At a full
partition that is not dead, the plans are summed for the live curves only,
so values and witnesses are those of the scan that visits every partition.
On the criterion-7 source at m = 4 the walk reaches 92 of the 2 795
partitions, as many with kl beside the four curves of the criterion-7
command, and at m = 2, 22 of 128.  Float ties are never skipped (the
margin is positive), so on float sources with distinct masses few subtrees
die.  Block tuples are built only when a plan lowers a best, for its
witness.  The full search asks no question and sums every partition plan
by plan as above, so the witness is still the first minimal plan.

The margin is derived, for the largest block count K, from u = 2^-53, the
largest finite |term| A and |stray| S of the curve's table, and the
heaviest pool mass p_max and block mass Q_max, as floats.  A float term
t = _term(curve, p, Q) with p, Q > 0 is assumed to satisfy

    |t - Q f(p/Q)| <= 6u (p + c Q + |t|),   c = 1 + 2 sum |curve.params|,

with f the curve at its float parameters, still convex.  The registered
curves meet it when float operations and math.sqrt round correctly and
math.log is within one ulp (normal floats, no underflow): to first order
variational and e_gamma_sum need u (p + 2|t|), e_gamma u (p + (1 + 2 gamma)
Q + 2|t|), as (gamma - t)^+ + 1 - gamma cancels intermediates up to
gamma + 1, reverse_kl u (Q + 3|t|), hellinger u (3/4 (p + Q) + 2|t|) and kl
u (p + 5|t|); the factor 6 absorbs the second-order terms.  A plan's k + 1
summands have absolute sum at most K A + S, so a sum of them in any order
is within gamma_K (K A + S) of its exact value, gamma_K = K u / (1 - K u),
and its k terms are within E = 6u K (p_max + c Q_max + A) of the curve's
values.  With the Monge inequality on those values, every plan's float
total is at least the co-monotone float total minus
D = 2 gamma_K (K A + S) + 2E.  The margin is 2D: the second D covers the
rounding of the floor's subtraction, under u ((1 + gamma_K)(K A + S) +
2D) <= D / 2 + 2uD, and of the margin's own computation.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Iterator, Sequence

from .construction import MappingPair
from .divergence import FCurve, _numeric_convex, _param_scale, _term
from .errors import CapExceeded, OutOfRange
from .probability import AtomicDistribution, Mass, sort_descending
from .spectrum import _tail_target

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

#: Unit roundoff of a double: a correctly rounded operation's relative error.
_UNIT_ROUNDOFF = 2.0**-53


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


def _partition_walk(
    items: Sequence[int],
    max_blocks: int,
    values: Sequence[Mass] | dict[int, Mass],
    zero: Mass,
    dead: Callable[[int, list[list[Mass]]], bool] | None = None,
) -> Iterator[tuple[list[list[int]], list[list[Mass]]]]:
    """All partitions of items into at most max_blocks >= 1 nonempty blocks,
    as the live block lists and, per block, the running totals of values
    over its items: zero + values[x0], then + values[x1], and so on, the
    additions reduce(operator.add, map(values.__getitem__, block), zero)
    makes, so a block's total is its last running total.

    Depth first: item 0 opens block 0, and each later item joins each open
    block in turn and then opens a new one while fewer than max_blocks are
    open, so every partition appears exactly once, blocks ordered by first
    member and listing their items in order.  The lists are the walk's
    own: they change at the next step.

    The walk places one item at a time.  At every prefix of i placed items,
    0 < i <= len(items), before it places item i or, once all are placed,
    yields the partition, it asks dead(i, runs), with runs as they stand
    for the prefix.  If that is true, it yields no partition that completes
    the prefix, the full one included, and moves the prefix's last item on
    to its next block instead.  Without dead every partition is yielded.
    """
    return _grow(items, max_blocks, values, zero, dead, [], [], 0) if items else iter(())


def _grow(
    items: Sequence[int], max_blocks: int, values: Sequence[Mass] | dict[int, Mass], zero: Mass,
    dead: Callable[[int, list[list[Mass]]], bool] | None,
    blocks: list[list[int]], runs: list[list[Mass]], placed: int,
) -> Iterator[tuple[list[list[int]], list[list[Mass]]]]:
    """The walk of _partition_walk below a prefix of placed items, held in
    blocks and runs, which it leaves as it found them once exhausted."""
    if placed and dead is not None and dead(placed, runs):
        return
    if placed == len(items):
        yield blocks, runs
        return
    x = items[placed]
    # A deeper level pops every block it opens before this loop moves on.
    for block, run in zip(blocks, runs):
        block.append(x)
        run.append(run[-1] + values[x])
        yield from _grow(items, max_blocks, values, zero, dead, blocks, runs, placed + 1)
        block.pop()
        run.pop()
    if len(blocks) < max_blocks:
        blocks.append([x])
        runs.append([zero + values[x]])
        yield from _grow(items, max_blocks, values, zero, dead, blocks, runs, placed + 1)
        blocks.pop()
        runs.pop()


def _set_partitions(
    items: Sequence[int], max_blocks: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The partitions of _partition_walk, blocks as tuples."""
    for blocks, _ in _partition_walk(items, max_blocks, dict.fromkeys(items, 0), 0):
        yield tuple(map(tuple, blocks))


def _candidates(dist: AtomicDistribution, k: int, full: bool) -> list[int]:
    """The atoms k block representatives are drawn from, in id order in full
    mode.  Zero-mass atoms give equal terms and leave the same mass
    uncovered, so the full pool keeps only the first k of them: any plan
    with others has an equal plan over these that comes first."""
    # Positive masses form a prefix of the descending order, and the zero
    # masses follow in ascending id order.
    order, live = sort_descending(dist), len(dist.support())
    if full:
        return sorted(dist.support() + order[live:live + k])
    return list(order[: min(k, live)])


def _iter_plans(
    dist: AtomicDistribution, m: int, full: bool
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[Mass, ...]]]:
    """Yield (blocks, representatives, block_masses) in the search's order."""
    support = dist.support()
    k_max = min(m, len(support))
    pool = _candidates(dist, k_max, full)
    for blocks in _set_partitions(support, k_max):
        q_masses = tuple(map(dist._mass_of, blocks))
        k = len(blocks)
        for reps in itertools.permutations(pool if full else pool[:k], k):
            yield blocks, reps, q_masses


def _total(terms: Iterable[Mass], stray: Mass) -> Mass:
    """Sum one plan's terms in order, then its stray; an infinite term ends
    the sum.  The scan's vector totals equal it; tests use it as their
    reference."""
    total: Mass = 0
    for term in itertools.chain(terms, (stray,)):
        if term == math.inf:
            return math.inf
        total = total + term
    return total


def _over(terms: dict, scale: int) -> dict:
    """Rational terms as numerators over scale; infinities stay."""
    return {
        key: t.numerator * (scale // t.denominator) if isinstance(t, (int, Fraction)) else t
        for key, t in terms.items()
    }


def _is_rational(curve: FCurve) -> bool:
    return isinstance(curve.eval_at(Fraction(1, 2)), (int, Fraction))


def _margin(
    curve: FCurve, k_max: int, rows: dict, strays: dict, p_max: float, q_max: float
) -> float:
    """How far below a partition's co-monotone float total the float total
    of any of its plans can fall, for one curve's float table (module
    docstring): 2·(2γ_K·(K·A + S) + 2·6u·K·(p_max + c·q_max + A))."""
    a = max((abs(t) for t in itertools.chain(*rows.values()) if t != math.inf), default=0.0)
    s = max((abs(t) for t in itertools.chain(*strays.values()) if t != math.inf), default=0.0)
    c = _param_scale(curve)
    gamma = k_max * _UNIT_ROUNDOFF / (1 - k_max * _UNIT_ROUNDOFF)
    sums = 2 * gamma * (k_max * a + s)
    terms = 2 * 6 * _UNIT_ROUNDOFF * k_max * (p_max + c * q_max + a)
    return 2 * (sums + terms)


def _least(
    levels: list[dict],
    placed: int,
    q_desc: tuple,
    atoms: Sequence[Mass],
    k_max: int,
    tables: list[tuple[dict, dict]],
    skips: list[tuple[dict, Mass]],
) -> list[Mass]:
    """Each table's floor below a prefix of placed atoms in blocks of
    masses q_desc, heaviest first: the least co-monotone total less the
    margin over the partitions that complete it.  Each later atom i, of
    value atoms[i], joins a block, whose mass q becomes q + atoms[i] as the
    walk adds it, or opens one while fewer than k_max are open.  Blocks of
    one mass are interchangeable, so one of them is tried.  At the full
    support the floor is the partition's own: the lowest stray of its block
    count, then the i-th heaviest block's term at pool position i, less
    the margin; +inf where that total is.  In integers it is the
    partition's lowest plan total, in floats it is at most every plan
    total.  Kept in levels[placed] per q_desc."""
    level = levels[placed]
    floors = level.get(q_desc)
    if floors is None:
        if placed == len(atoms):
            floors = []
            for (rows, _), (lows, margin) in zip(tables, skips):
                total = lows[len(q_desc)]
                for column, q in enumerate(q_desc):
                    total = total + rows[q][column]
                floors.append(total - margin)
        else:
            v = atoms[placed]
            grown = [
                q_desc[:j] + (q + v,) + q_desc[j + 1:]
                for j, q in enumerate(q_desc) if not j or q != q_desc[j - 1]
            ]
            if len(q_desc) < k_max:
                grown.append(q_desc + (v,))
            children = [
                _least(levels, placed + 1, tuple(sorted(q, reverse=True)), atoms, k_max,
                       tables, skips)
                for q in grown
            ]
            floors = list(map(min, *children)) if len(children) > 1 else children[0]
        level[q_desc] = floors
    return floors


def _scan(
    dist: AtomicDistribution,
    m: int,
    k_max: int,
    layouts: dict[int, tuple],
    tables: list[tuple[dict, dict]],
    skips: list[tuple[dict, Mass]] | None,
) -> tuple[list[Mass], list[PartitionPlan | None]]:
    """Each table's lowest plan total over every partition, and the first
    plan that attains it.  skips, in reduced mode only, holds per table the
    lowest stray of each block count and the float margin (0 for integers)
    of the floors (_least).  There the walk's hook is the one place a
    partition or a curve is skipped: a curve is settled below a prefix when
    it has a witness and its floor there is at least its best, and the
    prefix is dead when every curve is settled.  At a full partition the
    scan sums the plans of the curves the hook left live."""
    best: list[Mass] = [math.inf] * len(tables)
    best_plan: list[PartitionPlan | None] = [None] * len(tables)
    live = [True] * len(tables)
    support = dist.support()
    atoms = list(map(dist._values.__getitem__, support))
    # Per placed count, per tuple of block masses, heaviest first: each
    # table's floor below the prefix (_least).
    levels: list[dict] = [{} for _ in range(len(support) + 1)]

    def dead(placed: int, runs: list[list[Mass]]) -> bool:
        """Whether every curve is settled below the prefix.  live holds,
        per curve, whether it is not: it has no witness yet, or its floor
        there is below its best."""
        q_desc = tuple(sorted([run[-1] for run in runs], reverse=True))
        floors = _least(levels, placed, q_desc, atoms, k_max, tables, skips)
        live[:] = [plan is None or floor < low for floor, low, plan in zip(floors, best, best_plan)]
        return not any(live)

    zero: Mass = 0 if dist.exact else 0.0
    walk = _partition_walk(support, k_max, dist._values, zero, dead if skips else None)
    for blocks, runs in walk:
        q_values = [run[-1] for run in runs]
        k = len(blocks)
        perms, columns, reps, _ = layouts[k]
        plan_blocks = None
        for i, (rows, strays) in enumerate(tables):
            if not live[i]:
                continue
            # Every plan's total at once, with _total's additions: left to
            # right from 0, then the stray.  No term is -inf, so a plan that
            # meets an infinite term totals inf, as _total returns, and
            # these are _total's values.  Once a witness is set, a partition
            # whose lowest total does not lower the best changes nothing
            # for this curve.
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
                    best[i], best_plan[i] = value, PartitionPlan(plan_blocks, reps[j], m)
    return best, best_plan


def _search(
    dist: AtomicDistribution,
    m: int,
    curves: Sequence[FCurve],
    full: bool,
) -> dict[str, OracleResult]:
    support = dist.support()
    k_max = min(m, len(support))
    support_mass = dist._mass_of(support)
    # Block masses are totals of dist._values, as in _mass_of: numerators
    # over den in exact mode, floats over den = 1 in float mode.  With two
    # or more blocks every nonempty subset of the support is a block, and
    # each total here is added left to right in id order, as the scan adds
    # it.
    values, den = dist._values, dist._den
    zero: Mass = 0 if dist.exact else 0.0
    if k_max == 1:
        sums = {reduce(operator.add, map(values.__getitem__, support), zero)}
    else:
        sums = {zero}
        for x in support:
            sums |= {s + values[x] for s in sums}
        sums.discard(zero)
    # The candidates for k blocks are the first k atoms of the pool in
    # reduced mode and the whole pool in full mode, so one row of terms per
    # curve and block mass, over the pool, serves every block count.  Per
    # block count: the plans as pool positions, their position columns,
    # their representatives and the support mass they leave uncovered,
    # added in representative order (zero masses add nothing).
    pool = _candidates(dist, k_max, full)
    layouts: dict[int, tuple] = {}
    for k in range(1, k_max + 1):
        perms = list(itertools.permutations(range(len(pool) if full else k), k))
        reps = [tuple(map(pool.__getitem__, perm)) for perm in perms]
        loose = [support_mass - dist._mass_of(r) for r in reps]
        layouts[k] = perms, list(zip(*perms)), reps, loose

    # Atoms of one value have one mass, and so one term: each row takes
    # one _term call per distinct pool value, and the strays one per
    # distinct uncovered mass.
    pool_values = [values[y] for y in pool]
    lefts = {u for *_, loose in layouts.values() for u in loose}

    def terms(curve: FCurve, exact: bool) -> tuple[dict, dict]:
        """Per block mass, the curve's term for each distinct pool value;
        per uncovered mass, its stray term, where 0, or -0.0 in floats,
        stands for none: adding it leaves every total unchanged."""
        none = 0 if exact else -0.0
        atoms = {values[y]: dist.mass(y) if exact else float(dist.mass(y)) for y in pool}
        rows = {}
        for q in sums:
            q_mass = Fraction(q, den) if exact else q / den
            rows[q] = {v: _term(curve, p, q_mass) for v, p in atoms.items()}
        stray = {u: _term(curve, u if exact else float(u), 0) if u > 0 else none for u in lefts}
        return rows, stray

    def table(rows: dict, stray: dict) -> tuple[dict, dict]:
        """The table the scan reads: per block mass, the terms over the pool;
        per block count, each plan's stray term."""
        return (
            {q: list(map(row.__getitem__, pool_values)) for q, row in rows.items()},
            {k: list(map(stray.__getitem__, loose)) for k, (*_, loose) in layouts.items()},
        )

    # A rational curve on an exact source is scanned in integers over the
    # lcm of its terms' denominators, so its minimum and witness are exact.
    # Every other curve, and one whose table holds a float term, is scanned
    # in floats.  Each distinct term is tested and converted once.
    tables: list[tuple[dict, dict]] = []
    scales: list[int | None] = []
    for curve in curves:
        scale = None
        if dist.exact and _is_rational(curve):
            rows, stray = terms(curve, True)
            finite = [t for row in (*rows.values(), stray) for t in row.values() if t != math.inf]
            if all(isinstance(t, (int, Fraction)) for t in finite):
                scale = math.lcm(*(t.denominator for t in finite))
                rows = {q: _over(row, scale) for q, row in rows.items()}
                tables.append(table(rows, _over(stray, scale)))
        if scale is None:
            tables.append(table(*terms(curve, False)))
        scales.append(scale)

    # The reduced search skips partitions from their co-monotone totals
    # (module docstring): per curve, the lowest stray of each block count,
    # and the margin for float rounding, 0 for an integer table.
    skips = None
    if not full:
        p_max, q_max = float(dist.mass(pool[0])), max(sums) / den
        skips = [
            (
                {k: min(row) for k, row in strays.items()},
                0 if scale is not None else _margin(curve, k_max, rows, strays, p_max, q_max),
            )
            for curve, (rows, strays), scale in zip(curves, tables, scales)
        ]
    best, best_plan = _scan(dist, m, k_max, layouts, tables, skips)

    results: dict[str, OracleResult] = {}
    for curve, value, plan, scale in zip(curves, best, best_plan, scales):
        if scale is not None and value != math.inf:
            value = Fraction(value, scale)
        results[curve.name] = OracleResult(curve.name, value, plan, scale is not None)
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
) -> dict[str, OracleResult]:
    """True minimum divergence over every mapping with at most m values.

    Representatives are restricted to the heaviest block-count atoms, which
    is lossless for nonincreasing curves with zero slope at infinity; pass
    curves outside that class to min_fdiv_bruteforce_full instead.  The
    curves must be convex, as FCurve requires: partitions are skipped on
    their co-monotone totals (module docstring), so a curve whose slopes
    fall on a log grid is rejected.  On an exact source a rational curve's
    minimum is exact, and the witness is the first plan that attains it;
    other minima are float sums.
    """
    _check_caps(dist, m, SUPPORT_CAP, "search")
    for curve in curves:
        if not _numeric_convex(curve):
            raise OutOfRange(f"{curve.name} is not convex; use min_fdiv_bruteforce_full")
    return _search(dist, m, curves, full=False)


def min_fdiv_bruteforce_full(
    dist: AtomicDistribution,
    m: int,
    curves: Sequence[FCurve],
) -> dict[str, OracleResult]:
    """Unreduced search: representatives range over the whole space.

    Exists to validate the heaviest-atom reduction and to handle curves
    with positive slope at infinity, where uncovered support costs mass.
    Zero-mass outcomes are interchangeable, so only the first m of them
    are tried.  Tightly capped, since the assignment count grows
    factorially.  Values and witnesses follow min_fdiv_bruteforce.
    """
    _check_caps(dist, m, FULL_SUPPORT_CAP, "full-search")
    return _search(dist, m, curves, full=True)


def min_set_bruteforce(dist: AtomicDistribution, delta: Mass) -> tuple[int, tuple[int, ...]]:
    """Smallest support subset holding mass at least 1 - delta, by full scan.

    Returns the minimum cardinality and the first witness in lexicographic
    order.  The empty set is excluded, mirroring the greedy convention that
    the mode is always kept; if float accumulation never reaches the
    target, the whole support is returned.
    """
    target = _tail_target(delta, dist.exact)
    support = dist.support()
    if len(support) > SUBSET_CAP:
        raise CapExceeded(f"support of {len(support)} atoms exceeds the subset cap {SUBSET_CAP}")
    for r in range(1, len(support) + 1):
        for combo in itertools.combinations(support, r):
            if dist._mass_of(combo) >= target:
                return r, combo
    return len(support), support
