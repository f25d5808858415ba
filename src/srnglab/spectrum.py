"""Information-spectrum summaries and finite-blocklength rate quantities.

The normalized self-information (1/n) log(1/P(X^n)) of a block source is a
random variable with finitely many values.  Its distribution, held here as
a sorted list of (value, mass) points, is the only statistic the resolution
rate quantities need: cumulative probabilities, their quantiles, and the
smooth max entropy all read off it.

Masses stay in the arithmetic of the source distribution, so rational
sources give exact tails; values are per-symbol nats computed through
integer logarithms and therefore immune to underflow even when individual
sequence probabilities are far below double-precision range.

Every tail is read from one list of sums from the top point down, built
once per summary and cached on it, so a float tail does not depend on
which function asked for it, and each tail, quantile or k_f rate query is
a bisection rather than a rescan of the points.

For IID and mixture sources the spectrum depends on a sequence only through
its symbol counts, so large blocklengths are handled by enumerating type
classes instead of outcomes: binomially many terms for a binary alphabet
instead of 2**n.  The enumeration is `probability._types`, the one
type-class walk that `expand` also reads; here it runs only in exact mode,
on integer numerators over one shared denominator (the lcm of the weight
denominators times the n-th power of the lcm of the pmf denominators),
and a float source is rejected.  Each type's value comes from its reduced
mass, and the public spectrum makes one Fraction per point, for its mass.

A convergence sweep computes each blocklength once for all of its
(curve, budget) pairs.  A rational source is never expanded: one walk's
classes, sorted by descending mass, become one list of integer prefix
sums, and every smooth max entropy and every resolution rate is a
bisection of it.  Values, and their logarithms, are computed only for
the few classes near each rate's crossing.  A float source is expanded,
up to 2**14 outcomes.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .divergence import FCurve, _budget_threshold, check_conditions
from .errors import InvalidModel, OutOfRange
from .probability import (
    DEFAULT_ATOM_CAP,
    IID,
    AtomicDistribution,
    Mass,
    Mixture,
    SourceModel,
    _types,
    expand,
    self_information_value,
    sort_descending,
)

__all__ = [
    "RateReport",
    "SpectrumSummary",
    "SweepRow",
    "cdf_at",
    "k_f_rate",
    "rate_convergence_sweep",
    "smooth_max_entropy",
    "spectrum_cdf",
    "sup_entropy_quantile",
    "tail_above",
    "tail_from",
    "typeclass_smooth_max_entropy",
    "typeclass_spectrum",
]


@dataclass(frozen=True)
class SpectrumSummary:
    """Distribution of the normalized self-information of one block source.

    points hold (value, mass) pairs with strictly ascending values in
    per-symbol nats; masses are positive and sum to one (exactly so for a
    rational source).
    """

    points: tuple[tuple[float, Mass], ...]
    n: int

    def __post_init__(self) -> None:
        if not self.points:
            raise InvalidModel("a spectrum needs at least one point")
        values = [v for v, _ in self.points]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise InvalidModel("spectrum values must be strictly ascending")
        if any(m <= 0 for _, m in self.points):
            raise InvalidModel("spectrum masses must be positive")

    def values(self) -> tuple[float, ...]:
        return self._values

    def masses(self) -> tuple[Mass, ...]:
        return tuple(m for _, m in self.points)

    @cached_property
    def _values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.points)

    @cached_property
    def _top(self) -> tuple[Mass, ...]:
        """_top[j] is the mass of the j highest points, added from the top
        down, so every tail is summed in one order and the empty tail is 0."""
        return tuple(accumulate((mass for _, mass in reversed(self.points)), initial=0))


def spectrum_cdf(dist: AtomicDistribution) -> SpectrumSummary:
    """Summarize a materialized distribution into its information spectrum.

    Outcomes sharing one computed value are merged, their masses added in
    the distribution's own arithmetic.  Each distinct mass gets its value
    once.  An exact distribution adds numerators in ints; a float one adds
    its masses atom by atom in id order.
    """
    if dist.exact:
        counts = Counter(dist._values)
        counts.pop(0, None)
        return _integer_spectrum(dist._den, counts.items(), dist.n)
    value_of = {mass: self_information_value(mass, dist.n) for mass in set(dist.masses) if mass}
    acc: dict[float, Mass] = {}
    for mass in filter(None, dist.masses):
        value = value_of[mass]
        acc[value] = acc.get(value, 0) + mass
    return SpectrumSummary(points=tuple(sorted(acc.items())), n=dist.n)


def tail_above(summary: SpectrumSummary, v: float) -> Mass:
    """Pr{V > v}, accumulated from the top so the largest value has tail 0."""
    return summary._top[len(summary.points) - bisect.bisect_right(summary._values, v)]


def tail_from(summary: SpectrumSummary, v: float) -> Mass:
    """Pr{V >= v}."""
    return summary._top[len(summary.points) - bisect.bisect_left(summary._values, v)]


def _cdf_crossing(summary: SpectrumSummary, thr: Mass) -> float:
    """Smallest point whose cdf 1 - Pr{V > v} reaches thr.  Pr{V > v} at
    point i is _top[size - 1 - i], so the cdfs are nondecreasing in i, and
    the top point's cdf is exactly 1."""
    top, size = summary._top, len(summary.points)
    at = bisect.bisect_left(range(size), thr, key=lambda i: 1 - top[size - 1 - i])
    return summary._values[at]


def cdf_at(summary: SpectrumSummary, v: float) -> Mass:
    """Pr{V <= v}, derived as 1 - Pr{V > v} so the top point has cdf 1."""
    return 1 - tail_above(summary, v)


@dataclass(frozen=True)
class RateReport:
    """One computed rate quantity, in per-symbol nats."""

    quantity: str
    value: float
    n: int
    detail: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0:
            raise OutOfRange(f"{self.quantity} produced invalid rate {self.value}")

    def check_ceiling(self, ceiling: float) -> bool:
        """Optional sanity bound; finite-n quantiles may sit above log k."""
        return self.value <= ceiling + 1e-12


def sup_entropy_quantile(summary: SpectrumSummary, eps: Mass) -> RateReport:
    """Smallest spectrum point v with Pr{V > v} <= eps.

    The answer is always an exact support point of the spectrum; the top
    point qualifies unconditionally since its tail is exactly zero.
    """
    if eps < 0:
        raise OutOfRange(f"tail level must be nonnegative, got {eps}")
    # Pr{V > v} at point i is _top[size - 1 - i], so when the first c top
    # sums are within eps, exactly the top c points qualify.
    size = len(summary.points)
    value = summary._values[size - bisect.bisect_right(summary._top, eps, 0, size)]
    return RateReport(
        quantity="sup_entropy_quantile",
        value=value,
        n=summary.n,
        detail=(("eps", str(eps)),),
    )


def _check_budget(curve: FCurve, delta: Mass) -> None:
    if delta < 0:
        raise OutOfRange(f"divergence budget must be nonnegative, got {delta}")
    if not check_conditions(curve).nonincreasing:
        raise OutOfRange(f"{curve.name} is not nonincreasing; its rate is undefined here")


def k_f_rate(summary: SpectrumSummary, curve: FCurve, delta: Mass) -> RateReport:
    """Smallest spectrum point v whose cdf F satisfies f(F) <= delta.

    Only defined for nonincreasing curves.  The predicate is evaluated
    through the inverse threshold F >= f^{-1}(delta), which is the same
    statement by the minimum convention of the inverse and keeps rational
    tails inside exact comparisons.  The top point always qualifies since
    its cdf is exactly one and f(1) = 0.
    """
    _check_budget(curve, delta)
    thr = _budget_threshold(curve, delta)
    value = _cdf_crossing(summary, thr)
    return RateReport(
        quantity="k_f_rate",
        value=value,
        n=summary.n,
        detail=(("curve", curve.name), ("delta", str(delta))),
    )


def _check_tail_budget(delta: Mass) -> None:
    if delta < 0 or delta > 1:
        raise OutOfRange(f"tail budget must lie in [0, 1], got {delta}")


def smooth_max_entropy(dist: AtomicDistribution, delta: Mass) -> tuple[float, frozenset[int]]:
    """log of the smallest outcome set holding mass at least 1 - delta.

    Returns the log size in nats together with the achieving set, built
    greedily by descending mass with ascending-id ties.  The set always
    contains the heaviest outcome, so a tail budget of one or more still
    yields a singleton.  In exact mode the target is met exactly; a float
    accumulation that never reaches it falls back to the full support.
    """
    _check_tail_budget(delta)
    target: Mass = 1 - Fraction(delta) if dist.exact else 1.0 - float(delta)
    chosen = _descending_prefix(dist, sort_descending(dist), target)[0]
    return math.log(len(chosen)), frozenset(chosen)


def _descending_prefix(
    dist: AtomicDistribution, order: Sequence[int], target: Mass
) -> tuple[list[int], Mass]:
    """Shortest prefix of the descending order whose mass reaches target,
    and that mass; never empty, and never past the last positive mass."""
    values = dist._values
    # Integer numerators reach target once they reach target * _den rounded
    # up, and float totals once they reach the least float at or above it.
    if dist.exact:
        goal = math.ceil(Fraction(target) * dist._den)
    else:
        goal = float(target)
        if goal < target:
            goal = math.nextafter(goal, math.inf)
    ids: list[int] = []
    total: Mass = 0
    for x in order:
        if values[x] == 0:
            break
        ids.append(x)
        total = total + values[x]
        if total >= goal:
            break
    return ids, dist._mass_of(ids)


def _classes(variant: IID | Mixture, n: int) -> tuple[int, Iterator[tuple[int, int]]]:
    """Shared denominator, and (sequence mass times it, class size) of every
    positive-mass type class of a rational source, in `_types` order."""
    if not SourceModel(variant, n).exact:
        raise InvalidModel("type-class enumeration needs rational source parameters")
    den, types = _types(variant, n)
    return den, map(operator.itemgetter(1, 2), types)


def typeclass_spectrum(variant: IID | Mixture, n: int) -> SpectrumSummary:
    """Spectrum of an IID or mixture source without materializing X^n.

    One term per type class suffices.  Masses are exact fractions with
    denominators far outside float range; values go through integer logs
    of each type's reduced mass.
    """
    return _integer_spectrum(*_classes(variant, n), n)


def _integer_spectrum(den: int, classes: Iterable[tuple[int, int]], n: int) -> SpectrumSummary:
    """Spectrum of (positive numerator over den, how many atoms carry it) pairs."""
    sums = _value_sums(den, classes, n)
    points = tuple((v, Fraction(sums[v], den)) for v in sorted(sums))
    return SpectrumSummary(points=points, n=n)


def _value_sums(den: int, classes: Iterable[tuple[int, int]], n: int) -> dict[float, int]:
    """Mass numerator over den of every spectrum point, keyed by its value:
    each value from the reduced mass, each point's numerator summed in ints."""
    acc: dict[float, int] = {}
    for num, count in classes:
        value = _reduced_value(num, den, n)
        acc[value] = acc.get(value, 0) + count * num
    return acc


def _reduced_value(num: int, den: int, n: int) -> float:
    """self_information_value(Fraction(num, den), n) for positive ints,
    without the Fraction: the same gcd, and the same logs of the reduced
    numerator and denominator."""
    g = math.gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return (math.log(den) - math.log(num)) / n


# Error bound on a computed value, per unit of 1 + b/n, where b is the bit
# length of the shared denominator.  A value is (log(D) - log(N)) / n for a
# reduced mass N/D, so N <= D < 2**b.  CPython's math.log of an int takes
# the nearest double when the int fits (relative error u = 2**-53) and
# libm's log of it; otherwise _PyLong_Frexp splits the int into x * 2**e,
# x in [1/2, 1) rounded to 53 bits, and returns log(x) + log(2) * e.
# With libm's log within one ulp, either way a log is off by at most
# 4u(1 + b) nats; the subtraction adds u(1 + b) and the division by n
# rounds once more, so a value is off by at most 10u(1 + b)/n, which is at
# most 10u(1 + b/n) < 2**-49 (1 + b/n).  The constant leaves a factor 512,
# which also covers the rounding of the comparisons made with it.
_VALUE_ERROR = 2.0**-40


def _descending_classes(
    classes: Iterable[tuple[int, int]]
) -> tuple[list[int], list[int], list[int]]:
    """(sequence mass times den, class size) pairs, sorted by descending
    mass, as three lists: each class's numerator, and the running totals
    of the mass numerators and of the class sizes."""
    descending = sorted(classes, reverse=True)
    nums = [num for num, _ in descending]
    counts = [count for _, count in descending]
    del descending  # the prefix lists below are as large again
    return nums, list(accumulate(map(operator.mul, nums, counts))), list(accumulate(counts))


def _set_size(
    nums: Sequence[int], cum: Sequence[int], cum_sizes: Sequence[int], den: int, target: Fraction
) -> int:
    """Fewest sequences, heaviest first, whose mass reaches target <= 1.

    Takes the `_descending_classes` lists.  Whole classes enter by
    descending mass and the last one partially, with the ceiling count it
    takes: that class is the first whose running numerator reaches
    target * den rounded up, and the count is an integer
    cross-multiplication.  A target of zero or less still takes one.
    """
    if target <= 0:
        return 1
    need = target.numerator * den
    scale = target.denominator
    last = bisect.bisect_left(cum, -(-need // scale))
    cum_before, size_before = (cum[last - 1], cum_sizes[last - 1]) if last else (0, 0)
    return size_before - (cum_before * scale - need) // (nums[last] * scale)


def _crossing_value(nums: Sequence[int], cum: Sequence[int], den: int, n: int, key: int) -> float:
    """The value k_f_rate reads off the merged float spectrum of the
    `_descending_classes` lists: the smallest one whose cdf numerator over
    den reaches key, from the values of a few classes only.

    Along descending mass the true values increase (equal masses share one
    computed value), and a computed value is within eps =
    _VALUE_ERROR * (1 + b/n) of its true value.  The window [lo, hi)
    starts at the class where the running numerator reaches key and takes
    a neighbour while its value is within 2 eps of the window's lowest or
    highest value.  Every class below the window then has a smaller
    computed value than every class in it, and every class above a larger
    one: so the window's cdf starts at cum[lo - 1], float ties and
    inversions inside it are sorted out by sorting it, and the crossing,
    reached by cum[hi - 1] but not by cum[lo - 1], lies inside it.
    """
    slack = 2 * _VALUE_ERROR * (1 + den.bit_length() / n)
    top = bisect.bisect_left(cum, key)
    window = {top: _reduced_value(nums[top], den, n)}
    low = high = window[top]
    lo, hi = top, top + 1
    while True:
        if lo and (value := _reduced_value(nums[lo - 1], den, n)) >= low - slack:
            lo -= 1
            window[lo] = value
        elif hi < len(nums) and (value := _reduced_value(nums[hi], den, n)) <= high + slack:
            window[hi] = value
            hi += 1
        else:
            break
        low, high = min(low, value), max(high, value)
    points = sorted((value, cum[i] - (cum[i - 1] if i else 0)) for i, value in window.items())
    cdfs = list(accumulate(mass for _, mass in points))
    return points[bisect.bisect_left(cdfs, key - (cum[lo - 1] if lo else 0))][0]


def typeclass_smooth_max_entropy(
    variant: IID | Mixture, n: int, delta: Mass
) -> tuple[float, int]:
    """Smooth max entropy through whole type classes: (log size, size).

    Types enter in descending per-sequence probability; the final type is
    taken only partially, with the ceiling count of sequences needed to
    reach the target mass.  Matches the greedy atom-by-atom set size
    exactly, because atoms within a type are interchangeable.
    """
    _check_tail_budget(delta)
    den, classes = _classes(variant, n)
    size = _set_size(*_descending_classes(classes), den, 1 - Fraction(delta))
    return math.log(size), size


@dataclass(frozen=True)
class SweepRow:
    """One line of a rate-convergence sweep, ready for CSV serialization."""

    n: int
    nu: float
    delta: float
    quantity: str
    value: float
    curve: str


def rate_convergence_sweep(
    variant: IID | Mixture,
    ns: Sequence[int],
    curve: FCurve,
    delta: Mass,
    cap: int = DEFAULT_ATOM_CAP,
) -> tuple[SweepRow, ...]:
    """Rate quantities across blocklengths for one source family and budget.

    For each n two rows are produced: the resolution rate at budget delta
    and the normalized smooth max entropy at the matching tail level
    nu = 1 - f^{-1}(delta) (1 once delta reaches f(0+)).  Rational sources
    go through their type classes at every n and never expand, so cap
    bounds float sweeps only; a float source is expanded, and one with some
    k**n above 2**14 is rejected before any blocklength is computed.
    """
    return _sweep_pairs(variant, ns, [(curve, delta)], cap)[0]


# Largest outcome space a float sweep expands.
_FLOAT_SWEEP_LIMIT = 1 << 14


def _sweep_pairs(
    variant: IID | Mixture,
    ns: Sequence[int],
    pairs: Sequence[tuple[FCurve, Mass]],
    cap: int = DEFAULT_ATOM_CAP,
) -> list[tuple[SweepRow, ...]]:
    """rate_convergence_sweep for every (curve, delta) pair, one row tuple
    per pair, computing each blocklength once for all of them.

    Every pair is checked before any work starts.
    """
    for curve, delta in pairs:
        _check_budget(curve, delta)
    if not pairs:
        return []
    k = variant.alphabet_size
    big = next((n for n in ns if k**n > _FLOAT_SWEEP_LIMIT), None)
    if big is not None and not SourceModel(variant, big).exact:
        raise InvalidModel(
            f"float sweep cannot reach n = {big}: {k}^{big} outcomes exceed the direct limit "
            f"{_FLOAT_SWEEP_LIMIT} and the type-class route needs exact arithmetic (use --exact)"
        )
    thresholds = [_budget_threshold(curve, delta) for curve, delta in pairs]
    levels = [1 - thr for thr in thresholds]
    rows: list[list[SweepRow]] = [[] for _ in pairs]
    for n in ns:
        kfs, h0s = _sweep_point(SourceModel(variant, n), thresholds, levels, cap)
        for out, (curve, delta), eps, kf, h0 in zip(rows, pairs, levels, kfs, h0s):
            out.append(SweepRow(n, float(eps), float(delta), "k_f_rate", kf, curve.name))
            out.append(SweepRow(n, float(eps), float(delta), "smooth_max_entropy_rate", h0, curve.name))
    return [tuple(out) for out in rows]


def _sweep_point(
    model: SourceModel, thresholds: Sequence[Mass], levels: Sequence[Mass], cap: int
) -> tuple[list[float], list[float]]:
    """k_f_rate at every cdf threshold f^{-1}(delta), and the normalized
    smooth max entropy at every matching tail level, at one blocklength:
    from its type classes if the source is rational, else expanded."""
    n = model.n
    if model.exact:
        den, classes = _classes(model.variant, n)
        # Integer prefix sums: the cdf numerators over den at every class.
        nums, cum, cum_sizes = _descending_classes(classes)
        sizes = [_set_size(nums, cum, cum_sizes, den, 1 - Fraction(eps)) for eps in levels]
        keys = [math.ceil(Fraction(thr) * den) for thr in thresholds]
        rates = [_crossing_value(nums, cum, den, n, key) for key in keys]
    else:
        dist = expand(model, cap)
        order = sort_descending(dist)
        sizes = [len(_descending_prefix(dist, order, 1.0 - float(eps))[0]) for eps in levels]
        summary = spectrum_cdf(dist)
        rates = [_cdf_crossing(summary, thr) for thr in thresholds]
    return rates, [math.log(size) / n for size in sizes]
