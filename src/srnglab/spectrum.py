"""Information-spectrum summaries and finite-blocklength rate quantities.

The normalized self-information (1/n) log(1/P(X^n)) of a block source is a
random variable with finitely many values; its distribution is the only
statistic the resolution rate quantities need.  Values are per-symbol nats
computed through integer logarithms, immune to underflow even far below
double-precision range.

A rational source's spectrum is one class list (`probability._ClassList`)
per (source, n) or per distribution: classes of equally likely atoms (a
type class, or the atoms of one distinct mass, the list an exact
distribution keeps) by descending mass, their mass numerators over one
shared denominator and their atom counts.  A quantile or a k_f rate is
the value of the class where the exact cdf reaches its level, found by
bisecting the integer running totals of the class masses, which the list
extends only as far as that level (a type-class list also sorts and sizes
its classes only that far, in bands of descending mass); only the
answering class's value is computed.  Every smooth set, on atoms or types
and in either mode, is sized by the list's set_size: the atoms up to the
class where the mass reaches its target plus the part of it the target
needs.  The order is the masses', not the computed values', so rate =
quantile holds exactly even where the float values of nearby masses tie
or invert.

The (value, mass) points merge the classes by computed value, once, when
first read; tails at a value (tail_above, tail_from, cdf_at) bisect that
merge's integer sums from the top point down, one Fraction per answer.  A
float summary, or one built from given points, answers every query from
its masses summed from the top point down, so a float tail does not
depend on which function asked for it.

A rational (source, n) has one class list, and _model_classes is the one
place that picks it.  This module knows no source kind: which kinds have
type classes is `probability._has_types`'s one rule.  Those sources are
enumerated by type class through `probability._types`: binomially many
classes for a binary alphabet instead of 2**n.  Ternary (1/2, 1/3, 1/6)
at n = 1000 has 501 501; its class list and a first k_f rate at level
9/10, which sorts and sizes 132 718 of them, take about 0.7 s and 195 MB
(Python 3.11.7, shared 2-CPU VM).  Any other source, a Markov chain
today, is expanded up to the atom cap and has its distribution's list;
float parameters are refused there.  A convergence
sweep reads one class list per blocklength for all of its (curve,
budget) pairs and merges no points; a float source is expanded, up to
2**14 outcomes, and its sizes come from the expanded distribution's list.
A sweep that expands, float or an exact chain, is checked against its
cap before any blocklength is computed.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Sequence

from .divergence import FCurve, _budget_threshold, check_conditions
from .errors import CapExceeded, InvalidModel, OutOfRange
from .probability import (
    DEFAULT_ATOM_CAP,
    AtomicDistribution,
    Mass,
    SourceModel,
    Variant,
    _ClassList,
    _has_types,
    _reduced_value,
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
    rational source).  The summary of a rational source built here keeps
    its class list, answers quantiles and k_f rates from it, and merges
    its points on first read.
    """

    points: tuple[tuple[float, Mass], ...]
    n: int
    _classes: _ClassList | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.points:
            raise InvalidModel("a spectrum needs at least one point")
        values = [v for v, _ in self.points]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise InvalidModel("spectrum values must be strictly ascending")
        if any(m <= 0 for _, m in self.points):
            raise InvalidModel("spectrum masses must be positive")

    @classmethod
    def _of(cls, classes: _ClassList) -> SpectrumSummary:
        """A class list's summary, unchecked: its masses are positive."""
        summary = cls.__new__(cls)
        object.__setattr__(summary, "n", classes.n)
        object.__setattr__(summary, "_classes", classes)
        return summary

    def __getattr__(self, name: str):
        # Reached for points only on a summary from _of, before its first read.
        if name != "points" or self._classes is None:
            raise AttributeError(name)
        den = self._classes.den
        points = tuple((v, Fraction(num, den)) for v, num in zip(*self._merge))
        object.__setattr__(self, "points", points)
        return points

    def values(self) -> tuple[float, ...]:
        return self._merge[0]

    def masses(self) -> tuple[Mass, ...]:
        return tuple(m for _, m in self.points)

    @cached_property
    def _merge(self) -> tuple[tuple[float, ...], list]:
        """Ascending values and the mass of each: the points', or the class
        list's summed by value, in numerators over its den."""
        if self._classes is None:
            return tuple(v for v, _ in self.points), [m for _, m in self.points]
        c, acc = self._classes, {}
        for num, count in zip(c.nums, c.counts):
            value = _reduced_value(num, c.den, c.n)
            acc[value] = acc.get(value, 0) + num * count
        values = sorted(acc)
        return tuple(values), [acc[v] for v in values]

    @cached_property
    def _top(self) -> tuple[Mass, ...]:
        """_top[j] is the mass of the j highest points, added from the top
        down, so every tail is summed in one order and the empty tail is 0;
        numerators over den on a class list."""
        return tuple(accumulate(reversed(self._merge[1]), initial=0))


def spectrum_cdf(dist: AtomicDistribution) -> SpectrumSummary:
    """Summarize a materialized distribution into its information spectrum.

    An exact distribution's summary holds the class list the distribution
    keeps, one class per distinct numerator.  A float one merges the
    outcomes of one computed value, each distinct mass of that list valued
    once, adding masses atom by atom in id order.
    """
    if dist.exact:
        return SpectrumSummary._of(dist._classes)
    value_of = {mass: self_information_value(mass, dist.n) for mass in dist._classes.nums}
    acc: dict[float, Mass] = {}
    for mass in filter(None, dist.masses):
        value = value_of[mass]
        acc[value] = acc.get(value, 0) + mass
    return SpectrumSummary(points=tuple(sorted(acc.items())), n=dist.n)


def _tail(summary: SpectrumSummary, v: float, side) -> Mass:
    """Mass of the points past v, side bisect_right (> v) or bisect_left
    (>= v); one Fraction of a class list's numerators, and 0 for none."""
    values = summary.values()
    count = len(values) - side(values, v)
    if count and summary._classes is not None:
        return Fraction(summary._top[count], summary._classes.den)
    return summary._top[count]


def tail_above(summary: SpectrumSummary, v: float) -> Mass:
    """Pr{V > v}, accumulated from the top so the largest value has tail 0."""
    return _tail(summary, v, bisect.bisect_right)


def tail_from(summary: SpectrumSummary, v: float) -> Mass:
    """Pr{V >= v}."""
    return _tail(summary, v, bisect.bisect_left)


def _crossing(summary: SpectrumSummary, level: Mass) -> float:
    """Smallest value where the cdf reaches level: the class list's, else
    the first point whose cdf 1 - Pr{V > v} = 1 - _top[size - 1 - i]
    reaches it; the top point's cdf is exactly 1."""
    if summary._classes is not None:
        return summary._classes.value_at(level)
    top, values = summary._top, summary.values()
    size = len(values)
    return values[bisect.bisect_left(range(size), level, key=lambda i: 1 - top[size - 1 - i])]


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

    The top point qualifies since its tail is exactly zero.  With a class
    list the answer is the value of the class where the exact cdf reaches
    1 - eps: the same point unless values invert along descending mass.
    """
    if eps < 0:
        raise OutOfRange(f"tail level must be nonnegative, got {eps}")
    if summary._classes is not None:
        value = summary._classes.value_at(1 - Fraction(eps))
    else:
        # Pr{V > v} at point i is _top[size - 1 - i], so when the first c
        # top sums are within eps, exactly the top c points qualify.
        values = summary.values()
        size = len(values)
        value = values[size - bisect.bisect_right(summary._top, eps, 0, size)]
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
    its cdf is exactly one and f(1) = 0.  The answer is _crossing's, so it
    equals sup_entropy_quantile at 1 - f^{-1}(delta) on a class list.
    """
    _check_budget(curve, delta)
    return RateReport(
        quantity="k_f_rate",
        value=_crossing(summary, _budget_threshold(curve, delta)),
        n=summary.n,
        detail=(("curve", curve.name), ("delta", str(delta))),
    )


def _tail_target(delta: Mass, exact: bool) -> Mass:
    """The mass 1 - delta a smooth set must reach, exact or float, once the
    tail budget delta is checked to lie in [0, 1]."""
    if delta < 0 or delta > 1:
        raise OutOfRange(f"tail budget must lie in [0, 1], got {delta}")
    return 1 - Fraction(delta) if exact else 1.0 - float(delta)


def smooth_max_entropy(dist: AtomicDistribution, delta: Mass) -> tuple[float, frozenset[int]]:
    """log of the smallest outcome set holding mass at least 1 - delta.

    Returns the log size in nats together with the achieving set: the
    descending order (ascending-id ties) cut at the distribution's class
    list's set_size, what a greedy pass by descending mass takes.  The
    set always contains the heaviest outcome, so a tail budget of one
    still yields a singleton; budgets outside [0, 1] are rejected.  In
    exact mode the target is met exactly; a float accumulation that never
    reaches it falls back to the full support.
    """
    chosen = sort_descending(dist)[: dist._classes.set_size(_tail_target(delta, dist.exact))]
    return math.log(len(chosen)), frozenset(chosen)


def _model_classes(model: SourceModel, cap: int = DEFAULT_ATOM_CAP) -> _ClassList:
    """The class list of a rational (source, n): a class per type for an IID
    or mixture source, which never expands X^n and is built in bands as
    queries read it, else the expanded distribution's list, a class per
    distinct mass, up to cap atoms."""
    if not model.exact:
        raise InvalidModel("type-class enumeration needs rational source parameters")
    if _has_types(model.variant):
        return _ClassList.of_types(model.n, *_types(model.variant, model.n, True))
    return expand(model, cap)._classes


def typeclass_spectrum(variant: Variant, n: int) -> SpectrumSummary:
    """Spectrum of a rational source from its class list, whose points are
    merged only when read: an IID or mixture source's type classes, without
    materializing X^n, or an exact chain's masses.  A chain is expanded:
    X^n is built whole, up to the default atom cap (2**24 atoms, which no
    argument lowers), and memory grows with k**n to match."""
    return SpectrumSummary._of(_model_classes(SourceModel(variant, n)))


def typeclass_smooth_max_entropy(variant: Variant, n: int, delta: Mass) -> tuple[float, int]:
    """Smooth max entropy through whole classes: (log size, size).

    Classes (types, or a chain's distinct masses, as in typeclass_spectrum)
    enter in descending per-sequence probability; the final one is taken
    only partially, with the ceiling count of sequences needed to reach the
    target mass.  Matches the greedy atom-by-atom set size exactly, because
    atoms within a class are interchangeable.  An exact chain is expanded
    up to the default atom cap, with memory to match, as in
    typeclass_spectrum.
    """
    target = _tail_target(delta, exact=True)
    size = _model_classes(SourceModel(variant, n)).set_size(target)
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
    variant: Variant,
    ns: Sequence[int],
    curve: FCurve,
    delta: Mass,
    cap: int = DEFAULT_ATOM_CAP,
) -> tuple[SweepRow, ...]:
    """Rate quantities across blocklengths for one source family and budget.

    For each n two rows are produced: the resolution rate at budget delta
    and the normalized smooth max entropy at the matching tail level
    nu = 1 - f^{-1}(delta) (1 once delta reaches f(0+)).  A rational source
    reads its class list at every n: IID and mixture sources go through
    their type classes and never expand, so cap does not bound them, while
    an exact Markov chain is expanded at every n.  A float source of any
    kind is expanded at every n too.  Before any blocklength is computed, a
    float source with some k**n above 2**14 is rejected, and then any
    source that is expanded, float or an exact chain, raises CapExceeded
    if some k**n is above cap.
    """
    return _sweep_pairs(variant, ns, [(curve, delta)], cap)[0]


# Largest outcome space a float sweep expands.
_FLOAT_SWEEP_LIMIT = 1 << 14


def _sweep_pairs(
    variant: Variant,
    ns: Sequence[int],
    pairs: Sequence[tuple[FCurve, Mass]],
    cap: int = DEFAULT_ATOM_CAP,
) -> list[tuple[SweepRow, ...]]:
    """rate_convergence_sweep for every (curve, delta) pair, one row tuple
    per pair, computing each blocklength once for all of them.

    Every pair, the float limit and, for a source that is expanded at
    every n (a float source of any kind, or an exact one without type
    classes), the cap are checked before any work starts.
    """
    for curve, delta in pairs:
        _check_budget(curve, delta)
    if not pairs:
        return []
    k, exact = variant.alphabet_size, SourceModel(variant, 1).exact
    big = next((n for n in ns if k**n > _FLOAT_SWEEP_LIMIT), None)
    if big is not None and not exact:
        raise InvalidModel(
            f"float sweep cannot reach n = {big}: {k}^{big} outcomes exceed the direct limit "
            f"{_FLOAT_SWEEP_LIMIT} and the type-class route needs exact arithmetic (use --exact)"
        )
    if not (exact and _has_types(variant)) and k ** max(ns, default=0) > cap:
        raise CapExceeded(f"outcome space holds {k ** max(ns)} atoms, cap is {cap}")
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
    from _model_classes if the source is rational, else from the class
    list and spectrum of the expanded distribution."""
    n, exact = model.n, model.exact
    if exact:
        classes = _model_classes(model, cap)
        summary = SpectrumSummary._of(classes)
    else:
        dist = expand(model, cap)
        classes, summary = dist._classes, spectrum_cdf(dist)
    sizes = [classes.set_size(_tail_target(eps, exact)) for eps in levels]
    return [_crossing(summary, thr) for thr in thresholds], [math.log(size) / n for size in sizes]
