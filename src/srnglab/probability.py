"""Finite-blocklength sources and exact distributions over the outcome space.

A source model (IID, Markov chain, or a finite mixture of IID components)
is materialized at blocklength n as an explicit probability mass function
over all alphabet_size**n outcomes.  Outcomes are indexed lexicographically
by their symbol strings, so outcome ids double as base-k integers.

Two arithmetic modes are supported.  In exact mode a distribution holds
integer numerators over one shared denominator, and all comparisons are
exact; this is the default whenever the model parameters are rational.
Its public `masses` are `fractions.Fraction`s equal to those integers over
the denominator.  Built from numerators (`expand`, `apply_mapping`, a
trace's conditional law), a distribution builds them only when `masses`
is first read, one shared object per distinct numerator, so sorting,
merging, summarizing and measuring divergences work on ints and build no
per-atom `Fraction`, while every reader of `masses` sees reduced
fractions.  One atom's mass is read without them.  In float mode masses
are doubles and the usual 1e-12 normalization tolerance applies.  Exact mode matters because the
downstream mapping constructions compare cumulative masses against
thresholds, and ties must resolve reproducibly.

Both modes share one atom path on a distribution's values: the numerators
in exact mode, the masses themselves in float mode.  Expansion extends
prefixes one symbol at a time.  A Markov string multiplies its initial
and transition entries left to right; an IID or mixture string takes the
one mass computed for its type, so equal types share float masses bit for
bit.  Exact Markov numerators are over the initial pmf's denominator
times the (n-1)-th power of the lcm of the transition denominators.

The type-class walk lives here, once: `_types` lists every type of an IID
or mixture source by columns (the types that share all but the last two
symbol counts), each column's masses built by C-level maps, with the
class size of its end types and its first key and key step.  `expand`
reads it in both modes, deriving each type's key and computing no class
size; the spectrum and the sweep read it in exact mode, where the masses
are integer numerators over the type-class denominator (the lcm of the
weight denominators times the n-th power of the lcm of the pmf
denominators).

This module alone knows how masses are stored: the rest of the package
reads them as `_values` over `_den`, and totals outcome sets with `_mass_of`.
It alone knows the source kinds too.  `_walk_params` is the one walk over
a variant's parameters, by its dataclass fields, which answers
`SourceModel.exact` and builds a float-mode run's `_float_twin`; and
`_has_types` is the one rule for which kinds have type classes (IID and
mixture sources) and which are expanded string by string (the rest).
The class list (`_ClassList`) lives here too: classes of equally likely
atoms by descending mass, each a mass and an atom count, one list per
distribution (its `_classes`, a class per distinct mass, each a run of its
descending order) and one per rational (source, n) (a class per type,
built by the spectrum module from the walk's columns, each column read
as two descending runs of numerators).  A type-class list is sorted and
sized in bands of descending mass only as far as a query reads, and a
query extends its running totals of mass and size over every band
appended.  Its `set_size` is the one rule for the smallest set of
heaviest outcomes that reaches a mass, in both modes.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, compress, cycle, repeat
from typing import Callable, Iterable, Sequence, Union

from .errors import CapExceeded, InvalidModel, ZeroMassOutcome

Mass = Union[Fraction, float]

#: Default limit on the number of atoms expand() will materialize.
DEFAULT_ATOM_CAP = 1 << 24

#: Normalization tolerance for float-mode distributions.
FLOAT_MASS_TOL = 1e-12

__all__ = [
    "DEFAULT_ATOM_CAP",
    "FLOAT_MASS_TOL",
    "AtomicDistribution",
    "IID",
    "Markov",
    "Mass",
    "Mixture",
    "Outcome",
    "SourceModel",
    "expand",
    "outcome_from_id",
    "outcome_id",
    "pmf_entropy",
    "self_information",
    "self_information_value",
    "sort_descending",
]


@dataclass(frozen=True)
class Outcome:
    """One element of X^n: its lexicographic rank and its symbol string."""

    id: int
    symbols: tuple[int, ...]


def outcome_id(symbols: Sequence[int], alphabet_size: int) -> int:
    """Lexicographic rank of a symbol string, i.e. its value in base k."""
    rank = 0
    for s in symbols:
        if not 0 <= s < alphabet_size:
            raise InvalidModel(f"symbol {s} outside alphabet of size {alphabet_size}")
        rank = rank * alphabet_size + s
    return rank


def outcome_from_id(oid: int, n: int, alphabet_size: int) -> Outcome:
    """Inverse of outcome_id: decode a rank into its base-k symbol string."""
    digits = [0] * n
    rem = oid
    for pos in range(n - 1, -1, -1):
        rem, digits[pos] = divmod(rem, alphabet_size)
    if rem:
        raise InvalidModel(f"outcome id {oid} outside space of size {alphabet_size}**{n}")
    return Outcome(oid, tuple(digits))


def _is_exact(value: Mass) -> bool:
    return isinstance(value, (Fraction, int))


def _validate_pmf(row: Sequence[Mass], what: str) -> tuple[Mass, ...]:
    row = tuple(row)
    if not row:
        raise InvalidModel(f"{what} is empty")
    # A non-finite entry makes a float total non-finite, so a finite (or
    # exact) total and a nonnegative minimum clear every entry at once.
    # Otherwise the entries are checked one by one, so the first bad one is
    # named, and a row that cannot be summed fails in the sum as before.
    try:
        total = sum(row)
        clean = (not isinstance(total, float) or math.isfinite(total)) and min(row) >= 0
    except (OverflowError, TypeError):
        clean = False
    if not clean:
        for v in row:
            if isinstance(v, float) and not math.isfinite(v):
                raise InvalidModel(f"{what} contains a non-finite entry")
            if v < 0:
                raise InvalidModel(f"{what} contains a negative entry")
        total = sum(row)
    if all(_is_exact(v) for v in row):
        if total != 1:
            raise InvalidModel(f"{what} sums to {total}, expected exactly 1")
    elif abs(total - 1) > FLOAT_MASS_TOL:
        raise InvalidModel(f"{what} sums to {total!r}, off by more than {FLOAT_MASS_TOL}")
    return row


def _common(values: Sequence[Mass]) -> tuple[int, list[int]]:
    """One denominator for rational values, and every value's numerator over it."""
    den = math.lcm(*{v.denominator for v in values})
    return den, [v.numerator * (den // v.denominator) for v in values]


#: A type-class list is built in bands whose floors step down its value
#: span (the bit lengths of its top and least positive numerators) in this
#: many equal steps, the last floor 1.
_BANDS = 16


class _ClassList:
    """Classes of equally likely atoms by descending mass: class i holds
    counts[i] atoms of mass nums[i] / den, and cum[i] / den and sizes[i]
    are the mass and atom count of classes 0..i.  There is one list per
    distribution (its `_classes`, a class per distinct mass, built whole
    by `build`) and one per rational (source, n) (a class per type, built
    from the walk's columns by `of_types`).

    A type-class list is built in bands of descending mass: band b holds
    the classes at or above floor F_b that no band before it holds.  In a
    column the numerators are convex in the last count (a geometric
    sequence per mixture component, added), so a column falls to its last
    least numerator and strictly rises after it: it is two descending
    runs, its head and its tail reversed.  A band takes the prefix of each
    run at or above its floor, stepping one class-size recurrence only
    over the classes it emits, and appends them sorted on the numerator
    alone.  Every class after a band is below its floor, so the list is
    always a prefix of the whole list sorted once; the sort is stable, a
    head run comes before its tail run and a tail run holds no two equal
    numerators, so classes of one mass keep the walk's order.

    The running totals are computed only as far as they are read: a query
    at a level extends them over the bands appended so far, heaviest
    first and emitting the next band whenever the classes run out, until
    they reach it.  nums, counts, cum, sizes and equality read the whole
    list.  Classes of one mass keep the order they were given in: set
    sizes, quantiles and merged points are the same in any order of them.

    An exact list holds integer numerators.  A float distribution's list
    holds its float masses over den 1 and is read only through nums,
    counts, sizes and set_size: cum, reaching and value_at are for exact
    lists.
    """

    def __init__(self, n: int, den: int, nums: list[int | float], counts: list[int]) -> None:
        self.n, self.den = n, den
        self._nums, self._counts = nums, counts
        self._cum: list[int | float] = []
        self._sizes: list[int] = []
        # Per run not yet emitted whole: its numerators, its r, its front
        # and the class size there; and the floors of the bands still to
        # come, ascending.
        self._runs: list[list] = []
        self._floors: list[int] = []

    @classmethod
    def build(
        cls, n: int, den: int, nums: Sequence[int | float], counts: Sequence[int]
    ) -> _ClassList:
        """From the mass times den and the atom count of each class, all of
        positive mass: one sort on the masses alone."""
        order = sorted(range(len(nums)), key=nums.__getitem__, reverse=True)
        return cls(n, den, list(map(nums.__getitem__, order)), list(map(counts.__getitem__, order)))

    @classmethod
    def of_types(cls, n: int, den: int, columns: Sequence[tuple]) -> _ClassList:
        """From `_types`' exact columns, emitting no band yet.  A column
        falls to its last least numerator and rises after it, so it is two
        descending runs: its head up to there, and the rest reversed.  The
        columns are consumed: each numerator list is cut to its head run,
        so no column is held twice."""
        classes = cls(n, den, [], [])
        columns = [column for column in columns if any(column[0])]
        top = max(max(nums[0], nums[-1]) for nums, *_ in columns)
        span = top.bit_length() - min(min(filter(None, nums)) for nums, *_ in columns).bit_length()
        for nums, size, _, _ in columns:
            cut, r = len(nums) - nums[::-1].index(min(nums)), len(nums) - 1
            tail = nums[:cut - 1:-1]
            del nums[cut:]
            classes._runs += [nums, r, 0, size], [tail, r, 0, size]
        floors = {top >> (span * b // _BANDS) for b in range(1, _BANDS)}
        classes._floors = [1, *sorted(floors - {0, 1})]
        return classes

    def _emit(self, floor: int) -> None:
        """Append the band at floor: every run's classes at or above it that
        no band before holds, sorted on the numerator alone.  Class i of a
        run lies i places from its column's end, so its size is the run's
        size * C(r, i) on either run, as C(r, j) = C(r, r - j), and steps
        from the one before by C(r, i + 1) = C(r, i) * (r - i) // (i + 1)."""
        nums: list[int] = []
        counts: list[int] = []
        live = []
        for run in self._runs:
            column, r, i, size = run
            first = i
            while i < len(column) and column[i] >= floor:
                counts.append(size)
                size = size * (r - i) // (i + 1)
                i += 1
            nums += column[first:i]
            if i < len(column):
                run[2:] = i, size
                live.append(run)
        self._runs = live
        order = sorted(range(len(nums)), key=nums.__getitem__, reverse=True)
        self._nums += map(nums.__getitem__, order)
        self._counts += map(counts.__getitem__, order)

    @property
    def nums(self) -> list[int | float]:
        self._extend(None)
        return self._nums

    @property
    def counts(self) -> list[int]:
        self._extend(None)
        return self._counts

    @property
    def cum(self) -> list[int | float]:
        self._extend(None)
        return self._cum

    @property
    def sizes(self) -> list[int]:
        self._extend(None)
        return self._sizes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _ClassList):
            return NotImplemented
        return (self.n, self.den, self.nums, self.counts) == (
            other.n, other.den, other.nums, other.counts
        )

    def _extend(self, goal: int | None) -> None:
        """Extend the running totals until the mass total reaches goal, or
        over every class for None: over every class appended since the last
        total, one C-level accumulate per total, emitting the next band
        whenever the classes run out before the goal."""
        cum, nums = self._cum, self._nums
        while goal is None or not cum or cum[-1] < goal:
            if len(cum) == len(nums):
                if not self._floors:
                    return
                self._emit(self._floors.pop())
            start = len(cum)
            counts = self._counts[start:]
            for totals, steps in (
                (cum, map(operator.mul, nums[start:], counts)), (self._sizes, counts)
            ):
                running = accumulate(steps, initial=totals[-1] if totals else 0)
                next(running)
                totals.extend(running)

    def reaching(self, level: Mass) -> int:
        """The class where the exact cdf reaches level <= 1: the first whose
        running numerator reaches level * den rounded up."""
        level = Fraction(level)
        goal = -(-level.numerator * self.den // level.denominator)
        self._extend(goal)
        return bisect.bisect_left(self._cum, goal)

    def value_at(self, level: Mass) -> float:
        """The value of the class where the exact cdf reaches level."""
        return _reduced_value(self._nums[self.reaching(level)], self.den, self.n)

    def set_size(self, target: Mass) -> int:
        """Fewest atoms, heaviest first, whose mass reaches target; at least
        one.  Exact: whole classes, and the ceiling count the class where
        the cdf reaches target <= 1 needs, by integer cross-multiplication.
        Float: the masses added left to right from 0, a class at a time in
        C, against the least float at or above target; every atom if the
        total never reaches it."""
        if self._nums and isinstance(self._nums[0], float):
            goal = float(target)
            if goal < target:
                goal = math.nextafter(goal, math.inf)
            total, before = 0.0, 0
            for mass, count in zip(self.nums, self.counts):
                loads = list(accumulate(repeat(mass, count), initial=total))
                reach = bisect.bisect_left(loads, goal, 1)
                if reach < len(loads):
                    return before + reach
                total, before = loads[-1], before + count
            return before
        target = Fraction(target)
        if target <= 0:
            return 1
        last = self.reaching(target)
        need, scale = target.numerator * self.den, target.denominator
        cum_before, size_before = (self._cum[last - 1], self._sizes[last - 1]) if last else (0, 0)
        return size_before - (cum_before * scale - need) // (self._nums[last] * scale)


@dataclass(frozen=True)
class AtomicDistribution:
    """An explicit pmf over the enumerated outcome space X^n.

    masses[i] is the probability of the outcome with id i.  The tuple has
    exactly alphabet_size**n entries.  `exact` records the arithmetic mode;
    a float distribution stores its masses as floats whatever it is given.
    An exact distribution also holds _nums[i] / _den, integer numerators
    over one shared denominator, checked in ints to sum to it, and its
    masses are rationals equal to them.  Built from masses, the numerators
    are derived over the lcm of the mass denominators; built internally
    from numerators, it stores only those, and `masses` is built when first
    read, one shared reduced Fraction per distinct numerator.  `mass` reads
    one atom without building it.
    """

    masses: tuple[Mass, ...]
    n: int
    alphabet_size: int
    exact: bool
    _nums: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _den: int = field(default=1, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1 or self.alphabet_size < 1:
            raise InvalidModel("blocklength and alphabet size must be positive")
        # Built from numerators, the masses are not there to count.
        size = len(self.masses if self._nums is None else self._nums)
        if size != self.alphabet_size**self.n:
            raise InvalidModel(
                f"mass vector has {size} entries, expected {self.alphabet_size}**{self.n}"
            )
        if not self.exact:
            object.__setattr__(self, "masses", tuple(map(float, self.masses)))
            _validate_pmf(self.masses, "mass vector")
            return
        if self._nums is None:
            if not all(_is_exact(m) for m in self.masses):
                _validate_pmf(self.masses, "mass vector")
                raise InvalidModel("exact mode requires rational masses")
            den, nums = _common(self.masses)
            object.__setattr__(self, "_nums", tuple(nums))
            object.__setattr__(self, "_den", den)
        if min(self._nums) < 0:
            raise InvalidModel("mass vector contains a negative entry")
        total = sum(self._nums)
        if total != self._den:
            total = Fraction(total, self._den)
            raise InvalidModel(f"mass vector sums to {total}, expected exactly 1")

    def __getattr__(self, name: str):
        # Reached for masses only on a distribution from _from_values, before
        # its first read.
        if name != "masses" or self._nums is None:
            raise AttributeError(name)
        den = self._den
        shared = {num: Fraction(num, den) for num in set(self._nums)}
        masses = tuple(map(shared.__getitem__, self._nums))
        object.__setattr__(self, "masses", masses)
        return masses

    @property
    def _values(self) -> tuple[Mass, ...]:
        """What the atom path computes on: the integer numerators over _den
        in exact mode, the masses themselves (over _den = 1) in float mode."""
        return self._nums if self.exact else self.masses

    def _mass_of(self, ids: Iterable[int]) -> Mass:
        """Total mass of the outcomes ids.  Exact: the numerators summed in
        ints and divided once.  Float: the masses added left to right from
        0.0, not with built-in sum, which compensates since Python 3.12."""
        values = map(self._values.__getitem__, ids)
        if self.exact:
            return Fraction(sum(values), self._den)
        return reduce(operator.add, values, 0.0)

    @classmethod
    def _from_values(
        cls, values: Sequence[Mass], den: int, n: int, alphabet_size: int, exact: bool
    ) -> "AtomicDistribution":
        """The distribution whose _values are values over den, checked."""
        if not exact:
            return cls(values, n, alphabet_size, False)
        dist = cls.__new__(cls)
        for name, value in (
            ("n", n), ("alphabet_size", alphabet_size), ("exact", True),
            ("_nums", tuple(values)), ("_den", den),
        ):
            object.__setattr__(dist, name, value)
        dist.__post_init__()
        return dist

    @classmethod
    def from_masses(
        cls,
        masses: Sequence[Mass],
        n: int,
        alphabet_size: int,
        exact: bool | None = None,
    ) -> "AtomicDistribution":
        """Build a distribution, inferring the arithmetic mode if not given."""
        entries = tuple(masses)
        if exact is None:
            exact = all(_is_exact(m) for m in entries)
        if exact:
            entries = tuple(Fraction(m) for m in entries)
        return cls(entries, n, alphabet_size, exact)

    def mass(self, oid: int) -> Mass:
        return self._as_mass(self._values[oid])

    def _as_mass(self, value: Mass) -> Mass:
        """The mass of an atom whose entry of _values is value, read without
        `masses`: Fraction(value, _den) in exact mode, value itself in float
        mode."""
        return Fraction(value, self._den) if self.exact else value

    def outcome(self, oid: int) -> Outcome:
        return outcome_from_id(oid, self.n, self.alphabet_size)

    def support(self) -> tuple[int, ...]:
        """Ids of all outcomes with positive mass, in ascending order."""
        return self._support

    # Derived views, computed on first read and kept in the instance dict:
    # not fields, so equality, hash and repr do not see them.

    @cached_property
    def _support(self) -> tuple[int, ...]:
        # Masses are nonnegative, so the nonzero ones are the positive ones.
        return tuple(compress(range(len(self._values)), self._values))

    @cached_property
    def _descending(self) -> tuple[int, ...]:
        # The stable sort of every id, built as the support sorted and then
        # the zero masses in ascending id order, so that both views hold the
        # same int objects: one set per distribution, not two.
        keys, support = self._values, self._support
        order = sorted(support, key=keys.__getitem__, reverse=True)
        if len(order) < len(keys):
            order.extend(compress(range(len(keys)), map(operator.not_, keys)))
        return tuple(order)

    @cached_property
    def _classes(self) -> _ClassList:
        # One class per distinct positive value, heaviest first: the runs of
        # _descending's support prefix, from one count of the positive
        # values and one sort of the distinct ones.
        values = self._values
        counts = Counter(compress(values, values))
        return _ClassList.build(self.n, self._den, list(counts), list(counts.values()))


@dataclass(frozen=True)
class IID:
    """Independent repetitions of a single-symbol pmf."""

    pmf: tuple[Mass, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pmf", _validate_pmf(self.pmf, "single-symbol pmf"))

    @property
    def alphabet_size(self) -> int:
        return len(self.pmf)


@dataclass(frozen=True)
class Markov:
    """A homogeneous Markov chain given by an initial pmf and transition rows."""

    initial: tuple[Mass, ...]
    transition: tuple[tuple[Mass, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial", _validate_pmf(self.initial, "initial pmf"))
        rows = tuple(
            _validate_pmf(row, f"transition row {i}") for i, row in enumerate(self.transition)
        )
        object.__setattr__(self, "transition", rows)
        k = len(self.initial)
        if len(rows) != k or any(len(row) != k for row in rows):
            raise InvalidModel("transition matrix shape does not match the alphabet")

    @property
    def alphabet_size(self) -> int:
        return len(self.initial)


@dataclass(frozen=True)
class Mixture:
    """A finite mixture of IID components with positive weights summing to 1."""

    weights: tuple[Mass, ...]
    components: tuple[IID, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.components) or not self.components:
            raise InvalidModel("mixture needs one weight per component")
        for w in self.weights:
            if w <= 0:
                raise InvalidModel("mixture weights must be positive")
        _validate_pmf(self.weights, "mixture weights")
        sizes = {c.alphabet_size for c in self.components}
        if len(sizes) != 1:
            raise InvalidModel("mixture components must share one alphabet")

    @property
    def alphabet_size(self) -> int:
        return self.components[0].alphabet_size


Variant = Union[IID, Markov, Mixture]


@dataclass(frozen=True)
class SourceModel:
    """A finite-n instantiation of a general source."""

    variant: Variant
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidModel("blocklength must be at least 1")

    @property
    def alphabet_size(self) -> int:
        return self.variant.alphabet_size

    @property
    def exact(self) -> bool:
        """True when every model parameter is rational."""
        return _walk_params(self.variant, _is_exact, lambda kind, parts: all(parts))


def _walk_params(node: object, leaf: Callable, join: Callable) -> object:
    """leaf(p) for every parameter p under node, joined bottom up: the parts
    of a tuple, in order, or of a variant's dataclass fields, in declaration
    order and into IID components, become join(kind, parts) for the tuple
    type or the variant's class.  The one walk over a source's parameters,
    so a new kind or field needs no branch here."""
    if isinstance(node, tuple):
        return join(tuple, [_walk_params(part, leaf, join) for part in node])
    if is_dataclass(node):
        parts = [_walk_params(getattr(node, f.name), leaf, join) for f in fields(node)]
        return join(type(node), parts)
    return leaf(node)


def _float_twin(variant: Variant) -> Variant:
    """The variant with every parameter p replaced by float(p), rebuilt by
    the same constructors, which check it as they check any float source."""
    return _walk_params(
        variant, float, lambda kind, parts: kind(parts) if kind is tuple else kind(*parts)
    )


def _has_types(variant: Variant) -> bool:
    """True for the kinds whose string masses depend only on the string's
    type (its symbol counts), which `_types` walks: IID and mixture sources.
    Every other kind is expanded string by string.  The one expand-or-types
    rule: `expand`, the spectrum's class lists and the sweep read it."""
    return isinstance(variant, (IID, Mixture))


def _powers(p: Mass, n: int) -> list[Mass]:
    """p**c for c = 0..n, with an int 1 at c = 0 so that no product changes
    type.  Rationals by repeated multiplication, the same values faster;
    floats by `**`, since repeated multiplication rounds differently."""
    if _is_exact(p):
        return list(accumulate(repeat(p, n), operator.mul, initial=1))
    return [1] + [p**c for c in range(1, n + 1)]


def _types(
    variant: IID | Mixture, n: int, exact: bool
) -> tuple[int, list[tuple[list[Mass], int, int, int]]]:
    """Denominator D, and every type (symbol counts) of length-n strings by
    columns, the first count descending: a column holds the types that
    share the counts of all but the last two symbols, r of them left, as
    (nums, size, key, step).  nums[j] is D times the mass of one string of
    the type whose last count is j (so the one before is r - j), for j = 0
    .. r, and 0 for a type of zero mass; size is the class size of the
    types at either end, the multinomial of the shared counts, and the
    type j's class size is size * C(r, j); key + j * step is its key, its
    counts in base n + 1.

    Exact (as the caller has read the model) weights and pmfs become
    numerators over the lcm w_den of the weight denominators and the lcm
    p_den of the pmf denominators, so D is w_den * p_den**n; float ones are
    the model's values over D = 1.  Each symbol has a power table per
    component, and a shared count's class size steps as the count does,
    C(r, c - 1) = C(r, c) * c // (r - c + 1).  A component multiplies its
    powers left to right and its weight last; components add left to
    right (built-in sum compensates floats since Python 3.12).  A column's
    masses are built by C-level maps.
    """
    if isinstance(variant, IID):
        weights, pmfs = (1,), (variant.pmf,)
    else:
        weights, pmfs = variant.weights, [c.pmf for c in variant.components]
    k = variant.alphabet_size
    den = 1
    if exact:
        w_den, weights = _common(weights)
        p_den, flat = _common([p for pmf in pmfs for p in pmf])
        pmfs = [flat[i * k:(i + 1) * k] for i in range(len(pmfs))]
        den = w_den * p_den**n
    # tables[s][j][c] = (pmf j's value for symbol s) ** c
    tables = [[_powers(pmf[s], n) for pmf in pmfs] for s in range(k)]
    if k == 1:
        # One type, of positive mass: a one-symbol pmf is (1,).
        return den, [([reduce(operator.add, [w * t[n] for w, t in zip(weights, tables[0])])], 1, n, 1)]
    columns: list[tuple[list[Mass], int, int, int]] = []
    _walk(tables, weights, [(n + 1) ** s for s in range(k)], 0, n, 0, 1, [1] * len(pmfs), columns)
    return den, columns


def _walk(
    tables: Sequence[Sequence[Sequence[Mass]]], weights: Sequence[Mass], digits: Sequence[int],
    s: int, rest: int, key: int, size: int, prods: Sequence[Mass],
    columns: list[tuple[list[Mass], int, int, int]],
) -> None:
    """Append to columns those of the types whose counts for symbols s on
    sum to rest, given the key, the class size and the per-component
    products of the counts before s; the count of symbol s runs down from
    rest, and the last symbol takes what remains."""
    here = tables[s]
    if s < len(tables) - 2:
        for c in range(rest, -1, -1):
            prefix = [p * t[c] for p, t in zip(prods, here)]
            _walk(tables, weights, digits, s + 1, rest - c, key + c * digits[s], size, prefix, columns)
            size = size * c // (rest - c + 1)
        return
    # The last two symbols, one column: per component the masses for counts
    # rest..0 of symbol s, skipping products by 1, which change no bit.
    mul = operator.mul
    nums = None
    for w, p, t, u in zip(weights, prods, here, tables[s + 1]):
        powers = t[rest::-1] if p == 1 else map(mul, repeat(p), t[rest::-1])
        column = map(mul, powers, u)
        if w != 1:
            column = map(mul, repeat(w), column)
        nums = column if nums is None else map(operator.add, nums, column)
    low, high = digits[s], digits[s + 1]
    columns.append((list(nums), size, key + rest * low, high - low))


def _chain_numerators(
    initial: Sequence[Mass], rows: Sequence[Sequence[Mass]], n: int
) -> list[Mass]:
    """Value of every length-n string, in id order: initial[s] for the
    first symbol times rows[s][t] for each symbol t after an s, multiplied
    left to right.

    Strings are extended one symbol at a time; a prefix's last symbol is
    its index mod k, so cycling through the rows pairs each prefix with its
    own.
    """
    nums = list(initial)
    for _ in range(n - 1):
        nums = [x * p for x, row in zip(nums, cycle(rows)) for p in row]
    return nums


def expand(model: SourceModel, cap: int = DEFAULT_ATOM_CAP) -> AtomicDistribution:
    """Materialize the distribution of X^n for a source model, in the
    model's arithmetic mode.

    Raises CapExceeded when the outcome space would exceed `cap` atoms.
    """
    k, n = model.alphabet_size, model.n
    size = k**n
    if size > cap:
        raise CapExceeded(f"outcome space holds {size} atoms, cap is {cap}")

    variant, exact = model.variant, model.exact
    if not _has_types(variant):
        den, init, rows = 1, variant.initial, variant.transition
        if exact:
            init_den, init = _common(init)
            step, flat = _common([p for row in rows for p in row])
            rows = [flat[i * k:(i + 1) * k] for i in range(k)]
            den = init_den * step ** (n - 1)
        values = _chain_numerators(init, rows, n)
    else:
        # A string's type key is its symbol counts in base n + 1.
        den, columns = _types(variant, n, exact)
        by_type = {}
        for nums, _, key, step in columns:
            by_type.update(zip(range(key, key + step * len(nums), step), nums))
        digits = [(n + 1) ** s for s in range(k)]
        index = digits
        for _ in range(n - 1):
            index = [x + d for x in index for d in digits]
        values = list(map(by_type.get, index, repeat(0)))
    return AtomicDistribution._from_values(values, den, n, k, exact)


def sort_descending(dist: AtomicDistribution) -> tuple[int, ...]:
    """Outcome ids ordered by strictly descending mass, ties by ascending id.

    Python's sort is stable, so reversing on the mass key alone keeps equal
    masses in their original ascending-id order.  Exact distributions sort
    on their integer numerators.  The order is computed once per
    distribution, on the first call, and every later call returns it.
    """
    return dist._descending


def _reduced_value(num: int, den: int, n: int) -> float:
    """(1/n) log(den / num) for positive ints, from the logs of the reduced
    numerator and denominator, so it is the same float for every (num, den)
    of one ratio."""
    g = math.gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return (math.log(den) - math.log(num)) / n


def self_information_value(mass: Mass, n: int) -> float:
    """(1/n) log(1/mass) in nats, robust for exact masses of any magnitude.

    Rational masses are split into integer logarithms so that values far
    below the double-precision range (deep type classes at large n) do not
    underflow on conversion.
    """
    if isinstance(mass, (int, Fraction)):
        return _reduced_value(mass.numerator, mass.denominator, n)
    return -math.log(mass) / n


def self_information(dist: AtomicDistribution, outcome: Outcome | int) -> float:
    """Normalized self-information (1/n) log(1/P(x)) of one outcome, in nats."""
    oid = outcome.id if isinstance(outcome, Outcome) else outcome
    mass = dist.mass(oid)
    if mass == 0:
        raise ZeroMassOutcome(f"outcome {oid} has probability zero")
    return self_information_value(mass, dist.n)


def pmf_entropy(pmf: Sequence[Mass]) -> float:
    """Shannon entropy of a single-symbol pmf, in nats."""
    total = 0.0
    for p in pmf:
        if p > 0:
            total += float(p) * self_information_value(p, 1)
    return total
