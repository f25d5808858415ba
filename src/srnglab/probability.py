"""Finite-blocklength sources and exact distributions over the outcome space.

A source model (IID, Markov chain, or a finite mixture of IID components)
is materialized at blocklength n as an explicit probability mass function
over all alphabet_size**n outcomes.  Outcomes are indexed lexicographically
by their symbol strings, so outcome ids double as base-k integers.

Two arithmetic modes are supported.  In exact mode a distribution holds
integer numerators over one shared denominator, and all comparisons are
exact; this is the default whenever the model parameters are rational.
Its public `masses` are `fractions.Fraction`s derived from those integers,
one shared object per distinct numerator, so sorting, merging and
summarizing work on ints while every reader of `masses` sees reduced
fractions.  In float mode masses are doubles and the usual 1e-12
normalization tolerance applies.  Exact mode matters because the
downstream mapping constructions compare cumulative masses against
thresholds, and ties must resolve reproducibly.

Both modes share one atom path on a distribution's values: the numerators
in exact mode, the masses themselves in float mode.  Expansion extends
prefixes one symbol at a time.  A Markov string multiplies its initial
and transition entries left to right; an IID or mixture string takes the
one mass computed for its type, so equal types share float masses bit for
bit.  Exact Markov numerators are over the initial pmf's denominator
times the (n-1)-th power of the lcm of the transition denominators.

The type-class walk lives here, once: `_types` yields every positive-mass
type of an IID or mixture source with its key, one sequence's mass and
its class size.  `expand` reads it in both modes; the spectrum and the
sweep read it in exact mode, where the masses are integer numerators over
the type-class denominator (the lcm of the weight denominators times the
n-th power of the lcm of the pmf denominators).

This module alone knows how masses are stored: the rest of the package
reads them as `_values` over `_den`, and totals outcome sets with `_mass_of`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, cycle, repeat
from typing import Iterable, Iterator, Sequence, Union

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


@dataclass(frozen=True)
class AtomicDistribution:
    """An explicit pmf over the enumerated outcome space X^n.

    masses[i] is the probability of the outcome with id i.  The tuple has
    exactly alphabet_size**n entries.  `exact` records the arithmetic mode.
    An exact distribution also holds _nums[i] / _den, integer numerators
    over one shared denominator, checked in ints to sum to it, and its
    masses are rationals equal to them.  Built from masses, the numerators
    are derived over the lcm of the mass denominators; built internally
    from numerators, each mass is one shared reduced Fraction per distinct
    numerator.
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
        if len(self.masses) != self.alphabet_size**self.n:
            raise InvalidModel(
                f"mass vector has {len(self.masses)} entries, "
                f"expected {self.alphabet_size}**{self.n}"
            )
        if not self.exact:
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
            return cls.from_masses(values, n, alphabet_size, exact=False)
        nums = tuple(values)
        shared = {num: Fraction(num, den) for num in set(nums)}
        masses = tuple(map(shared.__getitem__, nums))
        dist = cls.__new__(cls)
        for name, value in (
            ("masses", masses), ("n", n), ("alphabet_size", alphabet_size),
            ("exact", True), ("_nums", nums), ("_den", den),
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
        else:
            entries = tuple(float(m) for m in entries)
        return cls(entries, n, alphabet_size, exact)

    def mass(self, oid: int) -> Mass:
        return self.masses[oid]

    def outcome(self, oid: int) -> Outcome:
        return outcome_from_id(oid, self.n, self.alphabet_size)

    def support(self) -> tuple[int, ...]:
        """Ids of all outcomes with positive mass, in ascending order."""
        return tuple(i for i, m in enumerate(self.masses) if m > 0)


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
        v = self.variant
        if isinstance(v, IID):
            return all(_is_exact(p) for p in v.pmf)
        if isinstance(v, Markov):
            return all(_is_exact(p) for p in v.initial) and all(
                _is_exact(p) for row in v.transition for p in row
            )
        return all(_is_exact(w) for w in v.weights) and all(
            _is_exact(p) for c in v.components for p in c.pmf
        )


def _powers(p: Mass, n: int) -> list[Mass]:
    """p**c for c = 0..n, with an int 1 at c = 0 so that no product changes
    type.  Rationals by repeated multiplication, the same values faster;
    floats by `**`, since repeated multiplication rounds differently."""
    if _is_exact(p):
        return list(accumulate(repeat(p, n), operator.mul, initial=1))
    return [1] + [p**c for c in range(1, n + 1)]


def _types(variant: IID | Mixture, n: int) -> tuple[int, Iterator[tuple[int, Mass, int]]]:
    """Denominator D, and (key, mass times D of one string, class size) of
    every positive-mass type (symbol counts) of length-n strings, the first
    count descending; the key is the counts in base n + 1.

    Exact weights and pmfs become numerators over the lcm w_den of the
    weight denominators and the lcm p_den of the pmf denominators, so D is
    w_den * p_den**n; float ones are the model's values over D = 1.  Each
    symbol has a power table per component, and a class size steps as its
    count does, C(r, c - 1) = C(r, c) * c // (r - c + 1).  A component
    multiplies its powers left to right and its weight last; components
    add left to right (built-in sum compensates floats since Python 3.12).
    """
    if not isinstance(variant, (IID, Mixture)):
        raise InvalidModel("type classes need an IID or mixture source")
    if isinstance(variant, IID):
        weights, pmfs = (1,), (variant.pmf,)
    else:
        weights, pmfs = variant.weights, [c.pmf for c in variant.components]
    k = variant.alphabet_size
    den = 1
    if SourceModel(variant, n).exact:
        w_den, weights = _common(weights)
        p_den, flat = _common([p for pmf in pmfs for p in pmf])
        pmfs = [flat[i * k:(i + 1) * k] for i in range(len(pmfs))]
        den = w_den * p_den**n
    # tables[s][j][c] = (pmf j's value for symbol s) ** c
    tables = [[_powers(pmf[s], n) for pmf in pmfs] for s in range(k)]
    digits = [(n + 1) ** s for s in range(k)]
    return den, _walk(tables, weights, digits, 0, n, 0, 1, [1] * len(pmfs))


def _walk(
    tables: Sequence[Sequence[Sequence[Mass]]], weights: Sequence[Mass], digits: Sequence[int],
    s: int, rest: int, key: int, size: int, prods: Sequence[Mass],
) -> Iterator[tuple[int, Mass, int]]:
    """Types whose counts for symbols s on sum to rest, given the key, the
    class size and the per-component products of the counts before s; the
    count of symbol s runs down from rest, and the last symbol takes what
    remains."""
    here = tables[s]
    if s == len(tables) - 1:
        num = reduce(operator.add, [w * (p * t[rest]) for w, p, t in zip(weights, prods, here)])
        if num:
            yield key + rest * digits[s], num, size
        return
    if s < len(tables) - 2:
        for c in range(rest, -1, -1):
            prefix = [p * t[c] for p, t in zip(prods, here)]
            yield from _walk(
                tables, weights, digits, s + 1, rest - c, key + c * digits[s], size, prefix
            )
            size = size * c // (rest - c + 1)
        return
    # The last two symbols: per component, the masses for counts rest..0,
    # lazily, so no column of big ints is held at once.
    mul = operator.mul
    columns = [
        map(mul, repeat(w), map(mul, map(mul, repeat(p), t[rest::-1]), u))
        for w, p, t, u in zip(weights, prods, here, tables[s + 1])
    ]
    low, high = digits[s], digits[s + 1]
    keys = range(key + rest * low, key + rest * high + 1, high - low)
    masses = reduce(partial(map, operator.add), columns)
    for c, key, num in zip(range(rest, -1, -1), keys, masses):
        if num:
            yield key, num, size
        size = size * c // (rest - c + 1)


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
    if isinstance(variant, Markov):
        den, init, rows = 1, variant.initial, variant.transition
        if exact:
            init_den, init = _common(init)
            step, flat = _common([p for row in rows for p in row])
            rows = [flat[i * k:(i + 1) * k] for i in range(k)]
            den = init_den * step ** (n - 1)
        values = _chain_numerators(init, rows, n)
    else:
        # A string's type key is its symbol counts in base n + 1; the walk
        # yields no type of zero mass.
        den, types = _types(variant, n)
        by_type = {key: num for key, num, _ in types}
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
    on their integer numerators.
    """
    keys = dist._values
    return tuple(sorted(range(len(keys)), key=keys.__getitem__, reverse=True))


def self_information_value(mass: Mass, n: int) -> float:
    """(1/n) log(1/mass) in nats, robust for exact masses of any magnitude.

    Rational masses are split into integer logarithms so that values far
    below the double-precision range (deep type classes at large n) do not
    underflow on conversion.
    """
    if isinstance(mass, int):
        mass = Fraction(mass)
    if isinstance(mass, Fraction):
        return (math.log(mass.denominator) - math.log(mass.numerator)) / n
    return -math.log(mass) / n


def self_information(dist: AtomicDistribution, outcome: Outcome | int) -> float:
    """Normalized self-information (1/n) log(1/P(x)) of one outcome, in nats."""
    oid = outcome.id if isinstance(outcome, Outcome) else outcome
    mass = dist.masses[oid]
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
