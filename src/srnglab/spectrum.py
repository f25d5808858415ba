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

Every tail is summed from the top point down by one helper, so a float
tail does not depend on which function asked for it.

For IID and mixture sources the spectrum depends on a sequence only through
its symbol counts, so large blocklengths are handled by enumerating type
classes instead of outcomes: binomially many terms for a binary alphabet
instead of 2**n.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .divergence import FCurve, _budget_threshold, check_conditions
from .errors import InvalidModel, OutOfRange
from .probability import (
    DEFAULT_ATOM_CAP,
    IID,
    AtomicDistribution,
    Mass,
    Mixture,
    SourceModel,
    _iid_type_mass,
    expand,
    self_information,
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
        return tuple(v for v, _ in self.points)


def spectrum_cdf(dist: AtomicDistribution) -> SpectrumSummary:
    """Summarize a materialized distribution into its information spectrum.

    Outcomes sharing one computed value are merged, their masses added in
    the distribution's own arithmetic.
    """
    acc: dict[float, Mass] = {}
    for oid, mass in enumerate(dist.masses):
        if mass == 0:
            continue
        value = self_information(dist, oid)
        acc[value] = acc.get(value, 0) + mass
    return SpectrumSummary(points=tuple(sorted(acc.items())), n=dist.n)


def _top_sums(points: Sequence[tuple[float, Mass]]) -> list[Mass]:
    # sums[j] = mass of the j highest points, added from the top down, so
    # every tail is summed in one order and the empty tail is exactly 0.
    sums: list[Mass] = [0]
    for _, mass in reversed(points):
        sums.append(sums[-1] + mass)
    return sums


def _tails(summary: SpectrumSummary) -> Iterator[tuple[float, Mass]]:
    # (v, Pr{V > v}) for every point v in ascending order; no such tail
    # holds the lowest point, so its mass is never added.
    return zip(summary.values(), reversed(_top_sums(summary.points[1:])))


def tail_above(summary: SpectrumSummary, v: float) -> Mass:
    """Pr{V > v}, accumulated from the top so the largest value has tail 0."""
    return _top_sums(summary.points[bisect.bisect_right(summary.values(), v):])[-1]


def tail_from(summary: SpectrumSummary, v: float) -> Mass:
    """Pr{V >= v}."""
    return _top_sums(summary.points[bisect.bisect_left(summary.values(), v):])[-1]


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
    value = next(v for v, tail in _tails(summary) if tail <= eps)
    return RateReport(
        quantity="sup_entropy_quantile",
        value=value,
        n=summary.n,
        detail=(("eps", str(eps)),),
    )


def k_f_rate(summary: SpectrumSummary, curve: FCurve, delta: Mass) -> RateReport:
    """Smallest spectrum point v whose cdf F satisfies f(F) <= delta.

    Only defined for nonincreasing curves.  The predicate is evaluated
    through the inverse threshold F >= f^{-1}(delta), which is the same
    statement by the minimum convention of the inverse and keeps rational
    tails inside exact comparisons.  The top point always qualifies since
    its cdf is exactly one and f(1) = 0.
    """
    if delta < 0:
        raise OutOfRange(f"divergence budget must be nonnegative, got {delta}")
    if not check_conditions(curve).nonincreasing:
        raise OutOfRange(f"{curve.name} is not nonincreasing; its rate is undefined here")
    thr = _budget_threshold(curve, delta)
    value = next(v for v, tail in _tails(summary) if 1 - tail >= thr)
    return RateReport(
        quantity="k_f_rate",
        value=value,
        n=summary.n,
        detail=(("curve", curve.name), ("delta", str(delta))),
    )


def smooth_max_entropy(dist: AtomicDistribution, delta: Mass) -> tuple[float, frozenset[int]]:
    """log of the smallest outcome set holding mass at least 1 - delta.

    Returns the log size in nats together with the achieving set, built
    greedily by descending mass with ascending-id ties.  The set always
    contains the heaviest outcome, so a tail budget of one or more still
    yields a singleton.  In exact mode the target is met exactly; a float
    accumulation that never reaches it falls back to the full support.
    """
    if delta < 0 or delta > 1:
        raise OutOfRange(f"tail budget must lie in [0, 1], got {delta}")
    target: Mass = 1 - Fraction(delta) if dist.exact else 1.0 - float(delta)
    chosen, _ = _descending_prefix(dist, sort_descending(dist), target)
    return math.log(len(chosen)), frozenset(chosen)


def _descending_prefix(
    dist: AtomicDistribution, order: Sequence[int], target: Mass
) -> tuple[list[int], Mass]:
    """Shortest prefix of the descending order whose mass reaches target,
    and that mass; never empty, and never past the last positive mass."""
    ids: list[int] = []
    mass: Mass = 0
    for x in order:
        if dist.masses[x] == 0:
            break
        ids.append(x)
        mass = mass + dist.masses[x]
        if mass >= target:
            break
    return ids, mass


def _compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _multinomial(n: int, counts: Sequence[int]) -> int:
    out, rem = 1, n
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


def _types(variant: IID | Mixture, n: int) -> Iterator[tuple[Fraction, int]]:
    """(per-sequence mass, class size) of every positive-mass type class.

    Sequence probability depends on the symbol counts alone, so one exact
    term per composition of n stands for its whole class.
    """
    if not SourceModel(variant, n).exact:
        raise InvalidModel("type-class enumeration needs rational source parameters")
    if not isinstance(variant, (IID, Mixture)):
        raise InvalidModel("type classes need an IID or mixture source")
    parts = ((1, variant),) if isinstance(variant, IID) else zip(variant.weights, variant.components)
    weighted = tuple((Fraction(w), tuple(Fraction(p) for p in c.pmf)) for w, c in parts)
    for counts in _compositions(n, variant.alphabet_size):
        seq_mass = sum(w * _iid_type_mass(pmf, counts) for w, pmf in weighted)
        if seq_mass != 0:
            yield seq_mass, _multinomial(n, counts)


def typeclass_spectrum(variant: IID | Mixture, n: int) -> SpectrumSummary:
    """Spectrum of an IID or mixture source without materializing X^n.

    One term per type class suffices.  Masses are exact fractions with
    denominators far outside float range; values go through integer logs.
    """
    acc: dict[float, Fraction] = {}
    for seq_mass, size in _types(variant, n):
        value = self_information_value(seq_mass, n)
        acc[value] = acc.get(value, 0) + size * seq_mass
    return SpectrumSummary(points=tuple(sorted(acc.items())), n=n)


def typeclass_smooth_max_entropy(
    variant: IID | Mixture, n: int, delta: Mass
) -> tuple[float, int]:
    """Smooth max entropy through whole type classes: (log size, size).

    Types enter in descending per-sequence probability; the final type is
    taken only partially, with the ceiling count of sequences needed to
    reach the target mass.  Matches the greedy atom-by-atom set size
    exactly, because atoms within a type are interchangeable.
    """
    if delta < 0 or delta > 1:
        raise OutOfRange(f"tail budget must lie in [0, 1], got {delta}")
    target = 1 - Fraction(delta)
    types = sorted(_types(variant, n), key=lambda item: item[0], reverse=True)
    if target <= 0:
        return 0.0, 1
    cum = Fraction(0)
    size = 0
    for seq_mass, count in types:
        block = count * seq_mass
        if cum + block >= target:
            size += math.ceil((target - cum) / seq_mass)
            return math.log(size), size
        cum += block
        size += count
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
    direct_limit: int = 1 << 14,
) -> tuple[SweepRow, ...]:
    """Rate quantities across blocklengths for one source family and budget.

    For each n two rows are produced: the resolution rate at budget delta
    and the normalized smooth max entropy at the matching tail level
    nu = 1 - f^{-1}(delta) (1 once delta reaches f(0+)).  Small outcome
    spaces are expanded directly; larger ones go through the type-class route.
    """
    eps = 1 - _budget_threshold(curve, delta)
    rows: list[SweepRow] = []
    for n in ns:
        if variant.alphabet_size**n <= direct_limit:
            dist = expand(SourceModel(variant, n), cap)
            summary = spectrum_cdf(dist)
            h0 = smooth_max_entropy(dist, eps)[0] / n
        else:
            summary = typeclass_spectrum(variant, n)
            h0 = typeclass_smooth_max_entropy(variant, n, eps)[0] / n
        kf = k_f_rate(summary, curve, delta).value
        rows.append(SweepRow(n, float(eps), float(delta), "k_f_rate", kf, curve.name))
        rows.append(SweepRow(n, float(eps), float(delta), "smooth_max_entropy_rate", h0, curve.name))
    return tuple(rows)
