"""Explicit encoder-decoder pairs that squeeze a block source into M values.

Both constructions here produce a deterministic encoder phi from outcomes
to code indices and a decoder psi back into the outcome space, so the
decoded variable psi(phi(X^n)) is supported on at most M outcomes.  The
quality target is the f-divergence between the source law and the decoded
law, and each construction comes with a closed-form finite-n guarantee
plus a matching converse that floors every possible mapping.

The common mechanism: pick a set of representatives rich enough to carry
the source's weight, keep them fixed under the mapping, and merge every
lighter outcome upward onto a high-probability core so that the decoded
law imitates the source conditioned on that core.  The representatives
are always a prefix of the descending order, so a construction, fallbacks
included, is a start position and a core; _construct assembles the pair
and its trace from those two for both builders.  The merge is a greedy
first-fit pass whose overshoot is provably below e^{-n gamma}; the trace
returned alongside the mapping records every set, every allocation, and
the step at which the pool ran dry, so tests can audit the invariants the
guarantees lean on, and derives the core conditional on demand (exact: the
core's numerators over their sum).  The greedy walks the pool as runs of
equal mass: once one atom of a run misfits, every later atom of that run
misfits too, so a step takes a prefix of each run.  The runs are the
classes of the distribution's class list, built once beside its
descending order; the pool is that order's suffix from a start position
to the end of the support, and prefixes are found without visiting atoms
in Python bytecode, so a step costs O(#runs) interpreted operations; the
C-level work that remains is one slice per taken prefix and, in float
mode, one addition per taken atom.

The spectrum-split construction and its collapse baseline share one
classification (_classify), computed through the same expressions the
spectrum module uses, which keeps the probability of the core once it is
compared against a cdf bit-identical between construction and bounds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat
from typing import Sequence

from .divergence import FCurve, _budget_threshold, check_conditions
from .errors import DimensionMismatch, InvalidModel, OutOfRange
from .probability import AtomicDistribution, Mass, self_information_value, sort_descending
from .spectrum import SpectrumSummary, cdf_at

__all__ = [
    "BoundReport",
    "ConstructionTrace",
    "MappingPair",
    "achievability_bound",
    "apply_mapping",
    "baseline_collapse_mapping",
    "build_mapping",
    "build_smooth_entropy_mapping",
    "converse_bound",
    "entropy_mapping_bound",
    "rate_window",
    "trace_to_jsonable",
]


def rate_window(m: int, n: int, gamma: Mass) -> tuple[float, float]:
    """Self-information thresholds (low, high) that classify outcomes.

    low marks mass e^{n gamma}/m and high marks mass 1/m, both in
    per-symbol nats.  Construction and bounds must share these exact
    expressions so that their classifications agree float for float.
    """
    high = math.log(m) / n
    return high - float(gamma), high


@dataclass(frozen=True)
class MappingPair:
    """An encoder phi over outcome ids and a decoder psi over code indices.

    phi[x] is the code index of outcome x and psi[j] the outcome decoded
    from index j.  len(psi) is exactly the codebook size m_n, so the
    decoded variable takes at most m_n values.
    """

    phi: tuple[int, ...]
    psi: tuple[int, ...]
    m_n: int

    def __post_init__(self) -> None:
        if self.m_n < 1:
            raise InvalidModel("codebook size must be positive")
        if len(self.psi) != self.m_n:
            raise InvalidModel("decoder table must have one entry per code index")
        if not self.phi:
            raise InvalidModel("encoder table is empty")
        if min(self.phi) < 0 or max(self.phi) >= self.m_n:
            raise InvalidModel("encoder produced an index outside the codebook")
        if min(self.psi) < 0 or max(self.psi) >= len(self.phi):
            raise InvalidModel("decoder produced an outcome outside the space")


@dataclass(frozen=True)
class ConstructionTrace:
    """Everything needed to audit one construction after the fact.

    kind             "spectrum_split" or "entropy_prefix"
    core             ids whose conditional law the decoded variable imitates,
                     descending mass
    band             ids kept under the identity map, descending mass
    pool             ids merged upward onto core representatives, descending
    off_support      zero-mass ids with no role beyond phi sending them to 0
    representatives  decoder image in order, psi before padding
    allocations      pool ids merged onto each core representative, aligned
                     with core order; a single entry on the degenerate paths
                     where the whole pool collapses onto representative 0
    stop_index       position at which the pool ran dry, or the last position
                     when the remainder was dumped there
    core_mass        exact total source mass of the core
    source           the distribution the construction was built for

    n and conditional (the source conditioned on the core, None when the
    core is empty) are read-only, derived from source, core and core_mass.
    """

    kind: str
    core: tuple[int, ...]
    band: tuple[int, ...]
    pool: tuple[int, ...]
    off_support: tuple[int, ...]
    representatives: tuple[int, ...]
    allocations: tuple[tuple[int, ...], ...]
    stop_index: int
    gamma: Mass
    m: int
    core_mass: Mass
    flags: tuple[str, ...]
    source: AtomicDistribution

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def conditional(self) -> AtomicDistribution | None:
        if not self.core:
            return None
        dist = self.source
        values = dist._values
        # Exact: the core's numerators over their sum C, since num / C equals
        # (num / D) / (C / D).  Float: each core mass over core_mass.
        out = [0 if dist.exact else 0.0] * len(values)
        for x in self.core:
            out[x] = values[x] if dist.exact else values[x] / self.core_mass
        den = sum(map(values.__getitem__, self.core)) if dist.exact else 1
        return AtomicDistribution._from_values(out, den, dist.n, dist.alphabet_size, dist.exact)


@dataclass(frozen=True)
class BoundReport:
    """A one-sided guarantee; clamped marks an argument pushed to a limit."""

    value: float
    clamped: bool
    detail: tuple[tuple[str, str], ...] = ()


def _greedy_allocate(
    dist: AtomicDistribution,
    core: Sequence[int],
    start: int,
    core_mass: Mass,
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Merge pool atoms onto core representatives without exceeding targets.

    The pool is the descending order from position start to the end of the
    support.  For each representative in order the capacity is the gap
    between its conditional mass P(x)/core_mass and its own mass; every
    remaining pool atom that still fits is taken, in pool order.
    Maximality is the point: when an atom is skipped, the unfilled gap is
    smaller than that atom, and pool atoms are lighter than 1/m, which is
    what caps the final overshoot.  The step that empties the pool is the
    stop index; a pool that survives the last representative is dumped
    onto it wholesale.

    The pool is held as the distribution's runs, maximal stretches of
    equal mass in the descending order: the classes of its class list
    (`_classes`, built once per distribution), whose running sizes are
    the runs' ends in the order.  Each run that ends past start keeps
    its end and the position of its first unallocated atom, which is
    start for the run that start cuts.  Once one atom of a run does not
    fit, the load is unchanged, so no later atom of that run fits
    either: a representative takes a prefix of each run's unallocated
    suffix, as one slice of the order.  In exact mode masses are
    numerators over the distribution's denominator D and core_mass is
    C / D, so a representative of numerator p has capacity p (D - C) / C
    over D, floored to an integer without changing any fit; the prefix
    then has length min(available, (capacity - load) // mass), one
    division in place of one comparison per atom.  The pool holds no
    zero mass, since the support ends where the zeros begin.

    In float mode k * mass can round differently from k additions.  A run
    whose next atom fits gets a window of want = (capacity - load) // mass
    + 2 atoms: `accumulate` adds the mass to the load once per atom, left
    to right, and `bisect` finds the first load above capacity (adding a
    nonnegative float never lowers the load, so the loads are sorted).
    Rounding can make the estimate fall short, so while a whole window
    fits and atoms remain, the next window starts from its last load.
    These are the additions, in order, of adding one atom at a time up to
    the first misfit, so float allocations are bit-identical to that scan.

    Cost: one interpreted step per run to place the pool, then one per
    representative and live run, O(|core| * #runs), and no atom visited
    in Python bytecode.  What remains is C-level work: one slice per taken
    prefix and, in float mode, one addition per taken atom and two more
    per window.  The allocations equal those of rescanning every
    remaining atom per representative, which costs O(|core| * |pool|).
    """
    order, values, den, exact = sort_descending(dist), dist._values, dist._den, dist.exact
    # [mass, end, first unallocated position] per run that ends past start,
    # positions into order; start cuts the first of them.
    classes = dist._classes
    past = bisect_right(classes.sizes, start)
    ends = classes.sizes[past:]
    runs = [list(run) for run in zip(classes.nums[past:], ends, chain((start,), ends))]
    core_value = int(core_mass * den) if exact else core_mass
    allocations: list[list[int]] = []
    taken: list[int] = []
    for rep in core:
        p = values[rep]
        capacity = p * (den - core_value) // core_value if exact else p / core_value - p
        taken = []
        load: Mass = 0
        for run in runs:
            mass, end, first = run
            last = first
            if exact:
                last = min(end, first + (capacity - load) // mass)
                load += (last - first) * mass
            else:
                while last < end and load + mass <= capacity:
                    want = int(min(end - last, (capacity - load) // mass + 2))
                    loads = list(accumulate(repeat(mass, want), initial=load))
                    # The atoms of the window that fit: those whose load
                    # after them is at most capacity.
                    fit = bisect_right(loads, capacity, 1) - 1
                    last += fit
                    load = loads[fit]
                    if fit < want:
                        break
            if last > first:
                taken.extend(order[first:last])
                run[2] = last
        runs = [run for run in runs if run[2] < run[1]]
        allocations.append(taken)
        if not runs:
            break
    else:
        # The pool outlived the core: the last representative takes the rest
        # (with no core, nothing does).
        for _, end, first in runs:
            taken.extend(order[first:end])
    stop = len(allocations) - 1
    return tuple(map(tuple, allocations)) + ((),) * (len(core) - len(allocations)), stop


def _check_window(m: int, gamma: Mass) -> None:
    if m < 1:
        raise OutOfRange(f"codebook size must be positive, got {m}")
    if gamma <= 0:
        raise OutOfRange(f"slack exponent must be positive, got {gamma}")


def _classify(
    dist: AtomicDistribution, m: int, gamma: Mass
) -> tuple[tuple[int, ...], int, list[int]]:
    """Descending order, the number of heavy outcomes (exactly mass >= 1/m)
    and the core: the heavy outcomes at or below the rate_window low line."""
    _check_window(m, gamma)
    r_low, _ = rate_window(m, dist.n, gamma)
    cut, order, den = Fraction(dist._den, m), sort_descending(dist), dist._den
    # Heavy outcomes form a prefix of the descending order, its heaviest
    # runs; the atoms of one run share one self-information value.
    heavy, core = 0, []
    for mass, end in zip(dist._classes.nums, dist._classes.sizes):
        if mass < cut:
            break
        if self_information_value(Fraction(mass, den) if dist.exact else mass, dist.n) <= r_low:
            core.extend(order[heavy:end])
        heavy = end
    return order, heavy, core


def _encode(
    size: int,
    representatives: Sequence[int],
    core: Sequence[int],
    allocations: Sequence[Sequence[int]],
    m: int,
) -> MappingPair:
    # Everything unmentioned (off-support atoms) encodes to index 0.
    position = {x: j for j, x in enumerate(representatives)}
    phi = [0] * size
    for x, j in position.items():
        phi[x] = j
    for rep, atoms in zip(core, allocations):
        j = position[rep]
        for atom in atoms:
            phi[atom] = j
    psi = tuple(representatives) + (representatives[-1],) * (m - len(representatives))
    return MappingPair(phi=tuple(phi), psi=psi, m_n=m)


def _construct(
    kind: str, dist: AtomicDistribution, start: int, core: Sequence[int], core_mass: Mass,
    gamma: Mass, m: int, m_n: int, flags: tuple[str, ...],
) -> tuple[MappingPair, ConstructionTrace]:
    """The pair and trace that keep the descending order's first start ids
    and merge the rest of the support onto core, a subset of those ids.

    The representatives outside the core form the band.  A nonempty core
    takes the pool by _greedy_allocate; an empty one leaves the whole pool
    to the top representative.  m is the trace's codebook size and m_n the
    encoder's, which differ only on the identity path."""
    order = sort_descending(dist)
    live = max(start, len(dist.support()))  # zero masses come last
    representatives, pool, core = order[:start], order[start:live], tuple(core)
    band = representatives[len(core):]
    if representatives[: len(core)] != core:
        # Float self-information values of nearby masses can invert at the
        # spectrum-split line and leave a core that is not a prefix.
        in_core = set(core)
        band = tuple(x for x in representatives if x not in in_core)
    if core:
        allocations, stop = _greedy_allocate(dist, core, start, core_mass)
    else:
        allocations, stop = (pool,), 0
    trace = ConstructionTrace(
        kind=kind, core=core, band=band, pool=pool, off_support=order[live:],
        representatives=representatives, allocations=allocations, stop_index=stop,
        gamma=gamma, m=m, core_mass=core_mass, flags=flags, source=dist,
    )
    return _encode(len(order), representatives, core or order[:1], allocations, m_n), trace


def build_mapping(
    dist: AtomicDistribution, m: int, gamma: Mass
) -> tuple[MappingPair, ConstructionTrace]:
    """Spectrum-split construction at codebook size m and slack exponent gamma.

    Outcomes carrying at least 1/m become representatives, so there are
    never more than m of them; among those, outcomes above the e^{n gamma}/m
    line form the core and the rest keep the identity map.  Lighter
    outcomes are greedily merged onto core representatives until the
    decoded law matches the core conditional to within one pool atom per
    step.  Membership in the representative set is decided by exact
    comparison against 1/m; the core line is the shared float threshold
    from rate_window.  Like the entropy-prefix construction, this one only
    chooses a start position (the number of heavy outcomes, at least one)
    and a core, and _construct assembles the pair.

    Degenerate sources are handled by explicit fallbacks: with an empty
    core the band keeps the identity and the pool collapses onto its top
    element, and with nothing heavy at all every outcome collapses onto
    the mode.
    """
    _, heavy, core = _classify(dist, m, gamma)
    flags = () if core else ("empty_core",) if heavy else ("empty_core", "empty_core_and_band")
    core_mass = dist._mass_of(core)
    return _construct("spectrum_split", dist, max(heavy, 1), core, core_mass, gamma, m, m, flags)


def build_smooth_entropy_mapping(
    dist: AtomicDistribution, curve: FCurve, delta: Mass, gamma: Mass
) -> tuple[MappingPair, ConstructionTrace]:
    """Entropy-prefix construction meeting divergence budget delta.

    The core is the smallest descending prefix whose mass reaches
    f^{-1}(delta), as long as the class list's set_size, the codebook
    size is |core| e^{n gamma} rounded up, and the representatives are
    simply the heaviest m outcomes: identity on them, greedy merge of
    everything lighter onto the core.  So the start position is m and
    _construct assembles the pair, as for the spectrum-split
    construction.  When the demanded codebook already exceeds the whole
    space the start is the space size: the pool is empty, the mapping is
    the identity and it is flagged, since zero divergence is then free.
    Only nonincreasing curves are accepted, as the budget threshold
    f^{-1}(delta) is only a budget for them.
    """
    if gamma <= 0:
        raise OutOfRange(f"slack exponent must be positive, got {gamma}")
    if delta < 0:
        raise OutOfRange(f"divergence budget must be nonnegative, got {delta}")
    _require_nonincreasing(curve, "the entropy-prefix construction")
    order = sort_descending(dist)
    core = order[: dist._classes.set_size(_budget_threshold(curve, delta))]
    core_mass = dist._mass_of(core)
    try:
        m = math.ceil(len(core) * math.exp(dist.n * float(gamma)))
    except OverflowError:
        raise OutOfRange(
            f"codebook size |core| e^(n gamma) overflows a float at n = {dist.n}, gamma = {gamma}"
        ) from None
    # When m does not fit in the space, the start and the codebook are the
    # space size, not m, which could be astronomically large: the pool is
    # then empty and the pair is the identity.
    m_n = min(m, len(order))
    flags = ("size_exceeds_space",) if m > m_n else ()
    return _construct("entropy_prefix", dist, m_n, core, core_mass, gamma, m, m_n, flags)


def baseline_collapse_mapping(dist: AtomicDistribution, m: int, gamma: Mass) -> MappingPair:
    """Reference mapping that keeps the core and collapses the rest onto it.

    Same classification as build_mapping but with no band and no mass
    shaping: everything outside the core encodes to index 0.  Its
    divergence shows what the greedy allocation buys.
    """
    order, _, core = _classify(dist, m, gamma)
    core = core or [order[0]]
    return _encode(len(dist._values), core, core, (), m)


def _check_size(dist: AtomicDistribution, mapping: MappingPair) -> None:
    """Reject a mapping whose encoder does not cover the source's outcomes."""
    if len(mapping.phi) != len(dist._values):
        raise DimensionMismatch(
            f"mapping covers {len(mapping.phi)} outcomes, source has {len(dist._values)}"
        )


def apply_mapping(dist: AtomicDistribution, mapping: MappingPair) -> AtomicDistribution:
    """Law of the decoded variable psi(phi(X^n)), on the original space."""
    _check_size(dist, mapping)
    values = dist._values
    # One shared zero: float mode would otherwise make one 0.0 per empty atom.
    out = [0 if dist.exact else 0.0] * len(values)
    for x in dist.support():
        target = mapping.psi[mapping.phi[x]]
        out[target] = out[target] + values[x]
    return AtomicDistribution._from_values(out, dist._den, dist.n, dist.alphabet_size, dist.exact)


def _require_nonincreasing(curve: FCurve, where: str) -> None:
    if not check_conditions(curve).nonincreasing:
        raise OutOfRange(f"{where} is only proved for nonincreasing curves, not {curve.name}")


def achievability_bound(trace: ConstructionTrace, curve: FCurve) -> BoundReport:
    """Closed-form guarantee for the spectrum-split construction.

    value = f(Pr{core} - e^{-n gamma}) + e^{-n gamma} f(1/m).  When the
    core holds no more than e^{-n gamma} of mass the first argument is
    pushed to the limit of f at zero and the report is flagged clamped;
    for curves bounded by that limit the flagged value is still a valid
    bound, if a vacuous one.
    """
    if trace.kind != "spectrum_split":
        raise InvalidModel(f"bound applies to spectrum_split traces, got {trace.kind}")
    _require_nonincreasing(curve, "the achievability guarantee")
    slack = math.exp(-trace.n * float(trace.gamma))
    arg = float(trace.core_mass) - slack
    clamped = arg <= 0
    first = float(curve.f_at_zero) if clamped else float(curve.eval_at(arg))
    tail = slack * float(curve.eval_at(Fraction(1, trace.m)))
    return BoundReport(
        value=first + tail,
        clamped=clamped,
        detail=(("core_mass", str(trace.core_mass)), ("slack", repr(slack))),
    )


def converse_bound(
    summary: SpectrumSummary, m: int, gamma: Mass, curve: FCurve
) -> BoundReport:
    """Floor under the divergence of every size-m encoder-decoder pair.

    value = max(f(F(log(m)/n + gamma) + e^{-n gamma}), 0) with F the cdf of
    the source spectrum, evaluated at exact spectrum points so rational
    sources contribute exact probabilities.  Clamping records that f went
    negative, which happens once the cdf argument passes 1.
    """
    _check_window(m, gamma)
    _require_nonincreasing(curve, "the converse")
    n = summary.n
    v_star = math.log(m) / n + float(gamma)
    inner = cdf_at(summary, v_star) + math.exp(-n * float(gamma))
    raw = float(curve.eval_at(inner))
    return BoundReport(
        value=max(raw, 0.0),
        clamped=raw < 0,
        detail=(("threshold", repr(v_star)),),
    )


def entropy_mapping_bound(trace: ConstructionTrace, curve: FCurve) -> BoundReport:
    """Per-instance guarantee for the entropy-prefix construction.

    The filled steps before the stop index contribute f(Pr{core}) per unit
    of decoded mass, the stop step is charged at the slightly smaller
    argument (1 - e^{-n gamma}) Pr{core}, and the overshoot is charged
    e^{-n gamma} f(P(x_stop)).  On the identity path the whole bound
    collapses to f(Pr{core}).
    """
    if trace.kind != "entropy_prefix":
        raise InvalidModel(f"bound applies to entropy_prefix traces, got {trace.kind}")
    _require_nonincreasing(curve, "the entropy-prefix guarantee")
    pr_core = trace.core_mass
    if "size_exceeds_space" in trace.flags:
        return BoundReport(float(curve.eval_at(pr_core)), False, (("identity", "true"),))
    dist = trace.source
    slack = math.exp(-trace.n * float(trace.gamma))
    filled = zip(trace.core[: trace.stop_index], trace.allocations)
    head = dist._mass_of(chain.from_iterable((rep, *atoms) for rep, atoms in filled))
    x_stop = trace.core[trace.stop_index]
    p_stop = dist.mass(x_stop)
    cond_stop = p_stop / pr_core
    arg = (1.0 - slack) * float(pr_core)
    clamped = arg <= 0
    middle = float(curve.f_at_zero) if clamped else float(curve.eval_at(arg))
    value = (
        float(head) * float(curve.eval_at(pr_core))
        + float(cond_stop) * middle
        + slack * float(curve.eval_at(p_stop))
    )
    return BoundReport(
        value=value,
        clamped=clamped,
        detail=(("core_mass", str(pr_core)), ("slack", repr(slack))),
    )


def trace_to_jsonable(trace: ConstructionTrace) -> dict:
    """Plain-dict view of a trace for JSON export; exact masses as strings."""
    conditional = trace.conditional
    return {
        "kind": trace.kind,
        "m": trace.m,
        "n": trace.n,
        "gamma": str(trace.gamma),
        "core": list(trace.core),
        "band": list(trace.band),
        "pool": list(trace.pool),
        "off_support": list(trace.off_support),
        "representatives": list(trace.representatives),
        "allocations": [list(atoms) for atoms in trace.allocations],
        "stop_index": trace.stop_index,
        "core_mass": str(trace.core_mass),
        "conditional": None if conditional is None else [str(v) for v in conditional.masses],
        "flags": list(trace.flags),
    }
