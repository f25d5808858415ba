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
law imitates the source conditioned on that core.  The merge is a greedy
first-fit pass whose overshoot is provably below e^{-n gamma}; the trace
returned alongside the mapping records every set, every allocation, and
the step at which the pool ran dry, so tests can audit the invariants the
guarantees lean on.  The greedy walks the pool as runs of equal mass: once
one atom of a run misfits, every later atom of that run misfits too, so a
step takes a prefix of each run and costs O(#runs) rather than O(|pool|).

The spectrum-split construction and its collapse baseline share one
classification (_classify), computed through the same expressions the
spectrum module uses, which keeps the probability of the core once it is
compared against a cdf bit-identical between construction and bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, takewhile
from typing import Sequence

from .divergence import FCurve, _budget_threshold, check_conditions
from .errors import DimensionMismatch, InvalidModel, OutOfRange
from .probability import AtomicDistribution, Mass, self_information, sort_descending
from .spectrum import SpectrumSummary, _descending_prefix, cdf_at

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
        masses = [dist._mass_of(())] * len(dist.masses)
        for x in self.core:
            masses[x] = dist.masses[x] / self.core_mass
        return AtomicDistribution.from_masses(masses, dist.n, dist.alphabet_size, exact=dist.exact)


@dataclass(frozen=True)
class BoundReport:
    """A one-sided guarantee; clamped marks an argument pushed to a limit."""

    value: float
    clamped: bool
    detail: tuple[tuple[str, str], ...] = ()


def _greedy_allocate(
    dist: AtomicDistribution,
    core: Sequence[int],
    pool: Sequence[int],
    core_mass: Mass,
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Merge pool atoms onto core representatives without exceeding targets.

    For each representative in order the capacity is the gap between its
    conditional mass P(x)/core_mass and its own mass; every remaining pool
    atom that still fits is taken, in pool order.  Maximality is the
    point: when an atom is skipped, the unfilled gap is smaller than that
    atom, and pool atoms are lighter than 1/m, which is what caps the final
    overshoot.  The step that empties the pool is the stop index; a pool
    that survives the last representative is dumped onto it wholesale.

    The pool is held as runs, maximal stretches of consecutive atoms of
    equal mass, each with the position of its first unallocated atom.
    Once one atom of a run does not fit, the load is unchanged, so no
    later atom of that run fits either: a representative takes a prefix of
    each run's unallocated suffix.  In exact mode masses are numerators
    over the distribution's denominator D and core_mass is C / D, so a
    representative of numerator p has capacity p (D - C) / C over D,
    floored to an integer without changing any fit; the prefix then has
    length min(available, (capacity - load) // mass), one division in place
    of one comparison per atom.  In float mode the atoms of a run are
    still added one at a time up to the first misfit, since k * mass can
    round differently from k additions; the rest of the run is then
    skipped at once.  The allocations equal those of scanning every
    remaining atom per representative, at a cost of
    O(|core| * #runs + |pool|) instead of O(|core| * |pool|).
    """
    values, den = dist._values, dist._den
    runs: list[list] = []  # [mass, ids, first unallocated position]
    for atom in pool:
        mass = values[atom]
        if runs and runs[-1][0] == mass:
            runs[-1][1].append(atom)
        else:
            runs.append([mass, [atom], 0])
    core_value = int(core_mass * den) if dist.exact else core_mass
    allocations: list[tuple[int, ...]] = []
    stop = len(core) - 1
    stopped = False
    for idx, rep in enumerate(core):
        if stopped:
            allocations.append(())
            continue
        p = values[rep]
        capacity = p * (den - core_value) // core_value if dist.exact else p / core_value - p
        taken: list[int] = []
        load: Mass = 0
        for run in runs:
            mass, ids, start = run
            end = start
            if dist.exact:
                end = min(len(ids), start + (capacity - load) // mass) if mass else len(ids)
                load += (end - start) * mass
            else:
                while end < len(ids) and load + mass <= capacity:
                    load = load + mass
                    end += 1
            taken.extend(ids[start:end])
            run[2] = end
        runs = [run for run in runs if run[2] < len(run[1])]
        if idx == len(core) - 1:
            for _, ids, start in runs:
                taken.extend(ids[start:])
            runs = []
        if not runs:
            stop, stopped = idx, True
        allocations.append(tuple(taken))
    return tuple(allocations), stop


def _trace(
    kind: str,
    dist: AtomicDistribution,
    *,
    core: Sequence[int],
    band: Sequence[int],
    pool: Sequence[int],
    off: Sequence[int],
    representatives: Sequence[int],
    allocations: tuple[tuple[int, ...], ...],
    stop: int,
    gamma: Mass,
    m: int,
    core_mass: Mass,
    flags: tuple[str, ...] = (),
) -> ConstructionTrace:
    """Trace of a construction on dist, every id collection as a tuple."""
    return ConstructionTrace(
        kind=kind,
        core=tuple(core),
        band=tuple(band),
        pool=tuple(pool),
        off_support=tuple(off),
        representatives=tuple(representatives),
        allocations=allocations,
        stop_index=stop,
        gamma=gamma,
        m=m,
        core_mass=core_mass,
        flags=flags,
        source=dist,
    )


def _check_window(m: int, gamma: Mass) -> None:
    if m < 1:
        raise OutOfRange(f"codebook size must be positive, got {m}")
    if gamma <= 0:
        raise OutOfRange(f"slack exponent must be positive, got {gamma}")


def _classify(
    dist: AtomicDistribution, m: int, gamma: Mass
) -> tuple[tuple[int, ...], list[int], list[int]]:
    """Descending order, heavy outcomes (exactly mass >= 1/m) and the core:
    the heavy outcomes at or below the rate_window low line."""
    _check_window(m, gamma)
    r_low, _ = rate_window(m, dist.n, gamma)
    values, cut = dist._values, Fraction(dist._den, m)
    order = sort_descending(dist)
    # Heavy outcomes form a prefix of the descending order.
    heavy = list(takewhile(lambda x: values[x] >= cut, order))
    core = [x for x in heavy if self_information(dist, x) <= r_low]
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
        for atom in atoms:
            phi[atom] = position[rep]
    psi = tuple(representatives) + (representatives[-1],) * (m - len(representatives))
    return MappingPair(phi=tuple(phi), psi=psi, m_n=m)


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
    from rate_window.

    Degenerate sources are handled by explicit fallbacks: with an empty
    core the band keeps the identity and the pool collapses onto its top
    element, and with nothing heavy at all every outcome collapses onto
    the mode.
    """
    size = len(dist.masses)
    order, heavy, core = _classify(dist, m, gamma)
    # Zero masses form a suffix of the descending order.
    live = len(order) - dist._values.count(0)
    light, off = order[len(heavy):live], order[live:]
    in_core = set(core)
    band = [x for x in heavy if x not in in_core]

    if not core:
        # The band keeps the identity and the pool collapses onto its top
        # element; with nothing heavy at all the mode stands in for the band.
        kept = heavy or [order[0]]
        pool = tuple(x for x in light if x != kept[0])
        flags = ("empty_core",) if heavy else ("empty_core", "empty_core_and_band")
        trace = _trace(
            "spectrum_split", dist, core=(), band=kept, pool=pool, off=off,
            representatives=kept, allocations=(pool,), stop=0, gamma=gamma, m=m,
            core_mass=dist._mass_of(core), flags=flags,
        )
        return _encode(size, kept, kept[:1], (pool,), m), trace

    core_mass = dist._mass_of(core)
    allocations, stop = _greedy_allocate(dist, core, light, core_mass)
    trace = _trace(
        "spectrum_split", dist, core=core, band=band, pool=light, off=off,
        representatives=heavy, allocations=allocations, stop=stop, gamma=gamma,
        m=m, core_mass=core_mass,
    )
    return _encode(size, heavy, core, allocations, m), trace


def build_smooth_entropy_mapping(
    dist: AtomicDistribution, curve: FCurve, delta: Mass, gamma: Mass
) -> tuple[MappingPair, ConstructionTrace]:
    """Entropy-prefix construction meeting divergence budget delta.

    The core is the smallest descending prefix whose mass reaches
    f^{-1}(delta), the codebook size is |core| e^{n gamma} rounded up, and
    the representatives are simply the heaviest m outcomes: identity on
    them, greedy merge of everything lighter onto the core.  When the
    demanded codebook already exceeds the whole space the identity mapping
    is returned and flagged, since zero divergence is then free.
    """
    if gamma <= 0:
        raise OutOfRange(f"slack exponent must be positive, got {gamma}")
    if delta < 0:
        raise OutOfRange(f"divergence budget must be nonnegative, got {delta}")
    size = len(dist.masses)
    order = sort_descending(dist)
    core, core_mass = _descending_prefix(dist, order, _budget_threshold(curve, delta))
    try:
        m = math.ceil(len(core) * math.exp(dist.n * float(gamma)))
    except OverflowError:
        raise OutOfRange(
            f"codebook size |core| e^(n gamma) overflows a float at n = {dist.n}, gamma = {gamma}"
        ) from None

    if m > size:
        # The demanded codebook does not fit in the space, so the pair is
        # the identity on all of it; m_n is the space size, not m, which
        # could be astronomically large.
        trace = _trace(
            "entropy_prefix", dist, core=core, band=order[len(core):], pool=(), off=(),
            representatives=order, allocations=((),) * len(core), stop=0,
            gamma=gamma, m=m, core_mass=core_mass, flags=("size_exceeds_space",),
        )
        return _encode(size, order, (), (), size), trace

    representatives = order[:m]
    band = representatives[len(core):]
    live = max(m, len(order) - dist._values.count(0))  # zero masses come last
    pool, off = order[m:live], order[live:]
    allocations, stop = _greedy_allocate(dist, core, pool, core_mass)
    trace = _trace(
        "entropy_prefix", dist, core=core, band=band, pool=pool, off=off,
        representatives=representatives, allocations=allocations, stop=stop,
        gamma=gamma, m=m, core_mass=core_mass,
    )
    return _encode(size, representatives, core, allocations, m), trace


def baseline_collapse_mapping(dist: AtomicDistribution, m: int, gamma: Mass) -> MappingPair:
    """Reference mapping that keeps the core and collapses the rest onto it.

    Same classification as build_mapping but with no band and no mass
    shaping: everything outside the core encodes to index 0.  Its
    divergence shows what the greedy allocation buys.
    """
    order, _, core = _classify(dist, m, gamma)
    core = core or [order[0]]
    return _encode(len(dist.masses), core, core, (), m)


def apply_mapping(dist: AtomicDistribution, mapping: MappingPair) -> AtomicDistribution:
    """Law of the decoded variable psi(phi(X^n)), on the original space."""
    if len(mapping.phi) != len(dist.masses):
        raise DimensionMismatch(
            f"mapping covers {len(mapping.phi)} outcomes, source has {len(dist.masses)}"
        )
    values = dist._values
    # One shared zero: float mode would otherwise make one 0.0 per empty atom.
    out = [0 if dist.exact else 0.0] * len(values)
    for x, mass in enumerate(values):
        if mass != 0:
            target = mapping.psi[mapping.phi[x]]
            out[target] = out[target] + mass
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
    p_stop = dist.masses[x_stop]
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
