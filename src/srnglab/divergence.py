"""f-divergences between atomic distributions, with explicit edge conventions.

For a convex f with f(1) = 0 the divergence between P and a reference Q is

    D_f(P || Q) = sum_z Q(z) f(P(z) / Q(z))

with the standard conventions for vanishing masses:

    Q(z) = 0, P(z) = 0:   contributes 0
    Q(z) = 0, P(z) = a:   contributes a * slope_at_infinity
    Q(z) > 0, P(z) = 0:   contributes Q(z) * f_at_zero

where f_at_zero is the limit of f at 0+ and slope_at_infinity is the limit
of f(t)/t.  Either limit may be infinite, in which case the divergence is
infinite as soon as the corresponding configuration occurs.

Curves whose evaluation stays inside rational arithmetic (the variational
curve and both gamma families) return Fraction values on Fraction inputs,
so divergences of exact distributions compare exactly.  Logarithmic and
square-root curves evaluate in floats.

Atoms with the same (P, Q) pair of values, integer numerators in exact
mode and masses in float mode, contribute the same term, so one counting
pass over the atoms lists the distinct pairs, in the order of their first
atoms, and the term is computed once per pair, in either mode or a mix,
from the pair's masses: one Fraction per exact value of a pair, and no
per-atom Fraction.  When every term is exact the sum adds each pair's
term times its count, as exact sums do not depend on grouping; otherwise
it is one left fold of the atoms' terms in atom order from 0, as float
additions do not reassociate, and Fraction plus float, either way round,
converts the Fraction once.  The result is the atom-by-atom sum bit for
bit, on any curve.

With zero slope at infinity, the third condition of the paper's subclass,
an atom off Q's support contributes P(z) * 0, a zero, so the sum runs over
Q's support alone wherever those zeros cannot move it:

    P exact, slope an exact 0:  the zeros are exact, and an exact zero
                                moves neither an exact total nor a float
    Q in float mode:            Q's masses are floats, so every term on its
                                support is a float or infinite, the sum
                                turns float at Q's first support atom, and
                                a float total, never -0.0 as it starts from
                                exact + float, is unchanged by a zero added
                                to it

Q's support is computed once per distribution (`AtomicDistribution.support`)
and shared by every divergence against it.  A skipped term is never
infinite and never raises, so the first infinity or error is the same.
Everything else scans every atom: a float P on an exact Q, where the exact
terms Q(z) f(0+) could follow a float zero; a float 0.0 slope on an exact
P against an exact Q; and curves whose slope at infinity is not 0 (kl,
e_gamma_sum).
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Sequence

from .errors import DimensionMismatch, OutOfRange
from .probability import AtomicDistribution, Mass, _is_exact

__all__ = [
    "ConditionReport",
    "FCurve",
    "check_conditions",
    "curve_from_name",
    "divergence",
    "e_gamma",
    "e_gamma_sum",
    "f_inverse",
    "hellinger",
    "kl",
    "log_sum_check",
    "registered_curve_names",
    "reverse_kl",
    "variational",
]


@dataclass(frozen=True)
class FCurve:
    """A convex curve f with the limits the divergence conventions need.

    eval_at is only called on strictly positive arguments; the behaviour at
    zero mass is carried by f_at_zero and slope_at_infinity instead.  The
    optional inverse implements min{t : f(t) = T}.  The two trailing flags
    record analytically known answers for the monotonicity and small-t
    growth conditions; None means "decide numerically".
    """

    name: str
    eval_at: Callable[[Mass], Mass]
    f_at_zero: Mass
    slope_at_infinity: Mass
    inverse: Callable[[Mass], Mass] | None = None
    params: tuple[tuple[str, Mass], ...] = ()
    nonincreasing: bool | None = None
    subexponential_near_zero: bool | None = None


def _zero_like(t: Mass) -> Mass:
    return t - t


def _float_gamma(gamma: Mass) -> Mass:
    # Fraction arithmetic with a float converts the Fraction to float first,
    # so converting once gives the same floats without the per-call detour.
    # A gamma beyond the float range stays as given and fails, as before, at
    # its first float evaluation rather than when the curve is built.
    try:
        return float(gamma)
    except OverflowError:
        return gamma


def variational() -> FCurve:
    """f(t) = (1 - t)^+, whose divergence is half the L1 distance."""

    def eval_at(t: Mass) -> Mass:
        gap = 1 - t
        return gap if gap > 0 else _zero_like(t)

    return FCurve(
        name="variational",
        eval_at=eval_at,
        f_at_zero=Fraction(1),
        slope_at_infinity=Fraction(0),
        inverse=lambda T: 1 - T,
        nonincreasing=True,
        subexponential_near_zero=True,
    )


def reverse_kl() -> FCurve:
    """f(t) = -log t."""
    return FCurve(
        name="reverse_kl",
        eval_at=lambda t: -math.log(t),
        f_at_zero=math.inf,
        slope_at_infinity=Fraction(0),
        inverse=lambda T: math.exp(-float(T)),
        nonincreasing=True,
        subexponential_near_zero=True,
    )


def hellinger() -> FCurve:
    """f(t) = 1 - sqrt(t), half the squared Hellinger distance."""

    def inverse(T: Mass) -> Mass:
        gap = 1 - T
        return gap * gap

    return FCurve(
        name="hellinger",
        eval_at=lambda t: 1.0 - math.sqrt(t),
        f_at_zero=Fraction(1),
        slope_at_infinity=Fraction(0),
        inverse=inverse,
        nonincreasing=True,
        subexponential_near_zero=True,
    )


def e_gamma(gamma: Mass) -> FCurve:
    """f(t) = (gamma - t)^+ + 1 - gamma for gamma >= 1.

    Nonincreasing, f(0+) = 1, flat beyond t = gamma, so it shares its
    inverse 1 - T with the variational curve on [0, 1].
    """
    gamma = Fraction(gamma) if isinstance(gamma, int) else gamma
    if gamma < 1:
        raise OutOfRange(f"gamma must be at least 1, got {gamma}")
    gamma_f = _float_gamma(gamma)

    def eval_at(t: Mass) -> Mass:
        g = gamma_f if isinstance(t, float) else gamma
        gap = g - t
        pos = gap if gap > 0 else _zero_like(t)
        return pos + 1 - g

    return FCurve(
        name=f"e_gamma:{gamma}",
        eval_at=eval_at,
        f_at_zero=Fraction(1),
        slope_at_infinity=Fraction(0),
        inverse=lambda T: 1 - T,
        params=(("gamma", gamma),),
        nonincreasing=True,
        subexponential_near_zero=True,
    )


def e_gamma_sum(gamma: Mass) -> FCurve:
    """f(t) = (t - gamma)^+ for gamma >= 1, the nondecreasing twin of e_gamma.

    Differs from e_gamma by the affine term t - 1, which telescopes away in
    any divergence, so both curves induce the same E_gamma quantity.  It is
    kept separate because it fails the monotonicity condition and its unit
    slope at infinity makes zero reference mass contribute.
    """
    gamma = Fraction(gamma) if isinstance(gamma, int) else gamma
    if gamma < 1:
        raise OutOfRange(f"gamma must be at least 1, got {gamma}")

    gamma_f = _float_gamma(gamma)

    def eval_at(t: Mass) -> Mass:
        gap = t - (gamma_f if isinstance(t, float) else gamma)
        return gap if gap > 0 else _zero_like(gap)

    def inverse(T: Mass) -> Mass:
        return gamma + T if T > 0 else _zero_like(T)

    return FCurve(
        name=f"e_gamma_sum:{gamma}",
        eval_at=eval_at,
        f_at_zero=Fraction(0),
        slope_at_infinity=Fraction(1),
        inverse=inverse,
        params=(("gamma", gamma),),
        nonincreasing=False,
        subexponential_near_zero=True,
    )


def kl() -> FCurve:
    """f(t) = t log t.  Divergence evaluation only: not monotone, and its
    infinite slope at infinity leaves the inverse machinery without a domain.
    """
    return FCurve(
        name="kl",
        eval_at=lambda t: float(t) * math.log(t),
        f_at_zero=Fraction(0),
        slope_at_infinity=math.inf,
        inverse=None,
        nonincreasing=False,
        subexponential_near_zero=True,
    )


def registered_curve_names() -> tuple[str, ...]:
    return ("variational", "reverse_kl", "hellinger", "e_gamma:G", "e_gamma_sum:G", "kl")


def curve_from_name(name: str) -> FCurve:
    """Resolve a curve by its registry name.

    Parameterized families take the parameter after a colon, e.g.
    "e_gamma:2" or "e_gamma_sum:1.5"; decimal literals are converted to
    exact fractions.
    """
    plain = {"variational": variational, "reverse_kl": reverse_kl, "hellinger": hellinger, "kl": kl}
    if name in plain:
        return plain[name]()
    head, sep, arg = name.partition(":")
    if sep and head in ("e_gamma", "e_gamma_sum"):
        try:
            gamma = Fraction(arg)
        except (ValueError, ZeroDivisionError) as exc:
            raise OutOfRange(f"bad curve parameter in {name!r}") from exc
        return e_gamma(gamma) if head == "e_gamma" else e_gamma_sum(gamma)
    raise OutOfRange(f"unknown curve {name!r}; known: {', '.join(registered_curve_names())}")


def _term(curve: FCurve, p: Mass, q: Mass) -> Mass:
    if q == 0:
        if p == 0:
            return 0
        if curve.slope_at_infinity == math.inf:
            return math.inf
        return p * curve.slope_at_infinity
    if p == 0:
        if curve.f_at_zero == math.inf:
            return math.inf
        return q * curve.f_at_zero
    return q * curve.eval_at(p / q)


def divergence(p: AtomicDistribution, q: AtomicDistribution, curve: FCurve) -> Mass:
    """D_f(p || q) over a shared outcome space (module docstring)."""
    if (p.n, p.alphabet_size) != (q.n, q.alphabet_size):
        raise DimensionMismatch(
            f"distributions live on different spaces: "
            f"({p.alphabet_size}**{p.n}) vs ({q.alphabet_size}**{q.n})"
        )
    pv, qv = p._values, q._values
    slope = curve.slope_at_infinity
    if slope == 0 and (p.exact and _is_exact(slope) or not q.exact):
        # Off q's support each term is p * slope, a zero, left out where it
        # cannot move the sum (module docstring).
        ids = q.support()
        pv, qv = list(map(pv.__getitem__, ids)), list(map(qv.__getitem__, ids))
    # Distinct pairs in first-atom order, so terms are computed in atom
    # order and the first error or infinity is the same.
    counts = Counter(zip(pv, qv))
    terms: dict[tuple[Mass, Mass], Mass] = {}
    for pair in counts:
        term = terms[pair] = _term(curve, p._as_mass(pair[0]), q._as_mass(pair[1]))
        if term == math.inf:
            return math.inf
    if all(map(_is_exact, terms.values())):
        return sum(count * terms[pair] for pair, count in counts.items())
    return reduce(operator.add, map(terms.__getitem__, zip(pv, qv)), 0)


def f_inverse(curve: FCurve, T: Mass) -> Mass:
    """min{t : f(t) = T}, for T between 0 and the limit of f at zero.

    Registered curves resolve analytically.  The numeric fallback bisects
    for the left edge of {t : f(t) <= T} and is only sound for
    nonincreasing curves, so anything else without an analytic inverse is
    rejected.
    """
    if T < 0 or T > curve.f_at_zero:
        raise OutOfRange(f"{T} outside the range of {curve.name} on (0, 1]")
    if curve.inverse is not None:
        return curve.inverse(T)
    if curve.nonincreasing is False or not check_conditions(curve).nonincreasing:
        raise OutOfRange(f"{curve.name} is not nonincreasing; its inverse is undefined here")
    if T == curve.f_at_zero:
        return 0
    lo, hi = 0.0, 1.0
    # Invariant: f(lo) > T >= f(hi), reading f(0) as the limit f_at_zero.
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if curve.eval_at(mid) <= T:
            hi = mid
        else:
            lo = mid
    return hi


def _budget_threshold(curve: FCurve, delta: Mass) -> Mass:
    """f^{-1}(delta), or 0 once delta reaches f(0+) and any level will do."""
    return 0 if delta >= curve.f_at_zero else f_inverse(curve, delta)


def log_sum_check(
    curve: FCurve,
    numerators: Sequence[Mass],
    denominators: Sequence[Mass],
    slack: float = 1e-12,
) -> bool:
    """Check that merging atoms cannot increase the divergence sum.

    For convex f, sum_i q_i f(p_i / q_i) >= Q f(P / Q) with P, Q the totals;
    this is the inequality every data-processing step in the package leans
    on.  Exact inputs on a rational curve are compared exactly, otherwise
    `slack` absorbs roundoff.
    """
    if len(numerators) != len(denominators):
        raise DimensionMismatch("need one denominator per numerator")
    split: Mass = 0
    for pm, qm in zip(numerators, denominators):
        term = _term(curve, pm, qm)
        if term == math.inf:
            return True
        split = split + term
    # Totals left to right from 0, not with built-in sum, which compensates
    # floats since Python 3.12.
    p_total, q_total = (reduce(operator.add, row, 0) for row in (numerators, denominators))
    merged = _term(curve, p_total, q_total)
    if merged == math.inf:
        return False
    if isinstance(split, Fraction) and isinstance(merged, Fraction):
        return split >= merged
    return float(split) >= float(merged) - slack


@dataclass(frozen=True)
class ConditionReport:
    """Which of the three regularity conditions a curve satisfies.

    nonincreasing:            f is nonincreasing on (0, infinity)
    subexponential_near_zero: f(e^{-nb}) e^{-na} -> 0 for all a, b > 0
    zero_slope_at_infinity:   f(t)/t -> 0 as t -> infinity
    """

    nonincreasing: bool
    subexponential_near_zero: bool
    zero_slope_at_infinity: bool
    sources: tuple[tuple[str, str], ...] = field(default=(), compare=False)

    def all_hold(self) -> bool:
        return self.nonincreasing and self.subexponential_near_zero and self.zero_slope_at_infinity


#: Log-spaced sweep over ten decades, for the numeric readings below.
_GRID = [10 ** (e / 8.0) for e in range(-64, 49)]


def _numeric_nonincreasing(curve: FCurve) -> bool:
    # A strict rise beyond roundoff fails.
    values = [float(curve.eval_at(t)) for t in _GRID]
    scale = max(1.0, max(abs(v) for v in values))
    return all(b <= a + 1e-9 * scale for a, b in zip(values, values[1:]))


def _param_scale(curve: FCurve) -> float:
    """c = 1 + 2 sum |params|, which bounds the intermediates of a
    parametrized curve's evaluation in the roundoff allowances here and in
    the oracle."""
    return 1 + 2 * math.fsum(abs(float(value)) for _, value in curve.params)


def _numeric_convex(curve: FCurve) -> bool:
    # Slopes between grid neighbours must not fall beyond roundoff: a value
    # is taken within 1e-9 (t + c + |f(t)|), c the curve's _param_scale, so
    # a slope within its two ends' errors over the step.
    c = _param_scale(curve)
    f = [(t, float(curve.eval_at(t))) for t in _GRID]
    slopes = [
        ((b - a) / (t - s), 1e-9 * (s + t + 2 * c + abs(a) + abs(b)) / (t - s))
        for (s, a), (t, b) in zip(f, f[1:])
    ]
    return all(right >= left - el - er for (left, el), (right, er) in zip(slopes, slopes[1:]))


def _numeric_subexponential(curve: FCurve) -> bool:
    """Numeric reading of f(e^{-nb}) e^{-na} -> 0 for all a, b > 0.

    With s = nb the condition says g(s) = log(1 + |f(e^{-s})|) / s -> 0.
    The rule passes a curve whose g at least halves from s = 70 to 700,
    the last decade where e^{-s} is a normal double.  A polynomial in s,
    such as -log t, passes (g falls like log(s)/s); a power of 1/t, such
    as 1/t - 1, fails (g stays near its exponent), as does an f that
    leaves the double range.  Growth like e^{s**0.7} or faster reads as
    exponential.  A finite f(0+) holds without a reading.
    """
    if curve.f_at_zero != math.inf:
        return True
    try:
        mid, top = (math.log1p(abs(float(curve.eval_at(math.exp(-s))))) / s for s in (70, 700))
    except (OverflowError, ZeroDivisionError):
        return False
    return math.isfinite(top) and top <= mid / 2


def check_conditions(curve: FCurve) -> ConditionReport:
    """Classify a curve against the three conditions the bounds rely on.

    Analytic flags on the curve take precedence; the numeric sweeps only
    decide for curves that declare nothing.
    """
    sources = []
    if curve.nonincreasing is not None:
        c1, s1 = curve.nonincreasing, "analytic"
    else:
        c1, s1 = _numeric_nonincreasing(curve), "numeric"
    sources.append(("nonincreasing", s1))
    if curve.subexponential_near_zero is not None:
        c2, s2 = curve.subexponential_near_zero, "analytic"
    else:
        c2, s2 = _numeric_subexponential(curve), "numeric"
    sources.append(("subexponential_near_zero", s2))
    c3 = curve.slope_at_infinity == 0
    sources.append(("zero_slope_at_infinity", "analytic"))
    return ConditionReport(c1, c2, c3, tuple(sources))
