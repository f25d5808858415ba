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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DimensionMismatch, OutOfRange
from .probability import AtomicDistribution, Mass

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
    """D_f(p || q) over a shared outcome space."""
    if (p.n, p.alphabet_size) != (q.n, q.alphabet_size):
        raise DimensionMismatch(
            f"distributions live on different spaces: "
            f"({p.alphabet_size}**{p.n}) vs ({q.alphabet_size}**{q.n})"
        )
    total: Mass = 0
    for pm, qm in zip(p.masses, q.masses):
        term = _term(curve, pm, qm)
        if term == math.inf:
            return math.inf
        total = total + term
    return total


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
    merged = _term(curve, sum(numerators), sum(denominators))
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


def _numeric_nonincreasing(curve: FCurve) -> bool:
    # Log-spaced sweep over ten decades; a strict rise beyond roundoff fails.
    points = [10 ** (e / 8.0) for e in range(-64, 49)]
    values = [float(curve.eval_at(t)) for t in points]
    scale = max(1.0, max(abs(v) for v in values))
    return all(b <= a + 1e-9 * scale for a, b in zip(values, values[1:]))


def _numeric_subexponential(curve: FCurve) -> bool:
    if curve.f_at_zero != math.inf:
        return True
    for b in (0.1, 1.0, 10.0):
        for a in (0.1, 1.0, 10.0):
            # Keep n small enough that e^{-nb} stays a normal double.
            n_top = min(400.0, 600.0 / b)
            first = abs(float(curve.eval_at(math.exp(-1.0 * b)))) * math.exp(-1.0 * a)
            last = abs(float(curve.eval_at(math.exp(-n_top * b)))) * math.exp(-n_top * a)
            if last > max(1e-9, 1e-6 * first):
                return False
    return True


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
