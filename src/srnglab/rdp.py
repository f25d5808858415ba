"""Distortion measures and the rate-distortion side of the problem.

Distortion enters twice.  First, any mapping built here can be scored by
its expected per-symbol distortion against the source.  Second, the
classical rate-distortion function of the single-letter source gives an
asymptotic floor on rates, and comparing it with the finite-n resolution
rate requires knowing when the distortion budget stops being the binding
constraint; that crossover is the threshold computed from the spectrum
tail at the resolution point.

The rate-distortion function is evaluated through its Lagrangian dual:
for each multiplier the inner minimum over output laws is found by the
classic alternating-minimization iteration, and since the dual is concave
in the multiplier the outer maximum is a golden-section search.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from typing import Sequence

from .construction import MappingPair, _check_size
from .divergence import FCurve
from .errors import (
    DimensionMismatch,
    InvalidModel,
    NoConvergence,
    OutOfRange,
)
from .probability import AtomicDistribution, Mass, _is_exact, outcome_from_id, pmf_entropy
from .spectrum import SpectrumSummary, k_f_rate, tail_from

__all__ = [
    "DistortionSpec",
    "RdpBoundReport",
    "d_threshold",
    "mapping_distortion",
    "rd_function_iid",
    "rdp_lower_bound",
]


@dataclass(frozen=True)
class DistortionSpec:
    """A nonnegative distortion with zero diagonal.

    kind "additive" holds a per-symbol matrix extended to blocks by
    summation over positions; kind "table" holds one entry per ordered
    pair of outcome ids and is already block-level.
    """

    kind: str
    entries: tuple[tuple[Mass, ...], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("additive", "table"):
            raise InvalidModel(f"unknown distortion kind {self.kind!r}")
        rows = self.entries
        if not rows or any(len(row) != len(rows) for row in rows):
            raise InvalidModel("distortion entries must form a square matrix")
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                if value < 0:
                    raise InvalidModel(f"distortion entry ({i}, {j}) is negative")
                if i == j and value != 0:
                    raise InvalidModel(f"distortion diagonal entry {i} must be zero")

    def block_value(self, x: int, y: int, n: int, alphabet_size: int) -> Mass:
        """Distortion between the outcomes with ids x and y."""
        if self.kind == "table":
            return self.entries[x][y]
        xs = outcome_from_id(x, n, alphabet_size).symbols
        ys = outcome_from_id(y, n, alphabet_size).symbols
        total: Mass = 0
        for a, b in zip(xs, ys):
            total = total + self.entries[a][b]
        return total

    def max_block(self, n: int) -> Mass:
        """Largest possible block distortion."""
        top = max(value for row in self.entries for value in row)
        return n * top if self.kind == "additive" else top


def mapping_distortion(
    dist: AtomicDistribution, mapping: MappingPair, spec: DistortionSpec
) -> Mass:
    """Expected per-symbol distortion of the decoded variable.

    Only outcomes the round trip actually moves contribute, since the
    diagonal is pinned at zero.  Rational masses and entries give an exact
    result; a float source or entry gives a float, also when nothing moves.
    """
    _check_size(dist, mapping)
    if spec.kind == "additive" and len(spec.entries) != dist.alphabet_size:
        raise DimensionMismatch("additive distortion matrix does not match the alphabet")
    if spec.kind == "table" and len(spec.entries) != len(dist._values):
        raise DimensionMismatch("distortion table does not match the outcome space")
    exact = all(map(_is_exact, chain.from_iterable(spec.entries)))
    total = dist._mass_of(()) if exact else 0.0
    for x in dist.support():
        y = mapping.psi[mapping.phi[x]]
        if y == x:
            continue
        total = total + dist.mass(x) * spec.block_value(x, y, dist.n, dist.alphabet_size)
    return total / dist.n


def d_threshold(
    summary: SpectrumSummary, curve: FCurve, delta: Mass, spec: DistortionSpec
) -> Mass:
    """Distortion level above which the divergence budget is the binding one.

    The worst per-symbol distortion times the inclusive spectrum tail at
    the resolution point K: outcomes the constructions may move all sit at
    self-information K or above, so their distortion cost is covered by
    this much.  The tail includes the point at K itself; K is a spectrum
    float, so the comparison is reproducible.  Rational sources and
    entries give an exact value.
    """
    k = k_f_rate(summary, curve, delta).value
    tail = tail_from(summary, k)
    return spec.max_block(summary.n) * tail / summary.n


def _blahut(
    p: Sequence[float],
    g: Sequence[Sequence[float]],
    beta: float,
    tol: float,
    max_iter: int,
) -> tuple[float, float]:
    """Inner minimum of the dual at one multiplier: returns (value, distortion).

    Alternates between the optimal test channel for a fixed output law and
    the output law induced by that channel, until the output law is stable
    to within tol.  Sums run left to right: built-in sum compensates since
    Python 3.12.
    """
    k = len(g[0])
    active = [a for a in range(len(p)) if p[a] > 0]
    kernels = [[math.exp(-beta * g[a][b]) for b in range(k)] for a in range(len(p))]
    q = [1.0 / k] * k
    drift = math.inf
    for _ in range(max_iter):
        new_q = [0.0] * k
        for a in active:
            weights = list(map(operator.mul, q, kernels[a]))
            scale = p[a] / reduce(operator.add, weights, 0.0)
            for b in range(k):
                new_q[b] += scale * weights[b]
        drift = max(map(abs, map(operator.sub, new_q, q)))
        q = new_q
        if drift < tol:
            break
    else:
        raise NoConvergence(
            f"output law not stable after max_iter = {max_iter} iterations at "
            f"beta = {beta!r}: last drift {drift!r}, tolerance {tol!r}"
        )
    value = 0.0
    distortion = 0.0
    for a in active:
        weights = list(map(operator.mul, q, kernels[a]))
        z = reduce(operator.add, weights, 0.0)
        value -= p[a] * math.log(z)
        for b in range(k):
            distortion += p[a] * (weights[b] / z) * g[a][b]
    return value, distortion


def rd_function_iid(
    pmf: Sequence[Mass],
    spec: DistortionSpec,
    d: Mass,
    tol: float = 1e-9,
    max_iter: int = 100000,
) -> float:
    """Rate-distortion function of the single-letter source, in nats.

    R(d) = max over beta >= 0 of the dual value minus beta d; the dual is
    concave in beta, so a golden-section search over a bracket found by
    doubling encloses the maximum.  Distortion at or beyond the cheapest
    constant reproduction costs nothing; zero distortion needs strictly
    positive off-diagonal entries and then equals the source entropy.  A
    negative distortion is out of range.
    """
    if spec.kind != "additive":
        raise InvalidModel("the rate-distortion solver needs a per-symbol distortion")
    if len(spec.entries) != len(pmf):
        raise DimensionMismatch("distortion matrix does not match the pmf")
    if d < 0:
        raise OutOfRange(f"distortion budget must be nonnegative, got {d}")
    p = [float(x) for x in pmf]
    g = [[float(v) for v in row] for row in spec.entries]
    d = float(d)
    active = [a for a in range(len(p)) if p[a] > 0]
    d_max = min(reduce(operator.add, (p[a] * g[a][b] for a in active), 0.0) for b in range(len(g)))
    if d >= d_max:
        return 0.0
    if d == 0:
        for a in active:
            for b in range(len(g[a])):
                if a != b and g[a][b] == 0:
                    raise OutOfRange(
                        "zero-distortion rate is undefined with free off-diagonal moves"
                    )
        return pmf_entropy(pmf)

    def dual(beta: float) -> tuple[float, float]:
        value, dist_at = _blahut(p, g, beta, tol, max_iter)
        return value - beta * d, dist_at

    hi = 1.0
    for _ in range(200):
        f_hi, dist_hi = dual(hi)
        if dist_hi <= d:
            break
        hi *= 2.0
    else:
        raise NoConvergence(
            f"no multiplier meets the distortion target d = {d!r}; "
            f"the last one tried was beta = {hi / 2.0!r}"
        )

    inv = (math.sqrt(5.0) - 1.0) / 2.0
    lo = 0.0
    c = hi - inv * (hi - lo)
    e = lo + inv * (hi - lo)
    fc = dual(c)[0]
    fe = dual(e)[0]
    best = max(dual(lo)[0], f_hi, fc, fe)
    for _ in range(200):
        if hi - lo < 1e-12 * max(1.0, hi):
            break
        if fc >= fe:
            hi, e, fe = e, c, fc
            c = hi - inv * (hi - lo)
            fc = dual(c)[0]
            best = max(best, fc)
        else:
            lo, c, fc = c, e, fe
            e = lo + inv * (hi - lo)
            fe = dual(e)[0]
            best = max(best, fe)
    return max(best, 0.0)


@dataclass(frozen=True)
class RdpBoundReport:
    """Rate floors for one (distortion, divergence) operating point.

    lower is the floor max(rd_value, kf_value); upper is the resolution
    rate whenever the distortion budget clears the threshold, else None.
    consistent reports whether lower <= upper held when both exist; the
    floor mixes an asymptotic quantity with a finite-n one, so a transient
    violation is possible and is reported rather than rejected.
    """

    rd_value: float
    kf_value: float
    threshold: float
    distortion_budget: float
    lower: float
    upper: float | None
    consistent: bool


def rdp_lower_bound(
    pmf: Sequence[Mass],
    spec: DistortionSpec,
    distortion_budget: Mass,
    summary: SpectrumSummary,
    curve: FCurve,
    delta: Mass,
) -> RdpBoundReport:
    """Combine the classical rate floor with the finite-n resolution rate."""
    return _rdp_report(
        rd_function_iid(pmf, spec, distortion_budget),
        k_f_rate(summary, curve, delta).value,
        d_threshold(summary, curve, delta, spec),
        distortion_budget,
    )


def _rdp_report(
    rd_value: float, kf_value: float, threshold: Mass, distortion_budget: Mass
) -> RdpBoundReport:
    """The report for one operating point from its three solved parts, so a
    caller holding them for many points solves each part once."""
    upper = kf_value if distortion_budget >= threshold else None
    lower = max(rd_value, kf_value)
    consistent = upper is None or lower <= upper + 1e-9
    return RdpBoundReport(
        rd_value=rd_value,
        kf_value=kf_value,
        threshold=float(threshold),
        distortion_budget=float(distortion_budget),
        lower=lower,
        upper=upper,
        consistent=consistent,
    )
