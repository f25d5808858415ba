"""Curves, divergence values, inverses, and the regularity conditions."""

from __future__ import annotations

import math
import operator
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import islice

import pytest
from test_atom_integer_path import SOURCES, old_divergence, same, to_float

from srnglab import (
    IID,
    AtomicDistribution,
    DimensionMismatch,
    FCurve,
    OutOfRange,
    SourceModel,
    apply_mapping,
    build_mapping,
    check_conditions,
    curve_from_name,
    divergence,
    e_gamma,
    e_gamma_sum,
    expand,
    f_inverse,
    hellinger,
    kl,
    log_sum_check,
    registered_curve_names,
    reverse_kl,
    variational,
)
from srnglab.divergence import _term
from srnglab.probability import _is_exact

F = Fraction

ALL_CURVES = (
    variational(),
    reverse_kl(),
    hellinger(),
    e_gamma(F(3, 2)),
    e_gamma_sum(F(3, 2)),
    kl(),
)


def dist(*masses: Fraction) -> AtomicDistribution:
    return AtomicDistribution.from_masses(list(masses), 1, len(masses))


# ---------------------------------------------------------------------------
# values against hand computations


def test_variational_is_half_l1_and_exact() -> None:
    p = dist(F(7, 10), F(3, 10))
    q = dist(F(1, 2), F(1, 2))
    value = divergence(p, q, variational())
    assert value == F(1, 5)
    assert isinstance(value, Fraction)


def test_e_gamma_at_one_equals_variational() -> None:
    p = dist(F(7, 10), F(3, 10))
    q = dist(F(1, 2), F(1, 2))
    assert divergence(p, q, e_gamma(1)) == F(1, 5)


def test_e_gamma_hand_values() -> None:
    # f(t) = (gamma - t)^+ + 1 - gamma.  At gamma = 2 the two terms for
    # (7/10, 3/10) vs uniform cancel exactly; at gamma = 3/2 the sum-form
    # identity gives (19/20 - 3/4)^+ + (1/20 - 3/4)^+ = 1/5.
    p = dist(F(7, 10), F(3, 10))
    q = dist(F(1, 2), F(1, 2))
    assert divergence(p, q, e_gamma(2)) == 0
    p2 = dist(F(19, 20), F(1, 20))
    assert divergence(p2, q, e_gamma(F(3, 2))) == F(1, 5)


def test_reverse_kl_hand_value() -> None:
    p = dist(F(7, 10), F(3, 10))
    q = dist(F(1, 2), F(1, 2))
    expected = 0.5 * math.log(0.5 / 0.7) + 0.5 * math.log(0.5 / 0.3)
    assert divergence(p, q, reverse_kl()) == pytest.approx(expected, abs=1e-15)


def test_hellinger_hand_value() -> None:
    p = dist(F(7, 10), F(3, 10))
    q = dist(F(1, 2), F(1, 2))
    expected = 1 - math.sqrt(0.35) - math.sqrt(0.15)
    assert divergence(p, q, hellinger()) == pytest.approx(expected, abs=1e-15)


def test_kl_hand_value() -> None:
    p = dist(F(7, 10), F(3, 10))
    q = dist(F(1, 2), F(1, 2))
    expected = 0.7 * math.log(0.7 / 0.5) + 0.3 * math.log(0.3 / 0.5)
    assert divergence(p, q, kl()) == pytest.approx(expected, abs=1e-15)


def test_divergence_of_distribution_with_itself_is_zero() -> None:
    p = dist(F(1, 6), F(1, 3), F(1, 2))
    for curve in ALL_CURVES:
        assert divergence(p, p, curve) == 0


# ---------------------------------------------------------------------------
# zero-mass conventions


def test_disjoint_supports() -> None:
    a = dist(F(1), F(0))
    b = dist(F(0), F(1))
    assert divergence(a, b, variational()) == 1
    assert divergence(a, b, hellinger()) == 1
    assert divergence(a, b, e_gamma(2)) == 1
    assert divergence(a, b, reverse_kl()) == math.inf
    assert divergence(a, b, kl()) == math.inf


def test_zero_p_on_positive_q_uses_limit_at_zero() -> None:
    # Only the f_at_zero convention fires: D((0,1) || (1/2,1/2)) has one
    # vanished atom of reference mass 1/2.
    p = dist(F(0), F(1))
    q = dist(F(1, 2), F(1, 2))
    assert divergence(p, q, variational()) == F(1, 2)
    assert divergence(p, q, reverse_kl()) == math.inf
    assert divergence(p, q, hellinger()) == pytest.approx(
        0.5 + 0.5 * (1 - math.sqrt(2)), abs=1e-15
    )


def test_zero_q_on_positive_p_uses_slope_at_infinity() -> None:
    # Half the mass sits on an atom the reference assigns zero; the cost
    # of that atom is p times the slope at infinity, which is 0 for the
    # reverse direction, 1 for the sum form, and infinite for kl.
    p = dist(F(1, 2), F(1, 2))
    q = dist(F(1), F(0))
    assert divergence(p, q, variational()) == F(1, 2)
    assert divergence(p, q, e_gamma_sum(2)) == F(1, 2)
    assert divergence(p, q, kl()) == math.inf
    assert divergence(p, q, reverse_kl()) == pytest.approx(math.log(2), abs=1e-15)


def recorded_terms(monkeypatch) -> list:
    """The (p, q) masses of every _term call made from now on."""
    module = sys.modules["srnglab.divergence"]
    module_term = module._term
    seen = []

    def term(curve, p, q):
        seen.append((p, q))
        return module_term(curve, p, q)

    monkeypatch.setattr(module, "_term", term)
    return seen


@pytest.mark.parametrize("pmf", [(F(3, 4), F(1, 4)), (0.75, 0.25)], ids=["exact", "float"])
def test_zero_slope_sums_over_the_reference_support(pmf, monkeypatch) -> None:
    # With f'(inf) = 0 an atom off the decoded law's support costs nothing,
    # so no term is computed there; other slopes still pay for such atoms.
    source = expand(SourceModel(IID(pmf), 6))
    mapping, _ = build_mapping(source, 8, F(1, 2))
    decoded = apply_mapping(source, mapping)
    seen = recorded_terms(monkeypatch)
    for name in ("variational", "reverse_kl", "hellinger", "e_gamma:2", "kl", "e_gamma_sum:3/2"):
        seen.clear()
        divergence(source, decoded, curve_from_name(name))
        off_support = [q for _, q in seen if q == 0]
        assert seen and bool(off_support) == (name in ("kl", "e_gamma_sum:3/2")), name


def _exact_past_1000(t):
    # Exact on any input; it raises far past t = 1, so the first error is
    # compared along with values.
    if t >= 1000:
        raise ZeroDivisionError("ratio out of range")
    return F(1, 2) if t < 1 else F(0)


DIFFERENTIAL_CURVES = tuple(
    curve_from_name(name)
    for name in ("variational", "reverse_kl", "hellinger", "e_gamma:2", "e_gamma_sum:3/2", "kl")
) + (
    FCurve("float-zero-slope", variational().eval_at, 1.0, 0.0),
    FCurve("exact-on-floats", _exact_past_1000, F(1, 2), F(0)),
    FCurve("int-zero-slope", reverse_kl().eval_at, math.inf, 0),
)


def _drawn(rng: random.Random, n: int) -> AtomicDistribution:
    """Weights from {0, 1, 2, 3, 7, 10**6}: exact, float, or float mode
    given Fraction masses, which the constructor stores as floats."""
    weights = [0]
    while not any(weights):
        weights = [rng.choice((0, 1, 2, 3, 7, 10**6)) for _ in range(2**n)]
    masses = [F(w, sum(weights)) for w in weights]
    kind = rng.randrange(3)
    if kind == 2:
        return AtomicDistribution(tuple(masses), n, 2, False)
    return AtomicDistribution.from_masses(masses, n, 2, exact=kind == 0)


def _outcome(function, *args):
    try:
        return function(*args)
    except Exception as exc:  # compared by type below
        return type(exc)


def test_divergence_matches_the_per_atom_loop_on_random_pairs() -> None:
    rng = random.Random(20211)
    for _ in range(800):
        n = rng.choice((2, 3))
        p, q = _drawn(rng, n), _drawn(rng, n)
        for curve in DIFFERENTIAL_CURVES:
            got = _outcome(divergence, p, q, curve)
            want = _outcome(old_divergence, p.masses, q.masses, curve)
            assert same(got, want), (curve.name, p.masses, q.masses, got, want)


def sorted_pairs_divergence(p, q, curve):
    # The body divergence had before its counting pass: each pair's first
    # atom from a reversed dict, the pairs sorted by it, terms from the
    # masses of that atom, and a second count over the exact prefix.
    pv, qv = p._values, q._values
    ids = range(len(pv))
    slope = curve.slope_at_infinity
    if slope == 0 and (p.exact and _is_exact(slope) or not q.exact):
        ids = q.support()
        pv, qv = list(map(pv.__getitem__, ids)), list(map(qv.__getitem__, ids))
    size = len(pv)
    first = dict(zip(zip(reversed(pv), reversed(qv)), range(size - 1, -1, -1)))
    terms = {}
    cut = size
    for pair, x in sorted(first.items(), key=operator.itemgetter(1)):
        term = _term(curve, p.masses[ids[x]], q.masses[ids[x]])
        if term == math.inf:
            return math.inf
        if cut == size and not _is_exact(term):
            cut = x
        terms[pair] = term
    prefix = Counter(zip(islice(pv, cut), islice(qv, cut)))
    total = sum(count * terms[pair] for pair, count in prefix.items())
    if cut == size:
        return total
    floats = {pair: float(t) if _is_exact(t) else t for pair, t in terms.items()}
    suffix = zip(islice(pv, cut + 1, None), islice(qv, cut + 1, None))
    start = total + terms[pv[cut], qv[cut]]
    return reduce(operator.add, map(floats.__getitem__, suffix), start)


def _bits(value):
    """A result as its type and, for a float, every bit of it."""
    return type(value), value.hex() if isinstance(value, float) else value


def _float_from_one(t):
    # Exact below t = 1 and a float from there, so on exact laws the first
    # float term can follow exact ones and cut the sum mid-sequence.
    return 1 - t if t < 1 else float(t - 1)


def _infinite_past_two(t):
    # Finite terms, then an infinite one on the first atom past t = 2.
    return math.inf if t > 2 else 1 - t


COUNTING_CURVES = DIFFERENTIAL_CURVES + (
    FCurve("float-from-one", _float_from_one, F(1), F(0)),
    FCurve("infinite-past-two", _infinite_past_two, F(1), F(0)),
)


def _counting_pairs():
    """Exact, float and mixed pairs: the benchmark sources at n = 6 and
    their decoded laws, both ways round, and drawn pairs."""
    for variant in SOURCES[:4]:
        exact = expand(SourceModel(variant, 6))
        floats = expand(SourceModel(to_float(variant), 6))
        mapping, _ = build_mapping(exact, 8, F(1, 2))
        decoded, float_decoded = apply_mapping(exact, mapping), apply_mapping(floats, mapping)
        for source in (exact, floats):
            for law in (decoded, float_decoded):
                yield source, law
                yield law, source
    # Seven atoms of one exact pair before the first float term, whose
    # float sum rounds otherwise than their exact one: the cut is atom 7
    # but distinct pair 1.
    p = AtomicDistribution.from_masses([F(1, 11)] * 7 + [F(4, 11)], 3, 2)
    q = AtomicDistribution.from_masses([F(1, 9)] * 7 + [F(2, 9)], 3, 2)
    yield p, q
    rng = random.Random(33)
    for _ in range(100):
        n = rng.choice((2, 3))
        yield _drawn(rng, n), _drawn(rng, n)


def test_counting_pass_matches_the_sorted_pairs_body_bit_for_bit() -> None:
    compared, infinite, mid_cuts = 0, 0, 0
    for p, q in _counting_pairs():
        for curve in COUNTING_CURVES:
            got = _outcome(divergence, p, q, curve)
            want = _outcome(sorted_pairs_divergence, p, q, curve)
            assert _bits(got) == _bits(want), (curve.name, p.masses, q.masses, got, want)
            compared += 1
            infinite += got == math.inf
            if curve.name == "float-from-one" and p.exact and isinstance(got, float):
                # Zero slope: the sum starts at q's first support atom.
                x = q.support()[0]
                mid_cuts += _is_exact(_term(curve, p.masses[x], q.masses[x]))
    assert compared == 133 * len(COUNTING_CURVES)
    assert infinite and mid_cuts


def test_exact_laws_given_int_masses_answer_in_fractions() -> None:
    # Integer masses in exact mode: terms come from Fraction(num, den), so
    # p / q is a Fraction, not int / int true division's float.
    d = AtomicDistribution((1, 0, 0, 0), 2, 2, True)
    assert same(divergence(d, d, variational()), F(0))
    assert same(divergence(d, d, curve_from_name("e_gamma:2")), F(0))
    assert d.masses == (1, 0, 0, 0) and all(type(m) is int for m in d.masses)
    assert d == AtomicDistribution((1, 0, 0, 0), 2, 2, True)
    assert repr(d) == "AtomicDistribution(masses=(1, 0, 0, 0), n=2, alphabet_size=2, exact=True)"
    assert hash(d) == hash(((1, 0, 0, 0), 2, 2, True))


def test_float_mode_given_fractions_answers_in_floats() -> None:
    # The constructor stores float-mode masses as floats, so the divergence
    # and _mass_of agree on the arithmetic.
    p = AtomicDistribution((F(1, 2), F(1, 4), F(1, 4), F(0)), 2, 2, False)
    q = AtomicDistribution((F(1, 4),) * 4, 2, 2, False)
    assert all(isinstance(m, float) for m in p.masses + q.masses)
    got = divergence(p, q, variational())
    assert got == 0.25 and isinstance(got, float)
    assert p._mass_of([0, 1]) == 0.75


def test_dimension_mismatch_rejected() -> None:
    p = dist(F(1, 2), F(1, 2))
    q = AtomicDistribution.from_masses([F(1, 3)] * 3, 1, 3)
    with pytest.raises(DimensionMismatch):
        divergence(p, q, variational())


# ---------------------------------------------------------------------------
# the two e_gamma forms agree as divergences


def test_e_gamma_forms_agree_exactly() -> None:
    p = dist(F(1, 8), F(3, 8), F(1, 2))
    q = dist(F(1, 3), F(1, 3), F(1, 3))
    for gamma in (F(1), F(3, 2), F(2), F(5)):
        lhs = divergence(p, q, e_gamma(gamma))
        rhs = divergence(p, q, e_gamma_sum(gamma))
        assert lhs == rhs
        assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)


def test_e_gamma_forms_agree_with_zero_masses() -> None:
    p = dist(F(0), F(1, 2), F(1, 2))
    q = dist(F(1, 4), F(3, 4), F(0))
    for gamma in (F(1), F(2)):
        assert divergence(p, q, e_gamma(gamma)) == divergence(p, q, e_gamma_sum(gamma))


def test_e_gamma_float_inputs_match_the_fraction_fallback() -> None:
    import random

    rng = random.Random(1729)
    for gamma in (F(3, 2), F(7, 3), F(10**20 + 1, 10**20), 1.5, 2.3):
        g = float(gamma)
        points = [rng.uniform(0, 4) for _ in range(1500)]
        points += [0.0, 1.0, g, math.nextafter(g, 0), math.nextafter(g, 5), 1e-300, 1e300]
        curve, twin = e_gamma(gamma), e_gamma_sum(gamma)
        for t in points:
            # The expressions as written before the float path, with gamma
            # as given, so a Fraction gamma goes through Fraction's fallback.
            gap = gamma - t
            expected = (gap if gap > 0 else t - t) + 1 - gamma
            got = curve.eval_at(t)
            assert type(got) is float and got == expected
            gap = t - gamma
            expected = gap if gap > 0 else gap - gap
            got = twin.eval_at(t)
            assert type(got) is float and got == expected
        if isinstance(gamma, Fraction):
            for t in (F(1, 2), F(1), gamma, gamma + F(1, 3)):
                assert curve.eval_at(t) == (gamma - t if gamma > t else 0) + 1 - gamma
                assert twin.eval_at(t) == (t - gamma if t > gamma else 0)
                assert type(curve.eval_at(t)) is Fraction and type(twin.eval_at(t)) is Fraction
        else:
            assert type(twin.eval_at(F(1, 2))) is float
    # A gamma beyond the float range still builds and evaluates exactly;
    # only a float argument fails, as it does through Fraction's fallback.
    for name, at_half in (("e_gamma:1e400", F(1, 2)), ("e_gamma_sum:1e400", 0)):
        curve = curve_from_name(name)
        assert curve.eval_at(F(1, 2)) == at_half
        assert type(curve.eval_at(F(1, 2))) is Fraction
        with pytest.raises(OverflowError):
            curve.eval_at(0.5)


def test_e_gamma_requires_gamma_at_least_one() -> None:
    with pytest.raises(OutOfRange):
        e_gamma(F(1, 2))
    with pytest.raises(OutOfRange):
        e_gamma_sum(F(1, 2))


# ---------------------------------------------------------------------------
# inverses


def test_analytic_inverses() -> None:
    assert f_inverse(variational(), F(3, 10)) == F(7, 10)
    assert f_inverse(e_gamma(2), F(3, 10)) == F(7, 10)
    assert f_inverse(reverse_kl(), math.log(2)) == pytest.approx(0.5, abs=1e-15)
    assert f_inverse(hellinger(), F(1, 2)) == F(1, 4)
    assert isinstance(f_inverse(hellinger(), F(1, 2)), Fraction)


def test_inverse_round_trip_on_registered_curves() -> None:
    for curve in (variational(), reverse_kl(), hellinger(), e_gamma(F(3, 2))):
        for t in (0.1, 0.35, 0.8, 0.99):
            back = f_inverse(curve, curve.eval_at(t))
            assert back == pytest.approx(t, abs=1e-10)


def test_inverse_at_limit_value_is_zero() -> None:
    assert f_inverse(variational(), 1) == 0
    assert f_inverse(hellinger(), 1) == 0


def test_inverse_prefers_smallest_preimage() -> None:
    # Both e_gamma_sum and reverse_kl are flat at the bottom of their
    # range; the minimum of the preimage is what comes back.
    assert f_inverse(e_gamma_sum(2), 0) == 0
    assert f_inverse(reverse_kl(), 0) == 1.0


def test_inverse_rejects_out_of_range_values() -> None:
    with pytest.raises(OutOfRange):
        f_inverse(variational(), 2)
    with pytest.raises(OutOfRange):
        f_inverse(variational(), -1)
    with pytest.raises(OutOfRange):
        f_inverse(kl(), 0.5)


def test_numeric_inverse_fallback_bisects() -> None:
    square = FCurve(
        name="one_minus_t_squared",
        eval_at=lambda t: (1 - t) ** 2 if t < 1 else (t - 1) ** 2,
        f_at_zero=1,
        slope_at_infinity=math.inf,
        nonincreasing=True,
    )
    for target in (0.04, 0.25, 0.81):
        assert f_inverse(square, target) == pytest.approx(1 - math.sqrt(target), abs=1e-9)
    # At the limit value f(0+) the preimage's left edge is 0, with no bisection.
    assert f_inverse(square, 1) == 0
    # Without an inverse the fallback runs only on nonincreasing curves:
    # one flagged otherwise, and one that numeric checking finds is not.
    flagged = FCurve(
        name="flagged", eval_at=square.eval_at, f_at_zero=1, slope_at_infinity=math.inf,
        nonincreasing=False,
    )
    bowl = FCurve(
        name="bowl", eval_at=lambda t: (t - F(1, 2)) ** 2 - F(1, 4), f_at_zero=0,
        slope_at_infinity=math.inf,
    )
    for curve, target in ((flagged, 0.25), (bowl, 0)):
        with pytest.raises(OutOfRange) as excinfo:
            f_inverse(curve, target)
        assert str(excinfo.value) == f"{curve.name} is not nonincreasing; its inverse is undefined here"


# ---------------------------------------------------------------------------
# conditions


def test_conditions_for_the_standard_curves() -> None:
    for curve in (variational(), reverse_kl(), hellinger(), e_gamma(F(3, 2))):
        report = check_conditions(curve)
        assert report.all_hold(), curve.name


def test_kl_fails_monotonicity_and_slope() -> None:
    report = check_conditions(kl())
    assert not report.nonincreasing
    assert report.subexponential_near_zero
    assert not report.zero_slope_at_infinity
    assert not report.all_hold()


def test_e_gamma_sum_fails_monotonicity_and_slope() -> None:
    report = check_conditions(e_gamma_sum(2))
    assert not report.nonincreasing
    assert report.subexponential_near_zero
    assert not report.zero_slope_at_infinity


def test_condition_sources_are_analytic_for_registered_curves() -> None:
    for curve in ALL_CURVES:
        for _, source in check_conditions(curve).sources:
            assert source == "analytic"


def test_numeric_condition_sweep_on_unflagged_curve() -> None:
    # Same shape as the variational curve but with the analytic flags
    # stripped, so the numeric sweeps must reach the same verdicts.
    bare = FCurve(
        name="bare_variational",
        eval_at=lambda t: max(1 - t, 0 * t),
        f_at_zero=1,
        slope_at_infinity=0,
    )
    report = check_conditions(bare)
    assert report.nonincreasing
    assert report.subexponential_near_zero
    assert report.zero_slope_at_infinity
    assert dict(report.sources)["nonincreasing"] == "numeric"


def test_numeric_sweep_catches_increasing_curve() -> None:
    rising = FCurve(
        name="bare_quadratic",
        eval_at=lambda t: (t - 1) * (t - 1),
        f_at_zero=1,
        slope_at_infinity=math.inf,
    )
    assert not check_conditions(rising).nonincreasing


@pytest.mark.parametrize(
    "eval_at, holds",
    [
        # f(e^{-s}) = s: polynomial in s, so f(e^{-nb}) e^{-na} = nb e^{-na} -> 0.
        (lambda t: -math.log(t), True),
        (lambda t: math.log(t) ** 4, True),
        # f(e^{-s}) ~ e^{s}: the product tends to e^{n(b - a)}, unbounded for a < b.
        (lambda t: 1 / t - 1, False),
        (lambda t: t**-0.05 - 1, False),
        # 1 / t**2 leaves the double range before t does.
        (lambda t: 1 / (t * t) - 1, False),
    ],
    ids=["neg_log", "log_power", "inverse", "small_power", "inverse_square"],
)
def test_numeric_subexponential_rule_on_unflagged_curves(eval_at, holds) -> None:
    bare = FCurve(name="bare", eval_at=eval_at, f_at_zero=math.inf, slope_at_infinity=F(0))
    report = check_conditions(bare)
    assert report.subexponential_near_zero is holds
    assert dict(report.sources)["subexponential_near_zero"] == "numeric"


# ---------------------------------------------------------------------------
# name registry


def test_round_trip_plain_names() -> None:
    for name in ("variational", "reverse_kl", "hellinger", "kl"):
        assert curve_from_name(name).name == name


def test_parameterized_names() -> None:
    assert curve_from_name("e_gamma:2").name == "e_gamma:2"
    assert curve_from_name("e_gamma:3/2").name == "e_gamma:3/2"
    assert curve_from_name("e_gamma_sum:1.5").name == "e_gamma_sum:3/2"
    assert dict(curve_from_name("e_gamma:1.5").params)["gamma"] == F(3, 2)


def test_registry_lists_every_family() -> None:
    names = registered_curve_names()
    assert "variational" in names
    assert any(name.startswith("e_gamma:") for name in names)


def test_unknown_names_rejected() -> None:
    with pytest.raises(OutOfRange):
        curve_from_name("nope")
    with pytest.raises(OutOfRange):
        curve_from_name("e_gamma:abc")


# ---------------------------------------------------------------------------
# merging inequality


def test_log_sum_check_on_rational_data() -> None:
    for curve in ALL_CURVES:
        assert log_sum_check(curve, [F(1, 8), F(3, 8)], [F(1, 4), F(1, 4)])


def test_log_sum_check_rejects_length_mismatch() -> None:
    with pytest.raises(DimensionMismatch):
        log_sum_check(variational(), [F(1, 2)], [F(1, 4), F(1, 4)])


def test_log_sum_check_totals_left_to_right(monkeypatch) -> None:
    # Built-in sum compensates floats since Python 3.12 and would give
    # 1.0000000000000002 here; the split side adds left to right.
    seen = recorded_terms(monkeypatch)
    row = [1.0, 1e-16, 1e-16]
    log_sum_check(variational(), row, row)
    total = (1.0 + 1e-16) + 1e-16
    assert same(seen[-1][0], total) and same(seen[-1][1], total)
