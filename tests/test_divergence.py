"""Curves, divergence values, inverses, and the regularity conditions."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from srnglab import (
    AtomicDistribution,
    DimensionMismatch,
    FCurve,
    OutOfRange,
    check_conditions,
    curve_from_name,
    divergence,
    e_gamma,
    e_gamma_sum,
    f_inverse,
    hellinger,
    kl,
    log_sum_check,
    registered_curve_names,
    reverse_kl,
    variational,
)

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
