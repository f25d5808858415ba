"""Spectrum summaries, rate quantities, and the type-class route.

The running example is the two-symbol block source with pmf (1/4, 3/4)
at blocklength 2, whose spectrum has three points:

    value -log(9/16)/2 ~ 0.2877   mass 9/16
    value -log(3/16)/2 ~ 0.8370   mass 3/8
    value -log(1/16)/2 ~ 1.3863   mass 1/16
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from srnglab import (
    AtomicDistribution,
    CapExceeded,
    IID,
    InvalidModel,
    Markov,
    Mixture,
    OutOfRange,
    RateReport,
    SourceModel,
    SpectrumSummary,
    cdf_at,
    e_gamma,
    expand,
    f_inverse,
    hellinger,
    k_f_rate,
    kl,
    rate_convergence_sweep,
    reverse_kl,
    smooth_max_entropy,
    spectrum_cdf,
    sup_entropy_quantile,
    tail_above,
    tail_from,
    typeclass_smooth_max_entropy,
    typeclass_spectrum,
    variational,
)
from srnglab.spectrum import _sweep_pairs

F = Fraction


@pytest.fixture
def quarter_spectrum() -> SpectrumSummary:
    return spectrum_cdf(expand(SourceModel(IID((F(1, 4), F(3, 4))), 2)))


# ---------------------------------------------------------------------------
# summary construction


def test_spectrum_points_of_the_running_example(quarter_spectrum: SpectrumSummary) -> None:
    values = [v for v, _ in quarter_spectrum.points]
    masses = [m for _, m in quarter_spectrum.points]
    assert values == pytest.approx(
        [-math.log(9 / 16) / 2, -math.log(3 / 16) / 2, -math.log(1 / 16) / 2]
    )
    assert masses == [F(9, 16), F(3, 8), F(1, 16)]
    assert quarter_spectrum.masses() == tuple(masses)


def test_spectrum_masses_stay_rational(quarter_spectrum: SpectrumSummary) -> None:
    assert all(isinstance(m, Fraction) for _, m in quarter_spectrum.points)
    assert sum(m for _, m in quarter_spectrum.points) == 1


def test_summary_rejects_unsorted_points() -> None:
    with pytest.raises(InvalidModel):
        SpectrumSummary(points=((1.0, F(1, 2)), (0.5, F(1, 2))), n=1)
    with pytest.raises(InvalidModel) as excinfo:
        SpectrumSummary(points=(), n=1)
    assert str(excinfo.value) == "a spectrum needs at least one point"


def test_summary_rejects_nonpositive_masses() -> None:
    with pytest.raises(InvalidModel):
        SpectrumSummary(points=((0.5, F(0)), (1.0, F(1))), n=1)


def test_spectrum_merges_equal_mass_outcomes() -> None:
    d = AtomicDistribution.from_masses([F(1, 4)] * 4, 1, 4)
    s = spectrum_cdf(d)
    assert len(s.points) == 1
    assert s.points[0][1] == 1


# ---------------------------------------------------------------------------
# tails and the cdf


def test_tail_conventions(quarter_spectrum: SpectrumSummary) -> None:
    s = quarter_spectrum
    v1 = s.points[0][0]
    assert tail_from(s, v1) == 1
    assert tail_above(s, v1) == F(7, 16)
    assert tail_above(s, 0.0) == 1
    assert tail_from(s, 2.0) == 0


def test_cdf_is_exact_between_and_at_points(quarter_spectrum: SpectrumSummary) -> None:
    s = quarter_spectrum
    assert cdf_at(s, 0.1) == 0
    assert cdf_at(s, s.points[0][0]) == F(9, 16)
    assert cdf_at(s, 1.0) == F(15, 16)
    assert cdf_at(s, s.points[2][0]) == 1
    assert cdf_at(s, 99.0) == 1


def test_cdf_and_strict_tail_partition_mass(quarter_spectrum: SpectrumSummary) -> None:
    for v in (0.0, 0.2877, 0.8370, 1.0, 1.3863, 5.0):
        assert cdf_at(quarter_spectrum, v) + tail_above(quarter_spectrum, v) == 1


# ---------------------------------------------------------------------------
# rate quantities


def test_quantile_sweeps_the_spectrum(quarter_spectrum: SpectrumSummary) -> None:
    s = quarter_spectrum
    assert sup_entropy_quantile(s, F(0)).value == s.points[2][0]
    assert sup_entropy_quantile(s, F(1, 16)).value == s.points[1][0]
    assert sup_entropy_quantile(s, F(1, 2)).value == s.points[0][0]


def test_quantile_rejects_negative_budget(quarter_spectrum: SpectrumSummary) -> None:
    with pytest.raises(OutOfRange):
        sup_entropy_quantile(quarter_spectrum, F(-1, 10))
    # A budget above one is trivially met at the smallest point.
    assert sup_entropy_quantile(quarter_spectrum, F(3, 2)).value == (
        quarter_spectrum.points[0][0]
    )


def test_k_f_rate_running_example(quarter_spectrum: SpectrumSummary) -> None:
    report = k_f_rate(quarter_spectrum, variational(), F(1, 10))
    assert report.value == quarter_spectrum.points[1][0]
    assert report.quantity == "k_f_rate"
    assert dict(report.detail)["curve"] == "variational"


def test_k_f_rate_matches_quantile_through_the_inverse(
    quarter_spectrum: SpectrumSummary,
) -> None:
    # The resolution rate at budget delta is the entropy quantile at tail
    # budget 1 - f_inverse(delta); both land on the same spectrum point.
    for curve in (variational(), reverse_kl(), e_gamma(3)):
        for delta in (F(1, 20), F(1, 10), F(1, 2)):
            eps = 1 - f_inverse(curve, delta)
            lhs = k_f_rate(quarter_spectrum, curve, delta)
            rhs = sup_entropy_quantile(quarter_spectrum, eps)
            assert lhs.value == rhs.value


def test_k_f_rate_is_gamma_free_for_the_e_gamma_family(
    quarter_spectrum: SpectrumSummary,
) -> None:
    base = k_f_rate(quarter_spectrum, variational(), F(1, 10)).value
    for gamma in (1, 2, 5, F(7, 2)):
        assert k_f_rate(quarter_spectrum, e_gamma(gamma), F(1, 10)).value == base


def test_k_f_rate_rejects_increasing_curves(quarter_spectrum: SpectrumSummary) -> None:
    with pytest.raises(OutOfRange):
        k_f_rate(quarter_spectrum, kl(), F(1, 10))


def test_rate_report_ceiling_check() -> None:
    report = RateReport(quantity="q", value=0.5, n=2)
    assert report.check_ceiling(0.5)
    assert report.check_ceiling(0.7)
    assert not report.check_ceiling(0.3)
    with pytest.raises(OutOfRange):
        RateReport(quantity="q", value=-0.1, n=2)


# ---------------------------------------------------------------------------
# smooth max entropy


def test_smooth_max_entropy_small_instances() -> None:
    d = AtomicDistribution.from_masses([F(4, 10), F(3, 10), F(2, 10), F(1, 10)], 1, 4)
    value, kept = smooth_max_entropy(d, F(35, 100))
    assert value == pytest.approx(math.log(2))
    assert kept == frozenset({0, 1})
    uniform = AtomicDistribution.from_masses([F(1, 4)] * 4, 1, 4)
    value, kept = smooth_max_entropy(uniform, F(1, 4))
    assert value == pytest.approx(math.log(3))
    assert len(kept) == 3


def test_smooth_max_entropy_budget_extremes() -> None:
    d = AtomicDistribution.from_masses([F(4, 10), F(3, 10), F(2, 10), F(1, 10)], 1, 4)
    value, kept = smooth_max_entropy(d, F(0))
    assert value == pytest.approx(math.log(4))
    assert kept == frozenset({0, 1, 2, 3})
    value, kept = smooth_max_entropy(d, F(9999, 10000))
    assert value == 0.0
    assert kept == frozenset({0})


def test_smooth_max_entropy_always_keeps_the_mode() -> None:
    d = AtomicDistribution.from_masses([F(1, 10), F(9, 10)], 1, 2)
    _, kept = smooth_max_entropy(d, F(99, 100))
    assert kept == frozenset({1})


# ---------------------------------------------------------------------------
# type-class route


def test_typeclass_spectrum_matches_direct_expansion_iid() -> None:
    pmf = (F(1, 4), F(3, 4))
    for n in (1, 2, 5, 8):
        direct = spectrum_cdf(expand(SourceModel(IID(pmf), n)))
        routed = typeclass_spectrum(IID(pmf), n)
        assert direct.points == routed.points


def test_typeclass_spectrum_matches_direct_expansion_mixture() -> None:
    mix = Mixture((F(1, 2), F(1, 2)), (IID((F(3, 4), F(1, 4))), IID((F(1, 4), F(3, 4)))))
    for n in (1, 2, 5):
        direct = spectrum_cdf(expand(SourceModel(mix, n)))
        routed = typeclass_spectrum(mix, n)
        assert direct.points == routed.points


def test_typeclass_spectrum_three_symbols() -> None:
    pmf = (F(1, 6), F(1, 3), F(1, 2))
    direct = spectrum_cdf(expand(SourceModel(IID(pmf), 4)))
    routed = typeclass_spectrum(IID(pmf), 4)
    assert direct.points == routed.points


def test_typeclass_routes_read_an_exact_chain_through_its_expansion() -> None:
    # A chain has no type classes yet: its class list is its expansion's,
    # so the routes agree with the atoms and stop at the default atom cap
    # before expanding anything.
    chain = Markov((F(1, 2), F(1, 2)), ((F(9, 10), F(1, 10)), (F(1, 5), F(4, 5))))
    for n in (1, 2, 5, 8):
        d = expand(SourceModel(chain, n))
        assert typeclass_spectrum(chain, n).points == spectrum_cdf(d).points
        h0, chosen = smooth_max_entropy(d, F(1, 10))
        assert typeclass_smooth_max_entropy(chain, n, F(1, 10)) == (h0, len(chosen))
    with pytest.raises(CapExceeded, match="^outcome space holds 33554432 atoms, cap is 16777216$"):
        typeclass_spectrum(chain, 25)


def test_typeclass_point_count_stays_polynomial() -> None:
    # 1001 compositions at n = 1000 on two symbols; the expansion route
    # would need 2**1000 atoms.
    s = typeclass_spectrum(IID((F(11, 100), F(89, 100))), 1000)
    assert len(s.points) == 1001
    assert sum(m for _, m in s.points) == 1


def test_typeclass_requires_rational_parameters() -> None:
    with pytest.raises(InvalidModel):
        typeclass_spectrum(IID((0.25, 0.75)), 2)


def test_typeclass_smooth_max_matches_greedy() -> None:
    pmf = (F(1, 4), F(3, 4))
    for n in (2, 5, 8):
        for delta in (F(1, 10), F(1, 4), F(3, 5)):
            value, size = typeclass_smooth_max_entropy(IID(pmf), n, delta)
            greedy_value, kept = smooth_max_entropy(expand(SourceModel(IID(pmf), n)), delta)
            assert value == greedy_value
            assert size == len(kept)


def test_typeclass_smooth_max_saturated_budget() -> None:
    assert typeclass_smooth_max_entropy(IID((F(1, 4), F(3, 4))), 2, F(1)) == (0.0, 1)


# ---------------------------------------------------------------------------
# convergence sweep


def test_sweep_rows_cover_both_quantities() -> None:
    rows = rate_convergence_sweep(IID((F(1, 4), F(3, 4))), (1, 2, 4), variational(), F(1, 5))
    assert [(r.n, r.quantity) for r in rows] == [
        (1, "k_f_rate"),
        (1, "smooth_max_entropy_rate"),
        (2, "k_f_rate"),
        (2, "smooth_max_entropy_rate"),
        (4, "k_f_rate"),
        (4, "smooth_max_entropy_rate"),
    ]
    assert all(r.curve == "variational" for r in rows)
    assert all(r.delta == 0.2 for r in rows)


def test_sweep_values_match_direct_computation() -> None:
    # The atom-vs-type differential test: an exact IID or mixture sweep
    # walks type classes, an exact chain reads its expansion's class list
    # and a float sweep expands, and all must give the rows of the expanded
    # spectrum and smooth max entropy.  A budget of 3/2 lies above
    # f(0+) = 1 for the bounded curves: every cdf level qualifies and the
    # matching tail level is 1, as in k_f_rate.  At 73/128 the variational
    # threshold 55/128 sits half a 1/64 step above the lowest cdf level
    # 27/64 of iid (1/4, 3/4) at n = 3.
    budgets = (F(1, 5), F(3, 2), F(73, 128))
    pairs = [(c, d) for c in (variational(), hellinger(), reverse_kl()) for d in budgets]
    mixture = Mixture((F(1, 3), F(2, 3)), (IID((F(1, 4), F(3, 4))), IID((F(1, 2), F(1, 2)))))
    three = Mixture(
        (F(1, 2), F(1, 3), F(1, 6)),
        (IID((F(1, 2), F(1, 3), F(1, 6))), IID((F(1, 6), F(1, 6), F(2, 3))), IID((F(1, 3),) * 3)),
    )
    sources = (
        IID((F(1, 4), F(3, 4))),
        mixture,
        IID((F(1, 2), F(0), F(1, 2))),  # a symbol of probability zero
        IID((F(1, 2), F(1, 4), F(1, 8), F(1, 8))),
        three,
        IID((0.25, 0.75)),
        # The benchmark chain, exact and float.
        Markov((F(1, 2), F(1, 2)), ((F(9, 10), F(1, 10)), (F(1, 5), F(4, 5)))),
        Markov((0.5, 0.5), ((0.9, 0.1), (0.2, 0.8))),
    )
    ns = (1, 2, 3, 5)  # k**n <= 2**10 for every source
    for source in sources:
        together = _sweep_pairs(source, ns, pairs)
        assert len(together) == len(pairs)
        for (curve, delta), rows in zip(pairs, together):
            assert rows == rate_convergence_sweep(source, ns, curve, delta)
            eps = 1 if delta >= curve.f_at_zero else 1 - f_inverse(curve, delta)
            for n, (kf_row, h0_row) in zip(ns, zip(rows[::2], rows[1::2])):
                d = expand(SourceModel(source, n))
                assert (kf_row.n, kf_row.quantity, h0_row.n, h0_row.quantity) == (
                    n, "k_f_rate", n, "smooth_max_entropy_rate"
                )
                assert kf_row.value == k_f_rate(spectrum_cdf(d), curve, delta).value
                smooth_value, _ = smooth_max_entropy(d, eps)
                assert h0_row.value == smooth_value / n
                assert kf_row.nu == h0_row.nu == float(eps)
                assert kf_row.delta == float(delta)


def test_float_sweep_beyond_the_direct_limit_is_rejected_up_front(monkeypatch) -> None:
    import srnglab.spectrum as spectrum_module

    def no_expand(*args):
        raise AssertionError("expanded a blocklength before rejecting the sweep")

    monkeypatch.setattr(spectrum_module, "expand", no_expand)
    source = IID((0.25, 0.75))
    with pytest.raises(InvalidModel) as err:
        rate_convergence_sweep(source, (1, 2, 3, 20), variational(), F(1, 5))
    assert str(err.value) == (
        "float sweep cannot reach n = 20: 2^20 outcomes exceed the direct limit 16384 "
        "and the type-class route needs exact arithmetic (use --exact)"
    )


def test_sweep_route_follows_the_source_arithmetic(monkeypatch) -> None:
    import srnglab.spectrum as spectrum_module

    def refuse(*args):
        raise AssertionError("took the other route")

    pairs = [(variational(), F(1, 5)), (hellinger(), F(1, 10))]
    mixture = Mixture((F(1, 3), F(2, 3)), (IID((F(1, 4), F(3, 4))), IID((F(1, 2), F(1, 2)))))
    monkeypatch.setattr(spectrum_module, "expand", refuse)
    for source in (IID((F(1, 4), F(3, 4))), mixture):
        # Exact sweeps never expand, so no cap applies to them.
        assert [len(rows) for rows in _sweep_pairs(source, (1, 2, 3), pairs, cap=1)] == [6, 6]
    monkeypatch.undo()
    monkeypatch.setattr(spectrum_module, "_types", refuse)
    source = IID((0.25, 0.75))
    assert len(_sweep_pairs(source, (1, 2, 3), pairs)[0]) == 6
    with pytest.raises(CapExceeded, match="^outcome space holds 8 atoms, cap is 4$"):
        _sweep_pairs(source, (1, 2, 3), pairs, cap=4)


def test_sweep_checks_every_pair_before_any_work(monkeypatch) -> None:
    import srnglab.spectrum as spectrum_module

    def no_work(*args):
        raise AssertionError("computed a blocklength before checking every pair")

    monkeypatch.setattr(spectrum_module, "expand", no_work)
    monkeypatch.setattr(spectrum_module, "typeclass_spectrum", no_work)
    monkeypatch.setattr(spectrum_module, "_types", no_work)
    source = IID((F(1, 4), F(3, 4)))
    good = (variational(), F(1, 5))
    with pytest.raises(OutOfRange, match="^divergence budget must be nonnegative, got -1/5$"):
        _sweep_pairs(source, (1, 200), [good, (hellinger(), F(-1, 5))])
    with pytest.raises(OutOfRange, match="^kl is not nonincreasing; its rate is undefined here$"):
        _sweep_pairs(source, (1, 200), [good, (kl(), F(1, 5))])
    with pytest.raises(OutOfRange, match="^divergence budget must be nonnegative"):
        rate_convergence_sweep(source, (200,), variational(), F(-1, 5))
    # No pair, no work: nothing is computed and nothing is rejected.
    assert _sweep_pairs(IID((0.25, 0.75)), (1, 200), []) == []


def test_sweep_tail_budget_comes_from_the_inverse() -> None:
    rows = rate_convergence_sweep(IID((F(1, 4), F(3, 4))), (2,), reverse_kl(), F(1, 10))
    expected_nu = 1 - math.exp(-0.1)
    assert rows[0].nu == pytest.approx(expected_nu)


def test_type_class_routes_check_their_arguments() -> None:
    source = IID((F(3, 4), F(1, 4)))
    for delta in (F(-1, 10), F(11, 10)):
        with pytest.raises(OutOfRange) as excinfo:
            typeclass_smooth_max_entropy(source, 4, delta)
        assert str(excinfo.value) == f"tail budget must lie in [0, 1], got {delta}"
    floating = IID((0.75, 0.25))
    for route in (typeclass_spectrum, lambda v, n: typeclass_smooth_max_entropy(v, n, F(1, 10))):
        with pytest.raises(InvalidModel) as excinfo:
            route(floating, 4)
        assert str(excinfo.value) == "type-class enumeration needs rational source parameters"
